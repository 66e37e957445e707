"""A fresh run of every reference scenario against reference_outputs.json.

The order must be equal, prices within 1e-10 relative, and the rate sums
and largest rates within 1e-8: loose enough for the last-bit moves of a
solver change, tight enough to catch a flipped carrier order or any move
above 1e-8. Regenerate the file with ``tests/reference_outputs.py``. Its
``--digest`` mode prints a line per scenario and leaves the file as it is;
``reference_digests.txt`` holds that printout, and a fresh one must equal
it to the bit. Its ``--probes`` mode prints the summed probes per group,
its ``--calls`` mode the kernel calls and the rows they computed per group,
and its ``--fuzz`` mode the converged solves and probes of 12,000 random
carrier solves, with a hash of their outputs that must equal FUZZ_SHA256.
Its ``--truth`` mode prints each section-5 discovery price's error against
``ground_truth.json``, whose rates the discovery's must meet within
TOL_RATE.
"""

import json
import math
import re

from reference_outputs import (
    DIGESTS,
    REFERENCE,
    digest,
    main,
    probe_counts,
    scenarios,
    summarize,
    truth_errors,
)

from carrieralloc import TOL_RATE

PRICE_REL_TOL = 1e-10
RATE_ABS_TOL = 1e-8
# The sha256 that ``--fuzz`` prints of its solves' outputs.
FUZZ_SHA256 = "0ba7ec647004a10c298e43683480c5398ec3336b8e73475a8ed197a9bd81d082"


def test_outputs_match_the_reference():
    reference = json.loads(REFERENCE.read_text())
    names = []
    moved = []
    for name, scenario in scenarios():
        names.append(name)
        got, want = summarize(scenario), reference[name]
        if got["order"] != want["order"]:
            moved.append(f"{name}: order {got['order']} != {want['order']}")
        assert got["carriers"].keys() == want["carriers"].keys(), name
        for cid, (p_off, p_alloc, rate_sum, rate_max) in want["carriers"].items():
            g_off, g_alloc, g_sum, g_max = got["carriers"][cid]
            for what, g, w in (("offered price", g_off, p_off),
                               ("allocation price", g_alloc, p_alloc)):
                if not math.isclose(g, w, rel_tol=PRICE_REL_TOL, abs_tol=0.0):
                    moved.append(f"{name}: carrier {cid} {what} {g!r} != {w!r}")
            for what, g, w in (("rate sum", g_sum, rate_sum),
                               ("largest rate", g_max, rate_max)):
                if abs(g - w) > RATE_ABS_TOL:
                    moved.append(f"{name}: carrier {cid} {what} {g!r} != {w!r}")
    assert names == list(reference)
    assert not moved, "\n".join(moved[:20])


def test_digest_mode_prints_one_line_per_scenario(capsys):
    before = REFERENCE.read_bytes()
    main(["--digest"])
    lines = capsys.readouterr().out.splitlines()
    named = list(scenarios())
    assert len(lines) == len(named)
    for line, (name, _) in zip(lines, named):
        assert re.fullmatch(r"[0-9a-f]{64} [0-9a-f]{64}  " + re.escape(name), line), line
    assert lines[0].split("  ")[0] == digest(named[0][1])
    assert REFERENCE.read_bytes() == before


def test_reports_are_bit_identical_to_the_checked_in_digests(capsys):
    # The offsets and aggregates are correctly rounded sums, so the digests
    # are the same on every Python version; any output bit that moves shows.
    # The second column leaves the traces out, so it tells a moved output
    # from a solve that only found the same output in other probes.
    main(["--digest"])
    got = [line.split(" ", 2) for line in capsys.readouterr().out.splitlines()]
    want = [line.split(" ", 2) for line in DIGESTS.read_text().splitlines()]
    assert [name for _, _, name in got] == [name for _, _, name in want]
    moved = [name.strip() for (_, out, name), (_, ref, _) in zip(got, want) if out != ref]
    assert not moved, f"{len(moved)} reports moved their outputs: {moved[:10]}"
    searched = [name.strip() for (full, _, name), (ref, _, _) in zip(got, want) if full != ref]
    assert not searched, f"{len(searched)} reports moved their traces: {searched[:10]}"


def test_probes_mode_prints_one_line_per_group(capsys):
    before = REFERENCE.read_bytes()
    main(["--probes"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ", 1)[1] for line in lines] == \
        ["section5 sweep", "wide-carriers seeds 0-1", "many-carriers seeds 0-1"]
    for line in lines:
        assert re.fullmatch(r"[1-9][0-9]*  [a-z0-9 -]+", line), line
    name, probes = next(probe_counts())
    assert lines[0] == f"{probes}  {name}"
    assert REFERENCE.read_bytes() == before


def test_calls_mode_prints_the_kernel_calls_of_each_group(capsys):
    before = REFERENCE.read_bytes()
    main(["--calls"])
    lines = capsys.readouterr().out.splitlines()
    found = [re.fullmatch(r"([1-9][0-9]*) calls  ([1-9][0-9]*) rows  ([a-z0-9 -]+)", line)
             for line in lines]
    assert all(found), lines
    counts = {m[3]: (int(m[1]), int(m[2])) for m in found}
    # (calls, rows) at most. Each call is a probe but a cap floor's
    # response: 2,535 calls and 12,945 rows on the section-5 sweep, 549 and
    # 3,033 calls on the rings, while each solve confirmed its offset users'
    # zero prices with one response each before its first probe; 2,082
    # calls and 12,492 rows on the sweep, 149 and 1,833 calls on the rings,
    # while each solve placed one more probe across the root after a probe
    # within ONE_END_TOL of it
    assert list(counts) == ["section5 sweep", "wide-carriers seeds 0-1",
                            "many-carriers seeds 0-1"]
    bounds = {"section5 sweep": (1895, 11370), "wide-carriers seeds 0-1": (145, 16451),
              "many-carriers seeds 0-1": (1685, 31666)}
    for name, (calls, rows) in counts.items():
        assert calls <= bounds[name][0], name
        assert rows <= bounds[name][1], name
    assert REFERENCE.read_bytes() == before


def test_fuzz_mode_prints_one_line(capsys):
    before = REFERENCE.read_bytes()
    main(["--fuzz"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    found = re.fullmatch(r"([0-9]+) of 12000 converged, ([0-9]+) probes, worst ([0-9]+), "
                         r"sha256 ([0-9a-f]{64})", lines[0])
    assert found, lines[0]
    converged, probes, worst = map(int, found.groups()[:3])
    # 11,876 converged, 104,480 probes and worst 69 before the cap floor
    # raised the bracket search's start; 101,344 probes before a probe
    # within ONE_END_TOL of the capacity ended its solve
    assert converged == 11876
    assert probes <= 86168
    assert worst <= 69
    # every solve's price, rates, converged flag and probe count, bit for
    # bit: a change that moves any of them in any of the 12,000 solves
    # moves the hash, and one that means to says so in CHANGES.md
    assert found[4] == FUZZ_SHA256
    assert REFERENCE.read_bytes() == before


def test_discovery_rates_lie_within_tol_rate_of_the_ground_truth():
    # ground_truth.json holds carrier 1's clearing prices and rates at eight
    # section-5 points, to 40 digits and rounded to float (see
    # tests/ground_truth.py, which needs mpmath; this test reads only the
    # file). A converged solve certifies its rates within TOL_RATE of the
    # clearing allocation, so each of them must lie that near the truth's.
    errors = truth_errors()
    assert [capacity for capacity, _, _ in errors] == [50.0, 63.0, 66.0, 68.0, 75.0,
                                                       100.0, 150.0, 200.0]
    for capacity, _, rate_error in errors:
        assert rate_error <= TOL_RATE, capacity


def test_truth_mode_prints_one_line_per_point(capsys):
    before = REFERENCE.read_bytes()
    main(["--truth"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    for line, (capacity, price_error, rate_error) in zip(lines, truth_errors()):
        assert line == f"{price_error:.2g} price  {rate_error:.2g} rate  R1={capacity!r}"
    assert REFERENCE.read_bytes() == before
