"""Reference outputs of ``protocol.run``, checked by ``test_reference_outputs``.

    PYTHONPATH=src python tests/reference_outputs.py

rewrites ``reference_outputs.json`` beside this file from the package on
the path. For each scenario the file holds ``processing_order`` and, per
carrier id, [offered price, allocation price, sum of its rates, largest
rate]. The scenarios are the paper's section-5 sweep, R1 = 50 ... 200 in
steps of 1, and the benchmark's wide and many ring scenarios, seeds 0-1.
A regeneration changes test data: say what moved, and why, in CHANGES.md.

    PYTHONPATH=src python tests/reference_outputs.py --digest

writes nothing. It prints one line per scenario, in the file's order: the
sha256 of the ``repr`` of the scenario's full ``run`` report (prices,
rates, offsets, aggregates, traces and order), a space, the sha256 of the
report with its two trace maps emptied, two spaces, and the scenario's
name. The traces are the only part of a report that tells how a solve
found its price, and the number of their steps is each solve's
``iterations``, so the second hash covers every reported output and
nothing of the search: a change that only shortens the solves moves the
first column alone. Two checkouts give bit-identical reports when the two
printouts are equal. ``reference_digests.txt`` beside this file holds the
printout, and ``test_reference`` compares a fresh one with it; a change
that moves any output bit regenerates it with

    PYTHONPATH=src python tests/reference_outputs.py --digest > tests/reference_digests.txt

and says so in CHANGES.md.

    PYTHONPATH=src python tests/reference_outputs.py --probes

writes nothing either. It prints the summed probes of the distinct carrier
solves of each scenario group, one line per group: the section-5 sweep,
run as one ``sweep`` so that its points reuse each other's solves, and the
wide and many rings, seeds 0-1. A solve is counted once, however many
reports hold its trace.

    PYTHONPATH=src python tests/reference_outputs.py --calls

writes nothing either. For the same groups it prints the kernel calls
and the rows they computed, one line per group: every ``net_rates`` call
counts, one-row tables too, and a row counts unless the call skipped it
at or above its skip price.

    PYTHONPATH=src python tests/reference_outputs.py --fuzz

writes nothing either. It runs 12,000 random carrier solves, 6,000 each
from ``random.Random(7)`` and ``random.Random(8)``: 1 to 8 users, each a
sigmoid or a log user with an offset half of the time, on a capacity
from 1e-2 to 1e3. It prints one line: the converged solves, the summed
probes, the most probes in one solve, and a sha256 of every solve's price,
rates, ``converged`` and ``iterations``, taken in draw order. Two checkouts
whose solves give bit-identical results print the same hash.

    PYTHONPATH=src python tests/reference_outputs.py --truth

writes nothing either. For each point of ``ground_truth.json`` beside this
file (see ``tests/ground_truth.py``) it runs carrier 1's price discovery of
the section-5 scenario and prints one line: the offered price's error
relative to the high-precision clearing price, the largest error of a
user's rate, and the point.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from carrieralloc import (
    AllocationReport,
    CarrierSpec,
    Logarithmic,
    Scenario,
    Sigmoidal,
    UserSpec,
    dual_ascent,
    offered_price,
    run,
    sweep,
    two_carrier_nine_user,
    with_capacity,
)
from carrieralloc import _kernels_py as kernels

REFERENCE = Path(__file__).with_name("reference_outputs.json")
TRUTH = Path(__file__).with_name("ground_truth.json")
DIGESTS = Path(__file__).with_name("reference_digests.txt")
# The CLI's sweep points for 1=50:200:1.
SECTION5_CAPACITIES = [50.0 + i * 1.0 for i in range(151)]


# The ring layout below copies perfbench/workloads.py, and each design is
# built with the salt its benchmark workload uses, so that these scenarios
# are the benchmark's. The copy keeps tier-1 independent of the benchmark.
@dataclass(frozen=True)
class RingDesign:
    n_carriers: int
    coverage_mix: tuple[int, ...]
    loads: tuple[float, ...]


RING_DESIGNS = {
    "wide-carriers": RingDesign(4, (50, 50), (2.0, 40.0)),
    "many-carriers": RingDesign(60, (3, 4, 3), (40.0,)),
}


def _utility(rng: random.Random):
    if rng.random() < 0.5:
        return Sigmoidal(a=rng.uniform(1.0, 5.0), b=rng.uniform(10.0, 30.0))
    return Logarithmic(k=rng.uniform(0.5, 15.0), r_max=100.0)


def ring_scenario(design: RingDesign, seed: int, salt: str) -> Scenario:
    rng = random.Random(f"{salt}/{seed}")
    n = design.n_carriers
    coverages = [
        tuple((home + j) % n + 1 for j in range(k + 1))
        for home in range(n)
        for k, count in enumerate(design.coverage_mix)
        for _ in range(count)
    ]
    ids = list(range(1, len(coverages) + 1))
    rng.shuffle(ids)
    users = tuple(
        UserSpec(id=uid, utility=_utility(rng), coverage=cov)
        for uid, cov in zip(ids, coverages)
    )
    covered = [0] * n
    for cov in coverages:
        for cid in cov:
            covered[cid - 1] += 1
    rotation = rng.randrange(len(design.loads))
    carriers = tuple(
        CarrierSpec(
            id=i + 1,
            capacity=covered[i] * design.loads[(i + rotation) % len(design.loads)],
        )
        for i in range(n)
    )
    return Scenario(carriers=carriers, users=users)


def scenarios():
    """(name, scenario) pairs, in the reference file's order."""
    section5 = two_carrier_nine_user()
    for capacity in SECTION5_CAPACITIES:
        yield f"section5 R1={capacity!r}", with_capacity(section5, 1, capacity)
    for salt, design in RING_DESIGNS.items():
        for seed in (0, 1):
            yield f"{salt} seed {seed}", ring_scenario(design, seed, salt)


def summarize(scenario: Scenario) -> dict:
    report = run(scenario)
    return {
        "order": list(report.processing_order),
        "carriers": {
            str(cid): [
                report.offered_prices[cid],
                report.allocation_prices[cid],
                math.fsum(report.rates[cid].values()),
                max(report.rates[cid].values()),
            ]
            for cid in sorted(report.rates)
        },
    }


def digest(scenario: Scenario) -> str:
    """The sha256 of the repr of the scenario's full ``run`` report, a space,
    and the sha256 of the report with its trace maps emptied."""
    report = run(scenario)
    outputs = dataclasses.replace(report, offered_traces={}, allocation_traces={})
    return " ".join(hashlib.sha256(repr(r).encode()).hexdigest() for r in (report, outputs))


def distinct_probes(reports: Iterable[AllocationReport]) -> int:
    """Summed probes of the distinct solves behind ``reports``.

    A reused solve hands the same trace to every report that holds it, such
    as an allocation equal to its discovery, or a solve equal to one of the
    previous sweep point's, so each trace object counts once.
    """
    traces = {}
    for report in reports:
        for phase in (report.offered_traces, report.allocation_traces):
            for trace in phase.values():
                traces[id(trace)] = trace
    return sum(len(trace) for trace in traces.values())


def group_reports():
    """(group name, its reports) for each scenario group, each run when it comes up."""
    points = sweep(two_carrier_nine_user(), 1, SECTION5_CAPACITIES)
    yield "section5 sweep", [report for _, report in points]
    for salt, design in RING_DESIGNS.items():
        yield f"{salt} seeds 0-1", [run(ring_scenario(design, seed, salt)) for seed in (0, 1)]


def probe_counts():
    """(group name, summed probes) for each scenario group."""
    for name, reports in group_reports():
        yield name, distinct_probes(reports)


@contextmanager
def counting_kernel_calls():
    """Count the kernel's work while the block runs: yields [calls, rows].

    Counted by wrapping ``_kernels_py.net_rates``, which every response of
    the package goes through. A row is computed unless the price is at or
    above its skip price, its last field: a one-row table's NaN never is.
    """
    counts = [0, 0]
    real = kernels.net_rates

    def counting(table, price, eps_r):
        counts[0] += 1
        counts[1] += sum(not price >= row[-1] for row in table)
        return real(table, price, eps_r)

    kernels.net_rates = counting
    try:
        yield counts
    finally:
        kernels.net_rates = real


def kernel_calls() -> list[tuple[str, int, int]]:
    """(group name, kernel calls, rows computed) for each scenario group."""
    out = []
    with counting_kernel_calls() as counts:
        for name, _ in group_reports():
            out.append((name, *counts))
            counts[:] = [0, 0]
    return out


def fuzz_summary() -> str:
    """The fuzz's line: converged solves of all, summed probes, most probes in
    one, and the sha256 of every solve's outputs in draw order."""
    results = []
    outputs = hashlib.sha256()
    for seed in (7, 8):
        rng = random.Random(seed)
        for _ in range(6000):
            entries = []
            for uid in range(1, rng.randint(1, 8) + 1):
                if rng.random() < 0.5:
                    u = Sigmoidal(rng.uniform(0.5, 8.0), rng.uniform(5.0, 100.0))
                else:
                    u = Logarithmic(rng.uniform(0.5, 15.0), 100.0)
                offset = rng.uniform(0.0, 30.0) if rng.random() < 0.5 else 0.0
                entries.append((uid, u, offset))
            res = dual_ascent(entries, 10.0 ** rng.uniform(-2.0, 3.0))
            results.append(res)
            # repr writes each float with the digits that round-trip it
            outputs.update(repr((res.shadow_price, res.rates, res.converged,
                                 res.iterations)).encode())
    probes = [res.iterations for res in results]
    return (f"{sum(res.converged for res in results)} of {len(results)} converged, "
            f"{sum(probes)} probes, worst {max(probes)}, sha256 {outputs.hexdigest()}")


def truth_errors() -> list[tuple[float, float, float]]:
    """(capacity, relative price error, largest rate error) of carrier 1's
    discovery at each point of ``ground_truth.json``."""
    truth = json.loads(TRUTH.read_text())
    cid = truth["carrier"]
    scenario = two_carrier_nine_user()
    users = [(uid, scenario.user(uid).utility) for uid in scenario.covered_users(cid)]
    out = []
    for point in truth["discovery"]:
        res = offered_price(users, point["capacity"])
        want = point["price"]
        rate_error = max(abs(res.rates[int(uid)] - r) for uid, r in point["rates"].items())
        out.append((point["capacity"], abs(res.shadow_price - want) / want, rate_error))
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--digest", action="store_true",
        help="print a digest of each full report instead of writing the file",
    )
    mode.add_argument(
        "--probes", action="store_true",
        help="print the summed probes of each scenario group instead of writing the file",
    )
    mode.add_argument(
        "--calls", action="store_true",
        help="print the kernel calls and the rows they computed for each scenario group",
    )
    mode.add_argument(
        "--fuzz", action="store_true",
        help="print the converged solves and the probes of 12,000 random solves",
    )
    mode.add_argument(
        "--truth", action="store_true",
        help="print each discovery price's error against ground_truth.json",
    )
    args = parser.parse_args(argv)
    if args.digest:
        for name, scenario in scenarios():
            print(f"{digest(scenario)}  {name}")
        return
    if args.probes:
        for name, probes in probe_counts():
            print(f"{probes}  {name}")
        return
    if args.calls:
        for name, calls, rows in kernel_calls():
            print(f"{calls} calls  {rows} rows  {name}")
        return
    if args.fuzz:
        print(fuzz_summary())
        return
    if args.truth:
        for capacity, price_error, rate_error in truth_errors():
            print(f"{price_error:.2g} price  {rate_error:.2g} rate  R1={capacity!r}")
        return
    lines = [
        f"{json.dumps(name)}: {json.dumps(summarize(scenario), separators=(',', ':'))}"
        for name, scenario in scenarios()
    ]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
