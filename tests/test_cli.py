"""Command-line interface: files, schemas, exit codes, byte stability."""

import csv
import itertools
import json
import logging
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from carrieralloc import (
    CarrierSpec,
    ConvergenceTrace,
    Logarithmic,
    Scenario,
    Sigmoidal,
    TraceStep,
    UserSpec,
    cli,
    run,
    serialize_scenario,
    two_carrier_nine_user,
)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def run_cli(argv):
    return cli.main(argv)


def reference_trace_bytes(path, trace):
    """A trace CSV as ``csv.writer`` writes it, the way the CLI used to."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "price", "user_id", "w", "r"])
        writer.writerows(
            [step.iteration, step.price, uid, w, r]
            for step in trace.steps
            for uid, w, r in zip(trace.user_ids, step.bids, step.rates)
        )
    return path.read_bytes()


# Three carriers, listed out of id order, and five users, listed out of id
# order. Users 3, 105, 7 and 40 cover several carriers, so the later
# carriers' allocation solves see non-zero offsets; user 105 lists its
# carriers as (3, 1).
THREE_CARRIERS = Scenario(
    carriers=(CarrierSpec(3, 20.0), CarrierSpec(1, 30.0), CarrierSpec(2, 45.0)),
    users=(
        UserSpec(12, Sigmoidal(a=5.0, b=10.0), (1,)),
        UserSpec(3, Logarithmic(k=3.0, r_max=100.0), (1, 2)),
        UserSpec(105, Logarithmic(k=15.0, r_max=100.0), (3, 1)),
        UserSpec(7, Logarithmic(k=0.5, r_max=100.0), (2, 3)),
        UserSpec(40, Sigmoidal(a=3.0, b=20.0), (2, 3, 1)),
    ),
)


class TestRunCommand:
    def test_symmetric_preset_prices_equal(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["run", "--preset", "section5",
                        "--set-capacity", "1=100", "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "prices.csv")
        assert rows[0] == ["carrier_id", "offered_price", "allocation_price"]
        p1 = float(rows[1][1])
        p2 = float(rows[2][1])
        assert abs(p1 - p2) / p2 <= 1e-3

    def test_aggregates_conserve_capacity(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["run", "--preset", "section5",
                        "--set-capacity", "1=50", "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "aggregates.csv")
        assert rows[0] == ["user_id", "r_agg"]
        assert len(rows) == 10  # header + nine users
        total = sum(float(r[1]) for r in rows[1:])
        assert total == pytest.approx(150.0, rel=1e-6)

    def test_allocation_rows_and_offsets(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["run", "--preset", "section5", "--out", str(out)]) == 0
        rows = read_rows(out / "allocations.csv")
        assert rows[0] == ["user_id", "carrier_id", "rate", "offset_used"]
        # six covered pairs per carrier
        assert len(rows) == 1 + 12

    def test_trace_files_written(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["run", "--preset", "section5", "--out", str(out)]) == 0
        for cid in (1, 2):
            for phase in ("offered", "allocation"):
                rows = read_rows(out / f"trace_{cid}_{phase}.csv")
                assert rows[0] == ["iteration", "price", "user_id", "w", "r"]
                assert len(rows) > 1

    def test_full_precision_round_trip(self, tmp_path):
        # CSV floats parse back to the exact in-memory report values
        out = tmp_path / "out"
        assert run_cli(["run", "--preset", "section5", "--out", str(out)]) == 0
        report = run(two_carrier_nine_user())
        rows = read_rows(out / "prices.csv")
        for row in rows[1:]:
            cid = int(row[0])
            assert float(row[1]) == report.offered_prices[cid]
            assert float(row[2]) == report.allocation_prices[cid]

    def test_scenario_file_input(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(serialize_scenario(two_carrier_nine_user(60.0, 100.0)))
        out = tmp_path / "out"
        assert run_cli(["run", "--scenario", str(path), "--out", str(out)]) == 0
        rows = read_rows(out / "aggregates.csv")
        total = sum(float(r[1]) for r in rows[1:])
        assert total == pytest.approx(160.0, rel=1e-6)

    @pytest.mark.parametrize("field", ["capacity", "k"])
    def test_integer_beyond_float_range_is_an_input_error(self, tmp_path, capsys,
                                                          field):
        doc = json.loads(serialize_scenario(THREE_CARRIERS))
        if field == "capacity":
            doc["carriers"][0]["capacity"] = 10**400
        else:
            doc["users"][1]["utility"]["k"] = 10**400
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        code = run_cli(["run", "--scenario", str(path),
                        "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_missing_scenario_file(self, tmp_path, capsys):
        code = run_cli(["run", "--scenario", str(tmp_path / "absent.json"),
                        "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "absent.json" in err

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        code = run_cli(["run", "--preset", "section5", "--max-iters", "2",
                        "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_SOLVER
        assert "did not converge" in capsys.readouterr().err

    def test_unreachable_capacity_exit_code(self, tmp_path, capsys):
        # a lone sigmoid user cannot fill the carrier at any normal price
        path = tmp_path / "scenario.json"
        path.write_text(
            '{"carriers": [{"id": 1, "capacity": 200}], "users": [{"id": 1, '
            '"utility": {"type": "sigmoidal", "a": 5, "b": 10}, "coverage": [1]}]}'
        )
        code = run_cli(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_SOLVER
        assert "carrier 1: price discovery" in capsys.readouterr().err

    def test_bad_set_capacity_spec(self, tmp_path, capsys):
        code = run_cli(["run", "--preset", "section5",
                        "--set-capacity", "banana",
                        "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_INPUT
        assert "ID=VALUE" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["run", "--preset", "section5",
                            "--set-capacity", "1=130", "--out", str(out)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_verbose_counts_on_every_call(self, tmp_path, caplog):
        def wrote(argv):
            caplog.clear()
            assert run_cli(["run", "--preset", "section5", "--out",
                            str(tmp_path / "out")] + argv) == 0
            return [r for r in caplog.records
                    if r.name == "carrieralloc.cli" and r.levelno == logging.INFO
                    and r.getMessage().startswith("wrote report CSVs")]

        logger = logging.getLogger("carrieralloc")
        level = logger.level
        try:
            assert wrote([]) == []
            assert len(wrote(["-v"])) == 1
            assert wrote([]) == []
        finally:
            logger.setLevel(level)

    def test_verbose_module_run_logs_its_report(self, tmp_path):
        # Run as ``python -m carrieralloc.cli``, the module is ``__main__``.
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "carrieralloc.cli", "run", "--preset",
             "section5", "--out", str(tmp_path / "out"), "-v"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "INFO carrieralloc.cli: wrote report CSVs" in proc.stderr


class TestWritePath:
    @pytest.mark.parametrize("command", [
        ["run", "--preset", "section5"],
        ["sweep", "--preset", "section5", "--sweep", "1=50:60:10"],
    ], ids=["run", "sweep"])
    def test_out_naming_a_file_is_an_io_error(self, tmp_path, capsys, monkeypatch,
                                              command):
        def no_solve(scenario, params=None):
            pytest.fail("solved before creating the output directory")

        monkeypatch.setattr(cli.protocol, "run", no_solve)
        out = tmp_path / "out"
        out.write_text("not a directory")
        assert run_cli(command + ["--out", str(out)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1
        assert out.read_text() == "not a directory"

    def test_report_file_name_taken_by_a_directory(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "prices.csv").mkdir(parents=True)
        code = run_cli(["run", "--preset", "section5", "--out", str(out)])
        assert code == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "prices.csv" in err

    def test_rewrite_over_stale_files_equals_a_fresh_run(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(serialize_scenario(THREE_CARRIERS))
        fresh, stale = tmp_path / "fresh", tmp_path / "stale"
        argv = ["run", "--scenario", str(path), "--out"]
        assert run_cli(argv + [str(fresh)]) == 0
        names = sorted(p.name for p in fresh.iterdir())
        stale.mkdir()
        # The first file is missing; the others alternate between stale
        # copies longer and shorter than the new files.
        for k, name in enumerate(names[1:]):
            size = (fresh / name).stat().st_size
            (stale / name).write_bytes(b"#" * (size + 100 if k % 2 else size // 2))
        assert run_cli(argv + [str(stale)]) == 0
        assert sorted(p.name for p in stale.iterdir()) == names
        for name in names:
            assert (stale / name).read_bytes() == (fresh / name).read_bytes(), name


# Zero, the smallest subnormal, the smallest normal, floats that repr
# writes in exponent and in positional form, and the largest float.
EDGE_FLOATS = (0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 0.1, 1e16,
               1.7976931348623157e308)


class TestTraceFiles:
    @pytest.mark.parametrize("trace", [
        # Every edge float is posted once as the price and thrice as a rate,
        # so w = price * r also underflows to 0 and overflows to inf.
        ConvergenceTrace(
            user_ids=(7, 12, 1234),
            steps=tuple(
                TraceStep(n, p, tuple(EDGE_FLOATS[(k + j) % 7] for j in range(3)))
                for k, (n, p) in enumerate(zip((1, 9, 10, 99, 100, 123, 1000),
                                               EDGE_FLOATS))
            ),
        ),
        ConvergenceTrace(user_ids=(98765,), steps=(TraceStep(1, 0.1, (5e-324,)),)),
    ], ids=["edge-floats", "one-step-one-user"])
    def test_formatter_writes_csv_writer_bytes(self, tmp_path, trace):
        cli._write_trace_csv(tmp_path / "direct.csv", trace)
        expected = reference_trace_bytes(tmp_path / "reference.csv", trace)
        assert (tmp_path / "direct.csv").read_bytes() == expected

    def test_run_trace_files_match_csv_writer(self, tmp_path, monkeypatch):
        reports = []
        solve = cli.protocol.run

        def capture(scenario, params=None):
            reports.append(solve(scenario, params))
            return reports[-1]

        monkeypatch.setattr(cli.protocol, "run", capture)
        path = tmp_path / "scenario.json"
        path.write_text(serialize_scenario(THREE_CARRIERS))
        out = tmp_path / "out"
        assert run_cli(["run", "--scenario", str(path), "--out", str(out)]) == 0
        (report,) = reports
        assert any(c > 0 for offsets in report.offsets.values() for c in offsets.values())
        for cid in (1, 2, 3):
            for phase, trace in (("offered", report.offered_traces[cid]),
                                 ("allocation", report.allocation_traces[cid])):
                name = f"trace_{cid}_{phase}.csv"
                expected = reference_trace_bytes(tmp_path / name, trace)
                assert (out / name).read_bytes() == expected

    def test_allocation_rows_in_id_order(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(serialize_scenario(THREE_CARRIERS))
        out = tmp_path / "out"
        assert run_cli(["run", "--scenario", str(path), "--out", str(out)]) == 0
        keys = [(int(r[0]), int(r[1])) for r in read_rows(out / "allocations.csv")[1:]]
        covered = [(u.id, cid) for u in THREE_CARRIERS.users for cid in u.coverage]
        assert keys == sorted(covered)


class TestSweepCommand:
    def test_full_sweep_files(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["sweep", "--preset", "section5",
                        "--sweep", "1=50:200:10", "--out", str(out)])
        assert code == 0
        rows = read_rows(out / "sweep_prices.csv")
        assert rows[0] == ["R_value", "p1_offered", "p2_offered", "status"]
        assert len(rows) == 17  # header + 16 points
        assert all(row[3] == "ok" for row in rows[1:])
        p1 = [float(row[1]) for row in rows[1:]]
        assert all(a > b for a, b in zip(p1, p1[1:]))

        agg_rows = read_rows(out / "sweep_aggregates.csv")
        assert agg_rows[0] == ["R_value", "user_id", "r_agg"]
        assert len(agg_rows) == 1 + 16 * 9

    def test_priority_under_scarcity(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["sweep", "--preset", "section5",
                        "--sweep", "1=50:50:10", "--out", str(out)]) == 0
        rows = read_rows(out / "sweep_aggregates.csv")
        by_user = {int(r[1]): float(r[2]) for r in rows[1:]}
        assert by_user[1] > by_user[3]

    def test_sweep_spec_validation(self, tmp_path, capsys):
        code = run_cli(["sweep", "--preset", "section5",
                        "--sweep", "1=200:50:10", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_INPUT
        assert "must not exceed" in capsys.readouterr().err

    @pytest.mark.parametrize("field,spec", [
        (field, ":".join(value if i == pos else default
                         for i, default in enumerate(("50", "200", "1"))))
        for pos, field in enumerate(("START", "STOP", "STEP"))
        for value in ("inf", "-inf", "nan")
    ])
    def test_non_finite_sweep_bounds_are_input_errors(self, tmp_path, capsys,
                                                       field, spec):
        code = run_cli(["sweep", "--preset", "section5",
                        "--sweep", f"1={spec}", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"sweep {field} must be finite" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("spec", ["0:1e300:1e-10", "-1e308:1e308:1e-300"])
    def test_overflowing_point_count_is_an_input_error(self, tmp_path, capsys, spec):
        # finite fields whose point count (STOP - START)/STEP overflows to inf
        code = run_cli(["sweep", "--preset", "section5",
                        "--sweep", f"1={spec}", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert "too many points" in err
        assert not (tmp_path / "o").exists()

    def test_first_point_runs_before_the_rest_are_formed(self, tmp_path, monkeypatch):
        # 1e300 points: a sweep that listed them all first would never start
        class FirstPoint(Exception):
            pass

        def first_point(scenario, params=None):
            raise FirstPoint(scenario.carrier(1).capacity)

        monkeypatch.setattr(cli.protocol, "run", first_point)
        with pytest.raises(FirstPoint) as exc:
            run_cli(["sweep", "--preset", "section5",
                     "--sweep", "1=50:1e300:1", "--out", str(tmp_path / "o")])
        assert exc.value.args == (50.0,)

    def test_failed_points_recorded_with_status(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(["sweep", "--preset", "section5",
                        "--sweep", "1=50:60:10", "--max-iters", "2",
                        "--out", str(out)])
        assert code == cli.EXIT_SOLVER
        rows = read_rows(out / "sweep_prices.csv")
        assert len(rows) == 3
        for row in rows[1:]:
            assert "did not converge" in row[3]

    def test_sweep_discovers_the_fixed_carrier_once(self, tmp_path, monkeypatch):
        capacities = []
        solve = cli.protocol.offered_price

        def counting(users, capacity, params=None):
            capacities.append(capacity)
            return solve(users, capacity, params)

        monkeypatch.setattr(cli.protocol, "offered_price", counting)
        out = tmp_path / "out"
        assert run_cli(["sweep", "--preset", "section5",
                        "--sweep", "1=50:70:10", "--out", str(out)]) == 0
        assert capacities == [50.0, 100.0, 60.0, 70.0]
        assert cli.protocol._sweep_solves.get() is None

    def test_scope_closes_after_failed_points(self, tmp_path, capsys):
        code = run_cli(["sweep", "--preset", "section5",
                        "--sweep", "1=50:60:10", "--max-iters", "2",
                        "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_SOLVER
        assert cli.protocol._sweep_solves.get() is None

    def test_unknown_sweep_carrier(self, tmp_path, capsys):
        code = run_cli(["sweep", "--preset", "section5",
                        "--sweep", "9=50:60:10", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_INPUT
        assert "no carrier with id 9" in capsys.readouterr().err


class TestParsing:
    def test_requires_scenario_or_preset(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--out", "x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--delta", "--l1", "--l2"])
    def test_clamped_iteration_settings_are_not_options(self, tmp_path, capsys, flag):
        # the solve never runs the paper's clamped iteration, so its
        # settings are no options: a usage error, and absent from the help
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--preset", "section5", flag, "1e-3",
                     "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--help"])
        assert exc.value.code == 0
        assert flag not in capsys.readouterr().out

    def test_sweep_values_inclusive(self):
        cid, values = cli._parse_sweep_spec("1=50:200:10")
        assert cid == 1
        assert len(values) == 16
        assert values[0] == 50.0
        assert values[-1] == 200.0
        assert math.isclose(values[1] - values[0], 10.0)

    def test_sweep_values_formed_on_demand(self):
        _, values = cli._parse_sweep_spec("1=50:200:10")
        assert list(values) == [values[i] for i in range(16)]
        assert list(values) == [50.0 + i * 10.0 for i in range(16)]
        _, values = cli._parse_sweep_spec("1=0:1e300:1")
        assert list(itertools.islice(values, 3)) == [0.0, 1.0, 2.0]
        assert values[-1] == 1e300
