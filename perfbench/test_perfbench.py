"""Smoke tests of the benchmark harness at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest perfbench``. The harness
re-imports ``carrieralloc`` for every set-up; a fixture puts the modules the
rest of the session imported back afterwards.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import ckernel
import run
import workloads

TINY = workloads.RingDesign(n_carriers=3, coverage_mix=(2, 2, 1),
                            loads=(workloads.OVERLOADED, workloads.LIGHT))


@pytest.fixture(autouse=True)
def keep_package_modules():
    saved = run.package_modules()
    yield
    for name in run.package_modules():
        del sys.modules[name]
    sys.modules.update(saved)


@pytest.fixture
def pkg():
    return run.import_package()


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload and keep the harness's files under tmp_path."""
    monkeypatch.setattr(workloads, "WIDE", TINY)
    monkeypatch.setattr(workloads, "MANY", TINY)
    monkeypatch.setattr(workloads, "SECTION5_ARGV",
                        ["sweep", "--preset", "section5", "--sweep", "1=50:52:1"])
    monkeypatch.setattr(workloads.Section5Sweep, "expected_runs", 3)
    monkeypatch.setattr(run, "OUTPUT", tmp_path)
    monkeypatch.setattr(run, "SCALING_SIZES", (6,))
    monkeypatch.setattr(ckernel, "build", lambda root: (None, "not built in tests"))


def report_for(pkg):
    scenario = workloads.ring_scenario(pkg, TINY, 7, "test")
    return scenario, pkg.protocol.run(scenario)


def test_generator_is_deterministic(pkg):
    a = workloads.ring_scenario(pkg, TINY, 3, "x")
    assert a == workloads.ring_scenario(pkg, TINY, 3, "x")
    assert a != workloads.ring_scenario(pkg, TINY, 4, "x")
    covered = checks.covered_users(a)
    assert sorted(len(v) for v in covered.values()) == [9, 9, 9]


def test_checks_accept_a_real_report(pkg):
    scenario, report = report_for(pkg)
    assert checks.check_report(scenario, report) == []
    assert checks.rate_residual_max(pkg, scenario, None, report) >= 0.0


def _negative_rate(r):
    cid = r.processing_order[0]
    uid = next(iter(r.rates[cid]))
    r.rates[cid][uid] = -r.rates[cid][uid] - 1.0


def _capacity_gap(r):
    cid = r.processing_order[-1]
    uid = next(iter(r.rates[cid]))
    r.rates[cid][uid] += 1e-3


def _aggregate(r):
    uid = next(iter(r.aggregates))
    r.aggregates[uid] += 1e-6


def _missing_carrier(r):
    del r.rates[r.processing_order[0]]


CORRUPTIONS = {
    "negative rate": (_negative_rate, "is not >= 0"),
    "capacity gap": (_capacity_gap, "miss capacity"),
    "aggregate": (_aggregate, "is not the sum"),
    "missing carrier": (_missing_carrier, "no rates"),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupted_report_trips_its_check(pkg, kind):
    scenario, report = report_for(pkg)
    corrupt, message = CORRUPTIONS[kind]
    bad = copy.deepcopy(report)
    corrupt(bad)
    problems = checks.check_report(scenario, bad)
    assert any(message in p for p in problems), problems


@pytest.mark.parametrize("order", [lambda o: o + o[:1], lambda o: o[1:]])
def test_processing_order_must_list_each_carrier_once(pkg, order):
    scenario, report = report_for(pkg)
    bad = dataclasses.replace(report, processing_order=order(report.processing_order))
    assert any("processing_order" in p for p in checks.check_report(scenario, bad))


def test_compiled_twin_mismatch_is_detected():
    from carrieralloc import _kernels_py as py

    class Perturbed:
        def __getattr__(self, name):
            return getattr(py, name)

        def net_benefit(self, *args):
            return py.net_benefit(*args) * (1 + 2 ** -52)

    assert ckernel.mismatches(py, py) == []
    assert any(m.startswith("net_benefit") for m in ckernel.mismatches(Perturbed(), py))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(tiny, name, trace):
    result = run.Bench(workloads.WORKLOADS[name](), seed=1, seconds=0, trace=trace).run()
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 + run.MIN_PASSES
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:  # the compiled twin is not built, and only m6 is timed
        wanted = {k: u for k, u in wanted.items()
                  if not k.startswith(("kernel.c.", "enodeb.offered_price_ms.m6"))}
        wanted.update({"kernel.c.available": "count", "enodeb.offered_price_ms.m6": "ms"})
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == wanted


class FlakyCli(workloads.Section5Sweep):
    """The section-5 sweep, but the CLI output or exit code goes wrong."""

    def __init__(self, fault=None):
        self.fault = fault
        self.calls = 0

    def call(self, pkg):
        code = super().call(pkg)
        self.calls += 1
        if self.fault == "exit":
            return 4
        if self.calls > 1:
            (self.out / "sweep_prices.csv").write_text(f"pass {self.calls}\n")
        return code


@pytest.mark.parametrize("fault, message", [("exit", "exited with code 4"),
                                            ("bytes", "differ from the first pass")])
def test_cli_faults_fail_the_run(tiny, fault, message):
    bench = run.Bench(FlakyCli(fault), seed=1, seconds=0, trace=False)
    result = bench.run()
    assert not result["correct"] and result["failed"] >= 1
    assert any(message in p for p in bench.problems)


class FailingWide(workloads.WideCarriers):
    def call(self, pkg):
        raise pkg.ProtocolError("carrier 1 did not converge")


def test_protocol_error_fails_the_run(tiny):
    bench = run.Bench(FailingWide(), seed=1, seconds=0, trace=False)
    result = bench.run()
    assert result["failed"] == result["attempted"] and not result["correct"]
    assert any("ProtocolError" in p for p in bench.problems)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-carriers",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
