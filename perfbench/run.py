#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the carrieralloc allocator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of section5-sweep, wide-carriers, many-carriers, or ``all``
(the default), which runs the three in turn in this one process. The
benchmark is a closed loop of one caller on one thread: each pass starts
when the previous one has returned and been checked. With ``--trace 0`` it
reports the end-to-end metrics, with ``--trace 1`` the per-layer ones. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 when every check passed, 1 when one failed, and 2 when
the package under test cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import ckernel
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "carrieralloc"
OUTPUT = ROOT / ".perfbench"

MIN_PASSES = 3
SCALING_SIZES = (6, 60, 600)


def calibration() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed pure-Python float loop, median of three.

    The loop shares no code with the package. The machine's speed drifts by
    up to 1.7x over minutes, and a pass divided by this loop cancels most of
    that drift while keeping every change in the program's own cost.
    """
    walls, cpus = [], []
    for _ in range(3):
        c0, t0 = time.process_time(), time.perf_counter()
        acc = 0.0
        for i in range(1, 30_000):
            x = i * 1e-4
            acc += math.exp(-x) / (1.0 + math.log1p(x))
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    return statistics.median(walls), statistics.median(cpus)


class MissingPackage(Exception):
    pass


def package_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k.partition(".")[0] == "carrieralloc"}


def import_package():
    """Import ``carrieralloc`` afresh from this checkout's ``src``."""
    for name in package_modules():
        del sys.modules[name]
    pkg = importlib.import_module("carrieralloc")
    importlib.import_module("carrieralloc.cli")
    if Path(pkg.__file__).resolve().parent != PACKAGE.resolve():
        raise MissingPackage(f"imported carrieralloc from {pkg.__file__}, not {PACKAGE}")
    return pkg


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def quantile(values, q: float) -> float:
    """The q-quantile (0 < q < 1) of ``values``, interpolated; 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Bench:
    """One workload: set up, timed passes, checks and metrics."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self.reference_digest = None
        self.digest = {}
        self.residual = None
        self.setup_times: list[float] = []
        self.calibration_s: list[float] = []

    def set_up(self, workdir: Path, workload):
        """Import the package afresh and build the workload's input, timed."""
        t0 = time.perf_counter()
        pkg = import_package()
        workload.setup(pkg, self.seed, workdir)
        self.setup_times.append(time.perf_counter() - t0)
        return pkg

    def resample_setup(self, workdir: Path) -> None:
        """Time one more set-up, then put the package under measurement back.

        The machine's speed drifts over seconds, so set-up is sampled after
        every pass across the whole run rather than in one burst before it.
        """
        saved = package_modules()
        workdir.mkdir(exist_ok=True)
        self.set_up(workdir, type(self.workload)())
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(saved)

    def one_pass(self, pkg, capture: checks.Capture) -> tuple[float, float]:
        """Run and time one pass, then check everything it produced."""
        capture.calls.clear()
        gc.collect()
        problems = []
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            code = self.workload.call(pkg)
        except pkg.ProtocolError as e:
            code = None
            problems.append(f"ProtocolError: {e}")
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if code not in (None, 0):
            problems.append(f"CLI exited with code {code}")
        if not problems and len(capture.calls) != self.workload.expected_runs:
            problems.append(f"expected {self.workload.expected_runs} protocol.run "
                            f"results, got {len(capture.calls)}")
        for scenario, _, report in capture.calls:
            problems.extend(checks.check_report(scenario, report))
        if self.workload.out is not None:
            self.digest = checks.digest_dir(self.workload.out)
            if self.reference_digest is None:
                self.reference_digest = self.digest
            elif self.digest != self.reference_digest:
                problems.append("CLI output files differ from the first pass")
        if self.residual is None and capture.calls and not problems:
            self.residual = max(checks.rate_residual_max(pkg, s, p, r)
                                for s, p, r in capture.calls)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])
        return wall, cpu

    def measure(self, pkg, deadline: float, tracer, workdir: Path):
        """Passes until ``deadline``; with a tracer, every other pass is traced.

        Untraced passes are (wall, cpu, wall / calibration, cpu / calibration),
        with the calibration loop timed before and after each of them.
        """
        capture = checks.Capture(pkg.protocol)
        plain, traced = [], []
        try:
            self.one_pass(pkg, capture)  # warm-up: checked, not timed
            before = calibration()
            while (time.perf_counter() < deadline or len(plain) < MIN_PASSES
                   or (tracer is not None and len(traced) < MIN_PASSES)):
                if tracer is not None and len(traced) < len(plain):
                    tracer.keep_spans = not traced
                    tracer.begin_pass()
                    tracer.install(pkg)
                    try:
                        traced.append(self.one_pass(pkg, capture))
                    finally:
                        tracer.unpatch()
                else:
                    wall, cpu = self.one_pass(pkg, capture)
                    after = calibration()
                    plain.append((wall, cpu, 2 * wall / (before[0] + after[0]),
                                  2 * cpu / (before[1] + after[1])))
                    self.calibration_s.append(after[0])
                    before = after
                    if tracer is None:
                        self.resample_setup(workdir / "setup")
        finally:
            capture.unpatch()
        return plain, traced

    def run(self) -> dict:
        workdir = OUTPUT / "work" / f"{self.workload.name}-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            pkg = self.set_up(workdir, self.workload)
            start = time.perf_counter()
            extra = {}
            tracer = None
            if self.trace:
                extra = self.layer_microbenchmarks(pkg)
                tracer = tracing.Tracer()
            plain, traced = self.measure(pkg, start + self.seconds, tracer, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        env = {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "backend": pkg.backend_name(),
            "commit": git_commit(),
        }
        walls = [p[0] for p in plain]
        summary = {
            "passes": len(walls),
            "pass_s_q1": quantile(walls, 0.25),
            "pass_s_median": statistics.median(walls),
            "pass_s_q3": quantile(walls, 0.75),
            "pass_cpu_s_median": statistics.median(p[1] for p in plain),
            "calibration_ms_median": statistics.median(self.calibration_s) * 1e3,
            "setup_samples": len(self.setup_times),
            "rate_residual_max": self.residual,
            "problems": self.problems,
            "notes": self.notes,
        }
        if self.trace:
            metrics = self.layer_metrics(tracer, plain, traced)
            metrics.update(extra)
            summary["traced_passes"] = len(traced)
            summary["attributed_share"] = sum(
                metrics[k][0] for k in ("enodeb.solve_s", "protocol.self_s", "cli.self_s")
            ) / statistics.fmean(w for w, _ in traced)
        else:
            metrics = {
                "setup_s": (statistics.median(self.setup_times), "s"),
                "pass_cal": (statistics.median(p[2] for p in plain), "ratio"),
                "pass_cpu_cal": (statistics.median(p[3] for p in plain), "ratio"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "ok_frac": (1.0 - self.failed / self.attempted, "ratio"),
            }
        result = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        self.write(env, summary, result, tracer)
        return result

    def layer_microbenchmarks(self, pkg) -> dict:
        """Kernel per-call times for both twins and single-solve scaling."""
        from carrieralloc import _kernels_py

        out = {}
        for name, value in ckernel.microbench(_kernels_py, _kernels_py, "py").items():
            out[name] = (value, "ns" if name.endswith("_ns") else "us")
        path, why = ckernel.build(ROOT)
        c = ckernel.load(path) if path is not None else None
        if c is not None:
            bad = ckernel.mismatches(c, _kernels_py)
            if bad:
                self.attempted += 1
                self.failed += 1
                self.problems.append("compiled kernels differ from _kernels_py: "
                                     + ", ".join(bad[:5]))
                c, why = None, "not bit-identical to _kernels_py"
        out["kernel.c.available"] = (1 if c is not None else 0, "count")
        if c is None:
            self.notes.append(f"kernel.c unavailable: {why}")
        else:
            for name, value in ckernel.microbench(c, _kernels_py, "c").items():
                out[name] = (value, "ns" if name.endswith("_ns") else "us")
        preset = pkg.two_carrier_nine_user()
        users = [(u.id, u.utility) for u in preset.users if 1 in u.coverage]
        for m in SCALING_SIZES:
            reps = m // len(users)
            scaled = [(k * 100 + uid, u) for k in range(reps) for uid, u in users]
            samples = []
            for _ in range(max(3, 60 // m)):
                t0 = time.perf_counter()
                pkg.offered_price(scaled, 100.0 * reps)
                samples.append(time.perf_counter() - t0)
            out[f"enodeb.offered_price_ms.m{m}"] = (statistics.median(samples) * 1e3, "ms")
        return out

    def layer_metrics(self, tracer: tracing.Tracer, plain, traced) -> dict:
        n = len(traced)
        layers = tracer.layers
        solves = tracer.solves

        def total(name, field=1):
            return layers[name][field] / n if name in layers else 0.0

        def solve_ms(phase=None):
            return [s.seconds * 1e3 for s in solves if phase in (None, s.phase)]

        # Layer times are means over the traced passes, so shares divide by
        # the mean traced pass; the overhead compares medians.
        traced_mean = statistics.fmean(w for w, _ in traced)
        traced_s = statistics.median(w for w, _ in traced)
        plain_s = statistics.median(p[0] for p in plain)
        solve_s = sum(s.seconds for s in solves) / n
        inner = sum(s.iterations * s.m for s in solves) / n
        protocol_self = total("protocol.run", 2)
        out = {
            "enodeb.solves": (len(solves) / n, "count"),
            "enodeb.solve_s": (solve_s, "s"),
            "enodeb.iterations_sum": (sum(s.iterations for s in solves) / n, "count"),
            "enodeb.iterations_max": (max((s.iterations for s in solves), default=0), "count"),
            "enodeb.inner_solves": (inner, "count"),
            "enodeb.ns_per_inner_solve": (solve_s / inner * 1e9 if inner else 0.0, "ns"),
            "enodeb.clamp_exhausted": (sum(s.clamp_exhausted for s in solves) / n, "count"),
            "enodeb.redundant_solves": (sum(s.redundant for s in solves) / n, "count"),
            "enodeb.trace_cells": (sum(s.trace_cells for s in solves) / n, "count"),
        }
        for phase in (None, "discovery", "allocation"):
            prefix = "enodeb." if phase is None else f"enodeb.{phase}."
            ms = solve_ms(phase)
            if phase is not None:
                out[prefix + "solve_s"] = (sum(ms) / 1e3 / n, "s")
            out[prefix + "solve_ms_p50"] = (quantile(ms, 0.5), "ms")
            out[prefix + "solve_ms_p90"] = (quantile(ms, 0.9), "ms")
        run_ms = [s * 1e3 for s in tracer.run_seconds]
        out.update({
            "protocol.run_ms_p50": (quantile(run_ms, 0.5), "ms"),
            "protocol.run_ms_p90": (quantile(run_ms, 0.9), "ms"),
            "protocol.self_s": (protocol_self, "s"),
            "protocol.self_share": (protocol_self / traced_mean, "ratio"),
            "ue.self_s": (sum(total(k, 2) for k in layers if k.startswith("ue.")), "s"),
            "model.user_calls": (total("model.user", 0), "count"),
            "model.user_s": (total("model.user"), "s"),
            "model.covered_users_calls": (total("model.covered_users", 0), "count"),
            "model.covered_users_s": (total("model.covered_users"), "s"),
            "model.load_s": (total("model.load_scenario"), "s"),
            "model.with_capacity_s": (total("model.with_capacity"), "s"),
            "cli.self_s": (total("cli.main", 2), "s"),
            "cli.bytes_written": (sum(size for size, _ in self.digest.values()), "B"),
            "cli.files_written": (len(self.digest), "count"),
            "trace.overhead_share": (traced_s / plain_s - 1.0, "ratio"),
            "quality.rate_residual_max": (self.residual or 0.0, "rate"),
        })
        return out

    def write(self, env, summary, result, tracer) -> None:
        """Print the human-readable report and keep it, with the spans, on disk."""
        print(f"# {json.dumps(env)}")
        print(f"# {self.workload.name}: {summary['passes']} passes, pass_s median "
              f"{summary['pass_s_median']:.4f} s, quartiles {summary['pass_s_q1']:.4f} "
              f"/ {summary['pass_s_q3']:.4f} s, pass_cpu_s median "
              f"{summary['pass_cpu_s_median']:.4f} s, calibration loop "
              f"{summary['calibration_ms_median']:.2f} ms, "
              f"rate_residual_max {summary['rate_residual_max']}")
        if "attributed_share" in summary:
            print(f"# enodeb.solve_s + protocol.self_s + cli.self_s = "
                  f"{summary['attributed_share']:.3f} of the mean traced pass")
        for name, m in result["metrics"].items():
            print(f"{self.workload.name} {name} = {m['value']:.6g} {m['unit']}")
        for note in self.notes:
            print(f"# note: {note}")
        for p in self.problems:
            print(f"CHECK FAILED: {p}", file=sys.stderr)
        stem = f"{self.workload.name}-seed{self.seed}-trace{int(self.trace)}"
        results = OUTPUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{stem}.json").write_text(json.dumps(
            {"env": env, "summary": summary, "result": result}, indent=1) + "\n")
        if tracer is not None:
            (results / f"{stem}.spans.json").write_text(json.dumps({
                "env": env,
                "layers": {k: dict(zip(("calls", "total_s", "self_s"), v))
                           for k, v in sorted(tracer.layers.items())},
                "spans": ["id parent name start end", *tracer.spans],
            }) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: the package under test is missing: {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: Bench(workloads.WORKLOADS[name](), args.seed, args.seconds, bool(args.trace)).run()
            for name in names
        }
    except MissingPackage as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
