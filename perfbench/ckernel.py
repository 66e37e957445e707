"""Build, load, verify and time the kernel twins.

The compiled twin ``_kernels.c`` is checked into the package but no install
builds it here (Cython is absent, so ``setup.py`` skips the extension). The
benchmark compiles the checked-in C file itself, with the flags ``setup.py``
passes (``-O2 -ffp-contract=off``), into its own build directory, and loads
the result by file path, so the package's own backend choice is untouched.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

CFLAGS = ["-O2", "-ffp-contract=off"]
BUILD_TIMEOUT_S = 600


def build(root: Path) -> tuple[Path | None, str]:
    """Compile ``_kernels.c`` into ``.bench_build``; (path, "") or (None, reason).

    The shared object is reused while the source and the flags are unchanged.
    gcc keeps its temporary files in the build directory too.
    """
    source = root / "src" / "carrieralloc" / "_kernels.c"
    if not source.is_file():
        return None, f"{source.relative_to(root)} does not exist"
    gcc = shutil.which("gcc")
    if gcc is None:
        return None, "gcc not found"
    include = sysconfig.get_paths()["include"]
    if not (Path(include) / "Python.h").is_file():
        return None, f"Python.h not found in {include}"
    out_dir = root / ".bench_build" / "perfbench"
    out = out_dir / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    stamp = out_dir / "_kernels.stamp"
    digest = hashlib.sha256(source.read_bytes() + " ".join(CFLAGS).encode()).hexdigest()
    if out.is_file() and stamp.is_file() and stamp.read_text() == digest:
        return out, ""
    out_dir.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + f".{os.getpid()}.tmp")
    cmd = [gcc, "-shared", "-fPIC", *CFLAGS, "-I", include, str(source), "-o", str(tmp), "-lm"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
                              env={**os.environ, "TMPDIR": str(out_dir)})
    except subprocess.TimeoutExpired:
        tmp.unlink(missing_ok=True)
        return None, f"gcc did not finish within {BUILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        return None, f"gcc exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    os.replace(tmp, out)
    stamp.write_text(digest)
    return out, ""


def load(path: Path):
    """Import the compiled twin from ``path`` without registering it.

    The Cython module inserts itself into ``sys.modules`` while it
    initialises; that entry is taken out again, or a later import of the
    package would pick the compiled backend.
    """
    name = "carrieralloc._kernels"
    before = sys.modules.get(name)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        if before is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = before
    return module


# (family code, q1, q2) for the two families, from the section-5 preset.
SIG = (0, 3.0, 20.0)
LOG = (1, 3.0, 100.0)
FAMILIES = {"sig": SIG, "log": LOG}
EPS_R, TOL_R, BISECT_MAX = 1e-9, 1e-9, 200
R_CAP = 200.0


def _grid(py, fam):
    """Rates, and the prices at which the inverse lands on those rates."""
    rates = [0.5 + 0.75 * i for i in range(80)]
    prices = [py.log_marginal(*fam, r) for r in rates]
    return rates, [p for p in prices if 0.0 < p < float("inf")]


def mismatches(c, py) -> list[str]:
    """Operations on a grid where the compiled twin differs from Python by any bit."""
    bad = []
    for name, fam in FAMILIES.items():
        rates, prices = _grid(py, fam)
        for r in rates:
            for op in ("eval_utility", "log_utility", "log_marginal"):
                if getattr(c, op)(*fam, r) != getattr(py, op)(*fam, r):
                    bad.append(f"{op}({name}, r={r!r})")
        for p in prices:
            args = (*fam, p, R_CAP, EPS_R, TOL_R, BISECT_MAX)
            if c.inverse_log_marginal(*args) != py.inverse_log_marginal(*args):
                bad.append(f"inverse_log_marginal({name}, p={p!r})")
            for off in (0.0, 7.5):
                args = (*fam, p, off, R_CAP, EPS_R, TOL_R, BISECT_MAX)
                if c.net_benefit(*args) != py.net_benefit(*args):
                    bad.append(f"net_benefit({name}, p={p!r}, offset={off})")
    fams = [SIG[0], SIG[0], LOG[0], LOG[0], LOG[0], SIG[0]]
    q1s = [5.0, 3.0, 15.0, 3.0, 0.5, 1.0]
    q2s = [10.0, 20.0, 100.0, 100.0, 100.0, 30.0]
    for offsets, cap in (([0.0] * 6, 100.0), ([0.0, 0.0, 0.0, 10.9, 16.3, 33.7], 50.0)):
        args = (fams, q1s, q2s, offsets, cap, 200.0, 1e-3, 5.0, 10.0, 10_000,
                EPS_R, TOL_R, BISECT_MAX)
        if c.dual_ascent(*args) != py.dual_ascent(*args):
            bad.append(f"dual_ascent(capacity={cap})")
    return bad


def _per_call_s(fn, calls, repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean time of one call over ``calls``."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in calls:
            fn(*args)
        samples.append((time.perf_counter() - t0) / len(calls))
    return statistics.median(samples)


def microbench(kernels, py, tag: str) -> dict[str, float]:
    """Per-call times of the three kernel operations of ``kernels``, per family.

    ``py`` is the pure-Python twin, which lays out the same grid for both.
    """
    out = {}
    for name, fam in FAMILIES.items():
        rates, prices = _grid(py, fam)
        lm = [(*fam, r) for r in rates] * 25
        inv = [(*fam, p, R_CAP, EPS_R, TOL_R, BISECT_MAX) for p in prices]
        nb = [(*fam, p, 7.5, R_CAP, EPS_R, TOL_R, BISECT_MAX) for p in prices]
        if tag == "c":
            inv, nb = inv * 10, nb * 10
        out[f"kernel.{tag}.{name}.log_marginal_ns"] = _per_call_s(kernels.log_marginal, lm) * 1e9
        out[f"kernel.{tag}.{name}.inverse_log_marginal_us"] = (
            _per_call_s(kernels.inverse_log_marginal, inv) * 1e6)
        out[f"kernel.{tag}.{name}.net_benefit_us"] = _per_call_s(kernels.net_benefit, nb) * 1e6
    return out

