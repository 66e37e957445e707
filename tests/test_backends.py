"""The compiled twin ``_kernels.c`` must agree with ``_kernels_py`` bit for bit.

The package runs only on ``carrieralloc._kernels_py``; the checked-in C twin
is kept for the benchmark. Each run compiles it here with gcc and the flags
``perfbench/ckernel.py`` uses (FP contraction disabled, so that both twins
round alike on the same libm), into a temporary directory, and loads it from
there. Every float they produce is compared with ==, not approx. The tests
skip only when gcc or the Python headers are missing; a C file that does not
compile fails them.
"""

import importlib.util
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import carrieralloc
from carrieralloc import _kernels_py

CFLAGS = ["-O2", "-ffp-contract=off"]


def load_by_path(path):
    """Import the compiled twin from ``path`` without registering it.

    The module inserts itself into ``sys.modules`` while it initialises;
    the entry is taken out again so that nothing else finds it there.
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


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    source = Path(carrieralloc.__file__).with_name("_kernels.c")
    include = sysconfig.get_paths()["include"]
    gcc = shutil.which("gcc")
    if gcc is None:
        pytest.skip("gcc not found")
    if not (Path(include) / "Python.h").is_file():
        pytest.skip(f"no Python.h in {include}")
    out_dir = tmp_path_factory.mktemp("kernels")
    out = out_dir / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    proc = subprocess.run(
        [gcc, "-shared", "-fPIC", *CFLAGS, "-I", include, str(source),
         "-o", str(out), "-lm"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, f"gcc failed on {source}:\n{proc.stderr[-2000:]}"
    return load_by_path(out)


SIG = 0
LOG = 1

SCALAR_CASES = [
    (SIG, 5.0, 10.0),
    (SIG, 3.0, 20.0),
    (SIG, 1.0, 30.0),
    (LOG, 15.0, 100.0),
    (LOG, 3.0, 100.0),
    (LOG, 0.5, 100.0),
    (SIG, 5.0, 148.0),    # a*b = 740: d is subnormal
    (SIG, 14.4, 243.5),   # a*b > 745: d underflows to zero
]

RATE_GRID = [1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0, 3.7, 9.99, 10.0, 25.0, 60.0,
             99.0, 100.0, 101.0, 250.0, 1000.0]


@pytest.fixture(scope="module")
def both(compiled):
    return compiled, _kernels_py


@pytest.mark.parametrize("family,q1,q2", SCALAR_CASES)
def test_curve_functions_bit_identical(both, family, q1, q2):
    c_k, py_k = both
    for r in RATE_GRID:
        assert c_k.eval_utility(family, q1, q2, r) == \
            py_k.eval_utility(family, q1, q2, r)
        assert c_k.log_utility(family, q1, q2, r) == \
            py_k.log_utility(family, q1, q2, r)
        assert c_k.log_marginal(family, q1, q2, r) == \
            py_k.log_marginal(family, q1, q2, r)


@pytest.mark.parametrize("family,q1,q2", SCALAR_CASES)
def test_inverse_bit_identical(both, family, q1, q2):
    c_k, py_k = both
    for price in (sys.float_info.min, 1e-300, 1e-4, 0.02, 0.3, 1.0, 4.9,
                  20.0, 77.0, 1e300, sys.float_info.max):
        for cap in (1e-12, 50.0, 200.0):
            args = (family, q1, q2, price, cap, 1e-9, 1e-9, 200)
            assert c_k.inverse_log_marginal(*args) == \
                py_k.inverse_log_marginal(*args)
            nb_args = (family, q1, q2, price, 7.5, cap, 1e-9, 1e-9, 200)
            assert c_k.net_benefit(*nb_args) == py_k.net_benefit(*nb_args)


def test_clamp_bit_identical(both):
    c_k, py_k = both
    for args in ((10.0, 0.0, 1, 5.0, 10.0), (3.05, 3.0, 1, 5.0, 10.0),
                 (2.0, 10.0, 30, 5.0, 10.0), (0.5, 0.2, 86, 5.0, 10.0)):
        assert c_k.fluctuation_clamp(*args) == py_k.fluctuation_clamp(*args)


DUAL_CASES = [
    # section-style six-user coverage set
    dict(
        families=[SIG, SIG, LOG, LOG, LOG, SIG],
        q1s=[5.0, 3.0, 15.0, 3.0, 0.5, 1.0],
        q2s=[10.0, 20.0, 100.0, 100.0, 100.0, 30.0],
        offsets=[0.0] * 6,
        capacity=100.0,
    ),
    dict(
        families=[SIG, SIG, LOG, LOG, LOG, SIG],
        q1s=[5.0, 3.0, 15.0, 3.0, 0.5, 1.0],
        q2s=[10.0, 20.0, 100.0, 100.0, 100.0, 30.0],
        offsets=[0.0, 0.0, 0.0, 10.9, 16.3, 33.7],
        capacity=50.0,
    ),
    dict(
        families=[LOG],
        q1s=[15.0],
        q2s=[100.0],
        offsets=[0.0],
        capacity=10.0,
    ),
    dict(
        families=[SIG],
        q1s=[5.0],
        q2s=[10.0],
        offsets=[0.0],
        capacity=5.0,
    ),
]


@pytest.mark.parametrize("case", DUAL_CASES)
def test_dual_ascent_bit_identical(both, case):
    c_k, py_k = both
    rate_cap = 2.0 * max(case["capacity"],
                         max(case["q2s"][j] for j in range(len(case["q2s"]))
                             if case["families"][j] == LOG) if LOG in case["families"] else 0.0)
    args = (
        case["families"], case["q1s"], case["q2s"], case["offsets"],
        case["capacity"], rate_cap, 1e-3, 5.0, 10.0, 10_000, 1e-9, 1e-9, 200,
    )
    out_c = c_k.dual_ascent(*args)
    out_py = py_k.dual_ascent(*args)
    assert out_c[0] == out_py[0]          # converged
    assert out_c[1] == out_py[1]          # iterations
    assert out_c[2] == out_py[2]          # price, exact
    assert out_c[3] == out_py[3]          # rates, exact
    assert out_c[4] == out_py[4]          # price trace
    assert out_c[5] == out_py[5]          # bid trace
    assert out_c[6] == out_py[6]          # rate trace
