"""The golden reports do not depend on which SIMD or BLAS code runs.

numpy picks the code of its ufuncs at run time from the CPU's features
(NEP 38); its AVX-512 log, exp and power differ from libm in the last bit
on some inputs.  Utilities take log, exp and pow from libm and numpy only
for exactly rounded operations, so every golden report, those that hold
raw values of exp, log and pow utilities among them, is checked again in a
process started with every dispatched target disabled.

OpenBLAS, which numpy's wheels link, likewise picks its kernels from the
CPU, and they differ in the last bits where some fuse multiply-adds.
altkit computes no reported number through BLAS or LAPACK (its norms,
dots and affine fit are elementwise numpy summed in a fixed order), so the
goldens are checked again in one process for each of the x86-64 kernels
``Nehalem``, ``Haswell`` and ``SkylakeX`` that this CPU can run, forced
with ``OPENBLAS_CORETYPE``.  Each variable acts only on its own process.
A walk over the syntax of ``src/altkit`` keeps BLAS and LAPACK out.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core import _multiarray_umath as UMATH
except ImportError:     # numpy < 2
    from numpy.core import _multiarray_umath as UMATH

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "altkit").glob("*.py"))
# The targets above the build's baseline (on x86-64 the AVX2 and AVX-512
# groups; their names differ between numpy versions).
DISABLED = tuple(UMATH.__cpu_dispatch__)

# The child refuses to run unless the targets it was asked to disable
# really are off.
CHILD = """
import os
import sys
import pytest
import numpy
umath = getattr(numpy, "_core", None) or numpy.core
features = umath._multiarray_umath.__cpu_features__
assert not any(features.get(name) for name in os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split())
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", "tests/test_golden.py"]))
"""


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower()
    except (TypeError, KeyError, ValueError):    # numpy < 1.26 has no dict mode
        return ""


# Each OpenBLAS kernel with the numpy CPU features it needs to run.
CORETYPES = {"Nehalem": ("SSE42",), "Haswell": ("AVX2", "FMA3"), "SkylakeX": ("AVX512_SKX",)}


def run_goldens(**variables: str) -> None:
    """Run ``tests/test_golden.py`` in a new process with ``variables``
    added to its environment, and require every case to pass."""
    env = dict(os.environ, **variables)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", CHILD], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
    assert " passed" in run.stdout and "failed" not in run.stdout


@pytest.mark.skipif(not DISABLED, reason="this numpy build dispatches to no SIMD target, "
                                         "so its ufuncs run the same code on every CPU")
def test_goldens_hold_under_baseline_dispatch():
    run_goldens(NPY_DISABLE_CPU_FEATURES=" ".join(DISABLED))


@pytest.mark.skipif("openblas" not in blas_name(), reason="numpy is not linked to OpenBLAS")
@pytest.mark.parametrize("coretype", sorted(CORETYPES))
def test_goldens_hold_under_each_blas_kernel(coretype):
    if not all(UMATH.__cpu_features__.get(name) for name in CORETYPES[coretype]):
        pytest.skip(f"this CPU cannot run OpenBLAS's {coretype} kernels")
    run_goldens(OPENBLAS_CORETYPE=coretype)


# numpy's entry points into BLAS and LAPACK, as attribute or imported names.
BLAS_NAMES = {"linalg", "polyfit", "dot", "matmul", "einsum"}


def blas_uses(source: str) -> list[str]:
    """The lines of ``source`` that multiply with ``@`` or name one of
    ``BLAS_NAMES``.  A decorator such as ``@dataclass`` is not an operator
    and is not found."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            if BLAS_NAMES & {part for name in names for part in name.split(".")}:
                found.append(f"line {node.lineno}: import")
    return found


@pytest.mark.parametrize("source, uses", [
    ("a @ b", 1), ("a @= b", 1), ("np.linalg.norm(d)", 1), ("np.polyfit(x, y, 1)", 1),
    ("numpy.dot(a, b)", 1), ("a.dot(b)", 1), ("np.einsum('i,i', a, b)", 1),
    ("from numpy.linalg import norm", 1), ("from numpy import matmul", 1),
    ("import numpy.linalg", 1),
    ("@dataclass\nclass A:\n    @property\n    def d(self): return (self.x * self.x).sum()", 0),
])
def test_blas_uses_finds_each_form(source, uses):
    assert len(blas_uses(source)) == uses


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_blas_or_lapack_in_altkit(path):
    assert blas_uses(path.read_text()) == [], path.name
