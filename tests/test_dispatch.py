"""The golden reports do not depend on which SIMD code numpy dispatches to.

numpy picks the code of its ufuncs at run time from the CPU's features
(NEP 38); its AVX-512 log, exp and power differ from libm in the last bit
on some inputs.  Utilities take log, exp and pow from libm and numpy only
for exactly rounded operations, so every golden report, those that hold
raw values of exp, log and pow utilities among them, is checked again in a
process started with every dispatched target disabled.  The variable acts
only on that process.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core import _multiarray_umath as UMATH
except ImportError:     # numpy < 2
    from numpy.core import _multiarray_umath as UMATH

ROOT = Path(__file__).resolve().parent.parent
# The targets above the build's baseline (on x86-64 the AVX2 and AVX-512
# groups; their names differ between numpy versions).
DISABLED = tuple(UMATH.__cpu_dispatch__)

# The child refuses to run unless the disabled targets really are off.
CHILD = f"""
import sys
import pytest
import numpy
umath = getattr(numpy, "_core", None) or numpy.core
features = umath._multiarray_umath.__cpu_features__
assert not any(features.get(name) for name in {DISABLED!r})
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", "tests/test_golden.py"]))
"""


@pytest.mark.skipif(not DISABLED, reason="this numpy build dispatches to no SIMD target, "
                                         "so its ufuncs run the same code on every CPU")
def test_goldens_hold_under_baseline_dispatch():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(DISABLED))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", CHILD], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
    assert " passed" in run.stdout and "failed" not in run.stdout
