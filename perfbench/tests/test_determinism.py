"""altkit's README claims reports do not depend on --workers.  The
benchmark measures the default two-worker path, so it relies on that."""
import contextlib
import io
import re

import pytest

from workloads import AXIOMS

# The echoed config names the worker count; everything else must match.
_VOLATILE = re.compile(rb'"(timestamp|workers)": [^,\n]*')


def reports(outdir, workers, oracle):
    from altkit import cli
    argv = ["verify", "--oracle", oracle, "--seed", "11", "--trials", "150",
            "--workers", str(workers), "--outdir", str(outdir), "--axioms", *AXIOMS]
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    return {p.name: _VOLATILE.sub(b"", p.read_bytes()) for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize("oracle", ["cobb_douglas", "step", "broken_crossover"])
def test_verify_reports_identical_at_one_and_two_workers(tmp_path, oracle):
    two = reports(tmp_path, 2, oracle)
    one = reports(tmp_path, 1, oracle)
    assert len(two) == len(AXIOMS)
    assert two == one
