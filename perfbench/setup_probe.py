"""Set-up of one workload in a fresh interpreter, for the ``setup_s`` metric.

    python3 perfbench/setup_probe.py KIND:ORACLE [KIND:ORACLE ...]

Imports altkit's CLI from the checkout's ``src/`` and builds every oracle
(or, for ``alep``, every utility) the given commands use, including the
``estimate_value_range`` lattice behind each dead band, then prints
``ready``.  The parent times the span from spawning this interpreter to
that line.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import altkit.cli  # noqa: E402,F401  (the CLI entry point's import cost)
from altkit.fixtures import oracle_by_name, utility_by_name, utility_from_json  # noqa: E402


def main(targets: list[str]) -> int:
    for target in targets:
        kind, name = target.split(":", 1)
        if kind != "alep":
            oracle_by_name(name)
            continue
        try:
            utility_by_name(name)
        except KeyError:
            utility_from_json(name)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
