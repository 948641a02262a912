"""Process-wide work counts, ``COUNTS``, that no result reads and no lock guards (altkit runs
on one thread); the README's "Work counts" lists them and how to read them."""
from collections import Counter
from functools import wraps

COUNTS: Counter = Counter()
_kind = "other"             # the kind of the outermost running solve


def solve(kind: str):
    """Decorator: the function's work counts under ``kind`` outside other solves."""
    def decorate(fn):
        @wraps(fn)
        def run(*args, **kwargs):
            global _kind
            outer, _kind = _kind, kind if _kind == "other" else _kind
            try:
                return fn(*args, **kwargs)
            finally:
                _kind = outer
        return run
    return decorate


def compared(rows: int) -> None:
    COUNTS["compare_batch calls"] += 1
    COUNTS["compare rows"] += rows
    COUNTS[_kind, "compare calls"] += 1
    COUNTS[_kind, "compare rows"] += rows


def drew(blocks: int) -> None:
    COUNTS["Philox blocks"] += blocks


def metered(batch):
    """``batch``, counting the rows of each call, unless it counts already."""
    def counted(*arrays):
        COUNTS["evaluator array calls"] += 1
        COUNTS["evaluator rows"] += len(arrays[0])
        COUNTS[_kind, "evaluator rows"] += len(arrays[0])
        return batch(*arrays)
    counted.metered = True
    return batch if getattr(batch, "metered", False) else counted
