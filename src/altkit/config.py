"""Run configuration shared by all CLI commands.

A config is one JSON document; command-line flags override individual
fields.  The resolved config is echoed into every emitted report so a
run can be reproduced from any of its artifacts.
"""
from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .axioms import ALL_AXIOMS, MAX_DELTA
from .domain import BoxDomain
from .errors import ConfigError


@dataclass
class RunConfig:
    oracle: str = ""
    domain: dict | None = None          # {"lower": [...], "upper": [...]}
    seed: int = 0
    trials: int = 1000
    depth: int = 10
    eps_eq: float | None = None
    tol_t: float = 1e-10
    h: float = 1e-3
    threshold: float = 1e-3
    delta: float = 1e-8                 # continuity-proxy perturbation fraction
    probes: int = 8
    b: float | None = None              # diagonal scale for smoothness
    workers: int | None = None          # accepted and echoed; trials run on one thread
    outdir: str = "altkit-reports"
    axioms: list[str] | None = None
    strict: bool = False
    grid: int = 11
    anchors: list[float] = field(default_factory=lambda: [0.25, 0.75])
    second_anchors: list[float] | None = None
    pair: list[int] = field(default_factory=lambda: [0, 1])
    debreu_trials: int = 50

    @classmethod
    def field_names(cls) -> list[str]:
        return [f.name for f in dataclasses.fields(cls)]

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            doc = json.loads(path.read_text())
        except (ValueError, RecursionError) as bad:  # not UTF-8, not JSON, too deep
            raise ConfigError(f"config file {path} is not valid JSON: {bad}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        unknown = set(doc) - set(cls.field_names())
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def merge_overrides(self, overrides: dict) -> "RunConfig":
        """New config with every non-None override applied."""
        known = set(self.field_names())
        clean = {k: v for k, v in overrides.items() if k in known and v is not None}
        return dataclasses.replace(self, **clean)

    def box_override(self) -> BoxDomain | None:
        if self.domain is None:
            return None
        try:
            return BoxDomain(self.domain["lower"], self.domain["upper"])
        except (KeyError, TypeError) as bad:
            raise ConfigError(f"domain override needs 'lower' and 'upper' lists: {bad}") from None
        except ValueError as bad:        # the corners do not make a box
            raise ConfigError(f"domain override: {bad}") from None

    def validate(self) -> None:
        hints = typing.get_type_hints(type(self))
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, hints[f.name]):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if not self.oracle:
            raise ConfigError("no oracle selected (use --oracle or the config file)")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.debreu_trials < 1:
            raise ConfigError("debreu_trials must be >= 1")
        if self.depth < 0:
            raise ConfigError("depth must be >= 0")
        for name in ("tol_t", "h", "threshold", "delta", "eps_eq", "b"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")
        if self.tol_t < 1e-15:           # finer than float spacing: bisection never ends
            raise ConfigError(f"tol_t must be >= 1e-15, got {self.tol_t!r}")
        if self.delta > MAX_DELTA:
            raise ConfigError(f"delta must be <= {MAX_DELTA}, got {self.delta!r}")
        if self.probes < 1:
            raise ConfigError("probes must be >= 1")
        if self.grid < 2:
            raise ConfigError("grid must be >= 2")
        if self.workers is not None and self.workers < 1:
            raise ConfigError("workers must be >= 1")
        for label, pair in (("anchors", self.anchors), ("second_anchors", self.second_anchors)):
            if pair is None:
                continue
            if len(pair) != 2 or not 0.0 <= pair[0] < pair[1] <= 1.0:
                raise ConfigError(f"{label} must be two diagonal parameters with 0 <= lo < hi <= 1")
        if len(self.pair) != 2 or any(i < 0 for i in self.pair):
            raise ConfigError("pair must be two non-negative coordinate indices")
        if self.axioms is not None:
            unknown = set(self.axioms) - set(ALL_AXIOMS)
            if unknown:
                raise ConfigError(f"unknown axioms {sorted(unknown)}; "
                                  f"known: {', '.join(ALL_AXIOMS)}")
        self.box_override()  # raises on malformed domain

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a field annotation.  A bool is not an
    int, and an int is accepted where a float is."""
    if isinstance(hint, types.UnionType):
        return any(_has_type(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        return type(value) is list and all(_has_type(v, *typing.get_args(hint)) for v in value)
    return type(value) in ((int, float) if hint is float else (hint,))
