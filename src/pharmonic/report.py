"""Structured check results.

Every verification routine returns a Report: a list of named metrics,
each with a value, an optional tolerance, a pass flag, and a short
provenance note saying how the number was obtained.  Serialization to
CSV/JSON lives in the command line front end.

Boundedness claims are checked by stability: a sup over a sample is
recomputed on an enlarged or refined sample, and the claim passes when
the sup grows by less than STABILITY_LIMIT (Report.add_growth).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

STABILITY_LIMIT = 1.5

@dataclass(frozen=True)
class Metric:
    name: str
    value: float
    tolerance: float | None
    passed: bool
    note: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.value, complex):
            raise TypeError("metric values must be real")


@dataclass
class Report:
    suite: str
    params: dict
    metrics: list[Metric] = field(default_factory=list)
    wall_time_s: float = 0.0

    def add(self, name: str, value: float, tolerance: float | None,
            passed: bool, note: str = "") -> Metric:
        m = Metric(name, float(value), tolerance, bool(passed), note)
        self.metrics.append(m)
        return m

    def add_growth(self, name: str, before: float, after: float, note: str,
                   limit: float = STABILITY_LIMIT) -> Metric:
        """Record the growth after / before of a sup under enlargement;
        it passes iff the growth is below limit.

        A zero base is stable only when the sup stays zero (growth 1);
        a sup that leaves zero, or that is not finite (it overflowed),
        has infinite growth.
        """
        if not math.isfinite(after):
            growth = math.inf
        elif before > 0:
            growth = after / before
        else:
            growth = math.inf if after > 0 else 1.0
        return self.add(name, growth, limit, growth < limit, note)

    @property
    def all_passed(self) -> bool:
        return all(m.passed for m in self.metrics)

    def failures(self) -> list[Metric]:
        return [m for m in self.metrics if not m.passed]

    def extend(self, other: "Report", prefix: str = "") -> None:
        """Append other's metrics, each name prefixed with prefix."""
        self.metrics.extend(replace(m, name=prefix + m.name)
                            for m in other.metrics)

    def validate_finite(self) -> None:
        """Reports must never carry NaN values."""
        for m in self.metrics:
            if math.isnan(m.value):
                raise ValueError(f"metric {m.name!r} is NaN")
            if m.tolerance is not None and math.isnan(m.tolerance):
                raise ValueError(f"tolerance of {m.name!r} is NaN")
