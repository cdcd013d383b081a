"""Structured check results.

Every verification routine returns a Report: a list of named metrics,
each with a value, an optional tolerance, a pass flag, and a short
provenance note saying how the number was obtained.  Serialization to
CSV/JSON lives in the command line front end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace


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
