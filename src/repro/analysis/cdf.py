"""Distribution helpers (percentiles, fractions, summaries)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction``-quantile of ``values`` (linear interpolation).

    ``fraction`` is in ``[0, 1]``; an empty input raises :class:`ValueError`.
    """
    if not values:
        raise ValueError("cannot compute a percentile of no values")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    # This form is numerically exact when the two samples are equal, which
    # keeps the result inside [min(values), max(values)].
    return ordered[lower] + (ordered[upper] - ordered[lower]) * weight


def fraction_at_least(values: Sequence[float], threshold: float) -> float:
    """Fraction of values greater than or equal to ``threshold``."""
    if not values:
        return 0.0
    return sum(1 for value in values if value >= threshold) / len(values)


@dataclass
class Distribution:
    """Summary statistics of a set of samples."""

    count: int
    minimum: float
    maximum: float
    mean: float
    median: float
    p10: float
    p90: float
    p99: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "Distribution":
        """Build a summary; raises :class:`ValueError` on empty input."""
        if not values:
            raise ValueError("cannot summarise an empty distribution")
        values = list(values)
        return cls(
            count=len(values),
            minimum=min(values),
            maximum=max(values),
            mean=sum(values) / len(values),
            median=percentile(values, 0.5),
            p10=percentile(values, 0.1),
            p90=percentile(values, 0.9),
            p99=percentile(values, 0.99),
        )

    def as_dict(self) -> Dict[str, float]:
        """JSON-able representation."""
        return {
            "count": self.count,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "median": self.median,
            "p10": self.p10,
            "p90": self.p90,
            "p99": self.p99,
        }
