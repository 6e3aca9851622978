"""Price scenario generation from point forecasts and recent residuals.

For trading day d the S scenario rows are the point forecast itself and
the forecast shifted by the residual of each of the S-1 most recent
history days:

    row 1:  y_d
    row k:  y_d - (y_h - lambda_h)   for the (k-1)-th most recent day h

Residual days are taken in reverse chronological order over whatever
history is available, so data gaps shrink the lookback window instead
of breaking it.  During warm-up, when fewer residual days exist than
requested, the oldest available residual is duplicated.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import date
from typing import Mapping

import numpy as np

from .errors import InsufficientHistory

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PriceSeries:
    """Realized and forecast day-ahead prices on a shared (date, hour) grid."""

    realized: Mapping[date, np.ndarray] = field(default_factory=dict)
    forecast: Mapping[date, np.ndarray] = field(default_factory=dict)

    def residual_days_before(self, d: date) -> list[date]:
        """Days before d with both realized and forecast, newest first."""
        days = [
            day for day in self.realized
            if day < d and day in self.forecast
        ]
        days.sort(reverse=True)
        return days

    def residual(self, d: date) -> np.ndarray:
        """Forecast error y_d - lambda_d of a history day."""
        return self.forecast[d] - self.realized[d]


def generate_scenarios(d: date, s_count: int, history: PriceSeries) -> np.ndarray:
    """Build the (S, T) scenario price matrix for day d.

    Row 1 is the point forecast; rows 2..S subtract one historical
    residual each, most recent first.  Short history duplicates the
    oldest residual; no residual history at all, or a residual day whose
    row overflows the float range, raises InsufficientHistory (when
    s_count > 1).
    """
    if s_count < 1:
        raise ValueError("s_count must be at least 1")
    if d not in history.forecast:
        raise InsufficientHistory(f"no point forecast for {d}")
    y = np.asarray(history.forecast[d], dtype=float)
    rows = [y]
    if s_count > 1:
        residual_days = history.residual_days_before(d)
        if not residual_days:
            raise InsufficientHistory(
                f"day {d}: {s_count} scenarios need at least one residual day"
            )
        if len(residual_days) < s_count - 1:
            log.info(
                "day %s: only %d residual days for %d scenarios, duplicating oldest",
                d, len(residual_days), s_count,
            )
        # finite cells can still overflow: a residual, or a row shifted by it
        with np.errstate(over="ignore"):
            for k in range(s_count - 1):
                h = residual_days[min(k, len(residual_days) - 1)]
                rows.append(y - history.residual(h))
                if not np.isfinite(rows[-1]).all():
                    raise InsufficientHistory(
                        f"day {d}: the residual of history day {h} leaves the float range"
                    )
    return np.vstack(rows)


def naive_forecast(history: PriceSeries, d: date) -> np.ndarray:
    """Persistence forecast: realized prices of the last same-class day.

    Weekdays look back to the most recent prior weekday, weekend days
    to the most recent prior weekend day.  When no same-class day is on
    record the most recent prior day of any class is used, so a single
    prior day always yields a forecast.
    """
    prior = sorted((day for day in history.realized if day < d), reverse=True)
    if not prior:
        raise InsufficientHistory(f"no realized prices before {d}")
    want_weekend = d.weekday() >= 5
    for day in prior:
        if (day.weekday() >= 5) == want_weekend:
            return np.array(history.realized[day], dtype=float)
    return np.array(history.realized[prior[0]], dtype=float)
