"""Plain-text rendering of experiment results.

Each experiment driver returns an :class:`ExperimentResult` — the same
rows/series the paper plots — and this module renders it as an aligned
table, one row per x value and one column per series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

__all__ = ["Series", "ExperimentResult", "render"]


@dataclass
class Series:
    """One line/bar series of a figure."""

    label: str
    y: List[float]


@dataclass
class ExperimentResult:
    """One table or figure's worth of reproduced data."""

    experiment: str          # e.g. "fig10a"
    title: str
    x_label: str
    x: List[Any]
    y_label: str
    series: List[Series]
    notes: str = ""

    def series_by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"no series {label!r} in {self.experiment}")

    def value(self, label: str, x: Any) -> float:
        series = self.series_by_label(label)
        if x not in self.x:
            raise KeyError(f"no x {x!r} in {self.experiment}")
        return series.y[self.x.index(x)]


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def render(result: ExperimentResult) -> str:
    """Render one experiment as an aligned text table."""
    header = [result.x_label] + [s.label for s in result.series]
    rows = [header]
    for i, x in enumerate(result.x):
        row = [_fmt(x)]
        for s in result.series:
            row.append(_fmt(s.y[i] if i < len(s.y) else None))
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = [f"== {result.experiment}: {result.title} ==",
             f"   ({result.y_label})"]
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    if result.notes:
        lines.append(f"note: {result.notes}")
    return "\n".join(lines)
