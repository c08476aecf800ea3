"""Plain-text reporting of experiment results.

The benchmarks print the same rows/series the paper reports; these helpers
format :class:`~repro.sim.metrics.SeriesResult` and tabular data as aligned
text for the CLI and ``pytest benchmarks/ --benchmark-only``.  The
paper-vs-reproduction tables of EXPERIMENTS.md are rendered by
``repro report`` (:mod:`repro.report.render`) instead.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.exceptions import ConfigurationError
from repro.sim.metrics import SeriesResult, SweepResult


def format_series(series: SeriesResult, *, precision: int = 4) -> str:
    """Format one data series as a two-column table."""
    if not isinstance(series, SeriesResult):
        raise ConfigurationError(f"expected a SeriesResult, got {type(series).__name__}")
    header = f"{series.x_label:>14} {series.y_label:>14}   [{series.name}]"
    lines = [header]
    for x, y in zip(series.x, series.y):
        lines.append(f"{x:>14.{precision}g} {y:>14.{precision}g}")
    return "\n".join(lines)


def format_table(headers: Sequence[str], rows: Sequence[Sequence], *,
                 precision: int = 4) -> str:
    """Format a list of rows as an aligned text table."""
    if not headers:
        raise ConfigurationError("headers must be non-empty")
    widths = [max(len(str(h)), 12) for h in headers]
    lines = ["".join(f"{str(h):>{w + 2}}" for h, w in zip(headers, widths))]
    for row in rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row length {len(row)} does not match header length {len(headers)}")
        cells = []
        for value, width in zip(row, widths):
            if isinstance(value, float):
                cells.append(f"{value:>{width + 2}.{precision}g}")
            else:
                cells.append(f"{str(value):>{width + 2}}")
        lines.append("".join(cells))
    return "\n".join(lines)


def format_sweep(result: SweepResult, *, precision: int = 4) -> str:
    """Format a whole :class:`SweepResult`: title, scalars and every series."""
    if not isinstance(result, SweepResult):
        raise ConfigurationError(f"expected a SweepResult, got {type(result).__name__}")
    lines = [f"== {result.title} =="]
    if result.notes:
        lines.append(result.notes)
    for name, value in result.scalars.items():
        lines.append(f"  {name}: {value:.{precision}g}")
    for series in result.series:
        lines.append("")
        lines.append(format_series(series, precision=precision))
    return "\n".join(lines)
