"""Plain-text tabular reporting for the paper benchmarks.

Benchmarks print the same rows/series the paper's tables and figures report,
so a reader can diff the regenerated output against the published numbers.
Output is deliberately dependency-free (no pandas / matplotlib): fixed-width
text tables that render fine in a terminal or a log file.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence


def format_table(rows: Sequence[Mapping[str, object]], title: str = "") -> str:
    """Render a list of row dictionaries as a fixed-width text table."""
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered_rows = [
        {column: _format_value(row.get(column, "")) for column in columns}
        for row in rows
    ]
    widths = {
        column: max(len(column), *(len(row[column]) for row in rendered_rows))
        for column in columns
    }
    lines: List[str] = []
    if title:
        lines.append(title)
    header = " | ".join(column.ljust(widths[column]) for column in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[column] for column in columns))
    for row in rendered_rows:
        lines.append(" | ".join(row[column].ljust(widths[column]) for column in columns))
    return "\n".join(lines)


def format_series_table(
    series: Mapping[str, Mapping[int, float]],
    value_label: str = "value",
    title: str = "",
) -> str:
    """Render labelled ``{k: value}`` curves side by side (one column per curve).

    Rows cover every ``k`` of any curve, in increasing order; a curve
    without a value at some ``k`` leaves that cell blank.
    """
    if not series:
        return f"{title}\n(no series)" if title else "(no series)"
    seed_counts = sorted({k for curve in series.values() for k in curve})
    rows: List[Dict[str, object]] = []
    for k in seed_counts:
        row: Dict[str, object] = {"k": k}
        for label, curve in series.items():
            row[label] = curve.get(k, "")
        rows.append(row)
    heading = title or f"{value_label} vs #seeds"
    return format_table(rows, title=heading)


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.1f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)
