"""Plain-text table/series rendering for the bench CLI."""


def format_table(title, headers, rows, note=None):
    """Render an aligned text table."""
    widths = [len(h) for h in headers]
    text_rows = []
    for row in rows:
        cells = [
            f"{cell:.2f}" if isinstance(cell, float) else str(cell)
            for cell in row
        ]
        text_rows.append(cells)
        for index, cell in enumerate(cells):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append(
        "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for cells in text_rows:
        lines.append(
            "  ".join(c.rjust(w) for c, w in zip(cells, widths))
        )
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines)


def format_series(title, x_label, xs, series, width=52):
    """Render series as aligned columns plus an ASCII sparkline chart
    (one row per x, bars proportional to the value)."""
    lines = [title, "=" * len(title)]
    names = list(series)
    peak = max(max(values) for values in series.values()) or 1.0
    header = [x_label.rjust(6)] + [name.rjust(12) for name in names]
    lines.append("  ".join(header))
    for index, x in enumerate(xs):
        cells = [str(x).rjust(6)]
        for name in names:
            cells.append(f"{series[name][index]:.3f}".rjust(12))
        lines.append("  ".join(cells))
    lines.append("")
    for name in names:
        lines.append(f"{name}:")
        for index, x in enumerate(xs):
            value = series[name][index]
            bar = "#" * max(1, int(round(value / peak * width)))
            lines.append(f"  {str(x).rjust(6)} |{bar} {value:.3f}")
    return "\n".join(lines)
