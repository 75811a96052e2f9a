"""Minimal deterministic SVG line charts.

Output is plain text built with fixed float formatting, so rendering the
same series twice yields byte-identical files. The x axis is categorical:
one evenly spaced tick per label (epsilon grids mix finite values with
infinity, which rules out a numeric axis). The y axis spans [0, 1], the
range of an accuracy or an attack power.
"""

from __future__ import annotations

from .errors import ConfigError

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 30, 48, 56
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_line_chart(
    title: str,
    x_labels,
    series,
    ylabel: str,
) -> str:
    """Build an SVG document for one line chart.

    `series` is a list of (name, values) pairs; values align with
    `x_labels` and may contain None for missing points (the line skips
    them; a value outside [0, 1] is drawn at the nearer edge). Returns the
    SVG text.
    """
    x_labels = list(x_labels)
    if not x_labels:
        raise ConfigError("chart needs at least one x position")

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def x_at(i: int) -> float:
        if len(x_labels) == 1:
            return _MARGIN_L + plot_w / 2
        return _MARGIN_L + plot_w * i / (len(x_labels) - 1)

    def y_at(v: float) -> float:
        frac = min(max(v, 0.0), 1.0)
        return _MARGIN_T + plot_h * (1.0 - frac)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" font-weight="bold">{title}</text>',
    ]

    # axes
    x0, y0 = _MARGIN_L, _MARGIN_T + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{_MARGIN_T}" x2="{x0}" y2="{y0}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>'
    )

    # y ticks at fifths
    for k in range(6):
        v = k / 5
        y = y_at(v)
        parts.append(
            f'<line x1="{x0 - 4}" y1="{_fmt(y)}" x2="{x0}" y2="{_fmt(y)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{v:.1f}</text>'
        )
        if k:
            parts.append(
                f'<line x1="{x0}" y1="{_fmt(y)}" x2="{x0 + plot_w}" y2="{_fmt(y)}" '
                f'stroke="#dddddd"/>'
            )

    # x ticks
    for i, lab in enumerate(x_labels):
        x = x_at(i)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{y0}" x2="{_fmt(x)}" y2="{y0 + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{lab}</text>'
        )

    parts.append(
        f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">epsilon</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_T + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h // 2})">{ylabel}</text>'
    )

    for s, (name, values) in enumerate(series):
        color = _PALETTE[s % len(_PALETTE)]
        points = [
            (x_at(i), y_at(v)) for i, v in enumerate(values) if v is not None
        ]
        if len(points) >= 2:
            path = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in points)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
        for px, py in points:
            parts.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="3" fill="{color}"/>'
            )
        lx = _MARGIN_L + 10
        ly = _MARGIN_T + 8 + 16 * s
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 18}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 24}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="11">{name}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
