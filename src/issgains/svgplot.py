"""Minimal static SVG line charts (no plotting framework).

A chart is returned as ASCII text for the front end to write, and is
deterministic byte for byte for identical input data.
"""

__all__ = ["line_chart"]

WIDTH = 640
HEIGHT = 480
MARGIN_L = 70
MARGIN_R = 20
MARGIN_T = 20
MARGIN_B = 50
COLOR = "#1f4e9c"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _scale(value, lo, hi, out_lo, out_hi):
    if hi == lo:
        return 0.5 * (out_lo + out_hi)
    return out_lo + (value - lo) / (hi - lo) * (out_hi - out_lo)


def line_chart(xs, ys, label: str, xlabel: str, ylabel: str) -> str:
    """One polyline through the points (xs, ys), at least one, labelled
    ``label``, as SVG."""
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px_lo, px_hi = MARGIN_L, WIDTH - MARGIN_R
    py_lo, py_hi = HEIGHT - MARGIN_B, MARGIN_T

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{px_lo}" y1="{py_lo}" x2="{px_hi}" y2="{py_lo}" stroke="black"/>',
        f'<line x1="{px_lo}" y1="{py_lo}" x2="{px_lo}" y2="{py_hi}" stroke="black"/>',
    ]
    # Three ticks per axis: ends and middle.
    for frac in (0.0, 0.5, 1.0):
        px = px_lo + frac * (px_hi - px_lo)
        xv = x_lo + frac * (x_hi - x_lo)
        parts.append(f'<line x1="{px:.1f}" y1="{py_lo}" x2="{px:.1f}" y2="{py_lo + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.1f}" y="{py_lo + 20}" font-size="12" text-anchor="middle">{_fmt(xv)}</text>'
        )
        py = py_lo + frac * (py_hi - py_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(f'<line x1="{px_lo - 5}" y1="{py:.1f}" x2="{px_lo}" y2="{py:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{px_lo - 8}" y="{py + 4:.1f}" font-size="12" text-anchor="end">{_fmt(yv)}</text>'
        )
    parts.append(
        f'<text x="{(px_lo + px_hi) / 2:.1f}" y="{HEIGHT - 10}" font-size="14" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="15" y="{(py_lo + py_hi) / 2:.1f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 15 {(py_lo + py_hi) / 2:.1f})">{ylabel}</text>'
    )
    points = " ".join(
        f"{_scale(x, x_lo, x_hi, px_lo, px_hi):.2f},"
        f"{_scale(y, y_lo, y_hi, py_lo, py_hi):.2f}"
        for x, y in zip(xs, ys)
    )
    parts.append(f'<polyline fill="none" stroke="{COLOR}" stroke-width="1.5" points="{points}"/>')
    parts.append(
        f'<text x="{px_hi - 5}" y="{MARGIN_T + 16}" font-size="12" '
        f'text-anchor="end" fill="{COLOR}">{label}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
