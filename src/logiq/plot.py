"""Minimal self-contained SVG line plots (no rendering dependency).

CSV stays the canonical artifact; these plots are quick-look companions."""

import math

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _flat(lo, hi):
    """True when hi - lo is too small for floats of this magnitude to place
    distinct ticks in."""
    return hi - lo <= 1e-12 * max(abs(lo), abs(hi))


def _ticks(lo, hi, n=5):
    if _flat(lo, hi):
        hi = lo + max(abs(lo), 1.0) * 0.1
    span = hi - lo
    step = 10 ** math.floor(math.log10(span / n))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= n:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    count = math.floor((hi + 1e-12 * span - start) / step) + 1
    return [start + k * step for k in range(count)]


def _fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.2e}"
    return f"{v:g}"


def line_plot(path, series, title="", xlabel="", ylabel=""):
    """Write an SVG line plot.

    ``series`` is a list of (label, xs, ys) triples sharing axes.
    """
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if _flat(x_lo, x_hi):
        x_hi = x_lo + max(abs(x_lo), 1.0) * 0.1
    if _flat(y_lo, y_hi):
        y_hi = y_lo + max(abs(y_lo), 1.0) * 0.1
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="18" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(tx):.1f}" y1="{_H - _MB}" x2="{px(tx):.1f}" '
                     f'y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(tx):.1f}" y="{_H - _MB + 18}" '
                     f'text-anchor="middle">{_fmt(tx)}</text>')
    for ty in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{_ML - 5}" y1="{py(ty):.1f}" x2="{_ML}" '
                     f'y2="{py(ty):.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py(ty):.1f}" text-anchor="end" '
                     f'dominant-baseline="middle">{_fmt(ty)}</text>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
                 f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>')
    parts.append(f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_H / 2}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_H / 2})">{ylabel}</text>')

    for idx, (label, xs, ys) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        if label:
            ly = _MT + 16 + 16 * idx
            parts.append(f'<line x1="{_W - _MR - 120}" y1="{ly}" '
                         f'x2="{_W - _MR - 95}" y2="{ly}" stroke="{color}" '
                         f'stroke-width="2"/>')
            parts.append(f'<text x="{_W - _MR - 90}" y="{ly + 4}">{label}</text>')

    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
