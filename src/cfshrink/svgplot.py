"""Minimal SVG 1.1 line plots, written directly (no plotting dependency).

One entry point, line_plot, which lays out axes with {1,2,5}-step ticks,
draws each series as a polyline with point markers, and returns the
document text.  Output is a pure function of the inputs: coordinates are
formatted with %.6g and the palette is fixed, so identical data gives an
identical file.
"""

import math

PALETTE = ("#1f6fb2", "#c4431f", "#2e8540", "#7149a8", "#9a7b16", "#297e7e")

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 34, 46


def _fmt(v) -> str:
    s = f"{float(v):.6g}"
    return "0" if s == "-0" else s


def _ticks(lo: float, hi: float, want: int = 5):
    if not hi > lo:
        hi = lo + 1.0 if lo == hi else lo
        lo = hi - 1.0
    span = hi - lo
    raw = span / max(want - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 5.0):
        if span / (mult * mag) <= want + 0.5:
            step = mult * mag
            break
    first = math.ceil(lo / step - 1e-9) * step
    out = []
    v = first
    while v <= hi + step * 1e-9:
        out.append(0.0 if abs(v) < step * 1e-6 else v)
        v += step
    return out


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_plot(series, *, title="", xlabel="", ylabel="") -> str:
    """720 x 440 SVG document for [(label, [(x, y), ...]), ...]; empty series
    are skipped."""
    width, height = 720, 440
    series = [(label, [(float(x), float(y)) for x, y in pts]) for label, pts in series]
    pts_all = [p for _, pts in series for p in pts]
    if not pts_all:
        raise ValueError("nothing to plot")
    x0, x1 = min(p[0] for p in pts_all), max(p[0] for p in pts_all)
    y0, y1 = min(p[1] for p in pts_all), max(p[1] for p in pts_all)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    # a little headroom so markers stay inside the frame
    ypad = 0.04 * (y1 - y0)
    y0, y1 = y0 - ypad, y1 + ypad
    iw = width - _MARGIN_L - _MARGIN_R
    ih = height - _MARGIN_T - _MARGIN_B
    sx = lambda x: _MARGIN_L + iw * (x - x0) / (x1 - x0)
    sy = lambda y: _MARGIN_T + ih * (y1 - y) / (y1 - y0)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{iw}" height="{ih}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    if title:
        out.append(
            f'<text x="{width // 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_esc(title)}</text>'
        )
    for tx in _ticks(x0, x1):
        px = sx(tx)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_MARGIN_T + ih}" x2="{_fmt(px)}" '
            f'y2="{_MARGIN_T + ih + 5}" stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_MARGIN_T + ih + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y0, y1):
        py = sy(ty)
        out.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(py)}" x2="{_MARGIN_L}" '
            f'y2="{_fmt(py)}" stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{_fmt(py)}" x2="{_MARGIN_L + iw}" '
            f'y2="{_fmt(py)}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>'
        )
    if xlabel:
        out.append(
            f'<text x="{_MARGIN_L + iw // 2}" y="{height - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_esc(xlabel)}</text>'
        )
    if ylabel:
        cy = _MARGIN_T + ih // 2
        out.append(
            f'<text x="16" y="{cy}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="12" transform="rotate(-90 16 {cy})">{_esc(ylabel)}</text>'
        )
    for i, (label, pts) in enumerate(series):
        if not pts:
            continue
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, y in pts:
            out.append(
                f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="2.5" fill="{color}"/>'
            )
        ly = _MARGIN_T + 14 + 15 * i
        lx = _MARGIN_L + iw - 130
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{lx + 23}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{_esc(label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
