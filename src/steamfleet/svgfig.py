"""Minimal deterministic SVG charts.

Covers exactly what the run reports need: stacked panels of line or
step series, filled bands for share stacks, dashed guide lines for
interval bounds.  All coordinates are formatted with fixed precision so
identical data yields identical bytes.

Each curve and each band edge is thinned before formatting: a vertex
whose y equals both kept neighbours' y exactly and whose x lies between
theirs is omitted.  It lies on the segment that replaces it, so the
drawn path, its dash phase and any fill are unchanged, and a curve with
no equal neighbours renders byte for byte as it would unthinned.
"""

import math
from dataclasses import dataclass, field
from itertools import chain, islice

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 14.0, 30.0, 34.0


@dataclass(frozen=True)
class Series:
    xs: tuple
    ys: tuple
    label: str = ""
    color: str = PALETTE[0]
    dash: str | None = None
    step: bool = False       # hold-last rendering for piecewise data


@dataclass(frozen=True)
class Band:
    """Filled region between two step curves sharing an x grid."""
    xs: tuple
    lo: tuple
    hi: tuple
    label: str = ""
    color: str = PALETTE[0]


@dataclass(frozen=True)
class Guide:
    """Horizontal dashed reference line."""
    y: float
    color: str = "#555555"


@dataclass
class Panel:
    title: str = ""
    ylabel: str = ""
    series: list = field(default_factory=list)
    bands: list = field(default_factory=list)
    guides: list = field(default_factory=list)
    y_range: tuple | None = None


def _fmt(v):
    return f"{v:.2f}"


def _ticks(lo, hi, target=5):
    """1-2-5 tick positions covering [lo, hi]."""
    if not (hi > lo):
        lo, hi = lo - 0.5, hi + 0.5
    raw = (hi - lo) / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step - 1e-9) * step
    out = []
    t = first
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def _tick_label(v):
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:.4g}"


def _data_ranges(panel):
    xs, ys = [], []
    for s in panel.series:
        xs.extend(s.xs)
        ys.extend(s.ys)
    for b in panel.bands:
        xs.extend(b.xs)
        ys.extend(b.lo)
        ys.extend(b.hi)
    ys.extend(g.y for g in panel.guides)
    if not xs:
        xs = [0.0, 1.0]
    if not ys:
        ys = [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    if panel.y_range is not None:
        y_lo, y_hi = panel.y_range
    else:
        y_lo, y_hi = min(ys), max(ys)
        pad = 0.06 * (y_hi - y_lo) or 0.5
        y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    return x_lo, x_hi, y_lo, y_hi


def _staircase(xs, ys):
    """Hold-last vertices of step data: (x0, y0), (x1, y0), (x1, y1), ..."""
    return zip(islice(chain.from_iterable(zip(xs, xs)), 1, None),
               chain.from_iterable(zip(ys, ys)))


def _vertices(xs, ys, step=False):
    """The vertices drawn for one curve or band edge, as (x, y) pairs.

    A vertex whose y equals both kept neighbours' y exactly and whose x
    lies between theirs sits on the segment joining them, so it is
    omitted: the drawn path, its dash phase and any fill are unchanged.
    The first and last vertices are always kept.
    """
    out = []
    ax = ay = bx = by = None    # the last two kept vertices, a before b
    for x, y in (_staircase(xs, ys) if step else zip(xs, ys)):
        if ay == by == y and (ax <= bx <= x or x <= bx <= ax):
            # b lies on the segment from a to (x, y).  a needs no new
            # check: it was not between its predecessor and b, and b is
            # between a and (x, y), so neither is it now
            out[-1] = bx, by = x, y
        else:
            out.append((x, y))
            ax, ay, bx, by = bx, by, x, y
    return out


def _render_panel(out, panel, top, width, height, xlabel):
    x_lo, x_hi, y_lo, y_hi = _data_ranges(panel)
    px0, px1 = _MARGIN_L, width - _MARGIN_R
    py0, py1 = top + _MARGIN_T, top + height - _MARGIN_B

    def sx(x):
        return px0 + (x - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(y):
        return py1 - (y - y_lo) / (y_hi - y_lo) * (py1 - py0)

    out.append(f'<rect x="{_fmt(px0)}" y="{_fmt(py0)}" '
               f'width="{_fmt(px1 - px0)}" height="{_fmt(py1 - py0)}" '
               'fill="none" stroke="#222222" stroke-width="1"/>')
    if panel.title:
        out.append(f'<text x="{_fmt(px0)}" y="{_fmt(py0 - 8)}" '
                   'font-size="13" font-weight="bold">'
                   f'{panel.title}</text>')
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        out.append(f'<line x1="{_fmt(x)}" y1="{_fmt(py1)}" x2="{_fmt(x)}" '
                   f'y2="{_fmt(py1 + 4)}" stroke="#222222"/>')
        out.append(f'<text x="{_fmt(x)}" y="{_fmt(py1 + 16)}" '
                   'font-size="10" text-anchor="middle">'
                   f'{_tick_label(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        out.append(f'<line x1="{_fmt(px0 - 4)}" y1="{_fmt(y)}" '
                   f'x2="{_fmt(px0)}" y2="{_fmt(y)}" stroke="#222222"/>')
        out.append(f'<text x="{_fmt(px0 - 7)}" y="{_fmt(y + 3)}" '
                   'font-size="10" text-anchor="end">'
                   f'{_tick_label(t)}</text>')
    if panel.ylabel:
        yc = 0.5 * (py0 + py1)
        out.append(f'<text x="14" y="{_fmt(yc)}" font-size="11" '
                   f'text-anchor="middle" '
                   f'transform="rotate(-90 14 {_fmt(yc)})">'
                   f'{panel.ylabel}</text>')
    if xlabel:
        out.append(f'<text x="{_fmt(0.5 * (px0 + px1))}" '
                   f'y="{_fmt(py1 + 30)}" font-size="11" '
                   f'text-anchor="middle">{xlabel}</text>')

    for b in panel.bands:
        if not b.xs:
            continue
        pts = _vertices(b.xs, b.hi, True) + _vertices(b.xs, b.lo, True)[::-1]
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
        out.append(f'<polygon points="{coords}" fill="{b.color}" '
                   'fill-opacity="0.55" stroke="none"/>')
    for g in panel.guides:
        y = sy(g.y)
        out.append(f'<line x1="{_fmt(px0)}" y1="{_fmt(y)}" '
                   f'x2="{_fmt(px1)}" y2="{_fmt(y)}" stroke="{g.color}" '
                   'stroke-width="1" stroke-dasharray="5,4"/>')
    for s in panel.series:
        if not s.xs:
            continue
        pts = _vertices(s.xs, s.ys, s.step)
        coords = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        out.append(f'<polyline points="{coords}" fill="none" '
                   f'stroke="{s.color}" stroke-width="1.4"{dash}/>')

    # legend: labelled swatches along the top edge of the plot box
    x_leg = px0 + 8.0
    for item in list(panel.series) + list(panel.bands):
        if not item.label:
            continue
        y_leg = py0 + 12.0
        out.append(f'<rect x="{_fmt(x_leg)}" y="{_fmt(y_leg - 4)}" '
                   f'width="14" height="4" fill="{item.color}"/>')
        out.append(f'<text x="{_fmt(x_leg + 18)}" y="{_fmt(y_leg)}" '
                   f'font-size="10">{item.label}</text>')
        x_leg += 26.0 + 6.2 * len(item.label)


def render(panels, width=880, panel_height=230, xlabel="time, s"):
    """Compose stacked panels into one SVG document string."""
    height = panel_height * len(panels)
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" font-family="Helvetica, Arial, sans-serif">',
           f'<rect width="{width}" height="{height}" fill="#ffffff"/>']
    for k, panel in enumerate(panels):
        last = k == len(panels) - 1
        _render_panel(out, panel, k * panel_height, width, panel_height,
                      xlabel if last else "")
    out.append("</svg>")
    return "\n".join(out) + "\n"
