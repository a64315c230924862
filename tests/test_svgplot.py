"""SVG line charts: polyline points match a per-point formatter byte for byte,
and each whole chart matches a list-based copy of the chart writer."""

import math
import re

import numpy as np
import pytest

from expansionlab import svgplot
from expansionlab.svgplot import _COLORS, _fmt, _ticks


def reference_points(series, log_y, width=720, height=460):
    """Each series' points attribute, one float at a time as the chart had it."""
    ml, mr, mt, mb = 70, 20, 40, 55
    pw, ph = width - ml - mr, height - mt - mb

    def ty(v):
        if log_y:
            return math.log10(v) if v > 0.0 else float("nan")
        return v

    xs_all = [float(x) for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in map(ty, map(float, ys))
              if not math.isnan(y)]
    if not xs_all or not ys_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + max(1.0, abs(y_lo) * 0.1)
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    out = []
    for _, xs, ys in series:
        pts = []
        for x, y in zip(xs, ys):
            yy = ty(float(y))
            if math.isnan(yy):
                continue
            px = ml + (float(x) - x_lo) / (x_hi - x_lo) * pw
            py = mt + ph - (yy - y_lo) / (y_hi - y_lo) * ph
            pts.append(f"{px:.6g},{py:.6g}")
        out.append(" ".join(pts))
    return out


def norm_series():
    # propagate's chart: 2 001 times, a growing and a flat norm
    t = np.linspace(0.0, 1.0, 2001)
    rng = np.random.default_rng(4)
    return [("first-order", t, 1.0 + np.cumsum(rng.uniform(0, 1e-7, t.size))),
            ("cayley", t, 1.0 + rng.uniform(-1e-15, 1e-15, t.size))]


def log_series():
    # integer x, and y at or below 0, which a log axis skips
    ys = [0.3, 0.0, 1e-12, -2.0, 5.0, 1e-300, 7.5]
    return [("sum", list(range(1, 8)), ys), ("floor", [1, 7], [1e-3, 1e-3])]


@pytest.mark.parametrize("series,log_y", [
    (norm_series(), False), (log_series(), True), (log_series(), False),
    ([("one", [2.0], [3.0])], False), ([("none", [], [])], True),
], ids=["norms", "log", "linear", "one-point", "empty"])
def test_polyline_points_match_reference_formatter(tmp_path, series, log_y):
    path = tmp_path / "chart.svg"
    svgplot.line_chart(path, "t", "x", "y", series, log_y=log_y)
    points = re.findall(r'<polyline points="([^"]*)"', path.read_text())
    assert points == reference_points(series, log_y)


def reference_chart(path, title: str, x_label: str, y_label: str, series,
                    log_y: bool = False, width: int = 720, height: int = 460):
    """svgplot.line_chart as it was with a list range, one float at a time."""
    ml, mr, mt, mb = 70, 20, 40, 55
    pw, ph = width - ml - mr, height - mt - mb

    def ty(v):
        if log_y:
            return math.log10(v) if v > 0.0 else float("nan")
        return v

    xs_all = [float(x) for _, xs, _ in series for x in xs]
    ys_all = [ty(float(y)) for _, _, ys in series for y in ys]
    ys_all = [y for y in ys_all if not math.isnan(y)]
    if not xs_all or not ys_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + max(1.0, abs(y_lo) * 0.1)
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             '<rect width="100%" height="100%" fill="white"/>',
             f'<text x="{width / 2}" y="22" text-anchor="middle" '
             f'font-family="sans-serif" font-size="15">{title}</text>',
             f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
             f'stroke="#444" stroke-width="1"/>']

    for tx in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{_fmt(px(tx))}" y1="{mt + ph}" '
                     f'x2="{_fmt(px(tx))}" y2="{mt + ph + 5}" stroke="#444"/>')
        parts.append(f'<text x="{_fmt(px(tx))}" y="{mt + ph + 20}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{_fmt(tx)}</text>')
    for tv in _ticks(y_lo, y_hi):
        label = f"1e{_fmt(tv)}" if log_y else _fmt(tv)
        parts.append(f'<line x1="{ml - 5}" y1="{_fmt(py(tv))}" x2="{ml}" '
                     f'y2="{_fmt(py(tv))}" stroke="#444"/>')
        parts.append(f'<text x="{ml - 8}" y="{_fmt(py(tv) + 4)}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    parts.append(f'<text x="{ml + pw / 2}" y="{height - 12}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="13">{x_label}</text>')
    parts.append(f'<text x="18" y="{mt + ph / 2}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {mt + ph / 2})">{y_label}</text>')

    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        # px and py on whole arrays round as they do per point
        yy = np.array([ty(float(y)) for y in ys])
        keep = ~np.isnan(yy)
        xx = np.asarray(xs, dtype=float)[keep]
        pts = " ".join(map("{:.6g},{:.6g}".format, px(xx).tolist(),
                           py(yy[keep]).tolist()))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        lx, ly = ml + pw - 150, mt + 16 + 16 * i
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


@pytest.mark.parametrize("series,log_y", [
    (norm_series(), False), (log_series(), True),
    ([("flat", [0.0, 1.0, 2.0], [4.0, 4.0, 4.0])], False),
    ([("one", [2.0], [3.0])], False), ([("none", [], [])], False),
    ([("zeros", [-0.0, 0.0, 1.0], [0.0, -0.0, 0.0])], False),
    ([("zeros", [-0.0, 0.0, 1.0], [0.0, -0.0, 0.0]),
      ("below", [0.0, -0.0, -2.0], [-0.0, 0.0, -3.0])], False),
], ids=["norms", "log", "constant", "one-point", "empty", "signed-zeros",
        "signed-zeros-at-the-ends"])
def test_chart_matches_list_range_reference(tmp_path, series, log_y):
    # the range now comes from numpy's min and max, which may pick a
    # different zero than Python's; the written chart must not change
    svgplot.line_chart(tmp_path / "new.svg", "t", "x", "y", series,
                       log_y=log_y)
    reference_chart(tmp_path / "ref.svg", "t", "x", "y", series, log_y=log_y)
    assert (tmp_path / "new.svg").read_text() \
        == (tmp_path / "ref.svg").read_text()
