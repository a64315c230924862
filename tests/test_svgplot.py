"""SVG line charts: polyline points match a per-point formatter byte for byte."""

import math
import re

import numpy as np
import pytest

from expansionlab import svgplot


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
