"""Minimal self-contained SVG line charts. CSV is the authoritative artifact;
these are reading aids, so only line series, axes, ticks, and a legend."""

from __future__ import annotations

import math

import numpy as np

from .scenario import write_artifact

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float):
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def line_chart(path, title: str, x_label: str, y_label: str, series,
               log_y: bool = False) -> dict:
    """Write a 720 x 460 line chart; series is a list of (label, xs, ys)."""
    width, height, ml, mr, mt, mb = 720, 460, 70, 20, 40, 55
    pw, ph = width - ml - mr, height - mt - mb

    def ty(ys):
        ys = np.asarray(ys, dtype=float)
        if not log_y:
            return ys
        # math.log10 per point: numpy's log10 need not round the same way
        return np.array([math.log10(v) if v > 0.0 else math.nan
                         for v in ys.tolist()])

    # each series' x and transformed y, once for the range and the polyline
    lines = [(label, np.asarray(xs, dtype=float), ty(ys))
             for label, xs, ys in series]
    xs_all = np.concatenate([np.empty(0)] + [xx for _, xx, _ in lines])
    ys_all = np.concatenate([np.empty(0)] + [yy for _, _, yy in lines])
    ys_all = ys_all[~np.isnan(ys_all)]
    if not xs_all.size or not ys_all.size:
        xs_all, ys_all = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
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

    for i, (label, xx, yy) in enumerate(lines):
        color = _COLORS[i % len(_COLORS)]
        # px and py on whole arrays round as they do per point
        keep = ~np.isnan(yy)
        pts = " ".join(map("{:.6g},{:.6g}".format, px(xx[keep]).tolist(),
                           py(yy[keep]).tolist()))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        lx, ly = ml + pw - 150, mt + 16 + 16 * i
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')

    parts.append("</svg>")
    return write_artifact(path, parts)
