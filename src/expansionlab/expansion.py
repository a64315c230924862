"""Projection onto the box family, Parseval and convergence diagnostics.

Includes the closed-form and quadrature routes for the Landau l=0 overlap
with a transverse plane-wave slice: both evaluate the radial integral
int_0^inf exp(-rho^2/4a^2) F(-n, 1, rho^2/2a^2) rho d rho, with the
delta-function factor from the z direction dropped and the proportionality
constant set to 1 (only ratios and convergence verdicts matter here). The
Gaussian and the polynomial argument share the single magnetic length a.

The quadrature route is one QUADPACK call per n (per real and imaginary
part of each coefficient in project), and the calls of one tower share their
node values, since QUADPACK keeps meeting the same nodes: project evaluates
the target once per distinct node, and landau_plane_wave_overlaps keeps the
integrand's value at every node it has met in a dict that QUADPACK reads by
lookup, and steps them all one order between its calls. Each box part is one
Python function per node value; every integrand returns the value of the
literal one-coefficient route bit for bit.

A CoefficientSeries is one table of (n, coefficient, error, flag) entries
in increasing n, and each entry is one row of coefficients.csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis
from .scenario import write_artifact
from .specfun import (QuadratureError, QuadratureSpec, _laguerre_step,
                      integrate_interval, integrate_semi_infinite, laguerre)

FLAG_OK = ""
FLAG_NO_CONVERGENCE = "no-convergence"

# convergence_scan's verdict thresholds
SCAN_INCREMENT_TOL = 1e-12
SCAN_DIVERGENCE_FACTOR = 10.0
SCAN_REFERENCE_N = 10


@dataclass
class CoefficientSeries:
    """entries: one (n, coefficient, error, flag) per coefficient, in
    increasing n, with the complex coefficient's quadrature error estimate
    and flag ('' or 'no-convergence'); closed-form entries carry 0.0, ''."""

    entries: list

    def coefficients(self) -> np.ndarray:
        return np.array([entry[1] for entry in self.entries], dtype=complex)

    def flagged(self) -> bool:
        return any(entry[3] != FLAG_OK for entry in self.entries)


@dataclass
class ConvergenceReport:
    """Partial-sum scan of sum_{n<=N} |C_n|^2 with a verdict."""

    ns: list
    partial_sums: list
    verdict: str  # convergent | divergent | inconclusive
    slope: float
    first_converged_n: int | None = None

    def to_text(self) -> str:
        lines = [f"verdict: {self.verdict}",
                 f"fitted slope: {self.slope!r}",
                 f"scan range: n = {self.ns[0]} .. {self.ns[-1]}"]
        if self.first_converged_n is not None:
            lines.append(f"increments negligible from n = {self.first_converged_n}")
        lines.append(f"partial sum at n={self.ns[-1]}: {self.partial_sums[-1]!r}")
        return "\n".join(lines)


def _complex_quad(runner, real, imag):
    """(value, error, flag) of runner over the real and imaginary integrands.

    Each part keeps its own value, or its best estimate when it fails to
    converge; the error is their hypot and either failure flags the whole.
    """
    re, re_err, re_flag = _flagged(lambda: runner(real))
    im, im_err, im_flag = _flagged(lambda: runner(imag))
    return complex(re, im), math.hypot(re_err, im_err), re_flag or im_flag


class _Memo(dict):
    """fn's values by argument, each computed when its key is first read."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _box_parts(n: int, width: float, on_axis):
    """The real and imaginary integrands of the box coefficient C_n.

    Each is a part of box_eigenfunction(n, x, width) * on_axis[x], in that
    function's own order of operations: the same bits, up to the sign of a
    zero value. Quadrature nodes lie inside the well, so its zero branch
    never applies.
    """
    norm, npi = math.sqrt(2.0 / width), n * math.pi

    def real(x):
        return norm * math.sin(npi * x / width) * on_axis[x].real

    def imag(x):
        return norm * math.sin(npi * x / width) * on_axis[x].imag
    return real, imag


def project(target, width: float, n_max: int,
            quadrature: QuadratureSpec | None = None) -> CoefficientSeries:
    """Box coefficients C_n = <psi_n | target> for n = 1..n_max.

    target is a complex function of a float x, integrated over the well
    [0, width]. Each coefficient is one QUADPACK call per real and imaginary
    part. A part whose quadrature fails to converge keeps its best estimate,
    the other part its own value, and the coefficient is flagged; the series
    is still returned.

    The target is evaluated once per distinct quadrature node and shared
    across the coefficients.
    """
    if not width > 0.0:
        raise basis.BasisDomainError("well width must be positive")
    spec = quadrature or QuadratureSpec()
    runner = lambda f: integrate_interval(f, 0.0, width, spec)
    on_axis = _Memo(target)
    return CoefficientSeries([
        (n, *_complex_quad(runner, *_box_parts(n, width, on_axis)))
        for n in range(1, n_max + 1)])


def _flagged(integrate):
    """(value, error, flag) of integrate(); non-convergence keeps the best estimate."""
    try:
        value, err = integrate()
        return value, err, FLAG_OK
    except QuadratureError as exc:
        return exc.best_estimate, exc.error_estimate, FLAG_NO_CONVERGENCE


def landau_plane_wave_coefficient(n: int, a: float = 1.0) -> float:
    """Closed form of the l=0 radial overlap integral: 2 a^2 (-1)^n.

    Substituting u = rho^2/2a^2 turns the integral into
    a^2 int_0^inf e^(-u/2) L_n(u) du; the Laplace transform of L_n at s gives
    (s-1)^n / s^(n+1), which at s = 1/2 is 2 (-1)^n. The magnitude is constant
    in n; the sign alternates (see landau_plane_wave_overlap for the
    quadrature route that certifies this).
    """
    if n < 0:
        raise basis.BasisIndexError("Landau n must be non-negative")
    if not a > 0.0:
        raise basis.BasisDomainError("magnetic length must be positive")
    return 2.0 * a * a * (1.0 if n % 2 == 0 else -1.0)


def landau_plane_wave_overlap(n: int, a: float = 1.0,
                              quadrature: QuadratureSpec | None = None):
    """Quadrature route for the same radial overlap; returns (value, error).

    The literal one-n route; landau_plane_wave_overlaps runs the whole tower
    and is checked against this one bit for bit.
    """
    if not a > 0.0:
        raise basis.BasisDomainError("magnetic length must be positive")
    spec = quadrature or basis.landau_quadrature(a)

    def integrand(rho):
        u = rho * rho / (2.0 * a * a)
        return math.exp(-0.25 * rho * rho / (a * a)) * laguerre(n, u) * rho

    return integrate_semi_infinite(integrand, spec)


def landau_plane_wave_overlaps(n_max: int, a: float = 1.0,
                               quadrature: QuadratureSpec | None = None):
    """The quadrature route for n = 0 .. n_max: a list of (value, error, flag).

    One QUADPACK call per n, each with the integrand of
    landau_plane_wave_overlap bit for bit; the calls share their node values:
    each distinct rho gets its Gaussian once, and its L_n is stepped up one
    order between calls (_LaguerreTower). A non-converged n keeps its best
    estimate and is flagged 'no-convergence'.
    """
    if not a > 0.0:
        raise basis.BasisDomainError("magnetic length must be positive")
    spec = quadrature or basis.landau_quadrature(a)
    tower = _LaguerreTower(a)
    out = []
    for n in range(n_max + 1):
        if n:
            tower.advance()
        out.append(_flagged(
            lambda: integrate_semi_infinite(tower.__getitem__, spec)))
    return out


class _LaguerreTower(dict):
    """rho -> gauss(rho) * L_n(u) * rho at the tower's order n for every
    node met so far: the integrand, which QUADPACK reads by dict lookup.

    cols holds each node's rho, Gaussian, u, L_{n-1} and L_n, in the order
    of rhos. advance() steps them all one order with _laguerre_step and
    rewrites every value with one update. A node first met at order n is
    brought up to it once, by the same step written inline on floats, and
    joins cols at the next advance(). Either way each value is
    landau_plane_wave_overlap's integrand, bit for bit. The inline step
    reads the floats (2k + 1, k, k + 1) of each order k below n from
    orders, which advance() extends.
    """

    def __init__(self, a: float):
        self.a, self.n, self.rhos, self.fresh, self.orders = a, 0, [], [], []
        self.cols = np.empty((5, 0))

    def __missing__(self, rho):
        a, prev, cur = self.a, 0.0, 1.0
        u = rho * rho / (2.0 * a * a)
        for odd, k, k1 in self.orders:
            prev, cur = cur, ((odd - u) * cur - k * prev) / k1
        gauss = math.exp(-0.25 * rho * rho / (a * a))
        self.rhos.append(rho)
        self.fresh.append((rho, gauss, u, prev, cur))
        value = self[rho] = gauss * cur * rho
        return value

    def advance(self):
        if self.fresh:
            self.cols = np.hstack((self.cols, np.array(self.fresh).T))
            self.fresh = []
        rho, gauss, u, prev, cur = self.cols
        step = _laguerre_step(self.n, u, prev, cur)
        self.cols = np.array([rho, gauss, u, cur, step])
        self.update(zip(self.rhos, (gauss * step * rho).tolist()))
        self.orders.append((2 * self.n + 1.0, float(self.n), self.n + 1.0))
        self.n += 1


def parseval_defect(series: CoefficientSeries) -> float:
    """|sum |C_n|^2 - 1| at the series truncation (target assumed unit-normalized)."""
    c = series.coefficients()
    return abs(float(np.sum((c * c.conj()).real)) - 1.0)


def convergence_scan(coefficient_fn, n_max: int, *,
                     n_start: int = 0) -> ConvergenceReport:
    """Scan partial sums of |coefficient_fn(n)|^2 for n in [n_start, n_max].

    Divergent: the final partial sum exceeds SCAN_DIVERGENCE_FACTOR times the
    value at SCAN_REFERENCE_N and the linear fit has positive slope.
    Convergent: the increments fall below SCAN_INCREMENT_TOL (relative to the
    running sum) and stay there. Otherwise inconclusive.
    """
    if n_max < n_start:
        raise ValueError("n_max must be at least n_start")
    ns = list(range(n_start, n_max + 1))
    inc = np.array([abs(coefficient_fn(n)) ** 2 for n in ns], dtype=float)
    sums = np.cumsum(inc)

    # negligible from just after the last increment that is not (NaN is not)
    big = np.flatnonzero(~(inc <= SCAN_INCREMENT_TOL * max(1.0, sums[-1])))
    start = int(big[-1]) + 1 if big.size else 0
    first_converged = ns[start] if start < len(ns) else None

    ref_pos = min(max(SCAN_REFERENCE_N - n_start, 0), len(ns) - 1)
    slope = float(np.polyfit(ns, sums, 1)[0]) if len(ns) > 1 else 0.0

    if first_converged is not None and first_converged < n_max:
        verdict = "convergent"
    elif sums[-1] > SCAN_DIVERGENCE_FACTOR * max(sums[ref_pos], 0.0) \
            and sums[ref_pos] > 0.0 and slope > 0.0:
        verdict = "divergent"
    else:
        verdict = "inconclusive"
    return ConvergenceReport(ns, [float(s) for s in sums], verdict, slope,
                             first_converged)


def reconstruct(series: CoefficientSeries, mode) -> complex:
    """Truncated synthesis sum_n C_n mode(n), mode(n) psi_n at one point."""
    return sum((c * mode(n) for n, c, _, _ in series.entries), 0.0 + 0.0j)


def write_coefficient_csv(series: CoefficientSeries, path) -> dict:
    """One row per entry, floats via repr; a flagged quad_err reads err:flag."""
    lines = ["n,re,im,abs,abs_sq,partial_sum,quad_err"]
    partial = 0.0
    for n, c, err, flag in series.entries:
        mag_sq = (c * c.conjugate()).real
        partial += mag_sq
        lines.append(",".join([
            str(n), repr(c.real), repr(c.imag),
            repr(abs(c)), repr(mag_sq), repr(partial),
            f"{err!r}:{flag}" if flag else repr(err)]))
    return write_artifact(path, lines)
