"""Projection onto basis families, Parseval and convergence diagnostics.

Includes the closed-form and quadrature routes for the Landau l=0 overlap
with a transverse plane-wave slice: both evaluate the radial integral
int_0^inf exp(-rho^2/4a^2) F(-n, 1, rho^2/2a^2) rho d rho, with the
delta-function factor from the z direction dropped and the proportionality
constant set to 1 (only ratios and convergence verdicts matter here). The
Gaussian and the polynomial argument share the single magnetic length a.

The quadrature route is one QUADPACK call per n (per coefficient in
project), and the calls of one tower share their node values: QUADPACK meets
the same nodes for every n, so each node's Laguerre row, or target value, is
computed once per call of landau_plane_wave_overlaps or project.

A CoefficientSeries is one table of (index, coefficient, error, flag)
entries, and each entry is one row of coefficients.csv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import basis
from .basis import Box1D, LandauUniformField, SpacePoint
from .specfun import (QuadratureError, QuadratureSpec, integrate_interval,
                      integrate_semi_infinite, laguerre, laguerre_row)

FLAG_OK = ""
FLAG_NO_CONVERGENCE = "no-convergence"

# convergence_scan's verdict thresholds
SCAN_INCREMENT_TOL = 1e-12
SCAN_DIVERGENCE_FACTOR = 10.0
SCAN_REFERENCE_N = 10


@dataclass
class CoefficientSeries:
    """Projection coefficients over a basis family, ordered by principal number.

    entries holds one (index, coefficient, error, flag) per coefficient: the
    quadrature error estimate of the coefficient and its flag ('' or
    'no-convergence'); closed-form entries carry error 0.0 and flag ''.
    """

    family: object
    entries: list

    def __post_init__(self):
        self.entries = sorted(
            ((ix, complex(c), err, flag) for ix, c, err, flag in self.entries),
            key=lambda entry: basis.principal_number(entry[0]))
        if len({entry[0] for entry in self.entries}) != len(self.entries):
            raise ValueError("coefficient entries must have distinct indices")

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

    def __post_init__(self):
        diffs = np.diff(np.asarray(self.partial_sums, dtype=float))
        if len(diffs) and diffs.min() < -1e-15:
            raise ValueError("partial sums must be non-decreasing")

    def to_text(self) -> str:
        lines = [f"verdict: {self.verdict}",
                 f"fitted slope: {self.slope!r}",
                 f"scan range: n = {self.ns[0]} .. {self.ns[-1]}"]
        if self.first_converged_n is not None:
            lines.append(f"increments negligible from n = {self.first_converged_n}")
        lines.append(f"partial sum at n={self.ns[-1]}: {self.partial_sums[-1]!r}")
        return "\n".join(lines)


def _angular_average(target, rho: float, l: int) -> tuple[complex, bool]:
    """(1/2pi) int e^(-i l phi) target(rho, phi, 0) dphi by doubling trapezoid.

    The periodic trapezoid rule is spectrally accurate, so band-limited
    targets converge after one doubling, to a relative 1e-12. Returns
    (average, converged); when 1024 points do not settle it, the last
    estimate comes back unconverged.
    """
    m = 16
    prev = None
    while m <= 1024:
        phis = np.arange(m) * (2.0 * math.pi / m)
        vals = np.array([target(SpacePoint.cylindrical(rho, p, 0.0))
                         for p in phis], dtype=complex)
        avg = complex(np.mean(vals * np.exp(-1j * l * phis)))
        if prev is not None and abs(avg - prev) <= max(1e-14, 1e-12 * abs(avg)):
            return avg, True
        prev = avg
        m *= 2
    return prev, False


def _complex_quad(integrand, runner):
    re, re_err = runner(lambda t: integrand(t).real)
    im, im_err = runner(lambda t: integrand(t).imag)
    return complex(re, im), math.hypot(re_err, im_err)


def _memo(fn):
    """fn with its values kept per argument, as long as the result lives."""
    values = {}

    def at(key):
        value = values.get(key)
        if value is None:
            value = values[key] = fn(key)
        return value
    return at


def project(target, family, indices, quadrature: QuadratureSpec | None = None) -> CoefficientSeries:
    """Coefficients C_n = <psi_n | target> by the quadrature oracle.

    target is a callable of SpacePoint. Landau projections run on the fixed
    transverse slice z = 0 (angular integral by periodic trapezoid, radial by
    adaptive quadrature); box projections integrate over [0, L]. A coefficient
    whose quadrature fails to converge, or whose angular average is still
    moving at 1024 points, keeps its best estimate and is flagged; the series
    is still returned.

    Each coefficient is one QUADPACK call per real and imaginary part; the
    target is evaluated once per distinct quadrature node (an angular average
    once per node and l) and shared across the indices.
    """
    entries = []
    if isinstance(family, LandauUniformField):
        a = family.magnetic_length
        spec = quadrature or basis.default_quadrature(family)
        runner = lambda f: integrate_semi_infinite(f, spec)
        average = _memo(lambda key: _angular_average(target, *key))
        for ix in indices:
            unsettled = []

            def radial_integrand(rho, _ix=ix):
                if rho == 0.0 and _ix.l != 0:
                    return 0.0 + 0.0j
                r = basis.landau_radial(_ix.n, _ix.l, rho, a)
                avg, converged = average((rho, _ix.l))
                if not converged:
                    unsettled.append(rho)
                return math.sqrt(2.0 * math.pi) * r * rho * avg

            value, err, flag = _flagged(
                lambda: _complex_quad(radial_integrand, runner))
            if unsettled:
                flag = FLAG_NO_CONVERGENCE
            entries.append((ix, value, err, flag))
    elif isinstance(family, Box1D):
        width = family.width
        spec = quadrature or QuadratureSpec()
        runner = lambda f: integrate_interval(f, 0.0, width, spec)
        on_axis = _memo(lambda x: target(SpacePoint.cartesian(x, 0.0, 0.0)))
        for ix in indices:
            def integrand(x, _ix=ix):
                return basis.box_eigenfunction(_ix.n, x, width) * on_axis(x)

            entries.append((ix, *_flagged(
                lambda: _complex_quad(integrand, runner))))
    else:
        raise basis.BasisIndexError(
            f"projection is not defined for {type(family).__name__}")
    return CoefficientSeries(family, entries)


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
    spec = quadrature or QuadratureSpec(upper_cutoff=40.0 * a)

    def integrand(rho):
        u = rho * rho / (2.0 * a * a)
        return math.exp(-0.25 * rho * rho / (a * a)) * laguerre(n, u) * rho

    return integrate_semi_infinite(integrand, spec)


def landau_plane_wave_overlaps(n_max: int, a: float = 1.0,
                               quadrature: QuadratureSpec | None = None):
    """The quadrature route for n = 0 .. n_max: a list of (value, error, flag).

    One QUADPACK call per n, each with the integrand of
    landau_plane_wave_overlap bit for bit; the calls share their node values:
    each distinct rho gets its Gaussian and the whole row
    L_0(u) .. L_n_max(u) once. A non-converged n keeps its best estimate and
    is flagged 'no-convergence'.
    """
    if not a > 0.0:
        raise basis.BasisDomainError("magnetic length must be positive")
    spec = quadrature or QuadratureSpec(upper_cutoff=40.0 * a)
    node = _memo(lambda rho: (math.exp(-0.25 * rho * rho / (a * a)),
                              laguerre_row(n_max, rho * rho / (2.0 * a * a))))
    out = []
    for n in range(n_max + 1):
        def integrand(rho, _n=n):
            gauss, row = node(rho)
            return gauss * row[_n] * rho

        out.append(_flagged(lambda: integrate_semi_infinite(integrand, spec)))
    return out


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

    first_converged = None
    for i in range(len(ns)):
        tail = inc[i:]
        if np.all(tail <= SCAN_INCREMENT_TOL * max(1.0, sums[-1])):
            first_converged = ns[i]
            break

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


def reconstruct(series: CoefficientSeries, point: SpacePoint) -> complex:
    """Truncated synthesis sum_n C_n psi_n(point)."""
    total = 0.0 + 0.0j
    for ix, c, _, _ in series.entries:
        total += c * basis.evaluate(series.family, ix, point)
    return total


def write_coefficient_csv(series: CoefficientSeries, path):
    """One row per entry, floats via repr; a flagged quad_err reads err:flag."""
    partial = 0.0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("n,re,im,abs,abs_sq,partial_sum,quad_err\n")
        for ix, c, err, flag in series.entries:
            mag_sq = (c * c.conjugate()).real
            partial += mag_sq
            fh.write(",".join([
                str(basis.principal_number(ix)), repr(c.real), repr(c.imag),
                repr(abs(c)), repr(mag_sq), repr(partial),
                f"{err!r}:{flag}" if flag else repr(err)]) + "\n")
