"""Special functions and the adaptive quadrature oracle behind every projection integral.

The confluent hypergeometric series F(alpha, gamma, u) is the workhorse: for
alpha = -n it terminates and equals a Laguerre polynomial up to a binomial
factor, F(-n, l+1, u) = L_n^(l)(u) / C(n+l, n). Terminating series are summed
in exact rational arithmetic (floats are exact rationals, so this is lossless)
because plain float summation loses up to six orders of magnitude to
cancellation near n = 50, u = 50. The recurrence evaluators below are the fast
float path used inside integrands; the two routes are cross-certified in the
test suite.

The quadrature oracle is one QUADPACK call per integral, so a tower of
coefficients is one call per n. QUADPACK bisects a given interval the same
dyadic way for every integrand, so those calls keep meeting the same 21-point
Kronrod nodes; callers share node values across them (laguerre_row gives
every order at one node) without changing a single integrand value.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# Non-terminating series are only trusted on a modest argument range; beyond
# this the float partial sums are not reliable and callers get an error.
CONVERGENCE_GUARD = 60.0
_MAX_SERIES_TERMS = 500


class SpecfunDomainError(ValueError):
    """Arguments outside the supported domain."""


class NonConvergenceError(RuntimeError):
    """A numerical method did not converge; the command line exits with 2."""


class SeriesDivergenceError(NonConvergenceError):
    """A non-terminating series failed its convergence guard."""


class QuadratureError(NonConvergenceError):
    """Adaptive quadrature did not converge. Carries the best estimate."""

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and limits for the adaptive quadrature oracle.

    upper_cutoff truncates semi-infinite domains; the default of 40 suits
    integrands with a Gaussian factor exp(-rho^2/4a^2) at a = 1 (tail below
    1e-300). Callers integrating in other variables must scale it themselves;
    doubling the cutoff must not move a certified integral by more than
    abs_tol, and the tests enforce that.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2 ** 16
    upper_cutoff: float = 40.0

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise SpecfunDomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise SpecfunDomainError("max_subdivisions must be at least 1")
        if not self.upper_cutoff > 0.0:
            raise SpecfunDomainError("upper_cutoff must be positive")

    def scaled(self, factor: float) -> "QuadratureSpec":
        """A copy with both tolerances multiplied by factor."""
        return QuadratureSpec(self.abs_tol * factor, self.rel_tol * factor,
                              self.max_subdivisions, self.upper_cutoff)


DEFAULT_QUADRATURE = QuadratureSpec()


def confluent_hypergeometric(alpha: float, gamma: float, u: float) -> float:
    """Kummer's series F(alpha, gamma, u) = sum_k (alpha)_k/(gamma)_k u^k/k!.

    Terminating case (alpha a non-positive integer): the partial sums are
    accumulated as exact rationals and converted to float once, so the result
    carries only the final rounding. Non-terminating case: plain ascending
    float summation with a convergence guard; |u| beyond the guard raises.
    """
    if gamma <= 0.0 and float(gamma) == math.floor(gamma):
        raise SpecfunDomainError(
            f"gamma={gamma!r} is a non-positive integer (pole of the series)")
    if alpha <= 0.0 and float(alpha) == math.floor(alpha):
        acc = Fraction(0)
        term = Fraction(1)
        a = Fraction(alpha)
        g = Fraction(gamma)
        uu = Fraction(u)
        for k in range(int(-alpha) + 1):
            acc += term
            term = term * (a + k) * uu / ((g + k) * (k + 1))
        return float(acc)

    if abs(u) > CONVERGENCE_GUARD:
        raise SeriesDivergenceError(
            f"|u|={abs(u)!r} exceeds the convergence guard "
            f"{CONVERGENCE_GUARD!r} for the non-terminating series")
    acc = 0.0
    term = 1.0
    small_streak = 0
    for k in range(_MAX_SERIES_TERMS):
        acc += term
        term = term * (alpha + k) * u / ((gamma + k) * (k + 1))
        if abs(term) <= 1e-17 * max(1.0, abs(acc)):
            small_streak += 1
            if small_streak >= 3:
                return acc
        else:
            small_streak = 0
    raise SeriesDivergenceError(
        f"series did not settle within {_MAX_SERIES_TERMS} terms "
        f"(alpha={alpha!r}, gamma={gamma!r}, u={u!r})")


def laguerre(n: int, u: float) -> float:
    """L_n(u), the top entry of laguerre_row(n, u).

    Cross-check oracle for confluent_hypergeometric via L_n(u) = F(-n, 1, u).
    """
    return laguerre_row(n, u)[n]


def laguerre_row(n_max: int, u: float) -> array:
    """L_0(u) .. L_n_max(u) by the stable three-term recurrence.

    One recurrence serves a whole tower of orders at one node; the row is an
    array('d') because callers keep one per quadrature node.
    """
    if n_max < 0:
        raise SpecfunDomainError("Laguerre order must be non-negative")
    row = array("d", [1.0])
    if n_max == 0:
        return row
    prev, cur = 1.0, 1.0 - u
    row.append(cur)
    for k in range(1, n_max):
        prev, cur = cur, ((2 * k + 1 - u) * cur - k * prev) / (k + 1)
        row.append(cur)
    return row


def laguerre_associated(n: int, alpha: float, u: float) -> float:
    """Generalized Laguerre L_n^(alpha)(u), three-term recurrence.

    Fast float evaluator for use inside quadrature integrands;
    F(-n, alpha+1, u) = L_n^(alpha)(u) / C(n+alpha, n) for integer alpha >= 0.
    """
    if n < 0:
        raise SpecfunDomainError("Laguerre order must be non-negative")
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + alpha - u
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - u) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def _run_quad(integrand: Callable[[float], float], lo: float, hi: float,
              spec: QuadratureSpec):
    # imported here: only projections and the Landau overlap integrate, and
    # scipy.integrate costs most of the package's import time
    from scipy.integrate import quad

    res = quad(integrand, lo, hi, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
               limit=spec.max_subdivisions, full_output=1)
    if len(res) > 3:
        value, err = res[0], res[1]
        raise QuadratureError(
            f"quadrature on [{lo!r}, {hi!r}] did not converge: {res[3].strip()}",
            value, err)
    value, err = res[0], res[1]
    return value, err


def integrate_semi_infinite(integrand: Callable[[float], float],
                            spec: QuadratureSpec | None = None):
    """Adaptive quadrature of integrand over [0, infinity).

    The domain is truncated at spec.upper_cutoff; the caller asserts the
    integrand decays at least as fast as a Gaussian beyond it. Returns
    (value, error_estimate); non-convergence raises QuadratureError carrying
    the best estimate.
    """
    spec = spec or DEFAULT_QUADRATURE
    return _run_quad(integrand, 0.0, spec.upper_cutoff, spec)


def integrate_interval(integrand: Callable[[float], float], lo: float, hi: float,
                       spec: QuadratureSpec | None = None):
    """Adaptive quadrature over a finite interval, same error discipline."""
    spec = spec or DEFAULT_QUADRATURE
    if not hi > lo:
        raise SpecfunDomainError("integration interval must have hi > lo")
    return _run_quad(integrand, lo, hi, spec)
