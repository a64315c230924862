"""Special functions and the adaptive quadrature oracle behind every projection integral.

The confluent hypergeometric series F(alpha, gamma, u) is the workhorse: for
alpha = -n it terminates and equals a Laguerre polynomial up to a binomial
factor, F(-n, l+1, u) = L_n^(l)(u) / C(n+l, n). Terminating series are summed
in exact rational arithmetic (floats are exact rationals, so this is lossless)
because plain float summation loses up to six orders of magnitude to
cancellation near n = 50, u = 50. The recurrence evaluators below are the fast
float path used inside integrands; the two routes are cross-certified in the
test suite.

The quadrature oracle is one QUADPACK qagse call per integral, so a tower of
coefficients is one call per n. QUADPACK bisects a given interval the same
dyadic way for every integrand, so those calls keep meeting the same 21-point
Kronrod nodes; callers share node values across them without changing a
single integrand value. qagse is reached in scipy's QUADPACK extension,
loaded on its own so that the scipy.integrate package is never imported,
and each call returns what scipy.integrate.quad returns bit for bit: it
runs in a workspace of FIRST_LIMIT subintervals and reruns at the full
limit only when that could matter (see _run_quad). One three-term step,
_laguerre_step, serves laguerre_row, which climbs the orders of L_n^(alpha)
at one node (alpha = 0 for laguerre, |l| for basis.landau_radial), and the
Landau tower's advance() in expansion, which steps an array of nodes up one
order at a time. The tower's catch-up of a new node writes the step inline,
since a call per step costs about a tenth of a scan. It reads each order's
floats (2k + 1, k, k + 1) from a list that advance() extends rather than
forming them from int k at every step, which halves the cost of a step; a
mutant row in tests/test_mutants.py guards that copy.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import math
import os
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable

# Non-terminating series are only trusted on a modest argument range; beyond
# this the float partial sums are not reliable and callers get an error.
CONVERGENCE_GUARD = 60.0
_MAX_SERIES_TERMS = 500

# scipy's QUADPACK extension, and the subintervals of a first qagse run
_QUADPACK = "scipy.integrate._quadpack"
FIRST_LIMIT = 128


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
        if not (0.0 < self.abs_tol < math.inf and 0.0 < self.rel_tol < math.inf):
            raise SpecfunDomainError(
                "quadrature tolerances must be positive and finite")
        if not (isinstance(self.max_subdivisions, int)
                and self.max_subdivisions >= 1):
            raise SpecfunDomainError(
                "max_subdivisions must be an integer of at least 1")
        if not 0.0 < self.upper_cutoff < math.inf:
            raise SpecfunDomainError(
                "upper_cutoff must be positive and finite")

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


def laguerre_row(n_max: int, u: float, alpha=0) -> array:
    """L_0^(alpha)(u) .. L_n_max^(alpha)(u) by the stable three-term recurrence.

    The row is an array('d'); L_1 is the first step from L_{-1} = 0.
    """
    if n_max < 0:
        raise SpecfunDomainError("Laguerre order must be non-negative")
    row = array("d", [1.0])
    prev, cur = 0.0, 1.0
    for k in range(n_max):
        prev, cur = cur, _laguerre_step(k, u, prev, cur, alpha)
        row.append(cur)
    return row


def _laguerre_step(k: int, u, prev, cur, alpha=0):
    """L_{k+1}(u) of order alpha from L_{k-1}(u) = prev and L_k(u) = cur.

    u, prev and cur are floats, or arrays of the same shape: numpy's +, -,
    * and / round as the float operations do, so a column of nodes stepped
    at once holds each node's laguerre_row entries bit for bit.
    """
    return ((2 * k + 1 + alpha - u) * cur - (k + alpha) * prev) / (k + 1)


# scipy.integrate.quad's text for each code qagse returns on failure
_QUADPACK_MESSAGES = {
    1: "The maximum number of subdivisions ({limit}) has been achieved.\n  "
       "If increasing the limit yields no improvement it is advised to "
       "analyze \n  the integrand in order to determine the difficulties.  "
       "If the position of a \n  local difficulty can be determined "
       "(singularity, discontinuity) one will \n  probably gain from "
       "splitting up the interval and calling the integrator \n  on the "
       "subranges.  Perhaps a special-purpose integrator should be used.",
    2: "The occurrence of roundoff error is detected, which prevents \n  "
       "the requested tolerance from being achieved.  "
       "The error may be \n  underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the\n  "
       "integration interval.",
    4: "The algorithm does not converge.  Roundoff error is detected\n  "
       "in the extrapolation table.  It is assumed that the requested "
       "tolerance\n  cannot be achieved, and that the returned result "
       "(if full_output = 1) is \n  the best which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
}


def _quadpack_file() -> str | None:
    """The file of scipy's QUADPACK extension, found without importing it."""
    scipy = importlib.util.find_spec("scipy")
    for folder in (scipy and scipy.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "integrate", "_quadpack" + suffix)
            if os.path.isfile(path):
                return path
    return None


@cache
def _qagse():
    """QUADPACK's qagse, without importing the scipy.integrate package.

    That package costs 0.7 s of start-up (2-CPU Xeon host). The extension is
    loaded from its file and registered in sys.modules under its real name,
    so a later import of scipy.integrate uses this very module. Without the
    file it is imported by name.
    """
    module = sys.modules.get(_QUADPACK)
    if module is None:
        path = _quadpack_file()
        if path is None:
            module = importlib.import_module(_QUADPACK)
        else:
            loader = importlib.machinery.ExtensionFileLoader(_QUADPACK, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_file_location(_QUADPACK, path,
                                                       loader=loader))
            loader.exec_module(module)
            sys.modules[_QUADPACK] = module
    return module._qagse


def _run_quad(integrand: Callable[[float], float], lo: float, hi: float,
              spec: QuadratureSpec):
    """(value, error) of qagse at limit spec.max_subdivisions.

    Non-convergence raises QuadratureError with quad's message. Value, error
    and failure are bit for bit scipy.integrate.quad's. QUADPACK reads its
    limit only in the stop at last == limit and in jupbnd = limit + 3 - last,
    the range it re-sorts its error list over once last > limit/2 + 2. A
    first run in FIRST_LIMIT subintervals that ends at or below that mark
    made the full run's operations; any other is rerun at the full limit.
    The default workspace of 2^16 made a call on a zero integrand cost 36 us
    instead of 9 us (2-CPU Xeon host), and expansionlab's own integrands
    need at most a few dozen subintervals.
    """
    qagse = _qagse()
    limit = min(spec.max_subdivisions, FIRST_LIMIT)
    value, err, info, ier = qagse(integrand, lo, hi, (), 1, spec.abs_tol,
                                  spec.rel_tol, limit)
    if limit < spec.max_subdivisions and info["last"] > limit // 2 + 2:
        value, err, info, ier = qagse(integrand, lo, hi, (), 1, spec.abs_tol,
                                      spec.rel_tol, spec.max_subdivisions)
    if ier:
        message = _QUADPACK_MESSAGES[ier].format(limit=spec.max_subdivisions)
        raise QuadratureError(
            f"quadrature on [{lo!r}, {hi!r}] did not converge: {message}",
            value, err)
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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise SpecfunDomainError("integration bounds must be finite")
    if not hi > lo:
        raise SpecfunDomainError("integration interval must have hi > lo")
    return _run_quad(integrand, lo, hi, spec)
