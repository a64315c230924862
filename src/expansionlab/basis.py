"""Eigenfunctions: the Landau radial factor and the 1-D box.

Natural units m = Q = c = hbar = 1 throughout.
Each eigenfunction is a plain function of its quantum numbers and a point:
box modes of an integer n >= 1 and a float x, Landau radial factors of
n >= 0 and l at a radius rho. Landau states are handled on a fixed-k_z
transverse slice, with the z factor treated as a delta-normalized
spectator. Stationary time factors, where they appear elsewhere in the
package, follow the convention exp(-i eps t).
"""

from __future__ import annotations

import math

import numpy as np

from . import specfun
from .scenario import _positive
from .specfun import QuadratureSpec

_LOG_FLOAT_MAX = math.log(1.7976931348623157e308)


class BasisDomainError(ValueError):
    """Lengths or evaluation points outside the supported domain."""


class BasisIndexError(ValueError):
    """Quantum numbers outside an eigenfunction's range."""


def landau_normalization(n: int, l: int) -> float:
    """T(n, l) = (1/|l|!) [ (|l|+n)! / (2^|l| n!) ]^(1/2).

    Exact factorials up to n+|l| = 20, log-gamma beyond to dodge overflow.
    """
    if n < 0:
        raise BasisIndexError("Landau n must be non-negative")
    al = abs(l)
    if n + al <= 20:
        return math.sqrt(math.factorial(al + n) / (2 ** al * math.factorial(n))) \
            / math.factorial(al)
    log_t = (-math.lgamma(al + 1)
             + 0.5 * (math.lgamma(al + n + 1) - al * math.log(2.0)
                      - math.lgamma(n + 1)))
    if log_t > _LOG_FLOAT_MAX:
        raise BasisDomainError(
            f"normalization factor overflows for n={n}, l={l}")
    return math.exp(log_t)


def landau_radial(n: int, l: int, rho: float, a: float) -> float:
    """Radial factor R_{n,l}(rho) = T(n,l) rho^|l| / a^(1+|l|) e^(-rho^2/4a^2) F(-n, |l|+1, rho^2/2a^2).

    The single length scale a sets both the Gaussian and the polynomial
    argument. The confluent factor is evaluated through the generalized
    Laguerre recurrence, F(-n, l+1, u) = L_n^(l)(u) / C(n+l, n), which the
    tests certify against the exact series.
    """
    if rho < 0.0:
        raise BasisDomainError("rho must be non-negative")
    if problem := _positive(a, None):
        raise BasisDomainError(f"magnetic length {problem}")
    al = abs(l)
    u = rho * rho / (2.0 * a * a)
    confluent = specfun.laguerre_row(n, u, float(al))[n]
    if al:
        confluent /= math.comb(n + al, n)
    return (landau_normalization(n, l) * (rho / a) ** al / a
            * math.exp(-0.5 * u) * confluent)


def box_eigenfunction(n: int, x: float, width: float) -> float:
    """(2/L)^(1/2) sin(n pi x / L) inside the well, zero outside."""
    if n < 1:
        raise BasisIndexError("box quantum number must be a positive integer")
    if problem := _positive(width, None):
        raise BasisDomainError(f"well width {problem}")
    if x < 0.0 or x > width:
        return 0.0
    return math.sqrt(2.0 / width) * math.sin(n * math.pi * x / width)


def box_modes(width: float, n_modes: int, x: np.ndarray):
    """Wave numbers n pi / L and the (n_modes, len(x)) table of box modes.

    Row n - 1 holds box_eigenfunction(n, x, L) at every x in [0, L], up to
    round-off (the argument is (n pi / L) x rather than n pi x / L).
    """
    k = np.arange(1, n_modes + 1) * math.pi / width
    table = np.outer(k, x)      # filled in place: no table-sized temporary
    np.sin(table, out=table)
    table *= math.sqrt(2.0 / width)
    return k, table


def landau_quadrature(a: float) -> QuadratureSpec:
    """Quadrature defaults for a Landau radial integral: cutoff 40 a."""
    return QuadratureSpec(upper_cutoff=40.0 * a)
