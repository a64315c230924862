"""Point-evaluation oracles that only the tests call.

Literal, one-point forms of what the package computes in bulk: Landau
states and plane waves at a SpacePoint, the box mode's x derivative, the
dim x dim coefficient right-hand side and the truncated synthesis of a
coefficient series. The commands never evaluate these; the tests hold the
package's batched routes against them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from expansionlab.basis import BasisDomainError, BasisIndexError, landau_radial
from expansionlab.expansion import CoefficientSeries
from expansionlab.propagation import (HamiltonianModel,
                                      PropagationContractError,
                                      bohr_frequencies)


@dataclass(frozen=True)
class SpacePoint:
    """A point in 3-space, stored Cartesian, convertible to cylindrical."""

    x: float
    y: float
    z: float

    @classmethod
    def cartesian(cls, x: float, y: float = 0.0, z: float = 0.0) -> "SpacePoint":
        return cls(float(x), float(y), float(z))

    @classmethod
    def cylindrical(cls, rho: float, phi: float, z: float = 0.0) -> "SpacePoint":
        if rho < 0.0:
            raise BasisDomainError("rho must be non-negative")
        return cls(rho * math.cos(phi), rho * math.sin(phi), float(z))

    @property
    def rho(self) -> float:
        return math.hypot(self.x, self.y)

    @property
    def phi(self) -> float:
        return math.atan2(self.y, self.x) % (2.0 * math.pi)


def landau_eigenfunction(n: int, point: SpacePoint, a: float, l: int = 0,
                         k_z: float = 0.0) -> complex:
    """Psi_{n,l,k_z} = (2 pi)^(-1/2) R_{n,l}(rho) e^(i l phi) e^(i k_z z)."""
    if n < 0:
        raise BasisIndexError("Landau n must be non-negative")
    radial = landau_radial(n, l, point.rho, a)
    return radial / math.sqrt(2.0 * math.pi) * cmath.exp(
        1j * (l * point.phi + k_z * point.z))


def plane_wave(k, point: SpacePoint) -> complex:
    """(8 pi^3)^(-1/2) exp(i k . r), delta-normalized over k."""
    kx, ky, kz = k
    phase = kx * point.x + ky * point.y + kz * point.z
    return cmath.exp(1j * phase) / math.sqrt(8.0 * math.pi ** 3)


def box_eigenfunction_dx(n: int, x: float, width: float) -> float:
    # d/dx of box_eigenfunction at one point: the reference the derivative
    # table of gauge.box_line_state is tested against
    if n < 1:
        raise BasisIndexError("box quantum number must be a positive integer")
    if x < 0.0 or x > width:
        return 0.0
    return math.sqrt(2.0 / width) * (n * math.pi / width) \
        * math.cos(n * math.pi * x / width)


def rhs(c, t: float, model: HamiltonianModel) -> np.ndarray:
    """dC_n/dt = -i sum_l C_l (H1)_{nl} exp(i w_{nl} t)."""
    c = np.asarray(c, dtype=complex)
    if c.shape != (model.dim,):
        raise PropagationContractError(
            f"coefficient vector has shape {c.shape}, expected ({model.dim},)")
    omega = bohr_frequencies(model)
    m = model.h1(t) * np.exp(1j * omega * t)
    return -1j * (m @ c)


def reconstruct(series: CoefficientSeries, mode) -> complex:
    """Truncated synthesis sum_n C_n mode(n), mode(n) psi_n at one point."""
    return sum((c * mode(n) for n, c, _, _ in series.entries), 0.0 + 0.0j)
