"""Eigenfunctions: Landau radial tower, plane waves, and the 1-D well."""

import cmath
import math

import pytest

from expansionlab.basis import (BasisDomainError, BasisIndexError,
                                box_eigenfunction, landau_normalization,
                                landau_quadrature, landau_radial)
from expansionlab.expansion import project
from expansionlab.specfun import (QuadratureSpec, SpecfunDomainError,
                                  integrate_interval, integrate_semi_infinite)

from oracles import (SpacePoint, box_eigenfunction_dx, landau_eigenfunction,
                     plane_wave, reconstruct)


def test_space_point_cylindrical_round_trip():
    p = SpacePoint.cylindrical(2.5, 1.1, -0.3)
    assert p.rho == pytest.approx(2.5, abs=1e-14)
    assert p.phi == pytest.approx(1.1, abs=1e-14)
    assert p.z == -0.3
    q = SpacePoint.cartesian(p.x, p.y, p.z)
    assert q.rho == pytest.approx(p.rho, abs=1e-14)


def test_space_point_rejects_negative_radius():
    with pytest.raises(ValueError):
        SpacePoint.cylindrical(-1.0, 0.0, 0.0)


def test_family_and_index_validation():
    for a in (0.0, math.nan):
        with pytest.raises(SpecfunDomainError):
            landau_quadrature(a)
    target = lambda x: complex(box_eigenfunction(1, x, 1.0))
    for width in (0.0, -2.0, math.nan):
        with pytest.raises(ValueError):
            project(target, width, 3)
    with pytest.raises(BasisIndexError):
        landau_eigenfunction(-1, SpacePoint.cartesian(0.5), 1.0)
    with pytest.raises(BasisIndexError):
        box_eigenfunction(0, 0.5, 1.0)


def test_landau_normalization_known_values():
    # T(n, 0) = 1 for every n; T(1, 2) = (3!/(2^2 1!))^(1/2) / 2!
    for n in (0, 1, 5, 20, 40):
        assert landau_normalization(n, 0) == pytest.approx(1.0, rel=1e-13)
    assert landau_normalization(1, 2) == pytest.approx(
        0.5 * math.sqrt(1.5), rel=1e-13)
    assert landau_normalization(0, 3) == pytest.approx(
        math.sqrt(math.factorial(3) / 2.0 ** 3) / math.factorial(3), rel=1e-13)
    # up to n + |l| = 20 the factorials are exact, so these hold to the last
    # bit, which the log-gamma route misses
    assert landau_normalization(1, -1) == 1.0
    assert landau_normalization(0, 2) == math.sqrt(0.5) / 2.0


def test_landau_normalization_large_arguments_use_log_route():
    # n + |l| = 60 overflows naive factorials; the log-gamma route must not
    val = landau_normalization(30, 30)
    assert 0.0 < val < 1.0
    with pytest.raises(BasisDomainError):
        landau_normalization(10 ** 8, 400)


def test_landau_radial_orthonormality_per_l_sector():
    # int_0^inf R_m R_n rho d rho = delta_mn, the transverse-plane inner
    # product with the angular factor already integrated out; the norms
    # themselves hold to 1e-10
    for a in (1.0, 0.5):
        for l in (0, 1, 2):
            for m in range(0, 6):
                for n in range(m, 6):
                    val, _ = integrate_semi_infinite(
                        lambda rho: landau_radial(m, l, rho, a)
                        * landau_radial(n, l, rho, a) * rho,
                        landau_quadrature(a))
                    if m == n:
                        assert val == pytest.approx(1.0, abs=1e-10)
                    else:
                        assert val == pytest.approx(0.0, abs=1e-8)


def test_landau_orthonormality_full_eigenfunction_l0():
    # spec'd property: m, n <= 10 at 1e-8 on the l=0 slice; the phi and z
    # factors contribute exactly 2 pi x 1 for matching l, k_z
    for m in range(0, 11, 2):
        for n in range(m, 11, 2):
            def integrand(rho, _m=m, _n=n):
                a = landau_eigenfunction(_m,
                                         SpacePoint.cylindrical(rho, 0.3, 0.0),
                                         1.0)
                b = landau_eigenfunction(_n,
                                         SpacePoint.cylindrical(rho, 0.3, 0.0),
                                         1.0)
                return (a.conjugate() * b).real * rho * 2.0 * math.pi

            val, _ = integrate_semi_infinite(integrand, landau_quadrature(1.0))
            assert val == pytest.approx(1.0 if m == n else 0.0, abs=1e-8)


def test_asymptotics_dichotomy():
    # bound Landau states die off; the plane wave's modulus never does
    a = 1.0
    for n, l in ((0, 0), (3, 0), (2, 4)):
        at0 = abs(landau_radial(n, l, 1e-12 if l else 0.0, a))
        far = abs(landau_radial(n, l, 40.0 * a, a))
        ref = max(at0, abs(landau_radial(n, l, math.sqrt(2.0 * n + 1.0), a)))
        assert far < 1e-12 * ref

    k = (1.3, -0.4, 2.0)
    mod0 = abs(plane_wave(k, SpacePoint.cartesian(0.0, 0.0, 0.0)))
    mod40 = abs(plane_wave(k, SpacePoint.cartesian(40.0, 0.0, 0.0)))
    assert mod0 == mod40
    assert mod0 == pytest.approx((8.0 * math.pi ** 3) ** -0.5, rel=1e-14)


def test_landau_radial_origin_behaviour():
    # l = 0 states are finite and nonzero at the origin, l > 0 vanish there
    assert abs(landau_radial(2, 0, 0.0, 1.0)) > 0.1
    assert landau_radial(2, 3, 0.0, 1.0) == 0.0


def test_plane_wave_value():
    k = (0.0, 0.0, 2.0)
    p = SpacePoint.cartesian(0.0, 0.0, 0.25)
    expected = (8.0 * math.pi ** 3) ** -0.5 * cmath.exp(0.5j)
    assert plane_wave(k, p) == pytest.approx(expected, rel=1e-14)


def test_box_eigenfunction_values_and_support():
    L = 2.0
    assert box_eigenfunction(1, 0.5 * L, L) == pytest.approx(
        math.sqrt(2.0 / L), rel=1e-14)
    assert box_eigenfunction(2, 0.5 * L, L) == pytest.approx(0.0, abs=1e-15)
    assert box_eigenfunction(3, -0.1, L) == 0.0
    assert box_eigenfunction(3, L + 0.1, L) == 0.0
    for n, width in ((4, 1.0), (1, 3.0)):
        norm, _ = integrate_interval(
            lambda x: box_eigenfunction(n, x, width) ** 2, 0.0, width,
            QuadratureSpec())
        assert abs(norm - 1.0) < 1e-12


def test_box_eigenfunction_dx_is_the_derivative():
    L, n, x, h = 1.0, 4, 0.3, 1e-6
    fd = (box_eigenfunction(n, x + h, L) - box_eigenfunction(n, x - h, L)) \
        / (2.0 * h)
    assert box_eigenfunction_dx(n, x, L) == pytest.approx(fd, rel=1e-8)


def test_box_completeness_eigenstate_roundtrip():
    # expanding phi_3 over the first 50 well states returns it pointwise;
    # trapezoid-free route, straight quadrature projections
    L = 1.0
    target = lambda x: complex(box_eigenfunction(3, x, L))
    series = project(target, L, 50, QuadratureSpec())
    for x in (0.05, 0.21, 0.5, 0.77, 0.99):
        got = reconstruct(series, lambda n: box_eigenfunction(n, x, L))
        assert abs(got - target(x)) < 1e-12


def test_landau_quadrature_scales_with_magnetic_length():
    spec = landau_quadrature(2.0)
    assert spec.upper_cutoff == pytest.approx(80.0)
    spec = QuadratureSpec()
    assert spec.upper_cutoff >= 5.0


@pytest.mark.parametrize("call,error,message", [
    (lambda: landau_normalization(-1, 0), BasisIndexError,
     "Landau n must be non-negative"),
    (lambda: landau_radial(0, 0, -1.0, 1.0), BasisDomainError,
     "rho must be non-negative"),
    (lambda: landau_radial(0, 0, 1.0, 0.0), BasisDomainError,
     "magnetic length must be positive"),
    (lambda: box_eigenfunction(1, 0.5, 0.0), BasisDomainError,
     "well width must be positive"),
    (lambda: box_eigenfunction_dx(0, 0.5, 1.0), BasisIndexError,
     "box quantum number must be a positive integer"),
], ids=["normalization-n", "radial-rho", "radial-length", "box-width",
        "box-dx-n"])
def test_basis_argument_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_box_derivative_vanishes_outside_the_well():
    for x in (-0.1, 1.1):
        assert box_eigenfunction_dx(2, x, 1.0) == 0.0
    assert box_eigenfunction_dx(2, 0.0, 1.0) == 2.0 * math.sqrt(2.0) * math.pi
