"""Special functions: terminating/non-terminating series and the quadrature oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from expansionlab.specfun import (CONVERGENCE_GUARD, DEFAULT_QUADRATURE,
                                  QuadratureError, QuadratureSpec,
                                  SeriesDivergenceError, SpecfunDomainError,
                                  _laguerre_step, confluent_hypergeometric,
                                  integrate_interval, integrate_semi_infinite,
                                  laguerre, laguerre_associated, laguerre_row)

# The e^{-u} weight decays far more slowly than the Gaussian weights this
# package meets elsewhere: e^{-u} L_m L_n still contributes percent-level
# mass beyond u = 40 for m, n ~ 10. Moment tests pass their own cutoff.
U_SPACE = QuadratureSpec(upper_cutoff=200.0)
U_SPACE_WIDE = QuadratureSpec(upper_cutoff=800.0)


def test_confluent_unit_value_cases():
    assert confluent_hypergeometric(0.0, 1.0, 3.7) == 1.0
    assert confluent_hypergeometric(2.5, 0.5, 0.0) == 1.0
    assert confluent_hypergeometric(-4.0, 2.0, 0.0) == 1.0


def test_confluent_first_order_series():
    # F(a, g, u) = 1 + (a/g) u + ... ; alpha = -1 terminates after the linear term
    for g in (1.0, 2.0, 3.5):
        for u in (0.25, 1.0, 4.0):
            assert confluent_hypergeometric(-1.0, g, u) == pytest.approx(
                1.0 - u / g, abs=1e-15)


def test_confluent_terminating_explicit_quadratic():
    # F(-2, 1, u) = 1 - 2u + u^2/2 = L_2(u)
    for u in (0.0, 0.5, 1.0, 3.0, 10.0):
        assert confluent_hypergeometric(-2.0, 1.0, u) == pytest.approx(
            1.0 - 2.0 * u + 0.5 * u * u, rel=1e-14, abs=1e-14)


def test_confluent_cross_oracle_laguerre_recurrence():
    # the terminating series and the three-term recurrence are independent
    # evaluation routes; they must agree on an integer grid up to n = 50
    worst = 0.0
    for n in range(0, 51, 5):
        for u in range(0, 51, 5):
            via_series = confluent_hypergeometric(float(-n), 1.0, float(u))
            via_rec = laguerre(n, float(u))
            scale = max(1.0, abs(via_rec))
            worst = max(worst, abs(via_series - via_rec) / scale)
    assert worst < 1e-12


def test_confluent_exact_summation_no_cancellation_loss():
    # float-accumulated ascending series loses ~6 digits by n=50, u=50;
    # the exact-rational path must not
    n, u = 50, 50
    term = Fraction(1)
    acc = Fraction(1)
    for k in range(n):
        term *= Fraction(-n + k) * u
        term /= Fraction(1 + k) * (k + 1)
        acc += term
    exact = float(acc)
    got = confluent_hypergeometric(float(-n), 1.0, float(u))
    assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact))


def test_laguerre_degenerate_and_linear():
    assert laguerre(0, 17.3) == 1.0
    for u in (0.0, 0.7, 5.0):
        assert laguerre(1, u) == pytest.approx(1.0 - u, abs=1e-15)


def test_laguerre_row_is_the_recurrence_bit_for_bit():
    for u in (0.0, 0.37, 1.0, 12.5, 400.0):
        assert list(laguerre_row(70, u)) == [laguerre(n, u) for n in range(71)]
    assert list(laguerre_row(0, 3.0)) == [1.0]
    with pytest.raises(SpecfunDomainError):
        laguerre_row(-1, 1.0)


def test_laguerre_step_on_a_column_is_the_row_bit_for_bit():
    # the Landau tower steps a column of nodes with numpy; its +, -, * and /
    # must round as the floats of laguerre_row do, -0.0 included
    us = np.concatenate([[0.0, 0.37, 1.0, 3.0, 12.5, 400.0],
                         np.random.default_rng(5).uniform(0.0, 1600.0, 200)])
    prev, cur = np.zeros_like(us), np.ones_like(us)
    columns = [cur]
    for k in range(70):
        prev, cur = cur, _laguerre_step(k, us, prev, cur)
        columns.append(cur)
    for u, column in zip(us.tolist(), np.array(columns).T.tolist()):
        assert [repr(x) for x in column] \
            == [repr(x) for x in laguerre_row(70, u)]


def test_laguerre_against_polynomial_series():
    # L_n(u) = F(-n, 1, u) = sum_k (-1)^k C(n, k) u^k / k!; the terms cancel
    # heavily at larger n, u, so compare against the summed-term scale
    # rather than the (small) value
    for n in (2, 3, 7, 12):
        for u in (0.3, 1.0, 4.5, 9.0):
            scale = sum(math.comb(n, k) * u ** k / math.factorial(k)
                        for k in range(n + 1)) + 1.0
            poly = confluent_hypergeometric(-float(n), 1.0, u)
            assert abs(laguerre(n, u) - poly) < 1e-13 * scale


def test_laguerre_associated_matches_binomial_sum():
    def explicit(n, alpha, u):
        return sum((-1) ** k * math.comb(n + alpha, n - k) * u ** k
                   / math.factorial(k) for k in range(n + 1))

    for n in (0, 1, 2, 5):
        for alpha in (0, 1, 3):
            for u in (0.2, 1.0, 6.0):
                assert laguerre_associated(n, alpha, u) == pytest.approx(
                    explicit(n, alpha, u), rel=1e-12, abs=1e-12)


def test_laguerre_orthogonality_under_exponential_weight():
    for m in range(0, 11, 2):
        for n in range(m, 11, 2):
            val, _ = integrate_semi_infinite(
                lambda u: math.exp(-u) * laguerre(m, u) * laguerre(n, u),
                U_SPACE)
            expected = 1.0 if m == n else 0.0
            assert val == pytest.approx(expected, abs=5e-10)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 20])
def test_laplace_transform_moment_s2(n):
    # int_0^inf e^{-su} L_n(u) du = (s-1)^n / s^{n+1}
    val, err = integrate_semi_infinite(
        lambda u: math.exp(-2.0 * u) * laguerre(n, u), U_SPACE)
    assert val == pytest.approx(1.0 / 2.0 ** (n + 1), abs=1e-11 + 10 * err)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 20])
def test_laplace_transform_moment_s_half(n):
    # s = 1/2 gives 2 (-1)^n; the integrand only decays like e^{-u/2}, so
    # the tail needs the wide cutoff
    val, err = integrate_semi_infinite(
        lambda u: math.exp(-0.5 * u) * laguerre(n, u), U_SPACE_WIDE)
    assert val == pytest.approx(2.0 * (-1.0) ** n, abs=1e-9 + 10 * err)


def test_moment_stable_under_cutoff_doubling():
    spec2 = QuadratureSpec(upper_cutoff=1600.0)
    for n in (3, 12):
        a, _ = integrate_semi_infinite(
            lambda u: math.exp(-0.5 * u) * laguerre(n, u), U_SPACE_WIDE)
        b, _ = integrate_semi_infinite(
            lambda u: math.exp(-0.5 * u) * laguerre(n, u), spec2)
        assert abs(a - b) < 1e-10


@pytest.mark.parametrize("u", [0.5, 1.0, 5.0, 20.0, 55.0])
def test_confluent_nonterminating_exponential_identities(u):
    # F(1,1,u) = e^u and F(2,1,u) = (1+u) e^u
    assert confluent_hypergeometric(1.0, 1.0, u) == pytest.approx(
        math.exp(u), rel=1e-12)
    assert confluent_hypergeometric(2.0, 1.0, u) == pytest.approx(
        (1.0 + u) * math.exp(u), rel=1e-12)


def test_gamma_pole_rejected():
    for g in (0.0, -1.0, -7.0):
        with pytest.raises(SpecfunDomainError):
            confluent_hypergeometric(0.5, g, 1.0)


def test_nonterminating_beyond_guard_raises():
    assert CONVERGENCE_GUARD <= 60.0
    with pytest.raises(SeriesDivergenceError):
        confluent_hypergeometric(0.5, 1.5, CONVERGENCE_GUARD + 1.0)


def test_terminating_series_immune_to_guard():
    # a polynomial evaluates anywhere, far beyond the series guard
    u = 100.0
    val = confluent_hypergeometric(-3.0, 1.0, u)
    assert val == pytest.approx(1.0 - 3.0 * u + 1.5 * u ** 2 - u ** 3 / 6.0,
                                rel=1e-12)


def test_quadrature_spec_validation_and_scaling():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(upper_cutoff=-5.0)
    spec = DEFAULT_QUADRATURE.scaled(0.01)
    assert spec.abs_tol == pytest.approx(DEFAULT_QUADRATURE.abs_tol * 0.01)
    assert spec.rel_tol == pytest.approx(DEFAULT_QUADRATURE.rel_tol * 0.01)
    assert spec.upper_cutoff == DEFAULT_QUADRATURE.upper_cutoff


def test_integrate_semi_infinite_gaussian():
    val, err = integrate_semi_infinite(lambda u: math.exp(-u * u),
                                       DEFAULT_QUADRATURE)
    assert val == pytest.approx(0.5 * math.sqrt(math.pi), abs=1e-12)
    assert 0.0 <= err < 1e-8


def test_integrate_interval_polynomial_exact():
    val, _ = integrate_interval(lambda x: 3.0 * x * x, 0.0, 2.0,
                                DEFAULT_QUADRATURE)
    assert val == pytest.approx(8.0, rel=1e-13)


def test_quadrature_error_carries_best_estimate():
    starved = QuadratureSpec(max_subdivisions=1)
    with pytest.raises(QuadratureError) as excinfo:
        integrate_semi_infinite(lambda u: math.cos(50.0 * u), starved)
    err = excinfo.value
    assert isinstance(err.best_estimate, float)
    assert err.error_estimate > 0.0
