"""Special functions: terminating/non-terminating series and the quadrature oracle."""

import importlib
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from expansionlab import specfun
from expansionlab.specfun import (DEFAULT_QUADRATURE, QuadratureError,
                                  QuadratureSpec, _laguerre_step,
                                  confluent_hypergeometric,
                                  integrate_interval, integrate_semi_infinite,
                                  laguerre, laguerre_row)

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
    # the three-term recurrence written out here, bit for bit, and the
    # terminating series as an independent route
    for u in (0.0, 0.37, 1.0, 12.5, 400.0):
        prev, cur, expected = 0.0, 1.0, [1.0]
        for k in range(70):
            prev, cur = cur, ((2 * k + 1 - u) * cur - k * prev) / (k + 1)
            expected.append(cur)
        row = laguerre_row(70, u)
        assert [repr(x) for x in row] == [repr(x) for x in expected]
        for n in range(0, 71, 7):
            series = confluent_hypergeometric(float(-n), 1.0, u)
            assert abs(row[n] - series) <= 1e-12 * max(1.0, abs(series))
    assert list(laguerre_row(0, 3.0)) == [1.0]


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
                assert laguerre_row(n, u, alpha)[n] == pytest.approx(
                    explicit(n, alpha, u), rel=1e-12, abs=1e-12)


def associated_loop(n, alpha, u):
    """L_n^(alpha)(u) by the recurrence started at L_1 = 1 + alpha - u."""
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + alpha - u
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - u) * cur
                          - (k + alpha) * prev) / (k + 1)
    return cur


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 80), alpha=st.integers(0, 12).map(float),
       u=st.floats(0.0, 100.0))
@example(n=80, alpha=12.0, u=0.0)
@example(n=1, alpha=3.0, u=4.0)
def test_associated_row_is_the_associated_loop_bit_for_bit(n, alpha, u):
    # the row's first step from L_{-1} = 0 is the loop's L_1 = 1 + alpha - u
    got, want = laguerre_row(n, u, alpha)[n], associated_loop(n, alpha, u)
    assert got == want
    assert math.copysign(1.0, got) == math.copysign(1.0, want)


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


def test_terminating_series_immune_to_guard():
    # a polynomial evaluates anywhere, far beyond the series guard
    u = 100.0
    val = confluent_hypergeometric(-3.0, 1.0, u)
    assert val == pytest.approx(1.0 - 3.0 * u + 1.5 * u ** 2 - u ** 3 / 6.0,
                                rel=1e-12)


def test_quadrature_spec_scaling():
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


# _run_quad against its oracle, scipy.integrate.quad at the full limit.
# Outcomes are compared as reprs, so -0.0 and every last bit count.

def quad_outcome(f, lo, hi, spec):
    """(outcome, last) of scipy.integrate.quad: what _run_quad must give."""
    res = quad(f, lo, hi, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
               limit=spec.max_subdivisions, full_output=1)
    if len(res) > 3:
        return (("raise", repr(res[0]), repr(res[1]),
                 f"quadrature on [{lo!r}, {hi!r}] did not converge: "
                 f"{res[3].strip()}"), res[2]["last"])
    return ("return", repr(res[0]), repr(res[1])), res[2]["last"]


def run_quad_outcome(f, lo, hi, spec):
    try:
        value, err = specfun._run_quad(f, lo, hi, spec)
    except QuadratureError as exc:
        return ("raise", repr(exc.best_estimate), repr(exc.error_estimate),
                str(exc))
    return ("return", repr(value), repr(err))


def unit_integrand(family, p, lo, hi):
    """A test integrand on [lo, hi], shaped in t = (x - lo) / (hi - lo).

    The oscillatory and near-singular ones need from 1 to about 1 000
    subintervals as p goes from 0 to 1.
    """
    width = hi - lo
    mid = 0.5 * (lo + hi)       # the centre of QUADPACK's first rule
    if family == "oscillatory":
        return lambda x: math.cos(7000.0 * p * (x - lo) / width + 0.3)
    if family == "near-singular":
        k = 20.0 * math.pi * p
        return lambda x: 1.0 / math.sqrt(
            abs(math.sin(k * (x - lo) / width + 0.7)) + 1e-12)
    if family == "inverse-sine":
        eps = 10.0 ** (-4.0 * p)
        return lambda x: math.sin(1.0 / ((x - lo) / width + eps))
    if family == "zero-at-centre":
        return lambda x: (x - mid) * math.exp((x - lo) / width)
    if family == "zero":
        return lambda x: 0.0 * (x - lo)
    if family == "negative-zero":
        return lambda x: -0.0 * (1.0 + (x - lo) ** 2)
    if family == "mixed-zero":
        return lambda x: math.copysign(0.0, math.sin(40.0 * (x - lo) / width))
    raise ValueError(family)


FAMILIES = ("oscillatory", "near-singular", "inverse-sine", "zero-at-centre",
            "zero", "negative-zero", "mixed-zero")
LIMITS = (1, 2, 127, 128, 129, 2 ** 16)
TOLERANCES = ((1e-12, 1e-10), (1e-8, 1e-8), (1e-15, 1e-14))


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(FAMILIES),
       p=st.integers(0, 100).map(lambda k: k / 100),
       lo=st.floats(-3.0, 3.0), width=st.floats(0.01, 50.0),
       limit=st.sampled_from(LIMITS), tolerances=st.sampled_from(TOLERANCES))
@example(family="oscillatory", p=0.1, lo=0.0, width=1.0, limit=2 ** 16,
         tolerances=TOLERANCES[0])
@example(family="oscillatory", p=0.6, lo=0.0, width=1.0, limit=2 ** 16,
         tolerances=TOLERANCES[0])
@example(family="near-singular", p=1.0, lo=0.0, width=1.0, limit=129,
         tolerances=TOLERANCES[0])
def test_run_quad_is_quad_bit_for_bit(family, p, lo, width, limit,
                                      tolerances):
    hi = lo + width
    spec = QuadratureSpec(*tolerances, max_subdivisions=limit)
    f = unit_integrand(family, p, lo, hi)
    expected, _ = quad_outcome(f, lo, hi, spec)
    assert run_quad_outcome(f, lo, hi, spec) == expected


def test_first_workspace_reruns_past_its_mark():
    # cos(w t) needs about 16, 100 and 200 subintervals at the full limit:
    # below the mark of a first run in 128, between the mark and 128, and
    # beyond 128, where the first run stops at its limit
    mark = specfun.FIRST_LIMIT // 2 + 2
    spec = QuadratureSpec()
    for w, (low, high) in ((100.0, (1, mark)),
                           (700.0, (mark + 1, specfun.FIRST_LIMIT)),
                           (1400.0, (specfun.FIRST_LIMIT + 1, 2 ** 16))):
        f = lambda x, w=w: math.cos(w * x)
        expected, last = quad_outcome(f, 0.0, 1.0, spec)
        assert low <= last <= high, (w, last)
        assert run_quad_outcome(f, 0.0, 1.0, spec) == expected


FAILURES = [
    (1, lambda x: math.cos(1400.0 * x), TOLERANCES[0], 129),
    (2, lambda x: abs(math.log(x)) ** 0.1 if x else 0.0, TOLERANCES[2],
     2 ** 16),
    (3, unit_integrand("near-singular", 0.1, 0.0, 1.0), TOLERANCES[0],
     2 ** 16),
    (4, lambda x: abs(math.log(x)) ** 0.05 if x else 0.0, TOLERANCES[2],
     2 ** 16),
    (5, lambda x: x ** -1.5 if x else 0.0, TOLERANCES[0], 2 ** 16),
]


@pytest.mark.parametrize("code, f, tolerances, limit", FAILURES,
                         ids=[str(row[0]) for row in FAILURES])
def test_each_failure_code_reads_as_quad(code, f, tolerances, limit):
    spec = QuadratureSpec(*tolerances, max_subdivisions=limit)
    assert specfun._qagse()(f, 0.0, 1.0, (), 0, *tolerances, limit)[2] == code
    expected, _ = quad_outcome(f, 0.0, 1.0, spec)
    assert expected[0] == "raise"
    assert run_quad_outcome(f, 0.0, 1.0, spec) == expected


@pytest.mark.parametrize("limit", LIMITS)
@pytest.mark.parametrize("family", ["zero", "negative-zero", "mixed-zero"])
def test_zero_integrand_is_quad_on_the_first_rule(family, limit):
    spec = QuadratureSpec(max_subdivisions=limit)
    f = unit_integrand(family, 0.5, 0.0, 2.0)
    first_rule = []
    expected, last = quad_outcome(lambda x: first_rule.append(x) or f(x),
                                  0.0, 2.0, spec)
    assert last == 1 and len(first_rule) == 21
    called = []
    got = run_quad_outcome(lambda x: called.append(x) or f(x), 0.0, 2.0, spec)
    assert got == expected
    assert called == first_rule
    assert expected[1] == ("-0.0" if family == "negative-zero" else "0.0")


def test_complex_zero_is_refused_as_by_quad():
    values = iter([0.0, 0.0, 0j])
    with pytest.raises(TypeError) as got:
        specfun._run_quad(lambda x: next(values, 0.0), 0.0, 1.0,
                          DEFAULT_QUADRATURE)
    values = iter([0.0, 0.0, 0j])
    with pytest.raises(TypeError) as expected:
        quad(lambda x: next(values, 0.0), 0.0, 1.0)
    assert str(got.value) == str(expected.value)


def test_named_import_gives_the_same_qagse(monkeypatch):
    loaded = specfun._qagse()
    named = []
    by_name = importlib.import_module

    def import_module(name):
        named.append(name)
        return by_name(name)

    monkeypatch.setattr(specfun, "_quadpack_file", lambda: None)
    monkeypatch.setattr(specfun.importlib, "import_module", import_module)
    monkeypatch.delitem(sys.modules, specfun._QUADPACK)
    assert specfun._qagse.__wrapped__() is loaded
    assert named == [specfun._QUADPACK]


def test_quadpack_loaded_from_its_file_is_the_module_scipy_imports():
    # in a fresh interpreter, which has not imported scipy.integrate: the
    # extension _qagse loads is registered under its real name
    code = ("import sys\n"
            "from expansionlab import specfun\n"
            "qagse = specfun._qagse()\n"
            "assert 'scipy.integrate' not in sys.modules\n"
            "assert sys.modules[specfun._QUADPACK]._qagse is qagse\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
