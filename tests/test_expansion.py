"""Projection, Parseval diagnostics, and the Landau/plane-wave incompatibility."""

import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expansionlab.basis import (SpacePoint, box_eigenfunction,
                                landau_eigenfunction)
from expansionlab import expansion
from expansionlab.cli import _KEYS, cmd_expand
from expansionlab.expansion import (FLAG_NO_CONVERGENCE, FLAG_OK,
                                    CoefficientSeries, convergence_scan,
                                    landau_plane_wave_coefficient,
                                    landau_plane_wave_overlap,
                                    landau_plane_wave_overlaps,
                                    parseval_defect, project, reconstruct,
                                    write_coefficient_csv)
from expansionlab.scenario import load_scenario
from expansionlab.specfun import (QuadratureError, QuadratureSpec,
                                  integrate_interval)

SCENARIOS = Path(resources.files("expansionlab") / "data" / "scenarios")

# frozen by the pre-build oracle run: quadrature values of the radial
# overlap for a = 1 match 2 (-1)^n to a few 1e-15
GOLDEN_OVERLAP_ABS = 2.0
GOLDEN_GAUSSIAN_PARSEVAL = 5.966338534335591e-13
GOLDEN_GAUSSIAN_ROUNDTRIP = 8.851798272408639e-6
GOLDEN_GAUSSIAN_NORM_CONST = 2.375267529245124


def gaussian_target(width=1.0, sigma=0.1, center=0.5):
    const = GOLDEN_GAUSSIAN_NORM_CONST

    def target(x):
        return complex(const * math.exp(-0.5 * ((x - center) / sigma) ** 2))

    return target


def test_landau_plane_wave_coefficient_base_case():
    # n = 0: int_0^inf e^{-rho^2/4} rho d rho = 2
    assert landau_plane_wave_coefficient(0, 1.0) == pytest.approx(2.0,
                                                                  rel=1e-14)
    assert landau_plane_wave_coefficient(0, 2.0) == pytest.approx(8.0,
                                                                  rel=1e-14)


def test_landau_plane_wave_coefficient_closed_form():
    for a in (0.5, 1.0, 1.7):
        for n in range(0, 25):
            assert landau_plane_wave_coefficient(n, a) == pytest.approx(
                2.0 * a * a * (-1.0) ** n, rel=1e-13)


def test_magnitude_recurrence_quadrature_route():
    # |C_{n+1}| / |C_n| = 1 within 1e-9 on the independently-integrated route
    vals = []
    for n in range(0, 22):
        v, err = landau_plane_wave_overlap(n, 1.0)
        assert abs(abs(v) - GOLDEN_OVERLAP_ABS) < 1e-9
        assert err < 1e-8
        vals.append(v)
    for lo, hi in zip(vals, vals[1:]):
        assert abs(abs(hi) / abs(lo) - 1.0) < 1e-9


def test_sign_pattern_reported_by_both_routes():
    # both routes alternate in n; pinned without deciding the convention
    # (read through the module, so that a patched closed form is seen)
    for n in range(0, 12):
        closed = expansion.landau_plane_wave_coefficient(n, 1.0)
        quad, _ = landau_plane_wave_overlap(n, 1.0)
        assert math.copysign(1.0, closed) == (-1.0) ** n
        assert math.copysign(1.0, quad) == (-1.0) ** n


def test_closed_and_quadrature_routes_agree_within_estimates():
    for n in range(0, 21):
        closed = landau_plane_wave_coefficient(n, 1.0)
        quad, err = landau_plane_wave_overlap(n, 1.0)
        assert abs(closed - quad) <= 10.0 * err + 1e-12


def one_n_overlap(n, a, spec):
    """landau_plane_wave_overlap as (value, error, flag), like the tower."""
    try:
        return (*landau_plane_wave_overlap(n, a, spec), FLAG_OK)
    except QuadratureError as exc:
        return exc.best_estimate, exc.error_estimate, FLAG_NO_CONVERGENCE


@pytest.mark.parametrize("a,scale", [(0.7, 1.0), (1.0, 1.0), (1.3, 1.0),
                                     (1.0, 1e-6)])
def test_landau_overlaps_match_one_n_route_bit_for_bit(a, scale):
    # at 1e-6 every n fails to converge: the flags and best estimates must
    # be what the one-n route raises
    spec = QuadratureSpec(upper_cutoff=40.0 * a).scaled(scale)
    tower = landau_plane_wave_overlaps(70, a, spec)
    assert tower == [one_n_overlap(n, a, spec) for n in range(71)]
    assert {flag for _, _, flag in tower} \
        == {FLAG_OK if scale == 1.0 else FLAG_NO_CONVERGENCE}


def test_tower_catches_up_each_node_once(monkeypatch):
    # a node is brought up to the tower's order by floats once, when it is
    # first met; after that only the column step moves it
    met = []
    catch_up = expansion._LaguerreTower.__missing__

    def counted(self, rho):
        met.append((rho, self.n))
        return catch_up(self, rho)

    monkeypatch.setattr(expansion._LaguerreTower, "__missing__", counted)
    landau_plane_wave_overlaps(70, 1.0)
    rhos = [rho for rho, _ in met]
    assert len(rhos) == len(set(rhos))
    assert max(n for _, n in met) > 0   # some nodes join a running tower


def literal_part(f, width, spec):
    """(value, error, flag) of one part, its best estimate if unconverged."""
    try:
        return (*integrate_interval(f, 0.0, width, spec), FLAG_OK)
    except QuadratureError as exc:
        return exc.best_estimate, exc.error_estimate, FLAG_NO_CONVERGENCE


def literal_box_projection(target, width, ns, spec):
    """One QUADPACK call per part per n, the target evaluated at every node.

    Each part keeps its own value or best estimate; either failing flags
    the coefficient.
    """
    out = []
    for n in ns:
        def f(x):
            return box_eigenfunction(n, x, width) * target(x)
        re, re_err, re_flag = literal_part(lambda x: f(x).real, width, spec)
        im, im_err, im_flag = literal_part(lambda x: f(x).imag, width, spec)
        out.append((complex(re, im), math.hypot(re_err, im_err),
                    re_flag or im_flag))
    return out


@pytest.mark.parametrize("target,width,spec", [
    (gaussian_target(), 1.0, QuadratureSpec()),
    (lambda x: complex(box_eigenfunction(4, x, 1.3)), 1.3, QuadratureSpec()),
    (gaussian_target(), 1.0, QuadratureSpec(max_subdivisions=1)),
], ids=["gaussian", "eigenstate", "gaussian-starved"])
def test_project_box_matches_literal_quadrature_loop(target, width, spec):
    ns = range(1, 51)
    series = project(target, width, 50, spec)
    assert [(c, err, flag) for _, c, err, flag in series.entries] \
        == literal_box_projection(target, width, ns, spec)


def repr_entries(entries):
    # repr tells -0.0 from 0.0, as the CSV does; == would not
    return [(repr(c), repr(err), flag) for c, err, flag in entries]


@settings(max_examples=30, deadline=None)
@given(width=st.floats(0.2, 5.0), sigma=st.floats(0.04, 0.3),
       center=st.floats(0.2, 0.8), wave=st.floats(-40.0, 40.0),
       tilt=st.floats(0.1, 2.0), imaginary=st.booleans(),
       spec=st.sampled_from([QuadratureSpec(),
                             QuadratureSpec(max_subdivisions=2)]))
def test_project_box_is_the_literal_route_in_repr(width, sigma, center, wave,
                                                   tilt, imaginary, spec):
    # a Gaussian packet in width units, real or with a non-zero imaginary
    # part; the starved spec flags some coefficients in one part or both
    def target(x):
        s = (x / width - center) / sigma
        z = complex(math.exp(-0.5 * s * s))
        if imaginary:
            z *= complex(math.cos(wave * x), math.sin(wave * x) + tilt)
        return z

    ns = range(1, 13)
    series = project(target, width, 12, spec)
    assert repr_entries([e[1:] for e in series.entries]) \
        == repr_entries(literal_box_projection(target, width, ns, spec))


def test_unconverged_imaginary_part_keeps_the_real_part():
    # sqrt(2) sin(pi x) projects to 1 on n = 1; i sin(400 x) cannot converge
    # on two subintervals, and its best estimate must not replace the real
    # part
    def target(x):
        return complex(math.sqrt(2.0) * math.sin(math.pi * x),
                       math.sin(400.0 * x))

    spec = QuadratureSpec(max_subdivisions=2)
    [(_, c, err, flag)] = project(target, 1.0, 1, spec).entries
    assert flag == FLAG_NO_CONVERGENCE
    assert c.real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(QuadratureError) as exc:
        integrate_interval(
            lambda x: box_eigenfunction(1, x, 1.0) * math.sin(400.0 * x),
            0.0, 1.0, spec)
    assert c.imag == exc.value.best_estimate
    assert err >= exc.value.error_estimate


def test_project_box_evaluates_target_once_per_node():
    calls = []

    def target(x):
        calls.append(x)
        return gaussian_target()(x)

    project(target, 1.0, 50, QuadratureSpec())
    assert len(calls) == len(set(calls))


def test_project_box_eigenstate_is_delta():
    target = lambda x: complex(box_eigenfunction(1, x, 1.0))
    series = project(target, 1.0, 5, QuadratureSpec())
    coef = {n: c for n, c, _, _ in series.entries}
    assert abs(coef[1] - 1.0) < 1e-12
    assert parseval_defect(series) < 1e-12


def test_gaussian_packet_parseval_defect_matches_golden():
    series = project(gaussian_target(), 1.0, 50, QuadratureSpec())
    defect = parseval_defect(series)
    assert defect < 1e-6
    assert defect == pytest.approx(GOLDEN_GAUSSIAN_PARSEVAL, abs=1e-13)


def test_gaussian_packet_round_trip_error_matches_golden():
    target = gaussian_target()
    series = project(target, 1.0, 50, QuadratureSpec())
    xs = np.linspace(0.0, 1.0, 201)
    worst = max(abs(reconstruct(series, lambda n: box_eigenfunction(n, x, 1.0))
                    - target(x)) for x in xs)
    assert worst < 1e-5
    assert worst == pytest.approx(GOLDEN_GAUSSIAN_ROUNDTRIP, rel=1e-6)


unit_interval = st.floats(-1.0, 1.0)


@settings(max_examples=25, deadline=None)
@given(alpha=st.tuples(unit_interval, unit_interval),
       beta=st.tuples(unit_interval, unit_interval),
       sigma=st.floats(0.05, 0.3), center=st.floats(0.2, 0.8))
def test_projection_linearity(alpha, beta, sigma, center):
    alpha = complex(*alpha)
    beta = complex(*beta)
    f = lambda x: complex(box_eigenfunction(1, x, 1.0))
    g = gaussian_target(sigma=sigma, center=center)
    combo = lambda x: alpha * f(x) + beta * g(x)
    spec = QuadratureSpec()
    cf = project(f, 1.0, 12, spec).coefficients()
    cg = project(g, 1.0, 12, spec).coefficients()
    cc = project(combo, 1.0, 12, spec).coefficients()
    assert np.max(np.abs(cc - (alpha * cf + beta * cg))) < 1e-10


@pytest.mark.parametrize("name", ["box_gaussian.scn", "box_roundtrip.scn"])
def test_expand_box_round_trip_matches_reconstruct(tmp_path, name):
    scn = load_scenario(SCENARIOS / name)
    _, stats = cmd_expand(scn, tmp_path)
    v = scn.read(_KEYS)
    width = v["width"]
    if v["target"] == "gaussian":
        target = gaussian_target(width, v["sigma"], v["center"])
    else:
        n0 = v["target_n"]
        target = lambda x: complex(box_eigenfunction(n0, x, width))
    series = project(target, width, v["n_max"], QuadratureSpec())
    worst = max(abs(reconstruct(series,
                                lambda n: box_eigenfunction(n, x, width))
                    - target(x))
                for x in np.linspace(0.0, width, 201))
    assert abs(stats["round_trip"] - worst) <= 1e-15


def test_convergence_scan_eigenstate_is_convergent_immediately():
    report = convergence_scan(lambda n: 1.0 if n == 1 else 0.0, 50, n_start=1)
    assert report.verdict == "convergent"
    assert report.first_converged_n is not None
    assert report.first_converged_n <= 2


def test_convergence_scan_constant_magnitude_is_divergent():
    c = 0.7
    report = convergence_scan(lambda n: c * (-1.0) ** n, 200)
    assert report.verdict == "divergent"
    assert report.slope == pytest.approx(c * c, rel=0.05)


def test_convergence_scan_landau_plane_wave_is_divergent():
    report = convergence_scan(lambda n: landau_plane_wave_coefficient(n, 1.0),
                              200)
    assert report.verdict == "divergent"
    assert report.slope == pytest.approx(
        landau_plane_wave_coefficient(0, 1.0) ** 2, rel=0.05)
    assert np.all(np.diff(report.partial_sums) >= 0.0)


def test_convergence_scan_slow_decay_is_inconclusive():
    report = convergence_scan(lambda n: 1.0 / (n + 1.0), 200)
    assert report.verdict == "inconclusive"


def test_reconstruction_gap_at_ten_magnetic_lengths():
    # the incompatibility made concrete: far from the origin
    # the truncated Landau synthesis stays near zero while the plane-wave
    # modulus is constant, and growing N does not close the gap
    a = 1.0
    kz = 0.0
    target_mod = (8.0 * math.pi ** 3) ** -0.5
    point = SpacePoint.cylindrical(10.0 * a, 0.0, 0.0)
    gaps = []
    for n_max in (10, 30, 60):
        series = CoefficientSeries(
            [(n, complex(landau_plane_wave_coefficient(n, a)), 0.0, FLAG_OK)
             for n in range(n_max + 1)])
        val = reconstruct(
            series, lambda n: landau_eigenfunction(n, point, a, 0, kz))
        gaps.append(abs(abs(val) - target_mod) / target_mod)
    # the synthesis oscillates through the target without settling: the gap
    # at the largest truncation is O(1) and no smaller than at the start
    assert gaps[-1] > 0.5
    assert gaps[-1] >= gaps[0]


def test_flagged_coefficients_survive_with_best_estimate():
    starved = QuadratureSpec(max_subdivisions=1)
    target = gaussian_target()
    series = project(target, 1.0, 3, starved)
    assert series.flagged()
    assert any(flag == FLAG_NO_CONVERGENCE for *_, flag in series.entries)
    assert all(np.isfinite(c) for c in series.coefficients())


def test_coefficient_csv_schema(tmp_path):
    series = project(gaussian_target(), 1.0, 5, QuadratureSpec())
    path = tmp_path / "coef.csv"
    write_coefficient_csv(series, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,re,im,abs,abs_sq,partial_sum,quad_err"
    assert len(lines) == 6
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]
    partial = 0.0
    for (_, re, im, mag, abs_sq, partial_sum, _), (_, c, _, _) in zip(
            rows, series.entries):
        assert (re, im) == (c.real, c.imag)
        assert mag == pytest.approx(math.hypot(re, im))
        assert abs_sq == pytest.approx(re ** 2 + im ** 2)
        partial += abs_sq
        assert partial_sum == pytest.approx(partial)


def reference_coefficient_csv(series):
    """The per-value formatter the CSV writer must match byte for byte."""
    lines = ["n,re,im,abs,abs_sq,partial_sum,quad_err\n"]
    partial = 0.0
    for n, c, err, flag in series.entries:
        mag_sq = (c * c.conjugate()).real
        partial += mag_sq
        quad_err = err if flag == FLAG_OK else f"{err!r}:{flag}"
        lines.append(",".join([
            str(n), repr(c.real), repr(c.imag), repr(abs(c)),
            repr(mag_sq), repr(partial),
            quad_err if isinstance(quad_err, str) else repr(quad_err)]) + "\n")
    return "".join(lines).encode("utf-8")


def closed_form_series():
    """The Landau closed-form table as expand builds it: error 0.0, flag ''."""
    return CoefficientSeries(
        [(n, complex(landau_plane_wave_coefficient(n, 1.3)), 0.0, FLAG_OK)
         for n in range(41)])


@pytest.mark.parametrize("build,flagged", [
    (lambda: project(gaussian_target(), 1.0, 20, QuadratureSpec()), False),
    (lambda: project(gaussian_target(), 1.0, 20,
                     QuadratureSpec(max_subdivisions=1)), True),
    (closed_form_series, False),
], ids=["converged", "flagged", "closed-form"])
def test_coefficient_csv_bytes_match_reference_formatter(tmp_path, build,
                                                         flagged):
    series = build()
    assert series.flagged() == flagged
    path = tmp_path / "coefficients.csv"
    write_coefficient_csv(series, path)
    data = path.read_bytes()
    assert data == reference_coefficient_csv(series)
    assert (f":{FLAG_NO_CONVERGENCE}\n".encode() in data) == flagged
