"""Gauge covariance set, velocity observables, jump and phase-fit experiments."""

import json
import math
from importlib import resources

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from expansionlab.basis import box_eigenfunction
from expansionlab.cli import _KEYS, _experiment, _phase_gauge
from expansionlab.gauge import (GaugeConsistencyError, GaugeFieldMismatchError,
                                GaugeFunction, GaugeJumpScenario, LineState,
                                NormalizationError, PhaseFitScenario,
                                Potentials, box_line_state, electric_field,
                                field_mismatch, free_potentials,
                                gauge_jump_experiment, magnetic_field,
                                phase_factored_expansion_test, phase_transform,
                                linear_gauge_function, transform_potentials,
                                velocity_and_momentum, write_observable_csv,
                                zero_gauge_function)
from expansionlab.gauge import _along_x, _scalar_shape
from expansionlab.propagation import (Units, smooth_ramp, smooth_ramp_dt,
                                      switch_profile)
from expansionlab.scenario import load_scenario
from expansionlab.specfun import QuadratureError

from oracles import box_eigenfunction_dx

UNITS = Units()


def linear_gauge(k):
    """f(t, r) = k x, the momentum-boost gauge function."""
    return GaugeFunction(
        f=lambda t, r: k * r[0],
        grad_f=lambda t, r: _along_x(k, r),
        dt_f=lambda t, r: 0.0 * r[0])


def eigenstate_line(n=1, width=1.0):
    amps = np.zeros(n)
    amps[-1] = 1.0
    return box_line_state(width, amps)


def no_potential(t, r):
    return np.zeros((3,) + _scalar_shape(t, r))


def uniform_scalar(value):
    """The field equal to value(t) at every point."""
    return lambda t, r: np.full(_scalar_shape(t, r), value(t))


def uniform_vector(a):
    """The constant vector a at every time and point."""
    return lambda t, r: np.multiply.outer(a, np.ones(_scalar_shape(t, r)))


def line_points(*xs):
    """Points (x, 0, 0) as a (3, N) array."""
    r = np.zeros((3, len(xs)))
    r[0] = xs
    return r


def padded(amps):
    """The same state on twice the nodes (2 n + 16 amplitudes)."""
    return np.concatenate([amps, np.zeros(len(amps) + 16)])


def load_golden(name):
    path = resources.files("expansionlab") / "data" / "golden" / name
    return json.loads(path.read_text())


def test_transform_potentials_shifts_by_gradients():
    a0 = np.array([0.3, 0.0, 0.1])
    pots = Potentials(uniform_vector(a0), uniform_scalar(lambda t: 0.5))
    g = GaugeFunction(
        f=lambda t, r: 2.0 * r[0] - 3.0 * t,
        grad_f=lambda t, r: _along_x(2.0, r),
        dt_f=uniform_scalar(lambda t: -3.0))
    out = transform_potentials(pots, g)
    r = line_points(0.4, 0.7)
    assert np.allclose(out.vector(1.0, r),
                       (a0 + np.array([2.0, 0.0, 0.0]))[:, None])
    assert np.allclose(out.scalar(1.0, r), 0.5 + 3.0)


def test_transformed_pair_has_identical_fields():
    tau = 0.4
    pots = Potentials(
        lambda t, r: _along_x(0.2 * smooth_ramp(t, tau), r),
        uniform_scalar(lambda t: 0.0))
    g = GaugeFunction(
        f=lambda t, r: -0.2 * smooth_ramp(t, tau) * r[0],
        grad_f=lambda t, r: _along_x(-0.2 * smooth_ramp(t, tau), r),
        dt_f=lambda t, r: -0.2 * smooth_ramp_dt(t, tau) * r[0])
    pair = transform_potentials(pots, g)
    times = [0.1, 0.2, 0.35]
    points = line_points(0.25, 0.5, 0.75)
    defect, scale = field_mismatch(pots, pair, times, points, 1e-6)
    assert scale > 0.0
    assert defect < 1e-6 * scale


def test_scaled_pair_is_detected_as_different_fields():
    tau = 0.4
    pots = Potentials(
        lambda t, r: _along_x(0.2 * smooth_ramp(t, tau), r),
        uniform_scalar(lambda t: 0.0))
    scaled = Potentials(
        lambda t, r: _along_x(0.3 * smooth_ramp(t, tau), r),
        uniform_scalar(lambda t: 0.0))
    times = [0.1, 0.2, 0.35]
    points = line_points(0.25, 0.5, 0.75)
    defect, scale = field_mismatch(pots, scaled, times, points, 1e-6)
    assert defect > 0.1 * scale


def test_field_reconstruction_uniform_vector_potential():
    tau = 0.4
    pots = Potentials(
        lambda t, r: _along_x(0.2 * smooth_ramp(t, tau), r),
        uniform_scalar(lambda t: 0.0))
    r = line_points(0.5)
    e = electric_field(pots, 0.2, r, 1e-6)
    assert e[0, 0] == pytest.approx(-0.2 * smooth_ramp_dt(0.2, tau), rel=1e-6)
    b = magnetic_field(pots, 0.2, r)
    assert np.max(np.abs(b)) < 1e-9


def test_gauge_function_consistency_defect():
    g = linear_gauge(1.3)
    times = [0.0, 0.5]
    points = line_points(0.3)
    assert g.consistency_defect(times, points) < 1e-8

    broken = GaugeFunction(
        f=lambda t, r: 1.3 * r[0],
        grad_f=lambda t, r: _along_x(2.6, r),  # wrong on purpose
        dt_f=lambda t, r: 0.0 * r[0])
    assert broken.consistency_defect(times, points) > 0.1


@pytest.mark.parametrize("kind", ["step", "ramp"])
def test_linear_gauge_function_derivatives_are_consistent(kind):
    # f = a(t) x from the switch profiles, probed on both sides of the step
    # instant and the ramp's end but more than the 1e-5 time step from them
    g = linear_gauge_function(*switch_profile(kind, 0.4, -0.3))
    times = [-0.3, -2e-5, 2e-5, 0.05, 0.2, 0.39, 0.41, 0.8]
    points = np.array([[0.2, 0.5, 0.8], [0.1, 0.0, -0.3], [0.0, 0.4, 0.0]])
    assert g.consistency_defect(times, points) < 1e-6
    a = -0.3 * (1.0 if kind == "step" else smooth_ramp(0.2, 0.4))
    assert np.array_equal(g.f(0.2, points), a * points[0])


def test_fields_of_uniform_e_and_b():
    # A = B x r / 2 - t E0 and Phi = -E1 . r give B and E = E0 + E1 with
    # every component nonzero, so a swapped curl index or probe sign shows
    bv, e0, e1 = np.array([0.7, -0.2, 0.5]), np.array([0.3, -0.4, 0.6]), \
        np.array([1.3, 0.1, -0.8])
    pots = Potentials(
        lambda t, r: 0.5 * np.cross(bv, r, axis=0) - t * e0[:, None],
        lambda t, r: -(e1 @ r))
    points = np.array([[0.2, 0.5, 0.8], [0.1, 0.0, -0.3], [0.0, 0.4, 0.0]])
    b = magnetic_field(pots, 0.3, points)
    e = electric_field(pots, 0.3, points, 1e-6)
    assert np.allclose(b, bv[:, None], atol=1e-8)
    assert np.allclose(e, (e0 + e1)[:, None], atol=1e-8)


def test_field_probes_match_pointwise_evaluation():
    # the derivative checks evaluate every shifted point in one field call;
    # a batch of points gives the bits each point gives on its own
    tau = 0.4
    pots = transform_potentials(
        Potentials(lambda t, r: _along_x(0.2 * smooth_ramp(t, tau), r),
                   uniform_scalar(lambda t: 0.0)),
        oscillating_gauge())
    points = np.array([[0.2, 0.5, 0.8], [0.1, 0.0, -0.3], [0.0, 0.4, 0.0]])
    for field in (electric_field, magnetic_field):
        batch = field(pots, 0.2, points)
        assert batch.shape == (3, 3)
        for k in range(3):
            alone = field(pots, 0.2, points[:, k:k + 1])
            assert alone.shape == (3, 1)
            assert np.array_equal(alone[:, 0], batch[:, k])


def oscillating_gauge(error=0.0):
    """f = 0.01 sin(300 x), exact when error = 0; |f'''| reaches 2.7e5."""
    return GaugeFunction(
        f=lambda t, r: 0.01 * np.sin(300.0 * r[0]) + 0.0 * t,
        grad_f=lambda t, r: _along_x(3.0 * (1.0 + error)
                                     * np.cos(300.0 * r[0]) + 0.0 * t, r),
        dt_f=lambda t, r: 0.0 * t * r[0])


def test_consistency_defect_accepts_fast_exact_gauge():
    # the jump experiment's probes and its 1e-6 bound; a plain central
    # difference reads 1.5e-6 here from its O(h^2 f''') truncation error
    times = [s * f * 2e-5 for s in (-1.0, 1.0) for f in (1.0, 0.5, 0.25)]
    points = line_points(0.2, 0.5, 0.8)
    assert oscillating_gauge().consistency_defect(times, points) < 1e-8
    assert oscillating_gauge(1e-4).consistency_defect(times, points) > 1e-6


def test_jump_consistency_check_passes_fast_exact_gauge(monkeypatch):
    # accepted by the consistency check, the exact gauge then fails only the
    # node-doubling guard, which 80 nodes cannot satisfy at 300 x
    monkeypatch.setattr(GaugeJumpScenario, "gauge_function",
                        lambda self: oscillating_gauge())
    with pytest.raises(QuadratureError):
        gauge_jump_experiment(GaugeJumpScenario(n_slices=20,
                                                observe_stride=10))
    monkeypatch.setattr(GaugeJumpScenario, "gauge_function",
                        lambda self: oscillating_gauge(1e-4))
    with pytest.raises(GaugeConsistencyError):
        gauge_jump_experiment(GaugeJumpScenario(n_slices=20,
                                                observe_stride=10))


def test_phase_transform_preserves_density():
    line = eigenstate_line(2)
    out = phase_transform(line, linear_gauge(0.9), 0.0)
    assert np.max(np.abs(np.abs(out.value) - np.abs(line.value))) < 1e-15
    assert np.array_equal(out.x, line.x) and np.array_equal(out.w, line.w)


def test_phase_transform_shifts_momentum_by_hbar_k():
    # e^{ikx} psi boosts <p> by hbar k
    line = eigenstate_line(1)
    k = 2.7
    _, before = velocity_and_momentum(line, no_potential, 0.0, UNITS)
    _, after = velocity_and_momentum(
        phase_transform(line, linear_gauge(k), 0.0), no_potential, 0.0, UNITS)
    assert before[0] == pytest.approx(0.0, abs=1e-12)
    assert after[0] - before[0] == pytest.approx(k * UNITS.hbar, rel=1e-10)

    h2 = Units(2.0)
    _, after2 = velocity_and_momentum(
        phase_transform(line, linear_gauge(k), 0.0), no_potential, 0.0, h2)
    assert after2[0] == pytest.approx(k * h2.hbar, rel=1e-10)


def test_velocity_real_bound_state_no_potential_is_zero():
    v, _ = velocity_and_momentum(eigenstate_line(3), no_potential, 0.0, UNITS)
    assert np.max(np.abs(v)) < 1e-12


def test_velocity_shifts_by_minus_average_A():
    # switched-on uniform A: <v> = <p> - A with <psi_s|A|psi_s> = A
    a0 = np.array([0.2, -0.1, 0.05])
    v, _ = velocity_and_momentum(eigenstate_line(1), uniform_vector(a0), 0.0,
                                 UNITS)
    assert np.allclose(v, -a0, atol=1e-10)


def test_velocity_rejects_unnormalized_state():
    line = eigenstate_line(1)
    doubled = LineState(line.x, line.w, 2.0 * line.value, 2.0 * line.dx)
    with pytest.raises(NormalizationError) as excinfo:
        velocity_and_momentum(doubled, no_potential, 0.0, UNITS)
    assert excinfo.value.measured_norm == pytest.approx(4.0, rel=1e-10)
    assert str(excinfo.value).startswith("state norm 4.0")


def test_state_norm_of_eigenstate():
    line = eigenstate_line(4)
    assert line.w @ np.abs(line.value) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_box_line_state_matches_eigenfunction():
    width = 1.7
    amps = np.array([0.0, 0.6, 0.0, -0.8j])
    line = box_line_state(width, amps)
    assert line.x.size == 2 * amps.size + 32
    assert np.all((line.x > 0.0) & (line.x < width))
    assert np.sum(line.w) == pytest.approx(width, rel=1e-14)
    for x, value, dx in zip(line.x, line.value, line.dx):
        want = 0.6 * box_eigenfunction(2, x, width) \
            - 0.8j * box_eigenfunction(4, x, width)
        want_dx = 0.6 * box_eigenfunction_dx(2, x, width) \
            - 0.8j * box_eigenfunction_dx(4, x, width)
        assert abs(value - want) < 1e-14
        assert abs(dx - want_dx) < 1e-12


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 48),
       seed=st.integers(0, 2 ** 32 - 1),
       k=st.floats(-20.0, 20.0),
       a_x=st.floats(-2.0, 2.0))
def test_linear_gauge_boost_and_covariance_on_nodes(n, seed, k, a_x):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    amps /= np.linalg.norm(amps)
    g = linear_gauge(k)
    pot = Potentials(lambda t, r: _along_x(a_x, r),
                     uniform_scalar(lambda t: 0.0))
    pot_k = transform_potentials(pot, g)

    def observables(coefficients):
        line = box_line_state(1.0, coefficients)
        v, p = velocity_and_momentum(line, pot.vector, 0.0, UNITS)
        v_k, p_k = velocity_and_momentum(phase_transform(line, g, 0.0),
                                         pot_k.vector, 0.0, UNITS)
        return np.concatenate([v, p, v_k, p_k])

    coarse = observables(amps)
    fine = observables(padded(amps))
    # round-off grows with the largest momentum the sums carry
    scale = UNITS.hbar * (n * math.pi + abs(k)) + abs(a_x)
    assert np.max(np.abs(coarse - fine)) < 1e-13 * scale
    v, p, v_k, p_k = coarse.reshape(4, 3)
    assert abs(p_k[0] - p[0] - UNITS.hbar * k) < 1e-13 * scale
    assert np.max(np.abs(v_k - v)) < 1e-12


def test_jump_zero_disturbance():
    res = gauge_jump_experiment(GaugeJumpScenario(amplitude=0.0, n_slices=20,
                                                  observe_stride=5))
    assert res.report_gauge1.jump_metric < 1e-12
    assert float(np.max(res.naive_discrepancy)) < 1e-12
    assert float(np.max(res.covariant_discrepancy)) < 1e-12


def test_jump_identity_gauge_control_is_exact():
    res = gauge_jump_experiment(GaugeJumpScenario(second_gauge="identity",
                                                  n_slices=20,
                                                  observe_stride=5))
    assert float(np.max(res.naive_discrepancy)) == 0.0
    assert float(np.max(res.covariant_discrepancy)) == 0.0


def test_jump_step_switched_amplitude():
    scn = GaugeJumpScenario()
    res = gauge_jump_experiment(scn)
    # the velocity jump equals the step amplitude: the prompt-response claim
    assert abs(res.report_gauge1.jump_metric - scn.amplitude) < 1e-8
    assert abs(res.report_gauge2.jump_metric - scn.amplitude) < 1e-8
    assert np.allclose(res.pre_switch_velocity, 0.0, atol=1e-12)
    # untransformed state: discrepancy = |<grad f>| = A(t) once switched on
    assert float(np.max(res.naive_discrepancy)) == pytest.approx(
        scn.amplitude, abs=1e-8)
    # full covariance: algebraic cancellation
    assert float(np.max(res.covariant_discrepancy)) < 1e-10


def test_jump_smooth_switch_is_gentle():
    scn = GaugeJumpScenario(switch="ramp", ramp_time=0.4, t_end=1.0,
                            n_slices=200)
    res = gauge_jump_experiment(scn)
    # one slice into a sin^2 ramp the drive is still ~(dt/tau)^2
    assert res.report_gauge1.jump_metric < 1e-3 * scn.amplitude
    assert float(np.max(res.covariant_discrepancy)) < 1e-10


def test_jump_mismatched_fields_rejected():
    scn = GaugeJumpScenario(switch="ramp", ramp_time=0.4, t_end=1.0,
                            second_gauge="mismatched", mismatch_factor=1.5)
    with pytest.raises(GaugeFieldMismatchError) as excinfo:
        gauge_jump_experiment(scn)
    assert excinfo.value.defect > 0.0


def test_jump_inconsistent_gauge_function_rejected(monkeypatch):
    scn = GaugeJumpScenario()
    broken = GaugeFunction(
        f=lambda t, r: -scn.amplitude * r[0],
        grad_f=lambda t, r: _along_x(scn.amplitude, r),  # sign flip
        dt_f=lambda t, r: 0.0 * r[0])
    monkeypatch.setattr(GaugeJumpScenario, "gauge_function",
                        lambda self: broken)
    with pytest.raises(GaugeConsistencyError):
        gauge_jump_experiment(scn)


@pytest.mark.parametrize("ramp_time", [0.25, 0.5, 1.0])
def test_jump_ramp_ending_on_a_probe_time_is_accepted(ramp_time):
    # the consistency probes sit at +-{0.25, 0.5, 1} t_end; a ramp that ends
    # on one of them must not fail the analytic gauge function
    scn = GaugeJumpScenario(switch="ramp", ramp_time=ramp_time, t_end=1.0,
                            n_slices=40, observe_stride=10)
    assert any(abs(t - ramp_time) < 1e-12
               for t in (0.25 * scn.t_end, 0.5 * scn.t_end, scn.t_end))
    res = gauge_jump_experiment(scn)
    assert res.gauge_consistency_defect < 1e-6
    assert float(np.max(res.covariant_discrepancy)) < 1e-10


def test_jump_node_doubling_flags_unresolved_gauge(monkeypatch):
    # a time-independent gauge leaves E and B alone and its derivatives are
    # consistent, but 80 nodes cannot resolve grad f = 0.3 cos(300 x)
    wiggle = GaugeFunction(
        f=lambda t, r: 0.001 * np.sin(300.0 * r[0]) + 0.0 * t,
        grad_f=lambda t, r: _along_x(0.3 * np.cos(300.0 * r[0]) + 0.0 * t, r),
        dt_f=lambda t, r: 0.0 * t * r[0])
    monkeypatch.setattr(GaugeJumpScenario, "gauge_function",
                        lambda self: wiggle)
    with pytest.raises(QuadratureError) as excinfo:
        gauge_jump_experiment(GaugeJumpScenario(n_slices=20,
                                                observe_stride=10))
    assert excinfo.value.error_estimate > 1e-12
    assert "doubled" in str(excinfo.value)


def test_observable_csv_schema(tmp_path):
    res = gauge_jump_experiment(GaugeJumpScenario(n_slices=20,
                                                  observe_stride=10))
    path = tmp_path / "obs.csv"
    write_observable_csv(path, [res.report_gauge1, res.report_gauge2])
    lines = path.read_text().splitlines()
    assert lines[0] == "t,gauge_label,vx,vy,vz,px,py,pz"
    labels = {line.split(",")[1] for line in lines[1:]}
    assert labels == {"gauge1", "gauge2"}
    assert len(lines) == 1 + 2 * res.report_gauge1.times.size


def test_phase_fit_stationary_control():
    scn = PhaseFitScenario(amplitude=0.0, n_slices=200, fit_sizes=(2, 4, 8),
                           fit_stride=50)
    report = phase_factored_expansion_test(scn, zero_gauge_function())
    assert float(np.max(report.residuals)) < 1e-10


def test_phase_fit_global_phase_equals_stationary():
    # a pure time phase is absorbed into the coefficients; residuals match
    # the f = 0 run to round-off
    scn = PhaseFitScenario(amplitude=0.0, n_slices=200, fit_sizes=(2, 4, 8),
                           fit_stride=50)
    base = phase_factored_expansion_test(scn, zero_gauge_function())
    g = GaugeFunction(
        f=uniform_scalar(lambda t: 0.7 * t - 0.3),
        grad_f=no_potential,
        dt_f=uniform_scalar(lambda t: 0.7))
    shifted = phase_factored_expansion_test(scn, g)
    assert np.max(np.abs(shifted.residuals - base.residuals)) < 1e-12


def test_phase_fit_driven_matches_frozen_curve():
    golden = load_golden("phase_fit.json")
    scn = PhaseFitScenario()
    strength, tau = 0.8, 0.3
    g = GaugeFunction(
        f=lambda t, r: strength * smooth_ramp(t, tau) * r[0],
        grad_f=lambda t, r: _along_x(strength * smooth_ramp(t, tau), r),
        dt_f=lambda t, r: strength * smooth_ramp_dt(t, tau) * r[0])
    report = phase_factored_expansion_test(scn, g)
    assert list(report.fit_sizes) == golden["fit_sizes"]
    final = report.final_residuals()
    for got, want in zip(final, golden["residuals"]):
        assert abs(got - want) < golden["curve_tol"]
    # residuals fall monotonically with basis size at the final time
    assert all(a > b for a, b in zip(final, final[1:]))


def test_phase_fit_reference_must_cover_fit_sizes():
    with pytest.raises(ValueError, match="n_reference must cover the "
                       "largest fit size, 32, got 16"):
        PhaseFitScenario(n_reference=16, fit_sizes=(2, 4, 32), n_slices=100)


def test_phase_fit_report_text_and_csv(tmp_path):
    scn = PhaseFitScenario(amplitude=0.0, n_slices=100, fit_sizes=(2, 4),
                           fit_stride=50)
    report = phase_factored_expansion_test(scn, zero_gauge_function())
    text = report.to_text()
    assert "residual" in text
    path = tmp_path / "residuals.csv"
    report.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("basis_size,residual_t")
    assert len(lines) == 1 + len(report.fit_sizes)


def test_phase_fit_report_text_prints_plain_floats():
    # every residual line reads `int float`, whatever the numpy version's
    # repr of its own scalars
    scn = PhaseFitScenario(amplitude=0.0, n_slices=100, fit_sizes=(2, 4),
                           fit_stride=50)
    report = phase_factored_expansion_test(scn, zero_gauge_function())
    rows = [line.split() for line in report.to_text().splitlines()[1:-1]]
    assert [int(n) for n, _ in rows] == list(report.fit_sizes)
    assert [float(r) for _, r in rows] == report.final_residuals().tolist()


def test_free_potentials_are_zero():
    pots = free_potentials()
    r = np.array([[0.3, 0.5], [0.1, 0.0], [-0.2, 0.4]])
    assert np.max(np.abs(pots.vector(1.0, r))) == 0.0
    assert np.max(np.abs(pots.scalar(1.0, r))) == 0.0


def nonuniform_gauge():
    """f = x y + t z: every component of grad f differs between points."""
    return GaugeFunction(f=lambda t, r: r[0] * r[1] + t * r[2],
                         grad_f=lambda t, r: np.stack([r[1] + 0.0 * t,
                                                       r[0] + 0.0 * t,
                                                       t + 0.0 * r[2]]),
                         dt_f=lambda t, r: r[2] + 0.0 * t)


def bundled_fields():
    """(label, field, is_vector) of every field the package builds."""
    fields = []

    def add(label, pots=None, g=None):
        if pots is not None:
            fields.extend([(f"{label}.vector", pots.vector, True),
                           (f"{label}.scalar", pots.scalar, False)])
        if g is not None:
            fields.extend([(f"{label}.f", g.f, False),
                           (f"{label}.grad_f", g.grad_f, True),
                           (f"{label}.dt_f", g.dt_f, False)])

    for switch in ("step", "ramp"):
        for second in ("transformed", "identity", "mismatched"):
            scn = GaugeJumpScenario(switch=switch, second_gauge=second,
                                    ramp_time=0.4, t_end=1.0)
            add(f"{switch}-{second}", pots=scn.second_potentials())
        add(f"{switch}-drive", pots=scn.drive_potentials(),
            g=scn.gauge_function())
    add("zero", g=zero_gauge_function())
    add("free", pots=free_potentials())
    add("transformed-nonuniform",
        pots=transform_potentials(free_potentials(), nonuniform_gauge()))
    scn = load_scenario(resources.files("expansionlab") / "data"
                        / "scenarios" / "phase_fit.scn")
    add("phase-fit", g=_phase_gauge(scn.read(_KEYS)))
    return fields


BUNDLED_FIELDS = bundled_fields()


def contract_times():
    """0, -0.0, each bundled ramp time with its neighbouring floats, and
    random times on both sides of the switch."""
    tau_fit = load_scenario(resources.files("expansionlab") / "data"
                            / "scenarios" / "phase_fit.scn"
                            ).read(_KEYS)["phase_ramp_time"]
    times = [0.0, -0.0]
    for tau in (0.4, tau_fit):
        times += [np.nextafter(tau, -1.0), tau, np.nextafter(tau, 2.0)]
    times += list(np.random.default_rng(11).uniform(-0.5, 1.5, 8))
    return np.array(times)


CONTRACT_TIMES = contract_times()


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n_points", [1, 3, 5])
@pytest.mark.parametrize("label,fld,is_vector", BUNDLED_FIELDS,
                         ids=[f[0] for f in BUNDLED_FIELDS])
def test_field_contract_shapes(label, fld, is_vector, n_points):
    # distinct coordinates everywhere, so a field that mixes up the point
    # axis and the coordinate axis cannot pass at N = 3
    r = np.random.default_rng(n_points).uniform(0.1, 0.9, (3, n_points))
    lead = (3,) if is_vector else ()
    out = fld(0.2, r)
    assert np.shape(out) == lead + (n_points,)
    per_point = [fld(0.2, r[:, i:i + 1]) for i in range(n_points)]
    assert same_bits(out, np.concatenate(per_point, axis=-1))
    # a column of times gives, in one call, the bits of each time alone
    batch = fld(CONTRACT_TIMES[:, None], r)
    assert batch.shape == lead + (CONTRACT_TIMES.size, n_points)
    per_time = np.stack([fld(float(t), r) for t in CONTRACT_TIMES], axis=-2)
    assert same_bits(batch, per_time)


def test_derivative_checks_match_a_per_time_loop():
    # the checks sample every time in one call per difference step; each
    # time checked alone gives the same defect and scale, bit for bit
    points = np.array([[0.2, 0.5, 0.8], [0.1, 0.0, -0.3], [0.0, 0.4, 0.0]])
    times = [-0.5, -2e-5, 0.0, 2e-5, 0.1, 0.39, 0.41, 1.3]
    for switch in ("step", "ramp"):
        scn = GaugeJumpScenario(switch=switch, ramp_time=0.4, t_end=1.0,
                                second_gauge="mismatched")
        for g in (scn.gauge_function(), nonuniform_gauge(),
                  oscillating_gauge(1e-3)):
            assert g.consistency_defect(times, points) == max(
                g.consistency_defect([t], points) for t in times)
        pairs = [(scn.drive_potentials(), scn.second_potentials()),
                 (free_potentials(),
                  transform_potentials(free_potentials(), nonuniform_gauge()))]
        for p1, p2 in pairs:
            looped = [field_mismatch(p1, p2, [t], points, 1e-6)
                      for t in times]
            assert field_mismatch(p1, p2, times, points, 1e-6) == (
                max(d for d, _ in looped), max(s for _, s in looped))


def observe_oracle(amps, t, g, A, width=1.0):
    """v and p of exp(i f) sum a_n psi_n at one time, one sum per component."""
    n = amps.size
    nodes, weights = np.polynomial.legendre.leggauss(2 * n + 32)
    x, w = 0.5 * width * (nodes + 1.0), 0.5 * width * weights
    k = np.arange(1, n + 1) * math.pi / width
    value = amps @ (math.sqrt(2.0 / width) * np.sin(np.outer(k, x)))
    dx = (k * amps) @ (math.sqrt(2.0 / width) * np.cos(np.outer(k, x)))
    r = np.stack([x, 0.0 * x, 0.0 * x])
    phase = np.exp(1j * g.f(t, r))
    value, dx = phase * value, phase * (1j * g.grad_f(t, r)[0] * value + dx)
    density = np.abs(value) ** 2
    p_density = (value.conjugate() * (-1j * UNITS.hbar * dx)).real
    a = A(t, r)
    return np.array([w @ (p_density - a[0] * density), -w @ (a[1] * density),
                     -w @ (a[2] * density), w @ p_density, 0.0, 0.0])


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 32),
       seed=st.integers(0, 2 ** 32 - 1),
       times=st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=8),
       amplitude=st.floats(-3.0, 3.0))
def test_batched_observables_match_per_time_oracle(n, seed, times,
                                                   amplitude):
    scn = GaugeJumpScenario(switch="ramp", ramp_time=0.4, t_end=1.0,
                            amplitude=amplitude, n_basis=n)
    g, pot = scn.gauge_function(), scn.second_potentials()
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((len(times), n)) \
        + 1j * rng.standard_normal((len(times), n))
    amps /= np.linalg.norm(amps, axis=1)[:, None]
    t = np.array(times)
    v, p = velocity_and_momentum(
        phase_transform(box_line_state(1.0, amps), g, t), pot.vector, t,
        UNITS)
    assert v.shape == p.shape == (len(times), 3)
    want = np.array([observe_oracle(a, s, g, pot.vector)
                     for a, s in zip(amps, times)])
    scale = UNITS.hbar * n * math.pi + abs(amplitude) + 1.0
    assert np.max(np.abs(np.hstack([v, p]) - want)) <= 1e-14 * scale


def test_batched_observables_check_every_row_norm():
    amps = np.zeros((3, 4), dtype=complex)
    amps[:, 0] = 1.0
    amps[1, 0] = 1.5
    with pytest.raises(NormalizationError) as excinfo:
        velocity_and_momentum(box_line_state(1.0, amps), no_potential,
                              np.zeros(3), UNITS)
    assert excinfo.value.measured_norm == pytest.approx(2.25, rel=1e-12)


def reference_observable_csv(reports):
    """The per-value formatter the CSV writer must match byte for byte."""
    lines = ["t,gauge_label,vx,vy,vz,px,py,pz\n"]
    for rep in reports:
        for i, t in enumerate(rep.times):
            row = [repr(float(t)), rep.gauge_label]
            row += [repr(float(v)) for v in rep.v_series[i]]
            row += [repr(float(v)) for v in rep.p_series[i]]
            lines.append(",".join(row) + "\n")
    return "".join(lines).encode("utf-8")


def test_observable_csv_bytes_match_reference_formatter(tmp_path):
    scn = load_scenario(resources.files("expansionlab") / "data"
                        / "scenarios" / "gauge_step.scn")
    res = gauge_jump_experiment(_experiment(GaugeJumpScenario,
                                            scn.read(_KEYS)))
    reports = [res.report_gauge1, res.report_gauge2]
    path = tmp_path / "observables.csv"
    write_observable_csv(path, reports)
    assert path.read_bytes() == reference_observable_csv(reports)


@pytest.mark.parametrize("make,message", [
    (lambda: GaugeJumpScenario(n_basis=4, initial_index=0),
     r"initial_index must lie in 1\.\.n_basis = 4, got 0"),
    (lambda: GaugeJumpScenario(n_basis=4, initial_index=5),
     r"initial_index must lie in 1\.\.n_basis = 4, got 5"),
    (lambda: PhaseFitScenario(fit_sizes=(2, 4), n_reference=4,
                              initial_index=3),
     r"initial_index must lie in 1\.\.fit_sizes\[0\] = 2, got 3"),
    # the plateau verdict compares the last two sizes: one size, or sizes
    # out of order, never reach it
    (lambda: PhaseFitScenario(fit_sizes=(4,), n_reference=8),
     r"fit_sizes needs at least two increasing sizes for the plateau "
     r"verdict, got \[4\]"),
    (lambda: PhaseFitScenario(fit_sizes=(48, 2), n_reference=48),
     r"fit_sizes needs at least two increasing sizes for the plateau "
     r"verdict, got \[48, 2\]"),
], ids=["jump-index-zero", "jump-index-past-basis", "fit-index-past-basis",
        "fit-sizes-single", "fit-sizes-unsorted"])
def test_experiment_argument_checks(make, message):
    with pytest.raises(ValueError, match=message):
        make()
