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
from expansionlab.gauge import (GaugeFunction, GaugeJumpScenario,
                                PhaseFitScenario, Potentials, box_line_state,
                                electric_field, field_mismatch,
                                free_potentials, gauge_jump_experiment,
                                phase_factored_expansion_test, phase_transform,
                                linear_gauge_function, transform_potentials,
                                velocity_and_momentum, write_observable_csv,
                                zero_gauge_function)
from expansionlab.gauge import _uniform
from expansionlab.propagation import (smooth_ramp, smooth_ramp_dt,
                                      switch_profile)
from expansionlab.scenario import load_scenario

from oracles import box_eigenfunction_dx


def linear_gauge(k):
    """f(t, x) = k x, the momentum-boost gauge function."""
    return GaugeFunction(
        f=lambda t, x: k * x,
        grad_f=lambda t, x: _uniform(k, x),
        dt_f=lambda t, x: 0.0 * x)


def eigenstate_line(n=1, width=1.0):
    amps = np.zeros(n)
    amps[-1] = 1.0
    return box_line_state(width, amps)


def uniform(value):
    """The field equal to value(t) at every time and point."""
    return lambda t, x: np.full(np.broadcast_shapes(np.shape(t), np.shape(x)),
                                value(t))


no_potential = uniform(lambda t: 0.0)


def ramped_potentials(amplitude, tau):
    """A = amplitude ramp(t) along x, Phi = 0."""
    return Potentials(
        lambda t, x: _uniform(amplitude * smooth_ramp(t, tau), x),
        no_potential)


def padded(amps):
    """The same state on twice the nodes (2 n + 16 amplitudes)."""
    return np.concatenate([amps, np.zeros(len(amps) + 16)])


def load_golden(name):
    path = resources.files("expansionlab") / "data" / "golden" / name
    return json.loads(path.read_text())


def test_transform_potentials_shifts_by_gradients():
    pots = Potentials(uniform(lambda t: 0.3), uniform(lambda t: 0.5))
    g = GaugeFunction(
        f=lambda t, x: 2.0 * x - 3.0 * t,
        grad_f=lambda t, x: _uniform(2.0, x),
        dt_f=uniform(lambda t: -3.0))
    out = transform_potentials(pots, g)
    x = np.array([0.4, 0.7])
    assert np.allclose(out.vector(1.0, x), 0.3 + 2.0)
    assert np.allclose(out.scalar(1.0, x), 0.5 + 3.0)


def test_transformed_pair_has_identical_fields():
    tau = 0.4
    pots = ramped_potentials(0.2, tau)
    g = GaugeFunction(
        f=lambda t, x: -0.2 * smooth_ramp(t, tau) * x,
        grad_f=lambda t, x: _uniform(-0.2 * smooth_ramp(t, tau), x),
        dt_f=lambda t, x: -0.2 * smooth_ramp_dt(t, tau) * x)
    pair = transform_potentials(pots, g)
    times = [0.1, 0.2, 0.35]
    points = np.array([0.25, 0.5, 0.75])
    defect, scale = field_mismatch(pots, pair, times, points, 1e-6)
    assert scale > 0.0
    assert defect < 1e-6 * scale


def test_scaled_pair_is_detected_as_different_fields():
    tau = 0.4
    pots = ramped_potentials(0.2, tau)
    scaled = ramped_potentials(0.3, tau)
    times = [0.1, 0.2, 0.35]
    points = np.array([0.25, 0.5, 0.75])
    defect, scale = field_mismatch(pots, scaled, times, points, 1e-6)
    assert defect > 0.1 * scale


def test_field_reconstruction_uniform_vector_potential():
    tau = 0.4
    e = electric_field(ramped_potentials(0.2, tau), 0.2, np.array([0.5]),
                       1e-6)
    assert e[0] == pytest.approx(-0.2 * smooth_ramp_dt(0.2, tau), rel=1e-6)


def test_gauge_function_consistency_defect():
    g = linear_gauge(1.3)
    times = [0.0, 0.5]
    points = np.array([0.3])
    assert g.consistency_defect(times, points) < 1e-8

    broken = GaugeFunction(
        f=lambda t, x: 1.3 * x,
        grad_f=lambda t, x: _uniform(2.6, x),  # wrong on purpose
        dt_f=lambda t, x: 0.0 * x)
    assert broken.consistency_defect(times, points) > 0.1


@pytest.mark.parametrize("kind", ["step", "ramp"])
def test_linear_gauge_function_derivatives_are_consistent(kind):
    # f = a(t) x from the switch profiles, probed on both sides of the step
    # instant and the ramp's end but more than the 1e-5 time step from them
    g = linear_gauge_function(*switch_profile(kind, 0.4, -0.3))
    times = [-0.3, -2e-5, 2e-5, 0.05, 0.2, 0.39, 0.41, 0.8]
    points = np.array([0.2, 0.5, 0.8])
    assert g.consistency_defect(times, points) < 1e-6
    a = -0.3 * (1.0 if kind == "step" else smooth_ramp(0.2, 0.4))
    assert np.array_equal(g.f(0.2, points), a * points)


def test_field_of_uniform_e():
    # A = -t E0 and Phi = -E1 x give E = E0 + E1, so a flipped time or
    # space probe sign shows
    e0, e1 = 0.3, 1.3
    pots = Potentials(lambda t, x: _uniform(-t * e0, x),
                      lambda t, x: -e1 * x + 0.0 * t)
    e = electric_field(pots, 0.3, np.array([0.2, 0.5, 0.8]), 1e-6)
    assert np.allclose(e, e0 + e1, atol=1e-8)


def test_field_probes_match_pointwise_evaluation():
    # the derivative checks evaluate every point in one field call per
    # shift; a batch of points gives the bits each point gives on its own
    pots = transform_potentials(ramped_potentials(0.2, 0.4),
                                oscillating_gauge())
    points = np.array([0.2, 0.5, 0.8])
    batch = electric_field(pots, 0.2, points)
    assert batch.shape == (3,)
    for k in range(3):
        alone = electric_field(pots, 0.2, points[k:k + 1])
        assert alone.shape == (1,)
        assert np.array_equal(alone[0], batch[k])


def oscillating_gauge(error=0.0):
    """f = 0.01 sin(300 x), exact when error = 0; |f'''| reaches 2.7e5."""
    return GaugeFunction(
        f=lambda t, x: 0.01 * np.sin(300.0 * x) + 0.0 * t,
        grad_f=lambda t, x: 3.0 * (1.0 + error) * np.cos(300.0 * x) + 0.0 * t,
        dt_f=lambda t, x: 0.0 * t * x)


def test_consistency_defect_accepts_fast_exact_gauge():
    # the jump experiment's probes and its 1e-6 bound; a plain central
    # difference reads 1.5e-6 here from its O(h^2 f''') truncation error
    times = [s * f * 2e-5 for s in (-1.0, 1.0) for f in (1.0, 0.5, 0.25)]
    points = np.array([0.2, 0.5, 0.8])
    assert oscillating_gauge().consistency_defect(times, points) < 1e-8
    assert oscillating_gauge(1e-4).consistency_defect(times, points) > 1e-6


def test_phase_transform_preserves_density():
    line = eigenstate_line(2)
    out = phase_transform(line, linear_gauge(0.9), 0.0)
    assert np.max(np.abs(np.abs(out.value) - np.abs(line.value))) < 1e-15
    assert np.array_equal(out.x, line.x) and np.array_equal(out.w, line.w)


def test_phase_transform_shifts_momentum_by_hbar_k():
    # e^{ikx} psi boosts <p> by k (hbar = 1)
    line = eigenstate_line(1)
    k = 2.7
    _, before = velocity_and_momentum(line, no_potential, 0.0)
    _, after = velocity_and_momentum(
        phase_transform(line, linear_gauge(k), 0.0), no_potential, 0.0)
    assert before[0] == pytest.approx(0.0, abs=1e-12)
    assert after[0] - before[0] == pytest.approx(k, rel=1e-10)


def test_velocity_real_bound_state_no_potential_is_zero():
    v, _ = velocity_and_momentum(eigenstate_line(3), no_potential, 0.0)
    assert np.max(np.abs(v)) < 1e-12


def test_velocity_shifts_by_minus_average_A():
    # switched-on uniform A: <v> = <p> - A with <psi_s|A|psi_s> = A
    v, _ = velocity_and_momentum(eigenstate_line(1), uniform(lambda t: 0.2),
                                 0.0)
    assert np.allclose(v, [-0.2, 0.0, 0.0], atol=1e-10)


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
    pot = Potentials(lambda t, x: _uniform(a_x, x), no_potential)
    pot_k = transform_potentials(pot, g)

    def observables(coefficients):
        line = box_line_state(1.0, coefficients)
        v, p = velocity_and_momentum(line, pot.vector, 0.0)
        v_k, p_k = velocity_and_momentum(phase_transform(line, g, 0.0),
                                         pot_k.vector, 0.0)
        return np.concatenate([v, p, v_k, p_k])

    coarse = observables(amps)
    fine = observables(padded(amps))
    # round-off grows with the largest momentum the sums carry
    scale = n * math.pi + abs(k) + abs(a_x)
    assert np.max(np.abs(coarse - fine)) < 1e-13 * scale
    v, p, v_k, p_k = coarse.reshape(4, 3)
    assert abs(p_k[0] - p[0] - k) < 1e-13 * scale
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


def test_observable_csv_schema(tmp_path):
    res = gauge_jump_experiment(GaugeJumpScenario(n_slices=20,
                                                  observe_stride=10))
    path = tmp_path / "obs.csv"
    write_observable_csv(path, [res.report_gauge1, res.report_gauge2])
    lines = path.read_text().splitlines()
    assert lines[0] == "t,gauge_label,vx,vy,vz,px,py,pz"
    rows = [line.split(",") for line in lines[1:]]
    assert {row[1] for row in rows} == {"gauge1", "gauge2"}
    assert len(rows) == 2 * res.report_gauge1.times.size
    # a line state has no y or z: vy = vz = -<0> and py = pz = 0, written
    # by construction
    assert {(*row[3:5], *row[6:]) for row in rows} == {
        ("-0.0", "-0.0", "0.0", "0.0")}
    assert res.summary_text().splitlines()[0].endswith(", -0.0, -0.0]")


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
        f=uniform(lambda t: 0.7 * t - 0.3),
        grad_f=no_potential,
        dt_f=uniform(lambda t: 0.7))
    shifted = phase_factored_expansion_test(scn, g)
    assert np.max(np.abs(shifted.residuals - base.residuals)) < 1e-12


def test_phase_fit_driven_matches_frozen_curve():
    golden = load_golden("phase_fit.json")
    scn = PhaseFitScenario()
    strength, tau = 0.8, 0.3
    g = GaugeFunction(
        f=lambda t, x: strength * smooth_ramp(t, tau) * x,
        grad_f=lambda t, x: _uniform(strength * smooth_ramp(t, tau), x),
        dt_f=lambda t, x: strength * smooth_ramp_dt(t, tau) * x)
    report = phase_factored_expansion_test(scn, g)
    assert list(report.fit_sizes) == golden["fit_sizes"]
    final = report.final_residuals()
    for got, want in zip(final, golden["residuals"]):
        assert abs(got - want) < golden["curve_tol"]
    # residuals fall monotonically with basis size at the final time
    assert all(a > b for a, b in zip(final, final[1:]))


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
    x = np.array([0.3, 0.5])
    assert np.max(np.abs(pots.vector(1.0, x))) == 0.0
    assert np.max(np.abs(pots.scalar(1.0, x))) == 0.0


def nonuniform_gauge():
    """f = t x^2: grad f and df/dt differ between points and times."""
    return GaugeFunction(f=lambda t, x: t * x * x,
                         grad_f=lambda t, x: 2.0 * t * x,
                         dt_f=lambda t, x: x * x + 0.0 * t)


def bundled_fields():
    """(label, field) of every field the package builds."""
    fields = []

    def add(label, pots=None, g=None):
        if pots is not None:
            fields.extend([(f"{label}.vector", pots.vector),
                           (f"{label}.scalar", pots.scalar)])
        if g is not None:
            fields.extend([(f"{label}.f", g.f), (f"{label}.grad_f", g.grad_f),
                           (f"{label}.dt_f", g.dt_f)])

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
@pytest.mark.parametrize("label,fld", BUNDLED_FIELDS,
                         ids=[f[0] for f in BUNDLED_FIELDS])
def test_field_contract_shapes(label, fld, n_points):
    x = np.random.default_rng(n_points).uniform(0.1, 0.9, n_points)
    out = fld(0.2, x)
    assert np.shape(out) == (n_points,)
    per_point = [fld(0.2, x[i:i + 1]) for i in range(n_points)]
    assert same_bits(out, np.concatenate(per_point))
    # a column of times gives, in one call, the bits of each time alone
    batch = fld(CONTRACT_TIMES[:, None], x)
    assert batch.shape == (CONTRACT_TIMES.size, n_points)
    per_time = np.stack([fld(float(t), x) for t in CONTRACT_TIMES])
    assert same_bits(batch, per_time)


def test_derivative_checks_match_a_per_time_loop():
    # the checks sample every time in one call per difference step; each
    # time checked alone gives the same defect and scale, bit for bit
    points = np.array([0.2, 0.5, 0.8])
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
    phase = np.exp(1j * g.f(t, x))
    value, dx = phase * value, phase * (1j * g.grad_f(t, x) * value + dx)
    density = np.abs(value) ** 2
    p_density = (value.conjugate() * (-1j * dx)).real
    return np.array([w @ (p_density - A(t, x) * density), 0.0, 0.0,
                     w @ p_density, 0.0, 0.0])


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
        phase_transform(box_line_state(1.0, amps), g, t), pot.vector, t)
    assert v.shape == p.shape == (len(times), 3)
    want = np.array([observe_oracle(a, s, g, pot.vector)
                     for a, s in zip(amps, times)])
    scale = n * math.pi + abs(amplitude) + 1.0
    assert np.max(np.abs(np.hstack([v, p]) - want)) <= 1e-14 * scale


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
