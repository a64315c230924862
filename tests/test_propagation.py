"""Coefficient ODEs, first-order slicing, its norm audit, and the Cayley contrast."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expansionlab import propagation
from expansionlab.gauge import GaugeJumpScenario
from expansionlab.scenario import _CHUNK_LINES
from expansionlab.propagation import (HamiltonianModel,
                                      PropagationContractError, Trajectory,
                                      bohr_frequencies,
                                      box_dipole_model, box_energies,
                                      dipole_matrix_elements_box,
                                      euler_final_norm, euler_propagate,
                                      hard_step,
                                      momentum_matrix_elements_box, norm_audit,
                                      smooth_ramp, smooth_ramp_dt,
                                      unitary_propagate, write_trajectory_csv)
from expansionlab.specfun import QuadratureSpec, integrate_interval

from oracles import rhs

# frozen by the pre-build oracle runs
GOLDEN_TWO_LEVEL_NORM_SQ = 1.0009004050809773      # eps=(0,1), V=0.3, T=10, N=1e4
GOLDEN_TWO_LEVEL_FINAL = (0.6147354234664211 + 0.7565780022513188j,
                          0.21571628612817548 + 0.06369438456416684j)
GOLDEN_BOX_DIPOLE_NORM_SQ = 1.0001912167499039     # 32 states, E0=1, tau=0.5, N=1000
GOLDEN_X12 = -0.18012654869748937                  # = -16 / (9 pi^2), L = 1


def two_level_model(v=0.3, t_end=10.0):
    h1 = np.array([[0.0, v], [v, 0.0]], dtype=complex)
    return HamiltonianModel((0.0, 1.0), [(np.ones_like, h1)], (0.0, t_end))


def pure_state(dim, s=0):
    c = np.zeros(dim, dtype=complex)
    c[s] = 1.0
    return c


def exact_two_level(t, v=0.3):
    """Rotating-frame coefficients from the lab-frame eigendecomposition."""
    h = np.array([[0.0, v], [v, 1.0]], dtype=complex)
    w, u = np.linalg.eigh(h)
    psi = u @ (np.exp(-1j * w * t) * (u.conj().T @ np.array([1.0, 0.0])))
    return psi * np.exp(1j * np.array([0.0, 1.0]) * t)


def test_ramp_profiles():
    tau = 0.5
    assert smooth_ramp(-1.0, tau) == 0.0
    assert smooth_ramp(0.0, tau) == 0.0
    assert smooth_ramp(tau, tau) == 1.0
    assert smooth_ramp(5.0, tau) == 1.0
    assert smooth_ramp(0.25, tau) == pytest.approx(0.5, abs=1e-14)
    h = 1e-6
    fd = (smooth_ramp(0.2 + h, tau) - smooth_ramp(0.2 - h, tau)) / (2 * h)
    assert smooth_ramp_dt(0.2, tau) == pytest.approx(fd, rel=1e-8)
    assert hard_step(-1e-12) == 0.0
    assert hard_step(0.0) == 1.0


def ramp_reference(t, tau):
    if t <= 0.0:
        return 0.0
    if t >= tau:
        return 1.0
    s = math.sin(0.5 * math.pi * t / tau)
    return s * s


def ramp_dt_reference(t, tau):
    if t <= 0.0 or t >= tau:
        return 0.0
    return 0.5 * math.pi / tau * math.sin(math.pi * t / tau)


def step_reference(t, tau):
    return 1.0 if t >= 0.0 else 0.0


@settings(max_examples=60, deadline=None)
@given(tau=st.floats(1e-6, 1e3),
       extra=st.lists(st.floats(-1e4, 1e4), max_size=30))
def test_profiles_match_scalar_references_bit_for_bit(tau, extra):
    # the array forms against the branchy math forms they replace, at the
    # switch instant, around tau and at signed tiny times; the float (0-d)
    # call must give the same bits as the matching array element
    inside = np.nextafter(tau, 0.0)
    t = np.array([0.0, -0.0, 1e-300, -1e-300, tau, inside,
                  np.nextafter(inside, 0.0), 0.5 * tau,
                  np.nextafter(tau, np.inf), 2.0 * tau, -tau] + extra)
    for form, reference in ((smooth_ramp, ramp_reference),
                            (smooth_ramp_dt, ramp_dt_reference),
                            (lambda t, tau: hard_step(t), step_reference)):
        got = form(t, tau)
        assert got.shape == t.shape and got.dtype == np.float64
        want = np.array([reference(x, tau) for x in t.tolist()])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for x, element in zip(t.tolist(), got):
            zero_d = form(x, tau)
            assert np.shape(zero_d) == ()
            assert np.float64(zero_d).view(np.uint64) == \
                element.view(np.uint64)


@pytest.mark.parametrize("kind", ["step", "ramp"])
def test_switch_profile_scales_the_forms(kind):
    t = np.linspace(-0.5, 1.0, 31)
    # a step has no ramp time
    s, ds = propagation.switch_profile(kind, 0.4 if kind == "ramp" else 0.0,
                                       -2.5)
    base = hard_step(t) if kind == "step" else smooth_ramp(t, 0.4)
    rate = 0.0 * t if kind == "step" else smooth_ramp_dt(t, 0.4)
    assert np.array_equal(s(t), -2.5 * base)
    assert np.array_equal(ds(t), -2.5 * rate)
    assert np.shape(s(0.3)) == np.shape(ds(0.3)) == ()


def test_bohr_frequencies_examples():
    m = HamiltonianModel((1.0, 1.0), [], (0.0, 1.0))
    assert np.all(bohr_frequencies(m) == 0.0)
    m = HamiltonianModel((1.0, 3.0), [], (0.0, 1.0))
    w = bohr_frequencies(m)
    assert w[1, 0] == 2.0 and w[0, 1] == -2.0
    rng = np.random.default_rng(3)
    m = HamiltonianModel(rng.standard_normal(6), [], (0.0, 1.0))
    w = bohr_frequencies(m)
    assert np.max(np.abs(w + w.T)) == 0.0


def test_model_window():
    m = two_level_model(t_end=2.0)
    assert np.max(np.abs(m.h1(-0.01))) == 0.0
    assert np.max(np.abs(m.h1(2.01))) == 0.0
    assert np.max(np.abs(m.h1(1.0))) == 0.3
    assert m.hermiticity_defect(1.0) == 0.0


def test_rhs_zero_and_diagonal_cases():
    m = HamiltonianModel((0.0, 1.0), [], (0.0, 1.0))
    assert np.all(rhs(pure_state(2), 0.5, m) == 0.0)

    h = 0.7
    md = HamiltonianModel((0.0, 1.0),
                          [(np.ones_like,
                            np.diag([h, 0.0]).astype(complex))],
                          (0.0, 1.0))
    out = rhs(pure_state(2), 0.5, md)
    assert out[0] == pytest.approx(-1j * h, rel=1e-14)
    assert out[1] == 0.0


def test_rhs_norm_derivative_vanishes_for_hermitian_coupling():
    # d/dt sum |C|^2 = 2 Re<C|dC/dt> = 0 exactly in the rotating frame
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h1 = 0.5 * (raw + raw.conj().T)
    m = HamiltonianModel(rng.standard_normal(4), [(np.ones_like, h1)],
                         (0.0, 1.0))
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c /= np.linalg.norm(c)
    deriv = 2.0 * np.real(np.vdot(c, rhs(c, 0.3, m)))
    assert abs(deriv) < 1e-14


@pytest.mark.parametrize("h,dt", [(0.5, 0.01), (2.0, 0.1), (-1.3, 0.05)])
def test_one_step_diagonal_closed_form(h, dt):
    # one Euler step from a pure state with diagonal real coupling:
    # C_s(t1) = 1 - i h dt, so |C_s|^2 = 1 + (h dt)^2
    m = HamiltonianModel((0.0, 1.0),
                         [(np.ones_like, np.diag([h, 0.0]).astype(complex))],
                         (0.0, dt))
    traj = euler_propagate(pure_state(2), m, 1)
    c1 = traj.states[1, 0]
    assert c1 == pytest.approx(1.0 - 1j * h * dt, abs=1e-14)
    assert abs(traj.norms[1] - (1.0 + (h * dt) ** 2)) < 1e-12


def test_one_step_general_hermitian_closed_form():
    # ||C(t1)||^2 = 1 + dt^2 sum_k |(H1)_ks|^2, equality iff column
    # s vanishes
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h1 = 0.5 * (raw + raw.conj().T)
    dt = 0.02
    m = HamiltonianModel(rng.standard_normal(5), [(np.ones_like, h1)],
                         (0.0, dt))
    traj = euler_propagate(pure_state(5, s=2), m, 1)
    expected = 1.0 + dt ** 2 * float(np.sum(np.abs(h1[:, 2]) ** 2))
    assert abs(traj.norms[1] - expected) < 1e-12

    # zeroed column s: equality holds
    h1z = h1.copy()
    h1z[:, 2] = 0.0
    h1z[2, :] = 0.0
    mz = HamiltonianModel(rng.standard_normal(5), [(np.ones_like, h1z)],
                          (0.0, dt))
    traj = euler_propagate(pure_state(5, s=2), mz, 1)
    assert traj.norms[1] == pytest.approx(1.0, abs=1e-15)


def test_euler_zero_coupling_is_constant():
    m = HamiltonianModel((0.3, 0.9, 2.0), [], (0.0, 1.0))
    traj = euler_propagate(pure_state(3, 1), m, 100)
    assert np.all(traj.states == traj.states[0])
    assert np.all(traj.norms == 1.0)


def test_two_level_euler_matches_frozen_golden():
    traj = euler_propagate(pure_state(2), two_level_model(), 10_000)
    assert traj.norms[-1] == pytest.approx(GOLDEN_TWO_LEVEL_NORM_SQ,
                                           rel=1e-12)
    final = traj.states[-1]
    assert final[0] == pytest.approx(GOLDEN_TWO_LEVEL_FINAL[0], abs=1e-12)
    assert final[1] == pytest.approx(GOLDEN_TWO_LEVEL_FINAL[1], abs=1e-12)


def test_euler_first_order_convergence_to_exact():
    exact = exact_two_level(1.0)
    errs = []
    for n in (400, 800, 1600):
        traj = euler_propagate(pure_state(2), two_level_model(t_end=1.0), n)
        errs.append(float(np.linalg.norm(traj.states[-1] - exact)))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    for order in orders:
        assert 0.9 <= order <= 1.1


def test_unitary_matches_exact_with_second_order_convergence():
    exact = exact_two_level(1.0)
    errs = []
    for n in (100, 200, 400):
        traj = unitary_propagate(pure_state(2), two_level_model(t_end=1.0), n)
        errs.append(float(np.linalg.norm(traj.states[-1] - exact)))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    for order in orders:
        assert 1.9 <= order <= 2.1


def test_unitary_norm_preserved_per_step():
    rng = np.random.default_rng(2)
    raw = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h1 = 0.5 * (raw + raw.conj().T)
    m = HamiltonianModel(rng.standard_normal(6),
                         [(lambda t: np.cos(3.0 * t), h1)], (0.0, 2.0))
    traj = unitary_propagate(pure_state(6), m, 500)
    assert np.max(np.abs(np.diff(traj.norms))) < 1e-12


def cayley_oracle(c0, model, n_slices):
    """Literal Cayley stepping: one linear solve per step at the midpoint."""
    c = np.asarray(c0, dtype=complex)
    t0, t1 = model.window
    dt = (t1 - t0) / n_slices
    omega = bohr_frequencies(model)
    eye = np.eye(model.dim)
    half = 0.5j * dt
    states = [c]
    for i in range(n_slices):
        tm = t0 + dt * i + 0.5 * dt
        m = model.h1(tm) * np.exp(1j * omega * tm)
        c = np.linalg.solve(eye + half * m, c - half * (m @ c))
        states.append(c)
    return np.array(states)


def random_hermitian(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (raw + raw.conj().T)


def test_unitary_matches_solve_oracle_box_dipole():
    m = box_dipole_model(1.0, 32, 1.0, 0.5, (0.0, 1.0), "ramp")
    traj = unitary_propagate(pure_state(32), m, 2000)
    oracle = cayley_oracle(pure_state(32), m, 2000)
    assert np.max(np.abs(traj.states - oracle)) <= 1e-11


def test_unitary_matches_solve_oracle_random_hermitian():
    rng = np.random.default_rng(21)
    m = HamiltonianModel(np.sort(rng.uniform(0.0, 40.0, 16)),
                         [(lambda t: np.sin(2.0 * t),
                           random_hermitian(rng, 16))], (0.0, 3.0))
    c0 = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    c0 /= np.linalg.norm(c0)
    traj = unitary_propagate(c0, m, 1500)
    assert np.max(np.abs(traj.states - cayley_oracle(c0, m, 1500))) <= 1e-11


@pytest.mark.parametrize("switch", ["ramp", "step"])
def test_unitary_matches_solve_oracle_with_identity_term(switch):
    # -A(t) p plus a (A^2/2) I term: the identity term folds into the shift
    scn = GaugeJumpScenario(switch=switch)
    m = scn.hamiltonian()
    c0 = pure_state(scn.n_basis)
    traj = unitary_propagate(c0, m, scn.n_slices)
    oracle = cayley_oracle(c0, m, scn.n_slices)
    assert np.max(np.abs(traj.states - oracle)) <= 1e-11


def test_unitary_non_commuting_terms_match_solve_oracle():
    rng = np.random.default_rng(8)
    a, b = random_hermitian(rng, 6), random_hermitian(rng, 6)
    assert np.max(np.abs(a @ b - b @ a)) > 1e-3
    m = HamiltonianModel(rng.standard_normal(6),
                         [(lambda t: np.cos(3.0 * t), a),
                          (lambda t: t * t, b)], (0.0, 2.0))
    traj = unitary_propagate(pure_state(6, 2), m, 400)
    oracle = cayley_oracle(pure_state(6, 2), m, 400)
    assert np.max(np.abs(traj.states - oracle)) <= 1e-11
    assert np.max(np.abs(np.diff(traj.norms))) < 1e-12


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 12),
       amplitude=st.floats(0.01, 50.0), freq=st.floats(0.0, 20.0),
       n_slices=st.integers(1, 300))
def test_unitary_norm_preserved_per_step_property(seed, dim, amplitude, freq,
                                                  n_slices):
    rng = np.random.default_rng(seed)
    m = HamiltonianModel(rng.uniform(0.0, 100.0, dim),
                         [(lambda t: amplitude * np.cos(freq * t),
                           random_hermitian(rng, dim))], (0.0, 1.0))
    c0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    c0 /= np.linalg.norm(c0)
    traj = unitary_propagate(c0, m, n_slices)
    assert np.max(np.abs(np.diff(traj.norms))) < 1e-12


@pytest.mark.parametrize("tracked", [None, 0, 1, "dim", "dim + 3"])
@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("stepper,terms", [(euler_propagate, 1),
                                           (unitary_propagate, 1),
                                           (unitary_propagate, 2)],
                         ids=["euler", "cayley-eigenbasis", "cayley-solve"])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 7),
       n_slices=st.integers(1, 13))
def test_streamed_rows_match_full_run_property(stepper, terms, rows, tracked,
                                               seed, dim, n_slices):
    # blocks of 1 row (the buffer row that held the previous state is
    # overwritten in place), 2 and 3 rows, so the last block is often
    # partial; two general terms send Cayley to its linear-solve path
    rng = np.random.default_rng(seed)
    m = HamiltonianModel(rng.uniform(0.0, 50.0, dim),
                         [(lambda t, k=k: np.cos((k + 1) * t),
                           random_hermitian(rng, dim)) for k in range(terms)],
                         (0.0, 1.0))
    c0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    keep = {"dim": dim, "dim + 3": dim + 3}.get(tracked, tracked)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagation, "_CHUNK_ENTRIES", rows * dim)
        full = stepper(c0, m, n_slices)
        kept = stepper(c0, m, n_slices, tracked=keep)
    assert np.array_equal(kept.norms, full.norms)
    assert np.array_equal(full.norms, propagation._row_norms(full.states))
    # the head keeps rows 0 and 1 with every column the run propagated
    assert kept.head.shape == full.head.shape == (2, dim)
    assert np.array_equal(kept.head, full.states[:2])
    k = dim if keep is None else min(keep, dim)
    assert kept.states.shape == (n_slices + 1, k)
    assert np.array_equal(kept.states, full.states[:, :k])


def plain_eigenbasis_cayley(c0, model, n_slices):
    """unitary_propagate's eigenbasis steps written plainly from _eigenbasis's
    factors: a new w per step and a new rebuilt block, in the collector's
    blocks, with the profile and identity shift sampled here in one call
    each on the whole grid. Returns every state and every norm."""
    general, scalar = propagation._split_terms(model)
    c, times, dt = propagation._prepare(c0, model, n_slices)
    half = 0.5j * dt
    tm = times[:-1] + 0.5 * dt
    lam, v, u, w = propagation._eigenbasis(
        model, general[0][1], c, tm[0], dt)
    s = general[0][0](tm)
    shift = np.zeros(tm.size)
    for prof, scale in scalar:
        shift += scale * prof(tm)
    rows = max(1, propagation._CHUNK_ENTRIES // model.dim)
    states, norms = [c[None, :]], [propagation._row_norms(c[None, :])]
    for a in range(0, n_slices, rows):
        b = min(a + rows, n_slices)
        block = np.empty((b - a, model.dim), dtype=complex)
        ihz = half * (s[a:b, None] * lam + shift[a:b, None])
        for r, row in zip((1.0 - ihz) / (1.0 + ihz), block):
            np.multiply(r, w, out=row)
            w = np.dot(u, row)
        block = (block @ v.T) * np.exp(1j * (tm[a:b, None] * model.energies))
        states.append(block)
        norms.append(propagation._row_norms(block))
    return np.concatenate(states), np.concatenate(norms)


@pytest.mark.parametrize("tracked", [None, 0, 8])
@pytest.mark.parametrize("rows", [1, 2, 3, None], ids=["1", "2", "3",
                                                       "default"])
@pytest.mark.parametrize("identity", [False, True],
                         ids=["no-identity", "identity"])
@pytest.mark.parametrize("kind", ["ramp", "random-hermitian"])
def test_eigenbasis_cayley_is_the_plain_loop_bit_for_bit(kind, identity,
                                                         rows, tracked):
    # the stepper writes each product into its own w and the rebuild into
    # the collector's block, and samples the profiles in chunks of as many
    # entries; every state and norm must keep the plain loop's bits, since
    # the unitary-contrast claim measures its round-off
    dim = 12
    m = one_term_model(5, dim, kind, identity, 0.8)
    assert len(propagation._split_terms(m)[0]) == 1
    # 41 samples cross a chunk edge at 1, 2 and 3 rows of 12; 400 is 2
    # full default blocks + 60
    n_slices = 41 if rows else 400
    c0 = pure_state(dim, 3)
    with pytest.MonkeyPatch.context() as mp:
        if rows:
            mp.setattr(propagation, "_CHUNK_ENTRIES", rows * dim)
        states, norms = plain_eigenbasis_cayley(c0, m, n_slices)
        traj = unitary_propagate(c0, m, n_slices, tracked=tracked)
    k = dim if tracked is None else min(tracked, dim)
    assert np.array_equal(traj.norms, norms)
    assert np.array_equal(traj.states, states[:, :k])


@pytest.mark.parametrize("stepper,terms", [
    (euler_propagate, 1), (unitary_propagate, 1), (unitary_propagate, 2)],
    ids=["euler", "cayley-eigenbasis", "cayley-solve"])
def test_repeated_grid_times_refused_before_the_first_step(stepper, terms):
    # 1000 slices of a window 4 wide at t = 1e16, where one ulp is 2, repeat
    # their times; the run is refused before any profile is sampled, so the
    # profile sees only the model's own check of the window's endpoints
    calls = []

    def profile(t):
        calls.append(np.shape(t))
        return np.ones(np.shape(t))

    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    y = np.array([[0.0, -1j], [1j, 0.0]])
    m = HamiltonianModel((0.5, 1.5), [(profile, x), (profile, y)][:terms],
                         (1e16, 1e16 + 4.0))
    with pytest.raises(PropagationContractError) as refused:
        stepper(pure_state(2), m, 1000)
    assert str(refused.value) == (
        "window (1e+16, 1.0000000000000004e+16) must keep the 1000-slice "
        "time grid strictly increasing, its step above 4 "
        "ulp(1.0000000000000004e+16) = 8.0, got dt = 0.004")
    assert calls == [(2,)] * terms


def euler_oracle(c0, model, n_slices):
    """Literal first-order slicing: C <- C + dt rhs(C, t_i), dim x dim phases."""
    c = np.asarray(c0, dtype=complex)
    t0, t1 = model.window
    dt = (t1 - t0) / n_slices
    times = t0 + dt * np.arange(n_slices + 1)
    states = [c]
    for t in times[:-1]:
        c = c + dt * rhs(c, t, model)
        states.append(c)
    return Trajectory(times, np.array(states), "euler")


def assert_euler_matches_oracle(c0, model, n_slices):
    traj = euler_propagate(c0, model, n_slices)
    oracle = euler_oracle(c0, model, n_slices)
    assert np.max(np.abs(traj.states - oracle.states)) <= 1e-13
    report = norm_audit(traj, model)
    expected = norm_audit(oracle, model)
    assert report.first_strict_step == expected.first_strict_step
    assert report.monotone == expected.monotone
    return report


def test_euler_matches_rhs_oracle_box_dipole_ramp():
    m = box_dipole_model(1.0, 32, 1.0, 0.5, (0.0, 1.0), "ramp")
    report = assert_euler_matches_oracle(pure_state(32), m, 1000)
    assert report.first_strict_step == 3


def test_euler_matches_rhs_oracle_dipole_step():
    m = box_dipole_model(1.0, 48, 0.5, 0.2, (0.0, 0.5), "step")
    assert_euler_matches_oracle(pure_state(48, 1), m, 420)


def test_euler_matches_rhs_oracle_random_hermitian():
    rng = np.random.default_rng(21)
    m = HamiltonianModel(np.sort(rng.uniform(0.0, 40.0, 16)),
                         [(lambda t: np.sin(2.0 * t),
                           random_hermitian(rng, 16))], (0.0, 3.0))
    assert_euler_matches_oracle(pure_state(16, 3), m, 1500)


def test_euler_matches_rhs_oracle_with_identity_term():
    scn = GaugeJumpScenario(switch="step")
    assert_euler_matches_oracle(pure_state(scn.n_basis), scn.hamiltonian(),
                                scn.n_slices)


def test_euler_matches_rhs_oracle_non_commuting_terms():
    rng = np.random.default_rng(8)
    a, b = random_hermitian(rng, 6), random_hermitian(rng, 6)
    m = HamiltonianModel(rng.standard_normal(6),
                         [(lambda t: np.cos(3.0 * t), a),
                          (lambda t: t * t, b),
                          (lambda t: 0.5 + t, 2.0 * np.eye(6))], (0.0, 2.0))
    assert_euler_matches_oracle(pure_state(6, 2), m, 400)


def test_euler_matches_rhs_oracle_shifted_window():
    m = box_dipole_model(1.0, 16, 1.0, 0.4, (0.3, 1.2), "ramp")
    assert_euler_matches_oracle(pure_state(16), m, 700)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 12),
       amplitude=st.floats(0.01, 5.0), freq=st.floats(0.0, 20.0),
       n_slices=st.integers(10, 300), s=st.integers(0, 11))
def test_euler_norm_never_falls_and_step1_closed_form_property(
        seed, dim, amplitude, freq, n_slices, s):
    rng = np.random.default_rng(seed)
    m = HamiltonianModel(rng.uniform(0.0, 100.0, dim),
                         [(lambda t: amplitude * np.cos(freq * t),
                           random_hermitian(rng, dim))], (0.0, 1.0))
    traj = euler_propagate(pure_state(dim, s % dim), m, n_slices)
    assert np.all(np.diff(traj.norms) >= -1e-15 * traj.norms[:-1])
    assert norm_audit(traj, m).closed_form_defect <= 1e-12


def assert_final_norm_matches_literal(c0, model, n_slices):
    # the eigenbasis steps round differently from the literal ones; over 120
    # random models of one_term_model (dim 2-64, 10-6 000 slices, final
    # norms up to 1.03) the largest gap was 2.1e-16 per step, so the bound
    # is about 5x that
    literal = euler_propagate(c0, model, n_slices, tracked=0).norms[-1]
    gap = abs(euler_final_norm(c0, model, n_slices) - literal)
    assert gap <= 1e-15 * n_slices


def test_euler_final_norm_matches_literal_box_dipole():
    # box_dipole.scn's 2n refinement run
    m = box_dipole_model(1.0, 32, 1.0, 0.5, (0.0, 1.0), "ramp")
    assert_final_norm_matches_literal(pure_state(32), m, 2000)


def one_term_model(seed, dim, kind, identity, amplitude,
                   shift=lambda t: 0.5 + t * t):
    """A ramp or step dipole, or a random Hermitian term of spectral norm
    `amplitude`, plus amplitude shift(t) I when `identity` is set."""
    if kind == "random-hermitian":
        h = random_hermitian(np.random.default_rng(seed), dim)
        h *= amplitude / np.max(np.abs(np.linalg.eigvalsh(h)))
        terms = [(np.ones_like, h)]
    else:
        terms = box_dipole_model(1.0, dim, amplitude, 0.3, (0.0, 1.0),
                                 kind).terms
    if identity:    # c(t) I, as the gauge jump's A^2/2 term
        terms = terms + [(lambda t: amplitude * shift(t), np.eye(dim))]
    return HamiltonianModel(box_energies(1.0, dim), terms, (0.0, 1.0))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 64),
       kind=st.sampled_from(["ramp", "step", "random-hermitian"]),
       identity=st.booleans(), amplitude=st.floats(0.01, 1.0),
       n_slices=st.integers(10, 600))
def test_euler_final_norm_matches_literal_property(seed, dim, kind, identity,
                                                   amplitude, n_slices):
    m = one_term_model(seed, dim, kind, identity, amplitude)
    assert_final_norm_matches_literal(pure_state(dim, seed % dim), m,
                                      n_slices)


def left_profiles(model, n_slices):
    """Each term's profile on the left endpoints, one row per term."""
    t0, t1 = model.window
    left = t0 + (t1 - t0) / n_slices * np.arange(n_slices)
    return np.array([p(left) for p, _ in model.terms])


@pytest.mark.parametrize("dim,n_slices", [(2, 6000), (23, 1237), (64, 6000)])
@pytest.mark.parametrize("identity", [False, True])
@pytest.mark.parametrize("kind", ["step", "random-hermitian"])
def test_euler_final_norm_single_run_matches_literal(kind, identity, dim,
                                                     n_slices):
    # every profile is constant on the grid, so the whole run is one power
    m = one_term_model(17, dim, kind, identity, 0.9,
                       shift=lambda t: np.full(np.shape(t), 0.5))
    assert np.ptp(left_profiles(m, n_slices), axis=1).max() == 0.0
    assert_final_norm_matches_literal(pure_state(dim, 1), m, n_slices)


def one_step_final_norm(c0, model, n_slices):
    """euler_final_norm's eigenbasis loop with every step taken one by one,
    the profile and identity shift sampled here in one call each."""
    general, scalar = propagation._split_terms(model)
    c, times, dt = propagation._prepare(c0, model, n_slices)
    lam, _, u, w = propagation._eigenbasis(
        model, general[0][1], c, times[0], dt)
    s = general[0][0](times[:-1])
    shift = np.zeros(n_slices)
    for prof, scale in scalar:
        shift += scale * prof(times[:-1])
    idt = 1j * dt
    rows = max(1, propagation._CHUNK_ENTRIES // model.dim)
    for a in range(0, n_slices, rows):
        b = a + rows
        for r in 1.0 - idt * (s[a:b, None] * lam + shift[a:b, None]):
            w = np.dot(u, r * w)
    return float(propagation._row_norms(w[None, :])[0])


@pytest.mark.parametrize("model,n_slices", [
    (HamiltonianModel(box_energies(1.0, 16),
                      [(lambda t: np.cos(3.0 * t),
                        random_hermitian(np.random.default_rng(3), 16))],
                      (0.0, 2.0)), 1500),
    (one_term_model(0, 32, "ramp", True, 1.0), 2000),
], ids=["cos-3t", "ramp-and-varying-identity"])
def test_euler_final_norm_changing_profile_keeps_one_step_bits(model,
                                                               n_slices):
    # no two neighbouring steps share their (s, c) pair: no run to power
    values = left_profiles(model, n_slices)
    assert np.all(np.any(np.diff(values, axis=1) != 0.0, axis=0))
    c0 = pure_state(model.dim, 1)
    assert euler_final_norm(c0, model, n_slices) \
        == one_step_final_norm(c0, model, n_slices)


def switched_at_0_4(t):
    return hard_step(t - 0.4)


@pytest.mark.parametrize("shift", [switched_at_0_4, lambda t: 0.5 + t * t],
                         ids=["switched", "varying"])
def test_euler_final_norm_splits_runs_on_the_shift(shift):
    # the step dipole is constant over the window; the identity term is not
    m = one_term_model(5, 24, "step", True, 0.8, shift=shift)
    assert np.ptp(left_profiles(m, 1500)[0]) == 0.0
    assert_final_norm_matches_literal(pure_state(24, 1), m, 1500)


def test_euler_final_norm_without_one_general_term_is_literal():
    rng = np.random.default_rng(8)
    a, b = random_hermitian(rng, 6), random_hermitian(rng, 6)
    for terms in ([], [(lambda t: np.cos(3.0 * t), a), (lambda t: t * t, b)]):
        m = HamiltonianModel(rng.standard_normal(6), terms, (0.0, 2.0))
        literal = euler_propagate(pure_state(6, 2), m, 400)
        assert euler_final_norm(pure_state(6, 2), m, 400) \
            == literal.norms[-1]


@pytest.mark.parametrize("dt", [1e-5, 1e-3])
@pytest.mark.parametrize("dim", [8, 32, 64])
def test_polar_sweeps_bring_the_step_to_unitarity(dim, dt):
    # the eigenbasis stepper's V and U = V^H diag(exp(-i eps dt)) V,
    # built as unitary_propagate builds them; unpolished, U^H U misses I by
    # 1.8e-15 or more at every size and dt here
    x = dipole_matrix_elements_box(1.0, dim)
    eps = box_energies(1.0, dim)
    v = propagation._polar(np.linalg.eigh(x)[1])
    u = propagation._polar(v.conj().T @ (np.exp(-1j * eps * dt)[:, None] * v))
    for m in (v, u):
        assert np.max(np.abs(m.conj().T @ m - np.eye(dim))) <= 1e-15


def test_unitary_zero_coupling_constant():
    m = HamiltonianModel((0.5, 1.5), [], (0.0, 1.0))
    traj = unitary_propagate(pure_state(2), m, 50)
    assert np.max(np.abs(traj.states - traj.states[0])) == 0.0


def test_trajectory_norms_and_head():
    t = Trajectory(np.array([0.0, 1.0]),
                   np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
                   "euler")
    assert np.allclose(t.norms, [1.0, 1.0])
    # a trajectory built from its states takes their first two rows as its
    # head, at any width
    for cols in (3, 1):
        t = Trajectory(np.array([0.0, 1.0, 2.0]),
                       np.ones((3, cols), dtype=complex), "euler")
        assert np.array_equal(t.head, np.ones((2, cols)))


def test_trajectory_states_are_a_complex_array():
    # a list of rows, or a real array, is stored as a complex array
    for states in ([[1.0, 0.0], [0.0, 1.0]], np.eye(2)):
        t = Trajectory(np.array([0.0, 1.0]), states, "euler")
        assert t.states.dtype == complex
        assert np.array_equal(t.states, np.eye(2))


def test_audit_zero_coupling_equality_throughout():
    m = HamiltonianModel((0.0, 1.0), [], (0.0, 1.0))
    traj = euler_propagate(pure_state(2), m, 50)
    report = norm_audit(traj, m)
    assert report.monotone
    assert report.first_strict_step is None
    assert report.passed
    assert "pass" in report.to_text()


def test_audit_diagonal_growth_per_step_exact():
    h, dt, n = 0.8, 0.01, 40
    m = HamiltonianModel((0.0, 1.0),
                         [(np.ones_like, np.diag([h, 0.0]).astype(complex))],
                         (0.0, n * dt))
    traj = euler_propagate(pure_state(2), m, n)
    report = norm_audit(traj, m)
    assert report.first_strict_step == 1
    factor = 1.0 + (h * dt) ** 2
    for k in (1, 2, 5, 40):
        assert traj.norms[k] == pytest.approx(factor ** k, rel=1e-13)
    assert report.passed


def test_audit_box_dipole_scenario_matches_golden():
    m = box_dipole_model(1.0, 32, 1.0, 0.5, (0.0, 1.0), "ramp")
    traj = euler_propagate(pure_state(32), m, 1000)
    report = norm_audit(traj, m)
    assert traj.norms[-1] == pytest.approx(GOLDEN_BOX_DIPOLE_NORM_SQ,
                                           rel=1e-10)
    assert report.monotone
    assert report.first_strict_step == 3
    assert report.step1_total >= 1.0
    assert report.step1_off_diagonal >= 0.0
    assert report.closed_form_defect < 1e-12
    assert report.passed


def test_audit_growth_scales_as_dt_squared():
    m = box_dipole_model(1.0, 32, 1.0, 0.5, (0.0, 1.0), "ramp")
    per_step = []
    for n in (1000, 2000, 4000):
        traj = euler_propagate(pure_state(32), m, n)
        per_step.append((traj.norms[-1] - 1.0) / n)
    for a, b in zip(per_step, per_step[1:]):
        assert 1.9 <= math.log2(a / b) <= 2.1


def test_audit_fails_a_norm_that_falls_by_1e_13():
    m = box_dipole_model(1.0, 8, 1.0, 0.5, (0.0, 1.0), "ramp")
    traj = euler_propagate(pure_state(8), m, 200)
    assert norm_audit(traj, m).passed
    states, norms = traj.states.copy(), traj.norms
    states[-1] *= math.sqrt((norms[-2] - 1e-13) / norms[-1])
    fallen = Trajectory(traj.times, states, "euler")
    assert fallen.norms[-2] - fallen.norms[-1] == pytest.approx(1e-13,
                                                               rel=1e-2)
    # read through the module, where a patched norm_audit lands
    report = propagation.norm_audit(fallen, m)
    assert not report.monotone
    assert not report.passed


def test_audit_fails_a_nan_in_row_1():
    # the off-diagonal weight at t1 is a sum of squares, negative only
    # through a NaN, which also makes that row's norm NaN
    m = box_dipole_model(1.0, 8, 1.0, 0.5, (0.0, 1.0), "ramp")
    traj = euler_propagate(pure_state(8), m, 200)
    states = traj.states.copy()
    states[1, 3] = complex(math.nan, 0.0)
    report = propagation.norm_audit(Trajectory(traj.times, states, "euler"),
                                    m)
    assert math.isnan(report.step1_off_diagonal)
    assert math.isnan(report.step1_total)
    assert not report.passed
    assert "audit: FAIL" in report.to_text()


@pytest.mark.parametrize("n_slices,rows", [(1, None), (300, None), (40, 1)])
@pytest.mark.parametrize("tracked", [0, 1, 8, "dim"])
@pytest.mark.parametrize("kind", ["ramp", "random-hermitian"])
def test_tracked_euler_run_audits_as_the_full_run(tmp_path, kind, tracked,
                                                   n_slices, rows):
    # the audit reads rows 0 and 1 in full from the stepper's copies of
    # them, row 1 the first buffer row (a one-row block is overwritten by
    # the next step), and the norms after that
    dim = 12
    m = one_term_model(7, dim, kind, False, 0.8)
    k = dim if tracked == "dim" else tracked
    with pytest.MonkeyPatch.context() as mp:
        if rows:
            mp.setattr(propagation, "_CHUNK_ENTRIES", rows * dim)
        full = euler_propagate(pure_state(dim, 2), m, n_slices)
        kept = euler_propagate(pure_state(dim, 2), m, n_slices,
                               tracked=k)
    assert kept.states.shape == (n_slices + 1, min(k, dim))
    report, expected = norm_audit(kept, m), norm_audit(full, m)
    assert vars(report) == vars(expected)
    assert report.to_text() == expected.to_text()
    # the kept run's CSV is the full run's rows cut to k columns
    write_trajectory_csv(kept, tmp_path / "kept.csv")
    write_trajectory_csv(Trajectory(full.times, full.states[:, :k], "euler",
                                    full.norms), tmp_path / "full.csv")
    assert (tmp_path / "kept.csv").read_bytes() \
        == (tmp_path / "full.csv").read_bytes()


def test_single_slice_degenerate_grid_runs():
    m = two_level_model(t_end=1.0)
    traj = euler_propagate(pure_state(2), m, 1)
    assert traj.times.size == 2
    report = norm_audit(traj, m)
    assert report.monotone
    assert report.passed


def test_box_energies():
    e = box_energies(1.0, 4)
    assert e[0] == pytest.approx(0.5 * math.pi ** 2, rel=1e-14)
    assert e[3] / e[0] == pytest.approx(16.0, rel=1e-14)
    e2 = box_energies(2.0, 2)
    assert e2[0] == pytest.approx(0.5 * (math.pi / 2.0) ** 2, rel=1e-14)


def test_dipole_matrix_elements_against_quadrature():
    L = 1.0
    x = dipole_matrix_elements_box(L, 6)
    assert np.max(np.abs(x - x.conj().T)) == 0.0
    for n in range(6):
        assert x[n, n] == pytest.approx(L / 2.0, rel=1e-14)
    # parity selection: same-parity couplings vanish
    assert x[0, 2] == 0.0
    assert x[1, 3] == 0.0
    # frozen quadrature golden for the 1-2 element
    assert x[0, 1] == pytest.approx(GOLDEN_X12, rel=1e-13)
    assert x[0, 1] == pytest.approx(-16.0 / (9.0 * math.pi ** 2), rel=1e-13)

    def integrand(xx, n=1, m=2):
        return (math.sqrt(2.0 / L) * math.sin(n * math.pi * xx / L) * xx
                * math.sqrt(2.0 / L) * math.sin(m * math.pi * xx / L))

    quad, _ = integrate_interval(integrand, 0.0, L, QuadratureSpec())
    assert x[0, 1] == pytest.approx(quad, abs=1e-12)


def test_momentum_matrix_elements_against_quadrature():
    L = 1.0
    p = momentum_matrix_elements_box(L, 5)
    assert np.max(np.abs(p - p.conj().T)) == 0.0
    assert p[0, 0] == 0.0
    assert p[0, 2] == 0.0  # same parity

    def integrand_im(xx, n=1, m=2):
        # <1| -i d/dx |2>: the integrand is purely imaginary
        phi_n = math.sqrt(2.0 / L) * math.sin(n * math.pi * xx / L)
        dphi_m = math.sqrt(2.0 / L) * (m * math.pi / L) \
            * math.cos(m * math.pi * xx / L)
        return -phi_n * dphi_m

    quad, _ = integrate_interval(integrand_im, 0.0, L, QuadratureSpec())
    assert p[0, 1].imag == pytest.approx(quad, rel=1e-12)
    assert p[0, 1].real == 0.0


def test_truncation_monitored_by_doubling():
    # final coefficients of the 32-state scenario are stable against a
    # 64-state rerun at 1e-8
    kwargs = dict(width=1.0, amplitude=1.0, ramp_time=0.5,
                  window=(0.0, 1.0), profile="ramp")
    m32 = box_dipole_model(n_basis=32, **kwargs)
    m64 = box_dipole_model(n_basis=64, **kwargs)
    t32 = unitary_propagate(pure_state(32), m32, 1000)
    t64 = unitary_propagate(pure_state(64), m64, 1000)
    assert np.max(np.abs(t64.states[-1][:32] - t32.states[-1])) < 1e-8


def test_trajectory_csv_round_trip(tmp_path):
    m = two_level_model(t_end=1.0)
    traj = euler_propagate(pure_state(2), m, 10, tracked=2)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,t,norm_sq,re_c1,im_c1,re_c2,im_c2"
    assert len(lines) == 12
    last = lines[-1].split(",")
    assert int(last[0]) == 10
    assert float(last[2]) == pytest.approx(traj.norms[-1], rel=1e-15)
    assert float(last[3]) == pytest.approx(traj.states[-1, 0].real, rel=1e-15)


def reference_trajectory_csv(trajectory, tracked):
    """The per-value formatter the CSV writer must match byte for byte."""
    k = min(tracked, trajectory.states.shape[1])
    header = ["step", "t", "norm_sq"]
    for j in range(1, k + 1):
        header += [f"re_c{j}", f"im_c{j}"]
    lines = [",".join(header) + "\n"]
    for i, t in enumerate(trajectory.times):
        row = [str(i), repr(float(t)), repr(float(trajectory.norms[i]))]
        for j in range(k):
            c = trajectory.states[i, j]
            row += [repr(float(c.real)), repr(float(c.imag))]
        lines.append(",".join(row) + "\n")
    return "".join(lines).encode("utf-8")


@pytest.mark.parametrize("stepper", [euler_propagate, unitary_propagate],
                         ids=["euler", "cayley"])
@pytest.mark.parametrize("tracked", [3, 8, 40])
def test_trajectory_csv_bytes_match_reference_formatter(tmp_path, stepper,
                                                        tracked):
    # box dipole ramp, dim 12, 1000 slices: tracked below, at and above dim;
    # the tracked run's CSV is the full run's first `tracked` columns
    model = box_dipole_model(1.0, 12, 1.0, 0.5, (0.0, 1.0), "ramp")
    traj = stepper(pure_state(12, 1), model, 1000, tracked=tracked)
    full = stepper(pure_state(12, 1), model, 1000)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    assert path.read_bytes() == reference_trajectory_csv(full, tracked)


@pytest.mark.parametrize("rows", [2, _CHUNK_LINES - 1, _CHUNK_LINES,
                                  _CHUNK_LINES + 1])
@pytest.mark.parametrize("stepper,tracked", [(euler_propagate, None),
                                             (unitary_propagate, 3)],
                         ids=["euler-all", "cayley-tracked"])
def test_trajectory_csv_bytes_at_chunk_edges(tmp_path, stepper, tracked,
                                             rows):
    # the writer streams rows in blocks of _CHUNK_LINES: one row, and a
    # trajectory ending just before, at and just after a block edge
    model = box_dipole_model(1.0, 6, 1.0, 0.5, (0.0, 1.0), "ramp")
    traj = stepper(pure_state(6, 1), model, rows - 1, tracked=tracked)
    k = traj.states.shape[1]
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    assert path.read_bytes() == reference_trajectory_csv(traj, k)


def test_trajectory_csv_write_holds_one_block(tmp_path):
    # a 20 001-row, 8-column CSV is about 8 MB; holding it whole as lines,
    # text and bytes peaked at about 26 MB of Python heap. tracemalloc counts
    # Python allocations, so the bound does not depend on the host
    model = box_dipole_model(1.0, 8, 1.0, 0.5, (0.0, 1.0), "ramp")
    traj = euler_propagate(pure_state(8), model, 20000)
    tracemalloc.start()
    try:
        write_trajectory_csv(traj, tmp_path / "trajectory.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "trajectory.csv").stat().st_size > 7e6
    assert peak < 2e6
