"""Gauge covariance experiments: potentials, phases, and the velocity observable.

The covariance set transforms everything together: A' = A + grad f,
Phi' = Phi - df/dt, the wave function picks up exp(i f), and observables are
rebuilt from the primed potentials. The velocity operator is v = p - A with
p = -i d/dx on the well domain, in units m = Q = c = hbar = 1. Experiments run
on the 1-D box embedded along the x axis; gauge functions remain full fields
of (t, r). Observables are weighted sums over psi and d psi/dx sampled on
2 N + 32 Gauss-Legendre nodes for N sine terms; the jump experiment re-checks
its last time on twice the nodes and raises QuadratureError if a value moves
beyond round-off.

Field contract. A field (potential, gauge function or derivative) is called
as field(t, r) with points r as a (3, N) array, axis 0 the coordinate, and a
time t that is a float or an array of shape (..., 1) broadcasting against
r[0]. A scalar field returns the broadcast shape (..., N) and a vector field
(3, ..., N). Every field returns the full shape, so no caller guesses an
axis; _along_x, _zero_scalar and _zero_vector broadcast over t. The
observables and the phase fit call each field once on their whole time grid,
and the derivative checks once per difference step, with every sample time
and shifted point at once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import propagation
from .basis import box_modes
from .propagation import (HamiltonianModel, box_energies,
                          momentum_matrix_elements_box, switch_profile,
                          unitary_propagate)
from .scenario import _in_1_to, write_artifact
from .specfun import QuadratureError

DIFF_STEP = 1e-5     # central-difference step of consistency_defect
X_STEP = 1e-6        # spatial step of electric_field and magnetic_field
NORM_TOL = 1e-6      # largest |norm - 1| velocity_and_momentum accepts
PLATEAU_TOL = 1e-10  # residual floor of the phase-factored fit


class PhysicalConsistencyError(Exception):
    """A physical-consistency check failed; the command line exits with 3."""


class GaugeConsistencyError(PhysicalConsistencyError):
    """A gauge function's stated derivatives disagree with finite differences."""


class GaugeFieldMismatchError(PhysicalConsistencyError):
    """A gauge pair does not represent the same electromagnetic field."""

    def __init__(self, message: str, defect: float):
        super().__init__(message)
        self.defect = defect


class NormalizationError(PhysicalConsistencyError):
    """State handed to an observable is not unit-normalized."""

    def __init__(self, message: str, measured_norm: float):
        super().__init__(message)
        self.measured_norm = measured_norm


@dataclass(frozen=True)
class GaugeFunction:
    """A differentiable gauge function f(t, r) with its analytic derivatives.

    All three are fields under the module's contract: f and dt_f scalar,
    grad_f the spatial gradient as a vector field. Keeping the derivatives
    analytic (not finite-differenced) is what lets covariance checks reach
    1e-10; consistency_defect certifies them against Richardson-extrapolated
    central differences at sample points.
    """

    f: Callable
    grad_f: Callable
    dt_f: Callable

    def consistency_defect(self, times, points) -> float:
        """Largest relative derivative defect over the times and points (3, N)."""
        t, ht, r = _grid(times, points, DIFF_STEP)
        fd_t = _richardson(lambda h: self.f(t + h, r) - self.f(t - h, r), ht)
        fd_r = _richardson(lambda h: _differences(self.f, t, r, h), DIFF_STEP)
        return max(_rel(fd_t, self.dt_f(t, r)), _rel(fd_r, self.grad_f(t, r)))


def _grid(times, points, cap: float):
    """The times as a (T, 1) column, their time steps and the points (3, N).

    A step is cap, or |t|/2 off t = 0 where that is smaller, so a central
    difference never straddles the switch instant t = 0.
    """
    t = np.asarray(times, dtype=float).reshape(-1, 1)
    return (t, np.where(t == 0.0, cap, np.minimum(cap, np.abs(t) / 2.0)),
            np.asarray(points, dtype=float))


def _richardson(diff: Callable, h):
    """(4 D(h/2) - D(h)) / 3 with D(h) = diff(h) / 2h, the central difference.

    Cancels the O(h^2 f''') truncation error of D, which alone reads a
    fast but exact gauge such as 0.01 sin(300 x) as inconsistent.
    """
    return (4.0 * diff(0.5 * h) / h - diff(h) / (2.0 * h)) / 3.0


# the unit shifts of _differences: [coordinate, sign, axis j, point]
_SHIFTS = np.eye(3)[:, None, :, None] * np.array([1.0, -1.0])[:, None, None]


def _differences(field: Callable, t, r: np.ndarray, h: float):
    """field(t, r + h e_j) - field(t, r - h e_j) in one call, axis j first."""
    pts = r[:, None, None, :] + h * _SHIFTS
    values = field(t, pts.reshape(3, -1))
    values = values.reshape(values.shape[:-1] + (2, 3, -1))
    return np.moveaxis(values[..., 0, :, :] - values[..., 1, :, :], -2, 0)


def _rel(measured, stated) -> float:
    return float(np.max(np.abs(measured - stated)
                        / np.maximum(1.0, np.abs(stated))))


def _scalar_shape(t, r) -> tuple:
    """The shape of a scalar field at times t and points r (3, N)."""
    return np.broadcast_shapes(np.shape(t), np.shape(r)[1:])


def _along_x(a, r) -> np.ndarray:
    """The vector (a, 0, 0) at every time and point; a broadcasts on r[0]."""
    out = np.zeros((3,) + _scalar_shape(a, r))
    out[0] = a
    return out


def _zero_scalar(t, r) -> np.ndarray:
    return np.zeros(_scalar_shape(t, r))


def _zero_vector(t, r) -> np.ndarray:
    return np.zeros((3,) + _scalar_shape(t, r))


def zero_gauge_function() -> GaugeFunction:
    return GaugeFunction(_zero_scalar, _zero_vector, _zero_scalar)


def linear_gauge_function(a: Callable, da_dt: Callable) -> GaugeFunction:
    """f(t, r) = a(t) x for a profile a(t) with derivative da_dt(t)."""
    return GaugeFunction(f=lambda t, r: a(t) * r[0],
                         grad_f=lambda t, r: _along_x(a(t), r),
                         dt_f=lambda t, r: da_dt(t) * r[0])


@dataclass(frozen=True)
class Potentials:
    """Vector and scalar potentials as fields of (t, r)."""

    vector: Callable
    scalar: Callable


def free_potentials() -> Potentials:
    return Potentials(_zero_vector, _zero_scalar)


def transform_potentials(p: Potentials, g: GaugeFunction) -> Potentials:
    """A' = A + grad f, Phi' = Phi - df/dt, pointwise."""
    return Potentials(lambda t, r: p.vector(t, r) + g.grad_f(t, r),
                      lambda t, r: p.scalar(t, r) - g.dt_f(t, r))


def electric_field(p: Potentials, t, r, t_step=1e-6) -> np.ndarray:
    """E = -grad Phi - dA/dt by central differences; t_step broadcasts on t."""
    da = (p.vector(t + t_step, r) - p.vector(t - t_step, r)) / (2.0 * t_step)
    return -_differences(p.scalar, t, r, X_STEP) / (2.0 * X_STEP) - da


def magnetic_field(p: Potentials, t, r) -> np.ndarray:
    """B = curl A by central differences, a vector field."""
    jac = _differences(p.vector, t, r, X_STEP) / (2.0 * X_STEP)   # dA_i/dx_j
    return np.array([jac[1, 2] - jac[2, 1],
                     jac[2, 0] - jac[0, 2],
                     jac[0, 1] - jac[1, 0]])


def field_mismatch(p1: Potentials, p2: Potentials, times, points,
                   t_step: float = 1e-6):
    """Max |E1-E2|, |B1-B2| over the times and points (3, N), plus the scale.

    Time steps shrink near t = 0 so a switch instant is never straddled;
    callers should still sample away from the switch itself, where a stepped
    field is distributional.
    """
    t, ht, r = _grid(times, points, t_step)
    e1, e2 = (electric_field(p, t, r, ht) for p in (p1, p2))
    b1, b2 = (magnetic_field(p, t, r) for p in (p1, p2))
    return (max(float(np.max(np.abs(e1 - e2))), float(np.max(np.abs(b1 - b2)))),
            max(float(np.max(np.abs(e1))), float(np.max(np.abs(b1)))))


@dataclass(frozen=True)
class LineState:
    """psi and d psi/dx at quadrature nodes x (weights w) on the x axis.

    value and dx have shape (..., len(x)): any leading axes index times.
    """

    x: np.ndarray
    w: np.ndarray
    value: np.ndarray
    dx: np.ndarray


def _on_line(field: Callable, t, x: np.ndarray) -> np.ndarray:
    """A field at times t and every r = (x, 0, 0) in one call: a scalar
    field gives shape t.shape + (N,), a vector field (3,) + t.shape + (N,)."""
    zero = np.zeros_like(x)
    return field(np.asarray(t, dtype=float)[..., None],
                 np.stack([x, zero, zero]))


_gauss_legendre = functools.lru_cache(maxsize=None)(
    np.polynomial.legendre.leggauss)


def box_line_state(width: float, amplitudes) -> LineState:
    """Synthesize sum_n a_n psi_n on 2 n + 32 Gauss-Legendre nodes.

    amplitudes has shape (..., n), with leading axes over times; each row
    carries its stationary phases. One sine-and-cosine table and one matrix
    product give value and d/dx for every row. The node count grows with the
    highest wave number, 2 n pi / L, in a product of two such states.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    n = amps.shape[-1]
    nodes, weights = _gauss_legendre(2 * n + 32)
    x = 0.5 * width * (nodes + 1.0)
    k, sines = box_modes(width, n, x)
    cosines = math.sqrt(2.0 / width) * np.cos(np.outer(k, x))
    both = amps @ np.concatenate([sines, k[:, None] * cosines], axis=1)
    return LineState(x, 0.5 * width * weights, both[..., :x.size],
                     both[..., x.size:])


def phase_transform(state: LineState, g: GaugeFunction, t) -> LineState:
    """Multiply the state by exp(i f(t, r)); the density is untouched.

    t is a time or an array of times matching the state's leading axes. The
    derivative picks up the chain-rule term i (df/dx) psi, kept analytic
    through g.grad_f.
    """
    phase = np.exp(1j * _on_line(g.f, t, state.x))
    gx = _on_line(g.grad_f, t, state.x)[0]
    return LineState(state.x, state.w, phase * state.value,
                     phase * (1j * gx * state.value + state.dx))


def velocity_and_momentum(state: LineState, A, t):
    """<v> = <p - A(t, r)> and <p> = <-i d/dx> as sums over the nodes.

    t is a time or an array of times matching the state's leading axes; the
    results have shape (..., 3), and every row must be unit-normalized.
    """
    return _velocity_and_momentum(state, _on_line(A, t, state.x))


def _velocity_and_momentum(state: LineState, a: np.ndarray):
    """velocity_and_momentum with A sampled on the nodes, a (3, ..., N)."""
    density = np.abs(state.value) ** 2
    norm = density @ state.w
    bad = np.flatnonzero(np.abs(norm - 1.0) > NORM_TOL)
    if bad.size:
        worst = float(np.ravel(norm)[bad[0]])
        raise NormalizationError(
            f"state norm {worst!r} deviates from 1 beyond {NORM_TOL!r}", worst)
    p_density = (state.value.conjugate() * (-1j * state.dx)).real

    # v_x as a single integrand: when the state is co-transformed with the
    # potentials, the grad-f terms cancel node by node, so the two gauges sum
    # the same numbers instead of cancelling across two separate sums
    vx = (p_density - a[0] * density) @ state.w
    # p_y = p_z = 0 on a line state, so those components are plain -<A_j>
    a_perp = np.moveaxis(a[1:], 0, -2) @ (state.w * density)[..., None]
    zero = np.zeros_like(vx)
    return (np.stack([vx, -a_perp[..., 0, 0], -a_perp[..., 1, 0]], axis=-1),
            np.stack([p_density @ state.w, zero, zero], axis=-1))


@dataclass
class ObservableReport:
    """Velocity and momentum series for one gauge over the sampled grid."""

    gauge_label: str
    times: np.ndarray
    v_series: np.ndarray
    p_series: np.ndarray
    pre_switch_v: np.ndarray

    @property
    def jump_metric(self) -> float:
        """|<v>(t0 + dt) - <v>(0-)|, the step-1 velocity jump."""
        return float(np.linalg.norm(self.v_series[1] - self.pre_switch_v))


def write_observable_csv(path, reports) -> dict:
    """One row per report and time; floats via repr for byte determinism."""
    return write_artifact(path, itertools.chain(
        ["t,gauge_label,vx,vy,vz,px,py,pz"],
        (",".join([repr(t), rep.gauge_label, *map(repr, v), *map(repr, p)])
         for rep in reports
         for t, v, p in zip(rep.times.tolist(), rep.v_series.tolist(),
                            rep.p_series.tolist()))))


@dataclass
class GaugeJumpScenario:
    """A bound state disturbed by a uniform A(t) switched on at t = 0.

    Gauge 1 keeps the drive in the vector potential; gauge 2 is its image
    under f(t, r) = -A(t) x (or an identity / deliberately broken pair, for
    the control and error paths). cli._KEYS checks each field's range, and
    __post_init__ the fields that relate, through their keys' constraints;
    PhaseFitScenario splits the same way, and also checks fit_sizes.
    """

    width: float = 1.0
    n_basis: int = 24
    initial_index: int = 1
    amplitude: float = 0.2
    switch: str = "step"          # step | ramp
    ramp_time: float = 0.5
    t_end: float = 2e-5
    n_slices: int = 200
    observe_stride: int = 4
    second_gauge: str = "transformed"   # transformed | identity | mismatched
    mismatch_factor: float = 1.5

    def __post_init__(self):
        if problem := _in_1_to("n_basis")(self.initial_index, vars(self)):
            raise ValueError(f"initial_index {problem}")

    def _drive(self, scale: float = 1.0):
        """(A, dA/dt) of the drive times scale, as profiles."""
        return switch_profile(self.switch, self.ramp_time,
                              scale * self.amplitude)

    def drive_potentials(self) -> Potentials:
        a, _ = self._drive()
        return Potentials(lambda t, r: _along_x(a(t), r), _zero_scalar)

    def gauge_function(self) -> GaugeFunction:
        if self.second_gauge == "identity":
            return zero_gauge_function()
        return linear_gauge_function(*self._drive(-1.0))

    def second_potentials(self) -> Potentials:
        if self.second_gauge == "mismatched":
            # claims to be a gauge partner of the drive but scales the
            # amplitude, so its electric field differs wherever A varies; the
            # experiment's field check must reject it
            a, _ = self._drive()
            return Potentials(
                lambda t, r: _along_x(a(t) * self.mismatch_factor, r),
                _zero_scalar)
        g = self.gauge_function()
        return transform_potentials(self.drive_potentials(), g)

    def hamiltonian(self) -> HamiltonianModel:
        p = momentum_matrix_elements_box(self.width, self.n_basis)
        eye = np.eye(self.n_basis, dtype=complex)
        a, _ = self._drive()
        return HamiltonianModel(
            box_energies(self.width, self.n_basis),
            [(lambda t: -a(t), p), (lambda t: 0.5 * a(t) ** 2, eye)],
            (0.0, self.t_end))


@dataclass
class GaugeJumpResult:
    report_gauge1: ObservableReport
    report_gauge2: ObservableReport
    naive_discrepancy: np.ndarray
    covariant_discrepancy: np.ndarray
    field_defect: float
    field_scale: float
    gauge_consistency_defect: float
    pre_switch_velocity: np.ndarray

    def summary_text(self) -> str:
        return "\n".join([
            f"pre-switch <v>: {self.pre_switch_velocity.tolist()!r}",
            f"jump metric (gauge 1): {self.report_gauge1.jump_metric!r}",
            f"jump metric (gauge 2, co-transformed): "
            f"{self.report_gauge2.jump_metric!r}",
            f"max naive inter-gauge discrepancy: "
            f"{float(np.max(self.naive_discrepancy))!r}",
            f"max co-transformed discrepancy: "
            f"{float(np.max(self.covariant_discrepancy))!r}",
            f"field reconstruction defect: {self.field_defect!r} "
            f"(scale {self.field_scale!r})",
            f"gauge function consistency defect: "
            f"{self.gauge_consistency_defect!r}",
        ])


def gauge_jump_experiment(scenario: GaugeJumpScenario) -> GaugeJumpResult:
    """Propagate through the switch and compare <v> across the gauge pair.

    Reports the step-1 jump metric, the inter-gauge discrepancy without
    co-transforming the state, and the discrepancy when the full covariance
    set is applied. A second gauge that _second_gauge refuses, or that does
    not reproduce the same E and B fields, is rejected up front.
    """
    if problem := _second_gauge(scenario.second_gauge, vars(scenario)):
        raise ValueError(f"second_gauge {problem}")
    pot1 = scenario.drive_potentials()
    pot2 = scenario.second_potentials()
    g = scenario.gauge_function()

    sample_times = [s * f * scenario.t_end for s in (-1.0, 1.0)
                    for f in (1.0, 0.5, 0.25)]
    if scenario.switch == "ramp":
        # f'' jumps where a ramp ends: keep every probe more than the
        # consistency check's 1e-5 central-difference step away from it
        sample_times = [scenario.ramp_time + 2e-5
                        if abs(t - scenario.ramp_time) <= 1e-5 else t
                        for t in sample_times]
    sample_points = np.zeros((3, 3))
    sample_points[0] = np.array([0.2, 0.5, 0.8]) * scenario.width
    g_defect = g.consistency_defect(sample_times, sample_points)
    if g_defect > 1e-6:
        raise GaugeConsistencyError(
            f"gauge function derivatives disagree with finite differences "
            f"(defect {g_defect!r})")
    t_step = min(1e-6, scenario.t_end / 16.0)
    defect, scale = field_mismatch(pot1, pot2, sample_times, sample_points,
                                   t_step)
    if defect > 1e-6 * max(1.0, scale):
        raise GaugeFieldMismatchError(
            f"gauge pair reconstructs different fields "
            f"(|dE|+|dB| defect {defect!r} at scale {scale!r})", defect)

    model = scenario.hamiltonian()
    c0 = np.zeros(scenario.n_basis, dtype=complex)
    c0[scenario.initial_index - 1] = 1.0
    traj = unitary_propagate(c0, model, scenario.n_slices)

    def observe(amps, t):
        """Rows v1, p1, naive v2 (state not co-transformed), v2, p2.

        amps (..., n) and t (...) share their leading time axes.
        """
        psi1 = box_line_state(scenario.width, amps)
        psi2 = phase_transform(psi1, g, t)
        a2 = _on_line(pot2.vector, t, psi1.x)    # one sampling for both rows
        return np.stack([*velocity_and_momentum(psi1, pot1.vector, t),
                         _velocity_and_momentum(psi1, a2)[0],
                         *_velocity_and_momentum(psi2, a2)], axis=-2)

    # pre-switch reference: stationary bound state, potentials still off
    v_pre, _ = velocity_and_momentum(box_line_state(scenario.width, c0),
                                     free_potentials().vector, -1.0)

    idx = sorted(set([0, 1] + list(range(0, scenario.n_slices + 1,
                                         scenario.observe_stride))
                     + [scenario.n_slices]))
    times = traj.times[idx]
    amps = traj.states[idx] * np.exp(-1j * np.outer(times, model.energies))
    obs = observe(amps, times)

    # zero-padding to 2 n + 16 amplitudes doubles the nodes; a value that
    # moves by more than round-off at the observables' scale (largest basis
    # momentum or value) was not resolved, so the run has not converged
    fine = observe(np.concatenate([amps[-1], np.zeros(amps.shape[1] + 16)]),
                   times[-1])
    split = float(np.max(np.abs(fine - obs[-1])))
    if split > 1e-12 * max(1.0, float(np.max(np.abs(fine))),
                           math.pi * scenario.n_basis / scenario.width):
        raise QuadratureError(
            f"gauge observables at t = {float(times[-1])!r} moved by "
            f"{split!r} when the quadrature nodes were doubled",
            float(fine[0, 0]), split)

    v1, p1, v2n, v2, p2 = obs.transpose(1, 0, 2)
    rep1 = ObservableReport("gauge1", times, v1, p1, v_pre)
    rep2 = ObservableReport("gauge2", times, v2, p2, v_pre)
    return GaugeJumpResult(rep1, rep2, np.linalg.norm(v2n - v1, axis=1),
                           np.linalg.norm(v2 - v1, axis=1),
                           float(defect), float(scale), float(g_defect), v_pre)


_SECOND_GAUGES = ("transformed", "identity", "mismatched")


def _second_gauge(v, values):
    """One of _SECOND_GAUGES; the field check samples away from t = 0,
    where a stepped A(t) is constant in either gauge, so only a ramp lets
    it see a mismatch."""
    if v not in _SECOND_GAUGES:
        return f"must be one of {sorted(_SECOND_GAUGES)}, got {v!r}"
    return "" if v != "mismatched" or values["switch"] == "ramp" else (
        f"must not be {v!r} unless switch = ramp, got switch = "
        f"{values['switch']!r}")


def _fit_sizes(v, _):
    return "" if len(v) >= 2 and list(v) == sorted(v) else (
        "needs at least two increasing sizes for the plateau verdict, got "
        f"{list(v)}")


def _fit_index(v, values):
    return "" if 1 <= v <= values["fit_sizes"][0] else (
        f"must lie in 1..fit_sizes[0] = {values['fit_sizes'][0]}, got {v}")


def _reference_size(v, values):
    return "" if v >= values["fit_sizes"][-1] else (
        f"must cover the largest fit size, {values['fit_sizes'][-1]}, got {v}")


@dataclass
class PhaseFitScenario:
    """Driven box run fitted by phase-factored truncated expansions."""

    width: float = 1.0
    n_reference: int = 64
    initial_index: int = 1
    amplitude: float = 12.0
    ramp_time: float = 0.3
    t_end: float = 1.2
    n_slices: int = 1200
    fit_sizes: tuple = (2, 4, 8, 12, 16, 24, 32, 48)
    n_grid: int = 1200
    fit_stride: int = 200

    def __post_init__(self):
        for key, constraint in (("fit_sizes", _fit_sizes),
                                ("initial_index", _fit_index),
                                ("n_reference", _reference_size)):
            if problem := constraint(getattr(self, key), vars(self)):
                raise ValueError(f"{key} {problem}")


@dataclass
class PhaseFitReport:
    """Residual of the phase-factored fit versus basis size."""

    fit_sizes: tuple
    fit_times: np.ndarray
    residuals: np.ndarray       # (len(fit_times), len(fit_sizes))
    plateaued: bool

    def final_residuals(self) -> np.ndarray:
        return self.residuals[-1]

    def to_text(self) -> str:
        lines = ["basis_size residual(final time)"]
        for n, r in zip(self.fit_sizes, self.final_residuals()):
            lines.append(f"{n:10d} {float(r)!r}")
        lines.append(f"plateaued above {PLATEAU_TOL!r}: {self.plateaued}")
        return "\n".join(lines)

    def write_csv(self, path) -> dict:
        """One row per basis size, one residual column per fit time."""
        header = "basis_size," + ",".join(
            f"residual_t{repr(float(t))}" for t in self.fit_times)
        return write_artifact(path, [header] + [
            ",".join([str(n)] + [repr(float(self.residuals[i, j]))
                                 for i in range(len(self.fit_times))])
            for j, n in enumerate(self.fit_sizes)])


def _by_real_parts(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m, complex a by real m, as two real products: OpenBLAS splits a
    complex product's sums by thread, so its rounding follows the count."""
    return a.real @ m + 1j * (a.imag @ m)


def phase_factored_expansion_test(scenario: PhaseFitScenario,
                                  g: GaugeFunction) -> PhaseFitReport:
    """Fit exp(i f) sum C_n psi_n to a reference propagated wave function.

    The reference runs on n_reference basis states with the norm-preserving
    stepper; at each fit time the best coefficients for the fixed bases are
    the grid inner products <psi_n | exp(-i f) psi_ref>, and the reported
    residual is the L2 defect of that fit. The grid trapezoid rule is exact
    for the sine products involved, so the stationary control sits at
    rounding level.
    """
    width = scenario.width
    model = propagation.box_dipole_model(width, scenario.n_reference,
                                         scenario.amplitude,
                                         scenario.ramp_time,
                                         (0.0, scenario.t_end))
    c0 = np.zeros(scenario.n_reference, dtype=complex)
    c0[scenario.initial_index - 1] = 1.0
    traj = unitary_propagate(c0, model, scenario.n_slices)
    fit_idx = sorted(set(list(range(0, scenario.n_slices + 1,
                                    scenario.fit_stride))
                         + [scenario.n_slices]))
    fit_times = traj.times[fit_idx]
    amps = traj.states[fit_idx] \
        * np.exp(-1j * np.outer(fit_times, model.energies))
    del traj    # the fit reads its sampled rows alone

    xs = np.linspace(0.0, width, scenario.n_grid + 1)
    w = np.full(xs.size, width / scenario.n_grid)
    w[0] *= 0.5
    w[-1] *= 0.5
    n_max = max(scenario.fit_sizes)
    _, sines_ref = box_modes(width, scenario.n_reference, xs)
    sines_fit = sines_ref[:n_max]

    rows = []
    for phase, a in zip(np.exp(-1j * _on_line(g.f, fit_times, xs)), amps):
        target = phase * _by_real_parts(a, sines_ref)
        coefs = sines_fit @ (w * target)
        rows.append([math.sqrt(float(np.sum(w * np.abs(
            target - _by_real_parts(coefs[:n], sines_fit[:n])) ** 2)))
            for n in scenario.fit_sizes])

    residuals = np.array(rows)
    final = residuals[-1]
    plateaued = bool(final[-1] > PLATEAU_TOL
                     and final[-1] > 0.5 * final[-2])
    return PhaseFitReport(scenario.fit_sizes, fit_times, residuals, plateaued)
