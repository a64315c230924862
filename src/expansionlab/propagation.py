"""Coefficient propagation: first-order explicit slicing and a unitary contrast.

The coefficient system is i hbar dC_n/dt = sum_l C_l (H1)_{nl} exp(i w_{nl} t)
with Bohr frequencies w_{nl} = (eps_n - eps_l)/hbar; stationary time factors
follow exp(-i eps t / hbar). euler_propagate applies the first-order update
with left-endpoint phases exactly as written, kept deliberately naive: its
norm growth is a reported outcome, not a defect to be patched. It samples
the profiles once per run and factors each phase as exp(i w_{nl} t) =
d_n(t) conj(d_l(t)), d(t) = exp(i eps t / hbar), so a step is one
matrix-vector product per term, not the literal dim x dim form. The
Cayley (Crank-Nicolson) stepper is the norm-preserving contrast oracle. When
the perturbation is one matrix X times a profile, plus multiples of the
identity, it steps in the eigenbasis of X: the Cayley factor is diagonal
there and the free evolution between midpoints is one constant unitary, so a
step is one diagonal scale and one matrix-vector product. Other models take
one linear solve per step. euler_final_norm takes the first-order step in
that same eigenbasis, for refinement runs that need only the final norm.
There a run of m equal steps (the profile and the identity shift repeat
exactly, as on a step or a plateau) is one matrix power, O(dim^3 log m);
the result agrees with euler_propagate to round-off, not bit for bit.

Profile contract. A term's profile is called with a float or an array of
times and returns a real array of the same shape, 0-d for a float; the
step and ramp are np.where forms. A model checks this on its window's
endpoints. euler_propagate and the linear-solve path sample a profile with
one call on the whole time grid, the eigenbasis steppers in chunks of
_CHUNK_ENTRIES samples, so each value may depend on its own time alone.

_prepare refuses a window through _increasing_grid, as cli._KEYS does,
before any grid is built or profile sampled; both steppers make the
Trajectory they return before their first step. They fill its rows in
blocks of _CHUNK_ENTRIES (2^11) entries of one reused buffer; each block's
rows give their norms sum_k |C_k|^2 from all columns and their leading
`tracked` columns (all when None) to the Trajectory, which also keeps full
copies of rows 0 and 1 for norm_audit. tracked=0 keeps norms only. The
eigenbasis Cayley stepper forms the midpoints, profile and identity shift
of one chunk of steps at a time, so a 10^5-step run holds its times and
norms, one 32 KB block and one chunk's tables instead of every state, and
only the times and norms once it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scenario import _CHUNK_LINES, _at_least, _positive, write_artifact


class PropagationContractError(ValueError):
    """Inputs violate an operation's contract (dimensions, trajectory kind)."""


@dataclass(frozen=True)
class Units:
    """Natural units m = Q = c = 1; hbar configurable."""

    hbar: float = 1.0

    def __post_init__(self):
        if problem := _positive(self.hbar, None):
            raise PropagationContractError(f"hbar {problem}")


def smooth_ramp(t, tau: float):
    """sin^2(pi t / 2 tau) switch-on: 0 before t=0, 1 after t=tau."""
    s = np.sin(0.5 * math.pi * t / tau)
    return np.where(t <= 0.0, 0.0, np.where(t >= tau, 1.0, s * s))


def smooth_ramp_dt(t, tau: float):
    return np.where((t <= 0.0) | (t >= tau), 0.0,
                    0.5 * math.pi / tau * np.sin(math.pi * t / tau))


def hard_step(t):
    """Unit step switched at t = 0 (inclusive)."""
    return np.where(t >= 0.0, 1.0, 0.0)


def switch_profile(kind: str, tau: float, scale: float = 1.0):
    """(s, ds/dt) profiles of scale times a "step" or a "ramp" over tau > 0."""
    if kind == "ramp":
        if problem := _positive(tau, None):   # the forms divide by tau
            raise PropagationContractError(f"ramp time {problem}")
        return (lambda t: scale * smooth_ramp(t, tau),
                lambda t: scale * smooth_ramp_dt(t, tau))
    if kind == "step":      # ds/dt is zero away from the switch instant
        return lambda t: scale * hard_step(t), lambda t: np.zeros(np.shape(t))
    raise PropagationContractError(f"unknown switch profile {kind!r}")


def _window_order(t0, t1) -> str:
    return "" if t1 > t0 else f"must exceed t_start = {t0!r}, got {t1!r}"


def _increasing_grid(t0, t1, slices) -> str:
    """Why _prepare's grid t0 + i dt, dt = (t1 - t0) / slices, may not
    increase strictly, or '', with no grid built: dt must exceed 4 ulp of
    far, the largest of |t0|, |t1| and t1 - t0, as i * dt and t0 + i * dt
    each round by at most one ulp of far (the spacing doubles just past a
    power of two), so neighbouring times never coincide."""
    # past 2^53 slices dt is below one ulp, and the count may be beyond
    # float range
    dt = (t1 - t0) / min(slices, 2 ** 53)
    far = max(abs(t0), abs(t1), t1 - t0)
    least = 4.0 * math.ulp(far)
    return _window_order(t0, t1) or ("" if dt > least else (
        f"must keep the {slices}-slice time grid strictly increasing, its "
        f"step above 4 ulp({far!r}) = {least!r}, got dt = {dt!r}"))


@dataclass
class HamiltonianModel:
    """Eigenenergies plus a time-dependent perturbation H1(t) = sum_j h_j(t) X_j.

    Each term is a (profile, matrix) pair with a real array-valued profile
    and a constant Hermitian matrix, which keeps Hermiticity checkable by
    construction. H1 vanishes outside the switching window.
    """

    energies: np.ndarray
    terms: list
    window: tuple

    def __post_init__(self):
        self.energies = np.asarray(self.energies, dtype=float)
        if self.energies.ndim != 1 or self.energies.size == 0:
            raise PropagationContractError("energies must be a non-empty vector")
        if not np.all(np.isfinite(self.energies)):
            raise PropagationContractError("energies must be finite")
        t0, t1 = self.window
        if problem := _window_order(t0, t1):
            raise PropagationContractError(f"window end {problem}")
        dim = self.energies.size
        checked = []
        for j, (profile, matrix) in enumerate(self.terms):
            try:
                ends = np.asarray(profile(np.array(self.window)))
                ok = ends.shape == (2,) and ends.dtype.kind in "iuf" \
                    and np.all(np.isfinite(ends))
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise PropagationContractError(
                    f"profile of term {j} must map an array of times to a "
                    f"real finite array of the same shape")
            m = np.asarray(matrix, dtype=complex)
            if m.shape != (dim, dim):
                raise PropagationContractError(
                    f"perturbation matrix shape {m.shape} does not match "
                    f"dimension {dim}")
            defect = float(np.max(np.abs(m - m.conj().T)))
            if defect > 1e-12 * max(1.0, float(np.max(np.abs(m)))):
                raise PropagationContractError(
                    f"perturbation term is not Hermitian (defect {defect!r})")
            checked.append((profile, m))
        self.terms = checked

    @property
    def dim(self) -> int:
        return self.energies.size

    def h1(self, t: float) -> np.ndarray:
        """The perturbation matrix at time t (zero outside the window)."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        t0, t1 = self.window
        if t < t0 or t > t1:
            return out
        for profile, matrix in self.terms:
            out += profile(t) * matrix
        return out

    def hermiticity_defect(self, t: float) -> float:
        h = self.h1(t)
        return float(np.max(np.abs(h - h.conj().T)))


def bohr_frequencies(model: HamiltonianModel, units: Units = Units()) -> np.ndarray:
    """w_{nl} = (eps_n - eps_l) / hbar; antisymmetric."""
    e = model.energies
    return (e[:, None] - e[None, :]) / units.hbar


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """sum_k |C_k|^2 of each row of a block of coefficient rows."""
    return np.einsum("ij,ij->i", rows, rows.conj()).real


@dataclass
class Trajectory:
    """Times, coefficient vectors, and their norms for one propagation run.

    `dim` is the dimension the run propagated. `states` may keep only its
    leading columns (a streamed run, see the module docstring); the norms
    always cover every column.
    """

    times: np.ndarray
    states: np.ndarray
    method: str
    norms: np.ndarray = field(default=None)
    dim: int | None = None
    # rows 0 and 1 with every column, kept by the steppers for norm_audit
    _head: np.ndarray | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=complex)
        if self.states.ndim != 2 or self.states.shape[0] != self.times.size:
            raise PropagationContractError("states must be one row per time")
        # a NaN time fails the comparison too
        if not np.all(self.times[1:] > self.times[:-1]):
            raise PropagationContractError(
                "time grid must be strictly increasing")
        if self.dim is None:
            self.dim = self.states.shape[1]
        elif self.states.shape[1] > self.dim:
            raise PropagationContractError(
                f"{self.states.shape[1]} state columns exceed dimension "
                f"{self.dim}")
        if self.norms is None:
            self.norms = self.compute_norms()
        else:
            self.norms = np.asarray(self.norms, dtype=float)
            if self.norms.shape != self.times.shape:
                raise PropagationContractError("norms must align with times")

    def compute_norms(self) -> np.ndarray:
        if self.states.shape[1] < self.dim:
            raise PropagationContractError(
                "a trajectory with truncated rows needs its recorded norms")
        return _row_norms(self.states)


def _start(times: np.ndarray, c0: np.ndarray, tracked, method) -> Trajectory:
    """A stepper's Trajectory, checked before its first step: row 0 is c0,
    the other rows and norms are left for _blocks to fill."""
    if tracked is not None and (problem := _at_least(0)(tracked, None)):
        raise PropagationContractError(f"tracked column count {problem}")
    keep = c0.size if tracked is None else min(tracked, c0.size)
    out = Trajectory(times, np.empty((times.size, keep), dtype=complex),
                     method, np.empty(times.size), c0.size)
    out.norms[0] = _row_norms(c0[None, :])[0]
    out.states[0] = c0[:keep]
    out._head = np.empty((2, c0.size), dtype=complex)
    out._head[0] = c0
    return out


def _blocks(out: Trajectory):
    """(step index of the first row, rows to fill) for rows 1..n_slices.

    Hands out the rows in blocks of _CHUNK_ENTRIES entries of one reused
    buffer for the stepper to fill, and takes each block into out (its
    norms, and a copy of its kept columns) when the stepper asks for the
    next one; the buffer's rows are then overwritten. Row 1, the first
    buffer row, is also copied in full into out's head.
    """
    n, dim, keep = out.times.size, out.dim, out.states.shape[1]
    rows = max(1, _CHUNK_ENTRIES // dim)
    buffer = np.empty((min(rows, n - 1), dim), dtype=complex)
    for lo in range(1, n, rows):
        hi = min(lo + rows, n)
        block = buffer[:hi - lo]
        yield lo - 1, block
        out.norms[lo:hi] = _row_norms(block)
        out.states[lo:hi] = block[:, :keep]
        if lo == 1:
            out._head[1] = block[0]


def _prepare(c0, model: HamiltonianModel, n_slices: int, units: Units):
    c = np.asarray(c0, dtype=complex).copy()
    if c.shape != (model.dim,):
        raise PropagationContractError(
            f"initial coefficients have shape {c.shape}, expected ({model.dim},)")
    if problem := _at_least(1)(n_slices, None):
        raise PropagationContractError(f"slice count {problem}")
    t0, t1 = model.window
    if problem := _increasing_grid(t0, t1, n_slices):
        raise PropagationContractError(f"window {model.window!r} {problem}")
    dt = (t1 - t0) / n_slices
    times = np.arange(n_slices + 1, dtype=float)
    times *= dt
    times += t0
    return c, times, dt


def _sample(model: HamiltonianModel, times: np.ndarray):
    """(times, terms) table of profiles, one call per term; the matrices."""
    return (np.reshape([p(times) for p, _ in model.terms], (-1, times.size)).T,
            np.array([m for _, m in model.terms],
                     dtype=complex).reshape(-1, model.dim, model.dim))


def euler_propagate(c0, model: HamiltonianModel, n_slices: int,
                    units: Units = Units(), tracked: int | None = None
                    ) -> Trajectory:
    """First-order explicit slicing with left-endpoint rotating-frame phases.

    C_k(t_{i+1}) = C_k(t_i) - (i/hbar) sum_{k'} C_{k'}(t_i) (H1)_{kk'}
    exp(i w_{kk'} t_i) dt. Norm growth along the way is recorded, never
    corrected.

    The update is evaluated without forming the dim x dim phase matrix: the
    profiles are sampled once on the left endpoints with -i dt/hbar folded
    in as a_{ij}, and exp(i w_{nl} t) = d_n(t) conj(d_l(t)) with d(t) =
    exp(i eps t / hbar), built in row chunks. A step is C_{i+1} = C_i + d *
    sum_j a_{ij} X_j (conj(d) * C_i). Every left endpoint lies inside the
    window, so h1's window rule never zeroes a step. The returned states
    keep the leading `tracked` columns (all when None); the norms cover all.
    """
    c, times, dt = _prepare(c0, model, n_slices, units)
    out = _start(times, c, tracked, "euler")
    left = times[:-1]
    a, xs = _sample(model, left)
    a = a * (-1j * dt / units.hbar)
    freq = model.energies / units.hbar
    for lo, block in _blocks(out):
        hi = lo + len(block)
        d = np.exp(1j * np.outer(left[lo:hi], freq))
        for dn, dl, ai, row in zip(d, d.conj(), a[lo:hi], block):
            z = np.dot(ai, xs @ (dl * c))
            np.multiply(dn, z, out=z)
            # row may be the buffer row that holds c (one row per block)
            np.add(z, c, out=row)
            c = row
    return out


CLOSED_FORM_TOL = 1e-12     # largest one-step defect norm_audit passes
_POLAR_SWEEPS = 3
_CHUNK_ENTRIES = 2 ** 11    # complex entries per temporary: 32 KB


def _split_terms(model: HamiltonianModel):
    """Split the terms: general matrices, and (profile, scale) for scale * I."""
    eye = np.eye(model.dim)
    general, scalar = [], []
    for profile, matrix in model.terms:
        if np.array_equal(matrix, matrix[0, 0] * eye):
            scalar.append((profile, matrix[0, 0].real))
        else:
            general.append((profile, matrix))
    return general, scalar


def _polar(u: np.ndarray) -> np.ndarray:
    """Refine a nearly unitary matrix toward its unitary polar factor.

    Newton-Schulz iteration u <- u (3I - u^H u) / 2 (Higham, Functions of
    Matrices, 2008, sec. 8.3); each sweep squares the unitarity defect.
    """
    three = 3.0 * np.eye(u.shape[0])
    for _ in range(_POLAR_SWEEPS):
        u = 0.5 * u @ (three - u.conj().T @ u)
    return u


def _eigenbasis(model: HamiltonianModel, x: np.ndarray, c: np.ndarray,
                t: float, dt: float, units: Units):
    """Set-up of a step in the eigenbasis of the one general term's X.

    Returns Lambda and V of X = V Lambda V^H, the free step U = V^H
    diag(exp(-i eps dt / hbar)) V, eps / hbar and w = V^H D(t)^H c, for the
    first step's time t. V and U are polished by Newton-Schulz polar sweeps.
    """
    lam, v = np.linalg.eigh(x)
    v = _polar(v)
    freq = model.energies / units.hbar
    u = _polar(v.conj().T @ (np.exp(-1j * freq * dt)[:, None] * v))
    w = v.conj().T @ (np.exp(-1j * freq * t) * c)
    return lam, v, u, freq, w


def _switches(profile, scalar, grid: np.ndarray):
    """The general term's profile s and the identity shift at `grid`.

    Each is one table, filled _CHUNK_ENTRIES samples at a time, so no
    temporary of a profile outgrows one chunk; elementwise forms round on
    a slice as on the whole grid, so every sample keeps its bits.
    """
    s, shifts = np.empty(grid.size), np.zeros(grid.size)
    for lo in range(0, grid.size, _CHUNK_ENTRIES):
        chunk = slice(lo, lo + _CHUNK_ENTRIES)
        times, shift = grid[chunk], shifts[chunk]
        s[chunk] = profile(times)
        for prof, scale in scalar:
            shift += scale * prof(times)
    return s, shifts


def unitary_propagate(c0, model: HamiltonianModel, n_slices: int,
                      units: Units = Units(), tracked: int | None = None
                      ) -> Trajectory:
    """Cayley (Crank-Nicolson) stepping at the midpoint time.

    (I + i dt/2hbar Htilde) C_{i+1} = (I - i dt/2hbar Htilde) C_i with
    Htilde = D H1 D^H the rotating-frame matrix at t_m = t_i + dt/2 and
    D(t) = diag(exp(i eps t / hbar)). Exactly unitary for Hermitian Htilde,
    so the step never meets a singular matrix for real dt.

    When H1(t) = s(t) X + c(t) I (one term with a general matrix X, any
    number whose matrix is exactly a multiple of I), the step is taken in
    the eigenbasis X = V Lambda V^H. There w_i = V^H D(t_m,i)^H C_i obeys
    w_{i+1} = U (r_i * w_i), with the constant U = V^H diag(exp(-i eps dt /
    hbar)) V and the diagonal Cayley factor r_i = (1 - ih z) / (1 + ih z),
    z = s(t_m,i) Lambda + c(t_m,i), h = dt / 2hbar. V and U are refined
    toward exact unitarity by Newton-Schulz polar sweeps, which keeps the
    norm drift at round-off over long runs. The coefficients are rebuilt as
    C_{i+1} = D(t_m,i) V (r_i * w_i) in row chunks. The midpoints, s and c
    are formed _CHUNK_ENTRIES steps at a time, each block reading its slice
    of the current chunk. Any other model, including one without terms, is
    stepped with one linear solve per step. The returned states keep the
    leading `tracked` columns (all when None); the norms cover all.
    """
    c, times, dt = _prepare(c0, model, n_slices, units)
    out = _start(times, c, tracked, "cayley")
    half = 0.5j * dt / units.hbar
    general, scalar = _split_terms(model)
    if len(general) != 1:
        tm = times[:-1] + 0.5 * dt
        values, xs = _sample(model, tm)
        omega = bohr_frequencies(model, units)
        eye = np.eye(model.dim, dtype=complex)
        for lo, block in _blocks(out):
            hi = lo + len(block)
            h1s = np.tensordot(values[lo:hi], xs, 1)    # H1 at each midpoint
            for t, h1, row in zip(tm[lo:hi], h1s, block):
                m = h1 * np.exp(1j * omega * t)
                c = np.linalg.solve(eye + half * m, c - half * (m @ c))
                row[:] = c
        return out

    (profile, x), = general
    lam, v, u, freq, w = _eigenbasis(model, x, c, times[0] + 0.5 * dt, dt,
                                     units)
    # bound once: a step writes row = r * w, then w = U row, in place
    step, scale = u.dot, np.multiply
    lo = hi = 0
    for a, block in _blocks(out):
        b = a + len(block)
        if b > hi:
            # the midpoints, profile and shift of _CHUNK_ENTRIES steps from
            # this block on; blocks never outgrow a chunk
            lo, hi = a, min(a + _CHUNK_ENTRIES, n_slices)
            tm = times[lo:hi] + 0.5 * dt
            s, shift = _switches(profile, scalar, tm)
        k = slice(a - lo, b - lo)
        ihz = half * (s[k, None] * lam + shift[k, None])
        # the Cayley factors (1 - ihz) / (1 + ihz), formed in ihz
        factors = np.divide(1.0 - ihz, np.add(1.0, ihz, out=ihz), out=ihz)
        for r, row in zip(factors, block):
            scale(r, w, out=row)
            step(row, out=w)
        np.multiply(block @ v.T, np.exp(1j * (tm[k, None] * freq)),
                    out=block)
    return out


def euler_final_norm(c0, model: HamiltonianModel, n_slices: int,
                     units: Units = Units()) -> float:
    """sum_k |C_k|^2 after euler_propagate's n_slices steps, norm only.

    For H1(t) = s(t) X + c(t) I the first-order step is taken in the
    eigenbasis of X, as unitary_propagate takes its Cayley step: w_{i+1} =
    U (r_i * w_i) with r_i = 1 - i (dt/hbar) (s(t_i) Lambda + c(t_i)) at
    the left endpoints t_i. D and V are unitary, so |w_N|^2 = |C_N|^2.
    r_i depends on (s(t_i), c(t_i)) alone: a run of m >= 2 steps on which
    that pair repeats exactly is one matrix power (U diag(r))^m, and the
    other steps are taken one by one. The result agrees with the literal
    run to round-off, not bit for bit. Any other model is run literally
    with no columns kept.
    """
    general, scalar = _split_terms(model)
    if len(general) != 1:
        return float(euler_propagate(c0, model, n_slices, units,
                                     tracked=0).norms[-1])
    c, times, dt = _prepare(c0, model, n_slices, units)
    left = times[:-1]
    (profile, x), = general
    lam, _, u, _, w = _eigenbasis(model, x, c, left[0], dt, units)
    # the run-of-equal-steps search below reads s and the shift whole
    s, shift = _switches(profile, scalar, left)
    idt = 1j * dt / units.hbar
    rows = max(1, _CHUNK_ENTRIES // model.dim)
    step = u.dot

    def steps(w, lo, hi):
        for a in range(lo, hi, rows):
            b = min(a + rows, hi)
            for r in 1.0 - idt * (s[a:b, None] * lam + shift[a:b, None]):
                w = step(r * w)
        return w

    # repeats[i] marks step i as a repeat of step i - 1; each rise and fall
    # of it bounds one run [a, b) of equal steps
    repeats = np.zeros(n_slices + 1, dtype=np.int8)
    repeats[1:-1] = (s[1:] == s[:-1]) & (shift[1:] == shift[:-1])
    lo = 0
    for a, b in np.flatnonzero(np.diff(repeats)).reshape(-1, 2) + (0, 1):
        w = steps(w, lo, a)
        m = b - a
        r = 1.0 - idt * (s[a] * lam + shift[a])
        w = np.linalg.matrix_power(u * r, m) @ w
        lo = b
    return float(_row_norms(steps(w, lo, n_slices)[None, :])[0])


@dataclass
class NormAuditReport:
    """Outcome of the norm-growth audit of a first-order sliced trajectory."""

    s_index: int
    pure_defect: float
    step1_total: float
    step1_off_diagonal: float
    monotone: bool
    max_decrease: float
    first_strict_step: int | None
    closed_form_defect: float
    passed: bool

    def to_text(self) -> str:
        def mark(ok):
            return "pass" if ok else "FAIL"

        lines = [
            f"initial state: pure at index {self.s_index} "
            f"(defect {self.pure_defect!r})",
            f"|C_s(t1)|^2 + off-diagonal = {self.step1_total!r} >= 1: "
            f"{mark(self.step1_total >= 1.0)}",
            f"off-diagonal weight at t1 = {self.step1_off_diagonal!r} >= 0: "
            f"{mark(self.step1_off_diagonal >= 0.0)}",
            f"norms non-decreasing: {mark(self.monotone)} "
            f"(largest decrease {self.max_decrease!r})",
        ]
        if self.first_strict_step is None:
            lines.append("strict growth: never (all couplings into the initial "
                         "state vanish on the grid)")
        else:
            lines.append(f"strict growth first appears at step "
                         f"{self.first_strict_step}")
        lines.append(f"one-step closed form defect: "
                     f"{self.closed_form_defect!r}: "
                     f"{mark(self.closed_form_defect < CLOSED_FORM_TOL)}")
        lines.append(f"audit: {mark(self.passed)}")
        return "\n".join(lines)


def norm_audit(trajectory: Trajectory, model: HamiltonianModel,
               units: Units = Units()) -> NormAuditReport:
    """Audit the norm chain of a first-order sliced run from a pure state.

    Checks |C_s(t1)|^2 >= 1 via the total and monotone growth of the norms,
    and reports the off-diagonal weight at t1 and the first step with a
    strict increase over 1. The weight is a sum of squares, so only a NaN
    entry could make it negative, and that entry already makes the total
    NaN, which fails. The chain is specific to the explicit first-order
    update; trajectories from other integrators are rejected. The one-step
    norm is also compared against the model's closed form
    1 + (dt/hbar)^2 sum_k |(H1)_{ks}|^2.

    Rows 0 and 1 are read in full, after them only the norms: a stepper's
    run keeps full copies of both rows, so it may keep any number of
    columns; a trajectory built from its states must keep every column.
    """
    if trajectory.method != "euler":
        raise PropagationContractError(
            f"norm audit applies to first-order sliced trajectories, got "
            f"{trajectory.method!r}")
    head = trajectory.states[:2]
    if head.shape[1] < trajectory.dim:
        if trajectory._head is None:
            raise PropagationContractError(
                f"norm audit reads every coefficient of rows 0 and 1, but "
                f"the trajectory keeps {head.shape[1]} of {trajectory.dim} "
                f"and no full copy of them")
        head = trajectory._head
    c0 = head[0]
    s = int(np.argmax(np.abs(c0)))
    pure_defect = float(abs(c0[s] - 1.0) + np.sum(np.abs(np.delete(c0, s))))
    if pure_defect > 1e-9:
        raise PropagationContractError(
            f"audit requires a pure initial state; defect {pure_defect!r}")

    norms = trajectory.norms
    step1 = norms[1]
    off_diag = float(np.sum(np.abs(np.delete(head[1], s)) ** 2))
    diffs = np.diff(norms)
    max_decrease = float(-diffs.min())
    monotone = bool(max_decrease <= 1e-15 * max(1.0, norms.max()))
    strict = np.nonzero(norms > 1.0)[0]
    first_strict = int(strict[0]) if strict.size else None

    dt = float(trajectory.times[1] - trajectory.times[0])
    column = model.h1(float(trajectory.times[0]))[:, s]
    predicted = 1.0 + (dt / units.hbar) ** 2 * float(np.sum(np.abs(column) ** 2))
    closed_defect = float(abs(step1 - predicted))

    passed = step1 >= 1.0 and monotone and closed_defect < CLOSED_FORM_TOL
    return NormAuditReport(s, pure_defect, float(step1), off_diag, monotone,
                           max_decrease, first_strict, closed_defect, passed)


def box_energies(width: float, n_basis: int, units: Units = Units()) -> np.ndarray:
    """eps_n = (n pi hbar / L)^2 / 2 for n = 1..n_basis."""
    if problem := _at_least(1)(n_basis, None):
        raise PropagationContractError(f"n_basis {problem}")
    n = np.arange(1, n_basis + 1, dtype=float)
    return (n * math.pi * units.hbar / width) ** 2 / 2.0


def dipole_matrix_elements_box(width: float, n_basis: int) -> np.ndarray:
    """x_{nm} for box eigenstates: L/2 on the diagonal, opposite parity couples.

    x_{nm} = -8 L n m / (pi^2 (n^2 - m^2)^2) for n+m odd, 0 for same parity.
    """
    if problem := _at_least(2)(n_basis, None):
        raise PropagationContractError(f"dipole matrix n_basis {problem}")
    n = np.arange(1, n_basis + 1, dtype=float)
    x = np.zeros((n_basis, n_basis))
    np.fill_diagonal(x, width / 2.0)
    for i in range(n_basis):
        for j in range(i + 1, n_basis):
            ni, nj = n[i], n[j]
            if int(ni + nj) % 2 == 1:
                x[i, j] = x[j, i] = -8.0 * width * ni * nj \
                    / (math.pi ** 2 * (ni * ni - nj * nj) ** 2)
    return x


def momentum_matrix_elements_box(width: float, n_basis: int,
                                 units: Units = Units()) -> np.ndarray:
    """p_{nm} = <n| -i hbar d/dx |m>: -4 i hbar n m / (L (n^2 - m^2)), n+m odd."""
    if problem := _at_least(2)(n_basis, None):
        raise PropagationContractError(f"momentum matrix n_basis {problem}")
    p = np.zeros((n_basis, n_basis), dtype=complex)
    for i in range(n_basis):
        for j in range(n_basis):
            ni, nj = i + 1, j + 1
            if (ni + nj) % 2 == 1:
                p[i, j] = -4j * units.hbar * ni * nj \
                    / (width * (ni * ni - nj * nj))
    return p


def box_dipole_model(width: float, n_basis: int, amplitude: float,
                     ramp_time: float, window, units: Units = Units(),
                     profile: str = "ramp") -> HamiltonianModel:
    """H1(t) = amplitude * switch(t) * x on the box basis."""
    x = dipole_matrix_elements_box(width, n_basis)
    switch, _ = switch_profile(profile, ramp_time, amplitude)
    return HamiltonianModel(box_energies(width, n_basis, units), [(switch, x)],
                            window)


def write_trajectory_csv(trajectory: Trajectory, path,
                         tracked: int = 8) -> dict:
    """step, t, norm_sq, re/im of the first `tracked` coefficients.

    The rows stream to write_artifact in blocks of _CHUNK_LINES, each block
    formatted from its own contiguous copy and tolist(), so no artifact is
    held whole; the column check runs before the file opens, so a refused
    write creates no file.
    """
    k = min(tracked, trajectory.dim)
    if not 0 <= k <= trajectory.states.shape[1]:
        raise PropagationContractError(
            f"cannot write {tracked} coefficients: the trajectory keeps "
            f"{trajectory.states.shape[1]} of {trajectory.dim}")
    header = ["step", "t", "norm_sq"]
    for j in range(1, k + 1):
        header += [f"re_c{j}", f"im_c{j}"]

    def lines():
        yield ",".join(header)
        for start in range(0, trajectory.times.size, _CHUNK_LINES):
            block = slice(start, start + _CHUNK_LINES)
            # a complex row viewed as floats interleaves re and im per
            # coefficient
            parts = np.ascontiguousarray(
                trajectory.states[block, :k]).view(float)
            for i, (t, norm, values) in enumerate(zip(
                    trajectory.times[block].tolist(),
                    trajectory.norms[block].tolist(), parts.tolist()), start):
                yield ",".join([str(i), repr(t), repr(norm),
                                *map(repr, values)])

    return write_artifact(path, lines())
