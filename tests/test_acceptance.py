"""Acceptance gate: the eight headline claims, each with its stated tolerance.

Every test records one pass/fail line (shown in the terminal summary) and
enforces the runtime budget where one is stated.
"""

import json
import math
import time
from importlib import resources

import numpy as np
import pytest

from acceptance_report import record
from bounds import (COVARIANT_TOL, CURVE_TOL, EXPONENT_RANGE, JUMP_TOL,
                    MAGNITUDE_TOL, MAX_NORM_DEV, ONE_STEP_TOL, STATIONARY_TOL)
from expansionlab.basis import (box_eigenfunction, landau_quadrature,
                                landau_radial)
from expansionlab.expansion import (convergence_scan,
                                    landau_plane_wave_coefficient,
                                    landau_plane_wave_overlap, project)
from expansionlab.gauge import (GaugeFunction, GaugeJumpScenario,
                                PhaseFitScenario, gauge_jump_experiment,
                                phase_factored_expansion_test,
                                zero_gauge_function)
from expansionlab.propagation import (HamiltonianModel,
                                      box_dipole_model, euler_propagate,
                                      norm_audit, unitary_propagate,
                                      smooth_ramp, smooth_ramp_dt)
from expansionlab.specfun import (QuadratureSpec, confluent_hypergeometric,
                                  integrate_semi_infinite, laguerre)


def pure_state(dim, s=0):
    c = np.zeros(dim, dtype=complex)
    c[s] = 1.0
    return c


def test_criterion_1_equal_magnitude_recurrence():
    t0 = time.perf_counter()
    vals, errs = [], []
    for n in range(0, 21):
        v, e = landau_plane_wave_overlap(n, 1.0)
        vals.append(v)
        errs.append(e)
    ratio_defect = max(abs(abs(hi) / abs(lo) - 1.0)
                       for lo, hi in zip(vals, vals[1:]))
    route_defect = max(
        abs(landau_plane_wave_coefficient(n, 1.0) - vals[n])
        - (10.0 * errs[n] + 1e-12) for n in range(21))
    elapsed = time.perf_counter() - t0
    ok = ratio_defect < MAGNITUDE_TOL and route_defect <= 0.0 and elapsed < 5.0
    record("1 magnitude recurrence",
           ok, f"max | |C(n+1)|/|C(n)| - 1 | = {ratio_defect:.3e} "
               f"(tol {MAGNITUDE_TOL:g}), routes agree, {elapsed:.2f}s (< 5s)")
    assert ratio_defect < MAGNITUDE_TOL
    assert route_defect <= 0.0
    assert elapsed < 5.0


def test_criterion_2_divergence_verdict():
    t0 = time.perf_counter()
    report = convergence_scan(
        lambda n: landau_plane_wave_coefficient(n, 1.0), 200)
    slope_target = landau_plane_wave_coefficient(0, 1.0) ** 2
    elapsed = time.perf_counter() - t0
    slope_ok = abs(report.slope - slope_target) <= 0.05 * slope_target
    ok = report.verdict == "divergent" and slope_ok and elapsed < 10.0
    record("2 divergence verdict",
           ok, f"verdict={report.verdict}, slope={report.slope:.4f} "
               f"(target {slope_target:.4f} within 5%), {elapsed:.2f}s (< 10s)")
    assert report.verdict == "divergent"
    assert slope_ok
    assert elapsed < 10.0


def test_criterion_3_one_step_arithmetic():
    worst = 0.0
    for h, dt in ((0.5, 0.01), (2.0, 0.1), (-1.3, 0.05), (0.4, 0.02)):
        m = HamiltonianModel((0.0, 1.0),
                             [(np.ones_like,
                               np.diag([h, 0.0]).astype(complex))],
                             (0.0, dt))
        traj = euler_propagate(pure_state(2), m, 1)
        worst = max(worst, abs(traj.norms[1] - (1.0 + (h * dt) ** 2)))
    ok = worst < ONE_STEP_TOL
    record("3 one-step arithmetic",
           ok, f"max closed-form defect {worst:.3e} (tol {ONE_STEP_TOL:g})")
    assert worst < ONE_STEP_TOL


def test_criterion_4_norm_growth_audit():
    t0 = time.perf_counter()
    m = box_dipole_model(1.0, 32, 1.0, 0.5, (0.0, 1.0), "ramp")
    traj = euler_propagate(pure_state(32), m, 1000)
    report = norm_audit(traj, m)
    per_step = []
    for n in (1000, 2000, 4000):
        t = traj if n == 1000 else euler_propagate(pure_state(32), m, n)
        per_step.append((t.norms[-1] - 1.0) / n)
    exponents = [math.log2(a / b) for a, b in zip(per_step, per_step[1:])]
    lo, hi = EXPONENT_RANGE
    expo_ok = all(lo <= e <= hi for e in exponents)
    elapsed = time.perf_counter() - t0
    ok = (report.monotone and report.first_strict_step is not None
          and report.passed and expo_ok and elapsed < 2.0)
    record("4 norm-growth audit",
           ok, f"monotone, strict from step {report.first_strict_step}, "
               f"refinement exponents {[round(e, 4) for e in exponents]} "
               f"(within {EXPONENT_RANGE}), {elapsed:.2f}s (< 2s)")
    assert report.monotone
    assert report.first_strict_step is not None
    assert report.passed
    assert expo_ok
    assert elapsed < 2.0


def test_criterion_5_unitary_contrast():
    t0 = time.perf_counter()
    m = box_dipole_model(1.0, 32, 1.0, 0.5, (0.0, 1.0), "ramp")
    # the norms alone: test_streamed_rows_match_full_run_property pins a
    # tracked=0 run's norms to the full run's bit for bit
    traj = unitary_propagate(pure_state(32), m, 100_000, tracked=0)
    dev = float(np.max(np.abs(traj.norms - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = dev < MAX_NORM_DEV and elapsed < 5.0
    record("5 unitary contrast",
           ok, f"max |norm^2 - 1| = {dev:.3e} over 1e5 Cayley steps "
               f"(tol {MAX_NORM_DEV:g}), {elapsed:.2f}s (< 5s)")
    assert dev < MAX_NORM_DEV
    assert elapsed < 5.0


def test_criterion_6_velocity_jump_and_covariance():
    t0 = time.perf_counter()
    scn = GaugeJumpScenario()
    res = gauge_jump_experiment(scn)
    jump_defect = abs(res.report_gauge1.jump_metric - scn.amplitude)
    covar = float(np.max(res.covariant_discrepancy))
    elapsed = time.perf_counter() - t0
    ok = jump_defect < JUMP_TOL and covar < COVARIANT_TOL and elapsed < 1.0
    record("6 velocity jump",
           ok, f"|jump - A0| = {jump_defect:.3e} (tol {JUMP_TOL:g}), "
               f"covariant discrepancy {covar:.3e} (tol {COVARIANT_TOL:g}), "
               f"{elapsed:.2f}s (< 1s)")
    assert jump_defect < JUMP_TOL
    assert covar < COVARIANT_TOL
    assert elapsed < 1.0


def test_criterion_7_phase_factored_residuals():
    path = resources.files("expansionlab") / "data" / "golden" / \
        "phase_fit.json"
    golden = json.loads(path.read_text())
    scn = PhaseFitScenario()
    strength, tau = 0.8, 0.3
    g = GaugeFunction(
        f=lambda t, x: strength * smooth_ramp(t, tau) * x,
        grad_f=lambda t, x: strength * smooth_ramp(t, tau) + 0.0 * x,
        dt_f=lambda t, x: strength * smooth_ramp_dt(t, tau) * x)
    driven = phase_factored_expansion_test(scn, g)
    curve_dev = max(abs(got - want) for got, want in
                    zip(driven.final_residuals(), golden["residuals"]))

    control_scn = PhaseFitScenario(amplitude=0.0)
    control = phase_factored_expansion_test(control_scn,
                                            zero_gauge_function())
    control_max = float(np.max(control.residuals))
    ok = curve_dev < CURVE_TOL and control_max < STATIONARY_TOL
    record("7 phase-factored fit",
           ok, f"curve deviation from frozen golden {curve_dev:.3e} "
               f"(tol {CURVE_TOL:g}), stationary control {control_max:.3e} "
               f"(tol {STATIONARY_TOL:g})")
    assert curve_dev < CURVE_TOL
    assert control_max < STATIONARY_TOL


def test_criterion_8_property_suites():
    t0 = time.perf_counter()

    # cross-oracle: terminating series vs recurrence, n <= 50
    worst = 0.0
    for n in range(0, 51, 10):
        for u in range(0, 51, 10):
            a = confluent_hypergeometric(float(-n), 1.0, float(u))
            b = laguerre(n, float(u))
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    cross_ok = worst < 1e-12

    # Landau orthonormality, m, n <= 10, tolerance 1e-8
    spec = landau_quadrature(1.0)
    ortho_dev = 0.0
    for m in range(11):
        for n in range(m, 11):
            val, _ = integrate_semi_infinite(
                lambda rho: landau_radial(m, 0, rho, 1.0)
                * landau_radial(n, 0, rho, 1.0) * rho, spec)
            ortho_dev = max(ortho_dev,
                            abs(val - (1.0 if m == n else 0.0)))
    ortho_ok = ortho_dev < 1e-8

    # projection linearity
    rng = np.random.default_rng(14)
    alpha = complex(*rng.standard_normal(2))
    beta = complex(*rng.standard_normal(2))
    qspec = QuadratureSpec()
    f = lambda x: complex(box_eigenfunction(2, x, 1.0))
    gg = lambda x: complex(box_eigenfunction(5, x, 1.0) * 0.6
                           + box_eigenfunction(1, x, 1.0) * 0.8)
    cf = project(f, 1.0, 8, qspec).coefficients()
    cg = project(gg, 1.0, 8, qspec).coefficients()
    cc = project(lambda x: alpha * f(x) + beta * gg(x), 1.0, 8,
                 qspec).coefficients()
    lin_dev = float(np.max(np.abs(cc - (alpha * cf + beta * cg))))
    lin_ok = lin_dev < 1e-10

    # Hermiticity preserved by every assembly path
    m1 = box_dipole_model(1.0, 16, 1.0, 0.5, (0.0, 1.0), "ramp")
    herm_dev = max(m1.hermiticity_defect(t) for t in (0.1, 0.5, 0.9))
    herm_ok = herm_dev == 0.0

    elapsed = time.perf_counter() - t0
    ok = cross_ok and ortho_ok and lin_ok and herm_ok and elapsed < 60.0
    record("8 property suites",
           ok, f"cross-oracle {worst:.2e}, orthonormality {ortho_dev:.2e} "
               f"(tol 1e-8), linearity {lin_dev:.2e}, hermiticity "
               f"{herm_dev:.1e}, {elapsed:.1f}s (< 60s)")
    assert cross_ok and ortho_ok and lin_ok and herm_ok
    assert elapsed < 60.0


def test_reproduce_all_runs_clean_under_budget(tmp_path):
    # the one-shot reproduction of every claim must succeed end to end
    from expansionlab.cli import cmd_reproduce_all, _bundled_scenario_dir

    t0 = time.perf_counter()
    rc = cmd_reproduce_all(_bundled_scenario_dir(), tmp_path / "out")
    elapsed = time.perf_counter() - t0
    ok = rc == 0 and elapsed < 120.0
    record("reproduce-all", ok,
           f"exit {rc}, {elapsed:.1f}s (< 120s)")
    assert rc == 0
    assert elapsed < 120.0


def test_each_bound_has_one_value():
    # every bound stated here or in the CLI tests equals its golden value,
    # the program's constant and the benchmark's; bench/ is read, not
    # imported, so nothing there is compiled or written
    import ast
    from pathlib import Path

    import bounds
    from expansionlab import propagation

    workloads = Path(__file__).resolve().parent.parent / "bench" / \
        "workloads.py"
    bench = {node.targets[0].id: ast.literal_eval(node.value)
             for node in ast.parse(workloads.read_text()).body
             if isinstance(node, ast.Assign)
             and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id.endswith("_TOL")}
    assert bench == {"CLOSED_FORM_TOL": propagation.CLOSED_FORM_TOL,
                     "ROUNDTRIP_TOL": bounds.ROUNDTRIP_TOL,
                     "GAUSSIAN_PARSEVAL_TOL": bounds.GAUSSIAN_PARSEVAL_TOL,
                     "GAUSSIAN_ROUNDTRIP_TOL": bounds.GAUSSIAN_ROUNDTRIP_TOL}
    assert propagation.CLOSED_FORM_TOL == bounds.ONE_STEP_TOL

    golden_dir = resources.files("expansionlab") / "data" / "golden"
    for name, keys in {
            "landau_planewave.json": ["magnitude_tol"],
            "box_dipole_audit.json": ["exponent_range"],
            "unitary_contrast.json": ["max_norm_dev"],
            "gauge_jump.json": ["jump_tol", "covariant_tol"],
            "phase_fit.json": ["curve_tol", "stationary_tol"]}.items():
        golden = json.loads((golden_dir / name).read_text())
        for key in keys:
            assert golden[key] == getattr(bounds, key.upper()), (name, key)
