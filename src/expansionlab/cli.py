"""Scenario-driven command line: expand, propagate, gauge, reproduce-all.

Each command reads a scenario file of its own kind, writes CSV artifacts, a
plot, and a manifest with checksums into the output directory, and returns a
contract exit code: 0 success, 1 configuration or usage error, 2 numerical
non-convergence, 3 physical-consistency failure. Exceptions map to a code
by class: specfun.NonConvergenceError to 2, gauge.PhysicalConsistencyError to
3, and ValueError, OSError and ArithmeticError to 1; the three families are
disjoint. reproduce-all runs the bundled claim scenarios and holds each fresh
result to its golden table (EXPANSIONLAB_GOLDEN_DIR overrides their location)
through _CLAIM_ROWS, one row per compared quantity; it exits 3 if a row
fails, else 2 if a scenario did not converge.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, basis, expansion, gauge, propagation, svgplot
from .gauge import (GaugeFieldMismatchError, GaugeFunction,
                    GaugeJumpScenario, PhaseFitScenario,
                    PhysicalConsistencyError, zero_gauge_function)
from .scenario import (INT, INTS, REAL, REQUIRED, RunManifest, Scenario,
                       ScenarioError, _at_least, _at_most, _in_1_to,
                       _positive, load_scenario, read_text, write_artifact)
from .specfun import NonConvergenceError, QuadratureSpec, integrate_interval


def _golden_dir() -> Path:
    env = os.environ.get("EXPANSIONLAB_GOLDEN_DIR")
    if env:
        return Path(env)
    return Path(resources.files("expansionlab") / "data" / "golden")


def _bundled_scenario_dir() -> Path:
    return Path(resources.files("expansionlab") / "data" / "scenarios")


def _load_golden(name: str) -> dict:
    """The parsed JSON of a golden file; a file that is not UTF-8 JSON is a
    ScenarioError at its path and line."""
    path = _golden_dir() / name
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ScenarioError(str(path), exc.lineno, f"not JSON: {exc.msg} at "
                            f"column {exc.colno}") from None


def _load_claims() -> list:
    """The claims of claims.json; a malformed file is a ValueError."""
    doc = _load_golden("claims.json")
    claims = doc.get("claims") if isinstance(doc, dict) else None
    if not (isinstance(claims, list) and claims and all(
            isinstance(c, dict) and all(isinstance(c.get(k), str) for k in
                                        ("id", "scenario", "golden"))
            for c in claims)):
        raise ValueError(f"{_golden_dir() / 'claims.json'} must hold "
                         f"'claims', a non-empty list of objects with string "
                         f"id, scenario and golden")
    return claims


def _manifest(scn: Scenario, command: str, out_dir: Path, outputs,
              tolerance_scale: float = 1.0, seed=None):
    """Write out_dir/manifest.json; outputs are the artifacts' entries."""
    RunManifest(scn.sha256(), __version__, command, tolerance_scale, seed,
                outputs).write(out_dir / "manifest.json")


# --------------------------------------------------------- scenario keys

def _normal_square(v, _):
    """_positive, and a square that is a normal float: a Landau run divides
    by a^2, a box mode by its width, a ramp by its time, and a Gaussian's
    exponent grows as 1 / sigma^2."""
    return _positive(v, _) or (
        "" if sys.float_info.min <= v * v <= sys.float_info.max else
        f"must have a square that is a normal float, got {v!r}")


def _landau_length(v, values):
    """_normal_square, and finite partial sums of |2 a^2|^2 up to n_max in
    the scan, times its divergence factor."""
    c = 2.0 * v * v
    return _normal_square(v, values) or (
        "" if expansion.SCAN_DIVERGENCE_FACTOR * c * c * (values["n_max"] + 1)
        <= sys.float_info.max else
        f"must keep the scan's partial sums of (2 a^2)^2 up to n_max = "
        f"{values['n_max']} finite, got {v!r}")


def _gaussian_sigma(v, values):
    """_normal_square, and an exponent ((x - center) / sigma)^2 that is
    finite at both walls of the well."""
    far = max(abs(values["center"]), abs(values["width"] - values["center"]))
    return _normal_square(v, values) or (
        "" if far / v * (far / v) <= sys.float_info.max else
        f"must keep ((x - center) / sigma)^2 finite on the well of width = "
        f"{values['width']!r} about center = {values['center']!r}, got {v!r}")


def _ramp_phase(tau_key):
    """The ramp's phase pi t / tau finite at every t of the window up to
    t_end (from t_start, where the section has one): the constraint of
    whichever of the ramp time `tau_key` and t_end the section reads later."""
    def constraint(_, values):
        tau, far = values[tau_key], max(abs(values["t_end"]),
                                        abs(values.get("t_start", 0.0)))
        return "" if math.pi * far / tau <= sys.float_info.max else (
            f"must keep the ramp phase pi t / {tau_key} finite up to "
            f"|t| = {far!r}, got {tau_key} = {tau!r}")
    return constraint


def _grid(refine):
    """propagation._increasing_grid at refine * n_slices slices: the
    constraint of whichever of t_end and n_slices the section reads later."""
    return lambda _, values: propagation._increasing_grid(
        values.get("t_start", 0.0), values["t_end"],
        refine * values["n_slices"])


def _when(applies, constraint):
    """constraint where applies(the values read so far) says the run reads
    the key."""
    return lambda v, values: constraint(v, values) if applies(values) else ""


def _all(*constraints):
    """The first problem that one of constraints finds, in order, or ''."""
    return lambda v, values: next(
        filter(None, (c(v, values) for c in constraints)), "")


# Every key a scenario may set, (section, key, type, default, constraint) as
# Scenario.read takes them; rows are read, and their errors raised, in order.
# The gauge defaults are the fields of the experiment classes.
_J, _F = GaugeJumpScenario, PhaseFitScenario
# a slice count, with a ceiling: bundled scenarios take up to 1 200 and the
# benchmark 2 000; at 10^12 _prepare's np.arange alone would need 7.28 TiB
_SLICES = _all(_at_least(1), _at_most(10 ** 6))
# a basis size's ceiling: bundled scenarios and the benchmark take up to 64
# states; at 1 000 the dense matrices' O(n^3) set-up takes about 10 s on a
# 2-CPU host, and the jump's doubled-node check holds a 0.6 GB mode table
_BASIS = _at_most(1000)
# default_rng draws from a non-negative seed alone
_SEED = _at_least(0)
_KEYS = (
    # a ceiling on the scan: 10^5 orders take under a second and a 5 MB
    # coefficient CSV, and _landau_length reads n_max + 1 as a float
    ("expand/landau", "n_max", INT, 200, _at_most(10 ** 5)),
    ("expand/landau", "magnetic_length", REAL, 1.0, _landau_length),
    ("expand/landau", "quad_check_max", INT, 20, _in_1_to("n_max")),
    ("expand/box", "width", REAL, 1.0, _normal_square),
    # a ceiling on the projection: each coefficient is a quadrature whose
    # cost grows with n, 2.7 s for 1 000 coefficients on a 2-CPU host
    ("expand/box", "n_max", INT, 50, _all(_at_least(1), _at_most(1000))),
    ("expand/box", "target", {"eigenstate", "gaussian"}, REQUIRED, None),
    ("expand/box", "target_n", INT, 1, _at_least(1)),
    ("expand/box", "center", REAL, lambda v: v["width"] / 2.0, None),
    ("expand/box", "sigma", REAL, lambda v: v["width"] / 10.0,
     _when(lambda v: v["target"] == "gaussian", _gaussian_sigma)),
    ("propagate", "n_slices", INT, 1000, _SLICES),
    ("propagate", "tracked", INT, 8, _at_least(0)),
    ("propagate", "well_width", REAL, 1.0, _positive),
    ("propagate", "perturbation", {"none", "dipole-ramp", "dipole-step",
                                   "random-hermitian"}, REQUIRED, None),
    # a dipole matrix couples states of opposite parity, so it needs two
    ("propagate", "n_basis", INT, 32, _all(lambda v, values: _at_least(
        2 if values["perturbation"].startswith("dipole") else 1)(v, values),
        _BASIS)),
    ("propagate", "initial_index", INT, 1, _in_1_to("n_basis")),
    ("propagate", "t_start", REAL, 0.0, None),
    # the refinement study runs the window at 4 n_slices, its finest grid
    ("propagate", "t_end", REAL, 1.0, _grid(4)),
    ("propagate", "amplitude", REAL, 1.0, None),
    ("propagate", "seed", INT, 0,
     _when(lambda v: v["perturbation"] == "random-hermitian", _SEED)),
    ("propagate", "ramp_time", REAL, 0.5,
     _when(lambda v: v["perturbation"] == "dipole-ramp", _all(
         _normal_square, _ramp_phase("ramp_time")))),
    ("gauge/jump", "well_width", REAL, _J.width, _positive),
    ("gauge/jump", "n_basis", INT, _J.n_basis, _all(_at_least(2), _BASIS)),
    ("gauge/jump", "initial_index", INT, _J.initial_index,
     _in_1_to("n_basis")),
    # the jump's Hamiltonian holds A(t)^2 / 2
    ("gauge/jump", "amplitude", REAL, _J.amplitude,
     lambda v, _: "" if v * v <= sys.float_info.max else
     f"must have a finite square, got {v!r}"),
    ("gauge/jump", "switch", {"step", "ramp"}, _J.switch, None),
    ("gauge/jump", "ramp_time", REAL, _J.ramp_time,
     _when(lambda v: v["switch"] == "ramp", _normal_square)),
    ("gauge/jump", "t_end", REAL, _J.t_end, _all(_positive, _when(
        lambda v: v["switch"] == "ramp", _ramp_phase("ramp_time")))),
    ("gauge/jump", "n_slices", INT, _J.n_slices, _all(_SLICES, _grid(1))),
    ("gauge/jump", "observe_stride", INT, _J.observe_stride, _positive),
    ("gauge/jump", "second_gauge", set(gauge._SECOND_GAUGES),
     _J.second_gauge, gauge._second_gauge),
    ("gauge/jump", "mismatch_factor", REAL, _J.mismatch_factor, None),
    ("gauge/phase-fit", "well_width", REAL, _F.width, _positive),
    ("gauge/phase-fit", "amplitude", REAL, _F.amplitude, None),
    ("gauge/phase-fit", "ramp_time", REAL, _F.ramp_time, _normal_square),
    ("gauge/phase-fit", "t_end", REAL, _F.t_end,
     _all(_positive, _ramp_phase("ramp_time"))),
    ("gauge/phase-fit", "n_slices", INT, _F.n_slices,
     _all(_SLICES, _grid(1))),
    ("gauge/phase-fit", "fit_sizes", INTS, _F.fit_sizes, gauge._fit_sizes),
    ("gauge/phase-fit", "initial_index", INT, _F.initial_index,
     gauge._fit_index),
    ("gauge/phase-fit", "n_reference", INT, _F.n_reference,
     _all(gauge._reference_size, _BASIS)),
    # the fit's mode table holds n_reference (n_grid + 1) floats: 51 MB at
    # 64 states and 10^5 points, 0.8 GB at the basis ceiling
    ("gauge/phase-fit", "n_grid", INT, _F.n_grid,
     _all(_positive, _at_most(10 ** 5))),
    ("gauge/phase-fit", "fit_stride", INT, _F.fit_stride, _positive),
    ("gauge/phase-fit", "phase_strength", REAL, 0.8, None),
    ("gauge/phase-fit", "phase_ramp_time", REAL, lambda v: v["ramp_time"],
     _all(_normal_square, _ramp_phase("phase_ramp_time"))),
)


# ---------------------------------------------------------------- expand

def _expand_landau(name: str, v: dict, scale: float):
    a, n_max, quad_max = v["magnetic_length"], v["n_max"], v["quad_check_max"]
    spec = basis.landau_quadrature(a).scaled(scale)

    closed = [expansion.landau_plane_wave_coefficient(n, a)
              for n in range(n_max + 1)]
    quad_vals, quad_errs, flags = map(
        list, zip(*expansion.landau_plane_wave_overlaps(quad_max, a, spec)))

    report = expansion.convergence_scan(closed.__getitem__, n_max)
    series = expansion.CoefficientSeries(
        [(n, complex(c), 0.0, expansion.FLAG_OK) for n, c in enumerate(closed)])

    lines = [f"scenario: {name}", "",
             "closed-form route vs quadrature route (l=0 radial overlap):",
             "n,closed,quadrature,err_estimate,abs_diff,ok"]
    worst_diff = 0.0
    for n in range(quad_max + 1):
        diff = abs(closed[n] - quad_vals[n])
        tol = 10.0 * quad_errs[n] + 1e-12
        ok = diff <= tol and flags[n] == ""
        worst_diff = max(worst_diff, diff)
        lines.append(f"{n},{closed[n]!r},{quad_vals[n]!r},{quad_errs[n]!r},"
                     f"{diff!r},{'yes' if ok else 'NO'}")
    ratios = [abs(quad_vals[n + 1]) / abs(quad_vals[n])
              for n in range(quad_max)]
    ratio_defect = max(abs(r - 1.0) for r in ratios)
    lines += ["",
              f"magnitude ratio defect max |.|C(n+1)|/|C(n)| - 1| = "
              f"{ratio_defect!r}"]
    code = 2 if any(f for f in flags) else 0
    stats = {
        "kind": "expand-landau",
        "quad": quad_vals,
        "ratio_defect": ratio_defect,
        "worst_route_diff": worst_diff,
        "verdict": report.verdict,
        "slope": report.slope,
    }
    return code, stats, series, lines, report


def _expand_box(name: str, v: dict, scale: float):
    width, n_max = v["width"], v["n_max"]
    spec = QuadratureSpec().scaled(scale)

    norm_flag = ""
    if v["target"] == "eigenstate":
        n0 = v["target_n"]
        target = lambda x: complex(basis.box_eigenfunction(n0, x, width))
    else:
        sigma, center = v["sigma"], v["center"]
        raw = lambda x: math.exp(-0.5 * ((x - center) / sigma) ** 2)
        # an unconverged norm keeps its best estimate and flags the run, as
        # an unconverged coefficient does
        nrm_sq, nrm_err, norm_flag = expansion._flagged(
            lambda: integrate_interval(lambda x: raw(x) ** 2, 0.0, width,
                                       spec))
        if not 0.0 < nrm_sq < math.inf:
            raise ValueError(f"the Gaussian of sigma = {sigma!r}, center = "
                             f"{center!r} has no positive finite norm on the "
                             f"well of width = {width!r}")
        const = 1.0 / math.sqrt(nrm_sq)
        target = lambda x: complex(const * raw(x))

    series = expansion.project(target, width, n_max, spec)
    defect = expansion.parseval_defect(series)
    coefs = series.coefficients()
    report = expansion.convergence_scan(lambda n: coefs[n - 1], n_max,
                                        n_start=1)

    xs = np.linspace(0.0, width, 201)
    _, modes = basis.box_modes(width, n_max, xs)
    synthesis = (coefs @ modes).tolist()
    round_trip = max(abs(value - target(x))
                     for value, x in zip(synthesis, xs.tolist()))

    lines = [f"scenario: {name}",
             f"parseval defect at N={n_max}: {defect!r}",
             f"max pointwise round-trip error (201-point grid): {round_trip!r}"]
    if norm_flag:
        lines.append(f"target normalisation: {norm_flag} (best estimate "
                     f"{nrm_sq!r}, error estimate {nrm_err!r})")
    code = 2 if series.flagged() or norm_flag else 0
    stats = {
        "kind": "expand-box",
        "parseval_defect": defect,
        "round_trip": float(round_trip),
        "verdict": report.verdict,
    }
    return code, stats, series, lines, report


def cmd_expand(scn: Scenario, out_dir: Path, tolerance_scale: float = 1.0):
    v = scn.read(_KEYS, "expand")
    expand = _expand_landau if v["family"] == "landau" else _expand_box
    code, stats, series, lines, report = expand(scn.name, v, tolerance_scale)
    out_dir.mkdir(parents=True, exist_ok=True)

    outputs = [
        expansion.write_coefficient_csv(series, out_dir / "coefficients.csv"),
        write_artifact(out_dir / "convergence_report.txt",
                       [*lines, "", report.to_text()]),
        svgplot.line_chart(out_dir / "partial_sums.svg",
                           "partial sums of |C_n|^2", "N",
                           "sum_{n<=N} |C_n|^2",
                           [("partial sums", report.ns, report.partial_sums)])]
    _manifest(scn, "expand", out_dir, outputs, tolerance_scale)
    return code, stats


# ------------------------------------------------------------- propagate

def _model(v: dict, seed=None):
    """(model, the seed its matrix was drawn with: None if it draws none)."""
    width, n_basis, amplitude = v["well_width"], v["n_basis"], v["amplitude"]
    kind, window = v["perturbation"], (v["t_start"], v["t_end"])
    if kind.startswith("dipole"):   # box_dipole_model builds the energies
        return propagation.box_dipole_model(
            width, n_basis, amplitude, v["ramp_time"], window,
            kind.removeprefix("dipole-")), None
    energies = propagation.box_energies(width, n_basis)
    if kind == "none":
        return propagation.HamiltonianModel(energies, [], window), None
    seed = v["seed"] if seed is None else seed
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n_basis, n_basis)) \
        + 1j * rng.standard_normal((n_basis, n_basis))
    h = 0.5 * (m + m.conj().T) * amplitude
    return propagation.HamiltonianModel(energies, [(np.ones_like, h)],
                                        window), seed


def cmd_propagate(scn: Scenario, out_dir: Path, seed=None):
    v = scn.read(_KEYS, "propagate")
    n_slices, tracked = v["n_slices"], v["tracked"]
    model, seed = _model(v, seed)
    c0 = np.zeros(model.dim, dtype=complex)
    c0[v["initial_index"] - 1] = 1.0

    # the first overflow ends the run, as an ArithmeticError (exit 1)
    with np.errstate(over="raise", invalid="raise"):
        # the runs keep `tracked` columns for the CSVs; the audit reads rows
        # 0 and 1 in full from the head the stepper keeps
        euler = propagation.euler_propagate(c0, model, n_slices,
                                            tracked=tracked)
        cayley = propagation.unitary_propagate(c0, model, n_slices,
                                               tracked=tracked)
        audit = propagation.norm_audit(euler, model)

        # refinement study: mean per-step growth should scale like dt^2;
        # the finer runs need their final norm alone
        growth = []
        for k in (1, 2, 4):
            final = euler.norms[-1] if k == 1 else \
                propagation.euler_final_norm(c0, model, n_slices * k)
            growth.append((final - 1.0) / (n_slices * k))
    exponents = []
    for g1, g2 in zip(growth, growth[1:]):
        exponents.append(math.log2(g1 / g2) if g2 > 0.0 else float("nan"))

    out_dir.mkdir(parents=True, exist_ok=True)
    euler_csv = out_dir / "euler_trajectory.csv"
    cayley_csv = out_dir / "unitary_trajectory.csv"
    outputs = [
        propagation.write_trajectory_csv(euler, euler_csv),
        propagation.write_trajectory_csv(cayley, cayley_csv),
        write_artifact(out_dir / "norm_audit.txt", [audit.to_text()]),
        svgplot.line_chart(out_dir / "norms.svg",
                           "norm audit: first-order slicing vs Cayley",
                           "t", "sum_k |C_k|^2",
                           [("first-order", euler.times, euler.norms),
                            ("cayley", cayley.times, cayley.norms)])]
    _manifest(scn, "propagate", out_dir, outputs, seed=seed)

    stats = {
        "kind": "propagate",
        "euler_final_norm": float(euler.norms[-1]),
        "cayley_max_dev": float(np.max(np.abs(cayley.norms - 1.0))),
        "monotone": audit.monotone,
        "first_strict_step": audit.first_strict_step,
        "closed_form_defect": audit.closed_form_defect,
        "audit_passed": audit.passed,
        "growth_exponents": exponents,
        "n_slices": n_slices,
    }
    return (0 if audit.passed else 3), stats


# ----------------------------------------------------------------- gauge

def _experiment(cls, v: dict):
    """cls from its section's values; well_width sets width."""
    names = {f.name for f in dataclasses.fields(cls)} - {"width"}
    return cls(width=v["well_width"], **{name: v[name] for name in names})


def _phase_gauge(v: dict) -> GaugeFunction:
    """The phase-fit experiment's gauge function f = strength ramp(t) x."""
    return gauge.linear_gauge_function(*propagation.switch_profile(
        "ramp", v["phase_ramp_time"], v["phase_strength"]))


def cmd_gauge(scn: Scenario, out_dir: Path):
    v = scn.read(_KEYS, "gauge")
    jump = v["experiment"] == "jump"
    setup = _experiment(GaugeJumpScenario if jump else PhaseFitScenario, v)
    if jump:
        result = gauge.gauge_jump_experiment(setup)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "observables.csv"
        svg_path = out_dir / "velocity.svg"
        t = result.report_gauge1.times
        outputs = [
            gauge.write_observable_csv(
                csv_path, [result.report_gauge1, result.report_gauge2]),
            write_artifact(out_dir / "summary.txt", [result.summary_text()]),
            svgplot.line_chart(
                svg_path, "velocity expectation across the gauge pair",
                "t", "<v_x>",
                [("gauge 1", t, result.report_gauge1.v_series[:, 0]),
                 ("gauge 2 (co-transformed)", t,
                  result.report_gauge2.v_series[:, 0])])]
        _manifest(scn, "gauge", out_dir, outputs)
        stats = {
            "kind": "gauge-jump",
            "amplitude": setup.amplitude,
            "jump_metric": result.report_gauge1.jump_metric,
            "jump_metric_gauge2": result.report_gauge2.jump_metric,
            "max_naive_discrepancy": float(np.max(result.naive_discrepancy)),
            "max_covariant_discrepancy":
                float(np.max(result.covariant_discrepancy)),
            "field_defect": result.field_defect,
        }
        return 0, stats

    report = gauge.phase_factored_expansion_test(setup, _phase_gauge(v))
    control_scn = dataclasses.replace(setup, amplitude=0.0)
    control = gauge.phase_factored_expansion_test(control_scn,
                                                  zero_gauge_function())
    control_max = float(np.max(control.residuals))

    out_dir.mkdir(parents=True, exist_ok=True)
    svg_path = out_dir / "residuals.svg"
    outputs = [
        report.write_csv(out_dir / "residuals.csv"),
        write_artifact(out_dir / "summary.txt", [
            report.to_text(),
            f"stationary control max residual: {control_max!r}"]),
        svgplot.line_chart(svg_path,
                           "phase-factored fit residual vs basis size",
                           "basis size", "log10 residual",
                           [("final time", list(report.fit_sizes),
                             list(report.final_residuals()))], log_y=True)]
    _manifest(scn, "gauge", out_dir, outputs)
    stats = {
        "kind": "gauge-phase-fit",
        "fit_sizes": list(report.fit_sizes),
        "final_residuals": [float(r) for r in report.final_residuals()],
        "control_max_residual": control_max,
        "plateaued": report.plateaued,
    }
    return 0, stats


# ---------------------------------------------------------- reproduce-all

def _dispatch(scn: Scenario, out_dir: Path, tolerance_scale: float, seed=None,
              command=None):
    """Run scn under command, by default the command of its own kind; the
    tolerance scale applies to expand's quadrature, the only one it scales."""
    command = command or scn.kind
    if command == "expand":
        return cmd_expand(scn, out_dir, tolerance_scale)
    if command == "propagate":
        return cmd_propagate(scn, out_dir, seed)
    return cmd_gauge(scn, out_dir)


# One row per compared quantity; a claim passes when all its rows do, and its
# golden must hold every key they name. Tests of a stat against golden[ref] or
# golden[bound]: "<=", "<" bound; "near" max |stat - ref| <= bound over equal-
# length, non-empty lists (a scalar is a list of one); "rel" |stat - ref| <=
# bound * |ref|; "==" ref; "true"; "in range" a non-empty list inside bound =
# [lo, hi]. The unitary-contrast row's ref is the run length it is measured on.
_CLAIM_ROWS = (  # (claim id, stat key, test, golden ref key, golden bound key)
    ("equal-magnitude-recurrence", "ratio_defect", "<=", None, "magnitude_tol"),
    ("equal-magnitude-recurrence", "quad", "near", "quad", "freeze_tol"),
    ("equal-magnitude-recurrence", "worst_route_diff", "<=", None, "route_tol"),
    ("series-divergence", "verdict", "==", "verdict", None),
    ("series-divergence", "slope", "rel", "slope", "slope_rtol"),
    ("euler-norm-growth", "euler_final_norm", "rel", "final_norm_sq", "final_norm_rtol"),
    ("euler-norm-growth", "monotone", "true", None, None),
    ("euler-norm-growth", "first_strict_step", "==", "first_strict_step", None),
    ("euler-norm-growth", "audit_passed", "true", None, None),
    ("euler-norm-growth", "growth_exponents", "in range", None, "exponent_range"),
    ("unitary-contrast", "long_run_max_dev", "<", "n_steps", "max_norm_dev"),
    ("velocity-jump", "jump_metric", "near", "amplitude", "jump_tol"),
    ("velocity-jump", "max_covariant_discrepancy", "<=", None, "covariant_tol"),
    ("phase-factored-fit", "fit_sizes", "==", "fit_sizes", None),
    ("phase-factored-fit", "final_residuals", "near", "residuals", "curve_tol"),
    ("phase-factored-fit", "control_max_residual", "<=", None, "stationary_tol"),
)


def _compare(test, x, ref, bound):
    """(passed, the measured value next to what it is held to) of one row."""
    dev = "dev " if test in ("near", "rel") else ""
    if test == "near":
        fresh, frozen = (v if isinstance(v, list) else [v] for v in (x, ref))
        if not fresh or len(fresh) != len(frozen):
            return False, (f"{len(fresh)} fresh values against "
                           f"{len(frozen)} frozen ones")
        test, x = "<=", max(abs(f - z) for f, z in zip(fresh, frozen))
    elif test == "rel":
        test, x, bound = "<=", abs(x - ref), bound * abs(ref)
    if test in ("<=", "<"):
        ok = x <= bound if test == "<=" else x < bound
        return ok, f"{dev}{x:.3e} {test if ok else 'exceeds'} {bound:.3e}"
    if test == "==":
        return x == ref, f"{x} {'==' if x == ref else '!='} {ref}"
    if test == "true":
        return bool(x), str(x)
    lo, hi = bound
    ok = bool(x) and all(lo <= e <= hi for e in x)
    return ok, f"{[round(e, 4) for e in x]} {'in' if ok else 'not in'} {bound}"


def _check_claim(claim_id, stats, golden):
    """(passed, detail) of every table row of claim_id, stats against golden."""
    rows = [(stat, *_compare(test, stats[stat], ref and golden[ref],
                             bound and golden[bound]))
            for cid, stat, test, ref, bound in _CLAIM_ROWS if cid == claim_id]
    return (all(ok for _, ok, _ in rows),
            ", ".join(f"{stat} {text}" for stat, _, text in rows))


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _numbers(v) -> bool:
    return isinstance(v, list) and v != [] and all(map(_number, v))


# What a row reads in its golden, by (role, test): a description and a test.
# "==" compares any value; "<" is the unitary row, whose ref is its run length.
_SHAPES = {
    **{("bound", test): ("a number", _number)
       for test in ("<=", "<", "near", "rel")},
    ("ref", "rel"): ("a number", _number),
    ("ref", "near"): ("a number or a non-empty list of numbers",
                      lambda v: _number(v) or _numbers(v)),
    ("ref", "<"): ("a positive int", lambda v: type(v) is int and v > 0),
    ("bound", "in range"): ("a list [lo, hi] of two numbers with lo <= hi",
                            lambda v: _numbers(v) and len(v) == 2
                            and v[0] <= v[1]),
}


def _golden_problem(claim, golden) -> str:
    """Why claim cannot be checked against golden, or '' if it can."""
    path = _golden_dir() / claim["golden"]
    if not isinstance(golden, dict):
        return f"golden {path} is not a JSON object"
    rows = [row for row in _CLAIM_ROWS if row[0] == claim["id"]]
    if not rows:
        return f"claim '{claim['id']}' has no checker"
    missing = [k for k in dict.fromkeys(k for row in rows for k in row[3:])
               if k and k not in golden]
    if missing:
        return (f"golden {path} lacks {', '.join(missing)}, "
                f"which claim '{claim['id']}' reads")
    for _, _, test, *keys in rows:
        for role, key in zip(("ref", "bound"), keys):
            what, fits = _SHAPES.get((role, test), ("", None))
            if key and fits and not fits(golden[key]):
                return (f"golden {path} has {key} = "
                        f"{golden[key]!r}, but claim '{claim['id']}' reads "
                        f"it as {what}")
    return ""


def _long_run_max_dev(scn: Scenario, n_steps: int) -> float:
    """max |norm^2 - 1| of an n_steps-slice Cayley run of a propagate scenario."""
    v = scn.read(_KEYS, "propagate")
    model, _ = _model(v)
    c0 = np.eye(model.dim, dtype=complex)[v["initial_index"] - 1]
    norms = propagation.unitary_propagate(c0, model, n_steps,
                                          tracked=0).norms
    norms -= 1.0
    return float(np.max(np.abs(norms, out=norms)))


def cmd_reproduce_all(scenario_dir: Path, out_root: Path,
                      tolerance_scale: float = 1.0) -> int:
    scn_files = sorted(scenario_dir.glob("*.scn"))
    if not scn_files:
        raise ValueError(f"no scenario files in {scenario_dir}")
    claims = _load_claims()
    by_name = {p.name: p for p in scn_files}
    for claim in claims:
        if claim["scenario"] not in by_name:
            raise ValueError(f"claim '{claim['id']}' needs scenario "
                             f"{claim['scenario']}, not found in "
                             f"{scenario_dir}")
    goldens = [_load_golden(claim["golden"]) for claim in claims]
    for claim, golden in zip(claims, goldens):
        problem = _golden_problem(claim, golden)
        if problem:
            raise ValueError(problem)

    scenarios = {c["scenario"]: load_scenario(by_name[c["scenario"]])
                 for c in claims}
    for scn in scenarios.values():   # a bad key or value exits 1 first
        scn.read(_KEYS)
    results = {name: _dispatch(scenarios[name], out_root / Path(name).stem,
                               tolerance_scale)
               for name in scenarios}

    rows = []
    for claim, golden in zip(claims, goldens):
        code, stats = results[claim["scenario"]]
        if claim["id"] == "unitary-contrast":
            stats = dict(stats, long_run_max_dev=_long_run_max_dev(
                scenarios[claim["scenario"]], golden["n_steps"]))
        ok, detail = _check_claim(claim["id"], stats, golden)
        if code != 0:
            detail += f" (scenario exit {code})"
        rows.append((claim["id"], claim["scenario"],
                     "PASS" if ok else "FAIL", detail))

    id_w = max(len(r[0]) for r in rows)
    scn_w = max(len(r[1]) for r in rows)
    print(f"{'claim':<{id_w}}  {'scenario':<{scn_w}}  result  detail")
    for cid, sname, verdict, detail in rows:
        print(f"{cid:<{id_w}}  {sname:<{scn_w}}  {verdict:<6}  {detail}")
    # a failed row exits 3, ahead of a scenario that did not converge (exit 2)
    return 3 if any(r[2] == "FAIL" for r in rows) else max(
        code for code, _ in results.values())


# ------------------------------------------------------------------ main

class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: argparse's 2 means non-convergence here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _tolerance_scale(text: str) -> float:
    """--tolerance-scale's value: a finite positive real, else a usage error."""
    with contextlib.suppress(ValueError):
        if 0.0 < (value := float(text)) < math.inf:
            return value
    raise argparse.ArgumentTypeError(
        f"must be a finite positive real number, got {text!r}")


def _seed(text: str) -> int:
    """--seed's value: an integer that _SEED accepts, else a usage error."""
    try:
        problem = _SEED(value := int(text), None)
    except ValueError:
        problem = f"must be an integer, got {text!r}"
    if problem:
        raise argparse.ArgumentTypeError(problem)
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="expansionlab",
                     description="eigenfunction-expansion audit bench")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("expand", "propagate", "gauge"):
        p = sub.add_parser(name, help=f"run a {name} scenario")
        p.add_argument("--scenario", required=True, help="scenario file path")
        p.add_argument("--out", required=True, help="output directory")
        if name == "expand":
            p.add_argument("--tolerance-scale", type=_tolerance_scale,
                           default=1.0)
        if name == "propagate":
            p.add_argument("--seed", type=_seed, default=None)
    p = sub.add_parser("reproduce-all",
                       help="run every bundled claim scenario against goldens")
    p.add_argument("--scenario-dir", default=None,
                   help="directory of .scn files (default: bundled)")
    p.add_argument("--out", default="reproduce-out", help="output root")
    p.add_argument("--tolerance-scale", type=_tolerance_scale, default=1.0)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce-all":
            scenario_dir = Path(args.scenario_dir) if args.scenario_dir \
                else _bundled_scenario_dir()
            return cmd_reproduce_all(scenario_dir, Path(args.out),
                                     args.tolerance_scale)
        code, _ = _dispatch(load_scenario(args.scenario), Path(args.out),
                            getattr(args, "tolerance_scale", 1.0),
                            getattr(args, "seed", None), args.command)
        return code
    except NonConvergenceError as exc:
        print(f"error: numerical non-convergence: {exc}", file=sys.stderr)
        return 2
    except PhysicalConsistencyError as exc:
        print(f"error: physical consistency: {exc}", file=sys.stderr)
        if isinstance(exc, GaugeFieldMismatchError):
            print(f"field-difference norm: {exc.defect!r}", file=sys.stderr)
        return 3
    except (ValueError, OSError, ArithmeticError) as exc:
        # bad input, paths, and values beyond float range; the three
        # handlers catch disjoint classes, so their order is immaterial
        beyond = "beyond float range: " * isinstance(exc, ArithmeticError)
        print(f"error: {beyond}{exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
