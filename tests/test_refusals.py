"""Every refusal of the library, one row each: the twin of test_cli.EXIT_1.

A row is the call, the exact class it raises, its whole message and the
data the exception carries, compared with == or by a predicate. A message
matches whole: "<float>" is any float's repr, where rounding could move it,
"<name>" the repr of the exception's attribute name. Rows with an "oracle-"
id refuse in tests/oracles.py, the tests' own point-evaluation code.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from expansionlab.basis import (
    BasisDomainError, BasisIndexError, box_eigenfunction, landau_normalization,
    landau_quadrature, landau_radial)
from expansionlab.expansion import (
    convergence_scan, landau_plane_wave_coefficient, landau_plane_wave_overlap,
    landau_plane_wave_overlaps, project)
from expansionlab.gauge import (
    GaugeConsistencyError, GaugeFieldMismatchError, GaugeFunction,
    GaugeJumpScenario, LineState, NormalizationError, PhaseFitScenario,
    _uniform, box_line_state, gauge_jump_experiment,
    phase_factored_expansion_test, velocity_and_momentum, zero_gauge_function)
from expansionlab.propagation import (
    HamiltonianModel, PropagationContractError, Trajectory, box_dipole_model,
    box_energies, dipole_matrix_elements_box, euler_final_norm,
    euler_propagate, momentum_matrix_elements_box, norm_audit, switch_profile,
    unitary_propagate)
from expansionlab.scenario import (HEADER, INT, INTS, REAL, REQUIRED,
                                   ScenarioError, parse_scenario_text)
from expansionlab.specfun import (
    _QUADPACK_MESSAGES, DEFAULT_QUADRATURE, QuadratureError, QuadratureSpec,
    SeriesDivergenceError, SpecfunDomainError, confluent_hypergeometric,
    integrate_interval, integrate_semi_infinite, laguerre_row)

from oracles import SpacePoint, box_eigenfunction_dx, landau_eigenfunction, rhs
from test_gauge import eigenstate_line, no_potential, oscillating_gauge
from test_propagation import pure_state, two_level_model
from test_scenario import GOOD, ROWS, _read

FLOAT = r"-?(?:\d+\.\d*(?:e[-+]\d+)?|\de[-+]\d+|inf|nan)"    # a float's repr
LIBRARY_TESTS = ("test_basis", "test_expansion", "test_gauge",
                 "test_propagation", "test_scenario", "test_specfun")


def refusals(cls, rows):
    """The rows of one class, each (id, call, message), or (id, call,
    message, attributes) with attributes a dict of what the exception
    carries. A ScenarioError carries the origin and line that its message
    starts with, or line None."""
    params = []
    for row_id, call, message, *attributes in rows:
        if cls is ScenarioError:
            origin, _, line = message.split(": ", 1)[0].partition(":")
            attributes = [{"origin": origin,
                           "line": int(line) if line else None}]
        params.append(pytest.param(call, cls, message, *(attributes or [{}]),
                                   id=row_id))
    return params


def _keys(line, rows):
    """Scenario.read of a propagate scenario t.scn whose line 4 is line."""
    return _read(f"{HEADER}\nkind = propagate\nname = x\n{line}\n", rows)


def _jump_with(gauge, **keys):
    """gauge_jump_experiment on a scenario whose gauge function is gauge."""
    scenario = type("Patched", (GaugeJumpScenario,),
                    {"gauge_function": lambda self: gauge})
    return gauge_jump_experiment(scenario(**keys))


def _audit_other_width(n_basis):
    # the 6-state dipole-step run, its rows cut to 5 columns with its
    # recorded norms, would pass with an off-diagonal weight at t1 that
    # misses state 6's share; a 7-state run is not the model's either. The
    # model's own run passes.
    m = box_dipole_model(1.0, 6, 1.0, 0.5, (0.0, 1.0), "step")
    run = euler_propagate(pure_state(6), m, 20)
    assert norm_audit(run, m).passed
    if n_basis == 5:
        other = Trajectory(run.times, run.states[:, :5], "euler", run.norms)
    else:
        other = euler_propagate(pure_state(7), box_dipole_model(
            1.0, 7, 1.0, 0.5, (0.0, 1.0), "step"), 20)
    norm_audit(other, m)


def _model(*terms, energies=(0.0, 1.0), window=(0.0, 1.0)):
    return HamiltonianModel(energies, list(terms), window)


LINE = eigenstate_line(1)
TWO_LEVEL = two_level_model(t_end=1.0)
WIDTH = ("width", REAL, 1.0, None)
QUAD_CONSTRAINT = [("n_max", INT, 10, None),
                   ("quad", INT, 3, lambda v, values: "" if v <= values[
                       "n_max"] else f"must not exceed {values['n_max']}")]
LANDAU_N = "Landau n must be non-negative"
BOX_N = "box quantum number must be a positive integer"
NORM = "state norm <measured_norm> deviates from 1 beyond 1e-06"
DOUBLED = ("gauge observables at t = <float> moved by <error_estimate> when "
           "the quadrature nodes were doubled")
DERIVATIVES = ("gauge function derivatives disagree with finite differences "
               "(defect <float>)")
INDEX = "initial_index must lie in 1..{} = {}, got {}"
SIZES = ("fit_sizes needs at least two increasing sizes for the plateau "
         "verdict, got {}")
LINEAR = "unknown switch profile 'linear'"
INCREASING = "time grid must be strictly increasing"
SLICES = "slice count must be at least 1, got 0"
GRID = ("window {} must keep the {}-slice time grid strictly increasing, its "
        "step above 4 ulp({}) = {}, got dt = {}")
TOLERANCES = "quadrature tolerances must be positive and finite"
CUTOFF = "upper_cutoff must be positive and finite"

REFUSALS = [
    *refusals(BasisIndexError, [
        ("normalization-n", lambda: landau_normalization(-1, 0), LANDAU_N),
        ("box-n", lambda: box_eigenfunction(0, 0.5, 1.0), BOX_N),
        ("coefficient-n", lambda: landau_plane_wave_coefficient(-1),
         LANDAU_N),
        ("oracle-landau-n", lambda: landau_eigenfunction(
            -1, SpacePoint.cartesian(0.5), 1.0), LANDAU_N),
        ("oracle-box-dx-n", lambda: box_eigenfunction_dx(0, 0.5, 1.0),
         BOX_N)]),
    *refusals(BasisDomainError, [
        ("normalization-overflow", lambda: landau_normalization(10 ** 8, 400),
         "normalization factor overflows for n=100000000, l=400"),
        ("radial-rho", lambda: landau_radial(0, 0, -1.0, 1.0),
         "rho must be non-negative"),
        ("radial-length", lambda: landau_radial(0, 0, 1.0, 0.0),
         "magnetic length must be positive, got 0.0"),
        ("box-width", lambda: box_eigenfunction(1, 0.5, 0.0),
         "well width must be positive, got 0.0"),
        *((f"project-width-{w}", lambda w=w: project(
            lambda x: complex(box_eigenfunction(1, x, 1.0)), w, 3),
            f"well width must be positive, got {w!r}")
          for w in (0.0, -2.0, math.nan)),
        ("coefficient-length", lambda: landau_plane_wave_coefficient(0, 0.0),
         "magnetic length must be positive, got 0.0"),
        ("overlap-length", lambda: landau_plane_wave_overlap(0, -1.0),
         "magnetic length must be positive, got -1.0"),
        ("overlaps-length", lambda: landau_plane_wave_overlaps(3, math.nan),
         "magnetic length must be positive, got nan"),
        ("oracle-cylindrical-radius", lambda: SpacePoint.cylindrical(
            -1.0, 0.0, 0.0), "rho must be non-negative")]),
    *refusals(NormalizationError, [
        ("velocity-unnormalized", lambda: velocity_and_momentum(
            LineState(LINE.x, LINE.w, 2.0 * LINE.value, 2.0 * LINE.dx),
            no_potential, 0.0), NORM,
         dict(measured_norm=pytest.approx(4.0, rel=1e-10))),
        ("velocity-unnormalized-row", lambda: velocity_and_momentum(
            box_line_state(1.0, np.array([[1.0, 0, 0, 0], [1.5, 0, 0, 0],
                                          [1.0, 0, 0, 0]], dtype=complex)),
            no_potential, np.zeros(3)), NORM,
         dict(measured_norm=pytest.approx(2.25, rel=1e-12)))]),
    *refusals(QuadratureError, [
        # accepted by the consistency check, the fast exact gauge fails
        # only the node-doubling guard, which 80 nodes cannot satisfy
        ("jump-fast-exact-gauge", lambda: _jump_with(
            oscillating_gauge(), n_slices=20, observe_stride=10), DOUBLED),
        # a time-independent gauge leaves E alone and its derivatives are
        # consistent, but 80 nodes cannot resolve grad f = 0.3 cos(300 x)
        ("jump-node-doubling", lambda: _jump_with(GaugeFunction(
            f=lambda t, x: 0.001 * np.sin(300.0 * x) + 0.0 * t,
            grad_f=lambda t, x: 0.3 * np.cos(300.0 * x) + 0.0 * t,
            dt_f=lambda t, x: 0.0 * t * x), n_slices=20, observe_stride=10),
         DOUBLED, dict(error_estimate=lambda e: e > 1e-12)),
        # _QUADPACK_MESSAGES is quad's text, which test_specfun holds equal
        ("quad-starved", lambda: integrate_semi_infinite(
            lambda u: math.cos(50.0 * u), QuadratureSpec(max_subdivisions=1)),
         "quadrature on [0.0, 40.0] did not converge: "
         + _QUADPACK_MESSAGES[1].format(limit=1),
         dict(best_estimate=lambda v: type(v) is float,
              error_estimate=lambda e: e > 0.0))]),
    *refusals(GaugeConsistencyError, [
        ("jump-fast-gauge-defect", lambda: _jump_with(
            oscillating_gauge(1e-4), n_slices=20, observe_stride=10),
         DERIVATIVES),
        # grad f has the wrong sign
        ("jump-inconsistent-gauge", lambda: _jump_with(GaugeFunction(
            f=lambda t, x: -0.2 * x, grad_f=lambda t, x: _uniform(0.2, x),
            dt_f=lambda t, x: 0.0 * x)),
         DERIVATIVES)]),
    *refusals(GaugeFieldMismatchError, [
        ("jump-mismatched-fields", lambda: gauge_jump_experiment(
            GaugeJumpScenario(switch="ramp", ramp_time=0.4, t_end=1.0,
                              second_gauge="mismatched",
                              mismatch_factor=1.5)),
         "gauge pair reconstructs different fields (max |dE| defect "
         "<defect> at scale <float>)", dict(defect=lambda d: d > 0.0))]),
    *refusals(ValueError, [
        ("jump-index-zero", lambda: GaugeJumpScenario(
            n_basis=4, initial_index=0), INDEX.format("n_basis", 4, 0)),
        ("jump-index-past-basis", lambda: GaugeJumpScenario(
            n_basis=4, initial_index=5), INDEX.format("n_basis", 4, 5)),
        ("fit-index-past-basis", lambda: PhaseFitScenario(
            fit_sizes=(2, 4), n_reference=4, initial_index=3),
         INDEX.format("fit_sizes[0]", 2, 3)),
        # the plateau verdict compares the last two sizes: one size, or
        # sizes out of order, never reach it
        ("fit-sizes-single", lambda: PhaseFitScenario(
            fit_sizes=(4,), n_reference=8), SIZES.format([4])),
        ("fit-sizes-unsorted", lambda: PhaseFitScenario(
            fit_sizes=(48, 2), n_reference=48), SIZES.format([48, 2])),
        ("fit-reference-size", lambda: PhaseFitScenario(
            n_reference=16, fit_sizes=(2, 4, 32), n_slices=100),
         "n_reference must cover the largest fit size, 32, got 16"),
        # the key's choice and its step pair, refused by the experiment
        # itself before its field check
        ("second-gauge-typo", lambda: gauge_jump_experiment(
            GaugeJumpScenario(second_gauge="typo", n_basis=8, n_slices=40)),
         "second_gauge must be one of ['identity', 'mismatched', "
         "'transformed'], got 'typo'"),
        ("mismatched-step-pair", lambda: gauge_jump_experiment(
            GaugeJumpScenario(second_gauge="mismatched", n_basis=8,
                              n_slices=40)),
         "second_gauge must not be 'mismatched' unless switch = ramp, got "
         "switch = 'step'"),
        ("scan-range", lambda: convergence_scan(lambda n: 1.0, 2, n_start=3),
         "n_max must be at least n_start")]),
    *refusals(PropagationContractError, [
        ("jump-slice-count", lambda: gauge_jump_experiment(
            GaugeJumpScenario(n_slices=0)), SLICES),
        ("phase-fit-slice-count", lambda: phase_factored_expansion_test(
            PhaseFitScenario(n_slices=0), zero_gauge_function()), SLICES),
        # the gauge experiment used to run any switch but "step" as a ramp
        ("switch-unknown", lambda: switch_profile("linear", 0.4), LINEAR),
        ("switch-ramp-time", lambda: switch_profile("ramp", 0.0),
         "ramp time must be positive, got 0.0"),
        ("dipole-switch-unknown", lambda: box_dipole_model(
            1.0, 4, 1.0, 0.5, (0.0, 1.0), "linear"), LINEAR),
        ("jump-switch-unknown", lambda: GaugeJumpScenario(
            switch="linear").hamiltonian(), LINEAR),
        # a model is checked when it is built: a profile must map an array
        # of times to a real finite array of its shape
        *((f"profile-{name}", lambda p=profile: _model(
            (np.ones_like, np.eye(2)), (p, np.eye(2))),
            "profile of term 1 must map an array of times to a real finite "
            "array of the same shape")
          for name, profile in [
              ("constant-float", lambda t: 1.0), ("math-cos", math.cos),
              ("shape", lambda t: np.ones(3)),
              ("complex", lambda t: np.exp(1j * t)),
              ("infinite", lambda t: np.where(t > 0.5, np.inf, 0.0))]),
        ("window-order", lambda: _model(window=(1.0, 1.0)),
         "window end must exceed t_start = 1.0, got 1.0"),
        ("term-not-hermitian", lambda: _model(
            (np.ones_like, [[0.0, 1.0], [0.0, 0.0]])),
         "perturbation term is not Hermitian (defect 1.0)"),
        ("term-shape", lambda: _model((np.ones_like, np.eye(3))),
         "perturbation matrix shape (3, 3) does not match dimension 2"),
        ("no-energies", lambda: _model(energies=[]),
         "energies must be a non-empty vector"),
        ("energy-matrix", lambda: _model(energies=[[1.0, 2.0]]),
         "energies must be a non-empty vector"),
        ("infinite-energy", lambda: _model(energies=[1.0, math.inf]),
         "energies must be finite"),
        # trajectories
        ("rows-per-time", lambda: Trajectory(
            [0.0, 1.0], np.zeros((3, 2)), "euler"),
         "states must be one row per time"),
        ("norms-per-time", lambda: Trajectory(
            [0.0, 1.0], np.zeros((2, 2)), "euler", [1.0]),
         "norms must align with times"),
        ("repeated-time", lambda: Trajectory(
            [0.0, 0.0, 1.0], np.zeros((3, 2), dtype=complex), "euler"),
         INCREASING),
        ("repeated-infinite-time", lambda: Trajectory(
            [0.0, math.inf, math.inf], np.zeros((3, 2)), "euler"),
         INCREASING),
        ("nan-time", lambda: Trajectory(
            [0.0, math.nan, 1.0], np.zeros((3, 2)), "euler"), INCREASING),
        # steppers
        *((f"{name}-negative-tracked", lambda s=stepper: s(
            pure_state(2), TWO_LEVEL, 10, tracked=-1),
            "tracked column count must be at least 0, got -1")
          for name, stepper in [("euler", euler_propagate),
                                ("cayley", unitary_propagate)]),
        ("initial-shape", lambda: euler_propagate(
            np.ones(3), _model(energies=[1.0, 4.0]), 4),
         "initial coefficients have shape (3,), expected (2,)"),
        ("no-slices", lambda: unitary_propagate(
            np.ones(2), _model(energies=[1.0, 4.0]), 0), SLICES),
        # 2 000 of the 4 001 times repeat, one ulp at 1e16 being 2
        ("refinement-repeated-times", lambda: euler_final_norm(
            pure_state(32), box_dipole_model(
                1.0, 32, 1e-6, 2000.0, (1e16, 1.0000000000004e16)), 4000),
         GRID.format((1e16, 1.0000000000004e16), 4000, 1.0000000000004e16,
                     8.0, 1.0)),
        # refused before np.arange is asked for 10^12 + 1 times (7.28 TiB)
        ("refinement-beyond-memory", lambda: euler_final_norm(
            pure_state(32), box_dipole_model(
                1.0, 32, 1e-6, 2000.0, (1e16, 1e16 + 4.0)), 10 ** 12),
         GRID.format((1e16, 1.0000000000000004e16), 10 ** 12,
                     1.0000000000000004e16, 8.0, 4e-12)),
        ("jump-grid", lambda: unitary_propagate(
            np.eye(24)[0], GaugeJumpScenario(
                t_end=1e-320, n_slices=10000).hamiltonian(), 10000),
         GRID.format((0.0, 1e-320), 10000, 1e-320, 2e-323, 0.0)),
        ("box-no-basis", lambda: box_energies(1.0, 0),
         "n_basis must be at least 1, got 0"),
        ("dipole-one-state", lambda: dipole_matrix_elements_box(1.0, 1),
         "dipole matrix n_basis must be at least 2, got 1"),
        ("momentum-one-state", lambda: momentum_matrix_elements_box(1.0, 1),
         "momentum matrix n_basis must be at least 2, got 1"),
        # the norm audit
        ("audit-cayley-run", lambda: norm_audit(unitary_propagate(
            pure_state(2), TWO_LEVEL, 10), TWO_LEVEL),
         "norm audit applies to first-order sliced trajectories, got "
         "'cayley'"),
        ("audit-impure-start", lambda: norm_audit(euler_propagate(
            np.array([1.0, 1.0]) / math.sqrt(2.0), TWO_LEVEL, 10), TWO_LEVEL),
         "audit requires a pure initial state; defect <float>"),
        *((f"audit-{name}-head", lambda n=n: _audit_other_width(n),
           f"norm audit reads all 6 coefficients of rows 0 and 1, but the "
           f"trajectory's head holds {n}")
          for name, n in [("narrower", 5), ("wider", 7)]),
        ("oracle-rhs-shape", lambda: rhs(pure_state(3), 0.0, TWO_LEVEL),
         "coefficient vector has shape (3,), expected (2,)")]),
    # a fourth positional argument, such as a stale hbar, raises instead of
    # being read as the tracked count
    *refusals(TypeError, [
        *((f"{name}-tracked-positional", lambda s=stepper: s(
            pure_state(2), TWO_LEVEL, 10, 1),
            f"{stepper.__name__}() takes 3 positional arguments but 4 were "
            f"given")
          for name, stepper in [("euler", euler_propagate),
                                ("cayley", unitary_propagate)])]),
    *refusals(ScenarioError, [
        ("missing-required-key", lambda: _read(
            GOOD, ROWS + (("amplitude", REAL, REQUIRED, None),), "demo.scn"),
         "demo.scn: missing required key 'amplitude'"),
        # a key no row of the section declares fails before any row is
        # read, even a row that would fail itself
        ("unknown-key", lambda: _read(
            GOOD, ROWS[1:] + (("absent", REAL, REQUIRED, None),), "demo.scn"),
         "demo.scn:5: unknown key 'well_width'"),
        ("other-section-key", lambda: parse_scenario_text(
            GOOD + "amplitude = 2.0\n", "demo.scn").read(
                [("propagate", *row) for row in ROWS]
                + [("gauge", "amplitude", REAL, 1.0, None)]),
         "demo.scn:9: unknown key 'amplitude'"),
        ("constraint-at-line", lambda: _keys("quad = 12", QUAD_CONSTRAINT),
         "t.scn:4: key 'quad' must not exceed 10"),
        # a default that breaks its constraint has no line to point at
        ("constraint-of-a-default", lambda: _keys("n_max = 2",
                                                  QUAD_CONSTRAINT),
         "t.scn: key 'quad' must not exceed 2"),
        *((f"real-{v}", lambda v=v: _keys(f"width = {v}", [WIDTH]),
           f"t.scn:4: key 'width' must be a finite real number, got '{v}'")
          for v in ("nan", "inf", "-inf", "NaN", "1e999", "wide")),
        ("type-int", lambda: _keys("n_max = 4.5", [("n_max", INT, 50, None)]),
         "t.scn:4: key 'n_max' must be an integer, got '4.5'"),
        ("type-ints", lambda: _keys("sizes = 2, 1e3",
                                    [("sizes", INTS, (2, 4), None)]),
         "t.scn:4: key 'sizes' must be a comma-separated integer list, got "
         "'2, 1e3'"),
        # an expand scenario's family picks its section: the options are
        # the sections the table declares
        ("choice-family", lambda: parse_scenario_text(
            f"{HEADER}\nkind = expand\nname = x\nfamily = ring\n",
            "c.scn").read([("expand/landau", "n_max", INT, 200, None),
                           ("expand/box", "n_max", INT, 50, None)]),
         "c.scn:4: key 'family' must be one of ['box', 'landau'], got "
         "'ring'"),
        ("choice-value", lambda: _keys("target = ring", [
            ("target", {"eigenstate", "gaussian"}, REQUIRED, None)]),
         "t.scn:4: key 'target' must be one of ['eigenstate', 'gaussian'], "
         "got 'ring'"),
        ("header", lambda: parse_scenario_text(
            "not-a-header\nkind = expand\nname = x\n", "f.scn"),
         "f.scn:1: first line must be 'expansionlab-scenario v1', got "
         "'not-a-header'"),
        ("duplicate-key", lambda: parse_scenario_text(
            f"{HEADER}\nkind = expand\nname = x\nwidth = 1\nwidth = 2\n",
            "dup.scn"), "dup.scn:5: duplicate key 'width'"),
        ("malformed-line", lambda: parse_scenario_text(
            f"{HEADER}\nkind = expand\nname = x\njust-a-token\n", "bad.scn"),
         "bad.scn:4: expected 'key = value', got 'just-a-token'"),
        ("unknown-kind", lambda: parse_scenario_text(
            f"{HEADER}\nkind = simulate\nname = x\n", "k.scn"),
         "k.scn:2: key 'kind' must be one of ['expand', 'gauge', "
         "'propagate'], got 'simulate'")]),
    *refusals(SpecfunDomainError, [
        ("laguerre-order", lambda: laguerre_row(-1, 1.0),
         "Laguerre order must be non-negative"),
        *((f"gamma-pole-{g}", lambda g=g: confluent_hypergeometric(
            0.5, g, 1.0),
            f"gamma={g} is a non-positive integer (pole of the series)")
          for g in (0.0, -1.0, -7.0)),
        *((f"landau-quadrature-{a}", lambda a=a: landau_quadrature(a),
           CUTOFF) for a in (0.0, math.nan)),
        *((f"spec-{key}-{value}", lambda kw={key: value}: QuadratureSpec(
            **kw), CUTOFF if key == "upper_cutoff" else TOLERANCES)
          for key, values in [("abs_tol", (-1.0, math.inf, math.nan)),
                              ("rel_tol", (0.0, math.inf, math.nan)),
                              ("upper_cutoff", (-5.0, math.inf, math.nan))]
          for value in values),
        # a non-integer limit: QUADPACK's first run in 128 subintervals
        # would hide it where quad raised TypeError
        *((f"spec-max_subdivisions-{limit}", lambda limit=limit:
           QuadratureSpec(max_subdivisions=limit),
           "max_subdivisions must be an integer of at least 1")
          for limit in (0, 2.5, 300.5)),
        # an infinite tolerance accepts any estimate; scaled() must not
        # make one
        *((f"spec-scaled-{factor}", lambda f=factor:
           DEFAULT_QUADRATURE.scaled(f), TOLERANCES)
          for factor in (math.inf, math.nan)),
        *((f"interval-bounds-{lo}-{hi}", lambda lo=lo, hi=hi:
           integrate_interval(lambda x: 1.0, lo, hi),
           "integration bounds must be finite")
          for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
                         (0.0, math.nan))),
        *((f"interval-order-{lo}-{hi}", lambda lo=lo, hi=hi:
           integrate_interval(lambda x: 1.0, lo, hi),
           "integration interval must have hi > lo")
          for lo, hi in ((1.0, 0.0), (2.0, 2.0)))]),
    *refusals(SeriesDivergenceError, [
        ("beyond-guard", lambda: confluent_hypergeometric(0.5, 1.5, 61.0),
         "|u|=61.0 exceeds the convergence guard 60.0 for the "
         "non-terminating series"),
        # |u| is inside the guard, but the terms overflow near k = 200
        ("unsettled-series", lambda: confluent_hypergeometric(
            3000.5, 1.0, -60.0),
         "series did not settle within 500 terms (alpha=3000.5, gamma=1.0, "
         "u=-60.0)")]),
]


def _pattern(message, exc):
    """message as a regular expression that str(exc) must match whole."""
    parts = re.split(r"<(\w+)>", message)
    return "".join(re.escape(p) if i % 2 == 0 else FLOAT if p == "float"
                   else re.escape(repr(getattr(exc, p)))
                   for i, p in enumerate(parts))


@pytest.mark.parametrize("call,cls,message,attributes", REFUSALS)
def test_library_refuses(call, cls, message, attributes):
    with pytest.raises(cls) as refused:
        call()
    exc = refused.value
    assert type(exc) is cls
    assert re.fullmatch(_pattern(message, exc), str(exc)), str(exc)
    for name, want in attributes.items():
        got = getattr(exc, name)
        assert want(got) if callable(want) else got == want, (name, got)


def test_no_class_only_refusal_in_the_library_tests():
    # a pytest.raises with neither match= nor an `as` binding passes a
    # refusal for any reason of its class
    bare = []
    for name in LIBRARY_TESTS:
        tree = ast.parse((Path(__file__).parent / f"{name}.py").read_text())
        bound = {id(item.context_expr) for node in ast.walk(tree)
                 if isinstance(node, ast.With) for item in node.items
                 if item.optional_vars is not None}
        bare += [f"{name}.py:{node.lineno}" for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and ast.unparse(node.func) == "pytest.raises"
                 and id(node) not in bound
                 and not any(k.arg == "match" for k in node.keywords)]
    assert bare == []
