"""Physics mutants: a broken program must fail a claim or a named test.

Each row names a function, one snippet of its source and its replacement,
and the reproduce-all claims and tier-1 tests expected to kill the mutant.
The mutant is compiled from the edited source into the function's own
module and patched in for one row (mutate says which bindings it
replaces); it runs in-process on the claim's scenario only. A claim kills a
mutant when its scenario raises or one of its rows fails against the golden
table; a test kills it when it raises.
"""

import __future__
import functools
import inspect
import json
import sys
import textwrap
from importlib import resources
from pathlib import Path

import pytest

from expansionlab import cli, expansion, gauge, propagation, specfun
from expansionlab.scenario import load_scenario

import test_cli
import test_expansion
import test_gauge
import test_propagation
import test_specfun

DATA = Path(resources.files("expansionlab") / "data")


_tower_bits = functools.partial(
    test_expansion.test_landau_overlaps_match_one_n_route_bit_for_bit,
    1.0, 1.0)
_unitary_step = functools.partial(
    test_propagation.test_polar_sweeps_bring_the_step_to_unitarity, 32, 1e-5)
_identity_term_step = functools.partial(
    test_propagation.test_unitary_matches_solve_oracle_with_identity_term,
    "step")
_single_run = functools.partial(
    test_propagation.test_euler_final_norm_single_run_matches_literal,
    "random-hermitian", False, 23, 1237)
_shift_split = functools.partial(
    test_propagation.test_euler_final_norm_splits_runs_on_the_shift,
    test_propagation.switched_at_0_4)
# the plain loop at 1, 2 and 3 rows of 12 per chunk: its 41 slices span
# several chunks, where the default chunk holds a short run whole
_chunked_cayley = [functools.partial(
    test_propagation.test_eigenbasis_cayley_is_the_plain_loop_bit_for_bit,
    "ramp", False, rows, None) for rows in (1, 2, 3)]
# a fixed failing example of the first-time sampler: a fresh Hypothesis
# failure would be shrunk, which took seconds
_two_times = functools.partial(
    test_gauge.test_batched_observables_match_per_time_oracle.hypothesis
    .inner_test, 4, 0, [0.1, 0.9], 1.0)


def _row(test, row_id):
    """test at its parametrized row row_id, as a call of no arguments."""
    mark = next(m for m in test.pytestmark if m.name == "parametrize")
    return functools.partial(test,
                             *mark.args[1][mark.kwargs["ids"].index(row_id)])


# (id, module, function, snippet, replacement, killing claims, killing tests)
MUTANTS = [
    ("chain-rule-dropped", gauge, "phase_transform",
     "1j * gx * state.value + state.dx", "state.dx",
     ["velocity-jump"], []),
    # reproduce-all is blind: velocity-jump runs a step, whose dt_f is 0,
    # and the phase fit reads f alone
    ("ramp-dt_f-dropped", gauge, "linear_gauge_function",
     "da_dt(t) * r[0]", "0.0 * da_dt(t) * r[0]",
     [], [test_gauge.test_jump_smooth_switch_is_gentle]),
    ("phase-fit-exp-plus-if", gauge, "phase_factored_expansion_test",
     "np.exp(-1j * _on_line(g.f", "np.exp(+1j * _on_line(g.f",
     ["phase-factored-fit"], []),
    # velocity-jump is blind: its drive and gauge are constant for t >= 0,
    # so every observed time looks like the first
    ("every-time-at-t0", gauge, "_on_line",
     "np.asarray(t, dtype=float)[..., None]",
     "np.full(np.shape(t), np.ravel(t)[0])[..., None]",
     ["phase-factored-fit"], [_two_times]),
    # the Landau tower's own binding of the shared Laguerre step: the
    # one-n route keeps the true step
    ("tower-step-over-k", expansion, "_laguerre_step",
     "/ (k + 1)", "/ k",
     ["equal-magnitude-recurrence"], [_tower_bits]),
    ("tower-reads-previous-order", expansion, "_LaguerreTower",
     "(gauss * step * rho)", "(gauss * cur * rho)",
     ["equal-magnitude-recurrence"], [_tower_bits]),
    # the catch-up's inline copy of the step, which no mutant of
    # _laguerre_step reaches
    ("catch-up-step-plus-k", expansion, "_LaguerreTower",
     "- k * prev", "+ k * prev",
     ["equal-magnitude-recurrence"], [_tower_bits]),
    # reproduce-all is blind: no claim projects onto the box, and the swap
    # keeps every |C_n|^2
    ("box-parts-swapped", expansion, "_box_parts",
     "return real, imag", "return imag, real",
     [], [test_expansion.test_unconverged_imaginary_part_keeps_the_real_part]),
    ("landau-closed-form-sign", expansion, "landau_plane_wave_coefficient",
     "return 2.0 * a * a", "return -2.0 * a * a",
     ["equal-magnitude-recurrence"],
     [test_expansion.test_sign_pattern_reported_by_both_routes]),
    # reproduce-all is blind: no claim's integral needs more subintervals
    # than the first run's mark, so none is rerun
    ("rerun-past-the-limit", specfun, "_run_quad",
     "limit // 2 + 2", "limit",
     [], [test_specfun.test_first_workspace_reruns_past_its_mark]),
    # reproduce-all is blind: unpolished, the 10^5-step Cayley drift rises
    # from 5.1e-12 to 7.1e-11, still inside the long-run bound of 1e-10
    ("no-polar-polish", propagation, "_polar",
     "range(_POLAR_SWEEPS)", "range(0)",
     [], [_unitary_step]),
    # reproduce-all is blind: no claim's Euler run ever loses norm
    ("loose-monotone-check", propagation, "norm_audit",
     "1e-15 * max", "1e-3 * max",
     [], [test_propagation.test_audit_fails_a_norm_that_falls_by_1e_13]),
    ("euler-at-midpoints", propagation, "euler_propagate",
     "left = times[:-1]", "left = times[:-1] + 0.5 * dt",
     ["euler-norm-growth"],
     [test_propagation.test_two_level_euler_matches_frozen_golden]),
    ("cayley-at-left-endpoints", propagation, "unitary_propagate",
     "tm = times[lo:hi] + 0.5 * dt", "tm = times[lo:hi]",
     ["phase-factored-fit"],
     [test_propagation.test_unitary_matches_exact_with_second_order_convergence]),
    ("cayley-factor-exp", propagation, "unitary_propagate",
     "np.divide(1.0 - ihz, np.add(1.0, ihz, out=ihz), out=ihz)",
     "np.exp(-2.0 * ihz)",
     ["phase-factored-fit"],
     [test_propagation.test_unitary_matches_solve_oracle_box_dipole]),
    ("cayley-quarter-step", propagation, "unitary_propagate",
     "half = 0.5j * dt", "half = 0.25j * dt",
     ["phase-factored-fit"],
     [test_propagation.test_unitary_matches_exact_with_second_order_convergence]),
    # every chunk sampled at the first chunk's times. reproduce-all is
    # blind: the Cayley factors stay unitary, and only the 10^5-step run
    # spans more than one default chunk
    ("chunk-at-wrong-offset", propagation, "unitary_propagate",
     "times[lo:hi]", "times[:hi - lo]",
     [], _chunked_cayley),
    # first-order slicing at the midpoints, its norm put back at every step
    ("cayley-renormalised-first-order", propagation, "unitary_propagate",
     "np.divide(1.0 - ihz, np.add(1.0, ihz, out=ihz), out=ihz)\n"
     "        for r, row in zip(factors, block):\n"
     "            scale(r, w, out=row)",
     "1.0 - 2.0 * ihz\n"
     "        for r, row in zip(factors, block):\n"
     "            scale(r, w * (np.linalg.norm(w)"
     " / np.linalg.norm(r * w)), out=row)",
     ["phase-factored-fit"],
     [test_propagation.test_unitary_matches_solve_oracle_box_dipole]),
    # reproduce-all is blind: a term that is a multiple of the identity only
    # turns the global phase, which no claim reads
    ("scalar-shift-dropped", propagation, "_switches",
     "shift += scale * prof(times)", "shift += 0.0 * prof(times)",
     [], [_identity_term_step]),
    # one predicate decides the grid for the key and the library, so one
    # edit reaches both: the library row, and the agreement row whose key
    # then accepts the window. reproduce-all is blind: its windows are wide
    ("grid-rule-loosened", propagation, "_increasing_grid",
     "dt > least", "dt > 0.0",
     [], [_row(test_propagation.test_propagation_argument_checks,
               "refinement-repeated-times"),
          _row(test_cli.test_a_key_and_the_library_refuse_with_one_reason,
               "refinement-grid")]),
    ("dipole-sign-flipped", propagation, "dipole_matrix_elements_box",
     "-8.0 * width", "8.0 * width",
     ["phase-factored-fit"],
     [test_propagation.test_dipole_matrix_elements_against_quadrature]),
    ("refinement-at-k-3", cli, "cmd_propagate",
     "(1, 2, 4)", "(1, 2, 3)",
     ["euler-norm-growth"], []),
    # reproduce-all is blind: the exponents read [1.999, 2.0], inside their
    # range; the final norm at 2 000 slices moves by 3.5e-8
    ("refinement-at-midpoints", propagation, "euler_final_norm",
     "left = times[:-1]", "left = times[:-1] + 0.5 * dt",
     [], [test_propagation.test_euler_final_norm_matches_literal_box_dipole]),
    # reproduce-all is blind: no claim's refinement run has an identity
    # term
    ("run-split-ignores-shift", propagation, "euler_final_norm",
     "(s[1:] == s[:-1]) & (shift[1:] == shift[:-1])", "(s[1:] == s[:-1])",
     [], [_shift_split]),
    # reproduce-all is blind: the exponents read [2.0006, 1.9992], inside
    # their range
    ("run-power-one-short", propagation, "euler_final_norm",
     "matrix_power(u * r, m)", "matrix_power(u * r, m - 1)",
     [], [_single_run,
          test_propagation.test_euler_final_norm_matches_literal_box_dipole]),
    # the tower and the one-n route share the step, so the tower's bit check
    # is blind to it; the closed form is not
    ("laguerre-step-plus-k", specfun, "_laguerre_step",
     "- (k + alpha) * prev", "+ (k + alpha) * prev",
     ["equal-magnitude-recurrence"],
     [test_specfun.test_laguerre_row_is_the_recurrence_bit_for_bit,
      test_specfun.test_confluent_cross_oracle_laguerre_recurrence]),
    # reproduce-all is blind: every claim runs at l = 0, where alpha is 0
    ("laguerre-step-alpha-dropped", specfun, "_laguerre_step",
     "- (k + alpha) * prev", "- k * prev",
     [], [test_specfun.test_laguerre_associated_matches_binomial_sum]),
]


def mutate(monkeypatch, module, name, snippet, replacement, tests=()):
    """Patch module.name with its source edited at the one `snippet`.

    When module is the function's own, the mutant replaces the original
    wherever the package or a killing test's module imported it by name, as
    an edit of the source file would. A row that names an importing module
    mutates that module's binding alone.
    """
    original = getattr(module, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(snippet) == 1, f"{name} no longer holds {snippet!r}"
    code = compile(source.replace(snippet, replacement),
                   inspect.getsourcefile(module), "exec",
                   flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)
    defined = {}
    exec(code, vars(module), defined)
    bindings = [module]
    if original.__module__ == module.__name__:
        bindings += [m for key, m in sys.modules.items()
                     if key.startswith("expansionlab.")]
        bindings += [sys.modules[getattr(t, "func", t).__module__]
                     for t in tests]
    for home in bindings:
        if getattr(home, name, None) is original:
            monkeypatch.setattr(home, name, defined[name])


def claim_fails(claim_id, out_dir) -> bool:
    """Whether reproduce-all's claim_id fails on its scenario alone."""
    claim = next(c for c in cli._load_golden("claims.json")["claims"]
                 if c["id"] == claim_id)
    golden = json.loads((DATA / "golden" / claim["golden"]).read_text())
    scn = load_scenario(DATA / "scenarios" / claim["scenario"])
    try:
        code, stats = cli._dispatch(scn, out_dir, 1.0)
    except Exception:   # the command fails: reproduce-all exits non-zero
        return True
    ok, _ = cli._check_claim(claim_id, stats, golden)
    return code != 0 or not ok


# a mutant may divide by zero on arrays; numpy warns, and the claim or test
# still has to fail
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("row", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_is_killed(tmp_path, monkeypatch, row):
    _, module, name, snippet, replacement, claims, tests = row
    assert claims or tests
    mutate(monkeypatch, module, name, snippet, replacement, tests)
    for claim_id in claims:
        assert claim_fails(claim_id, tmp_path / claim_id), claim_id
    for test in tests:
        # a killing test fails by an exception or by pytest.fail, whose
        # exception (as for pytest.raises that sees none) is no Exception
        with pytest.raises((Exception, pytest.fail.Exception)):
            test()


@pytest.mark.parametrize("claim_id", sorted({c for m in MUTANTS
                                             for c in m[5]}))
def test_killing_claims_pass_unmutated(tmp_path, claim_id):
    assert not claim_fails(claim_id, tmp_path)


def test_fixed_example_of_the_first_time_sampler_passes_unmutated():
    _two_times()
