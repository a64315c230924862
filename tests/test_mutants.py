"""Physics mutants: a broken program must fail a claim or a named test.

Each row names a function, one snippet of its source and its replacement,
and the reproduce-all claims and tier-1 tests expected to kill the mutant.
The mutant is compiled from the edited source into the function's own
module and patched in for one row; it runs in-process on the claim's
scenario only. A claim kills a mutant when its scenario raises or one of
its rows fails against the golden table; a test kills it when it raises.
"""

import __future__
import functools
import inspect
import json
import textwrap
from importlib import resources
from pathlib import Path

import pytest

from expansionlab import cli, expansion, gauge
from expansionlab.scenario import load_scenario

import test_expansion
import test_gauge

DATA = Path(resources.files("expansionlab") / "data")


_tower_bits = functools.partial(
    test_expansion.test_landau_overlaps_match_one_n_route_bit_for_bit,
    1.0, 1.0)

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
     ["phase-factored-fit"],
     [test_gauge.test_batched_observables_match_per_time_oracle]),
    # the Landau tower's own binding of the shared Laguerre step: the
    # one-n route keeps the true step
    ("tower-step-over-k", expansion, "_laguerre_step",
     "/ (k + 1)", "/ k",
     ["equal-magnitude-recurrence"], [_tower_bits]),
    ("tower-reads-previous-order", expansion, "_LaguerreTower",
     "self.cols[2].tolist()", "self.cols[1].tolist()",
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
]


def mutate(monkeypatch, module, name, snippet, replacement):
    """Patch module.name with its source edited at the one `snippet`."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(snippet) == 1, f"{name} no longer holds {snippet!r}"
    code = compile(source.replace(snippet, replacement),
                   inspect.getsourcefile(module), "exec",
                   flags=__future__.annotations.compiler_flag,
                   dont_inherit=True)
    defined = {}
    exec(code, vars(module), defined)
    monkeypatch.setattr(module, name, defined[name])


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
    mutate(monkeypatch, module, name, snippet, replacement)
    for claim_id in claims:
        assert claim_fails(claim_id, tmp_path / claim_id), claim_id
    for test in tests:
        with pytest.raises(Exception):
            test()


@pytest.mark.parametrize("claim_id", sorted({c for m in MUTANTS
                                             for c in m[5]}))
def test_killing_claims_pass_unmutated(tmp_path, claim_id):
    assert not claim_fails(claim_id, tmp_path)
