"""CLI exit-code contract, artifact schemas, and reproducibility."""

import contextlib
import copy
import importlib.util
import inspect
import io
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bounds import (GAUSSIAN_PARSEVAL_TOL, GAUSSIAN_ROUNDTRIP_TOL,
                    ROUNDTRIP_TOL)

import expansionlab
from expansionlab import (basis, cli, gauge, propagation, scenario, specfun,
                          svgplot)
from expansionlab.cli import (_check_claim, cmd_expand, cmd_gauge,
                              cmd_propagate, main)
from expansionlab.gauge import GaugeFunction, GaugeJumpScenario, LineState
from expansionlab.scenario import load_scenario

DATA = Path(resources.files("expansionlab") / "data")
SCENARIOS = DATA / "scenarios"
GOLDEN = DATA / "golden"
ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "expansionlab", *args],
                          capture_output=True, text=True, env=env)


def test_commands_never_import_scipy_integrate(tmp_path):
    # QUADPACK is reached in scipy's extension module alone: the
    # scipy.integrate package around it would cost most of the start-up
    for args in (["expand", "--scenario", str(SCENARIOS / "box_gaussian.scn")],
                 ["reproduce-all"]):
        r = run_cli(*args, "--out", str(tmp_path / args[0]),
                    env_extra={"PYTHONPROFILEIMPORTTIME": "1"})
        assert r.returncode == 0, r.stderr
        imported = {line.rsplit("|", 1)[1].strip()
                    for line in r.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "expansionlab.specfun" in imported
        assert not [name for name in imported
                    if name.split(".")[:2] == ["scipy", "integrate"]]


def test_expand_box_scenario_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    code, stats = cmd_expand(load_scenario(SCENARIOS / "box_roundtrip.scn"),
                             out)
    assert code == 0
    assert stats["parseval_defect"] < ROUNDTRIP_TOL
    assert stats["verdict"] == "convergent"
    for name in ("coefficients.csv", "convergence_report.txt",
                 "partial_sums.svg", "manifest.json"):
        assert (out / name).exists()

    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "expand"
    assert man["tool_version"]
    recorded = {o["path"]: o["sha256"] for o in man["outputs"]}
    import hashlib
    for name, sha in recorded.items():
        assert hashlib.sha256(
            (out / name).read_bytes()).hexdigest() == sha


def test_expand_gaussian_scenario(tmp_path):
    code, stats = cmd_expand(load_scenario(SCENARIOS / "box_gaussian.scn"),
                             tmp_path / "out")
    assert code == 0
    assert stats["parseval_defect"] < GAUSSIAN_PARSEVAL_TOL
    assert stats["round_trip"] < GAUSSIAN_ROUNDTRIP_TOL
    assert stats["verdict"] == "convergent"


def test_propagate_scenario_and_audit_artifacts(tmp_path):
    out = tmp_path / "out"
    code, stats = cmd_propagate(load_scenario(SCENARIOS / "box_dipole.scn"),
                                out)
    assert code == 0
    assert stats["audit_passed"]
    assert stats["monotone"]
    lines = (out / "euler_trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("step,t,norm_sq,re_c1,im_c1")
    assert len(lines) == 1002
    audit = (out / "norm_audit.txt").read_text()
    assert "pass" in audit
    assert (out / "unitary_trajectory.csv").exists()
    assert (out / "norms.svg").exists()


def test_propagate_without_perturbation_keeps_the_initial_state(tmp_path):
    # no perturbation runs the linear-solve Cayley path and the literal
    # refinement runs; with nothing to couple the states, neither stepper
    # may move a coefficient, and the refinement study has no growth to fit
    path = write_scenario(tmp_path / "none.scn", "propagate",
                          perturbation="none", n_basis=8, initial_index=2,
                          n_slices=300)
    out = tmp_path / "out"
    code, stats = cmd_propagate(load_scenario(path), out)
    assert code == 0
    initial = [0.0] * 16
    initial[2] = 1.0     # re_c2
    for name in ("euler_trajectory.csv", "unitary_trajectory.csv"):
        rows = (out / name).read_text().splitlines()[1:]
        assert len(rows) == 301
        for row in rows:
            assert [float(v) for v in row.split(",")[2:]] == [1.0, *initial]
    assert "strict growth: never" in (out / "norm_audit.txt").read_text()
    assert stats["cayley_max_dev"] == 0.0
    assert stats["euler_final_norm"] == 1.0
    assert len(stats["growth_exponents"]) == 2
    assert all(math.isnan(e) for e in stats["growth_exponents"])


@pytest.mark.parametrize("tracked", [0, 40])
def test_propagate_csvs_hold_the_tracked_columns_up_to_n_basis(tmp_path,
                                                               tracked):
    # the steppers keep min(tracked, n_basis) columns, and each CSV writes
    # every column its run kept
    path = write_scenario(tmp_path / "t.scn", "propagate",
                          perturbation="dipole-ramp", n_basis=32,
                          n_slices=20, tracked=tracked)
    out = tmp_path / "out"
    code, stats = cmd_propagate(load_scenario(path), out)
    assert code == 0 and stats["audit_passed"]
    header = ["step", "t", "norm_sq"]
    for j in range(1, min(tracked, 32) + 1):
        header += [f"re_c{j}", f"im_c{j}"]
    for name in ("euler_trajectory.csv", "unitary_trajectory.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == ",".join(header)
        assert {len(line.split(",")) for line in lines} == {len(header)}


def test_propagate_seeded_scenario_reproducible(tmp_path):
    scn = load_scenario(SCENARIOS / "random_hermitian.scn")
    _, s1 = cmd_propagate(scn, tmp_path / "a", seed=123)
    _, s2 = cmd_propagate(scn, tmp_path / "b", seed=123)
    _, s3 = cmd_propagate(scn, tmp_path / "c", seed=124)
    assert s1["euler_final_norm"] == s2["euler_final_norm"]
    assert s1["euler_final_norm"] != s3["euler_final_norm"]
    assert (tmp_path / "a" / "euler_trajectory.csv").read_bytes() == \
        (tmp_path / "b" / "euler_trajectory.csv").read_bytes()
    man = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert man["seed"] == 123


@pytest.mark.parametrize("name,flag,recorded", [
    ("random_hermitian.scn", None, 7),     # the scenario's own seed key
    ("random_hermitian.scn", 123, 123),    # --seed overrides the key
    ("box_dipole.scn", 5, None),           # the dipole model draws no numbers
])
def test_propagate_manifest_records_the_seed_the_model_used(tmp_path, name,
                                                            flag, recorded):
    argv = ["propagate", "--scenario", str(SCENARIOS / name),
            "--out", str(tmp_path)]
    assert main(argv + ([] if flag is None else ["--seed", str(flag)])) == 0
    man = json.loads((tmp_path / "manifest.json").read_text())
    assert man["seed"] == recorded


OF_KIND = {"expand": "box_gaussian.scn", "propagate": "box_dipole.scn",
           "gauge": "gauge_step.scn"}


@pytest.mark.parametrize("command,kind", [
    (command, kind) for command in OF_KIND for kind in OF_KIND
    if kind != command])
def test_command_rejects_another_kind_before_making_output(tmp_path, command,
                                                           kind):
    # the benchmark worker and reproduce-all call cmd_* directly, not main
    out = tmp_path / "out"
    with pytest.raises(scenario.ScenarioError,
                       match=f"scenario kind '{kind}' cannot run under "
                             f"command '{command}'"):
        scn = load_scenario(SCENARIOS / OF_KIND[kind])
        getattr(cli, f"cmd_{command}")(scn, out)
    assert not out.exists()


def test_long_run_check_rejects_another_kind():
    with pytest.raises(scenario.ScenarioError, match="under command "
                                                     "'propagate'"):
        cli._long_run_max_dev(load_scenario(SCENARIOS / "gauge_step.scn"), 10)


def traced_peak(run):
    """(run's result, the peak of traced heap while it ran, in bytes)."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_run_check_keeps_no_states():
    # the 10^5-step Cayley re-check reads only the norms; keeping every
    # state held 51 MB of them. With the midpoints, profile and shift formed
    # one chunk of steps at a time, the traced peak is 1.91 MB: the times
    # and norms (0.8 MB each) and one block's temporaries; full tables of
    # the three peaked at 4.26 MB, sampling them in one call at 5.07 MB
    scn = load_scenario(SCENARIOS / "box_dipole.scn")
    dev, peak = traced_peak(lambda: cli._long_run_max_dev(scn, 100_000))
    assert dev < 1e-10
    assert peak < 2.3e6, peak


def test_phase_fit_releases_its_reference(tmp_path):
    # the fit reads 7 of the reference run's 1 201 rows: it takes them and
    # lets the run go before it builds its mode tables, which it fills in
    # place. The traced peak is 1.82 MB; holding the run through the fit
    # peaked at 3.07 MB
    scn = load_scenario(SCENARIOS / "phase_fit.scn")
    (code, _), peak = traced_peak(lambda: cmd_gauge(scn, tmp_path / "out"))
    assert code == 0
    assert peak < 2.3e6, peak


def test_propagate_audits_a_tracked_euler_run(tmp_path):
    # the audited first-order run keeps the 8 columns its CSV writes and
    # full copies of rows 0 and 1, which the audit reads. The traced peak
    # is 0.91 MB; keeping all 32 columns peaked at 1.33 MB
    scn = load_scenario(SCENARIOS / "box_dipole.scn")
    (code, stats), peak = traced_peak(
        lambda: cmd_propagate(scn, tmp_path / "out"))
    assert code == 0 and stats["audit_passed"]
    assert peak < 1.15e6, peak


def test_gauge_jump_scenario(tmp_path):
    out = tmp_path / "out"
    code, stats = cmd_gauge(load_scenario(SCENARIOS / "gauge_step.scn"), out)
    assert code == 0
    assert abs(stats["jump_metric"] - stats["amplitude"]) < 1e-8
    assert stats["max_covariant_discrepancy"] < 1e-10
    lines = (out / "observables.csv").read_text().splitlines()
    assert lines[0] == "t,gauge_label,vx,vy,vz,px,py,pz"
    assert (out / "summary.txt").exists()
    assert (out / "velocity.svg").exists()


def test_rerun_artifacts_are_byte_identical(tmp_path):
    scn = load_scenario(SCENARIOS / "box_roundtrip.scn")
    cmd_expand(scn, tmp_path / "a")
    cmd_expand(scn, tmp_path / "b")
    for name in ("coefficients.csv", "convergence_report.txt",
                 "partial_sums.svg", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_phase_fit_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the fit's complex-by-real products once rounded by the BLAS thread
    # count; a manifest holds every artifact's digest
    manifests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        r = run_cli("gauge", "--scenario", str(SCENARIOS / "phase_fit.scn"),
                    "--out", str(out),
                    env_extra={"OPENBLAS_NUM_THREADS": threads})
        assert r.returncode == 0, r.stderr
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


def test_every_artifact_is_the_same_at_one_and_two_blas_threads():
    # the digest tool's runs without benchmark operations: every bundled
    # scenario (an expand one at two tolerance scales), reproduce-all and
    # the generated scenarios, one line per file written, `- -` for each of
    # the two refused windows, which write none, and two per run for its
    # stdout and stderr; both runs at once
    import os

    runs = [subprocess.Popen(
        [sys.executable, str(ROOT / "tests" / "artifact_digests.py")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
        for threads in ("1", "2")]
    outputs = [run.communicate() for run in runs]
    for run, (_, stderr) in zip(runs, outputs):
        assert run.returncode == 0, stderr
    assert len(outputs[0][0].splitlines()) == 73 + 2 + 2 * 17
    assert outputs[0][0] == outputs[1][0]


def test_exit_2_on_forced_non_convergence(tmp_path):
    r = run_cli("expand",
                "--scenario", str(SCENARIOS / "landau_planewave.scn"),
                "--out", str(tmp_path / "out"),
                "--tolerance-scale", "1e-6")
    assert r.returncode == 2
    # artifacts still land, flagged
    report = (tmp_path / "out" / "convergence_report.txt").read_text()
    assert "NO" in report


def test_exit_2_on_box_normalisation_non_convergence(tmp_path):
    # the Gaussian's norm integral fails first; the run must still write its
    # flagged artifacts, like the Landau route
    out = tmp_path / "out"
    r = run_cli("expand", "--scenario", str(SCENARIOS / "box_gaussian.scn"),
                "--out", str(out), "--tolerance-scale", "1e-6")
    assert r.returncode == 2
    for name in ("coefficients.csv", "convergence_report.txt",
                 "partial_sums.svg", "manifest.json"):
        assert (out / name).exists()
    report = (out / "convergence_report.txt").read_text()
    assert "target normalisation: no-convergence" in report


def test_exit_3_on_mismatched_gauge_pair(tmp_path):
    r = run_cli("gauge",
                "--scenario", str(SCENARIOS / "gauge_mismatch.scn"),
                "--out", str(tmp_path / "out"))
    assert r.returncode == 3
    assert "field-difference norm" in r.stderr
    assert not (tmp_path / "out").exists()


def test_reproduce_all_exit_3_on_tampered_golden(tmp_path):
    tampered = tmp_path / "golden"
    shutil.copytree(GOLDEN, tampered)
    path = tampered / "gauge_jump.json"
    g = json.loads(path.read_text())
    g["amplitude"] = 0.25  # no longer what the scenario drives
    path.write_text(json.dumps(g))
    r = run_cli("reproduce-all", "--out", str(tmp_path / "out"),
                env_extra={"EXPANSIONLAB_GOLDEN_DIR": str(tampered)})
    assert r.returncode == 3
    assert "FAIL" in r.stdout
    assert "velocity-jump" in r.stdout


TOLERANCE_RUNS = [("expand", "box_roundtrip.scn"),
                  ("propagate", "random_hermitian.scn"),
                  ("gauge", "gauge_step.scn"), ("reproduce-all", None)]
# the commands whose runs the scale reaches: propagate and gauge run no
# quadrature it scales, so they refuse the flag
SCALED = ("expand", "reproduce-all")


def _tolerance_usage_error(capsys, argv, out):
    """The one error line of argv, a usage error that writes nothing."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert not out.exists()
    return err, errors[0]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-5", "x"])
@pytest.mark.parametrize("command,name", TOLERANCE_RUNS,
                         ids=[c for c, _ in TOLERANCE_RUNS])
def test_bad_tolerance_scale_is_a_usage_error(tmp_path, capsys, command, name,
                                              value):
    # a manifest would record NaN or Infinity, which is not JSON, and an
    # infinite tolerance accepts any quadrature
    out = tmp_path / "out"
    argv = [command, "--out", str(out), f"--tolerance-scale={value}"]
    if name:
        argv += ["--scenario", str(SCENARIOS / name)]
    err, error = _tolerance_usage_error(capsys, argv, out)
    if command in SCALED:
        assert error == (f"error: argument --tolerance-scale: must be a "
                         f"finite positive real number, got {value!r}")
        assert err.startswith(f"usage: expansionlab {command} [-h]")
    else:
        assert error == (f"error: unrecognized arguments: "
                         f"--tolerance-scale={value}")
        assert err.startswith("usage: expansionlab [-h]")


@pytest.mark.parametrize("command,name", TOLERANCE_RUNS[:3],
                         ids=[c for c, _ in TOLERANCE_RUNS[:3]])
def test_small_tolerance_scale_still_runs(tmp_path, capsys, command, name):
    out = tmp_path / "out"
    argv = [command, "--scenario", str(SCENARIOS / name), "--out", str(out),
            "--tolerance-scale", "1e-6"]
    if command not in SCALED:
        _, error = _tolerance_usage_error(capsys, argv, out)
        assert error == "error: unrecognized arguments: --tolerance-scale 1e-6"
        return
    code = main(argv)
    assert code in (0, 2)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tolerance_scale"] == 1e-6
    args = cli._build_parser().parse_args(
        ["reproduce-all", "--tolerance-scale", "1e-6"])
    assert args.tolerance_scale == 1e-6


CLAIMS = json.loads((GOLDEN / "claims.json").read_text())["claims"]
GOLDEN_OF = {c["id"]: c["golden"] for c in CLAIMS}
ROWS = cli._CLAIM_ROWS
# (claim id, golden key) of every key the claim table names
NAMED_KEYS = list(dict.fromkeys((r[0], k) for r in ROWS for k in r[3:] if k))


@pytest.fixture(scope="module")
def claim_stats(tmp_path_factory):
    """The stats each claim was checked on in one bundled reproduce-all run."""
    seen = {}
    check = cli._check_claim

    def record(claim_id, stats, golden):
        seen[claim_id] = copy.deepcopy(stats)
        return check(claim_id, stats, golden)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_check_claim", record)
        rc = cli.cmd_reproduce_all(SCENARIOS, tmp_path_factory.mktemp("out"))
    assert rc == 0
    return seen


def _golden_files():
    return {name: json.loads((GOLDEN / name).read_text())
            for name in set(GOLDEN_OF.values())}


def _failing_claims(stats, goldens):
    return {cid for cid, name in GOLDEN_OF.items()
            if not _check_claim(cid, stats[cid], goldens[name])[0]}


def _push_past(row, stats, golden, past=True):
    """Move golden just past the row's bound; a "true" row has no golden.

    With past=False an ordered row's bound lands on the measured value
    instead, which "<=" and "near" must still pass.
    """
    _, stat, test, ref, bound = row
    x = stats[stat]
    below = (lambda v: math.nextafter(v, -math.inf)) if past else float
    if test == "<=":
        golden[bound] = below(x)
    elif test == "<":
        golden[bound] = x if past else math.nextafter(x, math.inf)
    elif test == "near":
        fresh, frozen = (v if isinstance(v, list) else [v]
                         for v in (x, golden[ref]))
        golden[bound] = below(max(abs(f - z) for f, z in zip(fresh, frozen)))
    elif test == "rel":
        dev = abs(x - golden[ref])
        golden[bound] = dev / abs(golden[ref]) * (1 - 1e-9) if dev else -1e-300
    elif test == "==":
        v = golden[ref]
        golden[ref] = (v + "-x" if isinstance(v, str)
                       else v[:-1] + [v[-1] + 1] if isinstance(v, list)
                       else v + 1)
    elif test == "true":
        stats[stat] = False
    else:
        assert test == "in range"
        golden[bound] = [golden[bound][0], math.nextafter(max(x), -math.inf)]


@pytest.mark.parametrize("row", ROWS, ids=[f"{r[0]}:{r[1]}" for r in ROWS])
def test_golden_pushed_past_a_row_fails_exactly_its_claim(claim_stats, row):
    # mutation check of the claim table: every row must be able to fail, and
    # fail only its own claim (two claims share landau_planewave.json)
    assert _failing_claims(claim_stats, _golden_files()) == set()
    stats, goldens = copy.deepcopy(claim_stats), _golden_files()
    _push_past(row, stats[row[0]], goldens[GOLDEN_OF[row[0]]])
    assert _failing_claims(stats, goldens) == {row[0]}
    if row[2] in ("<=", "<", "near"):
        goldens = _golden_files()
        _push_past(row, stats[row[0]], goldens[GOLDEN_OF[row[0]]], past=False)
        assert _failing_claims(claim_stats, goldens) == set()


# one wrong-shaped value per (role, test) of the claim table; an "==" row
# compares any value, so its ref has no shape to get wrong
WRONG_SHAPE = {("bound", "<="): True, ("bound", "<"): "1e-10",
               ("bound", "near"): None, ("bound", "rel"): [0.05],
               ("ref", "rel"): "1.0", ("ref", "near"): [], ("ref", "<"): 0,
               ("bound", "in range"): 2.0}
MALFORMED = [(cid, key, WRONG_SHAPE[role, test])
             for cid, _, test, *keys in ROWS
             for role, key in zip(("ref", "bound"), keys)
             if key and test != "=="]


def test_golden_shape_check_of_single_values():
    claim = {"id": "euler-norm-growth", "golden": "box_dipole_audit.json"}
    golden = json.loads((GOLDEN / claim["golden"]).read_text())
    for key, value, shaped in [("exponent_range", [2.1, 1.9], False),
                               ("exponent_range", [1.9, 2.1, 2.3], False),
                               ("exponent_range", [1.9, "2.1"], False),
                               ("exponent_range", [2, 2], True),
                               ("final_norm_sq", 1, True),
                               ("final_norm_rtol", False, False)]:
        problem = cli._golden_problem(claim, dict(golden, **{key: value}))
        assert (problem == "") is shaped, (key, value, problem)


@pytest.mark.parametrize("factor", [-1.0, 0.0], ids=["negated", "zero"])
def test_reproduce_all_fails_on_signed_or_zero_relative_reference(
        tmp_path, monkeypatch, capsys, factor):
    # |x - ref| <= rtol * |ref|: a negative reference once gave a negative
    # deviation that always passed, and a zero one a division by zero
    tampered = tmp_path / "golden"
    shutil.copytree(GOLDEN, tampered)
    path = tampered / "box_dipole_audit.json"
    g = json.loads(path.read_text())
    g["final_norm_sq"] *= factor
    path.write_text(json.dumps(g))
    monkeypatch.setenv("EXPANSIONLAB_GOLDEN_DIR", str(tampered))
    assert main(["reproduce-all", "--out", str(tmp_path / "out")]) == 3
    out, err = capsys.readouterr()
    failed = [line.split()[0] for line in out.splitlines() if " FAIL " in line]
    assert failed == ["euler-norm-growth"]
    assert "Traceback" not in err


def test_reproduce_all_exit_2_when_only_a_scenario_does_not_converge(
        tmp_path, capsys):
    # every compared value is within its bound, but the Landau quadrature
    # route is flagged: non-convergence (2), not a golden mismatch (3)
    code = main(["reproduce-all", "--out", str(tmp_path / "out"),
                 "--tolerance-scale", "1e-6"])
    lines = capsys.readouterr().out.splitlines()[1:]
    assert code == 2
    assert all(" PASS " in line for line in lines)
    assert [line.split()[0] for line in lines
            if line.endswith("(scenario exit 2)")] \
        == ["equal-magnitude-recurrence", "series-divergence"]
    # the detail shows each measured value next to its bound
    assert "long_run_max_dev" in lines[3] and "< 1.000e-10" in lines[3]


def test_euler_growth_check_fails_on_empty_exponents():
    golden = json.loads((GOLDEN / "box_dipole_audit.json").read_text())
    stats = {"euler_final_norm": golden["final_norm_sq"], "monotone": True,
             "first_strict_step": golden["first_strict_step"],
             "audit_passed": True, "growth_exponents": []}
    ok, detail = _check_claim("euler-norm-growth", stats, golden)
    assert ok is False
    assert "growth_exponents [] not in" in detail
    stats["growth_exponents"] = [sum(golden["exponent_range"]) / 2.0]
    ok, _ = _check_claim("euler-norm-growth", stats, golden)
    assert ok is True


def test_magnitude_recurrence_check_fails_on_truncated_values():
    # quad_check_max = 1 yields 2 fresh values against 21 frozen ones; a
    # comparison that stops at the shorter list would pass on the first two
    golden = json.loads((GOLDEN / "landau_planewave.json").read_text())
    stats = {"quad": golden["quad"][:2], "ratio_defect": 0.0,
             "worst_route_diff": 0.0}
    ok, detail = _check_claim("equal-magnitude-recurrence", stats, golden)
    assert ok is False
    assert "quad 2 fresh values against 21" in detail
    # nothing compared is no pass either
    stats["quad"] = golden["quad"] = []
    ok, detail = _check_claim("equal-magnitude-recurrence", stats, golden)
    assert ok is False
    assert "quad 0 fresh values against 0" in detail


@pytest.mark.parametrize("x,passed", [(-4.1, True), (-3.7, False),
                                      (4.0, False)])
def test_relative_row_scales_by_the_magnitude_of_a_negative_reference(
        x, passed):
    # slope within 5 % of -4: |x + 4| <= 0.05 * 4
    stats = {"verdict": "divergent", "slope": x}
    golden = {"verdict": "divergent", "slope": -4.0, "slope_rtol": 0.05}
    assert _check_claim("series-divergence", stats, golden)[0] is passed


def test_phase_fit_check_fails_on_truncated_golden():
    # a golden cut to two residuals must not pass on the two it still holds
    golden = json.loads((GOLDEN / "phase_fit.json").read_text())
    fresh = list(golden["residuals"])
    fresh[2:] = [1.0] * (len(fresh) - 2)
    golden["residuals"] = golden["residuals"][:2]
    stats = {"fit_sizes": golden["fit_sizes"], "final_residuals": fresh,
             "control_max_residual": 0.0}
    ok, detail = _check_claim("phase-factored-fit", stats, golden)
    assert ok is False
    assert "final_residuals 8 fresh values against 2" in detail


def scenario_text(kind, **keys):
    """A scenario of kind named t: the header, kind and name, then keys."""
    lines = ["expansionlab-scenario v1", f"kind = {kind}", "name = t"]
    return "\n".join(lines + [f"{k} = {v}" for k, v in keys.items()]) + "\n"


def write_scenario(path, kind, **keys):
    path.write_text(scenario_text(kind, **keys))
    return path


# ------------------------------------------------------ the exit-1 contract

def _no_scenario_runs(scn, *_):
    raise AssertionError(f"{scn.origin} ran before the error")


def _exits_1(argv, expected):
    """Hold the run of argv to the contract of a configuration error.

    It exits 1, returned by main or raised by argparse, with no traceback.
    Its stderr is one `error:` line that starts with expected (an expected
    text that ends in a newline is the whole line), after argparse's usage
    where argparse refused and alone where main did. It issues no
    RuntimeWarning, makes no --out directory, and reproduce-all runs no
    scenario. An argv that starts with -m expansionlab runs in a
    subprocess, where a warning would be a further line of stderr.
    """
    out = Path(argv[argv.index("--out") + 1])
    warned, refused = [], False
    if argv[:2] == ["-m", "expansionlab"]:
        run = run_cli(*argv[2:])
        code, err = run.returncode, run.stderr
    else:
        stderr = io.StringIO()
        with (pytest.MonkeyPatch.context() as mp,
              contextlib.redirect_stderr(stderr),
              warnings.catch_warnings(record=True) as warned):
            warnings.simplefilter("always")
            if argv[0] == "reproduce-all":
                mp.setattr(cli, "_dispatch", _no_scenario_runs)
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse ends a usage error so
                code, refused = exc.code, True
        err = stderr.getvalue()
    *usage, error = err.splitlines(keepends=True) or [""]
    assert code == 1 and "Traceback" not in err, err
    assert error.startswith(expected), err
    assert (usage and usage[0].startswith("usage: ")
            and "error:" not in "".join(usage) if refused else not usage), err
    assert not [w for w in warned if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def _run(command, *flags):
    return [command, "--scenario", "{scn}", "--out", "{out}", *flags]


def _scn(row_id, command, keys, expected):
    """A row of command on a scenario of its own kind that sets keys."""
    return pytest.param(_run(command),
                        {"bad.scn": scenario_text(command, **keys)}, expected,
                        id=row_id)


def _keyed(row_id, command, keys, key, reason=""):
    """A row whose scenario is refused at key's line for reason."""
    line = 4 + list(keys).index(key)     # after the header, kind and name
    return _scn(row_id, command, keys,
                f"error: {{scn}}:{line}: key '{key}' {reason}")


REPRODUCE = ["reproduce-all", "--scenario-dir", "{dir}", "--out", "{out}"]


def _golden(row_id, name, change, expected):
    """A row of reproduce-all with golden file name changed."""
    return pytest.param(REPRODUCE, {f"golden/{name}": change}, expected,
                        id=row_id)


def _claim_without(key):
    return lambda doc: {"claims": [*doc["claims"][:-1], {
        k: v for k, v in doc["claims"][-1].items() if k != key}]}


DIPOLE = (SCENARIOS / "box_dipole.scn").read_text()
FIRST = CLAIMS[0]                   # a claim whose scenario goes missing
LAST = CLAIMS[-1]["scenario"]       # the claim scenario read last
LAST_TEXT = (SCENARIOS / LAST).read_text()
CLAIMS_SHAPE = ("error: {golden}/claims.json must hold 'claims', a non-empty "
                "list of objects with string id, scenario and golden\n")
NOT_AN_OBJECT = "error: golden gauge_jump.json is not a JSON object\n"

# The rows of test_configuration_error_exits_1: (argv, files, expected).
# argv and expected name paths as {tmp}, {scn}, {out}, {dir} and {golden};
# files maps a path under tmp to its text or bytes, to None to delete it, or
# to a function from its JSON document to the new document.
EXIT_1 = [
    # files and scenarios the command cannot read
    pytest.param(["expand", "--scenario", "{tmp}/nope.scn", "--out", "{out}"],
                 {}, "error: [Errno 2] No such file or directory: "
                 "'{tmp}/nope.scn'\n", id="missing-scenario-file"),
    pytest.param(["gauge", "--scenario", "{tmp}", "--out", "{out}"], {},
                 "error: [Errno 21] Is a directory: '{tmp}'\n",
                 id="directory-as-scenario"),
    pytest.param(_run("expand"), {"bad.scn": "wrong header\n"},
                 "error: {scn}:1: first line must be 'expansionlab-scenario "
                 "v1', got 'wrong header'\n", id="malformed-scenario"),
    pytest.param(_run("expand"),
                 {"bad.scn": "# a comment\n\n   # and another\n"},
                 "error: {scn}: missing 'expansionlab-scenario v1' header\n",
                 id="comments-without-header"),
    pytest.param(_run("propagate"),
                 {"bad.scn": b"expansionlab-scenario v1\nkind = propagate\n"
                             b"name = \xff\n"},
                 "error: {scn}:3: not UTF-8: byte 0xff (invalid start byte)\n",
                 id="scenario-not-utf8"),
    pytest.param(_run("gauge"),
                 {"bad.scn": "expansionlab-scenario v1\nkind = gauge\n"
                             "name = g\n"},
                 "error: {scn}: missing required key 'experiment'\n",
                 id="missing-required-key"),
    pytest.param(_run("expand"),
                 {"bad.scn": scenario_text("gauge", experiment="jump")},
                 "error: {scn}: scenario kind 'gauge' cannot run under "
                 "command 'expand'\n", id="kind-mismatch"),
    # a misspelt key must not leave the default it meant to replace in
    # force; this row runs `python -m expansionlab`, so the process's own
    # exit code is held to the contract too
    pytest.param(["-m", "expansionlab", *_run("propagate")],
                 {"bad.scn": DIPOLE + "n_slice = 5\namplitde = 50\n"},
                 f"error: {{scn}}:{len(DIPOLE.splitlines()) + 1}: unknown key "
                 f"'n_slice'\n", id="misspelt-keys"),
    # hbar = 1 is a constant, so a scenario that sets it, even to 1, sets
    # an undeclared key
    _scn("propagate-hbar", "propagate", dict(perturbation="none", hbar=1.0),
         "error: {scn}:5: unknown key 'hbar'\n"),
    _scn("jump-hbar", "gauge", dict(experiment="jump", hbar=1.0),
         "error: {scn}:5: unknown key 'hbar'\n"),
    _scn("phase-fit-hbar", "gauge", dict(experiment="phase-fit", hbar=1.0),
         "error: {scn}:5: unknown key 'hbar'\n"),
    # usage errors
    pytest.param(["expand", "--out", "{out}"], {},
                 "error: the following arguments are required: --scenario\n",
                 id="usage"),
    pytest.param(_run("gauge", "--seed", "3"), {},
                 "error: unrecognized arguments: --seed 3\n",
                 id="seed-off-propagate"),
    pytest.param(_run("propagate", "--seed", "-5"),
                 {"bad.scn": scenario_text("propagate",
                                           perturbation="random-hermitian")},
                 "error: argument --seed: must be at least 0, got -5\n",
                 id="negative-seed-flag"),
    pytest.param(_run("propagate", "--seed", "x"), {},
                 "error: argument --seed: must be an integer, got 'x'\n",
                 id="seed-flag-not-an-integer"),
    # values the key table refuses before a constructor sees them
    _keyed("initial-index", "gauge",
           dict(experiment="jump", n_basis=24, initial_index=30),
           "initial_index"),
    _keyed("magnetic-length", "expand",
           dict(family="landau", magnetic_length=-1, n_max=5,
                quad_check_max=2), "magnetic_length"),
    _keyed("dipole-basis", "propagate",
           dict(perturbation="dipole-ramp", n_basis=1, n_slices=10),
           "n_basis"),
    _keyed("phase-fit-basis", "gauge",
           dict(experiment="phase-fit", n_reference=16, fit_sizes="2, 4, 32",
                n_slices=10), "n_reference"),
    # a ramp over no time divides by zero; the step ignores its ramp_time
    _keyed("jump-ramp-time", "gauge",
           dict(experiment="jump", switch="ramp", ramp_time=0.0), "ramp_time"),
    _keyed("phase-ramp-time", "gauge",
           dict(experiment="phase-fit", phase_ramp_time=0.0, n_slices=10),
           "phase_ramp_time"),
    _keyed("dipole-ramp-time", "propagate",
           dict(perturbation="dipole-ramp", ramp_time=-0.5, n_basis=4,
                n_slices=10), "ramp_time"),
    _keyed("propagate-n_slices", "propagate",
           dict(perturbation="none", n_basis=4, n_slices=0), "n_slices"),
    _keyed("jump-n_basis", "gauge",
           dict(experiment="jump", n_basis=1, initial_index=1), "n_basis"),
    _keyed("jump-initial-index-zero", "gauge",
           dict(experiment="jump", initial_index=0), "initial_index"),
    _keyed("phase-fit-ramp-time", "gauge",
           dict(experiment="phase-fit", ramp_time=-0.3, phase_ramp_time=0.3,
                n_slices=10), "ramp_time"),
    _keyed("box-n_max", "expand",
           dict(family="box", target="eigenstate", n_max=0), "n_max"),
    _keyed("box-target_n", "expand",
           dict(family="box", target="eigenstate", target_n=0), "target_n"),
    # a zero width divides by zero in the box energies
    _keyed("propagate-well_width", "propagate",
           dict(perturbation="none", well_width=0.0, n_slices=10),
           "well_width"),
    _keyed("propagate-n_basis", "propagate",
           dict(perturbation="random-hermitian", n_basis=0), "n_basis"),
    _keyed("dipole-step-basis", "propagate",
           dict(perturbation="dipole-step", n_basis=1), "n_basis"),
    _keyed("phase-fit-initial-index", "gauge",
           dict(experiment="phase-fit", fit_sizes="2, 4", n_reference=4,
                initial_index=3), "initial_index"),
    _keyed("phase-fit-initial-index-zero", "gauge",
           dict(experiment="phase-fit", initial_index=0), "initial_index"),
    _keyed("phase-fit-n_grid", "gauge", dict(experiment="phase-fit", n_grid=0),
           "n_grid"),
    _keyed("phase-fit-fit_stride", "gauge",
           dict(experiment="phase-fit", fit_stride=0), "fit_stride"),
    _keyed("phase-fit-well_width", "gauge",
           dict(experiment="phase-fit", well_width=0.0), "well_width"),
    _keyed("jump-well_width", "gauge", dict(experiment="jump", well_width=0.0),
           "well_width"),
    _keyed("jump-observe_stride", "gauge",
           dict(experiment="jump", observe_stride=0), "observe_stride"),
    _keyed("box-sigma", "expand",
           dict(family="box", target="gaussian", sigma=0.0), "sigma"),
    # width sets sigma's default, so it is checked first
    _keyed("box-width", "expand",
           dict(family="box", target="eigenstate", width=0.0), "width"),
    _keyed("quad-check-above-n-max", "expand",
           dict(family="landau", n_max=5, quad_check_max=10),
           "quad_check_max"),
    _keyed("quad-check-zero", "expand",
           dict(family="landau", n_max=5, quad_check_max=0), "quad_check_max"),
    _keyed("one-fit-size", "gauge",
           dict(experiment="phase-fit", fit_sizes=4, n_slices=10),
           "fit_sizes"),
    _keyed("no-fit-size", "gauge",
           dict(experiment="phase-fit", fit_sizes=",", n_slices=10),
           "fit_sizes"),
    _keyed("negative-tracked", "propagate",
           dict(n_basis=4, n_slices=10, tracked=-1), "tracked"),
    _keyed("propagate-empty-window", "propagate",
           dict(perturbation="none", n_basis=4, n_slices=10, t_start=1.0,
                t_end=1.0), "t_end", "must exceed t_start = 1.0, got 1.0\n"),
    _keyed("phase-fit-no-slices", "gauge",
           dict(experiment="phase-fit", n_slices=0), "n_slices",
           "must be at least 1, got 0\n"),
    _keyed("phase-fit-empty-window", "gauge",
           dict(experiment="phase-fit", t_end=0.0), "t_end",
           "must be positive"),
    _keyed("jump-amplitude-square-overflow", "gauge",
           dict(experiment="jump", amplitude=1e200), "amplitude",
           "must have a finite square, got 1e+200\n"),
    # every ramp divides by its time
    _keyed("jump-ramp-time-subnormal", "gauge",
           dict(experiment="jump", switch="ramp", ramp_time=1e-320),
           "ramp_time", "must have a square that is a normal float"),
    _keyed("propagate-ramp-time-subnormal", "propagate",
           dict(perturbation="dipole-ramp", n_basis=4, n_slices=10,
                ramp_time=1e-320), "ramp_time",
           "must have a square that is a normal float"),
    _keyed("phase-fit-ramp-time-subnormal", "gauge",
           dict(experiment="phase-fit", n_slices=10, ramp_time=1e-320),
           "ramp_time", "must have a square that is a normal float"),
    _keyed("phase-ramp-time-subnormal", "gauge",
           dict(experiment="phase-fit", n_slices=10, phase_ramp_time=1e-320),
           "phase_ramp_time", "must have a square that is a normal"),
    # the eigenstate target reads no sigma, so only the width is checked
    _keyed("eigenstate-width-subnormal", "expand",
           dict(family="box", target="eigenstate", width=1e-320), "width",
           "must have a square that is a normal float"),
    # a stepped A(t) is constant wherever the field check samples, so a
    # mismatched pair of steps would pass it and exit 0
    _keyed("mismatched-step-pair", "gauge",
           dict(experiment="jump", second_gauge="mismatched"), "second_gauge",
           "must not be 'mismatched' unless switch = ramp, got switch = "
           "'step'\n"),
    # a non-finite value is refused at its line, not run to fail or report
    # nan later
    _keyed("jump-amplitude-nan", "gauge",
           dict(experiment="jump", amplitude="nan"), "amplitude",
           "must be a finite real number, got 'nan'\n"),
    _keyed("propagate-t_end-inf", "propagate",
           dict(perturbation="dipole-ramp", t_end="inf"), "t_end",
           "must be a finite real number, got 'inf'\n"),
    _keyed("landau-magnetic_length-inf", "expand",
           dict(family="landau", magnetic_length="inf"), "magnetic_length",
           "must be a finite real number, got 'inf'\n"),
    # values whose arithmetic leaves float range: a Gaussian with no
    # positive finite norm on the well, or an overflow or a division by an
    # underflowed product; the first overflow stops the run. A length whose
    # square is not a normal float is refused at its key's line
    _scn("gaussian-off-the-well", "expand",
         dict(family="box", target="gaussian", center=1e9),
         "error: the Gaussian of sigma = 0.1, center = 1000000000.0 has no "
         "positive finite norm on the well of width = 1.0\n"),
    _scn("gaussian-between-nodes", "expand",
         dict(family="box", target="gaussian", sigma=1e-9),
         "error: the Gaussian of sigma = 1e-09, center = 0.5 has no positive "
         "finite norm on the well of width = 1.0\n"),
    _keyed("gaussian-overflow", "expand",
           dict(family="box", target="gaussian", sigma=1e-200), "sigma",
           "must have a square that is a normal float, got 1e-200\n"),
    _keyed("landau-length-underflow", "expand",
           dict(family="landau", magnetic_length=1e-200), "magnetic_length",
           "must have a square that is a normal float, got 1e-200\n"),
    _scn("ramp-t_end-overflow", "propagate",
         dict(perturbation="dipole-ramp", t_end=1e200),
         "error: beyond float range: "),
    _keyed("landau-scan-overflow", "expand",
           dict(family="landau", magnetic_length=1e150), "magnetic_length",
           "must keep the scan's partial sums of (2 a^2)^2 up to n_max = 200 "
           "finite, got 1e+150\n"),
    _keyed("gaussian-exponent-overflow", "expand",
           dict(family="box", target="gaussian", width=1e10, sigma=1e-150),
           "sigma", "must keep ((x - center) / sigma)^2 finite on the well of "
           "width = 10000000000.0 about center = 5000000000.0, got 1e-150\n"),
    # a ramp time whose square is normal, but whose phase pi t / ramp_time
    # overflows before the window ends: the later of the two keys names it
    _keyed("jump-ramp-phase-overflow", "gauge",
           dict(experiment="jump", switch="ramp", ramp_time=2e-154,
                t_end=1e160), "t_end",
           "must keep the ramp phase pi t / ramp_time finite up to |t| = "
           "1e+160, got ramp_time = 2e-154\n"),
    _keyed("phase-fit-ramp-phase-overflow", "gauge",
           dict(experiment="phase-fit", ramp_time=2e-154, t_end=1e160),
           "t_end", "must keep the ramp phase pi t / ramp_time finite up to "
           "|t| = 1e+160, got ramp_time = 2e-154\n"),
    _keyed("phase-ramp-phase-overflow", "gauge",
           dict(experiment="phase-fit", t_end=1e160, phase_ramp_time=2e-154),
           "phase_ramp_time", "must keep the ramp phase pi t / "
           "phase_ramp_time finite up to |t| = 1e+160, got phase_ramp_time = "
           "2e-154\n"),
    _keyed("propagate-ramp-phase-overflow", "propagate",
           dict(perturbation="dipole-ramp", t_end=1e160, ramp_time=2e-154),
           "ramp_time", "must keep the ramp phase pi t / ramp_time finite up "
           "to |t| = 1e+160, got ramp_time = 2e-154\n"),
    # int() takes any size; the scan reads n_max + 1 as a float
    _keyed("landau-n_max-beyond-float", "expand",
           dict(family="landau", n_max=10 ** 400), "n_max",
           f"must be at most 100000, got {10 ** 400}\n"),
    # a step below the float spacing of the window's times: the grid would
    # repeat a time, at the 4 n_slices of propagate's finest refinement run
    # even where its own n_slices grid does not
    _keyed("propagate-repeated-times", "propagate",
           dict(perturbation="dipole-step", t_start=1e16,
                t_end=1.0000000000000004e16, n_slices=1000), "t_end",
           "must keep the 4000-slice time grid strictly increasing, its step "
           "above 4 ulp(1.0000000000000004e+16) = 8.0, got dt = 0.001\n"),
    _keyed("jump-dt-underflow", "gauge",
           dict(experiment="jump", t_end=1e-320, n_slices=10000), "n_slices",
           "must keep the 10000-slice time grid strictly increasing, its step "
           "above 4 ulp(1e-320) = 2e-323, got dt = 0.0\n"),
    _keyed("phase-fit-dt-underflow", "gauge",
           dict(experiment="phase-fit", t_end=1e-320, ramp_time=1e-150,
                phase_ramp_time=1e-150, n_slices=10000), "n_slices",
           "must keep the 10000-slice time grid strictly increasing, its step "
           "above 4 ulp(1e-320) = 2e-323, got dt = 0.0\n"),
    _keyed("refinement-repeated-times", "propagate",
           dict(perturbation="dipole-ramp", t_start=1e16,
                t_end=1.0000000000004e16, n_slices=1000, ramp_time=2000,
                amplitude=1e-6), "t_end",
           "must keep the 4000-slice time grid strictly increasing, its step "
           "above 4 ulp(1.0000000000004e+16) = 8.0, got dt = 1.0\n"),
    # sizes whose run would not fit in memory or end: a slice count whose
    # grid np.arange could not allocate (7.28 TiB; never 10^8, which it can,
    # about 24 GiB), and bases and tables as large
    _keyed("propagate-slices-beyond-memory", "propagate",
           dict(perturbation="random-hermitian", n_basis=8,
                n_slices=10 ** 12), "n_slices",
           "must be at most 1000000, got 1000000000000\n"),
    _keyed("jump-slices-beyond-memory", "gauge",
           dict(experiment="jump", n_slices=10 ** 12), "n_slices",
           "must be at most 1000000, got 1000000000000\n"),
    _keyed("phase-fit-slices-beyond-memory", "gauge",
           dict(experiment="phase-fit", n_slices=10 ** 12), "n_slices",
           "must be at most 1000000, got 1000000000000\n"),
    _keyed("propagate-basis-beyond-memory", "propagate",
           dict(perturbation="dipole-step", n_basis=10 ** 8), "n_basis",
           "must be at most 1000, got 100000000\n"),
    _keyed("jump-basis-beyond-memory", "gauge",
           dict(experiment="jump", n_basis=10 ** 8), "n_basis",
           "must be at most 1000, got 100000000\n"),
    _keyed("reference-basis-beyond-memory", "gauge",
           dict(experiment="phase-fit", fit_sizes="2, 4", n_reference=10 ** 8),
           "n_reference", "must be at most 1000, got 100000000\n"),
    _keyed("phase-fit-grid-beyond-memory", "gauge",
           dict(experiment="phase-fit", n_grid=10 ** 12), "n_grid",
           "must be at most 100000, got 1000000000000\n"),
    _keyed("box-projection-without-end", "expand",
           dict(family="box", target="eigenstate", n_max=10 ** 11), "n_max",
           "must be at most 1000, got 100000000000\n"),
    # default_rng's own refusal named no key
    _keyed("negative-seed", "propagate",
           dict(perturbation="random-hermitian", seed=-1), "seed",
           "must be at least 0, got -1\n"),
    # reproduce-all checks its scenario directory, claims.json, every golden
    # table and every key of every claim scenario before it runs any
    pytest.param(REPRODUCE, {f"scenarios/{p.name}": None
                             for p in SCENARIOS.glob("*.scn")},
                 "error: no scenario files in {dir}\n",
                 id="empty-scenario-dir"),
    pytest.param(REPRODUCE, {f"scenarios/{FIRST['scenario']}": None},
                 f"error: claim '{FIRST['id']}' needs scenario "
                 f"{FIRST['scenario']}, not found in {{dir}}\n",
                 id="claim-scenario-not-in-dir"),
    # the misspelt key sits in the last claim scenario, so a check made as
    # each scenario runs would already have run the others
    pytest.param(REPRODUCE,
                 {f"scenarios/{LAST}": LAST_TEXT + "fit_size = 2, 4\n"},
                 f"error: {{dir}}/{LAST}:{len(LAST_TEXT.splitlines()) + 1}: "
                 f"unknown key 'fit_size'\n", id="every-key-before-running"),
    _golden("unknown-claim", "claims.json",
            lambda doc: {"claims": [dict(doc["claims"][0], id="no-such-claim"),
                                    *doc["claims"][1:]]},
            "error: claim 'no-such-claim' has no checker\n"),
    _golden("missing-key", "gauge_jump.json",
            lambda g: {k: v for k, v in g.items() if k != "covariant_tol"},
            "error: golden gauge_jump.json lacks covariant_tol, which claim "
            "'velocity-jump' reads\n"),
    _golden("empty-object", "claims.json", lambda doc: {}, CLAIMS_SHAPE),
    _golden("list", "claims.json", lambda doc: [1], CLAIMS_SHAPE),
    _golden("no-claims", "claims.json", lambda doc: {"claims": []},
            CLAIMS_SHAPE),
    _golden("claim-not-object", "claims.json", lambda doc: {"claims": [1]},
            CLAIMS_SHAPE),
    _golden("claim-without-golden", "claims.json", _claim_without("golden"),
            CLAIMS_SHAPE),
    _golden("claim-without-scenario", "claims.json",
            _claim_without("scenario"), CLAIMS_SHAPE),
    _golden("golden-number", "gauge_jump.json", lambda g: 3, NOT_AN_OBJECT),
    _golden("golden-string", "gauge_jump.json",
            lambda g: "amplitude jump_tol covariant_tol", NOT_AN_OBJECT),
    _golden("claims-not-json", "claims.json", '{"claims": [',
            "error: {golden}/claims.json:1: not JSON: Expecting value at "
            "column 13\n"),
    _golden("golden-not-json", "gauge_jump.json", '{"amplitude": 0.2,\n',
            "error: {golden}/gauge_jump.json:2: not JSON: "),
    _golden("golden-not-utf8", "gauge_jump.json",
            b'{"amplitude": 0.2,\n "jump_tol": "\xff"}',
            "error: {golden}/gauge_jump.json:2: not UTF-8: byte 0xff "
            "(invalid start byte)\n"),
    *(_golden(f"golden-without-{cid}:{key}", GOLDEN_OF[cid],
              lambda g, key=key: {k: v for k, v in g.items() if k != key},
              f"error: golden {GOLDEN_OF[cid]} lacks {key}, which claim "
              f"'{cid}' reads\n")
      for cid, key in NAMED_KEYS),
    *(_golden(f"golden-malformed-{cid}:{key}", GOLDEN_OF[cid],
              lambda g, key=key, value=value: dict(g, **{key: value}),
              f"error: golden {GOLDEN_OF[cid]} has {key} = {value!r}, but "
              f"claim '{cid}' reads it as ")
      for cid, key, value in MALFORMED),
]


@pytest.mark.parametrize("argv,files,expected", EXIT_1)
def test_configuration_error_exits_1(tmp_path, monkeypatch, argv, files,
                                     expected):
    # usage errors, unreadable files, scenarios and golden tables a run
    # cannot take, and values whose arithmetic leaves float range are
    # configuration errors, each refused before any output
    paths = dict(tmp=tmp_path, scn=tmp_path / "bad.scn", out=tmp_path / "out",
                 dir=tmp_path / "scenarios", golden=tmp_path / "golden")
    if "reproduce-all" in argv:     # it reads copies of the bundled data
        shutil.copytree(SCENARIOS, paths["dir"])
        shutil.copytree(GOLDEN, paths["golden"])
        monkeypatch.setenv("EXPANSIONLAB_GOLDEN_DIR", str(paths["golden"]))
    for name, content in files.items():
        path = tmp_path / name
        if content is None:
            path.unlink()
        elif callable(content):
            path.write_text(json.dumps(content(json.loads(path.read_text()))))
        else:
            path.write_bytes(content if isinstance(content, bytes)
                             else content.encode())
    _exits_1([arg.format(**paths) for arg in argv], expected.format(**paths))


@pytest.mark.parametrize("command,keys", [
    ("gauge", dict(experiment="jump", switch="step", ramp_time=0.0)),
    ("propagate", dict(perturbation="dipole-step", ramp_time=-1.0)),
    ("propagate", dict(perturbation="none", ramp_time=0.0)),
], ids=["jump-step", "dipole-step", "no-perturbation"])
def test_ramp_time_is_bounded_only_where_a_ramp_runs(tmp_path, command,
                                                     keys):
    scn = load_scenario(write_scenario(tmp_path / "ok.scn", command, **keys))
    assert scn.read(cli._KEYS)["ramp_time"] == keys["ramp_time"]


def _sign_flipped_gauge(self):
    return GaugeFunction(
        f=lambda t, r: -self.amplitude * r[0],
        grad_f=lambda t, r: gauge._along_x(self.amplitude, r),
        dt_f=lambda t, r: 0.0 * r[0])


_box_line_state = gauge.box_line_state


def _doubled_line_state(width, amplitudes):
    line = _box_line_state(width, amplitudes)
    return LineState(line.x, line.w, 2.0 * line.value, 2.0 * line.dx)


@pytest.mark.parametrize("target,replacement,error", [
    (GaugeJumpScenario, ("gauge_function", _sign_flipped_gauge),
     "finite differences"),
    (gauge, ("box_line_state", _doubled_line_state), "state norm"),
], ids=["gauge-consistency", "normalization"])
def test_exit_3_on_consistency_errors(tmp_path, monkeypatch, capsys, target,
                                      replacement, error):
    monkeypatch.setattr(target, *replacement)
    path = write_scenario(tmp_path / "step.scn", "gauge", experiment="jump",
                          n_slices=8)
    code = main(["gauge", "--scenario", str(path),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert err.startswith("error:") and error in err


EXIT_CODES = [
    (specfun.NonConvergenceError("no convergence"), 2),
    (specfun.QuadratureError("no convergence", 0.0, 1.0), 2),
    (specfun.SeriesDivergenceError("no convergence"), 2),
    (gauge.PhysicalConsistencyError("inconsistent"), 3),
    (gauge.GaugeConsistencyError("inconsistent"), 3),
    (gauge.GaugeFieldMismatchError("inconsistent", 0.5), 3),
    (gauge.NormalizationError("inconsistent", 2.0), 3),
    (scenario.ScenarioError("bad.scn", 3, "malformed"), 1),
    (basis.BasisDomainError("malformed"), 1),
    (basis.BasisIndexError("malformed"), 1),
    (propagation.PropagationContractError("malformed"), 1),
    (specfun.SpecfunDomainError("malformed"), 1),
]


def _package_exception_classes():
    classes = set()
    for mod in (expansionlab, basis, cli, expansionlab.expansion, gauge,
                propagation, scenario, specfun, svgplot):
        classes |= {obj for obj in vars(mod).values()
                    if inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__.startswith("expansionlab")}
    return classes


@pytest.mark.parametrize("exc,code", EXIT_CODES,
                         ids=[type(e).__name__ for e, _ in EXIT_CODES])
def test_exit_code_of_every_package_exception(tmp_path, monkeypatch, capsys,
                                              exc, code):
    def raise_it(path):
        raise exc

    monkeypatch.setattr(cli, "load_scenario", raise_it)
    assert main(["expand", "--scenario", "any.scn",
                 "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_exit_code_families_are_disjoint_and_cover_the_package():
    assert {type(e) for e, _ in EXIT_CODES} == _package_exception_classes()
    families = [specfun.NonConvergenceError, gauge.PhysicalConsistencyError,
                (ValueError, OSError, ArithmeticError)]
    for exc in [e for e, _ in EXIT_CODES] + [OverflowError(),
                                             ZeroDivisionError()]:
        assert sum(isinstance(exc, f) for f in families) == 1, type(exc)


def test_main_requires_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1


def test_cli_module_runs_as_a_script(tmp_path):
    # `python -m expansionlab.cli` runs main, as `python -m expansionlab` does
    out = tmp_path / "out"
    r = subprocess.run([sys.executable, "-m", "expansionlab.cli", "expand",
                        "--scenario", str(SCENARIOS / "box_roundtrip.scn"),
                        "--out", str(out)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert (out / "manifest.json").is_file()


def test_star_import_gives_the_modules_and_the_version():
    # the package's __all__: a star import gives __version__ too
    namespace = {}
    exec("from expansionlab import *", namespace)
    assert {"basis", "expansion", "gauge", "propagation", "specfun",
            "__version__"} <= namespace.keys()


# ------------------------------------------------------------ scenario keys

def _readme_key_table():
    """{section: [(key, the parts of its parenthesis)]} of the README's
    "Scenario format" table, one row per section, each key written `key`
    (default, ...); parts are split at each ',' and ';' outside nested
    parentheses. A key written twice is listed twice."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([\w/-]+)` \| (.+) \|$",
                      text.split("\n## Scenario format\n", 1)[1], re.M)
    table = {}
    for section, keys in rows:
        table[section] = []
        for match in re.finditer(r"`(\w+)` \(", keys):
            depth, parts = 1, [""]
            for ch in keys[match.end():]:
                depth += (ch == "(") - (ch == ")")
                if depth == 0:
                    break
                if depth == 1 and ch in ",;":
                    parts.append("")
                else:
                    parts[-1] += ch
            table[section].append(
                (match[1], [part.strip() for part in parts]))
    return table


def test_readme_key_table_lists_each_section_s_keys_in_read_order():
    table = {section: [key for key, _ in keys]
             for section, keys in _readme_key_table().items()}
    sections = dict.fromkeys(row[0] for row in cli._KEYS)
    assert table == {section: [row[1] for row in cli._KEYS
                               if row[0] == section] for section in sections}


def test_readme_key_table_states_each_constraint():
    # a key with a constraint shows its range after its default; a key
    # without one shows its default alone (a choice lists its options too)
    table = {section: dict(keys)
             for section, keys in _readme_key_table().items()}
    for section, key, kind, default, constraint in cli._KEYS:
        parts = table[section][key]
        shown = len(default) if isinstance(default, tuple) else 1
        if constraint:
            assert len(parts) > shown, (section, key, parts)
        elif not isinstance(kind, set):
            assert len(parts) == shown, (section, key, parts)


def _with_keys(tmp_path, name, *lines):
    """A copy of bundled scenario `name` with `lines` appended, and the
    1-based line number of the first of them."""
    text = (SCENARIOS / name).read_text()
    path = tmp_path / name
    path.write_text(text + "".join(f"{line}\n" for line in lines))
    return path, len(text.splitlines()) + 1


BUNDLED = sorted(p.name for p in SCENARIOS.glob("*.scn"))
_DECLARED = {"kind", "name", *scenario.SELECTORS.values(),
             *(row[1] for row in cli._KEYS)}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(BUNDLED),
       key=st.from_regex(r"[a-z_][a-z0-9_]{0,15}", fullmatch=True).filter(
           lambda k: k not in _DECLARED),
       value=st.sampled_from(["1", "0.5", "ramp", "2, 4"]))
def test_bundled_scenario_with_an_undeclared_key_exits_1(name, key, value):
    with tempfile.TemporaryDirectory() as tmp:
        path, line = _with_keys(Path(tmp), name, f"{key} = {value}")
        kind = load_scenario(SCENARIOS / name).kind
        _exits_1([kind, "--scenario", str(path), "--out", f"{tmp}/out"],
                 f"error: {path}:{line}: unknown key '{key}'\n")


def _bench_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_bundled_scenarios_and_bench_ops_declare_every_key():
    # the section rule rejects none of the scenarios the program ships or
    # the benchmark generates
    workloads = _bench_workloads()
    texts = {p.name: p.read_text() for p in SCENARIOS.glob("*.scn")}
    for seed in (3, 7, 99):
        for workload in workloads.WORKLOADS:
            texts.update((f"{workload}:{seed}:{op.label}", op.text)
                         for op in workloads.build(workload, seed, DATA)
                         if op.text is not None)
    assert len(texts) == 171
    for origin, text in texts.items():
        scenario.parse_scenario_text(text, origin).read(cli._KEYS)


# m 2^e with e down to the subnormals, and windows of r ulps per slice, so
# both sides of the time grid's constraint are drawn
_TIMES = st.builds(math.ldexp, st.integers(-2 ** 20, 2 ** 20),
                   st.integers(-1074, -1000) | st.integers(-1074, 900))


def _window(section, t, r, n):
    """A scenario of section (propagate, jump or phase-fit) at n_slices = n
    whose window spans n r ulps of t, from t for propagate, from 0 for a
    gauge run: (scenario, its line count, window, the key read last, the
    slice counts of the grids it is run on)."""
    t0 = t if section == "propagate" else 0.0
    end = t0 + n * r * math.ulp(t)
    if section == "propagate":
        key, slices = "t_end", (n, 2 * n, 4 * n)
        body = ["kind = propagate", "perturbation = none", f"n_slices = {n}",
                f"t_start = {t!r}", f"t_end = {end!r}"]
    else:
        key, slices = "n_slices", (n,)
        body = ["kind = gauge", f"experiment = {section}", f"t_end = {end!r}",
                f"n_slices = {n}"]
    lines = ["expansionlab-scenario v1", "name = w", *body]
    scn = scenario.parse_scenario_text("\n".join(lines) + "\n", "w.scn")
    return scn, len(lines), (t0, end), key, slices


# windows of both sections' kinds: both sides of the grid's constraint
_WINDOWS = dict(section=st.sampled_from(["propagate", "jump", "phase-fit"]),
                t=_TIMES, r=st.sampled_from(range(1, 33)),
                n=st.integers(1, 10 ** 4))


@settings(max_examples=150, deadline=None)
@given(**_WINDOWS)
def test_an_accepted_window_has_strictly_increasing_grids(section, t, r, n):
    # every grid a read window is run on is strictly increasing: n slices,
    # and 2n and 4n for propagate's refinement runs; a refused window is
    # named at the key read last, t_end for propagate, else n_slices
    scn, lines, window, key, slices = _window(section, t, r, n)
    try:
        scn.read(cli._KEYS)
    except scenario.ScenarioError as exc:
        assert str(exc).startswith(f"w.scn:{lines}: key '{key}' must "
                                   f"keep the {slices[-1]}-slice time grid")
        return
    model = propagation.HamiltonianModel([1.0], [], window)
    for k in slices:
        times = propagation._prepare(np.ones(1), model, k)[1]
        assert np.all(np.diff(times) > 0.0)


@settings(max_examples=150, deadline=None)
@given(**_WINDOWS)
def test_a_window_s_key_accepts_what_the_steppers_accept(section, t, r, n):
    # the key and propagation._prepare, which every stepper and
    # euler_final_norm run first, accept the same windows and slice counts:
    # the key at propagate's finest refinement grid, 4 n slices
    scn, _, window, _, slices = _window(section, t, r, n)
    try:
        scn.read(cli._KEYS)
        accepted = True
    except scenario.ScenarioError:
        accepted = False
    try:
        model = propagation.HamiltonianModel([1.0], [], window)
        propagation._prepare(np.ones(1), model, slices[-1])
        ran = True
    except propagation.PropagationContractError:
        ran = False
    assert accepted == ran


def _one_state(dim, n_slices, window=(0.0, 1.0), **kwargs):
    """euler_propagate from state 1 of a dim-state model with no terms."""
    return propagation.euler_propagate(
        np.eye(dim)[0], propagation.HamiltonianModel(np.arange(dim), [],
                                                     window),
        n_slices, **kwargs)


@pytest.mark.parametrize("kind,keys,key,call", [
    ("propagate", dict(perturbation="none", t_start=1.0, t_end=1.0), "t_end",
     lambda: _one_state(2, 10, (1.0, 1.0))),
    ("propagate", dict(perturbation="dipole-step", n_basis=4, t_start=1e16,
                       t_end=1.0000000000004e16, n_slices=1000), "t_end",
     lambda: propagation.euler_final_norm(
         np.eye(4)[0], propagation.box_dipole_model(
             1.0, 4, 1.0, 0.5, (1e16, 1.0000000000004e16), profile="step"),
         4000)),
    ("gauge", dict(experiment="jump", t_end=1e-320, n_slices=10000),
     "n_slices",
     lambda: propagation.unitary_propagate(np.eye(24)[0], GaugeJumpScenario(
         t_end=1e-320, n_slices=10000).hamiltonian(), 10000)),
    ("propagate", dict(perturbation="none", n_slices=0), "n_slices",
     lambda: _one_state(2, 0)),
    ("gauge", dict(experiment="jump", n_slices=0), "n_slices",
     lambda: gauge.gauge_jump_experiment(GaugeJumpScenario(n_slices=0))),
    ("gauge", dict(experiment="phase-fit", n_slices=0), "n_slices",
     lambda: gauge.phase_factored_expansion_test(
         gauge.PhaseFitScenario(n_slices=0), gauge.zero_gauge_function())),
    ("propagate", dict(perturbation="none", n_basis=4, n_slices=10,
                       tracked=-1), "tracked",
     lambda: _one_state(4, 10, tracked=-1)),
    ("propagate", dict(perturbation="random-hermitian", n_basis=0),
     "n_basis", lambda: propagation.box_energies(1.0, 0)),
    ("propagate", dict(perturbation="dipole-step", n_basis=1), "n_basis",
     lambda: propagation.dipole_matrix_elements_box(1.0, 1)),
    ("gauge", dict(experiment="jump", n_basis=1), "n_basis",
     lambda: propagation.momentum_matrix_elements_box(1.0, 1)),
    ("gauge", dict(experiment="jump", n_basis=24, initial_index=30),
     "initial_index", lambda: GaugeJumpScenario(n_basis=24, initial_index=30)),
    ("gauge", dict(experiment="phase-fit", fit_sizes="2, 4", n_reference=4,
                   initial_index=3), "initial_index",
     lambda: gauge.PhaseFitScenario(fit_sizes=(2, 4), n_reference=4,
                                    initial_index=3)),
    ("gauge", dict(experiment="phase-fit", fit_sizes="2, 4, 32",
                   n_reference=16), "n_reference",
     lambda: gauge.PhaseFitScenario(fit_sizes=(2, 4, 32), n_reference=16)),
    ("gauge", dict(experiment="phase-fit", fit_sizes="48, 2"), "fit_sizes",
     lambda: gauge.PhaseFitScenario(fit_sizes=(48, 2), n_reference=48)),
    ("gauge", dict(experiment="jump", second_gauge="mismatched"),
     "second_gauge", lambda: gauge.gauge_jump_experiment(GaugeJumpScenario(
         second_gauge="mismatched", n_basis=8, n_slices=40))),
], ids=["window-order", "refinement-grid", "jump-grid", "slice-count",
        "jump-slice-count", "phase-fit-slice-count", "tracked", "box-basis",
        "dipole-basis", "momentum-basis", "jump-initial-index",
        "phase-fit-initial-index", "reference-basis", "fit-sizes",
        "mismatched-step-pair"])
def test_a_key_and_the_library_refuse_with_one_reason(kind, keys, key, call):
    # one predicate decides each hazard that a key and the library both
    # guard: the library's message is a subject and the key's own reason
    text = "\n".join(["expansionlab-scenario v1", f"kind = {kind}",
                      "name = r", *(f"{k} = {v}" for k, v in keys.items())])
    with pytest.raises(scenario.ScenarioError) as refused:
        scenario.parse_scenario_text(text + "\n", "r.scn").read(cli._KEYS)
    head, reason = str(refused.value).split(f" key '{key}' ", 1)
    assert head == f"r.scn:{4 + list(keys).index(key)}:"
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value).endswith(" " + reason)
