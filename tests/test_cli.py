"""CLI exit-code contract, artifact schemas, and reproducibility."""

import inspect
import json
import re
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import expansionlab
from expansionlab import (basis, cli, gauge, propagation, scenario, specfun,
                          svgplot)
from expansionlab.cli import (_check_euler_growth,
                              _check_magnitude_recurrence, _check_phase_fit,
                              cmd_expand, cmd_gauge, cmd_propagate, main)
from expansionlab.gauge import GaugeFunction, GaugeJumpScenario, LineState
from expansionlab.scenario import load_scenario

SCENARIOS = Path(resources.files("expansionlab") / "data" / "scenarios")
GOLDEN = Path(resources.files("expansionlab") / "data" / "golden")


def run_cli(*args, env_extra=None):
    import os

    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "expansionlab", *args],
                          capture_output=True, text=True, env=env)


def test_expand_box_scenario_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    code, stats = cmd_expand(load_scenario(SCENARIOS / "box_roundtrip.scn"),
                             out)
    assert code == 0
    assert stats["parseval_defect"] < 1e-10
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
    assert stats["parseval_defect"] < 1e-6
    assert stats["round_trip"] < 1e-5
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


def test_exit_1_on_missing_scenario_file(tmp_path):
    r = run_cli("expand", "--scenario", str(tmp_path / "nope.scn"),
                "--out", str(tmp_path / "out"))
    assert r.returncode == 1
    assert "error" in r.stderr


def test_exit_1_on_missing_required_key(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text("expansionlab-scenario v1\nkind = gauge\nname = g\n")
    r = run_cli("gauge", "--scenario", str(path),
                "--out", str(tmp_path / "out"))
    assert r.returncode == 1
    assert "experiment" in r.stderr


def test_exit_1_on_malformed_scenario(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text("wrong header\n")
    r = run_cli("expand", "--scenario", str(path),
                "--out", str(tmp_path / "out"))
    assert r.returncode == 1


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


def test_reproduce_all_exit_1_on_empty_scenario_dir(tmp_path):
    empty = tmp_path / "scn"
    empty.mkdir()
    r = run_cli("reproduce-all", "--scenario-dir", str(empty),
                "--out", str(tmp_path / "out"))
    assert r.returncode == 1
    assert "no scenario files" in r.stderr


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


def _unknown_claim(golden_dir):
    path = golden_dir / "claims.json"
    claims = json.loads(path.read_text())
    claims["claims"][0]["id"] = "no-such-claim"
    path.write_text(json.dumps(claims))


def _golden_without_key(golden_dir):
    path = golden_dir / "gauge_jump.json"
    g = json.loads(path.read_text())
    del g["covariant_tol"]
    path.write_text(json.dumps(g))


@pytest.mark.parametrize("tamper,message", [
    (_unknown_claim, "claim 'no-such-claim' has no checker"),
    (_golden_without_key, "gauge_jump.json lacks covariant_tol"),
], ids=["unknown-claim", "missing-key"])
def test_reproduce_all_exit_1_on_bad_golden_before_running(tmp_path, tamper,
                                                           message):
    bad = tmp_path / "golden"
    shutil.copytree(GOLDEN, bad)
    tamper(bad)
    out = tmp_path / "out"
    r = run_cli("reproduce-all", "--out", str(out),
                env_extra={"EXPANSIONLAB_GOLDEN_DIR": str(bad)})
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error:") and message in r.stderr
    assert len(r.stderr.splitlines()) == 1
    assert not out.exists()


def test_golden_keys_are_what_each_checker_reads():
    # the pre-run golden check is only as good as this table
    assert cli._GOLDEN_KEYS.keys() == cli._CHECKERS.keys()
    for claim_id, checker in cli._CHECKERS.items():
        read = set(re.findall(r'golden\["(\w+)"\]',
                              inspect.getsource(checker)))
        assert read == set(cli._GOLDEN_KEYS[claim_id]), claim_id


def test_euler_growth_check_fails_on_empty_exponents():
    golden = json.loads((GOLDEN / "box_dipole_audit.json").read_text())
    stats = {"euler_final_norm": golden["final_norm_sq"], "monotone": True,
             "first_strict_step": golden["first_strict_step"],
             "audit_passed": True, "growth_exponents": []}
    ok, _ = _check_euler_growth(stats, golden, None)
    assert ok is False
    stats["growth_exponents"] = [sum(golden["exponent_range"]) / 2.0]
    ok, _ = _check_euler_growth(stats, golden, None)
    assert ok is True


def test_magnitude_recurrence_check_fails_on_truncated_values():
    # quad_check_max = 1 yields 2 fresh values against 21 frozen ones; a
    # comparison that stops at the shorter list would pass on the first two
    golden = json.loads((GOLDEN / "landau_planewave.json").read_text())
    stats = {"quad": golden["quad"][:2], "ratio_defect": 0.0,
             "worst_route_diff": 0.0}
    ok, detail = _check_magnitude_recurrence(stats, golden, None)
    assert ok is False
    assert "2 fresh values against 21" in detail


def test_phase_fit_check_fails_on_truncated_golden():
    # a golden cut to two residuals must not pass on the two it still holds
    golden = json.loads((GOLDEN / "phase_fit.json").read_text())
    fresh = list(golden["residuals"])
    fresh[2:] = [1.0] * (len(fresh) - 2)
    golden["residuals"] = golden["residuals"][:2]
    stats = {"fit_sizes": golden["fit_sizes"], "final_residuals": fresh,
             "control_max_residual": 0.0}
    ok, detail = _check_phase_fit(stats, golden, None)
    assert ok is False
    assert "8 fresh residuals against 2" in detail


def write_scenario(path, kind, **keys):
    lines = ["expansionlab-scenario v1", f"kind = {kind}", "name = t"]
    lines += [f"{k} = {v}" for k, v in keys.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("command,keys,message", [
    ("gauge", dict(experiment="jump", n_basis=24, initial_index=30),
     "initial index"),
    ("expand", dict(family="landau", magnetic_length=-1, n_max=5,
                    quad_check_max=2), "magnetic length"),
    ("propagate", dict(perturbation="dipole-ramp", n_basis=1, n_slices=10),
     "n_basis"),
    ("gauge", dict(experiment="phase-fit", n_reference=16,
                   fit_sizes="2, 4, 32", n_slices=10), "reference basis"),
], ids=["initial-index", "magnetic-length", "dipole-basis",
        "phase-fit-basis"])
def test_exit_1_on_constructor_errors(tmp_path, command, keys, message):
    path = write_scenario(tmp_path / "bad.scn", command, **keys)
    r = run_cli(command, "--scenario", str(path),
                "--out", str(tmp_path / "out"))
    assert r.returncode == 1
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error:") and message in r.stderr


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
    (basis.NonNormalizableBasisError("malformed"), 1),
    (propagation.PropagationContractError("malformed"), 1),
    (specfun.SpecfunDomainError("malformed"), 1),
    (gauge.ReferenceUnavailableError("malformed"), 1),
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
                (ValueError, FileNotFoundError,
                 gauge.ReferenceUnavailableError)]
    for exc, _ in EXIT_CODES:
        assert sum(isinstance(exc, f) for f in families) == 1, type(exc)


def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
