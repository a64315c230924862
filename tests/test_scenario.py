"""Scenario file parsing, line-precise errors, and run manifests."""

import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expansionlab.scenario import (HEADER, RunManifest, ScenarioError,
                                   file_sha256, load_scenario,
                                   parse_scenario_text)

GOOD = """expansionlab-scenario v1
# comment line
kind = propagate
name = demo
well_width = 1.0
n_slices = 500
fit_sizes = 2, 4, 8
label = ramp
"""


def test_parse_round_trip():
    scn = parse_scenario_text(GOOD, origin="demo.scn")
    assert scn.kind == "propagate"
    assert scn.name == "demo"
    assert scn.get_float("well_width") == 1.0
    assert scn.get_int("n_slices") == 500
    assert scn.get_int_list("fit_sizes") == [2, 4, 8]
    assert scn.get_str("label", choices={"ramp", "step"}) == "ramp"
    assert scn.has("label")
    assert not scn.has("absent")


def test_defaults_for_optional_keys():
    scn = parse_scenario_text(GOOD, origin="demo.scn")
    assert scn.get_float("missing", 2.5) == 2.5
    assert scn.get_int("missing", 7) == 7
    assert scn.get_str("missing", "fallback") == "fallback"


def test_missing_required_key_names_the_key():
    scn = parse_scenario_text(GOOD, origin="demo.scn")
    with pytest.raises(ScenarioError) as excinfo:
        scn.get_float("amplitude")
    assert "amplitude" in str(excinfo.value)
    assert excinfo.value.origin == "demo.scn"


def test_header_is_enforced():
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario_text("not-a-header\nkind = expand\nname = x\n", "f.scn")
    assert excinfo.value.line == 1
    assert HEADER in str(excinfo.value)


def test_duplicate_key_reports_line():
    text = HEADER + "\nkind = expand\nname = x\nwidth = 1\nwidth = 2\n"
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario_text(text, "dup.scn")
    assert excinfo.value.line == 5
    assert "width" in str(excinfo.value)


def test_malformed_line_reports_line():
    text = HEADER + "\nkind = expand\nname = x\njust-a-token\n"
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario_text(text, "bad.scn")
    assert excinfo.value.line == 4


def test_unknown_kind_rejected():
    text = HEADER + "\nkind = simulate\nname = x\n"
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario_text(text, "k.scn")
    assert "simulate" in str(excinfo.value)


def test_type_errors_are_line_precise():
    text = HEADER + "\nkind = expand\nname = x\nn_max = 4.5\n"
    scn = parse_scenario_text(text, "t.scn")
    with pytest.raises(ScenarioError) as excinfo:
        scn.get_int("n_max")
    assert excinfo.value.line == 4

    text = HEADER + "\nkind = expand\nname = x\nwidth = wide\n"
    scn = parse_scenario_text(text, "t.scn")
    with pytest.raises(ScenarioError):
        scn.get_float("width")


def test_choice_violations_name_the_options():
    text = HEADER + "\nkind = expand\nname = x\nfamily = ring\n"
    scn = parse_scenario_text(text, "c.scn")
    with pytest.raises(ScenarioError) as excinfo:
        scn.get_str("family", choices={"landau", "box"})
    msg = str(excinfo.value)
    assert "ring" in msg and "landau" in msg


def test_load_scenario_and_sha(tmp_path):
    path = tmp_path / "demo.scn"
    path.write_text(GOOD)
    scn = load_scenario(path)
    assert scn.name == "demo"
    assert scn.sha256() == file_sha256(path)
    assert len(scn.sha256()) == 64


def test_manifest_is_deterministic(tmp_path):
    out = tmp_path / "artifact.csv"
    out.write_text("a,b\n1,2\n")

    def build(path):
        man = RunManifest("f" * 64, "0.1.0", "expand", 1.0, None)
        man.add_output(out)
        man.write(path)

    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    build(p1)
    build(p2)
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert data["scenario_sha256"] == "f" * 64
    assert data["outputs"][0]["path"] == "artifact.csv"
    assert len(data["outputs"][0]["sha256"]) == 64


# keys are identifiers; values may hold spaces and '=' but never '#', which
# starts a comment, and are stripped like the parser strips them
_keys = st.from_regex(r"[a-z_][a-z0-9_]{0,11}", fullmatch=True).filter(
    lambda k: k not in ("kind", "name"))
_values = st.text(string.ascii_letters + string.digits + " .,=-+_:/()",
                  min_size=1, max_size=20).map(str.strip).filter(bool)
_scenario_dicts = st.dictionaries(_keys, _values, max_size=8)


def _scenario_lines(keys, values, blanks):
    """Header, kind, name and the pairs, with comments and blanks interleaved."""
    pairs = [("kind", "expand"), ("name", "demo")] + list(zip(keys, values))
    lines = ["# generated", HEADER]
    for (k, v), gap in zip(pairs, blanks):
        lines += ["", "# note"][:gap]
        lines.append(f"{k} = {v}")
    return lines


@settings(max_examples=50, deadline=None)
@given(data=_scenario_dicts, blanks=st.lists(st.integers(0, 2), min_size=10,
                                             max_size=10))
def test_generated_scenario_parses_back(data, blanks):
    lines = _scenario_lines(list(data), list(data.values()), blanks)
    scn = parse_scenario_text("\n".join(lines) + "\n", "gen.scn")
    assert {k: v for k, (v, _) in scn.raw.items()} \
        == {"kind": "expand", "name": "demo", **data}
    for key, (value, line) in scn.raw.items():
        assert lines[line - 1] == f"{key} = {value}"
    assert all(scn.get_str(k) == v for k, v in data.items())


@settings(max_examples=50, deadline=None)
@given(data=_scenario_dicts, blanks=st.lists(st.integers(0, 2), min_size=10,
                                             max_size=10),
       defect=st.sampled_from(["header", "no-equals", "empty-key",
                               "duplicate"]),
       where=st.integers(0, 10))
def test_malformed_scenario_error_starts_with_origin_and_line(data, blanks,
                                                             defect, where):
    lines = _scenario_lines(list(data), list(data.values()), blanks)
    start = lines.index(HEADER) + 1
    if defect == "header":
        bad = start - 1
        lines[bad] = "expansionlab-scenario v0"
    else:
        if defect == "duplicate":
            start = lines.index("kind = expand") + 1
        bad = start + where % (len(lines) - start + 1)
        lines.insert(bad, {"no-equals": "just-a-token",
                           "empty-key": " = value",
                           "duplicate": "kind = expand"}[defect])
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario_text("\n".join(lines) + "\n", "gen.scn")
    assert excinfo.value.line == bad + 1
    assert str(excinfo.value).startswith(f"gen.scn:{bad + 1}: ")
