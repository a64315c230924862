"""Scenario file parsing, line-precise errors, and run manifests."""

import hashlib
import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expansionlab.scenario import (_CHUNK_LINES, HEADER, INT, INTS, REAL,
                                   REQUIRED, TEXT, RunManifest, ScenarioError,
                                   load_scenario, parse_scenario_text,
                                   write_artifact)

GOOD = """expansionlab-scenario v1
# comment line
kind = propagate
name = demo
well_width = 1.0
n_slices = 500
fit_sizes = 2, 4, 8
label = ramp
"""


ROWS = (("well_width", REAL, REQUIRED, None),
        ("n_slices", INT, REQUIRED, None),
        ("fit_sizes", INTS, REQUIRED, None),
        ("label", {"ramp", "step"}, REQUIRED, None))


def _table(rows, section="propagate"):
    return [(section, *row) for row in rows]


def _read(text, rows, origin="t.scn"):
    return parse_scenario_text(text, origin).read(_table(rows))


def test_parse_round_trip():
    scn = parse_scenario_text(GOOD, origin="demo.scn")
    assert scn.kind == "propagate"
    assert scn.name == "demo"
    assert scn.read(_table(ROWS)) == {"well_width": 1.0, "n_slices": 500,
                                      "fit_sizes": [2, 4, 8], "label": "ramp"}


def test_defaults_for_optional_keys():
    rows = ROWS + (
        ("amplitude", REAL, 2.5, None), ("count", INT, 7, None),
        ("profile", {"fallback", "other"}, "fallback", None),
        ("half_width", REAL, lambda v: v["well_width"] / 2.0, None))
    values = _read(GOOD, rows, "demo.scn")
    assert (values["amplitude"], values["count"], values["profile"],
            values["half_width"]) == (2.5, 7, "fallback", 0.5)


def test_a_family_picks_its_section():
    # an expand scenario's family picks its section, and with it the
    # defaults of that section
    table = [("expand/landau", "n_max", INT, 200, None),
             ("expand/box", "n_max", INT, 50, None)]
    text = HEADER + "\nkind = expand\nname = x\nfamily = box\n"
    assert parse_scenario_text(text, "c.scn").read(table) == {
        "family": "box", "n_max": 50}


def test_load_scenario_and_sha(tmp_path):
    path = tmp_path / "demo.scn"
    path.write_text(GOOD)
    scn = load_scenario(path)
    assert scn.name == "demo"
    assert scn.sha256() == hashlib.sha256(path.read_bytes()).hexdigest()
    assert len(scn.sha256()) == 64


def test_write_artifact_entry_is_the_digest_of_the_file(tmp_path):
    # UTF-8 for any line, each ended by one LF, whatever the platform
    path = tmp_path / "summary.txt"
    entry = write_artifact(path, ["⟨v⟩ = 0.5", "", "b,c"])
    data = path.read_bytes()
    assert data == "⟨v⟩ = 0.5\n\nb,c\n".encode("utf-8")
    assert entry == {"path": "summary.txt",
                     "sha256": hashlib.sha256(data).hexdigest()}
    assert write_artifact(path, [])["sha256"] == hashlib.sha256().hexdigest()
    assert path.read_bytes() == b""
    # a generator is written in chunks: the bytes and digest do not depend
    # on where the chunks end, and an empty one writes an empty file
    lines = [f"{i},{i / 7!r},ä" for i in range(5 * _CHUNK_LINES + 3)]
    entry = write_artifact(path, (line for line in lines))
    data = path.read_bytes()
    assert data == "".join(line + "\n" for line in lines).encode("utf-8")
    assert entry["sha256"] == hashlib.sha256(data).hexdigest()
    assert write_artifact(path, (line for line in []))["sha256"] \
        == hashlib.sha256().hexdigest()
    assert path.read_bytes() == b""


def test_manifest_is_deterministic(tmp_path):
    out = tmp_path / "artifact.csv"
    entry = write_artifact(out, ["a,b", "1,2"])

    def build(path):
        man = RunManifest("f" * 64, "0.1.0", "expand", 1.0, None, [entry])
        man.write(path)

    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    build(p1)
    build(p2)
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert data["scenario_sha256"] == "f" * 64
    assert data["outputs"][0]["path"] == "artifact.csv"
    assert len(data["outputs"][0]["sha256"]) == 64
    # every field once, sorted, indented by two, with a trailing newline
    assert p1.read_text() == "\n".join([
        '{', '  "command": "expand",', '  "outputs": [', '    {',
        '      "path": "artifact.csv",',
        f'      "sha256": "{hashlib.sha256(out.read_bytes()).hexdigest()}"',
        '    }', '  ],',
        f'  "scenario_sha256": "{"f" * 64}",', '  "seed": null,',
        '  "tolerance_scale": 1.0,', '  "tool_version": "0.1.0"', '}', ''])


# keys are identifiers; values may hold spaces and '=' but never '#', which
# starts a comment, and are stripped like the parser strips them
_keys = st.from_regex(r"[a-z_][a-z0-9_]{0,11}", fullmatch=True).filter(
    lambda k: k not in ("kind", "name"))
_values = st.text(string.ascii_letters + string.digits + " .,=-+_:/()",
                  min_size=1, max_size=20).map(str.strip).filter(bool)
_scenario_dicts = st.dictionaries(_keys, _values, max_size=8)


def _scenario_lines(keys, values, blanks):
    """Header, kind, name and the pairs, with comments and blanks interleaved."""
    pairs = [("kind", "propagate"), ("name", "demo")] + list(zip(keys, values))
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
        == {"kind": "propagate", "name": "demo", **data}
    for key, (value, line) in scn.raw.items():
        assert lines[line - 1] == f"{key} = {value}"
    assert scn.read(_table((k, TEXT, REQUIRED, None) for k in data)) == data


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
            start = lines.index("kind = propagate") + 1
        bad = start + where % (len(lines) - start + 1)
        lines.insert(bad, {"no-equals": "just-a-token",
                           "empty-key": " = value",
                           "duplicate": "kind = propagate"}[defect])
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario_text("\n".join(lines) + "\n", "gen.scn")
    assert excinfo.value.line == bad + 1
    assert str(excinfo.value) == f"gen.scn:{bad + 1}: " + {
        "header": f"first line must be '{HEADER}', got "
                  "'expansionlab-scenario v0'",
        "no-equals": "expected 'key = value', got 'just-a-token'",
        "empty-key": "empty key",
        "duplicate": "duplicate key 'kind'"}[defect]
