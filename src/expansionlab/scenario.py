"""Flat key-value scenario files, the artifact writer and the run manifest.

A scenario file is a version header line followed by `key = value` pairs;
'#' starts a comment. Values stay strings until Scenario.read types them
against the keys a section declares, so errors can point at the exact line.

Every artifact a command writes goes through write_artifact, which returns
the manifest entry of the bytes it wrote, so no artifact is read back. It
takes any iterable of lines, a generator included, and encodes, hashes and
writes it in chunks of _CHUNK_LINES lines, so no artifact is held whole as
text or as bytes. A writer checks its input before it calls write_artifact,
which opens the file: a refused write creates no file.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass, field

HEADER = "expansionlab-scenario v1"
# the key whose value picks the section of a kind that has several
SELECTORS = {"expand": "family", "gauge": "experiment"}


class ScenarioError(ValueError):
    """Malformed scenario input; carries origin and line number."""

    def __init__(self, origin: str, line: int | None, message: str):
        where = origin if line is None else f"{origin}:{line}"
        super().__init__(f"{where}: {message}")
        self.origin = origin
        self.line = line


REQUIRED = object()   # the default of a key that must be given


def _real(s: str) -> float:
    if not math.isfinite(x := float(s)):
        raise ValueError(s)
    return x


# key types, (conversion, what an error says a value must be); a set of
# strings is a choice. int() takes neither '4.5' nor '1e3'.
REAL = (_real, "a finite real number")
INT = (int, "an integer")
INTS = (lambda s: [int(p) for p in s.split(",") if p.strip()],
        "a comma-separated integer list")
TEXT = (str, "a string")


# generic constraints; the library refuses its arguments through them too
def _positive(v, _):
    return "" if v > 0 else f"must be positive, got {v!r}"


def _at_least(n):
    return lambda v, _: "" if v >= n else f"must be at least {n}, got {v}"


def _at_most(n):
    return lambda v, _: "" if v <= n else f"must be at most {n}, got {v}"


def _in_1_to(bound):
    """The constraint 1 <= value <= the value of key `bound`."""
    return lambda v, values: "" if 1 <= v <= values[bound] else (
        f"must lie in 1..{bound} = {values[bound]}, got {v}")


@dataclass
class Scenario:
    """Parsed scenario: kind, name, and the raw keys that read() types."""

    origin: str
    kind: str
    name: str
    raw: dict = field(default_factory=dict)   # key -> (value string, line)
    text: str = ""

    def read(self, table, command=None) -> dict:
        """The typed value of every key of this scenario's section.

        table rows are (section, key, type, default, constraint); a section
        is a kind, or kind/choice where SELECTORS names the choosing key. A
        default may be a function of the values before it; a constraint
        maps (value, values) to what is wrong, or ''. An undeclared key is
        an error at its line, before any row is read. A command, when one
        is named, must be the scenario's kind.
        """
        if command not in (None, self.kind):
            raise ScenarioError(self.origin, None, f"scenario kind "
                                f"'{self.kind}' cannot run under command "
                                f"'{command}'")
        section, values = self.kind, {}
        selector = SELECTORS.get(self.kind)
        if selector:
            values[selector] = self._value(selector, {
                r[0].split("/")[1] for r in table
                if r[0].startswith(section + "/")})
            section += "/" + values[selector]
        rows = [r[1:] for r in table if r[0] == section]
        declared = {"kind", "name", *values, *(r[0] for r in rows)}
        for key, (_, line) in self.raw.items():
            if key not in declared:
                raise ScenarioError(self.origin, line, f"unknown key '{key}'")
        for key, kind, default, constraint in rows:
            values[key] = self._value(key, kind, default, values)
            problem = constraint and constraint(values[key], values)
            if problem:
                raise ScenarioError(self.origin,
                                    self.raw.get(key, (None, None))[1],
                                    f"key '{key}' {problem}")
        return values

    def _value(self, key, kind, default=REQUIRED, values=None):
        if key not in self.raw:
            if default is REQUIRED:
                raise ScenarioError(self.origin, None,
                                    f"missing required key '{key}'")
            return default(values) if callable(default) else default
        text, line = self.raw[key]
        if isinstance(kind, set):   # a choice: the text must be an option
            kind = ({c: c for c in kind}.__getitem__, f"one of {sorted(kind)}")
        try:
            return kind[0](text)
        except (KeyError, ValueError):
            raise ScenarioError(self.origin, line, f"key '{key}' must be "
                                f"{kind[1]}, got {text!r}") from None

    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def parse_scenario_text(text: str, origin: str = "<scenario>") -> Scenario:
    lines = text.splitlines()
    header_seen = False
    raw = {}
    for lineno, rawline in enumerate(lines, start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != HEADER:
                raise ScenarioError(origin, lineno,
                                    f"first line must be '{HEADER}', got {line!r}")
            header_seen = True
            continue
        if "=" not in line:
            raise ScenarioError(origin, lineno,
                                f"expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ScenarioError(origin, lineno, "empty key")
        if key in raw:
            raise ScenarioError(origin, lineno, f"duplicate key '{key}'")
        raw[key] = (value, lineno)
    if not header_seen:
        raise ScenarioError(origin, None, f"missing '{HEADER}' header")
    scn = Scenario(origin, "", "", raw, text)
    scn.kind = scn._value("kind", {"expand", "propagate", "gauge"})
    scn.name = scn._value("name", TEXT)
    return scn


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario_text(text, origin=str(path))


# lines encoded, hashed and written at once by write_artifact
_CHUNK_LINES = 256


def write_artifact(path, lines) -> dict:
    """Write each line, then an LF, as UTF-8; return the manifest entry
    {"path": the file name, "sha256": the digest of the bytes written}.

    lines is any iterable of strings, read _CHUNK_LINES lines at a time."""
    digest = hashlib.sha256()
    lines = iter(lines)
    with open(path, "wb") as fh:
        while chunk := list(itertools.islice(lines, _CHUNK_LINES)):
            data = "".join(line + "\n" for line in chunk).encode("utf-8")
            digest.update(data)
            fh.write(data)
    return {"path": os.path.basename(path), "sha256": digest.hexdigest()}


@dataclass
class RunManifest:
    """Checksums and tolerances for one command run; JSON on disk."""

    scenario_sha256: str
    tool_version: str
    command: str
    tolerance_scale: float = 1.0
    seed: int | None = None
    outputs: list = field(default_factory=list)   # write_artifact entries

    def write(self, path):
        write_artifact(path, [json.dumps(asdict(self), indent=2,
                                         sort_keys=True)])
