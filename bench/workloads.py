"""Seeded workloads and the claims each operation must meet.

A workload is a list of operations. An operation is one ``cmd_*`` call on one
scenario file, with the exit code it must return and a check that turns the
returned ``stats`` into claims. A claim is either a measured value against a
tolerance (its margin is measured / tolerance) or a plain requirement.

Tolerances come from the golden tables under src/expansionlab/data/golden and
from the bounds the acceptance and CLI tests state for the bundled scenarios.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("reproduce", "gauge", "propagate", "expand")

# Bounds stated by the test suite rather than by a golden table.
CLOSED_FORM_TOL = 1e-12       # one-step norm arithmetic (acceptance criterion 3)
ROUNDTRIP_TOL = 1e-10         # eigenstate round trip (box_roundtrip CLI test)
GAUSSIAN_PARSEVAL_TOL = 1e-6  # box_gaussian CLI test
GAUSSIAN_ROUNDTRIP_TOL = 1e-5


@dataclass
class Claims:
    """Margins (name, measured, tolerance) and requirements (name, ok)."""

    margins: list = field(default_factory=list)
    requirements: list = field(default_factory=list)

    def margin(self, name: str, measured: float, tolerance: float):
        self.margins.append((name, float(measured), float(tolerance)))

    def require(self, name: str, ok: bool):
        self.requirements.append((name, bool(ok)))

    def failures(self) -> list:
        out = [f"{n}: {m!r} > {t!r}" for n, m, t in self.margins
               if not m <= t]
        out += [n for n, ok in self.requirements if not ok]
        return out


@dataclass
class Op:
    """One operation: a command on a scenario, its exit code and its check."""

    label: str
    command: str              # expand | propagate | gauge | reproduce-all
    text: str | None          # scenario file contents; None for reproduce-all
    expect_code: int
    check: Callable           # (stats, capture) -> Claims


def load_goldens(golden_dir: Path) -> dict:
    return {p.name: json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(golden_dir.glob("*.json"))}


def scenario_text(kind: str, name: str, **keys) -> str:
    lines = ["expansionlab-scenario v1", f"kind = {kind}", f"name = {name}"]
    lines += [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
              for k, v in keys.items()]
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ checks

def _exponents(claims, s, exponent_range):
    lo, hi = exponent_range
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    for i, e in enumerate(s["growth_exponents"]):
        claims.margin(f"growth exponent {i}", abs(e - mid), half)


def _golden_recurrence(claims, s, g, capture):
    claims.require(f"all {len(g['quad'])} frozen values compared",
                   len(s["quad"]) == len(g["quad"]))
    claims.margin("ratio defect", s["ratio_defect"], g["magnitude_tol"])
    claims.margin("golden deviation",
                  max(abs(f - z) for f, z in zip(s["quad"], g["quad"])),
                  g["freeze_tol"])
    claims.margin("route split", s["worst_route_diff"], g["route_tol"])


def _golden_divergence(claims, s, g, capture):
    claims.require("verdict", s["verdict"] == g["verdict"])
    claims.margin("slope", abs(s["slope"] - g["slope"]),
                  g["slope_rtol"] * g["slope"])


def _golden_euler(claims, s, g, capture):
    claims.margin("final norm", abs(s["euler_final_norm"] - g["final_norm_sq"])
                  / g["final_norm_sq"], g["final_norm_rtol"])
    claims.require("first strict step",
                   s["first_strict_step"] == g["first_strict_step"])
    claims.require("monotone", s["monotone"])
    claims.require("audit", s["audit_passed"])
    _exponents(claims, s, g["exponent_range"])


def _golden_unitary(claims, s, g, capture):
    drift = capture["cayley_drift"].get(g["n_steps"])
    claims.require(f"{g['n_steps']}-step Cayley run seen", drift is not None)
    if drift is not None:
        claims.margin("norm drift", drift, g["max_norm_dev"])


def _golden_jump(claims, s, g, capture):
    claims.margin("|jump - A0|", abs(s["jump_metric"] - g["amplitude"]),
                  g["jump_tol"])
    claims.margin("covariant", s["max_covariant_discrepancy"],
                  g["covariant_tol"])


def _golden_phase_fit(claims, s, g, capture):
    claims.require("fit sizes", s["fit_sizes"] == g["fit_sizes"])
    claims.margin("curve deviation",
                  max(abs(f - z) for f, z in
                      zip(s["final_residuals"], g["residuals"])),
                  g["curve_tol"])
    claims.margin("stationary control", s["control_max_residual"],
                  g["stationary_tol"])


# claim id (claims.json) -> check of that claim against its golden table
GOLDEN_CHECKS = {
    "equal-magnitude-recurrence": _golden_recurrence,
    "series-divergence": _golden_divergence,
    "euler-norm-growth": _golden_euler,
    "unitary-contrast": _golden_unitary,
    "velocity-jump": _golden_jump,
    "phase-factored-fit": _golden_phase_fit,
}
# needs the 10^5-step re-propagation that only reproduce-all runs
REPRODUCE_ONLY = {"unitary-contrast"}


def golden_claims(goldens: dict, claims: Claims, scenario: str, stats,
                  capture, skip=()):
    """Add every golden claim made about the bundled `scenario` file."""
    for claim in goldens["claims.json"]["claims"]:
        if claim["scenario"] != scenario or claim["id"] in skip:
            continue
        sub = Claims()
        check = GOLDEN_CHECKS.get(claim["id"])
        if check is None:
            sub.require("known claim", False)
        else:
            check(sub, stats, goldens[claim["golden"]], capture)
        claims.margins += [(f"{claim['id']} {n}", m, t)
                           for n, m, t in sub.margins]
        claims.requirements += [(f"{claim['id']} {n}", ok)
                                for n, ok in sub.requirements]


def check_reproduce(goldens, stats, capture) -> Claims:
    claims = Claims()
    for scenario in sorted({c["scenario"]
                            for c in goldens["claims.json"]["claims"]}):
        s = capture["stats"].get(scenario)
        claims.require(f"scenario {scenario} ran", s is not None)
        if s is not None:
            golden_claims(goldens, claims, scenario, s, capture)
    return claims


def check_gauge_jump(goldens, amplitude, switch, stats, capture) -> Claims:
    g = goldens["gauge_jump.json"]
    claims = Claims()
    claims.margin("covariant discrepancy", stats["max_covariant_discrepancy"],
                  g["covariant_tol"])
    if switch == "step":
        # the step-1 jump equals A0 only for a sudden switch
        claims.margin("|jump - A0|", abs(stats["jump_metric"] - amplitude),
                      g["jump_tol"])
    return claims


def check_propagate(goldens, stats, capture) -> Claims:
    claims = Claims()
    claims.margin("cayley norm drift", stats["cayley_max_dev"],
                  goldens["unitary_contrast.json"]["max_norm_dev"])
    claims.margin("one-step closed form", stats["closed_form_defect"],
                  CLOSED_FORM_TOL)
    claims.require("norms monotone", stats["monotone"])
    claims.require("audit passed", stats["audit_passed"])
    _exponents(claims, stats,
               goldens["box_dipole_audit.json"]["exponent_range"])
    return claims


def check_landau(goldens, a, stats, capture) -> Claims:
    g = goldens["landau_planewave.json"]
    claims = Claims()
    claims.require("verdict divergent", stats["verdict"] == "divergent")
    claims.margin("ratio defect", stats["ratio_defect"], g["magnitude_tol"])
    # the golden route tolerance is absolute at a = 1, where |C_n| = 2; the
    # coefficients scale as a^2
    claims.margin("route split", stats["worst_route_diff"],
                  g["route_tol"] * a * a)
    slope = 4.0 * a ** 4
    claims.margin("slope", abs(stats["slope"] - slope), g["slope_rtol"] * slope)
    return claims


def check_box(parseval_tol, roundtrip_tol, stats, capture) -> Claims:
    claims = Claims()
    claims.require("verdict convergent", stats["verdict"] == "convergent")
    claims.margin("parseval defect", stats["parseval_defect"], parseval_tol)
    claims.margin("round trip", stats["round_trip"], roundtrip_tol)
    return claims


# ------------------------------------------------------------ generators
#
# Each workload runs the bundled scenarios of its kind unchanged (anchors,
# checked against their goldens) plus seeded operations on a fixed schedule
# of slots. The seed scales each slot's continuous parameters by up to
# +-JITTER, draws discrete ones (initial state, matrix seed) and shuffles the
# order, so work per pass and the largest claim margin barely move between
# seeds while every seed is an unseen input.

JITTER = 0.05


def _jit(rng, nominal: float) -> float:
    return round(nominal * rng.uniform(1.0 - JITTER, 1.0 + JITTER), 6)


def _anchor(scenario_dir: Path, name: str, command: str, expect: int, check):
    text = (scenario_dir / name).read_text(encoding="utf-8")
    return Op(name, command, text, expect, check)


def _with_golden(goldens, name, base):
    def check(stats, capture):
        claims = base(stats, capture)
        golden_claims(goldens, claims, name, stats, capture,
                      skip=REPRODUCE_ONLY)
        return claims
    return check


def _reproduce(rng, goldens, scenario_dir):
    return [Op("reproduce-all", "reproduce-all", None, 0,
               lambda s, c: check_reproduce(goldens, s, c))]


# (switch, n_basis, initial_index, nominal amplitude); the slots cost about
# the same, so the median and tail latencies fall inside one plateau of ops
GAUGE_SLOTS = [("step", 20, 1, 0.15), ("step", 20, 1, 0.2),
               ("step", 20, 1, 0.25), ("ramp", 8, 2, 0.3),
               ("ramp", 10, 1, 0.25), ("ramp", 10, 2, 0.15),
               ("ramp", 12, 1, 0.3), ("ramp", 12, 2, 0.2)]


def _gauge(rng, goldens, scenario_dir):
    ops = [_anchor(scenario_dir, "gauge_step.scn", "gauge", 0,
                   _with_golden(goldens, "gauge_step.scn",
                                lambda s, c: Claims())),
           _anchor(scenario_dir, "gauge_ramp.scn", "gauge", 0,
                   lambda s, c: check_gauge_jump(goldens, None, "ramp", s, c))]
    for i, (switch, n_basis, index, amp) in enumerate(GAUGE_SLOTS):
        amplitude = _jit(rng, amp)
        keys = dict(experiment="jump", well_width=1.0, n_basis=n_basis,
                    initial_index=index, amplitude=amplitude, switch=switch)
        if switch == "step":
            keys.update(t_end=2e-5)
        else:
            keys.update(ramp_time=_jit(rng, 0.4), t_end=1.0)
        keys.update(n_slices=200, observe_stride=4,
                    second_gauge="transformed")
        label = f"gauge-{switch}-{i}"
        ops.append(Op(label, "gauge", scenario_text("gauge", label, **keys), 0,
                      lambda s, c, a=amplitude, sw=switch:
                      check_gauge_jump(goldens, a, sw, s, c)))
    label = "gauge-mismatched"
    text = scenario_text(
        "gauge", label, experiment="jump", well_width=1.0, n_basis=24,
        initial_index=1, amplitude=_jit(rng, 0.2), switch="ramp",
        ramp_time=_jit(rng, 0.4), t_end=1.0, n_slices=200, observe_stride=4,
        second_gauge="mismatched", mismatch_factor=_jit(rng, 1.5))
    ops.append(Op(label, "gauge", text, 3, lambda s, c: Claims()))
    rng.shuffle(ops)
    return ops


# (perturbation, n_basis, n_slices, nominal amplitude, nominal t_end). Slice
# counts fall as the basis grows, so every slot costs about the same and the
# median and tail latencies fall inside one plateau of operations. The
# random-hermitian windows keep the fastest Bohr phase resolved per slice.
PROPAGATE_SLOTS = [
    ("random-hermitian", 8, 2000, 0.3, 0.4),
    ("random-hermitian", 16, 1500, 0.3, 0.25),
    ("random-hermitian", 32, 750, 0.3, 0.06),
    ("random-hermitian", 64, 240, 0.3, 0.005),
    ("dipole-ramp", 8, 2000, 1.0, 1.0),
    ("dipole-ramp", 24, 1000, 1.0, 1.0),
    ("dipole-ramp", 48, 420, 0.5, 0.5),
    ("dipole-ramp", 64, 240, 1.0, 1.0),
    ("dipole-step", 12, 1600, 1.0, 1.0),
    ("dipole-step", 16, 1400, 1.0, 1.0),
    ("dipole-step", 32, 700, 0.7, 1.0),
    ("dipole-step", 48, 420, 0.5, 0.5),
]


def _propagate(rng, goldens, scenario_dir):
    general = lambda s, c: check_propagate(goldens, s, c)
    ops = [_anchor(scenario_dir, "box_dipole.scn", "propagate", 0,
                   _with_golden(goldens, "box_dipole.scn", general)),
           _anchor(scenario_dir, "random_hermitian.scn", "propagate", 0,
                   general)]
    for i, (kind, n_basis, n_slices, amp, t_end) in enumerate(PROPAGATE_SLOTS):
        t_end = _jit(rng, t_end)
        keys = dict(well_width=1.0, n_basis=n_basis,
                    initial_index=rng.randint(1, 3), perturbation=kind,
                    amplitude=_jit(rng, amp))
        if kind == "random-hermitian":
            keys.update(seed=rng.randrange(1, 10 ** 6))
        else:
            keys.update(ramp_time=round(0.4 * t_end, 6))
        keys.update(t_start=0.0, t_end=t_end, n_slices=n_slices, tracked=8)
        label = f"propagate-{kind}-{i}"
        ops.append(Op(label, "propagate",
                      scenario_text("propagate", label, **keys), 0, general))
    rng.shuffle(ops)
    return ops


# six Landau scans of equal size are the costliest operations, so the tail
# latency falls among them; the fourteen Gaussians hold the median
LANDAU_SCANS = 6
LANDAU_QUAD_CHECK_MAX = 70
BOX_GAUSSIAN_SIGMAS = (0.06, 0.065, 0.07, 0.075, 0.08, 0.06, 0.065, 0.07,
                       0.075, 0.08, 0.06, 0.065, 0.07, 0.075)
BOX_EIGENSTATES = (2, 4, 6, 8, 10, 12)


def _expand(rng, goldens, scenario_dir):
    ops = [_anchor(scenario_dir, "landau_planewave.scn", "expand", 0,
                   _with_golden(goldens, "landau_planewave.scn",
                                lambda s, c: check_landau(goldens, 1.0, s, c))),
           _anchor(scenario_dir, "box_gaussian.scn", "expand", 0,
                   lambda s, c: check_box(GAUSSIAN_PARSEVAL_TOL,
                                          GAUSSIAN_ROUNDTRIP_TOL, s, c)),
           _anchor(scenario_dir, "box_roundtrip.scn", "expand", 0,
                   lambda s, c: check_box(ROUNDTRIP_TOL, ROUNDTRIP_TOL,
                                          s, c))]
    for i in range(LANDAU_SCANS):
        a = _jit(rng, 1.0)
        label = f"expand-landau-{i}"
        text = scenario_text("expand", label, family="landau",
                             magnetic_length=a, n_max=200,
                             quad_check_max=LANDAU_QUAD_CHECK_MAX)
        ops.append(Op(label, "expand", text, 0,
                      lambda s, c, a=a: check_landau(goldens, a, s, c)))
    for i, sigma in enumerate(BOX_GAUSSIAN_SIGMAS):
        sigma = _jit(rng, sigma)
        # at least 6 sigma from either wall, so the packet's value there
        # stays far below the round-trip bound
        label = f"expand-gaussian-{i}"
        text = scenario_text("expand", label, family="box", width=1.0,
                             target="gaussian", sigma=sigma,
                             center=round(rng.uniform(6.0 * sigma,
                                                      1.0 - 6.0 * sigma), 6),
                             n_max=50)
        ops.append(Op(label, "expand", text, 0,
                      lambda s, c: check_box(GAUSSIAN_PARSEVAL_TOL,
                                             GAUSSIAN_ROUNDTRIP_TOL, s, c)))
    for i, target_n in enumerate(BOX_EIGENSTATES):
        label = f"expand-eigenstate-{i}"
        text = scenario_text("expand", label, family="box",
                             width=_jit(rng, 1.0), target="eigenstate",
                             target_n=target_n, n_max=40)
        ops.append(Op(label, "expand", text, 0,
                      lambda s, c: check_box(ROUNDTRIP_TOL, ROUNDTRIP_TOL,
                                             s, c)))
    rng.shuffle(ops)
    return ops


_GENERATORS = {"reproduce": _reproduce, "gauge": _gauge,
               "propagate": _propagate, "expand": _expand}


def build(workload: str, seed: int, data_dir: Path) -> list:
    """The operations of one pass of `workload` for `seed`.

    data_dir is the package's data directory (golden/ and scenarios/).
    """
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, load_goldens(data_dir / "golden"),
                                 data_dir / "scenarios")
