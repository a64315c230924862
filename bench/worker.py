"""One benchmark process: set up, run passes over a workload, write the result.

Started by run.py in a fresh interpreter, so that its set-up time and peak
memory are those of a user's process. It prints ``READY`` once the package is
imported and the inputs are generated; run.py times set-up up to that line.
With --setup-only it exits there.

A pass runs every operation of the workload once, one after another, in a
fresh output directory that is removed afterwards. With --trace 1 the passes
alternate between untraced and traced, and the traced ones report per-layer
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import expansionlab.cli as cli  # noqa: E402
from expansionlab import propagation  # noqa: E402
from expansionlab.gauge import GaugeFieldMismatchError  # noqa: E402
from expansionlab.scenario import ScenarioError  # noqa: E402
from expansionlab.specfun import (QuadratureError,  # noqa: E402
                                  SeriesDivergenceError)

import clock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DATA = ROOT / "src" / "expansionlab" / "data"
PASS_BUDGET_S = 140.0   # never start a pass that could end after this
MIN_PASSES = 3          # untraced passes of an untraced run, if in budget


def _install_reproduce_probes(capture: dict):
    """Record reproduce-all's per-scenario stats and every Cayley run's drift.

    reproduce-all returns only an exit code, so its stats are taken from
    cli._dispatch, and the 10^5-step drift from the trajectory that
    unitary_propagate returns. No trajectory is kept.
    """
    dispatch = cli._dispatch
    stepper = propagation.unitary_propagate

    @functools.wraps(dispatch)
    def probe_dispatch(scn, out_dir, *args, **kwargs):
        code, stats = dispatch(scn, out_dir, *args, **kwargs)
        capture["stats"][Path(scn.origin).name] = stats
        return code, stats

    @functools.wraps(stepper)
    def probe_stepper(c0, model, n_slices, *args, **kwargs):
        traj = stepper(c0, model, n_slices, *args, **kwargs)
        drift = float(abs(traj.norms - 1.0).max())
        seen = capture["cayley_drift"]
        seen[n_slices] = max(seen.get(n_slices, 0.0), drift)
        return traj

    tracing.rebind({dispatch: probe_dispatch, stepper: probe_stepper})


def _run(op, path: Path, out_dir: Path):
    """Exit code and stats of one operation, mapped the way cli.main maps them."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            if op.command == "reproduce-all":
                return cli.cmd_reproduce_all(DATA / "scenarios", out_dir), None
            scn = cli.load_scenario(path)
            return getattr(cli, f"cmd_{op.command}")(scn, out_dir)
        except (ScenarioError, FileNotFoundError):
            return 1, None
        except (QuadratureError, SeriesDivergenceError):
            return 2, None
        except GaugeFieldMismatchError:
            return 3, None


def _manifest_digests(out_dir: Path) -> list:
    return [hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("manifest.json"))]


class Pass:
    """Latencies, failures and claim margins of one pass.

    `raw` holds the measured latencies. With a sampler, `latencies` holds
    them scaled to reference speed (clock.py), and `slowness` the mean
    factor; without, they equal `raw`.
    """

    def __init__(self):
        self.raw = []
        self.spans = []
        self.latencies = []
        self.slowness = 1.0
        self.failed = 0
        self.failures = []
        self.margin = (0.0, "")

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(ops, inputs: Path, scratch: Path, capture: dict,
             digests: dict, sampler: clock.Sampler | None) -> Pass:
    """Run every operation once, sampling the host's speed if asked."""
    result = Pass()
    pass_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=scratch))
    try:
        with sampler or contextlib.nullcontext():
            for op in ops:
                _run_op(op, inputs, pass_dir, capture, digests, sampler,
                        result)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    result.latencies = list(result.raw)
    if sampler is not None:
        factors = [sampler.slowness(*span) for span in result.spans]
        result.latencies = [t / f for t, f in zip(result.raw, factors)]
        result.slowness = sum(result.raw) / sum(result.latencies)
    return result


def _run_op(op, inputs, pass_dir, capture, digests, sampler, result):
    capture["stats"].clear()
    capture["cayley_drift"].clear()
    out_dir = pass_dir / op.label
    stolen = sampler.stolen if sampler else 0.0
    t0 = time.perf_counter()
    try:
        code, stats = _run(op, inputs / op.label, out_dir)
    except Exception as exc:  # an operation that crashes is a failure
        code, stats = f"exception {exc!r}", None
    t1 = time.perf_counter()
    result.spans.append((t0, t1))
    result.raw.append(t1 - t0 - (sampler.stolen - stolen if sampler else 0.0))
    problems = []
    if code != op.expect_code:
        problems.append(f"exit {code}, expected {op.expect_code}")
    else:
        claims = op.check(stats, capture)
        problems += claims.failures()
        for name, measured, tol in claims.margins:
            if measured / tol > result.margin[0]:
                result.margin = (measured / tol, f"{op.label}: {name}")
    found = _manifest_digests(out_dir) if out_dir.exists() else []
    if digests.setdefault(op.label, found) != found:
        problems.append("manifest checksums differ from the first pass")
    result.failed += bool(problems)
    result.failures += [f"{op.label}: {p}" for p in problems]


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _blas_threads():
    """Threads the bundled OpenBLAS reports, if numpy ships one."""
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(
        numpy.__file__)), "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ops = workloads.build(args.workload, args.seed, DATA)
    inputs = args.work / f"inputs-{os.getpid()}"
    inputs.mkdir(parents=True)
    for op in ops:
        if op.text is not None:
            (inputs / op.label).write_text(op.text, encoding="utf-8")
    print("READY", flush=True)
    if args.setup_only:
        shutil.rmtree(inputs)
        return 0

    capture = {"stats": {}, "cayley_drift": {}}
    if args.workload == "reproduce":
        _install_reproduce_probes(capture)
    tracer = tracing.Tracer() if args.trace else None
    sampler = clock.Sampler()
    digests, plain, traced, layers = {}, [], [], []
    selftest = []
    start = time.perf_counter()
    while True:
        done = plain + traced
        elapsed = time.perf_counter() - start
        longest = max((p.wall for p in done), default=0.0)
        least = bool(plain) and (tracer is None or bool(traced))
        enough = least and (len(plain) >= MIN_PASSES or tracer is not None)
        if ((enough and elapsed >= args.seconds)
                or (least and elapsed + longest > PASS_BUDGET_S)):
            break
        if tracer is not None and len(plain) > len(traced):
            tracer.reset()
            tracer.install()
            try:
                selftest = selftest or tracer.unwrapped()
                p = run_pass(ops, inputs, args.work, capture, digests, None)
                layers.append(tracer.layer_metrics())
            finally:
                tracer.uninstall()
            traced.append(p)
        else:
            plain.append(run_pass(ops, inputs, args.work, capture, digests,
                                  sampler))

    done = plain + traced
    failures = [f for p in done for f in p.failures]
    result = {
        "pass_walls": [p.wall for p in plain],
        "raw_pass_walls": [sum(p.raw) for p in plain],
        "slowness": [p.slowness for p in plain],
        "latencies": [t for p in plain for t in p.latencies],
        "attempted": sum(len(p.raw) for p in done),
        "failed": sum(p.failed for p in done),
        "failures": failures[:20],
        "margin": max(p.margin for p in done),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "env": environment(),
    }
    if tracer is not None:
        counts = [{k: m[k] for k in tracing.COUNT_METRICS} for m in layers]
        result["layers"] = {
            name: statistics.median(m[name] for m in layers)
            for name in layers[0]}
        result["layers"]["trace.overhead_frac"] = (
            statistics.median(sum(p.raw) for p in traced)
            / statistics.median(sum(p.raw) for p in plain) - 1.0)
        result["counts_repeat"] = all(c == counts[0] for c in counts)
        result["selftest"] = selftest
        spans = ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}.csv"
        spans.parent.mkdir(exist_ok=True)
        tracer.write_spans(spans)   # the last traced pass
        result["spans"] = str(spans.relative_to(ROOT))
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
