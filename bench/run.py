"""expansionlab benchmark: one run of one workload.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The workloads (bench/workloads.py) are closed
loops with one client: a single process runs the workload's operations one
after another, each a ``cli.cmd_*`` call on a generated scenario file. The
benchmark starts no threads of its own; the program's own reproduce-all pool
and the BLAS threads are the only extra ones.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
reports the per-layer metrics of bench/tracing.py. End-to-end times are
scaled to a reference host speed as bench/clock.py describes. The last line
of standard output is the result as JSON. Scratch files live under
.bench_work/ and are removed; the spans of the last traced pass are kept in
.bench_traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import clock  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4        # extra fresh interpreters timed for setup_s
DEADLINE_S = 170.0      # the whole run ends before this

END_TO_END = [
    ("wall_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("ok_frac", "ratio"), ("claim_margin_max", "ratio"),
]


def tail(latencies):
    """(value, percentile, samples beyond) of the tail latency.

    The highest nearest-rank percentile with at least ten samples above it,
    but never below the median: with fewer than 21 samples it is the upper
    median.
    """
    xs = sorted(latencies)
    n = len(xs)
    rank = max(n - 10, n // 2 + 1)     # 1-based nearest rank
    return xs[rank - 1], 100.0 * rank / n, n - rank


class Worker:
    """A worker process; times it from start to its READY line."""

    def __init__(self, args, work: Path, setup_only: bool, cals: list):
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", str(work)]
        if setup_only:
            cmd.append("--setup-only")
        cals.append(clock.calibrate())
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        cals.append(clock.calibrate())
        self.ready = line.strip() == "READY"
        self.proc.stdout.close()   # the worker prints nothing after READY

    def wait(self, timeout: float) -> int:
        try:
            return self.proc.wait(timeout=timeout)
        finally:
            self.stop()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def measure(args, work: Path):
    """The worker's result, raw set-up times and the host's slowness then."""
    t0 = time.perf_counter()
    setups, cals = [], []
    try:
        for _ in range(SETUP_PROBES):
            probe = Worker(args, work, setup_only=True, cals=cals)
            if probe.wait(30.0) != 0 or not probe.ready:
                raise RuntimeError("set-up probe failed")
            setups.append(probe.setup_s)
        worker = Worker(args, work, setup_only=False, cals=cals)
        if not worker.ready:
            worker.stop()
            raise RuntimeError("worker failed during set-up")
        setups.append(worker.setup_s)
        code = worker.wait(max(DEADLINE_S - (time.perf_counter() - t0), 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"a worker did not finish within {DEADLINE_S} s")
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    res = json.loads((work / "result.json").read_text())
    return res, setups, statistics.fmean(cals)


def report(args, res, setups, setup_slowness):
    print(f"expansionlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(res["env"], sort_keys=True))
    attempted, failed = res["attempted"], res["failed"]
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(fail_frac {failed / attempted:.4g})")
    for f in res["failures"]:
        print(f"  FAIL {f}")
    correct = failed == 0
    if args.trace:
        correct = correct and res["counts_repeat"] and not res["selftest"]
        for p in res["selftest"]:
            print(f"  FAIL trace self-test: {p}")
        if not res["counts_repeat"]:
            print("  FAIL work counts differ between traced passes")
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in LAYER_METRICS}
        print(f"spans of the last traced pass: {res['spans']}")
    else:
        walls, lat = res["pass_walls"], res["latencies"]
        tail_s, pct, beyond = tail(lat)
        values = {
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": tail_s,
            "setup_s": statistics.median(setups) / setup_slowness,
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
            "claim_margin_max": res["margin"][0],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        print("times scaled to reference speed (bench/clock.py): host "
              "slowness " + ", ".join(f"{x:.4g}" for x in res["slowness"])
              + f" over the passes, {setup_slowness:.4g} over set-up; raw "
              f"wall_s {statistics.median(res['raw_pass_walls']):.4g} s, "
              f"raw setup_s {statistics.median(setups):.4g} s")
        print(f"wall_s: median of {len(walls)} passes; op latencies: "
              f"{len(lat)} samples; op_tail_s is p{pct:.1f} with {beyond} "
              f"samples beyond it; setup_s: median of {len(setups)} "
              f"interpreters; claim_margin_max from {res['margin'][1]}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = BENCH.parent
    if not (root / "src" / "expansionlab" / "cli.py").is_file():
        print(f"error: {root / 'src' / 'expansionlab'} is missing; the "
              "benchmark runs the package in its own checkout", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        res, setups, setup_slowness = measure(args, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    report(args, res, setups, setup_slowness)
    return 0


if __name__ == "__main__":
    sys.exit(main())
