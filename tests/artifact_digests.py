"""Digest every file the commands write, to compare two checkouts.

Runs expansionlab.cli.main in-process on:
- every bundled scenario under its own kind, at --tolerance-scale 1, and an
  expand scenario at 1e-6 too (the other commands take no scale);
- reproduce-all;
- a generated `perturbation = none` propagate (the linear-solve Cayley path)
  and a generated `second_gauge = identity` gauge pair;
- with --bench-seed N (repeatable), every operation of
  bench/workloads.build(workload, N, data) for each workload.

It prints one line per file written, `label exit-code path sha256`, and
`label exit-code - -` for a run that wrote none, then the run's printed
output as `label exit-code <stdout> sha256` and `label exit-code <stderr>
sha256`, hashed after the temporary directory and the repository root in it
are replaced by `<tmp>` and `<root>`. Every file is hashed as it lies on
disk, not taken from its manifest: a manifest records the digest of the
bytes its writer meant to write, so only a hash read back checks the
writer. Run each checkout's copy, which imports that checkout's src/, and
diff:

    python tests/artifact_digests.py --bench-seed 3 --bench-seed 7 > a.txt

Reruns must not depend on the BLAS thread count; to check, diff the output
of one checkout at several counts:

    for n in 1 2 4; do
        OPENBLAS_NUM_THREADS=$n python tests/artifact_digests.py \
            --bench-seed 3 --bench-seed 7 --bench-seed 99 > threads-$n.txt
    done

It needs only the standard library and the package; bench/ is imported,
never written (no bytecode is cached). Not a test module: the suite does
not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.dont_write_bytecode = True

from expansionlab import cli  # noqa: E402
from expansionlab.scenario import load_scenario  # noqa: E402

DATA = ROOT / "src" / "expansionlab" / "data"

GENERATED = {
    "none-propagate": ("propagate", """expansionlab-scenario v1
kind = propagate
name = no-perturbation
perturbation = none
n_basis = 8
initial_index = 2
n_slices = 300
"""),
    "identity-gauge": ("gauge", """expansionlab-scenario v1
kind = gauge
name = identity-pair
experiment = jump
n_basis = 8
amplitude = 0.3
switch = ramp
ramp_time = 0.4
t_end = 1.0
n_slices = 100
observe_stride = 5
second_gauge = identity
"""),
}


def run(label: str, argv: list, out_dir: Path, tmp: Path):
    """Run cli.main(argv + --out out_dir) quietly; print a line per file and
    one each for its stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = cli.main(argv + ["--out", str(out_dir)])
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    for path in files:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(label, code, path.relative_to(out_dir).as_posix(), digest)
    if not files:
        print(label, code, "-", "-")
    for name, stream in (("<stdout>", stdout), ("<stderr>", stderr)):
        text = stream.getvalue().replace(str(tmp), "<tmp>").replace(
            str(ROOT), "<root>")
        print(label, code, name,
              hashlib.sha256(text.encode("utf-8")).hexdigest())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-seed", type=int, action="append", default=[],
                        help="also run the benchmark's operations at seed N")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        tmp = Path(tmp)
        for path in sorted((DATA / "scenarios").glob("*.scn")):
            kind = load_scenario(path).kind
            for scale in ("1", "1e-6") if kind == "expand" else ("1",):
                label = f"bundled/{path.stem}@{scale}"
                flag = ["--tolerance-scale", scale] * (kind == "expand")
                run(label, [kind, "--scenario", str(path), *flag],
                    tmp / label, tmp)
        run("reproduce-all", ["reproduce-all"], tmp / "reproduce-all", tmp)
        for name, (command, text) in GENERATED.items():
            path = tmp / f"{name}.scn"
            path.write_text(text, encoding="utf-8")
            run(f"generated/{name}", [command, "--scenario", str(path)],
                tmp / "generated" / name, tmp)
        if args.bench_seed:
            sys.path.insert(0, str(ROOT / "bench"))
            import workloads
            for seed in args.bench_seed:
                for workload in workloads.WORKLOADS:
                    for op in workloads.build(workload, seed, DATA):
                        label = f"bench/{workload}/{seed}/{op.label}"
                        if op.text is None:
                            run(label, [op.command], tmp / label, tmp)
                            continue
                        path = tmp / "inputs" / label
                        path.parent.mkdir(parents=True, exist_ok=True)
                        path.write_text(op.text, encoding="utf-8")
                        run(label, [op.command, "--scenario", str(path)],
                            tmp / label, tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
