"""Per-layer tracing of the expansionlab package, installed from outside.

Tracer.install() replaces every binding of each traced function, in every
expansionlab module, with a wrapper: the public functions of the layer
modules, the golden checkers in cli, and two methods. A ``gauge`` module that
did ``from .propagation import unitary_propagate`` holds its own binding, and
that one is replaced too. Functions that run once per grid point or integrand
evaluation are only counted; the others also record a span (name, thread,
start, end, parent). Spans stay in memory until the pass ends.

Run ``python3 bench/tracing.py`` to check that installing the tracer leaves no
binding of a traced function unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("specfun", "basis", "expansion", "propagation", "gauge", "scenario",
          "svgplot", "cli")
METHODS = (("gauge", "GaugeFunction", "consistency_defect"),
           ("scenario", "RunManifest", "write"))
PRIVATE = {"cli": "_check_"}   # private functions traced, by name prefix

# called per grid point, per integrand evaluation or per time step: counted,
# no span
COUNT_ONLY = {
    "specfun.confluent_hypergeometric", "specfun.laguerre",
    "specfun.laguerre_associated", "basis.landau_radial",
    "basis.landau_eigenfunction", "basis.plane_wave", "basis.box_eigenfunction",
    "basis.box_eigenfunction_dx", "basis.evaluate", "basis.principal_number",
    "propagation.smooth_ramp", "propagation.smooth_ramp_dt",
    "propagation.hard_step", "gauge.cmath_exp",
    "expansion.landau_plane_wave_coefficient", "expansion.reconstruct",
    "expansion.reconstruct_dx",
}
QUADRATURE = {"specfun.integrate_interval", "specfun.integrate_semi_infinite"}
STEPPERS = {"propagation.unitary_propagate": "cayley",
            "propagation.euler_propagate": "euler"}
CMD = ("cli.cmd_expand", "cli.cmd_propagate", "cli.cmd_gauge")

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    ("propagation.cayley_steps", "count"),
    ("propagation.cayley_us_per_step", "us"),
    ("propagation.euler_steps", "count"),
    ("propagation.euler_us_per_step", "us"),
    ("propagation.audit_s", "s"),
    ("propagation.states_mb", "MB"),
    ("propagation.csv_s", "s"),
    ("propagation.csv_mb", "MB"),
    ("specfun.quad_calls", "count"),
    ("specfun.integrand_evals", "count"),
    ("specfun.quad_s", "s"),
    ("specfun.us_per_eval", "us"),
    ("specfun.quad_nonconverged", "count"),
    ("gauge.observable_calls", "count"),
    ("gauge.observable_ms_per_call", "ms"),
    ("gauge.field_check_s", "s"),
    ("gauge.jump_self_s", "s"),
    ("gauge.phase_fit_self_s", "s"),
    ("basis.box_evals", "count"),
    ("expansion.coefficients", "count"),
    ("expansion.ms_per_coefficient", "ms"),
    ("expansion.landau_overlap_ms_per_n", "ms"),
    ("expansion.scan_s", "s"),
    ("scenario.load_s", "s"),
    ("scenario.manifest_s", "s"),
    ("svgplot.chart_s", "s"),
    ("cli.artifact_mb", "MB"),
    ("cli.check_s", "s"),
    ("cli.pool_overlap", "ratio"),
    ("trace.overhead_frac", "ratio"),
]
# per-layer metrics that count work; they must repeat exactly between passes
COUNT_METRICS = [n for n, unit in LAYER_METRICS
                 if unit == "count" and n != "specfun.quad_nonconverged"]


def _targets():
    """(qualified name, function) of every traced function."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"expansionlab.{layer}")
        prefix = PRIVATE.get(layer)
        for name, obj in vars(mod).items():
            if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                continue
            if name.startswith("_") and not (prefix and name.startswith(prefix)):
                continue
            out.append((f"{layer}.{name}", obj))
    for layer, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module(f"expansionlab.{layer}"), cls_name)
        out.append((f"{layer}.{cls_name}.{meth}", cls.__dict__[meth]))
    return out


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "expansionlab"
                                  or n.startswith("expansionlab."))]


def _bindings():
    """Every (container, key, value) through which package code reaches a callable.

    Module globals, dicts held in module globals (cli._CHECKERS) and
    attributes of classes defined in the package.
    """
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            yield vars(mod), key, value
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    yield value, k, v
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for k, v in list(vars(value).items()):
                    yield value, k, v


def _reachable():
    """(path, object) of everything package code can reach a callable through.

    A walk from each package module's globals through dicts, lists, tuples,
    sets, package classes, and the default arguments and closures of package
    functions. It is wider than _bindings(), so it checks install() rather
    than repeating it; it does not descend into tracing wrappers, which hold
    the function they wrap.
    """
    seen = set()
    stack = [(mod.__name__, vars(mod)) for mod in _package_modules()]
    while stack:
        path, obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield path, obj
        if isinstance(obj, dict):
            stack += [(f"{path}[{k!r}]", v) for k, v in obj.items()
                      if k != "__builtins__"]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack += [(f"{path}[{i}]", v) for i, v in enumerate(obj)]
        elif inspect.isclass(obj) and obj.__module__.startswith("expansionlab"):
            stack += [(f"{path}.{k}", v) for k, v in vars(obj).items()]
        elif (inspect.isfunction(obj) and not hasattr(obj, "_bench_traced")
              and obj.__module__.startswith("expansionlab")):
            stack += [(f"{path}.__defaults__", obj.__defaults__ or ()),
                      (f"{path}.__kwdefaults__", obj.__kwdefaults__ or {})]
            for i, cell in enumerate(obj.__closure__ or ()):
                try:
                    stack.append((f"{path}.<closure {i}>", cell.cell_contents))
                except ValueError:   # a cell not yet filled
                    pass


def rebind(replacements: dict) -> list:
    """Point every binding of each key function at its replacement.

    Returns undo callables. Tracer.unwrapped() reports any other place, such
    as a default argument, that still holds a traced function.
    """
    undo = []
    for container, key, value in _bindings():
        if not (inspect.isfunction(value) and value in replacements):
            continue
        if inspect.isclass(container):
            setattr(container, key, replacements[value])
            undo.append(lambda c=container, k=key, o=value: setattr(c, k, o))
        else:
            container[key] = replacements[value]
            undo.append(lambda c=container, k=key, o=value:
                        c.__setitem__(k, o))
    return undo


class Tracer:
    """Wraps the package's functions; collects counts and spans for one pass."""

    def __init__(self):
        from expansionlab.specfun import QuadratureError
        self._quad_error = QuadratureError
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._undo = []
        self.originals = {}
        self.reset()

    def reset(self):
        # counters are kept per thread, so reproduce-all's pool loses no update
        self._calls = defaultdict(Counter)
        self._work = defaultdict(Counter)
        self.spans = []          # [name, thread, start, end, parent]
        self._cpu = {}           # span id -> thread CPU seconds, cmd_* spans
        self._stacks = defaultdict(list)

    @property
    def calls(self) -> Counter:
        return sum(self._calls.values(), Counter())

    @property
    def work(self) -> Counter:
        return sum(self._work.values(), Counter())

    # ---------------------------------------------------------- install

    def install(self):
        wrappers = {}
        for qname, fn in _targets():
            if fn not in wrappers:
                wrappers[fn] = self._wrap(qname, fn)
                self.originals[fn] = qname
        self._undo = rebind(wrappers)

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def unwrapped(self) -> list:
        """Places package code can still reach a traced function unwrapped."""
        left = []
        for path, obj in _reachable():
            if inspect.isfunction(obj) and obj in self.originals:
                left.append(f"{self.originals[obj]} reachable as {path}")
        for qname, fn in _targets():
            if not getattr(fn, "_bench_traced", False):
                left.append(f"{qname} not wrapped")
        return left

    # ---------------------------------------------------------- wrappers

    def _wrap(self, name, fn):
        calls = self._calls
        get_ident = threading.get_ident
        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                calls[get_ident()][name] += 1
                return fn(*args, **kwargs)
            wrapper = counted
        else:
            def spanned(*args, **kwargs):
                calls[get_ident()][name] += 1
                if name in QUADRATURE:
                    args = (self._count_evals(args[0]),) + args[1:]
                sid = self._open(name)
                cpu = time.thread_time() if name in CMD else None
                try:
                    result = fn(*args, **kwargs)
                except self._quad_error:
                    self._work[get_ident()]["specfun.quad_nonconverged"] += 1
                    raise
                finally:
                    self.spans[sid][3] = time.perf_counter()
                    if cpu is not None:
                        self._cpu[sid] = time.thread_time() - cpu
                    self._stacks[get_ident()].pop()
                self._observe(name, args, kwargs, result)
                return result
            wrapper = spanned
        wrapper = functools.wraps(fn)(wrapper)
        wrapper._bench_traced = True
        return wrapper

    def _count_evals(self, integrand):
        work = self._work[threading.get_ident()]

        def counted(x):
            work["specfun.integrand_evals"] += 1
            return integrand(x)
        return counted

    def _open(self, name):
        tid = threading.get_ident()
        stack = self._stacks[tid]
        if stack:
            parent = stack[-1]
        elif tid != self._main and self._stacks[self._main]:
            # a pool thread: its work belongs to the span that started the pool
            parent = self._stacks[self._main][-1]
        else:
            parent = None
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, tid, time.perf_counter(), None, parent])
        stack.append(sid)
        return sid

    def _observe(self, name, args, kwargs, result):
        work = self._work[threading.get_ident()]
        if name in STEPPERS:
            n = kwargs["n_slices"] if "n_slices" in kwargs else args[2]
            work[f"{STEPPERS[name]}_steps"] += n
            work["states_bytes"] += result.states.nbytes
        elif name == "propagation.write_trajectory_csv":
            path = kwargs["path"] if "path" in kwargs else args[1]
            work["csv_bytes"] += os.path.getsize(path)
        elif name == "expansion.project":
            work["coefficients"] += len(result.entries)
        elif name == "scenario.RunManifest.write":
            manifest, path = args[0], Path(args[1])
            work["artifact_bytes"] += os.path.getsize(path) + sum(
                os.path.getsize(path.parent / o["path"])
                for o in manifest.outputs)

    # ---------------------------------------------------------- report

    def layer_metrics(self) -> dict:
        """Per-layer values of the pass traced since the last reset()."""
        total = defaultdict(float)
        self_time = defaultdict(float)
        children = defaultdict(list)
        for sid, (name, tid, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            if parent is not None:
                children[parent].append(sid)
        for sid, (name, tid, start, end, parent) in enumerate(self.spans):
            self_time[name] += (end - start) - _coverage(
                [(self.spans[c][2], self.spans[c][3]) for c in children[sid]],
                start, end)

        def per(value, count, scale):
            return value / count * scale if count else 0.0

        c, w = self.calls, self.work
        evals = w["specfun.integrand_evals"]
        quad_s = sum(total[q] for q in QUADRATURE)
        return {
            "propagation.cayley_steps": w["cayley_steps"],
            "propagation.cayley_us_per_step": per(
                total["propagation.unitary_propagate"], w["cayley_steps"], 1e6),
            "propagation.euler_steps": w["euler_steps"],
            "propagation.euler_us_per_step": per(
                total["propagation.euler_propagate"], w["euler_steps"], 1e6),
            "propagation.audit_s": total["propagation.norm_audit"],
            "propagation.states_mb": w["states_bytes"] / 1e6,
            "propagation.csv_s": total["propagation.write_trajectory_csv"],
            "propagation.csv_mb": w["csv_bytes"] / 1e6,
            "specfun.quad_calls": sum(c[q] for q in QUADRATURE),
            "specfun.integrand_evals": evals,
            "specfun.quad_s": quad_s,
            "specfun.us_per_eval": per(quad_s, evals, 1e6),
            "specfun.quad_nonconverged": w["specfun.quad_nonconverged"],
            "gauge.observable_calls": c["gauge.velocity_and_momentum"],
            "gauge.observable_ms_per_call": per(
                total["gauge.velocity_and_momentum"],
                c["gauge.velocity_and_momentum"], 1e3),
            "gauge.field_check_s": total["gauge.field_mismatch"]
            + total["gauge.GaugeFunction.consistency_defect"],
            "gauge.jump_self_s": self_time["gauge.gauge_jump_experiment"],
            "gauge.phase_fit_self_s":
                self_time["gauge.phase_factored_expansion_test"],
            "basis.box_evals": c["basis.box_eigenfunction"]
            + c["basis.box_eigenfunction_dx"],
            "expansion.coefficients": w["coefficients"],
            "expansion.ms_per_coefficient": per(
                total["expansion.project"], w["coefficients"], 1e3),
            "expansion.landau_overlap_ms_per_n": per(
                total["expansion.landau_plane_wave_overlap"],
                c["expansion.landau_plane_wave_overlap"], 1e3),
            "expansion.scan_s": total["expansion.convergence_scan"],
            "scenario.load_s": total["scenario.load_scenario"],
            "scenario.manifest_s": total["scenario.RunManifest.write"],
            "svgplot.chart_s": total["svgplot.line_chart"],
            "cli.artifact_mb": w["artifact_bytes"] / 1e6,
            "cli.check_s": sum(t for n, t in total.items()
                               if n.startswith("cli._check_")),
            "cli.pool_overlap": self._pool_overlap(),
        }

    def _pool_overlap(self) -> float:
        """Summed cmd_* time in reproduce-all's pool / the pool's wall time.

        The time summed is each pooled command's thread CPU time: the wall
        spans of two threads that take turns holding the interpreter lock both
        stretch over the whole pool, so they would read 2.0 with no speed-up.
        1.0 means the pool buys nothing.
        """
        pooled = [sid for sid, s in enumerate(self.spans)
                  if s[0] in CMD and s[1] != self._main and s[4] is not None
                  and self.spans[s[4]][0] == "cli.cmd_reproduce_all"]
        if not pooled:
            return 0.0
        wall = (max(self.spans[i][3] for i in pooled)
                - min(self.spans[i][2] for i in pooled))
        return sum(self._cpu[i] for i in pooled) / wall

    def write_spans(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,thread,start_s,end_s,parent\n")
            t0 = self.spans[0][2] if self.spans else 0.0
            for sid, (name, tid, start, end, parent) in enumerate(self.spans):
                fh.write(f"{sid},{name},{tid},{start - t0:.9f},"
                         f"{end - t0:.9f},{'' if parent is None else parent}\n")


def _coverage(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_test() -> list:
    """Install a tracer and list the bindings it failed to wrap."""
    import expansionlab.cli  # noqa: F401  (loads every layer module)
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.unwrapped()
    finally:
        tracer.uninstall()


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    problems = self_test()
    for p in problems:
        print(f"unwrapped: {p}", file=sys.stderr)
    n = len(_targets())
    print(f"trace self-test: {n} functions, "
          f"{'FAIL' if problems else 'all bindings wrapped'}")
    sys.exit(1 if problems else 0)
