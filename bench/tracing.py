"""Span tracing of lanedual from outside the package.

The program carries no instrumentation of its own, so the benchmark wraps
the public functions of each module in place: a wrapper records a span
(name, start, end, parent) and, for a few calls, a counter taken from the
returned value. Names bound by ``from .x import f`` are wrapped in every
module that binds them, including entries of module-level tables such as
``cli.COMMANDS`` and ``acceptance.CRITERIA``; a function from another
package (``groundstate.solve_ivp``) is wrapped only in the module named.
Everything is restored when the tracer is uninstalled.

Spans stay in memory until the benchmark writes them out. The tracer keeps
one span stack and assumes the traced calls run on one thread (the
benchmark runs every job with ``jobs=1``).
"""

import importlib
import re
import sys
import time
from collections import Counter
from contextlib import contextmanager


def _nnodes(tracer, mesh):
    tracer.counts["mesh.nnodes"] += mesh.nnodes


def _dual_report(tracer, report):
    for trace in report.traces:
        tracer.counts["dualsolve.sweeps"] += len(trace.iterations)
        tracer.counts["dualsolve.restarts"] += 1
        tracer.counts["dualsolve.restarts_converged"] += bool(trace.converged)


def _ivp_solution(tracer, sol):
    tracer.counts["groundstate.rhs_evals"] += sol.nfev


# (span name, module, attribute path, hook on the returned value)
TARGETS = [
    ("mesh.build", "lanedual.mesh", "build", _nnodes),
    ("mesh.build_equal_volume", "lanedual.mesh", "build_equal_volume",
     _nnodes),
    ("mesh.stiffness", "lanedual.mesh", "Mesh.stiffness", None),
    ("neumann.factor", "lanedual.neumann", "NeumannSolver.__init__", None),
    ("neumann.solve_K", "lanedual.neumann", "NeumannSolver.solve_K", None),
    ("neumann.kappa_shift", "lanedual.neumann", "NeumannSolver.kappa_shift",
     None),
    ("neumann.first_eigenfunction", "lanedual.neumann",
     "NeumannSolver.first_eigenfunction", None),
    ("dualsolve.maximize_D", "lanedual.dualsolve", "maximize_D", _dual_report),
    ("dualsolve.recover_solution", "lanedual.dualsolve", "recover_solution",
     None),
    ("groundstate.shoot", "lanedual.groundstate", "shoot", None),
    ("groundstate.profile_constants", "lanedual.groundstate",
     "profile_constants", None),
    ("groundstate.solve_ivp", "lanedual.groundstate", "solve_ivp",
     _ivp_solution),
    ("asymptotics.expansion_sweep", "lanedual.asymptotics", "expansion_sweep",
     None),
    ("asymptotics.norm_rate_sweep", "lanedual.asymptotics", "norm_rate_sweep",
     None),
    ("asymptotics.cherrier_probe", "lanedual.asymptotics", "cherrier_probe",
     None),
    ("symmetry.symmetry_gap", "lanedual.symmetry", "symmetry_gap", None),
    ("symmetry.star_transform", "lanedual.symmetry",
     "RadialProfile.star_transform", None),
    ("symmetry.fs_check", "lanedual.symmetry", "fs_check", None),
    ("acceptance.quick_battery", "lanedual.acceptance", "quick_battery", None),
    ("cli.report_dump", "lanedual.cli", "Report.dump", None),
    ("cli.build_identifier", "lanedual.cli", "build_identifier", None),
]

# Functions found by name pattern, so that criteria and subcommands added
# or renamed later are traced without editing the table above.
PATTERN_TARGETS = [
    ("lanedual.acceptance", re.compile(r"criterion_(\d+)_\w+$"),
     lambda m: f"acceptance.criterion_{m.group(1)}"),
    ("lanedual.cli", re.compile(r"cmd_\w+$"), lambda m: f"cli.{m.group(0)}"),
]

LAYERS = ("mesh", "neumann", "dualsolve", "groundstate", "asymptotics",
          "symmetry", "acceptance", "cli")


class Tracer:
    """Records spans and counters while installed on the lanedual modules.

    A span is a tuple (name, start, end, parent index); parent is -1 for a
    root. Indices are allocated when a span opens, so a parent always has a
    smaller index than its children.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.absent = set()
        self._stack = []
        self._patches = []

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name):
        idx = self.begin()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.end(idx, name, t0)

    def begin(self):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def end(self, idx, name, t0):
        t1 = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, t0, t1, parent)

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx, name, t0)
            if hook is not None:
                hook(tracer, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------
    def install(self):
        """Wrap every target in the imported lanedual modules."""
        for name, modname, path, hook in TARGETS:
            self._install_one(name, modname, path, hook)
        for modname, pattern, span_name in PATTERN_TARGETS:
            mod = _import(modname)
            if mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                m = pattern.match(attr)
                if m and callable(val):
                    self._install_one(span_name(m), modname, attr, None)
        return self

    def _install_one(self, name, modname, path, hook):
        owner = _import(modname)
        owner_path, _, attr = path.rpartition(".")
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            self.absent.add(name)
            return
        orig = getattr(owner, attr)
        traced = self._wrap(name, orig, hook)
        self._set(owner, attr, orig, traced)
        if isinstance(owner, type):
            return  # methods are looked up on the class only
        if not getattr(orig, "__module__", "").startswith("lanedual"):
            return  # a foreign function: wrap it where it is named only
        for other in _lanedual_modules():
            for key, val in list(vars(other).items()):
                if val is orig:
                    self._set(other, key, orig, traced)
                elif isinstance(val, (dict, list)):
                    keys = val.keys() if isinstance(val, dict) else range(
                        len(val))
                    for k in list(keys):
                        if val[k] is orig:
                            self._patches.append((val, k, orig, "item"))
                            val[k] = traced

    def _set(self, owner, attr, orig, traced):
        self._patches.append((owner, attr, orig, "attr"))
        setattr(owner, attr, traced)

    def uninstall(self):
        while self._patches:
            owner, key, orig, kind = self._patches.pop()
            if kind == "attr":
                setattr(owner, key, orig)
            else:
                owner[key] = orig

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def _import(modname):
    try:
        return importlib.import_module(modname)
    except ImportError:
        return None


def _lanedual_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "lanedual"
                                    or name.startswith("lanedual."))]


def span_cost(n=50_000):
    """Seconds one wrapped call adds: a traced no-op minus a plain one."""
    def noop():
        return None

    traced = Tracer()._wrap("noop", noop, None)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        traced()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / n


# -- derived per-layer metrics -------------------------------------------

def self_times(spans):
    """Per-span self time: duration minus the durations of its children."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [t1 - t0 - child[i] for i, (_, t0, t1, _) in enumerate(spans)]


def _count_under(spans, name, ancestor):
    """Spans called `name` that a span called `ancestor` encloses."""
    under = [False] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            under[i] = under[parent] or spans[parent][0] == ancestor
    return sum(1 for span, u in zip(spans, under) if u and span[0] == name)


def span_summary(spans):
    """Per span name: (calls, self seconds); per layer: self seconds."""
    selfs = self_times(spans)
    calls, secs, layer = Counter(), Counter(), Counter()
    for (name, _, _, _), s in zip(spans, selfs):
        calls[name] += 1
        secs[name] += s
        layer[name.split(".", 1)[0]] += s
    return calls, secs, layer


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics: name -> (unit, spans the metric needs)
PER_LAYER = {
    "mesh.build.s": ("s", ["mesh.build"]),
    "mesh.stiffness.s": ("s", ["mesh.stiffness"]),
    "mesh.nnodes": ("count", ["mesh.build"]),
    "neumann.factor.s": ("s", ["neumann.factor"]),
    "neumann.solve_K.calls": ("count", ["neumann.solve_K"]),
    "neumann.solve_K.s": ("s", ["neumann.solve_K"]),
    "neumann.solve_K.us_per_call": ("us", ["neumann.solve_K"]),
    "neumann.kappa_shift.calls": ("count", ["neumann.kappa_shift"]),
    "neumann.kappa_shift.s": ("s", ["neumann.kappa_shift"]),
    "neumann.first_eigenfunction.s": ("s", ["neumann.first_eigenfunction"]),
    "dualsolve.maximize_D.s": ("s", ["dualsolve.maximize_D"]),
    "dualsolve.recover_solution.s": ("s", ["dualsolve.recover_solution"]),
    "dualsolve.sweeps": ("count", ["dualsolve.maximize_D"]),
    "dualsolve.solves_per_sweep": ("ratio", ["dualsolve.maximize_D",
                                             "neumann.solve_K"]),
    "dualsolve.restarts_converged_ratio": ("ratio", ["dualsolve.maximize_D"]),
    "groundstate.shoot.s": ("s", ["groundstate.shoot"]),
    "groundstate.integrations": ("count", ["groundstate.solve_ivp"]),
    "groundstate.integrations_per_shoot": ("ratio", ["groundstate.shoot",
                                                     "groundstate.solve_ivp"]),
    "groundstate.rhs_evals": ("count", ["groundstate.solve_ivp"]),
    "groundstate.profile_constants.s": ("s",
                                        ["groundstate.profile_constants"]),
    "asymptotics.expansion_sweep.s": ("s", ["asymptotics.expansion_sweep"]),
    "asymptotics.norm_rate_sweep.s": ("s", ["asymptotics.norm_rate_sweep"]),
    "asymptotics.cherrier_probe.s": ("s", ["asymptotics.cherrier_probe"]),
    "symmetry.symmetry_gap.s": ("s", ["symmetry.symmetry_gap"]),
    "symmetry.star_transform.calls": ("count", ["symmetry.star_transform"]),
    "symmetry.star_transform.s": ("s", ["symmetry.star_transform"]),
    "symmetry.fs_check.s": ("s", ["symmetry.fs_check"]),
    **{f"acceptance.criterion_{k}.s": ("s", [f"acceptance.criterion_{k}"])
       for k in range(1, 12)},
    **{f"acceptance.criterion_{k}.total_s": ("s",
                                             [f"acceptance.criterion_{k}"])
       for k in range(1, 12)},
    "acceptance.quick_battery.s": ("s", ["acceptance.quick_battery"]),
    "cli.import_s": ("s", []),
    **{f"cli.cmd_{sub}.s": ("s", [f"cli.cmd_{sub}"])
       for sub in ("bubble", "solve", "verify")},
    "cli.report_dump.s": ("s", ["cli.report_dump"]),
    "cli.build_identifier.s": ("s", ["cli.build_identifier"]),
    **{f"layer.{name}.s": ("s", []) for name in LAYERS},
    "trace.covered_frac": ("ratio", []),
    "trace.wall_s": ("s", []),
    "trace.untraced_wall_s": ("s", []),
    "trace.overhead_s": ("s", []),
    "trace.overhead_ratio": ("ratio", []),
    "trace.span_cost_us": ("us", []),
    "trace.overhead_est_s": ("s", []),
    "trace.spans": ("count", []),
}


def pass_metrics(spans, counts, wall):
    """Per-layer metrics of one traced pass whose jobs took `wall` seconds
    in total. Times are per-pass totals of self time."""
    calls, secs, layer = span_summary(spans)
    totals = Counter()
    for name, t0, t1, _ in spans:
        totals[name] += t1 - t0
    solves_in_dual = _count_under(spans, "neumann.solve_K",
                                  "dualsolve.maximize_D")
    ivp_in_shoot = _count_under(spans, "groundstate.solve_ivp",
                                "groundstate.shoot")
    out = {
        "mesh.nnodes": counts["mesh.nnodes"],
        "neumann.solve_K.calls": calls["neumann.solve_K"],
        "neumann.solve_K.us_per_call": 1e6 * _ratio(
            secs["neumann.solve_K"], calls["neumann.solve_K"]),
        "neumann.kappa_shift.calls": calls["neumann.kappa_shift"],
        "dualsolve.sweeps": counts["dualsolve.sweeps"],
        "dualsolve.solves_per_sweep": _ratio(solves_in_dual,
                                             counts["dualsolve.sweeps"]),
        "dualsolve.restarts_converged_ratio": _ratio(
            counts["dualsolve.restarts_converged"],
            counts["dualsolve.restarts"]),
        "groundstate.integrations": calls["groundstate.solve_ivp"],
        "groundstate.integrations_per_shoot": _ratio(
            ivp_in_shoot, calls["groundstate.shoot"]),
        "groundstate.rhs_evals": counts["groundstate.rhs_evals"],
        "symmetry.star_transform.calls": calls["symmetry.star_transform"],
        "cli.import_s": secs["cli.import"],
        "trace.spans": len(spans),
        "trace.wall_s": wall,
        "trace.covered_frac": _ratio(sum(layer[n] for n in LAYERS), wall),
    }
    for name in LAYERS:
        out[f"layer.{name}.s"] = layer[name]
    # a criterion's self time leaves out the solves and shoots it runs, so
    # its whole span is reported as well
    for k in range(1, 12):
        out[f"acceptance.criterion_{k}.total_s"] = totals[
            f"acceptance.criterion_{k}"]
    for metric, (unit, needs) in PER_LAYER.items():
        if metric not in out and unit == "s" and needs:
            out[metric] = secs[needs[0]]
    return out


def absent_metrics(absent_spans):
    """Metrics that cannot be measured because a wrapped target is gone."""
    return sorted(metric for metric, (_, needs) in PER_LAYER.items()
                  if any(n in absent_spans for n in needs))
