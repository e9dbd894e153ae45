"""lanedual benchmark: one closed-loop client, jobs=1, one workload per run.

Run from the repository root:

    python3 bench/run.py --workload engines --seed 0 --seconds 60 --trace 0

Workloads (see bench/README.md for why each exists): engines, cli. A run
first times set-up (fresh interpreters importing lanedual), then runs
passes over the workload's job list until --seconds would be exceeded,
checking every job's result. Each pass draws its own program
seed from --seed, so a run covers several iteration paths and the same
--seed always gives the same inputs.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes at one seed and prints the per-layer metrics, taken from
spans recorded around the calls into each lanedual module.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A fuller record (samples,
quartiles, failures, provenance, spans) goes to bench/out/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy
import scipy

import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
TRACECLI = os.path.join(BENCH, "tracecli.py")

SETUP_REPS = 5
JOB_TIMEOUT_S = 120
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


def child_env(**extra):
    """Environment of every process the benchmark starts: the checkout's
    src/ first on the path, and git kept from searching above the
    checkout."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    return env


def load_program():
    """Put the checkout's src/ first on sys.path and import lanedual from
    it; None when the checkout holds no lanedual package."""
    if not os.path.isfile(os.path.join(SRC, "lanedual", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import lanedual
    if os.path.dirname(os.path.dirname(lanedual.__file__)) != SRC:
        return None
    return lanedual


# -- one job ------------------------------------------------------------

@dataclass
class JobResult:
    name: str
    problems: list
    wall: float
    cpu: float
    rss_kb: int

    @property
    def ok(self):
        return not self.problems


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


def run_in_process(job, seed, tracer):
    error = None
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            value = job.call(seed)
        else:
            with tracer.span(f"job.{job.name}"):
                value = job.call(seed)
    except Exception as exc:  # a failed job is counted, never fatal
        error = exc
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    if error is not None:
        problems = [f"raised {type(error).__name__}: {error}"]
    else:
        problems = job.check(value)
    return JobResult(job.name, problems, wall, _cpu(r1) - _cpu(r0),
                     r1.ru_maxrss)


def run_subprocess(job, seed, tracer, workdir):
    """Run one lanedual CLI command in a fresh interpreter; its wall time,
    CPU time (children included) and peak RSS come from wait4."""
    args = job.argv(seed)
    outdir = os.path.join(workdir, "job")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    spanfile = os.path.join(outdir, "spans.json")
    if tracer is None:
        argv = [sys.executable, "-m", "lanedual.cli", *args]
    else:
        argv = [sys.executable, TRACECLI, spanfile, *args]
        job_span = tracer.begin()
    with open(os.path.join(outdir, "output.log"), "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT,
                                env=child_env(LANEDUAL_OUTDIR=outdir))
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if tracer is not None:
        tracer.end(job_span, f"job.{job.name}", t0)
        _merge_child_spans(tracer, spanfile, job_span)
    problems = []
    if proc.returncode != 0:
        with open(os.path.join(outdir, "output.log")) as fh:
            tail = fh.read()[-400:].strip().replace("\n", " | ")
        problems.append(f"exit code {proc.returncode}: {tail}")
    report_path = os.path.join(outdir, args[0], "report.json")
    if os.path.isfile(report_path):
        with open(report_path) as fh:
            problems += job.check(json.load(fh))
    else:
        problems.append("no report.json written")
    return JobResult(job.name, problems, wall, _cpu(usage), usage.ru_maxrss)


def _merge_child_spans(tracer, spanfile, parent):
    if not os.path.isfile(spanfile):
        return
    with open(spanfile) as fh:
        child = json.load(fh)
    offset = len(tracer.spans)
    for name, t0, t1, p in child["spans"]:
        tracer.spans.append((name, t0, t1, parent if p < 0 else p + offset))
    tracer.counts.update(child["counts"])
    tracer.absent.update(child["absent"])


def run_pass(workload, seed, tracer=None):
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    results = []
    for job in workload.jobs:
        if workload.in_process:
            results.append(run_in_process(job, seed, tracer))
        else:
            results.append(run_subprocess(job, seed, tracer, workdir))
    shutil.rmtree(workdir, ignore_errors=True)
    return results


def pass_wall(results):
    return sum(r.wall for r in results)


def pass_seeds(seed):
    """Program seeds of successive passes, drawn from the workload seed."""
    rng = numpy.random.default_rng(seed)
    while True:
        yield int(rng.integers(2 ** 31 - 1))


# -- set-up -------------------------------------------------------------

def measure_setup(code):
    """Wall time of a fresh interpreter that runs `code` (the imports a
    user's process pays before its first job)."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"set-up failed: {code!r} exited "
                         f"{proc.returncode}: {proc.stderr[-400:]}")
    return wall


# -- statistics and provenance -------------------------------------------

def summary(values):
    """(median, first quartile, third quartile, sample count)."""
    values = sorted(values)
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def _git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=child_env(), capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def provenance():
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "src_lines": _src_lines(),  # informational, not gated
    }


# -- the two kinds of run ------------------------------------------------

def measure(workload, seed, seconds):
    """Untraced passes until the time is spent: end-to-end metrics."""
    setup = [measure_setup(workload.setup_code) for _ in range(SETUP_REPS)]
    seeds = pass_seeds(seed)
    passes = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(workload, next(seeds)))
        now = time.perf_counter()
        if now - t_start + (now - t0) > seconds:
            break
    if workload.in_process:
        rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
    else:
        rss = [max(r.rss_kb for r in res) for res in passes]
    samples = {
        "setup_s": setup,
        "wall_s": [pass_wall(res) for res in passes],
        "cpu_s": [sum(r.cpu for r in res) for res in passes],
        "peak_rss_mb": [kb / 1024.0 for kb in rss],
    }
    metrics = {name: summary(vals)[0] for name, vals in samples.items()}
    return passes, samples, metrics, {}


def trace(workload, seed, seconds):
    """Pairs of untraced and traced passes at one program seed: per-layer
    metrics and the tracing overhead."""
    tracer = tracing.Tracer()
    pass_seed = next(pass_seeds(seed))
    passes, untraced, traced, spans = [], [], [], []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        res = run_pass(workload, pass_seed)
        untraced.append(pass_wall(res))
        passes.append(res)
        tracer.reset()
        if workload.in_process:
            with tracer:
                res = run_pass(workload, pass_seed, tracer)
        else:
            res = run_pass(workload, pass_seed, tracer)
        passes.append(res)
        traced.append(tracing.pass_metrics(tracer.spans, tracer.counts,
                                           pass_wall(res)))
        spans.append(tracer.spans)
        now = time.perf_counter()
        if now - t_start + (now - t0) > seconds:
            break
    absent = tracing.absent_metrics(tracer.absent)
    medians = {name: statistics.median(p[name] for p in traced)
               for name in traced[0]}
    untraced_wall = statistics.median(untraced)
    medians["trace.untraced_wall_s"] = untraced_wall
    medians["trace.overhead_s"] = medians["trace.wall_s"] - untraced_wall
    medians["trace.overhead_ratio"] = (medians["trace.overhead_s"]
                                       / untraced_wall)
    # machine noise between two passes can exceed the overhead itself, so
    # it is also estimated from the cost of one span
    cost = tracing.span_cost()
    medians["trace.span_cost_us"] = 1e6 * cost
    medians["trace.overhead_est_s"] = medians["trace.spans"] * cost
    metrics = {name: medians[name] for name in tracing.PER_LAYER
               if name not in absent}
    counters = [name for name, (unit, _) in tracing.PER_LAYER.items()
                if unit == "count" and name in metrics]
    samples = {"untraced_wall_s": untraced,
               "traced": traced,
               "counters_repeat": all(p[c] == traced[0][c]
                                      for p in traced for c in counters)}
    extra = {"absent": absent, "spans": spans, "counts": dict(tracer.counts),
             "span_format": "[name, start_s, end_s, parent_index]"}
    return passes, samples, metrics, extra


def units(trace_mode):
    if not trace_mode:
        return END_TO_END_UNITS
    return {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if load_program() is None:
        print(f"no lanedual package under {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    os.makedirs(OUT, exist_ok=True)

    run = trace if args.trace else measure
    passes, samples, metrics, extra = run(workload, args.seed, args.seconds)

    jobs = [r for res in passes for r in res]
    failures = [{"job": r.name, "problems": r.problems}
                for r in jobs if not r.ok]
    unit = units(args.trace)
    prov = provenance()
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "passes": len(passes), "jobs_per_pass": len(workload.jobs),
        "attempted": len(jobs), "failed": len(failures),
        "failed_frac": len(failures) / len(jobs),
        "failures": failures,
        "job_seconds": [[r.name, r.wall, r.cpu] for r in jobs],
        "samples": samples, "metrics": metrics, "provenance": prov,
        **extra,
    }
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes x {len(workload.jobs)} jobs, "
          f"failed {len(failures)}/{len(jobs)} "
          f"(failed_frac {len(failures) / len(jobs):g})")
    for fail in failures:
        print(f"  FAILED {fail['job']}: {'; '.join(fail['problems'])}")
    if not args.trace:
        for name, vals in samples.items():
            med, q1, q3, n = summary(vals)
            print(f"  {name:12s} median {med:.4f} {unit[name]}  "
                  f"quartiles [{q1:.4f}, {q3:.4f}]  n={n}")
        for job in workload.jobs:
            med, q1, q3, n = summary([r.wall for r in jobs
                                      if r.name == job.name])
            print(f"    job {job.name:32s} wall median {med:.4f} s  "
                  f"quartiles [{q1:.4f}, {q3:.4f}]  n={n}")
    else:
        for name, value in metrics.items():
            print(f"  {name:40s} {value:.6g} {unit[name]}")
        for name in extra["absent"]:
            print(f"  {name:40s} absent (traced entry point is gone)")
        print(f"  counters repeat across traced passes: "
              f"{samples['counters_repeat']}")
    print(f"provenance: {json.dumps(prov)}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
