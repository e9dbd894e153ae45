"""Tests of the benchmark itself: counters that must repeat, failure
accounting on real failures, and the tracer's wrapping and restoring.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import run

assert run.load_program() is not None, "no lanedual package under src/"

import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from lanedual import acceptance, cli, dualsolve, groundstate, mesh  # noqa: E402
from lanedual.exponents import derived_constants  # noqa: E402


def _traced(call):
    tracer = tracing.Tracer()
    with tracer:
        call()
    calls, _, _ = tracing.span_summary(tracer.spans)
    return calls, tracer.counts


def _job(workload, name):
    return next(job for job in workload.jobs if job.name == name)


def test_solve_count_repeats_for_fixed_seed():
    # 528 K solves at the commit that introduced the benchmark
    job = _job(workloads.engines(), "axisym-ball-96x72-(2,2,6)")
    runs = [_traced(lambda: job.call(0)) for _ in range(2)]
    (calls_a, counts_a), (calls_b, counts_b) = runs
    assert calls_a["neumann.solve_K"] > 0
    assert calls_a["neumann.solve_K"] == calls_b["neumann.solve_K"]
    assert calls_a["neumann.kappa_shift"] == calls_b["neumann.kappa_shift"]
    assert counts_a == counts_b


def test_integration_count_repeats():
    # 42 integrations per (2,2,6) shoot at the same commit
    job = _job(workloads.engines(), "shoot-(2,2,6)")
    (calls_a, counts_a), (calls_b, counts_b) = [
        _traced(lambda: job.call(0)) for _ in range(2)]
    assert calls_a["groundstate.solve_ivp"] > 0
    assert calls_a["groundstate.solve_ivp"] == calls_b["groundstate.solve_ivp"]
    assert counts_a["groundstate.rhs_evals"] == counts_b["groundstate.rhs_evals"]


def test_raising_job_is_counted_as_failed():
    # A known program defect, kept out of every workload: the fourth-order
    # pack on a fine radial annulus does not converge.
    job = workloads.Job(
        "radial-annulus-4097-(1,9,5)", check=lambda rep: [],
        call=lambda seed: dualsolve.maximize_D(
            mesh.build("radial-annulus", 5, 1.0, 2.0, 4097),
            derived_constants(1, 9, 5), restarts=4, seed=seed))
    res = run.run_in_process(job, 0, None)
    assert not res.ok
    assert "ConvergenceError" in res.problems[0]


def test_wrong_result_is_counted_as_failed():
    job = _job(workloads.engines(), "radial-annulus-257-(3,3,4)")
    ref = workloads.D_REF[("radial-annulus", 257, (3, 3, 4))]
    assert run.run_in_process(job, 0, None).ok
    job.check = workloads._check_dual(ref * (1 + 1e-6), margin=False)
    res = run.run_in_process(job, 0, None)
    assert not res.ok
    assert res.problems[0].startswith("D = ")


def test_failing_command_is_counted_as_failed(tmp_path):
    job = workloads.Job("under-resolved", check=lambda report: [],
                        argv=lambda seed: ["solve", "--p", "2", "--N", "6",
                                           "--nr", "8"])
    res = run.run_subprocess(job, 0, None, str(tmp_path))
    assert not res.ok
    assert res.problems[0].startswith("exit code 4")


def test_traced_command_spans_are_merged(tmp_path):
    job = _job(workloads.cli(), "verify-quick")
    tracer = tracing.Tracer()
    res = run.run_subprocess(job, 0, tracer, str(tmp_path))
    assert res.ok
    names = [span[0] for span in tracer.spans]
    assert names[0] == "job.verify-quick"
    assert {"cli.import", "cli.main", "cli.cmd_verify",
            "acceptance.quick_battery", "neumann.solve_K"} <= set(names)
    assert all(span[3] < i for i, span in enumerate(tracer.spans))
    assert all(span[3] >= 0 for span in tracer.spans[1:])


def test_wrappers_cover_aliases_and_are_restored():
    shoot, verify = groundstate.shoot, cli.cmd_verify
    with tracing.Tracer():
        assert groundstate.shoot is not shoot
        assert acceptance.shoot is groundstate.shoot
        assert cli.shoot is groundstate.shoot
        assert cli.COMMANDS["verify"] is cli.cmd_verify is not verify
        assert all(getattr(c, "__wrapped__", None) for c in
                   acceptance.CRITERIA)
    assert groundstate.shoot is acceptance.shoot is cli.shoot is shoot
    assert cli.COMMANDS["verify"] is cli.cmd_verify is verify
    assert not any(hasattr(c, "__wrapped__") for c in acceptance.CRITERIA)


def test_missing_entry_point_is_reported_absent(monkeypatch):
    monkeypatch.delattr(groundstate, "solve_ivp")
    tracer = tracing.Tracer()
    with tracer:
        pass
    assert tracer.absent == {"groundstate.solve_ivp"}
    absent = tracing.absent_metrics(tracer.absent)
    assert absent == ["groundstate.integrations",
                      "groundstate.integrations_per_shoot",
                      "groundstate.rhs_evals"]
    metrics = tracing.pass_metrics([], tracer.counts, 1.0)
    assert set(tracing.PER_LAYER) - set(metrics) <= {
        "trace.untraced_wall_s", "trace.overhead_s", "trace.overhead_ratio",
        "trace.span_cost_us", "trace.overhead_est_s"}


def test_self_time_subtracts_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1)]
    assert tracing.self_times(spans) == pytest.approx([7.0, 2.0, 1.0])
