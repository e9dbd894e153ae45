import json
import os

import numpy as np
import pytest

from lanedual import cli, groundstate
from lanedual import dualsolve as ds
from lanedual.neumann import NeumannSolver, NonZeroMeanError


def run_cli(argv, tmp_path, name="out"):
    outdir = str(tmp_path / name)
    code = cli.main(argv + ["--outdir", outdir])
    sub = argv[0]
    report_path = os.path.join(outdir, sub, "report.json")
    report = None
    if os.path.exists(report_path):
        with open(report_path) as fh:
            report = json.load(fh)
    return code, report, outdir


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("p = 3.0\nN = 4\nnr = 128  # comment\nseed = 5\n")
    values = cli.parse_config_file(path)
    assert values == {"p": 3.0, "N": 4, "nr": 128, "seed": 5}
    cfg = cli.RunConfig(subcommand="bubble", **values)
    assert cfg.pack().q == pytest.approx(3.0)


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("banana = 1\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config_file(path)


def test_bubble_subcommand(tmp_path):
    code, report, outdir = run_cli(
        ["bubble", "--p", "3", "--N", "4", "--r-max", "100"], tmp_path)
    assert code == cli.EXIT_OK
    # S within 0.1% of the explicit-bubble value
    S_exact = float(np.sqrt(32.0 * np.pi ** 2 / 3.0))
    assert abs(report["results"]["S"] / S_exact - 1.0) <= 1e-3
    assert report["results"]["admissibility"] == "covered-by-main-thm"
    assert os.path.exists(os.path.join(outdir, "bubble", "profile.csv"))
    assert all(item["passed"] for item in report["invariants"])


def test_solve_subcommand_energy_identity(tmp_path):
    code, report, _ = run_cli(
        ["solve", "--p", "2", "--N", "6", "--mesh", "radial-annulus",
         "--r0", "1", "--R", "2", "--nr", "128", "--restarts", "3"],
        tmp_path)
    assert code == cli.EXIT_OK
    res = report["results"]
    assert res["energy_rel_error"] <= 1e-6
    assert res["restart_stop_reasons"] == ["converged"] * 3
    # per restart: one K solve to start and two per sweep; the
    # eigenfunction, the noise and the recovery add the rest
    work = res["work"]
    assert set(work) == {"k_solves", "sweeps", "mixes", "extrapolations"}
    assert all(len(work[key]) == 3 for key in ("sweeps", "mixes",
                                                "extrapolations"))
    assert work["k_solves"] > sum(1 + 2 * n for n in work["sweeps"])
    names = [item["name"] for item in report["invariants"]]
    assert "energy identity" in names
    assert all(item["passed"] for item in report["invariants"])


def test_solve_near_lower_end_of_hyperbola(tmp_path):
    # p = 0.525 near 2/(N-2) = 0.5, q = 90.5: every restart converges
    code, report, _ = run_cli(
        ["solve", "--p", "0.525", "--N", "6", "--mesh", "radial-annulus",
         "--r0", "1", "--R", "2", "--nr", "257", "--restarts", "4",
         "--seed", "1"], tmp_path)
    assert code == cli.EXIT_OK
    assert report["results"]["restart_stop_reasons"] == ["converged"] * 4


def test_invalid_pack_is_config_error(tmp_path):
    code, report, _ = run_cli(["solve", "--p", "1", "--q", "1", "--N", "6"],
                              tmp_path)
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize("owner, name, error", [
    (NeumannSolver, "check_mean", NonZeroMeanError),  # a ValueError in K
    (groundstate, "shoot", groundstate.BracketError),
    (ds, "maximize_D", ds.ConvergenceError)])
def test_numerical_failure_exit_code(tmp_path, monkeypatch, owner, name,
                                     error):
    def fail(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(owner, name, fail)
    code, report, _ = run_cli(["solve", "--p", "2", "--N", "6", "--nr", "64",
                               "--restarts", "1"], tmp_path)
    assert code == cli.EXIT_CONVERGENCE
    assert report["results"]["error"] == "forced"


def test_zero_field_exits_3(tmp_path, monkeypatch):
    # a zero field reaching the quotient is a numerical failure, not a
    # config error, though the arguments were valid
    def zero_quotient(mesh, pack, **kw):
        z = np.zeros(mesh.nnodes)
        return ds.rayleigh_ratio(ds.NeumannSolver(mesh), z, z, pack)

    monkeypatch.setattr(ds, "maximize_D", zero_quotient)
    code, report, _ = run_cli(["solve", "--p", "2", "--N", "6", "--nr", "64"],
                              tmp_path)
    assert code == cli.EXIT_CONVERGENCE
    assert "zero field" in report["results"]["error"]


def test_missing_exponents_is_config_error(tmp_path):
    code, _, _ = run_cli(["bubble", "--N", "6"], tmp_path)
    assert code == cli.EXIT_CONFIG


def test_determinism_byte_identical_reports(tmp_path):
    # the solve report carries the work counters under results.work
    for argv in (["sweep", "--p", "2", "--N", "6", "--eps-hi", "0.01",
                  "--eps-lo", "0.0003", "--eps-count", "6", "--seed", "3",
                  "--r-max", "100"],
                 ["solve", "--p", "2", "--N", "6", "--nr", "64",
                  "--restarts", "3", "--seed", "3"]):
        _, rep1, _ = run_cli(argv, tmp_path, f"a-{argv[0]}")
        _, rep2, _ = run_cli(argv, tmp_path, f"b-{argv[0]}")
        for rep in (rep1, rep2):
            rep.pop("timings")
            rep["config"].pop("outdir")  # the only run-specific config field
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2,
                                                              sort_keys=True)
    assert rep1["results"]["work"]["k_solves"] > 0


def test_report_embeds_config_and_build(tmp_path):
    code, report, _ = run_cli(
        ["bubble", "--p", "3", "--N", "4", "--r-max", "100", "--seed", "9"],
        tmp_path)
    assert report["config"]["seed"] == 9
    assert report["config"]["subcommand"] == "bubble"
    assert report["build"]
    assert report["version"]


def test_verify_quick(tmp_path):
    code, report, _ = run_cli(["verify", "--quick"], tmp_path)
    assert code == cli.EXIT_OK
    assert len(report["invariants"]) >= 6
    assert all(item["passed"] for item in report["invariants"])
    # the quick checks are not timed one by one
    assert "criterion_seconds" not in report["timings"]


def test_verify_writes_criterion_seconds_under_timings(tmp_path,
                                                       monkeypatch):
    from lanedual import acceptance
    fake = [acceptance.CheckResult("1 first", True, "ok", {"x": 1.0},
                                   seconds=0.25),
            acceptance.CheckResult("2 second", True, "ok", seconds=1.5)]
    monkeypatch.setattr(acceptance, "run_all", lambda quick, seed: fake)
    code, report, _ = run_cli(["verify"], tmp_path)
    assert code == cli.EXIT_OK
    assert report["timings"]["criterion_seconds"] == {"1 first": 0.25,
                                                      "2 second": 1.5}
    # seconds stay out of the deterministic part of the report
    assert "seconds" not in json.dumps(report["results"])


def test_sweep_csv_artifacts(tmp_path):
    code, report, outdir = run_cli(
        ["sweep", "--p", "2", "--N", "6", "--eps-hi", "0.01",
         "--eps-lo", "0.0003", "--eps-count", "6", "--r-max", "100"],
        tmp_path)
    assert code == cli.EXIT_OK
    csv_path = os.path.join(outdir, "sweep", "sweep.csv")
    assert os.path.exists(csv_path)
    with open(csv_path) as fh:
        header = fh.readline().strip()
    assert header == "quantity,eps,value"


def test_probe_cherrier_subcommand(tmp_path):
    code, report, _ = run_cli(
        ["probe-cherrier", "--p", "2", "--N", "6", "--family", "boundary",
         "--eps-hi", "0.05", "--eps-lo", "0.01", "--eps-count", "4",
         "--r-max", "100"], tmp_path)
    assert code == cli.EXIT_OK
    assert all(item["passed"] for item in report["invariants"])


def test_symmetry_subcommand(tmp_path, monkeypatch):
    gaps, symmetry_gap = [], cli.sym.symmetry_gap

    def recording_gap(*args, **kw):
        gaps.append(symmetry_gap(*args, **kw))
        return gaps[-1]

    monkeypatch.setattr(cli.sym, "symmetry_gap", recording_gap)
    code, report, _ = run_cli(
        ["symmetry", "--p", "2", "--N", "6", "--r0", "1", "--R", "2",
         "--nr", "64", "--ntheta", "48", "--restarts", "2", "--quick"],
        tmp_path)
    assert code == cli.EXIT_OK
    gap = report["results"]["symmetry_gap"]
    assert gap["gap"] > 0
    assert report["results"]["fs_check"]["passed"]
    assert all(item["passed"] for item in report["invariants"])
    idem = [item for item in report["invariants"]
            if item["name"] == "star idempotence"]
    assert len(idem) == 1 and idem[0]["passed"]
    assert report["results"]["star_idempotence_worst_error"] <= 1e-10
    # the foliated-Schwarz check ran on the mesh of the axisymmetric optimum
    (g,) = gaps
    assert g.mesh.kind == g.axi_report.mesh_descr["kind"] == "axisym-annulus"
    assert g.mesh.nnodes == len(g.axi_report.u)


def test_solve_axisym_ball_threshold(tmp_path):
    code, report, _ = run_cli(
        ["solve", "--p", "2", "--N", "6", "--mesh", "axisym-ball",
         "--R", "1", "--nr", "64", "--ntheta", "48", "--restarts", "2"],
        tmp_path)
    assert code == cli.EXIT_OK
    names = [item["name"] for item in report["invariants"]]
    assert "above compactness threshold" in names
    assert all(item["passed"] for item in report["invariants"])


def test_outdir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "env_runs"
    monkeypatch.setenv("LANEDUAL_OUTDIR", str(target))
    code = cli.main(["bubble", "--p", "3", "--N", "4", "--r-max", "100"])
    assert code == cli.EXIT_OK
    assert (target / "bubble" / "report.json").exists()
