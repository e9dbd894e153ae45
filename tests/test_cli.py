import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lanedual import cli, groundstate, symmetry
from lanedual import dualsolve as ds
from lanedual import mesh as msh
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
    path.write_text("p = 3.0\nN = 4\nr_max = 100  # comment\nR = 2.5\n")
    values = cli.parse_config_file(path, cli.SUBCOMMANDS["bubble"][1])
    assert values == {"p": 3.0, "N": 4, "r_max": 100.0, "R": 2.5}
    cfg = cli.RunConfig(subcommand="bubble", **values)
    assert cfg.pack().q == pytest.approx(3.0)


def test_config_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("banana = 1\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config_file(path, cli.SUBCOMMANDS["solve"][1])


@pytest.mark.parametrize("args, cfg_text", [
    (["solve", "--bogus", "1"], None),       # unknown flag
    (["solve", "--nr", "abc"], None),        # flag value of the wrong type
    (["solve", "--tol", "1e-8"], None),      # a constant, not an option
    (["--config", "{cfg}", "solve"], None),  # no such file
    (["--config", "{cfg}", "solve"], "nr = abc\n"),     # bad value
    (["--config", "{cfg}", "solve"], "tol = 1e-10\n"),  # unknown key
    (["--config", "{cfg}", "symmetry"], "quick = on\n"),  # not a boolean
    (["bubble", "--nr", "8"], None),         # a field bubble does not read
    (["--config", "{cfg}", "bubble"], "seed = 9\n"),     # the same, as a key
    (["--config", "{cfg}", "bubble"], "subcommand = solve\n"),
    (["--config", "{cfg}", "solve"], "mesh_kind = bogus\n"),  # not a choice
    (["--config", "{cfg}", "probe-cherrier"], "family = bogus\n"),
    (["solve", "--radial-spacing", "nonsense"], None),
    (["solve", "--mesh", "radial-ball"], None),  # not a mesh kind
], ids=["unknown-flag", "bad-flag-value", "removed-flag", "missing-file",
        "bad-file-value", "removed-key", "bad-file-bool", "unread-flag",
        "unread-key", "subcommand-key", "bad-file-mesh", "bad-file-family",
        "bad-radial-spacing", "radial-ball"])
def test_bad_configuration_exits_4(tmp_path, capsys, args, cfg_text):
    cfg = tmp_path / "run.cfg"
    if cfg_text is not None:
        cfg.write_text(cfg_text)
    code = cli.main([arg.format(cfg=cfg) for arg in args]
                    + ["--p", "2", "--N", "6",
                       "--outdir", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    if cfg_text is not None:
        assert f"{cfg}:1: " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["radial-annulus", "axisym-annulus"])
def test_radial_spacing_is_read_on_every_mesh(kind):
    spacings = [np.diff(cli._build_mesh(cli.RunConfig(
        subcommand="solve", p=2.0, N=6, mesh_kind=kind, nr=64, ntheta=32,
        radial_spacing=spacing)).r) for spacing in ("uniform", "boundary")]
    assert np.ptp(spacings[0]) < 1e-12 < np.ptp(spacings[1])


@pytest.mark.parametrize("args, cfg_text, named", [
    (["solve", "--mesh", "radial-annulus", "--nr", "64", "--restarts", "1",
      "--ntheta", "9"], None, "ntheta"),
    (["solve", "--mesh", "axisym-ball", "--r0", "0.5"], None, "r0"),
    (["--config", "{cfg}", "solve"], "theta_grading = 2\n",
     "theta_grading"),
    # the flag's mesh kind wins over the file's, and it reads no ntheta
    (["--config", "{cfg}", "solve", "--mesh", "radial-annulus"],
     "mesh_kind = axisym-ball\nntheta = 32\n", "ntheta"),
], ids=["ntheta-radial", "r0-axisym-ball", "key-theta-grading-radial",
        "key-ntheta-flag-mesh"])
def test_a_field_the_mesh_kind_does_not_read_exits_4(tmp_path, capsys, args,
                                                    cfg_text, named):
    cfg = tmp_path / "run.cfg"
    if cfg_text is not None:
        cfg.write_text(cfg_text)
    code = cli.main([arg.format(cfg=cfg) for arg in args]
                    + ["--p", "2", "--N", "6",
                       "--outdir", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: solve --mesh ")
    assert err.endswith(f" does not read {named}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, skipped", [
    ("radial-annulus", {"ntheta", "theta_grading", "r_max"}),
    ("axisym-annulus", set()),
    ("axisym-ball", {"r0"})], ids=["radial-annulus-skipped0",
                                   "axisym-annulus-skipped2",
                                   "axisym-ball-skipped3"])
def test_solve_reads_the_fields_of_its_mesh_kind(kind, skipped):
    read = cli.RunConfig(subcommand="solve", mesh_kind=kind).read()
    assert read == tuple(key for key in cli.SUBCOMMANDS["solve"][1]
                         if key not in skipped)
    # every other subcommand reads its whole list, whatever mesh_kind holds
    assert cli.RunConfig(subcommand="symmetry", mesh_kind=kind).read() == (
        cli.SUBCOMMANDS["symmetry"][1])


def test_solve_echoes_only_the_fields_its_mesh_kind_reads(tmp_path):
    code, report, _ = run_cli(
        ["solve", "--p", "2", "--N", "6", "--mesh", "radial-annulus",
         "--nr", "64", "--restarts", "1"], tmp_path)
    assert code == cli.EXIT_OK
    assert list(report["config"]) == [
        "subcommand", "p", "q", "N", "mesh_kind", "r0", "R", "nr",
        "radial_spacing", "restarts", "seed", "outdir"]


@pytest.mark.parametrize("value", ["0", "-1"])
def test_restarts_below_1_is_config_error(tmp_path, capsys, value):
    # rejected before any work runs, not run as the eigenfunction alone
    code = cli.main(["solve", "--p", "2", "--N", "6", "--restarts", value,
                     "--outdir", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: restarts = {value} "
                                       "must be >= 1\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, named", [
    (["bubble", "--R", "-1"], "R = -1.0"),
    (["bubble", "--R", "0"], "R = 0.0"),
    (["bubble", "--R", "nan"], "R = nan"),
    (["sweep", "--R", "0"], "R = 0.0"),
    (["sweep", "--R", "-1"], "R = -1.0"),
    (["probe-cherrier", "--R", "-1"], "R = -1.0"),
    (["symmetry", "--R", "inf", "--quick", "--nr", "64", "--ntheta", "32"],
     "R = inf"),
])
def test_a_domain_radius_not_positive_and_finite_is_config_error(
        tmp_path, capsys, argv, named):
    # rejected with the config, before any output
    code = cli.main(argv + ["--p", "2", "--N", "6",
                            "--outdir", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (f"config error: {named} must be "
                                       "positive and finite\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, named", [
    (["bubble", "--r-max", "inf"], "r_max = inf"),
    (["sweep", "--r-max", "inf"], "r_max = inf"),
    (["bubble", "--r-max", "0"], "r_max = 0.0"),
    (["bubble", "--r-max", "nan"], "r_max = nan"),
    (["bubble", "--r-max", "1e-9"], "r_max = 1e-09"),
    (["solve", "--N", "400", "--nr", "64", "--restarts", "1"],
     "dimension N = 400"),
    (["symmetry", "--N", "400", "--quick"], "dimension N = 400"),
    (["solve", "--mesh", "axisym-ball", "--R", "1", "--nr", "64",
      "--ntheta", "32", "--theta-grading", "0"], "theta_grading = 0.0"),
])
def test_an_out_of_range_value_is_config_error_before_any_work(
        tmp_path, capsys, monkeypatch, argv, named):
    calls = []
    for owner in (symmetry, ds):
        monkeypatch.setattr(owner, "maximize_D",
                            lambda *a, **kw: calls.append(a))
    code, report, _ = run_cli(
        argv + (["--p", "2"] if "--N" in argv else ["--p", "2", "--N", "6"]),
        tmp_path)
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {named} ")
    assert list(report["results"]) == ["error"]
    assert calls == []


@pytest.mark.parametrize("argv, named", [
    (["sweep", "--p", "2", "--N", "6", "--R", "1e300"],
     "R = 1e+300 is too large for N = 6"),
    (["bubble", "--p", "2", "--N", "6", "--R", "1e300"],
     "R = 1e+300 is too large for N = 6"),
    (["probe-cherrier", "--p", "2", "--N", "6", "--R", "1e300"],
     "R = 1e+300 is too large for N = 6"),
    (["solve", "--p", "2", "--N", "6", "--nr", "100000000000"],
     "nr = 100000000000 mesh nodes exceed the cap"),
    (["bubble", "--p", "2", "--N", "400"], "dimension N = 400 is too large"),
])
def test_an_oversized_value_is_config_error_before_any_work(
        tmp_path, capsys, monkeypatch, argv, named):
    # each once exited 1 (an OverflowError, numpy's out-of-memory error)
    # or 3 after a whole shoot
    calls = []
    for owner, name in ((groundstate, "shoot"), (ds, "maximize_D"),
                        (msh, "_radial_nodes")):
        monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append(a))
    code, report, _ = run_cli(argv, tmp_path)
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {named}")
    assert list(report["results"]) == ["error"]
    assert calls == []


@pytest.mark.parametrize("argv, named", [
    (["--mesh", "axisym-ball", "--R", "nan", "--ntheta", "32"], "R = nan"),
    (["--mesh", "axisym-ball", "--R", "inf", "--ntheta", "32"], "R = inf"),
    (["--R", "inf"], "R = inf"),
    (["--R", "1e300"], "R = 1e+300 is too large for N = 6"),
    (["--mesh", "axisym-ball", "--R", "1", "--ntheta", "32",
      "--theta-grading", "nan"], "theta_grading = nan"),
    (["--mesh", "axisym-ball", "--R", "1", "--ntheta", "32",
      "--theta-grading", "-1"], "theta_grading = -1.0"),
])
def test_a_degenerate_mesh_is_config_error_not_a_crash(tmp_path, argv,
                                                       named):
    # each once reached SuperLU and killed the process (exit 139), so each
    # runs in a process of its own
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "lanedual.cli", "solve", "--p", "2", "--N",
         "6", "--nr", "64", *argv, "--outdir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == cli.EXIT_CONFIG, out.stderr
    assert out.stderr.startswith("config error: ")
    assert named in out.stderr


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--restarts" in capsys.readouterr().out


@pytest.mark.parametrize("sub, count", [
    ("bubble", 6), ("solve", 14), ("symmetry", 11), ("sweep", 9),
    ("probe-cherrier", 10), ("verify", 3)])
def test_help_lists_the_fields_read(capsys, sub, count):
    with pytest.raises(SystemExit):
        cli.main([sub, "--help"])
    flags = [word for word in capsys.readouterr().out.split()
             if word.startswith("--") and word != "--help"]
    assert len(flags) == count
    assert {flag[2:].replace("-", "_") for flag in flags} == {
        {"mesh_kind": "mesh"}.get(key, key)
        for key in cli.SUBCOMMANDS[sub][1]}


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
    # a radial mesh has one level, and the ledger names its size
    assert res["restart_stop_reasons"] == {"128x1": ["converged"] * 3}
    assert "coarse_mesh" not in res and "coarse_D" not in res
    # per restart: one K solve to start and two per sweep; the
    # eigenfunction, the noise and the recovery add the rest
    work = res["work"]
    per_restart = ("sweeps", "mixes", "extrapolations", "kappa_evals")
    assert set(work) == {"k_solves", "eigenfunction", *per_restart}
    assert all(list(work[key]) == ["128x1"] and len(work[key]["128x1"]) == 3
               for key in per_restart)
    sweeps = work["sweeps"]["128x1"]
    assert list(work["k_solves"]) == ["128x1"]
    assert work["k_solves"]["128x1"] > sum(1 + 2 * n for n in sweeps)
    # at least one kappa root per half-step
    assert all(k >= 1 + 2 * n
               for k, n in zip(work["kappa_evals"]["128x1"], sweeps))
    assert work["eigenfunction"]["stop_reason"] == "converged"
    assert work["eigenfunction"]["iterations"] >= 1
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
    assert report["results"]["restart_stop_reasons"] == {
        "257x1": ["converged"] * 4}


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
    # an axisymmetric solve shoots for S, a radial one does not
    code, report, _ = run_cli(["solve", "--p", "2", "--N", "6", "--mesh",
                               "axisym-ball", "--R", "1", "--nr", "64",
                               "--ntheta", "32", "--restarts", "1"],
                              tmp_path)
    assert code == cli.EXIT_CONVERGENCE
    assert report["results"]["error"] == "forced"


def test_nan_miss_exits_3(tmp_path, monkeypatch):
    # the scan's runs bracket d*, then Brent meets a NaN miss; scipy's
    # brentq raised ValueError on it, which the CLI called a config error
    miss = groundstate._miss

    def nan_after_scan(pack, d, r_max, rtol, work):
        if rtol == groundstate.RTOL:
            return np.nan
        return miss(pack, d, r_max, rtol, work)

    monkeypatch.setattr(groundstate, "_miss", nan_after_scan)
    code, report, _ = run_cli(["bubble", "--p", "2", "--N", "6"], tmp_path)
    assert code == cli.EXIT_CONVERGENCE
    assert "NaN" in report["results"]["error"]


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


@pytest.mark.parametrize("argv, message", [
    (["solve", "--p", "2", "--q", "-1"], "exponent q = -1.0 must be positive"),
    (["solve", "--p", "-1", "--q", "2"], "exponent p = -1.0 must be positive"),
    (["solve", "--p", "2", "--q", "2", "--N", "0"],
     "dimension N = 0 must be an integer >= 4"),
    (["bubble", "--p", "2", "--q", "-1"], "exponent q = -1.0 must be positive"),
    (["solve", "--q", "-1"], "exponent q = -1.0 must be positive"),
    (["solve", "--q", "0.3"], "q = 0.3 <= 2/(N-2) = 0.5: partner exponent "
                              "would be nonpositive or infinite"),
], ids=["solve-q", "solve-p", "solve-N", "bubble-q", "solve-q-only",
        "solve-q-only-below-range"])
def test_out_of_range_exponent_is_config_error(tmp_path, capsys, argv,
                                               message):
    # these divided by zero (exit 1) or named p for q (the last two)
    code, report, _ = run_cli(argv + (["--N", "6"] if "--N" not in argv
                                      else []), tmp_path)
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert report["results"]["error"] == message


@pytest.mark.parametrize("argv", [
    ["bubble", "--p", "200", "--N", "6"],
    ["bubble", "--p", "200", "--N", "5"],
    ["bubble", "--q", "0.5001", "--N", "6"],
    ["sweep", "--p", "200", "--N", "6"],
    ["solve", "--p", "200", "--N", "6", "--mesh", "axisym-ball", "--R", "1",
     "--nr", "64", "--ntheta", "32", "--restarts", "1"],
], ids=["bubble-p200-N6", "bubble-p200-N5", "bubble-q-only", "sweep",
        "solve-axisym-ball"])
def test_overflow_in_a_shooting_run_exits_3(tmp_path, capsys, argv):
    # at large p the scan's run from U(0) = 1.4 overflows d^p on floats;
    # that was an uncaught OverflowError (exit 1) with no report
    code, report, _ = run_cli(argv, tmp_path)
    assert code == cli.EXIT_CONVERGENCE
    error = report["results"]["error"]
    assert "U(0) = 1.4" in error and "OverflowError" in error
    assert capsys.readouterr().err == f"numerical failure: {error}\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_restart_with_an_underflowing_el_residual_exits_3(tmp_path):
    # q = 0.5001 puts p near 22,500: the only restart stops on a
    # non-finite sweep, and its EL residual, whose plain L^(p+1) sum
    # underflows to 0, is 1.67 scaled, so no restart converged.
    # test_dualsolve covers the non-finite check of the recovery.
    code, report, _ = run_cli(["solve", "--q", "0.5001", "--N", "6",
                               "--nr", "64", "--restarts", "1"], tmp_path)
    assert code == cli.EXIT_CONVERGENCE
    assert report["results"]["error"].startswith(
        "no restart converged on radial-annulus")


@pytest.mark.parametrize("name", ["p", "q"])
def test_nonfinite_exponent_is_config_error(tmp_path, capsys, name):
    # rejected before the shooter integrates anything
    code, report, _ = run_cli(["solve", f"--{name}", "nan", "--N", "6"],
                              tmp_path)
    assert code == cli.EXIT_CONFIG
    message = f"exponent {name} = nan is not finite"
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert report["results"]["error"] == message


def test_bubble_reports_shooter_work(tmp_path):
    code, report, _ = run_cli(["bubble", "--p", "2", "--N", "6"], tmp_path)
    assert code == cli.EXIT_OK
    work = report["results"]["work"]
    assert work["integrations"] == 4
    assert work["rhs_evals"] > 4 * 12


def test_determinism_byte_identical_reports(tmp_path):
    # the bubble and solve reports carry work counters under
    # results.work
    for argv in (["sweep", "--p", "2", "--N", "6", "--eps-hi", "0.01",
                  "--eps-lo", "0.0003", "--eps-count", "6", "--r-max", "100"],
                 ["bubble", "--p", "2", "--N", "6", "--r-max", "100"],
                 ["solve", "--p", "2", "--N", "6", "--nr", "64",
                  "--restarts", "3", "--seed", "3"]):
        _, rep1, _ = run_cli(argv, tmp_path, f"a-{argv[0]}")
        _, rep2, _ = run_cli(argv, tmp_path, f"b-{argv[0]}")
        for rep in (rep1, rep2):
            rep.pop("timings")
            rep["config"].pop("outdir")  # the only run-specific config field
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2,
                                                              sort_keys=True)
    assert rep1["results"]["work"]["k_solves"]["64x1"] > 0


def test_report_embeds_config_and_build(tmp_path):
    code, report, _ = run_cli(
        ["bubble", "--p", "3", "--N", "4", "--r-max", "100"], tmp_path)
    assert report["config"]["r_max"] == 100
    assert report["config"]["subcommand"] == "bubble"
    # the echo holds only what the run read: bubble draws nothing at random
    assert "seed" not in report["config"]
    assert list(report["config"]) == ["subcommand",
                                      *cli.SUBCOMMANDS["bubble"][1]]
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


def test_sweep_reports_the_series_of_its_normal_derivative_rate(tmp_path):
    # boundary_term's fitted_slope is the slope of the normal-derivative
    # norms, not of the pairings in `values`: the report carries them
    from lanedual.asymptotics import fit_loglog
    code, report, _ = run_cli(
        ["sweep", "--p", "2", "--N", "6", "--eps-hi", "0.01",
         "--eps-lo", "0.0003", "--eps-count", "6", "--r-max", "100"],
        tmp_path)
    assert code == cli.EXIT_OK
    bt = report["results"]["boundary_term"]
    assert len(bt["normal_norms"]) == len(bt["eps"]) == 6
    fit = fit_loglog(bt["eps"], bt["normal_norms"], bt["log_power"])
    assert fit.slope == bt["fitted_slope"]


def test_bubble_in_the_log_regime(tmp_path):
    # (2.75, 1.5, 6): q = N/(N-2), so U decays like r^(2-N) log r
    code, report, _ = run_cli(["bubble", "--p", "2.75", "--N", "6"], tmp_path)
    assert code == cli.EXIT_OK
    assert report["results"]["regime"] == "q=N/(N-2)"


def test_sweep_in_the_log_regime(tmp_path):
    code, report, _ = run_cli(["sweep", "--p", "2.75", "--N", "6"], tmp_path)
    assert code == cli.EXIT_OK
    assert len(report["invariants"]) == 6
    assert all(item["passed"] for item in report["invariants"])
    assert report["results"]["U_1"]["log_power"] == 1


def test_sweep_at_N4_passes_the_normal_derivative_rate(tmp_path):
    # at (3, 3, 4) the rate is log-corrected; with the log left out the
    # fit gave 0.8632 against 1.0 and the sweep exited 2
    code, report, _ = run_cli(["sweep", "--p", "3", "--N", "4"], tmp_path)
    assert code == cli.EXIT_OK
    bt = report["results"]["boundary_term"]
    assert bt["log_power"] == pytest.approx(2.0 / 3.0)
    assert bt["fitted_slope"] == pytest.approx(1.0, abs=0.05)


def test_probe_cherrier_subcommand(tmp_path):
    code, report, _ = run_cli(
        ["probe-cherrier", "--p", "2", "--N", "6", "--family", "boundary",
         "--eps-hi", "0.05", "--eps-lo", "0.01", "--eps-count", "4",
         "--r-max", "100"], tmp_path)
    assert code == cli.EXIT_OK
    assert all(item["passed"] for item in report["invariants"])


def test_symmetry_subcommand(tmp_path, monkeypatch):
    gaps, symmetry_gap = [], symmetry.symmetry_gap

    def recording_gap(*args, **kw):
        gaps.append(symmetry_gap(*args, **kw))
        return gaps[-1]

    monkeypatch.setattr(symmetry, "symmetry_gap", recording_gap)
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


def test_symmetry_on_a_ball_is_config_error_before_any_solve(tmp_path,
                                                             monkeypatch):
    calls = []

    def record(name):
        return lambda *args, **kw: calls.append(name)

    for owner in (symmetry, ds):
        monkeypatch.setattr(owner, "maximize_D", record("maximize_D"))
    monkeypatch.setattr(symmetry, "star_properties", record("star"))
    code, report, _ = run_cli(
        ["symmetry", "--p", "2", "--N", "6", "--r0", "0", "--R", "1",
         "--quick"], tmp_path)
    assert code == cli.EXIT_CONFIG
    assert "annulus radii must satisfy 0 < r0 < R" in report["results"]["error"]
    assert calls == []


@pytest.mark.parametrize("flag, value, message", [
    ("--nr", "32", "nr = 32 under-resolved"),
    ("--ntheta", "16", "ntheta = 16 under-resolved")])
def test_symmetry_on_a_coarse_grid_is_config_error_before_any_work(
        tmp_path, monkeypatch, flag, value, message):
    calls = []

    def record(name):
        return lambda *args, **kw: calls.append(name)

    for owner in (symmetry, ds):
        monkeypatch.setattr(owner, "maximize_D", record("maximize_D"))
    monkeypatch.setattr(symmetry, "star_properties", record("star"))
    code, report, _ = run_cli(
        ["symmetry", "--p", "2", "--N", "6", flag, value, "--quick"],
        tmp_path)
    assert code == cli.EXIT_CONFIG
    assert calls == []
    assert list(report["results"]) == ["error"]
    assert report["results"]["error"].startswith(message)


def test_failed_bubble_reports_its_work(tmp_path):
    # the slow-side V tail fit drifts at every r_max tried, 400 to 3200
    code, report, _ = run_cli(["bubble", "--p", "3", "--N", "6"], tmp_path)
    assert code == cli.EXIT_CONVERGENCE
    res = report["results"]
    assert list(res) == ["work", "error"]
    assert res["error"].startswith("r_max too small: V-tail compensator")
    # four shoots, one per r_max, each makes a scan and a bisection
    assert res["work"]["integrations"] > 4 * 4
    assert res["work"]["rhs_evals"] > 12 * res["work"]["integrations"]


def test_failed_solve_reports_each_restart(tmp_path, monkeypatch):
    # three sweeps settle no restart, so none converges
    monkeypatch.setattr(ds, "MAX_SWEEPS", 3)
    code, report, _ = run_cli(
        ["solve", "--p", "2", "--N", "6", "--nr", "64", "--restarts", "3"],
        tmp_path)
    assert code == cli.EXIT_CONVERGENCE
    res = report["results"]
    assert res["error"].startswith("no restart converged on radial-annulus")
    assert res["restart_stop_reasons"] == {"64x1": ["max_iter"] * 3}
    # the ledger of a successful solve, without recovery's two K solves
    work = res["work"]
    assert list(work) == ["k_solves", "sweeps", "mixes", "extrapolations",
                          "kappa_evals", "eigenfunction"]
    assert work["sweeps"] == {"64x1": [3, 3, 3]}
    assert work["k_solves"] == {"64x1": (
        work["eigenfunction"]["iterations"] + 2 * 2 + 3 * (1 + 2 * 3))}
    assert all(len(work[key]["64x1"]) == 3
               for key in ("mixes", "extrapolations", "kappa_evals"))
    assert min(work["kappa_evals"]["64x1"]) > 0
    assert work["eigenfunction"]["stop_reason"] == "converged"


def test_solve_axisym_ball_threshold(tmp_path):
    code, report, _ = run_cli(
        ["solve", "--p", "2", "--N", "6", "--mesh", "axisym-ball",
         "--R", "1", "--nr", "64", "--ntheta", "48", "--restarts", "2"],
        tmp_path)
    assert code == cli.EXIT_OK
    names = [item["name"] for item in report["invariants"]]
    assert "above compactness threshold" in names
    assert all(item["passed"] for item in report["invariants"])
    # the menu ran on the 22x17 coarse twin, one restart on 64x48
    res = report["results"]
    sizes = ["22x17", "64x48"]
    assert res["coarse_mesh"] == "22x17" and res["coarse_D"] > 0.0
    for ledger in (res["restart_optima"], res["restart_stop_reasons"],
                   res["work"]["k_solves"], res["work"]["sweeps"]):
        assert list(ledger) == sizes
    assert [len(res["work"]["sweeps"][size]) for size in sizes] == [2, 1]


def test_solve_radial_reports_no_threshold(tmp_path):
    code, report, _ = run_cli(
        ["solve", "--p", "2", "--N", "6", "--nr", "64", "--restarts", "1"],
        tmp_path)
    assert code == cli.EXIT_OK
    assert not {"threshold", "threshold_margin",
                "threshold_note"} & set(report["results"])
    assert [item["name"] for item in report["invariants"]] == [
        "energy identity", "pde residuals", "compatibility integrals",
        "nodal solutions"]


def test_solve_threshold_needs_the_margin(tmp_path, monkeypatch):
    # D 0.5% above the threshold is above it, but short of the 1% margin
    # that acceptance criterion 4 requires too
    maximize_D = ds.maximize_D

    def half_percent(*args, **kw):
        rep = maximize_D(*args, **kw)
        rep.threshold = rep.D / 1.005
        return rep

    monkeypatch.setattr(ds, "maximize_D", half_percent)
    code, report, _ = run_cli(
        ["solve", "--p", "2", "--N", "6", "--mesh", "axisym-ball",
         "--R", "1", "--nr", "64", "--ntheta", "32", "--restarts", "1"],
        tmp_path)
    assert code == cli.EXIT_INVARIANT
    failed = [item["name"] for item in report["invariants"]
              if not item["passed"]]
    assert failed == ["above compactness threshold"]


def test_outdir_env_override(tmp_path, monkeypatch):
    target = tmp_path / "env_runs"
    monkeypatch.setenv("LANEDUAL_OUTDIR", str(target))
    code = cli.main(["bubble", "--p", "3", "--N", "4", "--r-max", "100"])
    assert code == cli.EXIT_OK
    assert (target / "bubble" / "report.json").exists()
