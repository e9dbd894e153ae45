"""Start-up: each entry point imports only what it runs. The import sets
are read in fresh interpreters; the lazily resolved names in-process."""

import json
import os
import subprocess
import sys

import pytest

import lanedual
from lanedual import acceptance, cli, groundstate

SRC = os.path.dirname(os.path.dirname(lanedual.__file__))
SHOOTER = {"lanedual.groundstate"}
# what the shooter used to load for brentq, simpson, CubicSpline and the
# DOP853 tableau; no command loads them now
SCIPY_SHOOTER = {"scipy.integrate", "scipy.interpolate", "scipy.optimize"}
# what the dual layer loads, and the shooter used to for its spline
SCIPY_DUAL = {"scipy.sparse", "scipy.linalg"}


def _modules_after(code, cwd):
    """sys.modules of a fresh interpreter after it runs `code`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=env, cwd=cwd, check=True)
    return set(json.loads(out.stdout.splitlines()[-1]))


# records OPENBLAS_NUM_THREADS as it stands when numpy is first imported
BLAS_SPY = """
import os, sys
at_numpy = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not at_numpy:
            at_numpy.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Spy())
before = dict(os.environ)
"""


def _blas_env_after(code, cwd, **env):
    """(OPENBLAS_NUM_THREADS when numpy was first imported, or None if it
    was not, the environment before `code` and after it) in a fresh
    interpreter whose environment sets no OPENBLAS_NUM_THREADS beyond
    `env`."""
    base = {k: v for k, v in os.environ.items()
            if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         f"{BLAS_SPY}{code}\nimport json\n"
         "print(json.dumps([at_numpy[0] if at_numpy else None, before, "
         "dict(os.environ)]))"],
        capture_output=True, text=True, env=dict(base, **env), cwd=cwd,
        check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_defaults_to_one_blas_thread(tmp_path):
    at_numpy, _, after = _blas_env_after("import lanedual.cli", tmp_path)
    assert at_numpy == "1"
    assert after["OPENBLAS_NUM_THREADS"] == "1"


def test_cli_import_keeps_an_explicit_blas_thread_count(tmp_path):
    at_numpy, _, after = _blas_env_after("import lanedual.cli", tmp_path,
                                         OPENBLAS_NUM_THREADS="2")
    assert at_numpy == "2"
    assert after["OPENBLAS_NUM_THREADS"] == "2"


def test_package_import_leaves_the_environment_alone(tmp_path):
    at_numpy, before, after = _blas_env_after("import lanedual", tmp_path)
    assert at_numpy is None
    assert after == before


def test_package_import_loads_no_scipy(tmp_path):
    loaded = _modules_after("import lanedual", tmp_path)
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}


def test_cli_import_loads_no_engines(tmp_path):
    loaded = _modules_after("import lanedual.cli", tmp_path)
    assert not loaded & (SHOOTER | SCIPY_SHOOTER
                         | {"scipy.stats", "lanedual.asymptotics"})


def test_verify_quick_loads_no_shooter(tmp_path):
    loaded = _modules_after(
        "from lanedual import cli\n"
        "assert cli.main(['verify', '--quick', '--outdir', 'out']) == 0",
        tmp_path)
    assert not loaded & (SHOOTER | SCIPY_SHOOTER | {"scipy.stats"})


def test_radial_solve_loads_no_shooter(tmp_path):
    # no verdict on a radial mesh reads S, so the radial solve does not shoot
    loaded = _modules_after(
        "from lanedual import cli\n"
        "assert cli.main(['solve', '--p', '2', '--N', '6', '--nr', '64',\n"
        "                 '--restarts', '1', '--outdir', 'out']) == 0",
        tmp_path)
    assert not loaded & (SHOOTER | SCIPY_SHOOTER)


def test_bubble_loads_no_scipy_shooter_modules(tmp_path):
    loaded = _modules_after(
        "from lanedual import cli\n"
        "assert cli.main(['bubble', '--p', '2', '--N', '6',\n"
        "                 '--outdir', 'out']) == 0", tmp_path)
    assert SHOOTER <= loaded
    assert not loaded & (SCIPY_SHOOTER | SCIPY_DUAL)


def test_engine_imports_load_no_scipy_shooter_modules(tmp_path):
    loaded = _modules_after("import lanedual.groundstate, "
                            "lanedual.asymptotics, lanedual.acceptance",
                            tmp_path)
    assert not loaded & SCIPY_SHOOTER


def test_groundstate_import_loads_no_sparse_or_linalg(tmp_path):
    loaded = _modules_after("import lanedual.groundstate", tmp_path)
    assert "lanedual.groundstate" in loaded
    assert not loaded & SCIPY_DUAL


@pytest.mark.parametrize("command", ["sweep", "probe-cherrier"])
def test_shooting_command_loads_no_sparse_or_linalg(command, tmp_path):
    # bubble is checked above
    loaded = _modules_after(
        "from lanedual import cli\n"
        f"assert cli.main([{command!r}, '--p', '2', '--N', '6',\n"
        "                 '--outdir', 'out']) == 0", tmp_path)
    assert SHOOTER <= loaded
    assert not loaded & (SCIPY_SHOOTER | SCIPY_DUAL)


def test_radial_dual_solve_loads_no_symmetry(tmp_path):
    # the restart menu has no star-transformed restarts: the dual layer
    # does not depend on the symmetry layer
    loaded = _modules_after(
        "from lanedual import dualsolve, exponents, mesh\n"
        "m = mesh.build('radial-annulus', 6, 1.0, 2.0, 64)\n"
        "dualsolve.maximize_D(m, exponents.derived_constants(2.0, 2.0, 6),\n"
        "                     restarts=4, seed=0)", tmp_path)
    assert "lanedual.dualsolve" in loaded
    assert "lanedual.symmetry" not in loaded


def test_slope_fit_loads_no_stats(tmp_path):
    loaded = _modules_after(
        "import numpy as np\n"
        "from lanedual import asymptotics\n"
        "eps = np.geomspace(0.1, 0.001, 6)\n"
        "asymptotics.fit_loglog(eps, eps ** 2)", tmp_path)
    assert "lanedual.asymptotics" in loaded
    assert "scipy.stats" not in loaded


def test_package_exports_resolve():
    namespace = {}
    exec("from lanedual import *", namespace)
    for name in lanedual.__all__:
        assert namespace[name] is getattr(lanedual, name)
    assert lanedual.shoot is groundstate.shoot


@pytest.mark.parametrize("module", [lanedual, cli, acceptance])
def test_unknown_attribute_raises(module):
    with pytest.raises(AttributeError):
        module.no_such_name
    with pytest.raises(AttributeError):  # no alias for asymptotics
        module.asym


def test_aliases_follow_the_owning_module(monkeypatch):
    assert cli.shoot is groundstate.shoot
    assert not hasattr(cli, "sym")  # cmd_symmetry imports symmetry itself
    assert acceptance.shoot is groundstate.shoot
    monkeypatch.setattr(groundstate, "shoot", lambda *a, **kw: None)
    assert cli.shoot is acceptance.shoot is groundstate.shoot
