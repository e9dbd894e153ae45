"""Start-up: each entry point imports only what it runs. The import sets
are read in fresh interpreters; the lazily resolved names in-process."""

import json
import os
import pkgutil
import subprocess
import sys

import pytest
import scipy

import lanedual
from lanedual import acceptance, cli, groundstate

SRC = os.path.dirname(os.path.dirname(lanedual.__file__))
SHOOTER = {"lanedual.groundstate"}
# scipy's public subpackages (special, sparse, linalg, integrate, stats,
# ...): importing one runs its __init__, 0.2-0.3 s and 20-25 MB each for
# those the engines once used, so no command loads any
SCIPY_SUBPACKAGES = {f"scipy.{m.name}"
                     for m in pkgutil.iter_modules(scipy.__path__)
                     if m.ispkg and not m.name.startswith("_")}


def _scipy_subpackages(loaded):
    """The modules among `loaded` that are, or lie in, a public scipy
    subpackage."""
    return {m for m in loaded
            if ".".join(m.split(".")[:2]) in SCIPY_SUBPACKAGES}


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
    # mesh builds its matrices without scipy; neumann, which loads SuperLU,
    # is imported by the subcommands that solve, when they run
    loaded = _modules_after("import lanedual.cli", tmp_path)
    assert "lanedual.mesh" in loaded
    assert not loaded & (SHOOTER | {"lanedual.asymptotics",
                                    "lanedual.neumann"})
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}


def test_verify_quick_loads_no_shooter(tmp_path):
    loaded = _modules_after(
        "from lanedual import cli\n"
        "assert cli.main(['verify', '--quick', '--outdir', 'out']) == 0",
        tmp_path)
    assert not loaded & SHOOTER
    assert not _scipy_subpackages(loaded)


def test_radial_solve_loads_no_shooter(tmp_path):
    # no verdict on a radial mesh reads S, so the radial solve does not shoot
    loaded = _modules_after(
        "from lanedual import cli\n"
        "assert cli.main(['solve', '--p', '2', '--N', '6', '--nr', '64',\n"
        "                 '--restarts', '1', '--outdir', 'out']) == 0",
        tmp_path)
    assert not loaded & SHOOTER
    assert not _scipy_subpackages(loaded)


@pytest.mark.parametrize("argv", [
    ["solve", "--p", "2", "--N", "6", "--nr", "64", "--restarts", "1"],
    ["solve", "--p", "2", "--N", "6", "--mesh", "axisym-ball", "--R", "1",
     "--nr", "64", "--ntheta", "32", "--restarts", "1"],
    ["verify", "--quick"],
    ["symmetry", "--quick", "--p", "2", "--N", "6"],
], ids=["radial-solve", "axisym-solve", "verify-quick", "symmetry-quick"])
def test_dual_commands_load_no_sparse_linalg_or_special(argv, tmp_path):
    # SuperLU comes from its extension file, the dense eigensolve from numpy;
    # no other scipy subpackage loads either
    loaded = _modules_after(
        "from lanedual import cli\n"
        f"assert cli.main({argv + ['--outdir', 'out']!r}) == 0", tmp_path)
    assert "lanedual.neumann" in loaded
    assert not _scipy_subpackages(loaded)


def test_full_verify_loads_no_scipy_subpackage(tmp_path):
    # it runs every layer: the dual layer, the shooter and asymptotics,
    # whose Boost kernels come from scipy.special's _ufuncs_cxx file
    loaded = _modules_after(
        "from lanedual import cli\n"
        "assert cli.main(['verify', '--outdir', 'out']) == 0", tmp_path)
    assert {"lanedual.neumann", "lanedual.asymptotics"} <= loaded
    assert not _scipy_subpackages(loaded)


def test_bubble_loads_no_scipy_shooter_modules(tmp_path):
    loaded = _modules_after(
        "from lanedual import cli\n"
        "assert cli.main(['bubble', '--p', '2', '--N', '6',\n"
        "                 '--outdir', 'out']) == 0", tmp_path)
    assert SHOOTER <= loaded
    assert not _scipy_subpackages(loaded)


def test_engine_imports_load_no_scipy_shooter_modules(tmp_path):
    loaded = _modules_after("import lanedual.groundstate, "
                            "lanedual.asymptotics, lanedual.acceptance",
                            tmp_path)
    assert not _scipy_subpackages(loaded)


def test_groundstate_import_loads_no_sparse_or_linalg(tmp_path):
    loaded = _modules_after("import lanedual.groundstate", tmp_path)
    assert "lanedual.groundstate" in loaded
    assert not _scipy_subpackages(loaded)


@pytest.mark.parametrize("command", ["sweep", "probe-cherrier"])
def test_shooting_command_loads_no_sparse_or_linalg(command, tmp_path):
    # bubble is checked above; the sweeps load no scipy.special either
    loaded = _modules_after(
        "from lanedual import cli\n"
        f"assert cli.main([{command!r}, '--p', '2', '--N', '6',\n"
        "                 '--outdir', 'out']) == 0", tmp_path)
    assert SHOOTER | {"lanedual.asymptotics"} <= loaded
    assert not _scipy_subpackages(loaded)


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
    assert not _scipy_subpackages(loaded)


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
