"""Job lists, reference values and result checks of the two workloads.

engines  in-process: the dual solves the acceptance battery runs, then
         ground-state shoots at the battery's four packs.
cli      subprocesses: the short commands users run, then the full
         acceptance battery.

A job is either an in-process call ``call(seed) -> value`` or a CLI
command ``argv(seed) -> [arguments of lanedual]``. Its ``check`` returns
the list of problems with the value (in-process) or with the parsed
``report.json`` (CLI); an empty list means the job passed. The reference
values below were measured on the commit that introduced the benchmark;
the tolerances sit far inside the gates the battery applies.
"""

from dataclasses import dataclass
from math import pi, sqrt
from typing import Callable

import numpy as np

from lanedual import dualsolve as ds
from lanedual import groundstate as gs
from lanedual import mesh as msh
from lanedual.exponents import derived_constants

# Sobolev constant S and shooting slope d* = U(0) of the ground state at
# r_max = 400, per (p, q, N).
S_REF = {
    (3, 3, 4): 10.260398640786528,
    (2, 2, 6): 19.259456665720048,
    (2.75, 1.5, 6): 18.72122540869203,
    (1, 9, 5): 10.118468870716608,
}
D_STAR_REF = {
    (3, 3, 4): 1.0000000000003637,
    (2, 2, 6): 1.0000000000003637,
    (2.75, 1.5, 6): 1.1000754602555385,
    (1, 9, 5): 0.4879500364765932,
}
# Dual quotient D. It does not depend on the restart seed beyond the 13th
# digit, while the number of sweeps does.
D_REF = {
    ("axisym-ball", 96, (2, 2, 6)): 0.10693247846850044,
    ("axisym-ball", 96, (3, 3, 4)): 0.2432808791102159,
    ("axisym-annulus", 96, (2, 2, 6)): 0.1097925957574779,
    ("radial-annulus", 257, (2, 2, 6)): 0.01665954011378568,
    ("radial-annulus", 257, (3, 3, 4)): 0.01561443236393537,
    ("radial-annulus", 257, (1, 9, 5)): 0.01635192897024449,
    ("radial-annulus", 256, (2, 2, 6)): 0.016659543109437923,
}
# N=4, p=q=3: the bubble is explicit, (N(N-2))^((N-2)/4) / (1 + r^2)^((N-2)/2),
# and S = (|S^3| int U^4 r^3 dr)^(1/2) = pi * sqrt(32/3).
S_ORACLE_334 = pi * sqrt(32.0 / 3.0)

D_TOL = 1e-9       # relative; seeds agree to ~1e-15
SHOOT_TOL = 1e-8   # relative, on S and d*
# The solution gates of acceptance criteria 3 and 11, and the threshold
# margin of criterion 4.
ENERGY_GATE, RESIDUAL_GATE, COMPAT_GATE, MARGIN_GATE = 1e-6, 1e-5, 1e-8, 0.01


@dataclass
class Job:
    name: str
    check: Callable
    call: Callable = None   # in-process: call(seed) -> value
    argv: Callable = None   # CLI: argv(seed) -> arguments of lanedual


@dataclass
class Workload:
    name: str
    jobs: list
    setup_code: str         # what a user's process imports before a job
    in_process: bool


def _rel(a, b):
    return abs(a / b - 1.0)


def _close(problems, what, value, ref, tol):
    if not (np.isfinite(value) and _rel(value, ref) <= tol):
        problems.append(f"{what} = {value!r}, reference {ref!r} "
                        f"(rel tol {tol:g})")


# -- engines: dual solves -----------------------------------------------

def _check_dual(ref, margin):
    def check(rep):
        problems = []
        if not rep.converged:
            problems.append("not converged")
        erel = abs(rep.energy - rep.c_pred) / abs(rep.energy)
        residual = max(rep.residual_u, rep.residual_v)
        compat = max(rep.compat_u, rep.compat_v)
        if not erel <= ENERGY_GATE:
            problems.append(f"energy identity {erel:.3e} > {ENERGY_GATE:g}")
        if not residual <= RESIDUAL_GATE:
            problems.append(f"PDE residual {residual:.3e} > "
                            f"{RESIDUAL_GATE:g}")
        if not compat <= COMPAT_GATE:
            problems.append(f"compatibility {compat:.3e} > {COMPAT_GATE:g}")
        if not (rep.u_nodal and rep.v_nodal):
            problems.append("solution pair not nodal")
        if margin and not rep.D / rep.threshold - 1.0 >= MARGIN_GATE:
            problems.append(f"D / threshold - 1 = "
                            f"{rep.D / rep.threshold - 1.0:.4f} "
                            f"< {MARGIN_GATE:g}")
        _close(problems, "D", rep.D, ref, D_TOL)
        return problems
    return check


def _dual_job(kind, nr, pqN, ntheta=None, lift=False):
    N = pqN[2]
    r0 = 0.0 if kind.endswith("ball") else 1.0
    R = 1.0 if kind.endswith("ball") else 2.0

    def call(seed):
        pack = derived_constants(*pqN)
        extra = ()
        if lift:
            # the radial optimum lifted into the axisymmetric menu, as in
            # symmetry.symmetry_gap
            rmesh = msh.build("radial-annulus", N, r0, R, nr)
            rad = ds.maximize_D(rmesh, pack, restarts=4, seed=seed)
            extra = [(np.repeat(rad.f, ntheta), np.repeat(rad.g, ntheta))]
        mesh = msh.build(kind, N, r0, R, nr, ntheta)
        return ds.maximize_D(mesh, pack, restarts=4, seed=seed,
                             extra_inits=extra, S=S_REF[pqN])

    size = f"{nr}x{ntheta}" if ntheta else f"{nr}"
    name = f"{kind}-{size}-({','.join(f'{v:g}' for v in pqN)})"
    return Job(name, _check_dual(D_REF[(kind, nr, pqN)],
                                 margin=kind == "axisym-ball"), call=call)


def _dual_jobs():
    return [
        _dual_job("axisym-ball", 96, (2, 2, 6), ntheta=72),
        _dual_job("axisym-ball", 96, (3, 3, 4), ntheta=72),
        _dual_job("axisym-annulus", 96, (2, 2, 6), ntheta=72, lift=True),
        _dual_job("radial-annulus", 257, (2, 2, 6)),
        _dual_job("radial-annulus", 257, (3, 3, 4)),
        _dual_job("radial-annulus", 257, (1, 9, 5)),
    ]


# -- engines: shoots ----------------------------------------------------

def _explicit_bubble_334(r):
    return sqrt(8.0) / (1.0 + r ** 2)


def _check_shoot(pqN):
    def check(prof):
        problems = []
        _close(problems, "S", prof.S, S_REF[pqN], SHOOT_TOL)
        _close(problems, "d*", prof.shoot_d, D_STAR_REF[pqN], SHOOT_TOL)
        if pqN == (3, 3, 4):
            # criterion 1: closed-form S and profile
            _close(problems, "S vs closed form", prof.S, S_ORACLE_334, 1e-3)
            r = np.linspace(1e-9, 20.0, 4001)
            exact = _explicit_bubble_334(r)
            err = np.max(np.abs(prof.U_eps(r, prof.shoot_d / sqrt(8.0))
                                - exact) / exact)
            if not err <= 1e-6:
                problems.append(f"profile vs explicit bubble {err:.2e}")
        return problems
    return check


def _shoot_jobs():
    # The shooter has no random input: the seed changes nothing here.
    return [Job(f"shoot-({','.join(f'{v:g}' for v in pqN)})",
                _check_shoot(pqN),
                call=lambda seed, pqN=pqN: gs.shoot(derived_constants(*pqN),
                                                    r_max=400.0))
            for pqN in ((3, 3, 4), (2, 2, 6), (2.75, 1.5, 6), (1, 9, 5))]


def engines():
    """The dual solves, then the shoots: the two numerical engines."""
    return Workload("engines", _dual_jobs() + _shoot_jobs(),
                    "import lanedual", in_process=True)


# -- cli ----------------------------------------------------------------

def _invariants(report, expect=None):
    inv = report.get("invariants", [])
    problems = [f"invariant failed: {item['name']}: {item.get('detail', '')}"
                for item in inv if not item["passed"]]
    if expect is not None and len(inv) != expect:
        problems.append(f"{len(inv)} invariants reported, expected {expect}")
    if not inv:
        problems.append("no invariants reported")
    return problems


def _check_cli(*results):
    """Invariants all pass, and each (key, ref, tol) result matches."""
    def check(report):
        problems = _invariants(report)
        res = report.get("results", {})
        for key, ref, tol in results:
            _close(problems, key, float(res.get(key, np.nan)), ref, tol)
        return problems
    return check


PQN6 = ["--p", "2", "--N", "6"]


def cli():
    """The short commands users run, then the full acceptance battery."""
    jobs = [
        Job("verify-quick", _check_cli(),
            argv=lambda seed: ["verify", "--quick", "--seed", str(seed)]),
        Job("bubble-(2,2,6)",
            _check_cli(("S", S_REF[(2, 2, 6)], SHOOT_TOL),
                       ("shoot_d", D_STAR_REF[(2, 2, 6)], SHOOT_TOL)),
            argv=lambda seed: ["bubble", *PQN6]),
        Job("solve-radial-annulus-256",
            _check_cli(("D", D_REF[("radial-annulus", 256, (2, 2, 6))],
                        D_TOL)),
            argv=lambda seed: ["solve", *PQN6, "--mesh", "radial-annulus",
                               "--r0", "1", "--R", "2", "--seed", str(seed)]),
        Job("solve-axisym-ball-96x72",
            _check_cli(("D", D_REF[("axisym-ball", 96, (2, 2, 6))], D_TOL)),
            argv=lambda seed: ["solve", *PQN6, "--mesh", "axisym-ball",
                               "--R", "1", "--nr", "96", "--ntheta", "72",
                               "--seed", str(seed)]),
        Job("verify", lambda report: _invariants(report, expect=11),
            argv=lambda seed: ["verify", "--seed", str(seed)]),
    ]
    return Workload("cli", jobs, "import lanedual.cli", in_process=False)


WORKLOADS = {"engines": engines, "cli": cli}
