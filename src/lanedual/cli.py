"""Command-line orchestration: subcommands, deterministic runs, and
machine-readable reports.

Subcommands: bubble (ground-state shooting), solve (dual maximization on a
chosen mesh), symmetry (flip-&-rearrange checks, foliated-Schwarz
diagnostics, symmetry gap), sweep (epsilon sweeps), probe-cherrier, and
verify (the acceptance battery). Every run writes report.json (version,
config echo, results, invariant pass/fail list, timings) plus CSV
artifacts into the output directory.

Configuration is plain key=value text overridable by CLI flags; a fixed
seed makes runs byte-identical up to the timing fields. Exit codes:
0 pass, 2 invariant failure, 3 numerical/convergence failure, 4 config
error.

Start-up: this module loads mesh, dualsolve and exponents (numpy and
scipy.sparse.linalg); each subcommand imports the rest in its own body.
All but symmetry and verify --quick load the shooter (scipy.integrate);
sweep, probe-cherrier and the full verify also load asymptotics.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import NumericalError, __version__, lazy_getattr
from . import dualsolve as ds
from . import mesh as msh
from .exponents import (admissibility, derived_constants, hyperbola_partner,
                        threshold_constant)

# Each subcommand imports the engines it runs inside its own body; these
# names stay readable as module attributes.
__getattr__ = lazy_getattr(__name__, {
    "asym": "asymptotics", "sym": "symmetry", "shoot": "groundstate.shoot",
    "scaled_quantities": "groundstate.scaled_quantities",
    "ShootingError": "groundstate.ShootingError"})

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_CONVERGENCE = 3
EXIT_CONFIG = 4


@dataclass
class RunConfig:
    subcommand: str = ""
    p: float | None = None
    q: float | None = None
    N: int = 6
    mesh_kind: str = "radial-annulus"
    r0: float = 1.0
    R: float = 2.0
    nr: int = 256
    ntheta: int = 64
    theta_grading: float = 1.0
    radial_spacing: str = "uniform"
    r_max: float = 400.0
    restarts: int = 6
    max_iter: int = 4000
    tol: float = 1e-10
    eps_hi: float = 0.02
    eps_lo: float = 0.0005
    eps_count: int = 8
    family: str = "boundary"
    quick: bool = False
    seed: int = 0
    outdir: str = "runs"

    def pack(self):
        if self.p is None and self.q is None:
            raise ConfigError("need at least one of p, q")
        if self.p is not None and self.q is not None:
            return derived_constants(self.p, self.q, self.N, snap=True)
        if self.p is not None:
            return derived_constants(self.p, hyperbola_partner(self.p, self.N),
                                     self.N)
        return derived_constants(hyperbola_partner(self.q, self.N), self.q,
                                 self.N)

    def eps_grid(self):
        return np.geomspace(self.eps_hi, self.eps_lo, self.eps_count)


class ConfigError(ValueError):
    pass


_FIELD_TYPES = {f.name: f.type for f in RunConfig.__dataclass_fields__.values()}


def parse_config_file(path):
    """key=value lines; '#' comments; unknown keys rejected."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in RunConfig.__dataclass_fields__:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = _coerce(key, val)
    return out


def _coerce(key, val):
    typ = _FIELD_TYPES[key]
    if "bool" in str(typ):
        return val.lower() in ("1", "true", "yes")
    if "int" in str(typ):
        return int(val)
    if "float" in str(typ):
        return float(val)
    return val


def build_identifier():
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0:
            return out.stdout.strip()
    except Exception:
        pass
    return f"lanedual-{__version__}"


@dataclass
class Report:
    config: dict
    results: dict = field(default_factory=dict)
    invariants: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def check(self, name, passed, detail=""):
        self.invariants.append({"name": name, "passed": bool(passed),
                                "detail": str(detail)})

    def all_passed(self):
        return all(item["passed"] for item in self.invariants)

    def dump(self, outdir):
        os.makedirs(outdir, exist_ok=True)
        payload = {
            "version": __version__,
            "build": build_identifier(),
            "config": self.config,
            "results": self.results,
            "invariants": self.invariants,
            "timings": self.timings,
        }
        path = os.path.join(outdir, "report.json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, default=_json_default)
            fh.write("\n")
        return path


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _write_csv(outdir, name, header, rows):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")
    return path


# -- subcommands --------------------------------------------------------------

def cmd_bubble(cfg, report, outdir):
    from .groundstate import radial_moment, scaled_quantities, shoot
    pack = cfg.pack()
    prof = shoot(pack, r_max=cfg.r_max)
    label, cond = admissibility(pack.p, pack.q, pack.N)
    quant = scaled_quantities(prof, 1.0, R_domain=cfg.R)
    report.results.update({
        "p": pack.p, "q": pack.q, "N": pack.N,
        "admissibility": label, "condition": cond,
        "shoot_d": prof.shoot_d, "r_max": prof.r_max,
        "S": prof.S, "a": prof.a, "b": prof.b,
        "regime": prof.regime, "regime_V": prof.regime_V,
        "norms": {k: v for k, v in quant.items() if v is not None},
    })
    report.check("tail ratios bounded",
                 np.isfinite(prof.a) and np.isfinite(prof.b)
                 and prof.a > 0 and prof.b > 0,
                 f"a={prof.a:.6g} b={prof.b:.6g}")
    mU = radial_moment(prof, "U", pack.p + 1, pack.N - 1.0)
    mV = radial_moment(prof, "V", pack.q + 1, pack.N - 1.0)
    report.check("critical norms equal", abs(mU / mV - 1) < 1e-3,
                 f"|U|^(p+1) vs |V|^(q+1): {mU:.8g} vs {mV:.8g}")
    prof.to_csv(os.path.join(outdir, "profile.csv"))
    return EXIT_OK


def _build_mesh(cfg):
    kinds_1d = ("radial-annulus", "radial-ball")
    r0 = 0.0 if cfg.mesh_kind.endswith("ball") else cfg.r0
    if cfg.mesh_kind in kinds_1d:
        return msh.build(cfg.mesh_kind, cfg.N, r0, cfg.R, cfg.nr)
    return msh.build(cfg.mesh_kind, cfg.N, r0, cfg.R, cfg.nr, cfg.ntheta,
                     theta_grading=cfg.theta_grading,
                     radial_spacing=cfg.radial_spacing)


def cmd_solve(cfg, report, outdir):
    from .groundstate import shoot
    pack = cfg.pack()
    mesh = _build_mesh(cfg)
    prof = shoot(pack, r_max=cfg.r_max)
    rep = ds.maximize_D(mesh, pack, restarts=cfg.restarts,
                        max_iter=cfg.max_iter, tol=cfg.tol, seed=cfg.seed,
                        S=prof.S)
    report.results.update(rep.summary())
    report.results["restart_stop_reasons"] = [trace.stop_reason
                                              for trace in rep.traces]
    report.results["work"] = rep.work()
    chk = rep.solution_checks()
    report.check("energy identity", chk["energy_rel"] <= ds.ENERGY_GATE,
                 f"rel error {chk['energy_rel']:.3e}")
    report.check("pde residuals", chk["residual"] <= ds.RESIDUAL_GATE,
                 f"u: {rep.residual_u:.3e} v: {rep.residual_v:.3e}")
    report.check("compatibility integrals", chk["compat"] <= ds.COMPAT_GATE,
                 f"u: {rep.compat_u:.3e} v: {rep.compat_v:.3e}")
    report.check("nodal solutions", chk["nodal"])
    if mesh.is_axisym:
        # the threshold claim concerns the unrestricted optimum; the
        # radially constrained quotient sits below it by symmetry breaking
        report.check("above compactness threshold",
                     rep.D > rep.threshold,
                     f"D={rep.D:.6g} threshold={rep.threshold:.6g}")
    else:
        report.results["threshold_note"] = (
            "radial runs report D_rad; the compactness threshold applies "
            "to the unrestricted quotient")
    rr = mesh.node_r()
    tt = mesh.node_theta()
    _write_csv(outdir, "solution.csv", "r,theta,f,g,u,v",
               list(zip(rr, tt, rep.f, rep.g, rep.u, rep.v)))
    for k, trace in enumerate(rep.traces):
        _write_csv(outdir, f"trace_{k}.csv", "iteration,quotient",
                   trace.iterations)
    return EXIT_OK


def cmd_symmetry(cfg, report, outdir):
    """The star transform's three properties (norm preservation in L^alpha
    and L^beta, quadratic-form monotonicity, idempotence) on 50 random
    pairs, then the symmetry gap and the foliated-Schwarz check of the
    axisymmetric optimum."""
    from . import symmetry as sym
    pack = cfg.pack()
    ev = msh.build_equal_volume(pack.N, cfg.r0, cfg.R, max(cfg.nr, 64))
    star = sym.star_properties(ev, pack, np.random.default_rng(cfg.seed), 50)
    for key, result, check in (
            ("norm", "star_norm_worst_drift", "star norm preservation"),
            ("mono", "star_monotonicity_worst_excess",
             "star quadratic-form monotonicity"),
            ("idem", "star_idempotence_worst_error", "star idempotence")):
        worst, passed = star[key]
        report.results[result] = worst
        report.check(check, passed)

    gap = sym.symmetry_gap(pack, cfg.r0, cfg.R, nr=cfg.nr,
                           ntheta=cfg.ntheta, seed=cfg.seed,
                           restarts=cfg.restarts,
                           estimate_noise=not cfg.quick)
    report.results["symmetry_gap"] = gap.summary()
    report.check("nonnegative gap", gap.gap >= -1e-10)
    fs = sym.fs_check(gap.mesh, gap.axi_report.u, gap.axi_report.v)
    report.results["fs_check"] = fs.as_dict()
    report.check("foliated Schwarz", fs.passed,
                 f"violation {fs.violation:.3e}")
    return EXIT_OK


def cmd_sweep(cfg, report, outdir):
    from . import asymptotics as asym
    from .groundstate import shoot
    pack = cfg.pack()
    prof = shoot(pack, r_max=cfg.r_max)
    grid = cfg.eps_grid()
    rows = []
    for quantity in ("V_1", "U_1", "Up_1", "Vq_1"):
        rec = asym.norm_rate_sweep(prof, quantity, grid, R_domain=cfg.R)
        report.results[quantity] = rec.as_dict()
        report.check(f"norm rate {quantity}", rec.passed,
                     f"slope {rec.fitted_slope:.4f} vs "
                     f"{rec.predicted_slope:.4f}")
        rows += [(quantity, e, v) for e, v in zip(rec.eps, rec.values)]
    bt = asym.boundary_term_sweep(prof, grid, R=cfg.R)
    report.results["boundary_term"] = bt.as_dict()
    report.check("boundary pairing negative", bt.extras["all_negative"])
    report.check("normal-derivative rate", bt.passed,
                 f"slope {bt.fitted_slope:.4f} vs {bt.predicted_slope:.4f}")
    _write_csv(outdir, "sweep.csv", "quantity,eps,value", rows)
    return EXIT_OK


def cmd_probe_cherrier(cfg, report, outdir):
    from . import asymptotics as asym
    from .groundstate import shoot
    pack = cfg.pack()
    prof = shoot(pack, r_max=cfg.r_max)
    grid = cfg.eps_grid()
    T = threshold_constant(pack, prof.S)
    rows = asym.cherrier_probe(prof, cfg.family, grid, R=cfg.R)
    report.results["family"] = cfg.family
    report.results["threshold"] = T
    report.results["interior_constant"] = 1.0 / prof.S
    report.results["rows"] = rows
    lead = rows[-1]["leading"]["0.0"]
    target = T if cfg.family == "boundary" else 1.0 / prof.S
    report.check("leading constant approach", abs(lead / target - 1) <= 0.03,
                 f"leading {lead:.6g} target {target:.6g}")
    _write_csv(outdir, "cherrier.csv", "eps,leading_c0",
               [(row["eps"], row["leading"]["0.0"]) for row in rows])
    return EXIT_OK


def cmd_verify(cfg, report, outdir):
    from . import acceptance
    t0 = time.time()
    results = acceptance.run_all(quick=cfg.quick, seed=cfg.seed)
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: "
              f"{res.detail}")
        report.check(res.name, res.passed, res.detail)
        report.results[res.name] = {"passed": res.passed,
                                    "detail": res.detail,
                                    "values": res.values}
    if not cfg.quick:  # the quick checks are not timed one by one
        report.timings["criterion_seconds"] = {res.name: res.seconds
                                               for res in results}
    report.timings["verify_seconds"] = time.time() - t0
    return EXIT_OK


COMMANDS = {
    "bubble": cmd_bubble,
    "solve": cmd_solve,
    "symmetry": cmd_symmetry,
    "sweep": cmd_sweep,
    "probe-cherrier": cmd_probe_cherrier,
    "verify": cmd_verify,
}


def make_parser():
    ap = argparse.ArgumentParser(
        prog="lanedual",
        description="dual variational solver for critical Lane-Emden "
                    "systems with Neumann boundary conditions")
    ap.add_argument("--config", help="key=value config file")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--p", type=float)
        sp.add_argument("--q", type=float)
        sp.add_argument("--N", type=int, default=None)
        sp.add_argument("--mesh", dest="mesh_kind", default=None,
                        choices=list(msh.KINDS))
        sp.add_argument("--r0", type=float, default=None)
        sp.add_argument("--R", type=float, default=None)
        sp.add_argument("--nr", type=int, default=None)
        sp.add_argument("--ntheta", type=int, default=None)
        sp.add_argument("--theta-grading", dest="theta_grading", type=float,
                        default=None)
        sp.add_argument("--r-max", dest="r_max", type=float, default=None)
        sp.add_argument("--restarts", type=int, default=None)
        sp.add_argument("--max-iter", dest="max_iter", type=int, default=None)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--eps-hi", dest="eps_hi", type=float, default=None)
        sp.add_argument("--eps-lo", dest="eps_lo", type=float, default=None)
        sp.add_argument("--eps-count", dest="eps_count", type=int,
                        default=None)
        sp.add_argument("--family", choices=("boundary", "interior"),
                        default=None)
        sp.add_argument("--quick", action="store_true", default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--outdir", default=None)
    return ap


def config_from_args(argv):
    ap = make_parser()
    ns = ap.parse_args(argv)
    values = {}
    if ns.config:
        values.update(parse_config_file(ns.config))
    for key in RunConfig.__dataclass_fields__:
        arg = getattr(ns, key, None)
        if arg is not None:
            values[key] = arg
    values["subcommand"] = ns.subcommand
    return RunConfig(**values)


def run(cfg):
    """Execute one configured run; returns the process exit code."""
    outdir = os.environ.get("LANEDUAL_OUTDIR", cfg.outdir)
    outdir = os.path.join(outdir, cfg.subcommand)
    os.makedirs(outdir, exist_ok=True)
    report = Report(config=asdict(cfg))
    t0 = time.time()
    try:
        COMMANDS[cfg.subcommand](cfg, report, outdir)
    except (NumericalError, ValueError) as e:
        if isinstance(e, NumericalError):
            code, kind = EXIT_CONVERGENCE, "numerical failure"
        else:
            code, kind = EXIT_CONFIG, "config error"
        report.results["error"] = str(e)
        report.timings["seconds"] = time.time() - t0
        report.dump(outdir)
        print(f"{kind}: {e}", file=sys.stderr)
        return code
    report.timings["seconds"] = time.time() - t0
    path = report.dump(outdir)
    ok = report.all_passed()
    print(f"report: {path} ({'all invariants pass' if ok else 'INVARIANT FAILURES'})")
    return EXIT_OK if ok else EXIT_INVARIANT


def main(argv=None):
    try:
        cfg = config_from_args(argv if argv is not None else sys.argv[1:])
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
