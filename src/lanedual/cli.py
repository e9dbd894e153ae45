"""Command-line orchestration: subcommands, deterministic runs, and
machine-readable reports.

Subcommands: bubble (ground-state shooting), solve (dual maximization on a
chosen mesh), symmetry (flip-&-rearrange checks, foliated-Schwarz
diagnostics, symmetry gap), sweep (epsilon sweeps), probe-cherrier, and
verify (the acceptance battery). Every run writes report.json (version,
the config fields it read, results, invariant pass/fail list, timings)
plus CSV artifacts into the output directory.

SUBCOMMANDS names the RunConfig fields each subcommand reads: these alone
are its flags and config-file keys (key=value text, overridden by flags);
solve's mesh kind skips the _PER_MESH fields it does not read. A fixed
seed makes runs byte-identical up to the timing fields. Exit codes: 0
pass, 2 invariant failure, 3 numerical/convergence failure, 4 config error
(a flag or key the run does not read, a bad value such as restarts < 1,
R <= 0, a nonfinite radius or an R whose R^N overflows, an unreadable
config file).

Start-up: this module loads mesh and exponents (numpy only); each
subcommand imports the rest in its own body. bubble, sweep,
probe-cherrier, the full verify and solve on an axisymmetric mesh load
the shooter groundstate (numpy, and scipy's DOP853 tableau loaded from
its file); symmetry, verify --quick and solve on a radial mesh do not.
solve, symmetry and verify load the dual layer (numpy, and SuperLU's
extension loaded from its file); sweep, probe-cherrier and the full
verify load asymptotics (numpy, and Boost's kernels from
scipy.special's _ufuncs_cxx, loaded from its file). No command loads a
scipy subpackage (scipy.special, scipy.sparse, scipy.linalg,
scipy.integrate, scipy.interpolate, scipy.optimize, ...).

Before numpy is imported, this module sets OPENBLAS_NUM_THREADS to 1
unless the environment already sets it: one BLAS thread makes the
commands' small dense solves far faster and their start-up shorter, and
no result depends on the thread count. `import lanedual` alone sets
nothing.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

# must run before numpy loads OpenBLAS (see Start-up above)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import NumericalError, __version__, lazy_getattr
from . import mesh as msh
from .exponents import admissibility, derived_constants, threshold_constant

# Each subcommand imports the engines it runs inside its own body; the
# shooter stays readable as a module attribute.
__getattr__ = lazy_getattr(__name__, {"shoot": "groundstate.shoot"})

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
    eps_hi: float = 0.02
    eps_lo: float = 0.0005
    eps_count: int = 8
    family: str = "boundary"
    quick: bool = False
    seed: int = 0
    outdir: str = "runs"

    def __post_init__(self):
        if self.restarts < 1:
            raise ConfigError(f"restarts = {self.restarts} must be >= 1")
        if not 0.0 < self.R < np.inf:
            raise ConfigError(f"R = {self.R} must be positive and finite")

    def pack(self):
        """The exponent pack, each value validated before it is divided by
        (N up to exponents.N_MAX), and R checked against N: R^N must be a
        float (mesh.check_scale)."""
        if self.p is None and self.q is None:
            raise ConfigError("need at least one of p, q")
        pack = derived_constants(self.p, self.q, self.N, snap=True)
        msh.check_scale(pack.N, self.R)
        return pack

    def eps_grid(self):
        return np.geomspace(self.eps_hi, self.eps_lo, self.eps_count)

    def read(self):
        """The fields this run reads: its subcommand's, less the _PER_MESH
        fields that solve's mesh kind does not read."""
        return tuple(key for key in SUBCOMMANDS[self.subcommand][1]
                     if self.subcommand != "solve" or key not in _PER_MESH
                     or _PER_MESH[key] in self.mesh_kind)


class ConfigError(ValueError):
    pass


_FIELD_TYPES = {f.name: f.type for f in RunConfig.__dataclass_fields__.values()}
# the values a field takes, as a flag and as a config-file key alike
_CHOICES = {"mesh_kind": msh.KINDS, "radial_spacing": msh.SPACINGS,
            "family": ("boundary", "interior")}


def parse_config_file(path, fields):
    """key=value lines; '#' comments. An unreadable file, a line without
    '=', a key not in `fields` (the subcommand's) or a value of the wrong
    type is a ConfigError."""
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror}") from None
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in fields:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _coerce(key, val)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value {val!r} for "
                              f"{key}") from None
    return out


_BOOLS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}
# text readers by field type; the float | None fields read as float
_READ = {int: int, str: str}


def _coerce(key, val):
    """The config-file text `val` as the type of field `key`; ValueError
    when it is not one, or not one of the field's _CHOICES."""
    typ = _FIELD_TYPES[key]
    if typ is bool:
        if val.lower() not in _BOOLS:
            raise ValueError(f"not a boolean: {val!r}")
        return _BOOLS[val.lower()]
    value = _READ.get(typ, float)(val)
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ValueError(f"not one of {_CHOICES[key]}: {val!r}")
    return value


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
    from .groundstate import (radial_moment, regime_label, scaled_quantities,
                              shoot)
    pack = cfg.pack()
    prof = shoot(pack, r_max=cfg.r_max)
    label, cond = admissibility(pack)
    quant = scaled_quantities(prof, 1.0, R_domain=cfg.R)
    report.results.update({
        "p": pack.p, "q": pack.q, "N": pack.N,
        "admissibility": label, "condition": cond,
        "shoot_d": prof.shoot_d, "r_max": prof.r_max,
        "S": prof.S, "a": prof.tails["V"].c, "b": prof.tails["U"].c,
        "regime": regime_label(pack.q, pack.N, "q"),
        "regime_V": regime_label(pack.p, pack.N, "p"),
        "norms": {k: v for k, v in quant.items() if v is not None},
        "work": prof.work,
    })
    mU = radial_moment(prof, "U", pack.p + 1, pack.N - 1.0)
    mV = radial_moment(prof, "V", pack.q + 1, pack.N - 1.0)
    report.check("critical norms equal", abs(mU / mV - 1) < 1e-3,
                 f"|U|^(p+1) vs |V|^(q+1): {mU:.8g} vs {mV:.8g}")
    _write_csv(outdir, "profile.csv", "r,U,V,dU,dV",
               zip(prof.r, prof.U, prof.V, prof.dU, prof.dV))


def _build_mesh(cfg):
    r0 = 0.0 if cfg.mesh_kind.endswith("ball") else cfg.r0
    return msh.build(cfg.mesh_kind, cfg.N, r0, cfg.R, cfg.nr, cfg.ntheta,
                     theta_grading=cfg.theta_grading,
                     radial_spacing=cfg.radial_spacing)


def cmd_solve(cfg, report, outdir):
    from . import dualsolve as ds
    pack = cfg.pack()
    mesh = _build_mesh(cfg)
    S = None
    if mesh.is_axisym:
        # the threshold concerns the unrestricted optimum, which symmetry
        # breaking holds above the radial one: a radial run does not shoot
        from .groundstate import shoot
        S = shoot(pack, r_max=cfg.r_max).S
    rep = ds.maximize_D(mesh, pack, restarts=cfg.restarts, seed=cfg.seed,
                        S=S)
    report.results.update(rep.summary())
    for name, (passed, detail) in rep.verdicts().items():
        report.check(name, passed, detail)
    rr = mesh.node_r()
    tt = mesh.node_theta()
    _write_csv(outdir, "solution.csv", "r,theta,f,g,u,v",
               list(zip(rr, tt, rep.f, rep.g, rep.u, rep.v)))
    for k, trace in enumerate(rep.traces):
        _write_csv(outdir, f"trace_{k}.csv", "iteration,quotient",
                   trace.iterations)


def cmd_symmetry(cfg, report, outdir):
    """The star transform's three properties (norm preservation in L^alpha
    and L^beta, quadratic-form monotonicity, idempotence) on 50 random
    pairs, then the symmetry gap and the foliated-Schwarz check of the
    axisymmetric optimum, all on the annulus r0 < |x| < R. The gap runs
    first, so that its meshes reject bad radii, nr or ntheta as a config
    error before any work; the star mesh has nr equal-volume cells."""
    from . import symmetry as sym
    pack = cfg.pack()
    gap = sym.symmetry_gap(pack, cfg.r0, cfg.R, nr=cfg.nr,
                           ntheta=cfg.ntheta, seed=cfg.seed,
                           restarts=cfg.restarts,
                           estimate_noise=not cfg.quick)
    ev = msh.build_equal_volume(pack.N, cfg.r0, cfg.R, cfg.nr)
    star = sym.star_properties(ev, pack, np.random.default_rng(cfg.seed), 50)
    for key, result, check in (
            ("norm", "star_norm_worst_drift", "star norm preservation"),
            ("mono", "star_monotonicity_worst_excess",
             "star quadratic-form monotonicity"),
            ("idem", "star_idempotence_worst_error", "star idempotence")):
        worst, passed = star[key]
        report.results[result] = worst
        report.check(check, passed)
    report.results["symmetry_gap"] = gap.summary()
    report.check("nonnegative gap", gap.gap >= -1e-10)
    fs = sym.fs_check(gap.mesh, gap.axi_report.u, gap.axi_report.v)
    report.results["fs_check"] = fs.as_dict()
    report.check("foliated Schwarz", fs.passed,
                 f"violation {fs.violation:.3e}")


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


def cmd_probe_cherrier(cfg, report, outdir):
    from . import asymptotics as asym
    from .groundstate import shoot
    pack = cfg.pack()
    prof = shoot(pack, r_max=cfg.r_max)
    lead = asym.leading_constant(prof, cfg.family, cfg.eps_grid(), R=cfg.R)
    report.results["family"] = cfg.family
    report.results["threshold"] = threshold_constant(pack, prof.S)
    report.results["interior_constant"] = 1.0 / prof.S
    report.results["rows"] = lead.rows
    report.check("leading constant approach", lead.passed,
                 f"leading {lead.leading:.6g} target {lead.target:.6g}")
    _write_csv(outdir, "cherrier.csv", "eps,leading_c0",
               [(row["eps"], row["leading"]["0.0"]) for row in lead.rows])


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


_SWEEP = ("p", "q", "N", "R", "r_max", "eps_hi", "eps_lo", "eps_count")
# Each subcommand's body and the RunConfig fields it reads, in declaration
# order. These fields are its flags, its config-file keys and its report's
# config echo; RunConfig.read() drops the per-mesh ones a mesh kind skips.
SUBCOMMANDS = {
    "bubble": (cmd_bubble, ("p", "q", "N", "R", "r_max", "outdir")),
    "solve": (cmd_solve, ("p", "q", "N", "mesh_kind", "r0", "R", "nr",
                          "ntheta", "theta_grading", "radial_spacing",
                          "r_max", "restarts", "seed", "outdir")),
    "symmetry": (cmd_symmetry, ("p", "q", "N", "r0", "R", "nr", "ntheta",
                                "restarts", "quick", "seed", "outdir")),
    "sweep": (cmd_sweep, _SWEEP + ("outdir",)),
    "probe-cherrier": (cmd_probe_cherrier, _SWEEP + ("family", "outdir")),
    "verify": (cmd_verify, ("quick", "seed", "outdir")),
}
# the bodies alone, a flat table that bench/tracing.py wraps in place
COMMANDS = {name: body for name, (body, _) in SUBCOMMANDS.items()}
# solve fields read only on the mesh kinds whose names hold the word: only
# an annulus has r0, only an axisym mesh a theta grid and a shoot for S
_PER_MESH = {"r0": "annulus", "ntheta": "axisym", "theta_grading": "axisym",
             "r_max": "axisym"}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors (unknown flag, bad value,
    missing subcommand) raise ConfigError, so that they exit 4 like every
    other configuration error, not argparse's 2. Subparsers inherit it."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def make_parser():
    ap = _Parser(
        prog="lanedual",
        description="dual variational solver for critical Lane-Emden "
                    "systems with Neumann boundary conditions")
    ap.add_argument("--config", help="key=value config file")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (_, read) in SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        for key in read:
            typ = _FIELD_TYPES[key]
            flag = "--" + {"mesh_kind": "mesh"}.get(key, key).replace("_", "-")
            if typ is bool:
                sp.add_argument(flag, dest=key, action="store_true",
                                default=None)
            else:
                sp.add_argument(flag, dest=key, choices=_CHOICES.get(key),
                                type=_READ.get(typ, float))
    return ap


def config_from_args(argv):
    ap = make_parser()
    ns = ap.parse_args(argv)
    read = SUBCOMMANDS[ns.subcommand][1]
    values = parse_config_file(ns.config, read) if ns.config else {}
    for key in read:
        if getattr(ns, key) is not None:
            values[key] = getattr(ns, key)
    cfg = RunConfig(subcommand=ns.subcommand, **values)
    unread = [key for key in values if key not in cfg.read()]
    if unread:
        raise ConfigError(f"{cfg.subcommand} --mesh {cfg.mesh_kind} does not "
                          f"read {', '.join(unread)}")
    return cfg


def run(cfg):
    """Execute one configured run; returns the process exit code."""
    outdir = os.environ.get("LANEDUAL_OUTDIR", cfg.outdir)
    outdir = os.path.join(outdir, cfg.subcommand)
    os.makedirs(outdir, exist_ok=True)
    read = ("subcommand",) + cfg.read()
    report = Report(config={key: getattr(cfg, key) for key in read})
    t0 = time.time()
    try:
        COMMANDS[cfg.subcommand](cfg, report, outdir)
    except (NumericalError, ValueError) as e:
        if isinstance(e, NumericalError):
            code, kind = EXIT_CONVERGENCE, "numerical failure"
            report.results.update(e.partial)  # the work done before it
        else:
            code, kind = EXIT_CONFIG, "config error"
        report.results["error"] = str(e)
        report.timings["seconds"] = time.time() - t0
        report.dump(outdir)
        print(f"{kind}: {e}", file=sys.stderr)
        return code
    report.timings["seconds"] = time.time() - t0
    path = report.dump(outdir)
    ok = all(item["passed"] for item in report.invariants)
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
