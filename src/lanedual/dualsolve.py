"""Maximization of the dual quotient and recovery of least-energy nodal
solutions.

The quotient Q(f, g) = int(f K g) / (||f||_alpha ||g||_beta) is maximized
by alternating maximization, the sweep derived from the stationarity
relations K_p g = D |f|^(1/p-1) f, K_q f = D |g|^(1/q-1) g: each half-step
applies K_t, takes the signed power, and renormalizes. Each half-step is
the exact maximizer over its variable. For zero-mean f, int(f K g) =
int(f (K g + kappa)) for every constant kappa, and Hoelder's inequality
with exponents alpha and p + 1 is an equality at f proportional to
|K_p g|^(p-1) K_p g, which is zero-mean by the choice of kappa in K_p. So
Q(f', g') >= Q(f', g) >= Q(f, g) in exact arithmetic (the monotone l^p
power method; D. W. Boyd, Linear Algebra Appl. 9, 1974), every sweep is
taken, and only roundoff can lower the quotient. The product
normalization is invariant under independent rescaling of f and g.

Each sweep is then accelerated without a K solve, since K of a linear
combination of g's is the same combination of the K g's already at hand.
These candidates are not maximizers, so each is taken only when its
quotient is no lower. First the type-II Anderson mix of the last few
sweeps (Walker & Ni, SIAM J. Numer. Anal. 49, 2011) replaces the step;
that guard falls back to the plain sweep (Zhang, O'Donoghue & Boyd, SIAM
J. Optim. 30, 2020) and keeps the ascent monotone, so a restart can still
leave a saddle. Then the step is extrapolated at doubling factors while
the quotient keeps rising.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import NumericalError
from .exponents import threshold_constant
from .mesh import weighted_sum
from .neumann import NeumannSolver, signed_power

# Gates on a recovered solution, read by `lanedual solve` and acceptance
# criteria 3 and 11 through DualReport.verdicts: relative error of the
# energy identity, relative PDE residual, and compatibility integrals.
ENERGY_GATE, RESIDUAL_GATE, COMPAT_GATE = 1e-6, 1e-5, 1e-8
# Least relative margin D / (2^(2/N)/S) - 1 of the compactness threshold,
# read by axisymmetric `lanedual solve` runs and acceptance criterion 4
THRESHOLD_MARGIN = 0.01
# Restarts within NEAR_RTOL (relative) of the best D are near-optimal. The
# first converged restart in menu order within TIE_RTOL of it is reported,
# so that roundoff does not pick among tied (e.g. mirror-image) optima.
NEAR_RTOL, TIE_RTOL = 1e-8, 1e-12
# Relative roundoff noise of the quotient: an extrapolation must raise Q
# by more, and an Anderson mix's own roundoff must stay below it.
Q_NOISE = 1e-12
# The Anderson mix combines the last ANDERSON_DEPTH + 1 sweeps; the
# extrapolation factor doubles from 2 up to OMEGA_MAX.
ANDERSON_DEPTH, OMEGA_MAX = 2, 64.0
# Gate on the relative Euler-Lagrange residual of a restart's iterate
EL_TOL = 1e-8
# A sweep that moves the quotient by at most SETTLE_RTOL (relative) has
# settled, and its EL residual is checked; a restart makes at most
# MAX_SWEEPS sweeps.
SETTLE_RTOL, MAX_SWEEPS = 1e-10, 4000


@dataclass
class IterationTrace:
    """One restart of the fixed point. Each sweep is an exact alternating
    maximization (see the module docstring), so each is taken.
    `stop_reason` says why its loop ended: "converged" (a sweep moved the
    quotient by at most SETTLE_RTOL and met the EL gate), "el-residual"
    (sweeps ran out while the quotient had settled but the EL gate
    failed), "max_iter" (MAX_SWEEPS ran out with the quotient still
    moving) or "non-finite" (a sweep's quotient was NaN or infinite; the
    restart keeps the last finite iterate). A restart that did not stop on
    "converged" still counts as converged when the EL residual of its
    final iterate meets the gate. The counters (sweeps, mixes,
    extrapolations) are deterministic work counts for the report; each
    sweep made two K solves, so a restart made 1 + 2 * sweeps."""
    iterations: list = field(default_factory=list)  # (sweep, Q)
    converged: bool = False
    el_residual: float = np.inf
    stop_reason: str = ""
    sweeps: int = 0           # sweeps made, a final non-finite one included
    mixes: int = 0            # sweeps replaced by the Anderson mix
    extrapolations: int = 0   # extrapolated candidates taken, one per factor


@dataclass
class DualReport:
    pack: object
    mesh_descr: dict
    D: float
    f: np.ndarray
    g: np.ndarray
    converged: bool
    el_residual: float
    restarts: list                      # per-restart best quotients
    near_optimal: list                  # restart names within NEAR_RTOL of best
    traces: list
    u: np.ndarray | None = None
    v: np.ndarray | None = None
    residual_u: float = np.nan
    residual_v: float = np.nan
    energy: float = np.nan
    c_pred: float = np.nan
    threshold: float = np.nan
    compat_u: float = np.nan
    compat_v: float = np.nan
    pointwise_mismatch: float = np.nan
    u_nodal: bool = False
    v_nodal: bool = False
    k_solves: int = 0                   # K solves made by maximize_D

    def work(self):
        """Deterministic work counters: the K solves of the whole solve,
        then sweeps, mixes and extrapolations per restart, in menu order."""
        return {"k_solves": self.k_solves,
                **{key: [getattr(trace, key) for trace in self.traces]
                   for key in ("sweeps", "mixes", "extrapolations")}}

    def solution_checks(self):
        """The gated quantities of the recovered solution, and nodality."""
        return {
            "energy_rel": abs(self.energy - self.c_pred) / abs(self.energy),
            "residual": max(self.residual_u, self.residual_v),
            "compat": max(self.compat_u, self.compat_v),
            "nodal": self.u_nodal and self.v_nodal,
        }

    @property
    def threshold_margin(self):
        """D / (2^(2/N)/S) - 1, NaN when no S filled `threshold`."""
        return self.D / self.threshold - 1.0

    def verdicts(self):
        """Every gated claim on this report, by name: (passed, detail). The
        compactness threshold is judged only when S filled `threshold`."""
        chk = self.solution_checks()
        out = {
            "energy identity": (chk["energy_rel"] <= ENERGY_GATE,
                                f"rel error {chk['energy_rel']:.3e}"),
            "pde residuals": (chk["residual"] <= RESIDUAL_GATE,
                              f"u: {self.residual_u:.3e} "
                              f"v: {self.residual_v:.3e}"),
            "compatibility integrals": (chk["compat"] <= COMPAT_GATE,
                                        f"u: {self.compat_u:.3e} "
                                        f"v: {self.compat_v:.3e}"),
            "nodal solutions": (chk["nodal"], ""),
        }
        if np.isfinite(self.threshold):
            out["above compactness threshold"] = (
                self.threshold_margin >= THRESHOLD_MARGIN,
                f"D={self.D:.6g} threshold={self.threshold:.6g}")
        return out

    def passes(self):
        """Whether every verdict passes."""
        return all(passed for passed, _ in self.verdicts().values())

    def summary(self):
        energy_rel = self.solution_checks()["energy_rel"]
        out = {
            "p": self.pack.p, "q": self.pack.q, "N": self.pack.N,
            "mesh": self.mesh_descr, "D": self.D, "converged": self.converged,
            "el_residual": self.el_residual, "restart_optima": self.restarts,
            "near_optimal_restarts": self.near_optimal,
            "energy": self.energy, "c_pred": self.c_pred,
            "energy_rel_error": (energy_rel if np.isfinite(energy_rel)
                                 else None),
            **{key: getattr(self, key) for key in (
                "residual_u", "residual_v", "compat_u", "compat_v",
                "pointwise_mismatch", "u_nodal", "v_nodal")},
        }
        if np.isfinite(self.threshold):
            out["threshold"] = self.threshold
            out["threshold_margin"] = self.threshold_margin
        return out


class ConvergenceError(NumericalError):
    def __init__(self, msg, traces=None):
        super().__init__(msg)
        self.traces = traces or []


def rayleigh_ratio(solver, f, g, pack):
    """int(f K g) / (||f||_alpha ||g||_beta); scale invariant and symmetric."""
    mesh = solver.mesh
    nf = mesh.norm_Ls(f, pack.alpha)
    ng = mesh.norm_Ls(g, pack.beta)
    if nf == 0.0 or ng == 0.0:
        raise NumericalError("rayleigh_ratio called with a zero field")
    return mesh.inner(f, solver.solve_K(g, check_mean=False)) / (nf * ng)


def _shift(solver, pack, g, Kg, kappas):
    """K_p g = K g + kappa for the zero-mean g, from the K g at hand. The
    EL check of the iterate and the next sweep's f half-step share it.
    kappas holds the last shift of each half-step, the start of the next
    root-find, and is updated in place."""
    solver.check_mean(g)
    kappas[0] = solver.kappa_shift(Kg, pack.p, kappas[0]).kappa
    return Kg + kappas[0]


def _el_residual(mesh, pack, f, Kpg, Q):
    """Relative Euler-Lagrange residual ||K_p g - Q |f|^(1/p-1) f||_(p+1)
    / Q of an iterate, from the K_p g of _shift."""
    return mesh.norm_Ls(Kpg - Q * signed_power(f, 1.0 / pack.p),
                        pack.p + 1.0) / Q


def _sweep(solver, pack, Kpg, kappas):
    """The sweep f = K_p g, then g = K_q f, each half-step the signed power
    normalized, from the K_p g of _shift; kappas[1] is updated in place."""
    mesh = solver.mesh
    fn = signed_power(Kpg, pack.p)
    fn /= mesh.norm_Ls(fn, pack.alpha)
    Kf = solver.solve_K(fn)
    kappas[1] = solver.kappa_shift(Kf, pack.q, kappas[1]).kappa
    gn = signed_power(Kf + kappas[1], pack.q)
    gn /= mesh.norm_Ls(gn, pack.beta)
    return fn, gn


def _scaled(mesh, pack, f, g, Kg):
    """(f, g, K g) scaled to unit L^alpha and L^beta norms, with their
    quotient; None for a zero or non-finite candidate."""
    nf, ng = mesh.norm_Ls(f, pack.alpha), mesh.norm_Ls(g, pack.beta)
    if not (nf > 0.0 and ng > 0.0 and np.isfinite(nf * ng)):
        return None
    f, g, Kg = f / nf, g / ng, Kg / ng
    return f, g, Kg, mesh.inner(f, Kg)


def _anderson(mesh, pack, history):
    """Type-II Anderson mix of the sweeps in history, each a
    (g, G(g), f, K G(g)) tuple: the weights a, summing to 1, minimize the
    W-weighted L2 norm of sum a_i (G(g_i) - g_i) (normal equations in the
    differences of those residuals), and the mix is sum a_i (f_i, G(g_i),
    K G(g_i)), scaled. K of the mix is the same mix of K values, so it
    costs no solve. None for a short history, or for residuals so nearly
    dependent that the mix's roundoff, about eps * sum |a_i| relative,
    would reach the quotient's noise and void the Q guard."""
    if len(history) < 2:
        return None
    res = [gn - g for g, gn, _, _ in history]
    cols = [res[-1] - r for r in res[:-1]]
    gram = [[mesh.inner(c, d) for d in cols] for c in cols]
    try:
        gamma = np.linalg.solve(gram, [mesh.inner(c, res[-1]) for c in cols])
    except np.linalg.LinAlgError:
        return None
    a = [*gamma, 1.0 - gamma.sum()]
    if not np.sum(np.abs(a)) * np.finfo(float).eps < Q_NOISE:
        return None
    _, g_out, f_out, Kg_out = zip(*history)
    return _scaled(mesh, pack, *(sum(ai * v for ai, v in zip(a, vecs))
                                 for vecs in (f_out, g_out, Kg_out)))


def _accelerate(mesh, pack, prev, step, history, trace):
    """The plain sweep's step, improved at no K solve: replaced by the
    Anderson mix of `history` when the mix's quotient is no lower, then
    extrapolated from `prev` along the step, at factors 2, 4, ... up to
    OMEGA_MAX, while each factor raises the quotient above its noise."""
    mix = _anderson(mesh, pack, history)
    if mix is not None and mix[3] >= step[3]:
        step = mix
        trace.mixes += 1
    base = step[:3]
    omega = 2.0
    while omega <= OMEGA_MAX:
        trial = _scaled(mesh, pack, *(a + omega * (b - a)
                                      for a, b in zip(prev, base)))
        if trial is None or not trial[3] > step[3] + Q_NOISE * abs(step[3]):
            break
        trace.extrapolations += 1
        step = trial
        omega *= 2.0
    return step


def _fixed_point(solver, pack, f0, g0):
    """Alternating maximization from (f0, g0); returns (Q, f, g, trace).

    Each sweep makes two K solves: K f for the g half-step, and K g for the
    quotient, which the next sweep reuses. Each sweep is an exact
    alternating maximization and is taken; _accelerate then improves it
    without a K solve, and its Q guard is the only ascent test. One kappa
    shift of K g per iterate serves both the next f half-step and the
    Euler-Lagrange residual, which is checked on every sweep whose
    quotient moved by at most SETTLE_RTOL and on the final iterate.
    """
    mesh = solver.mesh
    f = np.array(f0, dtype=float)
    g = np.array(g0, dtype=float)
    f -= mesh.mean(f)
    g -= mesh.mean(g)
    f /= mesh.norm_Ls(f, pack.alpha)
    g /= mesh.norm_Ls(g, pack.beta)
    Kg = solver.solve_K(g, check_mean=False)
    Q = mesh.inner(f, Kg)
    trace = IterationTrace()
    kappas = [None, None]
    Kpg = _shift(solver, pack, g, Kg, kappas)
    history = deque(maxlen=ANDERSON_DEPTH + 1)
    settled = False
    for sweep in range(MAX_SWEEPS):
        fn, gn = _sweep(solver, pack, Kpg, kappas)
        Kgn = solver.solve_K(gn, check_mean=False)
        Qn = mesh.inner(fn, Kgn)
        trace.sweeps += 1
        if not np.isfinite(Qn):
            trace.stop_reason = "non-finite"
            break
        history.append((g, gn, fn, Kgn))
        step = _accelerate(mesh, pack, (f, g, Kg), (fn, gn, Kgn, Qn),
                           history, trace)
        settled = abs(step[3] - Q) <= SETTLE_RTOL * abs(step[3])
        f, g, Kg, Q = step
        trace.iterations.append((sweep, Q))
        Kpg = _shift(solver, pack, g, Kg, kappas)
        if settled:
            trace.el_residual = _el_residual(mesh, pack, f, Kpg, Q)
            if trace.el_residual <= EL_TOL:
                trace.stop_reason = "converged"
                break
    if not trace.stop_reason:
        trace.stop_reason = "el-residual" if settled else "max_iter"
    if not settled:  # the final iterate's residual is not yet known
        trace.el_residual = _el_residual(mesh, pack, f, Kpg, Q)
    trace.converged = trace.el_residual <= EL_TOL
    return Q, f, g, trace


def _init_menu(solver, restarts, seed, extra_inits):
    """Initialization menu, the same on every mesh: "eigenfunction" (the
    first nonconstant Neumann eigenfunction as both f and g), then
    "noise-0", "noise-1", ... up to `restarts` entries (f and g each K of
    its own draw of demeaned white noise, demeaned again), then "user-0",
    "user-1", ... from extra_inits."""
    mesh = solver.mesh
    rng = np.random.default_rng(seed)
    phi = solver.first_eigenfunction()
    inits = [("eigenfunction", phi.copy(), phi.copy())]
    for k in range(max(0, restarts - len(inits) - len(extra_inits))):
        f = solver.solve_K(_demeaned_noise(mesh, rng), check_mean=False)
        g = solver.solve_K(_demeaned_noise(mesh, rng), check_mean=False)
        inits.append((f"noise-{k}", f - mesh.mean(f), g - mesh.mean(g)))
    for j, (f, g) in enumerate(extra_inits):
        inits.append((f"user-{j}", np.asarray(f, float), np.asarray(g, float)))
    return inits


def _demeaned_noise(mesh, rng):
    h = rng.standard_normal(mesh.nnodes)
    return h - mesh.mean(h)


def maximize_D(solver_or_mesh, pack, restarts=8, seed=0, extra_inits=(),
               S=None):
    """Best dual quotient over the restart menu; returns a DualReport of
    the first converged restart, in menu order, within TIE_RTOL of it.

    extra_inits is a sequence of (f0, g0) pairs appended to the menu (used
    e.g. to lift a radial optimum into an axisymmetric run). S, when given,
    fills the compactness threshold 2^(2/N)/S for the report.
    """
    solver = (solver_or_mesh if isinstance(solver_or_mesh, NeumannSolver)
              else NeumannSolver(solver_or_mesh))
    mesh = solver.mesh
    k_solves = solver.k_solves
    inits = _init_menu(solver, restarts, seed, list(extra_inits))
    results = [(name, *_fixed_point(solver, pack, f0, g0))
               for name, f0, g0 in inits]

    converged = [res for res in results if res[4].converged]
    if not converged:
        raise ConvergenceError(
            f"no restart converged on {mesh.kind} for (p,q,N)=({pack.p},"
            f"{pack.q},{pack.N})", traces=[r[4] for r in results])
    Dmax = max(res[1] for res in converged)
    best = next(res for res in converged if Dmax - res[1] <= TIE_RTOL * Dmax)
    near = [res[0] for res in converged if Dmax - res[1] <= NEAR_RTOL * Dmax]
    report = DualReport(
        pack=pack,
        mesh_descr={"kind": mesh.kind, "N": mesh.N, "r0": mesh.r0,
                    "R": mesh.R, "nr": mesh.nr, "ntheta": mesh.ntheta},
        D=best[1], f=best[2], g=best[3],
        converged=True, el_residual=best[4].el_residual,
        restarts=[(res[0], res[1], res[4].converged) for res in results],
        near_optimal=near,
        traces=[res[4] for res in results],
        threshold=threshold_constant(pack, S) if S else np.nan,
    )
    recover_solution(solver, report)
    report.k_solves = solver.k_solves - k_solves
    return report


def recover_solution(solver, report):
    """Populate (u, v), PDE residuals, energy and compatibility checks.

    u = D^(-q(p+1)/(pq-1)) K_p g and v = D^(-p(q+1)/(pq-1)) K_q f; the
    pointwise route u = D^(-(q+1)/(pq-1)) |f|^(1/p-1) f must agree at the
    optimum and the mismatch is recorded.
    """
    pack, mesh = report.pack, solver.mesh
    p, q = pack.p, pack.q
    D = report.D
    s_f = -p * (q + 1.0) / (p * q - 1.0)
    t_g = -q * (p + 1.0) / (p * q - 1.0)
    f_t = D ** s_f * report.f
    g_t = D ** t_g * report.g
    u = solver.solve_Kt(g_t, p)
    v = solver.solve_Kt(f_t, q)
    u_pt = D ** (-(q + 1.0) / (p * q - 1.0)) * signed_power(report.f, 1.0 / p)
    report.pointwise_mismatch = float(
        np.max(np.abs(u - u_pt)) / np.max(np.abs(u)))
    interior = mesh.interior_mask()
    src_v = signed_power(v, q)
    src_u = signed_power(u, p)
    lap_u = mesh.laplacian(u)
    lap_v = mesh.laplacian(v)
    report.residual_u = float(np.max(np.abs((lap_u + src_v)[interior]))
                              / np.max(np.abs(src_v)))
    report.residual_v = float(np.max(np.abs((lap_v + src_u)[interior]))
                              / np.max(np.abs(src_u)))
    report.u, report.v = u, v
    report.energy = energy(mesh, u, v, pack)
    report.c_pred = (2.0 / pack.N) * D ** (-pack.N / 2.0)
    scale_u = mesh.norm_Ls(src_u, 1.0)
    scale_v = mesh.norm_Ls(src_v, 1.0)
    report.compat_u = float(abs(mesh.integrate(src_u)) / scale_u)
    report.compat_v = float(abs(mesh.integrate(src_v)) / scale_v)
    report.u_nodal = bool(np.any(u > 0) and np.any(u < 0))
    report.v_nodal = bool(np.any(v > 0) and np.any(v < 0))


def energy(mesh, u, v, pack):
    """I(u,v) = int grad(u).grad(v) - ||u||^{p+1}/(p+1) - ||v||^{q+1}/(q+1).

    The cross term is the discrete Dirichlet form u^T A v (the same
    bilinear form the Neumann solve uses), so the dual energy identity
    holds to solver precision rather than to mesh truncation error.
    """
    u = np.ravel(u)
    v = np.ravel(v)
    cross = weighted_sum(u, mesh.stiffness() @ v)
    return (cross
            - mesh.norm_Ls(u, pack.p + 1) ** (pack.p + 1) / (pack.p + 1)
            - mesh.norm_Ls(v, pack.q + 1) ** (pack.q + 1) / (pack.q + 1))


def radial_monotonicity_fraction(mesh, u, v):
    """Fraction of interior nodes where u_r v_r > 0 (radial meshes)."""
    du = mesh.gradient_r(u)
    dv = mesh.gradient_r(v)
    prod = (du * dv)[mesh.interior_mask()]
    return float(np.mean(prod > 0))
