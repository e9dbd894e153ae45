"""Maximization of the dual quotient and recovery of least-energy nodal
solutions.

The quotient Q(f, g) = int(f K g) / (||f||_alpha ||g||_beta) is maximized
by a damped fixed-point sweep derived from the stationarity relations
K_p g = D |f|^(1/p-1) f, K_q f = D |g|^(1/q-1) g: each half-step applies
K_t, takes the signed power, and renormalizes. The product normalization
is used inside the iteration because it is invariant under independent
rescaling of f and g; zero mean is automatic because int |K_t h|^(t-1)
K_t h = 0 by construction of the constant shift. A step is accepted only
if the quotient does not decrease; otherwise the damping factor is halved
and the blend retried.
"""

from dataclasses import dataclass, field

import numpy as np

from .exponents import threshold_constant
from .neumann import NeumannSolver, signed_power

# Gates on a recovered solution, shared by `lanedual solve` and acceptance
# criteria 3 and 11: relative error of the energy identity, relative PDE
# residual, and compatibility integrals.
ENERGY_GATE, RESIDUAL_GATE, COMPAT_GATE = 1e-6, 1e-5, 1e-8
# Restarts within NEAR_RTOL (relative) of the best D are near-optimal. The
# first converged restart in menu order within TIE_RTOL of it is reported,
# so that roundoff does not pick among tied (e.g. mirror-image) optima.
NEAR_RTOL, TIE_RTOL = 1e-8, 1e-12


@dataclass
class IterationTrace:
    """One restart of the fixed point. `stop_reason` says why its loop ended:
    "converged" (quotient stable and the EL gate met), "damping-floor"
    (the damping factor fell below 1e-14), "el-residual" (sweeps ran out
    while the quotient had settled but the EL gate failed) or "max_iter"
    (sweeps ran out with the quotient still moving). A restart that did
    not stop on "converged" still counts as converged when its final EL
    residual meets the gate."""
    iterations: list = field(default_factory=list)  # (sweep, Q, tau)
    converged: bool = False
    el_residual: float = np.inf
    stop_reason: str = ""


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

    def solution_checks(self):
        """The gated quantities of the recovered solution, and nodality."""
        return {
            "energy_rel": abs(self.energy - self.c_pred) / abs(self.energy),
            "residual": max(self.residual_u, self.residual_v),
            "compat": max(self.compat_u, self.compat_v),
            "nodal": self.u_nodal and self.v_nodal,
        }

    def solution_passes(self):
        """Whether the recovered solution meets every gate and is nodal."""
        chk = self.solution_checks()
        return (chk["energy_rel"] <= ENERGY_GATE
                and chk["residual"] <= RESIDUAL_GATE
                and chk["compat"] <= COMPAT_GATE and chk["nodal"])

    def summary(self):
        out = {
            "p": self.pack.p, "q": self.pack.q, "N": self.pack.N,
            "mesh": self.mesh_descr,
            "D": self.D,
            "converged": self.converged,
            "el_residual": self.el_residual,
            "restart_optima": self.restarts,
            "near_optimal_restarts": self.near_optimal,
            "energy": self.energy,
            "c_pred": self.c_pred,
            "energy_rel_error": (abs(self.energy - self.c_pred)
                                 / abs(self.energy)
                                 if np.isfinite(self.energy) else None),
            "residual_u": self.residual_u,
            "residual_v": self.residual_v,
            "compat_u": self.compat_u,
            "compat_v": self.compat_v,
            "pointwise_mismatch": self.pointwise_mismatch,
            "u_nodal": self.u_nodal,
            "v_nodal": self.v_nodal,
        }
        if np.isfinite(self.threshold):
            out["threshold"] = self.threshold
            out["threshold_margin"] = self.D / self.threshold - 1.0
        return out


class ConvergenceError(RuntimeError):
    def __init__(self, msg, traces=None):
        super().__init__(msg)
        self.traces = traces or []


def rayleigh_ratio(solver, f, g, pack):
    """int(f K g) / (||f||_alpha ||g||_beta); scale invariant and symmetric."""
    mesh = solver.mesh
    nf = mesh.norm_Ls(f, pack.alpha)
    ng = mesh.norm_Ls(g, pack.beta)
    if nf == 0.0 or ng == 0.0:
        raise ValueError("rayleigh_ratio called with a zero field")
    return mesh.inner(f, solver.solve_K(g, check_mean=False)) / (nf * ng)


def _sweep(solver, pack, g, Kg, kappas):
    """The undamped sweep f = K_p g, then g = K_q f, normalized, from the
    K g already at hand. kappas holds the last shift of each half-step,
    the start of the next root-find, and is updated in place."""
    mesh = solver.mesh
    solver.check_mean(g)
    kappas[0] = solver.kappa_shift(Kg, pack.p, kappas[0]).kappa
    fn = signed_power(Kg + kappas[0], pack.p)
    fn /= mesh.norm_Ls(fn, pack.alpha)
    Kf = solver.solve_K(fn)
    kappas[1] = solver.kappa_shift(Kf, pack.q, kappas[1]).kappa
    gn = signed_power(Kf + kappas[1], pack.q)
    gn /= mesh.norm_Ls(gn, pack.beta)
    return fn, gn


def _el_residual(solver, pack, f, g, Kg, Q, guess):
    solver.check_mean(g)
    lhs = Kg + solver.kappa_shift(Kg, pack.p, guess).kappa
    rhs = Q * signed_power(f, 1.0 / pack.p)
    return solver.mesh.norm_Ls(lhs - rhs, pack.p + 1.0) / Q


def _fixed_point(solver, pack, f0, g0, max_iter, tol, el_tol):
    """Damped fixed point from (f0, g0); returns (Q, f, g, trace).

    Each sweep makes two K solves: K f for the g half-step, and K g for
    the quotient, which the next sweep reuses. A rejected step keeps the
    undamped sweep, since f and g did not change, and retries only the
    blend and its quotient.
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
    tau, accepted, stable, settled = 1.0, 0, 0, False
    kappas = [None, None]
    undamped = None
    # accept slack sits above the roundoff noise of the quotient so that
    # machine-converged iterates are not spuriously rejected
    slack = 1e-12
    for sweep in range(max_iter):
        if undamped is None:
            undamped = _sweep(solver, pack, g, Kg, kappas)
        fn, gn = undamped
        if tau < 1.0:
            fn = (1.0 - tau) * f + tau * fn
            fn /= mesh.norm_Ls(fn, pack.alpha)
            gn = (1.0 - tau) * g + tau * gn
            gn /= mesh.norm_Ls(gn, pack.beta)
        Kgn = solver.solve_K(gn, check_mean=False)
        Qn = mesh.inner(fn, Kgn)
        if Qn >= Q * (1.0 - slack):
            dq = abs(Qn - Q)
            f, g, Kg, Q = fn, gn, Kgn, Qn
            undamped = None
            trace.iterations.append((sweep, Q, tau))
            accepted += 1
            if accepted >= 3:
                tau, accepted = 1.0, 0
            if dq <= tol * abs(Q):
                stable += 1
            else:
                stable, settled = 0, False
            if stable >= 5:
                el = _el_residual(solver, pack, f, g, Kg, Q, kappas[0])
                if el <= el_tol:
                    trace.converged = True
                    trace.el_residual = el
                    trace.stop_reason = "converged"
                    break
                stable, settled = 0, True
        else:
            tau *= 0.5
            accepted = 0
            if tau < 1e-14:
                trace.stop_reason = "damping-floor"
                break
    if not trace.converged:
        if not trace.stop_reason:
            trace.stop_reason = "el-residual" if settled else "max_iter"
        # a damping death at the noise floor is still a solution if the
        # stationarity relations hold
        el = _el_residual(solver, pack, f, g, Kg, Q, kappas[0])
        trace.el_residual = el
        trace.converged = el <= el_tol
    return Q, f, g, trace


def _init_menu(solver, pack, restarts, seed, extra_inits):
    """Initialization menu: eigenfunction pair, random smooth noise, and
    (radial meshes) flip-&-rearrange symmetrized noise."""
    mesh = solver.mesh
    rng = np.random.default_rng(seed)
    inits = []
    _, phi = solver.first_eigenfunction()
    inits.append(("eigenfunction", phi.copy(), phi.copy()))
    for k in range(max(0, restarts - len(inits) - len(extra_inits))):
        f = solver.solve_K(_demeaned_noise(mesh, rng), check_mean=False)
        g = solver.solve_K(_demeaned_noise(mesh, rng), check_mean=False)
        f -= mesh.mean(f)
        g -= mesh.mean(g)
        if not mesh.is_axisym and k % 2 == 1:
            from .symmetry import RadialProfile
            f = RadialProfile(mesh, f).star_transform().h
            g = RadialProfile(mesh, g).star_transform().h
            inits.append((f"star-noise-{k}", f, g))
        else:
            inits.append((f"noise-{k}", f, g))
    for j, (f, g) in enumerate(extra_inits):
        inits.append((f"user-{j}", np.asarray(f, float), np.asarray(g, float)))
    return inits


def _demeaned_noise(mesh, rng):
    h = rng.standard_normal(mesh.nnodes)
    return h - mesh.mean(h)


def maximize_D(solver_or_mesh, pack, restarts=8, max_iter=4000, tol=1e-10,
               el_tol=1e-8, seed=0, extra_inits=(), S=None):
    """Best dual quotient over the restart menu; returns a DualReport of
    the first converged restart, in menu order, within TIE_RTOL of it.

    extra_inits is a sequence of (f0, g0) pairs appended to the menu (used
    e.g. to lift a radial optimum into an axisymmetric run). S, when given,
    fills the compactness threshold 2^(2/N)/S for the report.
    """
    solver = (solver_or_mesh if isinstance(solver_or_mesh, NeumannSolver)
              else NeumannSolver(solver_or_mesh))
    mesh = solver.mesh
    inits = _init_menu(solver, pack, restarts, seed, list(extra_inits))
    results = [(name, *_fixed_point(solver, pack, f0, g0, max_iter, tol,
                                    el_tol))
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
    return u, v, (report.residual_u, report.residual_v)


def energy(mesh, u, v, pack):
    """I(u,v) = int grad(u).grad(v) - ||u||^{p+1}/(p+1) - ||v||^{q+1}/(q+1).

    The cross term is the discrete Dirichlet form u^T A v (the same
    bilinear form the Neumann solve uses), so the dual energy identity
    holds to solver precision rather than to mesh truncation error.
    """
    u = np.ravel(u)
    v = np.ravel(v)
    cross = float(u @ (mesh.stiffness() @ v))
    return (cross
            - mesh.norm_Ls(u, pack.p + 1) ** (pack.p + 1) / (pack.p + 1)
            - mesh.norm_Ls(v, pack.q + 1) ** (pack.q + 1) / (pack.q + 1))


def radial_monotonicity_fraction(mesh, u, v):
    """Fraction of interior nodes where u_r v_r > 0 (radial meshes)."""
    du = mesh.gradient_r(u)
    dv = mesh.gradient_r(v)
    prod = (du * dv)[mesh.interior_mask()]
    return float(np.mean(prod > 0))
