import os
import subprocess
import sys

import numpy as np
import pytest

from lanedual import NumericalError
from lanedual import dualsolve as ds
from lanedual import mesh as msh
from lanedual import symmetry as sym
from lanedual.exponents import derived_constants
from lanedual.neumann import (NeumannSolver, NonZeroMeanError,
                              dense_eigenpairs, signed_power)


@pytest.fixture(scope="module")
def annulus_solver():
    return NeumannSolver(msh.build("radial-annulus", 6, 1.0, 2.0, 257))


@pytest.fixture(scope="module")
def report226(annulus_solver, pack226):
    return ds.maximize_D(annulus_solver.mesh, pack226, restarts=4, seed=1)


# -- rayleigh_ratio ----------------------------------------------------------

def test_ratio_eigenfunction_value(pack226):
    # oracle: dense eigendecomposition on a coarse mesh
    m = msh.build("radial-annulus", 6, 1.0, 2.0, 96)
    lams, vecs = dense_eigenpairs(m, k=2)
    lam, phi = lams[1], vecs[:, 1]
    sol = NeumannSolver(m)
    val = ds.rayleigh_ratio(sol, phi, phi, pack226)
    expected = (m.norm_Ls(phi, 2) ** 2 / lam
                / (m.norm_Ls(phi, pack226.alpha)
                   * m.norm_Ls(phi, pack226.beta)))
    assert val == pytest.approx(expected, rel=1e-8)


def test_ratio_scale_invariance(annulus_solver, pack226):
    m = annulus_solver.mesh
    rng = np.random.default_rng(0)
    f = rng.standard_normal(m.nnodes)
    f -= m.mean(f)
    g = rng.standard_normal(m.nnodes)
    g -= m.mean(g)
    base = ds.rayleigh_ratio(annulus_solver, f, g, pack226)
    assert ds.rayleigh_ratio(annulus_solver, 37.5 * f, g, pack226) == \
        pytest.approx(base, rel=1e-13)
    assert ds.rayleigh_ratio(annulus_solver, f, 0.03 * g, pack226) == \
        pytest.approx(base, rel=1e-13)


def test_ratio_swap_symmetry(annulus_solver, pack226):
    m = annulus_solver.mesh
    rng = np.random.default_rng(5)
    f = rng.standard_normal(m.nnodes)
    f -= m.mean(f)
    g = rng.standard_normal(m.nnodes)
    g -= m.mean(g)
    a = ds.rayleigh_ratio(annulus_solver, f, g, pack226)
    b = ds.rayleigh_ratio(annulus_solver, g, f, pack226)
    assert a == pytest.approx(b, abs=1e-10 * abs(a))


def test_ratio_rejects_zero_field(annulus_solver, pack226):
    z = np.zeros(annulus_solver.mesh.nnodes)
    with pytest.raises(NumericalError):
        ds.rayleigh_ratio(annulus_solver, z, z, pack226)


# -- maximize_D --------------------------------------------------------------

def test_maximizer_dominates_eigenfunction_pair(annulus_solver, pack226,
                                                report226):
    phi = annulus_solver.first_eigenfunction()
    ratio = ds.rayleigh_ratio(annulus_solver, phi, phi, pack226)
    assert report226.D >= ratio - 1e-12


def test_radial_restart_menu(report226):
    # the menu is the same on every mesh: eigenfunction, then plain noise
    assert [trace.name for trace in report226.traces] == \
        ["eigenfunction", "noise-0", "noise-1", "noise-2"]


def test_quotient_trace_monotone(report226):
    # one (sweep, Q) pair per sweep; Q never decreases beyond roundoff
    for trace in report226.traces:
        sweeps, qs = zip(*trace.iterations)
        assert list(sweeps) == list(range(trace.sweeps))
        assert all(q2 >= q1 * (1 - 1e-12) for q1, q2 in zip(qs, qs[1:]))


def _counting_solves(monkeypatch):
    calls = []
    solve_K = NeumannSolver.solve_K

    def counted(self, h):
        calls.append(1)
        return solve_K(self, h)

    monkeypatch.setattr(NeumannSolver, "solve_K", counted)
    return calls


@pytest.mark.parametrize("kind, pqN", [
    ("radial-annulus", (2.0, 2.0, 6)),
    ("axisym-ball", (3.0, 3.0, 4)),
])
def test_fixed_point_makes_two_solves_per_sweep(monkeypatch, kind, pqN):
    # one K solve for the initial quotient, then two per sweep (K f, and
    # the quotient's K g, which the next sweep reuses); the EL checks and
    # the accelerations reuse K g
    pack = derived_constants(*pqN)
    r0 = 1.0 if kind.endswith("annulus") else 0.0
    sol = NeumannSolver(msh.build(kind, pqN[2], r0, r0 + 1.0, 64, 32))
    phi = sol.first_eigenfunction()
    calls = _counting_solves(monkeypatch)
    trace = ds._fixed_point(sol, pack, "eigenfunction", phi, phi)
    assert trace.converged and trace.stop_reason == "converged"
    assert trace.sweeps == trace.iterations[-1][0] + 1
    assert len(calls) == 1 + 2 * trace.sweeps


def test_mixing_and_extrapolation_cost_no_solve(monkeypatch):
    # from noise on the (3,3,4) ball both accelerations are taken, and the
    # count stays within the two solves per sweep of the plain iteration
    pack = derived_constants(3.0, 3.0, 4)
    sol = NeumannSolver(msh.build("axisym-ball", 4, 0.0, 1.0, 64, 32))
    init, = ds._init_menu(sol, 2, 0)[1:]
    calls = _counting_solves(monkeypatch)
    before = sol.k_solves
    trace = ds._fixed_point(sol, pack, *init)
    assert trace.converged
    assert trace.mixes > 0 and trace.extrapolations > 0
    assert len(calls) == 2 * trace.sweeps + 1
    assert sol.k_solves - before == len(calls)


@pytest.mark.parametrize("seed", [1, 2])
def test_axisym_ball_334_restarts_leave_the_saddle(seed):
    # the noise restarts pass near a saddle at Q ~ 0.14; without the
    # accelerations they took 66-105 sweeps to reach the optimum. They
    # run on the coarse twin, where they converge to its pole spikes (D
    # 0.2443-0.2456), and the restart refined from there reaches the
    # fine spike that the full menu on the 96x72 mesh reported
    pack = derived_constants(3.0, 3.0, 4)
    mesh = msh.build("axisym-ball", 4, 0.0, 1.0, 96, 72)
    rep = ds.maximize_D(mesh, pack, restarts=4, seed=seed)
    assert abs(rep.D / 0.2432808791102159 - 1.0) <= 1e-12
    assert rep.best.mesh == mesh.size and rep.best.converged
    noise = [trace for trace in rep.traces if trace.name.startswith("noise")
             and trace.mesh == "33x25"]
    assert len(noise) == 3
    for trace in noise:
        assert trace.converged and trace.stop_reason == "converged"
        assert trace.D > 0.24 and trace.sweeps <= 60


# the benchmark's pinned D of each axisymmetric dual job: the full menu on
# the 96x72 mesh reached these, and a coarse menu with one refined
# restart must too
AXISYM_JOBS = {
    "ball-226": ("axisym-ball", (2.0, 2.0, 6), 0.10693247846850044),
    "ball-334": ("axisym-ball", (3.0, 3.0, 4), 0.2432808791102159),
    "annulus-226": ("axisym-annulus", (2.0, 2.0, 6), 0.1097925957574779),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("job", list(AXISYM_JOBS))
def test_refined_restart_keeps_the_pinned_D(job, seed):
    kind, pqN, D_ref = AXISYM_JOBS[job]
    pack = derived_constants(*pqN)
    r0, R = (0.0, 1.0) if kind == "axisym-ball" else (1.0, 2.0)
    extra = ()
    if kind == "axisym-annulus":  # the lifted radial optimum, as in symmetry
        rad = ds.maximize_D(msh.build("radial-annulus", pqN[2], r0, R, 96),
                            pack, restarts=4, seed=seed)
        extra = [(np.repeat(rad.f, 72), np.repeat(rad.g, 72))]
    mesh = msh.build(kind, pqN[2], r0, R, 96, 72)
    rep = ds.maximize_D(mesh, pack, restarts=4, seed=seed, extra_inits=extra)
    assert abs(rep.D / D_ref - 1.0) <= 1e-12
    assert rep.best.mesh == "96x72" and rep.passes()


def test_axisym_report_names_the_mesh_of_each_restart():
    # the menu runs on the 33x25 twin, one restart is refined on 96x72;
    # each ledger entry is filed under its mesh, and the K solves of each
    # level add up from its restarts
    pack = derived_constants(3.0, 3.0, 4)
    mesh = msh.build("axisym-ball", 4, 0.0, 1.0, 96, 72)
    rep = ds.maximize_D(mesh, pack, restarts=4, seed=1)
    s = rep.summary()
    coarse, fine = "33x25", "96x72"
    assert [trace.mesh for trace in rep.traces] == [coarse] * 4 + [fine]
    for key in ("restart_optima", "restart_stop_reasons"):
        assert list(s[key]) == [coarse, fine]
    work = s["work"]
    for key in ("k_solves", "sweeps", "mixes", "extrapolations",
                "kappa_evals"):
        assert list(work[key]) == [coarse, fine]
    sweeps = work["sweeps"]
    # coarse: the eigenfunction's iterations, two solves per noise
    # restart's draw, then each restart; fine: the refined restart and
    # the recovery's two solves
    assert work["k_solves"][coarse] == (
        work["eigenfunction"]["iterations"] + 2 * 3
        + sum(1 + 2 * n for n in sweeps[coarse]))
    assert work["k_solves"][fine] == 1 + 2 * sweeps[fine][0] + 2
    # the refined restart starts from the coarse restart that _pick reports
    assert rep.coarse is ds._pick(rep.traces[:4])
    assert s["coarse_mesh"] == coarse and s["coarse_D"] == rep.coarse.D
    assert rep.best.name == rep.coarse.name
    # the coarse spike lies 1% above the fine one: near-optimal restarts
    # are compared on one mesh only
    assert s["near_optimal_restarts"][fine] == [rep.best.name]
    assert rep.coarse.name in s["near_optimal_restarts"][coarse]
    assert rep.coarse.D > 1.005 * rep.D


@pytest.mark.parametrize("pqN", [(2.0, 2.0, 6), (3.0, 3.0, 4),
                                 (1.2, None, 6)])
def test_symmetry_gap_of_a_coarse_menu_is_nonnegative(pqN):
    # the lifted radial optimum runs on the fine mesh as given, where it
    # is a fixed point, so the reported optimum is never below D_rad
    pack = derived_constants(*pqN)
    gap = sym.symmetry_gap(pack, 1.0, 2.0, nr=64, ntheta=32, restarts=3,
                           estimate_noise=False)
    lifted = gap.axi_report.traces[-1]
    assert lifted.name == "user-0" and lifted.mesh == gap.mesh.size
    assert lifted.converged and lifted.sweeps == 1
    assert gap.axi_report.traces[0].mesh == "22x12"
    assert gap.gap >= 0.0


def test_mix_with_lower_quotient_is_refused(monkeypatch, annulus_solver,
                                            pack226):
    m = annulus_solver.mesh
    phi = annulus_solver.first_eigenfunction()
    prev = ds._scaled(m, pack226, phi, phi, annulus_solver.solve_K(phi))
    kappas, trace = [None, None], ds.IterationTrace()
    fn, gn = ds._sweep(annulus_solver, pack226,
                       ds._shift(annulus_solver, pack226, prev[1], prev[2],
                                 kappas, trace), kappas, trace)
    plain = ds._scaled(m, pack226, fn, gn, annulus_solver.solve_K(gn))
    assert prev[3] < plain[3]

    def accelerate(step, mix):
        monkeypatch.setattr(ds, "_anderson", lambda *args: mix)
        trace = ds.IterationTrace()
        return ds._accelerate(m, pack226, prev[:3], step, [], trace), trace

    # a mix below the plain step is refused: the result is the no-mix one
    ref, _ = accelerate(plain, None)
    out, trace = accelerate(plain, prev)
    assert trace.mixes == 0
    assert all(np.array_equal(a, b) for a, b in zip(out, ref))
    # a mix above it is taken
    out, trace = accelerate(prev, plain)
    assert trace.mixes == 1 and out[3] >= plain[3]


def test_anderson_refuses_dependent_residuals(annulus_solver, pack226):
    m = annulus_solver.mesh
    rng = np.random.default_rng(0)
    g, gn, f, Kg = (rng.standard_normal(m.nnodes) for _ in range(4))
    assert ds._anderson(m, pack226, [(g, gn, f, Kg)]) is None  # too short
    # equal residuals: singular normal equations
    assert ds._anderson(m, pack226, [(g, gn, f, Kg)] * 2) is None
    # parallel residuals: weights near 1e9, whose roundoff would swamp Q
    near = (g, gn + 1e-9 * (gn - g), f, Kg)
    assert ds._anderson(m, pack226, [(g, gn, f, Kg), near]) is None
    # independent ones mix
    other = tuple(rng.standard_normal(m.nnodes) for _ in range(4))
    assert ds._anderson(m, pack226, [(g, gn, f, Kg), other]) is not None


def test_lifted_restart_does_not_descend(pack226):
    # the lifted radial optimum is a critical point of the axisymmetric
    # quotient: the EL check of its first sweep stops its restart there,
    # never below its start
    gap = sym.symmetry_gap(pack226, 1.0, 2.0, nr=64, ntheta=32, restarts=2,
                           estimate_noise=False)
    rad = ds.maximize_D(msh.build("radial-annulus", 6, 1.0, 2.0, 64),
                        pack226, restarts=2)
    assert rad.D == gap.D_rad
    lift = (np.repeat(rad.f, 32), np.repeat(rad.g, 32))
    start = ds.rayleigh_ratio(NeumannSolver(gap.mesh), *lift, pack226)
    lifted = next(trace for trace in gap.axi_report.traces
                  if trace.name.startswith("user"))
    assert lifted.converged and lifted.D >= start
    assert lifted.sweeps == 1
    assert gap.gap >= 0.0


def test_stop_reasons(annulus_solver, pack226, monkeypatch):
    phi = annulus_solver.first_eigenfunction()

    def run(max_sweeps=ds.MAX_SWEEPS):
        with monkeypatch.context() as mp:
            mp.setattr(ds, "MAX_SWEEPS", max_sweeps)
            return ds._fixed_point(annulus_solver, pack226, "eigenfunction",
                                   phi, phi)

    assert run().stop_reason == "converged"
    assert run(max_sweeps=3).stop_reason == "max_iter"
    # the quotient settles but no iterate meets an EL gate of 0
    with monkeypatch.context() as mp:
        mp.setattr(ds, "EL_TOL", 0.0)
        trace = run(max_sweeps=200)
    assert trace.stop_reason == "el-residual" and not trace.converged
    # a NaN third sweep ends the restart on the last finite iterate, whose
    # EL residual decides convergence; its two K solves are counted
    sweep, sweeps = ds._sweep, []

    def nan_third(*args):
        fn, gn = sweep(*args)
        sweeps.append(1)
        if len(sweeps) == 3:
            gn = np.full_like(gn, np.nan)
        return fn, gn

    monkeypatch.setattr(ds, "_sweep", nan_third)
    before = annulus_solver.k_solves
    trace = run()
    assert trace.stop_reason == "non-finite" and not trace.converged
    assert trace.sweeps == 3 and len(trace.iterations) == 2
    assert annulus_solver.k_solves - before == 1 + 2 * trace.sweeps
    assert trace.D == trace.iterations[-1][1]
    assert ds.EL_TOL < trace.el_residual < np.inf


def test_mean_check_on_reused_K_g(monkeypatch, annulus_solver, pack226):
    # K g is reused, not solved with its own check, so _shift checks the
    # mean of every iterate's g: a sweep returning a g off zero mean stops
    # the loop
    m = annulus_solver.mesh
    g = m.node_r() - m.mean(m.node_r())
    Kg = annulus_solver.solve_K(g)
    ds._shift(annulus_solver, pack226, g, Kg, [None, None],
              ds.IterationTrace())
    with pytest.raises(NonZeroMeanError):
        ds._shift(annulus_solver, pack226, g + 1e-3, Kg, [None, None],
                  ds.IterationTrace())
    sweep = ds._sweep

    def off_mean(*args):
        fn, gn = sweep(*args)
        return fn, gn + 1e-3

    monkeypatch.setattr(ds, "_sweep", off_mean)
    phi = annulus_solver.first_eigenfunction()
    with pytest.raises(NonZeroMeanError):
        ds._fixed_point(annulus_solver, pack226, "eigenfunction", phi, phi)


@pytest.mark.parametrize("p, N", [(1.05, 4), (0.7, 5), (0.525, 6),
                                  (0.35, 8)])
def test_large_q_packs_converge(p, N):
    # p near 2/(N-2), q = 81-107: the quotient's roundoff reaches a few
    # 1e-12 relative, and every restart must still converge in a few
    # sweeps rather than chase that noise
    pack = derived_constants(p, None, N)
    assert pack.q > 80
    rep = ds.maximize_D(msh.build("radial-annulus", N, 1.0, 2.0, 257), pack,
                        restarts=4, seed=1)
    assert [t.stop_reason for t in rep.traces] == ["converged"] * 4
    assert list(rep.k_solves) == ["257x1"] and rep.k_solves["257x1"] <= 150
    assert "above compactness threshold" not in rep.verdicts()  # no S
    assert rep.passes()


def test_threshold_verdict_needs_the_margin(pack226):
    # 0.5% above the threshold is above it, but short of THRESHOLD_MARGIN
    best = ds.IterationTrace(D=1.0, converged=True, el_residual=0.0)
    rep = ds.DualReport(pack226, {}, best=best, traces=[best],
                        threshold=1.0 / 1.005)
    assert not rep.verdicts()["above compactness threshold"][0]
    assert rep.threshold_margin == pytest.approx(0.005)
    rep.threshold = 1.0 / 1.0101
    assert rep.verdicts()["above compactness threshold"][0]


def test_restarts_agree(annulus_solver, pack226):
    rep = ds.maximize_D(annulus_solver.mesh, pack226, restarts=5, seed=7)
    conv = [trace.D for trace in rep.traces if trace.converged]
    assert len(conv) >= 3
    assert max(conv) - min(conv) <= 1e-7 * max(conv)


@pytest.mark.parametrize("step, pick", [(1e-15, 0), (1e-9, -1)])
def test_best_restart_tie_break(monkeypatch, annulus_solver, pack226, step,
                                pick):
    # restart k reports the first restart's quotient times (1 + k step):
    # a roundoff-sized rise ties within TIE_RTOL and the first converged
    # restart in menu order is reported; a real rise wins
    fixed_point = ds._fixed_point
    runs = []

    def stepped(*args):
        trace = fixed_point(*args)
        runs.append(trace.D)
        trace.D = runs[0] * (1.0 + step * (len(runs) - 1))
        return trace

    monkeypatch.setattr(ds, "_fixed_point", stepped)
    rep = ds.maximize_D(annulus_solver.mesh, pack226, restarts=4, seed=1)
    converged = [trace for trace in rep.traces if trace.converged]
    assert rep.best is converged[pick]
    assert rep.D == rep.best.D and rep.f is rep.best.f
    assert rep.summary()["near_optimal_restarts"] == \
        {"257x1": [trace.name for trace in converged]}


def test_biharmonic_pack_converges_and_matches_gradient_oracle(pack195):
    # independent ascent oracle on the same discrete quotient, from the
    # same eigenfunction init: the zero-mean g-maximization has the
    # closed-form dual-norm solution min_c ||Kf + c||_{q+1}, so quasi-
    # Newton descent of -log of the reduced objective in f alone must
    # agree with the fixed-point optimum within 0.1%
    from scipy.optimize import brentq, minimize
    m = msh.build("radial-annulus", 5, 1.0, 2.0, 129)
    sol = NeumannSolver(m)
    rep = ds.maximize_D(sol.mesh, pack195, restarts=4, seed=3)
    w = m.w
    alpha, q = pack195.alpha, pack195.q

    def inner_shift(u):
        resid = lambda c: float(w @ signed_power(u + c, q))
        return brentq(resid, -u.max(), -u.min(), xtol=1e-15, rtol=8.9e-16)

    def J_and_grad(z):
        f = z - m.mean(z)
        uc = sol.solve_K(f)
        uc = uc + inner_shift(uc)
        T = m.norm_Ls(uc, q + 1.0)
        B = m.norm_Ls(f, alpha)
        gT_u = w * signed_power(uc, q) / T ** q
        gT_f = w * sol.solve_K(gT_u / w)  # K self-adjoint
        gB_f = w * signed_power(f, alpha - 1.0) / B ** (alpha - 1.0)
        grad = -gT_f / T + gB_f / B
        grad = grad - w * np.sum(grad) / m.volume  # chain through projection
        return -np.log(T) + np.log(B), grad

    phi = sol.first_eigenfunction()
    res = minimize(J_and_grad, phi / m.norm_Ls(phi, alpha), jac=True,
                   method="L-BFGS-B",
                   options={"maxiter": 20000, "ftol": 1e-16, "gtol": 1e-14,
                            "maxcor": 40})
    D_oracle = np.exp(-res.fun)
    assert D_oracle == pytest.approx(rep.D, rel=1e-3)


def test_recovered_solution_identities(report226, pack226):
    rep = report226
    # energy identity
    assert abs(rep.energy - rep.c_pred) <= 1e-6 * abs(rep.energy)
    # discrete PDE residuals (interior, relative to source scale)
    assert rep.residual_u <= 1e-5
    assert rep.residual_v <= 1e-5
    # compatibility integrals
    assert rep.compat_u <= 1e-8
    assert rep.compat_v <= 1e-8
    # nodality
    assert rep.u_nodal and rep.v_nodal
    # pointwise vs K-route agreement
    assert rep.pointwise_mismatch <= 1e-6
    # symmetric pack: u and v agree after the norm rescaling
    scale = np.max(np.abs(rep.u)) / np.max(np.abs(rep.v))
    assert np.max(np.abs(rep.u - scale * rep.v)) <= \
        1e-6 * np.max(np.abs(rep.u))


@pytest.fixture(scope="module")
def restart_at_huge_p():
    # q = 0.5001 puts p near 22,500: the one sweep is non-finite, and the
    # restart keeps its first iterate, whose EL defect d has sum |d|^(p+1)
    # underflowing to 0
    pack = derived_constants(None, 0.5001, 6)
    sol = NeumannSolver(msh.build("radial-annulus", 6, 1.0, 2.0, 64))
    phi = sol.first_eigenfunction()
    with np.errstate(all="ignore"):
        return sol, pack, ds._fixed_point(sol, pack, "eigenfunction", phi,
                                          phi)


def test_el_residual_is_scaled_only_where_its_sum_underflows(
        restart_at_huge_p, annulus_solver, report226, pack226):
    sol, pack, trace = restart_at_huge_p
    Q, f, g = trace.D, trace.f, trace.g
    Kpg = sol.solve_K(g)
    Kpg += sol.kappa_shift(Kpg, pack.p).kappa
    defect = Kpg - Q * signed_power(f, 1.0 / pack.p)
    assert sol.mesh.norm_Ls(defect, pack.p + 1.0) == 0.0
    assert trace.stop_reason == "non-finite" and not trace.converged
    assert ds._el_residual(sol.mesh, pack, f, Kpg, Q) == trace.el_residual
    assert 1.0 < trace.el_residual < 2.0  # 1.67 measured
    # elsewhere the residual is the plain norm, bit for bit
    rep, m = report226, annulus_solver.mesh
    Kpg = annulus_solver.solve_K(rep.g)
    Kpg += annulus_solver.kappa_shift(Kpg, pack226.p).kappa
    plain = m.norm_Ls(Kpg - rep.D * signed_power(rep.f, 1.0 / pack226.p),
                      pack226.p + 1.0) / rep.D
    assert 0.0 < plain < ds.EL_TOL
    assert ds._el_residual(m, pack226, rep.f, Kpg, rep.D) == plain


def test_non_finite_sweep_makes_no_kappa_evaluation(restart_at_huge_p):
    # the p shift of the first iterate takes one evaluation, the q
    # half-step of the NaN sweep none
    _, _, trace = restart_at_huge_p
    assert trace.stop_reason == "non-finite"
    assert trace.kappa_evals == 1


def test_non_finite_recovered_solution_is_a_numerical_error(
        restart_at_huge_p):
    # maximize_D stops on the unconverged restart; recovered anyway, its
    # |u|^p overflows and the energy is -inf
    sol, pack, trace = restart_at_huge_p
    report = ds.DualReport(pack=pack, mesh_descr={}, best=trace,
                           traces=[trace])
    with np.errstate(all="ignore"), pytest.raises(
            NumericalError, match="energy = -inf is not finite$"):
        ds.recover_solution(sol, report)


def test_energy_zero_fields(annulus_solver, pack226):
    z = np.zeros(annulus_solver.mesh.nnodes)
    assert ds.energy(annulus_solver.mesh, z, z, pack226) == 0.0


def test_energy_manufactured_value(annulus_solver, pack226):
    # (u, v) = (phi/lam, phi): cross term is ||phi||_2^2, norms in closed
    # quadrature form; lam from the dense eigensolve (oracle)
    m = annulus_solver.mesh
    phi = annulus_solver.first_eigenfunction()
    lam = dense_eigenpairs(m, k=2)[0][1]
    u = phi / lam
    v = phi
    val = ds.energy(m, u, v, pack226)
    p, q = pack226.p, pack226.q
    expected = (m.norm_Ls(phi, 2) ** 2
                - m.norm_Ls(u, p + 1) ** (p + 1) / (p + 1)
                - m.norm_Ls(v, q + 1) ** (q + 1) / (q + 1))
    assert val == pytest.approx(expected, rel=1e-6)


def test_radial_monotonicity(report226, annulus_solver):
    frac = ds.radial_monotonicity_fraction(annulus_solver.mesh,
                                           report226.u, report226.v)
    assert frac >= 0.99


def test_axisym_dominates_radial(pack226):
    rad = msh.build("radial-annulus", 6, 1.0, 2.0, 96)
    rep_rad = ds.maximize_D(rad, pack226, restarts=3, seed=0)
    axi = msh.build("axisym-annulus", 6, 1.0, 2.0, 96, 48)
    lift = (np.repeat(rep_rad.f, 48), np.repeat(rep_rad.g, 48))
    rep_axi = ds.maximize_D(axi, pack226, restarts=3, seed=0,
                            extra_inits=[lift])
    assert rep_axi.D >= rep_rad.D - 1e-10


def test_off_hyperbola_pack_rejected():
    with pytest.raises(Exception):
        derived_constants(1.0, 1.0, 6)


def test_refinement_stability(pack334):
    vals = []
    for nr in (128, 256):
        m = msh.build("radial-annulus", 4, 1.0, 2.0, nr)
        vals.append(ds.maximize_D(m, pack334, restarts=3, seed=2).D)
    assert abs(vals[1] - vals[0]) <= 2e-3 * vals[0]


def test_report_summary_roundtrip(report226):
    s = report226.summary()
    assert s["D"] == report226.D
    assert s["u_nodal"] is True
    import json
    json.dumps(s)  # serializable


SOLVE_BITS = """
import hashlib
from lanedual import dualsolve, exponents, mesh
m = mesh.build("radial-annulus", 6, 1.0, 2.0, 12000)
rep = dualsolve.maximize_D(m, exponents.derived_constants(2.0, 2.0, 6),
                           restarts=2, seed=0)
print(rep.D.hex(), rep.energy.hex(),
      hashlib.sha256(rep.u.tobytes() + rep.v.tobytes()).hexdigest())
"""


def test_solve_bits_do_not_depend_on_blas_threads():
    # above about 10,000 terms a BLAS dot splits its sum across threads;
    # every weighted sum goes through mesh.weighted_sum instead
    src = os.path.dirname(os.path.dirname(ds.__file__))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out.append(subprocess.run([sys.executable, "-c", SOLVE_BITS],
                                  capture_output=True, text=True, env=env,
                                  check=True, timeout=300).stdout)
    assert out[0] == out[1]
