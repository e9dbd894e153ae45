import os
import subprocess
import sys

import numpy as np
import pytest

from lanedual import NumericalError
from lanedual import dualsolve as ds
from lanedual import mesh as msh
from lanedual import symmetry as sym
from lanedual.exponents import derived_constants, pack_from_p
from lanedual.neumann import (NeumannSolver, NonZeroMeanError,
                              dense_eigenpairs, signed_power)


@pytest.fixture(scope="module")
def annulus_solver():
    return NeumannSolver(msh.build("radial-annulus", 6, 1.0, 2.0, 257))


@pytest.fixture(scope="module")
def report226(annulus_solver, pack226):
    return ds.maximize_D(annulus_solver, pack226, restarts=4, seed=1)


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
    assert [name for name, _, _ in report226.restarts] == \
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

    def counted(self, h, check_mean=True):
        calls.append(1)
        return solve_K(self, h, check_mean)

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
    _, _, _, trace = ds._fixed_point(sol, pack, phi, phi)
    assert trace.converged and trace.stop_reason == "converged"
    assert trace.sweeps == trace.iterations[-1][0] + 1
    assert len(calls) == 1 + 2 * trace.sweeps


def test_mixing_and_extrapolation_cost_no_solve(monkeypatch):
    # from noise on the (3,3,4) ball both accelerations are taken, and the
    # count stays within the two solves per sweep of the plain iteration
    pack = derived_constants(3.0, 3.0, 4)
    sol = NeumannSolver(msh.build("axisym-ball", 4, 0.0, 1.0, 64, 32))
    (_, f0, g0), = ds._init_menu(sol, 2, 0, [])[1:]
    calls = _counting_solves(monkeypatch)
    before = sol.k_solves
    _, _, _, trace = ds._fixed_point(sol, pack, f0, g0)
    assert trace.converged
    assert trace.mixes > 0 and trace.extrapolations > 0
    assert len(calls) == 2 * trace.sweeps + 1
    assert sol.k_solves - before == len(calls)


@pytest.mark.parametrize("seed", [1, 2])
def test_axisym_ball_334_restarts_leave_the_saddle(seed):
    # the noise restarts pass near a saddle at Q ~ 0.14; without the
    # accelerations they took 66-105 sweeps to reach the optimum
    pack = derived_constants(3.0, 3.0, 4)
    mesh = msh.build("axisym-ball", 4, 0.0, 1.0, 96, 72)
    rep = ds.maximize_D(mesh, pack, restarts=4, seed=seed)
    D_ref = 0.2432808791102159
    for (name, D, ok), trace in zip(rep.restarts, rep.traces):
        if name.startswith("noise"):
            assert ok and trace.stop_reason == "converged"
            assert abs(D / D_ref - 1.0) <= 1e-12
            assert trace.sweeps <= 60


def test_mix_with_lower_quotient_is_refused(monkeypatch, annulus_solver,
                                            pack226):
    m = annulus_solver.mesh
    phi = annulus_solver.first_eigenfunction()
    prev = ds._scaled(m, pack226, phi, phi, annulus_solver.solve_K(phi))
    kappas = [None, None]
    fn, gn = ds._sweep(annulus_solver, pack226,
                       ds._shift(annulus_solver, pack226, prev[1], prev[2],
                                 kappas), kappas)
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
    lift = (np.repeat(gap.rad_report.f, 32), np.repeat(gap.rad_report.g, 32))
    start = ds.rayleigh_ratio(NeumannSolver(gap.mesh), *lift, pack226)
    axi = gap.axi_report
    k = next(k for k, (name, _, _) in enumerate(axi.restarts)
             if name.startswith("user"))
    _, D, ok = axi.restarts[k]
    assert ok and D >= start
    assert axi.traces[k].sweeps == 1
    assert gap.gap >= 0.0


def test_stop_reasons(annulus_solver, pack226, monkeypatch):
    phi = annulus_solver.first_eigenfunction()

    def run(max_sweeps=ds.MAX_SWEEPS):
        with monkeypatch.context() as mp:
            mp.setattr(ds, "MAX_SWEEPS", max_sweeps)
            return ds._fixed_point(annulus_solver, pack226, phi, phi)

    assert run()[3].stop_reason == "converged"
    assert run(max_sweeps=3)[3].stop_reason == "max_iter"
    # the quotient settles but no iterate meets an EL gate of 0
    with monkeypatch.context() as mp:
        mp.setattr(ds, "EL_TOL", 0.0)
        trace = run(max_sweeps=200)[3]
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
    Q, _, _, trace = run()
    assert trace.stop_reason == "non-finite" and not trace.converged
    assert trace.sweeps == 3 and len(trace.iterations) == 2
    assert annulus_solver.k_solves - before == 1 + 2 * trace.sweeps
    assert Q == trace.iterations[-1][1]
    assert ds.EL_TOL < trace.el_residual < np.inf


def test_mean_check_on_reused_K_g(monkeypatch, annulus_solver, pack226):
    # K g is reused, not solved with its own check, so _shift checks the
    # mean of every iterate's g: a sweep returning a g off zero mean stops
    # the loop
    m = annulus_solver.mesh
    g = m.node_r() - m.mean(m.node_r())
    Kg = annulus_solver.solve_K(g)
    ds._shift(annulus_solver, pack226, g, Kg, [None, None])
    with pytest.raises(NonZeroMeanError):
        ds._shift(annulus_solver, pack226, g + 1e-3, Kg, [None, None])
    sweep = ds._sweep

    def off_mean(*args):
        fn, gn = sweep(*args)
        return fn, gn + 1e-3

    monkeypatch.setattr(ds, "_sweep", off_mean)
    phi = annulus_solver.first_eigenfunction()
    with pytest.raises(NonZeroMeanError):
        ds._fixed_point(annulus_solver, pack226, phi, phi)


@pytest.mark.parametrize("p, N", [(1.05, 4), (0.7, 5), (0.525, 6),
                                  (0.35, 8)])
def test_large_q_packs_converge(p, N):
    # p near 2/(N-2), q = 81-107: the quotient's roundoff reaches a few
    # 1e-12 relative, and every restart must still converge in a few
    # sweeps rather than chase that noise
    pack = pack_from_p(p, N)
    assert pack.q > 80
    rep = ds.maximize_D(msh.build("radial-annulus", N, 1.0, 2.0, 257), pack,
                        restarts=4, seed=1)
    assert [t.stop_reason for t in rep.traces] == ["converged"] * 4
    assert rep.k_solves <= 150
    assert "above compactness threshold" not in rep.verdicts()  # no S
    assert rep.passes()


def test_threshold_verdict_needs_the_margin(pack226):
    # 0.5% above the threshold is above it, but short of THRESHOLD_MARGIN
    rep = ds.DualReport(pack226, {}, D=1.0, f=None, g=None, converged=True,
                        el_residual=0.0, restarts=[], near_optimal=[],
                        traces=[], threshold=1.0 / 1.005)
    assert not rep.verdicts()["above compactness threshold"][0]
    assert rep.threshold_margin == pytest.approx(0.005)
    rep.threshold = 1.0 / 1.0101
    assert rep.verdicts()["above compactness threshold"][0]


def test_restarts_agree(annulus_solver, pack226):
    rep = ds.maximize_D(annulus_solver, pack226, restarts=5, seed=7)
    conv = [val for (_, val, ok) in rep.restarts if ok]
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
        Q, f, g, trace = fixed_point(*args)
        runs.append((Q, f))
        return runs[0][0] * (1.0 + step * (len(runs) - 1)), f, g, trace

    monkeypatch.setattr(ds, "_fixed_point", stepped)
    rep = ds.maximize_D(annulus_solver, pack226, restarts=4, seed=1)
    chosen = [k for k, (_, _, ok) in enumerate(rep.restarts) if ok][pick]
    assert rep.D == rep.restarts[chosen][1]
    assert rep.f is runs[chosen][1]
    assert len(rep.near_optimal) == sum(ok for _, _, ok in rep.restarts)


def test_biharmonic_pack_converges_and_matches_gradient_oracle(pack195):
    # independent ascent oracle on the same discrete quotient, from the
    # same eigenfunction init: the zero-mean g-maximization has the
    # closed-form dual-norm solution min_c ||Kf + c||_{q+1}, so quasi-
    # Newton descent of -log of the reduced objective in f alone must
    # agree with the fixed-point optimum within 0.1%
    from scipy.optimize import brentq, minimize
    m = msh.build("radial-annulus", 5, 1.0, 2.0, 129)
    sol = NeumannSolver(m)
    rep = ds.maximize_D(sol, pack195, restarts=4, seed=3)
    w = m.w
    alpha, q = pack195.alpha, pack195.q

    def inner_shift(u):
        resid = lambda c: float(w @ signed_power(u + c, q))
        return brentq(resid, -u.max(), -u.min(), xtol=1e-15, rtol=8.9e-16)

    def J_and_grad(z):
        f = z - m.mean(z)
        uc = sol.solve_K(f, check_mean=False)
        uc = uc + inner_shift(uc)
        T = m.norm_Ls(uc, q + 1.0)
        B = m.norm_Ls(f, alpha)
        gT_u = w * signed_power(uc, q) / T ** q
        gT_f = w * sol.solve_K(gT_u / w, check_mean=False)  # K self-adjoint
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
