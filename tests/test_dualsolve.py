import numpy as np
import pytest

from lanedual import dualsolve as ds
from lanedual import mesh as msh
from lanedual.exponents import derived_constants
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
    with pytest.raises(ValueError):
        ds.rayleigh_ratio(annulus_solver, z, z, pack226)


# -- maximize_D --------------------------------------------------------------

def test_maximizer_dominates_eigenfunction_pair(annulus_solver, pack226,
                                                report226):
    _, phi = annulus_solver.first_eigenfunction()
    ratio = ds.rayleigh_ratio(annulus_solver, phi, phi, pack226)
    assert report226.D >= ratio - 1e-12


def test_quotient_trace_monotone(report226):
    # never decreases along accepted iterations, up to the accept slack
    for trace in report226.traces:
        qs = [q for (_, q, _) in trace.iterations]
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
    # the quotient's K g, which the next sweep reuses); a rejected step
    # keeps the undamped sweep and costs one solve; the EL checks reuse K g
    pack = derived_constants(*pqN)
    r0 = 1.0 if kind.endswith("annulus") else 0.0
    sol = NeumannSolver(msh.build(kind, pqN[2], r0, r0 + 1.0, 64, 32))
    _, phi = sol.first_eigenfunction()
    sweep, sweeps = ds._sweep, []

    def spoil_first(*args):
        # flipping g makes the quotient negative: the first step is
        # rejected and retried with damping
        fn, gn = sweep(*args)
        sweeps.append(1)
        return (fn, -gn) if len(sweeps) == 1 else (fn, gn)

    calls = _counting_solves(monkeypatch)
    for spoil in (False, True):
        if spoil:
            monkeypatch.setattr(ds, "_sweep", spoil_first)
        calls.clear()
        _, _, _, trace = ds._fixed_point(sol, pack, phi, phi, 4000, 1e-10,
                                         1e-8)
        assert trace.converged and trace.stop_reason == "converged"
        passes = trace.iterations[-1][0] + 1  # accepted and rejected
        accepted = len(trace.iterations)
        assert len(calls) == 1 + 2 * accepted + (passes - accepted)
        if spoil:
            assert passes > accepted
            assert len(sweeps) == accepted


def test_stop_reasons(annulus_solver, pack226, monkeypatch):
    _, phi = annulus_solver.first_eigenfunction()

    def run(max_iter=4000, el_tol=1e-8):
        return ds._fixed_point(annulus_solver, pack226, phi, phi, max_iter,
                               1e-10, el_tol)[3]

    assert run().stop_reason == "converged"
    assert run(max_iter=3).stop_reason == "max_iter"
    # the quotient settles but no iterate meets an EL gate of 0
    trace = run(max_iter=200, el_tol=0.0)
    assert trace.stop_reason == "el-residual" and not trace.converged
    # every step is rejected until the damping factor runs out
    monkeypatch.setattr(ds, "_sweep",
                        lambda solver, pack, g, Kg, kappas:
                        (np.full_like(g, np.nan), np.full_like(g, np.nan)))
    assert run().stop_reason == "damping-floor"


def test_mean_check_on_reused_K_g(annulus_solver, pack226):
    m = annulus_solver.mesh
    g = m.node_r() - m.mean(m.node_r())
    Kg = annulus_solver.solve_K(g)
    f = signed_power(Kg, pack226.p)
    ds._sweep(annulus_solver, pack226, g, Kg, [None, None])
    ds._el_residual(annulus_solver, pack226, f, g, Kg, 1.0, None)
    bad = g + 1e-3
    with pytest.raises(NonZeroMeanError):
        ds._sweep(annulus_solver, pack226, bad, Kg, [None, None])
    with pytest.raises(NonZeroMeanError):
        ds._el_residual(annulus_solver, pack226, f, bad, Kg, 1.0, None)


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

    _, phi = sol.first_eigenfunction()
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
    # quadrature form
    m = annulus_solver.mesh
    lam, phi = annulus_solver.first_eigenfunction()
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
