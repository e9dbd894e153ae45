"""Acceptance battery: the exit criteria of the build, one callable per
criterion, each returning a CheckResult with a one-line verdict.

The checks are property-based with closed-form anchors; each criterion
pins its tolerance here. Oracles (explicit-bubble quadrature, dense
eigendecompositions, nodewise brute force) are computed inside the checks
through routes independent of the code paths they verify.
"""

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import dualsolve as ds
from . import lazy_getattr
from . import mesh as msh
from . import symmetry as sym
from .exponents import derived_constants, pack_from_p
from .neumann import NeumannSolver, dense_eigenpairs

# The quick battery never shoots: the criteria import the shooter and the
# sweeps (and with them scipy.special) where they use them.
__getattr__ = lazy_getattr(__name__, {"shoot": "groundstate.shoot"})


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    values: dict = dc_field(default_factory=dict)
    seconds: float = 0.0


class _Shared:
    """Lazily built artifacts shared between criteria."""

    def __init__(self, seed):
        self.seed = seed
        self._cache = {}

    def profile(self, p, q, N):
        from .groundstate import shoot
        key = ("prof", p, q, N)
        if key not in self._cache:
            self._cache[key] = shoot(derived_constants(p, q, N), r_max=400.0)
        return self._cache[key]

    def radial_annulus_report(self, p, q, N):
        # no verdict on a radial report reads S, so nothing is shot here
        key = ("rad", p, q, N)
        if key not in self._cache:
            mesh = msh.build("radial-annulus", N, 1.0, 2.0, 257)
            rep = ds.maximize_D(mesh, derived_constants(p, q, N), restarts=4,
                                seed=self.seed)
            self._cache[key] = (mesh, rep)
        return self._cache[key]


def _explicit_bubble(r, N):
    return ((N * (N - 2.0)) ** ((N - 2.0) / 4.0)
            / (1.0 + r ** 2) ** ((N - 2.0) / 2.0))


# -- criteria -----------------------------------------------------------------

def criterion_1_bubble_anchor(shared):
    """Explicit-bubble anchor for the symmetric N=4 point."""
    prof = shared.profile(3.0, 3.0, 4)
    eps = prof.shoot_d / np.sqrt(8.0)
    r = np.linspace(1e-9, 20.0, 4001)
    rel = np.max(np.abs(prof.U_eps(r, eps) - _explicit_bubble(r, 4))
                 / _explicit_bubble(r, 4))
    # S^2 = |S^3| int_0^inf U^4 s^3 ds with the integral exactly 16/3
    S_oracle = np.pi * np.sqrt(32.0 / 3.0)
    s_rel = abs(prof.S / S_oracle - 1.0)
    passed = rel <= 1e-6 and s_rel <= 1e-3
    return CheckResult(
        "1 explicit-bubble anchor", passed,
        f"max profile rel err {rel:.2e} (tol 1e-6); "
        f"S rel err {s_rel:.2e} (tol 1e-3)",
        {"profile_rel_err": rel, "S": prof.S, "S_oracle": S_oracle})


def criterion_2_exponent_identities(shared):
    """Three ExponentPack identities on 50 sampled points per dimension."""
    rng = np.random.default_rng(shared.seed)
    worst = 0.0
    for N in (4, 5, 6, 8):
        lo = 2.0 / (N - 2.0)
        ps = np.exp(rng.uniform(np.log(lo * 1.01), np.log(30.0), size=50))
        for p in ps:
            pk = pack_from_p(p, N)
            worst = max(
                worst,
                abs(1 / (pk.p + 1) + 1 / (pk.q + 1) - (N - 2.0) / N),
                abs(pk.gamma1 + pk.gamma2 - 1.0),
                abs(1 / pk.alpha + 1 / pk.beta - 1 / pk.gamma),
                abs(pk.threshold_exponent - N / 2.0) / (N / 2.0))
    passed = worst <= 1e-12
    return CheckResult("2 exponent identities", passed,
                       f"worst identity residual {worst:.2e} (tol 1e-12)",
                       {"worst": worst})


def criterion_3_dual_energy_identity(shared):
    """Recovered radial-annulus solutions satisfy the dual energy identity,
    small PDE residuals, and the compatibility integrals."""
    rows = {}
    ok = True
    for (p, q, N) in ((2.0, 2.0, 6), (3.0, 3.0, 4)):
        _, rep = shared.radial_annulus_report(p, q, N)
        rows[f"({p:g},{q:g},{N})"] = rep.solution_checks()
        ok = ok and rep.passes()
    detail = "; ".join(
        f"{k}: energy {v['energy_rel']:.1e}, residual {v['residual']:.1e}, "
        f"compat {v['compat']:.1e}" for k, v in rows.items())
    return CheckResult("3 dual/energy identity", ok, detail, rows)


def criterion_4_compactness_threshold(shared):
    """D on the unit ball exceeds 2^(2/N)/S with at least 1% margin."""
    rows = {}
    ok = True
    for (p, q, N) in ((2.0, 2.0, 6), (3.0, 3.0, 4)):
        prof = shared.profile(p, q, N)
        mesh = msh.build("axisym-ball", N, 0.0, 1.0, 96, 72)
        rep = ds.maximize_D(mesh, prof.pack, restarts=4, seed=shared.seed,
                            S=prof.S)
        rows[f"({p:g},{q:g},{N})"] = {"D": rep.D,
                                      "threshold": rep.threshold,
                                      "margin": rep.threshold_margin}
        ok = ok and rep.verdicts()["above compactness threshold"][0]
    detail = "; ".join(f"{k}: margin {v['margin'] * 100:.1f}% (need >= "
                       f"{ds.THRESHOLD_MARGIN:.0%})" for k, v in rows.items())
    return CheckResult("4 compactness threshold", ok, detail, rows)


def criterion_5_test_function_expansion(shared):
    """ratio(eps) - threshold has a positive linear coefficient with a
    confidence interval excluding zero, over one decade of eps."""
    from . import asymptotics as asym
    prof = shared.profile(2.0, 2.0, 6)
    mesh = msh.build("axisym-ball", 6, 0.0, 1.0, 160, 160,
                     theta_grading=2.0, radial_spacing="boundary")
    solver = NeumannSolver(mesh)
    eps = np.geomspace(0.15, 0.015, 7)
    rec = asym.expansion_sweep(solver, prof, prof.S, eps)
    ok = bool(rec.passed)
    return CheckResult(
        "5 test-function expansion", ok,
        f"linear coefficient {rec.fitted_slope:.4f} +- {rec.slope_ci:.4f} "
        "(must be positive with CI excluding 0)",
        {"slope": rec.fitted_slope, "ci": rec.slope_ci,
         "ratios_minus_threshold": list(map(float, rec.values))})


def criterion_6_norm_rate_sweeps(shared):
    """Fitted log-log slopes of the truncated bubble norms match the rate
    predictions (2% pure-power, 5% log-corrected)."""
    from . import asymptotics as asym
    eps = np.geomspace(0.01, 0.0003, 7)
    rows = {}
    ok = True
    for pqN, quantity, label in (((2.0, 2.0, 6), "V_1", "(2,2,6) V_1"),
                                 ((2.0, 2.0, 6), "U_1", "(2,2,6) U_1"),
                                 ((2.75, 1.5, 6), "U_1",
                                  "(2.75,1.5,6) U_1 (log)")):
        rec = asym.norm_rate_sweep(shared.profile(*pqN), quantity, eps)
        rows[label] = {"fitted": rec.fitted_slope,
                       "predicted": rec.predicted_slope}
        ok = ok and rec.passed
    detail = "; ".join(f"{k}: {v['fitted']:.3f} vs {v['predicted']:.3f}"
                       for k, v in rows.items())
    return CheckResult("6 norm-rate sweeps", ok, detail, rows)


def criterion_7_star_properties(shared, pairs=200):
    """Norm preservation, quadratic-form monotonicity and idempotence of
    the flip-&-rearrange transform on random zero-mean radial pairs."""
    star = sym.star_properties(msh.build_equal_volume(6, 1.0, 2.0, 400),
                               derived_constants(2.0, 2.0, 6),
                               np.random.default_rng(shared.seed), pairs)
    worst = {k: v for k, (v, _) in star.items()}
    tol = {k: np.format_float_scientific(gate, trim="-", exp_digits=1)
           for k, gate in sym.STAR_GATES.items()}
    return CheckResult(
        "7 flip-&-rearrange properties",
        all(passed for _, passed in star.values()),
        f"{pairs} pairs: norm drift {worst['norm']:.1e} (tol {tol['norm']}), "
        f"monotonicity excess {worst['mono']:.1e} (tol {tol['mono']}), "
        f"idempotence {worst['idem']:.1e} (tol {tol['idem']})",
        {f"worst_{k}": v for k, v in worst.items()})


def criterion_8_symmetry_breaking(shared):
    """On the annulus the axisymmetric optimum strictly exceeds the radial
    one (beyond refinement noise) and its solution pair is foliated
    Schwarz symmetric but not radial."""
    pack = derived_constants(2.0, 2.0, 6)
    gap = sym.symmetry_gap(pack, 1.0, 2.0, nr=96, ntheta=72,
                           seed=shared.seed, restarts=4)
    fs = sym.fs_check(gap.mesh, gap.axi_report.u, gap.axi_report.v)
    dev_u = sym.radiality_deviation(gap.mesh, gap.axi_report.u)
    noise = max(gap.noise, 1e-14)
    ok = (gap.gap > 3.0 * noise and fs.passed and dev_u > 1e-3)
    return CheckResult(
        "8 symmetry breaking", ok,
        f"gap {gap.gap:.4e} vs 3x noise {3 * noise:.2e}; foliated-Schwarz "
        f"{'pass' if fs.passed else 'fail'}; radiality deviation "
        f"{dev_u:.2e} (must be > 1e-3)",
        {**gap.summary(), "fs": fs.as_dict(), "radiality_dev": dev_u})


def criterion_9_radial_monotonicity(shared):
    """Least-energy radial annulus solutions have u_r v_r > 0 on at least
    99% of interior nodes."""
    rows = {}
    ok = True
    for (p, q, N) in ((2.0, 2.0, 6), (3.0, 3.0, 4)):
        mesh, rep = shared.radial_annulus_report(p, q, N)
        frac = ds.radial_monotonicity_fraction(mesh, rep.u, rep.v)
        rows[f"({p:g},{q:g},{N})"] = frac
        ok = ok and frac >= 0.99
    detail = "; ".join(f"{k}: {100 * v:.1f}%" for k, v in rows.items())
    return CheckResult("9 radial monotonicity", ok, detail, rows)


def criterion_10_cherrier_probe(shared):
    """Boundary-bubble families approach 2^(2/N)/S, interior families 1/S,
    both within asymptotics.LEADING_CONSTANT_TOL (3%)."""
    from . import asymptotics as asym
    prof = shared.profile(2.0, 2.0, 6)
    eps = np.geomspace(0.1, 0.01, 5)
    bnd = asym.leading_constant(prof, "boundary", eps)
    itr = asym.leading_constant(prof, "interior", eps)
    return CheckResult(
        "10 sharpness probe", bnd.passed and itr.passed,
        f"boundary {bnd.leading:.5f} vs {bnd.target:.5f} "
        f"({100 * bnd.rel_err:.2f}%); interior {itr.leading:.5f} vs "
        f"{itr.target:.5f} ({100 * itr.rel_err:.2f}%)",
        {"boundary": bnd.leading, "interior": itr.leading,
         "threshold": bnd.target, "inv_S": itr.target})


def criterion_11_biharmonic_window(shared):
    """The fourth-order window pack (1,9,5) converges on the radial annulus
    with all identity checks of criterion 3."""
    _, rep = shared.radial_annulus_report(1.0, 9.0, 5)
    chk = rep.solution_checks()
    ok = rep.converged and rep.passes()
    return CheckResult(
        "11 biharmonic window", ok,
        f"(1,9,5): converged={rep.converged}, energy {chk['energy_rel']:.1e},"
        f" residual {chk['residual']:.1e}, compat {chk['compat']:.1e}",
        {"D": rep.D, **{k: v for k, v in chk.items() if k != 'nodal'}})


# -- quick battery ------------------------------------------------------------

def quick_battery(shared):
    """Fast closed-form/structural invariants (the quick verify suite)."""
    out = []

    def add(name, passed, detail):
        out.append(CheckResult(f"quick: {name}", bool(passed), detail))

    out.append(criterion_2_exponent_identities(shared))

    m = msh.build("radial-annulus", 4, 1.0, 2.0, 512)
    exact = msh.unit_ball_volume(4) * (2.0 ** 4 - 1.0)
    add("mesh volume annulus N=4", abs(m.volume / exact - 1) < 1e-8,
        f"{m.volume:.10g} vs {exact:.10g}")
    dev = np.max(np.abs(m.laplacian(m.r ** 2)[1:-1] - 8.0))
    add("laplacian r^2 = 2N", dev < 1e-8, f"max dev {dev:.2e}")
    u = np.cos(2.0 * m.r) * m.r
    idy = abs(m.integrate(m.laplacian(u)))  # zero flux through the walls
    add("discrete divergence identity", idy < 1e-8, f"defect {idy:.2e}")

    coarse = msh.build("radial-annulus", 4, 1.0, 2.0, 96)
    lams, vecs = dense_eigenpairs(coarse, k=2)
    sol = NeumannSolver(coarse)
    phi = vecs[:, 1] - coarse.mean(vecs[:, 1])
    err = np.max(np.abs(sol.solve_K(phi) - phi / lams[1]))
    add("K inverts eigenfunction", err < 1e-6 * np.max(np.abs(phi / lams[1])),
        f"err {err:.2e}")

    ev = msh.build_equal_volume(4, 1.0, 2.0, 300)
    sol_ev = NeumannSolver(ev)
    vol = np.where(np.arange(ev.nr) < ev.nr // 3, 1.0, -1.0)
    kap = sol_ev.kappa_shift(vol, 2.0).kappa
    add("kappa two-level closed form", abs(kap - (3 - 2 * np.sqrt(2))) < 1e-6,
        f"{kap:.8f} vs {3 - 2 * np.sqrt(2):.8f}")

    res7 = criterion_7_star_properties(shared, pairs=40)
    res7.name = "quick: " + res7.name
    out.append(res7)

    pack = derived_constants(2.0, 2.0, 6)
    m6 = msh.build("radial-annulus", 6, 1.0, 2.0, 128)
    sol6 = NeumannSolver(m6)
    rng = np.random.default_rng(shared.seed)
    f = rng.standard_normal(m6.nr)
    f -= m6.mean(f)
    g = rng.standard_normal(m6.nr)
    g -= m6.mean(g)
    r1 = ds.rayleigh_ratio(sol6, f, g, pack)
    r2 = ds.rayleigh_ratio(sol6, 2.5 * f, g, pack)
    r3 = ds.rayleigh_ratio(sol6, g, f, pack)
    add("quotient scale/swap invariance",
        abs(r2 - r1) < 1e-12 * abs(r1) and abs(r3 - r1) < 1e-9 * abs(r1),
        f"scale {abs(r2 - r1):.1e}, swap {abs(r3 - r1):.1e}")
    return out


CRITERIA = [
    criterion_1_bubble_anchor,
    criterion_2_exponent_identities,
    criterion_3_dual_energy_identity,
    criterion_4_compactness_threshold,
    criterion_5_test_function_expansion,
    criterion_6_norm_rate_sweeps,
    criterion_7_star_properties,
    criterion_8_symmetry_breaking,
    criterion_9_radial_monotonicity,
    criterion_10_cherrier_probe,
    criterion_11_biharmonic_window,
]


def run_all(quick=False, seed=0):
    """Run the acceptance battery; quick=True runs the fast invariants."""
    shared = _Shared(seed)
    results = []
    if quick:
        for res in quick_battery(shared):
            results.append(res)
        return results
    for crit in CRITERIA:
        t0 = time.time()
        res = crit(shared)
        res.seconds = time.time() - t0
        results.append(res)
    return results
