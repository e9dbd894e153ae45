import re
import types

import numpy as np
import pytest
from math import pi

from lanedual import asymptotics as asym
from lanedual import mesh as msh
from lanedual.exponents import derived_constants, threshold_constant
from lanedual.neumann import NeumannSolver


# -- cap quadrature -----------------------------------------------------------

def test_cap_fraction_limits():
    s = np.array([1e-9, 1.0, 1.999999999])
    f = asym.cap_fraction(s, 1.0, 5)
    assert f[0] == pytest.approx(0.5, abs=1e-6)
    assert 0.0 < f[1] < 0.5
    assert f[2] == pytest.approx(0.0, abs=1e-3)
    assert np.all(np.diff(asym.cap_fraction(np.linspace(0.01, 1.99, 50),
                                            1.0, 5)) < 0)


def _same_bits(a, b):
    return np.asarray(a, float).tobytes() == np.asarray(b, float).tobytes()


def test_stdtrit_is_scipy_special_bit_for_bit():
    from scipy import special
    for prob in (0.975, 0.5, 0.025, 0.995, 1e-10):
        for dof in range(1, 301):
            assert _same_bits(asym.stdtrit(dof, prob),
                              special.stdtrit(dof, prob)), (dof, prob)


@pytest.mark.parametrize("N", range(4, 13))
def test_cap_fraction_is_scipy_betainc_bit_for_bit(N):
    # the parent formula on scipy.special, at x = 1 (s = 0), x = 0 (s = 2R),
    # beyond the ball, NaN, on the boundary family's 4,001-point grid and
    # at 3,996 random points
    from scipy import special
    R = 1.5
    rng = np.random.default_rng(N)
    for s in (np.geomspace(1e-9, 2.0 * R, 4001),
              np.concatenate([[0.0, 2.0 * R, 3.0 * R, np.nan],
                              rng.uniform(0.0, 2.0 * R, 3996)])):
        x = np.clip(1.0 - (s / (2.0 * R)) ** 2, 0.0, 1.0)
        ref = 0.5 * special.betainc((N - 1) / 2.0, 0.5, x)
        assert _same_bits(asym.cap_fraction(s, R, N), ref)
    assert _same_bits(asym.cap_fraction(0.7, R, N),
                      asym.cap_fraction([0.7], R, N)[0])


def test_missing_ufuncs_cxx_file_is_an_import_error_naming_it(monkeypatch,
                                                              tmp_path):
    import scipy
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    with pytest.raises(ImportError,
                       match=re.escape(str(tmp_path / "special"))):
        asym._boost_kernels()


@pytest.mark.parametrize("name", ["_export_t_ppf_double",
                                  "_export_ibeta_double"])
def test_missing_boost_capsule_is_an_import_error_naming_it(monkeypatch,
                                                            name):
    from lanedual import scipy_files
    load = scipy_files.load

    def without_capsule(*parts):
        module = load(*parts)
        return types.SimpleNamespace(
            __file__=module.__file__,
            __pyx_capi__={k: v for k, v in module.__pyx_capi__.items()
                          if k != name})

    monkeypatch.setattr(scipy_files, "load", without_capsule)
    with pytest.raises(ImportError, match=f"exports no {name}$"):
        asym._boost_kernels()


@pytest.mark.parametrize("N", [4, 5, 6])
def test_boundary_ball_integral_of_one_is_volume(N):
    # the cap fraction has a cusp at s = 2R, so the quadrature is a touch
    # less accurate there than in the bubble-concentrated cases it serves
    val, = asym.ball_integral(lambda s: np.ones((1, len(s))), 1.0, N, 1e-9,
                              "boundary")
    assert val == pytest.approx(msh.unit_ball_volume(N), rel=1e-5)


def test_interior_ball_integral_of_one_is_volume():
    val, = asym.ball_integral(lambda s: np.ones((1, len(s))), 1.0, 6, 1e-9,
                              "interior")
    assert val == pytest.approx(msh.unit_ball_volume(6), rel=1e-7)


def test_ball_integral_rejects_an_unknown_family():
    with pytest.raises(ValueError, match="unknown family 'edge'"):
        asym.ball_integral(np.ones_like, 1.0, 6, 1e-9, "edge")


def test_boundary_bubble_half_mass_deficit_linear(profile226):
    # the ball sees half of the entire-space mass minus a positive deficit
    # that scales linearly in eps with coefficient C1 (unit curvature)
    from lanedual.groundstate import radial_moment, scaled_quantities
    pack = profile226.pack
    full = msh.sphere_area(pack.N) * radial_moment(profile226, "U",
                                                   pack.p + 1, pack.N - 1.0)
    C1 = scaled_quantities(profile226, 0.5)["C1"]

    def deficit(eps):
        val, = asym.ball_integral(
            lambda s: profile226.U_eps(s, eps)[None] ** (pack.p + 1), 1.0,
            pack.N, 1e-7 * eps, "boundary")
        return full / 2.0 - val

    d1, d2 = deficit(0.01), deficit(0.005)
    assert d1 > 0 and d2 > 0
    assert d1 / d2 == pytest.approx(2.0, rel=0.1)
    assert d2 / 0.005 == pytest.approx(C1, rel=0.1)


# -- fits ---------------------------------------------------------------------

def test_fit_loglog_recovers_slope():
    eps = np.geomspace(0.2, 0.002, 9)
    vals = 3.0 * eps ** 1.7
    fit = asym.fit_loglog(eps, vals)
    assert fit.slope == pytest.approx(1.7, abs=1e-10)


def test_fit_loglog_with_log_power():
    eps = np.geomspace(0.2, 0.002, 9)
    vals = 2.0 * eps ** 1.2 * np.abs(np.log(eps))
    fit = asym.fit_loglog(eps, vals, log_power=1.0)
    assert fit.slope == pytest.approx(1.2, abs=1e-10)


def test_fit_loglog_guards():
    with pytest.raises(ValueError):
        asym.fit_loglog([0.1, 0.05, 0.02], [1, 2, 3])
    with pytest.raises(ValueError):
        asym.fit_loglog(np.geomspace(0.1, 0.05, 6), np.ones(6))


def test_fit_linear_ci():
    rng = np.random.default_rng(0)
    x = np.linspace(0.01, 0.1, 10)
    y = 0.3 + 2.0 * x + 1e-5 * rng.standard_normal(10)
    fit = asym.fit_linear(x, y)
    assert fit.slope == pytest.approx(2.0, abs=0.01)
    assert fit.ci < 0.01


def test_fit_ci_quantile_is_student_t(monkeypatch):
    # the CI's scipy.special quantile equals scipy.stats' t.ppf bit for bit
    from scipy.stats import t
    for n in range(3, 14):
        x = np.linspace(0.01, 0.1, n)
        y = 0.3 + 2.0 * x + 1e-3 * np.random.default_rng(n).standard_normal(n)
        ci = asym.fit_linear(x, y).ci
        dofs = []

        def reference(dof, prob):
            dofs.append(dof)
            return t.ppf(0.975, dof)

        with monkeypatch.context() as mp:
            mp.setattr(asym, "stdtrit", reference)
            assert asym.fit_linear(x, y).ci == ci
        assert dofs == [n - 2]


# -- norm rates ---------------------------------------------------------------

def test_predicted_rates_match_printed_table(pack226, pack_log6):
    # in the q <= p orientation the general derivation reproduces the
    # printed three-regime table
    slope, lp, _ = asym.predicted_norm_rate(pack226, "V_1")
    assert (slope, lp) == (pytest.approx(2.0), 0.0)       # N/(p+1)
    slope, lp, _ = asym.predicted_norm_rate(pack226, "U_1")
    assert (slope, lp) == (pytest.approx(2.0), 0.0)       # N/(q+1)
    slope, lp, _ = asym.predicted_norm_rate(pack_log6, "U_1")
    assert slope == pytest.approx(6 * 4 / (2 * 5))        # N(N-2)/(2(N-1))
    assert lp == 1.0
    q, p, N = 1.0, 9.0, 5
    pk = derived_constants(p, q, N)
    slope, lp, _ = asym.predicted_norm_rate(pk, "U_1")    # slow regime
    assert slope == pytest.approx(q * N / (p + 1.0))
    assert lp == 0.0


def test_norm_rate_sweep_fast_regime(profile226):
    eps = np.geomspace(0.01, 0.0003, 7)
    rec = asym.norm_rate_sweep(profile226, "V_1", eps)
    assert rec.passed
    assert rec.fitted_slope == pytest.approx(2.0, rel=0.02)
    rec = asym.norm_rate_sweep(profile226, "U_1", eps)
    assert rec.passed


def test_norm_rate_sweep_log_regime(profile_log6):
    eps = np.geomspace(0.01, 0.0003, 7)
    rec = asym.norm_rate_sweep(profile_log6, "U_1", eps)
    assert rec.log_power == 1.0
    assert rec.passed
    assert rec.fitted_slope == pytest.approx(2.4, rel=0.05)


def test_norm_rate_sweep_does_not_widen_to_the_ci(monkeypatch, profile226):
    # a noisy V_1 sweep of slope about 2.15 against the predicted 2: its CI
    # covers the prediction, but the miss is above NORM_RATE_TOL
    def noisy(profile, name, eps, R_domain):
        return eps ** 2.15 * np.exp(0.3 * np.sin(7.0 * np.log(eps)))

    monkeypatch.setattr(asym, "truncated_norm", noisy)
    rec = asym.norm_rate_sweep(profile226, "V_1",
                               np.geomspace(0.01, 0.0003, 7))
    miss = abs(rec.fitted_slope - rec.predicted_slope)
    assert rec.predicted_slope == pytest.approx(2.0)
    assert asym.NORM_RATE_TOL * 2.0 < miss <= rec.slope_ci
    assert rec.passed is False


def test_sweep_record_serializable(profile226):
    eps = np.geomspace(0.05, 0.001, 6)
    rec = asym.norm_rate_sweep(profile226, "V_1", eps)
    import json
    json.dumps(rec.as_dict())


# -- boundary terms -----------------------------------------------------------

def test_boundary_pairing_negative(profile226):
    for eps in (0.1, 0.02, 0.005):
        assert asym.boundary_pairing(profile226, eps) < 0.0


def test_boundary_term_sweep_rate(profile226):
    eps = np.geomspace(0.01, 0.0002, 8)
    rec = asym.boundary_term_sweep(profile226, eps)
    # fast regime: N/2 - N/(p+1) = 1
    assert rec.predicted_slope == pytest.approx(1.0)
    assert rec.passed
    assert rec.extras["all_negative"]


def test_normal_derivative_rate_is_log_corrected_at_N4(pack334):
    # U ~ r^-2 = r^(-N/2): the boundary integral of |d_nu U_eps|^(3/2)
    # takes a log, so the norm carries |log eps|^(N/(2(N-1))) = ^(2/3)
    slope, lp, prov = asym.predicted_normal_derivative_rate(pack334)
    assert slope == pytest.approx(1.0)
    assert lp == pytest.approx(2.0 / 3.0)
    assert "log-corrected" in prov
    # at q = N/(N-2) = 2 the tail's own log adds one: U ~ r^-2 log r
    slope, lp, _ = asym.predicted_normal_derivative_rate(
        derived_constants(5.0, 2.0, 4))
    assert slope == pytest.approx(4.0 / 3.0)
    assert lp == pytest.approx(5.0 / 3.0)


def test_boundary_term_sweep_does_not_widen_to_the_ci(monkeypatch,
                                                      profile226):
    # a noisy normal-derivative norm of slope about 1.07 against the
    # predicted 1: its CI covers the prediction, but the miss is above
    # BOUNDARY_RATE_TOL
    def noisy(profile, eps, R):
        return eps ** 1.1 * np.exp(0.3 * np.sin(7.0 * np.log(eps)))

    monkeypatch.setattr(asym, "boundary_normal_norm", noisy)
    rec = asym.boundary_term_sweep(profile226, np.geomspace(0.02, 0.0005, 8))
    miss = abs(rec.fitted_slope - rec.predicted_slope)
    assert rec.predicted_slope == pytest.approx(1.0)
    assert rec.extras["all_negative"]
    assert asym.BOUNDARY_RATE_TOL < miss <= rec.slope_ci
    assert rec.passed is False


def test_boundary_term_sweep_biharmonic_flat_rate(profile195):
    # (1,9,5): q = 9 > (N+4)/(2(N-2)) = 1.5 -> fast regime,
    # slope N/2 - N/(p+1) = 2.5 - 2.5 = 0
    eps = np.geomspace(0.02, 0.0005, 8)
    rec = asym.boundary_term_sweep(profile195, eps)
    assert rec.predicted_slope == pytest.approx(0.0, abs=1e-12)
    assert abs(rec.fitted_slope) <= 0.05


# -- test-function quotient ---------------------------------------------------

@pytest.fixture(scope="module")
def ball_solver_226():
    m = msh.build("axisym-ball", 6, 0.0, 1.0, 96, 72, theta_grading=2.0,
                  radial_spacing="boundary")
    return NeumannSolver(m)


def test_ratio_exceeds_threshold(ball_solver_226, profile226):
    T = threshold_constant(profile226.pack, profile226.S)
    ratio = asym.test_function_ratio(ball_solver_226, profile226, 0.1)
    assert ratio > T


def test_ratio_feeds_maximizer(ball_solver_226, profile226, pack226):
    from lanedual.dualsolve import maximize_D
    eps = 0.1
    ratio = asym.test_function_ratio(ball_solver_226, profile226, eps)
    Ue, Ve = asym.bubble_fields(ball_solver_226.mesh, profile226, eps)
    m = ball_solver_226.mesh
    Ut = Ue ** pack226.p
    Vt = Ve ** pack226.q
    rep = maximize_D(m, pack226, restarts=0, seed=0,
                     extra_inits=[(Ut - m.mean(Ut), Vt - m.mean(Vt))])
    assert rep.D >= ratio - 1e-10


def test_min_resolvable_eps_guard(ball_solver_226, profile226):
    lo = asym.min_resolvable_eps(ball_solver_226.mesh, profile226)
    with pytest.raises(ValueError):
        asym.test_function_ratio(ball_solver_226, profile226, lo / 4.0)


# -- sharpness probe ----------------------------------------------------------

def test_cherrier_probe_boundary_and_interior(profile226):
    pack = profile226.pack
    T = threshold_constant(pack, profile226.S)
    eps_grid = np.geomspace(0.1, 0.01, 4)
    rows_b = asym.cherrier_probe(profile226, "boundary", eps_grid)
    lead_b = rows_b[-1]["leading"]["0.0"]
    assert lead_b == pytest.approx(T, rel=0.03)
    rows_i = asym.cherrier_probe(profile226, "interior", eps_grid)
    lead_i = rows_i[-1]["leading"]["0.0"]
    assert lead_i == pytest.approx(1.0 / profile226.S, rel=0.03)
    # boundary constant strictly exceeds the interior one (factor 2^{2/N})
    assert lead_b > lead_i


@pytest.mark.parametrize("family", ["boundary", "interior"])
def test_cherrier_probe_rows_equal_four_separate_integrals(profile226,
                                                           family):
    # the four integrands share one cap evaluation per eps, and each
    # integral keeps the bits of its own ball_integral call
    pack = profile226.pack
    p, q, N, eta = pack.p, pack.q, pack.N, pack.beta
    rows = asym.cherrier_probe(profile226, family,
                               np.geomspace(0.1, 0.002, 5))
    for row in rows:
        eps = row["eps"]

        def norm(fun, expo):
            val, = asym.ball_integral(lambda s: fun(s)[None], 1.0, N,
                                      1e-7 * eps, family).tolist()
            return val ** (1.0 / expo)

        u_star = norm(lambda s: profile226.U_eps(s, eps) ** (p + 1.0),
                      p + 1.0)
        lap = norm(lambda s: profile226.V_eps(s, eps) ** (q * eta), eta)
        w1 = (norm(lambda s: profile226.U_eps(s, eps) ** eta, eta)
              + norm(lambda s: np.abs(profile226.dU_eps(s, eps)) ** eta,
                     eta))
        assert (row["u_star"], row["lap"], row["w1"]) == (u_star, lap, w1)
        assert row["leading"] == {str(c): (u_star - c * w1) / lap
                                  for c in asym.C_LO_GRID}


def test_cherrier_probe_lower_constant_decreases(profile226):
    rows = asym.cherrier_probe(profile226, "boundary",
                               np.geomspace(0.05, 0.02, 2))
    for row in rows:
        assert row["leading"]["1.0"] < row["leading"]["0.0"]

