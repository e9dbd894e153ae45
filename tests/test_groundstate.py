import math
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad, simpson, solve_ivp
from scipy.optimize import brentq

from lanedual import groundstate as gs
from lanedual.exponents import derived_constants
from lanedual.groundstate import (
    DivergentTailError,
    ShootingError,
    TailError,
    radial_moment,
    scaled_quantities,
    shoot,
)
from lanedual.mesh import sphere_area


def explicit_bubble(r, N):
    """Closed-form entire-space bubble for the symmetric exponent point."""
    return (N * (N - 2.0)) ** ((N - 2.0) / 4.0) / (1.0 + r ** 2) ** ((N - 2.0) / 2.0)


# -- shooting ---------------------------------------------------------------

def test_shoot_symmetric_point_matches_explicit_bubble(profile334):
    # rescale the V(0)=1 member to the explicit normalization and compare
    prof = profile334
    eps = prof.shoot_d / np.sqrt(8.0)  # U_eps(0) = sqrt(8)
    r = np.linspace(0.0, 20.0, 2001)
    Ue = prof.U_eps(np.maximum(r, 1e-12), eps)
    Uex = explicit_bubble(r, 4)
    rel = np.max(np.abs(Ue - Uex) / Uex)
    assert rel <= 1e-6
    assert prof.U_eps(1e-12, eps) == pytest.approx(np.sqrt(8.0), rel=1e-9)
    assert Uex[r == 1.0][0] == pytest.approx(np.sqrt(8.0) / 2.0, rel=1e-12)
    # between the stored radii the interpolant is that bubble too: with
    # U(0) = 1 it reads U = 1/(1 + r^2/8) (d* = 1 to 4e-13)
    x = np.sqrt(prof.r[1:-1] * prof.r[2:])
    x = x[x < 20.0]
    U = 1.0 / (1.0 + x ** 2 / 8.0)
    assert np.max(np.abs(prof.eval(x, "U") / U - 1.0)) <= 1e-9
    assert np.max(np.abs(prof.eval(x, "dU") / (-x / 4.0 * U ** 2)
                         - 1.0)) <= 1e-9


def test_shoot_symmetric_point_U_equals_V(profile226):
    prof = profile226
    assert abs(prof.shoot_d - 1.0) < 1e-12
    m = prof.r <= prof.r_max
    assert np.max(np.abs(prof.U[m] - prof.V[m])) < 1e-8


def test_shoot_positive_decreasing(profile195):
    prof = profile195
    inside = (prof.r > 0) & (prof.r <= prof.r_max)
    assert np.all(prof.U[inside] > 0) and np.all(prof.V[inside] > 0)
    assert np.all(np.diff(prof.U[inside]) < 0)
    assert np.all(np.diff(prof.V[inside]) < 0)


def test_shoot_biharmonic_against_collocation_bvp(profile195):
    # independent boundary-value re-solve: finite-difference collocation
    # with Newton on the truncated domain, far-field data at L, origin
    # regularity by even reflection, Richardson-extrapolated in h. Checks
    # both the recovered U(0) and the interior field against the shoot.
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    prof = profile195
    p, q, N = 1.0, 9.0, 5
    L = 60.0

    def fd_resolve(n):
        r = np.linspace(0.0, L, n + 1)[1:]
        h = r[1] - r[0]
        main = np.full(n, -2.0 / h ** 2)
        up = 1.0 / h ** 2 + (N - 1) / r[:-1] / (2 * h)
        lo = 1.0 / h ** 2 - (N - 1) / r[1:] / (2 * h)
        Lap = sp.diags([lo, main, up], [-1, 0, 1]).tolil()
        Lap[0, 0] += 1.0 / h ** 2 - (N - 1) / r[0] / (2 * h)
        Lap = Lap.tocsc()
        cb = 1.0 / h ** 2 + (N - 1) / r[-1] / (2 * h)
        bU = np.zeros(n)
        bU[-1] = cb * prof.eval(L + h, "U")[0]
        bV = np.zeros(n)
        bV[-1] = cb * prof.eval(L + h, "V")[0]
        # perturbed start so the oracle genuinely re-solves
        U = prof.eval(r, "U") * (1 + 1e-3)
        V = prof.eval(r, "V") * (1 + 1e-3)
        for _ in range(60):
            FU = Lap @ U + bU + np.sign(V) * np.abs(V) ** q
            FV = Lap @ V + bV + np.sign(U) * np.abs(U) ** p
            if max(np.max(np.abs(FU)), np.max(np.abs(FV))) < 1e-12:
                break
            J = sp.bmat([[Lap, sp.diags(q * np.abs(V) ** (q - 1))],
                         [sp.diags(np.full(n, p)), Lap]], format="csc")
            step = spla.splu(J).solve(-np.concatenate([FU, FV]))
            U += step[:n]
            V += step[n:]
        return r, U

    r1, U1 = fd_resolve(8000)
    r2, U2 = fd_resolve(16000)
    d1 = U1[0] + r1[0] ** 2 / (2 * N)
    d2 = U2[0] + r2[0] ** 2 / (2 * N)
    d_ext = d2 + (d2 - d1) / 3.0
    assert d_ext == pytest.approx(prof.shoot_d, abs=1e-5)
    U_ext = U2[1::2] + (U2[1::2] - U1) / 3.0
    m = (r1 > 0.1) & (r1 < 30.0)
    mism = np.max(np.abs(U_ext[m] - prof.eval(r1[m], "U"))
                  / prof.eval(r1[m], "U"))
    assert mism <= 1e-5


def test_shoot_rmax_doubling(pack334):
    # a too-small r_max fails the plateau test and is doubled automatically
    prof = shoot(pack334, r_max=20.0)
    assert prof.r_max >= 40.0
    assert prof.S == pytest.approx(np.sqrt(32.0 / 3.0) * np.pi, rel=1e-3)


# -- root-find ---------------------------------------------------------------

R_MAX, RTOL, TOL = 400.0, gs.RTOL, gs.TOL


def sign_bisection(pack):
    """Reference: plain bisection on the sign of the miss from the scan
    bracket, with the shooter's stopping rule and no Brent steering."""
    work = Counter()
    lo, hi, _ = gs._bracket(pack, R_MAX, work)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi) or hi - lo <= max(TOL * mid, 4 * np.spacing(mid)):
            return 0.5 * (lo + hi)
        if gs._miss(pack, mid, R_MAX, RTOL, work) > 0:
            hi = mid
        else:
            lo = mid


@pytest.mark.parametrize("profile", ["profile334", "profile226",
                                     "profile_log6", "profile195"])
def test_eval_reads_the_stored_samples(profile, request):
    # both are the final run's interpolant at the same radii
    prof = request.getfixturevalue(profile)
    for which in ("U", "V", "dU", "dV"):
        stored = getattr(prof, which)[1:]
        assert (prof.eval(prof.r[1:], which).tobytes()
                == stored.tobytes())


@pytest.mark.parametrize("profile", ["profile334", "profile226",
                                     "profile_log6", "profile195"])
def test_shoot_matches_plain_sign_bisection(profile, request):
    prof = request.getfixturevalue(profile)
    d_ref = sign_bisection(prof.pack)
    assert prof.shoot_d == d_ref
    assert prof.S == gs._profile(prof.pack, d_ref, R_MAX, Counter()).S


# RHS calls of each shoot; they pin the scan's rtol too: at 1e-9 instead of
# gs.SCAN_RTOL the (2,2,6) and (1,9,5) shoots make 8252 and 34037
SHOOT_RHS_EVALS = {(3.0, 3.0, 4): 5912, (2.0, 2.0, 6): 8276,
                   (2.75, 1.5, 6): 34066, (1.0, 9.0, 5): 34049}


@pytest.mark.parametrize("pqN, count", [((3.0, 3.0, 4), 4),
                                        ((2.0, 2.0, 6), 4),
                                        ((2.75, 1.5, 6), 17),
                                        ((1.0, 9.0, 5), 22)])
def test_shoot_integration_count(monkeypatch, pqN, count):
    # a plain sign bisection makes 42, 42, 42 and 44 integrations here;
    # Brent from ends integrated again at the bisection's rtol made 6, 6,
    # 19 and 24
    integrate, calls = gs.solve_ivp, []

    def counting(*args, **kwargs):
        calls.append(integrate(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(gs, "solve_ivp", counting)
    prof = shoot(derived_constants(*pqN), r_max=R_MAX)
    assert len(calls) == count
    rhs_evals = SHOOT_RHS_EVALS[pqN]
    assert sum(sol.nfev for sol in calls) == rhs_evals
    assert prof.work == {"integrations": count, "rhs_evals": rhs_evals}


def projected_offset_difference(pack, sol):
    """Reference c0 of a run that reached r_max."""
    U, dU, V, dV = sol.y
    r = sol.t

    def proj(W, dW, src):
        m, l = gs.decay_law(src, pack.N)
        lam = -1.0 / m if l == 0 else -np.log(r) / (m * np.log(r) + 1.0)
        return W + lam * r * dW

    return proj(U, dU, pack.q) - proj(V, dV, pack.p)


@pytest.mark.parametrize("profile", ["profile334", "profile226",
                                     "profile_log6", "profile195"])
def test_miss_sign_matches_crossing_label(profile, request, monkeypatch):
    prof = request.getfixturevalue(profile)
    pack = prof.pack
    integrate, runs = gs._integrate, []

    def recording(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(gs, "_integrate", recording)
    kinds, work = set(), Counter()
    for delta in (1e-1, 1e-3, 1e-5, 1e-7, 1e-9, 1e-11):
        for d in (prof.shoot_d * (1 - delta), prof.shoot_d * (1 + delta)):
            miss = gs._miss(pack, d, R_MAX, RTOL, work)
            sol = runs[-1]
            if sol.crossed == 0:
                kinds.add("U")
                assert miss < 0, (d, miss)
            elif sol.crossed == 1:
                kinds.add("V")
                assert miss > 0, (d, miss)
            else:
                kinds.add("r_max")
                c0 = projected_offset_difference(pack, sol)
                assert (miss > 0) == (c0 > 0), (d, miss, c0)
    assert kinds == {"U", "V", "r_max"}


# -- the integrator, against scipy's DOP853 -----------------------------------

# d* and S at r_max = 400 as shot through scipy's solve_ivp(method="DOP853")
SCIPY_D_STAR = {(3.0, 3.0, 4): 1.0000000000003637,
                (2.0, 2.0, 6): 1.0000000000003637,
                (2.75, 1.5, 6): 1.1000754602555385,
                (1.0, 9.0, 5): 0.4879500364765932}
SCIPY_S = {(3.0, 3.0, 4): 10.260398640786528,
           (2.0, 2.0, 6): 19.259456665720048,
           (2.75, 1.5, 6): 18.72122540869203,
           (1.0, 9.0, 5): 10.118468870716608}
PROFILES = {(3.0, 3.0, 4): "profile334", (2.0, 2.0, 6): "profile226",
            (2.75, 1.5, 6): "profile_log6", (1.0, 9.0, 5): "profile195"}


def run_both(pqN, d, r_end, dense_output=False, t_eval=None):
    """The run of the shooter from U(0) = d through gs.solve_ivp, and the
    same run through scipy's solve_ivp (which alone takes t_eval)."""
    pack = derived_constants(*pqN)
    r0, y0 = gs.R_START, gs._series(pack, d, gs.R_START)

    def ev_U(r, y):
        return y[0]

    def ev_V(r, y):
        return y[2]

    ev_U.terminal = ev_V.terminal = True
    ours = gs.solve_ivp(gs._rhs(pack), (r0, r_end), y0, rtol=RTOL,
                        dense_output=dense_output)
    ref = solve_ivp(gs._rhs(pack), (r0, r_end), y0, method="DOP853",
                    rtol=RTOL, atol=1e-300, events=(ev_U, ev_V),
                    dense_output=dense_output, t_eval=t_eval)
    return ours, ref


@pytest.mark.parametrize("pqN", SCIPY_D_STAR)
def test_dop853_steps_as_scipy(pqN):
    ours, ref = run_both(pqN, SCIPY_D_STAR[pqN], 4.0)
    assert ref.status == 0 and ours.crossed is None
    assert ours.nfev == ref.nfev and isinstance(ours.nfev, int)
    assert np.max(np.abs(np.array(ours.y) / ref.y[:, -1] - 1.0)) <= 1e-12


def test_dop853_without_t_eval_keeps_the_final_state():
    ours, ref = run_both((2.0, 2.0, 6), SCIPY_D_STAR[(2.0, 2.0, 6)], 4.0)
    assert type(ours.t) is float and len(ours.y) == 4
    assert ours.t == 4.0 == ref.t[-1]
    assert ours.dense is None


@pytest.mark.parametrize("shift", [-1e-3, 1e-3])
@pytest.mark.parametrize("pqN", SCIPY_D_STAR)
def test_dop853_crossing_as_scipy(pqN, shift):
    # too small a d: U crosses zero; too large: V does
    ours, ref = run_both(pqN, SCIPY_D_STAR[pqN] * (1.0 + shift), R_MAX)
    assert ref.status == 1
    crossed = 1 if shift > 0 else 0
    assert ours.crossed == crossed
    assert [te.size for te in ref.t_events] == [crossed == 0, crossed == 1]
    assert ours.t == pytest.approx(ref.t_events[crossed][0], rel=1e-10)


@pytest.mark.parametrize("pqN", SCIPY_D_STAR)
def test_dop853_t_eval_as_scipy(pqN):
    # Samples sit inside steps on the 7th-order interpolant, whose own
    # error is ~1e-11 at rtol 1e-11; the first step sizes follow
    # roundoff-level error estimates, so sample agreement is bounded by
    # the interpolant's error, not by rounding.
    grid = np.geomspace(gs.R_START, 4.0, 500)
    ours, ref = run_both(pqN, SCIPY_D_STAR[pqN], 4.0, dense_output=True)
    sampled = run_both(pqN, SCIPY_D_STAR[pqN], 4.0, t_eval=grid)[1]
    assert np.array_equal(sampled.t, grid)
    scale = np.max(np.abs(sampled.y), axis=1, keepdims=True)
    assert np.max(np.abs(ours.dense(grid) - sampled.y) / scale) <= 1e-10
    # the same steps, and the same interpolant inside them
    assert ours.dense.t_end.size == ref.sol.n_segments
    assert ours.nfev == ref.nfev
    mids = 0.5 * (ref.sol.ts[:-1] + ref.sol.ts[1:])
    assert np.max(np.abs(ours.dense(mids) - ref.sol(mids)) / scale) <= 1e-10


def test_dop853_step_size_failure_as_scipy():
    # U' = U^2 from U(0) = 1 blows up at t = 1
    def rhs(t, y):
        return (y[0] * y[0], 0.0, 0.0, 0.0)

    y0 = (1.0, 0.0, 1.0, 0.0)
    ref = solve_ivp(rhs, (0.0, 2.0), y0, method="DOP853", rtol=RTOL,
                    atol=1e-300)
    assert ref.status == -1
    with pytest.raises(ShootingError, match="step size underflow") as e:
        gs.solve_ivp(rhs, (0.0, 2.0), y0, rtol=RTOL)
    r_stop = float(str(e.value).rsplit("r = ", 1)[1])
    assert r_stop == pytest.approx(ref.t[-1], rel=1e-12)


def test_dop853_rejects_nonfinite_initial_state(pack226):
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            gs.solve_ivp(gs._rhs(pack226), (gs.R_START, 1.0),
                         (bad, 0.0, 1.0, 0.0), rtol=RTOL)


@pytest.mark.parametrize("N", [5, 6])
def test_overflowing_run_is_a_shooting_error(N):
    # at p = 200 the right-hand side's |U|^p and the series start's d^p
    # overflow Python floats (OverflowError, where numpy gives inf): the
    # scan's run from U(0) = 1.4, or a series start from a large U(0)
    pack = derived_constants(200.0, None, N)
    with pytest.raises(ShootingError, match=r"U\(0\) = 1\.4 .*OverflowError"):
        gs.shoot(pack)
    with pytest.raises(ShootingError, match=r"U\(0\) = 1e\+100 "):
        gs._integrate(pack, 1e100, 400.0, RTOL, Counter())


@pytest.mark.parametrize("pqN", SCIPY_D_STAR)
def test_shoot_unchanged_from_scipy_integrator(pqN, request):
    prof = request.getfixturevalue(PROFILES[pqN])
    assert prof.shoot_d == SCIPY_D_STAR[pqN]
    assert prof.S == pytest.approx(SCIPY_S[pqN], rel=1e-8)


# -- Brent and Simpson, bit for bit against scipy ----------------------------

def _random_bracketed(rng):
    """(f, a, b): a random function with a sign change in [a, b]."""
    root = rng.uniform(-2.0, 2.0)
    a, b = root - rng.uniform(1e-3, 3.0), root + rng.uniform(1e-3, 3.0)
    c = rng.uniform(0.1, 5.0)
    k = int(rng.integers(1, 5)) * 2 + 1
    f = [lambda x: (x - root) * (1.0 + c * (x - root) ** 2),
         lambda x: math.tanh(c * (x - root)),
         lambda x: math.expm1(c * (x - root)) - 1e-3 * c,
         lambda x: (x - root) ** k,
         lambda x: math.atan(x - root) + 1e-9 * math.sin(1e7 * x),
         lambda x: math.copysign(abs(x - root) ** (1.0 / k), x - root),
         # products of two values underflow: the sign tests must not use them
         lambda x: 1e-170 * math.tanh(c * (x - root))][int(rng.integers(7))]
    return (f, a, b) if rng.random() < 0.5 else (f, b, a)


def _recording(f, calls):
    def g(x):
        calls.append(x)
        return f(x)
    return g


def test_brentq_as_scipy():
    rng = np.random.default_rng(20)
    unconverged = 0
    for _ in range(2000):
        f, a, b = _random_bracketed(rng)
        if math.copysign(1.0, f(a)) == math.copysign(1.0, f(b)):
            continue
        xtol = 10.0 ** rng.uniform(-16.0, -2.0)
        ours, ref = [], []
        try:
            root = brentq(_recording(f, ref), a, b, xtol=xtol)
        except RuntimeError:  # the noisy atan at a small xtol
            with pytest.raises(gs.RootNotConvergedError):
                gs._brentq(_recording(f, ours), a, b, xtol)
            unconverged += 1
        else:
            assert gs._brentq(_recording(f, ours), a, b, xtol).hex() \
                == root.hex()
        assert ours == ref
    assert 0 < unconverged < 200


def test_brentq_failures_are_shooting_errors():
    def step(x):
        return 1.0 if x > 0 else -1.0

    ours, ref = [], []
    with pytest.raises(gs.RootNotConvergedError, match="100 iterations"):
        gs._brentq(_recording(step, ours), -1.0, 3.0, 1e-300)
    with pytest.raises(RuntimeError, match="100 iterations"):
        brentq(_recording(step, ref), -1.0, 3.0, xtol=1e-300)
    assert ours == ref and len(ours) == 102
    for f, message in ((lambda x: x * x + 1.0, "no sign change"),
                       (lambda x: np.nan if x > 0.5 else x - 0.7, "NaN")):
        with pytest.raises(ShootingError, match=message):
            gs._brentq(f, 0.0, 1.0, 1e-12)
        with pytest.raises(ValueError):
            brentq(f, 0.0, 1.0, xtol=1e-12)


def _grids(n, rng):
    yield np.geomspace(1e-6, 400.0, n)
    for _ in range(10):
        yield np.cumsum(rng.uniform(0.01, 1.0, n))


@pytest.mark.parametrize("n", [3, 4, 5, 3000, 3001, 4000, 4001])
def test_simpson_as_scipy(n):
    if n % 2 == 0:  # where scipy adds Cartwright's last-interval correction
        with pytest.raises(ValueError, match=f"odd number of points, got {n}"):
            gs.simpson(np.ones(n), np.arange(n, dtype=float))
        return
    rng = np.random.default_rng(n)
    for x in _grids(n, rng):
        for y in (rng.standard_normal(n), np.exp(-x) * x ** 3):
            assert gs.simpson(y, x).tobytes() == simpson(y, x=x).tobytes()


# -- fitted constants -------------------------------------------------------

def test_profile_constants_explicit_plateau(profile334):
    prof = profile334
    # V(0)=1 member has r^2 V -> 8; the explicit member's plateau is
    # a_eps = a * eps^(N/(p+1)) = 8/sqrt(8) = sqrt(8)
    a, b = prof.tails["V"].c, prof.tails["U"].c
    assert a == pytest.approx(8.0, rel=2e-3)
    assert b == pytest.approx(a, rel=1e-6)
    eps = prof.shoot_d / np.sqrt(8.0)
    assert a * eps == pytest.approx(np.sqrt(8.0), rel=2e-3)


def test_regime_labels(profile226, profile334, profile195):
    # U's tail follows q: 2 > 6/4 at (2,2,6), 3 > 4/2, 9 > 5/3 at (1,9,5)
    for prof in (profile226, profile334, profile195):
        pack = prof.pack
        assert gs.regime_label(pack.q, pack.N, "q") == "q>N/(N-2)"
        assert prof.tails["U"].l == 0
        assert prof.tails["U"].m == 2.0 - pack.N


@pytest.mark.parametrize("profile", ["profile195", "profile_log6"])
def test_fitted_constants_belong_to_their_components(profile, request):
    # tails["U"] fits U's tail, whose law q sets; tails["V"] fits V's (p)
    prof = request.getfixturevalue(profile)
    pack, r = prof.pack, prof.r[-1]
    for W, tail, src in ((prof.U, prof.tails["U"], pack.q),
                         (prof.V, prof.tails["V"], pack.p)):
        m, l = gs.decay_law(src, pack.N)
        assert (tail.m, tail.l) == (m, l)
        law = tail.c * r ** m * (np.log(r) + tail.off) ** l
        assert W[-1] == pytest.approx(law, rel=gs.PLATEAU_DRIFT)


@pytest.mark.parametrize("profile", ["profile226", "profile_log6"])
def test_tail_slope_is_the_derivative_of_the_tail(profile, request):
    # boundary_term_sweep reads dU_eps and dV_eps far beyond r_max
    prof = request.getfixturevalue(profile)
    r = prof.r_max * np.geomspace(1.0, 1e4, 9)
    h = 1e-5 * r
    for tail in prof.tails.values():
        centred = (tail(r + h) - tail(r - h)) / (2 * h)
        assert np.allclose(tail(r, slope=True), centred, rtol=1e-8, atol=0)


@pytest.mark.parametrize("profile", ["profile226", "profile_log6"])
def test_tail_continues_the_dense_output(profile, request):
    prof = request.getfixturevalue(profile)
    r = prof.r_max
    for c, which in enumerate(gs._COMPONENTS):
        tail = prof.tails[which[-1]](r, slope=which[0] == "d")
        dense = prof.dense.component(c, np.array([r]))[0]
        assert tail == pytest.approx(dense, rel=gs.PLATEAU_DRIFT)
        # eval switches from the dense output to the tail past r_max
        beyond = prof.eval(np.nextafter(r, np.inf), which)[0]
        assert beyond == pytest.approx(dense, rel=gs.PLATEAU_DRIFT)


@pytest.mark.parametrize("N", [4, 5, 6])
def test_regime_edges(N):
    # within REGIME_TOL of N/(N-2) the tail is marginal; beyond it, not
    crit = N / (N - 2.0)
    for shift, relation in ((-2.0, "<"), (-0.5, "="), (0.5, "="), (2.0, ">")):
        src = crit + shift * gs.REGIME_TOL
        m, l = gs.decay_law(src, N)
        if relation == "<":
            assert (m, l) == (2.0 - src * (N - 2.0), 0) and m > 2.0 - N
        else:
            assert (m, l) == (2.0 - N, int(relation == "="))
        assert gs.regime_label(src, N, "p") == f"p{relation}N/(N-2)"


def test_S_explicit_value(profile334):
    # S^{N/2} = int U*^4 = 32 pi^2/3 for the explicit bubble
    S_exact = np.sqrt(32.0 * np.pi ** 2 / 3.0)
    assert profile334.S == pytest.approx(S_exact, rel=1e-3)


def test_S_against_quadrature_of_explicit_profile(profile334):
    val, _ = quad(lambda r: explicit_bubble(r, 4) ** 4 * r ** 3, 0, np.inf)
    S_oracle = (sphere_area(4) * val) ** 0.5
    assert profile334.S == pytest.approx(S_oracle, rel=1e-3)


def test_S_symmetric_in_pq(profile195):
    swapped = shoot(derived_constants(9.0, 1.0, 5), r_max=400.0)
    assert swapped.S == pytest.approx(profile195.S, rel=5e-3)


def test_S_biharmonic_against_constrained_minimization(profile195):
    # Rayleigh-quotient minimization of ||Delta u||_2 / ||u||_10 (the
    # swapped-orientation constant, equal to S_{1,9} by symmetry) over
    # radial grid functions vanishing at the truncation radius, solved by
    # the stationarity fixed point in the source variable g = -Delta(u)
    # (u recovered by a sparse solve). Independent of the shooting /
    # quadrature path being verified. The quotient's slowest truncation
    # tail here is ||g||_2 ~ 1/L, hence the large radius.
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    N = 5
    p_sw = 9.0                      # swapped orientation (beta = 2)
    L, n = 2000.0, 40000
    r = np.linspace(0.0, L, n + 1)[1:]  # u(L)=0 via truncation
    h = r[1] - r[0]
    w = sphere_area(N) * r ** (N - 1) * h

    main = np.full(n, -2.0 / h ** 2)
    up = 1.0 / h ** 2 + (N - 1) / r[:-1] / (2 * h)
    lo = 1.0 / h ** 2 - (N - 1) / r[1:] / (2 * h)
    Lap = sp.diags([lo, main, up], [-1, 0, 1]).tolil()
    Lap[0, 0] += 1.0 / h ** 2 - (N - 1) / r[0] / (2 * h)  # reflect at origin
    lu = spla.splu(Lap.tocsc())
    luT = spla.splu(Lap.T.tocsc())

    def quotient(g):
        u = lu.solve(-g)
        return (np.sqrt(w @ g ** 2)
                / (w @ np.abs(u) ** (p_sw + 1)) ** (1 / (p_sw + 1)))

    g = (1.0 + r ** 2) ** (-1.5)
    for _ in range(400):
        u = lu.solve(-g)
        gn = -luT.solve(w * np.abs(u) ** p_sw * np.sign(u)) / w
        gn /= np.sqrt(w @ gn ** 2)
        drift = np.max(np.abs(gn - g / np.sqrt(w @ g ** 2)))
        g = gn
        if drift < 1e-12:
            break
    S_oracle = quotient(g)
    assert S_oracle == pytest.approx(profile195.S, rel=5e-3)


# -- scaled quantities ------------------------------------------------------

def test_scaled_norm_ratio_prediction(profile226):
    # ||V_eps||_1 halving ratio ~ 2^{-N/(p+1)} deep in the asymptotic range
    pack = profile226.pack
    e1, e2 = 4e-3, 2e-3
    n1 = scaled_quantities(profile226, e1)["V_1"]
    n2 = scaled_quantities(profile226, e2)["V_1"]
    pred = 2.0 ** (-pack.N / (pack.p + 1.0))
    assert n2 / n1 == pytest.approx(pred, rel=0.02)


def test_scaled_identity_at_eps_one(profile226):
    out = scaled_quantities(profile226, 1.0)
    direct = sphere_area(6) * radial_moment(profile226, "U", 1.0, 5.0,
                                            upper=1.0)
    assert out["U_1"] == pytest.approx(direct, rel=1e-12)


def test_C1_against_explicit_quadrature(profile334):
    # (1/2) int_{R^3} |y'|^2 U*^4 dy' = 4 pi^2 for the explicit member;
    # the shoot member scales by eps = d/sqrt(8)
    out = scaled_quantities(profile334, 0.5)
    eps = profile334.shoot_d / np.sqrt(8.0)
    val, _ = quad(lambda s: s ** 4 * explicit_bubble(s, 4) ** 4, 0, np.inf)
    C1_explicit = 0.5 * sphere_area(3) * val
    assert C1_explicit == pytest.approx(4 * np.pi ** 2, rel=1e-9)
    assert out["C1"] * eps == pytest.approx(C1_explicit, rel=5e-3)


def test_C1_divergence_reported(profile195):
    # (1,9,5): the |y'|^2 slice moment of U^{p+1} = U^2 ~ r^{-6} diverges
    out = scaled_quantities(profile195, 0.5)
    assert out["C1"] is None
    assert "diverges" in out["C1_divergent"]
    assert out["C2"] is not None and out["C2"] > 0


def test_critical_norm_eps_invariance(profile226):
    # || Delta U_eps ||_beta^beta = int V_eps^{q+1} is eps-invariant
    pack = profile226.pack
    vals = []
    for eps in (1.0, 0.5, 0.25):
        x = np.geomspace(1e-8, 2000.0, 6000)
        integrand = profile226.V_eps(x, eps) ** (pack.q + 1) * x ** (pack.N - 1)
        vals.append(sphere_area(pack.N) * simpson(integrand, x=x))
    vals = np.array(vals)
    assert np.max(np.abs(vals / vals[0] - 1.0)) < 0.01


def test_norms_conserved_between_components(profile195):
    # int U^{p+1} = int V^{q+1} for solutions of the system
    pack = profile195.pack
    mU = radial_moment(profile195, "U", pack.p + 1, pack.N - 1.0)
    mV = radial_moment(profile195, "V", pack.q + 1, pack.N - 1.0)
    assert mU == pytest.approx(mV, rel=1e-4)


def test_scaled_quantities_validates_eps(profile226):
    with pytest.raises(ValueError):
        scaled_quantities(profile226, 1.5)


def test_tail_divergence_error_direct(profile226):
    with pytest.raises(DivergentTailError):
        # U ~ r^-4 in R^6: the r^{N+5} moment diverges
        radial_moment(profile226, "U", 1.0, 10.0)


def test_marginal_log_tail_moment_against_quadrature(profile_log6):
    # (2.75, 1.5, 6): U ~ r^-4 (log r + off), so the r^3 moment's tail
    # integrand is (log r + off)/r, whose primitive is (log r + off)^2/2
    prof = profile_log6
    val = radial_moment(prof, "U", 1.0, 3.0, upper=1e3)

    def f(r):
        return prof.eval(r, "U")[0] * r ** 3

    cuts = (0.0, 1.0, 10.0, 100.0, prof.r_max, 1e3)
    ref = sum(quad(f, a, b, epsrel=1e-12, limit=200)[0]
              for a, b in zip(cuts[:-1], cuts[1:]))
    assert val == pytest.approx(ref, rel=1e-9)


def test_csv_export(tmp_path, monkeypatch, profile334):
    # bubble writes profile.csv with %.17g, which reads back bit for bit
    from lanedual import cli
    monkeypatch.setattr(gs, "shoot", lambda pack, r_max: profile334)
    cfg = cli.RunConfig(subcommand="bubble", p=3.0, N=4)
    cli.cmd_bubble(cfg, cli.Report(config={}), str(tmp_path))
    with open(tmp_path / "profile.csv") as fh:
        assert fh.readline() == "r,U,V,dU,dV\n"
    data = np.loadtxt(tmp_path / "profile.csv", delimiter=",", skiprows=1)
    prof = profile334
    assert data.T.tobytes() == np.array(
        [prof.r, prof.U, prof.V, prof.dU, prof.dV]).tobytes()
