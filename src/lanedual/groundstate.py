"""Entire-space positive radial ground states by shooting.

The limiting system U'' + (N-1)U'/r = -V^q, V'' + (N-1)V'/r = -U^p is
integrated from a series start near r=0 with V(0)=1, solving for
d = U(0): too-small d makes U cross zero, too-large d makes V cross zero.
When neither component crosses before r_max, the run is classified by the
sign of the projected harmonic limits; using the difference
(U + r U'/(N-2)) - (V + r V'/(N-2)) cancels the subleading-tail bias that
otherwise stalls the root-find around 1e-10 (exactly so for p = q).

Each run yields a signed miss whose sign is that classification. Brent on
the miss steers and a dyadic sign bisection decides: brentq pins d* in a
few superlinear steps, then the bisection replays from the scan bracket,
integrating only the midpoints Brent's runs leave undecided, so d* is the
bisection's own dyadic point and every downstream number is unchanged
from a plain bisection. Brent's root is not used directly: near d* the
miss has a noise floor of ~1e-13 relative in d, and at (p, q, N) =
(1, 9, 5) S moves by ~1.5e5 times the relative shift of d*, so a root
1.7e-13 off the dyadic point moves S by 2.5e-8.

Improper integrals (Sobolev constant, bubble moments) are evaluated on the
stored profile plus an analytic tail from the fitted decay law; brute
truncation is never used because the slow-decay moments converge too
slowly near the admissibility boundary.
"""

from dataclasses import dataclass, field
from math import copysign

import numpy as np
from scipy.integrate import solve_ivp, simpson
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from . import NumericalError
from .mesh import sphere_area

R_START = 1e-6          # series handoff radius
REGIME_TOL = 1e-10      # classify q vs N/(N-2)
# Relative drift allowed across the tail-fit window. 2% admits the
# log-regime packs, whose compensators converge like 1/log(r), and the
# N=6 packs, whose r^(2-N) tails approach the integrator's constant-mode
# noise floor (~1e-11) before the drift can fall further.
PLATEAU_DRIFT = 0.02


class ShootingError(NumericalError):
    pass


class BracketError(ShootingError):
    """No low/high sign change found while scanning initial slopes."""


class TailError(ShootingError):
    """Tail fit window shows no plateau: r_max too small."""


class DivergentTailError(ShootingError):
    """A requested moment diverges for the fitted decay rate."""


@dataclass
class BubbleProfile:
    """Radial samples of the ground state plus fitted decay data.

    Normalization is V(0) = 1; members of the scaling family are obtained
    through U_eps / V_eps evaluations. The arrays include the r=0 node.

    Each component's far-field law is driven by the partner exponent: the
    component sourced by a power t of the other decays like r^(2-N) when
    t > N/(N-2), like r^(2-N) log(r) at equality, and like r^(2-t(N-2))
    below. `regime` is the U-side label; `regime_V` the V-side one (they
    coincide with the usual single label whenever p >= q).
    """

    pack: object
    r: np.ndarray
    U: np.ndarray
    V: np.ndarray
    dU: np.ndarray
    dV: np.ndarray
    shoot_d: float
    r_max: float
    regime: str = ""
    regime_V: str = ""
    a: float = 0.0
    b: float = 0.0
    # subleading offsets of the log-regime laws c*r^m*(log r + offset);
    # zero in the pure-power regimes
    a_offset: float = 0.0
    b_offset: float = 0.0
    S: float = 0.0
    _splines: dict = field(default_factory=dict, repr=False)

    # -- pointwise evaluation --------------------------------------------
    def _series(self, r, which):
        d = self.shoot_d
        a2, b2, a4, b4 = _series_coeffs(self.pack, d)
        if which == "U":
            return d + a2 * r ** 2 + a4 * r ** 4
        if which == "V":
            return 1.0 + b2 * r ** 2 + b4 * r ** 4
        if which == "dU":
            return 2 * a2 * r + 4 * a4 * r ** 3
        return 2 * b2 * r + 4 * b4 * r ** 3

    def _spline(self, which):
        if which not in self._splines:
            pos = self.r > 0
            x = np.log(self.r[pos])
            vals = {"U": self.U, "V": self.V,
                    "dU": -self.dU, "dV": -self.dV}[which][pos]
            vals = np.maximum(vals, 1e-300)
            self._splines[which] = CubicSpline(x, np.log(vals))
        return self._splines[which]

    def _tail_exponents(self, which):
        """(power m, log power l) of the fitted tail c * r^m * log(r)^l."""
        N = self.pack.N
        src = self.pack.q if which in ("U", "dU") else self.pack.p
        m, l = decay_law(src, N)
        if which in ("dU", "dV"):
            m -= 1.0  # d/dr of r^m (log corrections handled in _tail)
        return m, l

    def _tail(self, r, which):
        c = self.b if which in ("U", "dU") else self.a
        off = self.b_offset if which in ("U", "dU") else self.a_offset
        lg = np.log(r)
        if which in ("U", "V"):
            m, l = self._tail_exponents(which)
            return c * r ** m * (lg + off) ** l if l else c * r ** m
        base = "U" if which == "dU" else "V"
        m, l = self._tail_exponents(base)
        if l:
            return c * r ** (m - 1) * (m * (lg + off) + 1.0)
        return c * m * r ** (m - 1)

    def _eval(self, r, which):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.empty_like(r)
        lo = r < self.r[1]  # first positive node
        hi = r > self.r_max
        mid = ~(lo | hi)
        out[lo] = self._series(r[lo], which)
        if np.any(mid):
            sgn = -1.0 if which in ("dU", "dV") else 1.0
            out[mid] = sgn * np.exp(self._spline(which)(np.log(r[mid])))
        if np.any(hi):
            out[hi] = self._tail(r[hi], which)
        return out

    def eval_U(self, r):
        return self._eval(r, "U")

    def eval_V(self, r):
        return self._eval(r, "V")

    def eval_dU(self, r):
        return self._eval(r, "dU")

    def eval_dV(self, r):
        return self._eval(r, "dV")

    # -- scaling family ---------------------------------------------------
    def U_eps(self, rho, eps):
        return eps ** (-self.pack.sp) * self.eval_U(np.asarray(rho) / eps)

    def V_eps(self, rho, eps):
        return eps ** (-self.pack.sq) * self.eval_V(np.asarray(rho) / eps)

    def dU_eps(self, rho, eps):
        return eps ** (-self.pack.sp - 1) * self.eval_dU(np.asarray(rho) / eps)

    def dV_eps(self, rho, eps):
        return eps ** (-self.pack.sq - 1) * self.eval_dV(np.asarray(rho) / eps)

    def to_csv(self, path):
        arr = np.column_stack([self.r, self.U, self.V, self.dU, self.dV])
        np.savetxt(path, arr, delimiter=",", header="r,U,V,dU,dV", comments="")


# -- integration of the radial system -------------------------------------

def _series_coeffs(pack, d):
    """(a2, b2, a4, b4) of the regular near-origin expansion
    U = d + a2 r^2 + a4 r^4, V = 1 + b2 r^2 + b4 r^4."""
    p, q, N = pack.p, pack.q, pack.N
    return (-1.0 / (2 * N),
            -d ** p / (2 * N),
            q * d ** p / (8 * N * (N + 2)),
            p * d ** (p - 1) / (8 * N * (N + 2)))


def _initial_state(pack, d):
    r0 = R_START
    a2, b2, a4, b4 = _series_coeffs(pack, d)
    y0 = [d + a2 * r0 ** 2 + a4 * r0 ** 4,
          2 * a2 * r0 + 4 * a4 * r0 ** 3,
          1.0 + b2 * r0 ** 2 + b4 * r0 ** 4,
          2 * b2 * r0 + 4 * b4 * r0 ** 3]
    return r0, y0


def _rhs(pack):
    p, q, N = pack.p, pack.q, pack.N

    # Python floats: each integration runs ~15% faster than on numpy
    # scalars, with bit-identical trajectories
    def rhs(r, y):
        U, dU, V, dV = y.tolist()
        return [dU,
                -copysign(abs(V) ** q, V) - (N - 1) * dU / r,
                dV,
                -copysign(abs(U) ** p, U) - (N - 1) * dV / r]

    return rhs


def _integrate(pack, d, r_max, rtol, t_eval=None):
    r0, y0 = _initial_state(pack, d)

    def ev_U(r, y):
        return y[0]

    def ev_V(r, y):
        return y[2]

    ev_U.terminal = True
    ev_V.terminal = True
    sol = solve_ivp(_rhs(pack), (r0, r_max), y0, method="DOP853",
                    rtol=rtol, atol=1e-300, events=(ev_U, ev_V),
                    t_eval=t_eval)
    if sol.status == -1:
        raise ShootingError(f"integrator step-size failure at d={d}: "
                            f"{sol.message}")
    return sol


def _miss(pack, d, r_max, rtol):
    """Signed miss of the run from U(0) = d: negative when d is too small,
    positive when it is too large.

    A run that reaches r_max returns the projected offset c0 below; its
    sign is the run's label (high iff c0 > 0). A run stopped by a crossing
    returns -|proj U| (U crossed zero) or +|proj V| (V crossed zero) at
    the crossing radius. Brent needs fewer runs on that than on a signed
    |c0| at the crossing: 17 and 22 integrations per shoot at
    (2.75, 1.5, 6) and (1, 9, 5), against 21 and 32.
    """
    sol = _integrate(pack, d, r_max, rtol)
    U, dU, V, dV = sol.y[:, -1]
    r = sol.t[-1]
    # projected flattening offsets: W + lam(r) r W' annihilates the
    # component's own decay law (c r^m, or c r^m log r in the marginal
    # regime) and retains the constant deviation mode. Classifying on the
    # difference cancels the subleading tail bias (exactly so for p = q).
    def proj(W, dW, m, l):
        lam = (1.0 / (-m)) if l == 0 else -np.log(r) / (m * np.log(r) + 1.0)
        return W + lam * r * dW

    offset_U = proj(U, dU, *decay_law(pack.q, pack.N))
    offset_V = proj(V, dV, *decay_law(pack.p, pack.N))
    if sol.t_events[0].size:
        return -abs(offset_U)  # U crossed zero: initial slope too small
    if sol.t_events[1].size:
        return abs(offset_V)   # V crossed zero: initial slope too large
    return offset_U - offset_V


def shoot(pack, r_max=400.0, tol=1e-12, rtol=1e-11):
    """Shoot the ground state; returns a fitted :class:`BubbleProfile`.

    d = U(0) is the dyadic bisection point of the scan bracket at which
    the bracket width first falls to <= tol * d (or machine precision).
    Brent on the signed miss steers and the bisection decides: brentq
    narrows d* in a few superlinear steps, and the bisection replays from
    the scan bracket, integrating only the midpoints Brent's runs leave
    undecided (see :func:`_bisect`). At r_max = 400 a shoot makes 4, 4,
    17 and 22 integrations at (3, 3, 4), (2, 2, 6), (2.75, 1.5, 6) and
    (1, 9, 5), the scan and the final sampled run included. Returning
    Brent's root instead would move S: near d* the miss is noisy at
    ~1e-13 relative in d, and at (p, q, N) = (1, 9, 5) S shifts by ~1.5e5
    times the relative shift of d*, so a root 1.7e-13 off the dyadic point
    moves S by 2.5e-8.

    r_max is doubled, up to three times, until the tail-fit window shows
    a plateau; the profile is sampled at 4000 geometric radii. The default
    r_max balances two floors: the fit wants a long tail, but for N=6 the
    r^(2-N) tail magnitude meets the integrator's constant-mode noise
    floor (~1e-11) soon after r ~ 1e3, so larger defaults are
    counterproductive.
    """
    if not 0.0 < tol <= 1e-4:
        raise ValueError(f"tol = {tol} outside (0, 1e-4]")
    for _ in range(3):
        try:
            return _shoot_fixed(pack, r_max, tol, rtol)
        except TailError:
            r_max *= 2.0
    return _shoot_fixed(pack, r_max, tol, rtol)


def _shoot_fixed(pack, r_max, tol, rtol):
    lo, hi, scanned = _bracket(pack, r_max, min(1e-8, rtol * 100))
    d_star = _bisect(pack, lo, hi, scanned, r_max, tol, rtol)
    return _profile(pack, d_star, r_max, rtol)


def _bracket(pack, r_max, rtol):
    """(lo, hi, misses) around d*: geometric scan from d = 1 in steps of
    1.4; misses maps each scanned d, lo and hi among them, to its miss."""
    d = 1.0
    d_low = d_high = None
    misses = {}
    for _ in range(120):
        misses[d] = _miss(pack, d, r_max, rtol)
        if misses[d] <= 0:
            d_low = d
            d *= 1.4
        else:
            d_high = d
            d /= 1.4
        if d_low is not None and d_high is not None:
            return min(d_low, d_high), max(d_low, d_high), misses
    ends = sorted(misses)
    labels = ["high" if misses[d] > 0 else "low" for d in (ends[0], ends[-1])]
    raise BracketError(
        f"no low/high bracket in d within [{ends[0]:.3e}, {ends[-1]:.3e}]"
        f"; end classifications: {labels[0]}, {labels[1]}")


def _bisect(pack, lo, hi, scanned, r_max, tol, rtol):
    """Sign bisection of [lo, hi] on the miss, steered by Brent.

    brentq runs first, to a quarter of the bisection's final width,
    starting from the scan's misses at lo and hi (`scanned`), so neither
    end is integrated again. The bisection then replays from [lo, hi]
    with its own stopping rule: a midpoint at or below the largest d
    Brent saw low is low, one at or above the smallest d it saw high is
    high, and only the 0-2 midpoints inside Brent's final bracket are
    integrated. Only runs at the bisection's rtol decide, never the
    scan's, so the result is the dyadic midpoint a plain sign bisection
    lands on, bit for bit (the module docstring says why Brent's own root
    is not returned).
    """
    misses = {}

    def miss(d):
        if d not in misses:
            misses[d] = _miss(pack, d, r_max, rtol)
        return misses[d]

    def steer(d):
        m = scanned[d] if d in scanned else miss(d)
        # an exact zero is low; brentq would stop on it (at p = q, d = 1
        # gives U = V and c0 = 0 exactly), so hand it the nearest low value
        return m or -np.finfo(float).tiny

    brentq(steer, lo, hi, xtol=0.25 * tol * lo, disp=False)
    d_low = max((d for d, m in misses.items() if m <= 0), default=-np.inf)
    d_high = min((d for d, m in misses.items() if m > 0), default=np.inf)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi) or hi - lo <= max(tol * mid, 4 * np.spacing(mid)):
            break
        if mid <= d_low or (mid < d_high and miss(mid) <= 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _profile(pack, d_star, r_max, rtol):
    """Sample the run from U(0) = d_star and fit its constants."""
    r_grid = np.geomspace(R_START, r_max, 4000)
    sol = _integrate(pack, d_star, r_max, rtol, t_eval=r_grid)
    # drop any trailing samples where the near-critical run lost positivity
    keep = (sol.y[0] > 0) & (sol.y[2] > 0)
    n = int(np.argmin(keep)) if not keep.all() else sol.t.size
    if n < 16:
        raise ShootingError("bisected profile lost positivity almost "
                            "immediately; shooting failed")
    r = np.concatenate([[0.0], sol.t[:n]])
    U = np.concatenate([[d_star], sol.y[0][:n]])
    V = np.concatenate([[1.0], sol.y[2][:n]])
    dU = np.concatenate([[0.0], sol.y[1][:n]])
    dV = np.concatenate([[0.0], sol.y[3][:n]])
    prof = BubbleProfile(pack=pack, r=r, U=U, V=V, dU=dU, dV=dV,
                         shoot_d=d_star, r_max=float(r[-1]))
    profile_constants(prof)
    return prof


# -- fitted constants -------------------------------------------------------

def decay_law(src, N):
    """Tail (power m, log power l) of a component whose source is the
    partner raised to `src`: r^(2-N) above N/(N-2), r^(2-N) log r at
    equality, r^(2-src(N-2)) below."""
    crit = N / (N - 2.0)
    if src > crit + REGIME_TOL:
        return 2.0 - N, 0
    if src < crit - REGIME_TOL:
        return 2.0 - src * (N - 2.0), 0
    return 2.0 - N, 1


def regime_label(src, N, symbol="q"):
    crit = N / (N - 2.0)
    if src > crit + REGIME_TOL:
        return f"{symbol}>N/(N-2)"
    if src < crit - REGIME_TOL:
        return f"{symbol}<N/(N-2)"
    return f"{symbol}=N/(N-2)"


def _fit_tail(vals, rw, m, l):
    """Fit c (and the log offset) of vals ~ c r^m (log r + off)^l over the
    window; returns (c, off, relative misfit)."""
    comp = vals * rw ** (-m)
    if l == 0:
        c = float(np.mean(comp))
        drift = (comp.max() - comp.min()) / abs(c)
        return c, 0.0, drift
    # linear in log r: comp = c log r + c*off
    X = np.column_stack([np.log(rw), np.ones_like(rw)])
    coef, *_ = np.linalg.lstsq(X, comp, rcond=None)
    c, c_off = float(coef[0]), float(coef[1])
    resid = comp - X @ coef
    drift = np.max(np.abs(resid)) / abs(np.mean(comp))
    return c, c_off / c if c != 0 else 0.0, drift


def profile_constants(profile):
    """Fit (S, a, b, regime) on the profile; raises TailError off-plateau.

    b (for U) and a (for V) are the coefficients of the fitted decay laws;
    each component's law is chosen by the partner exponent's regime, and
    log-regime laws carry a fitted additive log offset. S comes from the
    critical norm quadrature S^(N/2) = ||U||_{p+1}^{p+1}.
    """
    pack = profile.pack
    N = pack.N
    profile.regime = regime_label(pack.q, N, "q")
    profile.regime_V = regime_label(pack.p, N, "p")
    window = (profile.r >= profile.r_max / 2.0) & (profile.r > 0)
    rw = profile.r[window]
    mV, lV = decay_law(pack.p, N)
    mU, lU = decay_law(pack.q, N)
    a, a_off, drift_V = _fit_tail(profile.V[window], rw, mV, lV)
    b, b_off, drift_U = _fit_tail(profile.U[window], rw, mU, lU)
    for name, drift in (("V", drift_V), ("U", drift_U)):
        if drift > PLATEAU_DRIFT:
            raise TailError(
                f"r_max too small: {name}-tail compensator drifts "
                f"{100 * drift:.2f}% across [{rw[0]:.3g}, {rw[-1]:.3g}]")
    profile.a, profile.a_offset = a, a_off
    profile.b, profile.b_offset = b, b_off
    for name, c in (("a", profile.a), ("b", profile.b)):
        if not (np.isfinite(c) and c > 0):
            raise TailError(f"fitted decay constant {name} = {c} invalid")
    profile._splines.clear()
    moment = radial_moment(profile, "U", pack.p + 1.0, N - 1.0)
    profile.S = float((sphere_area(N) * moment) ** (2.0 / N))
    return profile.S, profile.a, profile.b, profile.regime


# -- quadrature with analytic tails ----------------------------------------

def _tail_moment(c, m, l, lo, hi, off=0.0):
    """int_lo^hi c * r^m * (log r + off)^l dr, hi may be inf; diverging ->
    raise."""
    if hi == np.inf and m >= -1.0 - 1e-12:
        raise DivergentTailError(
            f"tail exponent m = {m:.4f} (log power {l}) does not decay fast "
            "enough: moment diverges")
    if l == 0:
        mp = m + 1.0
        if abs(mp) < 1e-13:  # marginal moment: exact log primitive
            return c * np.log(hi / lo)
        top = 0.0 if hi == np.inf else hi ** mp
        return c * (top - lo ** mp) / mp
    if l == 1:
        mp = m + 1.0

        def F(x):
            return x ** mp * ((np.log(x) + off) / mp - 1.0 / mp ** 2)

        top = 0.0 if hi == np.inf else F(hi)
        return c * (top - F(lo))
    # non-integer / higher log powers: numeric on a log grid
    top = lo * 1e8 if hi == np.inf else hi
    x = np.geomspace(lo, top, 4001)
    return c * simpson(x ** m * np.abs(np.log(x) + off) ** l, x=x)


def radial_moment(profile, which, s, k, upper=np.inf):
    """int_0^upper f(r)^s r^k dr with f in {U, V} and analytic tail.

    The grid part uses the stored samples; beyond r_max the fitted decay
    law is integrated in closed form. upper below r_max truncates on a
    fresh geometric grid.
    """
    lo = profile.r[1]
    if upper <= lo:
        f0 = {"U": profile.shoot_d, "V": 1.0}[which]
        return f0 ** s * upper ** (k + 1) / (k + 1)
    top = min(upper, profile.r_max)
    x = np.geomspace(lo, top, 4001)
    f = profile.eval_U(x) if which == "U" else profile.eval_V(x)
    core = simpson(f ** s * x ** k, x=x)
    # [0, lo] piece: integrand ~ f(0)^s r^k
    f0 = {"U": profile.shoot_d, "V": 1.0}[which]
    core += f0 ** s * lo ** (k + 1) / (k + 1)
    if upper > profile.r_max:
        m, l = profile._tail_exponents(which)
        c = profile.b if which == "U" else profile.a
        off = profile.b_offset if which == "U" else profile.a_offset
        core += _tail_moment(c ** s, m * s + k, l * s, profile.r_max, upper,
                             off=off)
    return float(core)


def scaled_quantities(profile, eps, R_domain=1.0):
    """Truncated-domain norms of the eps-scaled bubble and the boundary
    moment constants.

    Norms are over the ball of radius R_domain around the bubble center
    (tail corrections from the fitted decay); C1 and C2 are the (N-1)-slice
    second moments with unit mean curvature, rescaled by the caller.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps = {eps} outside (0, 1]")
    pack = profile.pack
    N, p, q = pack.N, pack.p, pack.q
    sig = sphere_area(N)
    cut = R_domain / eps

    def norm1(which, s, pref_exp):
        return eps ** pref_exp * sig * radial_moment(profile, which, s,
                                                     N - 1.0, upper=cut)

    out = {
        "U_1": norm1("U", 1.0, N - pack.sp),
        "V_1": norm1("V", 1.0, N - pack.sq),
        "Up_1": norm1("U", p, N - p * pack.sp),
        "Vq_1": norm1("V", q, N - q * pack.sq),
    }
    sig_slice = sphere_area(N - 1)
    try:
        out["C1"] = 0.5 * sig_slice * radial_moment(profile, "U", p + 1.0,
                                                    float(N))
    except DivergentTailError as e:
        out["C1"] = None
        out["C1_divergent"] = str(e)
    try:
        out["C2"] = 0.5 * sig_slice * radial_moment(profile, "V", q + 1.0,
                                                    float(N))
    except DivergentTailError as e:
        out["C2"] = None
        out["C2_divergent"] = str(e)
    return out
