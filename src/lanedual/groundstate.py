"""Entire-space positive radial ground states by shooting.

The limiting system U'' + (N-1)U'/r = -V^q, V'' + (N-1)V'/r = -U^p is
integrated from a series start near r=0 with V(0)=1, solving for
d = U(0): too-small d makes U cross zero, too-large d makes V cross zero.
When neither component crosses before r_max, the run is classified by the
sign of the projected harmonic limits; using the difference
(U + r U'/(N-2)) - (V + r V'/(N-2)) cancels the subleading-tail bias that
otherwise stalls the root-find around 1e-10 (exactly so for p = q).

Each run yields a signed miss whose sign is that classification. Brent on
the miss steers and a dyadic sign bisection decides: Brent pins d* in a
few superlinear steps, then the bisection replays from the scan bracket,
integrating only the midpoints Brent's runs leave undecided, so d* is the
bisection's own dyadic point and every downstream number is unchanged
from a plain bisection. Brent's root is not used directly: near d* the
miss has a noise floor of ~1e-13 relative in d, and at (p, q, N) =
(1, 9, 5) S moves by ~1.5e5 times the relative shift of d*, so a root
1.7e-13 off the dyadic point moves S by 2.5e-8.

Every run goes through this module's :func:`solve_ivp`, a DOP853 written
out on Python floats for the four components. It keeps scipy's
``solve_ivp(method="DOP853")`` tableau, initial step, step controller,
error norm, dense output and dense-output event location, and exists for
its per-step cost: scipy's spends about 80% of a run in numpy machinery
on 4-vectors, and on floats a shoot takes about a third of scipy's time.

The profile is the final run's own dense output (:class:`DenseOutput`,
the 7th-order interpolant of each step; Hairer, Norsett & Wanner, II.6):
the 4000 stored samples are read from it, and so is every evaluation
between R_START and r_max.

The module imports no scipy subpackage; scipy.integrate,
scipy.interpolate and scipy.optimize would add about 0.28 s and 20 MB to
every process that shoots. The DOP853 tableau is read from scipy's own
``integrate/_ivp/dop853_coefficients.py``, loaded by file path (it imports
only numpy). Brent's method (:func:`_brentq`, scipy's C ``brentq``) and
:func:`simpson` are ports that return scipy's results bit for bit; the
tests hold them to scipy.

Improper integrals (Sobolev constant, bubble moments) are evaluated on the
stored profile plus an analytic tail from the fitted decay law; brute
truncation is never used because the slow-decay moments converge too
slowly near the admissibility boundary.
"""

import importlib.util
import os
from collections import Counter
from dataclasses import dataclass, field
from math import copysign, inf, isfinite, isnan, nextafter, sqrt

import numpy as np
import scipy

from . import NumericalError
from .mesh import sphere_area

R_START = 1e-6          # series handoff radius
REGIME_TOL = 1e-10      # classify q vs N/(N-2)
# shoot's tolerances: bisection to a bracket of TOL * d on runs at RTOL;
# the scan's at SCAN_RTOL = 9.999999999999999e-10 (1e-9 moves its steps)
TOL = 1e-12
RTOL = 1e-11
SCAN_RTOL = 100 * RTOL
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


class RootNotConvergedError(ShootingError):
    """Brent's method did not converge in BRENT_MAXITER iterations."""


@dataclass
class BubbleProfile:
    """Radial samples of the ground state plus fitted decay data.

    Normalization is V(0) = 1; members of the scaling family are obtained
    through U_eps / V_eps evaluations. The arrays include the r=0 node.
    The eval_* methods read the series below R_START, the run's `dense`
    output up to r_max and the fitted tail beyond.

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
    dense: "DenseOutput" = field(repr=False)
    regime: str = ""
    regime_V: str = ""
    a: float = 0.0
    b: float = 0.0
    # subleading offsets of the log-regime laws c*r^m*(log r + offset);
    # zero in the pure-power regimes
    a_offset: float = 0.0
    b_offset: float = 0.0
    S: float = 0.0
    # deterministic work of the shoot: its integrations (the scan, the
    # bisection and the sampled run, over every r_max tried) and their
    # right-hand-side calls
    work: dict = field(default_factory=dict)

    def tail_fit(self, which):
        """(c, offset) of the fitted tail c r^m (log r + offset)^l of U or
        V, with (m, l) from :func:`tail_law`."""
        _, c, off = _TAILS[which]
        return getattr(self, c), getattr(self, off)

    # -- pointwise evaluation --------------------------------------------
    def _tail(self, r, which):
        base = which[-1]                # "dU" -> "U"
        m, l = tail_law(self.pack, base)
        c, off = self.tail_fit(base)
        lg = np.log(r)
        if which == base:
            return c * r ** m * (lg + off) ** l if l else c * r ** m
        if l:
            return c * r ** (m - 1) * (m * (lg + off) + 1.0)
        return c * m * r ** (m - 1)

    def _eval(self, r, which):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.empty_like(r)
        lo = r < self.r[1]  # first positive node
        hi = r > self.r_max
        mid = ~(lo | hi)
        c = _COMPONENTS.index(which)
        out[lo] = _series(self.pack, self.shoot_d, r[lo])[c]
        out[mid] = self.dense.component(c, r[mid])
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

_COMPONENTS = ("U", "dU", "V", "dV")    # the order of the state y


def _series(pack, d, r):
    """(U, U', V, V') at r (a float or an array) of the regular near-origin
    expansion U = d + a2 r^2 + a4 r^4, V = 1 + b2 r^2 + b4 r^4."""
    p, q, N = pack.p, pack.q, pack.N
    a2 = -1.0 / (2 * N)
    b2 = -d ** p / (2 * N)
    a4 = q * d ** p / (8 * N * (N + 2))
    b4 = p * d ** (p - 1) / (8 * N * (N + 2))
    return (d + a2 * r ** 2 + a4 * r ** 4,
            2 * a2 * r + 4 * a4 * r ** 3,
            1.0 + b2 * r ** 2 + b4 * r ** 4,
            2 * b2 * r + 4 * b4 * r ** 3)


def _rhs(pack):
    p, q, N = float(pack.p), float(pack.q), pack.N

    def rhs(r, y):
        U, dU, V, dV = y
        return (dU,
                -copysign(abs(V) ** q, V) - (N - 1) * dU / r,
                dV,
                -copysign(abs(U) ** p, U) - (N - 1) * dV / r)

    return rhs


# -- DOP853 on Python floats (see the module docstring) -------------------
#
# Only the order of the stage sums differs from scipy's (its BLAS orders
# them otherwise), so the two agree to rounding, amplified where a run is
# unstable: from d* to r = 4 both take the same number of steps and end
# within 1e-13 relative, and the shoots find the same d*.

def _nonzero(row):
    return tuple((j, a) for j, a in enumerate(row.tolist()) if a)


def _load_tableau():
    """scipy's dop853_coefficients module, run from its file so that
    scipy.integrate's __init__ is not."""
    path = os.path.join(scipy.__path__[0], "integrate", "_ivp",
                        "dop853_coefficients.py")
    spec = importlib.util.spec_from_file_location("dop853_coefficients", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


dop853_coefficients = _load_tableau()
_A = [_nonzero(row) for row in dop853_coefficients.A]
_C = dop853_coefficients.C.tolist()
_B = _nonzero(dop853_coefficients.B)
_E3 = _nonzero(dop853_coefficients.E3)
_E5 = _nonzero(dop853_coefficients.E5)
_D = [_nonzero(row) for row in dop853_coefficients.D]
_N_STAGES = dop853_coefficients.N_STAGES          # 12 RHS calls a step
_N_STAGES_EXTENDED = dop853_coefficients.N_STAGES_EXTENDED
_N_DENSE = _N_STAGES_EXTENDED - _N_STAGES - 1     # 3 more for the interpolant
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1.0 / 8.0   # -1 / (error estimator order 7 + 1)
ATOL = 1e-300                 # error control is relative only
# Brent: scipy's iteration cap and its default (and smallest) rtol
BRENT_MAXITER = 100
BRENT_RTOL = 4 * np.finfo(float).eps
EVENT_XTOL = BRENT_RTOL


def _brentq(f, xa, xb, xtol):
    """A root of f in [xa, xb]: scipy's ``brentq(f, xa, xb, xtol)``
    (rtol BRENT_RTOL), a line-for-line port of its C code (Brent 1973,
    ch. 4), same operations in the same order, so the same root bit for
    bit.

    Where scipy raises ValueError (f is NaN, or has the same sign at both
    ends) or RuntimeError (no convergence in BRENT_MAXITER iterations),
    this raises ShootingError, RootNotConvergedError for the last: each
    is a numerical failure of the shoot.
    """
    def value(x):
        fx = f(x)
        if isnan(fx):
            raise ShootingError(f"root finder: the function is NaN at "
                                f"x = {x!r}")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if copysign(1, fpre) == copysign(1, fcur):
        raise ShootingError(f"root finder: no sign change in [{xa!r}, "
                            f"{xb!r}] ({fpre!r}, {fcur!r})")
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and copysign(1, fpre) != copysign(1, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:             # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry   # good short step
            else:
                spre = scur = sbis        # bisect
        else:
            spre = scur = sbis            # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RootNotConvergedError(
        f"root finder: no convergence in {BRENT_MAXITER} iterations in "
        f"[{xa!r}, {xb!r}], at x = {xcur!r}")


@dataclass
class IvpResult:
    """One run of :func:`solve_ivp`: its final radius `t` and state `y`
    (a 4-tuple), the component that stopped the run at its zero
    (`crossed`: 0 for U, 1 for V, None when the run reached the end),
    `nfev`, the right-hand-side calls, and the run's :class:`DenseOutput`
    when it was asked for."""

    t: float
    y: tuple
    crossed: int | None
    nfev: int
    dense: "DenseOutput | None" = None


def _combine(K, row):
    """sum_j a_j K_j over the nonzero tableau entries (j, a_j) of a row."""
    s0 = s1 = s2 = s3 = 0.0
    for j, a in row:
        k0, k1, k2, k3 = K[j]
        s0 += k0 * a
        s1 += k1 * a
        s2 += k2 * a
        s3 += k3 * a
    return s0, s1, s2, s3


def _rms(v0, v1, v2, v3):
    return sqrt(v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3) / 2.0


def _initial_step(fun, t0, y, f, t_bound, rtol):
    """scipy's select_initial_step (Hairer, Norsett & Wanner, II.4)."""
    interval = t_bound - t0
    s0, s1, s2, s3 = (ATOL + abs(v) * rtol for v in y)
    d0 = _rms(y[0] / s0, y[1] / s1, y[2] / s2, y[3] / s3)
    d1 = _rms(f[0] / s0, f[1] / s1, f[2] / s2, f[3] / s3)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, tuple(v + h0 * g for v, g in zip(y, f)))
    d2 = _rms((f1[0] - f[0]) / s0, (f1[1] - f[1]) / s1,
              (f1[2] - f[2]) / s2, (f1[3] - f[3]) / s3) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, interval)


def _rk_step(fun, t, y, f, h):
    """One step of size h from (t, y) with y' = f: (y_new, stages), the
    stages ending with f(t + h, y_new)."""
    y0, y1, y2, y3 = y
    K = [f]
    for s in range(1, _N_STAGES):
        d0, d1, d2, d3 = _combine(K, _A[s])
        K.append(fun(t + _C[s] * h,
                     (y0 + d0 * h, y1 + d1 * h, y2 + d2 * h, y3 + d3 * h)))
    b0, b1, b2, b3 = _combine(K, _B)
    y_new = (y0 + h * b0, y1 + h * b1, y2 + h * b2, y3 + h * b3)
    K.append(fun(t + h, y_new))
    return y_new, K


def _error_norm(K, h, y, y_new, rtol):
    """The step's error estimate: the 5th-order estimate damped by the
    3rd-order one, in the RMS norm scaled by rtol * max(|y|, |y_new|)."""
    n5 = n3 = 0.0
    for e5, e3, a, b in zip(_combine(K, _E5), _combine(K, _E3), y, y_new):
        scale = ATOL + max(abs(a), abs(b)) * rtol
        e5 /= scale
        e3 /= scale
        n5 += e5 * e5
        n3 += e3 * e3
    if n5 == 0 and n3 == 0:
        return 0.0
    return abs(h) * n5 / sqrt((n5 + 0.01 * n3) * 4)


def _dense_coefficients(fun, K, t_old, h, y_old, y):
    """The 7 coefficient rows of the 7th-order interpolant over the step
    [t_old, t_old + h] that ended at y; appends the extra stages to K."""
    y0, y1, y2, y3 = y_old
    for s in range(_N_STAGES + 1, _N_STAGES_EXTENDED):
        d0, d1, d2, d3 = _combine(K, _A[s])
        K.append(fun(t_old + _C[s] * h,
                     (y0 + d0 * h, y1 + d1 * h, y2 + d2 * h, y3 + d3 * h)))
    f_old, f = K[0], K[_N_STAGES]
    dy = [a - b for a, b in zip(y, y_old)]
    return [dy,
            [h * a - b for a, b in zip(f_old, dy)],
            [2 * b - h * (a + c) for a, b, c in zip(f, dy, f_old)],
            *([h * v for v in _combine(K, row)] for row in _D)]


def _horner(rows, x, y_old):
    """One component of the interpolant at the step fraction x (a float or
    an array): its coefficient rows, last row first, nested in x and 1 - x
    by turns, plus its value y_old at the step's start."""
    v = 0.0
    for i, row in enumerate(rows):
        v += row
        v *= x if i % 2 == 0 else 1 - x
    return v + y_old


class DenseOutput:
    """A run's interpolant, one step after another. Step k starts at
    t_old[k] from y_old[:, k] with size h[k] and ends at t_end[k] (a zero
    of U or V ends the last one early); Q[c] holds its 7 coefficient rows
    of component c, last row first, one column a step. A radius equal to
    a step's end belongs to that step; radii lie in [t_old[0], t_end[-1]].
    """

    def __init__(self, steps):
        t_old, h, t_end, y_old, F = map(np.array, zip(*steps))
        self.t_old, self.h, self.t_end = t_old, h, t_end
        self.y_old = np.ascontiguousarray(y_old.T)
        self.Q = np.ascontiguousarray(F[:, ::-1].transpose(2, 1, 0))

    def component(self, c, t):
        """Component c of y at the radii t."""
        k = np.searchsorted(self.t_end, t, "left")
        return _horner((row[k] for row in self.Q[c]),
                       (t - self.t_old[k]) / self.h[k], self.y_old[c, k])

    def __call__(self, t):
        """y at the radii t, as a 4 x len(t) array."""
        return np.array([self.component(c, t) for c in range(4)])


def solve_ivp(fun, t_span, y0, rtol, dense_output=False):
    """Integrate y' = fun(t, y) for the four components (U, U', V, V')
    from t_span[0] up to t_span[1] > t_span[0], stopping at the first zero
    of U or V; returns an :class:`IvpResult`.

    This is scipy's ``solve_ivp(fun, t_span, y0, method="DOP853",
    rtol=rtol, atol=1e-300, events=(U, V), dense_output=dense_output)``
    with both events terminal; `fun` takes and returns 4-tuples of floats.
    The one sample is the final state. With `dense_output`, every step
    builds its interpolant, as scipy's does (3 more right-hand-side calls
    a step), and `dense` holds them all. Where scipy would stop with
    status -1 (the step size fell below the spacing of floats), this
    raises ShootingError naming the radius.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    y = tuple(float(v) for v in y0)
    if not all(map(isfinite, y)):
        raise ValueError("All components of the initial state y0 must be "
                         "finite.")
    if not t < t_bound:
        raise ValueError(f"t_span = {t_span} is not increasing")
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol)
    nfev = 2
    steps = []
    crossed = None
    while crossed is None and t < t_bound:
        # one accepted step (scipy's RungeKutta._step_impl)
        min_step = 10 * (nextafter(t, inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise ShootingError(f"integrator step size underflow at "
                                    f"r = {t!r}")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            y_new, K = _rk_step(fun, t, y, f, h)
            nfev += _N_STAGES
            error_norm = _error_norm(K, h, y, y_new, rtol)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR,
                                 SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs = h * factor
                break
            h_abs = h * max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        t_old, y_old = t, y
        t, y, f = t_new, y_new, K[-1]
        zeros = [e for e in (0, 1)
                 if y_old[2 * e] <= 0 <= y[2 * e]
                 or y_old[2 * e] >= 0 >= y[2 * e]]
        if zeros or dense_output:
            F = _dense_coefficients(fun, K, t_old, h, y_old, y)
            nfev += _N_DENSE
        if zeros:
            rows = list(zip(*reversed(F)))  # each component's, last first

            def at(t, c):
                return _horner(rows[c], (t - t_old) / h, y_old[c])

            roots = [_brentq(lambda r, c=2 * e: at(r, c), t_old, t,
                             EVENT_XTOL)
                     for e in zeros]
            t = min(roots)
            crossed = zeros[roots.index(t)]
            y = tuple(at(t, c) for c in range(4))
        if dense_output:
            steps.append((t_old, h, t, y_old, F))
    return IvpResult(t, y, crossed, nfev,
                     DenseOutput(steps) if dense_output else None)


def _integrate(pack, d, r_max, rtol, work, dense_output=False):
    """One run from U(0) = d to r_max or the first zero of U or V, by the
    in-house DOP853 (:func:`solve_ivp`, scipy's step controller on Python
    floats); counts the run and its RHS calls into `work`."""
    sol = solve_ivp(_rhs(pack), (R_START, r_max), _series(pack, d, R_START),
                    rtol=rtol, dense_output=dense_output)
    work["integrations"] += 1
    work["rhs_evals"] += sol.nfev
    return sol


def _miss(pack, d, r_max, rtol, work):
    """Signed miss of the run from U(0) = d: negative when d is too small,
    positive when it is too large.

    A run that reaches r_max returns the projected offset c0 below; its
    sign is the run's label (high iff c0 > 0). A run stopped by a crossing
    returns -|proj U| (U crossed zero) or +|proj V| (V crossed zero) at
    the crossing radius. Brent needs fewer runs on that than on a signed
    |c0| at the crossing: 17 and 22 integrations per shoot at
    (2.75, 1.5, 6) and (1, 9, 5), against 21 and 32.
    """
    sol = _integrate(pack, d, r_max, rtol, work)
    U, dU, V, dV = sol.y
    r = sol.t
    # projected flattening offsets: W + lam(r) r W' annihilates the
    # component's own decay law (c r^m, or c r^m log r in the marginal
    # regime) and retains the constant deviation mode. Classifying on the
    # difference cancels the subleading tail bias (exactly so for p = q).
    def proj(W, dW, m, l):
        lam = (1.0 / (-m)) if l == 0 else -np.log(r) / (m * np.log(r) + 1.0)
        return W + lam * r * dW

    offset_U = proj(U, dU, *tail_law(pack, "U"))
    offset_V = proj(V, dV, *tail_law(pack, "V"))
    if sol.crossed == 0:
        return -abs(offset_U)  # U crossed zero: initial slope too small
    if sol.crossed == 1:
        return abs(offset_V)   # V crossed zero: initial slope too large
    return offset_U - offset_V


def shoot(pack, r_max=400.0):
    """Shoot the ground state; returns a fitted :class:`BubbleProfile`.

    d = U(0) is the dyadic bisection point of the scan bracket at which
    the bracket width first falls to <= TOL * d (or machine precision).
    Brent on the signed miss steers and the bisection decides: Brent
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
    work = Counter()
    for _ in range(3):
        try:
            return _shoot_fixed(pack, r_max, work)
        except TailError:
            r_max *= 2.0
    return _shoot_fixed(pack, r_max, work)


def _shoot_fixed(pack, r_max, work):
    lo, hi, scanned = _bracket(pack, r_max, work)
    d_star = _bisect(pack, lo, hi, scanned, r_max, work)
    prof = _profile(pack, d_star, r_max, work)
    prof.work = dict(work)
    return prof


def _bracket(pack, r_max, work):
    """(lo, hi, misses) around d*: geometric scan from d = 1 in steps of
    1.4 at SCAN_RTOL; misses maps each scanned d, lo and hi among them, to
    its miss."""
    d = 1.0
    d_low = d_high = None
    misses = {}
    for _ in range(120):
        misses[d] = _miss(pack, d, r_max, SCAN_RTOL, work)
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


def _bisect(pack, lo, hi, scanned, r_max, work):
    """Sign bisection of [lo, hi] on the miss, steered by Brent.

    Brent runs first, to a quarter of the bisection's final width,
    starting from the scan's misses at lo and hi (`scanned`), so neither
    end is integrated again; it only steers, so a Brent that has not
    converged in BRENT_MAXITER runs hands over what it has (a NaN miss is
    a ShootingError). The bisection then replays from [lo, hi]
    with its own stopping rule: a midpoint at or below the largest d
    Brent saw low is low, one at or above the smallest d it saw high is
    high, and only the 0-2 midpoints inside Brent's final bracket are
    integrated. Only runs at RTOL decide, never the scan's, so the result
    is the dyadic midpoint a plain sign bisection lands on, bit for bit
    (the module docstring says why Brent's own root is not returned).
    """
    misses = {}

    def miss(d):
        if d not in misses:
            misses[d] = _miss(pack, d, r_max, RTOL, work)
        return misses[d]

    def steer(d):
        m = scanned[d] if d in scanned else miss(d)
        # an exact zero is low; Brent would stop on it (at p = q, d = 1
        # gives U = V and c0 = 0 exactly), so hand it the nearest low value
        return m or -np.finfo(float).tiny

    try:
        _brentq(steer, lo, hi, 0.25 * TOL * lo)
    except RootNotConvergedError:
        pass
    d_low = max((d for d, m in misses.items() if m <= 0), default=-np.inf)
    d_high = min((d for d, m in misses.items() if m > 0), default=np.inf)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi) or hi - lo <= max(TOL * mid, 4 * np.spacing(mid)):
            break
        if mid <= d_low or (mid < d_high and miss(mid) <= 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _profile(pack, d_star, r_max, work):
    """Sample the run from U(0) = d_star on its dense output, up to where
    the run stopped, and fit its constants."""
    sol = _integrate(pack, d_star, r_max, RTOL, work, dense_output=True)
    r_grid = np.geomspace(R_START, r_max, 4000)
    r_grid = r_grid[r_grid <= sol.t]
    y = sol.dense(r_grid)
    # drop any trailing samples where the near-critical run lost positivity
    keep = (y[0] > 0) & (y[2] > 0)
    n = int(np.argmin(keep)) if not keep.all() else keep.size
    if n < 16:
        raise ShootingError("bisected profile lost positivity almost "
                            "immediately; shooting failed")
    r = np.concatenate([[0.0], r_grid[:n]])
    U, dU, V, dV = np.column_stack([[d_star, 0.0, 1.0, 0.0], y[:, :n]])
    prof = BubbleProfile(pack=pack, r=r, U=U, V=V, dU=dU, dV=dV,
                         shoot_d=d_star, r_max=float(r[-1]), dense=sol.dense)
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
    """The regime of decay_law(src, N) as "<symbol>>N/(N-2)", "=" or "<"."""
    m, l = decay_law(src, N)
    relation = "=" if l else ">" if m == 2.0 - N else "<"
    return f"{symbol}{relation}N/(N-2)"


# Each component's tail is set by its source exponent, q for U and p for V,
# and fitted as the BubbleProfile fields b, b_offset (U) and a, a_offset (V).
_TAILS = {"U": ("q", "b", "b_offset"), "V": ("p", "a", "a_offset")}


def tail_law(pack, which):
    """(power m, log power l) of the tail c r^m (log r + offset)^l of U or
    V."""
    return decay_law(getattr(pack, _TAILS[which][0]), pack.N)


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
    """Fit S, a, b and the regimes into the profile; raises TailError
    off-plateau.

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
    fits = {which: _fit_tail(getattr(profile, which)[window], rw,
                             *tail_law(pack, which))
            for which in ("V", "U")}
    for which, (_, _, drift) in fits.items():
        if drift > PLATEAU_DRIFT:
            raise TailError(
                f"r_max too small: {which}-tail compensator drifts "
                f"{100 * drift:.2f}% across [{rw[0]:.3g}, {rw[-1]:.3g}]")
    for which, (c, off, _) in fits.items():
        _, name, off_name = _TAILS[which]
        if not (np.isfinite(c) and c > 0):
            raise TailError(f"fitted decay constant {name} = {c} invalid")
        setattr(profile, name, c)
        setattr(profile, off_name, off)
    moment = radial_moment(profile, "U", pack.p + 1.0, N - 1.0)
    profile.S = float((sphere_area(N) * moment) ** (2.0 / N))


# -- quadrature with analytic tails ----------------------------------------

def _basic_simpson(y, x, stop):
    """Composite Simpson on the panels [x[i], x[i+2]], i = 0, 2, .. < stop."""
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    return np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / h0divh1)
                                + y[1:stop + 1:2] * (hsum * (hsum / hprod))
                                + y[2:stop + 2:2] * (2.0 - h0divh1)))


def simpson(y, x):
    """scipy's ``simpson(y, x=x)`` for 1-D y on a strictly increasing x
    of length >= 3, bit for bit. An even length adds Cartwright's
    correction for the last interval to Simpson on the others."""
    n = len(y)
    if n % 2:
        return _basic_simpson(y, x, n - 2)
    h = np.diff(x)
    h0, h1 = h[-2, ...], h[-1, ...]
    alpha = (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
    beta = (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
    eta = h1 ** 3 / (6 * h0 * (h0 + h1))
    return (_basic_simpson(y, x, n - 3)
            + (alpha * y[-1] + beta * y[-2] - eta * y[-3]))


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
        if abs(mp) < 1e-13:  # marginal moment: exact log-squared primitive
            return c * ((np.log(hi) + off) ** 2 - (np.log(lo) + off) ** 2) / 2

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
    # [0, lo] piece: integrand ~ f(0)^s r^k
    f0 = {"U": profile.shoot_d, "V": 1.0}[which]
    if upper <= lo:
        return f0 ** s * upper ** (k + 1) / (k + 1)
    top = min(upper, profile.r_max)
    x = np.geomspace(lo, top, 4001)
    core = simpson(profile._eval(x, which) ** s * x ** k, x=x)
    core += f0 ** s * lo ** (k + 1) / (k + 1)
    if upper > profile.r_max:
        m, l = tail_law(profile.pack, which)
        c, off = profile.tail_fit(which)
        core += _tail_moment(c ** s, m * s + k, l * s, profile.r_max, upper,
                             off=off)
    return float(core)


def truncated_norms(pack):
    """The truncated L1 norms of :func:`scaled_quantities` by name, each
    as (component W, power s, s sW): the norm of W_eps^s, where
    W_eps = eps^(-sW) W(./eps)."""
    p, q = pack.p, pack.q
    return {"U_1": ("U", 1.0, pack.sp), "V_1": ("V", 1.0, pack.sq),
            "Up_1": ("U", p, p * pack.sp), "Vq_1": ("V", q, q * pack.sq)}


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
    out = {name: eps ** (N - s_w) * sig * radial_moment(
               profile, which, s, N - 1.0, upper=cut)
           for name, (which, s, s_w) in truncated_norms(pack).items()}
    for key, which, s in (("C1", "U", p + 1.0), ("C2", "V", q + 1.0)):
        try:
            out[key] = 0.5 * sphere_area(N - 1) * radial_moment(
                profile, which, s, float(N))
        except DivergentTailError as e:
            out[key] = None
            out[key + "_divergent"] = str(e)
    return out
