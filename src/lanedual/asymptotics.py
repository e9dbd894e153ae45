"""Epsilon-sweeps of bubble quantities: norm rates, boundary terms, the
boundary test-function quotient, and a sharpness probe for the two-domain
Sobolev inequality.

Bubbles are centered at the north pole of the ball, so the axisymmetric
reduction is exact and, for purely profile-driven integrals, everything
reduces to 1D quadrature against the spherical-cap fraction

    frac(s) = |S(x0, s) inside B_R| / |S(x0, s)|
            = I_x((N-1)/2, 1/2) / 2,   x = 1 - (s/2R)^2,

with I_x the regularized incomplete beta function, which keeps those
sweeps at machine-level accuracy. Only quantities that involve the
inverse Neumann operator require the 2D mesh.

I_x and the slope fits' Student-t quantile are Boost's ibeta and
students_t quantile, the C functions that scipy.special's betainc and
stdtrit run. They are called through ctypes from the C API of
scipy/special/_ufuncs_cxx, which is loaded from its file: importing
scipy.special would cost about 0.2 s and 24 MB in every process that
sweeps. The results equal betainc's and stdtrit's bit for bit (checked
against scipy 1.17.1, and held to scipy.special by the tests); a ctypes
call costs 1.2-2 us, against 0.3 us an element in the ufunc, so
cherrier_probe evaluates the cap fraction once per eps for its four
integrals.
"""

import ctypes
from dataclasses import dataclass, field

import numpy as np

from . import scipy_files
from .exponents import threshold_constant
from .groundstate import (REGIME_TOL, simpson, tail_law, truncated_norm,
                          truncated_norms)
from .mesh import sphere_area

# relative slope tolerances of the norm rates (pure power, log-corrected)
# and of the normal-derivative rate, the last also an absolute floor
NORM_RATE_TOL = 0.02
NORM_RATE_LOG_TOL = 0.05
BOUNDARY_RATE_TOL = 0.05
# relative gap allowed between the sharpness probe's leading constant at
# the smallest eps and its target, 2^(2/N)/S (boundary) or 1/S (interior)
LEADING_CONSTANT_TOL = 0.03
# a bubble core must span at least CORE_CELLS mesh cells to be resolved
CORE_CELLS = 8
# lower-order constants C_lo at which the sharpness probe reports
C_LO_GRID = (0.0, 1.0, 10.0)


# -- Boost kernels -----------------------------------------------------------

def _boost_kernels():
    """(t_ppf(df, p), ibeta(a, b, x)) on floats, from the C API of
    scipy's _ufuncs_cxx. Each capsule holds the address of a function
    pointer. A missing file or capsule raises ImportError naming it."""
    module = scipy_files.load("special", "_ufuncs_cxx")
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))

    def kernel(name, nargs):
        capsule = module.__pyx_capi__.get(name)
        if capsule is None:
            raise ImportError(f"{module.__file__} exports no {name}")
        address = ctypes.c_void_p.from_address(pointer(capsule, b"void *"))
        return ctypes.PYFUNCTYPE(*[ctypes.c_double] * (nargs + 1))(
            address.value)

    return (kernel("_export_t_ppf_double", 2),
            kernel("_export_ibeta_double", 3))


# stdtrit(df, p) is scipy.special.stdtrit on floats
stdtrit, _ibeta = _boost_kernels()


# -- spherical-cap quadrature ------------------------------------------------

def cap_fraction(s, R, N):
    """Fraction of the sphere of radius s about a boundary point of B_R
    that lies inside the ball."""
    s = np.asarray(s, dtype=float)
    x = np.clip(1.0 - (s / (2.0 * R)) ** 2, 0.0, 1.0)
    a = (N - 1) / 2.0
    ibeta = np.array([_ibeta(a, 0.5, v) for v in x.ravel().tolist()])
    return 0.5 * ibeta.reshape(x.shape)


def ball_integral(fun, R, N, s_min, family):
    """int_{B_R} F(|x - x0|) dx for F radial, with x0 on the boundary of
    the ball (family "boundary") or at its center ("interior"). `fun`
    returns stacked rows, one integrand each, and the integrals come back
    as an array, on one evaluation of the cap fraction."""
    if family not in ("boundary", "interior"):
        raise ValueError(f"unknown family {family!r}")
    boundary = family == "boundary"
    s = np.geomspace(s_min, 2.0 * R if boundary else R, 4001)
    vals = fun(s) * s ** (N - 1)
    if boundary:
        vals *= cap_fraction(s, R, N)
    out = np.array([sphere_area(N) * simpson(row, x=s) for row in vals])
    # [0, s_min] patch: integrand ~ F(0) s^{N-1}, halved for a boundary x0
    return out + (sphere_area(N) * fun(np.array([s_min]))[:, 0] * s_min ** N
                  / ((2 if boundary else 1) * N))


# -- fits --------------------------------------------------------------------

@dataclass
class FitResult:
    slope: float
    intercept: float
    ci: float            # 95% halfwidth on the slope
    resid_rms: float


def fit_linear(x, y):
    """Least-squares line y ~ intercept + slope x, with the 95% CI
    halfwidth on the slope."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n = len(x)
    X = np.column_stack([np.ones(n), x])
    coef, res, *_ = np.linalg.lstsq(X, y, rcond=None)
    yhat = X @ coef
    dof = max(n - 2, 1)
    s2 = float(np.sum((y - yhat) ** 2)) / dof
    sx = float(np.sum((x - x.mean()) ** 2))
    se = np.sqrt(s2 / sx) if sx > 0 else np.inf
    tcrit = stdtrit(dof, 0.975)  # Student-t quantile
    return FitResult(slope=float(coef[1]), intercept=float(coef[0]),
                     ci=float(tcrit * se),
                     resid_rms=float(np.sqrt(np.mean((y - yhat) ** 2))))


def fit_loglog(eps, vals, log_power=0.0):
    """Fit vals ~ a * eps^s * |log eps|^log_power with the log power fixed.

    Needs >= 5 points spanning >= 1.5 decades.
    """
    eps = np.asarray(eps, float)
    vals = np.asarray(vals, float)
    if len(eps) < 5:
        raise ValueError("slope fit needs at least 5 epsilon points")
    span = np.log10(eps.max() / eps.min())
    if span < 1.5 - 1e-9:
        raise ValueError(f"slope fit needs >= 1.5 decades, got {span:.2f}")
    y = np.log(vals) - log_power * np.log(np.abs(np.log(eps)))
    return fit_linear(np.log(eps), y)


@dataclass
class SweepRecord:
    quantity: str
    eps: np.ndarray
    values: np.ndarray
    fitted_slope: float
    slope_ci: float
    predicted_slope: float
    provenance: str
    log_power: float = 0.0
    passed: bool | None = None
    extras: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "quantity": self.quantity,
            "eps": list(map(float, self.eps)),
            "values": list(map(float, self.values)),
            "fitted_slope": self.fitted_slope,
            "slope_ci": self.slope_ci,
            "predicted_slope": self.predicted_slope,
            "log_power": self.log_power,
            "provenance": self.provenance,
            "passed": self.passed,
            **{k: list(map(float, v)) if isinstance(v, np.ndarray) else v
               for k, v in self.extras.items()},
        }


# -- norm-rate sweeps --------------------------------------------------------

def predicted_norm_rate(pack, quantity):
    """(slope, log_power, provenance) for the truncated-domain L1 norms of
    the scaled bubble family.

    Derived from the fitted tail law: with W_eps = eps^(-sW) W(./eps) of
    tail W ~ r^m log(r)^l, the domain-truncated L1 norm scales like
    eps^(N - sW) when the whole-space integral converges (m + N < 0), like
    eps^(-sW - m) |log eps|^l when the truncation dominates, and picks up
    an extra |log eps| at m + N = 0. Reproduces the usual three-regime
    rate table in the q <= p orientation.
    """
    N = pack.N
    norms = truncated_norms(pack)
    if quantity not in norms:
        raise ValueError(f"unknown norm-rate quantity {quantity!r}")
    comp, power, s_w = norms[quantity]
    m0, l0 = tail_law(pack, comp)
    m, l = m0 * power, l0 * power
    mN = m + N
    if mN < -REGIME_TOL:
        return N - s_w, 0.0, f"{comp}^{power:g} truncated L1, convergent tail"
    if mN > REGIME_TOL:
        return -s_w - m, float(l), (f"{comp}^{power:g} truncated L1, "
                                    "truncation-dominated tail")
    return N - s_w, float(l + 1), (f"{comp}^{power:g} truncated L1, "
                                   "marginal tail (extra log)")


def norm_rate_sweep(profile, quantity, eps_grid, R_domain=1.0):
    """Fitted log-log slope of a truncated bubble norm vs the predicted
    rate; log-corrected regimes are fitted with the log power pinned. It
    passes when |slope - predicted| <= tol |predicted|, with tol
    NORM_RATE_TOL, or NORM_RATE_LOG_TOL for a log-corrected rate, whatever
    the fit's CI: a noisy fit does not widen the tolerance."""
    pred, log_power, prov = predicted_norm_rate(profile.pack, quantity)
    eps_grid = np.sort(np.asarray(eps_grid, float))[::-1]
    vals = np.array([truncated_norm(profile, quantity, e, R_domain)
                     for e in eps_grid])
    fit = fit_loglog(eps_grid, vals, log_power=log_power)
    tol = NORM_RATE_LOG_TOL if log_power else NORM_RATE_TOL
    passed = abs(fit.slope - pred) <= tol * abs(pred)
    return SweepRecord(quantity=quantity, eps=eps_grid, values=vals,
                       fitted_slope=fit.slope, slope_ci=fit.ci,
                       predicted_slope=pred, provenance=prov,
                       log_power=log_power, passed=bool(passed),
                       extras={"fit_resid_rms": fit.resid_rms})


# -- boundary terms ----------------------------------------------------------

def _boundary_integral(integrand, N, eps, R):
    """int over the boundary sphere of B_R of integrand(dist, geom), by 1D
    polar-angle quadrature: dist is a boundary point's distance from the
    north pole, geom the factor that turns a radial derivative about the
    pole into the outer normal one."""
    th = np.geomspace(min(1e-5 * eps / R, 1e-8), np.pi, 3001)
    dist = 2.0 * R * np.sin(th / 2.0)
    geom = R * (1.0 - np.cos(th)) / dist
    vals = integrand(dist, geom) * np.sin(th) ** (N - 2)
    return sphere_area(N - 1) * R ** (N - 1) * float(simpson(vals, x=th))


def boundary_pairing(profile, eps, R=1.0):
    """int_{boundary} U_eps d_nu(V_eps) dS for the bubble at the north pole
    of B_R."""
    return _boundary_integral(
        lambda dist, geom: (profile.U_eps(dist, eps)
                            * profile.dV_eps(dist, eps) * geom),
        profile.pack.N, eps, R)


def boundary_normal_norm(profile, eps, R=1.0):
    """||d_nu(U_eps)||_{L^{2(N-1)/N}} on the boundary sphere."""
    N = profile.pack.N
    expo = 2.0 * (N - 1.0) / N
    raw = _boundary_integral(
        lambda dist, geom: np.abs(profile.dU_eps(dist, eps) * geom) ** expo,
        N, eps, R)
    return raw ** (1.0 / expo)


def predicted_normal_derivative_rate(pack):
    """(slope, log_power, provenance) for ||d_nu U_eps|| on the boundary.

    With U ~ r^m log(r)^l (tail_law), |d_nu U_eps|^(2(N-1)/N) integrates
    on the boundary like s^(2(N-1)m/N + N-2) for eps << s << 1, which is
    1/s at m = -N/2: below, the integral converges near the bubble; above,
    the far field dominates; at m = -N/2 (N = 4 and q >= 2, or N >= 5 and
    q = (N+4)/(2(N-2))) the norm takes |log eps|^(N/(2(N-1)) + l).
    """
    N, p = pack.N, pack.p
    m, l = tail_law(pack, "U")
    if m < -N / 2.0 - REGIME_TOL:
        return (N / 2.0 - N / (p + 1.0), 0.0,
                "normal-derivative trace rate, fast regime")
    if m > -N / 2.0 + REGIME_TOL:
        return (-m - N / (p + 1.0), float(l),
                "normal-derivative trace rate, slow regime")
    return (N / 2.0 - N / (p + 1.0), N / (2.0 * (N - 1.0)) + l,
            "normal-derivative trace rate, log-corrected regime")


def boundary_term_sweep(profile, eps_grid, R=1.0):
    """Sign of the boundary pairing and the growth rate of the normal-
    derivative trace norm. The rate passes when |slope - predicted| <=
    BOUNDARY_RATE_TOL max(|predicted|, 1), whatever the fit's CI."""
    eps_grid = np.sort(np.asarray(eps_grid, float))[::-1]
    pair = np.array([boundary_pairing(profile, e, R) for e in eps_grid])
    nrm = np.array([boundary_normal_norm(profile, e, R) for e in eps_grid])
    pred, log_power, prov = predicted_normal_derivative_rate(profile.pack)
    fit = fit_loglog(eps_grid, nrm, log_power=log_power)
    passed = (abs(fit.slope - pred) <= max(BOUNDARY_RATE_TOL * abs(pred),
                                           BOUNDARY_RATE_TOL)
              and bool(np.all(pair < 0.0)))
    return SweepRecord(quantity="boundary_UdnuV", eps=eps_grid, values=pair,
                       fitted_slope=fit.slope, slope_ci=fit.ci,
                       predicted_slope=pred, provenance=prov,
                       log_power=log_power, passed=bool(passed),
                       extras={"normal_norms": nrm,
                               "all_negative": bool(np.all(pair < 0.0))})


# -- test-function quotient --------------------------------------------------

def bubble_fields(mesh, profile, eps):
    """(U_eps, V_eps) nodal fields for the bubble at the north pole."""
    r = mesh.node_r()
    th = mesh.node_theta()
    dist = np.sqrt(np.maximum(r ** 2 + mesh.R ** 2
                              - 2.0 * mesh.R * r * np.cos(th), 0.0))
    dist = np.maximum(dist, 1e-14 * mesh.R)
    return profile.U_eps(dist, eps), profile.V_eps(dist, eps)


def min_resolvable_eps(mesh, profile):
    """Smallest eps whose bubble core spans >= CORE_CELLS axisymmetric mesh
    cells near the north pole; smaller ones are refused, not extrapolated."""
    half = profile.eval(profile.r[1:], "U") <= 0.5 * profile.shoot_d
    r_core = profile.r[1:][half][0] if half.any() else 1.0
    dr = mesh.r[-1] - mesh.r[-2]
    dth = (mesh.theta[1] - mesh.theta[0]) * mesh.R
    return CORE_CELLS * max(dr, dth) / r_core


def test_function_ratio(solver, profile, eps):
    """The dual quotient (rayleigh_ratio) on the ball of the zero-mean
    boundary-bubble test pair (Ut, Vt).

    Ut = U_eps^p - mean, Vt = V_eps^q - mean, with means taken in the mesh
    quadrature so the pair is admissible for the discrete solver exactly.
    """
    mesh = solver.mesh
    pack = profile.pack
    if not (mesh.kind == "axisym-ball"):
        raise ValueError("test_function_ratio runs on an axisym-ball mesh")
    lo = min_resolvable_eps(mesh, profile)
    if eps < lo:
        raise ValueError(f"eps = {eps:.3g} under-resolved on this mesh "
                         f"(minimum {lo:.3g}); refine instead of "
                         "extrapolating")
    from .dualsolve import rayleigh_ratio  # lazily: sweep needs no dual layer
    Ue, Ve = bubble_fields(mesh, profile, eps)
    Ut = Ue ** pack.p
    Vt = Ve ** pack.q
    return rayleigh_ratio(solver, Ut - mesh.mean(Ut), Vt - mesh.mean(Vt),
                          pack)


def expansion_sweep(solver, profile, S, eps_grid):
    """ratio(eps) - threshold, with a linear fit whose slope should be
    positive with CI excluding zero."""
    T = threshold_constant(profile.pack, S)
    eps_grid = np.sort(np.asarray(eps_grid, float))[::-1]
    vals = np.array([test_function_ratio(solver, profile, e)
                     for e in eps_grid])
    fit = fit_linear(eps_grid, vals - T)
    passed = fit.slope > 0 and fit.slope - fit.ci > 0
    return SweepRecord(quantity="test_function_ratio_minus_threshold",
                       eps=eps_grid, values=vals - T,
                       fitted_slope=fit.slope, slope_ci=fit.ci,
                       predicted_slope=np.nan,
                       provenance="boundary expansion linear coefficient",
                       passed=bool(passed),
                       extras={"threshold": T, "intercept": fit.intercept,
                               "ratios": vals})


# -- sharpness probe ---------------------------------------------------------

@dataclass
class LeadingConstant:
    """The sharpness probe's leading constant (C_lo = 0) at its smallest eps,
    judged against the family's target."""
    rows: list           # cherrier_probe's rows
    leading: float
    target: float        # 2^(2/N)/S (boundary) or 1/S (interior)
    rel_err: float
    passed: bool         # rel_err <= LEADING_CONSTANT_TOL


def leading_constant(profile, family, eps_grid, R=1.0):
    """cherrier_probe over eps_grid, judged against the family's target."""
    rows = cherrier_probe(profile, family, eps_grid, R=R)
    lead = rows[-1]["leading"]["0.0"]
    target = (threshold_constant(profile.pack, profile.S)
              if family == "boundary" else 1.0 / profile.S)
    err = abs(lead / target - 1.0)
    return LeadingConstant(rows, lead, target, err,
                           err <= LEADING_CONSTANT_TOL)


def cherrier_probe(profile, family, eps_grid, R=1.0):
    """Empirical leading constant of ||u||_{eta*} <= C ||Delta u||_eta +
    C' ||u||_{W^{1,eta}} over a concentrating family.

    For each eps and each C_lo of C_LO_GRID the probe evaluates
    (||u||_{eta*} - C_lo ||u||_{W^{1,eta}}) / ||Delta u||_eta; boundary
    families approach 2^(2/N)/S, interior families 1/S.
    """
    pack = profile.pack
    N, p, q = pack.N, pack.p, pack.q
    eta = pack.beta
    rows = []
    for eps in np.sort(np.asarray(eps_grid, float))[::-1]:
        def integrands(s):
            U = profile.U_eps(s, eps)
            return np.stack([U ** (p + 1.0),
                             profile.V_eps(s, eps) ** (q * eta),
                             U ** eta,
                             np.abs(profile.dU_eps(s, eps)) ** eta])

        u_star, lap, u_eta, grad_eta = ball_integral(
            integrands, R, N, 1e-7 * eps, family).tolist()
        u_star **= 1.0 / (p + 1.0)
        lap **= 1.0 / eta
        u_eta **= 1.0 / eta
        grad_eta **= 1.0 / eta
        w1 = u_eta + grad_eta
        rows.append({"eps": float(eps), "u_star": u_star, "lap": lap,
                     "w1": w1,
                     "leading": {str(c): (u_star - c * w1) / lap
                                 for c in C_LO_GRID}})
    return rows
