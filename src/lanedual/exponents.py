"""Exponent algebra on the critical hyperbola 1/(p+1) + 1/(q+1) = (N-2)/N.

Every other module takes an :class:`ExponentPack` rather than raw (p, q, N)
so the dual weights and scaling exponents are computed in exactly one place.
"""

from dataclasses import dataclass, field
from math import isfinite

HYPERBOLA_TOL = 1e-10


class OffHyperbolaError(ValueError):
    """Raised when (p, q, N) does not lie on the critical hyperbola."""

    def __init__(self, p, q, N, residual):
        self.residual = residual
        super().__init__(
            f"(p={p}, q={q}, N={N}) is off the critical hyperbola: "
            f"|1/(p+1)+1/(q+1)-(N-2)/N| = {residual:.3e} > {HYPERBOLA_TOL:.0e}"
        )


@dataclass(frozen=True)
class ExponentPack:
    """A point (p, q, N) on the critical hyperbola with all derived dual
    constants, computed once here.

    alpha, beta are the dual Lebesgue exponents (p+1)/p and (q+1)/q;
    gamma1, gamma2, gamma the dual weights with gamma1 + gamma2 = 1 and
    1/alpha + 1/beta = 1/gamma; sp = N/(p+1), sq = N/(q+1) the bubble
    scaling exponents. Only here is a point validated: its ranges
    (require_valid), then the hyperbola and pq > 1.
    """

    p: float
    q: float
    N: int
    alpha: float = field(init=False)
    beta: float = field(init=False)
    gamma1: float = field(init=False)
    gamma2: float = field(init=False)
    gamma: float = field(init=False)
    sp: float = field(init=False)
    sq: float = field(init=False)

    def __post_init__(self):
        p, q, N = self.p, self.q, self.N
        require_valid(N, p=p, q=q)
        res = hyperbola_residual(p, q, N)
        if not res <= HYPERBOLA_TOL:
            raise OffHyperbolaError(p, q, N, res)
        if not p * q > 1.0:
            raise ValueError(f"pq = {p * q} must exceed 1")
        N = int(N)
        alpha = (p + 1.0) / p
        beta = (q + 1.0) / q
        gamma1 = beta / (alpha + beta)
        derived = {"N": N, "alpha": alpha, "beta": beta, "gamma1": gamma1,
                   "gamma2": alpha / (alpha + beta), "gamma": gamma1 * alpha,
                   "sp": N / (p + 1.0), "sq": N / (q + 1.0)}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def threshold_exponent(self):
        """(p+1)(q+1)/(pq-1), which equals N/2 on the hyperbola."""
        return (self.p + 1.0) * (self.q + 1.0) / (self.p * self.q - 1.0)


def threshold_constant(pack, S):
    """Compactness threshold 2^(2/N) / S, S the Sobolev constant of the
    pack's ground state."""
    return 2.0 ** (2.0 / pack.N) / S


def require_valid(N, **exponents):
    """Raise ValueError naming the first bad input, before any division
    by N - 2, p + 1 or q + 1: N not an integer >= 4, or an exponent that is
    not finite (checked first: NaN fails every comparison) or not positive.
    """
    if not (N >= 4 and N % 1 == 0):
        raise ValueError(f"dimension N = {N} must be an integer >= 4")
    for name, value in exponents.items():
        if not isfinite(value):
            raise ValueError(f"exponent {name} = {value} is not finite")
        if not value > 0:
            raise ValueError(f"exponent {name} = {value} must be positive")


def hyperbola_residual(p, q, N):
    return abs(1.0 / (p + 1.0) + 1.0 / (q + 1.0) - (N - 2.0) / N)


def hyperbola_partner(p, N, name="p"):
    """Closed-form partner exponent q with (p, q) on the critical hyperbola.

    Requires p > 2/(N-2) so the partner is positive and finite, and N >= 4.
    The relation is symmetric, so p may be either exponent; errors call it
    `name`.
    """
    require_valid(N, **{name: p})
    if not p > 2.0 / (N - 2.0):
        raise ValueError(f"{name} = {p} <= 2/(N-2) = {2.0 / (N - 2.0):.6g}: "
                         "partner exponent would be nonpositive or infinite")
    return 1.0 / ((N - 2.0) / N - 1.0 / (p + 1.0)) - 1.0


SNAP_TOL = 1e-6


def derived_constants(p, q, N, snap=False):
    """Build the :class:`ExponentPack` for a hyperbola point.

    With ``snap=True``, q is recomputed from p in closed form so that
    accumulated drift (up to 1e-6) does not trip the membership tolerance;
    genuinely off-hyperbola input is still rejected with the measured
    residual.
    """
    if snap:
        require_valid(N, p=p, q=q)
        if not hyperbola_residual(p, q, N) <= SNAP_TOL:
            raise OffHyperbolaError(p, q, N, hyperbola_residual(p, q, N))
        q = hyperbola_partner(p, N)
    return ExponentPack(p, q, N)


def pack_from_p(p, N):
    """Convenience: snap q from p and build the pack."""
    return derived_constants(p, hyperbola_partner(p, N), N)


def admissibility(pack):
    """Classify a pack's hyperbola point against the existence conditions.

    Returns a (label, condition) pair where label is one of
    ``covered-by-main-thm``, ``biharmonic-window``, ``uncovered``. The
    classifier never reports nonexistence: points outside the known
    conditions are simply ``uncovered``.
    """
    N = pack.N
    lo = min(pack.p, pack.q)
    if N >= 6:
        bound = (N + 2.0) / (2.0 * (N - 2.0))
        cond = f"(i) N>=6, p,q > (N+2)/(2(N-2)) = {bound:.6g}"
    elif N == 5:
        bound = 17.0 / 13.0
        cond = "(ii) N=5, p,q > 17/13"
    else:
        bound = 7.0 / 3.0
        cond = "(iii) N=4, p,q > 7/3"
    if lo > bound:
        return "covered-by-main-thm", cond
    if N >= 5 and abs(lo - 1.0) <= HYPERBOLA_TOL:
        return "biharmonic-window", f"N={N}>=5, min(p,q)=1"
    return "uncovered", f"min(p,q) = {lo:.6g} <= {bound:.6g} fails {cond}"
