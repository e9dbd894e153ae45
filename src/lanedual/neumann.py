"""Inverse Neumann Laplacian on zero-mean data and its constant-shifted
variants.

K solves -Delta(u) = h, d_nu(u) = 0, int(u) = 0 for zero-mean h. The
singular system is regularized by bordering the symmetric stiffness matrix
with the mean constraint (not by pinning a node), which keeps K exactly
self-adjoint in the discrete inner product. K_t adds the unique constant
kappa making int |K_t h|^(t-1) K_t h = 0; that constant is the reason the
dual fixed-point iterates stay zero-mean for free.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import NumericalError

MEAN_TOL = 1e-8
# x-tolerance of the kappa root, xtol + rtol * |kappa| (brentq's defaults)
KAPPA_XTOL, KAPPA_RTOL = 1e-15, 8.9e-16
_EPS = np.finfo(float).eps
# L2 change of the normalized iterate that ends the inverse iteration; the
# Rayleigh quotient has settled to ~1e-15 by then. EIG_ITERS caps it.
EIG_TOL, EIG_ITERS = 1e-10, 60
# Floor on |v| in |v|^t, against signed-zero issues for exponents below 1
POWER_FLOOR = 1e-300


class NonZeroMeanError(NumericalError, ValueError):
    """Compatibility condition int(h) = 0 violated."""


@dataclass
class KtShift:
    t: float
    kappa: float
    residual: float


def signed_power(values, expo):
    """|v|^expo * sign(v), with |v| floored at POWER_FLOOR."""
    a = np.maximum(np.abs(values), POWER_FLOOR)
    return np.sign(values) * a ** expo


class NeumannSolver:
    """Factorized zero-mean Neumann solver bound to one mesh.

    The factorization is computed once and reused. The bordered matrix is
    structurally symmetric, so its columns are ordered by minimum degree on
    the pattern of B^T + B: on the 96x72 axisymmetric meshes that holds the
    L+U fill to 245k nonzeros against 426k with SuperLU's default COLAMD.
    relax=1 turns off SuperLU's relaxed supernodes (small subtrees of the
    elimination tree merged into one supernode). Ordering, fill and partial
    pivoting stay the same, and a back-solve on the 96x72 meshes costs
    670-690 us instead of 800-850 us (median of 5, 2-core Xeon VM).
    `k_solves` counts the back-solves made so far.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.k_solves = 0
        A = mesh.stiffness()
        wcol = sp.csc_matrix(mesh.w.reshape(-1, 1))
        B = sp.bmat([[A, wcol], [wcol.T, None]], format="csc")
        self._lu = spla.splu(B, permc_spec="MMD_AT_PLUS_A", relax=1)

    def check_mean(self, h):
        """Raise NonZeroMeanError unless int(h) = 0 to MEAN_TOL * ||h||_1."""
        m = abs(self.mesh.integrate(h))
        scale = self.mesh.norm_Ls(h, 1)
        if scale > 0 and m > MEAN_TOL * scale:
            raise NonZeroMeanError(
                f"int(h) = {m:.3e} exceeds {MEAN_TOL:.0e} * ||h||_1 "
                f"= {MEAN_TOL * scale:.3e}")

    def solve_K(self, h, check_mean=True):
        """u = K h: -Delta(u) = h weakly, d_nu(u) = 0, int(u) = 0."""
        h = np.ravel(h)
        if check_mean:
            self.check_mean(h)
        rhs = np.concatenate([self.mesh.w * h, [0.0]])
        self.k_solves += 1
        sol = self._lu.solve(rhs)
        return sol[:-1]

    def kappa_shift(self, values, t, guess=None):
        """Root kappa of the strictly increasing map
        F(kappa) = int |v + kappa|^(t-1) (v + kappa).

        Safeguarded Newton inside the sign bracket [-max v, -min v], which
        shrinks with every evaluation: a step that leaves the bracket, or
        fails to halve the previous step, bisects instead. The iteration
        starts from `guess` when that lies in the bracket (the previous
        sweep's kappa), else from -mean(v), and stops when F is at its
        roundoff floor or the bracket is narrower than the x-tolerance.
        A Newton step below the x-tolerance is lengthened to it, so that
        the next evaluation closes the bracket; for t < 1 the derivative
        blows up at a zero of v + kappa, and there a tiny Newton step does
        not mean that the root is near.
        """
        if t <= 0:
            raise ValueError(f"exponent t = {t} must be positive")
        w = self.mesh.w
        values = np.ravel(values)
        if t == 1.0:
            kap = -self.mesh.mean(values)
            res = float(w @ (values + kap))
            return KtShift(t=t, kappa=kap, residual=res)
        lo, hi = -values.max(), -values.min()
        if lo == hi:  # constant field
            return KtShift(t=t, kappa=lo, residual=0.0)
        kap = guess if guess is not None and lo <= guess <= hi \
            else -self.mesh.mean(values)
        step_old = hi - lo
        for _ in range(200):
            x = values + kap
            # |x|^(t-1) gives F and F'
            a = np.maximum(np.abs(x), POWER_FLOOR) ** (t - 1.0)
            ax = a * x
            res = float(w @ ax)
            if abs(res) <= 4.0 * _EPS * float(w @ np.abs(ax)):
                break
            if res > 0.0:
                hi = kap
            else:
                lo = kap
            xtol = KAPPA_XTOL + KAPPA_RTOL * abs(kap)
            if hi - lo <= xtol:
                break
            step = res / (t * float(w @ a))
            if not lo < kap - step < hi or abs(step) > 0.5 * abs(step_old):
                step = kap - 0.5 * (lo + hi)
            elif abs(step) < xtol:
                step = np.copysign(xtol, step)
            kap -= step
            step_old = step
        return KtShift(t=t, kappa=kap, residual=res)

    def solve_Kt(self, h, t):
        """K_t h = K h + kappa_t(K h)."""
        u = self.solve_K(h)
        shift = self.kappa_shift(u, t)
        return u + shift.kappa

    # -- spectral helpers ------------------------------------------------
    def first_eigenfunction(self):
        """First nonconstant Neumann eigenfunction by inverse iteration
        with K (normalized in L2), stopped once an iteration moves the
        iterate by at most EIG_TOL in L2, or after EIG_ITERS iterations.
        Returns (eigenvalue, eigenfunction)."""
        mesh = self.mesh
        v = mesh.node_r() * np.cos(mesh.node_theta()) + 0.5 * mesh.node_r()
        v = v - mesh.mean(v)
        v /= mesh.norm_Ls(v, 2)
        for _ in range(EIG_ITERS):
            # K is positive on zero-mean fields, so the iterate keeps its
            # sign and the plain difference measures the change
            vn = self.solve_K(v, check_mean=False)
            vn = vn - mesh.mean(vn)
            vn /= mesh.norm_Ls(vn, 2)
            change = mesh.norm_Ls(vn - v, 2)
            v = vn
            if change <= EIG_TOL:
                break
        # one Rayleigh-quotient refinement pass
        u = self.solve_K(v, check_mean=False)
        lam = mesh.inner(v, v) / mesh.inner(v, u)
        return float(lam), v


def dense_eigenpairs(mesh, k=6):
    """Generalized symmetric eigendecomposition A phi = lambda W phi on a
    coarse mesh (dense; oracle use only). Returns ascending (lams, vecs)."""
    from scipy.linalg import eigh
    A = mesh.stiffness().toarray()
    W = np.diag(mesh.w)
    lams, vecs = eigh(A, W)
    return lams[:k], vecs[:, :k]
