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

from . import NumericalError, scipy_files
from .mesh import weighted_sum

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
    kappa: float
    evals: int  # evaluations of F(kappa) made to find kappa


_superlu = scipy_files.load("sparse", "linalg", "_dsolve", "_superlu")


def _gstrf(data, indices, indptr, ilu, **options):
    """SuperLU's factorization of the square CSC matrix (data, indices,
    indptr), called as scipy's splu (ilu=False) and spilu (ilu=True) call
    it. No csc_construct_func is passed, so the factors' L and U are
    never built as matrices; `nnz` counts their fill."""
    return _superlu.gstrf(len(indptr) - 1, len(data), data, indices, indptr,
                          None, ilu=ilu, options=options)


def signed_power(values, expo):
    """|v|^expo * sign(v), with |v| floored at POWER_FLOOR."""
    a = np.maximum(np.abs(values), POWER_FLOOR)
    return np.sign(values) * a ** expo


class NeumannSolver:
    """Factorized zero-mean Neumann solver bound to one mesh.

    The factorization is computed once and reused. The bordered matrix
    [[A, w], [w^T, 0]] has one dense row and column, the border, which a
    minimum-degree order of the whole matrix cannot place well. So the
    nodes are ordered by minimum degree on the stiffness matrix alone,
    made nonsingular as A + 1e-8 diag(w), and the border goes last (the
    dense-row rule of AMD: Amestoy, Davis & Duff, SIAM J. Matrix Anal.
    Appl. 17, 1996). The order comes from an incomplete LU that drops
    every entry it may, which computes it at a small fraction of a full
    factorization's time and fill. SuperLU's `perm_c` sends node i to
    position perm_c[i], so the nodes in factored order are
    argsort(perm_c); read the other way round, the L+U fill rises
    twentyfold. On the 96x72 axisymmetric ball the fill is 245k nonzeros,
    as with a minimum-degree order of the bordered matrix, against 426k
    with SuperLU's default COLAMD, and the 160x160 graded ball factors in
    about 0.1 s instead of 0.3 s (2-core Xeon VM). Relax=1 turns off
    SuperLU's relaxed supernodes (small subtrees of the elimination tree
    merged into one supernode): a back-solve on the 96x72 meshes costs
    670-690 us instead of 800-850 us (median of 5, same VM).

    Both factorizations call SuperLU's gstrf with the options that
    scipy's spilu and splu pass it, on the mesh's CSC arrays. Its
    extension module is loaded from its file (scipy_files.load, a few ms)
    because importing scipy.sparse.linalg costs 0.23-0.31 s and about
    19 MB, most of it scipy's array-API layer, in every process that
    solves. `k_solves` counts the back-solves made so far, and
    `eigen_work` holds the iterations and stop reason of the last
    first_eigenfunction.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.k_solves = 0
        self.eigen_work = None
        A, w = mesh.stiffness(), mesh.w
        n = len(w)
        rows, cols = A.indices, A.columns()
        shifted = A.data.copy()
        shifted[rows == cols] += 1e-8 * w  # one diagonal entry per column
        # position of each node in the factored order, and the node at
        # each position; perm_c is a view that would keep the incomplete
        # factors alive
        self._pos = _gstrf(shifted, A.indices, A.indptr, ilu=True,
                           ILU_DropTol=1e300, ILU_FillFactor=1,
                           ColPerm="MMD_AT_PLUS_A", Relax=1
                           ).perm_c.astype(np.intp)
        self._order = np.argsort(self._pos)
        # the permuted bordered matrix in CSC form: entry (i, j) of A goes
        # to (pos[i], pos[j]), the border to row and column n; entries are
        # sorted by column, then row
        pos, edge = self._pos, np.full(n, n)
        rows = np.concatenate([pos[rows], pos, edge])
        cols = np.concatenate([pos[cols], edge, pos])
        entry = np.argsort(cols * (n + 1) + rows)
        self._lu = _gstrf(
            np.concatenate([A.data, w, w])[entry], rows[entry].astype(np.intc),
            np.concatenate([[0], np.cumsum(np.bincount(cols))]).astype(np.intc),
            ilu=False, ColPerm="NATURAL", SymmetricMode=True, Relax=1)

    def check_mean(self, h):
        """Raise NonZeroMeanError unless int(h) = 0 to MEAN_TOL * ||h||_1."""
        m = abs(self.mesh.integrate(h))
        scale = self.mesh.norm_Ls(h, 1)
        if scale > 0 and m > MEAN_TOL * scale:
            raise NonZeroMeanError(
                f"int(h) = {m:.3e} exceeds {MEAN_TOL:.0e} * ||h||_1 "
                f"= {MEAN_TOL * scale:.3e}")

    def solve_K(self, h):
        """u = K h: -Delta(u) = h weakly, d_nu(u) = 0, int(u) = 0, for
        zero-mean h (check_mean checks it)."""
        h = np.ravel(h)
        rhs = np.append((self.mesh.w * h).take(self._order), 0.0)
        self.k_solves += 1
        return self._lu.solve(rhs).take(self._pos)

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
        not mean that the root is near. A field holding a NaN or an
        infinity has no root: kappa is NaN, at no evaluation.
        """
        if t <= 0:
            raise ValueError(f"exponent t = {t} must be positive")
        w = self.mesh.w
        values = np.ravel(values)
        if t == 1.0:
            return KtShift(kappa=-self.mesh.mean(values), evals=1)
        lo, hi = -values.max(), -values.min()
        if not (np.isfinite(lo) and np.isfinite(hi)):  # a NaN or an infinity
            return KtShift(kappa=np.nan, evals=0)
        if lo == hi:  # constant field
            return KtShift(kappa=lo, evals=0)
        kap = guess if guess is not None and lo <= guess <= hi \
            else -self.mesh.mean(values)
        step_old = hi - lo
        for evals in range(1, 201):
            x = values + kap
            # |x|^(t-1) gives F and F'
            a = np.maximum(np.abs(x), POWER_FLOOR) ** (t - 1.0)
            ax = a * x
            res = weighted_sum(w, ax)
            if abs(res) <= 4.0 * _EPS * weighted_sum(w, np.abs(ax)):
                break
            if res > 0.0:
                hi = kap
            else:
                lo = kap
            xtol = KAPPA_XTOL + KAPPA_RTOL * abs(kap)
            if hi - lo <= xtol:
                break
            step = res / (t * weighted_sum(w, a))
            if not lo < kap - step < hi or abs(step) > 0.5 * abs(step_old):
                step = kap - 0.5 * (lo + hi)
            elif abs(step) < xtol:
                step = np.copysign(xtol, step)
            kap -= step
            step_old = step
        return KtShift(kappa=kap, evals=evals)

    def solve_Kt(self, h, t):
        """K_t h = K h + kappa_t(K h), after check_mean(h)."""
        self.check_mean(h)
        u = self.solve_K(h)
        shift = self.kappa_shift(u, t)
        return u + shift.kappa

    # -- spectral helpers ------------------------------------------------
    def first_eigenfunction(self):
        """First nonconstant Neumann eigenfunction, zero-mean and of unit
        L2 norm, by inverse iteration with K: stopped once an iteration
        moves the iterate by at most EIG_TOL in L2 ("converged"), or after
        EIG_ITERS iterations ("max_iter"), as `eigen_work` records. Its
        eigenvalue is not computed; dense_eigenpairs gives it on meshes
        small enough for a dense solve."""
        mesh = self.mesh
        v = mesh.node_r() * np.cos(mesh.node_theta()) + 0.5 * mesh.node_r()
        v = v - mesh.mean(v)
        v /= mesh.norm_Ls(v, 2)
        for iterations in range(1, EIG_ITERS + 1):
            # K is positive on zero-mean fields, so the iterate keeps its
            # sign and the plain difference measures the change
            vn = self.solve_K(v)
            vn = vn - mesh.mean(vn)
            vn /= mesh.norm_Ls(vn, 2)
            change = mesh.norm_Ls(vn - v, 2)
            v = vn
            if change <= EIG_TOL:
                break
        self.eigen_work = {"iterations": iterations, "stop_reason":
                           "converged" if change <= EIG_TOL else "max_iter"}
        return v


def dense_eigenpairs(mesh, k=6):
    """Generalized symmetric eigendecomposition A phi = lambda W phi on a
    coarse mesh (dense; oracle use only), as the symmetric eigenproblem
    of W^(-1/2) A W^(-1/2): phi = W^(-1/2) y, so phi^T W phi = I. Returns
    ascending (lams, vecs)."""
    A = mesh.stiffness()
    n = mesh.nnodes
    dense = np.zeros((n, n))
    dense[A.indices, A.columns()] = A.data
    d = 1.0 / np.sqrt(mesh.w)
    lams, vecs = np.linalg.eigh(d[:, None] * dense * d)
    return lams[:k], d[:, None] * vecs[:, :k]
