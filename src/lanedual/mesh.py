"""Discretized radially symmetric domains (annulus/ball) in dimension N >= 4.

Every grid is an axisymmetric (r, theta) tensor grid; a radial grid is the
one with a single polar cell [0, pi], its node at theta = 0. The ambient
dimension enters only through the volume density sigma_{N-2} r^{N-1}
sin^{N-2}(theta) and the face coefficients of the finite-volume operators.

The discretization is finite-volume with node-centered cells:

* quadrature weights are exact cell volumes, so sum(w) is the exact domain
  volume;
* the stiffness matrix A (weak Laplacian with natural boundary conditions)
  is symmetric with kernel spanned by constants, which the Neumann solver
  and the dual quotient rely on;
* the strong Laplacian is A's cell balance, -(A u) / w: wall rows carry
  zero flux through the wall (the Neumann condition), so
  integrate(laplacian(u)) == 0 to roundoff. They are first-order, interior
  rows second-order, and the PDE residual gate reads interior rows only;
  the theta-pole rows are regular because sin^{N-2}(theta) vanishes there.

A coarse twin (every COARSEN-th node in r and theta) and a bilinear
prolongation from it give the dual solve a coarse level.

A is held as plain compressed-sparse-column arrays (CscMatrix), assembled
from the tensor-product stencil with the entries that scipy.sparse's kron
build gave and applied in scipy's CSC accumulation order, so A and A u
keep scipy's bits. The module imports no scipy: the CLI and the shooter,
which reads sphere_area here, start without it, and the Neumann solver
hands the same arrays to SuperLU.
"""

from dataclasses import dataclass, field
from math import gamma as _gamma, inf, isfinite, pi

import numpy as np

from .exponents import require_valid

# The most nodes build() and build_equal_volume() accept: the direct
# factorization of a larger mesh needs gigabytes, and a larger node array
# alone can exhaust memory before any check runs.
MAX_NODES = 1_000_000
# A coarse twin keeps every COARSEN-th node in r and in theta
COARSEN = 3
# No radial ball: there the discrete dual quotient's only optimum is a
# one-node spike on the centre node, whatever the resolution.
KINDS = ("radial-annulus", "axisym-annulus", "axisym-ball")
# radial node spacings of build(); equal-volume cells are build_equal_volume's
SPACINGS = ("uniform", "boundary")


def unit_ball_volume(N):
    """pi^(N/2) / Gamma(N/2 + 1), finite for the N that
    exponents.require_valid accepts."""
    return pi ** (N / 2.0) / _gamma(N / 2.0 + 1.0)


def sphere_area(N):
    """Surface area of the unit sphere S^{N-1} in R^N."""
    return N * unit_ball_volume(N)


def weighted_sum(w, x):
    """sum_i w_i x_i, summed in an order that does not depend on the BLAS
    thread count: a BLAS dot (w @ x) splits a long sum across threads."""
    return float(np.einsum("i,i->", w, x))


def _cell_integrals(faces, dens):
    """8-point Gauss-Legendre integral of dens over each cell."""
    gx, gw = np.polynomial.legendre.leggauss(8)
    a, b = faces[:-1], faces[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    return (half * gw * dens(mid + half * gx)).sum(axis=1)


def _stiffness_1d(x, face_coeff):
    """Tridiagonal FV stiffness as its (sub, main, super) bands by column:
    column k holds sub[k] in row k - 1, main[k] in row k and super[k] in
    row k + 1, with zeros where the row does not exist. Faces carry
    coefficient/dist couplings."""
    c = face_coeff / np.diff(x)  # interior faces only, len n-1
    main = np.zeros(len(x))
    main[:-1] += c
    main[1:] += c
    return np.concatenate([[0.0], -c]), main, np.concatenate([-c, [0.0]])


@dataclass(frozen=True)
class CscMatrix:
    """A square sparse matrix as compressed-sparse-column arrays: the rows
    `indices[indptr[k]:indptr[k + 1]]` of column k, ascending, hold
    `data[indptr[k]:indptr[k + 1]]`. Index arrays are C ints, as SuperLU
    takes them."""
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @classmethod
    def from_bands(cls, offsets, bands):
        """Column k holds bands[b][k] in row k + offsets[b], offsets
        ascending; zero entries are not stored (scipy drops them too)."""
        vals = np.stack([np.ravel(b) for b in bands], axis=1)
        rows = np.arange(len(vals))[:, None] + np.asarray(offsets)
        keep = vals != 0.0
        indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
        return cls(vals[keep], rows[keep].astype(np.intc),
                   indptr.astype(np.intc))

    def columns(self):
        """The column of each stored entry."""
        return np.repeat(np.arange(len(self.indptr) - 1, dtype=np.intc),
                         np.diff(self.indptr))

    def __matmul__(self, v):
        """A v, accumulated entry by entry in storage order like scipy's
        csc_matvec, so that every sum keeps scipy's bits."""
        out = np.zeros(len(self.indptr) - 1)
        np.add.at(out, self.indices,
                  self.data * np.repeat(np.ravel(v), np.diff(self.indptr)))
        return out


@dataclass
class Mesh:
    kind: str
    N: int
    r0: float
    R: float
    r: np.ndarray                 # radial nodes
    faces_r: np.ndarray           # radial cell faces, len(r)+1
    theta: np.ndarray             # polar-angle nodes, [0] on a radial mesh
    faces_theta: np.ndarray       # polar cell faces, len(theta)+1
    wt: np.ndarray                # cell integrals of sin^(N-2)(theta)
    w: np.ndarray                 # quadrature weights, flattened C-order (r slow)
    _cache: dict = field(default_factory=dict, repr=False)

    # -- basic geometry -------------------------------------------------
    @property
    def nr(self):
        return len(self.r)

    @property
    def ntheta(self):
        return len(self.theta)

    @property
    def is_axisym(self):
        return self.ntheta > 1

    @property
    def nnodes(self):
        return self.nr * self.ntheta

    @property
    def size(self):
        """The resolution as reports name it: "96x72" for nr = 96 and
        ntheta = 72, "257x1" for a radial mesh of 257 nodes."""
        return f"{self.nr}x{self.ntheta}"

    @property
    def volume(self):
        return float(self.w.sum())

    def node_r(self):
        """Radial coordinate of every node (flattened)."""
        return np.repeat(self.r, self.ntheta)

    def node_theta(self):
        return np.tile(self.theta, self.nr)

    def reshape(self, values):
        """View a flattened field as (nr, ntheta)."""
        return np.asarray(values).reshape(self.nr, self.ntheta)

    def interior_mask(self):
        """False on the radial walls' rings of nodes (r = 0 is no wall)."""
        mask = np.ones(self.nnodes, dtype=bool)
        if self.r0 > 0.0:
            mask[:self.ntheta] = False
        mask[-self.ntheta:] = False
        return mask

    # -- quadrature -----------------------------------------------------
    def integrate(self, u):
        return weighted_sum(self.w, np.ravel(u))

    def mean(self, u):
        return self.integrate(u) / self.volume

    def norm_Ls(self, u, s):
        if s < 1:
            raise ValueError(f"Lebesgue exponent s = {s} must be >= 1")
        return weighted_sum(self.w, np.abs(np.ravel(u)) ** s) ** (1.0 / s)

    def inner(self, u, v):
        return weighted_sum(self.w, np.ravel(u) * np.ravel(v))

    # -- operators ------------------------------------------------------
    def stiffness(self):
        """Symmetric weak Laplacian A with natural (Neumann) BCs, a
        CscMatrix.

        u^T A v discretizes the Dirichlet form int grad(u).grad(v); A has
        zero row sums (constants in the kernel).
        """
        if "A" not in self._cache:
            self._cache["A"] = self._build_stiffness()
        return self._cache["A"]

    def _build_stiffness(self):
        """A from the stencil: the entries of
        s (kron(Ar, diag(wt)) + kron(diag(wr3), At)), each computed as
        that expression computes it, node (i, j) at i * ntheta + j. With a
        single polar cell At is zero, and adding its zero bands would leave
        every entry's bits as they are, so only Ar's are built."""
        N = self.N
        s = sphere_area(N - 1)
        sub_r, main_r, sup_r = _stiffness_1d(
            self.r, self.faces_r[1:-1] ** (N - 1.0))
        if self.ntheta == 1:
            return CscMatrix.from_bands(
                (-1, 0, 1), [s * np.outer(band, self.wt)
                             for band in (sub_r, main_r, sup_r)])
        wr3 = _cell_integrals(self.faces_r, lambda x: x ** (N - 3.0))
        sub_t, main_t, sup_t = _stiffness_1d(
            self.theta, np.sin(self.faces_theta[1:-1]) ** (N - 2.0))
        nt = self.ntheta
        return CscMatrix.from_bands(
            (-nt, -1, 0, 1, nt),
            (s * np.outer(sub_r, self.wt), s * np.outer(wr3, sub_t),
             s * (np.outer(main_r, self.wt) + np.outer(wr3, main_t)),
             s * np.outer(wr3, sup_t), s * np.outer(sup_r, self.wt)))

    def laplacian(self, u):
        """Strong discrete Laplacian of a nodal field: the cell balance
        -(A u) / w, with zero flux through the walls (module docstring)."""
        return -(self.stiffness() @ np.ravel(u)) / self.w

    def gradient_r(self, u):
        """Central-difference radial derivative (one-sided at the ends)."""
        return np.ravel(np.gradient(self.reshape(u), self.r, axis=0))


def _check_annulus(r0, R):
    if not 0.0 < r0 < R < inf:
        raise ValueError(f"annulus radii must satisfy 0 < r0 < R < inf, got "
                         f"({r0}, {R})")


def check_scale(N, R):
    """R^N must be a float: cell volumes scale like it, and the sweeps'
    boundary integrals like R^(N-1)."""
    try:
        float(R) ** N
    except OverflowError:
        raise ValueError(f"R = {R} is too large for N = {N}: R^N exceeds "
                         "the float range") from None


def _check_nodes(name, n):
    """A mesh of n nodes, `name` of the builder's arguments, must not
    exceed MAX_NODES."""
    if n > MAX_NODES:
        raise ValueError(f"{name} = {n} mesh nodes exceed the cap of "
                         f"{MAX_NODES:,}")


def _check_volumes(w, N, R):
    """Every cell volume must be a positive float, or the stiffness matrix
    is singular."""
    if not np.all(np.isfinite(w) & (w > 0.0)):
        raise ValueError(f"a cell volume is zero or not finite at R = {R}, "
                         f"N = {N}")


def _radial_nodes(r0, R, nr, spacing):
    if spacing not in SPACINGS:
        raise ValueError(f"unknown radial spacing {spacing!r}")
    if spacing == "uniform":
        r = np.linspace(r0, R, nr)
    else:
        # cluster nodes toward r = R with power 2
        r = R - (R - r0) * (1.0 - np.linspace(0.0, 1.0, nr)) ** 2.0
        r[0], r[-1] = r0, R
    return r


def _faces(x, lo, hi):
    """Cell faces of the nodes x: the midpoints, and the ends lo and hi."""
    return np.concatenate([[lo], 0.5 * (x[1:] + x[:-1]), [hi]])


def _polar_cell(N):
    """A radial mesh's theta, faces_theta and wt: one cell [0, pi], its node
    at 0, its sin^(N-2) integral exact (8-point Gauss is 1.3e-6 off at N=6)."""
    return (np.zeros(1), np.array([0.0, pi]),
            np.array([sphere_area(N) / sphere_area(N - 1)]))


def build(kind, N, r0, R, nr, ntheta=None, theta_grading=1.0,
          radial_spacing="uniform"):
    """Build a mesh of the given kind.

    kind is one of radial-annulus, axisym-annulus, axisym-ball.
    nr >= 64 radial nodes (ntheta >= 32 for axisym kinds), at most
    MAX_NODES nodes in all; the ball has r0=0.
    theta_grading > 1 clusters angular nodes toward theta=0 (the north pole),
    radial_spacing="boundary" clusters radial nodes toward r=R.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown mesh kind {kind!r}")
    require_valid(N)
    N = int(N)
    if kind.endswith("ball"):
        if r0 != 0.0:
            raise ValueError("ball meshes require r0 = 0")
        if not 0.0 < R < inf:
            raise ValueError(f"ball radius R = {R} must be positive and "
                             "finite")
    else:
        _check_annulus(r0, R)
    if nr < 64:
        raise ValueError(f"nr = {nr} under-resolved (need >= 64)")
    axisym = kind.startswith("axisym")
    if axisym and (ntheta is None or ntheta < 32):
        raise ValueError(f"ntheta = {ntheta} under-resolved (need >= 32)")
    if axisym and not (isfinite(theta_grading) and theta_grading > 0.0):
        raise ValueError(f"theta_grading = {theta_grading} must be finite "
                         "and positive")
    if axisym:
        _check_nodes("nr * ntheta", nr * ntheta)
    else:
        _check_nodes("nr", nr)
    check_scale(N, R)

    r = _radial_nodes(r0, R, nr, radial_spacing)
    if not axisym:
        return _tensor_mesh(kind, N, r0, R, r, None)
    if theta_grading == 1.0:
        th = np.linspace(0.0, pi, ntheta)
    else:
        th = pi * np.linspace(0.0, 1.0, ntheta) ** theta_grading
        th[-1] = pi
    return _tensor_mesh(kind, N, r0, R, r, th)


def _tensor_mesh(kind, N, r0, R, r, th):
    """The mesh on the radial nodes r and the polar nodes th (None: one
    polar cell), its faces the midpoints and its weights the cell volumes,
    which must be positive floats."""
    faces_r = _faces(r, r0, R)
    wr = _cell_integrals(faces_r, lambda x: x ** (N - 1.0))
    if th is None:
        th, faces_t, wt = _polar_cell(N)
    else:
        faces_t = _faces(th, 0.0, pi)
        wt = _cell_integrals(faces_t, lambda x: np.sin(x) ** (N - 2.0))
    w = sphere_area(N - 1) * np.kron(wr, wt)
    _check_volumes(w, N, R)
    return Mesh(kind, N, r0, R, r, faces_r, th, faces_t, wt, w)


def coarse_twin(mesh):
    """The axisymmetric mesh on every COARSEN-th node of `mesh` in r and in
    theta, both ends kept, so that it keeps the mesh's grading and
    spacing. It may have fewer nodes than build() accepts: it is never a
    user's mesh, only the first level of a coarse-to-fine solve."""
    def every(x):
        return x[np.union1d(np.arange(0, len(x), COARSEN), [len(x) - 1])]
    return _tensor_mesh(mesh.kind, mesh.N, mesh.r0, mesh.R, every(mesh.r),
                        every(mesh.theta))


def prolong(coarse, fine, values):
    """A field on the nodes of `coarse`, the coarse_twin of `fine`, at the
    nodes of `fine`: separable linear interpolation on the node
    coordinates, first in r and then in theta, so exact on fields that
    are bilinear in (r, theta)."""
    V = _lerp(coarse.r, fine.r, coarse.reshape(values))
    return np.ravel(_lerp(coarse.theta, fine.theta, V.T).T)


def _lerp(xc, xf, V):
    """The rows of V, values at the ascending nodes xc, linearly
    interpolated to the points xf in [xc[0], xc[-1]]."""
    j = np.searchsorted(xc, xf, side="right").clip(1, len(xc) - 1) - 1
    t = ((xf - xc[j]) / (xc[j + 1] - xc[j]))[:, None]
    return (1.0 - t) * V[j] + t * V[j + 1]


def build_equal_volume(N, r0, R, n):
    """Cell-centered radial annulus whose n cells have identical N-volume.

    Every node carries exactly the same quadrature weight, which makes
    rearrangement-type transforms pure permutations of node values.
    """
    require_valid(N)
    N = int(N)
    _check_annulus(r0, R)
    if n < 8:
        raise ValueError("need at least 8 cells")
    _check_nodes("n", n)
    check_scale(N, R)
    vols = np.linspace(r0 ** N, R ** N, n + 1)
    faces = vols ** (1.0 / N)
    # volume centroid of each cell
    r = (0.5 * (vols[:-1] + vols[1:])) ** (1.0 / N)
    w = np.full(n, sphere_area(N) / N * (R ** N - r0 ** N) / n)
    _check_volumes(w, N, R)
    return Mesh("radial-annulus", N, r0, R, r, faces, *_polar_cell(N), w)
