"""Discretized radially symmetric domains (annulus/ball) in dimension N >= 4.

Grids are 1D radial or 2D axisymmetric (r, theta) reductions; the ambient
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

Only the functions that build sparse matrices import scipy.sparse, so
the shooter, which reads sphere_area here, starts without it.
"""

from dataclasses import dataclass, field
from math import gamma as _gamma, pi

import numpy as np

KINDS = ("radial-annulus", "radial-ball", "axisym-annulus", "axisym-ball")
# radial node spacings of build(); equal-volume cells are build_equal_volume's
SPACINGS = ("uniform", "boundary")


def unit_ball_volume(N):
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
    """Tridiagonal FV stiffness: faces carry coefficient/dist couplings."""
    import scipy.sparse as sp
    n = len(x)
    c = face_coeff / np.diff(x)  # interior faces only, len n-1
    main = np.zeros(n)
    main[:-1] += c
    main[1:] += c
    return sp.diags([-c, main, -c], [-1, 0, 1])


@dataclass
class Mesh:
    kind: str
    N: int
    r0: float
    R: float
    r: np.ndarray                 # radial nodes
    faces_r: np.ndarray           # radial cell faces, len(r)+1
    theta: np.ndarray | None      # polar-angle nodes (axisym kinds)
    faces_theta: np.ndarray | None
    w: np.ndarray                 # quadrature weights, flattened C-order (r slow)
    cell_centered: bool = False
    wt: np.ndarray | None = None  # cell integrals of sin^(N-2)(theta)
    _cache: dict = field(default_factory=dict, repr=False)

    # -- basic geometry -------------------------------------------------
    @property
    def nr(self):
        return len(self.r)

    @property
    def ntheta(self):
        return len(self.theta) if self.theta is not None else 1

    @property
    def is_axisym(self):
        return self.theta is not None

    @property
    def nnodes(self):
        return self.nr * self.ntheta

    @property
    def volume(self):
        return float(self.w.sum())

    def node_r(self):
        """Radial coordinate of every node (flattened)."""
        if self.is_axisym:
            return np.repeat(self.r, self.ntheta)
        return self.r

    def node_theta(self):
        if self.is_axisym:
            return np.tile(self.theta, self.nr)
        return np.zeros_like(self.r)

    def reshape(self, values):
        """View a flattened field as (nr, ntheta) for axisym meshes."""
        if not self.is_axisym:
            return np.asarray(values)
        return np.asarray(values).reshape(self.nr, self.ntheta)

    def interior_mask(self):
        """False on the radial walls' rings of nodes (r = 0 is no wall)."""
        mask = np.ones(self.nnodes, dtype=bool)
        if not self.cell_centered:
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
        """Symmetric weak Laplacian A with natural (Neumann) BCs.

        u^T A v discretizes the Dirichlet form int grad(u).grad(v); A has
        zero row sums (constants in the kernel).
        """
        if "A" not in self._cache:
            self._cache["A"] = self._build_stiffness().tocsc()
        return self._cache["A"]

    def _build_stiffness(self):
        import scipy.sparse as sp
        N = self.N
        if not self.is_axisym:
            coeff = sphere_area(N) * self.faces_r[1:-1] ** (N - 1)
            return _stiffness_1d(self.r, coeff)
        s = sphere_area(N - 1)
        wr3 = _cell_integrals(self.faces_r, lambda x: x ** (N - 3.0))
        Ar = _stiffness_1d(self.r, self.faces_r[1:-1] ** (N - 1.0))
        At = _stiffness_1d(self.theta,
                           np.sin(self.faces_theta[1:-1]) ** (N - 2.0))
        return s * (sp.kron(Ar, sp.diags(self.wt)) + sp.kron(sp.diags(wr3), At))

    def laplacian(self, u):
        """Strong discrete Laplacian of a nodal field: the cell balance
        -(A u) / w, with zero flux through the walls (module docstring)."""
        return -(self.stiffness() @ np.ravel(u)) / self.w

    def gradient_r(self, u):
        """Central-difference radial derivative (one-sided at the ends)."""
        U = self.reshape(np.ravel(u))
        if self.is_axisym:
            return np.ravel(np.gradient(U, self.r, axis=0))
        return np.gradient(U, self.r)


def _radial_nodes(r0, R, nr, spacing):
    if spacing not in SPACINGS:
        raise ValueError(f"unknown radial spacing {spacing!r}")
    if spacing == "uniform":
        r = np.linspace(r0, R, nr)
    else:
        # cluster nodes toward r = R with power 2
        r = R - (R - r0) * (1.0 - np.linspace(0.0, 1.0, nr)) ** 2.0
        r[0], r[-1] = r0, R
    return r, np.concatenate([[r0], 0.5 * (r[1:] + r[:-1]), [R]])


def build(kind, N, r0, R, nr, ntheta=None, theta_grading=1.0,
          radial_spacing="uniform"):
    """Build a mesh of the given kind.

    kind is one of radial-annulus, radial-ball, axisym-annulus, axisym-ball.
    nr >= 64 radial nodes (ntheta >= 32 for axisym kinds); balls have r0=0.
    theta_grading > 1 clusters angular nodes toward theta=0 (the north pole),
    radial_spacing="boundary" clusters radial nodes toward r=R.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown mesh kind {kind!r}")
    N = int(N)
    if N < 4:
        raise ValueError(f"ambient dimension N = {N} must be >= 4")
    is_ball = kind.endswith("ball")
    if is_ball:
        if r0 != 0.0:
            raise ValueError("ball meshes require r0 = 0")
    elif not 0.0 < r0 < R:
        raise ValueError(f"annulus radii must satisfy 0 < r0 < R, got "
                         f"({r0}, {R})")
    if R <= r0:
        raise ValueError("degenerate radii")
    if nr < 64:
        raise ValueError(f"nr = {nr} under-resolved (need >= 64)")
    axisym = kind.startswith("axisym")
    if axisym and (ntheta is None or ntheta < 32):
        raise ValueError(f"ntheta = {ntheta} under-resolved (need >= 32)")

    r, faces_r = _radial_nodes(r0, R, nr, radial_spacing)
    wr = _cell_integrals(faces_r, lambda x: x ** (N - 1.0))
    if axisym:
        if theta_grading == 1.0:
            th = np.linspace(0.0, pi, ntheta)
        else:
            th = pi * np.linspace(0.0, 1.0, ntheta) ** theta_grading
            th[-1] = pi
        faces_t = np.concatenate([[0.0], 0.5 * (th[1:] + th[:-1]), [pi]])
        wt = _cell_integrals(faces_t, lambda x: np.sin(x) ** (N - 2.0))
        w = sphere_area(N - 1) * np.kron(wr, wt)
        return Mesh(kind, N, r0, R, r, faces_r, th, faces_t, w, wt=wt)
    w = sphere_area(N) * wr
    return Mesh(kind, N, r0, R, r, faces_r, None, None, w)


def build_equal_volume(N, r0, R, n):
    """Cell-centered radial mesh whose n cells have identical N-volume.

    Every node carries exactly the same quadrature weight, which makes
    rearrangement-type transforms pure permutations of node values.
    """
    N = int(N)
    if not 0.0 <= r0 < R:
        raise ValueError(f"bad radii ({r0}, {R})")
    if n < 8:
        raise ValueError("need at least 8 cells")
    vols = np.linspace(r0 ** N, R ** N, n + 1)
    faces = vols ** (1.0 / N)
    # volume centroid of each cell
    r = (0.5 * (vols[:-1] + vols[1:])) ** (1.0 / N)
    w = np.full(n, sphere_area(N) / N * (R ** N - r0 ** N) / n)
    kind = "radial-ball" if r0 == 0.0 else "radial-annulus"
    return Mesh(kind, N, r0, R, r, faces, None, None, w, cell_centered=True)
