"""Flip-&-rearrange ("star") transform and symmetry diagnostics.

The star transform is defined on cell-centered equal-volume radial meshes
(build_equal_volume) only, where every node carries the same quadrature
weight: the decreasing rearrangement is then a pure permutation of node
values, so norm preservation and idempotence hold to roundoff instead of
to grid resolution. A RadialProfile on any other mesh is refused. The
cumulative integral is the inclusive mass cumsum, exact for
piecewise-constant fields, which makes the sign bookkeeping of the flip
exact as well.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import mesh as msh
from .dualsolve import maximize_D
from .neumann import NeumannSolver

FLIP_BAND = 1e-12  # relative band around zero classified as <= 0
# gates on the worst star-transform norm drift, quadratic-form
# monotonicity excess and idempotence error (see star_properties)
STAR_GATES = {"norm": 1e-8, "mono": 1e-8, "idem": 1e-10}
FS_TOL = 1e-4  # monotonicity violation allowed, relative to max |u|, |v|


@dataclass
class RadialProfile:
    """Radial grid function on an equal-volume mesh, with its cumulative
    integral, flip and star transform."""

    mesh: object
    h: np.ndarray

    def __post_init__(self):
        self.h = np.asarray(self.h, dtype=float).ravel()
        w = self.mesh.w
        if self.mesh.is_axisym:
            raise ValueError("RadialProfile requires a radial mesh")
        if not np.ptp(w) <= 1e-12 * w[0]:
            raise ValueError("RadialProfile requires equal cell volumes "
                             "(mesh.build_equal_volume)")
        if self.h.size != self.mesh.nr:
            raise ValueError("value count does not match the mesh")

    def cumulative_I(self):
        """Cumulative integral through each cell (sampled at outer faces).

        Exact for fields that are constant per cell; the final entry equals
        integrate(h).
        """
        return np.cumsum(self.mesh.w * self.h)

    def flip_F(self):
        """Sign flip on the sublevel set {cumulative <= 0}.

        A band of 1e-12 (relative) around zero counts as <= 0. Cells are
        judged by the cumulative at their outer face, except the last
        cell, whose outer face sits on the boundary where the cumulative
        of a zero-mean field vanishes identically: it is judged at its
        inner face (an interior point of the domain). The flipped profile
        satisfies cumulative >= -band everywhere.
        """
        cum = self.cumulative_I()
        decision = np.concatenate([cum[:-1], cum[-2:-1]])
        band = FLIP_BAND * max(np.max(np.abs(cum)), 1e-300)
        sign = np.where(decision <= band, -1.0, 1.0)
        return RadialProfile(self.mesh, sign * self.h)

    def star_transform(self):
        """Flip, then the decreasing rearrangement in the volume measure.
        The cells have equal volumes, so the rearrangement is the
        permutation that sorts the flipped values in decreasing order,
        and it preserves every L^s norm exactly."""
        vals = self.flip_F().h
        order = np.argsort(-vals, kind="stable")  # ties keep radial order
        return RadialProfile(self.mesh, vals[order])


def star_properties(mesh, pack, rng, pairs):
    """Worst star-transform properties over `pairs` random smooth zero-mean
    pairs (f drawn before g) on an equal-volume radial mesh: the relative
    norm drift in L^alpha and L^beta, the monotonicity excess of
    int f K g over int f* K g* (relative to the sum of their sizes), and
    the idempotence error max|f** - f*| / max|f*|. Returns
    {name: (worst, passed)} with the names and gates of STAR_GATES.
    """
    solver = NeumannSolver(mesh)
    worst = {"norm": 0.0, "mono": -np.inf, "idem": 0.0}
    for _ in range(pairs):
        f = random_smooth_zero_mean(mesh, rng)
        g = random_smooth_zero_mean(mesh, rng)
        pf = RadialProfile(mesh, f).star_transform()
        pg = RadialProfile(mesh, g).star_transform()
        for s in (pack.alpha, pack.beta):
            worst["norm"] = max(worst["norm"],
                                abs(mesh.norm_Ls(pf.h, s)
                                    / mesh.norm_Ls(f, s) - 1.0))
        lhs = mesh.inner(f, solver.solve_K(g))
        rhs = mesh.inner(pf.h, solver.solve_K(pg.h))
        worst["mono"] = max(worst["mono"],
                            (lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300))
        pff = pf.star_transform()
        worst["idem"] = max(worst["idem"],
                            np.max(np.abs(pff.h - pf.h))
                            / max(np.max(np.abs(pf.h)), 1e-300))
    return {k: (v, bool(v <= STAR_GATES[k])) for k, v in worst.items()}


# -- axisymmetric diagnostics ----------------------------------------------

@dataclass
class FsDiagnostic:
    passed: bool
    orientation: int
    violation: float
    tolerance: float

    def as_dict(self):
        return asdict(self)


def _monotone_violation(mesh, w, orientation):
    """Largest increase of w along theta in the direction that foliated
    Schwarz symmetry (axis at theta=0 for orientation=+1) forbids."""
    W = mesh.reshape(np.ravel(w))
    dif = np.diff(W, axis=1)  # w[:, j+1] - w[:, j]
    viol = dif if orientation >= 0 else -dif
    return float(max(viol.max(), 0.0))


def fs_check(mesh, u, v):
    """Foliated-Schwarz diagnostic: are u and v simultaneously monotone in
    the polar angle for a common orientation of the axis?

    The axis itself is fixed by the axisymmetric reduction; only the two
    orientations are compared. Off-axis directions are out of reach of the
    reduction and reported as such by construction.
    """
    scale = max(np.max(np.abs(u)), np.max(np.abs(v)), 1e-300)
    tol = FS_TOL * scale
    viol = {orient: max(_monotone_violation(mesh, u, orient),
                        _monotone_violation(mesh, v, orient))
            for orient in (+1, -1)}
    orient = min(viol, key=viol.get)  # the first minimum: a tie is +1
    return FsDiagnostic(passed=viol[orient] <= tol, orientation=orient,
                        violation=viol[orient], tolerance=tol)


def radiality_deviation(mesh, w):
    """Relative theta-variation; ~0 for radially symmetric fields."""
    W = mesh.reshape(np.ravel(w))
    spread = (W.max(axis=1) - W.min(axis=1)).max()
    return float(spread / max(np.max(np.abs(W)), 1e-300))


@dataclass
class SymmetryGap:
    D: float
    D_rad: float
    gap: float
    noise: float
    axi_report: object
    mesh: object          # the axisymmetric mesh of axi_report

    def summary(self):
        return {"D": self.D, "D_rad": self.D_rad, "gap": self.gap,
                "refinement_noise": self.noise,
                "gap_over_noise": (self.gap / self.noise
                                   if self.noise > 0 else np.inf)}


def symmetry_gap(pack, r0, R, nr=96, ntheta=72, seed=0, restarts=6,
                 estimate_noise=True):
    """D (axisymmetric) minus D_rad on matching annulus meshes, 0 < r0 < R.

    The axisymmetric run includes the lifted radial optimum among its
    initializations, so the reported gap is nonnegative up to solver
    tolerance. The refinement-noise estimate reruns both optimizations at
    1.5x resolution. Both meshes are built, and so checked, before either
    optimization runs.
    """
    def run(nr_, nt_):
        mrad = msh.build("radial-annulus", pack.N, r0, R, nr_)
        maxi = msh.build("axisym-annulus", pack.N, r0, R, nr_, nt_)
        rad = maximize_D(mrad, pack, seed=seed, restarts=restarts)
        lift = (np.repeat(rad.f, nt_), np.repeat(rad.g, nt_))
        axi = maximize_D(maxi, pack, seed=seed, restarts=restarts,
                         extra_inits=[lift])
        return axi, rad, maxi

    axi, rad, maxi = run(nr, ntheta)
    noise = 0.0
    if estimate_noise:
        axi2, rad2, _ = run(int(nr * 1.5), int(ntheta * 1.5))
        noise = max(abs(axi2.D - axi.D), abs(rad2.D - rad.D))
    return SymmetryGap(D=axi.D, D_rad=rad.D, gap=axi.D - rad.D, noise=noise,
                       axi_report=axi, mesh=maxi)


def random_smooth_zero_mean(mesh, rng):
    """Continuous zero-mean radial test field from six cos/sin modes."""
    x = (mesh.r - mesh.r0) / (mesh.R - mesh.r0)
    h = np.zeros(mesh.nr)
    for k in range(1, 7):
        h += rng.standard_normal() / k * np.cos(np.pi * k * x)
        h += rng.standard_normal() / k * np.sin(np.pi * k * x)
    h -= mesh.mean(h)
    return h
