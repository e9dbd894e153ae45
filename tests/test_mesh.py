import math
import re
from math import pi

import numpy as np
import pytest

from lanedual import mesh as msh
from lanedual.mesh import sphere_area


def test_volume_radial_annulus_N4():
    m = msh.build("radial-annulus", 4, 1.0, 2.0, 512)
    exact = (pi ** 2 / 2.0) * (2.0 ** 4 - 1.0)
    assert m.volume == pytest.approx(exact, rel=1e-8)


def test_volume_radial_annulus_N6():
    m = msh.build("radial-annulus", 6, 0.5, 1.0, 512)
    exact = (pi ** 3 / 6.0) * (1.0 - 0.5 ** 6)
    assert m.volume == pytest.approx(exact, rel=1e-8)


def test_volume_axisym_ball_N5():
    m = msh.build("axisym-ball", 5, 0.0, 1.0, 256, 128)
    assert m.volume == pytest.approx(8.0 * pi ** 2 / 15.0, rel=1e-7)


def test_weights_positive():
    for kind, nt in (("radial-annulus", None), ("axisym-annulus", 48)):
        m = msh.build(kind, 5, 0.5, 1.5, 96, nt)
        assert np.all(m.w > 0)


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        msh.build("radial-annulus", 4, 2.0, 1.0, 128)
    with pytest.raises(ValueError, match="unknown mesh kind 'radial-ball'"):
        msh.build("radial-ball", 4, 0.0, 1.0, 128)
    with pytest.raises(ValueError, match="ball meshes require r0 = 0"):
        msh.build("axisym-ball", 4, 0.5, 1.0, 128, 64)
    for r0 in (0.0, 2.0):
        with pytest.raises(ValueError, match="0 < r0 < R"):
            msh.build_equal_volume(4, r0, 1.0, 64)
    with pytest.raises(ValueError):
        msh.build("radial-annulus", 4, 1.0, 2.0, 16)
    with pytest.raises(ValueError):
        msh.build("axisym-ball", 4, 0.0, 1.0, 128, 8)
    with pytest.raises(ValueError):
        msh.build("cube", 4, 0.0, 1.0, 128)


INF_R = r"0 < r0 < R < inf, got \(1.0, inf\)"
HUGE_R = r"R = 1e\+300 is too large for N = 6"


@pytest.mark.parametrize("kind, r0, R, nt, message", [
    ("axisym-ball", 0.0, float("nan"), 32, "ball radius R = nan"),
    ("axisym-ball", 0.0, float("inf"), 32, "ball radius R = inf"),
    ("radial-annulus", 1.0, float("inf"), None, INF_R),
    ("axisym-annulus", 1.0, float("nan"), 32, r"got \(1.0, nan\)"),
    ("radial-annulus", 1.0, 1e300, None, HUGE_R),
    ("axisym-ball", 0.0, 1e-60, 32, "zero or not finite at R = 1e-60, N = 6"),
])
def test_build_rejects_radii_that_make_degenerate_cells(kind, r0, R, nt,
                                                        message):
    # each of these once reached SuperLU: a segfault or a singular matrix
    with pytest.raises(ValueError, match=message):
        msh.build(kind, 6, r0, R, 64, nt)


@pytest.mark.parametrize("grading", [float("nan"), float("inf"), -1.0, 0.0])
def test_build_rejects_a_theta_grading_not_finite_and_positive(grading):
    with pytest.raises(ValueError, match=f"theta_grading = {grading} must "
                                         "be finite and positive"):
        msh.build("axisym-ball", 6, 0.0, 1.0, 64, 32, theta_grading=grading)


@pytest.mark.parametrize("R, message", [(float("inf"), INF_R),
                                        (1e300, HUGE_R)])
def test_build_equal_volume_rejects_degenerate_radii(R, message):
    with pytest.raises(ValueError, match=message):
        msh.build_equal_volume(6, 1.0, R, 64)


@pytest.mark.parametrize("N", [3, 6.5, float("nan"), 2])
def test_both_builders_check_N_as_the_exponents_do(N):
    for build in (lambda: msh.build("radial-annulus", N, 1.0, 2.0, 64),
                  lambda: msh.build_equal_volume(N, 1.0, 2.0, 64)):
        with pytest.raises(ValueError, match=f"dimension N = {N} must be "
                                             "an integer >= 4"):
            build()


def test_builders_name_an_N_too_large_for_gamma():
    # exponents.require_valid holds the bound; Gamma(N/2 + 1) overflows
    # from N = 342
    assert msh.unit_ball_volume(341) == pi ** 170.5 / math.gamma(171.5)
    with pytest.raises(OverflowError):
        msh.unit_ball_volume(342)
    for build in (lambda N: msh.build("radial-annulus", N, 1.0, 2.0, 64),
                  lambda N: msh.build_equal_volume(N, 1.0, 2.0, 64)):
        for N in (342, 400):
            with pytest.raises(ValueError,
                               match=f"dimension N = {N} is too large"):
                build(N)


@pytest.mark.parametrize("build, named", [
    (lambda: msh.build("radial-annulus", 6, 1.0, 2.0, 10 ** 11),
     "nr = 100000000000"),
    (lambda: msh.build("axisym-ball", 6, 0.0, 1.0, 10 ** 6, 32),
     "nr * ntheta = 32000000"),
    (lambda: msh.build_equal_volume(6, 1.0, 2.0, 10 ** 11),
     "n = 100000000000")], ids=["radial", "axisym", "equal-volume"])
def test_builders_cap_the_node_count_before_allocating(build, named):
    # numpy would ask for 745 GiB for the first one
    with pytest.raises(ValueError, match=re.escape(
            f"{named} mesh nodes exceed the cap of 1,000,000")):
        build()
    m = msh.build("axisym-ball", 6, 0.0, 1.0, 1000, 1000)  # at the cap
    assert m.nnodes == msh.MAX_NODES


def test_laplacian_of_constant_is_zero():
    m = msh.build("axisym-annulus", 5, 1.0, 2.0, 64, 40)
    lap = m.laplacian(np.full(m.nnodes, 3.7))
    assert np.max(np.abs(lap)) < 1e-10


def test_laplacian_r_squared_radial():
    # Delta r^2 = 2N; interior second-order accuracy
    m = msh.build("radial-annulus", 4, 1.0, 2.0, 2048)
    lap = m.laplacian(m.r ** 2)
    assert np.max(np.abs(lap[1:-1] - 8.0)) < 1e-6


def test_laplacian_harmonic_coordinate_axisym():
    # u = r cos(theta) = x_N is harmonic; away from the coordinate
    # singularities the FV residual is pure truncation error: small and
    # decaying at second order (pointwise consistency degrades on the rings
    # adjacent to r=0 and the theta poles, where the cell density varies
    # O(1); the weak form remains exact there)
    errs = []
    for nr, nt in ((96, 48), (192, 96)):
        m = msh.build("axisym-ball", 5, 0.0, 1.0, nr, nt)
        u = m.node_r() * np.cos(m.node_theta())
        lap = m.reshape(m.laplacian(u))
        box = ((m.r[:, None] >= 0.3) & (m.r[:, None] <= 0.9)
               & (m.theta[None, :] >= np.pi / 4)
               & (m.theta[None, :] <= 3 * np.pi / 4))
        errs.append(np.max(np.abs(lap[box])))
    assert errs[1] < 5e-3
    assert errs[0] / errs[1] > 3.0


def test_integrate_constant():
    m = msh.build("radial-annulus", 6, 1.0, 2.0, 128)
    assert m.integrate(np.full(m.nr, 2.5)) == pytest.approx(2.5 * m.volume,
                                                            rel=1e-13)


def test_norm_L1_matches_integral_of_abs():
    m = msh.build("radial-annulus", 4, 1.0, 2.0, 256)
    u = np.sin(3 * m.r) * np.exp(-m.r)
    assert m.norm_Ls(u, 1) == pytest.approx(m.integrate(np.abs(u)), rel=1e-13)


def test_norm_identity_map_closed_form():
    # int_{1 < |x| < 2} |x| dx in R^4 = sigma_3 * int_1^2 r * r^3 dr
    # = 2 pi^2 * 31 / 5
    m = msh.build("radial-annulus", 4, 1.0, 2.0, 4096)
    assert m.norm_Ls(m.r, 1) == pytest.approx(62 * pi ** 2 / 5.0, rel=1e-7)


def test_norm_rejects_s_below_one():
    m = msh.build("radial-annulus", 4, 1.0, 2.0, 64)
    with pytest.raises(ValueError):
        m.norm_Ls(m.r, 0.5)


@pytest.mark.parametrize("kind,nt", [("radial-annulus", None),
                                     ("axisym-annulus", 56),
                                     ("axisym-ball", 56)])
def test_divergence_identity(kind, nt):
    # the wall rows carry zero flux through the wall, so the cell balances
    # telescope to zero
    r0 = 0.0 if kind.endswith("ball") else 1.0
    m = msh.build(kind, 5, r0, 2.0, 96, nt)
    rr = m.node_r()
    u = np.cos(2.0 * rr) * rr
    if m.is_axisym:
        u = u * (1.0 + 0.3 * np.cos(m.node_theta()))
    lap = m.laplacian(u)
    assert abs(m.integrate(lap)) <= 1e-12 * m.integrate(np.abs(lap))


def test_wall_rows_first_order_interior_rows_second_order():
    # u = cos(pi (r - 1)) has zero slope at both walls, so it meets the
    # Neumann condition the wall rows carry: their error halves with h,
    # the interior rows' error quarters
    wall, interior = [], []
    for nr in (128, 256, 512, 1024):
        m = msh.build("radial-annulus", 5, 1.0, 2.0, nr)
        x = pi * (m.r - 1.0)
        exact = -pi ** 2 * np.cos(x) - (m.N - 1) / m.r * pi * np.sin(x)
        err = np.abs(m.laplacian(np.cos(x)) - exact)
        wall.append(err[[0, -1]])
        interior.append(np.max(err[m.interior_mask()]))
    wall, interior = np.array(wall), np.array(interior)
    assert np.all((wall[:-1] / wall[1:] > 1.8) & (wall[:-1] / wall[1:] < 2.2))
    assert np.all((interior[:-1] / interior[1:] > 3.5)
                  & (interior[:-1] / interior[1:] < 4.5))
    assert wall[-1, 0] < 0.01 and interior[-1] < 2e-5


def test_selfadjoint_on_neumann_fields():
    # cos(k pi (r-r0)/(R-r0)) has zero slope at both walls
    m = msh.build("radial-annulus", 4, 1.0, 2.0, 256)
    x = (m.r - 1.0) / 1.0
    u = np.cos(pi * x)
    v = np.cos(2 * pi * x)
    Au = m.stiffness() @ u
    Av = m.stiffness() @ v
    lhs = float(u @ Av)
    rhs = float(v @ Au)
    assert abs(lhs - rhs) <= 1e-8 * (abs(lhs) + abs(rhs) + 1)


def test_operator_second_order_refinement():
    # truncation error of the strong Laplacian drops ~4x when h halves
    errs = []
    for n in (128, 256):
        m = msh.build("radial-annulus", 4, 1.0, 2.0, n)
        u = np.sin(m.r)
        exact = -np.sin(m.r) + (m.N - 1) * np.cos(m.r) / m.r
        err = np.max(np.abs(m.laplacian(u)[2:-2] - exact[2:-2]))
        errs.append(err)
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.5


def test_equal_volume_mesh_weights_identical():
    m = msh.build_equal_volume(6, 1.0, 2.0, 256)
    assert np.allclose(m.w, m.w[0], rtol=0, atol=1e-12 * m.w[0])
    exact = msh.unit_ball_volume(6) * (2.0 ** 6 - 1.0)
    assert m.volume == pytest.approx(exact, rel=1e-12)


def test_graded_mesh_volume_still_exact():
    m = msh.build("axisym-ball", 6, 0.0, 1.0, 96, 48,
                  theta_grading=2.0, radial_spacing="boundary")
    assert m.volume == pytest.approx(msh.unit_ball_volume(6), rel=1e-10)
    assert np.all(np.diff(m.r) > 0)
    assert np.all(np.diff(m.theta) > 0)


SMALL_MESHES = [("radial-annulus", 5, 1.0, 2.0, 64, None),
                ("axisym-annulus", 6, 1.0, 2.0, 64, 32),
                ("axisym-ball", 4, 0.0, 1.0, 64, 40)]


@pytest.mark.parametrize("args", SMALL_MESHES, ids=lambda a: a[0])
def test_stored_cell_integrals_rebuild_weights_exactly(args):
    m = msh.build(*args)
    wr = msh._cell_integrals(m.faces_r, lambda x: x ** (m.N - 1.0))
    assert np.array_equal(sphere_area(m.N - 1) * np.kron(wr, m.wt), m.w)


RADIAL_MESHES = {
    "radial-annulus": lambda: msh.build("radial-annulus", 5, 1.0, 2.0, 64),
    "graded-radial-annulus": lambda: msh.build(
        "radial-annulus", 6, 0.1, 1.0, 257, radial_spacing="boundary"),
    "N8-radial-annulus": lambda: msh.build("radial-annulus", 8, 1.0, 3.0, 100),
    "equal-volume": lambda: msh.build_equal_volume(6, 1.0, 2.0, 400),
}


@pytest.mark.parametrize("name", list(RADIAL_MESHES))
def test_radial_mesh_is_one_exact_polar_cell(name):
    m = RADIAL_MESHES[name]()
    N = m.N
    assert m.ntheta == 1 and m.nnodes == m.nr and not m.is_axisym
    assert np.array_equal(m.theta, [0.0])
    assert np.array_equal(m.faces_theta, [0.0, pi])
    assert np.array_equal(m.wt, [sphere_area(N) / sphere_area(N - 1)])
    # w and A keep the radial formula sphere_area(N) r^(N-1) to a few ulps
    if name != "equal-volume":  # whose weights are set equal, not integrated
        wr = msh._cell_integrals(m.faces_r, lambda x: x ** (N - 1.0))
        np.testing.assert_array_max_ulp(m.w, sphere_area(N) * wr, maxulp=4)
    coeff = sphere_area(N) * m.faces_r[1:-1] ** (N - 1)
    old = msh.CscMatrix.from_bands((-1, 0, 1), msh._stiffness_1d(m.r, coeff))
    A = m.stiffness()
    assert np.array_equal(A.indices, old.indices)
    assert np.array_equal(A.indptr, old.indptr)
    np.testing.assert_array_max_ulp(A.data, old.data, maxulp=4)


def test_radial_mesh_field_shapes():
    m = msh.build("radial-annulus", 6, 1.0, 2.0, 64)
    u = np.sin(m.r)
    assert np.array_equal(m.node_r(), m.r)
    assert np.array_equal(m.node_theta(), np.zeros(m.nr))
    assert m.reshape(u).shape == (m.nr, 1)
    assert np.array_equal(m.reshape(u)[:, 0], u)
    assert m.gradient_r(u).shape == (m.nr,)
    assert np.array_equal(m.gradient_r(u), np.gradient(u, m.r))


# the scipy.sparse build of A that CscMatrix replaced; the stencil's
# entries must keep its bits, and A @ v those of scipy's CSC matvec
def _scipy_stiffness_1d(x, face_coeff):
    import scipy.sparse as sp
    c = face_coeff / np.diff(x)
    main = np.zeros(len(x))
    main[:-1] += c
    main[1:] += c
    return sp.diags([-c, main, -c], [-1, 0, 1])


def _scipy_stiffness(m):
    import scipy.sparse as sp
    N = m.N
    s = sphere_area(N - 1)
    wr3 = msh._cell_integrals(m.faces_r, lambda x: x ** (N - 3.0))
    Ar = _scipy_stiffness_1d(m.r, m.faces_r[1:-1] ** (N - 1.0))
    At = _scipy_stiffness_1d(m.theta,
                             np.sin(m.faces_theta[1:-1]) ** (N - 2.0))
    return (s * (sp.kron(Ar, sp.diags(m.wt))
                 + sp.kron(sp.diags(wr3), At))).tocsc()


CONTRACT_MESHES = {
    **{args[0]: lambda args=args: msh.build(*args) for args in SMALL_MESHES},
    # face coefficients r^5 spanning five decades, as a ball's would
    "graded-radial-annulus": lambda: msh.build(
        "radial-annulus", 6, 0.1, 1.0, 257, radial_spacing="boundary"),
    "equal-volume": lambda: msh.build_equal_volume(4, 1.0, 2.0, 200),
    # acceptance criterion 5's graded ball, and the thin shell
    "graded-ball-160x160": lambda: msh.build(
        "axisym-ball", 6, 0.0, 1.0, 160, 160, theta_grading=2.0,
        radial_spacing="boundary"),
    "thin-shell": lambda: msh.build("axisym-annulus", 6, 1.0, 1.0001, 64, 32),
}


@pytest.mark.parametrize("name", list(CONTRACT_MESHES))
def test_stiffness_arrays_and_product_match_scipy_bit_for_bit(name):
    m = CONTRACT_MESHES[name]()
    A, ref = m.stiffness(), _scipy_stiffness(m)
    assert ref.has_canonical_format
    for key in ("data", "indices", "indptr"):
        new, old = getattr(A, key), getattr(ref, key)
        assert new.dtype == old.dtype and new.tobytes() == old.tobytes(), key
    rng = np.random.default_rng(2)
    for v in (rng.standard_normal(m.nnodes), m.node_r() ** 2):
        assert (A @ v).tobytes() == (ref @ v).tobytes()
    assert np.array_equal(A.columns(), ref.tocoo().col)


@pytest.mark.parametrize("N", [4, 5, 6])
def test_radial_stiffness_skips_the_theta_work_and_keeps_its_bits(
        monkeypatch, N):
    # a single polar cell has no theta coupling: neither the r^(N-3) cell
    # integrals nor the zero theta bands are computed, and A keeps the
    # bits of the full two-term build
    m = msh.build("radial-annulus", N, 1.0, 2.0, 257)
    ref = _scipy_stiffness(m)
    calls = []
    monkeypatch.setattr(msh, "_cell_integrals",
                        lambda *args: calls.append(args))
    A = m.stiffness()
    assert calls == []
    for key in ("data", "indices", "indptr"):
        assert getattr(A, key).tobytes() == getattr(ref, key).tobytes(), key


# graded and radially clustered meshes: the coarse twin keeps both
TWIN_MESHES = {
    "ball": ("axisym-ball", 6, 0.0, 1.0, 96, 72),
    "graded-clustered-ball": ("axisym-ball", 4, 0.0, 1.0, 100, 50, 2.0,
                              "boundary"),
    "clustered-annulus": ("axisym-annulus", 5, 1.0, 2.0, 64, 32, 1.0,
                          "boundary"),
    "graded-annulus": ("axisym-annulus", 6, 0.5, 3.0, 98, 40, 1.5),
}


@pytest.mark.parametrize("name", list(TWIN_MESHES))
def test_coarse_twin_keeps_every_third_node_and_the_volume(name):
    m = msh.build(*TWIN_MESHES[name])
    c = msh.coarse_twin(m)
    for fine, coarse in ((m.r, c.r), (m.theta, c.theta)):
        kept = sorted({*range(0, len(fine), msh.COARSEN), len(fine) - 1})
        assert np.array_equal(coarse, fine[kept])
    assert (c.kind, c.N, c.r0, c.R) == (m.kind, m.N, m.r0, m.R)
    N = m.N
    exact = msh.unit_ball_volume(N) * (m.R ** N - m.r0 ** N)
    assert c.volume == pytest.approx(exact, rel=1e-12)
    assert c.volume == pytest.approx(m.volume, rel=1e-13)
    A = c.stiffness()  # constants in its kernel, as on every mesh
    assert np.max(np.abs(A @ np.ones(c.nnodes))) <= 1e-12 * np.max(A.data)


@pytest.mark.parametrize("name", list(TWIN_MESHES))
def test_prolongation_is_exact_on_bilinear_fields(name):
    m = msh.build(*TWIN_MESHES[name])
    c = msh.coarse_twin(m)

    def bilinear(mesh):
        r, th = mesh.node_r(), mesh.node_theta()
        return 1.5 - 2.0 * r + 0.7 * th + 3.0 * r * th

    fine = msh.prolong(c, m, bilinear(c))
    assert fine.shape == (m.nnodes,)
    exact = bilinear(m)
    assert np.max(np.abs(fine - exact)) <= 1e-14 * np.max(np.abs(exact))
    # a coarse node's value is carried over as it is
    at = np.isin(m.node_r(), c.r) & np.isin(m.node_theta(), c.theta)
    assert np.array_equal(np.sort(fine[at]), np.sort(bilinear(c)))
