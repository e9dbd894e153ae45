import numpy as np
import pytest
from math import pi

from lanedual import mesh as msh
from lanedual.mesh import sphere_area


def test_volume_radial_annulus_N4():
    m = msh.build("radial-annulus", 4, 1.0, 2.0, 512)
    exact = (pi ** 2 / 2.0) * (2.0 ** 4 - 1.0)
    assert m.volume == pytest.approx(exact, rel=1e-8)


def test_volume_radial_ball_N6():
    m = msh.build("radial-ball", 6, 0.0, 1.0, 512)
    assert m.volume == pytest.approx(pi ** 3 / 6.0, rel=1e-8)


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
    with pytest.raises(ValueError):
        msh.build("radial-ball", 4, 0.5, 1.0, 128)
    with pytest.raises(ValueError):
        msh.build("radial-annulus", 4, 1.0, 2.0, 16)
    with pytest.raises(ValueError):
        msh.build("axisym-ball", 4, 0.0, 1.0, 128, 8)
    with pytest.raises(ValueError):
        msh.build("cube", 4, 0.0, 1.0, 128)


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
    m = msh.build("radial-ball", 4, 0.0, 1.0, 256)
    u = np.sin(3 * m.r) * np.exp(-m.r)
    assert m.norm_Ls(u, 1) == pytest.approx(m.integrate(np.abs(u)), rel=1e-13)


def test_norm_identity_map_closed_form():
    # int_{B_1} |x| dx in R^4 = sigma_3 * int r * r^3 dr = 2 pi^2 / 5
    m = msh.build("radial-ball", 4, 0.0, 1.0, 4096)
    assert m.norm_Ls(m.r, 1) == pytest.approx(2 * pi ** 2 / 5.0, rel=1e-7)


def test_norm_rejects_s_below_one():
    m = msh.build("radial-ball", 4, 0.0, 1.0, 64)
    with pytest.raises(ValueError):
        m.norm_Ls(m.r, 0.5)


@pytest.mark.parametrize("kind,nt", [("radial-annulus", None),
                                     ("axisym-annulus", 56),
                                     ("radial-ball", None),
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
                ("radial-ball", 6, 0.0, 1.0, 64, None),
                ("axisym-annulus", 6, 1.0, 2.0, 64, 32),
                ("axisym-ball", 4, 0.0, 1.0, 64, 40)]


@pytest.mark.parametrize("args", SMALL_MESHES, ids=lambda a: a[0])
def test_stored_cell_integrals_rebuild_weights_exactly(args):
    m = msh.build(*args)
    wr = msh._cell_integrals(m.faces_r, lambda x: x ** (m.N - 1.0))
    if m.is_axisym:
        assert np.array_equal(sphere_area(m.N - 1) * np.kron(wr, m.wt), m.w)
    else:
        assert m.wt is None
        assert np.array_equal(sphere_area(m.N) * wr, m.w)
