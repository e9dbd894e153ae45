import numpy as np
import pytest

from lanedual import mesh as msh
from lanedual import symmetry as sym
from lanedual.neumann import NeumannSolver


@pytest.fixture(scope="module")
def evmesh():
    return msh.build_equal_volume(6, 1.0, 2.0, 400)


@pytest.fixture(scope="module")
def evsolver(evmesh):
    return NeumannSolver(evmesh)


# -- cumulative integral -----------------------------------------------------

def test_cumulative_zero(evmesh):
    prof = sym.RadialProfile(evmesh, np.zeros(evmesh.nr))
    assert np.max(np.abs(prof.cumulative_I())) == 0.0


def test_cumulative_constant_is_shell_volume(evmesh):
    prof = sym.RadialProfile(evmesh, np.ones(evmesh.nr))
    cum = prof.cumulative_I()
    vol = msh.unit_ball_volume(6) * (evmesh.faces_r[1:] ** 6 - 1.0)
    assert np.max(np.abs(cum - vol)) < 1e-10 * vol[-1]


def test_cumulative_total_is_integral(evmesh, evsolver):
    phi = evsolver.first_eigenfunction()
    prof = sym.RadialProfile(evmesh, phi)
    assert abs(prof.cumulative_I()[-1]) < 1e-10 * evmesh.norm_Ls(phi, 1)


# -- flip --------------------------------------------------------------------

def test_flip_identity_when_cumulative_positive(evmesh):
    # h decreasing from positive inner values: cumulative stays positive
    h = np.linspace(1.0, -0.2, evmesh.nr)
    h -= evmesh.mean(h)
    prof = sym.RadialProfile(evmesh, h)
    assert np.all(prof.cumulative_I()[:-1] > 0)
    flipped = prof.flip_F()
    assert np.array_equal(flipped.h, prof.h)


def test_flip_negates_inner_negative_step(evmesh):
    # -1 on inner half volume, +1 outer: cumulative <= 0 throughout
    half = evmesh.nr // 2
    h = np.where(np.arange(evmesh.nr) < half, -1.0, 1.0)
    prof = sym.RadialProfile(evmesh, h)
    flipped = prof.flip_F()
    assert np.allclose(flipped.h, -h)


def test_flip_postcondition_random(evmesh):
    # brute-force nodewise check of the cumulative sign after flipping
    rng = np.random.default_rng(42)
    for _ in range(50):
        h = sym.random_smooth_zero_mean(evmesh, rng)
        flipped = sym.RadialProfile(evmesh, h).flip_F()
        cum = flipped.cumulative_I()
        scale = np.max(np.abs(cum)) + 1e-300
        assert cum.min() >= -1e-10 * scale


# -- star transform ----------------------------------------------------------

def test_star_identity_on_decreasing_step(evmesh):
    half = evmesh.nr // 2
    h = np.where(np.arange(evmesh.nr) < half, 1.0, -1.0)
    star = sym.RadialProfile(evmesh, h).star_transform()
    assert np.array_equal(star.h, h)


def test_star_flips_increasing_step(evmesh):
    half = evmesh.nr // 2
    h = np.where(np.arange(evmesh.nr) < half, -1.0, 1.0)
    star = sym.RadialProfile(evmesh, h).star_transform()
    assert np.allclose(star.h, -h)


def test_star_norm_preservation_and_idempotence(evmesh):
    rng = np.random.default_rng(3)
    pvals = (1.5, 10.0 / 9.0, 4.0 / 3.0)
    for _ in range(25):
        h = sym.random_smooth_zero_mean(evmesh, rng)
        prof = sym.RadialProfile(evmesh, h)
        star = prof.star_transform()
        for s in pvals:
            assert evmesh.norm_Ls(star.h, s) == \
                pytest.approx(evmesh.norm_Ls(h, s), rel=1e-12)
        star2 = star.star_transform()
        assert np.max(np.abs(star2.h - star.h)) <= \
            1e-10 * np.max(np.abs(star.h))


def test_star_monotone_output(evmesh):
    rng = np.random.default_rng(9)
    h = sym.random_smooth_zero_mean(evmesh, rng)
    star = sym.RadialProfile(evmesh, h).star_transform()
    assert np.all(np.diff(star.h) <= 1e-14)


def test_quadratic_form_monotonicity(evmesh, evsolver):
    # int f K g <= int f* K g* for random continuous zero-mean pairs
    rng = np.random.default_rng(17)
    for _ in range(30):
        f = sym.random_smooth_zero_mean(evmesh, rng)
        g = sym.random_smooth_zero_mean(evmesh, rng)
        fs = sym.RadialProfile(evmesh, f).star_transform().h
        gs = sym.RadialProfile(evmesh, g).star_transform().h
        lhs = evmesh.inner(f, evsolver.solve_K(g))
        rhs = evmesh.inner(fs, evsolver.solve_K(gs))
        scale = abs(lhs) + abs(rhs) + 1e-300
        assert lhs <= rhs + 1e-8 * scale


def test_star_properties_one_pair(evmesh, evsolver, pack226):
    star = sym.star_properties(evmesh, pack226, np.random.default_rng(5), 1)
    assert list(star) == list(sym.STAR_GATES)
    assert all(passed for _, passed in star.values())
    rng = np.random.default_rng(5)
    f = sym.random_smooth_zero_mean(evmesh, rng)  # f is drawn before g
    g = sym.random_smooth_zero_mean(evmesh, rng)
    fs = sym.RadialProfile(evmesh, f).star_transform().h
    gs_ = sym.RadialProfile(evmesh, g).star_transform().h
    lhs = evmesh.inner(f, evsolver.solve_K(g))
    rhs = evmesh.inner(fs, evsolver.solve_K(gs_))
    assert star["mono"][0] == (lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300)


def test_profile_rejects_unequal_cell_volumes():
    # the star transform is an exact permutation only on equal-volume
    # meshes; build() meshes have cells of unequal volume
    m = msh.build("radial-annulus", 6, 1.0, 2.0, 128)
    h = sym.random_smooth_zero_mean(m, np.random.default_rng(2))
    with pytest.raises(ValueError, match="equal cell volumes"):
        sym.RadialProfile(m, h)


# -- foliated Schwarz diagnostics -------------------------------------------

@pytest.fixture(scope="module")
def axmesh():
    return msh.build("axisym-annulus", 5, 1.0, 2.0, 64, 65)


def test_fs_check_radial_pair_passes(axmesh):
    u = axmesh.node_r()
    diag = sym.fs_check(axmesh, u, u)
    assert diag.passed
    assert diag.violation == 0.0


def test_fs_check_opposed_monotonicity_fails(axmesh):
    th = axmesh.node_theta()
    u = np.cos(th)       # theta-nonincreasing
    v = -np.cos(th)      # theta-nondecreasing
    diag = sym.fs_check(axmesh, u, v)
    assert not diag.passed
    # each alone is monotone, in the orientation that matches it
    assert sym.fs_check(axmesh, u, u).orientation == +1


def test_fs_check_tie_reports_orientation_plus_one(axmesh):
    # a radial pair (no violation either way) and an opposed pair (the
    # same violation either way) tie between the orientations
    th = axmesh.node_theta()
    for u, v in ((axmesh.node_r(), axmesh.node_r()),
                 (np.cos(th), -np.cos(th))):
        diag = sym.fs_check(axmesh, u, v)
        assert diag.orientation == +1
        assert diag.as_dict() == {"passed": diag.passed, "orientation": 1,
                                  "violation": diag.violation,
                                  "tolerance": diag.tolerance}


def test_polarize_orientation_flip(axmesh):
    # the polarization of cos(theta) about e = -axis is -cos(theta): it is
    # foliated Schwarz symmetric about -axis, so fs_check flips orientation
    pol = -np.cos(axmesh.node_theta())
    diag = sym.fs_check(axmesh, pol, pol)
    assert diag.orientation == -1
    assert diag.passed


def test_radiality_deviation(axmesh):
    assert sym.radiality_deviation(axmesh, axmesh.node_r()) < 1e-14
    assert sym.radiality_deviation(axmesh, np.cos(axmesh.node_theta())) > 0.5


def test_equality_case_radial_optimum(evmesh, evsolver, pack226):
    # a converged radial optimum is invariant under the transform (the
    # quadratic form cannot improve), and its recovered pair is radially
    # monotone with u_r v_r > 0
    from lanedual import dualsolve as ds
    rep = ds.maximize_D(evsolver.mesh, pack226, restarts=3, seed=4)
    lhs = evmesh.inner(rep.f, evsolver.solve_K(rep.g))
    fs = sym.RadialProfile(evmesh, rep.f).star_transform().h
    gs_ = sym.RadialProfile(evmesh, rep.g).star_transform().h
    rhs = evmesh.inner(fs, evsolver.solve_K(gs_))
    assert abs(rhs - lhs) <= 1e-8 * abs(lhs)
    frac = ds.radial_monotonicity_fraction(evmesh, rep.u, rep.v)
    assert frac >= 0.99
