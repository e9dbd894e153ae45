import numpy as np
import pytest

from lanedual.exponents import (
    ExponentPack,
    OffHyperbolaError,
    admissibility,
    derived_constants,
    hyperbola_partner,
    hyperbola_residual,
)


def test_partner_biharmonic_point():
    # N=5, p=1 pairs with q = (N+4)/(N-4) = 9
    assert hyperbola_partner(1.0, 5) == pytest.approx(9.0, abs=1e-12)


def test_partner_symmetric_points():
    assert hyperbola_partner(2.0, 6) == pytest.approx(2.0, abs=1e-14)
    assert hyperbola_partner(3.0, 4) == pytest.approx(3.0, abs=1e-14)


def test_partner_rejects_bad_input():
    with pytest.raises(ValueError):
        hyperbola_partner(0.5, 4)  # p <= 2/(N-2) = 1
    with pytest.raises(ValueError):
        hyperbola_partner(2.0, 3)


def test_partner_is_involution():
    rng = np.random.default_rng(7)
    for N in (4, 5, 6, 8):
        lo = 2.0 / (N - 2)
        for p in rng.uniform(lo * 1.05, 10.0, size=20):
            q = hyperbola_partner(p, N)
            assert hyperbola_partner(q, N) == pytest.approx(p, rel=1e-12)


def test_derived_constants_symmetric():
    pk = derived_constants(2.0, 2.0, 6)
    assert pk.gamma1 == pytest.approx(0.5, abs=1e-15)
    assert pk.gamma2 == pytest.approx(0.5, abs=1e-15)
    assert pk.gamma == pytest.approx(0.75, abs=1e-15)
    assert pk.alpha == pytest.approx(1.5, abs=1e-15)
    assert pk.beta == pytest.approx(1.5, abs=1e-15)


def test_derived_constants_biharmonic():
    pk = derived_constants(1.0, 9.0, 5)
    assert pk.alpha == pytest.approx(2.0, abs=1e-14)
    assert pk.beta == pytest.approx(10.0 / 9.0, abs=1e-14)
    assert pk.gamma1 == pytest.approx(5.0 / 14.0, abs=1e-14)
    assert pk.gamma2 == pytest.approx(9.0 / 14.0, abs=1e-14)
    assert pk.gamma == pytest.approx(5.0 / 7.0, abs=1e-14)


def test_derived_constants_scaling_exponents():
    pk = derived_constants(3.0, 3.0, 4)
    assert pk.sp == pytest.approx(1.0, abs=1e-15)
    assert pk.sq == pytest.approx(1.0, abs=1e-15)
    assert pk.gamma == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_off_hyperbola_rejected_with_residual():
    with pytest.raises(OffHyperbolaError) as e:
        derived_constants(2.0, 2.1, 6)
    assert e.value.residual > 1e-10


def test_pack_identities_sampled():
    # the three identity invariants, 50 points per dimension
    rng = np.random.default_rng(0)
    for N in (4, 5, 6, 8):
        lo = 2.0 / (N - 2)
        ps = np.exp(rng.uniform(np.log(lo * 1.01), np.log(30.0), size=50))
        for p in ps:
            pk = derived_constants(p, None, N)
            assert hyperbola_residual(pk.p, pk.q, N) <= 1e-12
            assert abs(pk.gamma1 + pk.gamma2 - 1.0) <= 1e-12
            assert abs(1 / pk.alpha + 1 / pk.beta - 1 / pk.gamma) <= 1e-12
            assert abs(pk.threshold_exponent - N / 2.0) <= 1e-12 * N
            assert pk.p * pk.q > 1.0


@pytest.mark.parametrize("N", [4, 5, 6, 8])
def test_a_missing_exponent_is_its_partner_bit_for_bit(N):
    # a None p or q is filled by hyperbola_partner: the same pack, float
    # for float, as building it from the partner by hand, with or without
    # snap
    rng = np.random.default_rng(N)
    lo = 2.0 / (N - 2)
    for t in np.exp(rng.uniform(np.log(lo * 1.01), np.log(30.0), size=20)):
        by_p = ExponentPack(t, hyperbola_partner(t, N), N)
        by_q = ExponentPack(hyperbola_partner(t, N, "q"), t, N)
        for snap in (False, True):
            assert derived_constants(t, None, N, snap=snap) == by_p
            assert derived_constants(None, t, N, snap=snap) == by_q


def test_snap_recovers_membership():
    q_drifted = hyperbola_partner(2.0, 6) + 3e-9
    with pytest.raises(OffHyperbolaError):
        derived_constants(2.0, q_drifted, 6)
    pk = derived_constants(2.0, q_drifted, 6, snap=True)
    assert pk.q == pytest.approx(2.0, abs=1e-14)


def test_admissibility_classification():
    label, cond = admissibility(derived_constants(2.0, 2.0, 6))
    assert label == "covered-by-main-thm"
    assert "(i)" in cond

    label, _ = admissibility(derived_constants(1.0, 9.0, 5))
    assert label == "biharmonic-window"

    label, _ = admissibility(derived_constants(1.3, None, 5))
    assert label == "uncovered"  # 1.3 < 17/13


def test_admissibility_biharmonic_high_dimension_covered():
    # for N > 6 the p=1 point satisfies condition (i)
    label, _ = admissibility(derived_constants(1.0, None, 8))
    assert label == "covered-by-main-thm"


def test_pack_rejects_pq_below_one():
    with pytest.raises((ValueError, OffHyperbolaError)):
        ExponentPack(0.5, 0.5, 4)


def test_pack_takes_the_point_and_derives_the_rest():
    pk = ExponentPack(2.0, 2.0, 6)
    assert pk == derived_constants(2.0, 2.0, 6)
    assert (pk.alpha, pk.gamma, pk.sp) == (1.5, 0.75, 2.0)
    with pytest.raises(TypeError):
        ExponentPack(2.0, 2.0, 6, alpha=1.5)


@pytest.mark.parametrize("p, q, N, message", [
    (2.0, -1.0, 6, "exponent q = -1.0 must be positive"),
    (-1.0, 2.0, 6, "exponent p = -1.0 must be positive"),
    (0.0, 2.0, 6, "exponent p = 0.0 must be positive"),
    (2.0, 2.0, 0, "dimension N = 0 must be an integer >= 4"),
    (3.0, 3.0, 2, "dimension N = 2 must be an integer >= 4"),
    (2.0, 2.0, 6.5, "dimension N = 6.5 must be an integer >= 4"),
    (2.0, 2.0, np.nan, "dimension N = nan must be an integer >= 4"),
    (2.0, None, 342, "dimension N = 342 is too large: Gamma(N/2 + 1) "
                     "overflows in the unit ball volume above N = 341"),
])
def test_out_of_range_input_rejected_before_dividing(p, q, N, message):
    # p = -1, q = -1 and N = 2 would divide by zero on the hyperbola
    for snap in (False, True):
        with pytest.raises(ValueError) as e:
            derived_constants(p, q, N, snap=snap)
        assert str(e.value) == message


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_exponents_rejected_by_name(bad):
    # a NaN passes every `>` and `<=` range check, so each check must fail
    # on it; the message names the exponent
    for call, name in ((lambda: derived_constants(bad, 2.0, 6), "p"),
                       (lambda: derived_constants(2.0, bad, 6), "q"),
                       (lambda: derived_constants(2.0, bad, 6, snap=True),
                        "q"),
                       (lambda: hyperbola_partner(bad, 6), "p"),
                       (lambda: derived_constants(bad, None, 6), "p"),
                       (lambda: derived_constants(None, bad, 6), "q"),
                       (lambda: ExponentPack(bad, 0.5, 6), "p")):
        with pytest.raises(ValueError, match=f"exponent {name} = "):
            call()
