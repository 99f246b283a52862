import pytest
from helpers import within

from nodalcodes.covers import (
    CoverSpec,
    SurfaceInvariants,
    cover_invariants,
    double_cover_nodes,
    isotropic_bound,
    min_m_for_r,
    miyaoka_max_nodes,
)
from nodalcodes.gf2 import enumerate_codes


def test_surface_invariants_noether_fill_in():
    s = SurfaceInvariants(chi=1, K2=8)
    assert s.c2 == 4
    assert SurfaceInvariants(1, 8) == s
    with pytest.raises(ValueError):
        SurfaceInvariants(chi=1, K2=8, c2=5)


def test_surface_invariants_consistency_checks():
    with pytest.raises(ValueError):
        SurfaceInvariants(chi=1, K2=8, kodaira="three")


def test_cover_spec_validation():
    with pytest.raises(ValueError):
        CoverSpec(r=-1, m=4)
    with pytest.raises(ValueError):
        CoverSpec(r=2, m=0)
    with pytest.raises(ValueError, match="no branch curves"):
        CoverSpec(r=0, m=3)
    assert CoverSpec(r=0, m=0).r == 0
    # a rank-r code of length m, within the library's length limit
    with pytest.raises(ValueError, match="r = 5 exceeds m = 2"):
        CoverSpec(r=5, m=2)
    with pytest.raises(ValueError, match="m = 33 exceeds"):
        CoverSpec(r=1, m=33)
    assert CoverSpec(r=32, m=32).r == 32


def test_double_cover_of_del_pezzo_four():
    # chi 1, K2 4 quotient, one double cover branched on 4 nodal curves
    y = SurfaceInvariants(chi=1, K2=4, kodaira="minus_infinity")
    res = cover_invariants(y, CoverSpec(r=1, m=4))
    assert res.contracted.K2 == 8
    assert res.contracted.chi == 1
    assert res.cover.K2 == 4
    assert res.cover.c2 == 8
    assert res.blowdowns == 4
    assert res.warnings == ()


def test_rank_three_cover_on_seven_curves():
    y = SurfaceInvariants(chi=1, K2=0, kodaira="minus_infinity")
    res = cover_invariants(y, CoverSpec(r=3, m=7))
    assert res.contracted.K2 == 0
    assert res.contracted.chi == 1
    assert res.cover.K2 == -28
    assert res.cover.chi == 1
    assert res.blowdowns == 28


def test_cover_chi_integrality():
    y = SurfaceInvariants(chi=1, K2=8)
    with pytest.raises(ValueError):
        cover_invariants(y, CoverSpec(r=1, m=2))  # chi = 2 - 1/2
    with pytest.raises(ValueError):
        cover_invariants(y, CoverSpec(r=2, m=5))
    # r >= 3 never trips integrality
    assert cover_invariants(y, CoverSpec(r=3, m=5)).cover.chi == 3


@pytest.mark.parametrize("chi, r, m, message", [
    (1, 1, 3, "chi = 5/4 is not integral: r = 1 requires m divisible by 4"),
    (1, 1, 2, "chi = 3/2 is not integral: r = 1 requires m divisible by 4"),
    (1, 2, 3, "chi = 5/2 is not integral: r = 2 requires m even"),
    (-1, 1, 2, "chi = -5/2 is not integral: r = 1 requires m divisible "
               "by 4"),
    (-1, 1, 1, "chi = -9/4 is not integral: r = 1 requires m divisible "
               "by 4"),
    (-1, 2, 3, "chi = -11/2 is not integral: r = 2 requires m even"),
])
def test_cover_non_integral_chi_message(chi, r, m, message):
    # chi = 2^r chi(Y) - m 2^(r-3), reported in lowest terms
    y = SurfaceInvariants(chi=chi, K2=0)
    with pytest.raises(ValueError) as info:
        cover_invariants(y, CoverSpec(r=r, m=m))
    assert str(info.value) == message


def test_cover_noether_on_a_grid():
    y = SurfaceInvariants(chi=1, K2=2)
    for r in range(0, 7):
        for m in range(0, 17):
            if (m == 0) != (r == 0) or r > m:
                continue
            if (m * 2 ** r) % 8:
                continue
            res = cover_invariants(y, CoverSpec(r=r, m=m))
            assert res.cover.c2 == 2 ** r * y.c2 - m * 2 ** r
            for s in (res.cover, res.contracted):
                assert 12 * s.chi == s.K2 + s.c2
            assert res.contracted.K2 - res.cover.K2 == res.blowdowns
            assert res.cover.chi == res.contracted.chi


def test_cover_warns_when_chi_exceeds_ruled_bound():
    y = SurfaceInvariants(chi=1, K2=8, kodaira="minus_infinity")
    res = cover_invariants(y, CoverSpec(r=3, m=8))
    assert res.cover.chi == 0
    assert res.warnings == ()
    res = cover_invariants(y, CoverSpec(r=3, m=7))
    assert res.cover.chi == 1
    assert res.warnings == ()
    res = cover_invariants(y, CoverSpec(r=3, m=4))
    assert res.cover.chi == 4
    assert len(res.warnings) == 1


def test_kodaira_dimension_is_copied():
    y = SurfaceInvariants(chi=1, K2=1, kodaira="two")
    res = cover_invariants(y, CoverSpec(r=1, m=4))
    assert res.cover.kodaira == "two"
    assert res.contracted.kodaira == "two"


def test_double_cover_nodes():
    assert double_cover_nodes(1, 1) == 4
    assert double_cover_nodes(2, 1) == 0
    assert double_cover_nodes(1, 2) == 12
    with pytest.raises(ValueError):
        double_cover_nodes(5, 1)


def test_min_m_for_r_values():
    assert min_m_for_r(1) == 4
    assert min_m_for_r(2) == 6
    assert min_m_for_r(3) == 7
    for r in range(4, 21):
        assert min_m_for_r(r) == 8
    with pytest.raises(ValueError):
        min_m_for_r(0)


def test_min_m_for_r_in_constant_time():
    # the counting bound ceil(8 (2^r - 1) / 2^r), without the clamp at r = 4
    for r in range(1, 13):
        assert min_m_for_r(r) == -(-8 * (2 ** r - 1) // 2 ** r)
    with within(0.1):
        assert min_m_for_r(10 ** 8) == 8


def test_min_m_for_r_against_enumeration():
    # oracle: the shortest "div4" code of each dimension, found by
    # exhaustive enumeration; the counting bound is attained for r <= 4
    for r in range(1, 5):
        m = min_m_for_r(r)
        assert enumerate_codes(m, "div4", r, r)
        assert not enumerate_codes(m - 1, "div4", r, r)
    # and only a bound from r = 5 on: no code of dimension 5 below length 12
    for m in range(min_m_for_r(5), 12):
        assert not enumerate_codes(m, "div4", 5, 5)
    assert enumerate_codes(12, "div4", 5, 5)


def test_isotropic_bound():
    assert isotropic_bound(7, 8) == 3
    assert isotropic_bound(8, 10) == 3
    assert isotropic_bound(2, 9) == 0
    assert isotropic_bound(0, 5) == 0
    with pytest.raises(ValueError):
        isotropic_bound(-1, 5)
    with pytest.raises(ValueError):
        isotropic_bound(3, 0)


def test_isotropic_bound_monotone_in_k():
    for rho in range(1, 15):
        values = [isotropic_bound(k, rho) for k in range(0, 20)]
        assert values == sorted(values)


def test_miyaoka_bound_values():
    assert miyaoka_max_nodes(0, 12).max_nodes == 8
    assert miyaoka_max_nodes(4, 8).max_nodes == 4
    assert miyaoka_max_nodes(2, 10).max_nodes == 6
    assert miyaoka_max_nodes(9, 3).max_nodes == 0
    assert miyaoka_max_nodes(0, 12).assumptions


@pytest.mark.parametrize("k2, c2", [
    (-1, 13),  # K^2 < 0
    (0, -5),   # K^2 + c2 = -5, not a multiple of 12
    (1, 10),   # K^2 + c2 = 11
    (10, 2),   # K^2 = 10 > 3 c2 = 6 although K^2 + c2 = 12
    (13, -1),  # K^2 > 3 c2 with c2 < 0
])
def test_miyaoka_rejects_impossible_chern_numbers(k2, c2):
    with pytest.raises(ValueError):
        miyaoka_max_nodes(k2, c2)
