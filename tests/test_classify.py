import json
from itertools import product

import pytest
from helpers import brute_weight4_codes, within

from nodalcodes.classify import (
    FIBER_TYPES,
    InvolutionCase,
    InvolutionData,
    _canonical_multiple,
    classify_involution,
    feasible_kr_pairs,
    fiber_budget,
    saturated_node_sweep,
    small_rho_cases,
    solve_md,
    standard_example_invariants,
)
from nodalcodes.covers import isotropic_bound
from nodalcodes.gf2 import de


# -- oracles ----------------------------------------------------------------


def brute_md_solutions(bound=1000):
    """Scan the full grid for d*m == m + 2*d."""
    return {
        (m, d)
        for m in range(1, bound + 1)
        for d in range(1, bound + 1)
        if d * m == m + 2 * d
    }


# -- fixed-point arithmetic ---------------------------------------------------


def test_fixed_point_data_identities():
    data = InvolutionData(K2_S=8, rho_S=2, D2=0, KD=4)
    assert data.k == 8
    assert data.t == 2
    assert data.rho_Y == 10
    assert data.rho_S + data.t == 2 * data.rho_Y - 2 * data.k


def test_fixed_point_data_parity_raises():
    # rho_S + t + 2k odd means no integral quotient Picard number
    with pytest.raises(ValueError, match="not integral"):
        InvolutionData(K2_S=8, rho_S=2, D2=1, KD=4)


@pytest.mark.parametrize("K2, D2", [(9, 2), (9, -1), (8, 1), (9, 0)],
                         ids=["not-integral", "negative", "not-square",
                              "zero-D2"])
def test_canonical_multiple_rejects(K2, D2):
    # K^2 / D^2 must be the square of a positive integer r, with K ~ r D
    with pytest.raises(ValueError, match=rf"K\^2 = {K2} .* D\^2 = {D2}"):
        _canonical_multiple(K2, D2)


def test_canonical_multiple():
    assert _canonical_multiple(9, 1) == 3
    assert _canonical_multiple(8, 2) == 2
    assert _canonical_multiple(-8, -2) == 2


# -- the two involution classifications --------------------------------------


def test_classify_k2_9_is_contradiction():
    cases = classify_involution(9)
    assert len(cases) == 1
    (case,) = cases
    assert case.label == "contradiction"
    assert (case.k, case.rho_Y, case.K2_Y) == (7, 8, 2)
    assert len(case.derivation) >= 3
    assert "no such involution" in case.Y_description


def test_classify_k2_8_case_table():
    cases = classify_involution(8)
    real = [c for c in cases if c.label != "contradiction"]
    assert [c.label for c in real] == ["i", "ii", "iii", "iv", "v"]
    assert [(c.k, c.rho_Y, c.K2_Y) for c in real] == [
        (4, 6, 4),
        (6, 8, 2),
        (8, 10, 0),
        (10, 12, -2),
        (12, 14, -4),
    ]
    genus = {c.k: c.genus_of_pencil for c in real}
    assert genus == {4: None, 6: None, 8: None, 10: 5, 12: 3}


def test_classify_k2_8_eliminated_branch():
    dead = [c for c in classify_involution(8) if c.label == "contradiction"]
    assert len(dead) == 1
    assert (dead[0].k, dead[0].rho_Y, dead[0].K2_Y) == (8, 9, 1)


def test_classify_k2_8_elliptic_case_mentions_fibers():
    (iii,) = [c for c in classify_involution(8) if c.label == "iii"]
    assert iii.K2_Y == 0
    fiber_steps = [
        s for s in iii.derivation if "fibers" in s.values
    ]
    assert fiber_steps, "elliptic case must record its fiber multiset"
    assert fiber_steps[0].values["fibers"] == [["I0star", "I0star"]]


def test_classify_rejects_other_k2():
    with pytest.raises(ValueError):
        classify_involution(7)


def test_case_self_validation():
    with pytest.raises(ValueError):
        InvolutionCase(label="i", k=4, rho_Y=6, K2_Y=5,
                       Y_description="broken")
    with pytest.raises(ValueError):
        InvolutionCase(label="vi", k=4, rho_Y=6, K2_Y=4,
                       Y_description="bad label")


def test_derivation_steps_serialize():
    for k2 in (8, 9):
        for case in classify_involution(k2):
            for step in case.derivation:
                d = step._asdict()
                assert set(d) == {"claim", "reference", "values"}
                json.dumps(d)


# -- pencil equation ----------------------------------------------------------


def test_solve_md_matches_brute_force():
    sols = solve_md()
    assert {(s.m, s.d) for s in sols} == brute_md_solutions()
    assert {(s.m, s.d, s.genus) for s in sols} == {(3, 3, 5), (4, 2, 3)}


# -- fiber budgets ------------------------------------------------------------


def test_fiber_budget_unique_for_eight_nodes():
    multisets = fiber_budget(12, 8)
    assert len(multisets) == 1
    assert [f.kind for f in multisets[0]] == ["I0star", "I0star"]


def test_fiber_budget_zero_nodes_is_empty_multiset():
    assert fiber_budget(12, 0) == ((),)


def test_fiber_budget_infeasible():
    assert fiber_budget(12, 9) == ()


def test_fiber_budget_single_star():
    multisets = fiber_budget(6, 4)
    assert len(multisets) == 1
    assert [f.kind for f in multisets[0]] == ["I0star"]


def test_fiber_budget_mixed_small():
    # three nodes inside euler 7: I2+I2+I2 (e=6) or I2+I2+III (e=7)
    kinds = sorted(
        tuple(f.kind for f in ms) for ms in fiber_budget(7, 3)
    )
    assert kinds == [("I2", "I2", "I2"), ("I2", "I2", "III")]


def test_fiber_budget_rejects_negative():
    with pytest.raises(ValueError):
        fiber_budget(-1, 0)
    with pytest.raises(ValueError):
        fiber_budget(12, -2)


def test_fiber_budget_cost_does_not_grow_with_euler():
    # every node costs at most 3 in Euler number, so past 3 * nodes the
    # budget admits nothing new; the search must not loop over it
    with within(1.0):
        assert fiber_budget(10**6, 8) == fiber_budget(24, 8)


def brute_fiber_budget(total_euler, nodes_required):
    # every count of every type that fits the Euler budget on its own, with
    # no count solved for
    out = []
    for counts in product(*(range(total_euler // f.euler + 1)
                            for f in FIBER_TYPES)):
        euler = sum(c * f.euler for c, f in zip(counts, FIBER_TYPES))
        cap = sum(c * f.nodal_capacity for c, f in zip(counts, FIBER_TYPES))
        if euler <= total_euler and cap == nodes_required:
            out.append(tuple(
                f for c, f in zip(counts, FIBER_TYPES) for _ in range(c)))
    return tuple(sorted(out, key=lambda ms: tuple(f.kind for f in ms)))


def test_fiber_budget_matches_brute_product():
    for total_euler in range(41):
        for nodes_required in range(13):
            assert fiber_budget(total_euler, nodes_required) == \
                brute_fiber_budget(total_euler, nodes_required), \
                (total_euler, nodes_required)


def test_fiber_budget_cost_is_quadratic():
    # 5,151 multisets; looping over all three counts took about 4 s on a
    # 2-vCPU Xeon VM
    with within(1.0):
        assert len(fiber_budget(600, 200)) == 5151


def test_fiber_types_table():
    table = {(f.kind, f.euler, f.nodal_capacity) for f in FIBER_TYPES}
    assert table == {("I2", 2, 1), ("III", 3, 1), ("I0star", 6, 4)}


# -- feasibility of k = rho - 2 nodal curves ----------------------------------


def test_feasible_kr_pairs_exact():
    assert feasible_kr_pairs() == frozenset(
        {(4, 1, 4), (6, 2, 6), (7, 3, 7), (8, 3, 7)}
    )


def test_feasible_kr_pairs_against_raw_search():
    expected = set()
    for rho in range(5, 11):
        k = rho - 2
        r_lo = max(1, isotropic_bound(k, rho))
        for dim, support in brute_weight4_codes(k):
            if dim >= r_lo and support < 8:
                expected.add((k, dim, support))
    assert feasible_kr_pairs() == expected


# -- the saturated sweep k = rho - 1 ------------------------------------------


def test_sweep_survivors():
    survivors = {
        rho for rho in range(2, 15) if saturated_node_sweep(rho).survives
    }
    assert survivors == {2, 8}


def test_sweep_row_identities():
    for rho in range(2, 15):
        row = saturated_node_sweep(rho)
        assert row.k == rho - 1
        assert row.K2_Y == 10 - rho
        if not row.survives:
            assert row.attained_r == ()


def test_sweep_rho_8_is_simplex_rank():
    row = saturated_node_sweep(8)
    assert row.r_min == 3
    assert row.attained_r == (3,)
    assert "double-cover" in row.tag


def test_sweep_rho_2():
    row = saturated_node_sweep(2)
    assert row.K2_Y == 8
    assert row.r_min == 0


def test_sweep_large_rho_needs_rank_four():
    for rho in range(9, 15):
        row = saturated_node_sweep(rho)
        assert row.r_min >= 4
        assert not row.survives


def test_sweep_range_checked():
    with pytest.raises(ValueError):
        saturated_node_sweep(1)
    with pytest.raises(ValueError):
        saturated_node_sweep(15)


def test_sweep_small_rows_match_raw_search():
    # for 2 <= rho <= 8 the sweep is pure code enumeration; replay it.  The
    # raw search grows nonzero spans, so the zero code is added by hand; it
    # counts only at rho = 2, where the isotropic bound is 0
    for rho in range(2, 9):
        row = saturated_node_sweep(rho)
        k = rho - 1
        dims = {
            dim
            for dim, _ in brute_weight4_codes(k) | {(0, 0)}
            if dim >= isotropic_bound(k, rho)
        }
        assert set(row.attained_r) == dims
        assert row.survives == bool(dims)


# -- small Picard numbers and the doubled-code examples ------------------------


def test_small_rho_case_counts():
    assert len(small_rho_cases(2)) == 1
    assert len(small_rho_cases(3)) == 2
    assert len(small_rho_cases(4)) == 2
    for rho in (2, 3, 4):
        for case in small_rho_cases(rho):
            assert case.k == rho - 2


def test_small_rho_range():
    with pytest.raises(ValueError):
        small_rho_cases(5)


def test_standard_example_invariants():
    for n in range(1, 7):
        ex = standard_example_invariants(n)
        assert ex.rho == 2 * n + 2
        assert ex.k == 2 * n
        assert ex.code == de(n)
    with pytest.raises(ValueError):
        standard_example_invariants(0)


def test_standard_example_rank_undercuts_sweep_bound():
    # the arithmetic behind eliminating rho >= 9 in the sweep: the doubled
    # code on the standard example has rank n - 1, strictly below the
    # isotropic bound for k = rho - 1 curves
    for rho in (10, 12, 14):
        n = (rho - 2) // 2
        ex = standard_example_invariants(n)
        assert ex.rho == rho
        assert ex.code.dim == n - 1
        assert ex.code.dim < isotropic_bound(rho - 1, rho)
