"""End-to-end acceptance checks.

Each test below is one numbered criterion; `pytest -v` therefore prints one
pass/fail line per criterion.  Criteria with a stated time budget assert it.
Run with -s to also see the explicit CRITERION lines.
"""

import json
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from helpers import brute_weight4_codes

from nodalcodes.classify import (
    classify_involution,
    feasible_kr_pairs,
    fiber_budget,
    solve_md,
)
from nodalcodes.covers import (
    CoverSpec,
    SurfaceInvariants,
    cover_invariants,
    isotropic_bound,
    min_m_for_r,
    miyaoka_max_nodes,
)
from nodalcodes.gf2 import (
    canonical_form,
    codewords,
    de,
    enumerate_codes,
    is_doubly_even,
    make_code,
    permute,
    recognize_de,
    simplex,
    weight_enumerator,
)
from nodalcodes.lattices import (
    GramLattice,
    construction_a,
    discriminant,
    identify_root_system,
)


@contextmanager
def criterion(number, description, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"CRITERION {number:2d} FAIL  {description}", file=sys.stderr)
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
        )
    print(f"CRITERION {number:2d} PASS  {description}  "
          f"({elapsed:.2f}s)", file=sys.stderr)


def even_weight_code(n):
    rows = [f"{'0' * i}11{'0' * (n - i - 2)}" for i in range(n - 1)]
    return make_code(rows, n)


def test_criterion_01_doubled_code_family():
    with criterion(1, "doubled even-weight family, n = 1..10", budget=1.0):
        for n in range(1, 11):
            code = de(n)
            assert code.length == 2 * n
            assert code.dim == n - 1
            assert all(
                w % 4 == 0 for w in weight_enumerator(code)
            )
            assert recognize_de(code) == n


def test_criterion_02_root_lattices():
    with criterion(2, "D/E root lattices from codes", budget=5.0):
        # D_n from the even-weight code, integer scaling (D_3 = A_3)
        for n, label in ((3, "A3"), (4, "D4"), (5, "D5")):
            lat = construction_a(even_weight_code(n), "unscaled")
            rep = identify_root_system(lat)
            assert rep.root_count == 2 * n * (n - 1)
            assert rep.components == (label,)
        # D_{2n} from the doubled code, rescaled by 1/sqrt(2)
        for n in (2, 3):
            lat = construction_a(de(n), "half")
            rep = identify_root_system(lat)
            assert rep.root_count == 2 * (2 * n) * (2 * n - 1)
            assert rep.components == (f"D{2 * n}",)
        # E7 from the simplex code
        lat = construction_a(simplex(3), "half")
        rep = identify_root_system(lat)
        assert rep.root_count == 126
        assert rep.components == ("E7",)
        assert rep.full_rank
        assert discriminant(lat) == 2


def test_criterion_03_cover_invariants():
    with criterion(3, "cover invariants and Noether consistency"):
        y1 = SurfaceInvariants(chi=1, K2=4)
        res = cover_invariants(y1, CoverSpec(r=1, m=4))
        assert res.contracted.K2 == 8
        assert res.contracted.chi == 1
        y2 = SurfaceInvariants(chi=1, K2=0)
        res = cover_invariants(y2, CoverSpec(r=3, m=7))
        assert res.contracted.K2 == 0
        assert res.contracted.chi == 1
        for r in range(0, 7):
            for m in range(0, 17):
                if (m == 0) != (r == 0) or r > m:
                    continue
                if r >= 1 and (m * 2 ** r) % 8:
                    continue
                out = cover_invariants(
                    SurfaceInvariants(chi=1, K2=2), CoverSpec(r=r, m=m)
                )
                for surf in (out.cover, out.contracted):
                    assert 12 * surf.chi == surf.K2 + surf.c2


def test_criterion_04_minimum_support_size():
    with criterion(4, "minimum curves in support per code rank"):
        assert min_m_for_r(3) == 7
        for r in range(4, 21):
            assert min_m_for_r(r) == 8


def test_criterion_05_feasibility_list():
    with criterion(5, "feasible (k, r, m) triples with oracle", budget=60.0):
        expected = {(4, 1, 4), (6, 2, 6), (7, 3, 7), (8, 3, 7)}
        assert feasible_kr_pairs() == frozenset(expected)
        oracle = set()
        for rho in range(5, 11):
            k = rho - 2
            r_lo = max(1, isotropic_bound(k, rho))
            for dim, support in brute_weight4_codes(k):
                if dim >= r_lo and support < 8:
                    oracle.add((k, dim, support))
        assert oracle == expected
        assert enumerate_codes(5, "4", 2, 2) == []
        assert enumerate_codes(8, "4", 4, 4) == []


def test_criterion_06_involution_tables():
    with criterion(6, "involution case tables for K^2 = 9 and 8"):
        (nine,) = classify_involution(9)
        assert nine.label == "contradiction"
        assert (nine.k, nine.rho_Y) == (7, 8)
        eight = classify_involution(8)
        real = [c for c in eight if c.label != "contradiction"]
        assert [(c.k, c.rho_Y, c.K2_Y) for c in real] == [
            (4, 6, 4), (6, 8, 2), (8, 10, 0), (10, 12, -2), (12, 14, -4)
        ]
        assert [c.genus_of_pencil for c in real[-2:]] == [5, 3]
        (dead,) = [c for c in eight if c.label == "contradiction"]
        assert (dead.k, dead.rho_Y, dead.K2_Y) == (8, 9, 1)


def test_criterion_07_fiber_budget():
    with criterion(7, "Euler budget for eight nodes in twelve", budget=1.0):
        multisets = fiber_budget(12, 8)
        assert len(multisets) == 1
        assert [f.kind for f in multisets[0]] == ["I0star", "I0star"]


def test_criterion_08_pencil_diophantine():
    with criterion(8, "pencil equation vs brute force to 1000"):
        sols = {(s.m, s.d) for s in solve_md()}
        assert sols == {(3, 3), (4, 2)}
        brute = {
            (m, d)
            for m in range(1, 1001)
            for d in range(1, 1001)
            if d * m == m + 2 * d
        }
        assert sols == brute


def test_criterion_09_node_count_bound():
    with criterion(9, "maximum node counts from the BMY inequality"):
        for k2, c2, want in ((0, 12, 8), (4, 8, 4), (2, 10, 6)):
            got = miyaoka_max_nodes(k2, c2).max_nodes
            assert got == want
            assert got == (10 - k2) - 2  # rho - 2 for the chi = 1 surface


def test_criterion_10_property_suites():
    with criterion(10, "canonical orbits, self-orthogonality, "
                       "discriminant invariance", budget=30.0):
        rng = random.Random(20260815)
        # canonical form is constant on permutation orbits
        for _ in range(100):
            length = rng.randint(1, 8)
            words = [
                rng.randrange(1 << length)
                for _ in range(rng.randint(1, length))
            ]
            code = make_code(words, length)
            canon, _ = canonical_form(code)
            sigma = list(range(length))
            rng.shuffle(sigma)
            shuffled = permute(code, tuple(sigma))
            assert canonical_form(shuffled)[0] == canon
        # doubly even codes are self-orthogonal
        checked = 0
        for length in range(4, 11):
            for code in enumerate_codes(length, "div4", 1, length):
                assert is_doubly_even(code)
                words = codewords(code)
                assert all(
                    bin(v & w).count("1") % 2 == 0
                    for v in words
                    for w in words
                )
                checked += 1
        assert checked > 10
        # discriminant is a lattice invariant
        lats = [
            construction_a(de(2), "half"),
            construction_a(de(3), "half"),
            construction_a(simplex(3), "half"),
            construction_a(even_weight_code(4), "unscaled"),
        ]
        for lat in lats:
            disc = discriminant(lat)
            g = [list(row) for row in lat.doubled_gram]
            n = lat.rank
            for _ in range(20):
                i, j = rng.randrange(n), rng.randrange(n)
                if i == j:
                    continue
                # row/column shear by a unimodular elementary matrix
                s = rng.choice((-1, 1))
                for col in range(n):
                    g[i][col] += s * g[j][col]
                for row in range(n):
                    g[row][i] += s * g[row][j]
                mixed = GramLattice(
                    rank=n,
                    doubled_gram=tuple(tuple(r) for r in g),
                    scaling=lat.scaling,
                )
                assert discriminant(mixed) == disc
