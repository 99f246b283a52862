import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import within

from nodalcodes import lattices
from nodalcodes.gf2 import (
    codewords,
    contains,
    de,
    is_doubly_even,
    is_even,
    make_code,
    simplex,
    word_to_string,
    zero_code,
)
from nodalcodes.lattices import (
    GramLattice,
    construction_a,
    discriminant,
    identify_root_system,
    lattice_from_json,
    lattice_to_json,
    roots,
)


def even_code(n):
    rows = []
    for i in range(n - 1):
        w = ["0"] * n
        w[i] = w[n - 1] = "1"
        rows.append("".join(w))
    return make_code(rows, n)


def ambient_root_count(code, scaling):
    # independent oracle: count integer vectors v with v mod 2 in the code
    # and the right dot norm.  Such vectors have all |v_i| <= 2, so a box
    # search is exhaustive.
    want = 2 if scaling == "unscaled" else 4
    k = code.length
    count = 0
    for v in product((-2, -1, 0, 1, 2), repeat=k):
        if sum(x * x for x in v) != want:
            continue
        w = sum((1 << i) for i, x in enumerate(v) if x % 2)
        if contains(code, w):
            count += 1
    return count


def unimodular_shuffle(rng, lat, steps=6):
    g = [list(row) for row in lat.doubled_gram]
    n = lat.rank
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for col in range(n):
            u[i][col] += c * u[j][col]
    # doubled gram of the new basis u
    new = [
        [
            sum(u[i][a] * g[a][b] * u[j][b] for a in range(n) for b in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return GramLattice(n, tuple(tuple(row) for row in new), lat.scaling)


def cartan(kind, n):
    # doubled Gram matrix (twice the Cartan matrix) of A_n or D_n
    if kind == "A":
        edges = [(i, i + 1) for i in range(n - 1)]
    else:
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    g = [[4 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in edges:
        g[a][b] = g[b][a] = -2
    return GramLattice(n, tuple(tuple(row) for row in g), "unscaled")


# --- construction ------------------------------------------------------------


def test_construction_a_shapes():
    lat = construction_a(even_code(4), "unscaled")
    assert lat.rank == 4
    assert lat.doubled_gram[0][0] == 4  # basis word of weight 2, doubled
    half = construction_a(de(2), "half")
    assert half.rank == 4
    assert half.doubled_gram[0][0] == 4  # weight-4 word, halved then doubled


def test_construction_a_preconditions():
    with pytest.raises(ValueError):
        construction_a(make_code(["11"], 2), "half")  # not doubly even
    with pytest.raises(ValueError):
        construction_a(make_code(["111"], 3), "unscaled")  # odd weight
    with pytest.raises(ValueError):
        construction_a(de(2), "thirds")


# the scaling tag is checked by the GramLattice construction_a returns
@pytest.mark.parametrize("code, scaling, message", [
    (de(2), "quarter", "unknown scaling tag: 'quarter'"),
    (zero_code(0), "half", "code must have positive length"),
], ids=["unknown-tag", "zero-length"])
def test_construction_a_rejects(code, scaling, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        construction_a(code, scaling)


def test_gram_lattice_validation():
    with pytest.raises(ValueError):
        GramLattice(2, ((2, 1), (0, 2)), "unscaled")  # asymmetric
    # a basis vector of norm <= 0, at any position, leaves the form not
    # positive definite, so some leading principal minor is <= 0
    for gram in (((0, 0), (0, 2)), ((2, 0), (0, 0)), ((2, 0), (0, -2))):
        with pytest.raises(ValueError, match="not positive definite"):
            GramLattice(2, gram, "unscaled")
    with pytest.raises(ValueError):
        GramLattice(1, ((2,),), "other")


# --- roots -------------------------------------------------------------------


def test_roots_of_z2():
    lat = GramLattice(2, ((2, 0), (0, 2)), "unscaled")
    assert roots(lat) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def test_roots_empty_when_minimum_exceeds_two():
    lat = GramLattice(1, ((8,),), "unscaled")
    assert roots(lat) == []


def test_roots_rejects_indefinite_form():
    # rejected when the lattice is built, before any search
    with pytest.raises(ValueError, match="not positive definite"):
        GramLattice(2, ((2, 4), (4, 2)), "unscaled")


def test_roots_come_in_opposite_pairs():
    lat = construction_a(de(3), "half")
    rs = roots(lat)
    rset = set(rs)
    assert all(tuple(-c for c in v) in rset for v in rs)
    assert len(rs) == len(rset)


def test_root_counts_match_ambient_oracle():
    cases = [
        (even_code(3), "unscaled"),
        (even_code(4), "unscaled"),
        (de(2), "half"),
        (de(3), "half"),
        (simplex(3), "half"),
    ]
    for code, scaling in cases:
        lat = construction_a(code, scaling)
        assert len(roots(lat)) == ambient_root_count(code, scaling)


def construction_a_basis(code):
    # the basis construction_a documents: 0/1 lifts of the RREF generators,
    # then 2e_c for each non-pivot coordinate c
    k = code.length
    pivots = {(g & -g).bit_length() - 1 for g in code.generators}
    basis = [[(g >> c) & 1 for c in range(k)] for g in code.generators]
    basis += [[2 * (i == c) for i in range(k)] for c in range(k) if c not in pivots]
    return basis


def code_roots(code, scaling):
    # Construction-A roots read off the code (Conway-Sloane, SPLAG ch. 7),
    # in ambient coordinates: at half scaling +-2e_i and every sign pattern
    # on each weight-4 support; unscaled +-e_i +- e_j with e_i + e_j in C
    k = code.length
    out = set()
    if scaling == "half":
        for i in range(k):
            for s in (2, -2):
                out.add(tuple(s * (j == i) for j in range(k)))
        for w in codewords(code):
            if bin(w).count("1") == 4:
                support = [i for i in range(k) if w >> i & 1]
                for signs in product((1, -1), repeat=4):
                    v = [0] * k
                    for i, s in zip(support, signs):
                        v[i] = s
                    out.add(tuple(v))
    else:
        for i, j in combinations(range(k), 2):
            if contains(code, (1 << i) | (1 << j)):
                for si, sj in product((1, -1), repeat=2):
                    v = [0] * k
                    v[i], v[j] = si, sj
                    out.add(tuple(v))
    return out


@st.composite
def codes_with_rule(draw, scaling):
    # random codes of length <= 16: candidate words of small even weight are
    # kept when the span still meets the weight rule of the scaling
    k = draw(st.integers(1, 16))
    rule = is_doubly_even if scaling == "half" else is_even
    gens = []
    for _ in range(draw(st.integers(0, 2 * k))):
        size = min(k, draw(st.sampled_from((2, 4, 6, 8))))
        support = draw(st.lists(st.integers(0, k - 1), min_size=size,
                                max_size=size, unique=True))
        word = sum(1 << i for i in support)
        if rule(make_code(gens + [word], k)):
            gens.append(word)
    return make_code(gens, k)


@pytest.mark.parametrize("scaling", ["half", "unscaled"])
@settings(deadline=None)
@given(data=st.data())
def test_roots_match_code_oracle(scaling, data):
    code = data.draw(codes_with_rule(scaling))
    lat = construction_a(code, scaling)
    basis = construction_a_basis(code)
    assert lat.doubled_gram == tuple(
        tuple(sum(a * b for a, b in zip(x, y)) * (2 if scaling == "unscaled" else 1)
              for y in basis)
        for x in basis
    )
    with within(2.0):
        found = roots(lat)
    ambient = [
        tuple(sum(c * b[j] for c, b in zip(r, basis)) for j in range(code.length))
        for r in found
    ]
    assert len(ambient) == len(set(ambient))
    assert set(ambient) == code_roots(code, scaling)
    weights = [bin(w).count("1") for w in codewords(code)]
    if scaling == "half":
        assert len(ambient) == 2 * code.length + 16 * weights.count(4)
    else:
        assert len(ambient) == 4 * weights.count(2)


# --- identification ----------------------------------------------------------


def test_identify_d_series_unscaled():
    # D_n has 2n(n-1) roots; for n = 3 the diagram degenerates to A_3
    expected = {3: "A3", 4: "D4", 5: "D5"}
    for n in (3, 4, 5):
        lat = construction_a(even_code(n), "unscaled")
        report = identify_root_system(lat)
        assert report.root_count == 2 * n * (n - 1)
        assert report.components == (expected[n],)
        assert report.full_rank
        assert discriminant(lat) == 4


def test_identify_doubled_even_half_gives_d2n():
    for n in (2, 3):
        lat = construction_a(de(n), "half")
        report = identify_root_system(lat)
        assert report.root_count == 2 * (2 * n) * (2 * n - 1)
        assert report.components == (f"D{2 * n}",)
        assert report.full_rank
        assert discriminant(lat) == 4


def test_identify_e7_from_simplex():
    lat = construction_a(simplex(3), "half")
    report = identify_root_system(lat)
    assert report.root_count == 126
    assert report.components == ("E7",)
    assert report.full_rank
    assert discriminant(lat) == 2


def test_half_lattices_are_even():
    for code in (de(2), de(3), simplex(3)):
        lat = construction_a(code, "half")
        for i in range(lat.rank):
            assert lat.doubled_gram[i][i] % 4 == 0
            for j in range(lat.rank):
                assert lat.doubled_gram[i][j] % 2 == 0


def test_identify_orthogonal_a1s():
    lat = GramLattice(2, ((4, 0), (0, 4)), "unscaled")
    report = identify_root_system(lat)
    assert report.root_count == 4
    assert report.components == ("A1", "A1")
    assert report.full_rank


def test_identify_against_textbook_gram():
    # classical D_m basis: e_1-e_2, ..., e_{m-1}-e_m, e_{m-1}+e_m
    for m in (4, 6):
        basis = []
        for i in range(m - 1):
            v = [0] * m
            v[i], v[i + 1] = 1, -1
            basis.append(v)
        v = [0] * m
        v[m - 2] = v[m - 1] = 1
        basis.append(v)
        gram = tuple(
            tuple(2 * sum(a * b for a, b in zip(x, y)) for y in basis)
            for x in basis
        )
        klass = GramLattice(m, gram, "unscaled")
        mine = construction_a(de(m // 2), "half")
        assert identify_root_system(klass) == identify_root_system(mine)
        assert discriminant(klass) == discriminant(mine)


def test_not_simply_laced_raises():
    # two norm-2 vectors meeting with product 1/2: no ADE match possible
    lat = GramLattice(2, ((4, 1), (1, 4)), "half")
    with pytest.raises(ValueError, match="product 1/2; not simply laced"):
        identify_root_system(lat)


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 2), (0, 2)],  # a cycle
    [(0, 1), (0, 2), (0, 3), (0, 4)],  # a vertex of degree 4
])
def test_non_ade_root_graph_raises(monkeypatch, edges):
    # simple roots e_i meeting as the edges say form an affine diagram,
    # whose Cartan matrix is singular.  A lattice never has such roots, so
    # they are planted by replacing the root search
    n = 1 + max(max(e) for e in edges)
    g = [[6 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in edges:
        g[a][b] = g[b][a] = -2
    lat = GramLattice(n, tuple(map(tuple, g)), "unscaled")
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    planted = sorted(unit + [tuple(-x for x in v) for v in unit])
    monkeypatch.setattr(lattices, "roots", lambda lat: planted)
    with pytest.raises(ValueError, match="root graph is not of ADE type"):
        identify_root_system(lat)


E8_WORDS = ["11110000", "00111100", "00001111", "01010101"]

RANK_8_TO_16 = (
    [(f"de({n}) half", lambda n=n: construction_a(de(n), "half"),
      (f"D{2 * n}",), 4 * n * (2 * n - 1)) for n in range(4, 9)]
    + [(f"even({n})", lambda n=n: construction_a(even_code(n), "unscaled"),
        (f"D{n}",), 2 * n * (n - 1)) for n in range(8, 17)]
    + [("simplex(4) half", lambda: construction_a(simplex(4), "half"),
        ("A1",) * 15, 30),
       ("e8+e8 half",
        lambda: construction_a(
            make_code([w + "0" * 8 for w in E8_WORDS]
                      + ["0" * 8 + w for w in E8_WORDS], 16), "half"),
        ("E8", "E8"), 480),
       ("Cartan D8", lambda: cartan("D", 8), ("D8",), 112)]
)


@pytest.mark.parametrize("name,build,components,root_count", RANK_8_TO_16,
                         ids=[case[0] for case in RANK_8_TO_16])
def test_identify_rank_8_to_16_within_budget(name, build, components, root_count):
    # the paper's doubled codes de(n) up to the root-rank limit: every
    # search must stop, and well inside the budget
    lat = build()
    with within(1.0):
        report = identify_root_system(lat)
    assert report.components == components
    assert report.root_count == root_count
    assert report.full_rank


@pytest.mark.parametrize("kind,n", [(kind, n) for kind in "AD" for n in range(5, 9)])
def test_identify_cartan_under_basis_change(kind, n):
    rng = random.Random(f"{kind}{n}")
    base = cartan(kind, n)
    roots_expected = n * (n + 1) if kind == "A" else 2 * n * (n - 1)
    for _ in range(5):
        lat = unimodular_shuffle(rng, base, steps=2 * n)
        with within(1.0):
            report = identify_root_system(lat)
        assert report.components == (f"{kind}{n}",)
        assert report.root_count == roots_expected
        assert discriminant(lat) == discriminant(base)


# --- discriminant ------------------------------------------------------------


def test_discriminant_values():
    assert discriminant(GramLattice(2, ((2, 0), (0, 2)), "unscaled")) == 1
    assert discriminant(construction_a(simplex(3), "half")) == 2
    assert discriminant(construction_a(de(2), "half")) == 4


def test_discriminant_is_rational_for_odd_doubled_entries():
    lat = GramLattice(1, ((1,),), "half")
    assert discriminant(lat) == Fraction(1, 2)


def test_discriminant_invariant_under_basis_change():
    rng = random.Random(314159)
    base = construction_a(simplex(3), "half")
    d = discriminant(base)
    for _ in range(20):
        other = unimodular_shuffle(rng, base)
        assert discriminant(other) == d


def test_root_count_invariant_under_basis_change():
    rng = random.Random(2718)
    base = construction_a(de(2), "half")
    n = len(roots(base))
    for _ in range(5):
        other = unimodular_shuffle(rng, base, steps=4)
        assert len(roots(other)) == n


# --- serialization -----------------------------------------------------------


def test_lattice_json_roundtrip():
    lat = construction_a(simplex(3), "half")
    text = lattice_to_json(lat)
    assert lattice_from_json(text) == lat
    # serialization is byte-stable
    assert lattice_to_json(lattice_from_json(text)) == text


def test_lattice_json_rejects_garbage():
    with pytest.raises(ValueError):
        lattice_from_json("not json")
    with pytest.raises(ValueError):
        lattice_from_json('{"rank": 2}')
    # arrays nested past the decoder's recursion limit
    with pytest.raises(ValueError, match="not valid JSON"):
        lattice_from_json("[" * 100_000 + "]" * 100_000)
    # non-integer Gram entries are rejected, not truncated or parsed
    for entry in ("4.7", '"4"', "true", "null", "4.0"):
        with pytest.raises(ValueError, match="doubled_gram entry"):
            lattice_from_json('{"rank": 2, "doubled_gram": [[%s, 0], [0, 4]], '
                              '"scaling": "unscaled"}' % entry)
