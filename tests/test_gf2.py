import json
import random
import time
from collections import Counter
from itertools import combinations, permutations
from math import comb, factorial
from pathlib import Path

import pytest
from helpers import admissible_subspaces, latin_square_code, within

from nodalcodes import gf2
from nodalcodes.gf2 import (
    BinaryCode,
    canonical_form,
    codewords,
    contains,
    de,
    enumerate_codes,
    equivalent,
    format_code,
    is_doubly_even,
    is_even,
    make_code,
    parse_code,
    permute,
    recognize_de,
    reduce,
    simplex,
    weight_enumerator,
    word_from_string,
    word_to_string,
    zero_code,
)


def brute_weights(code):
    # independent path: test every vector of the ambient space for membership
    counts = {}
    for v in range(1 << code.length):
        if contains(code, v):
            h = bin(v).count("1")
            counts[h] = counts.get(h, 0) + 1
    return counts


def brute_exists_weight4_code(length, dim):
    # grow ordered tuples of weight-4 words, checking all pairwise sums
    pool = [sum(1 << i for i in s) for s in combinations(range(length), 4)]

    def extend(gens, span, start):
        if len(gens) == dim:
            return True
        for j in range(start, len(pool)):
            w = pool[j]
            if w in span:
                continue
            if all(bin(w ^ c).count("1") == 4 for c in span if c):
                if extend(gens + [w], span | {w ^ c for c in span}, j + 1):
                    return True
        return False

    return extend([], {0}, 0)


# --- construction and basic structure --------------------------------------


def test_make_code_row_reduces():
    c = make_code(["1100", "0110", "1010"], 4)
    assert c.length == 4
    assert c.dim == 2
    # RREF is unique, so input order must not matter
    d = make_code(["1010", "1100"], 4)
    assert c == d


def test_make_code_rejects_bad_input():
    with pytest.raises(ValueError):
        make_code([], 40)
    with pytest.raises(ValueError):
        make_code(["11012"], 5)
    with pytest.raises(ValueError):
        make_code([1 << 6], 6)


def test_word_string_roundtrip():
    w = word_from_string("01101")
    assert w == 0b10110
    assert word_to_string(w, 5) == "01101"


def test_codewords_count_and_membership():
    c = make_code(["110100", "011010"], 6)
    words = codewords(c)
    assert len(words) == 4
    assert len(set(words)) == 4
    assert all(contains(c, w) for w in words)
    assert not contains(c, 0b1)


def test_weight_enumerator_de3():
    # de(3): dimension 2, three words of weight 4
    assert weight_enumerator(de(3)) == {0: 1, 4: 3}
    assert weight_enumerator(de(3)) == brute_weights(de(3))


def test_weight_enumerator_simplex():
    s = simplex(3)
    assert (s.length, s.dim) == (7, 3)
    assert weight_enumerator(s) == {0: 1, 4: 7}
    assert weight_enumerator(s) == brute_weights(s)


def test_weight_enumerator_zero_code():
    assert weight_enumerator(zero_code(5)) == {0: 1}


def test_evenness_predicates():
    assert is_doubly_even(de(4))
    assert is_doubly_even(zero_code(3))
    assert is_even(make_code(["11"], 2))
    assert not is_doubly_even(make_code(["11"], 2))
    assert not is_even(make_code(["111"], 3))
    # weight-4 generators meeting oddly do not span a doubly even code
    c = make_code(["1111000", "0111100"], 7)
    assert not is_doubly_even(c)
    assert any(h % 4 for h in weight_enumerator(c) if h)


def test_doubly_even_matches_full_span_check():
    rng = random.Random(7)
    for _ in range(50):
        k = rng.randrange(4, 10)
        rows = [rng.randrange(1, 1 << k) for _ in range(rng.randrange(1, 4))]
        c = make_code(rows, k)
        expected = all(h % 4 == 0 for h in weight_enumerator(c))
        assert is_doubly_even(c) == expected


# --- support reduction ------------------------------------------------------


def test_reduce_strips_zero_coordinates():
    padded = make_code([word_to_string(g, 7) + "0" for g in simplex(3).generators], 8)
    red, support = reduce(padded)
    assert red == simplex(3)
    assert support == (0, 1, 2, 3, 4, 5, 6)


def test_reduce_full_support_is_identity():
    red, support = reduce(de(3))
    assert red == de(3)
    assert support == tuple(range(6))


def test_reduce_zero_code():
    red, support = reduce(zero_code(5))
    assert red.length == 0 and red.dim == 0
    assert support == ()


# --- the doubled even-weight family -----------------------------------------


def test_de_shapes():
    for n in range(1, 11):
        c = de(n)
        assert c.length == 2 * n
        assert c.dim == n - 1
        assert is_doubly_even(c)


def test_de_small_cases():
    assert de(1) == zero_code(2)
    assert de(2) == make_code(["1111"], 4)
    with pytest.raises(ValueError):
        de(0)
    with pytest.raises(ValueError):
        de(17)
    # the length is checked before any row is built
    with within(1.0), pytest.raises(ValueError):
        de(10**9)


# --- canonical forms and equivalence ----------------------------------------


def test_canonical_form_is_orbit_invariant():
    rng = random.Random(20260815)
    for _ in range(100):
        k = rng.randrange(1, 9)
        nrows = rng.randrange(0, k + 1)
        rows = [rng.randrange(1, 1 << k) for _ in range(nrows)]
        c = make_code(rows, k)
        images = list(range(k))
        rng.shuffle(images)
        shuffled = permute(c, images)
        canon_c, wit_c = canonical_form(c)
        canon_s, wit_s = canonical_form(shuffled)
        assert canon_c == canon_s
        # witness must actually map each code onto the canonical form
        assert permute(c, wit_c) == canon_c
        assert permute(shuffled, wit_s) == canon_c


def test_canonical_form_deterministic_witness():
    c = de(3)
    assert canonical_form(c) == canonical_form(make_code(c.generators, 6))


def column_major_key(code):
    # column c read as an int with row 0 as the most significant bit
    rows = code.generators
    return tuple(
        sum(((g >> c) & 1) << (len(rows) - 1 - i) for i, g in enumerate(rows))
        for c in range(code.length)
    )


def brute_profiles(code):
    # independent path: the words of the code found by testing every vector
    # of the ambient space, then counted coordinate by coordinate
    k = code.length
    words = [v for v in range(1 << k) if contains(code, v)]
    return [
        tuple(sum(1 for w in words
                  if (w >> c) & 1 and bin(w).count("1") == h)
              for h in range(k + 1))
        for c in range(k)
    ]


def test_profiles_match_bruteforce():
    rng = random.Random(1982)
    for _ in range(60):
        k = rng.randrange(1, 12)
        rows = [rng.randrange(1, 1 << k) for _ in range(rng.randrange(0, k))]
        code = make_code(rows, k)
        assert gf2._profiles(code) == brute_profiles(code), code


def brute_dual(code):
    k = code.length
    return make_code([v for v in range(1 << k)
                      if all(bin(v & g).count("1") % 2 == 0
                             for g in code.generators)], k)


def brute_minimum(code):
    # the image with the smallest column-major RREF matrix over the k!
    # permutations that put the coordinates in nondecreasing profile order
    k = code.length
    profile = brute_profiles(code)
    images = {}
    for p in permutations(range(k)):
        placed = [None] * k
        for c in range(k):
            placed[p[c]] = profile[c]
        if placed == sorted(placed):
            image = permute(code, p)
            images[column_major_key(image)] = image
    return images[min(images)]


def test_canonical_form_matches_bruteforce_minimum():
    # oracle: the brute-force minimum, or for a code with 2 dim > k the dual
    # of the brute-force minimum for its dual
    rng = random.Random(2024)
    for _ in range(40):
        k = rng.randrange(2, 8)
        rows = [rng.randrange(1, 1 << k) for _ in range(rng.randrange(1, k))]
        code = make_code(rows, k)
        if 2 * code.dim > k:
            expected = brute_dual(brute_minimum(brute_dual(code)))
        else:
            expected = brute_minimum(code)
        canon, images = canonical_form(code)
        assert canon == expected, code
        assert permute(code, images) == canon


def random_doubly_even(rng, n, k):
    # grow from random words of weight 0 mod 4 meeting every earlier
    # generator evenly; restart if the greedy choice gets stuck
    while True:
        gens, span = [], {0}
        for _ in range(400 * k):
            w = rng.getrandbits(n)
            if (w in span or bin(w).count("1") % 4
                    or any(bin(w & g).count("1") % 2 for g in gens)):
                continue
            gens.append(w)
            span |= {s ^ w for s in span}
            if len(gens) == k:
                return make_code(gens, n)


HIGH_SYMMETRY = {
    "de(8)": de(8),
    "simplex(4)": simplex(4),
    "de(10)": de(10),
    "de(16)": de(16),
    "doubly even [14,6]": random_doubly_even(random.Random(14), 14, 6),
}


@pytest.mark.parametrize("name", sorted(HIGH_SYMMETRY))
def test_canonical_form_high_symmetry_within_budget(name):
    # large automorphism groups (|Aut(de(n))| >= 2^n n!): without pruning by
    # automorphisms the search walks every automorphic leaf
    code = HIGH_SYMMETRY[name]
    assert is_doubly_even(code)
    images = list(range(code.length))
    random.Random(name).shuffle(images)
    forms = []
    for c in (code, permute(code, images)):
        start = time.perf_counter()  # uncached, so the search is timed
        canon, witness = gf2._canonical_search.__wrapped__(c)[:2]
        assert time.perf_counter() - start < 2.0, name
        assert permute(c, witness) == canon
        forms.append(canon)
    assert forms[0] == forms[1]


def random_code(rng, n, k):
    while True:
        code = make_code([rng.getrandbits(n) for _ in range(k)], n)
        if code.dim == k:
            return code


LOW_SYMMETRY = [(12, 6), (13, 6), (14, 6), (16, 5), (16, 6), (16, 8),
                (12, 8), (13, 8), (14, 9), (16, 11), (16, 12)]


def assert_forms_within_budget(rng, code):
    images = list(range(code.length))
    rng.shuffle(images)
    forms = []
    for c in (code, permute(code, images)):
        with within(0.5):  # uncached, so the search is timed
            canon, witness = gf2._canonical_search.__wrapped__(c)[:2]
        assert permute(c, witness) == canon
        forms.append(canon)
    assert forms[0] == forms[1], code


@pytest.mark.parametrize("n,k", LOW_SYMMETRY)
def test_canonical_form_low_symmetry_within_budget(n, k):
    # random codes have small automorphism groups, so pruning by them does
    # little; without refinement by profiles some of these took over 8 s
    rng = random.Random(n * 100 + k)
    for _ in range(2):
        assert_forms_within_budget(rng, random_code(rng, n, k))


@pytest.mark.parametrize("n,k", [(16, 16), (24, 24), (32, 32), (16, 14),
                                 (20, 18), (24, 22), (32, 30)])
def test_canonical_form_high_rate_within_budget(n, k):
    # searched on the dual, of dimension n - k; searched on the code itself,
    # F_2^32 took 4-5 s and the [32,30] code of seed 3230 over 20 s on a
    # 2-vCPU Xeon VM
    rng = random.Random(n * 100 + k)
    assert_forms_within_budget(rng, random_code(rng, n, k))


@pytest.mark.parametrize("seed", [0, 1])
def test_latin_square_order_5_stops_at_node_budget(seed):
    # one round of refinement cannot split the cells of a Latin square
    # graph, so the search would run for minutes; it stops at the budget,
    # in about 6-7 s on a 2-vCPU Xeon VM
    code = latin_square_code(5, seed)
    assert (code.length, code.dim) == (25, 12)
    nodes = gf2._SEARCH_NODE_BUDGET + 1
    with within(30), pytest.raises(gf2.SearchBudgetError,
                                   match=f"stopped at {nodes} nodes"):
        canonical_form(code)


def brute_automorphism_count(code):
    # every one of the k! permutations, assigned coordinate by coordinate;
    # a branch is cut once a codeword inside the assigned prefix leaves the
    # code, which no completion can repair
    k, words = code.length, set(codewords(code))
    inside = [[] for _ in range(k)]
    for w in words:
        if w:
            inside[w.bit_length() - 1].append(w)

    def extend(images):
        j = len(images)
        if j == k:
            return 1
        total = 0
        for t in range(k):
            if t in images:
                continue
            images.append(t)
            if all(sum(1 << images[i] for i in range(k) if (w >> i) & 1)
                   in words for w in inside[j]):
                total += extend(images)
            images.pop()
        return total

    return extend([])


def group(k, generators):
    # closure of the identity under right multiplication by the generators
    identity = tuple(range(k))
    seen, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = tuple(g[p[i]] for i in range(k))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def group_order(k, generators):
    return len(group(k, generators))


def automorphism_cases():
    cases = {f"de({n})": de(n) for n in range(2, 6)}
    cases["simplex(3)"] = simplex(3)
    rng = random.Random(1998)
    for j in range(40):
        k = rng.randrange(1, 8)
        rows = [rng.randrange(1, 1 << k) for _ in range(rng.randrange(0, k))]
        cases[f"random #{j}"] = make_code(rows, k)
    return cases


def closed_form_cases():
    # permuted copies of codes whose groups have known orders:
    # |Aut(de(n))| = 2^n n!, Aut(simplex(r)) = GL(r, 2), and the extended
    # Hamming code e8 has Aut = AGL(3, 2), of order 1344
    rng = random.Random(1981)
    cases = {f"de({n})": (de(n), 2 ** n * factorial(n)) for n in (3, 4, 5)}
    cases["simplex(3)"] = simplex(3), 168
    cases["simplex(4)"] = simplex(4), 20160
    cases["e8"] = make_code(
        ["11110000", "00111100", "00001111", "01010101"], 8), 1344
    out = {}
    for name, (code, order) in cases.items():
        images = list(range(code.length))
        rng.shuffle(images)
        out[f"permuted {name}"] = permute(code, images), order
    return out


def test_automorphisms_generate_the_whole_group():
    # the enumeration extends each base once per orbit of these generators,
    # so each must be an automorphism and together they must reach every one
    cases = {name: (code, brute_automorphism_count(code))
             for name, code in automorphism_cases().items()}
    cases.update(closed_form_cases())
    for name, (code, order) in cases.items():
        generators = gf2._canonical_search(code)[2]
        for g in generators:
            assert permute(code, g) == code, name
        assert group_order(code.length, generators) == order, name


def test_automorphism_group_orders():
    # |Aut(de(n))| = 2^n n! for n >= 3 (pair swaps and pair permutations),
    # Aut(de(2)) = S_4, Aut(simplex(3)) = GL(3, 2)
    assert brute_automorphism_count(de(2)) == 24
    assert brute_automorphism_count(de(4)) == 2 ** 4 * 24
    assert brute_automorphism_count(simplex(3)) == 168


def test_equivalent_reversed_de3():
    a = de(3)
    b = permute(a, (5, 4, 3, 2, 1, 0))
    images = equivalent(a, b)
    assert images is not None
    assert permute(a, images) == b


def test_equivalent_simple_swap():
    a = make_code(["1100"], 4)
    b = make_code(["0011"], 4)
    images = equivalent(a, b)
    assert images is not None
    assert sorted(images[:2]) == [2, 3]
    assert permute(a, images) == b


def test_not_equivalent_different_dims(monkeypatch):
    # answered before either canonical search runs
    def no_search(code):
        raise AssertionError("canonical search run")

    monkeypatch.setattr(gf2, "canonical_form", no_search)
    padded = make_code(
        [word_to_string(g, 6) + "0" for g in de(3).generators], 7
    )
    assert equivalent(padded, simplex(3)) is None
    other = random_code(random.Random(16), 16, 6)
    assert equivalent(zero_code(16), other) is None


def test_equivalence_respects_weight_enumerator():
    rng = random.Random(99)
    for _ in range(30):
        k = rng.randrange(2, 9)
        rows = [rng.randrange(1, 1 << k) for _ in range(rng.randrange(1, 4))]
        a = make_code(rows, k)
        images = list(range(k))
        rng.shuffle(images)
        b = permute(a, images)
        assert weight_enumerator(a) == weight_enumerator(b)
        assert equivalent(a, b) is not None


# --- recognizing doubled even-weight codes -----------------------------------


def test_recognize_de_family():
    for n in range(1, 11):
        assert recognize_de(de(n)) == n


def test_recognize_de_permuted_and_padded():
    c = de(4)
    shuffled = permute(c, (7, 2, 5, 0, 3, 6, 1, 4))
    assert recognize_de(shuffled) == 4
    padded = make_code(
        [word_to_string(g, 8) + "000" for g in c.generators], 11
    )
    assert recognize_de(padded) == 4


def test_recognize_de_rejects_simplex():
    assert recognize_de(simplex(3)) is None


def test_recognize_de_unobvious_generating_set():
    # chained weight-4 generators still span a doubled even-weight code
    c = make_code(["11110000", "00111100", "00001111"], 8)
    assert is_doubly_even(c)
    assert recognize_de(c) == 4
    # brute-force oracle: an explicit equivalence with de(4) exists
    assert equivalent(c, de(4)) is not None


def test_recognize_de_rejects_wrong_dimension():
    # columns pair up, but the dimension is one short of a doubled code's
    c = make_code(["11110000", "00001111"], 8)
    assert is_doubly_even(c)
    assert recognize_de(c) is None
    for n in range(1, 6):
        assert equivalent(reduce(c)[0], reduce(de(n))[0]) is None


def test_recognize_de_zero_code():
    assert recognize_de(zero_code(6)) == 1


# --- exhaustive enumeration ---------------------------------------------------


def test_enumerate_weight4_length7_dim3_is_simplex():
    classes = enumerate_codes(7, "4", 3, 3)
    assert len(classes) == 1
    assert equivalent(classes[0], simplex(3)) is not None


def test_enumerate_empty_cases():
    assert enumerate_codes(5, "4", 2, 2) == []
    assert enumerate_codes(8, "4", 4, 4) == []


def test_enumerate_agrees_with_bruteforce_existence():
    for length in range(4, 9):
        for dim in range(1, 5):
            got = bool(enumerate_codes(length, "4", dim, dim))
            assert got == brute_exists_weight4_code(length, dim), (length, dim)


def test_enumerate_returns_canonical_sorted():
    classes = enumerate_codes(8, "div4", 0, 3)
    assert classes == sorted(
        classes, key=lambda c: (c.dim, c.generators)
    )
    for c in classes:
        assert canonical_form(c)[0] == c
        assert all(
            h % 4 == 0 for h in weight_enumerator(c)
        )


def test_enumerate_doubly_even_self_orthogonal():
    # every doubly even code is self-orthogonal
    for length in range(4, 11):
        for c in enumerate_codes(length, "div4", 1, length):
            words = codewords(c)
            assert all(
                bin(a & b).count("1") % 2 == 0
                for a, b in combinations(words, 2)
            )


def test_enumerate_matches_golden():
    # generator matrices of every class for length <= 13 under the
    # profile-refined canonical form; the canonical matrix is part of the
    # output, so it must never drift
    golden = json.loads(
        (Path(__file__).parent / "golden" / "enumerate_codes.json").read_text()
    )
    got = {
        f"{w}/{length}": [
            list(c.generators) for c in enumerate_codes(length, w, 0, length)
        ]
        for w in ("4", "div4")
        for length in range(1, 14)
    }
    assert got == golden


def test_enumerate_length_13_within_budget(monkeypatch):
    # the paper's range ends at k = 13; canonicalizing every admissible
    # child took about 2 s on a 2-vCPU Xeon VM, one search per orbit about
    # 0.25 s
    monkeypatch.setattr(gf2, "_LEVELS", {})
    gf2._canonical_search.cache_clear()
    with within(1.0):
        classes = enumerate_codes(13, "div4", 1, 13)
    assert len(classes) == 28
    assert max(c.dim for c in classes) == 5


def test_enumerate_length_16_reach(monkeypatch):
    # a cold length-16 "div4" enumeration, resumed from dimension 4, ends
    # with both doubly even self-dual classes of length 16, e8 + e8 and d16+
    # (Pless and Sloane, 1975); about 1.5 s on a 2-vCPU Xeon VM
    monkeypatch.setattr(gf2, "_LEVELS", {})
    gf2._canonical_search.cache_clear()
    with within(60):
        shallow = enumerate_codes(16, "div4", 1, 4)
        classes = enumerate_codes(16, "div4", 1, 16)
    assert classes[:len(shallow)] == shallow
    assert len(classes) == 145
    assert dict(Counter(c.dim for c in classes)) == {
        1: 4, 2: 10, 3: 23, 4: 38, 5: 36, 6: 23, 7: 9, 8: 2}
    e8 = ["11110000", "00111100", "00001111", "01010101"]
    e8e8 = make_code(
        [w + "0" * 8 for w in e8] + ["0" * 8 + w for w in e8], 16)
    d16 = make_code(list(de(8).generators) + ["01" * 8], 16)
    top = {c for c in classes if c.dim == 8}
    assert {canonical_form(c)[0] for c in (e8e8, d16)} == top


def brute_cosets(code, weights):
    # every word outside the code whose whole coset passes the rule, named
    # by the word with the code's pivot bits cleared
    def ok(h):
        return h == 4 if weights == "4" else h % 4 == 0

    span = codewords(code)
    out = set()
    for w in range(1, 1 << code.length):
        if not contains(code, w) and all(ok(bin(w ^ c).count("1"))
                                         for c in span):
            for g in code.generators:
                if w & g & -g:
                    w ^= g
            out.add(w)
    return sorted(out)


def recorded_extensions(monkeypatch, weights, lengths):
    # enumerate each length from an empty cache, recording the generators
    # and cosets each base is extended with
    monkeypatch.setattr(gf2, "_LEVELS", {})
    extend = gf2._extensions
    given = {}

    def recording(base, generators, cosets, found):
        given[base] = generators, list(cosets)
        extend(base, generators, cosets, found)

    monkeypatch.setattr(gf2, "_extensions", recording)
    for length in lengths:
        classes = enumerate_codes(length, weights, 0, length)
        assert set(classes) <= set(given), length
        yield length, [(cls,) + given[cls] for cls in classes]


@pytest.mark.parametrize("weights", ["4", "div4"])
def test_enumeration_carries_each_class_automorphisms(monkeypatch, weights):
    # a class is extended with the automorphism generators it inherited
    # from the base that found it: they must still generate its whole
    # automorphism group, or orbits of cosets are split wrongly
    for length, records in recorded_extensions(monkeypatch, weights,
                                               range(1, 10)):
        for cls, generators, _ in records:
            # closing the zero code's group, the whole symmetric group,
            # takes seconds
            if not cls.dim:
                continue
            # the carried group lies in Aut and holds the search's
            # generators, which generate Aut
            for g in generators:
                assert permute(cls, g) == cls, cls
            assert group(length, generators) >= \
                set(gf2._canonical_search(cls)[2]), cls


@pytest.mark.parametrize("weights", ["4", "div4"])
def test_enumeration_cosets_match_span_test(monkeypatch, weights):
    # each class is extended with the cosets it inherited from its parent;
    # they must be exactly those a test against the class's whole span finds
    for _, records in recorded_extensions(monkeypatch, weights,
                                          range(1, 11)):
        for cls, _, cosets in records:
            assert cosets == brute_cosets(cls, weights), cls


@pytest.mark.parametrize("weights", ["4", "div4"])
def test_enumeration_resumes_from_a_cached_frontier(monkeypatch, weights):
    # a shallow enumeration keeps the records of its deepest dimension; a
    # deeper one extends only those and their descendants, a repeated one
    # searches nothing, and a finished one keeps no records
    extend, form = gf2._extensions, gf2.canonical_form
    extended, formed = [], []

    def recording(base, generators, cosets, found):
        extended.append(base)
        extend(base, generators, cosets, found)

    def counting_form(code):
        formed.append(code)
        return form(code)

    monkeypatch.setattr(gf2, "_extensions", recording)
    monkeypatch.setattr(gf2, "canonical_form", counting_form)
    for length in range(1, 13):
        monkeypatch.setattr(gf2, "_LEVELS", {})
        cold = enumerate_codes(length, weights, 1, length)
        monkeypatch.setattr(gf2, "_LEVELS", {})
        shallow = enumerate_codes(length, weights, 1, 2)
        _, frontier = gf2._LEVELS[length, weights]
        assert [cls for cls, _, _ in frontier] == \
            [cls for cls in shallow if cls.dim == 2], length
        extended.clear()
        assert enumerate_codes(length, weights, 1, length) == cold, length
        assert extended == [cls for cls in cold if cls.dim >= 2], length
        assert gf2._LEVELS[length, weights][1] == (), length
        extended.clear()
        formed.clear()
        again = enumerate_codes(length, weights, 0, length)
        assert again == [zero_code(length)] + cold, length
        assert extended == [] and formed == [], length
        # the caller owns the list it gets
        again.clear()
        assert enumerate_codes(length, weights, 1, length) == cold, length


def test_enumeration_survives_an_interrupted_level(monkeypatch):
    # an alarm or a benchmark cap can stop a level part way through; the
    # cache must then hold the last completed level, from which a full
    # call finds what a cold one does
    monkeypatch.setattr(gf2, "_LEVELS", {})
    cold = enumerate_codes(12, "div4", 0, 12)
    monkeypatch.setattr(gf2, "_LEVELS", {})
    extend = gf2._extensions
    bases = []

    class Interrupted(Exception):
        pass

    def interrupted(base, generators, cosets, found):
        bases.append(base)
        if sum(b.dim == 3 for b in bases) == 2:
            assert found
            raise Interrupted
        extend(base, generators, cosets, found)

    monkeypatch.setattr(gf2, "_extensions", interrupted)
    with pytest.raises(Interrupted):
        enumerate_codes(12, "div4", 0, 12)
    levels, frontier = gf2._LEVELS[12, "div4"]
    assert [len(level) for level in levels] == \
        [sum(c.dim == d for c in cold) for d in (1, 2, 3)]
    assert [cls for cls, _, _ in frontier] == list(levels[2])
    monkeypatch.setattr(gf2, "_extensions", extend)
    assert enumerate_codes(12, "div4", 0, 12) == cold


def test_enumerate_dimension_zero_builds_no_cosets(monkeypatch):
    # the zero code's cosets are every admissible word, about 10^9 of
    # them at length 32 under "div4"; dimension 0 alone must not list them
    monkeypatch.setattr(gf2, "_LEVELS", {})
    with within(1.0):
        assert enumerate_codes(32, "div4", 0, 0) == [zero_code(32)]


@pytest.mark.parametrize("weights", ["4", "div4"])
def test_enumeration_matches_mass_formula(weights):
    # the sum of n!/|Aut(C)| over the classes of a dimension counts every
    # admissible subspace of it, which a span-growth search counts directly
    for n in range(1, 9):
        masses = {}
        for cls in enumerate_codes(n, weights, 0, n):
            order = group_order(n, gf2._canonical_search(cls)[2])
            masses[cls.dim] = masses.get(cls.dim, 0) + factorial(n) // order
        spans = {}
        for span in admissible_subspaces(n, weights):
            dim = len(span).bit_length() - 1
            spans[dim] = spans.get(dim, 0) + 1
        assert masses == spans, n


def test_enumeration_searches_no_base_twice(monkeypatch):
    # a base's automorphisms come from the search that found its class, so
    # every search is of a code that was canonicalized, not of the base again
    monkeypatch.setattr(gf2, "_LEVELS", {})
    gf2._canonical_search.cache_clear()
    form, search = gf2.canonical_form, gf2._canonical_search
    formed, unformed, high_rate = set(), [], set()

    def counting_form(code):
        formed.add(code)
        return form(code)

    def counting_search(code):
        # the zero code starts the enumeration, and a code of rate above
        # 1/2 is searched as its dual
        if code not in formed and code.dim and code not in high_rate:
            unformed.append(code)
        if 2 * code.dim > code.length:
            high_rate.add(gf2._dual(code))
        return search(code)

    monkeypatch.setattr(gf2, "canonical_form", counting_form)
    monkeypatch.setattr(gf2, "_canonical_search", counting_search)
    enumerate_codes(13, "div4", 1, 13)
    assert formed and unformed == []


def gray_weights(code):
    # direct enumeration: walk all 2^dim codewords in Gray-code order
    counts = {0: 1}
    w = 0
    for i in range(1, 1 << code.dim):
        w ^= code.generators[(i & -i).bit_length() - 1]
        counts[w.bit_count()] = counts.get(w.bit_count(), 0) + 1
    return dict(sorted(counts.items()))


# above dimension 16 the weights come from the dual by MacWilliams; listing
# the 2^32 words of a full-rank length-32 code did not finish in 20 s


@pytest.mark.parametrize("n", [17, 24, 32])
def test_weight_enumerator_of_the_whole_space(n):
    with within(2.0):
        we = weight_enumerator(make_code([1 << i for i in range(n)], n))
    assert we == {i: comb(n, i) for i in range(n + 1)}


@pytest.mark.parametrize("n", [18, 25, 32])
def test_weight_enumerator_of_the_even_weight_code(n):
    with within(2.0):
        we = weight_enumerator(
            make_code([1 | 1 << i for i in range(1, n)], n))
    assert we == {i: comb(n, i) for i in range(0, n + 1, 2)}


@pytest.mark.parametrize("dim", [17, 18, 19, 20])
def test_weight_enumerator_matches_direct_enumeration(dim):
    rng = random.Random(dim)
    length = rng.randrange(dim + 1, 33)
    code = zero_code(length)
    while code.dim < dim:
        code = make_code(code.generators + (rng.getrandbits(length),),
                         length)
    with within(2.0):
        we = weight_enumerator(code)
    assert we == gray_weights(code)


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_codes(6, "weird", 0, 2)
    with pytest.raises(ValueError):
        enumerate_codes(6, "4", 3, 1)


# --- serialization ------------------------------------------------------------


def test_code_file_roundtrip():
    for c in [de(3), simplex(3), zero_code(5)]:
        assert parse_code(format_code(c)) == c


def test_parse_code_rejects_malformed():
    with pytest.raises(ValueError):
        parse_code("")
    with pytest.raises(ValueError):
        parse_code("7 2\n1111000\n")
    with pytest.raises(ValueError):
        parse_code("4 2\n1111\n1111\n")


def test_format_code_matches_layout():
    assert format_code(de(2)) == "4 1\n1111\n"
