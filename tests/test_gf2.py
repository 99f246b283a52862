import json
import random
import re
import time
from collections import Counter
from itertools import (combinations, combinations_with_replacement,
                       permutations)
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
    with pytest.raises(ValueError, match="has length 4, expected 3"):
        word_from_string("0110", 3)
    # int(s, 2) takes every one of these; a word takes none, and the error
    # names the first character that is not 0 or 1
    for s, bad in [("+0110", "+"), ("-0110", "-"), ("01_10", "_"),
                   (" 0110", " "), ("0110\n", "\n"),
                   ("\uff10\uff11\uff11\uff10", "\uff10"),
                   ("01\u06610", "\u0661")]:
        message = re.escape(f"invalid character {bad!r}")
        for length in (None, len(s)):
            with pytest.raises(ValueError, match=message):
                word_from_string(s, length)
        with pytest.raises(ValueError, match=message):
            make_code([s], len(s))


def test_word_string_roundtrip():
    w = word_from_string("01101")
    assert w == 0b10110
    assert word_to_string(w, 5) == "01101"
    # bits at and above the length are dropped, negative words included
    assert word_to_string(0b1000, 2) == "00"
    assert word_to_string(-1, 3) == "111"
    rng = random.Random(25)
    for length in range(33):
        words = [0, (1 << length) - 1] + \
            [rng.getrandbits(length) for _ in range(20)]
        for w in words:
            s = word_to_string(w, length)
            assert len(s) == length
            assert word_from_string(s) == word_from_string(s, length) == w
    assert word_from_string("") == 0
    assert word_to_string(0, 0) == ""


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


def random_supported_code(rng, length, max_dim=16):
    """A random code on a random support, of any dimension up to max_dim
    that the support allows."""
    mask = rng.getrandbits(length)
    dim = rng.randint(0, min(mask.bit_count(), max_dim))
    code = zero_code(length)
    while code.dim < dim:
        code = make_code(code.generators + (rng.getrandbits(length) & mask,),
                         length)
    return code


def test_column_helpers_match_word_oracles():
    rng = random.Random(2025)
    for length in range(33):
        for _ in range(3):
            c = random_supported_code(rng, length)
            assert gf2._rows(gf2._columns(c), c.dim) == c.generators
            words = codewords(c)

            images = list(range(length))
            rng.shuffle(images)
            moved = {sum(1 << images[i] for i in range(length) if w >> i & 1)
                     for w in words}
            assert set(codewords(permute(c, images))) == moved

            union = 0
            for w in words:
                union |= w
            support = tuple(i for i in range(length) if union >> i & 1)
            restricted = [sum(1 << pos for pos, i in enumerate(support)
                              if w >> i & 1) for w in words]
            red, red_support = reduce(c)
            assert red_support == support
            assert red == make_code(restricted, len(support))
            assert red.dim == c.dim
    with pytest.raises(ValueError, match="not a permutation"):
        permute(de(2), [0, 0, 1, 2])


def test_simplex_matches_column_loop():
    for r in range(1, 6):
        # row i holds the coordinates v - 1 whose v has bit i set
        gens = []
        for i in range(r):
            g = 0
            for v in range(1, 1 << r):
                if (v >> i) & 1:
                    g |= 1 << (v - 1)
            gens.append(g)
        assert simplex(r) == BinaryCode((1 << r) - 1, tuple(gens))
    for r in (0, 6):
        with pytest.raises(ValueError, match="r out of range"):
            simplex(r)


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
    # in about 2-3 s on a 2-vCPU Xeon VM
    code = latin_square_code(5, seed)
    assert (code.length, code.dim) == (25, 12)
    stopped = f"stopped at {gf2._SEARCH_NODE_BUDGET + 1} nodes"
    with within(30), pytest.raises(gf2.SearchBudgetError, match=stopped):
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


def two_search_reference(a, b):
    # equivalence from two full canonical searches: a's witness, then the
    # inverse of b's
    canon_a, wit_a = canonical_form(a)
    canon_b, wit_b = canonical_form(b)
    if canon_a != canon_b:
        return None
    inverse = [0] * b.length
    for c, p in enumerate(wit_b):
        inverse[p] = c
    return tuple(inverse[wit_a[c]] for c in range(a.length))


def shuffled_copy(rng, code):
    images = list(range(code.length))
    rng.shuffle(images)
    return permute(code, images)


def from_columns(columns, rows):
    # the code whose generator matrix has the given columns, each an int
    # whose bit i is the entry in row i
    return make_code([sum(((v >> i) & 1) << c for c, v in enumerate(columns))
                      for i in range(rows)], len(columns))


def gl3_maps():
    # the 168 invertible maps of GF(2)^3, as the images of the vectors 0..7
    maps = []
    for e1, e2, e3 in permutations(range(1, 8), 3):
        if e3 != e1 ^ e2:
            maps.append([(e1 if v & 1 else 0) ^ (e2 if v & 2 else 0)
                         ^ (e3 if v & 4 else 0) for v in range(8)])
    return maps


def weight_enumerator_twins(n):
    # [n,3] codes without zero columns, one per GL(3,2)-orbit of their
    # multisets of columns, grouped by the weights of their seven nonzero
    # words; two codes of a group share a weight enumerator and are
    # inequivalent, since a permutation of coordinates carries one onto
    # the other only when a map of GL(3,2) carries the columns across
    maps, reached, groups = gl3_maps(), set(), {}
    for columns in combinations_with_replacement(range(1, 8), n):
        if columns in reached:
            continue
        reached |= {tuple(sorted(m[v] for v in columns)) for m in maps}
        code = from_columns(columns, 3)
        if code.dim == 3:
            key = tuple(sorted(sum(bin(u & v).count("1") % 2 for v in columns)
                               for u in range(1, 8)))
            groups.setdefault(key, []).append(code)
    return [group for group in groups.values() if len(group) > 1]


def equivalence_corpus():
    """(name, a, b, truth) for seeded pairs of codes of one length and
    dimension; truth is True or False when the pair is known to be
    equivalent or not, and None when only the reference decides."""
    rng = random.Random(1981)
    for n in range(1, 17):
        for k in range(n + 1):
            for j in range(6):
                a = random_code(rng, n, k)
                yield f"random [{n},{k}] #{j}", a, shuffled_copy(rng, a), True
                yield (f"random [{n},{k}] #{j} vs another", a,
                       random_code(rng, n, k), None)
    for n in range(2, 17):
        for j in range(16):
            # a few distinct columns, each repeated
            rows = rng.randrange(1, 5)
            columns = [rng.randrange(1, 1 << rows)
                       for _ in range(rng.randrange(1, 5))]
            columns = [rng.choice(columns) for _ in range(n)]
            a = from_columns(columns, rows)
            yield (f"repeated columns [{n}] #{j}", a, shuffled_copy(rng, a),
                   True)
            columns[rng.randrange(n)] = rng.choice(columns)
            b = from_columns(columns, rows)
            if b.dim == a.dim:
                yield (f"repeated columns [{n}] #{j} vs one moved", a,
                       shuffled_copy(rng, b), None)
    for name, code in [(f"de({n})", de(n)) for n in range(1, 9)] + \
            [(f"simplex({r})", simplex(r)) for r in range(1, 5)]:
        yield name, code, shuffled_copy(rng, code), True
        yield name + " vs random", code, random_code(
            rng, code.length, code.dim), None
    for n in range(1, 13):
        classes = enumerate_codes(n, "div4", 0, n)
        for a in classes:
            yield f"div4 {a}", a, shuffled_copy(rng, a), True
            for b in classes:
                if b != a and b.dim == a.dim:
                    yield f"div4 {a} vs {b}", a, shuffled_copy(rng, b), False
    for n in range(6, 13):
        for group in weight_enumerator_twins(n):
            for a in group:
                yield f"twins [{n},3] {a}", a, shuffled_copy(rng, a), True
                for b in group:
                    if b != a:
                        assert weight_enumerator(a) == weight_enumerator(b)
                        yield (f"twins [{n},3] {a} vs {b}", a,
                               shuffled_copy(rng, b), False)


def test_equivalent_matches_two_searches():
    # b's search stops at a's form, and must give what two full searches
    # give: the same witness, or None
    kinds = Counter()
    for name, a, b, truth in equivalence_corpus():
        got = equivalent(a, b)
        assert got == two_search_reference(a, b), name
        if got is not None:
            assert permute(a, got) == b, name
        if truth is not None:
            assert (got is not None) == truth, name
        kinds[got is None, 2 * a.dim > a.length] += 1
    # both answers, on both sides of the dual switch
    assert min(kinds.values()) >= 50 and len(kinds) == 4, kinds
    assert sum(kinds.values()) >= 2500, kinds


def fewest_nodes(monkeypatch, code):
    # the smallest budget under which the full search of code passes,
    # found by doubling and then bisection (2 dim <= length, so the
    # uncached search runs in full and reads no cache)
    assert 2 * code.dim <= code.length

    def passes(budget):
        monkeypatch.setattr(gf2, "_SEARCH_NODE_BUDGET", budget)
        try:
            gf2._canonical_search.__wrapped__(code)
        except gf2.SearchBudgetError:
            return False
        return True

    high = 1
    while not passes(high):
        high *= 2
    low = high // 2
    while high - low > 1:
        mid = (low + high) // 2
        if passes(mid):
            high = mid
        else:
            low = mid
    return high


def node_cases():
    rng = random.Random(2014)
    codes = {name: HIGH_SYMMETRY[name]
             for name in ("doubly even [14,6]", "de(8)")}
    for n, k in [(10, 4), (12, 6), (13, 5), (14, 7), (16, 6), (16, 8)]:
        codes[f"random [{n},{k}]"] = random_code(rng, n, k)
    for name, a in codes.items():
        # past the witness, the full search of a high-symmetry code walks
        # the leaves that give its automorphisms (73 and 108 nodes against
        # 15 and 17 for the two above)
        yield pytest.param(a, shuffled_copy(rng, a), name in HIGH_SYMMETRY,
                           id=name + " permuted")
        other = random_doubly_even(rng, a.length, a.dim) \
            if is_doubly_even(a) else random_code(rng, a.length, a.dim)
        yield pytest.param(a, shuffled_copy(rng, other), False,
                           id=name + " vs other")


# nodes of the full searches of each case's a and b; they depend only on
# the depth-first order, the bound, equal columns, orbits and the backjump
NODES = {
    "doubly even [14,6] permuted": (79, 73),
    "doubly even [14,6] vs other": (79, 73),
    "de(8) permuted": (108, 108),
    "de(8) vs other": (108, 109),
    "random [10,4] permuted": (22, 23),
    "random [10,4] vs other": (22, 13),
    "random [12,6] permuted": (28, 28),
    "random [12,6] vs other": (28, 15),
    "random [13,5] permuted": (23, 21),
    "random [13,5] vs other": (23, 14),
    "random [14,7] permuted": (41, 43),
    "random [14,7] vs other": (41, 38),
    "random [16,6] permuted": (17, 17),
    "random [16,6] vs other": (17, 23),
    "random [16,8] permuted": (66, 46),
    "random [16,8] vs other": (66, 41),
}


@pytest.mark.parametrize("a,b,nodes", [
    pytest.param(*case.values[:2], NODES[case.id], id=case.id)
    for case in node_cases()])
def test_full_search_node_counts(monkeypatch, a, b, nodes):
    assert (fewest_nodes(monkeypatch, a), fewest_nodes(monkeypatch, b)) \
        == nodes


@pytest.mark.parametrize("a,b,halved", list(node_cases()))
def test_stopped_search_visits_no_more_nodes(monkeypatch, a, b, halved):
    # with a's form cached, b's stopped search must pass under the fewest
    # nodes b's full search needs, and under half of them where the full
    # search goes on past the witness
    want = two_search_reference(a, b)
    full = gf2._SEARCH_NODE_BUDGET
    budget = fewest_nodes(monkeypatch, b) // (2 if halved else 1)
    gf2._canonical_search.cache_clear()
    monkeypatch.setattr(gf2, "_SEARCH_NODE_BUDGET", full)
    canonical_form(a)
    monkeypatch.setattr(gf2, "_SEARCH_NODE_BUDGET", budget)
    try:
        assert equivalent(a, b) == want
    finally:
        gf2._canonical_search.cache_clear()


def test_repeated_equivalence_runs_no_search(monkeypatch):
    # each answer is cached per (b, form of a); a repeat searches nothing,
    # on either side of the dual switch
    rng = random.Random(1998)
    pairs = []
    for n, k in [(14, 6), (14, 9)]:
        a = random_code(rng, n, k)
        pairs += [(a, shuffled_copy(rng, a)), (a, random_code(rng, n, k))]
    first = [equivalent(a, b) for a, b in pairs]
    assert first[0] is not None and first[1] is None
    assert first[2] is not None and first[3] is None

    def no_search(*args):
        raise AssertionError("search run")

    monkeypatch.setattr(gf2, "_search", no_search)
    assert [equivalent(a, b) for a, b in pairs] == first


@pytest.mark.parametrize("a", [
    pytest.param(HIGH_SYMMETRY["doubly even [14,6]"], id="doubly even [14,6]"),
    pytest.param(gf2._dual(de(6)), id="dual of de(6)"),
])
def test_stopped_entry_keeps_no_generators(monkeypatch, a):
    # equivalent reads only the leaf a stopped search ends at, so its entry
    # holds no generators, and a search leaves one entry even when it runs
    # on the duals; b's canonical form still comes from a full search of
    # its own
    b = shuffled_copy(random.Random(1981), a)
    gf2._canonical_search.cache_clear()
    try:
        form = canonical_form(a)[0]
        assert equivalent(a, b) is not None
        assert gf2._canonical_search.cache_info().currsize == 2
        searched = []
        search = gf2._search

        def counting(*args):
            searched.append(args)
            return search(*args)

        monkeypatch.setattr(gf2, "_search", counting)
        assert gf2._canonical_search(b, form)[2] == ()
        assert searched == []
        assert canonical_form(b)[0] == form
        assert [stop for _, stop in searched] == [None]
        assert gf2._canonical_search(b)[2]
    finally:
        gf2._canonical_search.cache_clear()


def lifted_generators(length, kept, sub_generators):
    # Aut(support), acting through kept and fixing the zero coordinates,
    # and the transpositions of neighbouring zero coordinates
    lifted = set()
    for sub_aut in sub_generators:
        aut = list(range(length))
        for c, image in zip(kept, sub_aut):
            aut[c] = kept[image]
        lifted.add(tuple(aut))
    zeros = [c for c in range(length) if c not in kept]
    for c, d in zip(zeros, zeros[1:]):
        aut = list(range(length))
        aut[c], aut[d] = d, c
        lifted.add(tuple(aut))
    return lifted


def test_support_search_is_the_padded_search(monkeypatch):
    # enumeration searches a child as its support: the search of a code
    # whose support has 2 dim <= its length takes the zero coordinates
    # first, one node each, and then walks its support's search, so its
    # form is the support's behind the zero columns, its witness the
    # support's shifted past them, its generators the support's, lifted,
    # and the transpositions of neighbouring zero coordinates, which the
    # orbit walk folds into its coset names, and its fewest passing
    # budget the support's plus one node per zero coordinate
    rng = random.Random(1982)
    full = gf2._SEARCH_NODE_BUDGET
    padded = 0
    for _ in range(800):
        n = rng.randint(2, 16)
        code = random_supported_code(rng, n, max_dim=min(8, n // 2))
        support, kept = reduce(code)
        z = n - support.length
        if not z or 2 * code.dim > support.length:
            continue
        padded += 1
        form, witness, generators = gf2._search(code)
        sub_form, sub_witness, sub_generators = gf2._search(support)
        assert form.generators == tuple(g << z for g in sub_form.generators)
        zeros = [c for c in range(n) if c not in kept]
        assert [witness[c] for c in zeros] == list(range(z))
        assert [witness[c] for c in kept] == [z + w for w in sub_witness]
        assert lifted_generators(n, kept, sub_generators) == set(generators)
        assert fewest_nodes(monkeypatch, code) == \
            z + fewest_nodes(monkeypatch, support)
        monkeypatch.setattr(gf2, "_SEARCH_NODE_BUDGET", full)
    assert padded >= 300


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
    # the length and dimension of de(3), but each class of equal columns
    # has three coordinates, which do not pair up
    c = make_code(["111000", "000111"], 6)
    assert recognize_de(c) is None
    assert equivalent(c, de(3)) is None


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


ENUMERATE_GOLDEN = Path(__file__).resolve().parent / "golden" / \
    "enumerate_codes.json"


def enumeration_record():
    # generator matrices of every class for length <= 15 under the
    # profile-refined canonical form, per weight rule and length
    return {
        f"{w}/{length}": [
            list(c.generators) for c in enumerate_codes(length, w, 0, length)
        ]
        for w in ("4", "div4")
        for length in range(1, 16)
    }


def test_enumerate_matches_golden():
    # the canonical matrix is part of the output, so it must never drift;
    # rewrite the golden with ``python tests/test_gf2.py`` and read the
    # diff before committing
    assert enumeration_record() == json.loads(ENUMERATE_GOLDEN.read_text())


def counted_searches(monkeypatch):
    # a cold enumeration's canonical searches, as a list that grows with
    # each search the cache does not answer
    gf2._canonical_search.cache_clear()
    search, searched = gf2._search, []

    def counting(*args):
        searched.append(args)
        return search(*args)

    monkeypatch.setattr(gf2, "_search", counting)
    return searched


def test_enumerate_length_13_within_budget(monkeypatch):
    # the paper's range ends at k = 13; canonicalizing every admissible
    # child took about 2 s on a 2-vCPU Xeon VM, one search per orbit about
    # 0.25 s, and one per child that keeps its base about 0.02 s: one
    # search per class.  The searches are counted, so one more repeated
    # search shows
    searched = counted_searches(monkeypatch)
    with within(1.0):
        classes = enumerate_codes(13, "div4", 1, 13)
    assert len(classes) == 28
    assert max(c.dim for c in classes) == 5
    assert len(searched) == 28


def test_enumerate_length_16_reach(monkeypatch):
    # a cold length-16 "div4" enumeration, after a shallow one whose
    # searches it reuses, ends with both doubly even self-dual classes of
    # length 16, e8 + e8 and d16+ (Pless and Sloane, 1975); about 0.3 s on
    # a 2-vCPU Xeon VM, in a counted number of searches
    searched = counted_searches(monkeypatch)
    with within(60):
        shallow = enumerate_codes(16, "div4", 1, 4)
        classes = enumerate_codes(16, "div4", 1, 16)
    assert len(searched) == 145
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


def test_enumerate_length_18_reach(monkeypatch):
    # a cold length-18 "div4" enumeration searches about one child per
    # class: 1,885 searches took 4-6 s on a 2-vCPU Xeon VM before a child
    # had to keep its base, and 341 take 1.4-1.7 s
    searched = counted_searches(monkeypatch)
    with within(10):
        classes = enumerate_codes(18, "div4", 1, 18)
    assert len(classes) == 340
    assert dict(Counter(c.dim for c in classes)) == {
        1: 4, 2: 13, 3: 34, 4: 72, 5: 94, 6: 79, 7: 35, 8: 9}
    assert len(searched) < 400


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
    # enumerate each length, recording each base, the code that first
    # reached its class, with the cosets it is extended with, and yield it
    # with the generators of its own search, which does not go through its
    # support
    extend = gf2._extensions
    given = {}

    def recording(base, cosets, found):
        given[base] = list(cosets)
        extend(base, cosets, found)

    monkeypatch.setattr(gf2, "_extensions", recording)
    for length in lengths:
        given.clear()
        classes = enumerate_codes(length, weights, 0, length)
        forms = [canonical_form(base)[0] for base in given]
        assert sorted(forms, key=lambda c: (c.dim, c.generators)) == \
            classes, length
        yield length, [(base, gf2._canonical_search(base)[2], cosets)
                       for base, cosets in given.items()]


@pytest.mark.parametrize("weights", ["4", "div4"])
def test_enumeration_carries_each_class_automorphisms(monkeypatch, weights):
    # a class is extended as the code that first reached it, and its walk
    # takes Aut of that code as its support's group, lifted, and the
    # permutations of its zero coordinates: they must generate its whole
    # automorphism group, or orbits of cosets are split wrongly
    for length, records in recorded_extensions(monkeypatch, weights,
                                               range(1, 10)):
        for cls, generators, _ in records:
            # closing the zero code's group, the whole symmetric group,
            # takes seconds
            if not cls.dim:
                continue
            sub, kept = reduce(cls)
            walked = lifted_generators(length, kept,
                                       gf2._canonical_search(sub)[2])
            # the walk's group lies in Aut and holds the generators of
            # the code's own search, which generate Aut
            for g in walked:
                assert permute(cls, g) == cls, cls
            assert group(length, walked) >= set(generators), cls


@pytest.mark.parametrize("weights", ["4", "div4"])
def test_enumeration_cosets_match_span_test(monkeypatch, weights):
    # each class is extended with the cosets it inherited from its parent;
    # they must be exactly those a test against the whole span of the code
    # it is held as finds
    for _, records in recorded_extensions(monkeypatch, weights,
                                          range(1, 11)):
        for cls, _, cosets in records:
            assert cosets == brute_cosets(cls, weights), cls


@pytest.mark.parametrize("weights", ["4", "div4"])
def test_enumeration_ranges_are_slices_of_the_full_list(monkeypatch,
                                                        weights):
    # every dimension range lists the classes of the full enumeration in
    # that range; a repeated call runs no search, and the caller owns the
    # list it gets
    searched = counted_searches(monkeypatch)
    for length in range(1, 13):
        full = enumerate_codes(length, weights, 0, length)
        for lo, hi in combinations_with_replacement(range(length + 2), 2):
            assert enumerate_codes(length, weights, lo, hi) == \
                [c for c in full if lo <= c.dim <= hi], (length, lo, hi)
        searched.clear()
        again = enumerate_codes(length, weights, 0, length + 1)
        assert again == full, length
        assert searched == [], length
        again.clear()
        assert enumerate_codes(length, weights, 0, length) == full, length


def test_enumeration_remembers_no_class(monkeypatch):
    # the search cache is gf2's only state: with it cleared before each
    # call, a repeated call runs every search of the first again
    searched = counted_searches(monkeypatch)
    counts = []
    for _ in range(2):
        gf2._canonical_search.cache_clear()
        before = len(searched)
        enumerate_codes(13, "div4", 1, 13)
        counts.append(len(searched) - before)
    assert counts == [28, 28]


def test_enumeration_survives_an_interrupted_level(monkeypatch):
    # an alarm or a benchmark cap can stop a level part way through; the
    # next call must then find what a cold one does
    cold = enumerate_codes(12, "div4", 0, 12)
    extend = gf2._extensions
    bases = []

    class Interrupted(Exception):
        pass

    def interrupted(base, cosets, found):
        bases.append(base)
        if sum(b.dim == 3 for b in bases) == 2:
            assert found
            raise Interrupted
        extend(base, cosets, found)

    monkeypatch.setattr(gf2, "_extensions", interrupted)
    with pytest.raises(Interrupted):
        enumerate_codes(12, "div4", 0, 12)
    monkeypatch.setattr(gf2, "_extensions", extend)
    assert enumerate_codes(12, "div4", 0, 12) == cold


def test_enumeration_past_the_length_ends_at_once():
    # a dimension range past the length ends at the first empty level, so
    # it builds the levels a range ending at the length does
    exact = enumerate_codes(7, "4", 1, 7)
    with within(1.0):
        assert enumerate_codes(7, "4", 1, 10**12) == exact
    assert len(exact) == 3


def test_enumerate_dimension_zero_builds_no_cosets(monkeypatch):
    # the zero code's cosets are every admissible word, about 10^9 of
    # them at length 32 under "div4"; dimension 0 alone must not list them
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
    gf2._canonical_search.cache_clear()
    form, search = gf2.canonical_form, gf2._canonical_search
    formed, unformed = set(), []

    def counting_form(code):
        formed.add(code)
        return form(code)

    def counting_search(code):
        # the zero code starts the enumeration
        if code not in formed and code.dim:
            unformed.append(code)
        return search(code)

    monkeypatch.setattr(gf2, "canonical_form", counting_form)
    monkeypatch.setattr(gf2, "_canonical_search", counting_search)
    enumerate_codes(13, "div4", 1, 13)
    assert formed and unformed == []


def test_neighbouring_lengths_share_searches(monkeypatch):
    # a child is searched as its support, so each length reuses the
    # searches of the shorter ones: one process enumerating neighbouring
    # lengths in turn, as the paper's case analysis does, searches each
    # support once.  From a cold cache, each length searched alone runs 7,
    # 7, 10, 12 and 24 searches under "div4" and 3 under "4", one per class
    searched = counted_searches(monkeypatch)
    counts = {}
    for weights, lengths in (("div4", range(8, 13)), ("4", range(7, 13))):
        for length in lengths:
            before = len(searched)
            enumerate_codes(length, weights, 1, length)
            counts[weights, length] = len(searched) - before
    assert counts == {
        ("div4", 8): 7, ("div4", 9): 0, ("div4", 10): 3, ("div4", 11): 2,
        ("div4", 12): 12, ("4", 7): 0, ("4", 8): 0, ("4", 9): 0,
        ("4", 10): 0, ("4", 11): 0, ("4", 12): 0}


def unpacked_orbit_representatives(base, generators, cosets):
    # the smallest coset of each orbit of the group the generators
    # generate, walking every coset of the orbit, each named by the word
    # with the base's pivot bits cleared
    reached, representatives = set(), []
    for x in cosets:
        if x in reached:
            continue
        representatives.append(x)
        reached.add(x)
        stack = [x]
        while stack:
            y = stack.pop()
            for perm in generators:
                w = sum(1 << perm[c] for c in range(base.length) if y >> c & 1)
                for g in base.generators:
                    if w & g & -g:
                        w ^= g
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
    return representatives


def keeps_base(base, x):
    # whether the coset x + base has the least weight distribution, as
    # counts by increasing weight, among the cosets of the hyperplanes of
    # C = base + <x>: a hyperplane is the kernel of a nonzero functional f,
    # here read on the index i of C's words as the parity of i & f
    words = codewords(make_code(base.generators + (x,), base.length))
    span = set(codewords(base))

    def distribution(coset):
        counts = [0] * (base.length + 1)
        for w in coset:
            counts[w.bit_count()] += 1
        return counts

    own = distribution(w for w in words if w not in span)
    return all(own <= distribution(w for i, w in enumerate(words)
                                   if (i & f).bit_count() % 2)
               for f in range(1, len(words)))


def test_keeps_base_matches_brute_force():
    # the transform's packed lanes must order the cosets as their count
    # vectors do, on codes of any weights, not only the enumeration's
    rng = random.Random(1998)
    kept = tried = 0
    for _ in range(400):
        n = rng.randrange(6, 17)
        base = make_code([rng.getrandbits(n) for _ in range(rng.randrange(
            1, 6))], n)
        x = rng.getrandbits(n)
        if not base.dim or contains(base, x):
            continue
        words = codewords(base)
        got = gf2._keeps_base(words, gf2._spectrum(words), x)
        assert got == keeps_base(base, x), (base, x)
        kept += got
        tried += 1
    assert 20 <= kept <= tried - 20


@pytest.mark.parametrize("weights", ["4", "div4"])
def test_packed_orbit_walk_searches_the_unpacked_children(monkeypatch,
                                                          weights):
    # the orbit step names a coset by its support part's orbit and its
    # number of zero bits, and moves support parts only by the generators
    # of its support's group; each base must still canonicalize the
    # supports of the children a walk over every coset of Aut(base), by
    # the generators of the base's own search, does, in order, of those
    # children that keep their base by the weight distributions of their
    # hyperplanes' cosets.  The enumeration's bases have supports 0..m-1,
    # as each representative's zero bits are the lowest zeros, so each
    # padded base is also checked read backwards, its support at the top,
    # where the walk must lift through the support's coordinates
    extend, form = gf2._extensions, gf2.canonical_form
    formed, padded = [], []

    def counting_form(code):
        formed.append(code)
        return form(code)

    def check(base, cosets, found):
        formed.clear()
        extend(base, cosets, found)
        generators = gf2._canonical_search(base)[2]
        assert formed == [
            reduce(make_code(base.generators + (x,), base.length))[0]
            for x in unpacked_orbit_representatives(base, generators,
                                                    cosets)
            if keeps_base(base, x)], base

    def checking(base, cosets, found):
        check(base, cosets, found)
        if base.dim and reduce(base)[0].length < base.length:
            padded.append(base)
            flipped = permute(base, range(base.length - 1, -1, -1))
            check(flipped, brute_cosets(flipped, weights), {})

    monkeypatch.setattr(gf2, "canonical_form", counting_form)
    monkeypatch.setattr(gf2, "_extensions", checking)
    for length in range(1, 11):
        enumerate_codes(length, weights, 0, length)
    assert len(padded) >= 10


@pytest.mark.parametrize("weights", ["4", "div4"])
def test_orbit_names_pick_the_unpacked_representatives(monkeypatch,
                                                       weights):
    # every base names a coset's orbit by its support part's orbit, read
    # off from one word or walked, and its number of zero-coordinate bits,
    # instead of walking the whole coset; the names must pick the cosets
    # that a walk over every coset, by the generators of the base's own
    # search, picks, also where the base has two or more words and zero
    # coordinates
    named = padded = 0
    for _, records in recorded_extensions(monkeypatch, weights,
                                          range(1, 13)):
        for base, generators, cosets in records:
            assert gf2._representatives(base, cosets) == \
                unpacked_orbit_representatives(base, generators,
                                               cosets), base
            named += 1
            padded += base.dim >= 2 and reduce(base)[0].length < base.length
    assert named >= 30 and padded >= 10


@pytest.mark.parametrize("weights", ["4", "div4"])
def test_deletion_loses_no_class(monkeypatch, weights):
    # a child is built only if its base's coset is the least of its
    # hyperplanes' cosets; accepting every child finds the same classes,
    # each length from a cold cache, with no fewer searches
    searched = counted_searches(monkeypatch)
    runs = []
    for keep in (gf2._keeps_base, lambda *args: True):
        monkeypatch.setattr(gf2, "_keeps_base", keep)
        run = {}
        for length in range(1, 15):
            gf2._canonical_search.cache_clear()
            before = len(searched)
            classes = enumerate_codes(length, weights, 0, length)
            run[length] = classes, len(searched) - before
        runs.append(run)
    real, every = runs
    for length in range(1, 15):
        assert real[length][0] == every[length][0], length
        assert real[length][1] <= every[length][1], length
    if weights == "div4":
        assert real[14][1] < every[14][1]


@pytest.mark.parametrize("weights", ["4", "div4"])
def test_orbit_walk_moves_only_support_coordinates(monkeypatch, weights):
    # Sym(zeros) lives only in the count of a coset's zero bits, so the
    # walk's coset maps move support coordinates alone: every word a base
    # hands _coset is one bit of its support.  A walk that also moved zero
    # coordinates would find the same orbits, as the tests above check,
    # yet it would walk each support part once per zero pattern
    extend, coset = gf2._extensions, gf2._coset
    bases, handed = [], []

    def extending(base, cosets, found):
        bases.append(base)
        extend(base, cosets, found)

    def naming(w, pivots):
        handed.append((bases[-1], w))
        return coset(w, pivots)

    monkeypatch.setattr(gf2, "_extensions", extending)
    monkeypatch.setattr(gf2, "_coset", naming)
    for length in range(1, 11):
        enumerate_codes(length, weights, 0, length)
    padded = 0
    for base, w in handed:
        kept = reduce(base)[1]
        assert w.bit_count() == 1 and w.bit_length() - 1 in kept, (base, w)
        padded += len(kept) < base.length
    assert padded >= 10


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
    # int() takes these header fields; a header takes ASCII digits only
    for head in ("1_6 0", "+8 1", "8 -0", "\u0668 0"):
        with pytest.raises(ValueError, match="malformed header line"):
            parse_code(head + "\n")


def test_format_code_matches_layout():
    assert format_code(de(2)) == "4 1\n1111\n"


if __name__ == "__main__":
    # one line per weight rule and length, so a diff names the lengths
    # whose classes changed
    ENUMERATE_GOLDEN.write_text("{\n" + ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(value)}"
        for key, value in enumeration_record().items()) + "\n}\n")
