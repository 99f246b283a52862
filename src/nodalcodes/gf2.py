"""Binary linear codes on up to 32 coordinates, stored as integer bitmasks.

A codeword on ``k`` coordinates is a Python int whose bit ``i`` is the value
at coordinate ``i`` (so coordinate 0 is the *lowest* bit; in the string form
``"0110"`` coordinate 0 is the leftmost character).  A code is held by its
reduced row echelon generator matrix, which is unique per subspace, so two
``BinaryCode`` objects are equal iff they span the same subspace.

The module provides the usual structural toolkit -- weight enumerators,
support reduction, doubled even-weight codes, canonical forms under
coordinate permutation, and isomorph-free exhaustive enumeration of codes
whose nonzero weights are constrained (all equal to 4, or divisible by 4).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import MAX_LENGTH

__all__ = [
    "MAX_LENGTH",
    "BinaryCode",
    "make_code",
    "zero_code",
    "de",
    "simplex",
    "codewords",
    "contains",
    "weight_enumerator",
    "is_even",
    "is_doubly_even",
    "reduce",
    "permute",
    "canonical_form",
    "SearchBudgetError",
    "equivalent",
    "recognize_de",
    "enumerate_codes",
    "word_from_string",
    "word_to_string",
    "parse_code",
    "format_code",
]


def _rref(rows: Iterable[int]) -> Tuple[int, ...]:
    """Reduced row echelon basis (pivots strictly increasing) of a span."""
    pivots: Dict[int, int] = {}
    for w in rows:
        for p, b in pivots.items():
            if w & p:
                w ^= b
        if w:
            p = w & -w
            for q, b in pivots.items():
                if b & p:
                    pivots[q] = b ^ w
            pivots[p] = w
    return tuple(pivots[p] for p in sorted(pivots))


class _BinaryCode(NamedTuple):
    length: int
    generators: Tuple[int, ...]


class BinaryCode(_BinaryCode):
    """A linear code over GF(2), normalised to its RREF generator matrix."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> BinaryCode:
        self = super().__new__(cls, *args, **kwargs)
        if not 0 <= self.length <= MAX_LENGTH:
            raise ValueError(f"length out of range: {self.length}")
        last_pivot = 0
        pivot_mask = 0
        for g in self.generators:
            if not 0 < g < (1 << self.length):
                raise ValueError(f"generator out of range: {g:#x}")
            p = g & -g
            if p <= last_pivot:
                raise ValueError("generator rows are not in echelon order")
            last_pivot = p
            pivot_mask |= p
        for g in self.generators:
            if (g & pivot_mask) != (g & -g):
                raise ValueError("generator matrix is not fully reduced")
        return self

    @property
    def dim(self) -> int:
        return len(self.generators)


def make_code(generators: Sequence[int | str], length: int) -> BinaryCode:
    """Build a code from generator words (ints or '0101'-style strings).

    The words are row reduced, so the result does not depend on the order or
    redundancy of the input.
    """
    if not 0 <= length <= MAX_LENGTH:
        raise ValueError(f"length out of range: {length}")
    rows = []
    for g in generators:
        if isinstance(g, str):
            g = word_from_string(g, length)
        if not 0 <= g < (1 << length):
            raise ValueError(f"word does not fit in length {length}: {g}")
        rows.append(g)
    return BinaryCode(length, _rref(rows))


def zero_code(length: int) -> BinaryCode:
    return BinaryCode(length, ())


def word_from_string(s: str, length: Optional[int] = None) -> int:
    """Parse '0110...' (coordinate 0 leftmost) into a bitmask int."""
    if length is not None and len(s) != length:
        raise ValueError(f"word {s!r} has length {len(s)}, expected {length}")
    # checked first: int(s, 2) also takes signs, "_", spaces, other digits
    bad = s.strip("01")
    if bad:
        raise ValueError(f"invalid character {bad[0]!r} in word {s!r}")
    return int(s[::-1] or "0", 2)


def word_to_string(w: int, length: int) -> str:
    # the 1 above the word keeps its leading zeros; [:0:-1] drops it
    return format((w & ((1 << length) - 1)) | 1 << length, "b")[:0:-1]


def de(n: int) -> BinaryCode:
    """Doubled even-weight code: length 2n, dimension n - 1, weights in 4Z.

    Image of the even-weight code of GF(2)^n under the doubling map sending
    coordinate j to the pair (2j, 2j+1).
    """
    if not 1 <= n <= MAX_LENGTH // 2:
        raise ValueError(f"n out of range: {n}")
    gens = []
    for i in range(n - 1):
        # doubled image of e_i + e_{n-1}, the i-th RREF row of the even code
        gens.append((0b11 << (2 * i)) | (0b11 << (2 * n - 2)))
    return BinaryCode(2 * n, tuple(gens))


def simplex(r: int) -> BinaryCode:
    """Simplex code of dimension r: the 2^r - 1 nonzero columns of GF(2)^r.

    Every nonzero word has weight 2^(r-1); for r = 3 this is the [7,3] code
    with all nonzero weights 4.
    """
    if not 1 <= r <= 5:
        raise ValueError(f"r out of range: {r}")
    # column v - 1 is v, whose bit i is row r - 1 - i: reversed, the RREF
    return BinaryCode((1 << r) - 1, _rows(range(1, 1 << r), r)[::-1])


def codewords(code: BinaryCode) -> List[int]:
    """All 2^dim codewords, in a deterministic order."""
    words = [0]
    for g in code.generators:
        words += [w ^ g for w in words]
    return words


def contains(code: BinaryCode, word: int) -> bool:
    for g in code.generators:
        if word & g & -g:
            word ^= g
    return word == 0


def weight_enumerator(code: BinaryCode) -> Dict[int, int]:
    """Map weight -> number of codewords of that weight.

    Above dimension 16 the 2^dim words are not listed: the counts come from
    the dual code, at most 2^15 words at length <= 32, by the MacWilliams
    identity A_i = 2^(dim - n) sum_j B_j K_i(j), where B is the dual's
    weight distribution and K_i(j) = sum_s (-1)^s C(j, s) C(n - j, i - s)
    the Krawtchouk polynomial, all in exact integers.
    """
    counts: Dict[int, int] = {}
    if code.dim > 16:
        n = code.length
        dual = weight_enumerator(_dual(code))
        for i in range(n + 1):
            total = sum(
                b * sum((-1) ** s * comb(j, s) * comb(n - j, i - s)
                        for s in range(min(i, j) + 1))
                for j, b in dual.items()
            )
            if total:
                counts[i] = total >> (n - code.dim)
        return counts
    for w in codewords(code):
        h = w.bit_count()
        counts[h] = counts.get(h, 0) + 1
    return dict(sorted(counts.items()))


def _dual(code: BinaryCode) -> BinaryCode:
    """The dual code, read off the RREF: for each non-pivot coordinate c,
    e_c plus the pivots of the rows that have c set."""
    pivots = sum(g & -g for g in code.generators)
    rows = []
    for c in range(code.length):
        if not (pivots >> c) & 1:
            h = 1 << c
            for g in code.generators:
                if (g >> c) & 1:
                    h |= g & -g
            rows.append(h)
    return BinaryCode(code.length, _rref(rows))


def is_even(code: BinaryCode) -> bool:
    return all(g.bit_count() % 2 == 0 for g in code.generators)


def is_doubly_even(code: BinaryCode) -> bool:
    """True iff every codeword weight is divisible by 4.

    It suffices that every generator has weight in 4Z and generators pairwise
    meet in an even number of coordinates (weights then stay in 4Z under
    addition, by induction on wt(a+b) = wt(a) + wt(b) - 2|a&b|).
    """
    gens = code.generators
    if any(g.bit_count() % 4 for g in gens):
        return False
    return all(
        (a & b).bit_count() % 2 == 0 for a, b in combinations(gens, 2)
    )


def reduce(code: BinaryCode) -> Tuple[BinaryCode, Tuple[int, ...]]:
    """Delete coordinates where the code vanishes identically.

    Returns the shortened code and the tuple of surviving coordinates (the
    support), in increasing order.
    """
    cols = _columns(code)
    support = tuple(c for c, col in enumerate(cols) if col)
    gens = _rows([cols[c] for c in support], code.dim)
    return BinaryCode(len(support), gens), support


def permute(code: BinaryCode, images: Sequence[int]) -> BinaryCode:
    """Apply a coordinate permutation; images[i] is where coordinate i goes."""
    if sorted(images) != list(range(code.length)):
        raise ValueError("images is not a permutation of the coordinates")
    cols = [0] * code.length
    for c, col in zip(images, _columns(code)):
        cols[c] = col
    return make_code(_rows(cols, code.dim), code.length)


# ---------------------------------------------------------------------------
# Canonical form under coordinate permutation.
#
# The search runs on whichever of C and its dual has the smaller dimension
# (C when 2 dim <= length).  A code with 2 dim > length takes the dual of
# its dual's canonical form, with the same witness and automorphisms: a
# permutation preserves the inner product, so sigma(C)^perp equals
# sigma(C^perp), and Aut(C) = Aut(C^perp) (MacWilliams and Sloane, 1977).
# So below, C has 2 dim <= length, at most 2^16 words.
#
# Each coordinate has a *profile*: the number of words of C of each weight
# whose support contains it.  The canonical representative of the
# permutation orbit of C is, among the permutations that put the
# coordinates in nondecreasing profile order, the one whose RREF generator
# matrix is lexicographically smallest when read column by column (within
# a column, row 0 is the most significant bit).  A permutation carries the
# profiles of C onto those of its image, so it maps the allowed orderings
# of C onto those of the image, and the definition is a canonical form.
# Refining by the profile (Leon, IEEE Trans. IT 28, 1982;
# McKay and Piperno, "Practical graph isomorphism, II", 2014) lets depth d
# branch only over the coordinates whose profile is the d-th smallest, which
# keeps codes with small automorphism groups cheap.
#
# Reading column-major lets the search build the matrix one column at a time:
# after choosing a prefix of columns, the rows created so far are exactly the
# RREF rows of the code projected onto that prefix, so candidate columns can
# be compared and pruned before the permutation is complete.  Each node
# holds C as a column table: a basis of C, the t rows made so far and then
# r - t words that vanish on the prefix (the kernel), and one int per
# coordinate c whose bit r - 1 - j is basis word j at c (the root's basis
# is the RREF, see ``_columns``).  So a candidate column is read in O(1):
# if it has a kernel bit, a word vanishing on the prefix has c set, and c
# opens row t with the column 0..010..0, its 1 in row t; otherwise its
# entries in the rows are the int itself.  Opening a row changes the basis,
# and so every column, once: O(k) per new row.
#
# Codes with large automorphism groups stay cheap because the search prunes
# with the automorphisms it finds (McKay, "Practical graph isomorphism", 1981;
# Leon 1982).  A leaf that reproduces the best matrix found so far yields one:
# its column order sent onto the best leaf's.  At every node, a candidate
# column is skipped when it lies in the orbit of an already explored sibling
# under the automorphisms found so far that fix the node's prefix pointwise;
# the subtrees of orbit-mates are images of each other, so they reach the
# same matrices.  Automorphisms preserve profiles, so every one of them maps
# an allowed ordering onto an allowed ordering.  Each node keeps the orbits
# of its prefix's pointwise stabilizer as one union-find, and merges in only
# the automorphisms found since it last looked, not all of them again
# (McKay and Piperno 2014 keep orbits the same way).
#
# An automorphism leaf also ends the walk below the depth L where its path
# first leaves the best leaf's (McKay 1981 jumps back the same way).  Let
# the two paths share the prefix P and take columns c (best) and c' at
# depth L.  The search is depth-first and c came first, so the subtree of
# P + c is finished; the automorphism fixes P pointwise and maps P + c'
# onto P + c, up to transpositions of equal columns.  So no leaf below
# P + c' beats the best leaf, and the canonical matrix and its witness, the
# first leaf to reach it, do not change; and every leaf skipped is the
# image under a recorded generator of a leaf explored, so the generators
# still generate Aut(C).  So every node deeper than L returns as soon as
# its child does; the node at depth L merges the new automorphism into its
# orbits, which then join c' to c, and goes on with its next candidate.
#
# The witness is the first leaf, in depth-first order, to reach the
# canonical matrix, and nothing prunes it: the bound cuts only subtrees
# above the best matrix so far, and equal columns, orbits and the backjump
# only images of subtrees explored earlier.  So ``equivalent`` stops b's
# search at its first new best at or below a's matrix (the duals' when
# 2 dim > length), unwinding as a backjump to depth -1: up to there it is
# the full search, so that leaf is b's own witness if it reaches a's
# matrix, and otherwise b's form lies below a's.  A stopped search need not
# find all of Aut(b) or b's form, so its entry in the search cache is keyed
# by (b, form of a), apart from b's full search.
#
# The search also returns generators of Aut(C), and the results are cached,
# so enumeration reads the automorphisms of each class it has canonicalized
# instead of searching the class again (see ``_representatives``).
#
# Zero coordinates cost nothing.  A zero coordinate has the all-zero
# profile, the smallest, and the zero columns are equal, so the search of a
# code with z zero coordinates takes them first, in index order, one node
# each, and then walks the search of its support: the same candidates in
# the same order, under the support's names.  So when the support has
# 2 dim <= its length, the code's canonical form is its support's behind z
# zero columns, and its automorphisms are the support's, fixing the zero
# coordinates, and the permutations of the zero coordinates.  Enumeration
# searches each child as its support, so children of other lengths with
# that support read one cache entry (see ``_extensions``), and names the
# orbit of a base's coset by its support part's orbit under the support's
# group and its number of zero-coordinate bits (see ``_representatives``).
# ---------------------------------------------------------------------------


def canonical_form(code: BinaryCode) -> Tuple[BinaryCode, Tuple[int, ...]]:
    """Canonical representative of the permutation orbit, with a witness.

    ``canon`` has the lexicographically smallest column-major RREF matrix
    among the images of ``code`` whose coordinates are in nondecreasing
    profile order, or is the dual of its dual's canonical form when
    2 dim > length (see the comment above).
    Returns ``(canon, images)`` where ``permute(code, images) == canon``.
    The witness is the first permutation the search finds that realises the
    canonical matrix.  The search depends only on the RREF generator matrix,
    so equal codes always yield identical witnesses.
    """
    canon, images, _ = _canonical_search(code)
    return canon, images


# Generators of a code's automorphism group, as tuples of images.
Generators = Tuple[Tuple[int, ...], ...]

# Far above one process's traffic: a perfbench enumerate pass holds 53
# entries, an equiv pass 184, 92 of them from stopped searches.  It must
# also exceed the searches of one enumeration, because each base reads its
# automorphisms back from the entry its support's search left, and an
# evicted entry is searched again: a cold "div4" enumeration runs 145 at
# length 16, 341 at 18 and 540 at 19, the longest that finishes, and
# 1,227 at 20 before its budget error.
_SEARCH_CACHE_SIZE = 4096

# Nodes one canonical search may visit: over 80 times the most any search
# of a cold length-17 "div4" enumeration visits (2,610), and 7 times the
# most at lengths 18 and 19 (30,423).  Codes whose coordinates one round of
# refinement cannot split, such as those of Latin square graphs of order 5,
# pass it in 2-3 s instead of running on.
_SEARCH_NODE_BUDGET = 220_000


class SearchBudgetError(ValueError):
    """A canonical search visited more nodes than its budget allows."""


@lru_cache(maxsize=_SEARCH_CACHE_SIZE)
def _canonical_search(
    code: BinaryCode, stop: Optional[BinaryCode] = None,
) -> Tuple[BinaryCode, Tuple[int, ...], Generators]:
    """The search behind ``canonical_form``; also returns generators of
    Aut(code), as tuples of images.

    They are the automorphisms the search recorded and the transpositions
    of equal columns, which it never explores: every leaf reaching the
    canonical matrix is either visited, and so recorded, or pruned as the
    image of an explored subtree under those permutations.  Raises
    ``SearchBudgetError``, which is not cached, past
    ``_SEARCH_NODE_BUDGET`` nodes; results do not depend on the budget.

    With ``stop``, the search ends at its first best leaf at or below
    stop's matrix; the entry holds that leaf and no generators, and only
    ``equivalent`` reads it.  Call a full search with ``code`` alone: the
    cache keys ``f(x)`` and ``f(x, None)`` apart.  One search leaves one
    entry, also when it runs on the duals.
    """
    if 2 * code.dim > code.length:
        canon, images, auts = _search(
            _dual(code), None if stop is None else _dual(stop))
        return _dual(canon), images, auts
    return _search(code, stop)


def _columns(code: BinaryCode) -> List[int]:
    """Column c of the generator matrix as a dim-bit int, row i at bit
    dim - 1 - i: the column-major reading of the canonical form.  ``_rows``
    is its inverse."""
    cols = [0] * code.length
    row = 1 << code.dim
    for g in code.generators:
        row >>= 1
        while g:
            bit = g & -g
            cols[bit.bit_length() - 1] |= row
            g ^= bit
    return cols


def _rows(cols: Iterable[int], dim: int) -> Tuple[int, ...]:
    """The generator rows of a table of dim-bit columns, row i read from
    bit dim - 1 - i: the inverse of ``_columns``."""
    rows = [0] * dim
    for c, col in enumerate(cols):
        while col:
            bit = col & -col
            rows[dim - bit.bit_length()] |= 1 << c
            col ^= bit
    return tuple(rows)


def _search(code: BinaryCode, stop: Optional[BinaryCode] = None
            ) -> Tuple[BinaryCode, Tuple[int, ...], Generators]:
    """The canonical search of a code with 2 dim <= length; with ``stop``,
    it ends at, and returns, the first best leaf at or below stop's, and
    no generators."""
    k, r = code.length, code.dim
    table = _columns(code)
    # Equal columns agree on every codeword, so at any search node only
    # the smallest unused column of each class need be tried: ``firsts``
    # marks the smallest of each class, and taking column c hands the mark
    # on to the next column of its class, ``after[c]``.
    swaps: List[Tuple[int, ...]] = []
    after = [0] * k
    last: Dict[int, int] = {}
    firsts = 0
    for c, col in enumerate(table):
        if col in last:
            swap = list(range(k))
            swap[c], swap[last[col]] = last[col], c
            swaps.append(tuple(swap))
            after[last[col]] = 1 << c
        else:
            firsts |= 1 << c
        last[col] = c

    # depth d may take only a column whose profile is the d-th smallest
    profile = _profiles(code)
    cells: Dict[Tuple[int, ...], int] = {}
    for c, p in enumerate(profile):
        cells[p] = cells.get(p, 0) | (1 << c)
    allowed = [cells[p] for p in sorted(profile)]

    target = None if stop is None else _columns(stop)
    best_cols: Optional[List[int]] = None
    best_chosen: Optional[List[int]] = None
    nodes = 0
    # automorphisms found so far, as image lists (auts[j][c] is where c
    # goes), each with the mask of the points it fixes
    auts: List[Tuple[List[int], int]] = []
    generation = 0
    # after an automorphism leaf, the depth the search jumps back to
    jump = k

    # the column vectors read and the coordinates taken on the current path
    vals: List[int] = []
    chosen: List[int] = []

    def descend(depth: int, used: int, reps: int, cols: List[int],
                kmask: int, on_path: bool) -> None:
        nonlocal best_cols, best_chosen, generation, jump, nodes
        nodes += 1
        if nodes > _SEARCH_NODE_BUDGET:
            raise SearchBudgetError(
                f"canonical search of a [{k},{r}] code stopped at {nodes} "
                f"nodes, over its budget of {_SEARCH_NODE_BUDGET}")
        if depth == k:
            if not on_path:
                best_cols = list(vals)
                best_chosen = list(chosen)
                generation += 1
                if target is not None and best_cols <= target:
                    jump = -1  # every node returns
            else:
                # this leaf reproduces the best matrix, so sending its
                # column order onto the best one is an automorphism
                aut, fixed = [0] * k, 0
                for d, (c, b) in enumerate(zip(chosen, best_chosen)):
                    aut[c] = b
                    if c == b:
                        fixed |= 1 << c
                    elif d < jump:
                        jump = d
                auts.append((aut, fixed))
            return

        # a column with a kernel bit opens the next row, at the pivot bit
        pivot = (kmask + 1) >> 1
        cands = []
        free = allowed[depth] & reps
        while free:
            bit = free & -free
            free ^= bit
            c = bit.bit_length() - 1
            vec = cols[c]
            cands.append((pivot if vec & kmask else vec, c))
        cands.sort()

        local_on_path = on_path
        explored: List[int] = []
        # union-find of the orbits of the automorphisms fixing the prefix
        # pointwise, extended by each one found since it was last looked at
        parent: List[int] = []
        n_auts = 0
        for vec, c in cands:
            if best_cols is not None and local_on_path:
                if vec > best_cols[depth]:
                    break
                tie = vec == best_cols[depth]
            else:
                tie = False
            # the subtrees of two columns in one orbit of the automorphisms
            # fixing the prefix are images of each other, so they reach the
            # same matrices; one of them is enough
            if explored and len(auts) != n_auts:
                if not parent:
                    parent = list(range(k))
                for a, fixed in auts[n_auts:]:
                    if used & ~fixed == 0:
                        for x, y in enumerate(a):
                            if x != y:
                                parent[_find(parent, x)] = _find(parent, y)
                n_auts = len(auts)
            if parent:
                root = _find(parent, c)
                if any(_find(parent, e) == root for e in explored):
                    continue
            new_cols, new_kmask = cols, kmask
            col = cols[c]
            if col & kmask:
                # c opens the next row: the word at the pivot bit, plus the
                # one at c's lowest kernel bit when c lacks the pivot bit,
                # which is then added to every other word with c set.  So
                # each column changes by a word that its entries at those
                # two bits decide.
                if col & pivot:
                    two, delta = pivot, {0: 0, pivot: col ^ pivot}
                else:
                    low = col & -col
                    two = low | pivot
                    delta = {0: 0, low: col ^ pivot, pivot: col, two: pivot}
                new_cols = [x ^ delta[x & two] for x in cols]
                new_kmask = kmask >> 1
            vals.append(vec)
            chosen.append(c)
            g0 = generation
            descend(depth + 1, used | (1 << c), reps ^ (1 << c) | after[c],
                    new_cols, new_kmask, tie)
            vals.pop()
            chosen.pop()
            if jump < depth:
                return
            jump = k
            explored.append(c)
            if generation != g0:
                local_on_path = True

    descend(0, 0, firsts, table, (1 << r) - 1, False)
    assert best_cols is not None and best_chosen is not None

    images = [0] * k
    for pos, c in enumerate(best_chosen):
        images[c] = pos
    generators = () if stop is not None else \
        tuple(tuple(a) for a, _ in auts) + tuple(swaps)
    return BinaryCode(k, _rows(best_cols, r)), tuple(images), generators


def _find(parent: List[int], x: int) -> int:
    """Root of x in a union-find forest, halving its path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _profiles(code: BinaryCode) -> List[Tuple[int, ...]]:
    """Each coordinate's profile: entry h counts the words of weight h whose
    support contains it.

    The words are counted a bit plane at a time: column c is held as one
    int whose bit i says whether word i of ``codewords`` contains c, and
    adding the columns gives the binary digits of every word's weight.
    """
    k = code.length
    cols, n = [0] * k, 1
    for g in code.generators:
        # words n..2n-1 are words 0..n-1 plus g
        flip = (1 << n) - 1
        cols = [x | ((x ^ flip if (g >> c) & 1 else x) << n)
                for c, x in enumerate(cols)]
        n *= 2
    digits: List[int] = []
    for x in cols:
        for i, d in enumerate(digits):
            digits[i], x = d ^ x, d & x
        if x:
            digits.append(x)
    counts = [[0] * (k + 1) for _ in range(k)]
    for h in range(1, min(k + 1, 1 << len(digits))):
        weight_h = (1 << n) - 1
        for i, d in enumerate(digits):
            weight_h &= d if (h >> i) & 1 else ~d
        if weight_h:
            for c in range(k):
                counts[c][h] = (cols[c] & weight_h).bit_count()
    return [tuple(p) for p in counts]


def equivalent(a: BinaryCode, b: BinaryCode) -> Optional[Tuple[int, ...]]:
    """A permutation carrying a onto b, or None if none exists.

    The returned tuple ``images`` satisfies ``permute(a, images) == b``.
    Only a is searched in full: b's search stops at its first best leaf
    at or below a's form, and is cached per (b, form of a).
    """
    if a.length != b.length or a.dim != b.dim:
        return None
    ca, imgs_a = canonical_form(a)
    cb, imgs_b, _ = _canonical_search(b, ca)
    if cb != ca:
        return None
    inv_b = [0] * b.length
    for i, p in enumerate(imgs_b):
        inv_b[p] = i
    return tuple(inv_b[imgs_a[i]] for i in range(a.length))


def recognize_de(code: BinaryCode) -> Optional[int]:
    """The n for which the code, up to zero coordinates and permutation, is
    the doubled even-weight code de(n); None if there is no such n.

    After support reduction the candidate must consist of n coordinate pairs
    with equal generator-matrix columns, have dimension n - 1, and induce the
    full even-weight code on the n pairs.  The zero code matches de(1).
    """
    if code.dim == 0:
        return 1
    # the support's columns; reduction keeps the dimension
    cols = [col for col in _columns(code) if col]
    m = len(cols)
    if m % 2 or code.dim != m // 2 - 1:
        return None
    sizes: Dict[int, int] = {}
    for col in cols:
        sizes[col] = sizes.get(col, 0) + 1
    # coordinates pair up only within a class of equal columns, so every
    # class must have even size; a class of size 2s carries s pairs
    if any(size % 2 for size in sizes.values()):
        return None
    # codewords are constant on pairs, hence are doublings of the induced
    # length-n words; the induced code then has dimension n - 1, and it is
    # the even-weight code iff every induced generator has even weight:
    # iff the columns of the classes carrying an odd number of pairs add
    # up to zero
    odd = 0
    for col, size in sizes.items():
        if size // 2 % 2:
            odd ^= col
    return None if odd else m // 2


def _weight_rule(length: int, weights: str, dim_min: int, dim_max: int):
    """Check the arguments of ``enumerate_codes``; return its weight test."""
    if not 1 <= length <= MAX_LENGTH:
        raise ValueError(f"length out of range: {length}")
    if not 0 <= dim_min <= dim_max:
        raise ValueError(f"invalid dimension range: [{dim_min}, {dim_max}]")
    if weights == "4":
        return lambda h: h == 4
    if weights == "div4":
        return lambda h: h > 0 and h % 4 == 0
    raise ValueError(f"unknown weight rule: {weights!r} (use '4' or 'div4')")


# Admissible cosets of a class: words w outside it such that every word of
# w + class passes the weight rule, each named by w with the class's pivot
# bits cleared, in increasing order.
Cosets = Tuple[int, ...]

# A class as the first code of it the enumeration reached, not its canonical
# form, with its admissible cosets.
Record = Tuple[BinaryCode, Cosets]


def enumerate_codes(
    length: int,
    weights: str,
    dim_min: int,
    dim_max: int,
) -> List[BinaryCode]:
    """All codes of the given length with constrained nonzero weights, one
    per permutation class, for each dimension in [dim_min, dim_max].

    ``weights`` is "4" (every nonzero weight exactly 4) or "div4" (every
    nonzero weight divisible by 4).  Codes are returned in canonical form,
    sorted by (dimension, generator matrix).  Every class of dimension
    d + 1 is a class of dimension d plus one word, and a base is extended
    by one word per orbit of its automorphism group, into only the
    children whose least hyperplane, by the weight distribution of its
    coset, is the base (see ``_extensions``), so about one child per class
    is searched.
    A class is extended as the first code that reached it, with its
    admissible cosets, inherited from its base, so only the zero code reads
    the words of admissible weight.  A child is searched as its support,
    so a call reuses the searches of the calls at shorter lengths before
    it; as a base, its automorphisms are those of its support, read back
    from that search's cache entry, and the permutations of its zero
    coordinates, so no base is searched again, and the orbit of a coset
    is named by its support part's orbit and its number of zero bits.
    A repeated call builds its levels again, and the search cache answers
    every one of its searches.  Measured reach of "div4" from a cold
    search cache on a 2-vCPU Xeon VM (Python 3.11): about 0.01 s at
    length 13, 0.02 s at 14, 0.04 s at 15, 0.15 s at 16, where both
    doubly even self-dual classes (e8 + e8 and d16+) appear, 0.22-0.23 s
    at 17, 0.87-0.91 s at 18, with 341 searches, and 1.5-1.6 s at 19,
    with 532 classes and 540 searches.
    At 20 a search of a [20,8] code passes ``_SEARCH_NODE_BUDGET`` and the
    call ends in ``SearchBudgetError``.
    """
    ok = _weight_rule(length, weights, dim_min, dim_max)
    out = [zero_code(length)] if dim_min == 0 else []
    if dim_max < 1:
        return out
    # the zero code's cosets are the admissible words
    pool = tuple(sorted(
        sum(supp)
        for h in range(4, length + 1, 4)
        if ok(h)
        for supp in combinations([1 << i for i in range(length)], h)
    ))
    frontier = [(zero_code(length), pool)]
    for dim in range(1, dim_max + 1):
        found: Dict[BinaryCode, Record] = {}
        for base, cosets in frontier:
            _extensions(base, cosets, found)
        if not found:
            break
        level = sorted(found, key=lambda c: c.generators)
        if dim >= dim_min:
            out.extend(level)
        frontier = [found[canon] for canon in level]
    return out


def _extensions(
    base: BinaryCode,
    cosets: Cosets,
    found: Dict[BinaryCode, Record],
) -> None:
    """Add to ``found``, keyed by canonical form, the codes spanned by
    ``base`` and one of its admissible ``cosets`` whose class it does not
    hold yet, each with its own admissible cosets.

    An automorphism σ of the base maps base + w onto base + σ(w), so one
    coset per orbit of Aut(base) needs a canonical search (McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26, 1998; see
    ``_representatives``).  Of those children, one is built and searched
    only if the base's coset is the least, by weight distribution, of the
    cosets of its hyperplanes (``_keeps_base``; canonical deletion by an
    invariant, McKay 1998 and Kaski and Östergård, "Classification
    Algorithms for Codes and Designs", 2006).  Ties pass, so a child
    whose cosets share one distribution, as every child of the zero code
    and every "4" child, is kept.  Every class is still reached: the
    class of its least hyperplane is a base, and the test is constant on
    that base's orbits.  A class whose least cosets are not
    all in one orbit of its group is reached more than once, and a class
    already in ``found`` is skipped.  A coset z is admissible for the
    child base + <x> iff z and z + x are both admissible for the base, and
    the two name the same coset of the child.  The child is held as it
    is, not as its canonical form: as its rows are the base's plus x, the
    pair is named by whichever of z and z + x lacks x's lowest bit.
    """
    if not cosets:
        return
    k, gens = base.length, base.generators
    admissible = set(cosets)
    words = codewords(base)
    spectrum = _spectrum(words)
    for x in _representatives(base, cosets):
        if not _keeps_base(words, spectrum, x):
            continue
        # the child is doubly even, so its support has 2 dim <= its length,
        # and the child is searched as its support (see the search
        # comment), which children of other lengths share, through the
        # module attribute, where a tracer can count it
        child = BinaryCode(k, _rref(gens + (x,)))
        sub = reduce(child)[0]
        canon = BinaryCode(k, tuple(g << (k - sub.length) for g in
                                    canonical_form(sub)[0].generators))
        if canon in found:
            continue
        # x avoids the base's pivots, so the child's rows are the base's
        # plus x at pivot p, and a coset is named again by clearing bit p
        p = x & -x
        carried = tuple(sorted(z ^ x if z & p else z for z in cosets
                               if z < z ^ x and z ^ x in admissible))
        found[canon] = child, carried


def _representatives(base: BinaryCode, cosets: Cosets) -> List[int]:
    """The smallest admissible coset of each orbit of Aut(base), in
    increasing order.

    Aut(base) is Aut(support) x Sym(zeros), Sym(zeros) the permutations
    of the zero coordinates (see the search comment), and a coset's name
    avoids the pivot bits, which lie in the support.  So a coset's orbit
    is named by the Aut(support) orbit of its support part and the
    number of its zero-coordinate bits.  A base with at most one
    generator x, of weight h (x = 0 for the zero code), has
    Aut(support) = Sym(supp x), so a part of a bits is named by
    a(h - a), which names min(a, h - a).  A larger base walks each part's
    orbit once, by generators of Aut(support) read from the cache entry
    of the support's search, which the base's class left when it was
    found, so no base is searched again.
    """
    dim = base.dim
    support = 0
    for g in base.generators:
        support |= g
    h = support.bit_count()
    if dim > 1:
        pivots = [(g & -g, g) for g in base.generators]
        sub, kept = reduce(base)
        # a generator of Aut(support) acts on the base through ``kept``;
        # its coset map is linear and the cosets' words avoid the pivot
        # columns, so only the moved coordinates change a word; each
        # support coordinate's coset is named once, for them all
        named = {c: _coset(1 << c, pivots) for c in kept}
        maps = [
            [(1 << c, (1 << c) ^ named[kept[image]])
             for c, image in zip(kept, perm) if kept[image] != c]
            for perm in _canonical_search(sub)[2]
        ]
        # each support part reached, with the part its walk started from
        orbit: Dict[int, int] = {}
    firsts: Dict[int, int] = {}
    # in decreasing order, so the smallest coset of a name is kept; the
    # zero bits number fewer than 64
    for z in reversed(cosets):
        part = z & support
        a = part.bit_count()
        if dim <= 1:
            name = a * (h - a)
        elif part in orbit:
            name = orbit[part]
        else:
            name = orbit[part] = part
            stack = [part]
            while stack:
                y = stack.pop()
                for moved in maps:
                    w = y
                    for bit, delta in moved:
                        if y & bit:
                            w ^= delta
                    if w not in orbit:
                        orbit[w] = part
                        stack.append(w)
        firsts[name << 6 | z.bit_count() - a] = z
    return sorted(firsts.values())


def _coset(w: int, pivots: List[Tuple[int, int]]) -> int:
    """The word naming w's coset: w plus the rows, given with their pivot
    bits, whose pivots it has set."""
    for bit, g in pivots:
        if w & bit:
            w ^= g
    return w


def _spectrum(words: List[int], x: int = 0) -> List[int]:
    """The Walsh-Hadamard transform of the weights of the words w_i + x,
    over the index i of ``words``, in lanes of one int: entry g is the
    sum over i of (-1)^|g & i| 2^(width (MAX_LENGTH - |w_i + x|)), so its
    lane MAX_LENGTH - h counts the words of weight h, signed by g.

    A lane of an entry, or of the sum of two, lies within 2 len(words) of
    0, and the lanes are 8 times as wide, so such sums compare as ints as
    their lanes do, lexicographically from the least weight.  The
    transform takes len(words) log2 len(words) additions, and builds no
    table per functional.
    """
    width = len(words).bit_length() + 3
    out = [1 << width * (MAX_LENGTH - (w ^ x).bit_count()) for w in words]
    half = 1
    while half < len(out):
        for i in range(0, len(out), 2 * half):
            for j in range(i, i + half):
                a, b = out[j], out[j + half]
                out[j], out[j + half] = a + b, a - b
        half *= 2
    return out


def _keeps_base(words: List[int], spectrum: List[int], x: int) -> bool:
    """Whether the child C = base + <x> keeps the base as its parent:
    whether the base's coset x + base has the least weight distribution
    of the cosets C \\ H of the hyperplanes H of C, the lesser of two
    being the one with fewer words at the least weight where they differ.

    ``words`` are the base's words and ``spectrum`` their ``_spectrum``.
    H is the kernel of a functional f on C, g on the base's words and e
    on x, and C \\ H holds the words with f = 1, so its count of weight h
    is half of N_h minus lane h of spectrum[g] + (-1)^e coset[g], where
    coset is the ``_spectrum`` of x + base.  So the base's hyperplane,
    g = 0 and e = 1, has the least coset iff no other such sum exceeds
    its own, and spectrum[g] + |coset[g]| is the larger of e = 0 and 1.
    The distributions do not change under coordinate permutations, so
    the test is constant on each orbit of Aut(base).
    """
    coset = _spectrum(words, x)
    own = spectrum[0] - coset[0]
    return all(spectrum[g] + abs(coset[g]) <= own
               for g in range(1, len(words)))


# ---------------------------------------------------------------------------
# Plain-text serialization: first line "length dim", then one generator row
# per line as a 0/1 string with coordinate 0 leftmost.
# ---------------------------------------------------------------------------


def format_code(code: BinaryCode) -> str:
    lines = [f"{code.length} {code.dim}"]
    lines += [word_to_string(g, code.length) for g in code.generators]
    return "\n".join(lines) + "\n"


def parse_code(text: str) -> BinaryCode:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty code file")
    head = lines[0].split()
    # int() also takes signs, "_" and non-ASCII digits
    if not (len(head) == 2 and lines[0].isascii()
            and head[0].isdigit() and head[1].isdigit()):
        raise ValueError(f"malformed header line: {lines[0]!r}")
    length, dim = int(head[0]), int(head[1])
    rows = lines[1:]
    if len(rows) != dim:
        raise ValueError(f"header promises {dim} rows, found {len(rows)}")
    code = make_code(rows, length)
    if code.dim != dim:
        raise ValueError(
            f"rows span dimension {code.dim}, header says {dim}"
        )
    return code
