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

MAX_LENGTH = 32

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


def _lsb(x: int) -> int:
    """Index of the lowest set bit of a nonzero int."""
    return (x & -x).bit_length() - 1


def _rref(rows: Iterable[int]) -> Tuple[int, ...]:
    """Reduced row echelon basis (pivots strictly increasing) of a span."""
    pivots: Dict[int, int] = {}
    for w in rows:
        for p, b in pivots.items():
            if (w >> p) & 1:
                w ^= b
        if w:
            p = _lsb(w)
            for q in list(pivots):
                if (pivots[q] >> p) & 1:
                    pivots[q] ^= w
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
        last_pivot = -1
        pivot_mask = 0
        for g in self.generators:
            if not 0 < g < (1 << self.length):
                raise ValueError(f"generator out of range: {g:#x}")
            p = _lsb(g)
            if p <= last_pivot:
                raise ValueError("generator rows are not in echelon order")
            last_pivot = p
            pivot_mask |= 1 << p
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
    w = 0
    for i, ch in enumerate(s):
        if ch == "1":
            w |= 1 << i
        elif ch != "0":
            raise ValueError(f"invalid character {ch!r} in word {s!r}")
    return w


def word_to_string(w: int, length: int) -> str:
    return "".join("1" if (w >> i) & 1 else "0" for i in range(length))


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
    gens = []
    for i in range(r):
        g = 0
        for v in range(1, 1 << r):
            if (v >> i) & 1:
                g |= 1 << (v - 1)
        gens.append(g)
    return BinaryCode((1 << r) - 1, tuple(gens))


def codewords(code: BinaryCode) -> List[int]:
    """All 2^dim codewords, in a deterministic order."""
    words = [0]
    for g in code.generators:
        words += [w ^ g for w in words]
    return words


def contains(code: BinaryCode, word: int) -> bool:
    for g in code.generators:
        if (word >> _lsb(g)) & 1:
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
    pivots = 0
    for g in code.generators:
        pivots |= g & -g
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
    mask = 0
    for g in code.generators:
        mask |= g
    support = tuple(c for c in range(code.length) if (mask >> c) & 1)
    gens = []
    for g in code.generators:
        w = 0
        for pos, c in enumerate(support):
            if (g >> c) & 1:
                w |= 1 << pos
        gens.append(w)
    return BinaryCode(len(support), tuple(gens)), support


def permute(code: BinaryCode, images: Sequence[int]) -> BinaryCode:
    """Apply a coordinate permutation; images[i] is where coordinate i goes."""
    if sorted(images) != list(range(code.length)):
        raise ValueError("images is not a permutation of the coordinates")
    rows = []
    for g in code.generators:
        w = 0
        for i in range(code.length):
            if (g >> i) & 1:
                w |= 1 << images[i]
        rows.append(w)
    return make_code(rows, code.length)


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
# be compared and pruned before the permutation is complete.
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
# The search also returns generators of Aut(C), and the results are cached,
# so enumeration reads the automorphisms of each class it has canonicalized
# instead of searching the class again (see ``_extensions``).
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

# Far above one process's traffic: a perfbench enumerate pass held 161
# entries, an equiv pass 196, and a cold length-16 "div4" enumeration makes
# about 650 searches.
_SEARCH_CACHE_SIZE = 4096

# Nodes one canonical search may visit: over 20 times the most any search
# of a cold length-17 "div4" enumeration visits (10,784).  Codes whose
# coordinates one round of refinement cannot split, such as those of Latin
# square graphs of order 5, pass it in a few seconds instead of running on.
_SEARCH_NODE_BUDGET = 220_000


class SearchBudgetError(ValueError):
    """A canonical search visited more nodes than its budget allows."""


@lru_cache(maxsize=_SEARCH_CACHE_SIZE)
def _canonical_search(
    code: BinaryCode,
) -> Tuple[BinaryCode, Tuple[int, ...], Generators]:
    """The search behind ``canonical_form``; also returns generators of
    Aut(code), as tuples of images.

    They are the automorphisms the search recorded and the transpositions
    of equal columns, which it never explores: every leaf reaching the
    canonical matrix is either visited, and so recorded, or pruned as the
    image of an explored subtree under those permutations.  Raises
    ``SearchBudgetError`` past ``_SEARCH_NODE_BUDGET`` nodes.
    """
    k, r = code.length, code.dim
    if 2 * r > k:
        canon, images, auts = _canonical_search(_dual(code))
        return _dual(canon), images, auts

    gens = code.generators
    # Class of each column against the fixed RREF basis; columns of one
    # class agree on every codeword, so at any search node only the
    # smallest unused column of each class need be tried.
    classes: Dict[Tuple[int, ...], int] = {}
    cls = []
    swaps: List[Tuple[int, ...]] = []
    last: Dict[int, int] = {}
    for c in range(k):
        j = classes.setdefault(tuple((g >> c) & 1 for g in gens), len(classes))
        cls.append(j)
        if j in last:
            swap = list(range(k))
            swap[c], swap[last[j]] = last[j], c
            swaps.append(tuple(swap))
        last[j] = c
    if r == 0:
        return code, tuple(range(k)), tuple(swaps)

    # depth d may take only a column whose profile is the d-th smallest
    profile = _profiles(code)
    cells: Dict[Tuple[int, ...], int] = {}
    for c, p in enumerate(profile):
        cells[p] = cells.get(p, 0) | (1 << c)
    allowed = [cells[p] for p in sorted(profile)]

    best_cols: Optional[List[int]] = None
    best_chosen: Optional[List[int]] = None
    nodes = 0
    # automorphisms found so far, as image lists (auts[j][c] is where c
    # goes), each with the mask of the points it fixes
    auts: List[Tuple[List[int], int]] = []
    generation = 0
    # after an automorphism leaf, the depth the search jumps back to
    jump = k

    def descend(
        depth: int,
        vals: List[int],
        chosen: List[int],
        used: int,
        rows: List[int],
        kernel: List[int],
        on_path: bool,
    ) -> None:
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

        cands = []
        free = allowed[depth] & ~used
        seen = 0
        while free:
            bit = free & -free
            free ^= bit
            c = bit.bit_length() - 1
            if (seen >> cls[c]) & 1:
                continue
            seen |= 1 << cls[c]
            hit = 0
            for x in kernel:
                if x & bit:
                    hit = x
                    break
            if hit:
                vec = 1 << (r - 1 - len(rows))
            else:
                vec = 0
                for i, w in enumerate(rows):
                    if w & bit:
                        vec |= 1 << (r - 1 - i)
            cands.append((vec, c, hit))
        cands.sort()

        local_on_path = on_path
        explored: List[int] = []
        # union-find of the orbits of the automorphisms fixing the prefix
        # pointwise, extended by each one found since it was last looked at
        parent: List[int] = []
        n_auts = 0
        for vec, c, hit in cands:
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
            if hit:
                new_rows = [w ^ hit if (w >> c) & 1 else w for w in rows]
                new_rows.append(hit)
                new_kernel = []
                for x in kernel:
                    if x == hit:
                        continue
                    new_kernel.append(x ^ hit if (x >> c) & 1 else x)
            else:
                new_rows, new_kernel = rows, kernel
            vals.append(vec)
            chosen.append(c)
            g0 = generation
            descend(depth + 1, vals, chosen, used | (1 << c),
                    new_rows, new_kernel, tie)
            vals.pop()
            chosen.pop()
            if jump < depth:
                return
            jump = k
            explored.append(c)
            if generation != g0:
                local_on_path = True

    descend(0, [], [], 0, [], list(gens), False)
    assert best_cols is not None and best_chosen is not None

    canon_gens = []
    for i in range(r):
        g = 0
        for pos, vec in enumerate(best_cols):
            if (vec >> (r - 1 - i)) & 1:
                g |= 1 << pos
        canon_gens.append(g)
    images = [0] * k
    for pos, c in enumerate(best_chosen):
        images[c] = pos
    return (BinaryCode(k, tuple(canon_gens)), tuple(images),
            tuple(tuple(a) for a, _ in auts) + tuple(swaps))


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
    """
    if a.length != b.length or a.dim != b.dim:
        return None
    ca, imgs_a = canonical_form(a)
    cb, imgs_b = canonical_form(b)
    if ca != cb:
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
    reduced, _ = reduce(code)
    if reduced.dim == 0:
        return 1
    m, r = reduced.length, reduced.dim
    if m % 2 or r != m // 2 - 1:
        return None
    n = m // 2
    cols: Dict[Tuple[int, ...], List[int]] = {}
    for c in range(m):
        cols.setdefault(tuple((g >> c) & 1 for g in reduced.generators),
                        []).append(c)
    # coordinates pair up only within a class of equal columns, so every
    # class must have even size; a class of size 2s carries s pairs
    if any(len(cs) % 2 for cs in cols.values()):
        return None
    # codewords are constant on pairs, hence are doublings of the induced
    # length-n words; the induced code then has dimension n - 1, and it is
    # the even-weight code iff every induced generator has even weight
    for g in reduced.generators:
        wt = sum(((g >> cs[0]) & 1) * (len(cs) // 2) for cs in cols.values())
        if wt % 2:
            return None
    return n


def _admissible(weights: str):
    if weights == "4":
        return lambda h: h == 4
    if weights == "div4":
        return lambda h: h > 0 and h % 4 == 0
    raise ValueError(f"unknown weight rule: {weights!r} (use '4' or 'div4')")


# Admissible cosets of a class: words w outside it such that every word of
# w + class passes the weight rule, each named by w with the class's pivot
# bits cleared, in increasing order.
Cosets = Tuple[int, ...]

# A class, generators of its automorphism group, and its admissible cosets.
Record = Tuple[BinaryCode, Generators, Cosets]

# The enumeration of each (length, weight rule) so far, kept for the life of
# the process: the classes of dimensions 1, 2, ... found so far, and the
# records of the last of them, whose children are not yet known.  An empty
# frontier after a level means the enumeration is complete.
_LEVELS: Dict[
    Tuple[int, str],
    Tuple[Tuple[Tuple[BinaryCode, ...], ...], Tuple[Record, ...]],
] = {}


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
    by one word per orbit of its automorphism group (see ``_extensions``).
    Each class carries the generators of its automorphism group that the
    search which canonicalized it returned, so no base is searched again,
    and its admissible cosets, inherited from the base that found it, so
    only the zero code reads the words of admissible weight.
    The process keeps, per length and rule, the classes found so far and
    the records of the deepest dimension: a deeper call resumes from them,
    and a shallower or repeated call reads the classes it asks for.
    Measured reach of "div4" from a cold process on a 2-vCPU Xeon VM
    (Python 3.11): about 0.05 s at length 13, 0.15 s at 14, 0.3 s at 15,
    1.1-1.4 s at 16, where both doubly even self-dual classes (e8 + e8 and
    d16+) appear, 2.6-2.7 s at 17 and 12.4 s at 18.
    """
    if not 1 <= length <= MAX_LENGTH:
        raise ValueError(f"length out of range: {length}")
    if not 0 <= dim_min <= dim_max:
        raise ValueError(f"invalid dimension range: [{dim_min}, {dim_max}]")
    ok = _admissible(weights)

    key = length, weights
    zero = zero_code(length)
    # levels[d - 1] holds the classes of dimension d
    levels, frontier = _LEVELS.get(key, ((), ()))
    while len(levels) < dim_max and (frontier or not levels):
        if not levels:
            # the zero code's cosets are the admissible words
            pool = tuple(sorted(
                sum(1 << i for i in supp)
                for h in range(4, length + 1, 4)
                if ok(h)
                for supp in combinations(range(length), h)
            ))
            frontier = ((zero, _canonical_search(zero)[2], pool),)
        found: Dict[BinaryCode, Record] = {}
        for base, generators, cosets in frontier:
            _extensions(base, generators, cosets, found)
        frontier = tuple(sorted(found.values(),
                                key=lambda record: record[0].generators))
        levels += (tuple(cls for cls, _, _ in frontier),)
        # one assignment per level, so an interrupted level leaves the
        # entry as the last completed one
        _LEVELS[key] = levels, frontier

    out = [zero] if dim_min == 0 else []
    for level in levels[max(dim_min, 1) - 1:dim_max]:
        out.extend(level)
    return out


def _extensions(
    base: BinaryCode,
    generators: Generators,
    cosets: Cosets,
    found: Dict[BinaryCode, Record],
) -> None:
    """Add to ``found`` the canonical forms of the codes spanned by ``base``
    and one of its admissible ``cosets`` that it does not hold yet, each
    with generators of its automorphism group and its own admissible
    cosets; ``generators`` generate Aut(base).

    An automorphism σ of the base maps base + w onto base + σ(w), so one
    coset per orbit of Aut(base) needs a canonical search (McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  A
    coset z is admissible for the child base + <x> iff z and z + x are
    both admissible for the base, and the two name the same coset of the
    child; the witness carries it onto the child's canonical form, where
    it is named again by clearing the form's pivot bits.  So the child's
    cosets depend only on its class, not on the base that found it, and a
    class already in ``found`` is skipped.
    """
    k, gens = base.length, base.generators
    pivots = [(g & -g, g) for g in gens]
    admissible = set(cosets)
    # the coset map of a generator is linear and the cosets' words avoid
    # the pivot columns, so only the moved coordinates change a word
    maps = [
        [(1 << c, (1 << c) ^ _coset(1 << perm[c], pivots))
         for c in range(k) if perm[c] != c]
        for perm in generators
    ]
    reached = set()
    for x in cosets:
        if x in reached:
            continue
        # x is the smallest admissible coset of its orbit: walk the orbit
        reached.add(x)
        stack = [x]
        while stack:
            y = stack.pop()
            for moved in maps:
                z = y
                for bit, delta in moved:
                    if y & bit:
                        z ^= delta
                if z not in reached:
                    reached.add(z)
                    stack.append(z)
        # the child is searched through the module attribute, where a
        # tracer can count it; its automorphisms then come from the same
        # cache entry, and the witness carries them onto the canonical form
        child = BinaryCode(k, _rref(gens + (x,)))
        canon, images = canonical_form(child)
        if canon in found:
            continue
        auts = tuple(
            _conjugate(a, images) for a in _canonical_search(child)[2])
        # image of each coordinate under the witness, reduced modulo canon
        # (x and z avoid the base's pivots, so z ^ x is already a coset)
        canon_pivots = [(g & -g, g) for g in canon.generators]
        column = [_coset(1 << images[c], canon_pivots) for c in range(k)]
        carried = []
        for z in cosets:
            if z < z ^ x and z ^ x in admissible:
                w = 0
                while z:
                    bit = z & -z
                    w ^= column[bit.bit_length() - 1]
                    z ^= bit
                carried.append(w)
        carried.sort()
        found[canon] = canon, auts, tuple(carried)


def _coset(w: int, pivots: List[Tuple[int, int]]) -> int:
    """The word naming w's coset: w plus the rows, given with their pivot
    bits, whose pivots it has set."""
    for bit, g in pivots:
        if w & bit:
            w ^= g
    return w


def _conjugate(aut: Sequence[int], images: Sequence[int]) -> Tuple[int, ...]:
    """The automorphism ``aut`` of a code, carried onto
    ``permute(code, images)``: it sends images[c] to images[aut[c]]."""
    out = [0] * len(images)
    for c, a in enumerate(aut):
        out[images[c]] = images[a]
    return tuple(out)


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
    if len(head) != 2:
        raise ValueError(f"malformed header line: {lines[0]!r}")
    try:
        length, dim = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"malformed header line: {lines[0]!r}") from None
    rows = lines[1:]
    if len(rows) != dim:
        raise ValueError(f"header promises {dim} rows, found {len(rows)}")
    code = make_code(rows, length)
    if code.dim != dim:
        raise ValueError(
            f"rows span dimension {code.dim}, header says {dim}"
        )
    return code
