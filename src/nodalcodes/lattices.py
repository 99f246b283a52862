"""Positive definite integral lattices built from binary codes.

A lattice of rank n is stored by its *doubled* Gram matrix, the integer
matrix of 2<x_i, x_j> on a basis.  Doubling keeps half-integral forms exact:
the lattice obtained from a doubly even code by rescaling the preimage
p^{-1}(V) of V under reduction mod 2 by 1/sqrt(2) has half-integral basis
products, but its doubled Gram matrix is integral.

Root vectors (norm 2) are enumerated completely by integer Fincke-Pohst
enumeration on a fraction-free (Bareiss) LDL^T of the doubled Gram matrix,
so results are exact and deterministic; no floating point is used anywhere.
"""

from __future__ import annotations

import json
from math import isqrt, lcm
from typing import TYPE_CHECKING, List, NamedTuple, Sequence, Tuple

import nodalcodes

from . import MAX_ROOT_RANK, SCALINGS

if TYPE_CHECKING:
    from fractions import Fraction

    from .gf2 import BinaryCode

__all__ = [
    "MAX_ROOT_RANK",
    "SCALINGS",
    "GramLattice",
    "RootSystemReport",
    "construction_a",
    "roots",
    "identify_root_system",
    "discriminant",
    "lattice_to_json",
    "lattice_from_json",
]


class _GramLattice(NamedTuple):
    rank: int
    doubled_gram: Tuple[Tuple[int, ...], ...]
    scaling: str


class GramLattice(_GramLattice):
    """A lattice given by the doubled Gram matrix of a basis.

    ``scaling`` records which Construction-A convention produced it:
    "unscaled" for the plain preimage of a code, "half" for the preimage
    rescaled by 1/sqrt(2).  Lattices built directly from a Gram matrix may
    use either tag.  The form must be positive definite.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> GramLattice:
        self = super().__new__(cls, *args, **kwargs)
        if self.rank < 1:
            raise ValueError(f"rank must be positive: {self.rank}")
        if self.scaling not in SCALINGS:
            raise ValueError(f"unknown scaling tag: {self.scaling!r}")
        g = self.doubled_gram
        if len(g) != self.rank or any(len(row) != self.rank for row in g):
            raise ValueError("doubled_gram must be a rank x rank matrix")
        for i in range(self.rank):
            if g[i][i] <= 0:
                raise ValueError("basis vectors must have positive norm")
            for j in range(i):
                if g[i][j] != g[j][i]:
                    raise ValueError("doubled_gram must be symmetric")
        _bareiss_rows(g)
        return self


def construction_a(code: BinaryCode, scaling: str) -> GramLattice:
    """Lattice of integer vectors reducing mod 2 into the code.

    A basis is the 0/1 lift of the RREF generators together with 2e_i for
    each non-pivot coordinate, so the rank equals the code length.  With
    scaling "half" the lattice is rescaled by 1/sqrt(2), which requires the
    code to be doubly even (otherwise the result is not even integral);
    "unscaled" requires all weights even so that roots are meaningful.
    """
    if scaling not in SCALINGS:
        raise ValueError(f"unknown scaling tag: {scaling!r}")
    k = code.length
    if k < 1:
        raise ValueError("code must have positive length")
    if scaling == "half" and not nodalcodes.gf2.is_doubly_even(code):
        raise ValueError("scaling 'half' needs a doubly even code")
    if scaling == "unscaled" and not nodalcodes.gf2.is_even(code):
        raise ValueError("scaling 'unscaled' needs an even-weight code")

    # (word, multiplier) pairs; 2<s*a, t*b> = 2st|a & b|, halved for "half"
    pivots = sum(g & -g for g in code.generators)
    basis = [(g, 1) for g in code.generators]
    basis += [(1 << c, 2) for c in range(k) if not pivots >> c & 1]
    unit = 2 if scaling == "unscaled" else 1
    gram = tuple(
        tuple(unit * s * t * (a & b).bit_count() for b, t in basis)
        for a, s in basis
    )
    return GramLattice(k, gram, scaling)


# ---------------------------------------------------------------------------
# Exact root enumeration.
# ---------------------------------------------------------------------------


def _reduce_basis(
    g2: Tuple[Tuple[int, ...], ...],
) -> Tuple[List[List[int]], List[List[int]]]:
    """Greedy pairwise size reduction of a doubled Gram matrix.

    Returns (reduced doubled gram, U) with U unimodular and the reduced
    basis equal to U times the old one.  Keeps the enumeration bounds tight
    when the caller's basis is badly skewed.  Exact integer arithmetic; each
    accepted step strictly shrinks the trace, so the sweep terminates.
    """
    n = len(g2)
    g = [list(row) for row in g2]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                mu = (2 * g[i][j] + g[j][j]) // (2 * g[j][j])
                if mu == 0:
                    continue
                new_ii = g[i][i] - 2 * mu * g[i][j] + mu * mu * g[j][j]
                if new_ii >= g[i][i]:
                    continue
                for t in range(n):
                    u[i][t] -= mu * u[j][t]
                for t in range(n):
                    g[i][t] -= mu * g[j][t]
                for t in range(n):
                    g[t][i] -= mu * g[t][j]
                changed = True
    return g, u


def _bareiss_rows(
    g: Sequence[Sequence[int]],
) -> Tuple[List[int], List[List[int]]]:
    """Fraction-free LDL^T of a symmetric integer matrix (Bareiss).

    Returns the leading principal minors d = [1, d_1, ..., d_n] and integer
    rows U_i (only the entries j >= i are meaningful, U_ii = d_{i+1}) with
    x^T g x = sum_i (U_i . x)^2 / (d_i d_{i+1}).  Raises if the form is not
    positive definite.
    """
    a = [list(row) for row in g]
    n = len(a)
    d = [1]
    for i in range(n):
        if a[i][i] <= 0:
            raise ValueError("form is not positive definite")
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                a[j][k] = (a[j][k] * a[i][i] - a[j][i] * a[i][k]) // d[i]
        d.append(a[i][i])
    return d, a


def roots(lat: GramLattice) -> List[Tuple[int, ...]]:
    """All lattice vectors of norm 2, as sorted coordinate tuples.

    Integer Fincke-Pohst enumeration (Math. Comp. 44, 1985) on the reduced
    doubled Gram matrix A.  With D = lcm(d_i d_{i+1}) and
    w_i = D / (d_i d_{i+1}), a root is an x with sum_i w_i (U_i . x)^2 = 4D.
    Each coordinate, innermost first, ranges over the closed interval that
    the remaining budget allows, so every root is visited and an empty range
    is empty.
    """
    n = lat.rank
    if n > MAX_ROOT_RANK:
        raise ValueError(f"rank {n} exceeds root-search limit {MAX_ROOT_RANK}")
    reduced, u = _reduce_basis(lat.doubled_gram)
    d, rows = _bareiss_rows(reduced)
    scale = lcm(*(d[i] * d[i + 1] for i in range(n)))
    w = [scale // (d[i] * d[i + 1]) for i in range(n)]
    found: List[Tuple[int, ...]] = []
    x = [0] * n

    def sweep(i: int, budget: int) -> None:
        row, p = rows[i], d[i + 1]
        c = sum(row[j] * x[j] for j in range(i + 1, n) if x[j])
        s = isqrt(budget // w[i])
        for t in range(-((s + c) // p), (s - c) // p + 1):
            x[i] = t
            left = budget - w[i] * (p * t + c) ** 2
            if i:
                sweep(i - 1, left)
            elif left == 0:
                found.append(tuple(x))
        x[i] = 0

    sweep(n - 1, 4 * scale)
    # convert from the reduced basis back to the caller's basis
    out = [
        tuple(sum(y[i] * u[i][j] for i in range(n)) for j in range(n))
        for y in found
    ]
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Root system identification.
# ---------------------------------------------------------------------------


class RootSystemReport(NamedTuple):
    root_count: int
    components: Tuple[str, ...]
    full_rank: bool


def identify_root_system(lat: GramLattice) -> RootSystemReport:
    """Match the norm-2 vectors to a sum of ADE root systems.

    Simple roots are taken to be the positive roots (lexicographically
    positive coordinate vector) that are not sums of two positive roots.
    A positive root that is not simple is a simple root plus a positive
    root (Humphreys 1972, section 10.2), and that simple root comes first
    in lexicographic order, so each is tested against the simple roots
    found before it.  Raises if the configuration is not simply laced or
    not of ADE type.
    """
    all_roots = roots(lat)
    positive = [v for v in all_roots if v > tuple([0] * lat.rank)]
    pos_set = set(positive)
    simple = []
    for v in positive:
        if not any(
            tuple(a - b for a, b in zip(v, w)) in pos_set for w in simple
        ):
            simple.append(v)

    m = len(simple)
    g = lat.doubled_gram
    # doubled Cartan matrix of the simple roots
    cartan = [[4 if i == j else 0 for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            p2 = sum(
                a * g[r][c] * b
                for r, a in enumerate(simple[i]) if a
                for c, b in enumerate(simple[j]) if b
            )
            if p2 not in (0, -2):
                half = f"{p2}/2" if p2 % 2 else p2 // 2
                raise ValueError(
                    f"simple roots meet with product {half}; "
                    "not simply laced"
                )
            cartan[i][j] = cartan[j][i] = p2

    # a connected positive definite simply laced Cartan matrix of rank n is
    # A_n, D_n or E_n, told apart by its determinant: n + 1 for A_n, 4 for
    # D_n (n >= 4), 3, 2, 1 for E6, E7, E8 (Humphreys 1972, section 11)
    unseen = set(range(m))
    labels: List[str] = []
    accounted = 0
    while unseen:
        comp = [unseen.pop()]
        for v in comp:
            near = [w for w in unseen if cartan[v][w]]
            unseen.difference_update(near)
            comp.extend(near)
        n = len(comp)
        block = [[cartan[i][j] for j in comp] for i in comp]
        try:
            det = _bareiss_rows(block)[0][-1] >> n
        except ValueError:
            det = 0
        if det == n + 1:
            labels.append(f"A{n}")
            accounted += n * (n + 1)
        elif det == 4 and n >= 4:
            labels.append(f"D{n}")
            accounted += 2 * n * (n - 1)
        elif (n, det) in ((6, 3), (7, 2), (8, 1)):
            labels.append(f"E{n}")
            accounted += {6: 72, 7: 126, 8: 240}[n]
        else:
            raise ValueError("root graph is not of ADE type")
    if accounted != len(all_roots):
        raise ValueError(
            f"{len(all_roots)} roots but components account for {accounted}"
        )
    return RootSystemReport(
        root_count=len(all_roots),
        components=tuple(sorted(labels)),
        full_rank=(m == lat.rank),
    )


# ---------------------------------------------------------------------------
# Discriminant.
# ---------------------------------------------------------------------------


def discriminant(lat: GramLattice) -> Fraction:
    """Determinant of the true Gram matrix, as an exact rational."""
    from fractions import Fraction

    return Fraction(_bareiss_rows(lat.doubled_gram)[0][-1], 2 ** lat.rank)


# ---------------------------------------------------------------------------
# JSON serialization: {"rank": n, "doubled_gram": [[...]], "scaling": tag}.
# ---------------------------------------------------------------------------


def lattice_to_json(lat: GramLattice) -> str:
    payload = {
        "rank": lat.rank,
        "doubled_gram": [list(row) for row in lat.doubled_gram],
        "scaling": lat.scaling,
    }
    return json.dumps(payload, sort_keys=True)


def lattice_from_json(text: str) -> GramLattice:
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        # arrays nested past the recursion limit raise RecursionError
        raise ValueError(f"not valid JSON: {e}") from None
    try:
        rank = _json_int("rank", payload["rank"])
        gram = tuple(
            tuple(_json_int("doubled_gram entry", v) for v in row)
            for row in payload["doubled_gram"]
        )
        scaling = payload["scaling"]
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed lattice object: {e}") from None
    return GramLattice(rank, gram, scaling)


def _json_int(what: str, v: object) -> int:
    # JSON booleans load as bool, a subclass of int; floats and strings
    # must not be truncated or parsed into integers
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError(f"{what} must be an integer: {v!r}")
    return v
