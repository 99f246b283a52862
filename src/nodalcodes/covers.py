"""Numerical invariants of surfaces under iterated double covers.

A rank-r collection of commuting double covers of a smooth surface Y,
branched on m disjoint nodal curves (-2-curves), produces a smooth cover Z.
The preimage of each branch curve is 2^(r-1) disjoint (-1)-curves, and
blowing all of them down gives a second smooth surface Zbar.  The Chern and
Euler invariants of both are determined by (chi(Y), K_Y^2, c_2(Y), r, m):

    c_2(Z)    = 2^r c_2(Y) - m 2^r
    K_Z^2     = 2^r K_Y^2  - m 2^(r-1)
    K_Zbar^2  = 2^r K_Y^2
    chi(Z)    = chi(Zbar) = 2^r chi(Y) - m 2^(r-3)

8 chi is computed as an integer and chi must come out integral, which for
r = 1 forces m = 0 mod 4 and for r = 2 forces m even; from r = 3 on every m
is allowed.  The Kodaira dimension is unchanged by an etale-in-codimension-1
cover, so it is copied from Y to both outputs.

The module also carries the standalone numerical bounds used by the
classification routines: the minimum number of branch curves supporting a
rank-r code, the isotropic-subspace bound, the Miyaoka node bound, and the
node count of a double cover forced by its chi drop.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, NamedTuple, Optional, Tuple

from . import KODAIRA, MAX_LENGTH

__all__ = [
    "KODAIRA",
    "Step",
    "SurfaceInvariants",
    "CoverSpec",
    "CoverResult",
    "NodeBound",
    "cover_invariants",
    "double_cover_nodes",
    "min_m_for_r",
    "isotropic_bound",
    "miyaoka_max_nodes",
]


class Step(NamedTuple):
    """One link of the derivation chain a record carries in `derivation`
    and a CLI report prints as its trail."""

    claim: str
    reference: str
    values: Dict[str, object]


class _SurfaceInvariants(NamedTuple):
    chi: int
    K2: int
    c2: Optional[int] = None
    kodaira: str = "unknown"


class SurfaceInvariants(_SurfaceInvariants):
    """Chern numbers and Kodaira dimension of a smooth projective surface.

    c2 may be omitted, in which case it is filled in from the Noether
    formula 12 chi = K2 + c2.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SurfaceInvariants:
        self = super().__new__(cls, *args, **kwargs)
        if self.kodaira not in KODAIRA:
            raise ValueError(f"unknown kodaira tag: {self.kodaira!r}")
        if self.c2 is None:
            self = self._replace(c2=12 * self.chi - self.K2)
        if 12 * self.chi != self.K2 + self.c2:
            raise ValueError(
                f"Noether fails: 12*{self.chi} != {self.K2} + {self.c2}"
            )
        return self


class _CoverSpec(NamedTuple):
    r: int
    m: int


class CoverSpec(_CoverSpec):
    """Rank of the cover group (2^r sheets) and number of branch nodal curves.

    The cover group is dual to a rank-r binary code of length m, so
    0 <= r <= m <= MAX_LENGTH.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CoverSpec:
        self = super().__new__(cls, *args, **kwargs)
        if self.r < 0:
            raise ValueError(f"r must be non-negative: {self.r}")
        if self.m < 0:
            raise ValueError(f"m must be non-negative: {self.m}")
        if self.m == 0 and self.r > 0:
            raise ValueError("a positive-rank cover needs branch curves")
        if self.r == 0 and self.m > 0:
            raise ValueError("a trivial cover (r = 0) has no branch curves")
        if self.m > MAX_LENGTH:
            raise ValueError(
                f"m = {self.m} exceeds the code length limit {MAX_LENGTH}")
        if self.r > self.m:
            raise ValueError(
                f"r = {self.r} exceeds m = {self.m}: a binary code of "
                f"length {self.m} has rank at most {self.m}")
        return self


class CoverResult(NamedTuple):
    cover: SurfaceInvariants       # the smooth cover Z
    contracted: SurfaceInvariants  # Zbar, branch-curve preimages blown down
    blowdowns: int                 # number of (-1)-curves contracted, m 2^(r-1)
    warnings: Tuple[str, ...]
    derivation: Tuple[Step, ...]


def cover_invariants(y: SurfaceInvariants, spec: CoverSpec) -> CoverResult:
    """Invariants of the smooth cover Z and of the blown-down model Zbar.

    Raises ValueError when chi would not be integral (impossible (r, m)
    combination).  A warning is attached when the result is numerically
    ruled out for the stated Kodaira dimension.
    """
    r, m = spec.r, spec.m
    eight_chi = 2 ** r * (8 * y.chi - m)
    if eight_chi % 8:
        g = gcd(eight_chi, 8)
        # only r = 1 and r = 2 can get here
        raise ValueError(
            f"chi = {eight_chi // g}/{8 // g} is not integral: r = {r} "
            f"requires m {'divisible by 4' if r == 1 else 'even'}"
        )
    chi = eight_chi // 8
    blowdowns = m * 2 ** (r - 1) if r else 0
    k2_cover = 2 ** r * y.K2 - blowdowns

    warnings = []
    if y.kodaira == "minus_infinity" and chi > 1:
        warnings.append(
            f"chi = {chi} > 1 is impossible for a surface dominated by a "
            "ruled one; no such cover exists"
        )

    k2_contracted = 2 ** r * y.K2
    # Noether fills in c_2; for the cover it is 2^r c_2(Y) - m 2^r
    return CoverResult(
        cover=SurfaceInvariants(chi=chi, K2=k2_cover, kodaira=y.kodaira),
        contracted=SurfaceInvariants(chi=chi, K2=k2_contracted,
                                     kodaira=y.kodaira),
        blowdowns=blowdowns,
        warnings=tuple(warnings),
        derivation=(
            Step(
                "chi and K^2 of the smooth cover branched on the m nodal "
                "curves follow from the degree-2^r formulas",
                "cover invariant formulas",
                {"chi": chi, "K2": k2_cover},
            ),
            Step(
                "contracting the preimages of the branch curves blows down "
                "m * 2^(r-1) exceptional curves",
                "branch preimage count",
                {"blowdowns": blowdowns, "K2": k2_contracted},
            ),
        ),
    )


def double_cover_nodes(chi_cover: int, chi_quotient: int) -> int:
    """Nodes on the branch locus of a double cover, from the chi drop.

    For a double cover branched on s nodes, chi(cover) = 2 chi(quotient)
    - s/4, so s = 4 (2 chi(quotient) - chi(cover)).
    """
    s = 4 * (2 * chi_quotient - chi_cover)
    if s < 0:
        raise ValueError(
            f"negative node count {s} from chi = {chi_cover}, "
            f"quotient chi = {chi_quotient}"
        )
    return s


def min_m_for_r(r: int) -> int:
    """Least number of branch curves admitting a rank-r cover code.

    Weight counting: each of the m coordinates a rank-r code covers lies in
    2^(r-1) of its words, so the weights sum to m 2^(r-1), and each of the
    2^r - 1 nonzero words has weight at least 4, whence
    m >= 8 (2^r - 1) / 2^r.  The bound is 4, 6 and 7 at r = 1, 2, 3 and 8
    from r = 4 on; it is attained only for r <= 4 (a code of dimension 5
    with weights in 4Z needs length 12).  chi of the nodal cover of a
    chi = 1 surface, 2^r - m 2^(r-3) >= 1, bounds m from above instead.
    """
    if r < 1:
        raise ValueError(f"r must be positive: {r}")
    r = min(r, 4)
    return -(-8 * (2 ** r - 1) // 2 ** r)


def isotropic_bound(k: int, rho: int) -> int:
    """Lower bound on the code rank forced by k classes in a rank-rho space.

    An isotropic subspace of a nondegenerate quadratic space of rank rho has
    dimension at most rho // 2, and the k nodal classes are independent
    modulo the code, so r >= k - rho // 2.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative: {k}")
    if rho < 1:
        raise ValueError(f"rho must be positive: {rho}")
    return max(0, k - rho // 2)


class NodeBound(NamedTuple):
    max_nodes: int
    assumptions: Tuple[str, ...]
    derivation: Tuple[Step, ...]


def miyaoka_max_nodes(K2: int, c2: int) -> NodeBound:
    """Miyaoka bound: a minimal surface of non-negative Kodaira dimension
    with the given Chern numbers carries at most 2(3 c2 - K2)/9 nodes.

    Such a surface has K2 >= 0, K2 + c2 = 12 chi (Noether) and K2 <= 3 c2
    (Bogomolov-Miyaoka-Yau); Chern numbers breaking any of these raise
    ValueError.
    """
    if K2 < 0:
        raise ValueError(f"K2 must be non-negative on a minimal surface of "
                         f"non-negative Kodaira dimension: {K2}")
    if (K2 + c2) % 12:
        raise ValueError(f"K2 + c2 = {K2 + c2} is not divisible by 12 "
                         f"(Noether's formula)")
    if K2 > 3 * c2:
        raise ValueError(f"K2 = {K2} exceeds 3 c2 = {3 * c2} "
                         f"(Bogomolov-Miyaoka-Yau)")
    bound = (2 * (3 * c2 - K2)) // 9
    return NodeBound(
        max_nodes=bound,
        assumptions=(
            "surface is minimal",
            "kodaira dimension is non-negative",
        ),
        derivation=(
            Step(
                "the number of nodes is at most 2(3 c2 - K^2)/9",
                "orbifold Bogomolov-Miyaoka-Yau inequality",
                {"k2": K2, "c2": c2, "max_nodes": bound},
            ),
        ),
    )
