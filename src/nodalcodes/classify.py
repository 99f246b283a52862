"""Case analysis for involutions on surfaces with p_g = 0 and for rational
surfaces carrying many disjoint nodal curves.

Everything here is finite arithmetic layered over the code machinery:
fixed-point bookkeeping for an involution (k isolated fixed points, trace t
on H^2, Picard number of the resolved quotient), the exhaustive (k, r, m)
feasibility table for nodal codes, the Euler budget of a relatively minimal
elliptic fibration whose fibers must absorb a given number of nodal curves,
and the two-variable Diophantine equation behind the hyperelliptic-pencil
cases.  Each classification routine returns records that check or derive
their own defining identities, plus a derivation trail of (claim, reference,
values) steps that the CLI serializes verbatim.
"""

from __future__ import annotations

from itertools import product
from math import isqrt
from typing import TYPE_CHECKING, FrozenSet, List, NamedTuple, Optional, Tuple

import nodalcodes

from .covers import Step, isotropic_bound, min_m_for_r

if TYPE_CHECKING:
    from .gf2 import BinaryCode

__all__ = [
    "Step",
    "InvolutionData",
    "InvolutionCase",
    "PencilSolution",
    "FiberSpec",
    "FIBER_TYPES",
    "SweepRow",
    "SmallRhoCase",
    "StandardExample",
    "classify_involution",
    "solve_md",
    "fiber_budget",
    "feasible_kr_pairs",
    "saturated_node_sweep",
    "small_rho_cases",
    "standard_example_invariants",
]


# ---------------------------------------------------------------------------
# Fixed-point arithmetic of an involution.
# ---------------------------------------------------------------------------


class _InvolutionData(NamedTuple):
    K2_S: int
    rho_S: int
    D2: int
    KD: int


class InvolutionData(_InvolutionData):
    """Numerical data of an involution with k isolated fixed points.

    D is the divisorial part of the fixed locus, t the trace of the action
    on H^2 of the surface, rho_Y the Picard number of the resolved quotient.
    k, t and rho_Y follow from the fields by the three linking identities,

        k = K.D + 4,   t = 2 - D^2,   rho_S + t = 2 rho_Y - 2 k,

    so construction checks only that rho_S + t is even.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> InvolutionData:
        self = super().__new__(cls, *args, **kwargs)
        if (self.rho_S + self.t) % 2:
            raise ValueError(
                f"rho_Y = {self.rho_S + self.t + 2 * self.k}/2 is not "
                f"integral; no involution has rho_S = {self.rho_S}, "
                f"D^2 = {self.D2}, K.D = {self.KD}"
            )
        return self

    @property
    def k(self) -> int:
        return self.KD + 4

    @property
    def t(self) -> int:
        return 2 - self.D2

    @property
    def rho_Y(self) -> int:
        return (self.rho_S + self.t) // 2 + self.k


# ---------------------------------------------------------------------------
# The two involution theorems: K^2 = 9 is impossible, K^2 = 8 has five cases.
# ---------------------------------------------------------------------------

_CASE_LABELS = ("i", "ii", "iii", "iv", "v", "contradiction")


class _InvolutionCase(NamedTuple):
    label: str
    k: int
    rho_Y: int
    K2_Y: int
    Y_description: str
    genus_of_pencil: Optional[int] = None
    derivation: Tuple[Step, ...] = ()


class InvolutionCase(_InvolutionCase):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> InvolutionCase:
        self = super().__new__(cls, *args, **kwargs)
        if self.label not in _CASE_LABELS:
            raise ValueError(f"unknown case label: {self.label!r}")
        # chi(Y) = 1 throughout, so Noether pins K^2 to the Picard number
        if self.K2_Y != 10 - self.rho_Y:
            raise ValueError(
                f"K2_Y = {self.K2_Y} != 10 - rho_Y = {10 - self.rho_Y}"
            )
        return self


def _canonical_multiple(K2: int, D2: int) -> int:
    """The positive integer r with K ~ r D, given r^2 D^2 = K^2.

    Anything but a positive perfect-square ratio signals an arithmetic slip
    upstream.
    """
    square, rest = divmod(K2, D2) if D2 else (0, 0)
    r = isqrt(square) if square > 0 else 0
    if rest or not r or r * r != square:
        raise ValueError(
            f"K^2 = {K2} is not r^2 D^2 with D^2 = {D2} for a positive "
            "integer r"
        )
    return r


def _classify_k2_9() -> Tuple[InvolutionCase, ...]:
    steps: List[Step] = [
        Step(
            "the Neron-Severi group has rank 1 and contains the invariant "
            "canonical class, so the trace of the action on H^2 is 1",
            "invariance of the canonical class",
            {"rho_S": 1, "t": 1},
        ),
        Step(
            "D^2 = 2 - t = 1",
            "fixed-point arithmetic",
            {"D2": 1},
        ),
    ]
    r = _canonical_multiple(9, 1)
    data = InvolutionData(9, 1, 1, r * 1)
    steps.append(
        Step(
            "K ~ r D with r^2 D^2 = K^2 = 9 gives r = 3, hence K.D = 3",
            "exact rational solution of r^2 D^2 = K^2",
            {"r": r, "KD": data.KD},
        )
    )
    steps.append(
        Step(
            "k = K.D + 4 = 7 and rho_S + t = 2 rho_Y - 2 k give rho_Y = 8",
            "fixed-point arithmetic",
            {"k": data.k, "rho_Y": data.rho_Y},
        )
    )
    k2_y = 10 - data.rho_Y
    steps.append(
        Step(
            "the quotient would carry k = rho_Y - 1 = 7 disjoint nodal "
            "curves with K^2 = 2; the saturated-node sweep only allows that "
            "on a ruled surface with K^2 = 8",
            "saturated node sweep and node bound for non-negative "
            "Kodaira dimension",
            {"k": data.k, "rho_Y": data.rho_Y, "K2_Y": k2_y},
        )
    )
    case = InvolutionCase(
        label="contradiction",
        k=data.k,
        rho_Y=data.rho_Y,
        K2_Y=k2_y,
        Y_description=(
            "no such involution: the resolved quotient would need 7 "
            "disjoint nodal curves on a surface with rho = 8 and K^2 = 2, "
            "which the node bounds exclude"
        ),
        derivation=tuple(steps),
    )
    return (case,)


_K2_8_DESCRIPTIONS = {
    0: "minimal surface of general type with p_g = 0 and K^2 = 4; "
       "the fixed locus is 4 isolated points (D = 0)",
    2: "minimal surface of general type with p_g = 0 and K^2 = 2",
    4: "minimal properly elliptic surface with p_g = q = 0; its elliptic "
       "fibration has exactly two I0* fibers carrying all eight nodal "
       "curves, so it has constant moduli",
    6: "rational surface of the doubled-code shape with rho = 12; the "
       "ruling pulls back to a hyperelliptic pencil of genus 5",
    8: "rational surface of the doubled-code shape with rho = 14; the "
       "ruling pulls back to a hyperelliptic pencil of genus 3",
}


def _classify_k2_8() -> Tuple[InvolutionCase, ...]:
    cases: List[InvolutionCase] = []

    # the trace on the rank-2 invariant lattice is 0 or 2; t = 0 dies
    r = _canonical_multiple(8, 2)
    dead = InvolutionData(8, 2, D2=2, KD=r * 2)
    t0_steps = (
        Step(
            "if t = 0 then D^2 = 2 and K ~ r D with r^2 D^2 = 8, so r = 2 "
            "and K.D = 4",
            "exact rational solution of r^2 D^2 = K^2",
            {"r": r, "D2": 2, "KD": r * 2},
        ),
        Step(
            "k = 8 and rho_Y = 9, so the quotient would carry "
            "rho_Y - 1 disjoint nodal curves with K^2 = 1",
            "fixed-point arithmetic",
            {"k": dead.k, "rho_Y": dead.rho_Y, "K2_Y": 10 - dead.rho_Y},
        ),
        Step(
            "k = rho_Y - 1 is only possible on a ruled surface with "
            "K^2 = 8; t = 0 is eliminated",
            "saturated node sweep",
            {"K2_Y": 1},
        ),
    )
    cases.append(
        InvolutionCase(
            label="contradiction",
            k=dead.k,
            rho_Y=dead.rho_Y,
            K2_Y=10 - dead.rho_Y,
            Y_description=(
                "eliminated branch t = 0: the quotient would need 8 "
                "disjoint nodal curves on a surface with rho = 9 and "
                "K^2 = 1"
            ),
            derivation=t0_steps,
        )
    )

    # t = 2: D^2 = 0, K.D = k - 4 is a non-negative even integer; the
    # realizable values 0..8 split by the Kodaira dimension of the quotient
    pencil = {2 * sol.m + 4: sol for sol in solve_md()}
    budgets = fiber_budget(12, 8)
    for label, kd in zip("i ii iii iv v".split(), (0, 2, 4, 6, 8)):
        data = InvolutionData(8, 2, D2=0, KD=kd)
        k2_y = 10 - data.rho_Y
        steps = [
            Step(
                "t = 2 gives D^2 = 0 and K.D = k - 4",
                "fixed-point arithmetic",
                {"t": 2, "D2": 0, "KD": kd, "k": data.k},
            ),
            Step(
                f"rho_Y = k + 2 = {data.rho_Y} and K^2 of the quotient is "
                f"10 - rho_Y = {k2_y}",
                "Picard/Noether bookkeeping",
                {"rho_Y": data.rho_Y, "K2_Y": k2_y},
            ),
        ]
        genus = None
        if data.k == 8:
            steps.append(
                Step(
                    "K^2 = 0 forces Kodaira dimension 1; an Euler budget of "
                    "12 absorbing 8 nodal curves leaves exactly one fiber "
                    "multiset",
                    "elliptic fiber Euler budget",
                    {"fibers": [[f.kind for f in ms] for ms in budgets]},
                )
            )
        if data.k in pencil:
            sol = pencil[data.k]
            genus = sol.genus
            steps.append(
                Step(
                    f"the quotient is rational of the doubled-code shape; "
                    f"the pencil equation d m = m + 2 d adds (m, d) = "
                    f"({sol.m}, {sol.d}) with pencil genus {sol.genus}",
                    "pencil Diophantine equation",
                    {"m": sol.m, "d": sol.d, "genus": sol.genus},
                )
            )
        cases.append(
            InvolutionCase(
                label=label,
                k=data.k,
                rho_Y=data.rho_Y,
                K2_Y=k2_y,
                Y_description=_K2_8_DESCRIPTIONS[kd],
                genus_of_pencil=genus,
                derivation=tuple(steps),
            )
        )
    return tuple(cases)


def classify_involution(K2_S: int) -> Tuple[InvolutionCase, ...]:
    """All numerical cases for an involution on a minimal surface of
    general type with p_g = 0 and the given K^2.

    For K^2 = 9 the single returned case is the contradiction (no
    involution exists); for K^2 = 8 the five realizable cases are returned
    together with the eliminated t = 0 branch, labelled "contradiction".
    """
    if K2_S == 9:
        return _classify_k2_9()
    if K2_S == 8:
        return _classify_k2_8()
    raise ValueError(f"unsupported K^2 value: {K2_S} (use 8 or 9)")


# ---------------------------------------------------------------------------
# The pencil equation d m = m + 2 d.
# ---------------------------------------------------------------------------


class PencilSolution(NamedTuple):
    m: int
    d: int
    genus: int


def solve_md() -> Tuple[PencilSolution, ...]:
    """Positive solutions of d m = m + 2 d, with the pencil genus 2d - 1.

    The equation rewrites as (d - 1)(m - 2) = 2, so the factorizations of 2
    give the complete answer {(m, d)} = {(3, 3), (4, 2)}.
    """
    sols = []
    for a in (1, 2):
        d = a + 1
        m = 2 // a + 2
        sols.append(PencilSolution(m=m, d=d, genus=2 * d - 1))
    return tuple(sorted(sols, key=lambda s: s.m))


# ---------------------------------------------------------------------------
# Euler budget of an elliptic fibration absorbing nodal curves.
# ---------------------------------------------------------------------------


class FiberSpec(NamedTuple):
    kind: str
    euler: int
    nodal_capacity: int


FIBER_TYPES = (
    FiberSpec("I2", euler=2, nodal_capacity=1),
    FiberSpec("III", euler=3, nodal_capacity=1),
    FiberSpec("I0star", euler=6, nodal_capacity=4),
)


def fiber_budget(
    total_euler: int, nodes_required: int
) -> Tuple[Tuple[FiberSpec, ...], ...]:
    """All multisets of node-carrying fiber types fitting the Euler budget.

    A multiset qualifies when its Euler numbers sum to at most total_euler
    (the remainder is spent on multiples of smooth fibers, which carry no
    nodal curves) and its nodal capacities sum to exactly nodes_required.
    """
    if total_euler < 0:
        raise ValueError(f"total_euler must be non-negative: {total_euler}")
    if nodes_required < 0:
        raise ValueError(
            f"nodes_required must be non-negative: {nodes_required}"
        )
    # capacities sum to exactly nodes_required, which caps each count; the
    # first type has capacity 1, so its count is what the others leave over
    rest = FIBER_TYPES[1:]
    ranges = [
        range(min(total_euler // f.euler,
                  nodes_required // f.nodal_capacity) + 1)
        for f in rest
    ]
    out = []
    for others in product(*ranges):
        first = nodes_required - sum(
            c * f.nodal_capacity for c, f in zip(others, rest))
        if first < 0:
            continue
        counts = (first,) + others
        euler = sum(c * f.euler for c, f in zip(counts, FIBER_TYPES))
        if euler <= total_euler:
            ms = tuple(
                f for c, f in zip(counts, FIBER_TYPES) for _ in range(c)
            )
            out.append(ms)
    out.sort(key=lambda ms: tuple(f.kind for f in ms))
    return tuple(out)


# ---------------------------------------------------------------------------
# Numerical feasibility of many nodal curves on a rational surface.
# ---------------------------------------------------------------------------


def feasible_kr_pairs() -> FrozenSet[Tuple[int, int, int]]:
    """The (k, r, m) triples realizable with k = rho - 2 nodal curves,
    5 <= rho <= 10, under the isotropic bound and the m < 8 constraint.

    With m < 8 every nonzero weight is exactly 4 (a doubly even word of
    weight 8 needs support 8), so the search reduces to exhaustive
    enumeration of all-weight-4 codes, each of which has m < 8: it is a
    replicated simplex code (Bonisoli 1984), of support 4, 6 or 7.
    """
    found = set()
    for rho in range(5, 11):
        k = rho - 2
        r_lo = max(1, isotropic_bound(k, rho))
        for code in nodalcodes.gf2.enumerate_codes(k, "4", r_lo, k):
            found.add((k, code.dim, nodalcodes.gf2.reduce(code)[0].length))
    return frozenset(found)


class SweepRow(NamedTuple):
    rho: int
    k: int
    K2_Y: int
    r_min: int
    survives: bool
    attained_r: Tuple[int, ...]
    tag: str
    derivation: Tuple[Step, ...]


_SURVIVOR_TAGS = {
    2: "realized by a ruled surface with a section of square -2",
    8: (
        "survives numerically at r = 3 (simplex code); excluded by a "
        "finer double-cover argument"
    ),
}


def saturated_node_sweep(rho: int) -> SweepRow:
    """Feasibility of k = rho - 1 disjoint nodal curves on a rational
    surface of Picard number rho (2 <= rho <= 14).

    The attached code has length k, rank at least the isotropic bound, and
    all weights divisible by 4.  Only rho = 2 (a single curve on a ruled
    surface with K^2 = 8) and rho = 8 (the length-7 simplex code at r = 3,
    ruled out by a finer double-cover argument) survive numerically.
    """
    if not 2 <= rho <= 14:
        raise ValueError(f"rho out of range [2, 14]: {rho}")
    k = rho - 1
    K2_Y = 10 - rho
    r_min = isotropic_bound(k, rho)
    if r_min >= 4:
        # narrated, not computed: no code is enumerated here.  The tag's
        # argument is incomplete, since at rho = 9 and 10 the enumeration
        # finds the [8,4] extended Hamming code (m = 8, not a DE code);
        # ROADMAP item 3 replaces this branch with the enumeration
        attained: Tuple[int, ...] = ()
        tag = (
            f"rank at least {r_min} forces at least "
            f"{min_m_for_r(r_min)} curves in the code support, and "
            "the doubled-code identification caps the rank below that"
        )
    else:
        # here k <= 7, so m < 8 automatically and all weights are exactly 4
        codes = nodalcodes.gf2.enumerate_codes(k, "4", r_min, k)
        attained = tuple(sorted({code.dim for code in codes}))
        if attained:
            tag = _SURVIVOR_TAGS.get(rho, "survives numerically")
        else:
            tag = "no admissible code of length k exists"
    return SweepRow(
        rho=rho,
        k=k,
        K2_Y=K2_Y,
        r_min=r_min,
        survives=bool(attained),
        attained_r=attained,
        tag=tag,
        derivation=(
            Step(
                f"k = rho - 1 = {k} disjoint nodal curves on a rational "
                f"surface with rho = {rho}: {tag}",
                "saturated node sweep",
                {"rho": rho, "r_min": r_min, "attained_r": attained},
            ),
        ),
    )


# ---------------------------------------------------------------------------
# Small Picard numbers and the standard doubled-code examples.
# ---------------------------------------------------------------------------


class SmallRhoCase(NamedTuple):
    rho: int
    k: int
    description: str


_SMALL_RHO_TABLE = {
    2: (
        SmallRhoCase(2, 0, "a relatively minimal ruled rational surface "
                           "F_e with e != 2"),
    ),
    3: (
        SmallRhoCase(3, 1, "blow-up of F_2 at a point outside the negative "
                           "section; the nodal curve is the pull-back of "
                           "the negative section"),
        SmallRhoCase(3, 1, "blow-up of F_1 at a point on the negative "
                           "section; the nodal curve is the strict "
                           "transform of the negative section"),
    ),
    4: (
        SmallRhoCase(4, 2, "the doubled-code example with k = 2"),
        SmallRhoCase(4, 2, "blow-up of F_2 at a point x1 outside the "
                           "negative section and at x2 infinitely near x1; "
                           "the nodal curves are the pull-back of the "
                           "negative section and the strict transform of "
                           "the first exceptional curve"),
    ),
}


def small_rho_cases(rho: int) -> Tuple[SmallRhoCase, ...]:
    """The complete list of rational surfaces with k = rho - 2 disjoint
    nodal curves for rho <= 4 (where the attached code is zero)."""
    if rho not in _SMALL_RHO_TABLE:
        raise ValueError(f"rho out of range [2, 4]: {rho}")
    return _SMALL_RHO_TABLE[rho]


class StandardExample(NamedTuple):
    n: int
    rho: int
    k: int
    code: BinaryCode


def standard_example_invariants(n: int) -> StandardExample:
    """The rational surface carrying 2n disjoint nodal curves obtained from
    n double fibers of a ruling: rho = 2n + 2 and the code is de(n)."""
    if n < 1:
        raise ValueError(f"n must be positive: {n}")
    return StandardExample(n=n, rho=2 * n + 2, k=2 * n,
                           code=nodalcodes.gf2.de(n))
