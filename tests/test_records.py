"""The records of every layer are NamedTuples that keep their checks.

A validated record checks its fields however it is built, by position or
by keyword; no record accepts a new value for a field or a new attribute.
"""

import pytest

from nodalcodes.classify import InvolutionCase, InvolutionData
from nodalcodes.covers import CoverSpec, Step, SurfaceInvariants
from nodalcodes.gf2 import BinaryCode
from nodalcodes.lattices import GramLattice

# each validated record: a valid input in field order, one field that
# breaks it, and the error that names the break
VALIDATED = [
    (BinaryCode, dict(length=4, generators=(3, 12)),
     dict(generators=(3, 6)), "not fully reduced"),
    (BinaryCode, dict(length=4, generators=(3, 12)),
     dict(length=40, generators=()), "length out of range: 40"),
    (BinaryCode, dict(length=4, generators=(3, 12)),
     dict(generators=(16,)), "generator out of range: 0x10"),
    (BinaryCode, dict(length=4, generators=(3, 12)),
     dict(generators=(2, 1)), "not in echelon order"),
    (SurfaceInvariants, dict(chi=1, K2=8),
     dict(c2=5), "Noether fails"),
    (CoverSpec, dict(r=1, m=4),
     dict(m=0), "needs branch curves"),
    (CoverSpec, dict(r=1, m=4),
     dict(m=-1), "m must be non-negative: -1"),
    (GramLattice, dict(rank=2, doubled_gram=((4, -2), (-2, 4)),
                       scaling="unscaled"),
     dict(doubled_gram=((4, -2), (2, 4))), "symmetric"),
    (GramLattice, dict(rank=2, doubled_gram=((4, -2), (-2, 4)),
                       scaling="unscaled"),
     dict(rank=0, doubled_gram=()), "rank must be positive: 0"),
    (InvolutionData, dict(K2_S=8, rho_S=2, D2=0, KD=0),
     dict(D2=1), "not integral"),
    (InvolutionCase, dict(label="i", k=4, rho_Y=6, K2_Y=4,
                          Y_description="a rational surface"),
     dict(K2_Y=5), "K2_Y = 5 != 10 - rho_Y"),
]
# a class's first input is named after the class, a later one also after
# the error it expects
IDS = []
for cls, good, bad, message in VALIDATED:
    name = cls.__name__
    IDS.append(f"{name}: {message}" if name in IDS else name)


def both_ways(cls, fields):
    """cls built from fields by position and by keyword."""
    assert list(fields) == list(cls._fields[:len(fields)])
    return [lambda: cls(*fields.values()), lambda: cls(**fields)]


@pytest.mark.parametrize("cls, good, bad, message", VALIDATED, ids=IDS)
def test_validated_record_builds_both_ways(cls, good, bad, message):
    by_position, by_keyword = (build() for build in both_ways(cls, good))
    assert type(by_position) is cls
    assert by_position == by_keyword


@pytest.mark.parametrize("cls, good, bad, message", VALIDATED, ids=IDS)
def test_validated_record_rejects_bad_input(cls, good, bad, message):
    for build in both_ways(cls, {**good, **bad}):
        with pytest.raises(ValueError, match=message):
            build()


@pytest.mark.parametrize("cls, good, bad, message", VALIDATED, ids=IDS)
def test_record_is_immutable(cls, good, bad, message):
    record = cls(**good)
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], good[cls._fields[0]])
    with pytest.raises(AttributeError):
        record.note = "a field the record does not have"


def test_steps_do_not_share_values():
    a = Step("claim", "reference", {})
    with pytest.raises(AttributeError):
        a.values = {}
    assert Step("claim", "reference", {"x": 1}).values == {"x": 1}
