"""The package's records behave as the dataclasses they replace.

Each record is a plain class with its fields in __slots__.  Here each one
meets a twin that dataclasses.make_dataclass builds from the same fields,
defaults and class-defined __repr__: equality with equal fields, with
other fields and with another type, hashes, repr, keyword construction
and defaults, and the refusal to assign or delete an attribute of a
frozen record must come out as they do for the twin.
"""

import dataclasses

import pytest

from coxbraid.coxeter import CoxeterType, coxeter_group
from coxbraid.dual import NoncrossingPartition
from coxbraid.garside import BraidWord, GarsideNormalForm
from coxbraid.laurent import LaurentPolynomial
from coxbraid.mikado import WiringDiagram
from coxbraid.tl import TLDiagram, ZinnoMatrix
from coxbraid.verify import CheckSpec, Report

A3 = coxeter_group("A", 3)
C = A3.from_word((1, 2, 3))
ONE = LaurentPolynomial.one()
GROUP = {"family": "A", "rank": 2}

# class -> (fields, each with a default given as a (name, default) pair;
# frozen; the class-defined methods the twin keeps; positional arguments;
# other positional arguments; keyword arguments)
RECORDS = {
    CoxeterType: (
        ["family", "rank", ("m", None)], True, (),
        ("A", 3), ("B", 3), {"family": "I2", "rank": 2, "m": 5},
    ),
    BraidWord: (
        ["group", "letters"], True, ("__repr__",),
        (A3, (1, -2)), (A3, (2,)), {"letters": (), "group": A3},
    ),
    GarsideNormalForm: (
        ["group", "inf", "factors"], True, ("__repr__",),
        (A3, 1, (C,)), (A3, 0, (C,)), {"group": A3, "inf": -1, "factors": ()},
    ),
    NoncrossingPartition: (
        ["sequence", "blocks"], True, (),
        ((1, 2, 3), ((1, 2), (3,))), ((1, 2, 3), ((1,), (2, 3))),
        {"blocks": ((1, 2, 3),), "sequence": (1, 2, 3)},
    ),
    LaurentPolynomial: (
        ["terms"], True, ("__repr__", "text"),
        (((0, 1), (2, -3)),), (((1, 1),),), {"terms": ((-1, 2),)},
    ),
    WiringDiagram: (
        ["strand_count", "crossings"], True, (),
        (3, ((1, 1),)), (3, ((2, -1),)), {"crossings": (), "strand_count": 2},
    ),
    TLDiagram: (
        ["points", "pairing"], True, (),
        (4, (3, 2, 1, 0)), (4, (1, 0, 3, 2)), {"pairing": (1, 0), "points": 2},
    ),
    ZinnoMatrix: (
        ["c", "rows", "cols", "entries", "pairing"], True, (),
        (C, (C,), (A3.identity,), ((ONE,),), None),
        (C, (C,), (A3.identity,), ((ONE,),), ((0, 0),)),
        {"pairing": None, "entries": (), "cols": (), "rows": (), "c": C},
    ),
    Report: (
        ["command", "group", "passed", "items", "counts", "elapsed",
         ("coxeter_element", None), ("evidence_only", False), ("notes", ())],
        True, (),
        ("thm-5.9", GROUP, True, ({"item": "e", "ok": True},), {"items": 1}, 0.25),
        ("thm-5.9", GROUP, False, ({"item": "e", "ok": False},), {"items": 1}, 0.25),
        {"command": "thm-3.7", "group": GROUP, "passed": True, "items": (), "counts": {},
         "elapsed": 1.5, "notes": ("a note",), "coxeter_element": [1, 2]},
    ),
    CheckSpec: (
        ["theorem_id", "families", "description", "verdict", ("sweep", "orderings"),
         ("reflections", False)],
        True, (),
        ("thm-x", ("A",), "a check", len), ("thm-x", ("A",), "a check", len, "pairs"),
        {"verdict": len, "description": "d", "families": ("B",), "theorem_id": "thm-y",
         "reflections": True},
    ),
}


def hash_or_error(record):
    """The hash of record, or the type of the error hashing raises: a
    frozen record with a dict field is unhashable, as its twin is."""
    try:
        return hash(record)
    except TypeError as error:
        return type(error)


def twin_of(cls):
    fields, frozen, kept = RECORDS[cls][:3]
    specs = [
        (f[0], object, dataclasses.field(default=f[1])) if isinstance(f, tuple) else (f, object)
        for f in fields
    ]
    namespace = {name: vars(cls)[name] for name in kept}
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=frozen, namespace=namespace)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_matches_its_dataclass_twin(cls):
    twin = twin_of(cls)
    _, frozen, _, args, other, kwargs = RECORDS[cls]
    a, b, c = cls(*args), cls(*args), cls(*other)
    ta, tb, tc = twin(*args), twin(*args), twin(*other)
    results = (a == b, a != b, a == c, a != c, a == ta, a != ta, a == args, a.__eq__(ta))
    assert results == (ta == tb, ta != tb, ta == tc, ta != tc, ta == a, ta != a, ta == args,
                       ta.__eq__(a))
    assert results[:7] == (True, False, False, True, False, True, False)
    assert results[7] is NotImplemented
    assert (cls.__hash__ is None) is (twin.__hash__ is None) is (not frozen)
    if frozen:
        assert hash_or_error(a) == hash_or_error(b) == hash_or_error(ta)
    assert repr(a) == repr(ta) and repr(c) == repr(tc)
    named = twin(**kwargs)
    assert repr(cls(**kwargs)) == repr(named)
    assert cls(**kwargs) == cls(*(getattr(named, f.name) for f in dataclasses.fields(named)))
    name = RECORDS[cls][0][0]
    for record in (a, ta):
        if frozen:
            for change in (lambda: setattr(record, name, None), lambda: delattr(record, name),
                           lambda: setattr(record, "unknown", None)):
                with pytest.raises(AttributeError):
                    change()
        else:
            setattr(record, name, "changed")
    assert (a == ta) is False and (a == b) is frozen and repr(a) == repr(ta)


def test_report_fields_cannot_be_assigned():
    """A report is frozen like every other record: no sweep or caller edits
    one after run_check returns it."""
    report = Report("thm-5.9", GROUP, True, (), {"items": 0}, 0.25)
    with pytest.raises(AttributeError):
        report.passed = False
    with pytest.raises(AttributeError):
        del report.notes
    assert report.passed is True and report.notes == ()


def test_cached_normal_form_is_no_field():
    """BraidWord keeps nf in its __dict__ slot: reading it leaves equality,
    hash and repr alone, and it cannot be assigned."""
    a, b = BraidWord(A3, (1, -2, 3)), BraidWord(A3, (1, -2, 3))
    before = hash(a), repr(a)
    assert a.nf == b.nf and "nf" in vars(a)
    assert a == b and (hash(a), repr(a)) == before
    with pytest.raises(AttributeError):
        a.nf = b.nf
