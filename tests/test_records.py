"""The record classes of chipoly.oracle and chipoly.bench behave as the
dataclasses they replaced did: construction by position or keyword, the
same defaults with a fresh list per instance, field order, eq, repr,
hashing (frozen records only), assignment, and pickling.  ChernVector,
whose power sums are no field, has its own test in test_eulerchi."""

import pickle
from fractions import Fraction

import pytest

from chipoly.bench import BenchReport, MethodTiming
from chipoly.oracle import Mismatch, SplitBundle, VerifyReport

# (class, fields by name, the repr, frozen, the fields whose given value is their default)
RECORDS = [
    (SplitBundle, {"dim": 3, "twists": (1, -2)},
     "SplitBundle(dim=3, twists=(1, -2))", True, ()),
    (Mismatch, {"trial": 4, "twists": (0, 5), "t": None, "expected": 9, "actual": Fraction(7, 2)},
     "Mismatch(trial=4, twists=(0, 5), t=None, expected=9, actual=Fraction(7, 2))", True, ()),
    (VerifyReport, {"dim": 6, "rank": 3, "trials": 50, "max_a": 4, "seed": 7, "twist_range": 4,
                    "checks": 0, "mismatches": []},
     "VerifyReport(dim=6, rank=3, trials=50, max_a=4, seed=7, twist_range=4, checks=0, "
     "mismatches=[])", False, ("checks", "mismatches")),
    (MethodTiming, {"method": "matrix", "seconds": [], "terms": None, "timed_out": False,
                    "note": None},
     "MethodTiming(method='matrix', seconds=[], terms=None, timed_out=False, note=None)",
     False, ("seconds", "terms", "timed_out", "note")),
    (BenchReport, {"dim": 10, "repetitions": 1, "timeout": 2.5, "machine": "m", "timings": [],
                   "agreement": None},
     "BenchReport(dim=10, repetitions=1, timeout=2.5, machine='m', timings=[], agreement=None)",
     False, ("timings", "agreement")),
]


@pytest.mark.parametrize("cls, fields, text, frozen, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_matches_the_dataclass_it_replaced(cls, fields, text, frozen, defaults):
    record = cls(*fields.values())
    assert cls.__match_args__ == tuple(fields)
    assert record == cls(**fields) and repr(record) == text
    assert {name: getattr(record, name) for name in fields} == fields
    required = {name: value for name, value in fields.items() if name not in defaults}
    assert cls(**required) == record
    a, b = cls(**required), cls(**required)
    assert all(getattr(a, name) is not getattr(b, name) for name in defaults if fields[name] == [])
    first = next(iter(fields))  # an int or a str, which doubling changes
    other = cls(**{**fields, first: fields[first] * 2})
    assert record != other and record != tuple(fields.values())
    assert pickle.loads(pickle.dumps(record)) == record
    if frozen:
        assert hash(record) == hash(cls(**fields)) == hash(tuple(fields.values()))
        assert len({record, cls(**fields), other}) == 2
        with pytest.raises(AttributeError):
            setattr(record, first, fields[first])
        with pytest.raises(AttributeError):
            delattr(record, first)
    else:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, first, fields[first] * 2)
        assert record == other
