"""The package's records: immutable named tuples with keyword construction and defaults."""
import pytest

from cnomial import (
    CertifiedInteger,
    ComparisonReport,
    Params,
    PrecisionPolicy,
    SequenceRecord,
)

#: Each record type, the fields a constructor call passes by keyword, the
#: defaults of the rest, and one field changed to another valid value.
RECORDS = [
    (Params, {"k": 2, "n": 3}, {}, {"n": 4}),
    (PrecisionPolicy, {"strategy": "double"}, {"mantissa_bits": None},
     {"mantissa_bits": 53}),
    (
        CertifiedInteger,
        {"value": 19, "residual": 0.01, "policy_used": PrecisionPolicy("double"), "dim": 5},
        {"escalations": 0, "rungs": ()},
        {"escalations": 1},
    ),
    (
        SequenceRecord,
        {"oeis_id": "A002426", "offset": 0, "terms": (1, 1, 3), "provenance": "fixture"},
        {"k": None, "fetched_at": None, "cache_hit": False},
        {"cache_hit": True},
    ),
    (
        ComparisonReport,
        {"oeis_id": "A002426", "k": 1, "start_n": 0, "expected": (1, 1),
         "computed": (1, 1), "matches": (True, True)},
        {"spectral": ()},
        {"matches": (True, False)},
    ),
]

IDS = [record[0].__name__ for record in RECORDS]


@pytest.mark.parametrize("cls, given, defaults, changed", RECORDS, ids=IDS)
def test_keyword_construction_and_defaults(cls, given, defaults, changed):
    record = cls(**given)
    assert cls._fields == tuple(given) + tuple(defaults)
    assert {name: getattr(record, name) for name in cls._fields} == {**given, **defaults}
    assert record == cls(*given.values())
    assert repr(record).startswith(f"{cls.__name__}(")


@pytest.mark.parametrize("cls, given, defaults, changed", RECORDS, ids=IDS)
def test_equality_and_hash(cls, given, defaults, changed):
    record = cls(**given)
    twin = cls(**given)
    assert record == twin and hash(record) == hash(twin)
    assert len({record, twin}) == 1
    other = record._replace(**changed)
    assert other == cls(**{**given, **changed})
    assert other != record and len({record, other}) == 2


@pytest.mark.parametrize("cls, given, defaults, changed", RECORDS, ids=IDS)
def test_immutable(cls, given, defaults, changed):
    record = cls(**given)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert {name: getattr(record, name) for name in cls._fields} == {**given, **defaults}


def test_properties():
    report = ComparisonReport("A002426", 1, 4, (19, 51, 141), (19, 52, 141), (True, False, True))
    assert (report.count, report.all_equal, report.first_mismatch) == (3, False, 5)


def test_replace_validates_like_the_constructor():
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        Params(1, 1)._replace(k=0)
    record = SequenceRecord("A002426", 0, (1,), "fixture")
    with pytest.raises(ValueError, match="unknown provenance 'dreamt'"):
        record._replace(provenance="dreamt")
    assert record._replace(terms=(1, 1)).terms == (1, 1)
