"""Every fqlab record behaves as the frozen dataclass it replaced.

Each of the nine record classes is judged against its dataclass twin
(oracles.dataclass_twin), made by make_dataclass from the class's fields,
defaults, eq flag and __post_init__: construction by position, keyword
and default, the TypeError of a bad call, equality and hashing, frozen
fields, the repr text and a pickle round trip.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqlab.geometry import PointSet
from fqlab.record import Record
from oracles import RECORD_CLASSES, dataclass_twin

TWINS = {cls: dataclass_twin(cls) for cls in RECORD_CLASSES}

# Hashable field values of several types, ints and Fractions equal across
# types, so equal records of mixed values are drawn too.
VALUES = st.one_of(
    st.none(), st.integers(-3, 3), st.text(max_size=2), st.fractions(max_denominator=2),
    st.tuples(st.integers(0, 2)),
)


def field_values(cls):
    """A dict of every field of cls; a PointSet gets valid ranks of F_7^2,
    which its __post_init__ checks."""
    if cls is PointSet:
        ranks = st.lists(st.integers(0, 48), unique=True, max_size=6)
        return st.fixed_dictionaries({
            "ranks": ranks.map(lambda r: np.array(r, dtype=np.int64)),
            "p": st.just(7), "dim": st.just(2), "origin_label": st.text(max_size=2),
        })
    return st.fixed_dictionaries({name: VALUES for name in cls._fields})


def both(cls, *args, **kwargs):
    """The record and its twin, built from the same arguments."""
    return cls(*args, **kwargs), TWINS[cls](*args, **kwargs)


def test_every_record_class_has_a_twin():
    assert set(Record.__subclasses__()) == set(RECORD_CLASSES)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RECORD_CLASSES), st.data())
def test_construction_matches_the_twin(cls, data):
    # a positional prefix, then keywords in any order, leaving out any
    # defaulted fields that the prefix does not reach
    values = data.draw(field_values(cls))
    nargs = data.draw(st.integers(0, len(cls._fields)))
    rest = cls._fields[nargs:]
    defaulted = [name for name in rest if name in cls._defaults]
    left_out = data.draw(st.sets(st.sampled_from(defaulted))) if defaulted else set()
    keywords = data.draw(st.permutations([name for name in rest if name not in left_out]))
    args = [values[name] for name in cls._fields[:nargs]]
    record, twin = both(cls, *args, **{name: values[name] for name in keywords})
    assert repr(record) == repr(twin)
    for name in cls._fields:
        got, want = getattr(record, name), getattr(twin, name)
        if isinstance(want, np.ndarray):  # PointSet's ranks, as __post_init__ keeps them
            np.testing.assert_array_equal(got, want)
            assert (got.dtype, got.flags.writeable) == (want.dtype, want.flags.writeable)
        else:
            assert got is want


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RECORD_CLASSES), st.data())
def test_bad_calls_raise_type_error_as_the_twin(cls, data):
    values = data.draw(field_values(cls))
    required = [name for name in cls._fields if name not in cls._defaults]
    missing = data.draw(st.sampled_from(required))
    nargs = data.draw(st.integers(1, len(cls._fields)))
    partial = {name: v for name, v in values.items() if name != missing}
    # each call is wrong in one way only; the last gives as many fields
    # as there are, one of them unknown
    calls = [
        ((), partial),
        ((), {**values, "unknown_field": 0}),
        ([*values.values(), 0], {}),
        ([values[name] for name in cls._fields[:nargs]],
         {name: values[name] for name in cls._fields[nargs - 1:]}),
        ((), {**partial, "unknown_field": 0}),
    ]
    for args, kwargs in calls:
        for make in (cls, TWINS[cls]):
            with pytest.raises(TypeError):
                make(*args, **kwargs)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RECORD_CLASSES), st.data())
def test_equality_and_hash_match_the_twin(cls, data):
    a = data.draw(field_values(cls))
    b = data.draw(st.one_of(st.just(a), field_values(cls)))
    (ra, ta), (rb, tb) = both(cls, **a), both(cls, **b)
    assert (ra == rb) == (ta == tb) and (ra != rb) == (ta != tb)
    assert ra == ra and not ra != ra
    assert ra != ta and ta != ra  # another class compares unequal
    if TWINS[cls].__eq__ is object.__eq__:  # eq=False: identity
        assert ra != cls(**a) and hash(ra) == object.__hash__(ra)
        assert hash(ta) == object.__hash__(ta)
    else:
        assert ra == cls(**a) and hash(ra) == hash(ta) == hash(cls(**a))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RECORD_CLASSES), st.data())
def test_fields_are_frozen_as_in_the_twin(cls, data):
    values = data.draw(field_values(cls))
    name = data.draw(st.sampled_from([*cls._fields, "other"]))
    for obj in both(cls, **values):
        before = repr(obj)
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert repr(obj) == before


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RECORD_CLASSES), st.data())
def test_repr_and_pickle_round_trip(cls, data):
    record, twin = both(cls, **data.draw(field_values(cls)))
    assert repr(record) == repr(twin)
    assert repr(record).startswith(f"{cls.__qualname__}(")
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is cls and repr(back) == repr(record)
    if cls is not PointSet:
        assert [getattr(back, name) for name in cls._fields] == [getattr(record, name) for name in cls._fields]
        assert (back == record) == (TWINS[cls].__eq__ is not object.__eq__)
