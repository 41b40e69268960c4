"""The integer-array rule, ``errors._int_array``: an int8 frame or weight
payload, an int32 bias or an int64 id or class column holds integers
that fit its dtype, or its constructor raises its module's error.
Nothing is wrapped or truncated."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedswarm import (
    ClassPartition,
    DimensionError,
    LabeledDataset,
    NumericError,
    PlanError,
    QuantLayer,
    QuantParams,
    QuantTensor,
    init_head,
)
from fedswarm.errors import _int_array
from fedswarm.losses import LossConfig, check_view

_TARGETS = (np.int8, np.int32, np.int64)
_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)
# the edges of every target dtype, and of 64 bits
_EDGES = [s * 2**k + d for k in (7, 15, 31, 63) for s in (-1, 1) for d in (-1, 0, 1)]


def _fits(v, dtype) -> bool:
    """The oracle: a Python int (never a bool) inside ``dtype``'s range."""
    info = np.iinfo(dtype)
    return type(v) is int and info.min <= v <= info.max


@st.composite
def _payloads(draw):
    """(values, their entries as Python objects): an array of a numpy
    integer dtype, of bools or of floats, or a list of Python ints that
    may hold a bool, a float or an int past 64 bits."""
    kind = draw(st.sampled_from(("int", "int", "int", "bool", "float", "list")))
    if kind == "list":
        entry = st.one_of(st.integers(-300, 300), st.sampled_from(_EDGES),
                          st.integers(-(2**70), 2**70))
        values = draw(st.lists(entry, max_size=6))
        if draw(st.booleans()):  # one entry that is no integer, anywhere
            odd = draw(st.one_of(st.booleans(), st.floats(-1e3, 1e3)))
            values.insert(draw(st.integers(0, len(values))), odd)
        return values, values
    dtype = {"bool": np.bool_, "float": np.float64}.get(kind) or draw(st.sampled_from(_INTS))
    elements = (st.sampled_from([e for e in _EDGES if _fits(e, dtype)] + [0])
                if kind == "int" else None)
    shape = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)
    a = draw(hnp.arrays(dtype, shape, elements=elements))
    return a, a.ravel().tolist()


@given(_payloads(), st.sampled_from(_TARGETS))
@example(([], []), np.int8)  # an empty list comes out float64, and passes
@example((np.zeros(0), []), np.int8)
@example(([True, 2], [True, 2]), np.int64)  # numpy would make this [1, 2]
@example(([2**63], [2**63]), np.int64)  # numpy makes this a uint64 array
@example((np.array([2**63], np.uint64), [2**63]), np.int64)
@example((np.array([200, 7], np.int16), [200, 7]), np.int8)
# a timedelta is a numpy integer by type, and no integer here
@example((np.array([1, 2], "m8[s]"), np.array([1, 2], "m8[s]").tolist()), np.int64)
@example(([0, np.timedelta64(1, "s")], [0, np.timedelta64(1, "s")]), np.int64)
@settings(max_examples=200)
def test_a_value_is_accepted_exactly_when_it_is_an_integer_that_fits(payload, dtype):
    values, entries = payload
    if not all(_fits(v, dtype) for v in entries):
        with pytest.raises(NumericError, match="^payload must be integers that fit"):
            _int_array(values, dtype, "payload", NumericError)
        return
    got = _int_array(values, dtype, "payload", NumericError)
    assert got.dtype == dtype and not got.flags.writeable
    assert got.shape == np.shape(values) and got.ravel().tolist() == entries
    if isinstance(values, np.ndarray) and values.flags.writeable:
        assert not np.shares_memory(got, values)  # the caller may still write it


@given(hnp.arrays(np.int8, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)))
def test_a_frozen_owned_int8_buffer_is_shared(a):
    a = a.copy()  # owns its memory, C-ordered
    a.flags.writeable = False
    assert _int_array(a, np.int8, "payload", NumericError) is a
    # anything else is a read-only copy: a view, a writeable buffer, another dtype
    for other in (a[::-1], a.astype(np.int16)):
        got = _int_array(other, np.int8, "payload", NumericError)
        assert not got.flags.writeable and np.array_equal(got, other)
        assert not a.size or not np.shares_memory(got, a)


_QP = QuantParams(0.1)


def _frames(n):
    return QuantTensor(np.zeros(n, np.int8), (n, 1, 1, 1), _QP)


def _view(targets):
    head = init_head(1, 1, 3, np.random.default_rng(0))
    return check_view(head, (np.zeros((3, 1), np.float32), targets),
                      ClassPartition(frozenset(), frozenset({0, 1, 2})), LossConfig())


# each used to come back wrapped or truncated, or as numpy's OverflowError
REFUSED = {
    "tensor_int16_wraps": (lambda: QuantTensor(np.array([200, 7], np.int16), (2,), _QP),
                           NumericError, "QuantTensor data .* got 200$"),
    "tensor_floats_truncate": (lambda: QuantTensor(np.array([200, 1.7, -3.9]), (3,), _QP),
                               NumericError, "QuantTensor data .* got 200.0$"),
    "layer_wraps_both": (lambda: QuantLayer(np.array([[200, 3]], np.int16), np.array([2**40]),
                                            0.1, 0.1), NumericError, "layer weights .* got 200$"),
    "layer_bias_wraps": (lambda: QuantLayer(np.array([[20, 3]], np.int16), np.array([2**40]),
                                            0.1, 0.1), NumericError,
                         "layer bias must be integers that fit int32, got 1099511627776$"),
    "dataset_fraction_ids": (lambda: LabeledDataset([0.0, 1.7, 2.2], [0, 1, 2], _frames(3),
                                                    "train"), PlanError, "ids .* got 0.0$"),
    "dataset_bool_classes": (lambda: LabeledDataset([0, 1, 2], [True, False, 2.9], _frames(3),
                                                    "train"), PlanError, "classes .* got True$"),
    "dataset_string_classes": (lambda: LabeledDataset([0, 1, 2], ["3", "1", "0"], _frames(3),
                                                      "train"), PlanError, "got '3'$"),
    "dataset_huge_class": (lambda: LabeledDataset([0, 1, 2], [0, 1, 2**64], _frames(3),
                                                  "train"), PlanError,
                           "classes must be integers that fit int64, got 18446744073709551616$"),
    "view_fraction_targets": (lambda: _view(np.array([0.0, 1.0, 1.5])), DimensionError,
                              r"targets of a training view \(features \(M, 1\).* got 0.0$"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_payloads_that_used_to_wrap_are_refused_with_one_line(case):
    build, error, match = REFUSED[case]
    with pytest.raises(error, match=match) as info:
        build()
    assert "\n" not in str(info.value)


def test_integers_that_fit_are_accepted_whatever_their_width():
    assert QuantTensor(np.array([100, -7], np.int16), (2,), _QP).data.tolist() == [100, -7]
    layer = QuantLayer(np.array([[20, 3]], np.uint16), [2**31 - 1], 0.1, 0.1)
    assert layer.weight.dtype == np.int8 and layer.bias.tolist() == [2**31 - 1]
    ds = LabeledDataset(np.array([5, 6, 7], np.uint32), (np.int8(2), 1, np.uint64(0)),
                        _frames(3), "train")
    assert ds.ids.tolist() == [5, 6, 7] and ds.classes.tolist() == [2, 1, 0]
    assert _view(np.array([2, 0, 1], np.uint8))[1].tolist() == [2, 0, 1]
