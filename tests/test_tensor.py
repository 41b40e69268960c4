"""The ordered fold every contraction runs on."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from fedswarm.tensor import _scan

# magnitudes that cancel: 2**24 + 1 rounds back to 2**24 in float32, so
# any change in the order of a sum changes its bits; the signed zeros
# catch a sum that lost its +0.0 seed
_CANCELLING = np.array([2.0**24, 1.0, -(2.0**24), 0.0, -0.0, 0.5, -3.0], np.float32)


def _loop_fold(x):
    acc = np.zeros(x.shape[1:], np.float32)
    for v in np.asarray(x, np.float32):
        acc += v
    return acc


def _fold_input(k, trail, layout, seed):
    """A (k, *trail) array of cancelling values in the given memory layout."""
    rng = np.random.default_rng(seed)
    values = rng.choice(_CANCELLING, (k,) + trail)
    if layout == "transposed":  # a C array's transpose: k is the fast axis
        return np.ascontiguousarray(values.T).T
    if layout == "sliced":  # every other row and trailing entry of a wider array
        wide = np.zeros((2 * k,) + tuple(2 * t for t in trail), np.float32)
        wide[(slice(None, None, 2),) * wide.ndim] = values
        return wide[(slice(None, None, 2),) * wide.ndim]
    if layout == "F":
        return np.asfortranarray(values)
    if layout == "float64":
        return values.astype(np.float64)
    return values


@st.composite
def _fold_cases(draw):
    k = draw(st.one_of(st.integers(0, 16), st.integers(0, 4096)))
    width = draw(st.integers(1, 64))
    split = draw(st.sampled_from([d for d in (1, 2, 4, 8) if width % d == 0]))
    trail = (width,) if split == 1 else (split, width // split)
    layout = draw(st.sampled_from(["C", "F", "transposed", "sliced", "float64"]))
    return _fold_input(k, trail, layout, draw(st.integers(0, 2**32 - 1)))


@given(_fold_cases())
@example(_fold_input(4096, (1,), "C", 0))  # W == 1: a 1-D reduce would sum pairwise
@example(_fold_input(64, (3,), "transposed", 1))  # k contiguous: must be copied first
@example(_fold_input(64, (2,), "F", 2))
@example(-np.zeros((5, 3), np.float32))  # all -0.0: the sum is +0.0
@example(-np.zeros((5, 1), np.float32))
def test_scan_folds_in_index_order(x):
    assert _scan(x).tobytes() == _loop_fold(x).tobytes()
