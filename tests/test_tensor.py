"""Tensor value semantics: shape checks, immutability, equality."""

import numpy as np
import pytest

from fedswarm import DimensionError, Tensor

# -- value semantics ---------------------------------------------------------


def test_tensor_shape_data_agreement():
    t = Tensor([1.0, 2.0, 3.0, 4.0], (2, 2))
    assert t.shape == (2, 2)
    assert t.size == 4
    with pytest.raises(DimensionError):
        Tensor([1.0, 2.0, 3.0], (2, 2))
    with pytest.raises(DimensionError):
        Tensor([], (0,))


def test_tensor_immutable():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0


def test_tensor_zeros_and_eq():
    z = Tensor.zeros((3, 2))
    assert np.array_equal(z.data, np.zeros(6, np.float32))
    assert z == Tensor(np.zeros((3, 2)))
    assert z != Tensor(np.ones((3, 2)))
