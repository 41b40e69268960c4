"""Gaussian-cluster stand-in data, quantized like real sensor frames.

Each class is a fixed random center; samples are the center plus
within-class noise, pushed through the input quantizer. Good enough to
exhibit forgetting dynamics without shipping a face dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_fields
from .quant import QuantParams, QuantTensor, quantize
from .sessions import LabeledDataset

__all__ = ["SyntheticSpec", "gen_synthetic"]

# values per noise draw: bounds the float64 blocks whatever the class size
_DRAW_BLOCK = 1 << 13


@dataclass(frozen=True)
class SyntheticSpec:
    """Cluster geometry and counts for a generated dataset, checked as a config is."""

    num_classes: int
    train_per_class: int = 28
    test_per_class: int = 7
    input_shape: tuple = (4, 3, 3)
    sigma_between: float = 1.0
    sigma_within: float = 0.35
    input_scale: float = 0.05
    input_zero_point: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be positive, got {self.num_classes}")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise ConfigError("per-class sample counts must be positive")
        if len(self.input_shape) != 3 or any(d < 1 for d in self.input_shape):
            raise ConfigError(f"input_shape must be 3 positive dims, got {self.input_shape}")
        if not self.sigma_between > 0:
            raise ConfigError(f"sigma_between must be positive, got {self.sigma_between}")
        if self.sigma_within < 0:
            # zero is allowed: degenerate clusters are useful in tests
            raise ConfigError(f"sigma_within must be nonnegative, got {self.sigma_within}")
        if not self.input_scale > 0:
            raise ConfigError(f"input_scale must be positive, got {self.input_scale}")

    @property
    def qparams(self) -> QuantParams:
        return QuantParams(self.input_scale, self.input_zero_point)


def gen_synthetic(spec: SyntheticSpec, rng) -> tuple:
    """Returns (train, test) LabeledDatasets with globally unique sample ids.

    ``rng`` is a numpy Generator, anything else a ConfigError. Centers
    are drawn first (one per class), then per-sample noise in a fixed
    order: class by class, train before test, sample ids counting up in
    that order. Each split's frames are allocated once as (k * n, C, H, W),
    and a class's n frames are drawn in blocks of at most ``_DRAW_BLOCK``
    values, each quantized in one call and written into its rows of that
    buffer; consecutive draws of any shape are the same stream as one
    draw per sample. The same seed always yields byte-identical datasets.
    """
    if not isinstance(rng, np.random.Generator):
        raise ConfigError(f"rng must be a numpy Generator, got {type(rng).__name__}")
    k, shape, qp = spec.num_classes, spec.input_shape, spec.qparams
    step = max(1, _DRAW_BLOCK // math.prod(shape))
    counts = (spec.train_per_class, spec.test_per_class)
    frames = [np.empty((k * n,) + shape, np.int8) for n in counts]
    # sigmas near float64's limit give inf or NaN values, which quantize refuses
    with np.errstate(over="ignore", invalid="ignore"):
        centers = rng.standard_normal((k,) + shape) * spec.sigma_between
        for class_id in range(k):
            for buf, n in zip(frames, counts):
                split = buf.reshape((k, n) + shape)[class_id]  # a view of its n frames
                for lo in range(0, n, step):
                    rows = split[lo : lo + step]
                    x = rng.standard_normal(rows.shape)
                    x *= spec.sigma_within
                    x += centers[class_id]
                    rows[...] = quantize(x, qp).array
    for buf in frames:
        buf.flags.writeable = False  # so the split's QuantTensor shares it
    ids = np.arange(k * sum(counts)).reshape(k, -1)
    classes = np.broadcast_to(np.arange(k)[:, None], ids.shape)
    cols = (slice(None, counts[0]), slice(counts[0], None))
    return tuple(
        LabeledDataset(ids[:, c], classes[:, c], QuantTensor(buf, qp), split)
        for c, buf, split in zip(cols, frames, ("train", "test"))
    )
