"""Gaussian-cluster stand-in data, quantized like real sensor frames.

Each class is a fixed random center; samples are the center plus
within-class noise, pushed through the input quantizer. Good enough to
exhibit forgetting dynamics without shipping a face dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .quant import QuantParams, quantize
from .sessions import LabeledDataset, Sample

__all__ = ["SyntheticSpec", "gen_synthetic"]


@dataclass(frozen=True)
class SyntheticSpec:
    """Cluster geometry and counts for a generated dataset."""

    num_classes: int
    train_per_class: int = 28
    test_per_class: int = 7
    input_shape: tuple = (4, 3, 3)
    sigma_between: float = 1.0
    sigma_within: float = 0.35
    input_scale: float = 0.05
    input_zero_point: int = 0

    def __post_init__(self):
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))
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

    ``rng`` is an integer seed or a numpy Generator. Centers are drawn
    first (one per class), then per-sample noise in a fixed order:
    class by class, train before test. The same seed always yields
    byte-identical datasets.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(int(rng))
    dim = 1
    for d in spec.input_shape:
        dim *= d
    qp = spec.qparams
    centers = rng.standard_normal((spec.num_classes, dim)) * spec.sigma_between
    train, test = [], []
    sample_id = 0
    for class_id in range(spec.num_classes):
        for bucket, count in ((train, spec.train_per_class), (test, spec.test_per_class)):
            for _ in range(count):
                x = centers[class_id] + rng.standard_normal(dim) * spec.sigma_within
                qx = quantize(x.reshape(spec.input_shape), qp)
                bucket.append(Sample(sample_id, class_id, qx))
                sample_id += 1
    return (
        LabeledDataset(tuple(train), "train"),
        LabeledDataset(tuple(test), "test"),
    )
