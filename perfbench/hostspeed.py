"""Host-speed calibration: a fixed kernel sampled during each timed pass.

The benchmark runs on a few cores of a shared host whose speed drifts
by 1.0-1.5x within minutes, so raw pass times of the same code spread
wider than any useful bound. While a pass runs, a SIGALRM handler runs
``kernel`` every ``PERIOD_S`` seconds and times it; the kernel's time
is taken out of the pass, and the pass is rescaled by the host's mean
speed over it: ``REF_S`` times the mean of 1 / kernel time. Each sample
stands for an equal slice of the pass, so a few seconds at a different
speed (a host running faster after idle, say) count in proportion to
their length, and a sample slowed by an interrupt counts for little.
The result reads as wall seconds on a host where the kernel takes
``REF_S``.

The kernel is a frozen miniature of the simulator's training step
(Python graph nodes with backward closures over small float32 matmuls,
batch 4), so it slows with the host the way the simulator does. It
imports nothing from the simulator: a change to the program never
changes the kernel's time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.1
STEPS = 25
# typical kernel time on an Intel Xeon host with 2 shared vCPUs
REF_S = 1.5e-3

_rng = np.random.default_rng(7)
_X = _rng.standard_normal((4, 64)).astype(np.float32)
_W1 = (_rng.standard_normal((64, 32)) * 0.1).astype(np.float32)
_W2 = (_rng.standard_normal((32, 10)) * 0.1).astype(np.float32)
_TARGETS = [1, 2, 3, 4]


class _Node:
    __slots__ = ("value", "parents", "backward")

    def __init__(self, value, parents=(), backward=None):
        self.value, self.parents, self.backward = value, parents, backward


def kernel(steps: int = STEPS) -> float:
    """Forward and backward through a 2-layer head, ``steps`` SGD steps."""
    w1, w2 = _W1.copy(), _W2.copy()
    for _ in range(steps):
        x = _Node(_X)
        a = _Node(x.value @ w1, (x,), lambda g: [g @ w1.T])
        h = _Node(np.maximum(a.value, 0), (a,), lambda g, a=a: [g * (a.value > 0)])
        z = _Node(h.value @ w2, (h,), lambda g: [g @ w2.T])
        e = np.exp(z.value - z.value.max(axis=1, keepdims=True))
        g = e / e.sum(axis=1, keepdims=True)
        g[np.arange(len(_TARGETS)), _TARGETS] -= 1.0
        g /= len(_TARGETS)
        grads = {id(z): g}
        for node in (z, h, a):
            for parent, pg in zip(node.parents, node.backward(grads[id(node)])):
                grads[id(parent)] = pg
        w2 -= 0.01 * (h.value.T @ g)
        w1 -= 0.01 * (_X.T @ grads[id(a)])
    return float(w1.sum() + w2.sum())


def _speed(samples) -> float:
    """The host's mean speed over equal slices, one kernel time each."""
    return REF_S * statistics.fmean(1.0 / s for s in samples)


def speed_now(runs: int = 20) -> float:
    """The host's speed over ``runs`` back-to-back kernels (about 30 ms)."""
    samples = []
    for _ in range(runs):
        t0 = perf_counter()
        kernel()
        samples.append(perf_counter() - t0)
    return _speed(samples)


class Sampler:
    """Samples ``kernel`` on a wall-clock timer while the block runs."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds spent inside the handler

    def _sample(self, signum, frame):
        t0 = perf_counter()
        kernel()
        self.samples.append(perf_counter() - t0)
        self.spent += perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def own_clock(self) -> float:
        """``perf_counter`` less the time spent in the kernel so far."""
        return perf_counter() - self.spent

    def rescale(self, wall_s: float) -> tuple:
        """(wall seconds without the kernel, the same at reference speed)."""
        own = wall_s - self.spent
        if not self.samples:  # too short to sample: take the host as it is
            return own, own
        return own, own * _speed(self.samples)
