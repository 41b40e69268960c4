"""In-memory spans around calls into the simulator's modules.

A span is (name, start, end, parent). The benchmark wraps public
functions at the module attribute their caller looks up (for example
``fedswarm.federation.total_loss``, which ``run_session`` reaches through
``local_epoch``), records one span per call, and restores the original
attributes afterwards. Nothing inside the library is edited. Spans stay
in memory while the run lasts and are written out once at the end.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    """Span and counter store for one traced pass (single thread)."""

    def __init__(self):
        self.clock = perf_counter  # run.py swaps in one without the calibration kernel's time
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = self.clock()

    def wrap(self, fn, name, count=None):
        """``fn`` recording a span per call.

        ``name`` is a span name or a function of the call's arguments
        that returns one. ``count(counts, *args, **kwargs)``, if given,
        adds to the counters after the call returns, outside the span.
        """

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            with self.span(label):
                out = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, *args, **kwargs)
            return out

        return traced

    def write(self, path) -> None:
        lines = ["index\tname\tstart_s\tend_s\tparent"]
        lines.extend(
            f"{i}\t{n}\t{s!r}\t{e!r}\t{p}" for i, (n, s, e, p) in enumerate(self.spans)
        )
        Path(path).write_text("\n".join(lines) + "\n")


def layer_times(spans) -> dict:
    """name -> (calls, busy seconds, self seconds).

    Busy time sums each span's duration. Self time subtracts the
    durations of the span's direct children; spans of one thread nest
    strictly, so children never overlap and their sum is the covered
    part of the parent's interval.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls, busy, self_s = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, busy + (end - start), self_s + (end - start) - child[i])
    return out


@contextmanager
def installed(patches):
    """Set each (module name, attribute, value) for the block, then restore.

    The module may also name a class inside a module, as
    ``"fedswarm.federation:SimNetwork"``.
    """
    saved = []
    try:
        for target, attr, value in patches:
            obj = resolve(target)
            saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj
