"""Exception types, the number rules, the field and array checks, the host budget."""

import math
import sys
from dataclasses import Field, fields

import numpy as np


class FedswarmError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(FedswarmError):
    """Shapes or lengths of operands do not agree."""


class NumericError(FedswarmError):
    """Non-finite value, or a backbone whose int32 accumulator could overflow."""


class RegistryError(FedswarmError):
    """Invalid class registration or classifier expansion."""


class PlanError(FedswarmError):
    """Infeasible or inconsistent session plan."""


class AggregationError(FedswarmError):
    """Invalid federated aggregation inputs."""


class EvaluationError(FedswarmError):
    """Evaluation requested on an empty or unknown test set."""


class ConfigError(FedswarmError):
    """Malformed or internally inconsistent experiment configuration."""


HOST_BUDGET = 1 << 30  # bytes of host memory a run may take, priced before it allocates
_NOT_INTS = (bool, np.timedelta64)  # subclasses of int and of np.integer that are no integer


def check_budget(terms: dict, error: type = ConfigError, where: str = "") -> None:
    """``error``, naming the largest term, if byte counts ``terms`` pass ``HOST_BUDGET``."""
    if (total := sum(terms.values())) > HOST_BUDGET:
        name = max(terms, key=terms.get)
        raise error(f"{where}a price of {total} bytes exceeds the host budget of "
                    f"{HOST_BUDGET} bytes; the largest term is {name} at {terms[name]}")


def json_key(f: Field) -> str:
    """The JSON key of a config field: its ``key`` metadata, else its name."""
    return f.metadata.get("key", f.name)


def check_fields(obj, error: type = ConfigError) -> None:
    """``error`` unless each field of the dataclass ``obj`` holds a
    value of its annotated type, named by its ``json_key``.

    ``int`` is ``_is_int``; ``float`` is ``_is_finite``, where a Python
    int stays an int; ``tuple`` a list or tuple of such ints, stored back
    as a tuple; ``str`` a string. A numpy number is stored as the Python
    number it equals. Other annotations, such as a config's nested
    sections, are not checked. Counts from a JSON config may arrive as
    floats, booleans or integers too large for an array size, and any
    value as a string or null; catching them here keeps ``range()``,
    array shapes and kernels from failing later.
    """
    for f in fields(obj):
        # a string under ``from __future__ import annotations``
        kind = getattr(f.type, "__name__", f.type)
        if kind not in _KINDS:
            continue
        v = getattr(obj, f.name)
        ok, what, plain = _KINDS[kind]
        if not ok(v):
            raise error(f"{json_key(f)} must be {what}, got {v!r}")
        object.__setattr__(obj, f.name, plain(v))


def _is_int(v) -> bool:
    """A 64-bit integer, Python's or numpy's; never a bool or a timedelta."""
    if type(v) is int:  # the fast path
        return -(2**63) <= v < 2**63
    return isinstance(v, (int, np.integer)) and type(v) not in _NOT_INTS and _is_int(int(v))


def _is_finite(v) -> bool:
    """A finite real, Python's or numpy's; never a bool, nor an int past
    float's range."""
    if type(v) is float:  # the fast path
        return math.isfinite(v)
    if isinstance(v, (int, np.integer)) and type(v) not in _NOT_INTS:
        return abs(int(v)) <= sys.float_info.max
    return isinstance(v, (float, np.floating)) and math.isfinite(v)


def _plain(v):
    """``v`` as the Python number it equals if it is a numpy one, else ``v``."""
    return v.item() if isinstance(v, np.generic) else v


def _int_array(values, dtype, what: str, error: type) -> np.ndarray:
    """``values`` as a read-only ``dtype`` array; ``error`` naming ``what`` unless each
    is an integer (``_is_int``) that fits. A frozen C-ordered owning array is kept."""
    a = values if isinstance(values, np.ndarray) else np.asarray(values, object)
    a = a.astype(np.int64) if a.dtype == object and all(map(_is_int, a.flat)) else a
    lo, hi = np.iinfo(dtype).min, np.iinfo(dtype).max
    if a.size and not (a.dtype.kind in "iu" and (np.can_cast(a.dtype, dtype)
                                                 or lo <= a.min() and a.max() <= hi)):
        bad = next(v for v in a.flat if not (_is_int(v) and lo <= v <= hi))
        raise error(f"{what} must be integers that fit {np.dtype(dtype)}, got {_plain(bad)!r}")
    if a.dtype != dtype or a.flags.writeable or not (a.flags.owndata and a.flags.c_contiguous):
        a = a.astype(dtype)
        a.flags.writeable = False
    return a


_KINDS = {
    "int": (_is_int, "a 64-bit integer", int),
    "float": (_is_finite, "a finite number", _plain),
    "tuple": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
              "a list of integers", lambda v: tuple(map(int, v))),
    "str": (lambda v: isinstance(v, str), "a string", str),
}
