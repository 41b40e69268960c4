"""Exception types shared across the library, config field checks, the host budget."""

import math
import sys
from dataclasses import Field, fields


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


def check_budget(terms: dict, error: type = ConfigError, where: str = "") -> None:
    """``error``, naming the largest term, if byte counts ``terms`` pass ``HOST_BUDGET``."""
    if (total := sum(terms.values())) > HOST_BUDGET:
        name = max(terms, key=terms.get)
        raise error(f"{where}a price of {total} bytes exceeds the host budget of "
                    f"{HOST_BUDGET} bytes; the largest term is {name} at {terms[name]}")


def json_key(f: Field) -> str:
    """The JSON key of a config field: its ``key`` metadata, else its name."""
    return f.metadata.get("key", f.name)


def check_fields(obj) -> None:
    """ConfigError unless each field of the dataclass ``obj`` holds a
    value of its annotated type, named by its ``json_key``.

    ``int`` is a 64-bit int (not a bool); ``float`` a finite number, ints
    included; ``tuple`` a list or tuple of such ints, stored back as a
    tuple; ``str`` a string. Other annotations, such as a config's nested
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
        ok, what = _KINDS[kind]
        if not ok(v):
            raise ConfigError(f"{json_key(f)} must be {what}, got {v!r}")
        if kind == "tuple":
            object.__setattr__(obj, f.name, tuple(v))


def _is_finite(v) -> bool:
    if isinstance(v, float):
        return math.isfinite(v)
    # an int beyond the float range is not a usable number either
    return isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and -(2**63) <= v < 2**63


_KINDS = {
    "int": (_is_int, "a 64-bit integer"),
    "float": (_is_finite, "a finite number"),
    "tuple": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)),
              "a list of integers"),
    "str": (lambda v: isinstance(v, str), "a string"),
}
