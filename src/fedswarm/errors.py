"""Exception types shared across the library, and config field checks."""

import math


class FedswarmError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(FedswarmError):
    """Shapes or lengths of operands do not agree."""


class NumericError(FedswarmError):
    """Non-finite value or integer-accumulator overflow in a kernel."""


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


def check_int_fields(obj, *names) -> None:
    """ConfigError unless each named field of ``obj`` is an int (not a bool).

    Counts from a JSON config may arrive as floats or booleans; catching
    them here keeps ``range()`` and array shapes from failing later.
    """
    for name in names:
        v = getattr(obj, name)
        if not _is_int(v):
            raise ConfigError(f"{name} must be an integer, got {v!r}")


def check_float_fields(obj, *names) -> None:
    """ConfigError unless each named field of ``obj`` is a finite number.

    Ints pass; strings, null, bools and NaN/inf do not, so a mistyped
    JSON value fails here rather than deep inside a kernel.
    """
    for name in names:
        v = getattr(obj, name)
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ConfigError(f"{name} must be a finite number, got {v!r}")


def int_tuple(values, name: str) -> tuple:
    """``values`` as a tuple, or ConfigError unless it is a list/tuple of ints."""
    if not isinstance(values, (list, tuple)) or not all(_is_int(v) for v in values):
        raise ConfigError(f"{name} must be a list of integers, got {values!r}")
    return tuple(values)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)
