"""Exception types shared across the library."""


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
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"{name} must be an integer, got {v!r}")
