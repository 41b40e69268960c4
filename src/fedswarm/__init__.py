"""Deterministic simulator for federated class-incremental learning.

A swarm of embedded nodes shares a frozen int8 feature extractor and
trains a small float32 head on locally arriving classes, synchronizing
through parameter averaging over a simulated serial link. The package
also carries the analytic cost model (latency, energy, memory,
bandwidth) for the target hardware operating points.
"""

from .errors import (
    AggregationError,
    ConfigError,
    DimensionError,
    EvaluationError,
    FedswarmError,
    NumericError,
    PlanError,
    RegistryError,
)

# every module's public names (its ``__all__``) are the package's
from .costs import *  # noqa: F401,F403
from .federation import *  # noqa: F401,F403
from .gradcheck import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .losses import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .quant import *  # noqa: F401,F403
from .sessions import *  # noqa: F401,F403
from .synthetic import *  # noqa: F401,F403
from .tensor import *  # noqa: F401,F403

__version__ = "0.1.0"
