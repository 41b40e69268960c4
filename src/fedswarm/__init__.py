"""Deterministic simulator for federated class-incremental learning.

A swarm of embedded nodes shares a frozen int8 feature extractor and
trains a small float32 head on locally arriving classes, synchronizing
through parameter averaging over a simulated serial link. The package
also carries the analytic cost model (latency, energy, memory,
bandwidth) for the target hardware operating points.
"""

from .costs import (
    HPM,
    LPM,
    LinkModel,
    MemoryModel,
    OperatingPoint,
    calibrated_uwb_link,
    cost_report,
    epoch_energy,
    federated_epoch_time,
    free_local_epochs,
    message_time,
    peak_training_memory,
    per_sample_latency,
    training_memory,
)
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
from .federation import (
    NodeState,
    SimNetwork,
    SyncMessage,
    TraceEvent,
    fedavg,
    local_epoch,
    run_session,
    sync_round,
    write_trace,
)
from .gradcheck import format_gradcheck, reference_total_loss, run_gradcheck
from .harness import (
    STRATEGIES,
    BackboneSpec,
    CostSpec,
    DataSpec,
    ExperimentConfig,
    HeadSpec,
    MetricsReport,
    PlanSpec,
    TrainSpec,
    config_from_dict,
    config_to_dict,
    default_config,
    emit_report,
    load_config,
    parse_report,
    report_table,
    run_experiment,
    save_config,
    strategy_block_bytes,
)
from .losses import (
    ClassPartition,
    HeadGrads,
    LossConfig,
    cross_entropy,
    mol_loss,
    prox_loss,
    sgd_step,
    total_loss,
)
from .model import (
    SplitModel,
    TrainableHead,
    expand_classifier,
    flatten_params,
    forward,
    head_logits,
    head_message_bytes,
    init_head,
    read_head,
    unflatten_params,
    write_head,
)
from .quant import (
    FrozenBackbone,
    QuantLayer,
    QuantParams,
    QuantTensor,
    backbone_digest,
    backbone_forward,
    build_backbone,
    dequantize,
    quantize,
    read_backbone,
    write_backbone,
)
from .sessions import (
    ClassRegistry,
    LabeledDataset,
    RegistryEntry,
    Sample,
    SessionPlan,
    evaluate,
    make_plan,
    node_train_view,
    precompute_features,
    read_manifest,
    registry_from_plan,
    write_manifest,
)
from .synthetic import SyntheticSpec, gen_synthetic
from .tensor import Tensor

__version__ = "0.1.0"
