"""Analytic latency, power, energy, memory and bandwidth accounting.

Two calibrated operating points describe the target SoC: a low-power
mode for background local epochs and a high-performance mode used
during synchronized training. The link model is calibrated from a
single measured pair (24576 bytes in 1.7 s) with zero overhead. All
functions here are pure arithmetic over the configuration; nothing
depends on simulation state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericError
from .model import TrainableHead, head_message_bytes

__all__ = [
    "OperatingPoint",
    "LPM",
    "HPM",
    "LinkModel",
    "calibrated_uwb_link",
    "epoch_energy",
    "per_sample_latency",
    "message_time",
    "federated_epoch_time",
    "free_local_epochs",
    "MemoryModel",
    "training_memory",
    "peak_training_memory",
    "cost_report",
]


@dataclass(frozen=True)
class OperatingPoint:
    """One frequency/voltage point with its measured epoch cost."""

    name: str
    frequency_mhz: float
    voltage_mv: float
    local_epoch_latency_s: float
    power_w: float

    def __post_init__(self):
        for f in ("frequency_mhz", "voltage_mv", "local_epoch_latency_s", "power_w"):
            if not getattr(self, f) > 0:
                raise NumericError(f"{f} must be positive, got {getattr(self, f)}")


LPM = OperatingPoint("LPM", 240.0, 650.0, 0.1784, 0.0243)
HPM = OperatingPoint("HPM", 370.0, 800.0, 0.1176, 0.0531)


@dataclass(frozen=True)
class LinkModel:
    throughput_bps: float  # bytes per second
    overhead_s: float = 0.0

    def __post_init__(self):
        if not self.throughput_bps > 0:
            raise NumericError(f"throughput must be positive, got {self.throughput_bps}")
        if self.overhead_s < 0:
            raise NumericError(f"overhead must be nonnegative, got {self.overhead_s}")


def calibrated_uwb_link(msg_bytes: int = 24576, seconds: float = 1.7) -> LinkModel:
    """Back out throughput from one measured transfer, zero overhead."""
    if msg_bytes <= 0 or seconds <= 0:
        raise NumericError("calibration needs positive bytes and seconds")
    return LinkModel(msg_bytes / seconds, 0.0)


def epoch_energy(op: OperatingPoint) -> float:
    """Joules for one local epoch: power times latency."""
    return op.power_w * op.local_epoch_latency_s


def per_sample_latency(op: OperatingPoint, samples_per_epoch: int) -> float:
    if samples_per_epoch <= 0:
        raise NumericError(f"samples_per_epoch must be positive, got {samples_per_epoch}")
    return op.local_epoch_latency_s / samples_per_epoch


def message_time(link: LinkModel, n_bytes: int) -> float:
    if n_bytes <= 0:
        raise NumericError(f"message size must be positive, got {n_bytes}")
    return link.overhead_s + n_bytes / link.throughput_bps


def federated_epoch_time(
    op_train: OperatingPoint, link: LinkModel, n_nodes: int, msg_bytes: int
) -> float:
    """Parallel local epochs, then 2 serialized messages per node.

    Nodes train simultaneously (one epoch latency total) while uplink
    and downlink transfers share the single link.
    """
    if n_nodes < 0:
        raise NumericError(f"node count must be nonnegative, got {n_nodes}")
    if n_nodes == 0:
        return op_train.local_epoch_latency_s
    per_node = message_time(link, msg_bytes) * 2.0
    return op_train.local_epoch_latency_s + n_nodes * per_node


def free_local_epochs(fed_epoch_s: float, local_epoch_s: float) -> int:
    """Whole low-power epochs that fit inside one federated epoch."""
    if fed_epoch_s <= 0 or local_epoch_s <= 0:
        raise NumericError("both durations must be positive")
    ratio = fed_epoch_s / local_epoch_s
    if not math.isfinite(ratio):
        raise NumericError(f"a federated epoch of {fed_epoch_s} s holds no finite count "
                           f"of {local_epoch_s} s local epochs")
    return int(math.floor(ratio))


@dataclass(frozen=True)
class MemoryModel:
    """Byte accounting for on-node training at a given batch size."""

    param_bytes: int
    grad_bytes: int
    global_copy_bytes: int
    local_copy_bytes: int
    activation_buffer_bytes: int

    def __post_init__(self):
        for f in (
            "param_bytes",
            "grad_bytes",
            "global_copy_bytes",
            "local_copy_bytes",
            "activation_buffer_bytes",
        ):
            if getattr(self, f) < 0:
                raise NumericError(f"{f} must be nonnegative")

    @property
    def peak_working_bytes(self) -> int:
        """Params + gradients + the widest layer's activation buffers."""
        return self.param_bytes + self.grad_bytes + self.activation_buffer_bytes

    @property
    def resident_bytes(self) -> int:
        """Peak working set plus the stored global and local model copies."""
        return self.peak_working_bytes + self.global_copy_bytes + self.local_copy_bytes


def training_memory(head: TrainableHead, batch_size: int) -> MemoryModel:
    """Back-of-envelope footprint of head training.

    Activation term: per layer, input + output + output-gradient
    buffers for the whole batch, 4 bytes a float; the max over the two
    layers is charged. Model copies are 4 bytes per parameter each.
    """
    if batch_size < 1:
        raise NumericError(f"batch_size must be positive, got {batch_size}")
    p_bytes = 4 * head.parameter_count
    layer_io = [
        (head.c_feat, head.c_out),
        (head.c_out, head.num_classes),
    ]
    act = max(4 * batch_size * (cin + 2 * cout) for cin, cout in layer_io)
    return MemoryModel(
        param_bytes=p_bytes,
        grad_bytes=p_bytes,
        global_copy_bytes=p_bytes,
        local_copy_bytes=p_bytes,
        activation_buffer_bytes=act,
    )


def peak_training_memory(head: TrainableHead, batch_size: int = 4) -> int:
    return training_memory(head, batch_size).peak_working_bytes


def _fmt(x: float, digits: int = 4) -> str:
    return f"{x:.{digits}g}"


def cost_report(
    head: TrainableHead,
    link: LinkModel | None = None,
    n_nodes: int = 3,
    samples_per_epoch: int = 28,
    batch_size: int = 4,
) -> str:
    """Text table of per-point training costs and derived link figures."""
    link = link or calibrated_uwb_link()
    lines = []
    lines.append("operating point   freq[MHz]  V[mV]  latency[ms]  power[mW]  energy[mJ]")
    for op in (LPM, HPM):
        lines.append(
            f"{op.name:<17} {op.frequency_mhz:>9.0f} {op.voltage_mv:>6.0f}"
            f" {op.local_epoch_latency_s * 1e3:>12.1f}"
            f" {op.power_w * 1e3:>10.1f}"
            f" {epoch_energy(op) * 1e3:>11.2f}"
        )
    msg_bytes = head_message_bytes(head)
    fed_s = federated_epoch_time(HPM, link, n_nodes, msg_bytes)
    mem = training_memory(head, batch_size)
    lines.append("")
    lines.append(f"head parameters            : {head.parameter_count}")
    lines.append(f"message size [bytes]       : {msg_bytes}")
    lines.append(f"message time [s]           : {_fmt(message_time(link, msg_bytes))}")
    lines.append(
        f"per-sample latency [ms]    : {_fmt(per_sample_latency(LPM, samples_per_epoch) * 1e3)}"
        f" (LPM, {samples_per_epoch} samples)"
    )
    lines.append(f"federated epoch [s]        : {_fmt(fed_s)} (HPM, {n_nodes} nodes)")
    lines.append(
        f"free local epochs          : {free_local_epochs(fed_s, LPM.local_epoch_latency_s)} (LPM)"
    )
    lines.append(f"peak training memory [B]   : {mem.peak_working_bytes} (batch {batch_size})")
    lines.append(f"resident with copies [B]   : {mem.resident_bytes}")
    return "\n".join(lines) + "\n"
