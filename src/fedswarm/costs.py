"""Analytic latency, power, energy, memory and bandwidth accounting.

Two calibrated operating points describe the target SoC: a low-power
mode for background local epochs and a high-performance mode used
during synchronized training. The link model is calibrated from a
single measured pair (24576 bytes in 1.7 s): a message takes its
bytes over the throughput. ``cost_block`` prices the report's cost
block for a head, and both the config check and ``cost_report`` read
their figures from it. All functions here are pure arithmetic over
the configuration; nothing depends on simulation state.
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
    "peak_training_memory",
    "cost_block",
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

    def __post_init__(self):
        if not self.throughput_bps > 0:
            raise NumericError(f"throughput must be positive, got {self.throughput_bps}")


def calibrated_uwb_link(msg_bytes: int = 24576, seconds: float = 1.7) -> LinkModel:
    """Back out throughput from one measured transfer."""
    if msg_bytes <= 0 or seconds <= 0:
        raise NumericError("calibration needs positive bytes and seconds")
    return LinkModel(msg_bytes / seconds)


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
    return n_bytes / link.throughput_bps


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


def peak_training_memory(head: TrainableHead, batch_size: int = 4) -> int:
    """Back-of-envelope working set of head training, in bytes.

    Parameters and gradients take 4 bytes a parameter each. Per layer,
    the input, output and output-gradient buffers of the whole batch
    take 4 bytes a float; the max over the two layers is charged.
    """
    if batch_size < 1:
        raise NumericError(f"batch_size must be positive, got {batch_size}")
    layer_io = [(head.c_feat, head.c_out), (head.c_out, head.num_classes)]
    act = max(4 * batch_size * (cin + 2 * cout) for cin, cout in layer_io)
    return 2 * 4 * head.parameter_count + act


def cost_block(head: TrainableHead, link: LinkModel, n_nodes: int, batch_size: int) -> dict:
    """The report's cost block for ``head`` on ``link``, without the
    run's own link clock: sync message size, HPM federated epoch of
    ``n_nodes`` nodes, epoch energies, the LPM epochs that fit in one
    federated epoch and peak training memory at ``batch_size``."""
    msg_bytes = head_message_bytes(head)
    fed_s = federated_epoch_time(HPM, link, n_nodes, msg_bytes)
    return {
        "message_bytes": msg_bytes,
        "federated_epoch_s": fed_s,
        "epoch_energy_lpm_j": epoch_energy(LPM),
        "epoch_energy_hpm_j": epoch_energy(HPM),
        "free_local_epochs": free_local_epochs(fed_s, LPM.local_epoch_latency_s),
        "peak_training_memory_bytes": peak_training_memory(head, batch_size),
    }


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
    block = cost_block(head, link, n_nodes, batch_size)
    lines = []
    lines.append("operating point   freq[MHz]  V[mV]  latency[ms]  power[mW]  energy[mJ]")
    for op, joules in ((LPM, block["epoch_energy_lpm_j"]), (HPM, block["epoch_energy_hpm_j"])):
        lines.append(
            f"{op.name:<17} {op.frequency_mhz:>9.0f} {op.voltage_mv:>6.0f}"
            f" {op.local_epoch_latency_s * 1e3:>12.1f}"
            f" {op.power_w * 1e3:>10.1f}"
            f" {joules * 1e3:>11.2f}"
        )
    msg_bytes = block["message_bytes"]
    peak = block["peak_training_memory_bytes"]
    lines.append("")
    lines.append(f"head parameters            : {head.parameter_count}")
    lines.append(f"message size [bytes]       : {msg_bytes}")
    lines.append(f"message time [s]           : {_fmt(message_time(link, msg_bytes))}")
    lines.append(
        f"per-sample latency [ms]    : {_fmt(per_sample_latency(LPM, samples_per_epoch) * 1e3)}"
        f" (LPM, {samples_per_epoch} samples)"
    )
    lines.append(f"federated epoch [s]        : {_fmt(block['federated_epoch_s'])} "
                 f"(HPM, {n_nodes} nodes)")
    lines.append(f"free local epochs          : {block['free_local_epochs']} (LPM)")
    lines.append(f"peak training memory [B]   : {peak} (batch {batch_size})")
    # plus the global and local model copies, 4 bytes a parameter each
    lines.append(f"resident with copies [B]   : {peak + 2 * 4 * head.parameter_count}")
    return "\n".join(lines) + "\n"
