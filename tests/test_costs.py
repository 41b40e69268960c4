"""Analytic cost model: latency, power, energy, memory, link arithmetic."""

import numpy as np
import pytest

from fedswarm import (
    HPM,
    LPM,
    LinkModel,
    NumericError,
    OperatingPoint,
    TrainableHead,
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


def _head_6144() -> TrainableHead:
    return TrainableHead(
        conv_w=np.zeros((32, 158), np.float32),
        conv_b=np.zeros((32,), np.float32),
        cls_w=np.zeros((32, 32), np.float32),
        cls_b=np.zeros((32,), np.float32),
    )


# -- operating points -----------------------------------------------------------


def test_calibrated_operating_points():
    assert (LPM.frequency_mhz, LPM.voltage_mv) == (240.0, 650.0)
    assert (HPM.frequency_mhz, HPM.voltage_mv) == (370.0, 800.0)


def test_energy_is_power_times_latency():
    for op in (LPM, HPM):
        assert epoch_energy(op) == op.power_w * op.local_epoch_latency_s


def test_epoch_energy_reference_values():
    assert abs(epoch_energy(LPM) - 4.3e-3) / 4.3e-3 < 0.02
    assert abs(epoch_energy(HPM) - 6.2e-3) / 6.2e-3 < 0.02


def test_energy_scales_linearly_with_power():
    tiny = OperatingPoint("X", 100.0, 500.0, 0.2, 1e-9)
    assert epoch_energy(tiny) == pytest.approx(2e-10)


def test_operating_point_requires_positive_fields():
    with pytest.raises(NumericError):
        OperatingPoint("X", 100.0, 500.0, 0.2, 0.0)
    with pytest.raises(NumericError):
        OperatingPoint("X", 100.0, 500.0, -0.1, 0.01)


def test_per_sample_latency():
    assert per_sample_latency(LPM, 1) == LPM.local_epoch_latency_s
    assert abs(per_sample_latency(LPM, 28) - 6.4e-3) / 6.4e-3 < 0.02
    assert per_sample_latency(HPM, 28) == pytest.approx(4.2e-3, rel=1e-9)
    with pytest.raises(NumericError):
        per_sample_latency(LPM, 0)


# -- link ------------------------------------------------------------------------


def test_calibrated_link_round_trips_measurement():
    link = calibrated_uwb_link(24576, 1.7)
    assert message_time(link, 24576) == pytest.approx(1.7, rel=1e-12)
    with pytest.raises(NumericError):
        calibrated_uwb_link(0, 1.7)
    with pytest.raises(NumericError):
        message_time(link, 0)


def test_message_time_includes_overhead():
    link = LinkModel(1000.0, overhead_s=0.25)
    assert message_time(link, 500) == 0.25 + 0.5


def test_federated_epoch_reference_value():
    link = calibrated_uwb_link()
    fed = federated_epoch_time(HPM, link, 3, 24576)
    assert fed == pytest.approx(0.1176 + 3 * (1.7 + 1.7), rel=1e-12)
    assert abs(fed - 10.5) / 10.5 < 0.05


def test_federated_epoch_degenerate_and_monotone():
    link = calibrated_uwb_link()
    assert federated_epoch_time(HPM, link, 0, 24576) == HPM.local_epoch_latency_s
    with pytest.raises(NumericError):
        federated_epoch_time(HPM, link, -1, 24576)
    base = federated_epoch_time(HPM, link, 3, 24576)
    assert federated_epoch_time(HPM, link, 4, 24576) > base
    assert federated_epoch_time(HPM, link, 3, 30000) > base
    slower = LinkModel(link.throughput_bps / 2)
    assert federated_epoch_time(HPM, slower, 3, 24576) > base


def test_free_local_epochs():
    assert free_local_epochs(10.5, 0.1784) == 58
    assert free_local_epochs(0.1, 0.1784) == 0
    fed = federated_epoch_time(HPM, calibrated_uwb_link(), 3, 24576)
    assert free_local_epochs(fed, LPM.local_epoch_latency_s) == 57
    with pytest.raises(NumericError):
        free_local_epochs(0.0, 0.1784)


# -- memory ------------------------------------------------------------------------


def test_memory_components():
    head = _head_6144()
    mem = training_memory(head, batch_size=4)
    assert mem.param_bytes == mem.grad_bytes == 4 * 6144
    assert mem.global_copy_bytes == mem.local_copy_bytes == 4 * 6144
    # widest layer: 158 in, 32 out, activations + their gradients
    assert mem.activation_buffer_bytes == 4 * 4 * (158 + 2 * 32)
    assert mem.peak_working_bytes >= 2 * 4 * 6144
    assert mem.resident_bytes == mem.peak_working_bytes + 2 * 4 * 6144
    assert peak_training_memory(head, 4) == mem.peak_working_bytes


def test_memory_rejects_bad_batch():
    with pytest.raises(NumericError):
        training_memory(_head_6144(), 0)


# -- report ------------------------------------------------------------------------


def test_cost_report_contents():
    text = cost_report(_head_6144())
    assert "LPM" in text and "HPM" in text
    assert "24576" in text  # message bytes of the 6144-param head
    assert "head parameters            : 6144" in text
    assert text.endswith("\n")
    rows = [ln for ln in text.splitlines() if ln.startswith(("LPM", "HPM"))]
    assert len(rows) == 2
