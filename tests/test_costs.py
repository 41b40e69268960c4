"""Analytic cost model: latency, power, energy, memory, link arithmetic."""

import math

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
    cost_block,
    cost_report,
    epoch_energy,
    federated_epoch_time,
    free_local_epochs,
    message_time,
    peak_training_memory,
    per_sample_latency,
)


def _head_6144() -> TrainableHead:
    # 158 features -> 32 hidden -> 32 classes
    return TrainableHead(np.zeros(6144, np.float32), (158, 32, 32))


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


def test_message_time_is_bytes_over_throughput():
    link = LinkModel(1000.0)
    assert message_time(link, 500) == 0.5
    assert message_time(calibrated_uwb_link(), 8304) == 8304 / (24576 / 1.7)


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
    # a count past float64's range, or none at all, is not a whole number
    for fed, local in [(1e308, 1e-3), (math.inf, 0.1784), (math.nan, 0.1784), (1.0, 5e-324)]:
        with pytest.raises(NumericError, match="no finite count"):
            free_local_epochs(fed, local)


# -- memory ------------------------------------------------------------------------


def test_memory_components():
    head = _head_6144()
    # params + grads, then the widest layer: 158 in, 32 out, activations
    # + their gradients for a batch of 4
    assert peak_training_memory(head, 4) == 2 * 4 * 6144 + 4 * 4 * (158 + 2 * 32)
    assert peak_training_memory(head) == peak_training_memory(head, 4)
    # a classifier wider than its input makes the second layer the widest
    wide = TrainableHead(np.zeros(8 * 10 + 8 + 50 * 8 + 50, np.float32), (10, 8, 50))
    assert peak_training_memory(wide, 3) == 2 * 4 * wide.parameter_count + 4 * 3 * (8 + 2 * 50)
    assert isinstance(peak_training_memory(wide, 3), int)


def test_memory_rejects_bad_batch():
    for batch in (0, -1):
        with pytest.raises(NumericError, match="batch_size must be positive"):
            peak_training_memory(_head_6144(), batch)


# -- cost block ----------------------------------------------------------------------


def test_cost_block_is_each_figure_from_its_function():
    head, link = _head_6144(), calibrated_uwb_link(8304, 0.5744)
    fed_s = federated_epoch_time(HPM, link, 5, 24576)
    assert cost_block(head, link, 5, 8) == {
        "message_bytes": 24576,
        "federated_epoch_s": fed_s,
        "epoch_energy_lpm_j": epoch_energy(LPM),
        "epoch_energy_hpm_j": epoch_energy(HPM),
        "free_local_epochs": free_local_epochs(fed_s, LPM.local_epoch_latency_s),
        "peak_training_memory_bytes": peak_training_memory(head, 8),
    }


def test_cost_block_raises_what_its_figures_raise():
    with pytest.raises(NumericError, match="no finite count"):
        cost_block(_head_6144(), calibrated_uwb_link(1, 1e308), 3, 4)
    with pytest.raises(NumericError, match="batch_size"):
        cost_block(_head_6144(), calibrated_uwb_link(), 3, 0)


# a count is a 64-bit integer and a field or a calibration time a finite
# real, never a bool or a string: each used to be priced, built or a bare
# TypeError, and is a NumericError naming the value
COST_INPUTS = {
    "fraction_of_a_node": (lambda: cost_block(_head_6144(), calibrated_uwb_link(), 2.5, 4),
                           "node count .* got 2.5$"),
    "float_batch": (lambda: cost_block(_head_6144(), calibrated_uwb_link(), 3, 4.0),
                    "batch_size .* got 4.0$"),
    "bool_batch": (lambda: peak_training_memory(_head_6144(), True), "batch_size .* got True$"),
    "bool_samples": (lambda: per_sample_latency(LPM, True), "samples_per_epoch .* got True$"),
    "bool_calibration_bytes": (lambda: calibrated_uwb_link(True, 1.7),
                               "calibration bytes .* got True$"),
    "nan_calibration_seconds": (lambda: calibrated_uwb_link(24576, math.nan),
                                "calibration seconds .* got nan$"),
    "fraction_message": (lambda: federated_epoch_time(HPM, calibrated_uwb_link(), 0, 2.5),
                         "message size .* got 2.5$"),
    "string_message": (lambda: message_time(calibrated_uwb_link(), "5"),
                       "message size .* got '5'$"),
    "infinite_link": (lambda: LinkModel(math.inf), "throughput_bps .* got inf$"),
    "bool_frequency": (lambda: OperatingPoint("x", True, 1.0, 1.0, 1.0),
                       "frequency_mhz .* got True$"),
    "string_frequency": (lambda: OperatingPoint("x", "1", 1.0, 1.0, 1.0),
                         "frequency_mhz .* got '1'$"),
}


@pytest.mark.parametrize("case", sorted(COST_INPUTS))
def test_cost_inputs_follow_the_number_rules(case):
    build, match = COST_INPUTS[case]
    with pytest.raises(NumericError, match=match):
        build()


def test_numpy_cost_inputs_are_taken():
    assert peak_training_memory(_head_6144(), np.int32(4)) == peak_training_memory(_head_6144(), 4)
    assert LinkModel(np.float32(2.0)).throughput_bps == 2.0
    assert cost_block(_head_6144(), calibrated_uwb_link(np.int64(24576), 1.7), np.int16(3), 4) == (
        cost_block(_head_6144(), calibrated_uwb_link(), 3, 4))


# -- report ------------------------------------------------------------------------


def test_cost_report_contents():
    text = cost_report(_head_6144())
    assert "LPM" in text and "HPM" in text
    assert "24576" in text  # message bytes of the 6144-param head
    assert "head parameters            : 6144" in text
    assert text.endswith("\n")
    rows = [ln for ln in text.splitlines() if ln.startswith(("LPM", "HPM"))]
    assert len(rows) == 2
    # the resident figure adds the global and local model copies to the peak
    peak = peak_training_memory(_head_6144(), 4)
    assert f"peak training memory [B]   : {peak} (batch 4)\n" in text
    assert f"resident with copies [B]   : {peak + 2 * 4 * 6144}\n" in text
