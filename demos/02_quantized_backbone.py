"""Push a sensor frame through the frozen int8 feature extractor.

Shows the full inference-side story: float32 frame array -> affine
int8 quantization -> integer-only conv stack -> float32 feature array.
"""

import numpy as np

from fedswarm import (
    QuantParams,
    backbone_forward,
    build_backbone,
    dequantize,
    quantize,
)

rng = np.random.default_rng(3)

backbone = build_backbone((4, 32, 48), rng)
print(f"layers               : {[l.weight.shape for l in backbone.layers]}")
print(f"feature width        : {backbone.feature_dim}")

# a fake 4-channel 3x3 frame, quantized like the sensor would
frame = rng.uniform(-0.5, 0.5, size=(4, 3, 3)).astype(np.float32)
qframe = quantize(frame, QuantParams(scale=0.05, zero_point=0))
print(f"int8 frame range     : [{qframe.data.min()}, {qframe.data.max()}]")
err = np.abs(dequantize(qframe) - frame).max()
print(f"quantization error   : {err:.4f} (half step = {0.05 / 2})")

feats = backbone_forward(backbone, qframe)
print(f"features[:4]         : {feats[:4]}")

