"""Orthogonal compression: quantization and pruning (paper §2).

The paper notes KD/quantization/pruning are complementary; these tools
apply the other two axes to PoE's experts and library, extending the
Table 4 storage accounting (artifacts ``ext_compression`` and ``ext_pruning``,
built by :mod:`repro.eval.extensions`).
"""

from .prune import magnitude_prune, sparse_nbytes, sparsity
from .quantize import (
    QuantizedTensor,
    dequantize_state,
    dequantize_tensor,
    quantization_error,
    quantize_state,
    quantize_tensor,
    quantized_nbytes,
)

__all__ = [
    "QuantizedTensor",
    "quantize_tensor",
    "dequantize_tensor",
    "quantize_state",
    "dequantize_state",
    "quantized_nbytes",
    "quantization_error",
    "magnitude_prune",
    "sparsity",
    "sparse_nbytes",
]
