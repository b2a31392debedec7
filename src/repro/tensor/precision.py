"""Precision policies for the numpy training substrate.

TorchGT's evaluation (Table VII) compares FP32 training against BF16
training: FlashAttention only supports FP16/BF16, which degrades model
accuracy on some datasets, while TorchGT runs FP32 without giving up its
speedup.  Real bfloat16 hardware is unavailable here, so we *simulate* the
precision loss: ``quantize_bf16`` rounds a float32/float64 array to the
nearest representable bfloat16 value (8-bit exponent, 7-bit mantissa) by
round-to-nearest-even truncation of the low 16 bits of the float32 bit
pattern.  Running every op's output through this rounding reproduces the
error accumulation of genuine BF16 arithmetic closely enough to show the
accuracy gap the paper attributes to reduced precision.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Precision", "quantize_bf16", "apply_precision"]


class Precision:
    """Supported compute precisions.

    ``FP32`` / ``FP64`` are native numpy dtypes.  ``BF16`` is simulated:
    storage stays float32 but every op output is rounded to the bfloat16
    grid, mirroring mixed-precision training where accumulation happens in
    fp32 but values are stored/communicated in bf16.
    """

    FP64 = "fp64"
    FP32 = "fp32"
    BF16 = "bf16"

    ALL = (FP64, FP32, BF16)

    @staticmethod
    def dtype(precision: str) -> np.dtype:
        """Return the numpy storage dtype used for ``precision``."""
        # a table, not np.dtype(...) per call: every op output passes here
        try:
            return _STORAGE_DTYPES[precision]
        except KeyError:
            raise ValueError(f"unknown precision: {precision!r}") from None

    @staticmethod
    def bytes_per_element(precision: str) -> int:
        """Bytes each element occupies on the modeled device.

        BF16 really is 2 bytes on device even though we store float32 on
        the host; the hardware model uses this for memory accounting.
        """
        if precision == Precision.FP64:
            return 8
        if precision == Precision.FP32:
            return 4
        if precision == Precision.BF16:
            return 2
        raise ValueError(f"unknown precision: {precision!r}")


_STORAGE_DTYPES = {Precision.FP64: np.dtype(np.float64),
                   Precision.FP32: np.dtype(np.float32),
                   Precision.BF16: np.dtype(np.float32)}


def quantize_bf16(x: np.ndarray) -> np.ndarray:
    """Round ``x`` to the nearest bfloat16-representable float32 values.

    Implements round-to-nearest-even on the float32 bit pattern: bfloat16
    is the top 16 bits of IEEE float32, so we add the rounding bias and
    zero the low 16 bits.
    """
    x32 = np.asarray(x, dtype=np.float32)
    bits = x32.view(np.uint32)
    # round-to-nearest-even: bias depends on the bit just above the cut
    rounding_bias = ((bits >> 16) & 1) + np.uint32(0x7FFF)
    rounded = (bits + rounding_bias) & np.uint32(0xFFFF0000)
    out = rounded.view(np.float32)
    # preserve NaN payloads conservatively
    nan_mask = np.isnan(x32)
    if nan_mask.any():
        out = np.where(nan_mask, np.float32(np.nan), out)
    return out


def apply_precision(x: np.ndarray, precision: str) -> np.ndarray:
    """Cast/round ``x`` according to ``precision``.

    This is the single hook every autograd op output passes through; it is
    a no-op cast for FP32/FP64 and a bf16 grid rounding for BF16.
    """
    if precision == Precision.BF16:
        return quantize_bf16(x)
    return np.asarray(x, dtype=Precision.dtype(precision))
