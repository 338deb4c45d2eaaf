"""Pure-NumPy reference operators (NCHW, batch size 1).

These define the ground-truth numerics for every CNN layer the thesis
deploys (Section 2.1.2).  Tensors are CHW ``float32`` arrays (the leading
N=1 batch dimension is implicit throughout, matching the thesis's
single-image inference assumption).

Implementations are vectorized with NumPy (no Python-level loops over
pixels) per the HPC guide: convolutions use stride-tricks windowing +
``tensordot`` (BLAS; depthwise uses ``einsum``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ReproError

_F32 = np.float32


def _check_chw(x: np.ndarray, name: str = "input") -> None:
    if x.ndim != 3:
        raise ReproError(f"{name} must be CHW (3-D), got shape {x.shape}")


def conv2d_out_size(size: int, field: int, stride: int, pad: int) -> int:
    """Output spatial size: floor((H - F + 2P)/S) + 1 (thesis Section 2.1.2).

    Floor semantics: a stride that does not divide exactly simply drops the
    trailing positions (standard convolution behaviour, e.g. ResNet's 1x1
    stride-2 projections on 56x56 maps).
    """
    span = size - field + 2 * pad
    if span < 0:
        raise ReproError(
            f"filter larger than input: size={size} field={field} pad={pad}"
        )
    return span // stride + 1


def pad2d(x: np.ndarray, pad) -> np.ndarray:
    """Zero-pad spatial dims of a CHW tensor.

    ``pad`` is either an int (symmetric) or a ``(before, after)`` pair —
    TF-style stride-2 'same' convolutions pad asymmetrically, which is why
    TVM emits explicit padding kernels for MobileNet/ResNet.
    """
    _check_chw(x)
    before, after = (pad, pad) if isinstance(pad, int) else tuple(pad)
    if before == 0 and after == 0:
        return x
    return np.pad(x, ((0, 0), (before, after), (before, after))).astype(
        _F32, copy=False
    )


def _windows(x: np.ndarray, field: int, stride: int) -> np.ndarray:
    """View of sliding FxF windows: (C, Ho, Wo, F, F)."""
    c, h, w = x.shape
    ho = (h - field) // stride + 1
    wo = (w - field) // stride + 1
    sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(c, ho, wo, field, field),
        strides=(sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Direct 2-D convolution (cross-correlation), NCHW with N=1.

    ``x`` is (C1, H, W); ``weight`` is (K, C1, F, F); output (K, Ho, Wo).
    """
    _check_chw(x)
    if weight.ndim != 4:
        raise ReproError(f"weight must be KCFF, got {weight.shape}")
    k, c1, f, _ = weight.shape
    if c1 != x.shape[0]:
        raise ReproError(
            f"channel mismatch: input C={x.shape[0]}, weight C={c1}"
        )
    xp = pad2d(x, pad)
    win = _windows(xp, f, stride)  # (C1, Ho, Wo, F, F)
    out = np.tensordot(weight, win, axes=([1, 2, 3], [0, 3, 4]))  # (K, Ho, Wo)
    if bias is not None:
        out = out + bias[:, None, None]
    return out.astype(_F32, copy=False)


def depthwise_conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray] = None,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Depthwise convolution: one FxF filter per channel.

    ``weight`` is (C, 1, F, F) or (C, F, F); output (C, Ho, Wo).
    """
    _check_chw(x)
    if weight.ndim == 4:
        if weight.shape[1] != 1:
            raise ReproError("depthwise weight must be (C,1,F,F)")
        weight = weight[:, 0]
    c, f, _ = weight.shape
    if c != x.shape[0]:
        raise ReproError("depthwise channel mismatch")
    xp = pad2d(x, pad)
    win = _windows(xp, f, stride)  # (C, Ho, Wo, F, F)
    out = np.einsum("chwij,cij->chw", win, weight, dtype=np.float32)
    if bias is not None:
        out = out + bias[:, None, None]
    return out.astype(_F32, copy=False)


def maxpool2d(x: np.ndarray, field: int, stride: int) -> np.ndarray:
    """Max pooling over FxF regions."""
    _check_chw(x)
    win = _windows(x, field, stride)
    return win.max(axis=(3, 4)).astype(_F32, copy=False)


def avgpool2d(x: np.ndarray, field: int, stride: int) -> np.ndarray:
    """Average pooling over FxF regions."""
    _check_chw(x)
    win = _windows(x, field, stride)
    return win.mean(axis=(3, 4), dtype=np.float32).astype(_F32, copy=False)


def global_avgpool(x: np.ndarray) -> np.ndarray:
    """Whole-feature-map average pooling -> (C,) vector."""
    _check_chw(x)
    return x.mean(axis=(1, 2), dtype=np.float32).astype(_F32, copy=False)


def relu(x: np.ndarray) -> np.ndarray:
    """ReLU(x) = max(0, x)."""
    return np.maximum(x, 0).astype(_F32, copy=False)


def relu6(x: np.ndarray) -> np.ndarray:
    """ReLU6(x) = min(max(0, x), 6) (MobileNet activation)."""
    return np.clip(x, 0, 6).astype(_F32, copy=False)


def flatten(x: np.ndarray) -> np.ndarray:
    """Flatten a CHW tensor to a vector (row-major, matching the IR)."""
    return np.ascontiguousarray(x).reshape(-1)


def dense(
    x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray] = None
) -> np.ndarray:
    """Fully-connected layer: (C2, C1) weight times (C1,) input."""
    if x.ndim != 1:
        raise ReproError("dense input must be flattened to 1-D")
    if weight.ndim != 2 or weight.shape[1] != x.shape[0]:
        raise ReproError(
            f"dense shape mismatch: weight {weight.shape}, input {x.shape}"
        )
    out = weight.astype(np.float32) @ x.astype(np.float32)
    if bias is not None:
        out = out + bias
    return out.astype(_F32, copy=False)


def softmax(x: np.ndarray) -> np.ndarray:
    """Numerically-stable softmax (subtract-max trick, thesis Eq. 2.4)."""
    if x.ndim != 1:
        raise ReproError("softmax input must be 1-D")
    z = x - x.max()
    e = np.exp(z, dtype=np.float32)
    return (e / e.sum(dtype=np.float32)).astype(_F32, copy=False)


def batchnorm_inference(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Inference-time batch norm over channels of a CHW tensor."""
    _check_chw(x)
    scale = (gamma / np.sqrt(var + eps)).astype(_F32)
    shift = (beta - mean * scale).astype(_F32)
    return (x * scale[:, None, None] + shift[:, None, None]).astype(_F32, copy=False)


def residual_add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Shortcut addition for ResNet residual blocks."""
    if x.shape != y.shape:
        raise ReproError(f"residual shapes differ: {x.shape} vs {y.shape}")
    return (x + y).astype(_F32, copy=False)


def fold_batchnorm(
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    gamma: np.ndarray,
    beta: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float = 1e-5,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold an inference batch norm into the preceding conv's weights.

    Returns (folded_weight, folded_bias).  This mirrors the graph-level
    simplification ML frameworks apply before deployment.
    """
    scale = (gamma / np.sqrt(var + eps)).astype(_F32)
    w = weight * scale.reshape((-1,) + (1,) * (weight.ndim - 1))
    b = np.zeros(weight.shape[0], _F32) if bias is None else bias
    b = (b - mean) * scale + beta
    return w.astype(_F32), b.astype(_F32)
