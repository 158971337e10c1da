"""Numerical primitives for the NumPy transformer substrate.

These mirror the operations the paper's accelerator executes: GEMMs on
the systolic array, and softmax / RMSNorm on the special function unit
(SFU).  All functions are pure and operate on ``float32`` arrays.
"""

from __future__ import annotations

import functools

import numpy as np


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    The exponential and the normalizing division run in place on the
    shifted copy (never on the caller's array), halving the temporary
    allocations on the attention hot path without changing a bit of
    the result.
    """
    x = np.asarray(x, dtype=np.float32)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= np.sum(shifted, axis=axis, keepdims=True)
    return shifted


def rms_norm(x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Root-mean-square layer normalization (no learned gain).

    RMSNorm is the normalization used by the Qwen2 backbones of the
    paper's evaluation models and is one of the SFU operations Focus
    shares silicon with (Sec. VI-A).
    """
    x = np.asarray(x, dtype=np.float32)
    scale = np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + eps)
    return x / scale


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation)."""
    x = np.asarray(x, dtype=np.float32)
    inner = np.sqrt(2.0 / np.pi) * (x + 0.044715 * np.power(x, 3))
    return 0.5 * x * (1.0 + np.tanh(inner))


MASK_CACHE_MAX_ENTRIES = 32
"""LRU bound on memoized causal masks.  Each entry is ``s^2`` float32;
token counts repeat heavily within a forward pass (every layer between
two pruning events sees the same count) and across samples of one
dataset, so a small cap captures nearly all reuse at bounded memory."""


@functools.lru_cache(maxsize=MASK_CACHE_MAX_ENTRIES)
def causal_mask(num_tokens: int) -> np.ndarray:
    """Additive causal mask: 0 on/below the diagonal, -inf above.

    Masks are memoized per token count (the forward pass requests the
    same sizes at every layer) and returned *read-only* so a cached
    array can never be corrupted in place; add it, don't mutate it.
    """
    num_tokens = int(num_tokens)
    mask = np.zeros((num_tokens, num_tokens), dtype=np.float32)
    upper = np.triu_indices(num_tokens, k=1)
    mask[upper] = -np.inf
    mask.flags.writeable = False
    return mask


def attention_scores(
    q_h: np.ndarray, k_h: np.ndarray, head_dim: int
) -> np.ndarray:
    """Scaled, causally masked attention scores.

    Accepts per-head arrays of shape ``(..., s, head_dim)``; the
    forward passes ``(heads, s, head_dim)``.

    The float32 scale keeps the attention path in float32 end to end:
    a bare ``np.sqrt(python int)`` is a float64 scalar and would
    silently promote every score matrix.  Scale and mask apply in
    place on the fresh matmul output (the memoized mask is only read).
    """
    scores = q_h @ np.swapaxes(k_h, -2, -1)
    scores /= np.float32(np.sqrt(head_dim))
    scores += causal_mask(scores.shape[-1])
    assert scores.dtype == np.float32, (
        f"attention scores promoted to {scores.dtype}"
    )
    return scores


def cosine_similarity_matrix(a: np.ndarray, b: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Pairwise cosine similarity between rows of ``a`` and rows of ``b``.

    Args:
        a: Array of shape ``(na, d)``.
        b: Array of shape ``(nb, d)``.
        eps: Norm floor preventing division by zero.

    Returns:
        Array of shape ``(na, nb)``.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    na = np.linalg.norm(a, axis=-1, keepdims=True)
    nb = np.linalg.norm(b, axis=-1, keepdims=True)
    return (a @ b.T) / np.maximum(na @ nb.T, eps)


def cosine_similarity(a: np.ndarray, b: np.ndarray, eps: float = 1e-8) -> float:
    """Cosine similarity between two 1-D vectors."""
    a = np.asarray(a, dtype=np.float32).ravel()
    b = np.asarray(b, dtype=np.float32).ravel()
    denom = max(float(np.linalg.norm(a)) * float(np.linalg.norm(b)), eps)
    return float(a @ b) / denom
