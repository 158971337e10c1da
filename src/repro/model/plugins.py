"""Inference plugin protocol.

Every efficiency method in the paper — Focus, FrameFusion, AdapTiV,
CMC — is a transformation of the token stream at specific points of
the forward pass.  The :class:`InferencePlugin` interface exposes
those points; the engine (:mod:`repro.model.vlm`) stays method-agnostic
and the methods never duplicate transformer code.

Hook order within one forward pass::

    begin(state)
    on_visual_tokens(state)            # entry compression (AdapTiV, CMC)
    for each layer:
        before_layer(layer, state)     # token merging (FrameFusion)
        gemm_input(layer, "qkv", ...)  # vector dedup (Focus SIC)
        after_attention_probs(...)     # semantic pruning (Focus SEC)
        gemm_input(layer, "o_proj", ...)
        gemm_input(layer, "fc1", ...)
    finish(state)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.accel.trace import GemmTrace
    from repro.model.vlm import TokenState


@dataclass
class DedupStats:
    """Outcome of a similarity-gather on one GEMM input.

    Attributes:
        unique_vectors: Total unique vectors over all
            (m-tile, k-block) pairs.
        total_vectors: Vector count before gathering.
        map_bits: Similarity-map metadata bits.
        tile_lengths: Unique-vector count per (m-tile, k-block); feeds
            the Fig. 13 histogram.
        tile_rows: Row count of the tile each entry came from.
        scatter_ops: Accumulations needed to scatter the concentrated
            partial sums back to the full output.
    """

    unique_vectors: int
    total_vectors: int
    map_bits: int
    vector_size: int = 32
    tile_lengths: list[int] = field(default_factory=list)
    tile_rows: list[int] = field(default_factory=list)
    scatter_ops: int = 0


class InferencePlugin:
    """Base plugin: all hooks are no-ops (dense execution)."""

    needs_attention_summary: bool = False
    """Whether the engine should compute the per-key attention summary
    (``state.scratch["attn_received"]``, mean attention received over
    heads and queries) at every layer.  Importance-style plugins
    (FrameFusion) set this; computing the summary lazily keeps an
    O(heads x s^2) reduction off every other method's hot path.
    Wrapper plugins must delegate it to the plugin they wrap."""

    reusable: bool = False
    """Whether one instance may drive many forward passes.  A plugin
    is reusable when it carries no cross-forward state (or resets it
    in :meth:`begin`); the evaluation loop then constructs it once per
    cell instead of once per sample.  Defaults to ``False`` so
    stateful plugins stay correct by default; wrapper plugins must
    delegate it to the plugin they wrap."""

    def begin(self, state: "TokenState") -> None:
        """Called once before the first layer."""

    def on_visual_tokens(self, state: "TokenState") -> None:
        """Entry-level token compression, before the LLM stack.

        Implementations mutate ``state`` (hidden/positions/masks) via
        :meth:`TokenState.apply_keep` or by replacing token values, and
        account their own search cost in
        ``state.trace.preprocess_macs``.
        """

    def before_layer(self, layer_index: int, state: "TokenState") -> None:
        """Called before each transformer layer."""

    def gemm_input(
        self,
        layer_index: int,
        site: str,
        x: np.ndarray,
        state: "TokenState",
        producer: "GemmTrace | None",
        n: int,
    ) -> tuple[np.ndarray, DedupStats | None]:
        """Optionally concentrate the input of a projection GEMM.

        Args:
            layer_index: Current layer.
            site: ``"qkv"``, ``"o_proj"`` or ``"fc1"`` — the GEMMs whose
                inputs are outputs of FFN / PV / O-projection, i.e. the
                gather sites of the paper (Sec. VI-A, footnote 1).
            x: GEMM input of shape ``(tokens, k)``.
            state: Current token state (positions for block grouping).
            producer: Trace record of the GEMM that produced ``x``;
                implementations may annotate its output compression.
            n: Output width of the consuming GEMM (for scatter-op
                accounting).

        Returns:
            The (possibly approximated) input and gather statistics, or
            ``(x, None)`` to run dense.
        """
        return x, None

    def after_attention_probs(
        self,
        layer_index: int,
        probs: np.ndarray,
        state: "TokenState",
    ) -> np.ndarray | None:
        """Optionally select tokens to keep after the attention softmax.

        Args:
            probs: Attention probabilities of shape
                ``(heads, tokens, tokens)`` for the *current* token set.

        Returns:
            Boolean keep-mask over tokens, or ``None`` to keep all.
        """
        return None

    def finish(self, state: "TokenState") -> None:
        """Called once after the last layer."""


DENSE_PLUGIN = InferencePlugin()
"""Shared no-op plugin instance for dense runs."""
