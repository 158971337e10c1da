"""The synthetic VLM forward engine.

:class:`SyntheticVLM` runs a causal transformer over the concatenated
``[visual tokens | text tokens]`` sequence (the layout of Fig. 5's
attention matrix), invokes :class:`~repro.model.plugins.InferencePlugin`
hooks at the points where concentration methods intervene, and records
every executed GEMM into a :class:`~repro.accel.trace.ModelTrace` for
the hardware simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.accel.trace import GemmTrace, ModelTrace
from repro.model.functional import attention_scores, rms_norm, softmax
from repro.model.plugins import DedupStats, InferencePlugin
from repro.model.spec import ModelConfig
from repro.model.weights import LayerWeights, build_all_weights
from repro.utils.fp import quantize_fp16
from repro.workloads.datasets import Sample

TEXT_POSITION = np.array([-1, -1, -1], dtype=np.int64)
"""Sentinel FHW position for text tokens (never block-matched)."""


@dataclass
class TokenState:
    """Mutable token stream threaded through the forward pass.

    Attributes:
        hidden: Current hidden states, shape ``(tokens, hidden)``.
        positions: Integer (frame, row, col) per token; text tokens
            carry :data:`TEXT_POSITION`.
        is_text: Boolean mask of text tokens (never pruned).
        original_index: Index of each surviving token in the initial
            sequence.
        num_image_initial: Image-token count before any compression.
        grid: (frames, height, width) of the visual grid.
        trace: Execution trace being accumulated.
        scratch: Free-form storage for plugins (e.g. attention
            summaries used by FrameFusion).
    """

    hidden: np.ndarray
    positions: np.ndarray
    is_text: np.ndarray
    original_index: np.ndarray
    num_image_initial: int
    grid: tuple[int, int, int]
    trace: ModelTrace = field(default_factory=ModelTrace)
    scratch: dict = field(default_factory=dict)
    version: int = 0
    """Incremented whenever the token set changes; plugins use it to
    invalidate cached position-derived structures."""

    @property
    def num_tokens(self) -> int:
        return int(self.hidden.shape[0])

    @property
    def num_image(self) -> int:
        return int(np.count_nonzero(~self.is_text))

    @property
    def num_text(self) -> int:
        return int(np.count_nonzero(self.is_text))

    def apply_keep(self, keep: np.ndarray) -> None:
        """Prune the token stream to the boolean mask ``keep``.

        Text tokens must all be kept; methods only compress the visual
        stream (every method in the paper excludes text tokens).
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (self.num_tokens,):
            raise ValueError("keep mask must cover the current token set")
        if not keep[self.is_text].all():
            raise ValueError("text tokens cannot be pruned")
        self.hidden = self.hidden[keep]
        self.positions = self.positions[keep]
        self.is_text = self.is_text[keep]
        self.original_index = self.original_index[keep]
        self.version += 1


@dataclass(frozen=True)
class InferenceResult:
    """Outcome of one forward pass."""

    predicted_index: int
    correct: bool
    trace: ModelTrace
    final_tokens: int


class SyntheticVLM:
    """A constructed-weight VLM with pluggable concentration hooks."""

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self.layers: list[LayerWeights] = build_all_weights(config)

    def initial_state(self, sample: Sample) -> TokenState:
        """Assemble the token stream ``[visual | text]`` for a sample."""
        cfg = self.config
        if sample.visual_tokens.shape[1] != cfg.hidden:
            raise ValueError(
                f"sample hidden dim {sample.visual_tokens.shape[1]} does not"
                f" match model hidden dim {cfg.hidden}"
            )
        hidden = np.concatenate(
            [sample.visual_tokens, sample.text_tokens], axis=0
        )
        hidden = quantize_fp16(hidden, cfg.fp16)
        num_image = sample.num_visual_tokens
        num_text = sample.num_text_tokens
        positions = np.concatenate(
            [sample.positions, np.tile(TEXT_POSITION, (num_text, 1))], axis=0
        )
        is_text = np.zeros(num_image + num_text, dtype=bool)
        is_text[num_image:] = True
        return TokenState(
            hidden=hidden,
            positions=positions,
            is_text=is_text,
            original_index=np.arange(num_image + num_text),
            num_image_initial=num_image,
            grid=sample.grid,
        )

    def forward(
        self, sample: Sample, plugin: InferencePlugin | None = None
    ) -> InferenceResult:
        """Run the model on a sample under an optional plugin."""
        plugin = plugin or InferencePlugin()
        state = self.initial_state(sample)
        state.trace.initial_tokens = state.num_tokens
        plugin.begin(state)
        plugin.on_visual_tokens(state)

        last_writer: GemmTrace | None = None
        for layer_index, weights in enumerate(self.layers):
            plugin.before_layer(layer_index, state)
            last_writer = self._run_layer(layer_index, weights, state,
                                          plugin, last_writer)
            state.trace.tokens_per_layer.append(state.num_tokens)
        plugin.finish(state)

        predicted = self._readout(sample, state)
        return InferenceResult(
            predicted_index=predicted,
            correct=predicted == sample.question.answer_index,
            trace=state.trace,
            final_tokens=state.num_tokens,
        )

    def _run_layer(
        self,
        layer_index: int,
        weights: LayerWeights,
        state: TokenState,
        plugin: InferencePlugin,
        last_writer: GemmTrace | None,
    ) -> GemmTrace:
        cfg = self.config
        d, heads, head_dim = cfg.hidden, cfg.num_heads, cfg.head_dim

        x = state.hidden
        normed = rms_norm(x)
        normed, _ = self._concentrated_gemm(
            plugin, layer_index, "qkv", normed, state, last_writer,
            k=d, n=3 * d,
        )
        q = normed @ weights.wq
        k = normed @ weights.wk
        v = normed @ weights.wv

        s = state.num_tokens
        q_h = q.reshape(s, heads, head_dim).transpose(1, 0, 2)
        k_h = k.reshape(s, heads, head_dim).transpose(1, 0, 2)
        v_h = v.reshape(s, heads, head_dim).transpose(1, 0, 2)
        scores = attention_scores(q_h, k_h, head_dim)
        state.trace.add(GemmTrace(name="qk", layer=layer_index, m=s, k=d, n=s))
        probs = softmax(scores, axis=-1)

        if plugin.needs_attention_summary:
            # Attention received per key, averaged over heads and
            # queries; computed only for plugins that declare the need
            # (importance-style baselines such as FrameFusion).
            state.scratch["attn_received"] = probs.mean(axis=(0, 1))

        keep = plugin.after_attention_probs(layer_index, probs, state)
        if keep is not None:
            # Semantic pruning: only retained query rows proceed to
            # P x V; keys/values of this layer stay full (they were
            # already computed), exactly as in Sec. V-C.
            probs = probs[:, keep, :]
            state.apply_keep(keep)
        x = state.hidden
        s_q = probs.shape[1]

        ctx = (probs @ v_h).transpose(1, 0, 2).reshape(s_q, d)
        pv_trace = state.trace.add(
            GemmTrace(name="pv", layer=layer_index, m=s_q, k=s, n=d)
        )

        ctx, o_trace = self._concentrated_gemm(
            plugin, layer_index, "o_proj", ctx, state, pv_trace, k=d, n=d,
        )
        attn_out = ctx @ weights.wo
        x = quantize_fp16(x + attn_out, cfg.fp16)

        normed2 = rms_norm(x)
        normed2, fc1_trace = self._concentrated_gemm(
            plugin, layer_index, "fc1", normed2, state, o_trace,
            k=d, n=cfg.ffn_hidden,
        )
        # tanh rather than GELU: GELU's positive DC offset would add an
        # identical mean vector to every token's residual each layer,
        # inflating inter-token similarity toward 1 by depth and
        # erasing the hidden-state redundancy structure SIC operates on.
        h = np.tanh(normed2 @ weights.w_fc1)
        fc2_trace = state.trace.add(
            GemmTrace(name="fc2", layer=layer_index, m=s_q,
                      k=cfg.ffn_hidden, n=d)
        )
        x = quantize_fp16(x + h @ weights.w_fc2, cfg.fp16)

        state.hidden = x
        return fc2_trace

    def _concentrated_gemm(
        self,
        plugin: InferencePlugin,
        layer_index: int,
        site: str,
        x: np.ndarray,
        state: TokenState,
        producer: GemmTrace | None,
        k: int,
        n: int,
    ) -> tuple[np.ndarray, GemmTrace]:
        """Apply the plugin's input gather and record the GEMM trace."""
        x, stats = plugin.gemm_input(layer_index, site, x, state, producer, n)
        trace = GemmTrace(name=site, layer=layer_index, m=x.shape[0], k=k, n=n)
        if stats is not None:
            self._annotate(trace, producer, stats, state)
        state.trace.add(trace)
        return x, trace

    @staticmethod
    def _annotate(
        trace: GemmTrace,
        producer: GemmTrace | None,
        stats: DedupStats,
        state: TokenState,
    ) -> None:
        trace.input_unique = stats.unique_vectors
        trace.vector_size = stats.vector_size
        trace.input_map_bits = stats.map_bits
        trace.scatter_ops = stats.scatter_ops
        state.trace.metadata_bits += stats.map_bits
        state.trace.tile_lengths.extend(stats.tile_lengths)
        state.trace.tile_rows.extend(stats.tile_rows)
        if producer is not None:
            producer.output_compressed_rows = stats.unique_vectors
            producer.output_map_bits = stats.map_bits
            producer.vector_size = stats.vector_size

    def _readout(self, sample: Sample, state: TokenState) -> int:
        """Decode the answer from the query token's attribute sub-space."""
        layout = self.config.layout
        query_hidden = state.hidden[-1]
        slot = sample.question.slot
        if slot == "color":
            attr = query_hidden[layout.color_slice]
        else:
            attr = query_hidden[layout.motion_slice]
        return sample.codebooks.decode_slot(attr, slot)
