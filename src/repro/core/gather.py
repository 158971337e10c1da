"""Similarity Gather: per-GEMM-tile vector deduplication (Sec. VI-A).

The gather walks the token stream in m-tiles (Table I: ``m = 1024``),
splits each tile's rows into k-blocks of ``vector_size`` columns, and
runs the streaming matcher within spatiotemporal comparison blocks.
Matching never crosses a tile boundary — the property behind the
Fig. 10(a) tile-size/latency trade-off — and text tokens (which have no
FHW position) are always stored as unique.

Hot-path layout: everything that depends only on the *token set* (tile
spans, neighbor tables, wavefront dependency levels) is computed once
per set and cached as a :class:`TilePlan` keyed on
``(cache_token, tile)`` — the forward pass passes
``TokenState.version`` as the token, so all gather sites (qkv /
o_proj / fc1) of every layer between two semantic-pruning events share
one plan.  Everything that depends on the *values* (padded k-blocks,
L2 norms) is computed once per gather call and sliced per tile instead
of being rebuilt inside the per-tile matcher.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.config import FocusConfig
from repro.core.blocks import build_neighbor_table, comparisons_in_table
from repro.core.matching import (
    LevelGroup,
    SimilarityMatcher,
    build_level_groups,
)

__all__ = [
    "GatherResult",
    "SimilarityGather",
    "TABLE_CACHE_MAX_ENTRIES",
    "TilePlan",
    "comparisons_in_table",
]

TABLE_CACHE_MAX_ENTRIES = 64
"""Upper bound on cached tile plans per gather engine.

A forward pass needs at most ``ceil(tokens / m_tile)`` plans per
token set, so 64 comfortably covers every model in the zoo while
keeping a long-lived gather (streaming service, benchmark loop) at
bounded memory."""

@dataclass
class TilePlan:
    """Token-set-dependent (value-independent) state of one m-tile.

    Attributes:
        table: ``(rows, n_offsets)`` local partner indices.
        schedule: :func:`~repro.core.matching.build_level_groups` of
            the table — the wavefront matcher's per-level index
            structures, ready for batched matching.
    """

    table: np.ndarray
    schedule: tuple[LevelGroup, ...]


@dataclass
class GatherResult:
    """Outcome of gathering one GEMM input matrix.

    Attributes:
        x_approx: The input with every redundant vector replaced by its
            representative's value (what the scatter reconstructs).
        reps: Global representative row per ``(k_block, row)``; a row
            maps to itself when unique.
        vector_size: Effective vector length used.
        unique_total: Total unique vectors over all (tile, k-block).
        total_vectors: Vector count before concentration.
        tile_lengths: Unique count per (tile, k-block) — Fig. 13 data.
        tile_rows: Row count of the tile each entry came from (for
            normalizing tile lengths to paper-scale tiles).
        map_bits: Similarity-map metadata bits.
        comparisons: Pairwise comparisons performed by the matcher.
    """

    x_approx: np.ndarray
    reps: np.ndarray
    vector_size: int
    unique_total: int
    total_vectors: int
    tile_lengths: list[int] = field(default_factory=list)
    tile_rows: list[int] = field(default_factory=list)
    map_bits: int = 0
    comparisons: int = 0

    @property
    def compression_ratio(self) -> float:
        """Original vectors per stored vector (>= 1)."""
        if self.unique_total == 0:
            return 1.0
        return self.total_vectors / self.unique_total


class SimilarityGather:
    """Tile-local vector deduplication engine."""

    def __init__(
        self, config: FocusConfig, token_wise: bool = False
    ) -> None:
        """Create a gather engine.

        Args:
            config: Focus hyper-parameters (tile size, block shape,
                vector length, threshold).
            token_wise: When ``True``, compare whole tokens instead of
                sub-vectors (the "Ours token-wise" ablation of
                Fig. 2(c)).
        """
        self.config = config
        self.token_wise = token_wise
        self.matcher = SimilarityMatcher(config.similarity_threshold)
        self._table_cache: OrderedDict[tuple, TilePlan] = OrderedDict()
        self._current_cache_token: object | None = None

    def _neighbor_table(
        self,
        positions: np.ndarray,
        is_text: np.ndarray,
        grid: tuple[int, int, int],
        tile: tuple[int, int],
        cache_token: object | None,
    ) -> np.ndarray:
        """Partner table for the rows of one tile (see :meth:`_tile_plan`)."""
        return self._tile_plan(
            positions, is_text, grid, tile, cache_token
        ).table

    def _tile_plan(
        self,
        positions: np.ndarray,
        is_text: np.ndarray,
        grid: tuple[int, int, int],
        tile: tuple[int, int],
        cache_token: object | None,
    ) -> TilePlan:
        """Partner table + wavefront levels for the rows of one tile.

        Text rows receive no partners.  Plans are cached per
        ``(cache_token, tile)`` because the token set only changes at
        semantic-pruning layers.  The cache is bounded: entries from
        stale cache tokens are evicted when a new token arrives (token
        sets only move forward through a pass), and an LRU cap of
        :data:`TABLE_CACHE_MAX_ENTRIES` guards against pathological
        token churn, so memory stays flat across arbitrarily many
        samples.
        """
        key = (cache_token, tile)
        if cache_token is not None and key in self._table_cache:
            self._table_cache.move_to_end(key)
            return self._table_cache[key]

        start, stop = tile
        rows = stop - start
        tile_text = np.asarray(is_text[start:stop], dtype=bool)
        image_local = np.nonzero(~tile_text)[0]
        table = np.full(
            (rows, max(1, self._num_offsets())), -1, dtype=np.int64
        )
        if image_local.size:
            image_positions = positions[start:stop][image_local]
            image_table = build_neighbor_table(
                image_positions, grid, self._block()
            )
            remap = image_local  # local-image index -> tile-row index
            expanded = np.where(image_table >= 0, remap[image_table], -1)
            table[image_local, : expanded.shape[1]] = expanded
        plan = TilePlan(table=table, schedule=build_level_groups(table))

        if cache_token is not None:
            if cache_token != self._current_cache_token:
                stale = [
                    k for k in self._table_cache if k[0] != cache_token
                ]
                for k in stale:
                    del self._table_cache[k]
                self._current_cache_token = cache_token
            self._table_cache[key] = plan
            while len(self._table_cache) > TABLE_CACHE_MAX_ENTRIES:
                self._table_cache.popitem(last=False)
        return plan

    def _block(self) -> tuple[int, int, int]:
        cfg = self.config
        return (cfg.block_frames, cfg.block_height, cfg.block_width)

    def _num_offsets(self) -> int:
        return self.config.block_size - 1

    def gather(
        self,
        x: np.ndarray,
        positions: np.ndarray,
        is_text: np.ndarray,
        grid: tuple[int, int, int],
        cache_token: object | None = None,
    ) -> GatherResult:
        """Concentrate a GEMM input matrix.

        Args:
            x: Input of shape ``(tokens, k)`` in token-stream order.
            positions: ``(tokens, 3)`` FHW coordinates (text rows hold
                the sentinel and are skipped).
            is_text: Text mask.
            grid: Full FHW grid of the video.
            cache_token: Hashable key identifying the current token
                set; enables tile-plan (neighbor table + wavefront
                level) reuse across gather sites.

        Returns:
            A :class:`GatherResult`; ``x_approx`` is bit-identical to
            scattering the concentrated GEMM (see
            :mod:`repro.core.scatter`).
        """
        x = np.asarray(x, dtype=np.float32)
        num_rows, k = x.shape
        # Coverage is validated once here, not per tile: every tile
        # slices these same arrays.
        positions = np.asarray(positions)
        is_text = np.asarray(is_text, dtype=bool)
        if positions.shape[:1] != (num_rows,) or is_text.shape != (num_rows,):
            raise ValueError(
                "positions and is_text must cover every row of x"
            )
        vector_size = k if self.token_wise else min(self.config.vector_size, k)
        blocks = self.matcher.split_blocks(x, vector_size)
        num_blocks = blocks.shape[1]
        # L2 norms once for the whole matrix; per-tile slices are
        # bit-identical to per-tile recomputation (the norm reduces
        # over the contiguous v axis row by row).
        norms = np.linalg.norm(blocks, axis=2)

        reps_global = np.tile(
            np.arange(num_rows, dtype=np.int64), (num_blocks, 1)
        )
        tile_lengths: list[int] = []
        tile_rows: list[int] = []
        comparisons = 0
        m_tile = self.config.m_tile
        for start in range(0, num_rows, m_tile):
            stop = min(start + m_tile, num_rows)
            plan = self._tile_plan(
                positions, is_text, grid, (start, stop), cache_token
            )
            outcome = self.matcher.match_tile(
                blocks[start:stop], plan.table,
                norms=norms[start:stop], schedule=plan.schedule,
            )
            reps_global[:, start:stop] = outcome.reps + start
            counts = outcome.unique_counts()
            tile_lengths.extend(int(c) for c in counts)
            tile_rows.extend([stop - start] * len(counts))
            comparisons += outcome.comparisons

        unique_total = sum(tile_lengths)
        total_vectors = num_rows * num_blocks
        map_bits = total_vectors * max(
            1, int(np.ceil(np.log2(max(2, min(m_tile, num_rows)))))
        )

        # One fancy-indexed scatter assembles x_approx: column c takes
        # its value from row reps_global[block(c), :].
        col_block = np.repeat(np.arange(num_blocks), vector_size)[:k]
        x_approx = x[reps_global[col_block, :].T, np.arange(k)[None, :]]

        return GatherResult(
            x_approx=x_approx,
            reps=reps_global,
            vector_size=vector_size,
            unique_total=unique_total,
            total_vectors=total_vectors,
            tile_lengths=tile_lengths,
            tile_rows=tile_rows,
            map_bits=map_bits,
            comparisons=comparisons,
        )
