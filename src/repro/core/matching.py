"""Vector-wise streaming similarity matcher (Sec. VI-A).

Tokens stream through the matcher in FHW order.  Each token's hidden
state is split into length-``v`` vectors (one per k-block of the GEMM
tile); for every k-block the key vector is compared, by cosine
similarity, against the *stored* (already deduplicated) vectors of its
comparison partners.  A similarity above the threshold replaces the
vector with its partner's representative index — chaining through
earlier matches exactly as the hardware's compact buffer does.

Two implementations share this contract:

* :meth:`SimilarityMatcher.match_tile_reference` — the original
  row-at-a-time streaming loop.  It is the semantic oracle: one row at
  a time, one batched comparison against that row's partners.  Only
  tests and benchmarks call it.
* :meth:`SimilarityMatcher.match_tile` — a level-scheduled
  (wavefront) formulation of the *same* recurrence, and the one the
  forward pass runs.  Every partner index precedes its key, so the
  rows of a tile form a DAG; a row is schedulable as soon as all of
  its partners' representatives are finalized.  Grouping rows into
  dependency levels (:func:`partner_levels`) lets each level resolve
  with one batched gather and one batched dot-product/threshold pass.
  Rows within a level never reference each other (a partner's level
  is strictly lower), so the wavefront result is bit-identical to the
  serial oracle for every tile, threshold, and block shape — the
  property ``tests/test_matcher_wavefront.py`` locks in
  differentially.

L2 norms are precomputed once per token, so each comparison costs a
single ``v``-wide dot product plus a few scalar ops, matching the
single-dot-product-unit matcher of Fig. 6(3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_EPS = 1e-6
"""Vectors with L2 norm below this are treated as exact zeros."""

def partner_levels(neighbor_table: np.ndarray) -> np.ndarray:
    """Dependency level of every row of a neighbor table.

    Rows with no partners sit at level 0; otherwise a row's level is
    one more than the maximum level of its partners.  Because every
    valid partner index precedes its key, levels are well defined and
    the fixpoint below converges in (max level + 1) vectorized sweeps
    — the DAG depth, which for an ``f x h x w`` comparison block over
    an FHW grid is at most ``(F-1) + (H-1) + (W-1)``, far below the
    row count.
    """
    table = np.asarray(neighbor_table, dtype=np.int64)
    n = table.shape[0]
    levels = np.zeros(n, dtype=np.int64)
    if n == 0 or table.shape[1] == 0:
        return levels
    valid = table >= 0
    has_partner = valid.any(axis=1)
    if not has_partner.any():
        return levels
    safe = np.where(valid, table, 0)
    # A valid DAG (every partner precedes its key) has depth < n, so
    # the fixpoint needs at most n sweeps; a table with a cycle or a
    # forward reference would otherwise spin forever.
    for _ in range(n + 1):
        gathered = np.where(valid, levels[safe], -1)
        new = np.where(has_partner, gathered.max(axis=1) + 1, 0)
        if np.array_equal(new, levels):
            return levels
        levels = new
    raise ValueError("partner indices must precede the key")


def level_schedule(levels: np.ndarray) -> tuple[np.ndarray, ...]:
    """Group row indices by dependency level, levels ``>= 1`` only.

    Level-0 rows have no partners and keep themselves as
    representatives, so they need no matching work.  Within a group
    rows are in increasing index order (irrelevant for correctness —
    same-level rows are independent — but it keeps gathers cache
    friendly).
    """
    levels = np.asarray(levels, dtype=np.int64)
    if levels.size == 0:
        return ()
    order = np.argsort(levels, kind="stable")
    sorted_levels = levels[order]
    max_level = int(sorted_levels[-1])
    if max_level == 0:
        return ()
    bounds = np.searchsorted(sorted_levels, np.arange(1, max_level + 2))
    return tuple(
        order[bounds[i]:bounds[i + 1]] for i in range(max_level)
    )


@dataclass
class LevelGroup:
    """Precomputed index structures for one wavefront level.

    Everything here depends only on the neighbor table, so gathers
    sharing a token set build these once (cached in the gather's tile
    plan) and the per-level hot loop degenerates to pure array math.

    Attributes:
        rows: ``(r,)`` row indices resolved at this level.
        valid3: ``(r, m, 1)`` mask of present partners, shaped to
            broadcast over k-blocks.
        safe: ``(r, m)`` partner indices with ``-1`` clamped to 0
            (masked out of every decision by ``valid3``).
        row_index: ``(r, 1)`` arange, for the per-row argmax pick.
    """

    rows: np.ndarray
    valid3: np.ndarray
    safe: np.ndarray
    row_index: np.ndarray


def build_level_groups(
    table: np.ndarray, levels: np.ndarray | None = None
) -> tuple[LevelGroup, ...]:
    """Materialize :class:`LevelGroup` structures for a neighbor table."""
    table = np.asarray(table, dtype=np.int64)
    if levels is None:
        levels = partner_levels(table)
    groups = []
    for rows in level_schedule(levels):
        tab = table[rows]
        valid = tab >= 0
        groups.append(LevelGroup(
            rows=rows,
            valid3=valid[:, :, None],
            safe=np.where(valid, tab, 0),
            row_index=np.arange(rows.size, dtype=np.int64)[:, None],
        ))
    return tuple(groups)


@dataclass
class MatchOutcome:
    """Result of matching one tile.

    Attributes:
        reps: Integer array of shape ``(num_blocks, n)``; entry
            ``[b, i]`` is the local row index of the representative of
            token ``i``'s ``b``-th vector (``i`` itself when unique).
        comparisons: Pairwise vector comparisons performed.
    """

    reps: np.ndarray
    comparisons: int

    def unique_counts(self) -> np.ndarray:
        """Unique-vector count per k-block (the concentrated tile
        lengths of Fig. 13)."""
        n = self.reps.shape[1]
        own = np.arange(n)
        return (self.reps == own[None, :]).sum(axis=1)


def _validate_tile(table: np.ndarray, n: int) -> None:
    """One vectorized pre-check per tile (not per row): the table must
    cover the tile and every partner must precede its key."""
    if table.shape[0] != n:
        raise ValueError("neighbor table does not cover the tile")
    if table.size and (table >= np.arange(n)[:, None]).any():
        raise ValueError("partner indices must precede the key")


class SimilarityMatcher:
    """Streaming cosine matcher over padded k-block vectors."""

    def __init__(self, threshold: float) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must lie in (0, 1]")
        self.threshold = threshold

    @staticmethod
    def split_blocks(x: np.ndarray, vector_size: int) -> np.ndarray:
        """Split ``(n, k)`` rows into zero-padded ``(n, B, v)`` blocks.

        Zero padding leaves dot products and norms unchanged, so a
        ragged final block behaves identically to the hardware's
        shorter last vector.
        """
        x = np.asarray(x, dtype=np.float32)
        n, k = x.shape
        v = min(vector_size, k) if vector_size > 0 else k
        num_blocks = -(-k // v)
        padded = np.zeros((n, num_blocks * v), dtype=np.float32)
        padded[:, :k] = x
        return padded.reshape(n, num_blocks, v)

    def match_tile(
        self,
        blocks: np.ndarray,
        neighbor_table: np.ndarray,
        levels: np.ndarray | None = None,
        norms: np.ndarray | None = None,
        schedule: "tuple[LevelGroup, ...] | None" = None,
    ) -> MatchOutcome:
        """Level-scheduled (wavefront) match of one tile.

        Rows are grouped by dependency level; all rows of one level
        resolve in a single batched gather + dot-product/threshold
        pass.  Per-row float operations (dot products over the
        contiguous ``v`` axis, norm products, threshold comparisons,
        first-maximum argmax over a row's partners in table order) are
        the very same elementwise kernels the serial loop of
        :meth:`match_tile_reference` runs, so the representatives agree
        bit for bit while the Python-level iteration count drops from
        ``n`` to the DAG depth.

        Args:
            blocks: ``(n, B, v)`` zero-padded vectors (see
                :meth:`split_blocks`).
            neighbor_table: ``(n, n_offsets)`` local partner indices,
                ``-1`` for absent partners (from
                :func:`repro.core.blocks.build_neighbor_table`); every
                valid partner index is smaller than the key index.
            levels: Optional precomputed :func:`partner_levels` of the
                table (computed on the fly otherwise).
            norms: Optional precomputed ``(n, B)`` L2 norms of
                ``blocks`` — callers gathering many tiles compute them
                once for the whole matrix and pass slices.
            schedule: Optional precomputed :func:`build_level_groups`
                output for the table.

        Returns:
            Representative assignments and comparison count.
        """
        blocks = np.asarray(blocks, dtype=np.float32)
        n, num_blocks, _ = blocks.shape
        table = np.asarray(neighbor_table, dtype=np.int64)
        _validate_tile(table, n)

        if norms is None:
            norms = np.linalg.norm(blocks, axis=2)
        reps = np.tile(np.arange(n, dtype=np.int64), (num_blocks, 1))
        if n == 0 or table.shape[1] == 0:
            return MatchOutcome(reps=reps, comparisons=0)
        if schedule is None:
            schedule = build_level_groups(table, levels)
        # The comparison count is a pure function of the table: every
        # valid partner of every row costs one comparison per k-block.
        comparisons = int(np.count_nonzero(table >= 0)) * num_blocks
        eps_sq = NORM_EPS * NORM_EPS
        # When no vector in the tile has a sub-epsilon norm, every
        # denominator is >= float32(eps^2) (the minimum float32 product
        # of two surviving norms lands exactly on it), so the zero-pair
        # branch is the constant 0.0 and np.maximum is the identity —
        # the short where below is bit-identical to the full chain.
        tile_has_zero = bool((norms < NORM_EPS).any())
        reps_rows = reps.T                          # (n, B) view
        block_range3 = np.arange(num_blocks)[None, None, :]
        block_range_row = np.arange(num_blocks)[None, :]

        for group in schedule:
            rows = group.rows
            # Partners' representatives are final: their levels are
            # strictly lower, so earlier iterations fixed them.
            partner_reps = reps_rows[group.safe]    # (r, m, B)
            stored = blocks[partner_reps, block_range3, :]  # (r, m, B, v)
            stored_norms = norms[partner_reps, block_range3]
            key_norms = norms[rows][:, None, :]     # (r, 1, B)
            dots = np.einsum("rmbv,rbv->rmb", stored, blocks[rows])
            denom = stored_norms * key_norms
            if tile_has_zero:
                sims = np.where(
                    denom > eps_sq,
                    dots / np.maximum(denom, eps_sq),
                    # Two exact-zero vectors are identical; a zero
                    # against a non-zero is maximally dissimilar.
                    np.where(
                        (stored_norms < NORM_EPS) & (key_norms < NORM_EPS),
                        1.0,
                        0.0,
                    ),
                )
            else:
                # np.float64(0.0) deliberately reproduces the full
                # chain's float64 promotion: the reference compares
                # sims to the threshold in float64, and a float32
                # comparison could flip a sim landing exactly on
                # float32(threshold).
                sims = np.where(denom > eps_sq, dots / denom, np.float64(0.0))
            # Absent partners never win: -inf loses to every real
            # similarity, and compaction order == table order, so the
            # first-maximum argmax picks the same partner the serial
            # loop picks over its compacted partner list.
            sims = np.where(group.valid3, sims, -np.inf)
            best = np.argmax(sims, axis=1)          # (r, B)
            best_sims = sims[group.row_index, best, block_range_row]
            matched = best_sims > self.threshold    # (r, B)
            if matched.any():
                chosen = partner_reps[
                    group.row_index, best, block_range_row
                ]
                ri, bi = np.nonzero(matched)
                reps[bi, rows[ri]] = chosen[ri, bi]
        return MatchOutcome(reps=reps, comparisons=comparisons)

    def match_tile_reference(
        self,
        blocks: np.ndarray,
        neighbor_table: np.ndarray,
        levels: np.ndarray | None = None,
        norms: np.ndarray | None = None,
        schedule: "tuple[LevelGroup, ...] | None" = None,
    ) -> MatchOutcome:
        """The retained row-at-a-time oracle (original serial matcher).

        Takes :meth:`match_tile`'s arguments so tests and benchmarks
        can patch it in place of the wavefront; ``levels`` and
        ``schedule`` are ignored.
        """
        blocks = np.asarray(blocks, dtype=np.float32)
        n, num_blocks, _ = blocks.shape
        table = np.asarray(neighbor_table, dtype=np.int64)
        _validate_tile(table, n)

        if norms is None:
            norms = np.linalg.norm(blocks, axis=2)
        reps = np.tile(np.arange(n, dtype=np.int64), (num_blocks, 1))
        block_range = np.arange(num_blocks)
        comparisons = 0

        for i in range(n):
            partners = table[i][table[i] >= 0]
            if partners.size == 0:
                continue
            # Stored values: each partner's vector was possibly replaced
            # by its representative; compare against what the compact
            # buffer actually holds.
            partner_reps = reps[:, partners].T          # (m, B)
            stored = blocks[partner_reps, block_range[None, :], :]  # (m, B, v)
            stored_norms = norms[partner_reps, block_range[None, :]]
            dots = np.einsum("mbv,bv->mb", stored, blocks[i])
            denom = stored_norms * norms[i][None, :]
            sims = np.where(
                denom > NORM_EPS * NORM_EPS,
                dots / np.maximum(denom, NORM_EPS * NORM_EPS),
                # Two exact-zero vectors are identical; a zero against a
                # non-zero is maximally dissimilar.
                np.where(
                    (stored_norms < NORM_EPS) & (norms[i][None, :] < NORM_EPS),
                    1.0,
                    0.0,
                ),
            )
            comparisons += int(sims.size)
            best = np.argmax(sims, axis=0)
            best_sims = sims[best, block_range]
            matched = best_sims > self.threshold
            if matched.any():
                chosen = partner_reps[best, block_range]
                reps[matched, i] = chosen[matched]
        return MatchOutcome(reps=reps, comparisons=comparisons)
