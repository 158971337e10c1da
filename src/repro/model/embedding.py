"""Embedding codebooks for the synthetic VLM.

The paper's VLMs embed video patches and text into a shared hidden
space in which cross-modal attention retrieves prompt-relevant visual
content.  We reproduce that *mechanism* directly: token embeddings are
composed from labelled sub-spaces, and the transformer weights (see
:mod:`repro.model.attention`) are constructed so that attention scores
measure object-identity agreement while values carry attribute codes.

Hidden-dimension layout (fractions of the hidden size ``d``):

=============  ==========  ====================================================
sub-space      dims        content
=============  ==========  ====================================================
``object``     ``d/4``     identity code of the object a patch belongs to
``attribute``  ``d/4``     first half: colour code; second half: motion code
``texture``    ``d/4``     smooth spatial texture, stable across frames
``position``   ``d/4``     sinusoidal (frame, row, col) encoding
=============  ==========  ====================================================

The object/attribute coupling is what makes accuracy *causally* depend
on concentration quality: prune the tokens of the queried object and
the retrieved attribute code disappears, exactly the failure mode the
paper's Table II accuracy column measures.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import rng_for

KIND_NAMES = (
    "dog", "cat", "bird", "car", "bicycle", "person",
    "flower", "tree", "ball", "boat", "kite", "horse",
)
COLOR_NAMES = ("white", "black", "red", "blue", "green", "yellow", "brown", "gray")
MOTION_NAMES = ("static", "leftward", "rightward", "upward")

QUESTION_SLOTS = ("color", "motion")
"""Attribute slots a question may ask about."""


@dataclass(frozen=True)
class SubspaceLayout:
    """Index ranges of the labelled sub-spaces within the hidden dim."""

    hidden: int

    def __post_init__(self) -> None:
        if self.hidden % 8 != 0:
            raise ValueError("hidden size must be divisible by 8")

    @property
    def quarter(self) -> int:
        return self.hidden // 4

    @property
    def object_slice(self) -> slice:
        return slice(0, self.quarter)

    @property
    def attribute_slice(self) -> slice:
        return slice(self.quarter, 2 * self.quarter)

    @property
    def color_slice(self) -> slice:
        return slice(self.quarter, self.quarter + self.quarter // 2)

    @property
    def motion_slice(self) -> slice:
        return slice(self.quarter + self.quarter // 2, 2 * self.quarter)

    @property
    def texture_slice(self) -> slice:
        return slice(2 * self.quarter, 3 * self.quarter)

    @property
    def position_slice(self) -> slice:
        return slice(3 * self.quarter, 4 * self.quarter)


def _unit_rows(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Random unit-norm row vectors, decorrelated by construction."""
    rows = rng.standard_normal((count, dim)).astype(np.float32)
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows


def _confusable_unit_rows(
    rng: np.random.Generator, count: int, dim: int, delta: float
) -> np.ndarray:
    """Unit rows arranged in similar pairs.

    Row ``2i+1`` is a ``delta``-sized perturbation of row ``2i``
    (cosine ``~ 1/sqrt(1+delta^2)``), modelling answer options that are
    genuinely confusable (white/gray, leftward/rightward).  Retrieval
    with a clean attribute estimate still separates them; a noisy
    estimate — the result of aggressive pruning or lossy merging —
    tips the argmax, which is what produces graded accuracy.
    """
    rows = _unit_rows(rng, count, dim)
    for i in range(1, count, 2):
        mixed = rows[i - 1] + delta * rows[i]
        rows[i] = mixed / np.linalg.norm(mixed)
    return rows


class Codebooks:
    """Fixed vocabulary of object-kind, colour and motion codes.

    The codebooks are shared between the scene renderer (which writes
    codes into patch embeddings) and the model readout (which decodes
    the retrieved attribute).  They play the role of the real VLM's
    word-embedding matrix.
    """

    def __init__(
        self, layout: SubspaceLayout, seed: int = 0, confusable_delta: float = 0.4
    ) -> None:
        self.layout = layout
        quarter = layout.quarter
        half = quarter // 2
        self.kind_codes = _unit_rows(rng_for(seed, "codebook", "kind"),
                                     len(KIND_NAMES), quarter)
        self.kind_probe_codes = _unit_rows(
            rng_for(seed, "codebook", "kind-probe"), len(KIND_NAMES), quarter
        )
        self.color_codes = _confusable_unit_rows(
            rng_for(seed, "codebook", "color"), len(COLOR_NAMES), half,
            confusable_delta,
        )
        self.motion_codes = _confusable_unit_rows(
            rng_for(seed, "codebook", "motion"), len(MOTION_NAMES), half,
            confusable_delta,
        )
        self.filler_codes = _unit_rows(rng_for(seed, "codebook", "filler"),
                                       32, layout.hidden) * 0.3

    def association_matrix(self) -> np.ndarray:
        """Associative content-to-probe map over the object sub-space.

        Row-vector form: ``content_k @ M ~= probe_k`` for every kind
        ``k``.  Used as the object-sub-space block of ``Wk`` so that a
        question's *probe* code (query side) matches the patches
        carrying the referenced kind's *content* code (key side) while
        the query token's own key stays near-orthogonal to its query —
        the asymmetry real cross-modal attention heads learn.
        """
        return (self.kind_codes.T @ self.kind_probe_codes).astype(np.float32)

    def slot_codes(self, slot: str) -> np.ndarray:
        """Codebook rows for a question slot (``color`` or ``motion``)."""
        if slot == "color":
            return self.color_codes
        if slot == "motion":
            return self.motion_codes
        raise ValueError(f"unknown slot {slot!r}; expected one of {QUESTION_SLOTS}")

    def slot_names(self, slot: str) -> tuple[str, ...]:
        """Human-readable answer vocabulary for a slot."""
        if slot == "color":
            return COLOR_NAMES
        if slot == "motion":
            return MOTION_NAMES
        raise ValueError(f"unknown slot {slot!r}; expected one of {QUESTION_SLOTS}")

    def decode_slot(self, attr_vector: np.ndarray, slot: str) -> int:
        """Return the codebook index closest (cosine) to ``attr_vector``."""
        codes = self.slot_codes(slot)
        vec = np.asarray(attr_vector, dtype=np.float32)
        norm = float(np.linalg.norm(vec))
        if norm < 1e-12:
            return 0
        scores = codes @ (vec / norm)
        return int(np.argmax(scores))


def positional_code(frame: int, row: int, col: int, dim: int) -> np.ndarray:
    """Sinusoidal positional code over (frame, row, col).

    Each coordinate gets a third of the positional sub-space.  Codes of
    spatially adjacent patches are similar but not identical, mirroring
    how RoPE-style encodings perturb hidden-state similarity in the
    real models (cf. Fig. 2(b): full-token similarity is much lower
    than sub-vector similarity).
    """
    code = np.zeros(dim, dtype=np.float32)
    third = dim // 3
    for part, coord in enumerate((frame, row, col)):
        start = part * third
        span = third if part < 2 else dim - 2 * third
        idx = np.arange(span, dtype=np.float32)
        freq = 1.0 / np.power(50.0, idx / max(span, 1))
        phase = coord * freq
        code[start:start + span] = np.where(idx % 2 == 0, np.sin(phase), np.cos(phase))
    return code / np.linalg.norm(code)


POSITION_TABLE_MAX_ENTRIES = 32
"""LRU bound on memoized positional tables.  A table is
``F * H * W * dim`` float32 (under 150 KB for every zoo layout and
dataset profile); the keys are the few grid shapes the profiles and
scenario segments use, times the zoo's layouts."""


@functools.lru_cache(maxsize=POSITION_TABLE_MAX_ENTRIES)
def positional_table(
    num_frames: int, grid_height: int, grid_width: int, dim: int
) -> np.ndarray:
    """:func:`positional_code` of every patch, shape ``(F, H, W, dim)``.

    Each entry is built by :func:`positional_code` itself, so the table
    is byte-identical to per-patch calls.  (Evaluating the sinusoids
    over a whole coordinate grid at once is *not*: an integer
    coordinate array promotes the phase to float64.)  Tables are
    memoized per grid shape and returned *read-only*, like
    :func:`repro.model.functional.causal_mask`.
    """
    table = np.empty((num_frames, grid_height, grid_width, dim),
                     dtype=np.float32)
    for frame, row, col in itertools.product(
        range(num_frames), range(grid_height), range(grid_width)
    ):
        table[frame, row, col] = positional_code(frame, row, col, dim)
    table.flags.writeable = False
    return table
