"""Rendering scenes into visual token embeddings.

This module plays the role of the VLM's vision encoder + projector: it
turns a :class:`~repro.workloads.scene.Scene` into the sequence of
visual token embeddings the LLM consumes, ordered frame-major then
row-major (the FHW order the paper's convolution-style layouter
assumes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.model.embedding import Codebooks, SubspaceLayout, positional_table
from repro.utils.rng import rng_for
from repro.workloads.scene import Scene, coverage_map


@dataclass(frozen=True)
class RenderParams:
    """Gains and noise levels of the synthetic vision encoder.

    Attributes:
        object_gain: Magnitude of object-identity codes in patch
            embeddings.
        attribute_gain: Magnitude of colour/motion codes.
        texture_gain: Magnitude of the background texture field.
        texture_smoothness: Gaussian sigma of the spatial texture
            field; larger values increase *spatial* redundancy.
        frame_noise: Magnitude of the per-frame change on *changed*
            texture channels; smaller values increase temporal
            redundancy.
        change_fraction: Fraction of texture channels that change
            between frames.  Real inter-frame differences are
            *structured* — a few feature channels (lighting, motion
            cues) move while the rest hold still — which is exactly why
            short sub-vectors are far more often near-identical than
            whole tokens (Fig. 2(b)).  Isotropic noise would invert
            that trend.
        position_gain: Magnitude of the (frame, row, col) positional
            code.
        feature_noise: I.i.d. noise over the full embedding, modelling
            encoder jitter.
        attribute_noise: Per-patch perturbation of the attribute codes.
            A single patch is an unreliable witness of the object's
            attribute; the dense model recovers it by averaging over
            all the object's patches, so methods that prune or distort
            patches pay a measurable accuracy cost — the mechanism
            behind the paper's Table II accuracy deltas.
    """

    object_gain: float = 1.0
    attribute_gain: float = 1.0
    texture_gain: float = 0.8
    texture_smoothness: float = 1.5
    frame_noise: float = 1.8
    change_fraction: float = 0.02
    position_gain: float = 0.25
    feature_noise: float = 0.01
    attribute_noise: float = 0.35
    background_residue: float = 0.5
    """Frame-stable low-level response of the object/attribute channels
    on background patches.  Real encoders emit non-zero features in
    every channel; without this, background sub-vectors in the unused
    channels would be pure noise with random (near-zero) inter-frame
    cosine, which distorts the Fig. 2(b) granularity statistics."""


def _background_texture(
    scene: Scene, dim: int, smoothness: float, rng: np.random.Generator
) -> np.ndarray:
    """Smooth spatial texture field, identical for every frame.

    Spatial smoothing makes neighbouring patches similar (intra-frame
    redundancy); reusing the same field across frames makes co-located
    patches nearly identical (inter-frame redundancy).
    """
    field = rng.standard_normal(
        (scene.grid_height, scene.grid_width, dim)
    ).astype(np.float32)
    field = ndimage.gaussian_filter(field, sigma=(smoothness, smoothness, 0.0))
    norms = np.linalg.norm(field, axis=-1, keepdims=True)
    return field / np.maximum(norms, 1e-8)


def render_video(
    scene: Scene,
    codebooks: Codebooks,
    params: RenderParams,
    seed: int,
    sample_index: int = 0,
) -> np.ndarray:
    """Render a scene into visual token embeddings.

    Each frame is built with whole-grid array operations; the only
    Python loop inside a frame runs over the scene's objects.  The
    random stream is drawn in a fixed order per frame: the change mask,
    the texture jitter, then one block of attribute noise holding a
    (colour, motion) pair for every nonzero coverage entry in
    row-major, then object, order.  Draws and float dtypes match a
    per-token loop exactly, so the output is byte-identical to the
    per-token oracle in ``tests/test_video.py``.

    Returns:
        Array of shape ``(num_visual_tokens, hidden)`` in FHW order:
        token ``f * H * W + r * W + c`` is patch ``(r, c)`` of frame
        ``f``.
    """
    layout: SubspaceLayout = codebooks.layout
    quarter = layout.quarter
    half = quarter // 2
    height, width = scene.grid_height, scene.grid_width
    rng = rng_for(seed, "render", sample_index)
    texture = _background_texture(
        scene, quarter, params.texture_smoothness, rng
    )
    residue = _background_texture(
        scene, 2 * quarter, params.texture_smoothness, rng
    )
    positions = positional_table(scene.num_frames, height, width, quarter)

    tokens = np.zeros(
        (scene.num_frames, height, width, layout.hidden), dtype=np.float32
    )
    for frame, emb in enumerate(tokens):
        cover = coverage_map(scene, frame)
        total_cover = np.clip(cover.sum(axis=0), 0.0, 1.0)
        change_mask = (
            rng.random((height, width, quarter)) < params.change_fraction
        )
        frame_jitter = (
            params.frame_noise
            * change_mask
            * rng.standard_normal((height, width, quarter))
        ).astype(np.float32)
        rows, cols, owners = np.nonzero(cover.transpose(1, 2, 0))
        # Gains are formed in float64 (Python-float arithmetic) and
        # rounded to float32 only where they meet a float32 code.
        weights = cover[owners, rows, cols].astype(np.float64)
        if params.attribute_noise > 0.0:
            # float64: np.sqrt(half) is a float64 scalar.
            noise = params.attribute_noise * (
                rng.standard_normal(owners.size * 2 * half)
                .astype(np.float32).reshape(-1, 2, half)
                / np.sqrt(half)
            )
        for obj_i, obj in enumerate(scene.objects):
            mine = owners == obj_i
            r, c, weight = rows[mine], cols[mine], weights[mine, None]
            emb[r, c, layout.object_slice] += (
                (params.object_gain * weight).astype(np.float32)
                * codebooks.kind_codes[obj.kind_index]
            )
            color = codebooks.color_codes[obj.color_index]
            motion = codebooks.motion_codes[obj.motion_index]
            if params.attribute_noise > 0.0:
                color = color + noise[mine, 0]
                motion = motion + noise[mine, 1]
            gain = (params.attribute_gain * weight).astype(color.dtype)
            emb[r, c, layout.color_slice] += gain * color
            emb[r, c, layout.motion_slice] += gain * motion
        background = 1.0 - total_cover.astype(np.float64)[..., None]
        emb[..., layout.texture_slice] = params.texture_gain * (
            background.astype(np.float32) * texture + frame_jitter
        )
        emb[..., : 2 * quarter] += (
            (params.background_residue * background).astype(np.float32)
            * residue
        )
        emb[..., layout.position_slice] = (
            params.position_gain * positions[frame]
        )
    tokens = tokens.reshape(scene.num_visual_tokens, layout.hidden)
    tokens += params.feature_noise * rng.standard_normal(tokens.shape).astype(
        np.float32
    )
    return tokens


def token_positions(scene: Scene) -> np.ndarray:
    """FHW coordinates of every visual token, shape ``(M, 3)``.

    Column order is ``(frame, row, col)``, matching the layouter's
    addressing equations (Fig. 7).
    """
    grid = np.indices(
        (scene.num_frames, scene.grid_height, scene.grid_width)
    )
    return grid.reshape(3, -1).T.astype(np.int64)
