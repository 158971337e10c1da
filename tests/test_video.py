"""Tests for repro.workloads.video (the synthetic vision encoder)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.embedding import Codebooks, SubspaceLayout, positional_code
from repro.model.zoo import get_model_config
from repro.utils.rng import rng_for
from repro.workloads.datasets import ALL_PROFILES, make_dataset_span
from repro.workloads.scene import Scene, SceneObject, coverage_map, random_scene
from repro.workloads.video import (
    RenderParams,
    _background_texture,
    render_video,
    token_positions,
)


def _render_video_reference(scene, codebooks, params, seed, sample_index=0):
    """Per-token oracle for :func:`render_video`.

    One Python iteration per (frame, row, col, object), drawing the
    attribute noise token by token.  ``render_video`` must reproduce
    its output byte for byte.
    """
    layout = codebooks.layout
    hidden = layout.hidden
    rng = rng_for(seed, "render", sample_index)
    texture = _background_texture(
        scene, layout.quarter, params.texture_smoothness, rng
    )
    residue = _background_texture(
        scene, 2 * layout.quarter, params.texture_smoothness, rng
    )

    tokens = np.zeros((scene.num_visual_tokens, hidden), dtype=np.float32)
    token_index = 0
    for frame in range(scene.num_frames):
        cover = coverage_map(scene, frame)
        total_cover = np.clip(cover.sum(axis=0), 0.0, 1.0)
        change_mask = (
            rng.random((scene.grid_height, scene.grid_width, layout.quarter))
            < params.change_fraction
        )
        frame_jitter = (
            params.frame_noise
            * change_mask
            * rng.standard_normal(
                (scene.grid_height, scene.grid_width, layout.quarter)
            )
        ).astype(np.float32)
        half = layout.quarter // 2
        for row in range(scene.grid_height):
            for col in range(scene.grid_width):
                emb = np.zeros(hidden, dtype=np.float32)
                for obj_i, obj in enumerate(scene.objects):
                    weight = float(cover[obj_i, row, col])
                    if weight == 0.0:
                        continue
                    emb[layout.object_slice] += (
                        params.object_gain * weight
                        * codebooks.kind_codes[obj.kind_index]
                    )
                    color = codebooks.color_codes[obj.color_index]
                    motion = codebooks.motion_codes[obj.motion_index]
                    if params.attribute_noise > 0.0:
                        color = color + params.attribute_noise * (
                            rng.standard_normal(half).astype(np.float32)
                            / np.sqrt(half)
                        )
                        motion = motion + params.attribute_noise * (
                            rng.standard_normal(half).astype(np.float32)
                            / np.sqrt(half)
                        )
                    emb[layout.color_slice] += (
                        params.attribute_gain * weight * color
                    )
                    emb[layout.motion_slice] += (
                        params.attribute_gain * weight * motion
                    )
                background_weight = 1.0 - float(total_cover[row, col])
                emb[layout.texture_slice] = params.texture_gain * (
                    background_weight * texture[row, col]
                    + frame_jitter[row, col]
                )
                emb[: 2 * layout.quarter] += (
                    params.background_residue * background_weight
                    * residue[row, col]
                )
                emb[layout.position_slice] = (
                    params.position_gain
                    * positional_code(frame, row, col, layout.quarter)
                )
                tokens[token_index] = emb
                token_index += 1
    tokens += params.feature_noise * rng.standard_normal(tokens.shape).astype(
        np.float32
    )
    return tokens


@pytest.fixture(scope="module")
def rendered(tiny_codebooks):
    scene = random_scene(3, 4, 4, 2, seed=9)
    tokens = render_video(scene, tiny_codebooks, RenderParams(), seed=9)
    return scene, tokens


class TestRender:
    def test_shape(self, rendered, tiny_layout):
        scene, tokens = rendered
        assert tokens.shape == (scene.num_visual_tokens, tiny_layout.hidden)

    def test_deterministic(self, tiny_codebooks):
        scene = random_scene(2, 4, 4, 2, seed=4)
        a = render_video(scene, tiny_codebooks, RenderParams(), seed=4)
        b = render_video(scene, tiny_codebooks, RenderParams(), seed=4)
        np.testing.assert_array_equal(a, b)

    def test_fhw_order(self, rendered):
        scene, _ = rendered
        positions = token_positions(scene)
        width = scene.grid_width
        height = scene.grid_height
        linear = (positions[:, 0] * height * width
                  + positions[:, 1] * width + positions[:, 2])
        np.testing.assert_array_equal(linear, np.arange(len(linear)))

    def test_object_kind_present_in_object_patch(self, tiny_codebooks,
                                                 tiny_layout):
        scene = random_scene(1, 6, 6, 1, seed=11)
        tokens = render_video(scene, tiny_codebooks, RenderParams(), seed=11)
        obj = scene.objects[0]
        from repro.workloads.scene import coverage_map
        cover = coverage_map(scene, 0)[0].ravel()
        best = int(np.argmax(cover))
        patch_obj = tokens[best][tiny_layout.object_slice]
        sim = patch_obj @ tiny_codebooks.kind_codes[obj.kind_index]
        assert sim > 0.5

    def test_temporal_redundancy_of_background(self, tiny_codebooks,
                                               tiny_layout):
        # Co-located background patches across frames must be highly
        # similar in the texture sub-space.
        scene = random_scene(2, 6, 6, 1, seed=13)
        tokens = render_video(scene, tiny_codebooks, RenderParams(), seed=13)
        from repro.workloads.scene import coverage_map
        cover = np.maximum(coverage_map(scene, 0).sum(0),
                           coverage_map(scene, 1).sum(0)).ravel()
        background = np.nonzero(cover == 0)[0]
        assert background.size > 0
        per_frame = tokens.reshape(2, 36, -1)
        tex = tiny_layout.texture_slice
        sims = []
        for patch in background:
            a = per_frame[0, patch][tex]
            b = per_frame[1, patch][tex]
            sims.append(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert np.median(sims) > 0.7

    def test_background_residue_nonzero(self, tiny_codebooks, tiny_layout):
        scene = random_scene(1, 6, 6, 1, seed=17)
        tokens = render_video(scene, tiny_codebooks, RenderParams(), seed=17)
        from repro.workloads.scene import coverage_map
        cover = coverage_map(scene, 0)[0].ravel()
        background = int(np.argmin(cover))
        obj_part = tokens[background][tiny_layout.object_slice]
        assert np.linalg.norm(obj_part) > 0.05


class TestTokenPositions:
    def test_shape_and_range(self, rendered):
        scene, _ = rendered
        positions = token_positions(scene)
        assert positions.shape == (scene.num_visual_tokens, 3)
        assert positions[:, 0].max() == scene.num_frames - 1
        assert positions[:, 1].max() == scene.grid_height - 1
        assert positions[:, 2].max() == scene.grid_width - 1


_CODEBOOKS = {
    hidden: Codebooks(SubspaceLayout(hidden), seed=0)
    for hidden in (16, 24, 40, 64, 128)
}


@st.composite
def _scenes(draw):
    """Scenes of 1-5 frames on 3-8 grids with 1-5 objects that may
    overlap one another, straddle patch boundaries or leave the grid."""
    height = draw(st.integers(3, 8))
    width = draw(st.integers(3, 8))
    coord = st.floats(-2.0, 9.0, allow_nan=False)
    extent = st.floats(0.3, 6.0, allow_nan=False)
    objects = draw(st.lists(
        st.builds(
            SceneObject,
            kind_index=st.integers(0, 11),
            color_index=st.integers(0, 7),
            motion_index=st.integers(0, 3),
            row=coord, col=coord, height=extent, width=extent,
            speed=st.floats(0.0, 1.5, allow_nan=False),
        ),
        min_size=1, max_size=5,
    ))
    return Scene(
        num_frames=draw(st.integers(1, 5)), grid_height=height,
        grid_width=width, objects=tuple(objects),
    )


def _levels(high):
    """Non-negative levels with exact zero drawn often."""
    return st.one_of(st.just(0.0), st.floats(0.0, high, allow_nan=False))


_render_params = st.builds(
    RenderParams,
    object_gain=st.floats(0.0, 2.0, allow_nan=False),
    attribute_gain=st.floats(0.0, 2.0, allow_nan=False),
    texture_gain=st.floats(0.0, 2.0, allow_nan=False),
    texture_smoothness=st.floats(0.5, 3.0, allow_nan=False),
    frame_noise=_levels(3.0),
    change_fraction=st.floats(0.0, 1.0, allow_nan=False),
    position_gain=_levels(1.0),
    feature_noise=_levels(0.1),
    attribute_noise=_levels(1.0),
    background_residue=_levels(1.0),
)


class TestMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        scene=_scenes(),
        params=_render_params,
        hidden=st.sampled_from(sorted(_CODEBOOKS)),
        seed=st.integers(0, 2**31 - 1),
        sample_index=st.integers(0, 50),
    )
    def test_bytes_identical(self, scene, params, hidden, seed, sample_index):
        codebooks = _CODEBOOKS[hidden]
        fast = render_video(scene, codebooks, params, seed, sample_index)
        slow = _render_video_reference(
            scene, codebooks, params, seed, sample_index
        )
        assert fast.dtype == slow.dtype == np.float32
        assert fast.shape == slow.shape
        assert fast.tobytes() == slow.tobytes()

    @pytest.mark.parametrize("name", sorted(ALL_PROFILES))
    def test_profile_bytes_identical(self, name, tiny_codebooks):
        profile = ALL_PROFILES[name]
        scene = random_scene(
            profile.num_frames, profile.grid_height, profile.grid_width,
            profile.num_objects, seed=5, motion_scale=profile.motion_scale,
        )
        fast = render_video(scene, tiny_codebooks, profile.render, seed=5)
        slow = _render_video_reference(
            scene, tiny_codebooks, profile.render, seed=5
        )
        assert fast.tobytes() == slow.tobytes()


GOLDEN_VISUAL_SHA256 = {
    "videomme": "f74add18d53cd9ed8dca3ce34430a715a38ae02bcb0478e3888146d987157a19",
    "mlvu": "579b2f5d336988830875ad9bd3db86c4ad087a1e16a31de2b84f2e38344eb6a0",
    "mvbench": "66671b9384653e9d866e9200e10a0281b574110d8d394443fe4e50556cdfb3a1",
    "vqav2": "2f2a626d2d758aa75be7dee7ed66210a8fe69aab671ce32cfdf8a36d79bd5fa8",
    "mme": "fe715196f34fa5862db102724ce1047b99920c1c04c4736cafb3d4d710b29733",
    "mmbench": "c3d65b34c7ad97850d400c0e2a9df63f671924c226073f3dd33b2bfb53080c32",
    "mtconv:turns=2": "c683131c165374abb16c50730ba1cc76e65609d4ae90777720b52e2ed2b6b125",
    "stream": "52f3d6e9906edb7d1555077fc7e3afdff3abc3af034dc1cfd9ab8ff15a81e211",
    "tenantmix": "68c43d00db777abc4473b1244ed6656bdbc83aeba1f1a87ac4479a2cd75da26e",
}
"""sha256 of sample 0's ``visual_tokens`` (seed 0, llava-video layout).

Recorded from the per-token renderer.  The reference test above cannot
see a change that alters both implementations alike; these can."""


class TestGoldenSamples:
    def test_every_profile_pinned(self):
        assert set(ALL_PROFILES) <= set(GOLDEN_VISUAL_SHA256)

    @pytest.mark.parametrize("name", sorted(GOLDEN_VISUAL_SHA256))
    def test_visual_tokens_digest(self, name):
        layout = get_model_config("llava-video").layout
        (sample,) = make_dataset_span(name, layout, 0, 1, seed=0)
        digest = hashlib.sha256(sample.visual_tokens.tobytes()).hexdigest()
        assert digest == GOLDEN_VISUAL_SHA256[name]
