"""Tests for repro.model.embedding (layout, codebooks, positions)."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.model.embedding import (
    COLOR_NAMES,
    KIND_NAMES,
    MOTION_NAMES,
    Codebooks,
    SubspaceLayout,
    positional_code,
    positional_table,
)


class TestLayout:
    def test_slices_partition_hidden(self):
        layout = SubspaceLayout(64)
        slices = [layout.object_slice, layout.attribute_slice,
                  layout.texture_slice, layout.position_slice]
        covered = []
        for s in slices:
            covered.extend(range(s.start, s.stop))
        assert sorted(covered) == list(range(64))

    def test_attribute_halves(self):
        layout = SubspaceLayout(64)
        color, motion = layout.color_slice, layout.motion_slice
        assert color.stop == motion.start
        assert (color.start, motion.stop) == (
            layout.attribute_slice.start, layout.attribute_slice.stop
        )

    def test_rejects_bad_hidden(self):
        with pytest.raises(ValueError):
            SubspaceLayout(60)


class TestCodebooks:
    def test_code_shapes(self, tiny_codebooks, tiny_layout):
        quarter = tiny_layout.quarter
        assert tiny_codebooks.kind_codes.shape == (len(KIND_NAMES), quarter)
        assert tiny_codebooks.kind_probe_codes.shape == (
            len(KIND_NAMES), quarter
        )
        assert tiny_codebooks.color_codes.shape == (
            len(COLOR_NAMES), quarter // 2
        )
        assert tiny_codebooks.motion_codes.shape == (
            len(MOTION_NAMES), quarter // 2
        )

    def test_codes_unit_norm(self, tiny_codebooks):
        for codes in (tiny_codebooks.kind_codes, tiny_codebooks.color_codes,
                      tiny_codebooks.motion_codes):
            np.testing.assert_allclose(
                np.linalg.norm(codes, axis=1), 1.0, rtol=1e-5
            )

    def test_confusable_pairs(self, tiny_codebooks):
        # Odd codes are near their even predecessor; cross-pair cosines
        # stay much lower.
        colors = tiny_codebooks.color_codes
        paired = float(colors[0] @ colors[1])
        unpaired = float(colors[0] @ colors[2])
        assert paired > 0.8
        assert abs(unpaired) < paired

    def test_association_matrix_maps_content_to_probe(self):
        # Use a production-sized layout: 12 kinds need enough object
        # dims to be near-orthogonal for clean associative recall.
        codebooks = Codebooks(SubspaceLayout(192), seed=0)
        matrix = codebooks.association_matrix()
        for k in range(len(KIND_NAMES)):
            mapped = codebooks.kind_codes[k] @ matrix
            probe = codebooks.kind_probe_codes[k]
            sim = mapped @ probe / np.linalg.norm(mapped)
            assert sim > 0.6, f"kind {k} maps poorly ({sim:.2f})"

    def test_decode_slot_roundtrip(self, tiny_codebooks):
        for slot, names in (("color", COLOR_NAMES), ("motion", MOTION_NAMES)):
            for index in range(len(names)):
                code = tiny_codebooks.slot_codes(slot)[index]
                assert tiny_codebooks.decode_slot(code, slot) == index

    def test_decode_zero_vector(self, tiny_codebooks):
        zero = np.zeros(tiny_codebooks.color_codes.shape[1])
        assert tiny_codebooks.decode_slot(zero, "color") == 0

    def test_unknown_slot_raises(self, tiny_codebooks):
        with pytest.raises(ValueError):
            tiny_codebooks.slot_codes("size")
        with pytest.raises(ValueError):
            tiny_codebooks.slot_names("size")

    def test_seeded_reproducibility(self, tiny_layout):
        a = Codebooks(tiny_layout, seed=3)
        b = Codebooks(tiny_layout, seed=3)
        np.testing.assert_array_equal(a.kind_codes, b.kind_codes)


class TestPositionalCode:
    def test_unit_norm(self):
        code = positional_code(1, 2, 3, 48)
        assert np.linalg.norm(code) == pytest.approx(1.0, rel=1e-5)

    def test_distinct_positions_distinct_codes(self):
        a = positional_code(0, 1, 1, 48)
        b = positional_code(0, 1, 2, 48)
        assert not np.allclose(a, b)

    def test_same_position_same_code(self):
        np.testing.assert_array_equal(
            positional_code(2, 3, 1, 48), positional_code(2, 3, 1, 48)
        )

    def test_neighbours_more_similar_than_distant(self):
        base = positional_code(0, 2, 2, 48)
        near = positional_code(0, 2, 3, 48)
        far = positional_code(0, 2, 9, 48)
        assert base @ near > base @ far


class TestPositionalTable:
    @pytest.mark.parametrize("shape", [(1, 3, 3, 4), (3, 4, 5, 6),
                                       (8, 7, 7, 48), (2, 14, 14, 56)])
    def test_entries_match_positional_code(self, shape):
        table = positional_table(*shape)
        frames, height, width, dim = shape
        assert table.shape == shape and table.dtype == np.float32
        for frame in range(frames):
            for row in range(height):
                for col in range(width):
                    assert (table[frame, row, col].tobytes()
                            == positional_code(frame, row, col,
                                               dim).tobytes())

    def test_memoized_read_only(self):
        table = positional_table(2, 3, 4, 12)
        assert positional_table(2, 3, 4, 12) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0, 0] = 1.0

    def test_import_builds_no_table(self):
        """Tables are built on first render, not at import: a fresh
        interpreter loading the program pays nothing for them."""
        import repro

        code = (
            "import repro, repro.cli, repro.eval.experiments, "
            "repro.eval.reporting, repro.serve.server, repro.workloads\n"
            "from repro.model.embedding import positional_table\n"
            "assert positional_table.cache_info().currsize == 0\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       timeout=120)
