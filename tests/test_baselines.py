"""Tests for the baseline methods: FrameFusion, AdapTiV, CMC, GPU."""

import numpy as np
import pytest

from repro.baselines.adaptiv import AdapTiVPlugin, sign_agreement
from repro.baselines.cmc import CMCPlugin
from repro.baselines.dense import DensePlugin
from repro.baselines.framefusion import FrameFusionPlugin
from repro.baselines.gpu import (
    A100,
    JETSON_ORIN_NANO,
    GpuSpec,
    simulate_gpu,
)
from repro.core.pipeline import FocusPlugin
from repro.eval.metrics import computation_sparsity
from repro.model.plugins import InferencePlugin
from repro.quant.int8 import Int8ActivationPlugin


class TestSignAgreement:
    def test_identical(self):
        v = np.array([1.0, -2.0, 3.0])
        assert sign_agreement(v, v) == 1.0

    def test_opposite(self):
        v = np.array([1.0, -2.0, 3.0])
        assert sign_agreement(v, -v) == 0.0

    def test_partial(self):
        assert sign_agreement(np.array([1.0, 1.0, 1.0, 1.0]),
                              np.array([1.0, 1.0, -1.0, -1.0])) == 0.5

    def test_shape_check(self):
        with pytest.raises(ValueError):
            sign_agreement(np.zeros(3), np.zeros(4))


class TestAdapTiV:
    def test_merges_tokens(self, tiny_model, tiny_sample):
        result = tiny_model.forward(tiny_sample, AdapTiVPlugin())
        assert result.final_tokens < (tiny_sample.num_visual_tokens
                                      + tiny_sample.num_text_tokens)
        assert result.trace.preprocess_macs > 0

    def test_high_threshold_merges_nothing(self, tiny_model, tiny_sample):
        result = tiny_model.forward(tiny_sample, AdapTiVPlugin(threshold=1.0))
        assert result.final_tokens == (tiny_sample.num_visual_tokens
                                       + tiny_sample.num_text_tokens)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            AdapTiVPlugin(threshold=0.3)

    def test_sparsity_increases_with_lower_threshold(self, tiny_model,
                                                     tiny_sample):
        def sparsity(threshold):
            result = tiny_model.forward(
                tiny_sample, AdapTiVPlugin(threshold=threshold)
            )
            return computation_sparsity(result.trace, tiny_model.config,
                                        tiny_sample)
        assert sparsity(0.70) >= sparsity(0.95)


class TestCMC:
    def test_condenses_tokens(self, tiny_model, tiny_sample):
        plugin = CMCPlugin(tiny_model.config.layout)
        result = tiny_model.forward(tiny_sample, plugin)
        assert result.final_tokens <= (tiny_sample.num_visual_tokens
                                       + tiny_sample.num_text_tokens)
        assert result.trace.preprocess_macs > 0

    def test_first_frame_never_condensed(self, tiny_model, tiny_sample):
        plugin = CMCPlugin(tiny_model.config.layout, threshold=-1.0)
        state = tiny_model.initial_state(tiny_sample)
        plugin.on_visual_tokens(state)
        frames = state.positions[~state.is_text][:, 0]
        tokens_per_frame = (tiny_sample.scene.grid_height
                            * tiny_sample.scene.grid_width)
        assert int((frames == 0).sum()) == tokens_per_frame

    def test_search_range_validation(self, tiny_layout):
        with pytest.raises(ValueError):
            CMCPlugin(tiny_layout, search_range=-1)

    def test_lower_threshold_condenses_more(self, tiny_model, tiny_sample):
        def final_tokens(threshold):
            plugin = CMCPlugin(tiny_model.config.layout, threshold=threshold)
            return tiny_model.forward(tiny_sample, plugin).final_tokens
        assert final_tokens(0.2) <= final_tokens(0.95)


class TestFrameFusion:
    def test_hits_sparsity_budget(self, tiny_model, tiny_sample):
        # Early merge/prune layers so a 3-layer model can reach the
        # budget (the default layers suit 12+-layer models).
        plugin = FrameFusionPlugin(tiny_model.config, target_sparsity=0.5,
                                   merge_layer=0, prune_layer=1)
        result = tiny_model.forward(tiny_sample, plugin)
        sparsity = computation_sparsity(result.trace, tiny_model.config,
                                        tiny_sample)
        assert sparsity == pytest.approx(0.5, abs=0.15)

    def test_target_validation(self, tiny_model_config):
        with pytest.raises(ValueError):
            FrameFusionPlugin(tiny_model_config, target_sparsity=1.0)

    def test_layer_order_validation(self, tiny_model_config):
        with pytest.raises(ValueError):
            FrameFusionPlugin(tiny_model_config, merge_layer=2,
                              prune_layer=2)

    def test_keeps_text_tokens(self, tiny_model, tiny_sample):
        plugin = FrameFusionPlugin(tiny_model.config, target_sparsity=0.8)
        result = tiny_model.forward(tiny_sample, plugin)
        assert result.final_tokens >= tiny_sample.num_text_tokens + 1


class TestDense:
    def test_noop(self, tiny_model, tiny_sample):
        dense = tiny_model.forward(tiny_sample, DensePlugin())
        plain = tiny_model.forward(tiny_sample)
        assert dense.trace.total_macs == plain.trace.total_macs


class TestGpuRoofline:
    def test_latency_positive(self, tiny_model, tiny_sample):
        trace = tiny_model.forward(tiny_sample).trace
        result = simulate_gpu(trace)
        assert result.latency_s > 0
        assert result.energy_j == pytest.approx(
            result.latency_s * JETSON_ORIN_NANO.board_power_w
        )

    def test_a100_faster_than_orin(self, tiny_model, tiny_sample):
        trace = tiny_model.forward(tiny_sample).trace
        orin = simulate_gpu(trace, JETSON_ORIN_NANO)
        a100 = simulate_gpu(trace, A100)
        assert a100.latency_s < orin.latency_s

    def test_sparse_overhead(self, tiny_model, tiny_sample):
        trace = tiny_model.forward(tiny_sample).trace
        dense = simulate_gpu(trace)
        sparse = simulate_gpu(trace, sparse=True)
        # Same trace: sparse mode only lowers utilization/adds overhead.
        assert sparse.latency_s > dense.latency_s

    def test_memory_bound_detection(self):
        from repro.accel.trace import GemmTrace, ModelTrace
        trace = ModelTrace()
        # Tiny compute, large k*n weights -> memory bound.
        trace.add(GemmTrace(name="fc1", layer=0, m=1, k=4096, n=4096))
        spec = GpuSpec(name="x", peak_tflops=1000.0, bandwidth_gbs=1.0,
                       board_power_w=10.0)
        assert not simulate_gpu(trace, spec).compute_bound


class TestPluginReusability:
    """Plugin construction is hoisted out of the eval loop; stateful
    plugins opt out via ``reusable = False`` and are re-made per
    sample."""

    def test_declarations(self):
        assert DensePlugin.reusable is True
        assert AdapTiVPlugin.reusable is True
        assert CMCPlugin.reusable is True
        assert FrameFusionPlugin.reusable is True
        assert FocusPlugin.reusable is True

    def test_int8_wrapper_delegates(self):
        class Stateful(InferencePlugin):
            reusable = False

        assert Int8ActivationPlugin(DensePlugin()).reusable is True
        assert Int8ActivationPlugin(Stateful()).reusable is False
