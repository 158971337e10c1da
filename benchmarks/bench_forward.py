"""Single-sample forward-pass benchmark: reference vs wavefront matcher.

The acceptance gate for the wavefront-matcher PR: on every model-zoo
entry, a full Focus forward pass under the wavefront (level-scheduled)
matcher must be *trace-for-trace identical* to the retained serial
reference, and on the large zoo config (the widest/deepest model,
``qwen25-vl``, on the largest token stream, ``videomme``) the wavefront
forward must be at least ``SPEEDUP_GATE`` x faster.  The run doubles as
the telemetry emitter: ``benchmarks/results/BENCH_forward.json``
records per-model wall-clock for both matcher implementations, the
speedup, token counts, and matcher comparison counts, giving future
PRs a perf trajectory for the forward hot path like BENCH_sim.json /
BENCH_eval.json provide for the simulation and evaluation phases.

The reference arm patches :meth:`SimilarityMatcher.match_tile` to the
oracle :meth:`SimilarityMatcher.match_tile_reference` for its forwards;
the program itself always runs the wavefront.
"""

import json
import time

from repro.config import FocusConfig
from repro.core.matching import SimilarityMatcher
from repro.core.pipeline import FocusPlugin
from repro.eval.runner import ModelCache
from repro.model.zoo import MODEL_CONFIGS
from repro.workloads.datasets import make_dataset_span

MODEL_STREAMS = {
    "llava-video": "videomme",
    "llava-onevision": "mvbench",
    "minicpm": "mlvu",
    "qwen25-vl": "videomme",
}
"""Token stream per zoo entry.  ``qwen25-vl`` (the largest model) runs
the largest stream — that pair is the gated "large zoo config"."""

LARGE_CONFIG = ("qwen25-vl", "videomme")
SPEEDUP_GATE = 2.0
ROUNDS = 3
"""Best-of-N timing; the minimum is robust against scheduler noise."""


def _timed_forward(model, sample):
    """Best-of-ROUNDS wall clock and the last outcome of a Focus forward."""
    best = float("inf")
    outcome = None
    for _ in range(ROUNDS):
        plugin = FocusPlugin(model, FocusConfig())
        start = time.perf_counter()
        outcome = model.forward(sample, plugin)
        best = min(best, time.perf_counter() - start)
    return best, outcome


def test_forward_wavefront_parity_and_speedup(
    benchmark, results_dir, monkeypatch
):
    entries = {}
    for name in MODEL_CONFIGS:
        model = ModelCache.get(name)
        dataset = MODEL_STREAMS[name]
        sample, = make_dataset_span(
            dataset, model.config.layout, 0, 1, seed=0
        )
        with monkeypatch.context() as patch:
            patch.setattr(
                SimilarityMatcher, "match_tile",
                SimilarityMatcher.match_tile_reference,
            )
            ref_wall, ref_out = _timed_forward(model, sample)
        wav_wall, wav_out = _timed_forward(model, sample)

        # The tentpole guarantee: the wavefront forward is bit-identical
        # to the serial reference — same prediction, same trace, every
        # GEMM, every tile length, every comparison count.
        assert wav_out.predicted_index == ref_out.predicted_index, name
        assert wav_out.final_tokens == ref_out.final_tokens, name
        assert wav_out.trace == ref_out.trace, name

        entries[name] = {
            "dataset": dataset,
            "tokens": ref_out.trace.initial_tokens,
            "hidden": model.config.hidden,
            "layers": model.config.num_layers,
            "reference_wall_s": round(ref_wall, 5),
            "wavefront_wall_s": round(wav_wall, 5),
            "speedup": round(ref_wall / wav_wall, 3),
            "sic_comparisons": ref_out.trace.sic_comparisons,
        }

    large_model, large_dataset = LARGE_CONFIG
    large = entries[large_model]
    assert large["dataset"] == large_dataset
    assert large["speedup"] >= SPEEDUP_GATE, (
        f"wavefront forward speedup {large['speedup']}x on "
        f"{LARGE_CONFIG} below the {SPEEDUP_GATE}x gate"
    )

    def _one_wavefront_forward():
        model = ModelCache.get(large_model)
        sample, = make_dataset_span(
            large_dataset, model.config.layout, 0, 1, seed=0
        )
        plugin = FocusPlugin(model, FocusConfig())
        return model.forward(sample, plugin)

    benchmark.pedantic(_one_wavefront_forward, rounds=1, iterations=1)
    benchmark.extra_info["large_config_speedup"] = large["speedup"]

    payload = {
        "gate": {
            "model": large_model,
            "dataset": large_dataset,
            "min_speedup": SPEEDUP_GATE,
            "speedup": large["speedup"],
        },
        "rounds": ROUNDS,
        "models": entries,
    }
    (results_dir / "BENCH_forward.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
