"""Span recorder for the traced run, and the hooks that feed it.

The recorder wraps public functions and methods of the program's
layers from the outside: :func:`installed` swaps each target for a
wrapper that opens a span (name, start, end, parent, request id) and
restores the originals on exit.  Spans stay in memory until
:meth:`SpanRecorder.dump` writes them out at the end of the run.

The wrappers are installed only for the traced phase of a run; the
untraced phase runs the program unmodified.  Work done inside engine
pool workers is not traced (they import the program afresh), so
per-layer times of a parallel sweep cover the scheduling process only.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from stats import self_times

Note = Callable[[tuple, dict, Any], dict]


class SpanRecorder:
    """In-memory span store; thread-safe for appends."""

    def __init__(self) -> None:
        self.spans: dict[int, list] = {}
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, rid: object) -> Iterator[None]:
        """Tag spans opened on this thread with request id ``rid``."""
        previous = getattr(self._local, "rid", None)
        self._local.rid = rid
        try:
            yield
        finally:
            self._local.rid = previous

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Record the enclosed block as one span; yields its attribute
        dict for the caller to fill."""
        attrs: dict[str, Any] = {}
        stack = self._stack()
        span_id = next(self._ids)
        record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                  getattr(self._local, "rid", None), attrs]
        stack.append(span_id)
        record[1] = time.perf_counter()
        try:
            yield attrs
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            self.spans[span_id] = record

    def wrap(self, name: str, fn: Callable, note: Note | None = None):
        """``fn`` wrapped so each call is a span; ``note`` maps
        ``(args, kwargs, result)`` to extra span attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if note is not None:
                    attrs.update(note(args, kwargs, result))
            return result

        return traced

    def records(self) -> list[list]:
        """Spans in id order, parents rewritten as list indices."""
        ids = sorted(self.spans)
        position = {span_id: i for i, span_id in enumerate(ids)}
        out = []
        for span_id in ids:
            name, start, end, parent, rid, attrs = self.spans[span_id]
            out.append([name, start, end, position.get(parent, -1), rid,
                        attrs])
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.records()}, fh)


def load_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def summarize(records: list[list],
              window: tuple[float, float] | None = None,
              ) -> dict[str, dict[str, Any]]:
    """Per span name: calls, inclusive ms, self ms, and the list of
    attribute dicts its spans carried; with ``window``, only spans
    starting inside it count."""
    selfs = self_times([(r[0], r[1], r[2], r[3]) for r in records])
    out: dict[str, dict[str, Any]] = {}
    for record, self_s in zip(records, selfs):
        name, start, end, _parent, rid, attrs = record
        if window is not None and not window[0] <= start <= window[1]:
            continue
        entry = out.setdefault(
            name, {"calls": 0, "incl_ms": 0.0, "self_ms": 0.0, "attrs": []}
        )
        entry["calls"] += 1
        entry["incl_ms"] += (end - start) * 1e3
        entry["self_ms"] += self_s * 1e3
        if attrs:
            entry["attrs"].append(
                {**attrs, "ms": (end - start) * 1e3, "rid": rid})
    return out


# ---------------------------------------------------------------------------
# Hook targets: one span name per layer boundary
# ---------------------------------------------------------------------------

PLUGIN_HOOKS = ("begin", "on_visual_tokens", "before_layer", "gemm_input",
                "after_attention_probs", "finish")


def _note_synth(fn: Callable) -> Note:
    signature = inspect.signature(fn)

    def note(args: tuple, kwargs: dict, result: Any) -> dict:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        key = [a["name"], repr(a["layout"]), a["seed"], a["vocab_seed"]]
        return {"key": key, "start": a["start"], "stop": a["stop"]}

    return note


def _note_forward(args: tuple, kwargs: dict, result: Any) -> dict:
    plugin = args[2] if len(args) > 2 else kwargs.get("plugin")
    return {"plugin": type(plugin).__name__,
            "macs": int(result.trace.total_macs)}


def _targets() -> list[tuple[Any, str, str, Note | None]]:
    import repro.accel.sim_jobs as sim_jobs
    import repro.accel.simulator as simulator
    import repro.core.gather as gather
    import repro.core.matching as matching
    import repro.core.semantic as semantic
    import repro.engine.cache as cache
    import repro.engine.registry as registry
    import repro.engine.scheduler as scheduler
    import repro.eval.runner as runner
    import repro.model.vlm as vlm

    targets: list[tuple[Any, str, str, Note | None]] = [
        (runner, "make_dataset_span", "workloads.synth",
         _note_synth(runner.make_dataset_span)),
        (vlm.SyntheticVLM, "__init__", "model.build", None),
        (vlm.SyntheticVLM, "forward", "model.forward", _note_forward),
        (gather.SimilarityGather, "gather", "core.gather", None),
        (matching.SimilarityMatcher, "match_tile", "core.match", None),
        (semantic.SemanticConcentrator, "prune", "core.sec", None),
        (simulator, "simulate", "accel.simulate", None),
        (sim_jobs, "simulate", "accel.simulate", None),
        (runner, "evaluate", "eval.job", None),
        (registry, "assemble_plan", "eval.assemble", None),
        (registry, "format_result", "eval.format", None),
        (scheduler.ExperimentEngine, "run", "engine.run", None),
        (cache.ResultCache, "lookup", "engine.cache_get", None),
        (cache.ResultCache, "put", "engine.cache_put", None),
    ]
    for cls in sorted(_plugin_classes(), key=lambda c: c.__qualname__):
        layer = "core" if cls.__module__.startswith("repro.core") else (
            "baselines")
        for hook in PLUGIN_HOOKS:
            if hook in vars(cls):
                targets.append((cls, hook, f"{layer}.hook", None))
    return targets


def _plugin_classes() -> set[type]:
    from repro.baselines.adaptiv import AdapTiVPlugin
    from repro.baselines.cmc import CMCPlugin
    from repro.baselines.dense import DensePlugin
    from repro.baselines.framefusion import FrameFusionPlugin
    from repro.core.pipeline import FocusPlugin

    return {AdapTiVPlugin, CMCPlugin, DensePlugin, FrameFusionPlugin,
            FocusPlugin}


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every target with ``recorder`` spans; restore on exit."""
    patched: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, name, note in _targets():
            original = vars(owner)[attr]
            setattr(owner, attr, recorder.wrap(name, original, note))
            patched.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
