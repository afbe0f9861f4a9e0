"""Timing wrappers the benchmark installs into the server process.

Nothing in ``repro`` is edited: :func:`install` replaces public functions and
methods of each layer with wrappers, before the server starts serving, when
the benchmark runs with ``--trace 1``.  Each wrapper always counts its calls
(and sums an optional per-call note, such as the lines a tailer poll
returned), and while :attr:`Tracer.enabled` is set it also records a span.

A span holds its name, start, end, parent span, request id, thread name and
note.  The parent is the innermost enclosing span on the same thread; the
request id is the id of the outermost one, so every span under one search
(or one microbatch flush, or one daemon poll) shares it.  Spans stay in
memory until :meth:`Tracer.dump`.  A layer's self time is its spans'
duration minus the duration of their direct children.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int | None
    request_id: int
    name: str
    start: float
    end: float
    thread: str
    note: object


class Tracer:
    """Call counters that are always on, plus spans while :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.queue_waits: list[float] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._calls: dict[str, int] = defaultdict(int)
        self._notes: dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------- wrappers

    def _count(self, name: str, note) -> None:
        with self._lock:
            self._calls[name] += 1
            if isinstance(note, (bool, int, float)):
                self._notes[name] += note

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _last_starts(self) -> dict[str, float]:
        starts = getattr(self._local, "last_start", None)
        if starts is None:
            starts = self._local.last_start = {}
        return starts

    def wrap(self, name: str, function, note=None):
        """Wrap a synchronous callable; ``note(result)`` annotates the span."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.enabled:
                result = function(*args, **kwargs)
                self._count(name, note(result) if note else None)
                return result
            stack = self._stack()
            parent_id, request_id = stack[-1] if stack else (None, None)
            span_id = next(self._ids)
            stack.append((span_id, request_id or span_id))
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._last_starts()[name] = start
            value = note(result) if note else None
            self._count(name, value)
            self.spans.append(
                Span(
                    span_id,
                    parent_id,
                    request_id or span_id,
                    name,
                    start,
                    end,
                    threading.current_thread().name,
                    value,
                )
            )
            return result

        return traced

    def wrap_async(self, name: str, function):
        """Wrap a coroutine function as a top-level span on the event loop.

        Coroutines interleave on one thread, so their spans never become
        parents of the synchronous spans that run between their awaits.
        """

        @functools.wraps(function)
        async def traced(*args, **kwargs):
            if not self.enabled:
                self._count(name, None)
                return await function(*args, **kwargs)
            span_id = next(self._ids)
            start = time.perf_counter()
            try:
                return await function(*args, **kwargs)
            finally:
                self._count(name, None)
                self.spans.append(
                    Span(
                        span_id, None, span_id, name, start, time.perf_counter(),
                        threading.current_thread().name, None,
                    )
                )

        return traced

    def wrap_submit(self, function, flush_name: str):
        """Wrap ``MicrobatchQueue.submit_many`` to time each line's queue wait.

        A future resolves on the queue's worker thread right after the flush
        that decoded it, so the wait is that thread's latest ``flush_name``
        span start minus the submit time.
        """

        @functools.wraps(function)
        def traced(queue, token_sequences):
            submitted = time.perf_counter()
            futures = function(queue, token_sequences)
            if self.enabled:
                for future in futures:
                    if not future.done():
                        future.add_done_callback(
                            functools.partial(self._note_wait, submitted, flush_name)
                        )
            return futures

        return traced

    def _note_wait(self, submitted: float, flush_name: str, _future) -> None:
        flush_start = self._last_starts().get(flush_name)
        if flush_start is not None and flush_start >= submitted:
            self.queue_waits.append(flush_start - submitted)

    # -------------------------------------------------------------- results

    def counters(self) -> dict:
        """Calls and note sums per wrapped name (counted whether or not enabled)."""
        with self._lock:
            return {"calls": dict(self._calls), "notes": dict(self._notes)}

    def summary(self) -> dict:
        """Per span name: count, total and self time in seconds.

        Spans whose note is a bool are also pooled under ``name:true`` or
        ``name:false`` (e.g. daemon polls that did or did not publish).
        """
        spans = list(self.spans)
        child_time: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent_id is not None:
                child_time[span.parent_id] += span.end - span.start
        rows: dict[str, dict] = {}
        for span in spans:
            duration = span.end - span.start
            keys = [span.name]
            if isinstance(span.note, bool):
                keys.append(f"{span.name}:{str(span.note).lower()}")
            for key in keys:
                row = rows.setdefault(key, {"count": 0, "total_s": 0.0, "self_s": 0.0})
                row["count"] += 1
                row["total_s"] += duration
                row["self_s"] += duration - child_time.get(span.span_id, 0.0)
        waits = list(self.queue_waits)
        return {
            "spans": rows,
            "queue_wait": {"count": len(waits), "total_s": sum(waits)},
        }

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__, default=str) + "\n")


# ----------------------------------------------------------------- install


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module global that refers to ``original``.

    Functions imported by name (``from repro.index.sharding import
    commit_update``) are separate bindings; each must be replaced for calls
    through that module to be seen.
    """
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _patch_function(tracer: Tracer, module, attribute: str, name: str, note=None) -> None:
    original = getattr(module, attribute)
    _replace_everywhere(original, tracer.wrap(name, original, note))


def _patch_method(tracer: Tracer, cls, attribute: str, name: str, note=None) -> None:
    raw = cls.__dict__[attribute]
    if isinstance(raw, classmethod):
        setattr(cls, attribute, classmethod(tracer.wrap(name, raw.__func__, note)))
    else:
        setattr(cls, attribute, tracer.wrap(name, raw, note))


def _bytes_on_tail_thread(buffer) -> int:
    return len(buffer) if threading.current_thread().name == "ingest-tail" else 0


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    import repro.engine.lattice as lattice
    import repro.index.builder as builder
    import repro.index.sharding as sharding
    import repro.persistence as persistence
    import repro.serve.aio as aio
    from repro.core.ingredient_pipeline import IngredientPipeline
    from repro.core.instruction_pipeline import InstructionPipeline
    from repro.index.query import QueryEngine
    from repro.ingest.daemon import IngestDaemon, TieredCompactionPolicy
    from repro.ingest.tailer import JsonlTailer
    from repro.serve.microbatch import MicrobatchQueue
    from repro.serve.registry import ModelRegistry
    from repro.serve.search import SearchService

    # read path
    _patch_method(tracer, SearchService, "search", "search.search")
    _patch_method(tracer, ModelRegistry, "reload", "registry.reload")
    _patch_method(tracer, ModelRegistry, "load", "registry.load")
    _patch_method(tracer, QueryEngine, "search", "query.search")
    _patch_method(tracer, QueryEngine, "facets", "query.facets")
    # write path
    _patch_method(tracer, sharding.ShardedRecipeIndex, "loads", "sharding.load")
    _patch_function(tracer, sharding, "commit_update", "sharding.commit")
    _patch_function(tracer, sharding, "merge_shards", "sharding.merge")
    _patch_function(
        tracer, persistence, "open_artifact_buffer", "sharding.tail_bytes_opened",
        _bytes_on_tail_thread,
    )
    _patch_function(tracer, builder, "extract_entities", "builder.extract")
    _patch_method(
        tracer, JsonlTailer, "poll", "tailer.poll", lambda batch: len(batch.lines)
    )
    _patch_method(
        tracer, IngestDaemon, "poll_once", "daemon.poll_once",
        lambda manifest: manifest is not None,
    )
    _patch_method(
        tracer, TieredCompactionPolicy, "should_compact", "daemon.should_compact", bool
    )
    # tag path
    aio.tag_lines_async = tracer.wrap_async("aio.tag_lines", aio.tag_lines_async)
    MicrobatchQueue.submit_many = tracer.wrap_submit(MicrobatchQueue.submit_many, "ner.batch")
    _patch_method(
        tracer, IngredientPipeline, "tag_token_batch", "ner.batch", lambda tags: len(tags)
    )
    _patch_method(
        tracer, InstructionPipeline, "tag_token_batch", "ner.batch", lambda tags: len(tags)
    )
    _patch_function(tracer, lattice, "decode_emissions", "engine.viterbi")
