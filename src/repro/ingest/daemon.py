"""LSM-style ingest daemon: tailer → delta commits → tiered compaction.

:class:`IngestDaemon` glues the :class:`~repro.ingest.tailer.JsonlTailer`
to the incremental write path of :mod:`repro.index.sharding`.  Each poll
becomes **one** manifest generation — the batch's new documents as a
delta shard, its deletes as a tombstone shard, and the advanced tailer
offsets, all published by a single locked compare-and-swap manifest
write.  Readers keep serving whichever generation they loaded; a crash
at any point either published the whole batch (offsets included, so it
is never re-read) or none of it (offsets unchanged, so the next poll
replays it) — exactly-once, with no journal beside the manifest.

A second background thread runs the classic LSM merge policy:
:class:`TieredCompactionPolicy` watches the manifest shape and, once
enough delta shards or tombstones pile up, folds everything into fresh
hash-partitioned base shards via
:func:`~repro.index.sharding.merge_shards` — resolving tombstones for
good.  Tailer and compactor race each other through the same manifest
compare-and-swap, so whichever loses a cycle simply retries against the
new generation.

Feed protocol (one JSON object per line):

* ``{"_delete": "<recipe-id>"}`` — tombstone every live document with
  that recipe id.
* anything else — a :class:`~repro.core.recipe_model.StructuredRecipe`
  rendering (``StructuredRecipe.to_json``), or, when the daemon was
  given a ``structure`` hook, a raw payload the hook turns into one.
  A recipe id that is already live is an **upsert**: the old documents
  are tombstoned in the same generation that adds the new one.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.core.recipe_model import StructuredRecipe
from repro.errors import DataError, PersistenceError
from repro.index.sharding import (
    ShardedRecipeIndex,
    ShardManifest,
    commit_update,
    merge_shards,
)
from repro.ingest.tailer import JsonlTailer, TailBatch

__all__ = ["IngestDaemon", "TieredCompactionPolicy"]

_COMMIT_RETRIES = 3


@dataclass(frozen=True)
class TieredCompactionPolicy:
    """Size-tiered trigger: compact when small runs or garbage pile up.

    Attributes:
        max_deltas: Compact once this many delta shards accumulated
            (the many-small-runs trigger).
        max_tombstone_fraction: Compact once tombstoned documents
            exceed this fraction of the corpus (the garbage trigger);
            ``None`` disables it.
    """

    max_deltas: int = 4
    max_tombstone_fraction: float | None = 0.25

    def should_compact(self, manifest) -> bool:
        if manifest.delta_count >= self.max_deltas:
            return True
        if self.max_tombstone_fraction is not None and manifest.doc_count > 0:
            fraction = manifest.tombstone_count / manifest.doc_count
            if manifest.tombstone_count > 0 and fraction >= self.max_tombstone_fraction:
                return True
        return False


class IngestDaemon:
    """Continuous ingestion over one shard manifest.

    Args:
        manifest_path: Shard manifest to append to (must exist — build
            the initial generation with ``build_sharded_index`` or an
            empty ``add_jsonl``).
        watch: Feed file or drop directory for the tailer.
        policy: Compaction trigger; ``None`` uses the defaults.
        num_shards: Base-shard count compaction rewrites to; ``None``
            keeps the manifest's current ``num_shards``.
        format: On-disk format for delta shards and compacted shards.
        structure: Optional hook mapping a raw feed payload (dict) to a
            :class:`StructuredRecipe` — e.g. a closure over
            ``RecipeStructurer`` for feeds of unstructured recipes.
            Without it, feed lines must be ``StructuredRecipe`` JSON.
        batch_limit: Max feed lines folded into one generation.
        poll_interval_s: Sleep between polls in the background thread.
        compact_interval_s: Sleep between policy checks in the
            background compaction thread.
        on_publish: Called with each newly published
            :class:`~repro.index.sharding.ShardManifest` (ingest
            commits and compactions alike).  Test hook; exceptions are
            counted, not raised.
    """

    def __init__(
        self,
        manifest_path: str | Path,
        watch: str | Path,
        *,
        policy: TieredCompactionPolicy | None = None,
        num_shards: int | None = None,
        format: str = "v1",
        structure: Callable[[dict], StructuredRecipe] | None = None,
        batch_limit: int = 256,
        poll_interval_s: float = 0.05,
        compact_interval_s: float = 0.1,
        on_publish: Callable[..., None] | None = None,
    ) -> None:
        self._manifest_path = Path(manifest_path)
        self._policy = policy or TieredCompactionPolicy()
        self._num_shards = num_shards
        self._format = format
        self._structure = structure
        self._batch_limit = batch_limit
        self._poll_interval_s = poll_interval_s
        self._compact_interval_s = compact_interval_s
        self._on_publish = on_publish

        manifest = ShardedRecipeIndex.load(self._manifest_path).manifest
        self._tailer = JsonlTailer(watch, offsets=manifest.ingest or {})
        self._generation = manifest.generation

        # recipe_id -> live global doc ids, maintained incrementally and
        # rebuilt whenever the manifest moved without us (generation key).
        self._live_map: dict[str, list[int]] | None = None
        self._live_map_generation = -1

        self._lock = threading.Lock()  # guards counters + generation
        self._counters = {
            "generations_published": 0,
            "docs_ingested": 0,
            "docs_deleted": 0,
            "compactions": 0,
            "commit_conflicts": 0,
            "feed_errors": 0,
            "poison_lines": 0,
        }
        self._last_error: str | None = None
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    # ---------------------------------------------------------------- running

    def start(self) -> None:
        """Start the tailer and compaction background threads."""
        if self._threads:
            return
        self._stop.clear()
        self._threads = [
            threading.Thread(target=self._ingest_loop, name="ingest-tail", daemon=True),
            threading.Thread(
                target=self._compact_loop, name="ingest-compact", daemon=True
            ),
        ]
        for thread in self._threads:
            thread.start()

    def stop(self) -> None:
        """Stop both threads (waits for the in-flight cycle to finish)."""
        self._stop.set()
        for thread in self._threads:
            thread.join()
        self._threads = []

    def __enter__(self) -> "IngestDaemon":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _ingest_loop(self) -> None:
        while not self._stop.is_set():
            try:
                published = self.poll_once()
            except Exception as error:  # keep tailing through bad batches
                self._note_error(error)
                published = None
            if published is None:
                self._stop.wait(self._poll_interval_s)

    def _compact_loop(self) -> None:
        while not self._stop.is_set():
            try:
                self.compact_once()
            except Exception as error:
                self._note_error(error)
            self._stop.wait(self._compact_interval_s)

    # -------------------------------------------------------- one-shot cycles

    def poll_once(self):
        """Tail one batch and publish it as one generation.

        Returns the new :class:`ShardManifest`, or ``None`` when the
        feed had nothing new.  A concurrent-writer conflict (another
        appender, or our own compactor) reloads and retries the whole
        poll→commit pipeline — offsets only advance on success, so a
        lost race never drops or duplicates a line.
        """
        for attempt in range(_COMMIT_RETRIES):
            batch = self._tailer.poll(self._batch_limit)
            if not batch:
                return None
            try:
                manifest = self._commit_batch(batch)
            except PersistenceError:
                with self._lock:
                    self._counters["commit_conflicts"] += 1
                if attempt == _COMMIT_RETRIES - 1:
                    raise
                continue
            self._tailer.commit(batch.offsets)
            with self._lock:
                self._generation = manifest.generation
            self._publish(manifest)
            return manifest
        return None

    def compact_once(self):
        """Compact now if the policy says so.

        Returns the compacted manifest, ``None`` when the policy is not
        triggered, and also ``None`` when the compaction lost the
        manifest race to a concurrent append (it will fire again on the
        next cycle, against the newer generation).  The policy reads the
        manifest alone; shards are loaded (and verified) only once it fires.
        """
        if not self._policy.should_compact(ShardManifest.load(self._manifest_path)):
            return None
        index = ShardedRecipeIndex.load(self._manifest_path)
        num_shards = self._num_shards or index.manifest.num_shards
        try:
            compacted = merge_shards(
                index,
                num_shards=num_shards,
                manifest_path=self._manifest_path,
                format=self._format,
            )
        except PersistenceError:
            with self._lock:
                self._counters["commit_conflicts"] += 1
            return None
        manifest = compacted.manifest
        with self._lock:
            self._counters["compactions"] += 1
            self._generation = manifest.generation
        self._publish(manifest)
        return manifest

    def run_once(self):
        """One deterministic cycle: poll, then maybe compact (tests)."""
        manifest = self.poll_once()
        compacted = self.compact_once()
        return compacted or manifest

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict:
        """JSON-ready counters for ``/stats`` and the CLI."""
        with self._lock:
            snapshot = dict(self._counters)
            snapshot["generation"] = self._generation
            snapshot["last_error"] = self._last_error
        snapshot["pending_bytes"] = self._tailer.pending_bytes()
        snapshot["running"] = bool(self._threads)
        return snapshot

    # -------------------------------------------------------------- internals

    def _commit_batch(self, batch: TailBatch):
        """Turn one tail batch into a single ``commit_update`` call."""
        index = ShardedRecipeIndex.load(self._manifest_path)
        live = self._live_docs(index)
        next_id = index.manifest.doc_count
        adds: list[StructuredRecipe] = []
        added_at: dict[str, int] = {}  # recipe id -> position in adds
        dead: set[int] = set()
        for line in batch.lines:
            if line.poison is not None:
                # Undecodable bytes: the tailer already advanced the
                # offset past them; count and move on.
                self._note_poison(
                    DataError(
                        f"poison feed line at {line.source}:{line.offset}: "
                        f"{line.poison}"
                    )
                )
                continue
            try:
                payload = json.loads(line.text)
                if not isinstance(payload, dict):
                    raise DataError("feed line must be a JSON object")
                if "_delete" in payload:
                    recipe_id = str(payload["_delete"])
                    self._apply_delete(recipe_id, live, adds, added_at, dead)
                    continue
                recipe = (
                    self._structure(payload)
                    if self._structure is not None
                    else StructuredRecipe.from_dict(payload)
                )
            except Exception as error:  # poison line: count, keep going
                self._note_poison(
                    DataError(
                        f"bad feed line at {line.source}:{line.offset}: {error}"
                    )
                )
                continue
            if recipe.recipe_id in added_at:  # upsert within the batch
                adds[added_at[recipe.recipe_id]] = recipe
                continue
            dead.update(live.get(recipe.recipe_id, ()))  # upsert across commits
            added_at[recipe.recipe_id] = len(adds)
            adds.append(recipe)

        manifest = commit_update(
            self._manifest_path,
            recipes=adds if adds else None,
            source="<ingest>",
            tombstone_doc_ids=sorted(dead) if dead else None,
            ingest_state={**self._tailer.offsets, **batch.offsets},
            expected_generation=index.generation,
            format=self._format,
        )
        # Keep the live map current without a rescan: our commit is the
        # only change between index.generation and manifest.generation.
        if dead:
            for recipe_id in list(live):
                survivors = [gid for gid in live[recipe_id] if gid not in dead]
                if survivors:
                    live[recipe_id] = survivors
                else:
                    del live[recipe_id]
        for position, recipe in enumerate(adds):
            live[recipe.recipe_id] = [next_id + position]
        self._live_map_generation = manifest.generation
        with self._lock:
            self._counters["generations_published"] += 1
            self._counters["docs_ingested"] += len(adds)
            self._counters["docs_deleted"] += len(dead)
        return manifest

    def _apply_delete(
        self,
        recipe_id: str,
        live: dict[str, list[int]],
        adds: list[StructuredRecipe],
        added_at: dict[str, int],
        dead: set[int],
    ) -> None:
        matched = False
        if recipe_id in added_at:  # delete of an add earlier in this batch
            position = added_at.pop(recipe_id)
            removed = adds.pop(position)
            assert removed.recipe_id == recipe_id
            for other, other_position in added_at.items():
                if other_position > position:
                    added_at[other] = other_position - 1
            matched = True
        if live.get(recipe_id):
            dead.update(live[recipe_id])
            matched = True
        if not matched:
            raise DataError(f"delete for unknown recipe id {recipe_id!r}")

    def _live_docs(self, index: ShardedRecipeIndex) -> dict[str, list[int]]:
        """recipe id -> live global doc ids, rebuilt on external movement."""
        if self._live_map is None or self._live_map_generation != index.generation:
            live: dict[str, list[int]] = {}
            for shard_index, shard in enumerate(index.shards):
                gids = index.global_ids(shard_index)
                for local, doc in enumerate(shard.docs):
                    global_id = gids[local]
                    if not index.is_tombstoned(global_id):
                        live.setdefault(str(doc.get("recipe_id", "")), []).append(
                            global_id
                        )
            self._live_map = live
            self._live_map_generation = index.generation
        return self._live_map

    def _publish(self, manifest) -> None:
        if self._on_publish is None:
            return
        try:
            self._on_publish(manifest)
        except Exception as error:
            self._note_error(error)

    def _note_error(self, error: Exception) -> None:
        with self._lock:
            self._counters["feed_errors"] += 1
            self._last_error = f"{type(error).__name__}: {error}"

    def _note_poison(self, error: Exception) -> None:
        """Count a skipped feed line (also recorded as a feed error)."""
        with self._lock:
            self._counters["poison_lines"] += 1
        self._note_error(error)
