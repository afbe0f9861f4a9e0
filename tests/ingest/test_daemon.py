"""The ingest daemon: one generation per batch, exactly-once, compaction."""

from __future__ import annotations

import json
import random
import threading

import pytest

from repro.index import QueryEngine, ShardManifest, ShardedRecipeIndex, add_jsonl
from repro.index import build_sharded_index
from repro.corpus.sink import write_structured_jsonl
from repro.ingest import IngestDaemon, TieredCompactionPolicy

from tests.property.test_index_properties import _random_recipe


@pytest.fixture()
def rng():
    return random.Random(55)


@pytest.fixture()
def manifest_path(rng, tmp_path):
    base = tmp_path / "base.jsonl"
    write_structured_jsonl(base, [_random_recipe(rng, f"r{i:03d}") for i in range(12)])
    path = tmp_path / "idx.manifest.json"
    build_sharded_index(base, path, num_shards=2)
    return path


@pytest.fixture()
def feed(tmp_path):
    path = tmp_path / "feed.jsonl"
    path.write_text("")
    return path


def _append(feed, *objects):
    with feed.open("a") as handle:
        for obj in objects:
            handle.write(
                (obj if isinstance(obj, str) else json.dumps(obj)) + "\n"
            )


def _live_recipe_ids(manifest_path):
    index = ShardedRecipeIndex.load(manifest_path)
    return sorted(
        doc["recipe_id"]
        for shard_index, shard in enumerate(index.shards)
        for local, doc in enumerate(shard.docs)
        if not index.is_tombstoned(index.global_ids(shard_index)[local])
    )


def test_one_batch_one_generation(rng, manifest_path, feed):
    daemon = IngestDaemon(manifest_path, feed)
    before = ShardManifest.load(manifest_path).generation
    _append(
        feed,
        _random_recipe(rng, "new0").to_json(),
        _random_recipe(rng, "new1").to_json(),
        {"_delete": "r003"},
    )
    manifest = daemon.poll_once()
    # Adds, the delete and the advanced offsets all landed in ONE commit.
    assert manifest.generation == before + 1
    assert manifest.delta_count == 1
    assert manifest.tombstone_count == 1
    assert manifest.ingest == daemon._tailer.offsets
    assert daemon.poll_once() is None  # drained
    assert "new0" in _live_recipe_ids(manifest_path)
    assert "r003" not in _live_recipe_ids(manifest_path)


def test_upsert_replaces_live_doc_in_same_generation(rng, manifest_path, feed):
    daemon = IngestDaemon(manifest_path, feed)
    replacement = _random_recipe(rng, "r005")
    _append(feed, replacement.to_json())
    manifest = daemon.poll_once()
    assert manifest.tombstone_count == 1  # the old r005
    assert _live_recipe_ids(manifest_path).count("r005") == 1
    engine = QueryEngine(ShardedRecipeIndex.load(manifest_path))
    # The replacement's content answers, not the original's.
    wanted = replacement.ingredients[0].name
    assert any(
        match.recipe_id == "r005"
        for match in engine.execute(f"ingredient:{wanted}")
    )


def test_add_then_delete_in_one_batch_nets_out(rng, manifest_path, feed):
    daemon = IngestDaemon(manifest_path, feed)
    _append(feed, _random_recipe(rng, "ghost").to_json(), {"_delete": "ghost"})
    manifest = daemon.poll_once()
    # The ghost never becomes a document; the batch still commits offsets.
    assert "ghost" not in _live_recipe_ids(manifest_path)
    assert manifest.ingest  # offsets advanced
    assert daemon.poll_once() is None


def test_poison_lines_are_counted_not_fatal(rng, manifest_path, feed):
    daemon = IngestDaemon(manifest_path, feed)
    _append(
        feed,
        "this is not json",
        json.dumps({"_delete": "never-existed"}),
        _random_recipe(rng, "good").to_json(),
    )
    daemon.poll_once()
    stats = daemon.stats()
    assert stats["feed_errors"] == 2
    assert "bad feed line" in stats["last_error"] or "unknown recipe id" in (
        stats["last_error"]
    )
    assert "good" in _live_recipe_ids(manifest_path)
    assert stats["poison_lines"] == 2
    assert daemon.poll_once() is None  # poison does not wedge the feed


def test_undecodable_and_bare_cr_records_do_not_stall_ingest(rng, manifest_path, feed):
    """Stress the two tailer stall bugs end-to-end through the daemon.

    A feed interleaving good records with invalid-UTF-8 lines and a
    record holding a bare carriage return must ingest to completion:
    every good record lands, every bad line is counted as poison, and
    the committed offsets reach end-of-feed (nothing is re-read).
    """
    good = [_random_recipe(rng, f"ok{i}") for i in range(4)]
    with feed.open("ab") as handle:
        handle.write(good[0].to_json().encode("utf-8") + b"\n")
        handle.write(b"\xff\xfe poison bytes \xff\n")
        handle.write(good[1].to_json().encode("utf-8") + b"\n")
        # A bare \r embedded in an otherwise fine line: not valid JSON
        # (raw control character), so it must surface as a counted bad
        # line — not stall the tailer.
        handle.write(b'{"recipe_id": "cr\rcr"}\n')
        handle.write(good[2].to_json().encode("utf-8") + b"\n")
        handle.write(b"\xc3(\n")  # truncated multi-byte sequence
        handle.write(good[3].to_json().encode("utf-8") + b"\n")
    daemon = IngestDaemon(manifest_path, feed)
    while daemon.poll_once() is not None:
        pass
    stats = daemon.stats()
    live = _live_recipe_ids(manifest_path)
    assert all(recipe.recipe_id in live for recipe in good)
    assert stats["poison_lines"] == 3
    assert stats["pending_bytes"] == 0  # offsets advanced past every bad byte
    assert daemon.poll_once() is None  # nothing is re-read


def test_structure_hook_turns_raw_payloads_into_recipes(rng, manifest_path, feed):
    canned = _random_recipe(rng, "hooked")

    def structure(payload):
        assert payload == {"raw": "recipe text"}
        return canned

    daemon = IngestDaemon(manifest_path, feed, structure=structure)
    _append(feed, {"raw": "recipe text"})
    daemon.poll_once()
    assert "hooked" in _live_recipe_ids(manifest_path)


def test_tiered_policy_compacts_deltas_and_resolves_tombstones(
    rng, manifest_path, feed
):
    daemon = IngestDaemon(
        manifest_path,
        feed,
        policy=TieredCompactionPolicy(max_deltas=2, max_tombstone_fraction=None),
    )
    assert daemon.compact_once() is None  # below threshold: no-op
    for round_ in range(2):
        _append(feed, _random_recipe(rng, f"d{round_}").to_json())
        daemon.poll_once()
    assert ShardManifest.load(manifest_path).delta_count == 2
    compacted = daemon.compact_once()
    assert compacted.delta_count == 0
    assert compacted.tombstone_count == 0
    assert compacted.doc_count == 14


def test_untriggered_compaction_check_loads_no_shard(
    rng, manifest_path, feed, monkeypatch
):
    daemon = IngestDaemon(
        manifest_path,
        feed,
        policy=TieredCompactionPolicy(max_deltas=2, max_tombstone_fraction=None),
    )
    loads = []
    real_load = ShardedRecipeIndex.load.__func__
    monkeypatch.setattr(
        ShardedRecipeIndex,
        "load",
        classmethod(lambda cls, path: loads.append(path) or real_load(cls, path)),
    )
    _append(feed, _random_recipe(rng, "d0").to_json())
    daemon.poll_once()
    loads.clear()
    assert daemon.compact_once() is None  # one delta, below max_deltas=2
    assert loads == []
    _append(feed, _random_recipe(rng, "d1").to_json())
    daemon.poll_once()
    loads.clear()
    assert daemon.compact_once().delta_count == 0
    assert loads  # the policy fired: now the shards are loaded to merge


def test_tombstone_fraction_triggers_compaction(rng, manifest_path, feed):
    daemon = IngestDaemon(
        manifest_path,
        feed,
        policy=TieredCompactionPolicy(max_deltas=99, max_tombstone_fraction=0.25),
    )
    _append(feed, *({"_delete": f"r{i:03d}"} for i in range(4)))
    daemon.poll_once()
    compacted = daemon.compact_once()
    assert compacted is not None
    assert compacted.doc_count == 8
    assert compacted.tombstone_count == 0


def test_restart_resumes_exactly_once(rng, manifest_path, feed):
    _append(feed, _random_recipe(rng, "a0").to_json())
    first = IngestDaemon(manifest_path, feed)
    first.poll_once()
    _append(feed, _random_recipe(rng, "a1").to_json())
    # A fresh daemon (restart) resumes from the manifest's offset journal:
    # a0 is not re-ingested, a1 is picked up.
    second = IngestDaemon(manifest_path, feed)
    second.poll_once()
    assert second.poll_once() is None
    live = _live_recipe_ids(manifest_path)
    assert live.count("a0") == 1 and live.count("a1") == 1


def test_conflict_with_external_writer_retries_and_commits(
    rng, manifest_path, feed, tmp_path, monkeypatch
):
    daemon = IngestDaemon(manifest_path, feed)
    _append(feed, _random_recipe(rng, "contended").to_json())

    # An external appender sneaks a generation in after the daemon loaded
    # the manifest but before its commit: the first attempt must lose the
    # compare-and-swap, and the retry (which re-reads the feed from the
    # still-uncommitted offsets) must succeed against the new generation.
    from repro.ingest import daemon as daemon_module

    side = tmp_path / "side.jsonl"
    write_structured_jsonl(side, [_random_recipe(rng, "external")])
    real_commit_update = daemon_module.commit_update
    raced = []

    def racing_commit_update(*args, **kwargs):
        if not raced:
            raced.append(True)
            add_jsonl(manifest_path, side)  # moves the generation first
        return real_commit_update(*args, **kwargs)

    monkeypatch.setattr(daemon_module, "commit_update", racing_commit_update)
    manifest = daemon.poll_once()
    assert manifest is not None
    assert daemon.stats()["commit_conflicts"] == 1
    live = _live_recipe_ids(manifest_path)
    assert live.count("contended") == 1 and live.count("external") == 1


def test_background_threads_drain_feed_and_compact(rng, manifest_path, feed):
    generations = []
    daemon = IngestDaemon(
        manifest_path,
        feed,
        policy=TieredCompactionPolicy(max_deltas=2),
        poll_interval_s=0.01,
        compact_interval_s=0.02,
        on_publish=lambda manifest: generations.append(manifest.generation),
    )
    pause = threading.Event()

    def wait_for(condition):
        for _ in range(500):
            if condition(daemon.stats()):
                return
            pause.wait(0.02)
        raise AssertionError(f"timed out; stats={daemon.stats()}")

    with daemon:
        # Separate drained rounds so each append becomes its own delta
        # shard — two deltas is the policy threshold.
        for i in range(6):
            _append(feed, _random_recipe(rng, f"bg{i}").to_json())
            wanted = i + 1
            wait_for(lambda stats: stats["docs_ingested"] >= wanted)
        wait_for(
            lambda stats: stats["compactions"] >= 1 and stats["pending_bytes"] == 0
        )
    stats = daemon.stats()
    assert stats["docs_ingested"] == 6
    assert stats["compactions"] >= 1
    assert generations == sorted(generations)  # publishes are ordered
    live = _live_recipe_ids(manifest_path)
    assert {f"bg{i}" for i in range(6)} <= set(live)
