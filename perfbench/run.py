"""One end-to-end benchmark: ``search``, ``ingest`` and ``tag`` over HTTP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload search --seed 1 --seconds 15 --trace 0

The load generator is this process: one asyncio thread with at most two
keep-alive connections.  The server is a child process
(:mod:`perfbench.server`) built the way ``repro serve --async`` builds it.
Set-up (generating inputs with :mod:`repro.corpus.synth` and building the
v2 index, or, for ``tag``, training the serving bundle; then starting and
warming the server) runs :data:`SETUP_REPS` times and ``setup_s`` is the
median; the last server built is the one measured.

Workloads (see README.md for why each exists):

* ``search`` -- 2 closed-loop connections posting ``/v1/search`` over a
  static 4-shard v2 index of the synth corpus;
* ``ingest`` -- the same base index, an open-loop feed of fresh documents,
  deletes and upserts at :data:`INGEST_RATE_PER_S` into the in-process
  ingest daemon, and 1 closed-loop search connection;
* ``tag`` -- 2 closed-loop connections posting 8 synth lines per
  ``/v1/tag`` request.

Every response is checked.  The last stdout line is the JSON result; with
``--trace 0`` it carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a run whose server has timing wrappers installed and
records spans in alternate :data:`TRACE_SLICE_S` slices (the difference
between traced and untraced slices is the tracing overhead).
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter as now

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPS = 3
BASE_DOCS = 3000
NUM_SHARDS = 4
INGEST_RATE_PER_S = 30.0
WARMUP_REQUESTS = 50
TRACE_SLICE_S = 1.0
DRAIN_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 170.0
WARMUP_SEED_OFFSET = 7_000_001
TAG_CHECK_SAMPLE = 64
INGEST_CHECK_TERMS = 8

#: The end-to-end metrics every workload reports (BENCHMARK.json order).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
)


@dataclass
class Record:
    """One timed request: what was sent and what came back."""

    request: object
    start: float
    end: float
    status: int | None  # None: the connection failed
    payload: bytes

    def document(self) -> dict | None:
        if self.status != 200:
            return None
        try:
            return json.loads(self.payload)
        except json.JSONDecodeError:
            return None


@dataclass
class Outcome:
    """Counts, checks and numbers gathered by one workload run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    conditions: dict = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> bool:
        """Count one checked operation; remember the first few failures."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)
        return ok


def ms(seconds: float) -> float:
    return seconds * 1000.0


def median_rate(events: list[tuple[float, float]], started: float, seconds: int) -> float:
    """Median, over the window's whole seconds, of the work completed in each.

    ``events`` holds ``(completion time, amount of work)``.  The median
    second is what a user sees most of the time; a second or two stolen by
    another process on a shared machine does not move it.
    """
    buckets = [0.0] * seconds
    for moment, amount in events:
        index = int(moment - started)
        if 0 <= index < seconds:
            buckets[index] += amount
    return statistics.median(buckets)


def latency_ms(records: list[Record], q: float) -> float:
    """``q``-quantile of the answered requests' latency in ms (0 if none)."""
    from perfbench.client import percentile

    latencies = [record.end - record.start for record in records if record.status == 200]
    return ms(percentile(latencies, q)) if latencies else 0.0


# ----------------------------------------------------------------- workloads


class Bench:
    """Shared set-up, closed-loop driving and tracing for one workload."""

    connections = 2
    warmups = WARMUP_REQUESTS
    path = "/v1/search"

    def __init__(self, seed: int, seconds: int, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.server = None
        self.conns = []
        self.outcome = Outcome()
        self.directory: Path | None = None
        self.setup_reps: list[dict[str, float]] = []

    # ---------------------------------------------------------------- set-up

    async def setup(self, directory: Path) -> dict[str, float]:
        from perfbench.client import HttpConnection, ServerProcess

        directory.mkdir(parents=True)
        self.directory = directory
        parts: dict[str, float] = {}
        started = now()
        config = self.prepare(directory, parts)
        mark = now()
        self.server = await ServerProcess.start(
            ROOT,
            {**config, "src": str(ROOT / "src"), "trace": self.trace},
            directory / "server.json",
            directory / "server.log",
        )
        parts["server_s"] = now() - mark
        mark = now()
        self.conns = [HttpConnection(self.server.port) for _ in range(self.connections)]
        await self.warm_up()
        parts["warmup_s"] = now() - mark
        parts["total_s"] = now() - started
        return parts

    def prepare(self, directory: Path, parts: dict[str, float]) -> dict:
        raise NotImplementedError

    def train(self, directory: Path, parts: dict[str, float]) -> Path:
        """Train the ``repro train`` default bundle (small corpus, seed 0)."""
        from repro.experiments.common import build_corpora, train_modeler

        mark = now()
        bundle = directory / "bundle.json"
        modeler = train_modeler(build_corpora(scale="small", seed=0).combined, seed=0)
        modeler.save_bundle(bundle)
        parts["train_s"] = now() - mark
        return bundle

    def build_index(self, directory: Path, parts: dict[str, float]) -> dict:
        """Generate the synth corpus and build the 4-shard v2 index."""
        from repro.corpus.synth import SynthParams, load_manifest, write_synth_corpus
        from repro.index import build_sharded_index

        mark = now()
        corpus = directory / "corpus.jsonl"
        write_synth_corpus(
            SynthParams(seed=self.seed, docs=BASE_DOCS),
            corpus,
            manifest_path=directory / "synth-manifest.json",
        )
        parts["synth_s"] = now() - mark
        self.fields = load_manifest(directory / "synth-manifest.json")["fields"]
        self.corpus = corpus
        mark = now()
        self.manifest_path = directory / "index" / "manifest.json"
        build_sharded_index(
            corpus, self.manifest_path, num_shards=NUM_SHARDS, workers=1, format="v2"
        )
        parts["build_s"] = now() - mark
        return {"index": str(self.manifest_path)}

    async def warm_up(self) -> None:
        requests = self.warmup_requests()
        for index in range(self.warmups):
            request = next(requests)
            status, _ = await self.conns[index % len(self.conns)].post_json(
                self.path, self.body(request)
            )
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}")

    async def teardown(self) -> None:
        for conn in self.conns:
            await conn.close()
        self.conns = []
        if self.server is not None:
            await self.server.stop()
            self.server = None

    # ------------------------------------------------------------- measuring

    def body(self, request) -> dict:
        return request.body

    async def closed_loop(self, requests, conns, until: float, records: list) -> None:
        async def drive(conn) -> None:
            while now() < until:
                request = next(requests)
                payload = json.dumps(self.body(request)).encode("utf-8")
                start = now()
                try:
                    status, answer = await conn.request("POST", self.path, payload)
                except ConnectionError:
                    status, answer = None, b""
                records.append(Record(request, start, now(), status, answer))

        await asyncio.gather(*(drive(conn) for conn in conns))

    async def toggle_trace(self, started: float, until: float) -> None:
        """Record spans only in odd :data:`TRACE_SLICE_S` slices of the window."""
        index = 0
        while started + index * TRACE_SLICE_S < until:
            await asyncio.sleep(max(0.0, started + index * TRACE_SLICE_S - now()))
            await self.server.command("trace on" if index % 2 else "trace off")
            index += 1
        await self.server.command("trace off")

    async def window(self, requests, *extra) -> tuple[list[Record], float, dict | None]:
        """The timed window: closed-loop requests plus ``extra(started, until)`` tasks.

        Returns the records, the window's start and, on traced runs, the
        counters snapshot taken just before it.
        """
        before = await self.snapshot() if self.trace else None
        records: list[Record] = []
        started = now()
        until = started + self.seconds
        tasks = [self.closed_loop(requests, self.conns, until, records)]
        tasks += [task(started, until) for task in extra]
        if self.trace:
            tasks.append(self.toggle_trace(started, until))
        await asyncio.gather(*tasks)
        self.outcome.named["peak_rss_mb"] = (self.server.peak_rss_mib(), "MiB")
        return records, started, before

    async def trace_layers(
        self, before: dict, after: dict, records: list[Record], started: float,
        facade: str, entries_end: int,
    ) -> None:
        """Write the spans out and derive every per-layer metric."""
        spans = ROOT / ".perfbench-work" / f"spans-{self.name}-{self.seed}.jsonl"
        summary = await self.server.command(f"dump {spans}")
        self.outcome.conditions["spans"] = str(spans.relative_to(ROOT))
        self.outcome.layers = layer_metrics(
            self, before, after, summary, records, started, facade, entries_end
        )

    def traced(self, record: Record, started: float) -> bool:
        return int((record.start - started) / TRACE_SLICE_S) % 2 == 1

    async def snapshot(self) -> dict:
        """Server-side counters and ``/stats`` (traced runs only)."""
        return {
            "tracer": await self.server.command("snapshot"),
            "stats": await self.conns[0].get_json("/stats"),
        }

    def answered(self, record: Record) -> dict | None:
        """The parsed answer, or ``None`` after counting a failed request."""
        document = record.document()
        if document is None:
            self.outcome.check(False, f"request answered {record.status}: {record.payload[:200]!r}")
        return document

    def overhead(self, records: list[Record], started: float) -> float:
        """Mean latency of traced over untraced slices, as a percent increase."""
        traced = [r.end - r.start for r in records if r.status == 200 and self.traced(r, started)]
        plain = [r.end - r.start for r in records if r.status == 200 and not self.traced(r, started)]
        if not traced or not plain:
            return 0.0
        return (statistics.fmean(traced) / statistics.fmean(plain) - 1.0) * 100.0


def first_served(answered: list[tuple[float, int]], ends: list[int]) -> list:
    """When each feed line was first served, or ``None`` if it never was.

    ``answered`` holds ``(response time, feed offset its generation
    covers)`` in time order; ``ends`` holds each line's end offset in feed
    order.  A line is served by the first response whose generation (or an
    earlier one) covers its end.
    """
    seen: list = []
    position = 0
    served = -1
    moment = None
    for end in ends:
        while served < end and position < len(answered):
            moment, offset = answered[position]
            served = max(served, offset)
            position += 1
        seen.append(moment if served >= end else None)
    return seen


def delta(after: dict, before: dict, *keys) -> float:
    """``after[k1][k2]... - before[k1][k2]...`` with missing values as 0."""

    def dig(document):
        for key in keys:
            if not isinstance(document, dict):
                return 0
            document = document.get(key, 0)
        return document if isinstance(document, (int, float)) else 0

    return dig(after) - dig(before)


def span_mean_ms(summary: dict, name: str, *, own: bool = False) -> float:
    row = summary.get("spans", {}).get(name)
    if not row or not row["count"]:
        return 0.0
    return ms(row["self_s" if own else "total_s"] / row["count"])


def layer_metrics(
    bench: Bench,
    before: dict,
    after: dict,
    summary: dict,
    records: list[Record],
    started: float,
    facade: str,
    entries_end: int,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, zero where the workload leaves a layer idle."""
    tracer_before, tracer_after = before["tracer"], after["tracer"]
    stats_before, stats_after = before["stats"], after["stats"]

    def calls(name: str) -> float:
        return delta(tracer_after, tracer_before, "calls", name)

    def notes(name: str) -> float:
        return delta(tracer_after, tracer_before, "notes", name)

    requests = sum(
        delta(stats_after, stats_before, "server", endpoint, "requests_total")
        for endpoint in ("search", "tag")
    )
    ok = sum(
        delta(stats_after, stats_before, "server", endpoint, "responses", "2xx")
        for endpoint in ("search", "tag")
    )
    traced = [r.end - r.start for r in records if r.status == 200 and bench.traced(r, started)]
    facade_ms = span_mean_ms(summary, facade)
    frontend_ms = ms(statistics.fmean(traced)) - facade_ms if traced and facade_ms else 0.0
    hits = delta(tracer_after, tracer_before, "lru", "hits")
    misses = delta(tracer_after, tracer_before, "lru", "misses")
    decode_hits = decode_lookups = 0.0
    for section in ("ingredient", "instruction"):
        hit = delta(stats_after, stats_before, "caches", section, "decode_hits")
        decode_hits += hit
        decode_lookups += hit + delta(stats_after, stats_before, "caches", section, "decode_misses")
    commits = delta(stats_after, stats_before, "ingest", "generations_published")
    triggered = notes("daemon.should_compact")
    compactions = delta(stats_after, stats_before, "ingest", "compactions")
    waits = summary.get("queue_wait", {})
    flushes = calls("ner.batch")
    synth_s = statistics.median(part.get("synth_s", 0.0) for part in bench.setup_reps)
    return {
        "aio.requests": (requests, "count"),
        "aio.non_200": (requests - ok, "count"),
        "aio.frontend_ms": (frontend_ms, "ms"),
        "search.calls": (calls("search.search"), "count"),
        "search.self_ms": (span_mean_ms(summary, "search.search", own=True), "ms"),
        "search.autoreload_swaps": (
            delta(stats_after, stats_before, "index", "auto_reload", "swaps"), "count"
        ),
        "registry.reloads": (calls("registry.load"), "count"),
        "registry.reload_ms": (span_mean_ms(summary, "registry.load"), "ms"),
        "query.calls": (calls("query.search"), "count"),
        "query.ms": (span_mean_ms(summary, "query.search"), "ms"),
        "query.facets_ms": (span_mean_ms(summary, "query.facets"), "ms"),
        "codec.lru_hits": (hits, "count"),
        "codec.lru_misses": (misses, "count"),
        "codec.lru_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "sharding.loads": (calls("sharding.load"), "count"),
        "sharding.load_ms": (span_mean_ms(summary, "sharding.load"), "ms"),
        "sharding.commit_ms": (span_mean_ms(summary, "sharding.commit"), "ms"),
        "sharding.merge_ms": (span_mean_ms(summary, "sharding.merge"), "ms"),
        "sharding.bytes_opened_per_commit": (
            notes("sharding.tail_bytes_opened") / commits if commits else 0.0, "B"
        ),
        "sharding.entries_end": (entries_end, "count"),
        "extract.docs": (calls("builder.extract"), "count"),
        "extract.ms": (span_mean_ms(summary, "builder.extract"), "ms"),
        "tailer.polls": (calls("tailer.poll"), "count"),
        "tailer.lines": (notes("tailer.poll"), "count"),
        "tailer.poll_ms": (span_mean_ms(summary, "tailer.poll"), "ms"),
        "daemon.commits": (commits, "count"),
        "daemon.commit_ms": (span_mean_ms(summary, "daemon.poll_once:true"), "ms"),
        "daemon.compact_triggered": (triggered, "count"),
        "daemon.compactions": (compactions, "count"),
        "daemon.compaction_success_ratio": (
            compactions / triggered if triggered else 0.0, "ratio"
        ),
        "daemon.commit_conflicts": (
            delta(stats_after, stats_before, "ingest", "commit_conflicts"), "count"
        ),
        "daemon.poison_lines": (delta(stats_after, stats_before, "ingest", "poison_lines"), "count"),
        "microbatch.flushes": (flushes, "count"),
        "microbatch.lines_per_flush": (notes("ner.batch") / flushes if flushes else 0.0, "lines"),
        "microbatch.queue_wait_ms": (
            ms(waits["total_s"] / waits["count"]) if waits.get("count") else 0.0, "ms"
        ),
        "ner.batch_ms": (span_mean_ms(summary, "ner.batch"), "ms"),
        "engine.viterbi_ms": (span_mean_ms(summary, "engine.viterbi"), "ms"),
        "ner.decode_lookups": (decode_lookups, "count"),
        "ner.decode_hit_ratio": (decode_hits / decode_lookups if decode_lookups else 0.0, "ratio"),
        "synth.docs_per_s": (BASE_DOCS / synth_s if synth_s else 0.0, "1/s"),
        "setup.synth_s": (synth_s, "s"),
        **{
            f"setup.{part}": (
                statistics.median(rep.get(part, 0.0) for rep in bench.setup_reps), "s"
            )
            for part in ("build_s", "train_s", "server_s", "warmup_s")
        },
        "trace.overhead_pct": (bench.overhead(records, started), "%"),
    }


def well_formed(document: dict, body: dict) -> bool:
    """A ranked search answer with the page and facets the request asked for."""
    total = document.get("total")
    return (
        isinstance(total, int)
        and document.get("returned") == min(total, body["limit"])
        and len(document.get("results", ())) == document.get("returned")
        and document.get("ranked") is True
        and ("facets" in document) == ("facets" in body)
    )


class SearchBench(Bench):
    """Closed-loop ranked searches over a static index."""

    name = "search"

    def prepare(self, directory: Path, parts: dict[str, float]) -> dict:
        config = self.build_index(directory, parts)
        return {**config, "bundle": str(self.bundle)}

    def warmup_requests(self):
        from perfbench.inputs import QueryMix

        return QueryMix(self.fields, self.seed + WARMUP_SEED_OFFSET)

    async def measure(self) -> None:
        from perfbench.inputs import QueryMix
        from repro.index.codec import DEFAULT_LRU_TERMS

        records, started, before = await self.window(QueryMix(self.fields, self.seed))
        self.check_searches(records)
        p50, p99 = latency_ms(records, 0.50), latency_ms(records, 0.99)
        rps = median_rate(
            [(r.end, 1.0) for r in records if r.status == 200], started, self.seconds
        )
        named = self.outcome.named
        named["search_rps"] = (rps, "req/s")
        named["search_p50_ms"] = (p50, "ms")
        named["search_p99_ms"] = (p99, "ms")
        self.e2e = {"throughput_per_s": rps, "latency_p50_ms": p50, "latency_tail_ms": p99}
        self.outcome.conditions.update(
            {"connections": len(self.conns), "requests": len(records),
             "lru_slots_per_shard": DEFAULT_LRU_TERMS}
        )
        if self.trace:
            await self.trace_layers(
                before, await self.snapshot(), records, started, "search.search", NUM_SHARDS
            )

    def check_searches(self, records: list[Record]) -> None:
        """Single terms against manifest frequencies, the rest against brute force."""
        from perfbench.inputs import brute_force_total, term_postings
        from repro.corpus.sink import iter_structured_jsonl

        doc_count, postings = term_postings(iter_structured_jsonl(self.corpus))
        answers: dict[str, int] = {}
        for record in records:
            document = self.answered(record)
            if document is None:
                continue
            request = record.request
            total = document.get("total")
            shaped = well_formed(document, request.body)
            if request.term is not None:
                field_name, term = request.term
                expected = self.fields[field_name].get(term, 0)
            else:
                query = request.body["query"]
                if query not in answers:
                    answers[query] = brute_force_total(query, doc_count, postings)
                expected = answers[query]
            self.outcome.check(
                shaped and total == expected,
                f"{request.body['query']!r}: total {total}, expected {expected}",
            )
        self.outcome.conditions["distinct_compound_queries"] = len(answers)


class IngestBench(SearchBench):
    """Open-loop feed into the in-process daemon, one closed-loop reader."""

    name = "ingest"
    connections = 1
    warmups = WARMUP_REQUESTS // 5

    def prepare(self, directory: Path, parts: dict[str, float]) -> dict:
        from perfbench.inputs import feed_lines

        config = super().prepare(directory, parts)
        mark = now()
        count = int(INGEST_RATE_PER_S * self.seconds)
        self.feed = feed_lines(self.seed, BASE_DOCS, count)
        self.feed_path = directory / "feed.jsonl"
        self.feed_path.touch()
        parts["feed_s"] = now() - mark
        return {**config, "feed": str(self.feed_path)}

    async def run_feed(self, started: float, until: float, fed: list) -> None:
        lateness = 0.0
        with self.feed_path.open("ab") as handle:
            for index, line in enumerate(self.feed):
                due = started + index / INGEST_RATE_PER_S
                if due >= until:
                    break
                await asyncio.sleep(max(0.0, due - now()))
                handle.write(line.data)
                handle.flush()
                lateness = max(lateness, now() - due)
                fed.append((due, line))
        self.outcome.conditions["feed_max_lateness_ms"] = ms(lateness)

    async def drain(self, requests, fed, records: list) -> dict:
        """Keep searching until a served generation holds the whole feed."""
        final = fed[-1][1].end if fed else 0
        deadline = now() + DRAIN_TIMEOUT_S
        while True:
            batch: list[Record] = []
            await self.closed_loop(requests, self.conns, now() + 0.2, batch)
            records.extend(batch)
            state = await self.server.command("snapshot")
            served = [state["offsets"].get(self.sha(r), -1) for r in batch]
            if served and max(served) >= final:
                return state
            if now() > deadline:
                return state

    @staticmethod
    def sha(record: Record) -> str | None:
        document = record.document()
        return document["index"]["sha256"] if document else None

    async def measure(self) -> None:
        from perfbench.client import percentile
        from perfbench.inputs import QueryMix
        from repro.index import ShardManifest

        requests = QueryMix(self.fields, self.seed)
        fed: list = []
        records, started, before = await self.window(
            requests, lambda started, until: self.run_feed(started, until, fed)
        )
        until = started + self.seconds
        entries_end = len(ShardManifest.load(self.manifest_path).entries)
        after = await self.snapshot() if self.trace else None
        drained: list[Record] = []
        state = await self.drain(requests, fed, drained)

        self.check_shapes(records + drained)
        offsets = state["offsets"]
        visible = first_served(
            sorted(
                (record.end, offsets.get(self.sha(record), -1))
                for record in records + drained
                if record.status == 200
            ),
            [line.end for _due, line in fed],
        )
        lags = []
        for (due, line), seen in zip(fed, visible):
            if self.outcome.check(seen is not None, f"feed line {line.recipe_id} never served"):
                lags.append(seen - due)
        docs_per_s = sum(1 for seen in visible if seen is not None and seen <= until) / self.seconds
        lag_p50 = ms(percentile(lags, 0.50)) if lags else 0.0
        lag_p95 = ms(percentile(lags, 0.95)) if lags else 0.0
        lag_p99 = ms(percentile(lags, 0.99)) if lags else 0.0
        search_p50, search_p99 = latency_ms(records, 0.50), latency_ms(records, 0.99)
        search_p90 = latency_ms(records, 0.90)
        rps = median_rate(
            [(r.end, 1.0) for r in records if r.status == 200], started, self.seconds
        )
        named = self.outcome.named
        named.update(
            {
                "search_rps": (rps, "req/s"),
                "search_p50_ms": (search_p50, "ms"),
                "search_p99_ms": (search_p99, "ms"),
                "ingest_docs_per_s": (docs_per_s, "docs/s"),
                "ingest_lag_p50_ms": (lag_p50, "ms"),
                "ingest_lag_p99_ms": (lag_p99, "ms"),
                "ingest_lag_p95_ms": (lag_p95, "ms"),
                "search_p90_ms": (search_p90, "ms"),
            }
        )
        self.e2e = {"throughput_per_s": docs_per_s, "latency_p50_ms": lag_p50,
                    "latency_tail_ms": lag_p95}
        await self.check_ingest(fed)
        self.outcome.conditions.update(
            {
                "connections": len(self.conns),
                "requests": len(records),
                "lag_samples": len(lags),
                "offered_ingest_rate_per_s": INGEST_RATE_PER_S,
                "feed_lines": len(fed),
                "feed_actions": {
                    action: sum(1 for _, line in fed if line.action == action)
                    for action in ("add", "upsert", "delete")
                },
                "manifest_entries_end": entries_end,
            }
        )
        if self.trace:
            await self.trace_layers(
                before, after, records, started, "search.search", entries_end
            )

    def check_shapes(self, records: list[Record]) -> None:
        """Totals move under ingest, so only the response shape is checked."""
        for record in records:
            document = self.answered(record)
            if document is None:
                continue
            self.outcome.check(
                well_formed(document, record.request.body),
                f"malformed search response for {record.request.body['query']!r}",
            )

    async def check_ingest(self, fed: list) -> None:
        from perfbench.inputs import FIELD_WEIGHTS, expected_after_feed, render_term

        stats = await self.conns[0].get_json("/stats")
        ingest = stats.get("ingest", {})
        outcome = self.outcome
        outcome.check(ingest.get("feed_errors") == 0, f"feed errors: {ingest.get('last_error')}")
        outcome.check(ingest.get("poison_lines") == 0, "poison feed lines")
        rng = random.Random(f"perfbench.ingest-check:{self.seed}")
        candidates = sorted(
            (name, term) for name, _ in FIELD_WEIGHTS for term in self.fields[name]
        )
        terms = rng.sample(candidates, INGEST_CHECK_TERMS)
        live, counts = expected_after_feed(
            self.seed, BASE_DOCS, self.fields, [line for _, line in fed], terms
        )
        served_live = stats.get("index", {}).get("index", {}).get("live_documents")
        outcome.check(served_live == live, f"live documents {served_live}, expected {live}")
        for field_name, term in terms:
            status, payload = await self.conns[0].post_json(
                self.path, {"query": render_term(field_name, term), "limit": 0}
            )
            total = json.loads(payload).get("total") if status == 200 else None
            outcome.check(
                total == counts[(field_name, term)],
                f"{field_name}:{term} total {total}, expected {counts[(field_name, term)]}",
            )


class TagBench(Bench):
    """Closed-loop ``/v1/tag`` requests of 8 synth lines each."""

    name = "tag"
    path = "/v1/tag"

    def prepare(self, directory: Path, parts: dict[str, float]) -> dict:
        self.bundle = self.train(directory, parts)
        return {"bundle": str(self.bundle)}

    def warmup_requests(self):
        from perfbench.inputs import tag_requests

        return tag_requests(self.seed + WARMUP_SEED_OFFSET)

    def body(self, request) -> dict:
        return request

    async def measure(self) -> None:
        from perfbench.inputs import tag_requests

        records, started, before = await self.window(tag_requests(self.seed))
        self.check_tags(records)
        p50, p99 = latency_ms(records, 0.50), latency_ms(records, 0.99)
        lines_per_s = median_rate(
            [(r.end, len(r.request["lines"])) for r in records if r.status == 200],
            started,
            self.seconds,
        )
        self.outcome.named.update(
            {
                "tag_lines_per_s": (lines_per_s, "lines/s"),
                "tag_p50_ms": (p50, "ms"),
                "tag_p99_ms": (p99, "ms"),
            }
        )
        self.e2e = {"throughput_per_s": lines_per_s, "latency_p50_ms": p50,
                    "latency_tail_ms": p99}
        lines = [(r.request["section"], line) for r in records for line in r.request["lines"]]
        self.outcome.conditions.update(
            {
                "connections": len(self.conns),
                "requests": len(records),
                "lines_per_request": 8,
                "lines": len(lines),
                "unique_line_share": len(set(lines)) / len(lines) if lines else 0.0,
            }
        )
        if self.trace:
            await self.trace_layers(
                before, await self.snapshot(), records, started, "aio.tag_lines", 0
            )

    def check_tags(self, records: list[Record]) -> None:
        """One tag per token everywhere; a seeded sample equals a direct call."""
        from repro.serve import ModelRegistry, TaggingService

        answered = []
        for record in records:
            document = self.answered(record)
            if document is None:
                continue
            results = document.get("results", [])
            self.outcome.check(
                len(results) == len(record.request["lines"])
                and all(len(r["tags"]) == len(r["tokens"]) > 0 for r in results),
                f"tag response does not carry one tag per token: {record.request}",
            )
            answered.append((record.request, results))
        rng = random.Random(f"perfbench.tag-check:{self.seed}")
        sample = rng.sample(answered, min(TAG_CHECK_SAMPLE, len(answered)))
        registry = ModelRegistry()
        registry.load(self.bundle)
        with TaggingService(registry, max_delay_s=0.0) as service:
            for request, results in sample:
                direct = service.tag_lines(request["section"], request["lines"])
                self.outcome.check(
                    direct == results, f"tag response differs from a direct call: {request}"
                )


WORKLOADS = {"search": SearchBench, "ingest": IngestBench, "tag": TagBench}


# ---------------------------------------------------------------- reporting


def source_identity() -> dict:
    """Git revision when the checkout is a repository, and a hash of ``src``."""
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"git_rev": rev, "source_sha256": digest.hexdigest()}


async def run(arguments: argparse.Namespace, work: Path) -> tuple[Bench, dict]:
    bench = WORKLOADS[arguments.workload](arguments.seed, arguments.seconds, arguments.trace)
    if not isinstance(bench, TagBench):
        # Set-up of an index workload is generation and build; the server's
        # tagging bundle is trained once, outside the timed repetitions.
        work.mkdir(parents=True)
        bench.bundle = bench.train(work, {})
    try:
        for rep in range(SETUP_REPS):
            if rep:
                await bench.teardown()
                shutil.rmtree(bench.directory, ignore_errors=True)
            bench.setup_reps.append(await bench.setup(work / f"setup{rep}"))
        await bench.measure()
    finally:
        await bench.teardown()
    setup_s = statistics.median(rep["total_s"] for rep in bench.setup_reps)
    bench.outcome.named = {"setup_s": (setup_s, "s"), **bench.outcome.named}
    e2e = {"setup_s": setup_s, "peak_rss_mb": bench.outcome.named["peak_rss_mb"][0], **bench.e2e}
    return bench, e2e


#: The per-workload metric names the report prints, in order.
NAMED = (
    ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("error_ratio", "ratio"),
    ("search_rps", "req/s"), ("search_p50_ms", "ms"), ("search_p99_ms", "ms"),
    ("tag_lines_per_s", "lines/s"), ("tag_p50_ms", "ms"), ("tag_p99_ms", "ms"),
    ("ingest_docs_per_s", "docs/s"), ("ingest_lag_p50_ms", "ms"), ("ingest_lag_p99_ms", "ms"),
)


def report(arguments, bench: Bench, e2e: dict, conditions: dict) -> dict:
    outcome = bench.outcome
    outcome.named["error_ratio"] = (
        outcome.failed / outcome.attempted if outcome.attempted else 1.0, "ratio"
    )
    print(f"perfbench {arguments.workload} seed={arguments.seed} "
          f"seconds={arguments.seconds} trace={int(arguments.trace)}")
    print("conditions " + json.dumps(conditions, sort_keys=True))
    for name, unit in NAMED:
        if name in outcome.named:
            print(f"  {name:<20} {outcome.named[name][0]:>14.4f} {unit}")
        else:
            print(f"  {name:<20} {'n/a':>14} (not exercised by {arguments.workload})")
    for name in sorted(set(outcome.named) - {name for name, _ in NAMED}):
        value, unit = outcome.named[name]
        print(f"  {name:<20} {value:>14.4f} {unit}")
    print("gated end-to-end metrics:")
    for name, unit in END_TO_END:
        print(f"  {name:<20} {e2e[name]:>14.4f} {unit}")
    for name, (value, unit) in outcome.layers.items():
        print(f"  {name:<34} {value:>14.4f} {unit}")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")
    if arguments.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    arguments.trace = bool(arguments.trace)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Import the program before any set-up repetition is timed.
    import perfbench.inputs  # noqa: F401
    import repro.experiments.common  # noqa: F401
    import repro.serve  # noqa: F401

    work = ROOT / ".perfbench-work" / f"{arguments.workload}-{arguments.seed}-{os.getpid()}"
    try:
        bench, e2e = asyncio.run(asyncio.wait_for(run(arguments, work), RUN_TIMEOUT_S))
    except TimeoutError:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S:g}s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    conditions = {
        "workload": arguments.workload,
        "seed": arguments.seed,
        "seconds": arguments.seconds,
        "trace": arguments.trace,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **source_identity(),
        "setup_reps": SETUP_REPS,
        "corpus_docs": BASE_DOCS if arguments.workload != "tag" else 0,
        "index": f"{NUM_SHARDS} shards, v2" if arguments.workload != "tag" else None,
        **bench.outcome.conditions,
    }
    result = report(arguments, bench, e2e, conditions)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
