"""The benchmark's server process: ``repro serve --async`` built in-process.

Run as ``python perfbench/server.py CONFIG.json`` with ``src`` on
``PYTHONPATH``.  The config names the bundle, the optional shard manifest
and the optional ingest feed.  The process is assembled the way
``repro serve --async [--ingest-watch FEED]`` assembles it (same service,
queue, admission and auto-reload settings), except that the in-process
ingest daemon writes v2 deltas and compactions to match the v2 base index.
With ``"trace": true`` the timing wrappers of :mod:`perfbench.tracing` are
installed before anything is built.

It prints ``READY <port>`` once listening, then answers one JSON line per
command read from stdin:

* ``trace on`` / ``trace off`` -- toggle span recording;
* ``snapshot`` -- tracer counters, chunk-LRU totals and the feed offset
  each served index generation covers;
* ``dump PATH`` -- write every span to PATH and answer the span summary;
* ``quit`` -- stop serving, stop the daemon and exit.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracing import Tracer, install  # noqa: E402

# The defaults of `repro serve` (see repro.cli).
MAX_BATCH = 256
MAX_DELAY_S = 0.002
MAX_INFLIGHT = 64
QUEUE_DEPTH = 128
DEADLINE_S = 30.0
INGEST_AUTO_RELOAD_S = 1.0


class IndexLoads:
    """Registry loader that remembers what each served generation holds.

    It calls :func:`repro.index.load_index_artifact` exactly as
    ``index_registry()`` does, and records, under the artifact's file
    SHA-256 (the ``index.sha256`` every search response carries), the feed
    byte offset that generation's manifest has committed.  On each swap it
    folds the outgoing index's chunk-LRU counters into a running total, so
    the totals cover every generation served without keeping old
    generations alive (searches still running on an outgoing index after
    the swap are not counted).  Folding is done only when ``count_lru`` is
    set (traced runs), so untraced runs pay one hash per swap.
    """

    def __init__(self, *, count_lru: bool) -> None:
        from repro.index import load_index_artifact

        self._load = load_index_artifact
        self._lock = threading.Lock()
        self.offsets: dict[str, int] = {}
        self._count_lru = count_lru
        self._current = None
        self._folded = {"hits": 0, "misses": 0}

    def __call__(self, text: str, source: str):
        index = self._load(text, source)
        sha256 = hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()
        manifest = getattr(index, "manifest", None)
        offset = sum((manifest.ingest or {}).values()) if manifest is not None else 0
        with self._lock:
            self.offsets[sha256] = offset
            if self._count_lru and self._current is not None:
                for key, value in _lazy(self._current).items():
                    self._folded[key] += value
            self._current = index
        return index

    def lru_totals(self) -> dict[str, int]:
        with self._lock:
            current = _lazy(self._current) if self._current is not None else {}
            return {key: value + current.get(key, 0) for key, value in self._folded.items()}


def _lazy(index) -> dict[str, int]:
    lazy = index.stats().get("lazy", {})
    return {"hits": lazy.get("hits", 0), "misses": lazy.get("misses", 0)}


def build(config: dict):
    from repro.ingest import IngestDaemon
    from repro.serve import (
        AdmissionController,
        AdmissionPolicy,
        AsyncTaggingServer,
        ModelRegistry,
        SearchService,
        TaggingService,
    )

    registry = ModelRegistry()
    registry.load(config["bundle"])
    service = TaggingService(registry, max_batch=MAX_BATCH, max_delay_s=MAX_DELAY_S)
    loads = IndexLoads(count_lru=bool(config.get("trace")))
    search = ingest = None
    if config.get("index"):
        index_registry = ModelRegistry(loader=loads)
        index_registry.load(config["index"])
        search = SearchService(
            index_registry,
            auto_reload_interval_s=INGEST_AUTO_RELOAD_S if config.get("feed") else None,
        )
    if config.get("feed"):
        ingest = IngestDaemon(config["index"], config["feed"], format="v2")
        ingest.start()
    server = AsyncTaggingServer(
        service,
        search=search,
        admission=AdmissionController(
            AdmissionPolicy(
                max_inflight=MAX_INFLIGHT, queue_depth=QUEUE_DEPTH, deadline_s=DEADLINE_S
            )
        ),
        ingest=ingest,
    )
    return server, service, ingest, loads


def answer(document: dict) -> None:
    sys.stdout.write(json.dumps(document) + "\n")
    sys.stdout.flush()


async def serve(config: dict) -> None:
    tracer = Tracer()
    if config.get("trace"):
        install(tracer)
    server, service, ingest, loads = build(config)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def commands() -> None:
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "trace":
                tracer.enabled = argument == "on"
                answer({"trace": tracer.enabled})
            elif command == "snapshot":
                answer({**tracer.counters(), "lru": loads.lru_totals(), "offsets": loads.offsets})
            elif command == "dump":
                tracer.dump(argument)
                answer(tracer.summary())
            elif command == "quit":
                break
            else:
                answer({"error": f"unknown command {command!r}"})
        loop.call_soon_threadsafe(stop.set)

    await server.start()
    reader = threading.Thread(target=commands, name="bench-commands", daemon=True)
    reader.start()
    print(f"READY {server.port}", flush=True)
    try:
        await stop.wait()
    finally:
        await server.close()
        if ingest is not None:
            ingest.stop()
        service.close()


def main() -> int:
    config = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, config["src"])
    asyncio.run(serve(config))
    return 0


if __name__ == "__main__":
    sys.exit(main())
