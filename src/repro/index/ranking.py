"""BM25 ranked retrieval and facet aggregation over entity postings.

Boolean queries say *which* recipes match; this module says *in what
order*.  Scoring is classic BM25 over the index's entity postings, with
every statistic read from artifact metadata instead of decoded postings:

* **tf** — the span-group length of ``(field, term, doc)``: how many times
  the entity occurs in that recipe (ingredient records, instruction events,
  title);
* **df** — the posting-list length, which is term-table header metadata on
  a v2 artifact (and the sum of per-shard headers on a manifest);
* **doc length** — the recipe's total entity occurrences, from the v2
  doc-stats section (v1 and PR-6 artifacts derive it lazily once).

One BM25 contribution of a term occurring ``tf`` times in a doc of length
``dl``::

    idf  = ln(1 + (N - df + 0.5) / (df + 0.5))
    s   += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))

with ``k1 = 1.2``, ``b = 0.75`` by default.  Scores over a sharded index
use **global** statistics (manifest doc count, summed df, summed corpus
length), so a shard scores its local docs to the exact floats the
monolithic engine produces — contributions are summed in one canonical
order (the query's deduplicated positive-term order) on every path, which
is what lets the property suite assert sharded == monolithic ==
:func:`rank_recipes` (the brute-force oracle) element-wise, ties included.

Ties break on ascending doc id; selection is a bounded heap
(:func:`select_top_k`), never a full sort of the candidate set.

:func:`parallel_ranked_search` is the batch fan-out: worker processes each
load the shard manifest once (pool initializer), per-``(query, shard)``
tasks ship only query strings out and small top-k rows back, and the
parent k-way merges per-shard rows by ``(-score, doc_id)``.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from repro.errors import QueryError
from repro.index.builder import FIELDS, RecipeIndex, extract_entities
from repro.index.query import (
    And,
    Not,
    Or,
    QueryMatch,
    Term,
    _as_node,
    _collect_spans,
    _matches,
    intersect_count,
    parse_query,
    render_query,
)

__all__ = [
    "Bm25Parameters",
    "Bm25Scorer",
    "CorpusStats",
    "DEFAULT_B",
    "DEFAULT_K1",
    "RankedMatch",
    "facet_counts",
    "idf",
    "parallel_ranked_search",
    "positive_terms",
    "rank_recipes",
    "select_top_k",
]

#: Default BM25 term-frequency saturation.
DEFAULT_K1 = 1.2
#: Default BM25 length-normalization strength.
DEFAULT_B = 0.75


@dataclass(frozen=True)
class Bm25Parameters:
    """The two BM25 knobs; the defaults are the standard literature values."""

    k1: float = DEFAULT_K1
    b: float = DEFAULT_B


@dataclass(frozen=True)
class CorpusStats:
    """Corpus-level normalization statistics BM25 scores against.

    For a sharded index these must be the **global** numbers (the manifest's
    doc count, every shard's occurrences) — handing a shard its local stats
    would score the same doc differently than the monolithic engine.
    """

    doc_count: int
    total_occurrences: int

    @property
    def avg_doc_length(self) -> float:
        return self.total_occurrences / self.doc_count if self.doc_count else 0.0

    @classmethod
    def of(cls, index) -> "CorpusStats":
        """Read the stats off an index (monolithic or sharded — both expose
        ``doc_count`` and ``total_occurrences()`` from artifact metadata)."""
        return cls(
            doc_count=index.doc_count, total_occurrences=index.total_occurrences()
        )


def idf(doc_count: int, df: int) -> float:
    """BM25 inverse document frequency (the +1 form, never negative)."""
    return math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5))


def positive_terms(node) -> list[Term]:
    """Deduplicated positive terms of a query, in traversal order.

    The traversal order is the canonical summation order every scorer and
    the oracle share, which is what makes their floats bitwise-comparable.
    Terms under ``NOT`` match by absence — they carry no tf evidence and
    contribute no score (mirroring :func:`~repro.index.query._collect_spans`,
    which skips them for the same reason).
    """
    out: list[Term] = []
    seen: set[tuple[str, str]] = set()

    def walk(n) -> None:
        if isinstance(n, Term):
            key = (n.field, n.normalized)
            if key not in seen:
                seen.add(key)
                out.append(n)
        elif isinstance(n, (And, Or)):
            for child in n.children:
                walk(child)

    walk(node)
    return out


@dataclass(frozen=True)
class RankedMatch(QueryMatch):
    """A :class:`QueryMatch` with its BM25 score attached."""

    score: float = 0.0

    def to_dict(self) -> dict:
        return {**super().to_dict(), "score": self.score}


def select_top_k(scored, k: int | None):
    """Best ``k`` of ``(doc_id, score)`` pairs by ``(-score, doc_id)``.

    ``heapq.nsmallest`` keeps a bounded k-element heap over the candidate
    stream — O(n log k), never a full sort.  ``k=None`` ranks everything.
    Ties (bitwise-equal scores) come out in ascending doc id, so every
    evaluation path agrees on order, not just membership.
    """
    key = lambda pair: (-pair[1], pair[0])  # noqa: E731 - tiny sort key
    if k is None:
        return sorted(scored, key=key)
    return heapq.nsmallest(k, scored, key=key)


class Bm25Scorer:
    """Scores the matching docs of one index against a query.

    Args:
        index: The index whose (local) doc ids will be scored.
        node: Query AST or string; only its positive terms score.
        stats: Corpus stats to normalize against.  Defaults to the index's
            own — pass the *global* stats when ``index`` is one shard.
        df: ``(field, normalized_term) -> document frequency`` override;
            same rule: global counts for a shard.  Defaults to the index's
            posting counts.
        params: BM25 parameters.
    """

    def __init__(
        self,
        index,
        node,
        *,
        stats: CorpusStats | None = None,
        df: dict[tuple[str, str], int] | None = None,
        params: Bm25Parameters | None = None,
    ) -> None:
        self._index = index
        self._params = params if params is not None else Bm25Parameters()
        self._stats = stats if stats is not None else CorpusStats.of(index)
        weights: list[tuple[Term, float]] = []
        for term in positive_terms(_as_node(node)):
            frequency = (
                df[(term.field, term.normalized)]
                if df is not None
                else index.posting_count(term.field, term.normalized)
            )
            if frequency:
                weights.append((term, idf(self._stats.doc_count, frequency)))
        self._weights = weights

    def scores(self, ids: list[int]) -> list[float]:
        """BM25 scores aligned with ``ids`` (sorted local doc ids).

        Per doc, term contributions accumulate in the canonical positive-term
        order (the outer loop), so the floating-point sum is identical across
        the monolithic, sharded and oracle paths.  A matching doc containing
        none of the positive terms (e.g. it matched through a ``NOT``)
        scores exactly ``0.0``.
        """
        scores = [0.0] * len(ids)
        if not ids or not self._weights:
            return scores
        position = {doc_id: i for i, doc_id in enumerate(ids)}
        lengths = self._index.doc_lengths()
        k1, b = self._params.k1, self._params.b
        avgdl = self._stats.avg_doc_length
        for term, weight in self._weights:
            posting = self._index.postings(term.field, term.normalized)
            if posting is None:
                continue
            if len(posting.ids) <= len(ids):
                for at, doc_id in enumerate(posting.ids):
                    i = position.get(doc_id)
                    if i is None:
                        continue
                    tf = len(posting.spans[at])
                    norm = k1 * (1.0 - b + b * (lengths[doc_id] / avgdl)) if avgdl else k1
                    scores[i] += weight * (tf * (k1 + 1.0)) / (tf + norm)
            else:
                pids = posting.ids
                for i, doc_id in enumerate(ids):
                    at = bisect_left(pids, doc_id)
                    if at < len(pids) and pids[at] == doc_id:
                        tf = len(posting.spans[at])
                        norm = (
                            k1 * (1.0 - b + b * (lengths[doc_id] / avgdl))
                            if avgdl
                            else k1
                        )
                        scores[i] += weight * (tf * (k1 + 1.0)) / (tf + norm)
        return scores


# ---------------------------------------------------------------- the oracle


def rank_recipes(
    recipes,
    query,
    *,
    limit: int | None = None,
    params: Bm25Parameters | None = None,
) -> tuple[int, list[RankedMatch]]:
    """Brute-force ranked retrieval: score every recipe directly.

    The reference the property suite holds the engine to: statistics are
    recomputed from the raw recipes via the same
    :func:`~repro.index.builder.extract_entities` view the builder indexes,
    contributions sum in the same canonical term order, ties break on doc
    id.  Returns ``(total_matches, top_limit_matches)``.
    """
    node = _as_node(query)
    params = params if params is not None else Bm25Parameters()
    recipes = list(recipes)
    entities_list = [extract_entities(recipe) for recipe in recipes]
    lengths = [
        sum(len(spans) for terms in entities.values() for spans in terms.values())
        for entities in entities_list
    ]
    stats = CorpusStats(doc_count=len(recipes), total_occurrences=sum(lengths))
    weights: list[tuple[Term, float]] = []
    for term in positive_terms(node):
        frequency = sum(
            1 for entities in entities_list if term.normalized in entities[term.field]
        )
        if frequency:
            weights.append((term, idf(stats.doc_count, frequency)))
    k1, b = params.k1, params.b
    avgdl = stats.avg_doc_length
    scored: list[tuple[int, float]] = []
    for doc_id, entities in enumerate(entities_list):
        if not _matches(node, entities):
            continue
        score = 0.0
        for term, weight in weights:
            spans = entities[term.field].get(term.normalized)
            if not spans:
                continue
            tf = len(spans)
            norm = k1 * (1.0 - b + b * (lengths[doc_id] / avgdl)) if avgdl else k1
            score += weight * (tf * (k1 + 1.0)) / (tf + norm)
        scored.append((doc_id, score))
    total = len(scored)
    matches = []
    for doc_id, score in select_top_k(scored, limit):
        entities = entities_list[doc_id]
        spans: dict[str, list] = {}
        _collect_spans(node, lambda field, term: entities[field].get(term), spans)
        recipe = recipes[doc_id]
        matches.append(
            RankedMatch(
                doc_id=doc_id,
                recipe_id=recipe.recipe_id,
                title=recipe.title,
                spans=spans,
                score=score,
            )
        )
    return total, matches


# --------------------------------------------------------------------- facets


def facet_counts(
    parts: list[tuple[RecipeIndex, list[int]]], field: str, *, top: int | None = 10
) -> list[tuple[str, int]]:
    """Count matching docs per term of ``field`` — no match materialisation.

    ``parts`` pairs each index (a monolithic index, or every shard of a
    manifest) with its sorted, local, live matching doc ids; each doc lives
    in exactly one part, so per-part counts sum exactly.  The result is
    ``[(term, count), ...]`` ordered by ``(-count, term)`` and truncated to
    ``top`` (``None`` keeps every non-zero term).  Counts are posting-list
    intersection *cardinalities* (:func:`~repro.index.query.intersect_count`,
    galloping on skew); a part whose ids cover its whole doc universe
    answers from header posting counts instead.  Terms are visited in
    ``(-df, term)`` order, ``df`` being the summed header posting counts —
    an upper bound on any count, tombstoned docs included — so once ``top``
    counts are banked and the next bound is below the worst of them, the
    remaining terms are never decoded at all.
    """
    if field not in FIELDS:
        raise QueryError(f"unknown facet field {field!r}; expected one of {FIELDS}")
    parts = [(index, ids, len(ids) == index.doc_count) for index, ids in parts if ids]
    if top == 0 or not parts:
        return []
    bounds: dict[str, int] = defaultdict(int)
    for index, _, _ in parts:
        for term in index.terms(field):
            bounds[term] += index.posting_count(field, term)
    candidates = sorted(bounds.items(), key=lambda pair: (-pair[1], pair[0]))
    rows: list[tuple[int, str]] = []
    kept: list[int] = []  # min-heap of the top counts banked so far
    for term, bound in candidates:
        if top is not None and len(kept) == top and bound < kept[0]:
            break  # every later term's count <= bound < current top-N floor
        count = 0
        for index, ids, universe in parts:
            if universe:
                count += index.posting_count(field, term)
            else:
                posting = index.postings(field, term)
                if posting is not None:
                    count += intersect_count(ids, posting.ids)
        if not count:
            continue
        rows.append((count, term))
        if top is not None:
            if len(kept) < top:
                heapq.heappush(kept, count)
            elif count > kept[0]:
                heapq.heapreplace(kept, count)
    rows.sort(key=lambda pair: (-pair[0], pair[1]))
    if top is not None:
        rows = rows[:top]
    return [(term, count) for count, term in rows]


# ---------------------------------------------------- process-parallel search

#: Per-process query state, loaded once by :func:`_initialize_rank_worker`.
_worker_state: dict = {}


def _initialize_rank_worker(manifest_path: str, params: tuple) -> None:
    # Mirror of executor._initialize_worker's failure discipline: an
    # exception escaping a Pool initializer respawns workers forever, so
    # capture it and let the first task re-raise into the parent.
    try:
        from repro.index.query import QueryEngine
        from repro.index.sharding import ShardedRecipeIndex

        index = ShardedRecipeIndex.load(manifest_path)
        _worker_state["index"] = index
        _worker_state["engines"] = [QueryEngine(shard) for shard in index.shards]
        # Live statistics: tombstoned docs are out of N / avgdl, exactly as
        # the in-process sharded engine scores them (identical to raw stats
        # when no deletes are pending compaction).
        _worker_state["stats"] = CorpusStats(
            doc_count=index.live_doc_count,
            total_occurrences=index.live_total_occurrences(),
        )
        _worker_state["params"] = Bm25Parameters(*params)
        _worker_state.pop("error", None)
    except BaseException as error:  # noqa: BLE001 - must reach the parent
        _worker_state["error"] = error


def _rank_shard_task(task: tuple) -> tuple:
    """Score one (query, shard) pair; returns its top-k rows.

    The row stream out of a worker is tiny and picklable: ``(score,
    global_doc_id, match_dict)`` triples already sorted by the merge key.
    """
    error = _worker_state.get("error")
    if error is not None:
        raise error
    query_index, shard_index, query_text, k = task
    index = _worker_state["index"]
    engine = _worker_state["engines"][shard_index]
    params = _worker_state["params"]
    node = parse_query(query_text)
    df = {
        (term.field, term.normalized): index.live_posting_count(
            term.field, term.normalized
        )
        for term in positive_terms(node)
    }
    ids = engine._eval(node)
    dead = index.tombstoned_locals(shard_index)
    if dead and ids:
        from repro.index.query import difference_adaptive

        ids = difference_adaptive(ids, dead)
    scores = Bm25Scorer(
        engine.index, node, stats=_worker_state["stats"], df=df, params=params
    ).scores(ids)
    global_ids = index.global_ids(shard_index)
    scored = [(global_ids[local], scores[i]) for i, local in enumerate(ids)]
    top = select_top_k(scored, k)
    locals_by_global = {global_ids[local]: local for local in ids}
    matched = engine._materialize(node, [locals_by_global[gid] for gid, _ in top])
    rows = [
        (
            score,
            global_id,
            {**match.to_dict(), "doc_id": global_id, "score": score},
        )
        for (global_id, score), match in zip(top, matched)
    ]
    return query_index, shard_index, len(ids), rows


def parallel_ranked_search(
    manifest_path: str | Path,
    queries,
    *,
    k: int,
    workers: int = 1,
    mp_context=None,
    params: Bm25Parameters | None = None,
) -> list[tuple[int, list[RankedMatch]]]:
    """Batch ranked top-k over a shard manifest, fanned out per shard.

    One task per ``(query, shard)`` runs in a worker pool whose processes
    each load the manifest **once** (pool initializer) — IPC carries query
    strings out and top-k rows back, never postings.  The parent k-way
    heap-merges each query's per-shard rows by ``(-score, doc_id)``, so the
    result is element-wise identical to
    ``QueryEngine(ShardedRecipeIndex.load(manifest_path)).search(q,
    limit=k, rank=True)`` — the ``workers <= 1`` path runs the very same
    task code in-process and is the determinism reference.

    Returns one ``(total_matches, top_k_matches)`` pair per query, in query
    order.
    """
    from repro.corpus.executor import ordered_parallel_map
    from repro.index.sharding import ShardedRecipeIndex

    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise QueryError("k must be a non-negative integer")
    params = params if params is not None else Bm25Parameters()
    manifest_path = str(manifest_path)
    queries = [
        query if isinstance(query, str) else render_query(query) for query in queries
    ]
    num_shards = ShardedRecipeIndex.load(manifest_path).shard_count
    tasks = [
        (query_index, shard_index, query, k)
        for query_index, query in enumerate(queries)
        for shard_index in range(num_shards)
    ]
    if workers <= 1:
        _initialize_rank_worker(manifest_path, (params.k1, params.b))
        results = [_rank_shard_task(task) for task in tasks]
    else:
        results = list(
            ordered_parallel_map(
                _rank_shard_task,
                tasks,
                workers=workers,
                mp_context=mp_context,
                initializer=_initialize_rank_worker,
                initargs=(manifest_path, (params.k1, params.b)),
            )
        )
    by_query: dict[int, list[tuple[int, list]]] = defaultdict(list)
    for query_index, _shard_index, shard_total, rows in results:
        by_query[query_index].append((shard_total, rows))
    answers: list[tuple[int, list[RankedMatch]]] = []
    for query_index in range(len(queries)):
        chunks = by_query[query_index]
        total = sum(shard_total for shard_total, _ in chunks)
        merged = heapq.merge(
            *(rows for _, rows in chunks), key=lambda row: (-row[0], row[1])
        )
        matches = [
            RankedMatch(
                doc_id=payload["doc_id"],
                recipe_id=payload["recipe_id"],
                title=payload["title"],
                spans=payload["spans"],
                score=payload["score"],
            )
            for _, _, payload in islice(merged, k)
        ]
        answers.append((total, matches))
    return answers
