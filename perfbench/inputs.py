"""Seeded inputs and brute-force answers for the three workloads.

Every input is a pure function of the workload seed.  Corpora, tag lines and
feed documents come from :mod:`repro.corpus.synth`; this module only decides
which of them to send, in which order, and what the correct answers are.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
from bisect import bisect_right
from dataclasses import dataclass

from repro.core.recipe_model import StructuredRecipe
from repro.corpus.synth import SynthParams, document_at
from repro.index import And, Not, Or, Term, extract_entities, parse_query

#: Query fields and how often each is drawn.
FIELD_WEIGHTS = (("ingredient", 0.6), ("process", 0.25), ("utensil", 0.15))
#: One cycle of query shapes, ``+`` marking the ones that also ask for an
#: ingredient facet: 40% single term, 30% AND, 15% OR + NOT, 15% NOT, 10%
#: with facets.  Each cycle is shuffled, so every run sends the same mix in
#: a seeded order and the mix does not vary from seed to seed.
CYCLE = (
    ("single",) * 7 + ("single+",) + ("and",) * 6 + ("or_not",) * 2 + ("or_not+",)
    + ("not",) * 3
)
#: Skew of the term draw over terms ranked by document frequency (the synth
#: generator's own default skew).
ZIPF_S = 1.1
SEARCH_LIMIT = 10

LINES_PER_TAG_REQUEST = 8

DELETE_SHARE = 0.05
UPSERT_SHARE = 0.05
#: Offset of the seed the upserted documents' new contents are drawn from.
UPSERT_SEED_OFFSET = 1_000_003


def _pick(rng: random.Random, weighted) -> str:
    point = rng.random()
    for name, weight in weighted:
        if point < weight:
            return name
        point -= weight
    return weighted[-1][0]


def render_term(field: str, term: str) -> str:
    return f'{field}:"{term}"' if " " in term else f"{field}:{term}"


@dataclass(frozen=True)
class SearchRequest:
    body: dict
    kind: str
    term: tuple[str, str] | None  # (field, term) of a single-term query


class QueryMix:
    """Endless seeded stream of ``/v1/search`` bodies.

    Terms are Zipf-drawn from the synth manifest's per-field document
    frequencies, most frequent first, so a few hot terms (and their posting
    chunks) dominate while the tail still touches cold chunks.
    """

    def __init__(self, fields: dict[str, dict[str, int]], seed: int) -> None:
        self._rng = random.Random(f"perfbench.queries:{seed}")
        self._slots: list[str] = []
        self._terms = {}
        self._cumulative = {}
        for field, _weight in FIELD_WEIGHTS:
            frequencies = fields[field]
            terms = sorted(frequencies, key=lambda term: (-frequencies[term], term))
            self._terms[field] = terms
            self._cumulative[field] = list(
                itertools.accumulate((rank + 1) ** -ZIPF_S for rank in range(len(terms)))
            )

    def _term(self, exclude: tuple = ()) -> tuple[str, str]:
        while True:
            field = _pick(self._rng, FIELD_WEIGHTS)
            cumulative = self._cumulative[field]
            rank = bisect_right(cumulative, self._rng.random() * cumulative[-1])
            term = (field, self._terms[field][min(rank, len(cumulative) - 1)])
            if term not in exclude:
                return term

    def __iter__(self):
        return self

    def __next__(self) -> SearchRequest:
        if not self._slots:
            self._slots = list(CYCLE)
            self._rng.shuffle(self._slots)
        kind, facets, _ = self._slots.pop().partition("+")
        first = self._term()
        a = render_term(*first)
        if kind == "single":
            query = a
        elif kind == "and":
            query = f"{a} AND {render_term(*self._term((first,)))}"
        elif kind == "or_not":
            second = self._term((first,))
            third = self._term((first, second))
            query = f"({a} OR {render_term(*second)}) AND NOT {render_term(*third)}"
        else:
            query = f"NOT {a}"
        body = {"query": query, "rank": True, "limit": SEARCH_LIMIT}
        if facets:
            body["facets"] = ["ingredient"]
        return SearchRequest(body=body, kind=kind, term=first if kind == "single" else None)


def tag_requests(seed: int):
    """Endless ``/v1/tag`` bodies from a synth stream, in document order.

    Lines keep their document order within each section; a request carries
    :data:`LINES_PER_TAG_REQUEST` consecutive ingredient lines or
    consecutive step lines.
    """
    params = SynthParams(seed=seed)
    pending: dict[str, list[str]] = {"ingredient": [], "instruction": []}
    for index in itertools.count():
        for line in document_at(params, index).lines:
            lines = pending[line.kind]
            lines.append(line.text)
            if len(lines) == LINES_PER_TAG_REQUEST:
                yield {"section": line.kind, "lines": lines}
                pending[line.kind] = []


# ------------------------------------------------------------------- ingest


@dataclass(frozen=True)
class FeedLine:
    data: bytes
    action: str  # "add" | "upsert" | "delete"
    recipe_id: str
    replaced: int | None  # base-corpus index of the document deleted or replaced
    end: int  # feed byte offset just past this line


def feed_lines(seed: int, base_docs: int, count: int) -> list[FeedLine]:
    """The ingest feed: fresh documents plus a seeded share of deletes and upserts.

    Deletes and upserts each target a distinct base document, so no line
    ever names a recipe that is already gone.
    """
    rng = random.Random(f"perfbench.feed:{seed}")
    base = SynthParams(seed=seed, docs=base_docs)
    upserts = SynthParams(seed=seed + UPSERT_SEED_OFFSET)
    victims = list(range(base_docs))
    rng.shuffle(victims)
    lines: list[FeedLine] = []
    offset = 0
    fresh = base_docs
    for position in range(count):
        point = rng.random()
        replaced = None
        if point < DELETE_SHARE + UPSERT_SHARE and victims:
            replaced = victims.pop()
            recipe_id = document_at(base, replaced).recipe.recipe_id
            if point < DELETE_SHARE:
                action, text = "delete", json.dumps({"_delete": recipe_id})
            else:
                recipe = document_at(upserts, position).recipe
                action = "upsert"
                text = dataclasses.replace(recipe, recipe_id=recipe_id).to_json()
        else:
            recipe = document_at(base, fresh).recipe
            fresh += 1
            action, recipe_id, text = "add", recipe.recipe_id, recipe.to_json()
        data = (text + "\n").encode("utf-8")
        offset += len(data)
        lines.append(FeedLine(data, action, recipe_id, replaced, offset))
    return lines


def expected_after_feed(
    seed: int,
    base_docs: int,
    base_fields: dict[str, dict[str, int]],
    fed: list[FeedLine],
    terms: list[tuple[str, str]],
) -> tuple[int, dict[tuple[str, str], int]]:
    """Live documents and per-term document counts once ``fed`` is applied.

    Counts start from the synth manifest's base frequencies, subtract every
    base document a delete or upsert removed, and add every document the
    feed added (fresh or upserted) -- recomputed with
    :func:`~repro.index.extract_entities` from the generated documents.
    """
    base = SynthParams(seed=seed, docs=base_docs)
    counts = {term: base_fields.get(term[0], {}).get(term[1], 0) for term in terms}
    live = base_docs
    for line in fed:
        if line.replaced is not None:
            removed = extract_entities(document_at(base, line.replaced).recipe)
            for field, term in terms:
                if term in removed[field]:
                    counts[(field, term)] -= 1
        if line.action == "delete":
            live -= 1
            continue
        if line.action == "add":
            live += 1
        added = extract_entities(StructuredRecipe.from_json(line.data.decode("utf-8")))
        for field, term in terms:
            if term in added[field]:
                counts[(field, term)] += 1
    return live, counts


# ------------------------------------------------------------------ oracles


def term_postings(recipes) -> tuple[int, dict[tuple[str, str], set[int]]]:
    """Brute-force ``(field, term) -> doc ids`` over recipes in corpus order."""
    postings: dict[tuple[str, str], set[int]] = {}
    count = 0
    for doc_id, recipe in enumerate(recipes):
        count += 1
        for field, terms in extract_entities(recipe).items():
            for term in terms:
                postings.setdefault((field, term), set()).add(doc_id)
    return count, postings


def brute_force_total(query: str, doc_count: int, postings) -> int:
    """Matches of ``query`` by set algebra over :func:`term_postings`."""

    def evaluate(node) -> set[int]:
        if isinstance(node, Term):
            return postings.get((node.field, node.normalized), set())
        if isinstance(node, And):
            return set.intersection(*(evaluate(child) for child in node.children))
        if isinstance(node, Or):
            return set.union(*(evaluate(child) for child in node.children))
        if isinstance(node, Not):
            return set(range(doc_count)) - evaluate(node.child)
        raise TypeError(f"not a query node: {node!r}")

    return len(evaluate(parse_query(query)))
