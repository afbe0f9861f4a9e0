"""Fast, deterministic self-tests of the benchmark's own logic.

No workload runs here: nothing starts a server or opens a socket.
"""

from __future__ import annotations

import json
import time

import pytest

from perfbench.client import percentile
from perfbench.inputs import (
    DELETE_SHARE,
    LINES_PER_TAG_REQUEST,
    QueryMix,
    brute_force_total,
    expected_after_feed,
    feed_lines,
    tag_requests,
    term_postings,
)
from perfbench.run import delta, first_served
from perfbench.tracing import Tracer
from repro.corpus.synth import SynthParams, document_at, iter_documents, load_manifest, write_synth_corpus
from repro.index import extract_entities, parse_query, scan_structured_jsonl


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("perfbench")
    params = SynthParams(seed=3, docs=40)
    write_synth_corpus(params, directory / "corpus.jsonl", manifest_path=directory / "m.json")
    return params, directory / "corpus.jsonl", load_manifest(directory / "m.json")["fields"]


def test_percentile_interpolates():
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([0.0, 10.0], 0.99) == pytest.approx(9.9)
    assert percentile([5.0], 0.99) == 5.0


def test_query_mix_is_seeded_and_parses(corpus):
    _params, _path, fields = corpus
    mix, again, other = QueryMix(fields, 1), QueryMix(fields, 1), QueryMix(fields, 2)
    drawn = [next(mix) for _ in range(200)]
    assert [r.body for r in drawn] == [next(again).body for _ in range(200)]
    assert [r.body for r in drawn] != [next(other).body for _ in range(200)]
    assert {r.kind for r in drawn} == {"single", "and", "or_not", "not"}
    for request in drawn:
        parse_query(request.body["query"])
        assert request.body["rank"] is True and request.body["limit"] == 10
        assert (request.kind == "single") == (request.term is not None)


def test_brute_force_total_matches_the_repository_scan(corpus):
    _params, path, fields = corpus
    from repro.corpus.sink import iter_structured_jsonl

    doc_count, postings = term_postings(iter_structured_jsonl(path))
    assert doc_count == 40
    mix = QueryMix(fields, 5)
    for request in [next(mix) for _ in range(40)]:
        query = request.body["query"]
        assert brute_force_total(query, doc_count, postings) == len(
            scan_structured_jsonl(path, query)
        ), query
        if request.term is not None:
            assert brute_force_total(query, doc_count, postings) == fields[request.term[0]][
                request.term[1]
            ]


def test_tag_requests_keep_sections_and_document_order():
    stream = tag_requests(4)
    requests = [next(stream) for _ in range(30)]
    again = tag_requests(4)
    assert requests == [next(again) for _ in range(30)]
    assert all(len(r["lines"]) == LINES_PER_TAG_REQUEST for r in requests)
    params = SynthParams(seed=4)
    by_kind: dict[str, list[str]] = {"ingredient": [], "instruction": []}
    for index in range(60):
        for line in document_at(params, index).lines:
            by_kind[line.kind].append(line.text)
    for kind in by_kind:
        sent = [line for r in requests if r["section"] == kind for line in r["lines"]]
        assert sent == by_kind[kind][: len(sent)]


def test_feed_targets_distinct_base_documents_and_tracks_offsets():
    lines = feed_lines(9, 50, 200)
    assert lines == feed_lines(9, 50, 200)
    replaced = [line.replaced for line in lines if line.replaced is not None]
    assert len(replaced) == len(set(replaced)) > 0
    assert sum(line.action == "delete" for line in lines) < 2 * DELETE_SHARE * 200
    ends = [line.end for line in lines]
    assert ends == sorted(ends) and ends[-1] == sum(len(line.data) for line in lines)
    for line in lines:
        if line.action == "delete":
            assert json.loads(line.data) == {"_delete": line.recipe_id}
        else:
            assert json.loads(line.data)["recipe_id"] == line.recipe_id


def test_expected_after_feed_replays_the_feed():
    base = SynthParams(seed=9, docs=50)
    frequencies: dict[str, dict[str, int]] = {}
    for document in iter_documents(base):
        for name, terms in extract_entities(document.recipe).items():
            for term in terms:
                frequencies.setdefault(name, {})[term] = frequencies.setdefault(name, {}).get(term, 0) + 1
    lines = feed_lines(9, 50, 60)
    terms = [("ingredient", term) for term in sorted(frequencies["ingredient"])[:6]]
    live, counts = expected_after_feed(9, 50, frequencies, lines, terms)

    from repro.core.recipe_model import StructuredRecipe

    docs = {document.recipe.recipe_id: document.recipe for document in iter_documents(base)}
    for line in lines:
        if line.action == "delete":
            del docs[line.recipe_id]
        else:
            docs[line.recipe_id] = StructuredRecipe.from_json(line.data.decode("utf-8"))
    assert live == len(docs)
    for name, term in terms:
        assert counts[(name, term)] == sum(
            term in extract_entities(recipe)[name] for recipe in docs.values()
        )


def test_first_served_uses_the_first_covering_answer():
    answered = [(1.0, 0), (2.0, 100), (3.0, 90), (4.0, 250)]
    assert first_served(answered, [50, 100, 200, 300]) == [2.0, 2.0, 4.0, None]
    assert first_served([], [10]) == [None]


def test_delta_treats_missing_values_as_zero():
    assert delta({"a": {"b": 5}}, {"a": {}}, "a", "b") == 5
    assert delta({}, {"a": {"b": 2}}, "a", "b") == -2


def test_tracer_nests_spans_and_counts_when_disabled():
    tracer = Tracer()

    def inner(value):
        time.sleep(0.002)
        return value

    traced_inner = tracer.wrap("inner", inner, note=lambda value: value)

    def outer():
        time.sleep(0.002)
        return traced_inner(2) + traced_inner(3)

    traced_outer = tracer.wrap("outer", outer)
    assert traced_outer() == 5
    assert tracer.spans == []
    tracer.enabled = True
    assert traced_outer() == 5
    outer_span = next(span for span in tracer.spans if span.name == "outer")
    inner_spans = [span for span in tracer.spans if span.name == "inner"]
    assert len(inner_spans) == 2
    assert all(span.parent_id == outer_span.span_id for span in inner_spans)
    assert {span.request_id for span in tracer.spans} == {outer_span.span_id}
    summary = tracer.summary()["spans"]
    children = sum(span.end - span.start for span in inner_spans)
    assert summary["outer"]["self_s"] == pytest.approx(
        outer_span.end - outer_span.start - children
    )
    counters = tracer.counters()
    assert counters["calls"] == {"inner": 4, "outer": 2}
    assert counters["notes"]["inner"] == 10


def test_reported_metrics_match_benchmark_json():
    from pathlib import Path

    from perfbench.run import END_TO_END, TagBench, layer_metrics

    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(END_TO_END)
    bench = TagBench(1, 10, True)
    bench.setup_reps = [{}]
    empty = {"tracer": {}, "stats": {}}
    layers = layer_metrics(bench, empty, empty, {}, [], 0.0, "aio.tag_lines", 0)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [
        (name, unit) for name, (_value, unit) in layers.items()
    ]
