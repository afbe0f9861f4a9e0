"""Unit coverage of BM25 ranked retrieval, facets and the parallel batch path.

The property suite (``tests/property/test_rank_properties.py``) pins the
equivalences (sharded == monolithic == oracle, galloping == linear); these
tests check the pieces directly: the idf/tf arithmetic against hand-computed
values, top-k selection and tie-breaking, facet counting edge cases, input
validation, and the process-parallel batch search plumbing.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.recipe_model import IngredientRecord, InstructionEvent, StructuredRecipe
from repro.corpus.sink import write_structured_jsonl
from repro.errors import QueryError
from repro.index import (
    And,
    Bm25Scorer,
    CorpusStats,
    IndexBuilder,
    Not,
    Or,
    QueryEngine,
    RankedMatch,
    ShardedRecipeIndex,
    Term,
    build_sharded_index,
    facet_counts,
    parallel_ranked_search,
    rank_recipes,
)
from repro.index.ranking import DEFAULT_B, DEFAULT_K1, idf, positive_terms, select_top_k


def _recipe(recipe_id, ingredients=(), events=()):
    return StructuredRecipe(
        recipe_id=recipe_id,
        title="",
        ingredients=tuple(
            IngredientRecord(phrase=f"1 {name}", name=name) for name in ingredients
        ),
        events=tuple(
            InstructionEvent(
                step_index=step,
                text="Step.",
                ingredients=tuple(named),
                processes=tuple(processes),
                utensils=(),
            )
            for step, (named, processes) in enumerate(events)
        ),
    )


@pytest.fixture(scope="module")
def corpus():
    # Hand-sized corpus with known term frequencies and doc lengths:
    #   r0: tomato, garlic                  -> dl 2
    #   r1: tomato + event(tomato, saute)   -> dl 3 (tomato tf 2)
    #   r2: basil                           -> dl 1
    return [
        _recipe("r0", ingredients=("tomato", "garlic")),
        _recipe("r1", ingredients=("tomato",), events=[(("tomato",), ("saute",))]),
        _recipe("r2", ingredients=("basil",)),
    ]


@pytest.fixture(scope="module")
def engine(corpus):
    builder = IndexBuilder()
    builder.add_all(corpus)
    return QueryEngine(builder.build(source="ranking-test"))


class TestBm25Arithmetic:
    def test_idf_is_the_pinned_formula(self):
        assert idf(3, 2) == pytest.approx(math.log(1 + (3 - 2 + 0.5) / (2 + 0.5)))
        assert idf(1000, 1) > idf(1000, 999) > 0

    def test_scores_match_hand_computed_values(self, engine):
        total, matches = engine.search("ingredient:tomato", rank=True)
        assert total == 2
        weight = idf(3, 2)
        avgdl = 2.0  # (2 + 3 + 1) / 3
        k1, b = DEFAULT_K1, DEFAULT_B

        def bm25(tf, dl):
            return weight * (tf * (k1 + 1)) / (tf + k1 * (1 - b + b * dl / avgdl))

        # r1 (tf=2, dl=3) outscores r0 (tf=1, dl=2).
        assert [m.doc_id for m in matches] == [1, 0]
        assert matches[0].score == pytest.approx(bm25(2, 3))
        assert matches[1].score == pytest.approx(bm25(1, 2))

    def test_corpus_stats_read_metadata(self, engine):
        stats = CorpusStats.of(engine._index)
        assert stats.doc_count == 3
        assert stats.total_occurrences == 6
        assert stats.avg_doc_length == 2.0

    def test_zero_df_terms_contribute_nothing(self, engine):
        _, with_unseen = engine.search(
            "ingredient:tomato OR ingredient:dragonfruit", rank=True
        )
        _, without = engine.search("ingredient:tomato", rank=True)
        assert [(m.doc_id, m.score) for m in with_unseen] == [
            (m.doc_id, m.score) for m in without
        ]

    def test_pure_negation_scores_zero_in_doc_id_order(self, engine):
        total, matches = engine.search("NOT ingredient:basil", rank=True)
        assert total == 2
        assert [m.doc_id for m in matches] == [0, 1]
        assert all(m.score == 0.0 for m in matches)

    def test_ranked_match_to_dict_carries_the_score(self, engine):
        _, matches = engine.search("ingredient:garlic", rank=True)
        document = matches[0].to_dict()
        assert document["score"] == matches[0].score
        assert document["doc_id"] == 0
        assert "spans" in document

    def test_scorer_over_explicit_ids(self, engine):
        scorer = Bm25Scorer(engine._index, Term("ingredient", "tomato"))
        scores = scorer.scores([0, 1, 2])
        assert scores[0] > 0 and scores[1] > scores[0]
        assert scores[2] == 0.0  # r2 has no tomato


class TestPositiveTerms:
    def test_deduplicates_in_traversal_order(self):
        node = And(
            (
                Term("ingredient", "tomato"),
                Or((Term("process", "saute"), Term("ingredient", "tomato"))),
            )
        )
        assert [(t.field, t.normalized) for t in positive_terms(node)] == [
            ("ingredient", "tomato"),
            ("process", "saute"),
        ]

    def test_negated_subtrees_are_skipped(self):
        node = And((Term("ingredient", "tomato"), Not(Term("process", "boil"))))
        assert [(t.field, t.normalized) for t in positive_terms(node)] == [
            ("ingredient", "tomato")
        ]


class TestSelectTopK:
    def test_orders_by_score_then_doc_id(self):
        scored = [(3, 1.0), (1, 2.0), (2, 1.0), (0, 0.5)]
        assert select_top_k(scored, None) == [(1, 2.0), (2, 1.0), (3, 1.0), (0, 0.5)]
        assert select_top_k(scored, 2) == [(1, 2.0), (2, 1.0)]
        assert select_top_k(scored, 0) == []
        assert select_top_k(scored, 99) == select_top_k(scored, None)


class TestRankRecipesOracle:
    def test_total_counts_all_matches_despite_limit(self, corpus):
        total, matches = rank_recipes(corpus, "ingredient:tomato", limit=1)
        assert total == 2
        assert len(matches) == 1
        assert isinstance(matches[0], RankedMatch)

    def test_unknown_field_raises(self, corpus):
        with pytest.raises(QueryError, match="unknown query field"):
            rank_recipes(corpus, "colour:red")


class TestFacets:
    def test_counts_docs_not_occurrences(self, engine):
        # tomato appears 3 times across 2 docs -> facet count is 2.
        facets = engine.facets("NOT ingredient:dragonfruit", "ingredient")
        assert facets == {
            "ingredient": [("tomato", 2), ("basil", 1), ("garlic", 1)]
        }

    def test_top_zero_keeps_nothing(self, engine):
        assert engine.facets("ingredient:tomato", "ingredient", top=0) == {
            "ingredient": []
        }
        assert facet_counts([(engine._index, [0, 1])], "ingredient", top=0) == []

    def test_universe_fast_path_equals_the_general_path(self, engine):
        ids = list(range(engine._index.doc_count))
        assert facet_counts([(engine._index, ids)], "ingredient") == facet_counts(
            [(engine._index, ids[:-1] + ids[-1:])], "ingredient", top=None
        )

    def test_validation(self, engine):
        with pytest.raises(QueryError, match="unknown facet field"):
            engine.facets("ingredient:tomato", "colour")
        with pytest.raises(QueryError, match="at least one"):
            engine.facets("ingredient:tomato", [])
        with pytest.raises(QueryError, match="non-negative integer"):
            engine.facets("ingredient:tomato", "ingredient", top=-1)
        with pytest.raises(QueryError, match="non-negative integer"):
            engine.facets("ingredient:tomato", "ingredient", top=True)


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    rng = random.Random(42)
    from tests.property.test_index_properties import _random_recipe

    recipes = [_random_recipe(rng, f"r{i}") for i in range(30)]
    root = tmp_path_factory.mktemp("rank-parallel")
    corpus_path = root / "structured.jsonl"
    write_structured_jsonl(corpus_path, recipes)
    path = root / "manifest.json"
    build_sharded_index(corpus_path, path, num_shards=3, format="v2")
    return path


class TestParallelRankedSearch:
    def test_serial_and_process_pool_agree(self, manifest_path):
        queries = ["ingredient:tomato OR process:mix", "NOT utensil:pan"]
        serial = parallel_ranked_search(manifest_path, queries, k=5, workers=1)
        pooled = parallel_ranked_search(manifest_path, queries, k=5, workers=2)
        assert serial == pooled
        engine = QueryEngine(ShardedRecipeIndex.load(manifest_path))
        for query, (total, matches) in zip(queries, serial):
            expected_total, expected = engine.search(query, limit=5, rank=True)
            assert total == expected_total
            assert matches == expected

    def test_accepts_ast_queries(self, manifest_path):
        node = Or((Term("ingredient", "tomato"), Term("process", "mix")))
        by_ast = parallel_ranked_search(manifest_path, [node], k=3)
        by_string = parallel_ranked_search(
            manifest_path, ["ingredient:tomato OR process:mix"], k=3
        )
        assert by_ast == by_string

    def test_k_validation(self, manifest_path):
        for bad in (True, -1, 2.5, "3"):
            with pytest.raises(QueryError, match="non-negative integer"):
                parallel_ranked_search(manifest_path, ["ingredient:tomato"], k=bad)

    def test_bad_query_raises_query_error(self, manifest_path):
        with pytest.raises(QueryError):
            parallel_ranked_search(manifest_path, ["colour:red"], k=3)
