"""Property tests: ranked retrieval is one answer, however it is computed.

Random structured corpora, random shard counts and random query trees are
thrown at every ranked evaluation path:

* ``QueryEngine.search(rank=True)`` over the monolithic index (v1 *and* the
  v2 binary artifact round-tripped through disk),
* the same engine over a :class:`ShardedRecipeIndex` manifest (serial and
  with a thread-fanned ``workers`` pool), and
* :func:`rank_recipes`, the brute-force scoring oracle that never touches
  an index,

and the results must agree: identical doc order (BM25 descending, doc id
ascending on ties — including the all-zero-score queries a pure ``NOT``
produces), scores within 1e-9 of the oracle, and identical spans.  Facet
aggregations are held to a brute-force counter over the scanned corpus (with
and without tombstones pending compaction, at every ``top``), the sharded
facet pass is pinned to stop before it decodes every term, and
the galloping set-algebra kernels are pinned element-wise to the linear
ones on adversarially skewed inputs.
"""

from __future__ import annotations

import random

import pytest

from repro.core.recipe_model import IngredientRecord, StructuredRecipe
from repro.corpus.sink import write_structured_jsonl
from repro.index import (
    IndexBuilder,
    QueryEngine,
    RecipeIndex,
    ShardedRecipeIndex,
    build_sharded_index,
    delete_docs,
    extract_entities,
    matches_recipe,
    migrate_manifest,
    parallel_ranked_search,
    rank_recipes,
    render_query,
)
from repro.index.query import (
    difference_adaptive,
    difference_galloping,
    difference_sorted,
    intersect_adaptive,
    intersect_count,
    intersect_galloping,
    intersect_sorted,
)

from tests.property.test_index_properties import _VOCAB, _random_query, _random_recipe


def _assert_same_ranking(actual, oracle, *, context: str) -> None:
    """Element-wise ranked equivalence: order, ids, spans; scores to 1e-9."""
    actual_total, actual_matches = actual
    oracle_total, oracle_matches = oracle
    assert actual_total == oracle_total, context
    assert [m.doc_id for m in actual_matches] == [
        m.doc_id for m in oracle_matches
    ], context
    for ours, theirs in zip(actual_matches, oracle_matches):
        assert abs(ours.score - theirs.score) <= 1e-9, (
            f"{context}: doc {ours.doc_id} scored {ours.score!r} vs "
            f"oracle {theirs.score!r}"
        )
        assert ours.spans == theirs.spans, context
        assert ours.recipe_id == theirs.recipe_id, context


@pytest.mark.parametrize("seed", range(8))
def test_ranked_sharded_equals_monolithic_equals_oracle(seed, tmp_path):
    rng = random.Random(4000 + seed)
    recipes = [_random_recipe(rng, f"r{i}") for i in range(rng.randint(1, 40))]
    path = tmp_path / "structured.jsonl"
    write_structured_jsonl(path, recipes)
    num_shards = rng.randint(1, 8)

    manifest_path = tmp_path / "manifest.json"
    build_sharded_index(
        path, manifest_path, num_shards=num_shards, format=rng.choice(("v1", "v2"))
    )
    migrate_manifest(
        manifest_path, select=lambda entry: rng.choice(("v1", "v2", None))
    )
    v2_path = tmp_path / "index.bin"
    IndexBuilder.build_from_jsonl(path).save(v2_path, kind="v2")

    monolithic = QueryEngine(IndexBuilder.build_from_jsonl(path))
    from_disk_v2 = QueryEngine(RecipeIndex.load(v2_path))
    sharded = QueryEngine(ShardedRecipeIndex.load(manifest_path))
    threaded = QueryEngine(ShardedRecipeIndex.load(manifest_path), workers=4)

    for _ in range(15):
        query = _random_query(rng)
        limit = rng.choice([None, 0, 1, rng.randint(1, len(recipes) + 1)])
        context = (
            f"seed={seed} shards={num_shards} limit={limit} "
            f"query={render_query(query)}"
        )
        oracle = rank_recipes(recipes, query, limit=limit)
        for engine in (monolithic, from_disk_v2, sharded, threaded):
            ranked = engine.search(query, limit=limit, rank=True)
            _assert_same_ranking(ranked, oracle, context=context)


@pytest.mark.parametrize("seed", range(4))
def test_parallel_ranked_search_equals_the_engine(seed, tmp_path):
    rng = random.Random(5000 + seed)
    recipes = [_random_recipe(rng, f"r{i}") for i in range(rng.randint(1, 30))]
    path = tmp_path / "structured.jsonl"
    write_structured_jsonl(path, recipes)
    manifest_path = tmp_path / "manifest.json"
    build_sharded_index(
        path,
        manifest_path,
        num_shards=rng.randint(1, 4),
        format=rng.choice(("v1", "v2")),
    )
    engine = QueryEngine(ShardedRecipeIndex.load(manifest_path))

    queries = [render_query(_random_query(rng)) for _ in range(6)]
    k = rng.randint(1, len(recipes) + 1)
    for workers in (1, 2):
        batched = parallel_ranked_search(manifest_path, queries, k=k, workers=workers)
        assert len(batched) == len(queries)
        for query, result in zip(queries, batched):
            expected = engine.search(query, limit=k, rank=True)
            _assert_same_ranking(
                result,
                expected,
                context=f"seed={seed} workers={workers} k={k} query={query}",
            )


@pytest.mark.parametrize("seed", range(6))
def test_facets_equal_a_brute_force_counter(seed, tmp_path):
    rng = random.Random(6000 + seed)
    recipes = [_random_recipe(rng, f"r{i}") for i in range(rng.randint(1, 40))]
    path = tmp_path / "structured.jsonl"
    write_structured_jsonl(path, recipes)
    manifest_path = tmp_path / "manifest.json"
    build_sharded_index(
        path,
        manifest_path,
        num_shards=rng.randint(1, 6),
        format=rng.choice(("v1", "v2")),
    )
    # Odd seeds tombstone a random subset: deletes pending compaction keep
    # their postings (and header counts) in the shards, masked at query time.
    dead = set()
    if seed % 2:
        dead = set(rng.sample(range(len(recipes)), rng.randint(1, len(recipes))))
        delete_docs(manifest_path, doc_ids=sorted(dead))
    survivors = [recipe for doc_id, recipe in enumerate(recipes) if doc_id not in dead]
    builder = IndexBuilder()
    for doc_id, recipe in enumerate(survivors):
        builder.add(recipe, doc_id=doc_id)
    monolithic = QueryEngine(builder.build(source="<survivors>"))
    sharded = QueryEngine(ShardedRecipeIndex.load(manifest_path))
    fields = list(_VOCAB)

    for _ in range(10):
        query = _random_query(rng)
        # Brute force: count matching docs per term, rank by (-count, term).
        counters = {field: {} for field in fields}
        for recipe in survivors:
            if not matches_recipe(query, recipe):
                continue
            entities = extract_entities(recipe)
            for field in fields:
                for term in entities[field]:
                    counters[field][term] = counters[field].get(term, 0) + 1
        for top in (0, 1, 3, 10, None):
            expected = {
                field: sorted(counter.items(), key=lambda row: (-row[1], row[0]))[
                    : (top if top is not None else len(counter))
                ]
                for field, counter in counters.items()
            }
            context = (
                f"seed={seed} dead={len(dead)} top={top} query={render_query(query)}"
            )
            assert monolithic.facets(query, fields, top=top) == expected, context
            assert sharded.facets(query, fields, top=top) == expected, context


def test_sharded_facets_stop_before_counting_every_term(tmp_path):
    # Zipf-shaped ingredient frequencies: name j is in every (j + 1)-th doc.
    names = [f"herb{letter}" for letter in "abcdefghijklmnopqrstuvwx"]
    recipes = [
        StructuredRecipe(
            recipe_id=f"z{i}",
            title="",
            ingredients=tuple(
                IngredientRecord(phrase=f"1 {name}", name=name)
                for j, name in enumerate(names)
                if i % (j + 1) == 0
            ),
        )
        for i in range(1, 97)
    ]
    path = tmp_path / "zipf.jsonl"
    write_structured_jsonl(path, recipes)
    manifest_path = tmp_path / "manifest.json"
    build_sharded_index(path, manifest_path, num_shards=4, format="v2")
    index = ShardedRecipeIndex.load(manifest_path)
    engine = QueryEngine(index)

    def decoded_blocks() -> int:
        lazy = index.stats()["lazy"]
        return lazy["hits"] + lazy["misses"]

    before = decoded_blocks()
    facets = engine.facets("NOT ingredient:herbx", "ingredient", top=1)
    assert facets == {"ingredient": [("herba", 92)]}
    # The NOT evaluation plus the winning term, shard by shard; every other
    # term's global df is below the banked floor, so none of them is decoded.
    assert decoded_blocks() - before < index.stats()["terms"]["ingredient"]


def _random_sorted_lists(rng: random.Random) -> tuple[list[int], list[int]]:
    """Adversarially skewed sorted int lists: tiny vs huge, dense vs sparse."""
    shape = rng.randrange(6)
    if shape == 0:  # both empty-ish
        small = sorted(rng.sample(range(50), rng.randint(0, 2)))
        large = sorted(rng.sample(range(50), rng.randint(0, 2)))
    elif shape == 1:  # tiny subset of a huge dense run
        large = list(range(rng.randint(500, 2000)))
        small = sorted(rng.sample(large, min(len(large), rng.randint(0, 8))))
    elif shape == 2:  # tiny list entirely below / above the huge one
        large = list(range(1000, 3000))
        small = rng.choice(
            [[1, 2, 3], [5000, 5001], [999, 1000, 2999, 3000, 4000]]
        )
    elif shape == 3:  # clustered runs with gaps (gallop overshoot territory)
        base = rng.randrange(100)
        large = sorted(
            base + run * 1000 + i for run in range(5) for i in range(rng.randint(1, 50))
        )
        small = sorted(rng.sample(range(base, base + 6000), rng.randint(0, 6)))
    elif shape == 4:  # comparable sizes (adaptive must pick linear)
        universe = range(rng.randint(1, 200))
        small = sorted(rng.sample(universe, rng.randint(0, len(universe))))
        large = sorted(rng.sample(universe, rng.randint(0, len(universe))))
    else:  # identical lists
        small = sorted(rng.sample(range(500), rng.randint(0, 100)))
        large = list(small)
    return small, large


@pytest.mark.parametrize("seed", range(8))
def test_galloping_kernels_equal_linear_kernels(seed):
    rng = random.Random(7000 + seed)
    for _ in range(50):
        small, large = _random_sorted_lists(rng)
        for left, right in ((small, large), (large, small)):
            expected = intersect_sorted(left, right)
            assert intersect_galloping(left, right) == expected, (left, right)
            assert intersect_adaptive(left, right) == expected, (left, right)
            assert intersect_count(left, right) == len(expected), (left, right)
            diff = difference_sorted(left, right)
            assert difference_galloping(left, right) == diff, (left, right)
            assert difference_adaptive(left, right) == diff, (left, right)
