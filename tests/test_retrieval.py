from __future__ import annotations

import hashlib
import math
import random

import numpy as np
import pytest

from conftest import human_doc
from ragloop.retrieval import (HashedEmbedder, InvertedIndex, RankedList,
                               VectorIndex, search_bm25, search_dense,
                               tokenize)


# ---- tokenize -------------------------------------------------------------

def test_tokenize_rules():
    assert tokenize("The Beatles, 1964!") == ["the", "beatles", "1964"]
    assert tokenize("") == []
    assert tokenize("co-founder") == ["co", "founder"]


def test_tokenize_is_pure():
    text = "Mixed CASE text, with Punct!"
    assert tokenize(text) == tokenize(text)
    assert tokenize("under_score") == ["under", "score"]


# ---- BM25 -----------------------------------------------------------------

def _two_doc_index():
    index = InvertedIndex()
    index.add([human_doc("d1", "apple banana"),
               human_doc("d2", "banana cherry")])
    return index


def test_bm25_hand_value():
    # N=2, df=1, tf=1, dl=avgdl=2: idf=ln(2), denom=1+1.2*(0.25+0.75)=2.2
    index = _two_doc_index()
    results = index.search("apple", 2)
    assert len(results) == 1
    doc_id, score = results[0]
    assert doc_id == "d1"
    assert abs(score - math.log(2) / 2.2) < 1e-9


def test_bm25_absent_term_gives_empty_list():
    index = _two_doc_index()
    assert index.search("durian", 5) == []


def test_bm25_empty_query_gives_empty_list():
    index = _two_doc_index()
    ranked = search_bm25(index, "...", 5)
    assert ranked.entries == []


def test_bm25_tie_break_by_doc_id():
    index = InvertedIndex()
    index.add([human_doc("d_b", "apple pie"), human_doc("d_a", "apple pie")])
    results = index.search("apple", 2)
    assert [doc_id for doc_id, _ in results] == ["d_a", "d_b"]
    assert results[0][1] == results[1][1]


def test_bm25_k_below_one_rejected():
    with pytest.raises(ValueError):
        _two_doc_index().search("apple", 0)


def test_bm25_rankedlist_invariants():
    docs = [human_doc(f"d{i}", "apple " * (i + 1) + "banana") for i in range(8)]
    index = InvertedIndex()
    index.add(docs)
    ranked = search_bm25(index, "apple banana", 5, query_id="q", iteration=0)
    ranked.validate()
    assert len(ranked.entries) == 5
    assert [e.rank for e in ranked.entries] == [1, 2, 3, 4, 5]


def test_bm25_score_monotone_in_tf():
    # equal lengths, single-term query: higher tf never scores lower
    docs = [human_doc("d1", "apple apple apple pad"),
            human_doc("d2", "apple apple pad pad"),
            human_doc("d3", "apple pad pad pad")]
    index = InvertedIndex()
    index.add(docs)
    scores = dict(index.search("apple", 3))
    assert scores["d1"] >= scores["d2"] >= scores["d3"]


def test_index_add_bookkeeping():
    index = InvertedIndex()
    index.add([human_doc("d1", "one two three")])
    index.add([human_doc("d2", "apple banana")])
    assert index.doc_count == 2
    assert index.total_length == 5
    assert ("apple" in index.postings and "banana" in index.postings)
    assert len(index.postings["apple"]) == 1


def test_index_add_rejects_reindexing():
    index = InvertedIndex()
    index.add([human_doc("d1", "one")])
    with pytest.raises(ValueError, match="already indexed"):
        index.add([human_doc("d1", "one again")])


def test_index_add_empty_is_identity():
    index = InvertedIndex()
    index.add([human_doc("d1", "one two")])
    before = (index.doc_count, index.total_length)
    index.add([])
    assert (index.doc_count, index.total_length) == before


def _random_docs(rng: random.Random, n: int, vocab: list[str]):
    docs = []
    for i in range(n):
        words = [rng.choice(vocab) for _ in range(rng.randint(5, 40))]
        docs.append(human_doc(f"d{i:04d}", " ".join(words)))
    return docs


def test_incremental_equals_rebuild_bit_identical():
    # oracle: a fresh index over the same documents in the same order
    rng = random.Random(1234)
    vocab = [f"w{i}" for i in range(60)]
    docs = _random_docs(rng, 500, vocab)
    incremental = InvertedIndex()
    for start in range(0, 500, 100):
        incremental.add(docs[start:start + 100])
    rebuilt = InvertedIndex()
    rebuilt.add(docs)
    for _ in range(20):
        query = " ".join(rng.choice(vocab) for _ in range(3))
        a = incremental.search(query, 100)
        b = rebuilt.search(query, 100)
        assert a == b  # ids, exact float scores, and order


# ---- dense ----------------------------------------------------------------

def test_dense_exact_match_vector():
    vindex = VectorIndex()
    vindex.add_vectors([("d1", np.array([1.0, 0.0])),
                        ("d2", np.array([0.0, 1.0]))])
    results = vindex.search_vector(np.array([1.0, 0.0]), 1)
    assert results[0][0] == "d1"
    assert abs(results[0][1] - 1.0) < 1e-12


def test_dense_orthogonal_vector_scores_zero():
    vindex = VectorIndex()
    vindex.add_vectors([("d1", np.array([1.0, 0.0]))])
    results = vindex.search_vector(np.array([0.0, 1.0]), 1)
    assert abs(results[0][1]) < 1e-12


def test_dense_hand_cosine_ranking():
    vindex = VectorIndex()
    vindex.add_vectors([("a", np.array([1.0, 0.0])),
                        ("b", np.array([0.6, 0.8])),
                        ("c", np.array([0.0, 1.0]))])
    results = vindex.search_vector(np.array([1.0, 0.0]), 2)
    assert [doc_id for doc_id, _ in results] == ["a", "b"]
    assert abs(results[0][1] - 1.0) < 1e-12
    assert abs(results[1][1] - 0.6) < 1e-12


def test_dense_dimension_mismatch_rejected():
    vindex = VectorIndex()
    vindex.add_vectors([("d1", np.array([1.0, 0.0]))])
    with pytest.raises(ValueError, match="dimension mismatch"):
        vindex.add_vectors([("d2", np.array([1.0, 0.0, 0.0]))])
    with pytest.raises(ValueError, match="dimension"):
        vindex.search_vector(np.array([1.0]), 1)


def test_dense_rejects_non_finite_vectors():
    vindex = VectorIndex()
    with pytest.raises(ValueError, match="non-finite"):
        vindex.add_vectors([("d1", np.array([np.nan, 0.0]))])


@pytest.mark.parametrize("query", [[math.inf, 0.0], [0.0, -math.inf],
                                   [math.nan, 1.0]])
def test_dense_rejects_non_finite_query_vectors(query):
    vindex = VectorIndex()
    vindex.add_vectors([("a", np.array([1.0, 0.0])),
                        ("b", np.array([0.0, 1.0]))])
    with pytest.raises(ValueError, match="non-finite"):
        vindex.search_vector(np.array(query), 2)


def test_ranked_list_rejects_nan_scores():
    for pairs in ([("a", math.nan)], [("a", 2.0), ("b", math.nan)],
                  [("a", math.nan), ("b", 1.0)]):
        with pytest.raises(ValueError, match="NaN score"):
            RankedList.from_ordered("q", 0, pairs).validate()
    RankedList.from_ordered("q", 0, [("a", math.inf), ("b", -math.inf)]).validate()


def test_hashed_embedder_deterministic_and_normalized():
    embedder = HashedEmbedder(dim=256, seed=3)
    v1, v2 = embedder.embed(["apple banana", "apple banana"])
    assert np.array_equal(v1, v2)
    assert abs(float(np.linalg.norm(v1)) - 1.0) < 1e-12
    other = HashedEmbedder(dim=256, seed=4).embed(["apple banana"])[0]
    assert not np.array_equal(v1, other)


def test_search_dense_end_to_end_with_stub():
    embedder = HashedEmbedder(dim=64, seed=0)
    docs = [human_doc("d1", "apple banana"), human_doc("d2", "totally different"),
            human_doc("d3", "apple banana orange")]
    vindex = VectorIndex()
    vindex.add_documents(docs, embedder)
    ranked = search_dense(vindex, "apple banana", 2, embedder, query_id="q")
    ranked.validate()
    assert ranked.entries[0].doc_id == "d1"  # identical token bag


def _direct_embedding(text, dim, seed):
    # the derivation the embedder memoizes, applied to every token afresh
    vec = np.zeros(dim, dtype=np.float64)
    for token in tokenize(text):
        digest = hashlib.sha256(f"{seed}:{token}".encode("utf-8")).digest()
        bucket = int.from_bytes(digest[:8], "big") % dim
        sign = 1.0 if digest[8] & 1 else -1.0
        vec[bucket] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def test_hashed_embedder_bit_identical_to_direct_derivation_in_any_order():
    rng = random.Random(31)
    vocab = [f"tok{i}" for i in range(60)] + ["the", "a", "café"]
    texts = [" ".join(rng.choice(vocab) for _ in range(rng.randint(0, 40)))
             for _ in range(40)] + ["", "!!!", "the the the"]
    for dim, seed in ((256, 0), (7, 5)):
        want = {t: _direct_embedding(t, dim, seed) for t in texts}
        embedder = HashedEmbedder(dim=dim, seed=seed)
        for _ in range(3):
            order = texts[:]
            rng.shuffle(order)
            for text, vec in zip(order, embedder.embed(order)):
                assert vec.tobytes() == want[text].tobytes()
        one_by_one = HashedEmbedder(dim=dim, seed=seed)
        for text in reversed(texts):
            assert one_by_one.embed([text])[0].tobytes() == want[text].tobytes()
