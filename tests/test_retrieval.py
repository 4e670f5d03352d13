from __future__ import annotations

import copy
import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import human_doc
from ragloop.retrieval import (HashedEmbedder, InvertedIndex, VectorIndex,
                               search_bm25, search_dense, tokenize)


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
    results = index.search_all(["apple"], 2)[0]
    assert len(results) == 1
    doc_id, score = results[0]
    assert doc_id == "d1"
    assert abs(score - math.log(2) / 2.2) < 1e-9


def test_bm25_absent_term_gives_empty_list():
    index = _two_doc_index()
    assert index.search_all(["durian"], 5)[0] == []


def test_bm25_empty_query_gives_empty_list():
    index = _two_doc_index()
    ranked = search_bm25(index, {"q": "..."}, 5)["q"]
    assert ranked.entries == []


def test_bm25_tie_break_by_doc_id():
    index = InvertedIndex()
    index.add([human_doc("d_b", "apple pie"), human_doc("d_a", "apple pie")])
    results = index.search_all(["apple"], 2)[0]
    assert [doc_id for doc_id, _ in results] == ["d_a", "d_b"]
    assert results[0][1] == results[1][1]


def test_bm25_k_below_one_rejected():
    with pytest.raises(ValueError):
        _two_doc_index().search_all(["apple"], 0)


def _assert_ranked(ranked):
    """Ranks run 1..n, scores never rise and no document repeats."""
    assert [e.rank for e in ranked.entries] == list(range(1, len(ranked.entries) + 1))
    scores = [e.score for e in ranked.entries]
    assert scores == sorted(scores, reverse=True)
    assert len(set(ranked.doc_ids())) == len(ranked.entries)


def test_bm25_rankedlist_invariants():
    docs = [human_doc(f"d{i}", "apple " * (i + 1) + "banana") for i in range(8)]
    index = InvertedIndex()
    index.add(docs)
    ranked = search_bm25(index, {"q": "apple banana"}, 5, iteration=0)["q"]
    _assert_ranked(ranked)
    assert len(ranked.entries) == 5
    assert [e.rank for e in ranked.entries] == [1, 2, 3, 4, 5]


def test_bm25_score_monotone_in_tf():
    # equal lengths, single-term query: higher tf never scores lower
    docs = [human_doc("d1", "apple apple apple pad"),
            human_doc("d2", "apple apple pad pad"),
            human_doc("d3", "apple pad pad pad")]
    index = InvertedIndex()
    index.add(docs)
    scores = dict(index.search_all(["apple"], 3)[0])
    assert scores["d1"] >= scores["d2"] >= scores["d3"]


def test_index_add_bookkeeping():
    index = InvertedIndex()
    index.add([human_doc("d1", "one two three")])
    index.add([human_doc("d2", "apple banana")])
    assert index.doc_count == 2
    assert index.total_length == 5
    assert ("apple" in index.postings and "banana" in index.postings)
    doc_idxs, _term_freqs = index.postings["apple"]
    assert len(doc_idxs) == 1


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
        a = incremental.search_all([query], 100)[0]
        b = rebuilt.search_all([query], 100)[0]
        assert a == b  # ids, exact float scores, and order


def test_incremental_postings_equal_rebuild():
    # batches of uneven size, so every term's arrays are concatenated
    # from parts that start and end at different documents
    rng = random.Random(99)
    vocab = [f"w{i}" for i in range(80)]
    docs = _random_docs(rng, 300, vocab)
    incremental = InvertedIndex()
    for start, stop in [(0, 1), (1, 40), (40, 41), (41, 177), (177, 300)]:
        incremental.add(docs[start:stop])
    rebuilt = InvertedIndex()
    rebuilt.add(docs)
    assert incremental.postings.keys() == rebuilt.postings.keys()
    for term, (idxs, tfs) in rebuilt.postings.items():
        inc_idxs, inc_tfs = incremental.postings[term]
        assert (inc_idxs.dtype, inc_tfs.dtype) == (np.int64, np.int32)
        assert (idxs.dtype, tfs.dtype) == (np.int64, np.int32)
        assert np.array_equal(inc_idxs, idxs) and np.array_equal(inc_tfs, tfs)
        assert np.all(np.diff(idxs) > 0)
    assert incremental.doc_lengths == rebuilt.doc_lengths
    assert incremental.total_length == rebuilt.total_length


@pytest.mark.parametrize("batch", [
    ["d2", "d2"],              # repeated next to itself
    ["d2", "d3", "d4", "d2"],  # repeated further on
])
def test_index_add_rejects_a_bad_batch_whole(batch):
    index = InvertedIndex()
    index.add([human_doc("d1", "apple pie")])
    with pytest.raises(ValueError, match="already indexed or repeated"):
        index.add([human_doc(doc_id, "apple tart") for doc_id in batch])
    assert index.doc_ids == ["d1"] and index.doc_lengths == [2]
    assert [len(idxs) for idxs, _ in index.postings.values()] == [1, 1]
    assert [doc_id for doc_id, _ in index.search_all(["apple"], 10)[0]] == ["d1"]


def test_index_add_of_given_tokens_equals_add_of_texts():
    rng = random.Random(7)
    docs = _random_docs(rng, 60, [f"w{i}" for i in range(30)])
    given = InvertedIndex()
    given.add(docs[:25], [tuple(tokenize(d.text)) for d in docs[:25]])
    given.add(docs[25:], (tokenize(d.text) for d in docs[25:]))
    texts = InvertedIndex()
    texts.add(docs)
    assert given.doc_lengths == texts.doc_lengths
    assert given.postings.keys() == texts.postings.keys()
    for term, (idxs, tfs) in texts.postings.items():
        assert all(np.array_equal(a, b) and a.dtype == b.dtype
                   for a, b in zip(given.postings[term], (idxs, tfs)))
    assert given.search_all(["w1 w2 w3"], 60)[0] == \
        texts.search_all(["w1 w2 w3"], 60)[0]


def test_index_add_rejects_a_token_count_mismatch_whole():
    index = InvertedIndex()
    index.add([human_doc("d1", "apple pie")])
    with pytest.raises(ValueError, match="1 token sequences for 2 documents"):
        index.add([human_doc("d2", "apple"), human_doc("d3", "tart")],
                  [["apple"]])
    assert index.doc_ids == ["d1"] and index.doc_lengths == [2]
    assert index.total_length == 2


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


def _hex(pairs):
    # float.hex tells 0.0 from -0.0, which == does not
    return [(doc_id, score.hex()) for doc_id, score in pairs]


def test_vector_matrix_and_norms_equal_rebuild():
    # (dim, documents, reserved rows, commit boundaries): an empty commit,
    # growth from no reservation, a commit that fills the reservation
    # exactly, one that outgrows it, and a 256-wide index past 4 MB, from
    # where numpy asks for huge pages
    cases = [(12, 90, 0, [0, 0, 1, 30, 30, 31, 90]),
             (12, 90, 90, [0, 1, 30, 90]),
             (12, 90, 40, [0, 30, 41, 41, 90]),
             (256, 2200, 2100, [0, 1200, 1248, 2100, 2101, 2200])]
    rng = np.random.default_rng(7)
    for dim, n, reserve, bounds in cases:
        items = [(f"v{i:04d}", rng.normal(size=dim)) for i in range(n)]
        # two rows equal to others and a zero row, so scores tie and a
        # zero norm is taken
        items[5] = ("v0005", items[3][1].copy())
        items[-1] = (items[-1][0], items[0][1].copy())
        items[7] = ("v0007", np.zeros(dim))
        rng.shuffle(items)
        incremental = VectorIndex(reserve=reserve)
        for start, stop in zip(bounds, bounds[1:]):
            incremental.add_vectors(items[start:stop])
        rebuilt = VectorIndex()
        rebuilt.add_vectors(items)
        # the same search over a fresh contiguous copy of the rows, not a
        # view into a larger buffer
        copied = copy.copy(incremental)
        copied.matrix = np.array(incremental.matrix)
        copied._norms = np.linalg.norm(copied.matrix, axis=1)
        assert incremental.matrix.dtype == rebuilt.matrix.dtype == np.float64
        assert incremental.matrix.shape == (n, dim)
        assert incremental.matrix.tobytes() == rebuilt.matrix.tobytes() == \
            np.vstack([v for _, v in items]).tobytes()
        assert incremental._norms.tobytes() == rebuilt._norms.tobytes() == \
            copied._norms.tobytes()
        assert incremental._id_rank.tobytes() == rebuilt._id_rank.tobytes()
        for query in (rng.normal(size=dim), items[3][1], np.zeros(dim)):
            for k in (1, 10, n):
                found = _hex(incremental.search_vector(query, k))
                assert found == _hex(rebuilt.search_vector(query, k)) == \
                    _hex(copied.search_vector(query, k)), (dim, bounds, k)


def test_vector_commit_into_spare_rows_copies_no_indexed_row():
    # tracemalloc sees numpy's data buffers: copying the 1,200 x 256 rows
    # already indexed would allocate 2.4 MB
    rng = np.random.default_rng(11)
    vindex = VectorIndex(reserve=1300)
    vindex.add_vectors([(f"s{i:04d}", rng.normal(size=256)) for i in range(1200)])
    batch = [(f"g{i:02d}", rng.normal(size=256)) for i in range(48)]
    tracemalloc.start()
    try:
        vindex.add_vectors(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vindex.doc_count == 1248
    assert peak < 0.5 * 2**20, f"{peak / 2**20:.2f} MB"


@pytest.mark.parametrize("batch, match", [
    ([("c", [0.5, 0.5]), ("d", [1.0, 0.0, 0.0])], "dimension mismatch"),
    ([("c", [0.5, 0.5]), ("d", [math.nan, 0.0])], "non-finite"),
    ([("c", [0.5, 0.5]), ("d", [[1.0, 0.0]])], "1-d"),
    ([("c", [0.5, 0.5]), ("c", [0.0, 1.0])], "already indexed"),
])
@pytest.mark.parametrize("indexed", [0, 2])
def test_dense_rejects_a_bad_batch_whole(batch, match, indexed):
    # the first item is good; on an empty index it would also set the dimension
    vindex = VectorIndex()
    vindex.add_vectors([("a", np.array([1.0, 0.0])), ("b", np.array([0.0, 1.0]))][:indexed])
    with pytest.raises(ValueError, match=match):
        vindex.add_vectors([(doc_id, np.array(vec)) for doc_id, vec in batch])
    assert vindex.doc_ids == ["a", "b"][:indexed]
    assert vindex.matrix.shape[0] == indexed
    assert vindex.dim == (2 if indexed else None)
    vindex.add_vectors([("e", np.array([0.0, 3.0]))])
    found = {doc_id for doc_id, _ in vindex.search_vector(np.array([1.0, 1.0]), 9)}
    assert found == ({"a", "b", "e"} if indexed else {"e"})


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
    ranked = search_dense(vindex, {"q": embedder.embed(["apple banana"])[0]},
                          2)["q"]
    _assert_ranked(ranked)
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
