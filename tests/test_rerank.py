from __future__ import annotations

import pytest

from ragloop.errors import RemoteServiceError
from ragloop.remote import Endpoint
from ragloop.rerank import (FAILURE_ABORT, FAILURE_PASS_THROUGH,
                            LexicalOverlapBackend, RemoteScorerBackend, rerank)
from ragloop.config import load_query_set
from ragloop.corpus import ingest_seed_corpus
from ragloop.retrieval import InvertedIndex, RankedList, search_bm25
from ragloop.synthdata import write_demo_dataset

from conftest import human_doc, snapshot_of


def _candidates(ids, query_id="q"):
    return RankedList.from_ordered(query_id, 0,
                                   [(d, float(len(ids) - i))
                                    for i, d in enumerate(ids)])


def _corpus(texts):
    return snapshot_of([human_doc(d, t) for d, t in texts.items()])


def test_lexical_overlap_scores():
    backend = LexicalOverlapBackend()
    scores = backend.score("capital of france",
                           ["paris is the capital of france", "banana"])
    assert scores[0] > scores[1]
    assert scores == [1.0, 0.0]


def test_lexical_overlap_empty_query():
    assert LexicalOverlapBackend().score("!!!", ["text"]) == [0.0]


def test_rerank_orders_by_overlap():
    texts = {"A": "paris is the capital of france", "B": "banana"}
    out = rerank(LexicalOverlapBackend(), "capital of france",
                 _candidates(["B", "A"]), depth=10, corpus=_corpus(texts),
                 scores={})
    assert out.ranked.doc_ids() == ["A", "B"]
    assert [e.rank for e in out.ranked.entries] == [1, 2]


def test_rerank_depth_clamps_to_candidates():
    ids = [f"d{i}" for i in range(40)]
    texts = {d: f"text {d}" for d in ids}
    out = rerank(LexicalOverlapBackend(), "unrelated query",
                 _candidates(ids), depth=100, corpus=_corpus(texts), scores={})
    assert len(out.ranked.entries) == 40


def test_rerank_equal_scores_keep_original_order():
    ids = ["d1", "d2", "d3"]
    texts = {d: "same text" for d in ids}
    out = rerank(LexicalOverlapBackend(), "same text",
                 _candidates(ids), depth=3, corpus=_corpus(texts), scores={})
    assert out.ranked.doc_ids() == ids


def test_rerank_tail_beyond_depth_untouched():
    ids = ["low", "high", "tail1", "tail2"]
    texts = {"low": "nothing here", "high": "query words match",
             "tail1": "query words match", "tail2": "query words match"}
    out = rerank(LexicalOverlapBackend(), "query words match",
                 _candidates(ids), depth=2, corpus=_corpus(texts), scores={})
    assert out.ranked.doc_ids() == ["high", "low", "tail1", "tail2"]


def test_rerank_is_permutation():
    ids = [f"d{i}" for i in range(15)]
    texts = {d: f"words {i} overlap query" for i, d in enumerate(ids)}
    out = rerank(LexicalOverlapBackend(), "overlap query",
                 _candidates(ids), depth=7, corpus=_corpus(texts), scores={})
    assert sorted(out.ranked.doc_ids()) == sorted(ids)


def test_rerank_depth_zero_rejected():
    with pytest.raises(ValueError):
        rerank(LexicalOverlapBackend(), "q", _candidates(["a"]), depth=0,
               corpus=_corpus({"a": "t"}), scores={})


def test_remote_scorer_roundtrip(stub_server):
    stub_server.routes["/score"] = lambda payload: {
        "scores": [float(len(p)) for p in payload["passages"]]}
    backend = RemoteScorerBackend(
        Endpoint(stub_server.url("/score"), "scorer-1", retries=0), batch_size=2)
    scores = backend.score("q", ["aa", "bbbb", "c"])
    assert scores == [2.0, 4.0, 1.0]
    # batching honored: 3 passages with batch_size=2 means two requests
    assert len(stub_server.requests) == 2
    assert stub_server.requests[0][1]["query"] == "q"
    assert stub_server.requests[0][1]["model"] == "scorer-1"


def test_remote_scorer_accepts_bare_array(stub_server):
    stub_server.routes["/score"] = lambda payload: [0.5] * len(payload["passages"])
    backend = RemoteScorerBackend(Endpoint(stub_server.url("/score"), retries=0))
    assert backend.score("q", ["x", "y"]) == [0.5, 0.5]


def test_remote_scorer_retries_then_succeeds(stub_server):
    state = {"calls": 0}

    def flaky(payload):
        state["calls"] += 1
        if state["calls"] < 3:
            return 500, {"error": "boom"}
        return {"scores": [1.0]}

    stub_server.routes["/score"] = flaky
    backend = RemoteScorerBackend(
        Endpoint(stub_server.url("/score"), retries=3, backoff=0.01))
    assert backend.score("q", ["x"]) == [1.0]
    assert state["calls"] == 3


def test_rerank_failure_abort_policy(stub_server):
    stub_server.routes["/score"] = lambda payload: (500, {"error": "down"})
    backend = RemoteScorerBackend(
        Endpoint(stub_server.url("/score"), retries=1, backoff=0.01))
    with pytest.raises(RemoteServiceError):
        rerank(backend, "q", _candidates(["a", "b"]), depth=2,
               corpus=_corpus({"a": "x", "b": "y"}), scores={})


def test_rerank_failure_pass_through_policy(stub_server):
    stub_server.routes["/score"] = lambda payload: (500, {"error": "down"})
    backend = RemoteScorerBackend(
        Endpoint(stub_server.url("/score"), retries=0, backoff=0.01))
    candidates = _candidates(["a", "b"])
    out = rerank(backend, "q", candidates, depth=2,
                 corpus=_corpus({"a": "x", "b": "y"}),
                 failure_policy=FAILURE_PASS_THROUGH, scores={})
    assert out.passed_through
    assert out.ranked.doc_ids() == ["a", "b"]


@pytest.mark.parametrize("body", [b'{"scores": [0.5, NaN]}',
                                  b'{"scores": [0.5, "high"]}'],
                         ids=["nan", "text"])
@pytest.mark.parametrize("policy", [FAILURE_PASS_THROUGH, FAILURE_ABORT])
def test_unreadable_scores_fall_under_the_failure_policy(stub_server, body,
                                                         policy):
    stub_server.routes["/score"] = lambda payload: body
    backend = RemoteScorerBackend(Endpoint(stub_server.url("/score"), retries=0))
    candidates = _candidates(["a", "b"])
    corpus = _corpus({"a": "x", "b": "y"})
    if policy == FAILURE_ABORT:
        with pytest.raises(RemoteServiceError, match="malformed scores"):
            rerank(backend, "q", candidates, depth=2, corpus=corpus,
                   failure_policy=policy, scores={})
    else:
        out = rerank(backend, "q", candidates, depth=2, corpus=corpus,
                     failure_policy=policy, scores={})
        assert out.passed_through and out.ranked is candidates
    assert len(stub_server.requests) == 1


def test_lexical_overlap_same_scores_from_tokens_and_text():
    texts = {"d1": "Paris is the capital of France.",
             "d2": "capital capital, of; OF",
             "d3": "nothing shared",
             "d4": "France's capital-city: Paris"}
    corpus = _corpus(texts)
    backend = LexicalOverlapBackend()
    for query in ("capital of france", "paris", "zzz", "!!!"):
        from_text = backend.score(query, list(texts.values()))
        from_tokens = backend.score(query, [corpus.tokens(d) for d in texts])
        assert from_tokens == from_text
    out = rerank(backend, "capital of france", _candidates(list(texts)),
                 depth=4, corpus=corpus, scores={})
    assert [e.score for e in out.ranked.entries] == sorted(
        backend.score("capital of france", list(texts.values())), reverse=True)


class _Recording(LexicalOverlapBackend):
    """The lexical backend, recording every passage it is asked to score."""

    def __init__(self):
        self.seen = []

    def score(self, query, passages):
        self.seen.extend(passages)
        return super().score(query, passages)


def _recorded_searches(tmp_path, depth=60):
    """A demo corpus and each of its questions' BM25 candidates."""
    corpus_path, query_path = write_demo_dataset(tmp_path, num_docs=120,
                                                 num_queries=6, seed=3)
    corpus = ingest_seed_corpus(corpus_path)
    index = InvertedIndex()
    index.add(list(corpus.iter_documents()))
    queries = load_query_set(query_path)
    found = search_bm25(index, {q.query_id: q.question for q in queries}, depth)
    return corpus, [(q.question, found[q.query_id]) for q in queries]


def test_rerank_with_stored_scores_matches_a_fresh_rerank(tmp_path):
    corpus, searches = _recorded_searches(tmp_path)
    for question, candidates in searches:
        fresh = rerank(LexicalOverlapBackend(), question, candidates,
                       depth=40, corpus=corpus, scores={})
        full: dict[str, float] = {}
        assert rerank(LexicalOverlapBackend(), question, candidates, depth=40,
                      corpus=corpus, scores=full) == fresh
        head = candidates.doc_ids()[:40]
        assert list(full) == head
        half = {d: full[d] for d in head[::2]}
        backend = _Recording()
        assert rerank(backend, question, candidates, depth=40, corpus=corpus,
                      scores=half) == fresh
        # only the missing passages, in head order, and now all are stored
        assert backend.seen == [corpus.tokens(d) for d in head[1::2]]
        assert half == full
        backend.seen.clear()
        rerank(backend, question, candidates, depth=40, corpus=corpus,
               scores=half)
        assert backend.seen == []


@pytest.mark.parametrize("policy", [FAILURE_PASS_THROUGH, FAILURE_ABORT])
def test_failed_scoring_stores_nothing(tmp_path, stub_server, policy):
    # the second batch of 32 fails after the first was answered
    answered = {"n": 0}

    def second_batch_down(payload):
        answered["n"] += 1
        if answered["n"] > 1:
            return 500, {"error": "down"}
        return {"scores": [0.5] * len(payload["passages"])}

    stub_server.routes["/score"] = second_batch_down
    backend = RemoteScorerBackend(Endpoint(stub_server.url("/score"), retries=0))
    corpus, searches = _recorded_searches(tmp_path)
    question, candidates = searches[0]
    head = candidates.doc_ids()[:40]
    stored = {d: 1.0 for d in head[:4]}
    before = dict(stored)
    if policy == FAILURE_ABORT:
        with pytest.raises(RemoteServiceError):
            rerank(backend, question, candidates, depth=40, corpus=corpus,
                   failure_policy=policy, scores=stored)
    else:
        out = rerank(backend, question, candidates, depth=40, corpus=corpus,
                     failure_policy=policy, scores=stored)
        assert out.passed_through and out.ranked is candidates
    assert stored == before
    # 36 missing passages: one batch of 32 answered, the next refused
    assert [len(p["passages"]) for _path, p in stub_server.requests] == [32, 4]
