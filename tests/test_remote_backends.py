"""Wire-format tests for every remote service the pipeline can call,
against a local stub HTTP server."""

from __future__ import annotations

import numpy as np
import pytest

from ragloop.errors import GenerationFailure, RemoteServiceError
from ragloop.filters import RemoteDetectorClient
from ragloop.generation import (GenerationRequest, RemoteChatGenerator,
                                generate, judge_support)
from ragloop.remote import Endpoint
from ragloop.retrieval import RankedList, RemoteEmbeddingClient, VectorIndex

from conftest import human_doc, labelled_source_filter, snapshot_of


def test_chat_generator_roundtrip(stub_server):
    def chat(payload):
        assert payload["model"] == "test-model"
        assert payload["temperature"] == 0.7
        assert payload["messages"][0]["role"] == "user"
        return {"choices": [{"message": {
            "content": f"reply to: {payload['messages'][0]['content'][:20]}"}}]}

    stub_server.routes["/v1/chat"] = chat
    backend = RemoteChatGenerator(
        "remote-1", Endpoint(stub_server.url("/v1/chat"), "test-model", retries=0))
    text = generate(backend, GenerationRequest(prompt="say something"))
    assert text == "reply to: say something"


def test_chat_generator_sends_api_key(stub_server):
    stub_server.routes["/v1/chat"] = \
        lambda payload: {"choices": [{"message": {"content": "ok"}}]}
    backend = RemoteChatGenerator("r", Endpoint(
        stub_server.url("/v1/chat"), "m", api_key="sk-secret", retries=0))
    generate(backend, GenerationRequest(prompt="x"))
    assert stub_server.auth_headers == ["Bearer sk-secret"]


def test_chat_generator_retries_then_fails(stub_server):
    calls = {"n": 0}

    def flaky(payload):
        calls["n"] += 1
        return 500, {"error": "overloaded"}

    stub_server.routes["/v1/chat"] = flaky
    backend = RemoteChatGenerator("r", Endpoint(
        stub_server.url("/v1/chat"), "m", retries=2, backoff=0.01))
    with pytest.raises(GenerationFailure):
        generate(backend, GenerationRequest(prompt="x"))
    assert calls["n"] == 3  # initial try plus two retries


def test_chat_generator_malformed_reply(stub_server):
    stub_server.routes["/v1/chat"] = lambda payload: {"unexpected": True}
    backend = RemoteChatGenerator(
        "r", Endpoint(stub_server.url("/v1/chat"), "m", retries=0))
    with pytest.raises(GenerationFailure):
        generate(backend, GenerationRequest(prompt="x"))


def test_chat_generator_as_judge(stub_server):
    replies = iter(["Certainly: yes, it supports it.", "maybe", "maybe"])

    def chat(payload):
        return {"choices": [{"message": {"content": next(replies)}}]}

    stub_server.routes["/v1/chat"] = chat
    backend = RemoteChatGenerator(
        "judge", Endpoint(stub_server.url("/v1/chat"), "m", retries=0))
    assert judge_support(backend, "q", "resp", "ans") == ("yes", False)
    verdict, flagged = judge_support(backend, "q", "resp", "ans")
    assert verdict == "no" and flagged


def test_embedding_client_roundtrip(stub_server):
    def embed(payload):
        assert payload["model"] == "embedder-1"
        return {"data": [{"embedding": [float(len(t)), 1.0]}
                         for t in payload["input"]]}

    stub_server.routes["/v1/embeddings"] = embed
    client = RemoteEmbeddingClient(
        Endpoint(stub_server.url("/v1/embeddings"), "embedder-1", retries=0))
    vectors = client.embed(["ab", "abcd"])
    assert np.allclose(vectors[0], [2.0, 1.0])
    assert np.allclose(vectors[1], [4.0, 1.0])


def test_embedding_client_feeds_vector_index(stub_server):
    def embed(payload):
        return {"data": [{"embedding": [1.0, 0.0] if "apple" in t else [0.0, 1.0]}
                         for t in payload["input"]]}

    stub_server.routes["/v1/embeddings"] = embed
    client = RemoteEmbeddingClient(
        Endpoint(stub_server.url("/v1/embeddings"), "m", retries=0))
    vindex = VectorIndex()
    vindex.add_documents([human_doc("d1", "apple pie"),
                          human_doc("d2", "pure banana")], client)
    results = vindex.search_vector(client.embed(["apple juice"])[0], 1)
    assert results[0][0] == "d1"


def test_empty_commit_sends_no_embeddings_request(stub_server):
    stub_server.routes["/v1/embeddings"] = lambda payload: {"data": []}
    client = RemoteEmbeddingClient(
        Endpoint(stub_server.url("/v1/embeddings"), "m", retries=0))
    vindex = VectorIndex()
    vindex.add_documents([], client)
    assert stub_server.requests == [] and vindex.doc_count == 0


def test_embedding_client_wrong_row_count(stub_server):
    stub_server.routes["/v1/embeddings"] = \
        lambda payload: {"data": [{"embedding": [1.0]}]}
    client = RemoteEmbeddingClient(
        Endpoint(stub_server.url("/v1/embeddings"), "m", retries=0))
    with pytest.raises(RemoteServiceError, match="rows"):
        client.embed(["a", "b"])


@pytest.mark.parametrize("body", [
    b'{"data": [{"embedding": [1.0, 0.0]}, {"embedding": [Infinity, 0.0]}]}',
    b'{"data": [{"embedding": [1.0, 0.0]}, {"embedding": [NaN, 0.0]}]}',
    b'{"data": [{"embedding": [1.0, 0.0]}, {"embedding": [[1.0, 0.0]]}]}',
    b'{"data": [{"embedding": [1.0, 0.0]}, {"embedding": 1.0}]}',
    b'{"data": [{"embedding": [1.0, 0.0]}, {"embedding": ["a", "b"]}]}',
], ids=["infinity", "nan", "2-d", "scalar", "text"])
def test_embedding_client_rejects_non_finite_or_not_1d_rows(stub_server, body):
    stub_server.routes["/v1/embeddings"] = lambda payload: body
    client = RemoteEmbeddingClient(
        Endpoint(stub_server.url("/v1/embeddings"), "m", retries=0))
    with pytest.raises(RemoteServiceError, match="malformed embeddings reply"):
        client.embed(["a", "b"])


def test_embedding_client_retry_budget_exhausted(stub_server):
    stub_server.routes["/v1/embeddings"] = lambda payload: (500, {})
    client = RemoteEmbeddingClient(Endpoint(
        stub_server.url("/v1/embeddings"), "m", retries=1, backoff=0.01))
    with pytest.raises(RemoteServiceError, match="failed after 2 attempts"):
        client.embed(["a"])


def test_detector_client_labels(stub_server):
    def detect(payload):
        results = []
        for text in payload["texts"]:
            if "synth" in text:
                results.append({"label": "generated", "score": 0.9})
            else:
                results.append({"label": "human", "score": 0.8})
        return {"results": results}

    stub_server.routes["/detect"] = detect
    client = RemoteDetectorClient(Endpoint(stub_server.url("/detect"), retries=0))
    assert client.classify(["synth text", "real text"]) == [True, False]


def test_detector_client_threshold_on_probability(stub_server):
    # a low-confidence 'human' label implies a generated probability
    # above the 0.5 threshold
    stub_server.routes["/detect"] = lambda payload: {
        "results": [{"label": "human", "score": 0.3}]}
    client = RemoteDetectorClient(Endpoint(stub_server.url("/detect"), retries=0))
    assert client.classify(["ambiguous"]) == [True]


def test_detector_client_malformed_reply(stub_server):
    stub_server.routes["/detect"] = lambda payload: {"results": []}
    client = RemoteDetectorClient(Endpoint(stub_server.url("/detect"), retries=0))
    with pytest.raises(RemoteServiceError, match="malformed"):
        client.classify(["a", "b"])


@pytest.mark.parametrize("bad_row", [
    ["generated", 0.9],
    {"label": "generated", "score": "high"},
    {"label": "human", "score": float("nan")},
], ids=["not-an-object", "text-score", "nan-score"])
def test_detector_unreadable_row_falls_back_to_unfiltered(stub_server, bad_row):
    def detect(payload):
        rows = [{"label": "generated", "score": 0.9} for _ in payload["texts"]]
        rows[-1] = bad_row
        return {"results": rows}

    stub_server.routes["/detect"] = detect
    client = RemoteDetectorClient(Endpoint(stub_server.url("/detect"), retries=0))
    with pytest.raises(RemoteServiceError, match="malformed"):
        client.classify(["a", "b"])
    ids = [f"d{i}" for i in range(8)]
    corpus = snapshot_of([human_doc(d, f"text {d}") for d in ids])
    candidates = RankedList.from_ordered(
        "q", 1, [(d, float(len(ids) - i)) for i, d in enumerate(ids)])
    # every readable row says generated, so only the fallback keeps any
    result = labelled_source_filter(candidates, client, corpus)
    assert result.fallback_unfiltered
    assert result.doc_ids() == ids[:5]


def test_client_error_is_not_retried(stub_server):
    calls = {"n": 0}

    def reject(payload):
        calls["n"] += 1
        return 400, {"error": "bad request"}

    stub_server.routes["/v1/embeddings"] = reject
    client = RemoteEmbeddingClient(Endpoint(
        stub_server.url("/v1/embeddings"), "m", retries=3, backoff=0.01))
    with pytest.raises(RemoteServiceError, match="rejected"):
        client.embed(["a"])
    assert calls["n"] == 1
