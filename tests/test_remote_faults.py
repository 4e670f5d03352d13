"""Fault injection for the four remote clients (chat, embeddings, scorer,
detector) against the local StubServer: retryable statuses, Retry-After,
timeouts and malformed replies, final 4xx, and connection reuse through
the shared keep-alive session."""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass
from typing import Callable

import pytest

from ragloop import remote
from ragloop.errors import RemoteRequestRejected, RemoteServiceError
from ragloop.filters import RemoteDetectorClient
from ragloop.generation import GenerationRequest, RemoteChatGenerator
from ragloop.remote import Endpoint
from ragloop.rerank import RemoteScorerBackend
from ragloop.retrieval import RemoteEmbeddingClient

TIMEOUT_S = 0.3


@dataclass
class Client:
    path: str
    build: Callable          # (url, **retry knobs) -> client
    call: Callable           # client -> plain result
    good: dict               # a well-formed reply
    want: object             # call's result for `good`
    bad_shape: dict          # valid JSON the client cannot read


CLIENTS = {
    "chat": Client(
        "/v1/chat",
        lambda url, **kw: RemoteChatGenerator("r", Endpoint(url, "m", **kw)),
        lambda c: c.generate(GenerationRequest(prompt="x")),
        {"choices": [{"message": {"content": "ok"}}]}, "ok",
        {"choices": []}),
    "embeddings": Client(
        "/v1/embeddings",
        lambda url, **kw: RemoteEmbeddingClient(Endpoint(url, "m", **kw)),
        lambda c: [v.tolist() for v in c.embed(["a"])],
        {"data": [{"embedding": [1.0, 0.0]}]}, [[1.0, 0.0]],
        {"data": [{"vector": [1.0]}]}),
    "scorer": Client(
        "/v1/score",
        lambda url, **kw: RemoteScorerBackend(Endpoint(url, **kw)),
        lambda c: c.score("q", ["p"]),
        {"scores": [0.5]}, [0.5],
        {"scores": [0.5, 0.5]}),
    "detector": Client(
        "/v1/detect",
        lambda url, **kw: RemoteDetectorClient(Endpoint(url, **kw)),
        lambda c: c.classify(["t"]),
        {"results": [{"label": "generated", "score": 0.9}]}, [True],
        {"results": "none"}),
}


def _timeout(reply):
    # not time.sleep, which the `sleeps` fixture replaces process-wide
    threading.Event().wait(TIMEOUT_S * 2)
    return reply


# first-attempt faults the client retries; each maps a good reply to a bad one
FAULTS = {
    "408": lambda good: (408, {"error": "request timeout"}),
    "429-retry-after": lambda good: (429, {"error": "slow down"}, {"Retry-After": "0"}),
    "500": lambda good: (500, {"error": "overloaded"}),
    "timeout": _timeout,
    "malformed-body": lambda good: (200, b"<html>not json</html>"),
}


@pytest.fixture
def sleeps(monkeypatch):
    """Record backoff sleeps instead of taking them."""
    taken: list[float] = []
    monkeypatch.setattr(remote.time, "sleep", taken.append)
    return taken


def _serve(server, client: Client, replies: Callable[[int], object]):
    calls = {"n": 0}

    def route(payload):
        calls["n"] += 1
        return replies(calls["n"])

    server.routes[client.path] = route
    return calls


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("kind", sorted(CLIENTS))
def test_one_fault_is_retried_then_succeeds(keepalive_server, sleeps, kind, fault):
    client = CLIENTS[kind]
    calls = _serve(keepalive_server, client,
                   lambda n: FAULTS[fault](client.good) if n == 1 else client.good)
    c = client.build(keepalive_server.url(client.path), retries=2, backoff=1.0,
                     timeout=TIMEOUT_S)
    assert client.call(c) == client.want
    assert calls["n"] == 2
    if fault == "429-retry-after":
        assert sleeps == []               # Retry-After: 0 retries at once
    else:
        assert len(sleeps) == 1 and 0.5 <= sleeps[0] <= 1.0
    # the timed-out connection is dropped; otherwise the first one is reused
    assert keepalive_server.connections == (2 if fault == "timeout" else 1)


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("kind", sorted(CLIENTS))
def test_persistent_fault_exhausts_the_budget(keepalive_server, sleeps, kind, fault):
    client = CLIENTS[kind]
    calls = _serve(keepalive_server, client, lambda n: FAULTS[fault](client.good))
    c = client.build(keepalive_server.url(client.path), retries=1, backoff=0.0,
                     timeout=TIMEOUT_S)
    with pytest.raises(RemoteServiceError, match="failed after 2 attempts"):
        client.call(c)
    assert calls["n"] == 2


@pytest.mark.parametrize("status", [400, 401, 404, 422])
@pytest.mark.parametrize("kind", sorted(CLIENTS))
def test_other_client_errors_are_final(stub_server, sleeps, kind, status):
    client = CLIENTS[kind]
    calls = _serve(stub_server, client, lambda n: (status, {"error": "no"}))
    c = client.build(stub_server.url(client.path), retries=3, backoff=1.0)
    with pytest.raises(RemoteRequestRejected, match=f"rejected \\({status}\\)"):
        client.call(c)
    assert calls["n"] == 1 and sleeps == []


@pytest.mark.parametrize("kind", sorted(CLIENTS))
def test_unreadable_reply_shape_is_not_retried(stub_server, kind):
    client = CLIENTS[kind]
    calls = _serve(stub_server, client, lambda n: client.bad_shape)
    c = client.build(stub_server.url(client.path), retries=3, backoff=0.0)
    with pytest.raises(RemoteServiceError):
        client.call(c)
    assert calls["n"] == 1


@pytest.mark.parametrize("status", [408, 429, 503])
def test_retry_after_sets_the_wait(stub_server, sleeps, status):
    client = CLIENTS["embeddings"]
    waits = iter(["2", "1.5", "100000", "Wed, 21 Oct 2015 07:28:00 GMT"])
    _serve(stub_server, client,
           lambda n: (status, {}, {"Retry-After": next(waits)}) if n <= 4
           else client.good)
    c = client.build(stub_server.url(client.path), retries=4, backoff=8.0)
    assert client.call(c) == client.want
    # seconds are taken as sent, capped; a date falls back to backoff (8 * 2**3)
    assert sleeps[:3] == [2.0, 1.5, remote.MAX_RETRY_DELAY_S]
    assert remote.MAX_RETRY_DELAY_S / 2 <= sleeps[3] <= remote.MAX_RETRY_DELAY_S


def test_backoff_is_exponential_jittered_and_capped():
    for attempt in range(12):
        delay = min(0.5 * 2 ** attempt, remote.MAX_RETRY_DELAY_S)
        waits = {remote._backoff_delay(0.5, attempt) for _ in range(50)}
        assert all(delay / 2 <= w <= delay for w in waits)
        assert len(waits) > 1
    assert remote._backoff_delay(0.0, 3) == 0.0


def test_sequential_calls_share_one_connection(keepalive_server):
    for client in CLIENTS.values():
        _serve(keepalive_server, client, lambda n, c=client: c.good)
    for _ in range(5):
        for client in CLIENTS.values():
            c = client.build(keepalive_server.url(client.path), retries=0)
            assert client.call(c) == client.want
    assert len(keepalive_server.requests) == 20
    assert keepalive_server.connections == 1


def test_environment_proxy_settings_are_honoured(stub_server, monkeypatch):
    client = CLIENTS["embeddings"]
    _serve(stub_server, client, lambda n: client.good)
    for name in ("http_proxy", "HTTP_PROXY", "all_proxy", "ALL_PROXY",
                 "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        closed_port = probe.getsockname()[1]
    c = client.build(stub_server.url(client.path), retries=0)
    try:
        monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{closed_port}")
        remote._environment.cache_clear()
        with pytest.raises(RemoteServiceError):
            client.call(c)
        assert stub_server.requests == []
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        remote._environment.cache_clear()
        assert client.call(c) == client.want
    finally:
        remote._environment.cache_clear()
