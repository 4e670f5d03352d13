"""Fault injection for the four remote clients (chat, embeddings, scorer,
detector) against the local StubServer: retryable statuses, Retry-After,
timeouts and malformed replies, final 4xx and redirects, connection reuse
through the shared keep-alive pool, and the proxy, netrc and CA settings
read from the environment."""

from __future__ import annotations

import base64
import shutil
import socket
import ssl
import subprocess
import threading
from dataclasses import dataclass
from typing import Callable

import pytest

from conftest import StubServer
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


def _clear_proxy_environment(monkeypatch):
    for name in ("http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY",
                 "all_proxy", "ALL_PROXY", "no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)


def test_http_proxy_gets_the_absolute_url_unless_no_proxy_covers_it(
        stub_server, monkeypatch):
    client = CLIENTS["embeddings"]
    _serve(stub_server, client, lambda n: client.good)
    url = stub_server.url(client.path)
    proxy = StubServer()
    try:
        # the proxy answers for the target, keyed by the absolute-form URL
        proxy.routes[url] = lambda payload: client.good
        _clear_proxy_environment(monkeypatch)
        c = client.build(url, retries=0)
        monkeypatch.setenv("HTTP_PROXY",
                           proxy.base_url.replace("://", "://user:p%40ss@"))
        remote._environment.cache_clear()
        assert client.call(c) == client.want
        assert [path for path, _ in proxy.requests] == [url]
        assert proxy.request_headers[0]["Proxy-Authorization"] == \
            "Basic " + base64.b64encode(b"user:p@ss").decode()
        assert stub_server.requests == []
        # a CIDR block holding the target's address bypasses the proxy
        monkeypatch.setenv("NO_PROXY", "example.invalid, 127.0.0.0/8")
        remote._environment.cache_clear()
        assert client.call(c) == client.want
        assert len(proxy.requests) == 1 and len(stub_server.requests) == 1
    finally:
        remote._environment.cache_clear()
        proxy.close()


def test_netrc_then_url_credentials_replace_the_bearer_key(
        stub_server, monkeypatch, tmp_path):
    client = CLIENTS["scorer"]
    _serve(stub_server, client, lambda n: client.good)
    netrc_file = tmp_path / "netrc"
    monkeypatch.setenv("NETRC", str(netrc_file))
    url = stub_server.url(client.path).replace("://", "://bob:pw%3A1@")
    c = client.build(url, api_key="sk-key", retries=0)
    try:
        for entry in ("machine example.invalid login eve password x\n",
                      "machine 127.0.0.1 login alice password s3cret\n"):
            netrc_file.write_text(entry)
            remote._environment.cache_clear()
            assert client.call(c) == client.want
    finally:
        remote._environment.cache_clear()
    # with no netrc entry for the host, the URL's own credentials are sent
    assert stub_server.auth_headers == [
        "Basic " + base64.b64encode(b"bob:pw:1").decode(),
        "Basic " + base64.b64encode(b"alice:s3cret").decode()]


def test_redirect_is_rejected_naming_its_location(stub_server, sleeps):
    client = CLIENTS["chat"]
    calls = _serve(stub_server, client,
                   lambda n: (307, {}, {"Location": "http://127.0.0.1:9/moved"}))
    c = client.build(stub_server.url(client.path), retries=3)
    with pytest.raises(RemoteRequestRejected,
                       match=r"redirected \(307\).*'http://127.0.0.1:9/moved'"):
        client.call(c)
    assert calls["n"] == 1 and sleeps == []


@pytest.mark.parametrize("url", ["localhost:8000/v1/embeddings",
                                 "ftp://127.0.0.1:9/v1", "http:///v1"])
@pytest.mark.parametrize("kind", sorted(CLIENTS))
def test_url_that_cannot_be_sent_to_is_rejected_at_once(sleeps, kind, url):
    c = CLIENTS[kind].build(url, retries=3, backoff=1.0)
    with pytest.raises(RemoteRequestRejected, match="cannot send to"):
        CLIENTS[kind].call(c)
    assert sleeps == []


@pytest.mark.parametrize("url, env, match", [
    ("http://127.0.0.1:9/v1", {"HTTP_PROXY": "socks5://127.0.0.1:9"},
     "only http:// proxies"),
    ("https://127.0.0.1:9/v1", {"REQUESTS_CA_BUNDLE": "/nonexistent/ca.pem"},
     "cannot load CA bundle")])
def test_unusable_proxy_or_ca_bundle_is_rejected_at_once(monkeypatch, sleeps,
                                                        url, env, match):
    _clear_proxy_environment(monkeypatch)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    c = CLIENTS["embeddings"].build(url, retries=3)
    remote._environment.cache_clear()
    try:
        with pytest.raises(RemoteRequestRejected, match=match):
            CLIENTS["embeddings"].call(c)
    finally:
        remote._environment.cache_clear()
    assert sleeps == []


@pytest.fixture
def self_signed(tmp_path):
    """A certificate and key for 127.0.0.1, made by openssl."""
    if shutil.which("openssl") is None:
        pytest.skip("openssl is not installed")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes",
         "-keyout", str(key), "-out", str(cert), "-days", "1",
         "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1"],
        check=True, capture_output=True, timeout=60)
    return cert, key


def test_https_verifies_against_the_ca_bundle(self_signed, monkeypatch, sleeps):
    cert, key = self_signed
    tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    tls.load_cert_chain(cert, key)
    server = StubServer(keep_alive=True, tls=tls)
    client = CLIENTS["detector"]
    _serve(server, client, lambda n: client.good)
    c = client.build(server.url(client.path), retries=0)
    _clear_proxy_environment(monkeypatch)
    for name in ("REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
        monkeypatch.delenv(name, raising=False)
    remote._environment.cache_clear()
    try:
        # a self-signed certificate is not in the system store: transient
        with pytest.raises(RemoteServiceError, match="failed after 1 attempts"):
            client.call(c)
        assert server.requests == []
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", str(cert))
        remote._environment.cache_clear()
        assert client.call(c) == client.want
        assert client.call(c) == client.want
        assert server.connections == 1
    finally:
        remote._environment.cache_clear()
        server.close()
        remote._POOL.close()
