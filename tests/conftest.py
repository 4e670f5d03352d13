from __future__ import annotations

import json
import re
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from ragloop import remote
from ragloop.corpus import CorpusSnapshot, Document, HUMAN_SOURCE, SourceTag
from ragloop.filters import FilterResult, label_documents, source_filter
from ragloop.postprocess import PhraseList


def human_doc(doc_id: str, text: str) -> Document:
    return Document(doc_id=doc_id, text=text, source=HUMAN_SOURCE)


def generated_doc(doc_id: str, text: str, generator: str, query_id: str,
                  iteration: int = 1) -> Document:
    return Document(doc_id=doc_id, text=text,
                    source=SourceTag(kind="generated", generator_name=generator),
                    origin_query_id=query_id, iteration_added=iteration)


def snapshot_of(docs: list[Document]) -> CorpusSnapshot:
    return CorpusSnapshot(docs)


def labelled_source_filter(candidates, detector, corpus: CorpusSnapshot) -> FilterResult:
    """`source_filter` of the candidates, labelled by `detector` first, as
    the runner labels each phase's candidates before it filters them."""
    labels: dict[str, bool] = {}
    label_documents(detector, candidates.doc_ids(), corpus, labels)
    return source_filter(candidates, labels)


def holds_phrase(plist: PhraseList, text: str) -> bool:
    """Whether `clean` would find a phrase of `plist` in the text: each
    phrase's `[,\\s]*` suffix can match empty, so a match is an occurrence
    of the phrase, case-insensitively."""
    return any(re.search(re.escape(p), text, re.IGNORECASE) for p in plist.phrases)


def write_jsonl_file(path: Path, records: list[dict]) -> Path:
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


class _StubHTTPServer(ThreadingHTTPServer):
    # room for many clients connecting at once (socketserver's default is 5)
    request_queue_size = 64

    def handle_error(self, request, client_address):
        # a client that timed out and hung up breaks the pipe of its reply
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class StubServer:
    """Tiny local HTTP server for exercising the remote-backend wire formats.

    Routes map a path to a callable taking the JSON payload and returning a
    JSON-serializable reply, an (status_code, reply) pair or an
    (status_code, reply, headers) triple; a reply of type bytes is sent as
    the raw body. Every request is recorded for assertions and every
    accepted connection is counted. With `keep_alive` the server speaks
    HTTP/1.1 and keeps a connection open between requests; otherwise it
    speaks HTTP/1.0 and closes each connection after one reply. With a
    server-side `tls` context it speaks HTTPS.
    """

    def __init__(self, keep_alive: bool = False, tls=None):
        self.routes = {}
        self.requests: list[tuple[str, dict]] = []
        self.auth_headers: list[str | None] = []
        self.request_headers: list[dict[str, str]] = []
        self.connections = 0
        self._sockets: list[socket.socket] = []
        self._lock = threading.Lock()
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

            def setup(self):
                super().setup()
                # headers and body go out in two writes; without this a
                # kept-alive connection waits on the client's delayed ACK
                self.connection.setsockopt(socket.IPPROTO_TCP,
                                           socket.TCP_NODELAY, 1)
                with server._lock:
                    server.connections += 1
                    server._sockets.append(self.connection)

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length) or b"{}")
                with server._lock:
                    server.requests.append((self.path, payload))
                    server.auth_headers.append(self.headers.get("Authorization"))
                    server.request_headers.append(dict(self.headers))
                handler = server.routes.get(self.path)
                if handler is None:
                    self._reply(404, b"", {})
                    return
                reply = handler(payload)
                status, headers = 200, {}
                if isinstance(reply, tuple):
                    status, reply, *rest = reply
                    headers = rest[0] if rest else {}
                body = reply if isinstance(reply, bytes) else \
                    json.dumps(reply).encode("utf-8")
                self._reply(status, body, headers)

            def _reply(self, status: int, body: bytes, headers: dict):
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self._httpd = _StubHTTPServer(("127.0.0.1", 0), Handler)
        if tls is not None:
            self._httpd.socket = tls.wrap_socket(self._httpd.socket,
                                                 server_side=True)
        self.scheme = "http" if tls is None else "https"
        # a short poll interval lets close() return quickly
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        kwargs={"poll_interval": 0.05},
                                        daemon=True)
        self._thread.start()

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address
        return f"{self.scheme}://{host}:{port}"

    def url(self, path: str) -> str:
        return self.base_url + path

    def drop_connections(self):
        """Hang up every accepted connection, as a server does with idle
        kept-alive ones; this wakes handler threads waiting on them."""
        with self._lock:
            sockets, self._sockets = self._sockets, []
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def close(self):
        self._httpd.shutdown()
        self._httpd.server_close()
        self.drop_connections()
        self._thread.join(timeout=5)


@pytest.fixture
def stub_server():
    server = StubServer()
    yield server
    server.close()


@pytest.fixture
def keepalive_server():
    server = StubServer(keep_alive=True)
    yield server
    server.close()
    # the process-wide pool keeps this server's connections; close them
    remote._POOL.close()
