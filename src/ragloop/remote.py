"""HTTP plumbing shared by the remote chat, embedding, scoring, and
detector clients: JSON POST over one process-wide pool of keep-alive
`http.client` connections, with bounded retries and capped, jittered
exponential backoff.

Importing this module does not import `http.client` or `ssl`: offline runs
never pay for the HTTP stack. Parsing a config that names a remote endpoint
loads both; library code that builds clients without a config loads them at
its first request.
"""

from __future__ import annotations

import base64
import functools
import ipaddress
import json
import logging
import math
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable
from urllib.parse import unquote, urlsplit

from . import __version__
from .errors import RemoteRequestRejected, RemoteServiceError

if TYPE_CHECKING:
    import http.client
    import ssl

logger = logging.getLogger(__name__)

# Client errors that mean "try again later" rather than "this request is wrong".
RETRYABLE_CLIENT_ERRORS = (408, 429)
# Longest wait taken from a server's Retry-After header, and longest backoff.
MAX_RETRY_DELAY_S = 60.0
USER_AGENT = f"ragloop/{__version__}"
# Jitter spreads retries from concurrent callers apart in time; it is
# unseeded and feeds nothing that a run writes.
_JITTER = random.Random()


@dataclass(frozen=True)
class Endpoint:
    """One remote service: its URL, the model its payloads name (empty:
    none), its bearer key, and the retry budget spent on each call."""

    url: str
    model: str = ""
    api_key: str | None = None
    timeout: float = 30.0
    retries: int = 3
    backoff: float = 1.0


def __getattr__(name: str):
    # `remote.requests` stays a module attribute for code that wraps it,
    # and imports the package only when read; nothing here sends through it
    if name == "requests":
        import requests
        return requests
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def url_problem(url: str) -> str | None:
    """Why requests cannot be sent to `url`, or None if they can: it must
    be an http:// or https:// URL that names a host and a valid port."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https"):
        return "is not an http:// or https:// URL"
    if not parts.hostname:
        return "names no host"
    try:
        parts.port
    except ValueError:
        return "has an invalid port"
    return None


def finite_scores(values, url: str) -> list[float]:
    """A reply's scores as finite floats; RemoteServiceError naming `url`
    if any is not a number or is NaN or infinite."""
    try:
        scores = [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise RemoteServiceError(
            f"malformed scores in reply from {url}: {exc}") from exc
    if not all(math.isfinite(s) for s in scores):
        raise RemoteServiceError(
            f"malformed scores in reply from {url}: not every score is finite")
    return scores


@dataclass(frozen=True)
class _Route:
    """How requests to one endpoint travel: the pool key of their
    connections, the target of their request line, the headers the
    environment adds, and how to open a connection (given its timeout)."""

    key: tuple
    target: str
    headers: dict
    connection: Callable[[float], http.client.HTTPConnection]


class ConnectionPool:
    """Idle keep-alive connections per route key, most recently used first.

    A caller takes an idle connection or opens a new one, and gives it back
    once it has read a whole reply that did not ask to close. So a process
    opens at most as many connections per host as it has requests in
    flight at once. Thread-safe: one lock guards the idle lists, and a
    connection is used by one thread at a time."""

    def __init__(self):
        self._idle: dict[tuple, list[http.client.HTTPConnection]] = {}
        self._lock = threading.Lock()

    def send(self, route: _Route, body: bytes, headers: dict,
             timeout: float) -> tuple[int, http.client.HTTPMessage, bytes]:
        """POST `body` along `route`: the reply's status, headers and body.

        A reused connection the server closed while idle fails before any
        reply byte arrives; the request is then sent once more, at once, on
        a fresh connection."""
        with self._lock:
            idle = self._idle.get(route.key)
            conn = idle.pop() if idle else None
        resp = None
        if conn is not None:
            conn.sock.settimeout(timeout)
            try:
                resp = _ask(conn, route.target, body, headers)
            except (ConnectionResetError, BrokenPipeError):
                pass  # http.client.RemoteDisconnected is a ConnectionResetError
        if resp is None:
            import socket
            conn = route.connection(timeout)
            try:
                conn.connect()
                # http.client writes the headers and the body separately; with
                # Nagle's algorithm on, the body waits for the delayed ACK
                conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except BaseException:
                conn.close()
                raise
            resp = _ask(conn, route.target, body, headers)
        try:
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.setdefault(route.key, []).append(conn)
        return resp.status, resp.headers, data

    def close(self) -> None:
        """Close every idle connection."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()


def _ask(conn: http.client.HTTPConnection, target: str, body: bytes,
         headers: dict) -> http.client.HTTPResponse:
    """Send one POST and read its reply's status line and headers; close
    the connection if either fails."""
    try:
        conn.request("POST", target, body, headers)
        return conn.getresponse()
    except BaseException:
        conn.close()
        raise


# One pool for every client in the process, so all of them share its
# kept-alive connections.
_POOL = ConnectionPool()


def _basic_auth(user: str, password: str) -> str:
    token = base64.b64encode(f"{user}:{password}".encode("latin-1"))
    return "Basic " + token.decode("ascii")


def _bypasses_proxy(host: str, port: int | None, no_proxy: str) -> bool:
    """Whether NO_PROXY exempts the host: '*', a host name or suffix (with
    or without the port), or a CIDR block holding the host's address."""
    import urllib.request
    netloc = host if port is None else f"{host}:{port}"
    if urllib.request.proxy_bypass_environment(netloc, {"no": no_proxy}):
        return True
    try:
        address = ipaddress.ip_address(host)
    except ValueError:
        return False
    for entry in no_proxy.replace(" ", "").split(","):
        if "/" in entry:
            try:
                if address in ipaddress.ip_network(entry, strict=False):
                    return True
            except ValueError:
                pass
    return False


def _netrc_auth(host: str) -> str | None:
    """Basic credentials for `host` from the netrc file (NETRC, else
    ~/.netrc or ~/_netrc); None if there is no file, no entry, or the
    file cannot be read."""
    import netrc
    named = os.environ.get("NETRC")
    for path in [named] if named else ["~/.netrc", "~/_netrc"]:
        path = os.path.expanduser(path)
        if os.path.exists(path):
            break
    else:
        return None
    try:
        entry = netrc.netrc(path).authenticators(host)
    except (netrc.NetrcParseError, OSError):
        return None
    if not entry:
        return None
    login, account, password = entry
    return _basic_auth(login or account, password)


@functools.lru_cache(maxsize=None)
def _tls_context(ca: str | None) -> ssl.SSLContext:
    """A verifying context for one CA setting; the system store for None."""
    import ssl
    if ca is None:
        return ssl.create_default_context()
    if os.path.isdir(ca):
        return ssl.create_default_context(capath=ca)
    return ssl.create_default_context(cafile=ca)


@functools.lru_cache(maxsize=64)
def _environment(url: str) -> _Route:
    """The route to `url` under the settings `requests` read from the
    environment: the proxy (HTTP_PROXY, HTTPS_PROXY, ALL_PROXY, NO_PROXY),
    the CA bundle (REQUESTS_CA_BUNDLE, CURL_CA_BUNDLE) and .netrc
    credentials. Read once per endpoint, not on every call, where scanning
    os.environ cost about as much CPU as the rest of the request.
    RemoteRequestRejected if `url` cannot be sent to, or the proxy or the
    CA bundle cannot be used."""
    import http.client
    import urllib.request
    problem = url_problem(url)
    if problem:
        raise RemoteRequestRejected(f"cannot send to {url!r}: it {problem}")
    parts = urlsplit(url)
    scheme, host = parts.scheme, parts.hostname
    port = parts.port or (443 if scheme == "https" else 80)
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    headers = {}
    # as `requests` did: netrc first, else the URL's own user and password
    auth = _netrc_auth(host) or (parts.username and _basic_auth(
        unquote(parts.username), unquote(parts.password or "")))
    if auth:
        headers["Authorization"] = auth

    proxies = urllib.request.getproxies_environment()
    proxy = None
    if not _bypasses_proxy(host, parts.port, proxies.get("no", "")):
        proxy = proxies.get(scheme) or proxies.get("all")
    proxy_headers = {}
    if proxy:
        if "://" not in proxy:
            proxy = "http://" + proxy
        via = urlsplit(proxy)
        if via.scheme != "http" or not via.hostname:
            raise RemoteRequestRejected(
                f"cannot send to {url!r} through proxy {proxy!r}: only "
                "http:// proxies are supported")
        if via.username:
            proxy_headers["Proxy-Authorization"] = _basic_auth(
                unquote(via.username), unquote(via.password or ""))
        conn_host, conn_port = via.hostname, via.port or 80
    else:
        conn_host, conn_port = host, port

    context = None
    if scheme == "https":
        ca = (os.environ.get("REQUESTS_CA_BUNDLE")
              or os.environ.get("CURL_CA_BUNDLE") or None)
        try:
            context = _tls_context(ca)
        except OSError as exc:
            raise RemoteRequestRejected(
                f"cannot load CA bundle {ca!r} for {url!r}: {exc}") from exc

    if proxy and context is None:
        # an http proxy takes the absolute URL in the request line
        target = f"http://{parts.netloc.rpartition('@')[2]}{target}"
        headers.update(proxy_headers)

    def connection(timeout):
        if context is None:
            return http.client.HTTPConnection(conn_host, conn_port,
                                              timeout=timeout)
        conn = http.client.HTTPSConnection(conn_host, conn_port,
                                           timeout=timeout, context=context)
        if proxy:
            conn.set_tunnel(host, port, headers=proxy_headers)
        return conn
    return _Route((scheme, host, port, proxy), target, headers, connection)


def _retry_after(headers) -> float | None:
    """The server's Retry-After in seconds, capped; None if absent or not a
    number of seconds (an HTTP date falls back to backoff)."""
    value = headers.get("Retry-After")
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None
    return min(max(seconds, 0.0), MAX_RETRY_DELAY_S)


def _backoff_delay(backoff: float, attempt: int) -> float:
    """Capped exponential backoff with equal jitter: half fixed, half random."""
    delay = min(backoff * (2 ** attempt), MAX_RETRY_DELAY_S)
    return delay / 2 + _JITTER.uniform(0.0, delay / 2)


def post_json_with_retries(endpoint: Endpoint, payload: dict):
    """POST a JSON payload to `endpoint`; retry transient failures with
    backoff.

    Transient means a connection error or timeout, a reply that is not
    JSON, 5xx, 408 or 429. A retryable reply's Retry-After (seconds) sets
    the wait, so `Retry-After: 0` retries at once; otherwise the wait is
    exponential backoff. `endpoint.retries` counts additional attempts
    after the first. A redirect, any other 4xx, a URL that cannot be sent
    to and a payload that is not JSON raise RemoteRequestRejected at once;
    an exhausted budget raises RemoteServiceError.
    """
    import http.client
    url = endpoint.url
    route = _environment(url)
    try:
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
    except ValueError as exc:
        raise RemoteRequestRejected(f"payload for {url} is not JSON: {exc}") from exc
    headers = {"Content-Type": "application/json", "User-Agent": USER_AGENT}
    if endpoint.api_key:
        headers["Authorization"] = f"Bearer {endpoint.api_key}"
    headers.update(route.headers)
    attempts = endpoint.retries + 1
    last_error: Exception | None = None
    for attempt in range(attempts):
        delay: float | None = None
        try:
            status, reply_headers, data = _POOL.send(route, body, headers,
                                                     endpoint.timeout)
            if status < 300:
                return json.loads(data)
            if status < 400:
                raise RemoteRequestRejected(
                    f"request redirected ({status}) by {url} to "
                    f"{reply_headers.get('Location')!r}; redirects are not followed")
            if status >= 500 or status in RETRYABLE_CLIENT_ERRORS:
                last_error = RemoteServiceError(f"status {status} from {url}")
                delay = _retry_after(reply_headers)
            else:
                raise RemoteRequestRejected(
                    f"request rejected ({status}) by {url}: "
                    f"{data.decode('utf-8', 'replace')[:200]}")
        except (OSError, http.client.HTTPException, ValueError) as exc:
            last_error = exc
        if attempt + 1 < attempts:
            if delay is None:
                delay = _backoff_delay(endpoint.backoff, attempt)
            logger.warning("retrying %s after failure (%s), attempt %d/%d",
                           url, last_error, attempt + 1, attempts)
            if delay > 0:
                time.sleep(delay)
    raise RemoteServiceError(f"request to {url} failed after {attempts} attempts: "
                             f"{last_error}")
