"""HTTP plumbing shared by the remote chat, embedding, scoring, and
detector clients: JSON POST over one keep-alive session, with bounded
retries and capped, jittered exponential backoff.

Importing this module does not import `requests`: offline runs never pay
for the HTTP stack. `session()` loads it and builds the shared session;
parsing a config that names a remote endpoint calls it.
"""

from __future__ import annotations

import functools
import logging
import math
import random
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import RemoteRequestRejected, RemoteServiceError

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

# Client errors that mean "try again later" rather than "this request is wrong".
RETRYABLE_CLIENT_ERRORS = (408, 429)
# Longest wait taken from a server's Retry-After header, and longest backoff.
MAX_RETRY_DELAY_S = 60.0

# One session for every client in the process: its connection pool keeps
# connections alive between requests, so a run opens at most as many
# connections per host as it has requests in flight at once. Its pool is
# thread-safe; nothing else on it (cookies, auth) is used. It reads no
# environment itself: `_environment` does, once per endpoint. Built by
# `session()` on first use, under the lock, so racing callers share one.
_SESSION: requests.Session | None = None
_SESSION_LOCK = threading.Lock()
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


def session() -> requests.Session:
    """The shared session; the first call imports `requests` and builds it."""
    global _SESSION
    if _SESSION is None:
        with _SESSION_LOCK:
            if _SESSION is None:
                import requests
                built = requests.Session()
                built.trust_env = False
                _SESSION = built
    return _SESSION


def __getattr__(name: str):
    # `remote.requests` stays a module attribute for code that wraps it,
    # and imports the package only when read
    if name == "requests":
        import requests
        return requests
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


@functools.lru_cache(maxsize=64)
def _environment(url: str) -> dict:
    """What requests reads from the environment for `url`: proxies
    (HTTP_PROXY, NO_PROXY, ...), the CA bundle and .netrc credentials.
    Read once per endpoint, not on every call, where scanning os.environ
    cost about as much CPU as the rest of the request."""
    import requests
    settings = requests.Session().merge_environment_settings(
        url, {}, None, None, None)
    return {"proxies": settings["proxies"], "verify": settings["verify"],
            "auth": requests.utils.get_netrc_auth(url)}


def _retry_after(resp: requests.Response) -> float | None:
    """The server's Retry-After in seconds, capped; None if absent or not a
    number of seconds (an HTTP date falls back to backoff)."""
    value = resp.headers.get("Retry-After")
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
    after the first. Any other 4xx raises RemoteRequestRejected at once; an
    exhausted budget raises RemoteServiceError.
    """
    import requests
    url = endpoint.url
    headers = {"Content-Type": "application/json"}
    if endpoint.api_key:
        headers["Authorization"] = f"Bearer {endpoint.api_key}"
    attempts = endpoint.retries + 1
    last_error: Exception | None = None
    for attempt in range(attempts):
        delay: float | None = None
        try:
            resp = session().post(url, json=payload, timeout=endpoint.timeout,
                                  headers=headers, **_environment(url))
            status = resp.status_code
            if status < 400:
                return resp.json()
            if status >= 500 or status in RETRYABLE_CLIENT_ERRORS:
                last_error = RemoteServiceError(f"status {status} from {url}")
                delay = _retry_after(resp)
            else:
                raise RemoteRequestRejected(
                    f"request rejected ({status}) by {url}: {resp.text[:200]}")
        except (requests.RequestException, ValueError) as exc:
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
