"""The HTTP stack is loaded only by runs that name a remote endpoint:
importing ragloop and running offline load neither `requests` nor the
standard library's `http.client` and `ssl`. Requests from every thread go
through one process-wide pool of kept-alive connections."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

from ragloop import remote
from ragloop.synthdata import write_demo_dataset

SRC = Path(__file__).resolve().parent.parent / "src"

# prints which HTTP modules are loaded after parsing the config in argv[1]
# (a JSON mapping) and, when argv[2] is "run", running it
_PROBE = """
import json, sys
from ragloop.config import parse_config_mapping
from ragloop.runner import run_experiment
config = parse_config_mapping(json.loads(sys.argv[1]))
if sys.argv[2] == "run":
    run_experiment(config)
print(json.dumps(sorted(m for m in ("requests", "urllib3", "http.client", "ssl",
                                    "socket") if m in sys.modules)))
"""


def _loaded_http_modules(raw: dict, action: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(raw), action],
                          env=env, capture_output=True, text=True, check=True,
                          timeout=120)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _raw(tmp_path, **overrides) -> dict:
    corpus, queries = write_demo_dataset(tmp_path / "data", num_docs=60,
                                         num_queries=6, seed=3)
    raw = {"seed_corpus": str(corpus), "query_set": str(queries),
           "output_dir": str(tmp_path / "run"), "pipeline": "dense+rerank",
           "filter_mode": "source", "sample_size": 6, "iterations": 1,
           "seed": 5, "offline": True,
           "generators": [{"name": "gen-a", "kind": "synthetic"}]}
    raw.update(overrides)
    return raw


def test_offline_run_never_loads_the_http_stack(tmp_path):
    assert _loaded_http_modules(_raw(tmp_path), "run") == []
    assert (tmp_path / "run" / "manifest.json").is_file()


def test_config_naming_a_remote_endpoint_loads_it_when_parsed(tmp_path):
    url = "http://127.0.0.1:9/v1"
    for overrides in (
            {"embedding_endpoint": url}, {"rerank_endpoint": url},
            {"detector_endpoint": url},
            {"generators": [{"name": "gen-r", "kind": "remote",
                             "endpoint": url}]}):
        raw = _raw(tmp_path, offline=False, **overrides)
        assert _loaded_http_modules(raw, "parse") == [
            "http.client", "socket", "ssl"], overrides


def test_remote_requests_still_resolves():
    import requests
    assert remote.requests is requests


def _post(server, n: int = 1):
    endpoint = remote.Endpoint(server.url("/v1/echo"), retries=0)
    return [remote.post_json_with_retries(endpoint, {"n": i}) for i in range(n)]


def test_racing_callers_share_the_pool(keepalive_server):
    keepalive_server.routes["/v1/echo"] = lambda payload: payload
    threads_n = 16
    barrier = threading.Barrier(threads_n)
    got = []
    lock = threading.Lock()

    def post_once():
        barrier.wait(timeout=10)
        reply = _post(keepalive_server)
        with lock:
            got.extend(reply)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=post_once) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [{"n": 0}] * threads_n
    opened = keepalive_server.connections
    assert 1 <= opened <= threads_n
    # every connection went back to the pool: later calls open none
    assert _post(keepalive_server, threads_n) == [{"n": i} for i in range(threads_n)]
    assert keepalive_server.connections == opened
    assert len(keepalive_server.requests) == 2 * threads_n


def test_connection_closed_while_idle_is_replaced_at_once(keepalive_server,
                                                          monkeypatch):
    sleeps = []
    monkeypatch.setattr(remote.time, "sleep", sleeps.append)
    keepalive_server.routes["/v1/echo"] = lambda payload: payload
    assert _post(keepalive_server) == [{"n": 0}]
    keepalive_server.drop_connections()
    # retries=0: the resend on a fresh connection spends no attempt
    assert _post(keepalive_server) == [{"n": 0}]
    assert sleeps == []
    assert keepalive_server.connections == 2
    assert len(keepalive_server.requests) == 2
