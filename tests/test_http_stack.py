"""`requests` is loaded only by runs that name a remote endpoint: importing
ragloop and running offline never load the HTTP stack, and the one shared
session is built once however many threads ask for it first."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import requests

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
print(json.dumps(sorted(m for m in ("requests", "urllib3") if m in sys.modules)))
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
        assert _loaded_http_modules(raw, "parse") == ["requests", "urllib3"], \
            overrides


def test_remote_requests_still_resolves():
    assert remote.requests is requests


def test_racing_first_callers_share_one_session(monkeypatch):
    built = []
    real = requests.Session

    def slow_session():
        time.sleep(0.01)  # widen the window between check and publish
        built.append(real())
        return built[-1]

    monkeypatch.setattr(requests, "Session", slow_session)
    monkeypatch.setattr(remote, "_SESSION", None)
    threads_n = 16
    barrier = threading.Barrier(threads_n)
    got = []
    lock = threading.Lock()

    def first_use():
        barrier.wait(timeout=10)
        s = remote.session()
        with lock:
            got.append(s)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_use) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(built) == 1 and len(got) == threads_n
    assert all(s is built[0] for s in got)
    assert built[0].trust_env is False
    built[0].close()
