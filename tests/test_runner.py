from __future__ import annotations

import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import StubServer
from ragloop import runner as runner_module
from ragloop.config import (ExperimentConfig, ensure_valid, load_config,
                            load_query_set, parse_config_mapping,
                            validate_config)
from ragloop.errors import (ConfigValidationError, CorpusFormatError,
                            RagLoopError, RemoteServiceError)
from ragloop.generation import (MIS_PASSAGE, WITH_CONTEXTS, ZERO_SHOT,
                                SyntheticGenerator)
from ragloop.metrics import em
from ragloop.retrieval import InvertedIndex, VectorIndex, tokenize
from ragloop.runner import (ExperimentRunner, doc_from_row, emit_plot_series,
                            read_jsonl, run_experiment, sample_queries)
from ragloop.synthdata import write_demo_dataset


def _dataset(tmp_path, docs=120, queries=12, seed=3):
    return write_demo_dataset(tmp_path / "data", num_docs=docs,
                              num_queries=queries, seed=seed)


def _raw(tmp_path, out="run", **overrides) -> dict:
    """A valid config mapping with `overrides` applied; None drops a key."""
    corpus, queries = _dataset(tmp_path)
    raw = {
        "seed_corpus": str(corpus), "query_set": str(queries),
        "output_dir": str(tmp_path / out), "pipeline": "bm25",
        "sample_size": 12, "iterations": 2, "seed": 17, "offline": True,
        "generators": [
            {"name": "gen-a", "kind": "synthetic", "accuracy": 0.8},
            {"name": "gen-b", "kind": "synthetic", "accuracy": 0.8},
        ],
    }
    raw.update(overrides)
    return {k: v for k, v in raw.items() if v is not None}


def _config(tmp_path, out="run", **overrides) -> ExperimentConfig:
    return parse_config_mapping(_raw(tmp_path, out, **overrides))


# ---- config ----------------------------------------------------------------

def test_config_yaml_loading(tmp_path):
    corpus, queries = _dataset(tmp_path)
    cfg_file = tmp_path / "exp.yaml"
    cfg_file.write_text(f"""
seed_corpus: {corpus}
query_set: {queries}
output_dir: out
pipeline: bm25
sample_size: 5
iterations: 2
seed: 9
offline: true
generators:
  - name: gen-a
    kind: synthetic
    accuracy: 0.9
""")
    config = load_config(cfg_file, overrides={"seed": 11})
    assert config.seed == 11
    assert config.generators[0].accuracy == 0.9
    assert Path(config.output_dir) == tmp_path / "out"
    assert validate_config(config) == []


def test_config_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigValidationError, match="unknown configuration key"):
        _config(tmp_path, mystery_flag=True)


@pytest.mark.parametrize("given, problem", [
    ({"generators": [{"kind": "synthetic"}]},
     "generator entry 1 is malformed: KeyError('name')"),
    ({"schedule": [{"iterations": "one-two", "generators": ["gen-a"]}]},
     "schedule entry 1 is malformed"),
    ({"iterations": "ten"}, "iterations must be int, got 'ten'"),
    ({"pipeline": 5}, "pipeline must be str, got 5"),
    ({"offline": "no"}, "offline must be bool, got 'no'"),
    ({"retries": -1}, "retries must be >= 0"),
    ({"timeout": -5}, "timeout must be > 0"),
    ({"backoff": -1}, "backoff must be >= 0"),
    ({"diversity_threshold": 7}, "diversity_threshold must be in [0, 1]"),
    ({"judge_generator": "gen-z"}, "judge_generator 'gen-z' is not a configured"),
    ({"seed_corpus": None}, "missing required configuration key 'seed_corpus'"),
    ({"query_set": None}, "missing required configuration key 'query_set'"),
    ({"output_dir": None}, "missing required configuration key 'output_dir'"),
    ({"generators": 5}, "generators must be a list, got 5"),
    ({"schedule": 5}, "schedule must be a list, got 5"),
    ({"generators": [{"name": "gen-a", "acuracy": 0.2}]},
     "unknown key 'acuracy' in generator entry 1"),
    ({"generators": [{"name": "gen-a", "marker": 5}], "filter_mode": "source"},
     "marker must be str, got 5 in generator entry 1"),
    ({"generators": [{"name": "gen-a", "accuracy": "0.2"}]},
     "accuracy must be float, got '0.2' in generator entry 1"),
    ({"generators": [{"name": "gen-a", "temperature": True}]},
     "temperature must be float, got True in generator entry 1"),
    ({"generators": [{"name": 7}]}, "name must be str, got 7 in generator entry 1"),
    ({"schedule": [{"iterations": "1-2", "generators": ["gen-a"], "weight": 2}]},
     "unknown key 'weight' in schedule entry 1"),
    ("seed_corpus: [c\n", "expected ',' or ']', but got '<stream end>'"),
    (None, "exp.yaml: No such file or directory"),
], ids=["no-name", "bad-span", "iterations-type", "pipeline-type",
        "offline-type", "retries", "timeout", "backoff", "diversity-threshold",
        "judge", "no-seed-corpus", "no-query-set", "no-output-dir",
        "generators-not-list", "schedule-not-list", "generator-key-typo",
        "generator-marker-type", "generator-accuracy-type",
        "generator-temperature-type", "generator-name-type",
        "schedule-key-typo", "yaml-syntax", "no-config-file"])
def test_bad_config_input_is_a_validation_problem(tmp_path, given, problem):
    # `given` is overrides of a valid mapping, the text of the config file,
    # or None for a config file that does not exist
    path = tmp_path / "exp.yaml"
    if isinstance(given, dict):
        path.write_text(json.dumps(_raw(tmp_path, **given)))  # JSON is YAML
    elif given is not None:
        path.write_text(given)
    with pytest.raises(ConfigValidationError, match=re.escape(problem)):
        ensure_valid(load_config(path))


def test_config_hash_is_stable():
    # run directories store this hash and refuse to resume under another,
    # so its value must not change with the code that computes it
    raw = {
        "seed_corpus": "corpus.jsonl", "query_set": "queries.jsonl",
        "output_dir": "run", "pipeline": "dense+rerank", "iterations": 3,
        "seed": 11, "filter_mode": "source",
        "embedding_endpoint": "http://127.0.0.1:9/v1/embeddings",
        "embedding_model": "emb-1",
        "generators": [
            {"name": "local", "kind": "synthetic", "accuracy": 0.6},
            {"name": "remote-a", "kind": "remote",
             "endpoint": "http://127.0.0.1:9/v1/chat", "model": "m-1",
             "temperature": 0.2, "api_key_env": "RAGLOOP_TEST_KEY"},
        ],
        "schedule": [{"iterations": "1-2", "generators": ["local"]},
                     {"iterations": 3, "generators": ["local", "remote-a"]}],
    }
    expected = "c28130f00c21f3e8701f2c4e0f20635d88c97b4a666c3e77fe09a7be1f19d914"
    assert parse_config_mapping(raw).config_hash() == expected
    execution_only = {"output_dir": "elsewhere", "max_in_flight": 4,
                      "timeout": 5.0, "retries": 0, "backoff": 0.1}
    assert parse_config_mapping({**raw, **execution_only}).config_hash() == expected


def test_validation_collects_all_problems(tmp_path):
    config = _config(tmp_path)
    config.seed_corpus = str(tmp_path / "missing.jsonl")
    config.pipeline = "quantum"
    config.iterations = 0
    config.rerank_depth = 0
    problems = validate_config(config)
    assert len(problems) == 4
    assert any("missing.jsonl" in p for p in problems)
    assert any("rerank_depth" in p for p in problems)


def test_validation_dense_without_embedding_backend(tmp_path):
    config = _config(tmp_path, pipeline="dense", offline=False)
    problems = validate_config(config)
    assert any("embedding_endpoint" in p for p in problems)


def test_validation_offline_forbids_remote(tmp_path):
    config = _config(tmp_path)
    config.generators[0].kind = "remote"
    config.generators[0].endpoint = "http://example.invalid/chat"
    problems = validate_config(config)
    assert any("offline mode forbids remote generators" in p for p in problems)


@pytest.mark.parametrize("url, problem", [
    ("localhost:8000/v1/embeddings", "is not an http:// or https:// URL"),
    ("ftp://127.0.0.1:9/v1", "is not an http:// or https:// URL"),
    ("http:///v1", "names no host"),
    ("http://127.0.0.1:99999/v1", "has an invalid port")])
def test_validation_rejects_endpoints_that_cannot_be_sent_to(tmp_path, url,
                                                             problem):
    config = _config(tmp_path, offline=False, embedding_endpoint=url,
                     rerank_endpoint=url, detector_endpoint=url,
                     generators=[{"name": "gen-r", "kind": "remote",
                                  "endpoint": url}])
    problems = validate_config(config)
    for field in ("embedding_endpoint", "rerank_endpoint", "detector_endpoint",
                  "remote generator 'gen-r' endpoint"):
        assert f"{field} {url!r} {problem}" in problems
    assert validate_config(_config(
        tmp_path, offline=False, embedding_endpoint="https://emb.example/v1",
        generators=[{"name": "gen-r", "kind": "remote",
                     "endpoint": "http://127.0.0.1:9/v1/chat"}])) == []


def test_validation_schedule_coverage(tmp_path):
    config = _config(
        tmp_path, iterations=4,
        schedule=[{"iterations": "1-2", "generators": ["gen-a"]}])
    problems = validate_config(config)
    assert any("does not cover iterations [3, 4]" in p for p in problems)


def test_query_set_loader_errors(tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text('{"query_id": "q1", "question": "x", "answers": []}\n')
    with pytest.raises(CorpusFormatError, match="no answers"):
        load_query_set(path)
    path.write_text("")
    with pytest.raises(CorpusFormatError, match="empty query set"):
        load_query_set(path)


@pytest.mark.parametrize("record", [
    {"query_id": "q2", "question": "x", "answers": "Paris"},
    {"query_id": "q2", "question": None, "answers": ["Paris"]},
    {"query_id": "q2", "question": ["x"], "answers": ["Paris"]},
    {"query_id": None, "question": "x", "answers": ["Paris"]},
    {"query_id": True, "question": "x", "answers": ["Paris"]},
    {"query_id": "q2", "question": "x", "answers": [None, 5]},
    {"query_id": "q2", "question": "x", "answers": ["Paris", 1.5]},
    {"query_id": "q2", "question": "x", "answers": [False]},
], ids=["answers-string", "question-null", "question-list", "query-id-null",
        "query-id-bool", "answer-null", "answer-float", "answer-bool"])
def test_query_set_rejects_wrongly_typed_fields(tmp_path, record):
    # a string of answers used to become one answer per character
    path = tmp_path / "queries.jsonl"
    path.write_text(json.dumps({"query_id": "q1", "question": "ok",
                                "answers": ["Paris"]}) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(CorpusFormatError, match=r"queries\.jsonl:2: question must "
                                                 r"be a string and answers a list"):
        load_query_set(path)


@pytest.mark.parametrize("answer", ["A", "", "?!", "the -- an"])
def test_query_set_rejects_answers_that_normalize_to_nothing(tmp_path, answer):
    # em is 0 for such an answer on any text, so its query could never be
    # graded correct
    path = tmp_path / "queries.jsonl"
    path.write_text(json.dumps({"query_id": "q1", "question": "ok",
                                "answers": ["Paris"]}) + "\n" +
                    json.dumps({"query_id": "q2", "question": "ok",
                                "answers": ["Rome", answer]}) + "\n")
    with pytest.raises(CorpusFormatError, match=r"queries\.jsonl:2: answer " +
                       re.escape(repr(answer)) + " normalizes to nothing"):
        load_query_set(path)


def test_query_set_reports_a_line_that_is_not_json_after_a_blank_one(tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text(json.dumps({"query_id": "q1", "question": "x",
                                "answers": ["Paris"]}) + "\n\nnot json at all{\n")
    with pytest.raises(CorpusFormatError, match=r"queries\.jsonl:3: invalid JSON record"):
        load_query_set(path)


def test_query_set_integer_id_and_answers_load_as_decimal_strings(tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text(json.dumps({"query_id": 3, "question": "x",
                                "answers": [1969, "July"]}) + "\n")
    [record] = load_query_set(path)
    assert (record.query_id, record.answers) == ("3", ["1969", "July"])


def test_sample_queries_deterministic_and_order_insensitive(tmp_path):
    _, qpath = _dataset(tmp_path, queries=30)
    records = load_query_set(qpath)
    a = sample_queries(records, 10, seed=5)
    b = sample_queries(list(reversed(records)), 10, seed=5)
    assert [q.query_id for q in a] == [q.query_id for q in b]
    c = sample_queries(records, 10, seed=6)
    assert [q.query_id for q in a] != [q.query_id for q in c]


# ---- baseline and injection --------------------------------------------------

def test_baseline_smoke(tmp_path):
    runner = ExperimentRunner(_config(tmp_path))
    artifacts = runner.run_baseline()
    m = artifacts.metrics
    assert m.iteration == 0
    assert m.acc_at_5 > 0.0
    assert 0.0 <= m.em_mean <= 100.0
    assert m.dominance_p == 0.0  # the seed corpus is all human
    assert m.transitions_01 is None
    # no index mutation at baseline
    assert len(runner.corpus) == 120  # the seed documents only
    assert len(artifacts.records) == 12 * 2


@pytest.mark.parametrize("umask", [0o022, 0o027])
def test_run_and_synth_files_take_the_umask_mode(tmp_path, umask):
    old = os.umask(umask)
    try:
        corpus, _queries = _dataset(tmp_path)
        config = _config(tmp_path, iterations=1)
        run_experiment(config)
    finally:
        os.umask(old)
    want = 0o666 & ~umask
    out = Path(config.output_dir)
    for path in (corpus, out / "summary.tsv",
                 out / "iterations" / "iter-01" / "ranked.jsonl"):
        assert stat.S_IMODE(path.stat().st_mode) == want, path


def test_missing_query_file_fails_validation(tmp_path):
    config = _config(tmp_path)
    config.query_set = str(tmp_path / "nope.jsonl")
    with pytest.raises(ConfigValidationError, match="nope.jsonl"):
        ExperimentRunner(config)


def test_zero_shot_injection_fanout(tmp_path):
    runner = ExperimentRunner(_config(tmp_path))
    docs = runner.inject_zero_shot()
    assert len(docs) == 12 * 2  # one per (query, generator)
    assert all(d.iteration_added == 1 for d in docs)
    assert all(d.origin_query_id is not None for d in docs)
    names = {d.source.generator_name for d in docs}
    assert names == {"gen-a", "gen-b"}
    assert all(d.doc_id.endswith(d.origin_query_id) for d in docs)


def test_misinfo_injection_postconditions(tmp_path):
    config = _config(tmp_path, misinfo=True)
    runner = ExperimentRunner(config)
    docs = runner.inject_zero_shot()
    assert docs
    gold = {q.query_id: q.answers for q in runner.queries}
    for doc in docs:
        spec = runner.misinfo_specs[doc.origin_query_id]
        assert spec.chosen_false_answer in doc.text
        assert em(gold[doc.origin_query_id], doc.text) == 0
    mis_rows = read_jsonl(Path(config.output_dir) / "injection" / "misinfo.jsonl")
    assert len(mis_rows) == len(runner.misinfo_specs)
    assert all(len(r["false_answers"]) == 5 for r in mis_rows)


class _AlwaysFailingBackend:
    name = "broken"

    def generate(self, request):
        from ragloop.errors import RemoteServiceError
        raise RemoteServiceError("backend down")


def test_injection_aborts_when_nothing_generates(tmp_path):
    runner = ExperimentRunner(_config(tmp_path))
    runner.generators = {name: _AlwaysFailingBackend()
                         for name in runner.generators}
    with pytest.raises(RagLoopError, match="no documents"):
        runner.inject_zero_shot()


def test_iteration_aborts_on_majority_failure(tmp_path):
    config = _config(tmp_path)
    runner = ExperimentRunner(config)
    docs = runner.inject_zero_shot()
    runner._commit(docs)
    runner.generators = {name: _AlwaysFailingBackend()
                         for name in runner.generators}
    with pytest.raises(RagLoopError, match="aborted"):
        runner.run_iteration(1, em_prev=None)


def test_aborted_run_marks_manifest_failed(tmp_path, monkeypatch):
    run_iteration = ExperimentRunner.run_iteration

    def failing_iteration(self, iteration, em_prev):
        self.generators = {name: _AlwaysFailingBackend()
                           for name in self.generators}
        return run_iteration(self, iteration, em_prev)

    monkeypatch.setattr(ExperimentRunner, "run_iteration", failing_iteration)
    config = _config(tmp_path)
    with pytest.raises(RagLoopError, match="aborted"):
        run_experiment(config)
    manifest = json.loads(
        (Path(config.output_dir) / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "iteration 1 aborted" in manifest["error"]


class _SelectivelyFailingBackend:
    """Fails only for chosen query ids; wraps a real synthetic backend."""

    def __init__(self, inner, failing_ids):
        self.name = inner.name
        self.inner = inner
        self.failing_ids = set(failing_ids)

    def generate(self, request):
        if request.query_id in self.failing_ids:
            from ragloop.errors import RemoteServiceError
            raise RemoteServiceError("transient outage")
        return self.inner.generate(request)


def test_minority_failures_skip_queries_but_continue(tmp_path):
    config = _config(tmp_path)
    runner = ExperimentRunner(config)
    runner._commit(runner.inject_zero_shot())
    failing = {runner.queries[0].query_id, runner.queries[1].query_id}
    runner.generators = {
        name: _SelectivelyFailingBackend(backend, failing)
        for name, backend in runner.generators.items()}
    artifacts = runner.run_iteration(1, em_prev=None)
    recorded = {r.query_id for r in artifacts.records}
    assert failing.isdisjoint(recorded)
    assert len(artifacts.records) == (12 - 2) * 2
    out = Path(config.output_dir)
    additions = read_jsonl(out / "iterations" / "iter-01" / "additions.jsonl")
    assert len(additions) == (12 - 2) * 2
    assert all(d["text"].strip() for d in additions)


@pytest.mark.parametrize("max_failure_fraction, status",
                         [(0.4, "failed"), (0.6, "complete")])
def test_max_failure_fraction_sets_the_abort_line(tmp_path, monkeypatch,
                                                  max_failure_fraction, status):
    config = _config(tmp_path, iterations=1, max_failure_fraction=max_failure_fraction,
                     generators=[{"name": "gen-a", "kind": "synthetic"}])
    failing = {q.query_id for q in load_query_set(config.query_set)[::2]}
    compose = SyntheticGenerator.generate

    def fail_half(self, request):
        if request.query_id in failing:
            raise RemoteServiceError("transient outage")
        return compose(self, request)

    monkeypatch.setattr(SyntheticGenerator, "generate", fail_half)
    assert len(failing) == 6  # half of the 12 sampled queries
    if status == "failed":
        with pytest.raises(RagLoopError, match="6/12 generation tasks failed"):
            run_experiment(config)
    else:
        run_experiment(config)
    manifest = json.loads((Path(config.output_dir) / "manifest.json").read_text())
    assert manifest["status"] == status


@pytest.mark.parametrize("judge, name", [("", "gen-a"), ("gen-b", "gen-b")])
def test_judge_generator_picks_the_named_generator(tmp_path, judge, name):
    config = _config(tmp_path, grade_with_judge=True, judge_generator=judge)
    assert ExperimentRunner(config).judge.name == name


# ---- full runs -----------------------------------------------------------------

def test_full_run_emits_artifacts(tmp_path):
    config = _config(tmp_path)
    report = run_experiment(config)
    out = Path(config.output_dir)
    assert (out / "summary.tsv").is_file()
    assert (out / "metrics.jsonl").is_file()
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 3  # baseline + 2 iterations
    for i in range(3):
        it_dir = out / "iterations" / f"iter-{i:02d}"
        for name in ("ranked.jsonl", "contexts.jsonl", "generations.jsonl",
                     "records.jsonl", "additions.jsonl", "metrics.json"):
            assert (it_dir / name).is_file(), name
    # corpus growth per iteration equals committed generation records
    add1 = read_jsonl(out / "iterations" / "iter-01" / "additions.jsonl")
    gen1 = read_jsonl(out / "iterations" / "iter-01" / "generations.jsonl")
    assert len(add1) == len(gen1) == 24
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert report["iterations_run"] == 2


def test_transition_identity_holds_in_run(tmp_path):
    config = _config(tmp_path, iterations=3)
    run_experiment(config)
    out = Path(config.output_dir)
    prev = None
    for i in range(4):
        rows = read_jsonl(out / "iterations" / f"iter-{i:02d}" / "records.jsonl")
        em_map = {(r["query_id"], r["generator_name"]): r["em"] for r in rows}
        if prev is not None:
            meta = json.loads((out / "iterations" / f"iter-{i:02d}" /
                               "metrics.json").read_text())
            t01 = meta["metrics"]["transitions_01"]
            t10 = meta["metrics"]["transitions_10"]
            assert sum(em_map.values()) - sum(prev.values()) == t01 - t10
        prev = em_map


def test_pipeline_composition_contexts_come_from_ranked(tmp_path):
    config = _config(tmp_path)
    run_experiment(config)
    out = Path(config.output_dir)
    for i in range(3):
        it_dir = out / "iterations" / f"iter-{i:02d}"
        ranked = {r["query_id"]: [e[0] for e in r["entries"]]
                  for r in read_jsonl(it_dir / "ranked.jsonl")}
        for ctx in read_jsonl(it_dir / "contexts.jsonl"):
            ids = ctx["doc_ids"]
            assert ids == ranked[ctx["query_id"]][:len(ids)]


def test_rerun_same_seed_byte_identical(tmp_path):
    config_a = _config(tmp_path, out="run-a")
    config_b = _config(tmp_path, out="run-b")
    run_experiment(config_a)
    run_experiment(config_b)
    out_a, out_b = Path(config_a.output_dir), Path(config_b.output_dir)
    for rel in ["summary.tsv", "metrics.jsonl",
                "iterations/iter-01/generations.jsonl",
                "iterations/iter-02/metrics.json",
                "series/series_source_share.tsv"]:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


def test_resume_matches_uninterrupted_run(tmp_path):
    reference = _config(tmp_path, out="ref", iterations=3)
    run_experiment(reference)

    # simulate a kill after iteration 1 by running phases manually
    partial = _config(tmp_path, out="partial", iterations=3)
    runner = ExperimentRunner(partial)
    from ragloop.runner import _check_manifest
    _check_manifest(runner, resume=False)
    artifacts0 = runner.run_baseline()
    docs = runner.inject_zero_shot()
    runner._commit(docs)
    em0 = {(r.query_id, r.generator_name): r.em for r in artifacts0.records}
    runner.run_iteration(1, em_prev=em0)
    # iteration 2 and 3 never ran; now resume
    run_experiment(partial, resume=True)

    ref_dir, part_dir = Path(reference.output_dir), Path(partial.output_dir)
    for rel in ["summary.tsv", "metrics.jsonl", "manifest.json",
                "iterations/iter-00/metrics.json",
                "iterations/iter-01/generations.jsonl",
                "iterations/iter-02/metrics.json",
                "iterations/iter-03/additions.jsonl",
                "series/series_accuracy.tsv"]:
        assert (ref_dir / rel).read_bytes() == (part_dir / rel).read_bytes(), rel


class _Killed(BaseException):
    """Stands for the process dying: `except Exception` does not catch it."""


def _run_files(run_dir: Path) -> dict[str, bytes]:
    return {p.relative_to(run_dir).as_posix(): p.read_bytes()
            for p in sorted(run_dir.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("overrides", [
    {"filter_mode": "source", "misinfo": True, "grade_with_judge": True},
    {"pipeline": "dense+rerank", "rerank_depth": 10},
    {"filter_mode": "diversity"},
], ids=["bm25-misinfo-judge-source", "dense-rerank", "bm25-diversity"])
def test_kill_at_every_write_resumes_identically(tmp_path, monkeypatch,
                                                 overrides):
    corpus, queries = write_demo_dataset(tmp_path / "data", num_docs=80,
                                         num_queries=6, seed=3)

    def config(out: str) -> ExperimentConfig:
        return parse_config_mapping({
            "seed_corpus": str(corpus), "query_set": str(queries),
            "output_dir": str(tmp_path / out), "sample_size": 6,
            "iterations": 2, "retrieval_depth": 20, "seed": 17,
            "offline": True,
            "generators": [
                {"name": "gen-a", "kind": "synthetic", "accuracy": 0.8},
                {"name": "gen-b", "kind": "synthetic", "accuracy": 0.8},
            ],
            **overrides})

    write = runner_module._atomic_write
    calls: list[Path] = []

    def dies_at(n):
        def atomic_write(path, data):
            calls.append(path)
            if len(calls) >= n:
                raise _Killed(f"killed at write {n}")
            write(path, data)
        return atomic_write

    monkeypatch.setattr(runner_module, "_atomic_write", dies_at(math.inf))
    run_experiment(config("reference"), resume=False)
    total, want = len(calls), _run_files(tmp_path / "reference")
    assert total > 20
    for n in range(1, total + 1):
        calls.clear()
        out = f"killed-{n:02d}"
        monkeypatch.setattr(runner_module, "_atomic_write", dies_at(n))
        with pytest.raises(_Killed):
            run_experiment(config(out), resume=False)
        assert len(calls) == n
        monkeypatch.setattr(runner_module, "_atomic_write", write)
        run_experiment(config(out), resume=True)
        assert _run_files(tmp_path / out) == want, f"killed at write {n}"


def test_resume_refuses_other_config(tmp_path):
    config = _config(tmp_path)
    run_experiment(config)
    changed = _config(tmp_path, seed=99)
    changed.output_dir = config.output_dir
    with pytest.raises(RagLoopError, match="different"):
        run_experiment(changed, resume=True)


def test_schedule_assigns_generators_per_iteration(tmp_path):
    config = _config(
        tmp_path, iterations=2,
        schedule=[{"iterations": "1", "generators": ["gen-a"]},
                  {"iterations": "2", "generators": ["gen-b"]}])
    run_experiment(config)
    out = Path(config.output_dir)
    gen1 = {r["generator_name"] for r in
            read_jsonl(out / "iterations" / "iter-01" / "generations.jsonl")}
    gen2 = {r["generator_name"] for r in
            read_jsonl(out / "iterations" / "iter-02" / "generations.jsonl")}
    assert gen1 == {"gen-a"} and gen2 == {"gen-b"}
    # zero-shot used the iteration-1 set
    inj = {r["source"]["generator_name"] for r in
           read_jsonl(out / "injection" / "additions.jsonl")}
    assert inj == {"gen-a"}


def _run_dir_bytes(config: ExperimentConfig) -> dict[str, bytes]:
    root = Path(config.output_dir)
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_concurrency_cap_does_not_change_outputs(tmp_path):
    for name, extra in [("bm25", {}),
                        ("dense-rerank-source", {"pipeline": "dense+rerank",
                                                 "filter_mode": "source"}),
                        ("misinfo-judge-source", {"misinfo": True,
                                                  "grade_with_judge": True,
                                                  "filter_mode": "source"}),
                        ("bm25-diversity", {"filter_mode": "diversity"})]:
        serial = _config(tmp_path, out=f"{name}-serial", **extra)
        threaded = _config(tmp_path, out=f"{name}-threaded", max_in_flight=4,
                           **extra)
        run_experiment(serial)
        run_experiment(threaded)
        assert _run_dir_bytes(serial) == _run_dir_bytes(threaded), name


_MARKER = "synthweave"


def _remote_routes(server, fault_token: str = "") -> set[str]:
    """Deterministic chat, embeddings, score and detect routes. Chat
    requests whose prompt holds `fault_token` are refused once with 429;
    the returned set collects the refused payloads."""
    faulted: set[str] = set()
    lock = threading.Lock()

    def chat(payload):
        prompt = payload["messages"][0]["content"]
        if fault_token and fault_token in prompt:
            key = json.dumps(payload, sort_keys=True)
            with lock:
                first = key not in faulted
                faulted.add(key)
            if first:
                return 429, {"error": "slow down"}, {"Retry-After": "0"}
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        question = prompt.split("Question:")[-1].split("\n")[0]
        text = (f"This {_MARKER} note from {payload['model']} concerns "
                f"{question} and cites {digest[:12]}.")
        return {"choices": [{"message": {"content": text}}]}

    def embeddings(payload):
        rows = []
        for text in payload["input"]:
            vec = [0.0] * 8
            for tok in tokenize(text):
                h = int(hashlib.sha256(tok.encode("utf-8")).hexdigest()[:8], 16)
                vec[h % 8] += 1.0 if h & 256 else -1.0
            rows.append({"embedding": vec})
        return {"data": rows}

    def score(payload):
        terms = set(tokenize(payload["query"]))
        return {"scores": [len(terms & set(tokenize(p))) / max(len(terms), 1)
                           for p in payload["passages"]]}

    def detect(payload):
        return {"results": [{"label": "generated" if _MARKER in t else "human",
                             "score": 0.9} for t in payload["texts"]]}

    server.routes.update({"/v1/chat": chat, "/v1/embeddings": embeddings,
                          "/v1/score": score, "/v1/detect": detect})
    return faulted


def _remote_config(tmp_path, server, out, **overrides) -> ExperimentConfig:
    raw = {
        "pipeline": "dense+rerank", "filter_mode": "source", "offline": False,
        "retries": 2, "backoff": 0.0,
        "generators": [{"name": n, "kind": "remote", "model": n,
                        "endpoint": server.url("/v1/chat")}
                       for n in ("gen-a", "gen-b")],
        "embedding_endpoint": server.url("/v1/embeddings"),
        "rerank_endpoint": server.url("/v1/score"),
        "detector_endpoint": server.url("/v1/detect"),
    }
    raw.update(overrides)
    return _config(tmp_path, out=out, **raw)


def test_remote_runs_match_across_concurrency_caps(tmp_path, keepalive_server):
    # one query's topic ends in 3; the other eleven never fault
    faulted = _remote_routes(keepalive_server, fault_token="3 site")
    serial = _remote_config(tmp_path, keepalive_server, "serial")
    run_experiment(serial)
    serial_requests = len(keepalive_server.requests)
    assert keepalive_server.connections == 1
    # baseline, injection and two iterations, two generators each
    assert len(faulted) == 8
    faulted.clear()
    threaded = _remote_config(tmp_path, keepalive_server, "threaded",
                              max_in_flight=4)
    run_experiment(threaded)
    assert len(faulted) == 8
    assert _run_dir_bytes(serial) == _run_dir_bytes(threaded)
    assert len(keepalive_server.requests) == 2 * serial_requests
    # the pool reuses the serial run's connection and opens at most three more
    assert keepalive_server.connections <= 4
    paths = {path for path, _ in keepalive_server.requests}
    assert paths == {"/v1/chat", "/v1/embeddings", "/v1/score", "/v1/detect"}
    # every generation task survived its refused first attempt
    for phase in ("iter-00", "iter-01", "iter-02"):
        gens = read_jsonl(Path(threaded.output_dir) / "iterations" / phase
                          / "generations.jsonl")
        assert len(gens) == 2 * 12


def _phase_rows(out: Path, name: str) -> list[list[dict]]:
    """Each phase's rows of one run file, baseline first."""
    phases = sorted((out / "iterations").iterdir())
    return [read_jsonl(phase / name) for phase in phases]


def test_each_fact_is_asked_once_at_any_concurrency_cap(tmp_path, stub_server):
    _remote_routes(stub_server)
    runs, by_cap = [], {}
    for cap in (1, 4):
        before = len(stub_server.requests)
        config = _remote_config(tmp_path, stub_server, f"cap-{cap}",
                                max_in_flight=cap, rerank_depth=40)
        run_experiment(config)
        runs.append(config)
        routes: dict[str, list[str]] = {}
        for path, payload in stub_server.requests[before:]:
            routes.setdefault(path, []).append(
                json.dumps(payload, sort_keys=True))
        by_cap[cap] = routes
    assert _run_dir_bytes(runs[0]) == _run_dir_bytes(runs[1])
    # embeddings and detector requests run on the calling thread, so their
    # payloads come in one order; the pool may reorder score and chat ones
    for path in ("/v1/embeddings", "/v1/detect"):
        assert by_cap[1][path] == by_cap[4][path], path
    for path in ("/v1/score", "/v1/chat"):
        assert sorted(by_cap[1][path]) == sorted(by_cap[4][path]), path

    out = Path(runs[0].output_dir)
    ranked = _phase_rows(out, "ranked.jsonl")
    commits = [read_jsonl(out / "injection" / "additions.jsonl")] + [
        read_jsonl(out / "iterations" / f"iter-{i:02d}" / "additions.jsonl")
        for i in range(1, runs[0].iterations + 1)]
    labelled: set[str] = set()
    scored: dict[str, set[str]] = {}
    detect = score = 0
    for rows in ranked:
        candidates = {doc_id for row in rows for doc_id, _s, _r in row["entries"]}
        detect += int(not candidates <= labelled)
        labelled |= candidates
        for row in rows:
            head = {doc_id for doc_id, _s, _r in row["entries"][:40]}
            seen = scored.setdefault(row["query_id"], set())
            score += math.ceil(len(head - seen) / 32)
            seen |= head
    counts = {path: len(payloads) for path, payloads in by_cap[1].items()}
    assert counts["/v1/embeddings"] == 2 + sum(1 for docs in commits if docs)
    assert counts["/v1/detect"] == detect
    assert counts["/v1/score"] == score
    # a question's later phases score fewer pairs than its first
    assert score < len(ranked) * runs[0].sample_size * 2


def test_detector_outage_falls_back_only_where_a_label_is_missing(
        tmp_path, stub_server):
    # an injected answer carries its question's topic token, or for every
    # third query a token no question holds: BM25 retrieves each only for
    # its own query, so in iteration 1 some queries see a new document and
    # the others only documents the baseline labelled
    _remote_routes(stub_server)
    chat = stub_server.routes["/v1/chat"]

    def zero_shot(payload):
        prompt = payload["messages"][0]["content"]
        if "[Context 1]" in prompt:
            return chat(payload)
        topic = prompt.split("Question:")[-1].split("\n")[0].split()[-2]
        token = topic if int(topic.lstrip("abcdefghijklmnopqrstuvwxyz")) % 3 \
            else "zzunseen"
        text = f"This {_MARKER} note concerns {token}."
        return {"choices": [{"message": {"content": text}}]}

    stub_server.routes["/v1/chat"] = zero_shot
    detect = stub_server.routes["/v1/detect"]
    calls = {"n": 0}

    def down_in_iteration_one(payload):
        calls["n"] += 1
        return (503, {"error": "down"}) if calls["n"] == 2 else detect(payload)

    runs = {}
    for name in ("unfaulted", "faulted"):
        if name == "faulted":
            stub_server.routes["/v1/detect"] = down_in_iteration_one
        runs[name] = _remote_config(tmp_path, stub_server, name,
                                    pipeline="bm25", retries=0)
        run_experiment(runs[name])
    assert calls["n"] == 3
    out, ref = (Path(runs[k].output_dir) for k in ("faulted", "unfaulted"))
    baseline, first = _phase_rows(out, "ranked.jsonl")[:2]
    labelled = {doc_id for row in baseline for doc_id, _s, _r in row["entries"]}
    unlabelled = {row["query_id"] for row in first
                  if any(d not in labelled for d, _s, _r in row["entries"])}
    contexts = _phase_rows(out, "contexts.jsonl")[1]
    reference = _phase_rows(ref, "contexts.jsonl")[1]
    assert unlabelled and len(unlabelled) < len(contexts)
    for row, ref_row in zip(contexts, reference):
        assert row["fallback_unfiltered"] == (row["query_id"] in unlabelled)
        if row["query_id"] not in unlabelled:
            assert row == ref_row
    # iteration 2 asks again about the documents iteration 1 left unlabelled
    assert not any(row["fallback_unfiltered"]
                   for row in _phase_rows(out, "contexts.jsonl")[2])


@pytest.fixture(scope="module")
def unfaulted_remote_run(tmp_path_factory):
    """A keep-alive stub server, a data directory, and the bytes and the
    request count of one unfaulted remote run on them. Endpoint URLs and
    data paths enter the config hash, so every faulted run compared with
    these bytes uses the same server and directory."""
    server = StubServer(keep_alive=True)
    tmp_path = tmp_path_factory.mktemp("transient-faults")
    _remote_routes(server)
    config = _remote_config(tmp_path, server, "unfaulted", retries=1)
    run_experiment(config)
    yield server, tmp_path, _run_dir_bytes(config), len(server.requests)
    server.close()


_TRANSIENT_FAULTS = {"503": (503, {"error": "unavailable"}),
                     "not-json": b"<html>busy</html>"}


@pytest.mark.parametrize("fault", sorted(_TRANSIENT_FAULTS))
@pytest.mark.parametrize("route", ["chat", "embeddings", "score", "detect"])
def test_transient_fault_on_every_call_keeps_the_run_bytes(
        unfaulted_remote_run, route, fault):
    # the first attempt of every distinct payload on `route` fails, in each
    # phase that calls it: set-up (the seed-corpus embeddings), baseline,
    # injection and both iterations
    server, tmp_path, unfaulted, unfaulted_requests = unfaulted_remote_run
    _remote_routes(server)
    answer = server.routes[f"/v1/{route}"]
    refused: set[str] = set()
    lock = threading.Lock()

    def refuse_first(payload):
        key = json.dumps(payload, sort_keys=True)
        with lock:
            first = key not in refused
            refused.add(key)
        return _TRANSIENT_FAULTS[fault] if first else answer(payload)

    server.routes[f"/v1/{route}"] = refuse_first
    config = _remote_config(tmp_path, server, f"{route}-{fault}", retries=1)
    before = len(server.requests)
    run_experiment(config)
    assert refused
    assert _run_dir_bytes(config) == unfaulted
    # each refused payload was sent exactly once more
    assert len(server.requests) - before == unfaulted_requests + len(refused)


def test_pool_runs_judge_and_false_answer_calls(tmp_path, stub_server):
    # every answer holds its query's reference answer, so the judge (gen-a)
    # is asked about each one; judge and false-answer replies are slow
    # enough that calls from different pool threads overlap
    answers = {q.question: q.answers[0]
               for q in load_query_set(_dataset(tmp_path)[1])}
    in_flight = {"judge": 0, "false": 0}
    peaks = dict(in_flight)
    lock = threading.Lock()

    def chat(payload):
        prompt = payload["messages"][0]["content"]
        question = prompt.split("Question:")[-1].split("\n")[0].strip()
        if prompt.startswith("Suppose you are generating"):
            false = prompt.split("Answers:")[-1].split(",\n")[0]
            return {"choices": [{"message": {"content":
                    f"This {_MARKER} note says the answer is {false}."}}]}
        kind = ("judge" if prompt.startswith("Does the following response")
                else "false" if prompt.startswith("Generate a false answer")
                else None)
        if kind is None:
            text = f"This {_MARKER} note says {answers[question]} is right."
        else:
            with lock:
                in_flight[kind] += 1
                peaks[kind] = max(peaks[kind], in_flight[kind])
            time.sleep(0.01)
            with lock:
                in_flight[kind] -= 1
            digest = hashlib.sha256(question.encode("utf-8")).hexdigest()
            text = "Yes." if kind == "judge" else f"nowhere {digest[:8]}"
        return {"choices": [{"message": {"content": text}}]}

    stub_server.routes["/v1/chat"] = chat
    configs, peaks_by_cap = [], {}
    for max_in_flight in (1, 4):
        peaks.update(judge=0, false=0)
        config = _config(
            tmp_path, out=f"cap-{max_in_flight}", offline=False, retries=0,
            sample_size=8, iterations=1, misinfo=True, grade_with_judge=True,
            judge_generator="gen-a", max_in_flight=max_in_flight,
            generators=[{"name": n, "kind": "remote", "model": n,
                         "endpoint": stub_server.url("/v1/chat")}
                        for n in ("gen-a", "gen-b")])
        run_experiment(config)
        configs.append(config)
        peaks_by_cap[max_in_flight] = dict(peaks)
    assert peaks_by_cap[1] == {"judge": 1, "false": 1}
    assert peaks_by_cap[4]["judge"] >= 2 and peaks_by_cap[4]["false"] >= 2
    records = read_jsonl(Path(configs[1].output_dir) / "iterations" / "iter-01"
                         / "generations.jsonl")
    assert len(records) == 16 and all(r["em_llm"] == 1 for r in records)
    assert _run_dir_bytes(configs[0]) == _run_dir_bytes(configs[1])


def _embeddings_down_from(server, call: int) -> None:
    """Answer the embeddings route normally until its `call`-th request,
    then with 503 for good."""
    embed = server.routes["/v1/embeddings"]
    calls = {"n": 0}

    def down(payload):
        calls["n"] += 1
        return embed(payload) if calls["n"] < call else (503, {"error": "down"})

    server.routes["/v1/embeddings"] = down


@pytest.mark.parametrize("max_in_flight", [1, 4])
def test_question_embeddings_outage_stops_the_run_at_set_up(
        tmp_path, stub_server, max_in_flight):
    # the seed corpus is embedded first, then every question in one request
    _remote_routes(stub_server)
    _embeddings_down_from(stub_server, 2)
    config = _remote_config(tmp_path, stub_server, "run", retries=1,
                            max_in_flight=max_in_flight)
    with pytest.raises(RemoteServiceError, match="failed after 2 attempts"):
        run_experiment(config)
    embedded = [payload["input"] for path, payload in stub_server.requests
                if path == "/v1/embeddings"]
    questions = [q.question for q in sample_queries(
        load_query_set(config.query_set), config.sample_size, config.seed)]
    # the question request and its one retry
    assert embedded[1:] == [questions, questions]
    assert not (Path(config.output_dir) / "iterations").exists()
    assert not (Path(config.output_dir) / "manifest.json").exists()


@pytest.mark.parametrize("max_in_flight", [1, 4])
def test_injection_commit_embeddings_outage_marks_the_run_failed(
        tmp_path, stub_server, max_in_flight):
    # set-up makes two embeddings requests; the third commits the injection
    _remote_routes(stub_server)
    _embeddings_down_from(stub_server, 3)
    config = _remote_config(tmp_path, stub_server, "run", retries=1,
                            max_in_flight=max_in_flight)
    with pytest.raises(RemoteServiceError, match="failed after 2 attempts"):
        run_experiment(config)
    out = Path(config.output_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "RemoteServiceError" in manifest["error"]
    assert (out / "iterations" / "iter-00" / "metrics.json").is_file()
    assert (out / "injection" / "meta.json").is_file()
    assert not (out / "iterations" / "iter-01").exists()


def test_endpoint_models_and_keys_reach_their_services(tmp_path, stub_server,
                                                       monkeypatch):
    _remote_routes(stub_server)
    keys = {"EMBED_KEY": "k-embed", "SCORE_KEY": "k-score",
            "DETECT_KEY": "k-detect"}
    for name, value in keys.items():
        monkeypatch.setenv(name, value)
    config = _remote_config(
        tmp_path, stub_server, "run",
        embedding_model="embed-1", embedding_api_key_env="EMBED_KEY",
        rerank_model="score-1", rerank_api_key_env="SCORE_KEY",
        detector_model="detect-1", detector_api_key_env="DETECT_KEY")
    config.build_embedder().embed(["a text"])
    config.build_rerank_backend().score("a query", ["a passage"])
    config.build_detector().classify(["a text"])
    sent = [(path, payload["model"], auth) for (path, payload), auth
            in zip(stub_server.requests, stub_server.auth_headers)]
    assert sent == [("/v1/embeddings", "embed-1", "Bearer k-embed"),
                    ("/v1/score", "score-1", "Bearer k-score"),
                    ("/v1/detect", "detect-1", "Bearer k-detect")]


@pytest.mark.parametrize("policy", ["pass-through-unranked", "abort-iteration"])
def test_rerank_failure_policy_on_scorer_outage(tmp_path, stub_server, policy):
    stub_server.routes["/v1/score"] = lambda payload: (503, {"error": "down"})
    config = _config(tmp_path, out=policy, pipeline="bm25+rerank",
                     offline=False, retries=0,
                     rerank_endpoint=stub_server.url("/v1/score"),
                     rerank_failure_policy=policy)
    manifest_path = Path(config.output_dir) / "manifest.json"
    if policy == "abort-iteration":
        with pytest.raises(RemoteServiceError, match="failed after 1 attempts"):
            run_experiment(config)
        assert json.loads(manifest_path.read_text())["status"] == "failed"
        return
    run_experiment(config)
    assert json.loads(manifest_path.read_text())["status"] == "complete"
    plain = _config(tmp_path, out="plain")
    run_experiment(plain)
    for i in range(3):
        ranked = Path("iterations") / f"iter-{i:02d}" / "ranked.jsonl"
        assert (Path(config.output_dir) / ranked).read_bytes() == \
            (Path(plain.output_dir) / ranked).read_bytes()
    assert stub_server.requests


@pytest.mark.parametrize("kind", ["remote", "bm25-diversity"])
def test_tracer_sees_every_module_of_a_run(tmp_path, stub_server, kind):
    # perfbench/spans.py wraps these functions by module attribute; a client
    # that stops calling post_json_with_retries by its module-level name, or
    # a renamed runner helper or metric, silently reads 0 in the benchmark
    corpus, queries = _dataset(tmp_path)
    raw = {
        "seed_corpus": str(corpus), "query_set": str(queries),
        "output_dir": str(tmp_path / "run"), "sample_size": 6,
        "iterations": 1, "seed": 17,
    }
    if kind == "remote":
        _remote_routes(stub_server)
        raw.update({
            "pipeline": "dense+rerank", "filter_mode": "source",
            "retries": 0, "max_in_flight": 2,
            "generators": [{"name": "gen-a", "kind": "remote", "model": "gen-a",
                            "endpoint": stub_server.url("/v1/chat")}],
            "embedding_endpoint": stub_server.url("/v1/embeddings"),
            "rerank_endpoint": stub_server.url("/v1/score"),
            "detector_endpoint": stub_server.url("/v1/detect"),
        })
        spans = ("remote.post", "retrieval.embed", "rerank.rerank",
                 "filters.source", "generation.generate", "postprocess.clean",
                 "corpus.add_documents", "runner.persist")
    else:
        raw.update({"pipeline": "bm25", "filter_mode": "diversity",
                    "offline": True,
                    "generators": [{"name": "gen-a", "kind": "synthetic"}]})
        spans = ("metrics.acc_at_k", "metrics.first_right_ranks",
                 "metrics.context_right_num", "metrics.self_bleu",
                 "filters.diversity", "retrieval.search", "retrieval.index_add")
    config_path, result_path = tmp_path / "config.json", tmp_path / "result.json"
    config_path.write_text(json.dumps(raw))
    root = Path(__file__).resolve().parent.parent
    subprocess.run([sys.executable, "perfbench/worker.py", str(config_path),
                    str(result_path), str(tmp_path / "spans.jsonl")],
                   cwd=root, check=True, timeout=120)
    counts: dict[str, int] = {}
    for metric, _phase, value in json.loads(result_path.read_text())["trace"]["counts"]:
        counts[metric] = counts.get(metric, 0) + value
    for span in spans:
        assert counts.get(f"{span}.calls", 0) > 0, span


@pytest.mark.parametrize("phase", ["iterations/iter-01/metrics.json",
                                   "injection/meta.json"])
def test_resume_refuses_phase_with_other_config_hash(tmp_path, phase):
    config = _config(tmp_path)
    run_experiment(config)
    path = Path(config.output_dir) / phase
    meta = json.loads(path.read_text())
    meta["config_hash"] = "0" * 64
    path.write_text(json.dumps(meta))
    name = Path(phase).parent.name
    with pytest.raises(RagLoopError, match=f"phase {name} .*different"):
        run_experiment(config, resume=True)


def test_judge_grading_produces_em_llm_fields(tmp_path):
    config = _config(tmp_path, grade_with_judge=True, iterations=1)
    run_experiment(config)
    out = Path(config.output_dir)
    rows = read_jsonl(out / "iterations" / "iter-01" / "generations.jsonl")
    assert all(r["em_llm"] in (0, 1) for r in rows)
    # offline judge says yes iff contained, so the conjunction equals em
    assert all(r["em_llm"] == r["em"] for r in rows)


def test_failed_judge_call_costs_one_record(tmp_path, stub_server):
    # one remote generator answers and judges; it answers queries with an
    # even last digit, says yes to every judge request, and refuses the
    # 5th to 8th judge requests with 503
    corpus, queries = _dataset(tmp_path)
    by_question = {q["question"]: q for q in read_jsonl(queries)}
    judge_calls = {"n": 0}
    refused: list[str] = []

    def chat(payload):
        prompt = payload["messages"][0]["content"]
        question = prompt.split("Question:")[1].split("\n")[0].strip()
        query = by_question[question]
        if prompt.startswith("Does the following response support"):
            judge_calls["n"] += 1
            if 5 <= judge_calls["n"] <= 8:
                refused.append(query["query_id"])
                return 503, {"error": "judge down"}
            return {"choices": [{"message": {"content": "Yes."}}]}
        known = int(query["query_id"][-1]) % 2 == 0
        text = (f"The answer is {query['answers'][0]}." if known
                else "No answer is known.")
        return {"choices": [{"message": {"content": text}}]}

    stub_server.routes["/v1/chat"] = chat
    config = _config(tmp_path, offline=False, retries=0, backoff=0.0,
                     grade_with_judge=True,
                     generators=[{"name": "gen-r", "kind": "remote",
                                  "model": "m",
                                  "endpoint": stub_server.url("/v1/chat")}])
    run_experiment(config)
    out = Path(config.output_dir)
    assert json.loads((out / "manifest.json").read_text())["status"] == "complete"
    assert len(refused) == 4
    ungraded = []
    for i in range(3):
        phase = out / "iterations" / f"iter-{i:02d}"
        rows = read_jsonl(phase / "generations.jsonl")
        assert len(rows) == 12
        missing = [r for r in rows if r["em_llm"] is None]
        ungraded.extend(missing)
        metrics = json.loads((phase / "metrics.json").read_text())["metrics"]
        pearson = metrics["pearson_em_em_llm"]
        # the judge says yes to every contained answer, so em_llm equals em
        assert pearson == (None if missing else pytest.approx(1.0))
    assert sorted(r["query_id"] for r in ungraded) == sorted(refused)
    assert all(r["em"] == 1 for r in ungraded)


def test_misinfo_judge_grades_chosen_false_answer(tmp_path, monkeypatch):
    compose = SyntheticGenerator.generate

    def echo_first_context(self, request):
        # gen-a repeats its top context, so a chosen false answer can reach
        # its text; gen-b's text never holds one
        text = compose(self, request)
        if self.name == "gen-a" and request.top_context:
            return f"{text} {' '.join(request.top_context)}"
        return text

    monkeypatch.setattr(SyntheticGenerator, "generate", echo_first_context)
    config = _config(tmp_path, misinfo=True, grade_with_judge=True)
    run_experiment(config)
    out = Path(config.output_dir)
    chosen = {r["query_id"]: r["chosen_false_answer"]
              for r in read_jsonl(out / "injection" / "misinfo.jsonl")}
    baseline = read_jsonl(out / "iterations" / "iter-00" / "generations.jsonl")
    # the false answers are chosen after the baseline is graded
    assert all(r["em_false"] is None and r["em_llm_false"] is None
               for r in baseline)
    rows = [r for i in (1, 2) for r in
            read_jsonl(out / "iterations" / f"iter-{i:02d}" / "generations.jsonl")]
    assert rows
    for r in rows:
        assert r["em_false"] == em([chosen[r["query_id"]]], r["cleaned_text"])
        # offline judge says yes iff contained, so the conjunction equals em
        assert r["em_llm_false"] == r["em_false"]
    assert {r["em_false"] for r in rows} == {0, 1}


@pytest.mark.parametrize("misinfo", [False, True])
def test_requests_carry_the_stored_tokens_of_their_top_context(tmp_path, monkeypatch,
                                                               misinfo):
    requests, runners = [], []
    compose = SyntheticGenerator.generate

    def record(self, request):
        requests.append(request)
        return compose(self, request)

    class RecordingRunner(ExperimentRunner):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runners.append(self)

    monkeypatch.setattr(SyntheticGenerator, "generate", record)
    monkeypatch.setattr(runner_module, "ExperimentRunner", RecordingRunner)
    config = _config(tmp_path, misinfo=misinfo, grade_with_judge=True)
    run_experiment(config)
    corpus = runners[0].corpus
    out = Path(config.output_dir)
    first_kept = {(i, row["query_id"]): row["doc_ids"][0] for i in (0, 1, 2)
                  for row in read_jsonl(out / "iterations" / f"iter-{i:02d}"
                                        / "contexts.jsonl")}
    kinds = {r.kind for r in requests}
    assert {WITH_CONTEXTS, MIS_PASSAGE if misinfo else ZERO_SHOT} <= kinds
    for r in requests:
        if r.kind == WITH_CONTEXTS:
            doc_id = first_kept[r.iteration, r.query_id]
            assert r.top_context is corpus.tokens(doc_id)
        else:
            assert r.top_context == ()


def test_diversity_threshold_one_removes_nothing(tmp_path):
    removals = {}
    for threshold in (0.4, 1.0):
        config = _config(tmp_path, out=f"t{threshold}", filter_mode="diversity",
                         diversity_threshold=threshold)
        run_experiment(config)
        removals[threshold] = [
            ctx["removals"] for i in range(3)
            for ctx in read_jsonl(Path(config.output_dir) / "iterations"
                                  / f"iter-{i:02d}" / "contexts.jsonl")]
    # Self-BLEU never exceeds 1, so no set is ever rebuilt
    assert sum(removals[0.4]) > 0
    assert removals[1.0] == [0] * len(removals[1.0])


def test_diversity_filter_mode_persists_conforming_contexts(tmp_path):
    config = _config(tmp_path, filter_mode="diversity", iterations=2)
    run_experiment(config)
    out = Path(config.output_dir)
    from ragloop.corpus import ingest_seed_corpus, add_documents
    from ragloop.metrics import self_bleu
    corpus = ingest_seed_corpus(config.seed_corpus)
    for sub in ["injection"] + [f"iterations/iter-{i:02d}" for i in range(3)]:
        path = out / sub / "additions.jsonl"
        if path.is_file():
            docs = [doc_from_row(d) for d in read_jsonl(path)]
            corpus = add_documents(corpus, docs)
    for i in range(3):
        for ctx in read_jsonl(out / "iterations" / f"iter-{i:02d}" /
                              "contexts.jsonl"):
            if len(ctx["doc_ids"]) >= 2 and not ctx["exhausted"]:
                texts = [corpus.get_text(d) for d in ctx["doc_ids"]]
                assert self_bleu(texts) <= 0.4


def test_source_filter_mode_keeps_unmarked_contexts(tmp_path):
    config = _config(tmp_path, filter_mode="source", iterations=2)
    run_experiment(config)
    out = Path(config.output_dir)
    gen_ids = set()
    for sub in ["injection", "iterations/iter-01", "iterations/iter-02"]:
        path = out / sub / "additions.jsonl"
        if path.is_file():
            gen_ids |= {d["doc_id"] for d in read_jsonl(path)}
    for i in range(3):
        for ctx in read_jsonl(out / "iterations" / f"iter-{i:02d}" /
                              "contexts.jsonl"):
            if not ctx["fallback_unfiltered"]:
                assert not (set(ctx["doc_ids"]) & gen_ids)


def test_source_filter_mode_drops_documents_of_every_generators_marker(tmp_path):
    # the offline detector flags each configured generator's marker, not
    # only the first generator's
    config = _config(tmp_path, filter_mode="source", iterations=2, generators=[
        {"name": "gen-a", "kind": "synthetic", "marker": "synthweave"},
        {"name": "gen-b", "kind": "synthetic", "marker": "otherweave"}])
    assert config.build_detector().classify(
        ["an otherweave note", "a synthweave note", "a human note"]) == [True, True, False]
    run_experiment(config)
    out = Path(config.output_dir)
    kept = [d for i in (1, 2) for ctx in read_jsonl(
                out / "iterations" / f"iter-{i:02d}" / "contexts.jsonl")
            if not ctx["fallback_unfiltered"] for d in ctx["doc_ids"]]
    assert kept and not any(d.startswith("gen-") for d in kept)


def test_custom_phrase_file_is_used(tmp_path):
    phrase_path = tmp_path / "phrases.txt"
    phrase_path.write_text("This synthweave note concerns\n")
    config = _config(tmp_path, phrase_file=str(phrase_path), iterations=1)
    run_experiment(config)
    out = Path(config.output_dir)
    rows = read_jsonl(out / "iterations" / "iter-01" / "generations.jsonl")
    assert rows
    for row in rows:
        assert "This synthweave note concerns" in row["raw_text"]
        assert "this synthweave note concerns" not in row["cleaned_text"].lower()


def test_dense_pipeline_runs_offline(tmp_path):
    config = _config(tmp_path, pipeline="dense", iterations=1, sample_size=6)
    report = run_experiment(config)
    assert report["iterations_run"] == 1


def test_rerank_pipeline_runs_offline(tmp_path):
    config = _config(tmp_path, pipeline="bm25+rerank", iterations=1,
                     sample_size=6, rerank_depth=20)
    report = run_experiment(config)
    assert report["iterations_run"] == 1


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return refuse


def test_dense_run_never_feeds_a_bm25_index(tmp_path, monkeypatch):
    monkeypatch.setattr(InvertedIndex, "add", _refuse("InvertedIndex.add"))
    config = _config(tmp_path, pipeline="dense+rerank", iterations=2,
                     sample_size=6, rerank_depth=20)
    assert run_experiment(config)["iterations_run"] == 2


def test_bm25_run_never_embeds(tmp_path, monkeypatch):
    monkeypatch.setattr(ExperimentConfig, "build_embedder",
                        _refuse("build_embedder"))
    monkeypatch.setattr(VectorIndex, "add_documents",
                        _refuse("VectorIndex.add_documents"))
    config = _config(tmp_path, iterations=2, sample_size=6)
    assert run_experiment(config)["iterations_run"] == 2


# ---- series emission -----------------------------------------------------------

def test_emit_plot_series_files(tmp_path):
    config = _config(tmp_path)
    run_experiment(config)
    paths = emit_plot_series(config.output_dir)
    names = {p.name for p in paths}
    assert names == {"series_accuracy.tsv", "series_source_share.tsv",
                     "series_dominance.tsv", "series_self_bleu.tsv",
                     "series_transitions.tsv", "series_context_right.tsv",
                     "series_first_right.tsv"}
    share = (Path(config.output_dir) / "series" /
             "series_source_share.tsv").read_text().splitlines()
    assert share[0].split("\t")[0] == "iteration"
    assert len(share) == 1 + 3  # header + baseline + 2 iterations


def test_emit_plot_series_warns_on_missing_iteration(tmp_path, caplog):
    config = _config(tmp_path)
    run_experiment(config)
    (Path(config.output_dir) / "iterations" / "iter-01" / "metrics.json").unlink()
    with caplog.at_level("WARNING"):
        emit_plot_series(config.output_dir)
    assert any("missing iterations" in r.message for r in caplog.records)


def test_emit_plot_series_corrupted_metrics_names_file(tmp_path):
    config = _config(tmp_path)
    run_experiment(config)
    bad = Path(config.output_dir) / "iterations" / "iter-02" / "metrics.json"
    bad.write_text("{not json")
    with pytest.raises(RagLoopError, match="iter-02"):
        emit_plot_series(config.output_dir)


def test_single_iteration_series(tmp_path):
    config = _config(tmp_path, iterations=1)
    run_experiment(config)
    paths = emit_plot_series(config.output_dir)
    accuracy = next(p for p in paths if p.name == "series_accuracy.tsv")
    assert len(accuracy.read_text().splitlines()) == 3  # header + iters 0..1
