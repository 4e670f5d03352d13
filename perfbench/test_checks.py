"""Self-test of the benchmark's output checks: small correct runs pass them,
and each kind of corrupted artifact fails them. Runs in seconds."""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ragloop.config import parse_config_mapping  # noqa: E402
from ragloop.runner import run_experiment  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS, make_config, write_inputs  # noqa: E402

SEED = 7
QUERIES = 8
SMALL = {"docs": 150, "queries": QUERIES, "iterations": 2}
VARIANTS = {
    "bm25": dataclasses.replace(WORKLOADS["spiral-bm25"], name="tiny-bm25", **SMALL),
    "rerank-source": dataclasses.replace(WORKLOADS["dense-rerank"], name="tiny-source",
                                         filter_mode="source", **SMALL),
    "diversity": dataclasses.replace(WORKLOADS["diversity"], name="tiny-diversity",
                                     **{**SMALL, "iterations": 1}),
}
INJECTED = [f"gen-a-it1-q{i:04d}" for i in range(5)]


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    runs = {}
    for key, workload in VARIANTS.items():
        root = tmp_path_factory.mktemp(key)
        inputs = write_inputs(workload, SEED, root / "inputs")
        config = make_config(workload, SEED, inputs, root / "run")
        run_experiment(parse_config_mapping(config), resume=False)
        runs[key] = (root / "run", inputs, config)
    return runs


def _edit(path: Path, edit) -> None:
    if path.suffix == ".jsonl":
        rows = checks.read_jsonl(path)
        edit(rows)
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    else:
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))


def _bump_top_scores(rows):
    for row in rows:
        row["entries"][0][1] += 0.5


def _flip_em(rows):
    rows[0]["em"] = 1 - rows[0]["em"]


def _shift_first_right(rows):
    rows[0]["first_right_any"] = (rows[0]["first_right_any"] or 0) + 1


def _generated_context(rows):
    for row in rows:
        row.update(doc_ids=INJECTED, shortfall=False, exhausted=False,
                   fallback_unfiltered=False)


# (variant, artifact, edit): each edit must make the checks fail
CORRUPTIONS = {
    "dominance": ("bm25", "iterations/iter-01/metrics.json",
                  lambda o: o["metrics"].update(dominance_p=o["metrics"]["dominance_p"] + 1)),
    "self_bleu": ("bm25", "iterations/iter-00/metrics.json",
                  lambda o: o["metrics"].update(self_bleu_top5=0.5)),
    "bm25_score": ("bm25", "iterations/iter-00/ranked.jsonl", _bump_top_scores),
    "em": ("bm25", "iterations/iter-01/generations.jsonl", _flip_em),
    "first_right": ("bm25", "iterations/iter-02/records.jsonl", _shift_first_right),
    "lost_addition": ("bm25", "iterations/iter-01/additions.jsonl", lambda rows: rows.pop()),
    "manifest": ("bm25", "manifest.json", lambda o: o.update(status="running")),
    "rerank_score": ("rerank-source", "iterations/iter-01/ranked.jsonl", _bump_top_scores),
    "source_context": ("rerank-source", "iterations/iter-02/contexts.jsonl",
                       _generated_context),
    "diversity_context": ("diversity", "iterations/iter-01/contexts.jsonl",
                          _generated_context),
}


@pytest.mark.parametrize("key", sorted(VARIANTS))
def test_correct_run_passes(tiny_runs, key):
    run_dir, inputs, config = tiny_runs[key]
    bad, attempted, failed = checks.check_run(run_dir, inputs, config,
                                              VARIANTS[key], SEED)
    assert bad == []
    assert (attempted, failed) == (QUERIES * 2 * (VARIANTS[key].iterations + 2), 0)


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_artifact_fails(tiny_runs, tmp_path, name):
    key, rel, edit = CORRUPTIONS[name]
    run_dir, inputs, config = tiny_runs[key]
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    _edit(copy / rel, edit)
    bad, _, _ = checks.check_run(copy, inputs, config, VARIANTS[key], SEED)
    assert bad, f"corrupting {rel} went unnoticed"
    assert checks.artifact_sha256(copy) != checks.artifact_sha256(run_dir)
