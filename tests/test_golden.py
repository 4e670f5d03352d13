"""Golden artifacts: small offline runs must reproduce pinned bytes.

Offline runs are deterministic, so a change that only makes the program
faster leaves every file of a run directory byte-identical. Each digest
covers every file's relative path and bytes; the config hash is masked
because it covers the input paths, which differ per temporary directory.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from ragloop.config import parse_config_mapping
from ragloop.runner import run_experiment
from ragloop.synthdata import write_demo_dataset

GOLDEN = {
    "bm25-diversity": (
        {"pipeline": "bm25", "filter_mode": "diversity", "sample_size": 6,
         "iterations": 2, "retrieval_depth": 25},
        "596f41ca8171bea0fad285efa4a71094f83ebd4a28ed9870fb58e854bc8122c9"),
    "dense-rerank": (
        {"pipeline": "dense+rerank", "sample_size": 12, "iterations": 3,
         "retrieval_depth": 40, "rerank_depth": 20},
        "f7c14096cd10e11a8013d1b80d3f20e222826b283ce98662f5bbacd32a0498bf"),
    # no benchmark workload runs misinformation, the judge or a schedule
    "misinfo-judge-source": (
        {"pipeline": "bm25", "filter_mode": "source", "misinfo": True,
         "grade_with_judge": True, "sample_size": 8, "iterations": 2,
         "retrieval_depth": 25},
        "091f587acf163d59643b1e4a2c56a796ae73120733ce2d105985b3b26c5926b4"),
    "schedule-rerank-judge": (
        {"pipeline": "bm25+rerank", "grade_with_judge": True,
         "judge_generator": "gen-b", "sample_size": 6, "iterations": 3,
         "retrieval_depth": 25, "rerank_depth": 10,
         "schedule": [{"iterations": "1-2", "generators": ["gen-a"]},
                      {"iterations": "3", "generators": ["gen-a", "gen-b"]}]},
        "f92128fff7f7d9e6ab801e82f1c65d164ad7eca508bf1eb88315e30fa3147f3b"),
}


def run_digest(run_dir: Path) -> str:
    config_hash = json.loads((run_dir / "manifest.json").read_text())["config_hash"]
    digest = hashlib.sha256()
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        digest.update(path.relative_to(run_dir).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes().replace(config_hash.encode(), b"<config>"))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_offline_run_matches_golden_digest(tmp_path, name):
    overrides, want = GOLDEN[name]
    corpus, queries = write_demo_dataset(tmp_path / "data", num_docs=150,
                                         num_queries=12, seed=5)
    config = parse_config_mapping({
        "seed_corpus": str(corpus), "query_set": str(queries),
        "output_dir": str(tmp_path / name), "seed": 13, "offline": True,
        "generators": [
            {"name": "gen-a", "kind": "synthetic", "accuracy": 0.8},
            {"name": "gen-b", "kind": "synthetic", "accuracy": 0.8},
        ],
        **overrides,
    })
    run_experiment(config)
    assert run_digest(tmp_path / name) == want
