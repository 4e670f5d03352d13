"""Workload definitions and seeded input synthesis for the benchmark.

The inputs are made here, apart from the program: a query set and a human
seed corpus in the formats `ragloop` reads, plus the experiment config that
points at them. The same seed gives byte-identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

# The style marker every offline and stub generator puts into its text; the
# marker detector and the source-filter check both key on it.
STYLE_MARKER = "synthweave"

# remote-stub only: queries whose chat requests the stub answers with 429 on
# the first attempt. Their text does not depend on the seed, so the share of
# failed tasks is the same for every seed.
FAULT_QUERIES = (
    {"query_id": "qfault0", "question": "what is the retry of the zqfault0 site",
     "answers": ["zanswfault0"], "topic": "zqfault0", "relation": "retry"},
    {"query_id": "qfault1", "question": "what is the retry of the zqfault1 site",
     "answers": ["zanswfault1"], "topic": "zqfault1", "relation": "retry"},
)
FAULT_TOKEN = "zqfault"

GENERATORS = ("gen-a", "gen-b")

_SUBJECTS = ("harbor", "glacier", "orchard", "archive", "festival", "bridge",
             "observatory", "reservoir", "cathedral", "workshop", "meadow",
             "lighthouse", "quarry", "terrace", "garrison", "monastery")
_RELATIONS = ("origin", "founder", "location", "purpose", "height", "custom",
              "charter", "patron", "climate", "harvest")
_FILLER = ("the district kept careful ledgers about trade and seasonal work "
           "while travelling scholars described local habits in long letters "
           "that survive in several archives and mention markets roads mills "
           "ferries and the slow growth of nearby villages over many decades "
           "with notes on weather prices guilds and river crossings").split()


@dataclass(frozen=True)
class Workload:
    name: str
    docs: int
    queries: int
    iterations: int
    pipeline: str
    filter_mode: str
    remote: bool = False


# Each simulation is sized to a few seconds, so that one run of the benchmark
# holds several of them and reports their median: single simulations on a
# shared 2-core machine swing by a fifth from one to the next.
WORKLOADS = {w.name: w for w in (
    # The paper's headline loop: BM25 over a corpus that takes generated text
    # back every iteration. Self-BLEU, BM25 search and cleaning do the work.
    Workload("spiral-bm25", docs=2500, queries=60, iterations=10,
             pipeline="bm25", filter_mode="none"),
    # Hashed embedder, exact vector search, lexical rerank and first-correct
    # scans over 100-deep lists; BM25 is built and fed but never searched.
    Workload("dense-rerank", docs=1200, queries=24, iterations=6,
             pipeline="dense+rerank", filter_mode="none"),
    # The greedy diversity filter does nearly all the work; every other
    # module is nearly idle.
    Workload("diversity", docs=1200, queries=8, iterations=1,
             pipeline="bm25", filter_mode="diversity"),
    # All four remote clients against the local stub, which adds a fixed
    # latency to every request: waiting on replies dominates.
    Workload("remote-stub", docs=600, queries=24, iterations=3,
             pipeline="dense+rerank", filter_mode="source", remote=True),
)}


def _filler(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_FILLER) for _ in range(n))


def make_queries(workload: Workload, seed: int) -> list[dict]:
    rng = random.Random(f"queries:{workload.name}:{seed}")
    fixed = list(FAULT_QUERIES) if workload.remote else []
    out = []
    for i in range(workload.queries - len(fixed)):
        topic = f"{rng.choice(_SUBJECTS)}{seed % 1000}x{i}"
        relation = rng.choice(_RELATIONS)
        out.append({"query_id": f"q{i:04d}",
                    "question": f"what is the {relation} of the {topic} site",
                    "answers": [f"zansw{seed % 1000}x{i:04d}"],
                    "topic": topic, "relation": relation})
    return out + fixed


def make_corpus(workload: Workload, queries: list[dict], seed: int) -> list[dict]:
    """Two answer-bearing human documents per query, then topical filler."""
    rng = random.Random(f"corpus:{workload.name}:{seed}")
    docs = []
    for q in queries:
        for variant in range(2):
            text = (f"Notes on the {q['topic']} site describe its "
                    f"{q['relation']} at length. Historians record that the "
                    f"{q['relation']} is {q['answers'][0]} according to "
                    f"surviving documents. {_filler(rng, rng.randint(70, 110))}.")
            docs.append({"doc_id": f"human-{len(docs):05d}",
                         "title": f"{q['topic']} study {variant}", "text": text})
    while len(docs) < workload.docs:
        text = (f"General account of a {rng.choice(_SUBJECTS)} and its "
                f"surroundings. {_filler(rng, rng.randint(80, 130))}.")
        docs.append({"doc_id": f"human-{len(docs):05d}", "text": text})
    return docs


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows),
                    encoding="utf-8")


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write queries.jsonl and corpus.jsonl; return their paths and sha256."""
    out_dir.mkdir(parents=True, exist_ok=True)
    queries = make_queries(workload, seed)
    corpus = make_corpus(workload, queries, seed)
    query_path = out_dir / "queries.jsonl"
    corpus_path = out_dir / "corpus.jsonl"
    _write_jsonl(query_path, [{k: q[k] for k in ("query_id", "question", "answers")}
                              for q in queries])
    _write_jsonl(corpus_path, corpus)
    digest = hashlib.sha256(query_path.read_bytes() + corpus_path.read_bytes())
    return {"queries": str(query_path), "corpus": str(corpus_path),
            "inputs_sha256": digest.hexdigest()}


def make_config(workload: Workload, seed: int, inputs: dict, output_dir: Path,
                stub_url: str = "", nproc: int = 1) -> dict:
    """The experiment config mapping handed to the program."""
    config = {
        "seed_corpus": inputs["corpus"], "query_set": inputs["queries"],
        "output_dir": str(output_dir), "pipeline": workload.pipeline,
        "sample_size": workload.queries, "iterations": workload.iterations,
        "seed": seed, "filter_mode": workload.filter_mode,
        "offline": not workload.remote,
    }
    if workload.remote:
        config.update({
            "generators": [{"name": n, "kind": "remote", "model": n,
                            "endpoint": f"{stub_url}/v1/chat"} for n in GENERATORS],
            "embedding_endpoint": f"{stub_url}/v1/embeddings",
            "embedding_model": "stub-embed",
            "rerank_endpoint": f"{stub_url}/v1/score",
            "rerank_model": "stub-score",
            "detector_endpoint": f"{stub_url}/v1/detect",
            "max_in_flight": nproc,
        })
    else:
        config["generators"] = [{"name": n, "kind": "synthetic", "accuracy": 0.8,
                                 "marker": STYLE_MARKER} for n in GENERATORS]
    return config
