"""Deterministic synthetic corpora and query sets for offline runs.

Each query gets a unique answer token and a couple of human documents that
contain it, embedded in a larger pool of topical filler documents. This is
enough signal for BM25 to retrieve sensibly while every byte stays
reproducible from the seed.
"""

from __future__ import annotations

import random
from pathlib import Path

from .errors import RagLoopError
from .runner import write_jsonl

_SUBJECTS = ("harbor", "glacier", "orchard", "archive", "festival", "bridge",
             "observatory", "reservoir", "cathedral", "workshop", "meadow",
             "lighthouse", "quarry", "terrace", "garrison", "monastery")
_RELATIONS = ("origin", "founder", "location", "purpose", "height", "custom",
              "charter", "patron", "climate", "harvest")
_FILLER = ("the region kept detailed ledgers about trade and seasonal labor "
           "while visiting scholars described local customs in long letters "
           "that survive in several collections and mention markets roads "
           "mills and the slow growth of nearby settlements over decades").split()


def make_queries(num_queries: int, seed: int = 0) -> list[dict]:
    rng = random.Random(seed)
    queries = []
    for i in range(num_queries):
        qid = f"q{i:04d}"
        subject = rng.choice(_SUBJECTS)
        relation = rng.choice(_RELATIONS)
        topic = f"{subject}{i}"
        question = f"what is the {relation} of the {topic} site"
        answer = f"zansw{i:04d}"
        queries.append({"query_id": qid, "question": question,
                        "answers": [answer], "topic": topic,
                        "relation": relation})
    return queries


def make_seed_corpus(num_docs: int, queries: list[dict],
                     seed: int = 0) -> list[dict]:
    """Human documents: two answer-bearing passages per query, the rest
    topical filler. Requires num_docs >= 2 * len(queries)."""
    if num_docs < 2 * len(queries):
        raise RagLoopError("need at least two seed documents per query")
    rng = random.Random(seed + 1)
    docs = []

    def filler(n: int) -> str:
        return " ".join(rng.choice(_FILLER) for _ in range(n))

    doc_no = 0
    for q in queries:
        for variant in range(2):
            text = (f"Notes on the {q['topic']} site describe its {q['relation']} "
                    f"at length. Historians record that the {q['relation']} is "
                    f"{q['answers'][0]} according to surviving documents. "
                    f"{filler(rng.randint(70, 110))}.")
            docs.append({"doc_id": f"human-{doc_no:05d}",
                         "title": f"{q['topic']} study {variant}",
                         "text": text})
            doc_no += 1
    while doc_no < num_docs:
        subject = rng.choice(_SUBJECTS)
        text = (f"General account of a {subject} and its surroundings. "
                f"{filler(rng.randint(80, 130))}.")
        docs.append({"doc_id": f"human-{doc_no:05d}", "text": text})
        doc_no += 1
    return docs


def write_demo_dataset(out_dir: str | Path, num_docs: int = 500,
                       num_queries: int = 50, seed: int = 0) -> tuple[Path, Path]:
    """Write corpus.jsonl and queries.jsonl under out_dir; returns the paths."""
    queries = make_queries(num_queries, seed=seed)
    corpus_path = Path(out_dir) / "corpus.jsonl"
    query_path = Path(out_dir) / "queries.jsonl"
    write_jsonl(corpus_path, make_seed_corpus(num_docs, queries, seed=seed))
    write_jsonl(query_path, [{k: q[k] for k in ("query_id", "question", "answers")}
                             for q in queries])
    return corpus_path, query_path
