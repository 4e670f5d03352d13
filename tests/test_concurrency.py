"""The lazy caches that pooled retrieval reads from several threads:
searches that race right after an addition, and first reads of the token
and embedding memos, must give exactly what a serial caller gets."""

from __future__ import annotations

import random
import sys
import threading

import numpy as np

from conftest import human_doc, snapshot_of
from ragloop.retrieval import HashedEmbedder, InvertedIndex, VectorIndex, tokenize

THREADS = 8        # more than this machine's cores
ROUNDS = 30
VOCAB = [f"w{i}" for i in range(60)]


def _race(calls: list) -> list:
    """Run every zero-argument call on its own thread, all released at
    once with a short switch interval; results in call order."""
    results: list = [None] * len(calls)
    errors: list[BaseException] = []
    barrier = threading.Barrier(len(calls))

    def run(i: int) -> None:
        try:
            barrier.wait(timeout=10)
            results[i] = calls[i]()
        except BaseException as exc:  # re-raised below in the test thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    return results


def _docs(rng: random.Random, start: int, n: int):
    return [human_doc(f"d{start + i:05d}",
                      " ".join(rng.choice(VOCAB) for _ in range(rng.randint(5, 30))))
            for i in range(n)]


def test_vector_searches_racing_after_add_match_serial():
    rng = random.Random(5)
    index = VectorIndex()
    queries = [np.array([rng.gauss(0, 1) for _ in range(16)]) for _ in range(THREADS)]
    for r in range(ROUNDS):
        index.add_vectors([(f"v{r:03d}-{i:03d}",
                            np.array([rng.gauss(0, 1) for _ in range(16)]))
                           for i in range(40)])
        raced = _race([lambda q=q: index.search_vector(q, 10) for q in queries])
        assert raced == [index.search_vector(q, 10) for q in queries]


def test_bm25_searches_racing_after_add_match_serial():
    rng = random.Random(6)
    index = InvertedIndex()
    queries = [" ".join(rng.sample(VOCAB, 3)) for _ in range(THREADS)]
    for r in range(ROUNDS):
        index.add(_docs(rng, r * 40, 40))
        raced = _race([lambda q=q: index.search_all([q], 10)[0] for q in queries])
        assert raced == [index.search_all([q], 10)[0] for q in queries]


def test_first_token_reads_racing_match_tokenize():
    rng = random.Random(7)
    docs = _docs(rng, 0, 200)
    snap = snapshot_of(docs)
    raced = _race([lambda: [snap.tokens(d.doc_id) for d in docs]
                   for _ in range(THREADS)])
    want = [tuple(tokenize(d.text)) for d in docs]
    assert all(got == want for got in raced)
    # one interned object per distinct token, whichever thread filled it
    seen: dict[str, str] = {}
    for toks in raced[0]:
        for t in toks:
            assert seen.setdefault(t, t) is t


def test_first_embeddings_racing_match_a_fresh_embedder():
    rng = random.Random(8)
    texts = [d.text for d in _docs(rng, 0, 50)]
    shared = HashedEmbedder(dim=32, seed=3)
    raced = _race([lambda: shared.embed(texts) for _ in range(THREADS)])
    want = HashedEmbedder(dim=32, seed=3).embed(texts)
    for got in raced:
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
