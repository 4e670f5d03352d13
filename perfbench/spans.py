"""Span tracer that wraps `ragloop`'s public functions from outside.

Every wrapped call is a span: its self time (duration minus the time its
traced children cover) is added to the span's metric, keyed by the phase
the run is in (setup, iter-00, injection, iter-01, ..., report). Coarse
spans are also kept as records (id, name, start, end, parent id, phase)
and written out when the run ends; the hottest calls (`em`, called tens of
thousands of times per phase) add to the totals only. `tokenize` and the
filter's Self-BLEU calls are counted, not timed, so their time stays with
the module that called them.

Nothing here is imported by the program; the worker installs it before the
simulation starts.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

SETUP = "setup"


class _ThreadState:
    __slots__ = ("stack", "self_s", "counts", "spans", "top")

    def __init__(self) -> None:
        self.stack: list[list] = []          # [span id, child seconds]
        self.self_s: dict = defaultdict(float)   # (metric, phase) -> seconds
        self.counts: dict = defaultdict(int)     # (metric, phase) -> count
        self.spans: list[tuple] = []
        self.top: list[tuple[float, float]] = []  # outermost span intervals


class Tracer:
    def __init__(self) -> None:
        self.phase = SETUP
        self.maxima: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._threads.append(st)
        return st

    def count(self, metric: str, n: int = 1) -> None:
        self._state().counts[(metric, self.phase)] += n

    def set_max(self, metric: str, value: int) -> None:
        with self._lock:
            self.maxima[metric] = max(self.maxima.get(metric, 0), value)

    def wrap(self, fn, metric: str, record: bool = True, after=None,
             failed: tuple = ()):
        """Wrap fn as a span of `metric`, also counting `<metric>.calls`.

        `after(args, kwargs, result)` adds counts taken from a call's
        result; `failed` is (exception types, count metric), and a raise of
        one of those types adds one to that count before propagating.
        """
        tracer = self
        perf = time.perf_counter
        fail_types, fail_metric = failed if failed else ((), "")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            span_id = next(tracer._ids) if record else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except fail_types:
                tracer.count(fail_metric)
                raise
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                else:
                    st.top.append((start, end))
                phase = tracer.phase
                st.self_s[(metric, phase)] += dur - frame[1]
                st.counts[(metric + ".calls", phase)] += 1
                if record:
                    parent = stack[-1][0] if stack else 0
                    st.spans.append((span_id, metric, start, end, parent, phase))
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counter(self, fn, metric: str):
        """Count calls of fn without timing them."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(metric)
            return fn(*args, **kwargs)

        return wrapper

    def mark_phase(self, fn, label):
        """Set the phase label (label(args) gives it) before fn runs."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.phase = label(args)
            return fn(*args, **kwargs)

        return wrapper

    # ---- results -------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """(seconds by (metric, phase), counts by (metric, phase))."""
        seconds: dict = defaultdict(float)
        counts: dict = defaultdict(int)
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for key, value in st.self_s.items():
                seconds[key] += value
            for key, value in st.counts.items():
                counts[key] += value
        return dict(seconds), dict(counts)

    def covered_seconds(self, start: float, end: float) -> float:
        """Length of the union of outermost spans inside [start, end]."""
        with self._lock:
            intervals = sorted(iv for st in self._threads for iv in st.top)
        covered = 0.0
        cur_start = cur_end = None
        for s, e in intervals:
            s, e = max(s, start), min(e, end)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            else:
                cur_end = max(cur_end, e)
        if cur_end is not None:
            covered += cur_end - cur_start
        return covered

    def write_spans(self, path) -> int:
        with self._lock:
            spans = sorted(sp for st in self._threads for sp in st.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, phase in spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "phase": phase}) + "\n")
        return len(spans)


def install(tracer: Tracer, ragloop_modules: dict) -> None:
    """Patch the functions each module looks up at call time."""
    m = ragloop_modules
    runner, retrieval, metrics = m["runner"], m["retrieval"], m["metrics"]
    rerank, filters, generation = m["rerank"], m["filters"], m["generation"]
    postprocess, remote, errors = m["postprocess"], m["remote"], m["errors"]

    # retrieval
    runner.search_bm25 = tracer.wrap(runner.search_bm25, "retrieval.search")
    runner.search_dense = tracer.wrap(runner.search_dense, "retrieval.search")
    retrieval.InvertedIndex.add = tracer.wrap(retrieval.InvertedIndex.add,
                                              "retrieval.index_add")
    retrieval.VectorIndex.add_documents = tracer.wrap(
        retrieval.VectorIndex.add_documents, "retrieval.index_add")

    def embedded(args, kwargs, result):
        tracer.count("retrieval.embed_texts", len(result))

    for cls in (retrieval.HashedEmbedder, retrieval.RemoteEmbeddingClient):
        cls.embed = tracer.wrap(cls.embed, "retrieval.embed", after=embedded)
    tokenize = tracer.counter(retrieval.tokenize, "retrieval.tokenize_calls")
    for mod in (retrieval, metrics, rerank, generation, runner):
        mod.tokenize = tokenize

    # rerank
    def reranked(args, kwargs, outcome):
        # the runner calls rerank(backend, query, candidates, depth=...)
        tracer.count("rerank.passages", min(kwargs["depth"], len(args[2].entries)))
        tracer.count("rerank.passed_through", int(outcome.passed_through))

    runner.rerank = tracer.wrap(runner.rerank, "rerank.rerank", after=reranked)

    # filters
    def diversified(args, kwargs, result):
        tracer.count("filters.diversity_removals", result.removals)
        tracer.count("filters.diversity_exhausted", int(result.exhausted))

    def source_filtered(args, kwargs, result):
        tracer.count("filters.source_shortfall", int(result.shortfall))

    runner.diversity_filter = tracer.wrap(runner.diversity_filter,
                                          "filters.diversity", after=diversified)
    runner.source_filter = tracer.wrap(runner.source_filter, "filters.source",
                                       after=source_filtered)
    filters.self_bleu = tracer.counter(filters.self_bleu,
                                       "filters.diversity_self_bleu_calls")

    # metrics
    metrics.self_bleu = tracer.wrap(metrics.self_bleu, "metrics.self_bleu")
    em = tracer.wrap(metrics.em, "metrics.em", record=False)
    metrics.em = generation.em = em
    for name in ("first_right_ranks", "acc_at_k", "context_right_num"):
        setattr(metrics, name, tracer.wrap(getattr(metrics, name),
                                           f"metrics.{name}"))

    # postprocess
    postprocess.clean = tracer.wrap(postprocess.clean, "postprocess.clean")

    # generation
    runner.generate = tracer.wrap(
        runner.generate, "generation.generate",
        failed=(errors.GenerationFailure, "generation.failed"))

    # corpus
    runner.ingest_seed_corpus = tracer.wrap(runner.ingest_seed_corpus,
                                            "corpus.ingest")

    def committed(args, kwargs, snapshot):
        tracer.set_max("corpus.docs_final", len(snapshot))

    runner.add_documents = tracer.wrap(runner.add_documents,
                                       "corpus.add_documents", after=committed)

    # runner persistence: serialisation and the atomic file write
    def persisted(args, kwargs, result):
        tracer.count("runner.persist_bytes", len(args[1].encode("utf-8")))

    runner._atomic_write = tracer.wrap(runner._atomic_write, "runner.persist",
                                       after=persisted)
    runner.write_jsonl = tracer.wrap(runner.write_jsonl, "runner.persist")
    runner.write_json = tracer.wrap(runner.write_json, "runner.persist")

    # remote: each client module imported the helper by name
    post = tracer.wrap(remote.post_json_with_retries, "remote.post",
                       failed=(errors.RemoteServiceError, "remote.failed"))
    for mod in (generation, retrieval, rerank, filters):
        mod.post_json_with_retries = post
    remote.requests = _CountingRequests(remote.requests, tracer)

    # phase labels
    runner_cls = runner.ExperimentRunner
    runner_cls._run_phase = tracer.mark_phase(
        runner_cls._run_phase, lambda args: f"iter-{args[1]:02d}")
    runner_cls.inject_zero_shot = tracer.mark_phase(
        runner_cls.inject_zero_shot, lambda args: "injection")
    runner.write_summary = tracer.mark_phase(runner.write_summary,
                                             lambda args: "report")


class _CountingRequests:
    """Stands in for the `requests` module inside `ragloop.remote` and
    counts each HTTP request it sends."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer

    def post(self, *args, **kwargs):
        self._tracer.count("remote.http_requests")
        return self._module.post(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._module, name)
