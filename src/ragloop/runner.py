"""End-to-end experiment orchestration.

A run is: baseline measurement over the human corpus, zero-shot (or
misinformation) injection, then t retrieve-generate-commit iterations.
Every phase persists line-delimited artifacts under its own directory and
marks completion by writing its metrics file last, which makes interrupted
runs resumable from the last committed iteration.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from . import metrics as M
from . import postprocess
from .config import ExperimentConfig, QueryRecord, ensure_valid, load_query_set
from .corpus import (Document, SourceTag, add_documents, generated_doc_id,
                     ingest_seed_corpus)
from .errors import GenerationFailure, RagLoopError
from .generation import (CONTEXT_SIZE, WITH_CONTEXTS, ZERO_SHOT,
                         GenerationRecord, GenerationRequest, MisinfoSpec,
                         build_prompt, derive_seed, generate,
                         generate_false_answers, generate_mis_passage,
                         judge_support)
from .filters import (FilterResult, diversity_filter, label_documents,
                      source_filter)
from .rerank import rerank
from .retrieval import (InvertedIndex, RankedList, VectorIndex, search_bm25,
                        search_dense, tokenize)

logger = logging.getLogger(__name__)

METRICS_FILE = "metrics.json"
RANKED_FILE = "ranked.jsonl"
CONTEXTS_FILE = "contexts.jsonl"
GENERATIONS_FILE = "generations.jsonl"
RECORDS_FILE = "records.jsonl"
ADDITIONS_FILE = "additions.jsonl"
INJECTION_META_FILE = "meta.json"
MISINFO_FILE = "misinfo.jsonl"
MANIFEST_FILE = "manifest.json"
SUMMARY_FILE = "summary.tsv"
ALL_METRICS_FILE = "metrics.jsonl"

SUMMARY_COLUMNS = ("iteration", "acc_at_5", "acc_at_20", "em_mean",
                   "dominance_p", "self_bleu_top5", "human_share_top50",
                   "t01", "t10")


# ---- small persistence helpers ------------------------------------------

def _atomic_write(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".tmp-{os.urandom(6).hex()}"
    # created as open() creates files, so the umask alone sets the mode
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_jsonl(path: Path, rows: list[dict]) -> None:
    lines = [json.dumps(r, sort_keys=True, ensure_ascii=False) for r in rows]
    _atomic_write(path, "".join(line + "\n" for line in lines))


def _parsed(where, load):
    """`load()`; a file it cannot read or parse is an error naming `where`."""
    try:
        return load()
    except (AttributeError, KeyError, OSError, TypeError, ValueError) as exc:
        raise RagLoopError(f"corrupted run file {where}: {exc}") from exc


def read_json(path: Path, parse=lambda obj: obj):
    """`parse` of the JSON document in `path`."""
    return _parsed(path, lambda: parse(json.loads(
        path.read_text(encoding="utf-8"))))


def read_jsonl(path: Path, parse=lambda row: row) -> list:
    """`parse` of each JSON line of `path`; errors name `path:line`."""
    text = _parsed(path, lambda: path.read_text(encoding="utf-8"))
    return [_parsed(f"{path}:{n}", lambda: parse(json.loads(line)))
            for n, line in enumerate(text.split("\n"), 1) if line.strip()]


def read_metrics(path: Path) -> tuple[str | None, M.IterationMetrics]:
    """The config hash and the metrics of a phase's metrics file."""
    return read_json(path, lambda meta: (
        meta.get("config_hash"), M.IterationMetrics(**meta["metrics"])))


def write_json(path: Path, obj: dict) -> None:
    _atomic_write(path, json.dumps(obj, sort_keys=True, ensure_ascii=False,
                                   indent=2) + "\n")


def doc_row(doc: Document) -> dict:
    """The run-file row of a document: its fields, with `source` nested."""
    return {**vars(doc), "source": vars(doc.source)}


def doc_from_row(row: dict) -> Document:
    """The document that `doc_row` turned into `row`."""
    return Document(**{**row, "source": SourceTag(**row["source"])})


def _generated_doc(gen_name: str, iteration: int, query_id: str,
                   text: str) -> Document:
    """A cleaned answer as the corpus document it becomes at `iteration`."""
    return Document(doc_id=generated_doc_id(gen_name, iteration, query_id),
                    text=text,
                    source=SourceTag(kind="generated", generator_name=gen_name),
                    origin_query_id=query_id, iteration_added=iteration)


# ---- query sampling -------------------------------------------------------

def sample_queries(records: list[QueryRecord], n: int,
                   seed: int) -> list[QueryRecord]:
    """Deterministic seeded sample, stable across runs and platforms."""
    if n >= len(records):
        return sorted(records, key=lambda r: r.query_id)

    def key(r: QueryRecord) -> str:
        return hashlib.sha256(f"{seed}:{r.query_id}".encode("utf-8")).hexdigest()

    chosen = sorted(records, key=key)[:n]
    return sorted(chosen, key=lambda r: r.query_id)


@dataclass
class IterationArtifacts:
    """Everything one phase produced, as returned to callers."""

    iteration: int
    ranked: dict[str, RankedList]
    contexts: dict[str, FilterResult]
    records: list[GenerationRecord]
    metrics: M.IterationMetrics


class ExperimentRunner:
    """Holds the evolving corpus, its index, backends, and caches for one run."""

    def __init__(self, config: ExperimentConfig):
        ensure_valid(config)
        self.config = config
        self.out_dir = Path(config.output_dir)
        self.config_hash = config.config_hash()
        all_queries = load_query_set(config.query_set)
        self.queries = sample_queries(all_queries, config.sample_size, config.seed)
        self.corpus = ingest_seed_corpus(config.seed_corpus)
        self.embedder = config.build_embedder() if config.uses_dense else None
        seed_docs = list(self.corpus.iter_documents())
        if config.uses_dense:
            # the injection and every iteration commit at most one document
            # per (query, generator): the buffer holds the run's bound
            self.index = VectorIndex(reserve=len(seed_docs) + len(self.queries)
                                     * len(config.generators)
                                     * (config.iterations + 1))
            self.index.add_documents(seed_docs, self.embedder)
        else:
            # one seed document's tokens at a time: the corpus tokenizes a
            # seed document again only when something reads it
            self.index = InvertedIndex()
            self.index.add(seed_docs)
        # questions never change, so a dense run embeds them once, here
        self.query_vecs = dict(zip(
            [q.query_id for q in self.queries],
            self.embedder.embed([q.question for q in self.queries]))) \
            if config.uses_dense else {}
        self.rerank_backend = config.build_rerank_backend() if \
            config.uses_rerank else None
        self.detector = config.build_detector() if \
            config.filter_mode == "source" else None
        self.generators = {g.name: config.build_generator(g)
                           for g in config.generators}
        # validate_config rejects a judge name that is not configured
        judge = config.judge_generator or config.generators[0].name
        self.judge = self.generators[judge] if config.grade_with_judge else None
        self.phrases = (postprocess.PhraseList.from_file(config.phrase_file)
                        if config.phrase_file else None)
        self.misinfo_specs: dict[str, MisinfoSpec] = {}
        # documents never change after commit, so each fact about one is
        # derived once: a rerank score per (query, doc_id), a label per
        # doc_id, and whether a document holds a query's answer per
        # (query, doc_id)
        self.rerank_scores: dict[str, dict[str, float]] = {
            q.query_id: {} for q in self.queries}
        self.labels: dict[str, bool] = {}
        self.contains: dict[str, dict[str, int]] = {
            q.query_id: {} for q in self.queries}

    # ---- shared helpers --------------------------------------------------

    def _iter_dir(self, iteration: int) -> Path:
        return self.out_dir / "iterations" / f"iter-{iteration:02d}"

    def _injection_dir(self) -> Path:
        return self.out_dir / "injection"

    def _search(self, iteration: int) -> dict[str, RankedList]:
        """Every query's candidates, in query order, from one search call."""
        depth = self.config.retrieval_depth
        if self.config.uses_dense:
            return search_dense(self.index, self.query_vecs, depth,
                                iteration=iteration)
        return search_bm25(self.index,
                           {q.query_id: q.question for q in self.queries},
                           depth, iteration=iteration)

    def _select(self, item: tuple[QueryRecord, RankedList]
                ) -> tuple[RankedList, FilterResult]:
        """One query's reranked candidates and the contexts kept from them."""
        query, ranked = item
        if self.rerank_backend is not None:
            ranked = rerank(self.rerank_backend, query.question, ranked,
                            depth=self.config.rerank_depth, corpus=self.corpus,
                            failure_policy=self.config.rerank_failure_policy,
                            scores=self.rerank_scores[query.query_id]).ranked
        mode = self.config.filter_mode
        if mode == "source":
            kept = source_filter(ranked, self.labels)
        elif mode == "diversity":
            kept = diversity_filter(ranked, self.corpus,
                                    threshold=self.config.diversity_threshold)
        else:
            kept = FilterResult(entries=list(ranked.entries[:CONTEXT_SIZE]))
        return ranked, kept

    def _commit(self, docs: list[Document],
                tokens: list[tuple[str, ...]] | None = None) -> None:
        """Append `docs` to the corpus and the index. `tokens`, each
        document's interned tokens, go to both; a BM25 run tokenizes
        documents that come without them here, once for both."""
        if self.config.uses_dense:
            add_documents(self.corpus, docs, tokens)
            self.index.add_documents(docs, self.embedder)
            return
        if tokens is None:
            tokens = [self.corpus.intern(tokenize(d.text)) for d in docs]
        add_documents(self.corpus, docs, tokens)
        self.index.add(docs, tokens)

    # ---- generation ------------------------------------------------------

    def _tasks(self, kind: str, iteration: int, specs,
               contexts: dict[str, FilterResult] | None = None) -> list[tuple]:
        """One (query, generator name, request) per query and generator, in
        (query_id, name) order, as `self.queries` is sorted by id; prompts
        fill their context slots from each query's kept contexts, and
        zero-shot prompts have none. Each request carries the stored tokens
        of its first kept context."""
        tasks = []
        for query in self.queries:
            kept = [] if contexts is None else contexts[query.query_id].entries
            texts = [self.corpus.get_text(e.doc_id) for e in kept]
            top_context = self.corpus.tokens(kept[0].doc_id) if kept else ()
            padded = (texts + [""] * CONTEXT_SIZE)[:CONTEXT_SIZE]
            prompt = build_prompt(kind, query.question, contexts=padded)
            for spec in sorted(specs, key=lambda s: s.name):
                request = GenerationRequest(
                    prompt=prompt, kind=kind, query_id=query.query_id,
                    iteration=iteration, query=query.question,
                    gold_answers=list(query.answers), top_context=top_context)
                tasks.append((query, spec.name, request))
        return tasks

    def _map(self, fn, items: list) -> list:
        """`fn` over `items`, results in item order: on a pool of
        `max_in_flight` threads when that exceeds 1, else in a plain loop.
        The first exception in item order propagates after the running
        calls finish; calls not yet started are cancelled."""
        if self.config.max_in_flight > 1:
            with ThreadPoolExecutor(max_workers=self.config.max_in_flight) as pool:
                return list(pool.map(fn, items))
        return [fn(item) for item in items]

    def _answer(self, task: tuple) -> tuple[str, str] | None:
        """The raw and cleaned answer of one task; None when generation fails."""
        query, gen_name, request = task
        try:
            raw = generate(self.generators[gen_name], request)
        except GenerationFailure as exc:
            logger.warning("generation failed for query %s / %s: %s",
                           query.query_id, gen_name, exc)
            return None
        return raw, postprocess.clean(raw, self.phrases)

    def _record(self, task: tuple
                ) -> tuple[GenerationRecord, tuple[str, ...]] | None:
        """Generate, clean and grade one task: its record and the cleaned
        answer's interned tokens, which every grade reads and a commit
        hands on; None when generation fails."""
        answer = self._answer(task)
        if answer is None:
            return None
        query, gen_name, request = task
        raw, cleaned = answer
        tokens = self.corpus.intern(tokenize(cleaned))
        em_value, em_llm_value = self._grade(query, query.answers, cleaned,
                                             tokens)
        spec = self.misinfo_specs.get(query.query_id)
        em_false, em_llm_false = (None, None) if spec is None else \
            self._grade(query, [spec.chosen_false_answer], cleaned, tokens)
        return GenerationRecord(
            query_id=query.query_id, iteration=request.iteration,
            generator_name=gen_name, raw_text=raw, cleaned_text=cleaned,
            em=em_value, em_llm=em_llm_value, em_false=em_false,
            em_llm_false=em_llm_false), tokens

    def _grade(self, query: QueryRecord, answers: list[str], cleaned: str,
               tokens: tuple[str, ...]) -> tuple[int, int | None]:
        """Containment of any of `answers` in `cleaned`, whose tokens are
        `tokens`, and with a judge its verdict on the first contained
        answer; None when the judge cannot be reached."""
        hit = M.em(answers, tokens)
        if self.judge is None or hit == 0:
            return hit, (None if self.judge is None else 0)
        matched = next(a for a in answers if M.em([a], tokens) == 1)
        try:
            verdict, _ = judge_support(self.judge, query.question, cleaned,
                                       matched)
        except GenerationFailure as exc:
            logger.warning("judge failed for query %s; em_llm not recorded: "
                           "%s", query.query_id, exc)
            return hit, None
        return hit, M.em_llm(hit, verdict)

    # ---- phases ----------------------------------------------------------

    def _run_phase(self, iteration: int, em_prev: dict | None
                   ) -> tuple[IterationArtifacts, list[Document],
                              list[tuple[str, ...]]]:
        """One retrieve-filter-generate-grade pass; returns artifacts plus
        the cleaned documents ready for commit and their tokens (both
        empty at baseline).

        Searches and the one detector request run on this thread, so that
        every request payload is a function of the seed at any
        `max_in_flight`; the pool runs each query's rerank requests."""
        searched = self._search(iteration)
        if self.detector is not None:
            label_documents(self.detector, [e.doc_id for rl in searched.values()
                                            for e in rl.entries],
                            self.corpus, self.labels)
        ranked, contexts, scans = {}, {}, {}
        for query, (rl, kept) in zip(self.queries, self._map(
                self._select, list(zip(self.queries, searched.values())))):
            qid, answers = query.query_id, query.answers
            ranked[qid], contexts[qid] = rl, kept
            # the containment scans wait on no remote call: they stay off
            # the pool, where they would only contend for the GIL
            contains = self.contains[qid]
            first_any, first_human = M.first_right_ranks(
                rl, answers, self.corpus, contains)
            scans[qid] = {
                "context_right_num": M.context_right_num(
                    rl, answers, self.corpus, contains),
                "first_right_any": first_any, "first_right_human": first_human}

        specs = (self.config.generators_for_iteration(iteration)
                 if iteration >= 1 else list(self.config.generators))
        tasks = self._tasks(WITH_CONTEXTS, iteration, specs, contexts)
        graded = [r for r in self._map(self._record, tasks) if r is not None]
        records = [record for record, _ in graded]
        failures = len(tasks) - len(records)
        if tasks and failures / len(tasks) > self.config.max_failure_fraction:
            raise RagLoopError(
                f"iteration {iteration} aborted: {failures}/{len(tasks)} "
                f"generation tasks failed")

        new_docs = [_generated_doc(r.generator_name, iteration + 1, r.query_id,
                                   r.cleaned_text)
                    for r in records] if iteration >= 1 else []
        new_tokens = [tokens for _, tokens in graded] if iteration >= 1 else []
        eval_records = [M.EvalRecord(
            query_id=r.query_id, iteration=iteration,
            generator_name=r.generator_name, em=r.em, em_llm=r.em_llm,
            **scans[r.query_id]) for r in records]

        bundle = M.phase_metrics(iteration, ranked, scans, records, em_prev,
                                 self.corpus)
        artifacts = IterationArtifacts(
            iteration=iteration, ranked=ranked, contexts=contexts,
            records=records, metrics=bundle)
        self._persist_phase(iteration, artifacts, eval_records, new_docs)
        return artifacts, new_docs, new_tokens

    def _persist_phase(self, iteration: int, artifacts: IterationArtifacts,
                       eval_records: list[M.EvalRecord],
                       new_docs: list[Document]) -> None:
        phase_dir = self._iter_dir(iteration)
        # `_run_phase` fills `ranked` and `contexts` in query order
        write_jsonl(phase_dir / RANKED_FILE, [
            {"query_id": rl.query_id, "iteration": rl.iteration,
             "entries": rl.entries}
            for rl in artifacts.ranked.values()])
        write_jsonl(phase_dir / CONTEXTS_FILE, [
            {"query_id": qid, "doc_ids": kept.doc_ids(),
             "removals": kept.removals, "shortfall": kept.shortfall,
             "exhausted": kept.exhausted,
             "fallback_unfiltered": kept.fallback_unfiltered}
            for qid, kept in artifacts.contexts.items()])
        write_jsonl(phase_dir / GENERATIONS_FILE,
                    [vars(r) for r in artifacts.records])
        write_jsonl(phase_dir / RECORDS_FILE, [vars(r) for r in eval_records])
        write_jsonl(phase_dir / ADDITIONS_FILE, [doc_row(d) for d in new_docs])
        write_json(phase_dir / METRICS_FILE,
                   {"config_hash": self.config_hash,
                    "metrics": asdict(artifacts.metrics)})

    def _phase_complete(self, iteration: int) -> bool:
        return (self._iter_dir(iteration) / METRICS_FILE).is_file()

    def _check_phase_hash(self, config_hash: str | None, phase: str) -> None:
        if config_hash != self.config_hash:
            raise RagLoopError(
                f"phase {phase} in {self.out_dir} was written by a different "
                "configuration; refusing to resume from it")

    def _load_phase(self, iteration: int) -> tuple[M.IterationMetrics,
                                                   dict, list[Document]]:
        phase_dir = self._iter_dir(iteration)
        config_hash, bundle = read_metrics(phase_dir / METRICS_FILE)
        self._check_phase_hash(config_hash, phase_dir.name)
        em_map = dict(read_jsonl(phase_dir / RECORDS_FILE, lambda row: (
            (row["query_id"], row["generator_name"]), int(row["em"]))))
        docs = read_jsonl(phase_dir / ADDITIONS_FILE, doc_from_row)
        return bundle, em_map, docs

    # ---- injection -------------------------------------------------------

    def _injection_complete(self) -> bool:
        return (self._injection_dir() / INJECTION_META_FILE).is_file()

    def _load_injection(self) -> list[Document]:
        inj_dir = self._injection_dir()
        self._check_phase_hash(read_json(inj_dir / INJECTION_META_FILE,
                                         lambda meta: meta.get("config_hash")),
                               "injection")
        if (inj_dir / MISINFO_FILE).is_file():
            self.misinfo_specs = {spec.query_id: spec for spec in read_jsonl(
                inj_dir / MISINFO_FILE, lambda row: MisinfoSpec(**row))}
        return read_jsonl(inj_dir / ADDITIONS_FILE, doc_from_row)

    def inject_zero_shot(self) -> list[Document]:
        """Generate and commit the iteration-1 additions: one document per
        (query, generator), or crafted mis-passages in misinfo mode."""
        specs = self.config.generators_for_iteration(1)
        if self.config.misinfo:
            docs = self._build_misinfo_docs(specs)
        else:
            docs = self._build_zero_shot_docs(specs)
        if not docs:
            raise RagLoopError("zero-shot injection produced no documents; "
                               "check generator backends")
        inj_dir = self._injection_dir()
        write_jsonl(inj_dir / ADDITIONS_FILE, [doc_row(d) for d in docs])
        if self.config.misinfo:
            write_jsonl(inj_dir / MISINFO_FILE,
                        [asdict(self.misinfo_specs[qid])
                         for qid in sorted(self.misinfo_specs)])
        write_json(inj_dir / INJECTION_META_FILE,
                   {"config_hash": self.config_hash, "documents": len(docs),
                    "misinfo": self.config.misinfo})
        return docs

    def _build_zero_shot_docs(self, specs) -> list[Document]:
        tasks = self._tasks(ZERO_SHOT, 1, specs)
        return [_generated_doc(gen_name, 1, query.query_id, answer[1])
                for (query, gen_name, _request), answer
                in zip(tasks, self._map(self._answer, tasks))
                if answer is not None]

    def _build_misinfo_docs(self, specs) -> list[Document]:
        answer_backend = self.generators[self.config.generators[0].name]

        def set_up(query: QueryRecord) -> tuple[MisinfoSpec | None,
                                                list[Document]]:
            try:
                false_answers = generate_false_answers(
                    answer_backend, query.question, query.answers,
                    query_id=query.query_id)
            except GenerationFailure as exc:
                logger.warning("query %s excluded from misinfo mode: %s",
                               query.query_id, exc)
                return None, []
            rng = random.Random(derive_seed(self.config.seed, "misinfo-choice",
                                            query.query_id))
            chosen = rng.choice(false_answers)
            docs = []
            for gen_spec in specs:
                try:
                    raw = generate_mis_passage(
                        self.generators[gen_spec.name], query.question,
                        chosen, query.answers, query_id=query.query_id)
                except GenerationFailure as exc:
                    logger.warning("mis-passage failed for query %s / %s: %s",
                                   query.query_id, gen_spec.name, exc)
                    continue
                docs.append(_generated_doc(gen_spec.name, 1, query.query_id,
                                           postprocess.clean(raw, self.phrases)))
            return MisinfoSpec(query_id=query.query_id,
                               false_answers=false_answers,
                               chosen_false_answer=chosen), docs

        outcomes = self._map(set_up, self.queries)
        self.misinfo_specs = {spec.query_id: spec for spec, _ in outcomes
                              if spec is not None}
        return [doc for _, docs in outcomes for doc in docs]

    # ---- public entry points ----------------------------------------------

    def run_baseline(self) -> IterationArtifacts:
        artifacts, _docs, _tokens = self._run_phase(0, em_prev=None)
        return artifacts

    def run_iteration(self, iteration: int,
                      em_prev: dict | None) -> IterationArtifacts:
        if iteration < 1:
            raise ValueError("iteration must be >= 1")
        artifacts, new_docs, new_tokens = self._run_phase(iteration,
                                                          em_prev=em_prev)
        self._commit(new_docs, new_tokens)
        return artifacts


def _check_manifest(runner: ExperimentRunner, resume: bool) -> None:
    """Refuse a directory whose manifest names another config; mark it running."""
    path = runner.out_dir / MANIFEST_FILE
    if path.is_file():
        if read_json(path, lambda m: m.get("config_hash")) != runner.config_hash:
            raise RagLoopError(
                f"output directory {runner.out_dir} belongs to a different "
                "configuration; refusing to mix runs")
    elif resume:
        logger.info("no manifest in %s; starting fresh", runner.out_dir)
    _write_manifest(runner, "running")


@contextmanager
def manifest_status(runner: ExperimentRunner, resume: bool, status: str):
    """Run the body under the output directory's manifest: `status` when it
    returns, `failed` with the error when it raises."""
    _check_manifest(runner, resume)
    try:
        yield
    except Exception as exc:
        _write_manifest(runner, "failed", error=f"{type(exc).__name__}: {exc}")
        raise
    _write_manifest(runner, status)


def _write_manifest(runner: ExperimentRunner, status: str,
                    error: str | None = None) -> None:
    manifest = {
        "config_hash": runner.config_hash,
        "seed": runner.config.seed,
        "iterations": runner.config.iterations,
        "queries": len(runner.queries),
        "status": status,
    }
    if error is not None:
        manifest["error"] = error
    write_json(runner.out_dir / MANIFEST_FILE, manifest)


def run_experiment(config: ExperimentConfig,
                   resume: bool = True) -> dict:
    """Execute (or resume) the full simulation and emit all report files.

    Returns a small summary dict with output paths and the final metrics.
    Completed phases found in the output directory are loaded, not rerun.
    """
    runner = ExperimentRunner(config)
    with manifest_status(runner, resume, "complete"):
        all_metrics: list[M.IterationMetrics] = []
        em_prev: dict | None = None

        for iteration in range(config.iterations + 1):
            if iteration == 1:
                # zero-shot / misinfo injection commits the iteration-1 additions
                runner._commit(runner._load_injection()
                               if resume and runner._injection_complete()
                               else runner.inject_zero_shot())
            if resume and runner._phase_complete(iteration):
                bundle, em_prev, docs = runner._load_phase(iteration)
                runner._commit(docs)
                logger.info("phase %d already complete; loaded", iteration)
            else:
                artifacts = (runner.run_iteration(iteration, em_prev)
                             if iteration else runner.run_baseline())
                bundle = artifacts.metrics
                em_prev = {(r.query_id, r.generator_name): r.em
                           for r in artifacts.records}
            all_metrics.append(bundle)

        summary_path = write_summary(runner.out_dir, all_metrics)
        write_jsonl(runner.out_dir / ALL_METRICS_FILE,
                    [{"config_hash": runner.config_hash, **asdict(m)}
                     for m in all_metrics])
        series = emit_plot_series(runner.out_dir)
    final = all_metrics[-1]
    return {
        "output_dir": str(runner.out_dir),
        "summary": str(summary_path),
        "series": [str(p) for p in series],
        "iterations_run": len(all_metrics) - 1,
        "final_metrics": asdict(final),
    }


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _write_tsv(path: Path, header, rows) -> Path:
    lines = ["\t".join(header)]
    lines.extend("\t".join(_fmt(v) for v in row) for row in rows)
    _atomic_write(path, "".join(ln + "\n" for ln in lines))
    return path


def write_summary(out_dir: Path, all_metrics: list[M.IterationMetrics]) -> Path:
    return _write_tsv(out_dir / SUMMARY_FILE, SUMMARY_COLUMNS, [
        [m.iteration, m.acc_at_5, m.acc_at_20, m.em_mean, m.dominance_p,
         m.self_bleu_top5, m.source_share_top50.get("human", 0.0),
         m.transitions_01, m.transitions_10] for m in all_metrics])


def emit_plot_series(run_dir: str | Path) -> list[Path]:
    """Write one plot-ready TSV per figure family from persisted metrics.

    Missing iterations produce a warning and a partial series; a corrupted
    metrics file is an error naming the file.
    """
    run_dir = Path(run_dir)
    iter_root = run_dir / "iterations"
    if not iter_root.is_dir():
        raise RagLoopError(f"no iterations directory under {run_dir}")
    bundles: list[M.IterationMetrics] = []
    present: set[int] = set()
    for phase_dir in sorted(iter_root.iterdir()):
        metrics_path = phase_dir / METRICS_FILE
        if not metrics_path.is_file():
            continue
        _hash, bundle = read_metrics(metrics_path)
        bundles.append(bundle)
        present.add(bundle.iteration)
    if not bundles:
        raise RagLoopError(f"no completed iterations under {run_dir}")
    expected = set(range(min(present), max(present) + 1))
    missing = sorted(expected - present)
    if missing:
        logger.warning("missing iterations %s; emitting partial series", missing)
    bundles.sort(key=lambda b: b.iteration)

    series_dir = run_dir / "series"
    series_dir.mkdir(parents=True, exist_ok=True)
    paths = []

    def emit(name: str, header: list[str], rows: list[list]) -> None:
        paths.append(_write_tsv(series_dir / name, header, rows))

    emit("series_accuracy.tsv",
         ["iteration", "acc_at_5", "acc_at_20", "em_mean"],
         [[b.iteration, b.acc_at_5, b.acc_at_20, b.em_mean] for b in bundles])

    labels = sorted({label for b in bundles for label in b.source_share_top50})
    emit("series_source_share.tsv", ["iteration"] + labels,
         [[b.iteration] + [b.source_share_top50.get(l, 0.0) for l in labels]
          for b in bundles])

    emit("series_dominance.tsv",
         ["iteration", "dominance_p", "human_share_top5"],
         [[b.iteration, b.dominance_p, 100.0 - b.dominance_p] for b in bundles])

    emit("series_self_bleu.tsv", ["iteration", "self_bleu_top5"],
         [[b.iteration, b.self_bleu_top5] for b in bundles])

    emit("series_transitions.tsv", ["iteration", "t01", "t10"],
         [[b.iteration, b.transitions_01, b.transitions_10] for b in bundles])

    bins = M.CONTEXT_RIGHT_BINS
    emit("series_context_right.tsv",
         ["iteration", "em_state"] + [f"right_{i}" for i in range(bins)],
         [[b.iteration, state] + b.context_right_hist.get(state, [0] * bins)
          for b in bundles for state in ("em0", "em1")])

    emit("series_first_right.tsv",
         ["iteration", "mean_any", "count_any", "mean_human", "count_human"],
         [[b.iteration,
           b.first_right_summary.get("mean_any"),
           b.first_right_summary.get("count_any", 0),
           b.first_right_summary.get("mean_human"),
           b.first_right_summary.get("count_human", 0)] for b in bundles])

    return paths
