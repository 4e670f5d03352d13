"""Output checks for one simulation, computed apart from the program.

Each check re-derives a persisted number from the run's artifacts and the
generated inputs with this file's own tokenizer, normaliser, BM25 and
n-gram BLEU; none of it imports `ragloop`. `check_run` returns the list
of failures (empty when the run is correct) and the task counts.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from collections import Counter
from pathlib import Path

from stub import overlap_score, tokens
from workloads import FAULT_TOKEN, STYLE_MARKER

TOL = 1e-9
CONTEXTS = 5
DIVERSITY_THRESHOLD = 0.4
RERANK_DEPTH = 100
BM25_K1, BM25_B = 1.2, 0.75
BM25_SAMPLE = 5
_ARTICLES = {"a", "an", "the"}
_WORD_RE = re.compile(r"[^\W_]+")


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def normalise(text: str) -> list[str]:
    return [t for t in _WORD_RE.findall(text.lower()) if t not in _ARTICLES]


def contains(golds: list[str], text_norm: list[str]) -> int:
    for gold in golds:
        g = normalise(gold)
        n = len(g)
        if n and any(text_norm[i:i + n] == g for i in range(len(text_norm) - n + 1)):
            return 1
    return 0


def _ngrams(toks: list[str], n: int) -> Counter:
    return Counter(zip(*(toks[i:] for i in range(n))))


def bleu(candidate: list[str], refs: list[list[str]], max_n: int = 3) -> float:
    """Sentence BLEU, uniform weights, no smoothing, closest-length penalty."""
    if not candidate:
        return 0.0
    log_p = 0.0
    for n in range(1, max_n + 1):
        cand = _ngrams(candidate, n)
        if not cand:
            return 0.0
        best: Counter = Counter()
        for ref in refs:
            best |= _ngrams(ref, n)
        clipped = sum(min(c, best[g]) for g, c in cand.items())
        if not clipped:
            return 0.0
        log_p += math.log(clipped / sum(cand.values())) / max_n
    c = len(candidate)
    r = min((len(ref) for ref in refs), key=lambda x: (abs(x - c), x))
    return (1.0 if c >= r else math.exp(1.0 - r / c)) * math.exp(log_p)


def self_bleu(docs: list[list[str]]) -> float:
    return sum(bleu(d, docs[:i] + docs[i + 1:]) for i, d in enumerate(docs)) / len(docs)


class Bm25:
    """Fresh BM25 index over a fixed document set."""

    def __init__(self, docs: dict[str, list[str]]):
        self.tf = {d: Counter(t) for d, t in docs.items()}
        self.length = {d: len(t) for d, t in docs.items()}
        self.avgdl = sum(self.length.values()) / len(docs)
        self.df: Counter = Counter()
        for counts in self.tf.values():
            self.df.update(counts.keys())
        self.n = len(docs)

    def score(self, terms: list[str], doc: str) -> float:
        counts = self.tf[doc]
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * self.length[doc] / self.avgdl)
        total = 0.0
        for t in terms:
            tf = counts.get(t, 0)
            if tf:
                idf = math.log(1.0 + (self.n - self.df[t] + 0.5) / (self.df[t] + 0.5))
                total += idf * tf / (tf + norm)
        return total

    def top_score(self, terms: list[str]) -> float:
        return max(self.score(terms, d) for d in self.tf)


def artifact_sha256(run_dir: Path) -> str:
    """sha256 over every artifact path and its bytes, with the config hash
    masked: it covers the input paths and the stub's port."""
    config_hash = json.loads((run_dir / "manifest.json").read_text())["config_hash"]
    digest = hashlib.sha256()
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(run_dir)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes().replace(config_hash.encode(), b"<config>"))
    return digest.hexdigest()


class Run:
    """A finished run directory with its inputs and provenance."""

    def __init__(self, run_dir: Path, inputs: dict, config: dict):
        self.dir = run_dir
        self.queries = {q["query_id"]: q for q in read_jsonl(Path(inputs["queries"]))}
        self.text: dict[str, str] = {}
        self.added: dict[str, int] = {}        # doc id -> iteration added
        self.source: dict[str, str] = {}       # doc id -> "human" | generator
        for rec in read_jsonl(Path(inputs["corpus"])):
            title = rec.get("title")
            self.text[rec["doc_id"]] = f"{title}\n{rec['text']}" if title else rec["text"]
            self.added[rec["doc_id"]] = 0
            self.source[rec["doc_id"]] = "human"
        self.seed_docs = len(self.text)
        self.iterations = config["iterations"]
        self.generators = [g["name"] for g in config["generators"]]
        addition_files = [run_dir / "injection" / "additions.jsonl"] + [
            self.phase_dir(i) / "additions.jsonl" for i in range(1, self.iterations + 1)]
        self.additions = [read_jsonl(p) for p in addition_files]
        for rows in self.additions:
            for d in rows:
                self.text[d["doc_id"]] = d["text"]
                self.added[d["doc_id"]] = d["iteration_added"]
                self.source[d["doc_id"]] = d["source"].get("generator_name", "human")
        self._tokens: dict[str, list[str]] = {}
        self._norm: dict[str, list[str]] = {}

    def phase_dir(self, i: int) -> Path:
        return self.dir / "iterations" / f"iter-{i:02d}"

    def toks(self, doc: str) -> list[str]:
        if doc not in self._tokens:
            self._tokens[doc] = tokens(self.text[doc])
        return self._tokens[doc]

    def norm(self, doc: str) -> list[str]:
        if doc not in self._norm:
            self._norm[doc] = normalise(self.text[doc])
        return self._norm[doc]

    def corpus_at(self, i: int) -> list[str]:
        return [d for d, it in self.added.items() if it <= i]


def check_run(run_dir: Path, inputs: dict, config: dict, workload,
              seed: int, stub_counts: dict | None = None) -> tuple[list[str], int, int]:
    """(failures, attempted tasks, failed tasks) for one finished run."""
    run = Run(run_dir, inputs, config)
    bad: list[str] = []
    q_count, t = len(run.queries), run.iterations
    per_phase = q_count * len(run.generators)
    attempted = per_phase * (t + 2)        # baseline, injection, t iterations

    manifest = json.loads((run_dir / "manifest.json").read_text())
    if manifest.get("status") != "complete":
        bad.append(f"manifest status {manifest.get('status')!r}")
    summary = (run_dir / "summary.tsv").read_text().splitlines()
    if len(summary) != t + 2:
        bad.append(f"summary.tsv has {len(summary)} lines, want {t + 2}")

    produced = len(run.additions[0])       # injection
    missing_queries: set[str] = set()
    bleu_by_phase = {}
    deep = {0, 1, t}
    rng = random.Random(f"bm25-sample:{seed}")
    for i in range(t + 1):
        pdir = run.phase_dir(i)
        metrics = json.loads((pdir / "metrics.json").read_text())["metrics"]
        ranked = {r["query_id"]: r["entries"] for r in read_jsonl(pdir / "ranked.jsonl")}
        gens = read_jsonl(pdir / "generations.jsonl")
        records = read_jsonl(pdir / "records.jsonl")
        produced += len(gens)
        done = {(g["query_id"], g["generator_name"]) for g in gens}
        missing_queries |= {q for q in run.queries for g in run.generators
                            if (q, g) not in done}
        if i == 0:
            failed_baseline = per_phase - len(gens)
        if set(ranked) != set(run.queries):
            bad.append(f"iter {i}: ranked lists for {len(ranked)} of {q_count} queries")
            continue
        visible = {d for d, it in run.added.items() if it <= i}
        if any(e[0] not in visible for es in ranked.values() for e in es):
            bad.append(f"iter {i}: a ranked document is not in the corpus yet")
            continue

        # dominance recount from provenance
        slots = [e[0] for es in ranked.values() for e in es[:5]]
        dom = 100.0 * sum(run.source[d] != "human" for d in slots) / len(slots)
        if abs(dom - metrics["dominance_p"]) > TOL:
            bad.append(f"iter {i}: dominance {metrics['dominance_p']} recounts to {dom}")

        # EM of every generation record, with this file's normaliser
        for g in gens:
            want = contains(run.queries[g["query_id"]]["answers"],
                            normalise(g["cleaned_text"]))
            if g["em"] != want:
                bad.append(f"iter {i}: em of {g['query_id']}/{g['generator_name']} "
                           f"is {g['em']}, recount {want}")
                break
        if i >= 1:
            adds = run.additions[i]
            if len(adds) != len(gens) or any(d["iteration_added"] != i + 1 for d in adds):
                bad.append(f"iter {i}: {len(adds)} additions for {len(gens)} generations")

        if i in deep:
            _deep_phase_checks(run, i, ranked, records, metrics, bad,
                               bleu_by_phase, workload, rng)
        if workload.filter_mode != "none":
            _filter_checks(run, i, pdir, workload, bad)

    failed = attempted - produced
    growth = run.seed_docs + per_phase * (t + 1) - (failed - failed_baseline)
    if len(run.text) != growth:
        bad.append(f"corpus holds {len(run.text)} documents, want {growth}")
    if stub_counts is None:
        if failed:
            bad.append(f"{failed} offline generation tasks failed")
    else:
        if failed + stub_counts["retried_chat"] != stub_counts["injected_429"]:
            bad.append(f"failed tasks {failed} + retried chat requests "
                       f"{stub_counts['retried_chat']} != injected 429s "
                       f"{stub_counts['injected_429']}")
        if any(FAULT_TOKEN not in run.queries[q]["question"] for q in missing_queries):
            bad.append(f"tasks failed outside the fault queries: {sorted(missing_queries)}")
        if stub_counts["errors"]:
            bad.append(f"stub rejected {stub_counts['errors']} malformed requests")

    if workload.name == "spiral-bm25":
        last = json.loads((run.phase_dir(t) / "metrics.json").read_text())["metrics"]
        if 100.0 - last["dominance_p"] >= 10.0:
            bad.append(f"human share of the top 5 is {100 - last['dominance_p']:.1f}% "
                       f"at iteration {t}, want below 10%")
        if {0, t} <= set(bleu_by_phase) and not bleu_by_phase[t] > bleu_by_phase[0]:
            bad.append("Self-BLEU of the top 5 did not rise above the baseline")
    return bad, attempted, failed


def _deep_phase_checks(run: Run, i: int, ranked: dict, records: list[dict],
                       metrics: dict, bad: list[str], bleu_by_phase: dict,
                       workload, rng: random.Random) -> None:
    # Self-BLEU of every top 5
    values = [self_bleu([run.toks(e[0]) for e in es[:5]])
              for es in ranked.values() if len(es) >= 2]
    mean = sum(values) / len(values) if values else 0.0
    bleu_by_phase[i] = mean
    if abs(mean - metrics["self_bleu_top5"]) > TOL:
        bad.append(f"iter {i}: self_bleu_top5 {metrics['self_bleu_top5']} "
                   f"recomputes to {mean}")

    # first-correct ranks and context counts
    for rec in records:
        q = run.queries[rec["query_id"]]
        first_any = first_human = None
        for doc, _score, rank in ranked[rec["query_id"]]:
            if not contains(q["answers"], run.norm(doc)):
                continue
            first_any = first_any or rank
            if run.source[doc] == "human":
                first_human = rank
                break
        right = sum(contains(q["answers"], run.norm(e[0]))
                    for e in ranked[rec["query_id"]][:5])
        if (rec["first_right_any"], rec["first_right_human"],
                rec["context_right_num"]) != (first_any, first_human, right):
            bad.append(f"iter {i}: first-right/context counts of {rec['query_id']} "
                       f"recount to {(first_any, first_human, right)}")
            break

    if workload.pipeline.endswith("+rerank"):
        for qid, es in ranked.items():
            head = es[:RERANK_DEPTH]
            scores = [e[1] for e in head]
            question = run.queries[qid]["question"]
            if any(b > a for a, b in zip(scores, scores[1:])):
                bad.append(f"iter {i}: rerank head of {qid} is not non-increasing")
                break
            if any(s != overlap_score(question, run.text[d]) for d, s, _ in head):
                bad.append(f"iter {i}: rerank scores of {qid} differ from overlap")
                break
    elif workload.pipeline == "bm25":
        index = Bm25({d: run.toks(d) for d in run.corpus_at(i)})
        for qid in rng.sample(sorted(ranked), min(BM25_SAMPLE, len(ranked))):
            terms = tokens(run.queries[qid]["question"])
            got_doc, got_score, _ = ranked[qid][0]
            best, own = index.top_score(terms), index.score(terms, got_doc)
            if abs(best - got_score) > TOL or abs(own - got_score) > TOL:
                bad.append(f"iter {i}: BM25 top-1 of {qid} is {got_doc}={got_score}, "
                           f"fresh index gives {own} and a best of {best}")
                break


def _filter_checks(run: Run, i: int, pdir: Path, workload, bad: list[str]) -> None:
    for row in read_jsonl(pdir / "contexts.jsonl"):
        docs = row["doc_ids"]
        if workload.filter_mode == "diversity":
            score = self_bleu([run.toks(d) for d in docs]) if len(docs) >= 2 else 0.0
            if score > DIVERSITY_THRESHOLD + TOL and not (row["exhausted"] or row["shortfall"]):
                bad.append(f"iter {i}: diversity context of {row['query_id']} scores "
                           f"{score:.4f} without a flag")
                return
        elif workload.filter_mode == "source":
            generated = [d for d in docs if STYLE_MARKER in run.text[d].lower()]
            if generated and not row["fallback_unfiltered"]:
                bad.append(f"iter {i}: source context of {row['query_id']} holds "
                           f"generated {generated[0]}")
                return
            if len(docs) < CONTEXTS and not row["shortfall"]:
                bad.append(f"iter {i}: {row['query_id']} has {len(docs)} contexts "
                           f"without the shortfall flag")
                return
