"""Benchmark entry point for ragloop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The inputs are made from the seed; then the
workload's closed-loop simulation runs again and again, each time in a
fresh worker process, until S seconds have passed (the last run is
finished, never cut). Every run is checked: the first against figures
re-derived from its artifacts, the rest for byte-identical artifacts.

The last line of stdout is one JSON object: `correct`, `attempted` and
`failed` (generation tasks over all runs) and `metrics`. With --trace 0 the
metrics are the medians of setup_s, run_s and peak_rss_mb. With --trace 1,
untraced and traced runs alternate; the metrics are the per-module medians
of the traced runs, the tracing overhead and the share of run_s the spans
cover, and the traced spans and per-phase breakdown of the last traced run
are kept under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
from workloads import WORKLOADS, make_config, write_inputs

HERE = Path(__file__).resolve().parent
OUT_ROOT = Path(".perfbench_out")
STUB_LATENCY_MS = 2
STEP_TIMEOUT_S = 90

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))

# per-module metric -> (unit, its source in the worker's trace totals)
PER_LAYER = {
    "retrieval.search_s": ("s", "retrieval.search"),
    "retrieval.index_add_s": ("s", "retrieval.index_add"),
    "retrieval.embed_s": ("s", "retrieval.embed"),
    "retrieval.embed_texts": ("count", "retrieval.embed_texts"),
    "retrieval.tokenize_calls": ("count", "retrieval.tokenize_calls"),
    "rerank.rerank_s": ("s", "rerank.rerank"),
    "rerank.passages": ("count", "rerank.passages"),
    "rerank.passed_through": ("count", "rerank.passed_through"),
    "filters.diversity_s": ("s", "filters.diversity"),
    "filters.diversity_removals": ("count", "filters.diversity_removals"),
    "filters.diversity_exhausted": ("count", "filters.diversity_exhausted"),
    "filters.diversity_self_bleu_calls": ("count", "filters.diversity_self_bleu_calls"),
    "filters.source_s": ("s", "filters.source"),
    "filters.source_shortfall": ("count", "filters.source_shortfall"),
    "metrics.self_bleu_s": ("s", "metrics.self_bleu"),
    "metrics.em_s": ("s", "metrics.em"),
    "metrics.em_calls": ("count", "metrics.em.calls"),
    "metrics.first_right_ranks_s": ("s", "metrics.first_right_ranks"),
    "metrics.acc_at_k_s": ("s", "metrics.acc_at_k"),
    "metrics.context_right_num_s": ("s", "metrics.context_right_num"),
    "postprocess.clean_s": ("s", "postprocess.clean"),
    "postprocess.clean_calls": ("count", "postprocess.clean.calls"),
    "generation.generate_s": ("s", "generation.generate"),
    "generation.tasks": ("count", "generation.generate.calls"),
    "generation.failed": ("count", "generation.failed"),
    "corpus.ingest_s": ("s", "corpus.ingest"),
    "corpus.add_documents_s": ("s", "corpus.add_documents"),
    "corpus.docs_final": ("count", "corpus.docs_final"),
    "runner.persist_s": ("s", "runner.persist"),
    "runner.persist_bytes": ("bytes", "runner.persist_bytes"),
    "remote.calls": ("count", "remote.post.calls"),
    "remote.http_requests": ("count", "remote.http_requests"),
    "remote.retries": ("count", None),
    "remote.failed": ("count", "remote.failed"),
    "remote.post_s": ("s", "remote.post"),
    "remote.connections_opened": ("count", None),
}


class BenchError(Exception):
    """A step of the benchmark could not run; no result is printed."""


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def start_stub(queries_path: str) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "stub.py"), queries_path, str(STUB_LATENCY_MS)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    if not line:
        stop_stub(proc)
        raise BenchError("stub service did not start")
    return proc, f"http://127.0.0.1:{json.loads(line)['port']}"


def stop_stub(proc: subprocess.Popen) -> dict | None:
    """Close the stub's stdin, wait for it, and return its counters."""
    try:
        out, _ = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def run_once(workload, seed: int, inputs: dict, rep_dir: Path,
             traced: bool, nproc: int) -> dict:
    """One simulation in a fresh worker process (and a fresh stub)."""
    rep_dir.mkdir(parents=True)
    stub = None
    url = ""
    if workload.remote:
        stub, url = start_stub(inputs["queries"])
    try:
        config = make_config(workload, seed, inputs, rep_dir / "run", url, nproc)
        (rep_dir / "config.json").write_text(json.dumps(config), encoding="utf-8")
        cmd = [sys.executable, str(HERE / "worker.py"), str(rep_dir / "config.json"),
               str(rep_dir / "result.json")]
        if traced:
            cmd.append(str(rep_dir / "spans.jsonl"))
        with open(rep_dir / "worker.log", "w", encoding="utf-8") as log:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=STEP_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                raise BenchError(f"simulation exceeded {STEP_TIMEOUT_S} s") from None
        if code != 0:
            tail = (rep_dir / "worker.log").read_text(encoding="utf-8")[-2000:]
            raise BenchError(f"simulation exited with {code}:\n{tail}")
    finally:
        stub_counts = stop_stub(stub) if stub is not None else None
    if workload.remote and stub_counts is None:
        raise BenchError("stub service did not report its counters")
    result = json.loads((rep_dir / "result.json").read_text(encoding="utf-8"))
    result.update(dir=rep_dir, config=config, stub=stub_counts, traced=traced)
    return result


def layer_metrics(rep: dict) -> dict[str, float]:
    """Per-module totals of one traced run (all phases, set-up included)."""
    trace = rep["trace"]
    totals: dict[str, float] = defaultdict(float)
    for metric, _phase, value in trace["seconds"] + trace["counts"]:
        totals[metric] += value
    totals.update(trace["maxima"])
    out = {name: totals.get(source, 0) for name, (_, source) in PER_LAYER.items()
           if source is not None}
    out["remote.retries"] = out["remote.http_requests"] - out["remote.calls"]
    out["remote.connections_opened"] = rep["stub"]["connections"] if rep["stub"] else 0
    return out


def phase_table(rep: dict) -> dict[str, dict[str, float]]:
    """Seconds per module metric per phase of one traced run."""
    table: dict[str, dict[str, float]] = defaultdict(dict)
    wanted = {source: name for name, (unit, source) in PER_LAYER.items() if unit == "s"}
    for metric, phase, value in rep["trace"]["seconds"]:
        if metric in wanted:
            table[phase][wanted[metric]] = value
    return dict(table)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not Path("src/ragloop/__init__.py").is_file():
        print("run from the root of a ragloop checkout: src/ragloop is missing",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    work = OUT_ROOT / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = write_inputs(workload, args.seed, work / "inputs")
        reps = []
        begin = time.perf_counter()
        while (not reps or time.perf_counter() - begin < args.seconds
               or (args.trace and len(reps) < 2)):
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(run_once(workload, args.seed, inputs,
                                 work / f"rep-{len(reps):02d}", traced, nproc))
        measured = time.perf_counter() - begin

        first = reps[0]
        bad, attempted, failed = checks.check_run(
            first["dir"] / "run", inputs, first["config"], workload, args.seed,
            first["stub"])
        digest = checks.artifact_sha256(first["dir"] / "run")
        for rep in reps[1:]:
            if checks.artifact_sha256(rep["dir"] / "run") != digest:
                bad.append(f"{rep['dir'].name}: artifacts differ from the first run")
            if rep["stub"] != first["stub"] and rep["stub"] is not None:
                bad.append(f"{rep['dir'].name}: stub counters differ from the first run")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for line in bad:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(f"{workload.name} seed {args.seed}: {len(reps)} runs in {measured:.1f} s, "
          f"run_s " + " ".join(f"{r['run_s']:.3f}" for r in reps) +
          f", inputs sha256 {inputs['inputs_sha256']}, artifacts sha256 {digest}",
          file=sys.stderr)

    if args.trace:
        metrics = trace_metrics(reps, workload, args.seed)
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in reps), "unit": unit}
                   for name, unit in END_TO_END}
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": not bad, "attempted": attempted * len(reps),
                      "failed": failed * len(reps), "metrics": metrics}))
    return 0


def _phase_order(phase: str) -> tuple:
    """setup, iter-00 (baseline), injection, iter-01 ..., report."""
    if phase.startswith("iter-") and phase != "iter-00":
        return (3, int(phase[5:]))
    return ({"setup": 0, "iter-00": 1, "injection": 2}.get(phase, 4), 0)


def trace_metrics(reps: list[dict], workload, seed: int) -> dict:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    per_rep = [layer_metrics(r) for r in traced]
    metrics = {name: {"value": statistics.median(m[name] for m in per_rep),
                      "unit": unit}
               for name, (unit, _) in PER_LAYER.items()}
    traced_run = statistics.median(r["run_s"] for r in traced)
    plain_run = statistics.median(r["run_s"] for r in plain)
    metrics["trace.run_s"] = {"value": traced_run, "unit": "s"}
    metrics["trace.untraced_run_s"] = {"value": plain_run, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_run - plain_run, "unit": "s"}
    metrics["trace.span_coverage"] = {
        "value": 100.0 * statistics.median(r["trace"]["covered_run_s"] / r["run_s"]
                                           for r in traced), "unit": "%"}

    last = traced[-1]
    stem = OUT_ROOT / f"trace-{workload.name}-s{seed}"
    shutil.copyfile(last["dir"] / "spans.jsonl", f"{stem}.spans.jsonl")
    table = phase_table(last)
    Path(f"{stem}.json").write_text(json.dumps(
        {"workload": workload.name, "seed": seed, "run_s": last["run_s"],
         "setup_s": last["setup_s"], "per_phase_s": table,
         "totals": layer_metrics(last)}, indent=1, sort_keys=True), encoding="utf-8")
    print(f"per-phase self seconds of the last traced run ({stem}.json):",
          file=sys.stderr)
    for phase in sorted(table, key=_phase_order):
        busy = sorted(table[phase].items(), key=lambda kv: -kv[1])[:4]
        print(f"  {phase:10s} " + "  ".join(f"{k}={v:.3f}" for k, v in busy),
              file=sys.stderr)
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
