"""Run one simulation in a fresh process and report its timings.

    python3 perfbench/worker.py CONFIG_JSON RESULT_JSON [SPANS_JSONL]

Run from the repository root. With a third argument the run is traced and
its span records are written there. `setup_s` is the construction of
`ExperimentRunner` (query load, seed ingest, index builds, backends);
`run_s` is the rest of `run_experiment`. The inputs were made by the parent
process, so the peak RSS reported here belongs to the program.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from ragloop import (config as rl_config, errors, filters, generation,  # noqa: E402
                     metrics, postprocess, remote, rerank, retrieval, runner)

import spans  # noqa: E402  (perfbench/ is sys.path[0])


def main(argv: list[str]) -> int:
    config_path, result_path = Path(argv[0]), Path(argv[1])
    spans_path = Path(argv[2]) if len(argv) > 2 else None
    config = rl_config.parse_config_mapping(
        json.loads(config_path.read_text(encoding="utf-8")))

    tracer = None
    if spans_path is not None:
        tracer = spans.Tracer()
        spans.install(tracer, {
            "runner": runner, "retrieval": retrieval, "metrics": metrics,
            "rerank": rerank, "filters": filters, "generation": generation,
            "postprocess": postprocess, "remote": remote, "errors": errors})

    setup = {}
    construct = runner.ExperimentRunner.__init__

    def timed_init(self, cfg):
        start = time.perf_counter()
        construct(self, cfg)
        setup["end"] = time.perf_counter()
        setup["s"] = setup["end"] - start

    runner.ExperimentRunner.__init__ = timed_init
    runner.run_experiment(config, resume=False)
    end = time.perf_counter()

    result = {
        "setup_s": setup["s"],
        "run_s": end - setup["end"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        seconds, counts = tracer.totals()
        result["trace"] = {
            "seconds": [[m, p, v] for (m, p), v in sorted(seconds.items())],
            "counts": [[m, p, v] for (m, p), v in sorted(counts.items())],
            "maxima": tracer.maxima,
            "covered_run_s": tracer.covered_seconds(setup["end"], end),
            "spans": tracer.write_spans(spans_path),
        }
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
