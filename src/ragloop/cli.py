"""Command-line interface: run, baseline, resume, report, validate, synth."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

from .config import FILTER_MODES, ensure_valid, load_config
from .errors import ConfigValidationError, RagLoopError
from .runner import (ExperimentRunner, emit_plot_series, manifest_status,
                     run_experiment)
from .synthdata import write_demo_dataset


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="global seed (overrides config)")
    parser.add_argument("--offline", action="store_true",
                        help="forbid remote backends; offline stubs only")
    parser.add_argument("--filter", choices=FILTER_MODES,
                        help="context filter mode (overrides config)")
    parser.add_argument("--misinfo", action="store_true",
                        help="inject misinformation passages instead of "
                             "zero-shot documents")


def _overrides(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if args.out:
        # relative to the current directory, as `report --out` is
        overrides["output_dir"] = str(Path(args.out).absolute())
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.offline:
        overrides["offline"] = True
    if getattr(args, "filter", None):
        overrides["filter_mode"] = args.filter
    if getattr(args, "misinfo", False):
        overrides["misinfo"] = True
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ragloop",
        description="Simulate the feedback loop between retrieval systems "
                    "and generated text, and measure its effects.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the full experiment")
    _add_common(run_p)

    base_p = sub.add_parser("baseline", help="run only the baseline measurement")
    _add_common(base_p)

    resume_p = sub.add_parser("resume", help="resume an interrupted run")
    _add_common(resume_p)

    report_p = sub.add_parser("report", help="emit plot-ready series files")
    report_p.add_argument("--out", required=True, help="run output directory")

    val_p = sub.add_parser("validate", help="check a config without running")
    _add_common(val_p)

    synth_p = sub.add_parser("synth", help="write a demo corpus and query set")
    synth_p.add_argument("--out", required=True)
    synth_p.add_argument("--docs", type=int, default=500)
    synth_p.add_argument("--queries", type=int, default=50)
    synth_p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            corpus_path, query_path = write_demo_dataset(
                args.out, num_docs=args.docs, num_queries=args.queries,
                seed=args.seed)
            print(f"wrote {corpus_path} and {query_path}")
            return 0
        if args.command == "report":
            paths = emit_plot_series(args.out)
            for p in paths:
                print(p)
            return 0

        if args.command == "validate":
            try:
                ensure_valid(load_config(args.config, overrides=_overrides(args)))
            except ConfigValidationError as exc:
                for p in exc.problems:
                    print(f"INVALID: {p}", file=sys.stderr)
                return 1
            print("configuration is valid")
            return 0
        config = load_config(args.config, overrides=_overrides(args))
        if args.command == "baseline":
            runner = ExperimentRunner(config)
            with manifest_status(runner, False, "baseline"):
                artifacts = runner.run_baseline()
            print(json.dumps(asdict(artifacts.metrics), indent=2,
                             sort_keys=True))
            return 0
        # run and resume share one code path: completed phases are loaded
        report = run_experiment(config, resume=(args.command == "resume"))
        print(f"run complete: {report['summary']}")
        return 0
    except RagLoopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
