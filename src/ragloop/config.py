"""Experiment configuration: loading, validation, and backend wiring.

A run is described by one YAML (or JSON) file; credentials never appear in
it and are read from environment variables named there instead.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import yaml

from .corpus import read_records, record_id
from .errors import ConfigValidationError, CorpusFormatError
from .filters import DIVERSITY_THRESHOLD, MarkerStubDetector, RemoteDetectorClient
from .generation import (CONTEXT_SIZE, DEFAULT_STYLE_MARKER,
                         DEFAULT_TEMPERATURE, RemoteChatGenerator,
                         SyntheticGenerator)
from .metrics import answer_needle
from .remote import Endpoint, url_problem
from .rerank import (FAILURE_ABORT, FAILURE_PASS_THROUGH,
                     LexicalOverlapBackend, RemoteScorerBackend)
from .retrieval import HashedEmbedder, RemoteEmbeddingClient

PIPELINES = ("bm25", "dense", "bm25+rerank", "dense+rerank")
FILTER_MODES = ("none", "source", "diversity")
ENDPOINT_FIELDS = ("embedding_endpoint", "rerank_endpoint", "detector_endpoint")
# annotation of a scalar config field -> the Python types it accepts
_SCALAR_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool}


@dataclass
class QueryRecord:
    query_id: str
    question: str
    answers: list[str]


def load_query_set(path: str | Path) -> list[QueryRecord]:
    """Parse the query file: one JSON record per line with query_id,
    question, and a non-empty answers list. An answer that normalizes to
    no tokens (articles and punctuation only) is rejected: `em` is 0 for it
    on any text, so its query could never be graded correct."""
    path = Path(path)
    records: list[QueryRecord] = []
    seen: set[str] = set()
    for line_no, rec in read_records(path):
        try:
            qid, question, answers = (record_id(rec["query_id"]), rec["question"],
                                      rec["answers"])
        except (KeyError, TypeError) as exc:
            raise CorpusFormatError("query record needs query_id, question, answers",
                                    path=str(path), line_no=line_no) from exc
        answers = [record_id(a) for a in answers] if isinstance(answers, list) else None
        if qid is None or not isinstance(question, str) or answers is None or None in answers:
            raise CorpusFormatError("question must be a string and answers a list; query_id "
                                    "and each answer a string or an integer",
                                    path=str(path), line_no=line_no)
        if not answers:
            raise CorpusFormatError(f"query {qid!r} has no answers",
                                    path=str(path), line_no=line_no)
        for answer in answers:
            if not answer_needle(answer):
                raise CorpusFormatError(f"answer {answer!r} normalizes to nothing, so no "
                                        "text can match it", path=str(path), line_no=line_no)
        if qid in seen:
            raise CorpusFormatError(f"duplicate query_id {qid!r}",
                                    path=str(path), line_no=line_no)
        seen.add(qid)
        records.append(QueryRecord(query_id=qid, question=question, answers=answers))
    if not records:
        raise CorpusFormatError("empty query set", path=str(path))
    return records


@dataclass
class GeneratorSpec:
    name: str
    kind: str = "synthetic"            # synthetic | remote
    accuracy: float = 1.0
    marker: str = DEFAULT_STYLE_MARKER
    endpoint: str = ""
    model: str = ""
    temperature: float = DEFAULT_TEMPERATURE
    api_key_env: str = ""


@dataclass
class ScheduleEntry:
    first: int
    last: int
    generators: list[str]


@dataclass
class ExperimentConfig:
    seed_corpus: str
    query_set: str
    output_dir: str
    pipeline: str = "bm25"
    sample_size: int = 200
    iterations: int = 10
    retrieval_depth: int = 100
    rerank_depth: int = 100
    rerank_failure_policy: str = FAILURE_ABORT
    generators: list[GeneratorSpec] = field(default_factory=list)
    schedule: list[ScheduleEntry] = field(default_factory=list)
    temperature: float = DEFAULT_TEMPERATURE
    filter_mode: str = "none"
    diversity_threshold: float = DIVERSITY_THRESHOLD
    phrase_file: str = ""
    misinfo: bool = False
    grade_with_judge: bool = False
    seed: int = 0
    offline: bool = False
    max_in_flight: int = 1
    max_failure_fraction: float = 0.5
    timeout: float = Endpoint.timeout
    retries: int = Endpoint.retries
    backoff: float = Endpoint.backoff
    # remote service endpoints; empty means offline stub
    embedding_endpoint: str = ""
    embedding_model: str = ""
    embedding_api_key_env: str = ""
    rerank_endpoint: str = ""
    rerank_model: str = ""
    rerank_api_key_env: str = ""
    detector_endpoint: str = ""
    detector_model: str = ""
    detector_api_key_env: str = ""
    judge_generator: str = ""

    @property
    def uses_rerank(self) -> bool:
        return self.pipeline.endswith("+rerank")

    @property
    def uses_dense(self) -> bool:
        return self.pipeline.startswith("dense")

    def generators_for_iteration(self, iteration: int) -> list[GeneratorSpec]:
        """The generator set active at an iteration (>=1 under a schedule)."""
        if not self.schedule:
            return list(self.generators)
        by_name = {g.name: g for g in self.generators}
        for entry in self.schedule:
            if entry.first <= iteration <= entry.last:
                return [by_name[n] for n in entry.generators]
        return list(self.generators)

    # knobs that change how a run executes but never what it computes
    _EXECUTION_ONLY = ("output_dir", "max_in_flight", "timeout", "retries",
                       "backoff")

    def config_hash(self) -> str:
        """Hash over result-defining fields; execution-only knobs and the
        output location are excluded so a resumed run and a fresh reference
        run compare equal."""
        payload = {k: v for k, v in asdict(self).items()
                   if k not in self._EXECUTION_ONLY}
        payload["schedule"] = [{"iterations": f"{s.first}-{s.last}",
                                "generators": s.generators}
                               for s in self.schedule]
        # context size was a config key; keeping it in the hash lets run
        # directories written while it was one still resume
        payload["context_size"] = CONTEXT_SIZE
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ---- backend construction -------------------------------------------

    def _endpoint(self, url: str, model: str, key_env: str) -> Endpoint:
        return Endpoint(url, model=model,
                        api_key=os.environ.get(key_env) if key_env else None,
                        timeout=self.timeout, retries=self.retries,
                        backoff=self.backoff)

    def build_generator(self, spec: GeneratorSpec):
        if spec.kind == "synthetic":
            return SyntheticGenerator(name=spec.name, accuracy=spec.accuracy,
                                      marker=spec.marker, seed=self.seed)
        return RemoteChatGenerator(
            spec.name, self._endpoint(spec.endpoint, spec.model, spec.api_key_env),
            temperature=spec.temperature)

    def build_embedder(self):
        if self.embedding_endpoint:
            return RemoteEmbeddingClient(self._endpoint(
                self.embedding_endpoint, self.embedding_model,
                self.embedding_api_key_env))
        return HashedEmbedder(seed=self.seed)

    def build_rerank_backend(self):
        if self.rerank_endpoint:
            return RemoteScorerBackend(self._endpoint(
                self.rerank_endpoint, self.rerank_model, self.rerank_api_key_env))
        return LexicalOverlapBackend()

    def build_detector(self):
        if self.detector_endpoint:
            return RemoteDetectorClient(self._endpoint(
                self.detector_endpoint, self.detector_model,
                self.detector_api_key_env))
        return MarkerStubDetector([g.marker for g in self.generators])


def _parse_span(text: str) -> tuple[int, int]:
    if "-" in text:
        first, last = text.split("-", 1)
        return int(first), int(last)
    value = int(text)
    return value, value


def _key_problems(entry: dict, known: dict[str, str], where: str = "") -> list[str]:
    """Unknown keys of one mapping, and scalar values of another type than
    their field's annotation in `known` (bools are not numbers). `where`
    names the entry, or is empty for the top level."""
    problems = []
    for key in sorted(entry, key=str):
        want = _SCALAR_TYPES.get(known.get(key))
        value = entry[key]
        if key not in known:
            problems.append(f"unknown key {key!r}{where}" if where
                            else f"unknown configuration key {key!r}")
        elif want and (not isinstance(value, want)
                       or isinstance(value, bool) and want is not bool):
            problems.append(f"{key} must be {known[key]}, got {value!r}{where}")
    return problems


def parse_config_mapping(raw: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Build a config; every unreadable entry or key is reported at once."""
    data = dict(raw)
    problems: list[str] = []

    def entries(key: str, label: str, known: dict[str, str]):
        """(number, entry) for each entry of list `key` whose keys pass."""
        value = data.pop(key, None) or []
        if not isinstance(value, list):
            problems.append(f"{key} must be a list, got {value!r}")
            return
        for number, entry in enumerate(value, start=1):
            found = (_key_problems(entry, known, f" in {label} entry {number}")
                     if isinstance(entry, dict) else [])
            problems.extend(found)
            if not found:
                yield number, entry

    gen_specs = []
    for number, g in entries("generators", "generator",
                             {f.name: f.type for f in fields(GeneratorSpec)}):
        try:
            spec = {"temperature": data.get("temperature", DEFAULT_TEMPERATURE),
                    **g}
            gen = GeneratorSpec(name=spec.pop("name"), **spec)
            # an int accuracy or temperature is hashed as a float, as it always was
            gen.accuracy, gen.temperature = float(gen.accuracy), float(gen.temperature)
            gen_specs.append(gen)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"generator entry {number} is malformed: {exc!r}")
    schedule = []
    for number, s in entries("schedule", "schedule",
                             {"iterations": "", "generators": ""}):
        try:
            first, last = _parse_span(str(s["iterations"]))
            schedule.append(ScheduleEntry(
                first=first, last=last, generators=[str(n) for n in s["generators"]]))
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"schedule entry {number} is malformed: {exc!r}")

    def _resolve(p: str) -> str:
        if base_dir is not None and p and not Path(p).is_absolute():
            return str(base_dir / p)
        return p

    problems.extend(f"missing required configuration key {f.name!r}"
                    for f in fields(ExperimentConfig)
                    if f.default is MISSING and f.default_factory is MISSING
                    and f.name not in data)
    problems.extend(_key_problems(
        data, {f.name: f.type for f in fields(ExperimentConfig)}))
    if problems:
        raise ConfigValidationError(problems)
    config = ExperimentConfig(generators=gen_specs, schedule=schedule, **data)
    config.seed_corpus = _resolve(config.seed_corpus)
    config.query_set = _resolve(config.query_set)
    config.output_dir = _resolve(config.output_dir)
    config.phrase_file = _resolve(config.phrase_file)
    if any(g.kind == "remote" for g in gen_specs) or any(
            getattr(config, name) for name in ENDPOINT_FIELDS):
        # load the HTTP stack now rather than inside the first request,
        # which a runner's construction sends; offline runs never load it
        import http.client  # noqa: F401
        import ssl  # noqa: F401
    return config


def load_config(path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        detail = (exc.strerror if isinstance(exc, OSError)
                  else " ".join(str(exc).split()))
        raise ConfigValidationError(
            [f"cannot read config file {path}: {detail}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigValidationError([f"config file {path} must hold a mapping"])
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    return parse_config_mapping(raw, base_dir=path.parent)


def validate_config(config: ExperimentConfig) -> list[str]:
    """All validation problems at once; empty list means valid."""
    problems: list[str] = []
    if not config.seed_corpus or not Path(config.seed_corpus).is_file():
        problems.append(f"seed corpus file not found: {config.seed_corpus!r}")
    if not config.query_set or not Path(config.query_set).is_file():
        problems.append(f"query set file not found: {config.query_set!r}")
    if config.pipeline not in PIPELINES:
        problems.append(f"pipeline must be one of {PIPELINES}, got "
                        f"{config.pipeline!r}")
    if config.filter_mode not in FILTER_MODES:
        problems.append(f"filter mode must be one of {FILTER_MODES}, got "
                        f"{config.filter_mode!r}")
    if config.iterations < 1:
        problems.append("iterations must be >= 1")
    if config.sample_size < 1:
        problems.append("sample_size must be >= 1")
    if config.rerank_depth < 1:
        problems.append("rerank_depth must be >= 1")
    if config.retrieval_depth < CONTEXT_SIZE:
        problems.append("retrieval_depth must cover the context size")
    if config.rerank_failure_policy not in (FAILURE_ABORT, FAILURE_PASS_THROUGH):
        problems.append(f"rerank_failure_policy must be {FAILURE_ABORT!r} or "
                        f"{FAILURE_PASS_THROUGH!r}")
    if not config.generators:
        problems.append("at least one generator backend is required")
    if len(config.generators) > 5:
        problems.append("at most 5 generator backends are supported")
    names = [g.name for g in config.generators]
    if len(set(names)) != len(names):
        problems.append("generator names must be unique")
    if any(n == "human" for n in names):
        problems.append("generator name 'human' is reserved for seed documents")
    for g in config.generators:
        if g.kind not in ("synthetic", "remote"):
            problems.append(f"generator {g.name!r} has unknown kind {g.kind!r}")
        if g.kind == "remote" and not g.endpoint:
            problems.append(f"remote generator {g.name!r} needs an endpoint")
        elif g.kind == "remote" and (problem := url_problem(g.endpoint)):
            problems.append(f"remote generator {g.name!r} endpoint "
                            f"{g.endpoint!r} {problem}")
        if g.kind == "synthetic" and not 0.0 <= g.accuracy <= 1.0:
            problems.append(f"generator {g.name!r} accuracy must be in [0, 1]")
    if config.schedule:
        covered: set[int] = set()
        for entry in config.schedule:
            if entry.first > entry.last:
                problems.append(f"schedule span {entry.first}-{entry.last} is empty")
            for name in entry.generators:
                if name not in names:
                    problems.append(f"schedule names unknown generator {name!r}")
            covered.update(range(entry.first, entry.last + 1))
        missing = [i for i in range(1, config.iterations + 1) if i not in covered]
        if missing:
            problems.append(f"schedule does not cover iterations {missing}")
    if config.uses_dense and not config.offline and not config.embedding_endpoint:
        problems.append("dense pipeline needs an embedding_endpoint unless "
                        "running offline with the hashed stub")
    remote = [g.name for g in config.generators if g.kind == "remote"]
    if config.offline and remote:
        problems.append(f"offline mode forbids remote generators: {remote}")
    for field_name in ENDPOINT_FIELDS:
        url = getattr(config, field_name)
        if url and (problem := url_problem(url)):
            problems.append(f"{field_name} {url!r} {problem}")
        if url and config.offline:
            problems.append(f"offline mode forbids {field_name}")
    if config.phrase_file and not Path(config.phrase_file).is_file():
        problems.append(f"phrase file not found: {config.phrase_file!r}")
    if not 0.0 < config.max_failure_fraction <= 1.0:
        problems.append("max_failure_fraction must be in (0, 1]")
    if config.max_in_flight < 1:
        problems.append("max_in_flight must be >= 1")
    if not 0.0 <= config.diversity_threshold <= 1.0:
        problems.append("diversity_threshold must be in [0, 1]")
    if not config.timeout > 0.0:
        problems.append("timeout must be > 0")
    if config.retries < 0:
        problems.append("retries must be >= 0")
    if not config.backoff >= 0.0:
        problems.append("backoff must be >= 0")
    if config.judge_generator and config.judge_generator not in names:
        problems.append(f"judge_generator {config.judge_generator!r} is not a "
                        "configured generator")
    return problems


def ensure_valid(config: ExperimentConfig) -> None:
    problems = validate_config(config)
    if problems:
        raise ConfigValidationError(problems)
