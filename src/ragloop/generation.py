"""Prompt construction and generator backends.

Backends are either a remote chat-completions service or a deterministic
synthetic generator, which writes ~100-word answer documents with a
configurable chance of containing the correct answer. The synthetic
backend keeps the whole pipeline runnable offline and byte-reproducible.
"""

from __future__ import annotations

import hashlib
import logging
import random
from dataclasses import dataclass, field

from .errors import GenerationFailure, RemoteServiceError
from .metrics import em
from .remote import Endpoint, post_json_with_retries
from .retrieval import tokenize

logger = logging.getLogger(__name__)

ZERO_SHOT = "zero_shot"
WITH_CONTEXTS = "with_contexts"
MIS_ANSWER = "mis_answer"
MIS_PASSAGE = "mis_passage"
ANSWER_CHECK = "answer_check"

# the with-contexts template has exactly this many context slots
CONTEXT_SIZE = 5
DEFAULT_TEMPERATURE = 0.7
DEFAULT_STYLE_MARKER = "synthweave"
FALSE_ANSWER_COUNT = 5
# regenerations of a false-answer set or mis-passage that fails validation
RETRY_BUDGET = 3
# leading tokens of the first kept context that a synthetic answer repeats,
# read from the corpus store's tokens of that document
CONTEXT_ECHO_TOKENS = 12

_SEPARATOR = "-" * 21

_ZERO_SHOT_TEMPLATE = (
    "Provide a background document in 100 words according to your knowledge "
    "from Wikipedia to answer the given question.\n\n"
    "Question:{question}\n\n"
    "Background Document:"
)

_WITH_CONTEXTS_TEMPLATE = (
    "Context information is below.\n"
    f"{_SEPARATOR}\n"
    "[Context 1]:{context1}\n"
    "[Context 2]:{context2}\n"
    "[Context 3]:{context3}\n"
    "[Context 4]:{context4}\n"
    "[Context 5]:{context5}\n"
    f"{_SEPARATOR}\n"
    "Using both the context information and also using your own knowledge, "
    "answer the following question with a background document in 100 words.\n\n"
    "Question:{question}\n\n"
    "Background Document:"
)

_MIS_ANSWER_TEMPLATE = (
    "Generate a false answer to the given question. It should be short "
    "(less than ten words in general) and look plausible, compared to the "
    "reference answer.\n\n"
    "Question:{question}\n\n"
    "Reference Answers:{ref_answers},\n\n"
    "False answer:"
)

_MIS_PASSAGE_TEMPLATE = (
    "Suppose you are generating realistic-looking claims for a quiz contest. "
    "You need to generate a background document less than 100 words in "
    "support of the answer to the given question. Don't contain any word in "
    "the original answers in {ref_answers}. The background document must "
    "contain the following given answers with their original form.\n\n"
    "Question:{question}\n\n"
    "Answers:{false_answer},\n\n"
    "Background document:"
)

_ANSWER_CHECK_TEMPLATE = (
    "Does the following response support the answer to the question?\n"
    "Question: {question}\n"
    "Response: {response}\n"
    "Answer: {answer}\n"
    "Just answer 'yes' or 'no'."
)


def build_prompt(kind: str, query: str, contexts: list[str] | None = None,
                 ref_answers: list[str] | None = None,
                 false_answer: str | None = None,
                 response: str | None = None,
                 answer: str | None = None) -> str:
    """Render one of the fixed prompt templates.

    Placeholder substitution is exact; bad arity or missing fields are
    rejected rather than silently padded.
    """
    if kind == ZERO_SHOT:
        return _ZERO_SHOT_TEMPLATE.format(question=query)
    if kind == WITH_CONTEXTS:
        if contexts is None or len(contexts) != CONTEXT_SIZE:
            got = 0 if contexts is None else len(contexts)
            raise ValueError(f"expected {CONTEXT_SIZE} contexts, got {got}")
        return _WITH_CONTEXTS_TEMPLATE.format(
            question=query, context1=contexts[0], context2=contexts[1],
            context3=contexts[2], context4=contexts[3], context5=contexts[4])
    if kind == MIS_ANSWER:
        if not ref_answers:
            raise ValueError("mis_answer prompt requires reference answers")
        return _MIS_ANSWER_TEMPLATE.format(question=query,
                                           ref_answers=", ".join(ref_answers))
    if kind == MIS_PASSAGE:
        if not ref_answers:
            raise ValueError("mis_passage prompt requires reference answers")
        if not false_answer:
            raise ValueError("mis_passage prompt requires a false answer")
        return _MIS_PASSAGE_TEMPLATE.format(
            question=query, ref_answers=", ".join(ref_answers),
            false_answer=false_answer)
    if kind == ANSWER_CHECK:
        if response is None or answer is None:
            raise ValueError("answer_check prompt requires response and answer")
        return _ANSWER_CHECK_TEMPLATE.format(question=query, response=response,
                                             answer=answer)
    raise ValueError(f"unknown prompt kind {kind!r}")


@dataclass
class GenerationRequest:
    """Everything a backend may need for one call.

    Remote backends consume only the rendered prompt; the synthetic backend
    also uses the structured fields to seed its recipe. `top_context` is
    the corpus store's token tuple of the first kept context, empty when
    the prompt has no contexts; the synthetic backend echoes its head.
    """

    prompt: str
    kind: str = ZERO_SHOT
    query_id: str = ""
    iteration: int = 0
    query: str = ""
    gold_answers: list[str] = field(default_factory=list)
    false_answer: str | None = None
    top_context: tuple[str, ...] = ()
    response: str | None = None
    answer: str | None = None
    attempt: int = 0


@dataclass
class GenerationRecord:
    """One generated answer document with its grading fields."""

    query_id: str
    iteration: int
    generator_name: str
    raw_text: str
    cleaned_text: str
    em: int = 0
    em_llm: int | None = None
    em_false: int | None = None
    em_llm_false: int | None = None


@dataclass
class MisinfoSpec:
    """False answers crafted for one query, with the one chosen to spread."""

    query_id: str
    false_answers: list[str]
    chosen_false_answer: str

    def __post_init__(self) -> None:
        if len(self.false_answers) != FALSE_ANSWER_COUNT:
            raise ValueError(f"expected {FALSE_ANSWER_COUNT} false answers")
        if self.chosen_false_answer not in self.false_answers:
            raise ValueError("chosen false answer must be one of the candidates")


def derive_seed(global_seed: int, *parts) -> int:
    """Stable 64-bit seed from the global seed and any identifying parts."""
    material = ":".join([str(global_seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


_FILLER_WORDS = (
    "records indicate that early observers described the topic in detail and "
    "several accounts summarize how the subject developed over many years "
    "while later studies compared regional sources reviewed common findings "
    "and outlined the main events surrounding it with notes on context "
    "origins influence legacy reception and documented public interest"
).split()


class SyntheticGenerator:
    """Deterministic offline generator with calibrated answer accuracy.

    Whether the correct answer appears in the output models fixed background
    knowledge: it depends on (seed, query_id, generator name) but not the
    iteration, so a query the generator "knows" stays known across the run.
    The marginal rate over many queries matches the configured accuracy.
    Every output carries a style-marker token so a stub classifier can
    recognize the provenance. False answers are decoys built from the
    reversed reference answer, and the judge says yes iff the response
    contains the answer.
    """

    def __init__(self, name: str, accuracy: float = 1.0,
                 marker: str = DEFAULT_STYLE_MARKER, seed: int = 0):
        if not 0.0 <= accuracy <= 1.0:
            raise ValueError("accuracy must be in [0, 1]")
        self.name = name
        self.accuracy = accuracy
        self.marker = marker
        self.seed = seed

    def _knows_answer(self, query_id: str) -> bool:
        knowledge_seed = derive_seed(self.seed, "knowledge", self.name, query_id)
        return random.Random(knowledge_seed).random() < self.accuracy

    def _compose(self, rng: random.Random, query: str, include: str | None,
                 exclude: list[str], top_context: tuple[str, ...]) -> str:
        forbidden = {t for answer in exclude for t in tokenize(answer)}
        query_terms = [t for t in tokenize(query) if t not in forbidden]
        echo = [t for t in top_context[:CONTEXT_ECHO_TOKENS] if t not in forbidden]

        words = [w for w in _FILLER_WORDS if w not in forbidden] or ["material"]

        def filler(n: int) -> str:
            # contiguous run from the shared canon: generated documents reuse
            # stock phrasing, which is what drives their mutual similarity
            start = rng.randrange(len(words))
            return " ".join(words[(start + j) % len(words)] for j in range(n))

        topic = " ".join(query_terms) if query_terms else "this topic"
        sentences = [
            f"This {self.marker} note concerns {topic} and gathers what is "
            f"commonly reported about it.",
        ]
        if include is not None:
            sentences.append(
                f"Most sources agree the answer is {include}, and {topic} is "
                f"usually explained this way: {filler(rng.randint(18, 26))}.")
        else:
            sentences.append(
                f"Coverage of {topic} remains broad but inconclusive, with "
                f"{filler(rng.randint(18, 26))}.")
        if echo:
            sentences.append("Related material adds " + " ".join(echo) +
                             f" {filler(rng.randint(10, 16))}.")
        text = " ".join(sentences)
        while len(text.split()) < 90:
            text += f" Observers add that {filler(rng.randint(14, 20))}."
        if exclude and em(exclude, text):
            # a forbidden answer slipped in through template vocabulary;
            # drop the offending words outright
            kept = [w for w in text.split()
                    if not (set(tokenize(w)) & forbidden)]
            text = " ".join(kept)
        return text

    def generate(self, request: GenerationRequest) -> str:
        if request.kind == ANSWER_CHECK:
            # offline judge: the response supports the answer iff it contains it
            return "Yes." if em([request.answer], request.response) else "No."
        if request.kind == MIS_ANSWER:
            # decoy `attempt % 5` of the set for outer attempt `attempt // 5`;
            # the primary answer is reversed so that no decoy holds a
            # reference-answer token, and a hash covers palindromes
            outer, index = divmod(request.attempt, FALSE_ANSWER_COUNT)
            answers = request.gold_answers
            mangled = "-".join(t[::-1] for t in tokenize(answers[0])) or "unknown"
            decoys = [f"not-{mangled}-{i}" for i in range(1, FALSE_ANSWER_COUNT + 1)]
            if outer > 0 or any(em(answers, d) for d in decoys):
                tag = derive_seed(self.seed, "decoy", request.query, outer)
                return f"decoy{tag % 10_000}x{index + 1}"
            return decoys[index]
        call_seed = derive_seed(self.seed, "text", self.name, request.query_id,
                                request.iteration, request.attempt)
        rng = random.Random(call_seed)
        if request.kind == MIS_PASSAGE:
            if not request.false_answer:
                raise GenerationFailure("mis-passage request without a false answer")
            return self._compose(rng, request.query, include=request.false_answer,
                                 exclude=list(request.gold_answers),
                                 top_context=request.top_context)
        include = None
        if request.gold_answers and self._knows_answer(request.query_id):
            include = request.gold_answers[0]
        exclude = [] if include is not None else list(request.gold_answers)
        return self._compose(rng, request.query, include=include,
                             exclude=exclude, top_context=request.top_context)


class RemoteChatGenerator:
    """Client for a messages-based chat-completions endpoint."""

    def __init__(self, name: str, endpoint: Endpoint,
                 temperature: float = DEFAULT_TEMPERATURE):
        self.name = name
        self.endpoint = endpoint
        self.temperature = temperature

    def generate(self, request: GenerationRequest) -> str:
        payload = {
            "model": self.endpoint.model,
            "temperature": self.temperature,
            "messages": [{"role": "user", "content": request.prompt}],
        }
        reply = post_json_with_retries(self.endpoint, payload)
        try:
            text = reply["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise RemoteServiceError(
                f"malformed chat reply from {self.endpoint.url}: {exc}") from exc
        if not isinstance(text, str) or not text.strip():
            raise RemoteServiceError(f"empty chat reply from {self.endpoint.url}")
        return text


def generate(backend, request: GenerationRequest) -> str:
    """Produce raw answer text from a backend; raises GenerationFailure when
    the backend cannot deliver."""
    try:
        text = backend.generate(request)
    except RemoteServiceError as exc:
        raise GenerationFailure(str(exc)) from exc
    if not text.strip():
        raise GenerationFailure(f"backend {backend.name} returned empty text")
    return text


def generate_false_answers(backend, query: str, ref_answers: list[str],
                           query_id: str = "") -> list[str]:
    """Five plausible wrong answers, none containing a reference answer.

    Candidates that still contain a reference answer are regenerated up to
    RETRY_BUDGET times; exhausting it raises GenerationFailure so the query
    can be excluded from misinformation mode.
    """
    if not ref_answers:
        raise ValueError("reference answers must be non-empty")
    prompt = build_prompt(MIS_ANSWER, query, ref_answers=ref_answers)
    for attempt in range(RETRY_BUDGET + 1):
        candidates = []
        for i in range(FALSE_ANSWER_COUNT):
            request = GenerationRequest(prompt=prompt, kind=MIS_ANSWER, query=query,
                                        gold_answers=list(ref_answers),
                                        attempt=attempt * FALSE_ANSWER_COUNT + i)
            candidates.append(generate(backend, request).strip().splitlines()[0])
        valid = [c for c in candidates if c.strip() and not em(ref_answers, c)]
        if len(valid) >= FALSE_ANSWER_COUNT:
            return valid[:FALSE_ANSWER_COUNT]
        logger.warning("false-answer attempt %d for query %r produced %d/%d "
                       "valid candidates", attempt, query_id or query,
                       len(valid), FALSE_ANSWER_COUNT)
    raise GenerationFailure(
        f"could not produce {FALSE_ANSWER_COUNT} valid false answers for "
        f"query {query_id or query!r}")


def generate_mis_passage(backend, query: str, chosen_false_answer: str,
                         ref_answers: list[str], query_id: str = "") -> str:
    """A passage supporting the false answer and free of every reference
    answer, for iteration 1, where the runner commits it; validated and
    regenerated up to RETRY_BUDGET times."""
    prompt = build_prompt(MIS_PASSAGE, query, ref_answers=ref_answers,
                          false_answer=chosen_false_answer)
    for attempt in range(RETRY_BUDGET + 1):
        request = GenerationRequest(
            prompt=prompt, kind=MIS_PASSAGE, query_id=query_id,
            iteration=1, query=query, gold_answers=list(ref_answers),
            false_answer=chosen_false_answer, attempt=attempt)
        text = generate(backend, request)
        if chosen_false_answer in text and not em(ref_answers, text):
            return text
        logger.warning("mis-passage attempt %d for query %r failed validation",
                       attempt, query_id or query)
    raise GenerationFailure(
        f"could not produce a valid mis-passage for query {query_id or query!r}")


def parse_judge_reply(reply: str) -> str | None:
    """First yes/no token of the reply, case-insensitive; None if absent."""
    for token in tokenize(reply):
        if token == "yes":
            return "yes"
        if token == "no":
            return "no"
    return None


def judge_support(backend, query: str, response: str, answer: str) -> tuple[str, bool]:
    """Ask the judge whether the response supports the answer.

    Returns (verdict, parse_failed). An unparseable reply is reprompted
    once; a second failure yields the verdict "no" with the flag set.
    """
    prompt = build_prompt(ANSWER_CHECK, query, response=response, answer=answer)
    for attempt in range(2):
        request = GenerationRequest(prompt=prompt, kind=ANSWER_CHECK,
                                    query=query, response=response,
                                    answer=answer, attempt=attempt)
        verdict = parse_judge_reply(generate(backend, request))
        if verdict is not None:
            return verdict, False
    logger.warning("judge reply unparseable twice for query %r; recording 'no'",
                   query)
    return "no", True
