from __future__ import annotations

from dataclasses import asdict

import pytest

from ragloop.errors import GenerationFailure
from ragloop.generation import (ANSWER_CHECK, CONTEXT_ECHO_TOKENS, MIS_ANSWER,
                                MIS_PASSAGE, WITH_CONTEXTS, ZERO_SHOT,
                                GenerationRecord, GenerationRequest,
                                MisinfoSpec, SyntheticGenerator, build_prompt,
                                derive_seed,
                                generate, generate_false_answers,
                                generate_mis_passage, judge_support,
                                parse_judge_reply)
from ragloop.metrics import em
from ragloop.postprocess import clean


# ---- prompt templates -------------------------------------------------------

def test_zero_shot_prompt_rendering():
    prompt = build_prompt(ZERO_SHOT, "who wrote hamlet")
    assert prompt.startswith("Provide a background document in 100 words")
    assert "Question:who wrote hamlet" in prompt
    assert prompt.endswith("Background Document:")


def test_with_contexts_prompt_renders_five_slots():
    contexts = [f"ctx {i}" for i in range(1, 6)]
    prompt = build_prompt(WITH_CONTEXTS, "q?", contexts=contexts)
    for i, ctx in enumerate(contexts, start=1):
        assert f"[Context {i}]:{ctx}" in prompt
    assert prompt.count("-" * 21) == 2
    assert "Using both the context information and also using your own " \
           "knowledge" in prompt


def test_with_contexts_wrong_arity_rejected():
    with pytest.raises(ValueError, match="expected 5 contexts, got 4"):
        build_prompt(WITH_CONTEXTS, "q?", contexts=["a", "b", "c", "d"])
    with pytest.raises(ValueError, match="expected 5 contexts"):
        build_prompt(WITH_CONTEXTS, "q?")


def test_mis_answer_prompt():
    prompt = build_prompt(MIS_ANSWER, "capital?", ref_answers=["Paris", "paris"])
    assert prompt.startswith("Generate a false answer to the given question.")
    assert "Reference Answers:Paris, paris," in prompt
    assert prompt.endswith("False answer:")


def test_mis_passage_prompt():
    prompt = build_prompt(MIS_PASSAGE, "capital?", ref_answers=["Paris"],
                          false_answer="Lyon")
    assert prompt.startswith("Suppose you are generating realistic-looking "
                             "claims for a quiz contest.")
    assert "Don't contain any word in the original answers in Paris." in prompt
    assert "Answers:Lyon," in prompt
    assert prompt.endswith("Background document:")


def test_answer_check_prompt():
    prompt = build_prompt(ANSWER_CHECK, "capital?", response="It is Paris",
                          answer="Paris")
    assert prompt.endswith("Just answer 'yes' or 'no'.")
    assert "Response: It is Paris" in prompt
    assert "Answer: Paris" in prompt


def test_missing_required_fields_rejected():
    with pytest.raises(ValueError):
        build_prompt(MIS_ANSWER, "q?")
    with pytest.raises(ValueError):
        build_prompt(MIS_PASSAGE, "q?", ref_answers=["x"])
    with pytest.raises(ValueError):
        build_prompt(ANSWER_CHECK, "q?", response="r")
    with pytest.raises(ValueError, match="unknown prompt kind"):
        build_prompt("mystery", "q?")


# ---- synthetic backend ------------------------------------------------------

def _request(query="what is the capital of france", golds=("Paris",),
             iteration=1, query_id="q1", top_context=()):
    return GenerationRequest(prompt="p", kind=WITH_CONTEXTS, query_id=query_id,
                             iteration=iteration, query=query,
                             gold_answers=list(golds), top_context=top_context)


def test_synthetic_p1_contains_answer_terms_marker():
    gen = SyntheticGenerator("g", accuracy=1.0, seed=5)
    text = generate(gen, _request())
    assert em(["Paris"], text) == 1
    assert "capital" in text and "france" in text
    assert gen.marker in text


def test_synthetic_p0_excludes_answer():
    gen = SyntheticGenerator("g", accuracy=0.0, seed=5)
    for qid in ("q1", "q2", "q3"):
        text = generate(gen, _request(query_id=qid))
        assert em(["Paris"], text) == 0
        assert "capital" in text and gen.marker in text


_TOP_CONTEXT = tuple("the old paris museum holds maps of the river seine and "
                     "its bridges from every century".split())


def test_synthetic_echoes_the_head_of_its_top_context():
    gen = SyntheticGenerator("g", accuracy=1.0, seed=5)
    text = generate(gen, _request(top_context=_TOP_CONTEXT))
    head = " ".join(_TOP_CONTEXT[:CONTEXT_ECHO_TOKENS])
    assert f"Related material adds {head} " in text
    assert " ".join(_TOP_CONTEXT[:CONTEXT_ECHO_TOKENS + 1]) not in text


def test_synthetic_p0_echo_drops_the_gold_answer():
    gen = SyntheticGenerator("g", accuracy=0.0, seed=5)
    assert "paris" in _TOP_CONTEXT[:CONTEXT_ECHO_TOKENS]
    for qid in ("q1", "q2", "q3"):
        text = generate(gen, _request(query_id=qid, top_context=_TOP_CONTEXT))
        assert em(["Paris"], text) == 0
        head = [t for t in _TOP_CONTEXT[:CONTEXT_ECHO_TOKENS] if t != "paris"]
        assert f"Related material adds {' '.join(head)} " in text


def test_synthetic_without_top_context_echoes_nothing():
    gen = SyntheticGenerator("g", accuracy=1.0, seed=5)
    for qid in ("q1", "q2", "q3"):
        assert "Related material" not in generate(gen, _request(query_id=qid))


def test_synthetic_deterministic():
    gen = SyntheticGenerator("g", accuracy=0.5, seed=11)
    assert generate(gen, _request()) == generate(gen, _request())
    other_iteration = _request(iteration=2)
    assert generate(gen, _request()) != generate(gen, other_iteration)


def test_synthetic_word_count_near_hundred():
    gen = SyntheticGenerator("g", accuracy=1.0, seed=2)
    words = generate(gen, _request()).split()
    assert 80 <= len(words) <= 130


def test_synthetic_accuracy_calibration():
    # spec invariant: over >= 1000 generations the answer-inclusion rate
    # stays within +-0.05 of the configured accuracy
    for p in (0.2, 0.8):
        gen = SyntheticGenerator("g", accuracy=p, seed=123)
        hits = 0
        n = 1500
        for i in range(n):
            req = GenerationRequest(prompt="p", kind=ZERO_SHOT,
                                    query_id=f"q{i}", iteration=1,
                                    query=f"question about topic{i}",
                                    gold_answers=[f"zanswer{i}"])
            text = generate(gen, req)
            hits += em([f"zanswer{i}"], text)
        assert abs(hits / n - p) < 0.05


def test_synthetic_knowledge_fixed_across_iterations():
    gen = SyntheticGenerator("g", accuracy=0.5, seed=9)
    for qid in (f"q{i}" for i in range(20)):
        states = {em(["Paris"], generate(gen, _request(query_id=qid,
                                                       iteration=it)))
                  for it in range(1, 5)}
        assert len(states) == 1


def test_derive_seed_stable_and_distinct():
    a = derive_seed(1, "x", "q1", 2)
    assert a == derive_seed(1, "x", "q1", 2)
    assert a != derive_seed(1, "x", "q1", 3)
    assert a != derive_seed(2, "x", "q1", 2)


# ---- false answers and mis-passages ------------------------------------------

class _ScriptedBackend:
    """Returns queued replies; used to exercise validation loops."""

    name = "scripted"

    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = 0

    def generate(self, request):
        self.calls += 1
        if not self.replies:
            return "exhausted"
        return self.replies.pop(0)


def test_false_answer_containment_rejected_then_regenerated():
    backend = _ScriptedBackend(
        ["Paris, France", "Lyon", "Marseille", "Nice", "Toulouse",  # attempt 0
         "Lille", "Lyon", "Marseille", "Nice", "Toulouse"])         # attempt 1
    answers = generate_false_answers(backend, "capital of france?", ["Paris"])
    assert len(answers) == 5
    assert all(em(["Paris"], a) == 0 for a in answers)
    assert backend.calls == 10


def test_false_answer_accepts_clean_candidates():
    backend = _ScriptedBackend(["Lyon", "Marseille", "Nice", "Toulouse",
                                "Lille"])
    answers = generate_false_answers(backend, "capital?", ["Paris"])
    assert answers == ["Lyon", "Marseille", "Nice", "Toulouse", "Lille"]


def test_false_answer_budget_exhaustion():
    backend = _ScriptedBackend(["Paris encore"] * 40)
    with pytest.raises(GenerationFailure):
        generate_false_answers(backend, "capital?", ["Paris"])


def test_false_answer_synthetic_decoys_are_valid():
    gen = SyntheticGenerator("g", seed=4)
    decoys = generate_false_answers(gen, "capital of france?", ["Paris"])
    assert len(decoys) == 5
    assert len(set(decoys)) == 5
    for d in decoys:
        assert em(["Paris"], d) == 0


def test_false_answer_synthetic_palindrome_fallback():
    gen = SyntheticGenerator("g", seed=4)
    decoys = generate_false_answers(gen, "palindrome?", ["anna"])
    assert all(em(["anna"], d) == 0 for d in decoys)


def test_mis_passage_postconditions():
    gen = SyntheticGenerator("g", seed=8)
    text = generate_mis_passage(gen, "what is the capital of france",
                                "Lyon", ["Paris"], query_id="q1")
    assert "Lyon" in text
    assert em(["Paris"], text) == 0
    assert gen.marker in text


def test_mis_passage_regenerates_on_violation():
    backend = _ScriptedBackend(["Paris is not Lyon", "Lyon stands alone"])
    text = generate_mis_passage(backend, "capital?", "Lyon", ["Paris"])
    assert text == "Lyon stands alone"
    assert backend.calls == 2


def test_mis_passage_budget_exhaustion():
    backend = _ScriptedBackend(["Paris forever"] * 10)
    with pytest.raises(GenerationFailure):
        generate_mis_passage(backend, "capital?", "Lyon", ["Paris"])


# ---- judge --------------------------------------------------------------------

def test_parse_judge_reply():
    assert parse_judge_reply("Yes.") == "yes"
    assert parse_judge_reply("no, it contradicts") == "no"
    assert parse_judge_reply("  YES indeed") == "yes"
    assert parse_judge_reply("maybe") is None


def test_judge_support_parsing_and_fallback():
    backend = _ScriptedBackend(["Yes."])
    assert judge_support(backend, "q", "resp", "ans") == ("yes", False)
    backend = _ScriptedBackend(["no, it contradicts"])
    assert judge_support(backend, "q", "resp", "ans") == ("no", False)
    backend = _ScriptedBackend(["maybe", "maybe"])
    verdict, flagged = judge_support(backend, "q", "resp", "ans")
    assert verdict == "no" and flagged
    assert backend.calls == 2


def test_judge_support_synthetic_contains_rule():
    gen = SyntheticGenerator("g", seed=1)
    assert judge_support(gen, "q", "the answer is Paris", "Paris")[0] == "yes"
    assert judge_support(gen, "q", "the answer is Lyon", "Paris")[0] == "no"


# ---- records -------------------------------------------------------------------

def test_generation_record_cleaning_contract():
    raw = "As an AI language model, Paris is the capital."
    record = GenerationRecord(query_id="q", iteration=1, generator_name="g",
                              raw_text=raw, cleaned_text=clean(raw))
    assert record.cleaned_text == "Paris is the capital."
    again = GenerationRecord(**asdict(record))
    assert again == record


def test_misinfo_spec_invariants():
    spec = MisinfoSpec(query_id="q", false_answers=list("abcde"),
                       chosen_false_answer="c")
    assert MisinfoSpec(**asdict(spec)) == spec
    with pytest.raises(ValueError):
        MisinfoSpec(query_id="q", false_answers=list("abcd"),
                    chosen_false_answer="a")
    with pytest.raises(ValueError):
        MisinfoSpec(query_id="q", false_answers=list("abcde"),
                    chosen_false_answer="z")
