from __future__ import annotations

import random

import pytest

from conftest import holds_phrase
from ragloop.postprocess import PhraseList, clean, default_phrase_list


def test_quoted_opener_removed():
    assert clean("As an AI language model, Paris is the capital.") == \
        "Paris is the capital."


def test_untouched_text_is_byte_identical():
    text = "Paris  has  odd   spacing and no listed phrase."
    assert clean(text) == text


def test_multi_occurrence_removal():
    text = "According to my knowledge, X. According to my knowledge, Y."
    assert clean(text) == "X. Y."


def test_case_insensitive_matching():
    assert clean("AS AN AI LANGUAGE MODEL, fine.") == "fine."
    assert clean("as an ai language model, fine.") == "fine."


def test_full_sentence_phrase_removed():
    text = "I'd be happy to assist you with your question. Paris is it."
    assert clean(text) == "Paris is it."


def test_never_returns_empty():
    # the whole text is one phrase: the original is kept, byte for byte
    assert clean("As an AI language model,") == "As an AI language model,"
    assert clean("  As an AI language model,  ") == "  As an AI language model,  "


def test_default_list_has_at_least_forty_phrases():
    assert len(default_phrase_list()) >= 40


def test_empty_phrase_rejected():
    with pytest.raises(ValueError):
        PhraseList(["ok", "   "])


def test_phrase_list_from_file(tmp_path):
    path = tmp_path / "phrases.txt"
    path.write_text("# comment\nFirst phrase\n\nSecond phrase\n")
    plist = PhraseList.from_file(path)
    assert plist.phrases == ["First phrase", "Second phrase"]
    assert clean("First phrase, then content.", plist) == "then content."


def test_idempotence_on_fuzzed_inputs():
    plist = default_phrase_list()
    rng = random.Random(42)
    base_words = "paris is a city with museums rivers and long history".split()
    for _ in range(300):
        words = [rng.choice(base_words) for _ in range(rng.randint(3, 25))]
        text = " ".join(words)
        for _ in range(rng.randint(1, 4)):
            pos = rng.randint(0, len(text))
            phrase = rng.choice(plist.phrases)
            text = text[:pos] + phrase + (", " if rng.random() < 0.5 else " ") \
                + text[pos:]
        once = clean(text, plist)
        assert clean(once, plist) == once


def test_completeness_on_fuzzed_inputs():
    plist = default_phrase_list()
    rng = random.Random(7)
    base_words = "facts remain clear about the topic at hand".split()
    for _ in range(500):
        words = [rng.choice(base_words) for _ in range(rng.randint(4, 30))]
        text = " ".join(words)
        for _ in range(rng.randint(1, 3)):
            phrase = rng.choice(plist.phrases)
            pos = rng.choice([0, len(text) // 2, len(text)])
            text = text[:pos] + " " + phrase + ", " + text[pos:]
        cleaned = clean(text, plist)
        assert not holds_phrase(plist, cleaned)
        assert cleaned.strip()


def test_non_destruction_on_pure_content():
    plist = default_phrase_list()
    assert len(clean("x", plist)) >= 1
    assert len(clean("short but real text", plist)) >= 1
