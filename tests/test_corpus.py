from __future__ import annotations

import json
import logging
import random
import sys
import threading
from collections import Counter

import pytest

from conftest import generated_doc, human_doc, snapshot_of, write_jsonl_file
from ragloop import corpus as corpus_module
from ragloop.corpus import (NGRAM_ORDERS, Document, DuplicateDocumentError,
                            HUMAN_SOURCE, SourceTag, add_documents,
                            generated_doc_id, ingest_seed_corpus)
from ragloop.errors import CorpusFormatError
from ragloop.retrieval import tokenize
from ragloop.runner import doc_from_row, doc_row


def test_ingest_three_records(tmp_path):
    path = write_jsonl_file(tmp_path / "seed.jsonl", [
        {"doc_id": "d1", "text": "alpha"},
        {"doc_id": "d2", "text": "beta", "title": "B"},
        {"doc_id": "d3", "text": "gamma"},
    ])
    snap = ingest_seed_corpus(path)
    assert len(snap) == 3
    for doc in snap.iter_documents():
        assert doc.source.kind == "human"
        assert doc.iteration_added == 0
    assert snap.get_text("d2") == "B\nbeta"


def test_ingest_duplicate_id_names_id_and_line(tmp_path):
    path = write_jsonl_file(tmp_path / "seed.jsonl", [
        {"doc_id": "d0", "text": "x"},
        {"doc_id": "d1", "text": "x"},
        {"doc_id": "d2", "text": "x"},
        {"doc_id": "d3", "text": "x"},
        {"doc_id": "d1", "text": "y"},
    ])
    with pytest.raises(DuplicateDocumentError) as err:
        ingest_seed_corpus(path)
    assert "d1" in str(err.value)
    assert err.value.line_no == 5


def test_ingest_duplicate_id_names_its_line_past_blank_lines(tmp_path):
    path = tmp_path / "seed.jsonl"
    path.write_text('{"doc_id": "d1", "text": "x"}\n\n'
                    '{"doc_id": 7, "text": "x"}\n\n\n'
                    '{"doc_id": "d2", "text": "x"}\n'
                    '{"doc_id": "7", "text": "y"}\n'
                    '{"doc_id": "d1", "text": "z"}\n')
    with pytest.raises(DuplicateDocumentError) as err:
        ingest_seed_corpus(path)
    # the integer id 7 reads as "7", so line 7 repeats line 3
    assert err.value.doc_id == "7" and err.value.line_no == 7


def test_extend_stores_given_tokens_and_rejects_a_mismatch_whole():
    snap = snapshot_of([human_doc("d1", "doc one")])
    given = snap.intern(["given", "tokens"])
    snap.extend([human_doc("d2", "other text")], [given])
    # handed tokens are stored as they are; the rest are read from the text
    assert snap.tokens("d2") is given and snap.tokens("d1") == ("doc", "one")
    with pytest.raises(ValueError, match="2 token tuples for 1 documents"):
        snap.extend([human_doc("d3", "three")], [("three",), ("extra",)])
    assert len(snap) == 2 and "d3" not in snap
    with pytest.raises(KeyError):
        snap.tokens("d3")


def test_ingest_empty_file_rejected(tmp_path):
    path = tmp_path / "seed.jsonl"
    path.write_text("")
    with pytest.raises(CorpusFormatError, match="empty seed corpus"):
        ingest_seed_corpus(path)


def test_ingest_bad_json_reports_line(tmp_path):
    path = tmp_path / "seed.jsonl"
    path.write_text('{"doc_id": "d1", "text": "ok"}\nnot json at all{\n')
    with pytest.raises(CorpusFormatError) as err:
        ingest_seed_corpus(path)
    assert err.value.line_no == 2


def test_ingest_missing_field_rejected(tmp_path):
    path = write_jsonl_file(tmp_path / "seed.jsonl", [{"doc_id": "d1"}])
    with pytest.raises(CorpusFormatError, match="doc_id and text"):
        ingest_seed_corpus(path)


@pytest.mark.parametrize("record", [
    {"doc_id": "d2", "text": None},
    {"doc_id": "d2", "text": ["a", "b"]},
    {"doc_id": "d2", "text": "fine", "title": 5},
    {"doc_id": ["a"], "text": "fine"},
    {"doc_id": None, "text": "fine"},
    {"doc_id": True, "text": "fine"},
    {"doc_id": 2.0, "text": "fine"},
], ids=["text-null", "text-list", "title-number", "doc-id-list", "doc-id-null",
        "doc-id-bool", "doc-id-float"])
def test_ingest_rejects_wrongly_typed_text_or_title(tmp_path, record):
    path = write_jsonl_file(tmp_path / "seed.jsonl",
                            [{"doc_id": "d1", "text": "fine"}, record])
    with pytest.raises(CorpusFormatError, match=r"seed\.jsonl:2: text must be a "
                                                 r"string, and title a string"):
        ingest_seed_corpus(path)


def test_ingest_integer_doc_id_loads_as_decimal_string(tmp_path):
    path = write_jsonl_file(tmp_path / "seed.jsonl", [{"doc_id": 7, "text": "x"},
                                                      {"doc_id": "8", "text": "y"}])
    assert [d.doc_id for d in ingest_seed_corpus(path).iter_documents()] == ["7", "8"]


def _seed(tmp_path, n=3):
    records = [{"doc_id": f"d{i}", "text": f"doc {i} text"} for i in range(n)]
    return ingest_seed_corpus(write_jsonl_file(tmp_path / "seed.jsonl", records))


def test_add_documents_four_thousand(tmp_path):
    snap = _seed(tmp_path, 100)
    docs = [generated_doc(generated_doc_id("gen", 1, f"q{i}"),
                          f"generated text {i}", "gen", f"q{i}")
            for i in range(4000)]
    grown = add_documents(snap, docs)
    assert grown is snap and len(grown) == 4100


def test_add_empty_list_is_noop(tmp_path):
    snap = _seed(tmp_path)
    assert add_documents(snap, []) is snap


def test_add_colliding_id_rejected_and_snapshot_unchanged(tmp_path):
    snap = _seed(tmp_path)
    ids = [d.doc_id for d in snap.iter_documents()]
    for batch, error, match in [
            ([generated_doc("d1", "new text", "gen", "q1")],
             DuplicateDocumentError, "d1"),
            ([generated_doc("g1", "a", "gen", "q1"), generated_doc("g2", "b", "gen", "q2"),
              generated_doc("g1", "c", "gen", "q3")], DuplicateDocumentError, "g1"),
            ([generated_doc("g1", "a", "gen", "q1", 1), generated_doc("g2", "b", "gen", "q2", 2)],
             ValueError, "share iteration_added")]:
        with pytest.raises(error, match=match):
            add_documents(snap, batch)
        # every check runs before the first append
        assert len(snap) == 3
        assert [d.doc_id for d in snap.iter_documents()] == ids
        assert "g1" not in snap
    assert snap.get_text("d1") == "doc 1 text"


def test_generated_doc_requires_origin_query():
    with pytest.raises(ValueError, match="origin_query_id"):
        Document(doc_id="g1", text="x",
                 source=SourceTag(kind="generated", generator_name="gen"),
                 iteration_added=1)


def test_generated_source_cannot_be_named_human():
    with pytest.raises(ValueError, match="reserved for human sources"):
        SourceTag(kind="generated", generator_name="human")


def test_human_doc_cannot_carry_iteration():
    with pytest.raises(ValueError):
        Document(doc_id="h1", text="x", source=HUMAN_SOURCE, iteration_added=2)


def test_empty_text_rejected():
    with pytest.raises(ValueError, match="empty text"):
        Document(doc_id="d", text="   ", source=HUMAN_SOURCE)


def test_mixed_iteration_commit_rejected(tmp_path):
    snap = _seed(tmp_path)
    docs = [generated_doc("g1", "t", "g", "q1", 1),
            generated_doc("g2", "t", "g", "q2", 2)]
    with pytest.raises(ValueError, match="share iteration_added"):
        add_documents(snap, docs)


def test_monotone_growth_random_commits(tmp_path):
    rng = random.Random(7)
    snap = _seed(tmp_path, 20)
    sizes = [len(snap)]
    for iteration in range(1, 6):
        docs = [generated_doc(generated_doc_id("g", iteration, f"q{i}"),
                              f"text {iteration} {i}", "g", f"q{i}", iteration)
                for i in range(rng.randint(0, 10))]
        snap = add_documents(snap, docs)
        sizes.append(len(snap))
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))


# ---- cached tokens ----------------------------------------------------------

def _assert_tokens_match_text(snap):
    for doc in snap.iter_documents():
        assert snap.tokens(doc.doc_id) == tuple(tokenize(doc.text))


def test_tokens_match_tokenize_after_ingest_add_and_reload(tmp_path):
    snap = _seed(tmp_path, 6)
    _assert_tokens_match_text(snap)
    snap = add_documents(snap, [
        generated_doc("g1", "Gen text: the SAME words, the same words!", "g", "q1"),
        generated_doc("g2", "Ünïcode café_bar 42", "g", "q2")])
    _assert_tokens_match_text(snap)
    reloaded = snapshot_of([doc_from_row(json.loads(json.dumps(doc_row(d))))
                            for d in snap.iter_documents()])
    _assert_tokens_match_text(reloaded)


def test_tokens_are_interned_per_store(tmp_path):
    snap = add_documents(_seed(tmp_path, 2), [
        generated_doc("g1", "shared words here", "g", "q1"),
        generated_doc("g2", "other shared words", "g", "q2")])
    first, second = snap.tokens("g1"), snap.tokens("g2")
    assert first[0] is second[1] and first[1] is second[2]
    assert snap.tokens("g1") is first
    with pytest.raises(KeyError):
        snap.tokens("missing")
    with pytest.raises(KeyError):
        snap.get("missing")


def test_stores_with_same_doc_id_keep_their_own_tokens(tmp_path):
    a = ingest_seed_corpus(write_jsonl_file(tmp_path / "a.jsonl",
                                            [{"doc_id": "d1", "text": "alpha one"}]))
    b = ingest_seed_corpus(write_jsonl_file(tmp_path / "b.jsonl",
                                            [{"doc_id": "d1", "text": "beta two"}]))
    assert a.tokens("d1") == ("alpha", "one")
    assert b.tokens("d1") == ("beta", "two")
    assert a.tokens("d1") == ("alpha", "one")


# ---- n-gram numbering ----------------------------------------------------------

def _ngram_counter(tokens) -> Counter:
    """Each 1- to NGRAM_ORDERS-gram of `tokens`, as a tuple, with its count."""
    return Counter(tuple(tokens[i:i + n]) for n in range(1, NGRAM_ORDERS + 1)
                   for i in range(len(tokens) - n + 1))


def _decoded(snap, doc_id) -> Counter:
    """`ngrams(doc_id)` with each number turned back into its n-gram, read
    through the store's numbering and token ids; checks that each order's
    n-grams follow that order's (0, 0) pair."""
    grams = snap.ngrams(doc_id)
    token_of = {i: t for t, i in snap._token_ids.items()}
    gram_of = {}
    for key, number in zip(snap._gram_keys.tolist(),
                           snap._gram_numbers.tolist()):
        ids = []
        while key:
            key, token_id = divmod(key, corpus_module._TOKEN_ID_LIMIT)
            ids.append(token_id)
        gram_of[number] = tuple(token_of[i] for i in reversed(ids))
    decoded = Counter()
    order = 0
    for number, count in zip(grams["number"].tolist(), grams["count"].tolist()):
        if number == 0:
            assert count == 0
            order += 1
            continue
        assert len(gram_of[number]) == order and gram_of[number] not in decoded
        decoded[gram_of[number]] = count
    assert order == NGRAM_ORDERS
    return decoded


def _numbering_is_one_to_one(snap) -> None:
    keys = snap._gram_keys.tolist()
    assert keys == sorted(set(keys)) and keys[0] == 0
    assert sorted(snap._gram_numbers.tolist()) == list(range(len(keys)))
    assert snap._gram_numbers[0] == 0 and snap.ngram_bound() == len(keys)


def test_cached_ngrams_decode_to_the_counter_of_each_document():
    rng = random.Random(7)
    vocab = [f"w{i}" for i in range(9)]
    texts = [" ".join(rng.choice(vocab) for _ in range(rng.randint(0, 30))) or "?"
             for _ in range(40)] + ["one", "one two", "a a a a a a"]
    snap = snapshot_of([human_doc(f"d{i}", t) for i, t in enumerate(texts)])
    for i, text in enumerate(texts):
        grams = snap.ngrams(f"d{i}")
        assert grams.dtype == corpus_module.NGRAM_DTYPE
        assert _decoded(snap, f"d{i}") == _ngram_counter(tokenize(text))
        assert snap.ngrams(f"d{i}") is grams
    _numbering_is_one_to_one(snap)


def test_a_store_numbers_nothing_until_a_document_is_read():
    snap = snapshot_of([human_doc("d1", "alpha beta"), human_doc("d2", "beta")])
    snap.tokens("d1")
    assert snap.ngram_bound() == 1 and not snap._token_ids
    snap.ngrams("d2")
    assert snap.ngram_bound() == 2


def test_threads_racing_on_new_documents_share_one_numbering():
    rng = random.Random(11)
    vocab = [f"t{i}" for i in range(30)]
    texts = [" ".join(rng.choice(vocab) for _ in range(rng.randint(5, 60)))
             for _ in range(120)]
    ids = [f"d{i}" for i in range(len(texts))]
    snap = snapshot_of([human_doc(d, t) for d, t in zip(ids, texts)])
    for d in ids:
        snap.tokens(d)
    start = threading.Barrier(8)
    seen: list[dict] = []

    def read(seed: int) -> None:
        order = list(ids)
        random.Random(seed).shuffle(order)
        start.wait(timeout=10)
        seen.append({d: snap.ngrams(d) for d in order})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(seen) == 8
    # every thread got the one array the store keeps for each document
    assert all(got[d] is snap.ngrams(d) for got in seen for d in ids)
    _numbering_is_one_to_one(snap)
    assert snap.ngram_bound() - 1 == len(set().union(
        *(_ngram_counter(tokenize(t)) for t in texts)))
    for d, text in zip(ids, texts):
        assert _decoded(snap, d) == _ngram_counter(tokenize(text))


def test_numbering_past_the_token_id_limit_fails_loudly(monkeypatch):
    monkeypatch.setattr(corpus_module, "_TOKEN_ID_LIMIT", 4)
    snap = snapshot_of([human_doc("d1", "a b c"), human_doc("d2", "c d e")])
    assert _decoded(snap, "d1") == _ngram_counter(["a", "b", "c"])
    with pytest.raises(OverflowError):
        snap.ngrams("d2")


def test_counts_past_int16_widen_one_document_loudly(caplog):
    many = 40000
    snap = snapshot_of([human_doc("d1", "ha " * many), human_doc("d2", "ha ho")])
    with caplog.at_level(logging.WARNING, logger="ragloop.corpus"):
        grams = snap.ngrams("d1")
    assert "int32" in caplog.text
    assert grams["count"].dtype == "int32"
    assert _decoded(snap, "d1") == Counter({("ha",): many, ("ha", "ha"): many - 1,
                                            ("ha", "ha", "ha"): many - 2})
    assert snap.ngrams("d2").dtype == corpus_module.NGRAM_DTYPE
