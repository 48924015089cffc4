import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ctxlm import corpus
from ctxlm.corpus import (CorpusError, Document, Sentence, Vocabulary, bow_vector,
                          build_vocabulary, context_windows, encode_documents,
                          filter_by_length, load_corpus)


def raw(text: str):
    return load_corpus(io.StringIO(text))


def test_load_blank_line_separates_documents():
    docs = raw("a b\nc\n\nd e\n")
    assert [len(d) for d in docs] == [2, 1]
    assert docs[0] == [["a", "b"], ["c"]]
    assert docs[1] == [["d", "e"]]


def test_load_single_document():
    docs = raw("a b\n")
    assert docs == [[["a", "b"]]]


def test_load_no_blank_lines_is_one_document():
    assert len(raw("a\nb\nc\n")) == 1


def test_load_empty_stream():
    assert raw("") == []
    assert raw("\n\n\n") == []


def test_load_invalid_utf8_reports_offset():
    with pytest.raises(CorpusError, match="byte 3"):
        load_corpus(io.BytesIO(b"ab \xff cd"))


def test_load_drops_a_leading_byte_order_mark():
    text = "the cat\nsat\n\non mats\n"
    plain = raw(text)
    assert plain[0][0][0] == "the"
    assert load_corpus(io.BytesIO(("\ufeff" + text).encode("utf-8"))) == plain
    assert raw("\ufeff" + text) == plain


def test_load_invalid_utf8_after_a_byte_order_mark_counts_the_mark():
    """The offset counts from the file's first byte, the mark's three included."""
    with pytest.raises(CorpusError, match="byte 6"):
        load_corpus(io.BytesIO("\ufeff".encode("utf-8") + b"ab \xff cd"))


def test_build_vocabulary_frequency_order():
    docs = raw("a a b\n")
    v = build_vocabulary(docs, 3)
    assert v.tokens == ["<unk>", "</s>", "a"]


def test_build_vocabulary_tie_is_lexicographic():
    v = build_vocabulary(raw("a b\n"), 3)
    assert v.tokens == ["<unk>", "</s>", "a"]


def test_build_vocabulary_counts_then_sorts():
    v = build_vocabulary(raw("x y x y z\n"), 4)
    assert set(v.tokens) == {"<unk>", "</s>", "x", "y"}


def test_build_vocabulary_rejects_tiny_max():
    with pytest.raises(CorpusError):
        build_vocabulary(raw("a\n"), 1)


def test_reserved_literals_not_duplicated():
    v = build_vocabulary(raw("<unk> a </s> a\n"), 10)
    assert v.tokens.count("<unk>") == 1
    assert v.tokens.count("</s>") == 1
    assert v.encode("<unk>") == corpus.UNK_ID


def test_vocabulary_must_start_with_the_reserved_tokens():
    for tokens in (["a", "<unk>", "</s>"], ["<unk>", "a", "</s>"], ["</s>", "<unk>", "a"], []):
        with pytest.raises(CorpusError, match="must start with"):
            Vocabulary(tokens)


def test_vocabulary_round_trip_and_unk():
    v = build_vocabulary(raw("a b c\n"), 5)
    for i in range(len(v)):
        assert v.encode(v.decode(i)) == i
    assert v.encode("never-seen") == corpus.UNK_ID


def test_sentence_requires_eos_and_counts_content():
    s = Sentence((4, 5, corpus.EOS_ID))
    assert s.length == 2
    assert s.content_ids == (4, 5)
    with pytest.raises(CorpusError):
        Sentence((4, 5))
    with pytest.raises(CorpusError):
        Sentence((corpus.EOS_ID,))


def test_encode_documents():
    v = build_vocabulary(raw("a b\n"), 4)
    docs = encode_documents(raw("a b\nz\n"), v)
    assert len(docs) == 1
    assert docs[0].sentences[0].token_ids == (v.encode("a"), v.encode("b"), corpus.EOS_ID)
    assert docs[0].sentences[1].token_ids == (corpus.UNK_ID, corpus.EOS_ID)


def _doc(lengths):
    return Document(tuple(Sentence((2,) * n + (corpus.EOS_ID,)) for n in lengths))


def test_filter_by_length_keeps_long_sentences_as_context():
    docs = filter_by_length([_doc([3, 60, 4])], 50)
    d = docs[0]
    assert len(d.sentences) == 3
    assert d.target_mask == (True, False, True)
    windows = context_windows(d, 2)
    assert len(windows) == 2
    # the over-length sentence still appears in the last window's context
    assert windows[1].context == d.sentences[0:2]


def test_filter_by_length_identity_when_all_short():
    docs = filter_by_length([_doc([3, 4])], 50)
    assert docs[0].target_mask is None
    assert len(context_windows(docs[0], 1)) == 2


def test_bow_vector_counts():
    v = build_vocabulary(raw("a a b c\n"), 5)
    docs = encode_documents(raw("a a b\n"), v)
    counts = bow_vector(docs[0].sentences, v)
    assert counts[v.encode("a")] == 2
    assert counts[v.encode("b")] == 1
    assert counts[corpus.EOS_ID] == 0
    assert counts.sum() == 3


def test_bow_vector_empty():
    v = build_vocabulary(raw("a\n"), 3)
    assert np.all(bow_vector([], v) == 0)


def test_bow_vector_enumerated():
    v = build_vocabulary(raw("a b c\n"), 5)
    docs = encode_documents(raw("a b\nb c\n"), v)
    counts = bow_vector(docs[0].sentences, v)
    assert counts[v.encode("a")] == 1
    assert counts[v.encode("b")] == 2
    assert counts[v.encode("c")] == 1


@given(st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=5),
                min_size=2, max_size=6))
def test_bow_additivity(sents):
    v = build_vocabulary([[list("abcd")]], 6)
    doc = encode_documents([sents], v)[0]
    half = len(doc.sentences) // 2
    a, b = doc.sentences[:half], doc.sentences[half:]
    combined = bow_vector(doc.sentences, v)
    assert np.array_equal(combined, bow_vector(a, v) + bow_vector(b, v))


def test_context_windows_shapes():
    d = _doc([1, 2, 3])
    windows = context_windows(d, 2)
    assert [len(w.context) for w in windows] == [0, 1, 2]
    assert windows[2].context == d.sentences[0:2]
    assert windows[2].target is d.sentences[2]


def test_context_windows_n_zero():
    d = _doc([1, 2, 3])
    assert all(w.context == () for w in context_windows(d, 0))


def test_context_windows_long_document():
    d = _doc([2] * 10)
    windows = context_windows(d, 8)
    assert len(windows) == 10
    assert windows[9].context == d.sentences[1:9]


@given(st.integers(0, 9), st.lists(st.integers(1, 4), min_size=1, max_size=8))
def test_window_count_matches_targets(n, lengths):
    d = _doc(lengths)
    assert len(context_windows(d, n)) == len(lengths)
    for i, w in enumerate(context_windows(d, n)):
        assert len(w.context) == min(n, i)


def test_document_must_be_nonempty():
    with pytest.raises(CorpusError):
        Document(())
