import io
import logging
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from ctxlm.corpus import Document, EOS_ID, Sentence
from ctxlm.ngram import (BOS, NGramTable, count_ngrams, estimate_discounts,
                         sentence_log_probability, write_arpa)


def doc(*sentences):
    return Document(tuple(Sentence(tuple(s) + (EOS_ID,)) for s in sentences))


# ids: reserved 0/1, then content tokens from 2 upward
A, B, C = 2, 3, 4


def test_count_bigrams_example():
    table = count_ngrams([doc([A, B])], 2, vocab_size=5)
    assert table.counts[2] == {(BOS, A): 1, (A, B): 1, (B, EOS_ID): 1}
    assert table.counts[1] == {(A,): 1, (B,): 1, (EOS_ID,): 1}


def test_count_empty_corpus():
    table = count_ngrams([], 2, vocab_size=5)
    assert table.counts[1] == {} and table.counts[2] == {}
    assert table.probability(A) == 1 / 5  # uniform base


def test_count_repeated_token():
    table = count_ngrams([doc([A, A, A])], 2, vocab_size=3)
    assert table.counts[2][(A, A)] == 2


def test_count_no_cross_sentence_ngrams():
    table = count_ngrams([doc([A], [B])], 2, vocab_size=5)
    assert (A, B) not in table.counts[2]
    assert (EOS_ID, B) not in table.counts[2]


def test_count_rejects_order_zero():
    with pytest.raises(ValueError):
        count_ngrams([doc([A])], 0, vocab_size=3)


def test_context_prefix_exists_at_lower_order():
    table = count_ngrams([doc([A, B, C], [A, C])], 3, vocab_size=5)
    for k in (2, 3):
        for gram in table.counts[k]:
            prefix = gram[:-1]
            if prefix[-1] != BOS:
                assert prefix in table.counts[k - 1]


def test_discount_formulas_frozen():
    # craft raw counts with n1=n2=n3=n4=1 at the (single) top order
    table = NGramTable(1, vocab_size=8)
    table.counts[1] = {(2,): 1, (3,): 2, (4,): 3, (5,): 4}
    table._freeze()
    assert table.count_of_counts(1) == (1, 1, 1, 1)
    d = estimate_discounts(table)[1]
    assert d.d1 == pytest.approx(Fraction(1, 3), abs=1e-15)
    assert d.d2 == pytest.approx(1.0, abs=1e-12)
    assert d.d3plus == pytest.approx(Fraction(5, 3), abs=1e-12)


def test_discount_fallback_on_degenerate_counts(caplog):
    # all types occur once: n2 = 0 -> single discount Y = 1
    table = count_ngrams([doc([A, B, C])], 1, vocab_size=5)
    with caplog.at_level(logging.WARNING, logger="ctxlm.ngram"):
        d = estimate_discounts(table)[1]
    assert d.d1 == d.d2 == d.d3plus
    assert caplog.records


def test_discounts_bounded_by_counts_they_discount():
    rng = np.random.default_rng(0)
    sents = [list(rng.integers(2, 7, size=rng.integers(1, 6))) for _ in range(40)]
    table = count_ngrams([doc(*sents)], 3, vocab_size=7)
    for k, d in estimate_discounts(table).items():
        assert 0.0 <= d.d1 <= 1.0
        assert 0.0 <= d.d2 <= 2.0
        assert 0.0 <= d.d3plus <= 3.0


# -- hand-derived oracle on the two-sentence corpus ---------------------------
# corpus "a b" / "a c", order 2, V = {unk, eos, a, b, c}
#   raw bigrams: (<s>,a):2 (a,b):1 (b,</s>):1 (a,c):1 (c,</s>):1
#   order-2 count-of-counts: n1=4, n2=1, n3=0 -> fallback D = Y = 2/3
#   continuation unigrams: a:1 b:1 c:1 </s>:2, total 5
#   order-1 count-of-counts: n1=3, n2=1, n3=0 -> fallback D = Y = 3/5
#   p1(b) = (1 - 3/5)/5 + ((3/5 * 4)/5) * (1/5) = 22/125
#   p(b|a) = (1 - 2/3)/2 + (2/3) * 22/125 = 213/750


def _ab_ac_table():
    return count_ngrams([doc([A, B]), doc([A, C])], 2, vocab_size=5)


def test_hand_oracle_discounts():
    ds = estimate_discounts(_ab_ac_table())
    assert ds[2].d1 == pytest.approx(Fraction(2, 3), abs=1e-15)
    assert ds[2].d3plus == pytest.approx(Fraction(2, 3), abs=1e-15)
    assert ds[1].d1 == pytest.approx(Fraction(3, 5), abs=1e-15)


def test_hand_oracle_probability():
    table = _ab_ac_table()
    assert table.probability(B, (A,)) == pytest.approx(Fraction(213, 750), abs=1e-15)
    assert table.probability(C, (A,)) == pytest.approx(Fraction(213, 750), abs=1e-15)


def test_unseen_context_equals_lower_order():
    table = _ab_ac_table()
    for w in range(5):
        assert table.probability(w, (0,)) == table.probability(w, ())
        # deeper unseen context backs off through the chain
        assert table.probability(w, (0, 0)) == table.probability(w, ())


def test_normalization_and_positivity():
    table = _ab_ac_table()
    rng = np.random.default_rng(7)
    contexts = [()] + [(int(rng.integers(0, 5)),) for _ in range(20)] + [(B,), (C,), (BOS,)]
    for ctxt in contexts:
        probs = [table.probability(w, ctxt) for w in range(5)]
        assert all(p > 0 for p in probs)
        assert abs(sum(probs) - 1.0) < 1e-9


def test_single_content_token_vocabulary_normalizes():
    table = count_ngrams([doc([A]), doc([A])], 2, vocab_size=3)
    total = sum(table.probability(w, (A,)) for w in range(3))
    assert abs(total - 1.0) < 1e-12


def test_probability_rejects_out_of_vocab_ids():
    table = _ab_ac_table()
    with pytest.raises(ValueError):
        table.probability(5)
    with pytest.raises(ValueError):
        table.probability(BOS)


def test_long_context_is_truncated():
    table = _ab_ac_table()
    assert table.probability(B, (C, C, C, A)) == table.probability(B, (A,))


# -- independent brute-force reimplementation ---------------------------------


def _kn_oracle(sentences, order, vocab_size):
    """Direct transcription of the interpolated modified-KN recursion, using
    brute-force scans instead of the production table's precomputed maps."""
    counts = {k: Counter() for k in range(1, order + 1)}
    for sent in sentences:
        seq = (BOS,) * (order - 1) + tuple(sent)
        for i in range(order - 1, len(seq)):
            for k in range(1, order + 1):
                counts[k][tuple(seq[i - k + 1 : i + 1])] += 1
    cont = {k: Counter() for k in range(1, order)}
    for k in range(1, order):
        for gram in counts[k + 1]:
            cont[k][gram[1:]] += 1

    def eff(k):
        return counts[k] if k == order else cont[k]

    discounts = {}
    for k in range(1, order + 1):
        cc = Counter(eff(k).values())
        n1, n2, n3, n4 = cc[1], cc[2], cc[3], cc[4]
        if n1 == 0 and n2 == 0:
            discounts[k] = (0.5,) * 3 if eff(k) else (0.0,) * 3
            continue
        y = n1 / (n1 + 2 * n2)
        if n1 and n2 and n3:
            trio = (1 - 2 * y * n2 / n1, 2 - 3 * y * n3 / n2, 3 - 4 * y * n4 / n3)
            if trio[1] > 0 and trio[2] > 0:
                discounts[k] = trio
                continue
        discounts[k] = ((y if y > 0 else 0.5),) * 3

    def disc(k, c):
        return 0.0 if c <= 0 else discounts[k][min(c, 3) - 1]

    def prob(w, ctxt):
        ctxt = tuple(ctxt)
        if len(ctxt) > order - 1:
            ctxt = ctxt[len(ctxt) - order + 1:]
        k = len(ctxt) + 1
        e = eff(k)
        total = sum(c for g, c in e.items() if g[:-1] == ctxt)
        gamma = sum(disc(k, c) for g, c in e.items() if g[:-1] == ctxt)
        if k == 1:
            if total == 0:
                return 1.0 / vocab_size
            c = e.get((w,), 0)
            return max(c - disc(1, c), 0.0) / total + (gamma / total) / vocab_size
        if total == 0:
            return prob(w, ctxt[1:])
        c = e.get(ctxt + (w,), 0)
        return max(c - disc(k, c), 0.0) / total + (gamma / total) * prob(w, ctxt[1:])

    return prob


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [1, 2])
def test_matches_independent_oracle(order, seed):
    rng = np.random.default_rng(seed)
    V = 8
    sents = [list(rng.integers(2, V, size=rng.integers(1, 6))) for _ in range(25)]
    table = count_ngrams([doc(*sents)], order, vocab_size=V)
    oracle = _kn_oracle([s.token_ids for d in [doc(*sents)] for s in d.sentences], order, V)
    contexts = [()] + [tuple(rng.integers(0, V, size=rng.integers(1, order + 1)))
                       for _ in range(15)]
    for ctxt in contexts:
        for w in range(V):
            assert table.probability(w, ctxt) == pytest.approx(oracle(w, ctxt), abs=1e-12)
        assert abs(sum(table.probability(w, ctxt) for w in range(V)) - 1.0) < 1e-9


def test_sentence_log_probability_deterministic_corpus():
    table = count_ngrams([doc(*[[A]] * 20)], 2, vocab_size=3)
    lp = sentence_log_probability(Sentence((A, EOS_ID)), table)
    assert -0.1 < lp < 0.0  # probability close to 1 up to smoothing mass


def test_length_one_sentence_mass_is_subdistribution():
    table = _ab_ac_table()
    total = sum(
        math.exp(sentence_log_probability(Sentence((w, EOS_ID)), table))
        for w in range(2, 5)
    )
    total += math.exp(sentence_log_probability(Sentence((0, EOS_ID)), table))
    assert total <= 1.0 + 1e-12


def test_duplicate_corpus_preserves_ml_ratios():
    sents = [[A, B], [A, C], [B, C, A]]
    single = count_ngrams([doc(*sents)], 2, vocab_size=5)
    double = count_ngrams([doc(*sents), doc(*sents)], 2, vocab_size=5)
    for gram, c in single.counts[2].items():
        h = gram[:-1]
        assert double.counts[2][gram] == 2 * c
        assert (c / single._totals[2][h]
                == double.counts[2][gram] / double._totals[2][h])


class ToyVocab:
    tokens = ["<unk>", "</s>", "a", "b", "c"]

    def decode(self, i):
        return self.tokens[i]


def _arpa_rows(table):
    """Tab-separated columns of every n-gram line of the table's text export."""
    buf = io.StringIO()
    write_arpa(table, ToyVocab(), buf)
    return [line.split("\t") for line in buf.getvalue().splitlines() if "\t" in line]


def test_arpa_export_structure():
    table = _ab_ac_table()
    buf = io.StringIO()
    write_arpa(table, ToyVocab(), buf)
    text = buf.getvalue()
    assert text.startswith("\\data\\\n")
    assert "\\1-grams:" in text and "\\2-grams:" in text and text.rstrip().endswith("\\end\\")
    for line in text.splitlines():
        if "\t" not in line:
            continue
        cols = line.split("\t")
        assert len(cols) in (2, 3)
        float(cols[0])
        if len(cols) == 3:
            float(cols[2])
    # exported probability matches a direct query
    for line in text.splitlines():
        if line.split("\t")[1:2] == ["a b"]:
            assert float(line.split("\t")[0]) == pytest.approx(
                math.log10(table.probability(B, (A,))), abs=1e-7)
            break
    else:
        pytest.fail("bigram 'a b' not exported")


def test_arpa_order_one_has_no_backoff_column():
    table = count_ngrams([doc([A, B]), doc([A, C])], 1, vocab_size=5)
    rows = _arpa_rows(table)
    assert [cols[1] for cols in rows] == ["</s>", "a", "b", "c"]
    assert all(len(cols) == 2 for cols in rows)


def test_arpa_lists_every_bos_prefix_with_a_backoff():
    table = count_ngrams([doc([A, B, C]), doc([B])], 3, vocab_size=5)
    rows = _arpa_rows(table)
    bos_rows = {cols[1]: cols for cols in rows if cols[1].split()[-1] == "<s>"}
    assert set(bos_rows) == {"<s>", "<s> <s>"}
    for cols in bos_rows.values():
        assert len(cols) == 3
        assert float(cols[0]) == -99.0   # placeholder: BOS is never predicted
        assert float(cols[2]) <= 0.0   # weights never exceed 1


def test_add_sentence_after_counting_raises():
    table = _ab_ac_table()
    with pytest.raises(RuntimeError):
        table.add_sentence(Sentence((A, EOS_ID)))
