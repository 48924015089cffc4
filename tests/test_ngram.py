import hashlib
import io
import logging
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctxlm.cli import main
from ctxlm.corpus import (Document, EOS_ID, Sentence, build_vocabulary, encode_documents,
                          load_corpus_file)
from ctxlm.evaluation import corpus_perplexity
from ctxlm.ngram import (BOS, NGramTable, count_ngrams, estimate_discounts,
                         sentence_log_probabilities, write_arpa)
from support import sentence_log_probability


def doc(*sentences):
    return Document(tuple(Sentence(tuple(s) + (EOS_ID,)) for s in sentences))


# ids: reserved 0/1, then content tokens from 2 upward
A, B, C = 2, 3, 4


def test_count_bigrams_example():
    table = count_ngrams([doc([A, B])], 2, vocab_size=5)
    assert table.grams(2) == {(BOS, A): 1, (A, B): 1, (B, EOS_ID): 1}
    assert table.grams(1) == {(A,): 1, (B,): 1, (EOS_ID,): 1}


def test_count_rejects_a_padded_size_numpy_cannot_hold():
    """Two sentences after 2**60 - 1 begin-of-sentence codes each exceed
    numpy's index range in bytes: a ValueError before any allocation."""
    with pytest.raises(ValueError, match="too large for an array"):
        count_ngrams([doc([A, B], [C])], 2**60, vocab_size=5)


def test_count_empty_corpus():
    table = count_ngrams([], 2, vocab_size=5)
    assert table.grams(1) == {} and table.grams(2) == {}
    assert table.probability(A) == 1 / 5  # uniform base


def test_count_repeated_token():
    table = count_ngrams([doc([A, A, A])], 2, vocab_size=3)
    assert table.grams(2)[(A, A)] == 2


def test_count_no_cross_sentence_ngrams():
    table = count_ngrams([doc([A], [B])], 2, vocab_size=5)
    assert (A, B) not in table.grams(2)
    assert (EOS_ID, B) not in table.grams(2)


@pytest.mark.parametrize("bad", [BOS, -3, 5, 2**70])
def test_count_rejects_ids_outside_the_vocabulary(bad):
    with pytest.raises(ValueError, match="outside vocabulary"):
        count_ngrams([doc([A, bad])], 2, vocab_size=5)


def test_count_rejects_order_zero():
    with pytest.raises(ValueError):
        count_ngrams([doc([A])], 0, vocab_size=3)


def test_constructor_builds_every_order():
    table = NGramTable([(A, B, EOS_ID), (A, EOS_ID)], 3, vocab_size=5)
    assert table.grams(3) == {(BOS, BOS, A): 2, (BOS, A, B): 1, (A, B, EOS_ID): 1,
                              (BOS, A, EOS_ID): 1}
    # lower orders hold continuation counts: distinct left extensions
    assert table.grams(2) == {(BOS, A): 1, (A, B): 1, (B, EOS_ID): 1, (A, EOS_ID): 1}
    assert table.grams(1) == {(A,): 1, (B,): 1, (EOS_ID,): 2}
    assert sorted(table.discounts) == [1, 2, 3]


def test_context_prefix_exists_at_lower_order():
    table = count_ngrams([doc([A, B, C], [A, C])], 3, vocab_size=5)
    for k in (2, 3):
        for gram in table.grams(k):
            prefix = gram[:-1]
            if prefix[-1] != BOS:
                assert prefix in table.grams(k - 1)


def test_discount_formulas_frozen():
    # raw counts with n1=n2=n3=n4=1 at the (single) top order: 2 once, 3 twice,
    # 4 three times and EOS once per sentence
    table = NGramTable([(2, 3, EOS_ID), (3, 4, EOS_ID), (4, EOS_ID), (4, EOS_ID)], 1,
                       vocab_size=8)
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


@st.composite
def _corpora(draw):
    """(sentences with EOS, order, vocab size, query contexts) over a tiny vocabulary."""
    V = draw(st.integers(2, 10))
    order = draw(st.integers(1, 5))
    token = st.sampled_from([0] + list(range(2, V)))
    sents = draw(st.lists(st.lists(token, min_size=1, max_size=6), max_size=6))
    contexts = draw(st.lists(st.lists(st.integers(BOS, V - 1), max_size=order), max_size=4))
    return [tuple(s) + (EOS_ID,) for s in sents], order, V, [()] + [tuple(c) for c in contexts]


class NumberedVocab:
    def decode(self, i):
        return f"w{i}"


@settings(deadline=None)
@given(_corpora())
def test_random_corpora_match_oracle_and_export_every_gram(case):
    sents, order, V, contexts = case
    table = count_ngrams([doc(*[s[:-1] for s in sents])] if sents else [], order, vocab_size=V)
    oracle = _kn_oracle(sents, order, V)
    for ctxt in contexts:
        for w in range(V):
            assert table.probability(w, ctxt) == pytest.approx(oracle(w, ctxt), abs=1e-12)
    # brute force: every k-gram ending at a predicted position, and every
    # k-token context in front of one
    expect = {k: set() for k in range(1, order + 1)}
    for s in sents:
        seq = (BOS,) * (order - 1) + s
        for i in range(order - 1, len(seq)):
            for k in range(1, order + 1):
                expect[k].add(seq[i - k + 1 : i + 1])
                if k < order:
                    expect[k].add(seq[i - k : i])
    buf = io.StringIO()
    write_arpa(table, NumberedVocab(), buf)
    text = buf.getvalue()
    listed = {k: set() for k in range(1, order + 1)}
    for line in text.splitlines():
        if "\t" in line:
            names = line.split("\t")[1].split()
            listed[len(names)].add(tuple(BOS if t == "<s>" else int(t[1:]) for t in names))
    assert listed == expect
    for k in range(1, order + 1):
        assert f"ngram {k}={len(expect[k])}\n" in text


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
    def totals(table):
        out = Counter()
        for gram, c in table.grams(2).items():
            out[gram[:-1]] += c
        return out

    single_totals, double_totals = totals(single), totals(double)
    for gram, c in single.grams(2).items():
        h = gram[:-1]
        assert double.grams(2)[gram] == 2 * c
        assert (c / single_totals[h]
                == double.grams(2)[gram] / double_totals[h])


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


@st.composite
def _scoring_cases(draw):
    """(training sentences, evaluation sentences, order, V, query contexts):
    evaluation may use words training never saw, training may be empty, and
    contexts hold BOS and ids outside the vocabulary."""
    V = draw(st.integers(2, 10))
    order = draw(st.integers(1, 5))
    content = st.lists(st.sampled_from([0] + list(range(2, V))), min_size=1, max_size=6)
    train = draw(st.lists(content, max_size=6))
    test = draw(st.lists(content, min_size=1, max_size=6))
    contexts = draw(st.lists(st.lists(st.integers(BOS - 2, V + 2), max_size=order + 1),
                             max_size=4))
    return train, test, order, V, contexts


@settings(deadline=None)
@given(_scoring_cases())
def test_corpus_scorer_is_the_left_fold_of_probability(case):
    train, test, order, V, contexts = case
    table = count_ngrams([doc(*train)] if train else [], order, vocab_size=V)
    sentences = [Sentence(tuple(s) + (EOS_ID,)) for s in test]
    want = []
    for sent in sentences:
        seq = (BOS,) * (order - 1) + sent.token_ids
        lp = 0.0
        for i in range(order - 1, len(seq)):
            lp += math.log(table.probability(seq[i], seq[i - order + 1 : i]))
        want.append(lp)
    assert [x.hex() for x in sentence_log_probabilities(sentences, table)] == \
        [x.hex() for x in want]
    total = 0.0
    for lp in want:
        total += lp
    report = corpus_perplexity(table, [Document(tuple(sentences))], n=0)
    assert report.total_nll.hex() == (-total).hex()
    # an id that is neither a word nor BOS is never seen: the context backs off
    # to the part after it, bit for bit
    for ctxt in map(tuple, contexts):
        bad = [i for i, t in enumerate(ctxt) if not (0 <= t < V or t == BOS)]
        cut = ctxt[bad[-1] + 1 :] if bad else ctxt
        for w in range(V):
            assert table.probability(w, ctxt).hex() == table.probability(w, cut).hex()


# Generated by the dict-of-tuples table this array table replaced; every
# probability, output line and export byte must stay the same.
GOLDEN_STDOUT = "tag,count,mean_nll,perplexity\nALL,279,2.157132,8.646305\n"
GOLDEN_ARPA_SHA256 = "ed482b54c66b005ca570910350fd3d16fbdfe9c39a38067928803acaf6b957f6"
GOLDEN_PROBABILITIES = """
    0x1.8071123287550p-6 0x1.09148f5a1c635p-3 0x1.d91ef428c12d5p-5 0x1.870dca9bb6f75p-3
    0x1.4d8f48426de41p-4 0x1.5e85363d2109cp-5 0x1.39c5b29df2383p-4 0x1.60c19713513d1p-6
    0x1.50114e45b1f63p-3 0x1.1cf254c7eed5ep-1 0x1.39c5b29df2383p-4 0x1.8e80d1083b527p-5
    0x1.d475934ad73ffp-3 0x1.241d55f5b5b84p-3 0x1.ec7d4522ae67fp-4 0x1.c448ca1d53eb8p-7
    0x1.4d8f48426de41p-4 0x1.ac7bbf7ba85d8p-5 0x1.32a76a1ce5d78p-6 0x1.8618618618618p-5
    0x1.a3525276e4a10p-3 0x1.a3cb687b04550p-5 0x1.319591da42bb5p-7 0x1.f5377979ce7f4p-5
    0x1.4d8f48426de41p-4 0x1.4d8f48426de41p-4 0x1.d53e2d97c8e7bp-4 0x1.d2d4cfa601d16p-4
    0x1.4d8f48426de41p-4 0x1.18ede1c1fd293p-4 0x1.10164dafdee89p-3 0x1.05c5cf502f066p-3
    0x1.2aad69ddebb71p-4 0x1.8071123287550p-6 0x1.45185c77a8ce8p-3 0x1.7ed69d816d298p-2
    0x1.0723c8f249e7cp-4 0x1.9ef9d6c6f79bdp-3 0x1.60c19713513d1p-6 0x1.d2d4cfa601d16p-4
    0x1.101c1dd7f3308p-4 0x1.05c5cf502f066p-3 0x1.e820efa5c23d4p-3 0x1.a92ab3daf0438p-5
    0x1.0af62994a8a7cp-4 0x1.71f1842cdb9ecp-5 0x1.adab8ccf0fb95p-5 0x1.d2d4cfa601d16p-4
    0x1.4d8f48426de41p-4 0x1.1062d0c76c885p-4 0x1.13b42c058ce79p-2 0x1.9e82c1fa6b33dp-3
    0x1.4d8f48426de41p-4 0x1.692966e097970p-5 0x1.8c5ba0bbfa87ap-3 0x1.4d8f48426de41p-4
    0x1.100c8611073dfp-2 0x1.35719adbee540p-3 0x1.4d8f48426de41p-4 0x1.7db6935e240cbp-5
    0x1.c8eb3fd602c67p-3 0x1.42423700ddbc3p-8 0x1.4b38eb8c63588p-6 0x1.4d8f48426de41p-4
    0x1.39c5b29df2383p-4 0x1.5a0b503e7d798p-2 0x1.4d8f48426de41p-4 0x1.46a456642fd15p-4
    0x1.396303ac4a208p-4 0x1.e8deee2ae9930p-6 0x1.8093435ccc965p-3 0x1.4d8f48426de41p-4
    0x1.16f48e9f5aeaap-2 0x1.abe9b6ce7f1d8p-2 0x1.18ede1c1fd293p-4 0x1.39c5b29df2383p-4
    0x1.38004b4a1c41cp-4 0x1.4eb02c17b0015p-5 0x1.35719adbee540p-3 0x1.18ede1c1fd293p-4
    0x1.05a2056d47f6ep-5 0x1.18ede1c1fd293p-4 0x1.02e41d808861bp-2 0x1.5d1bebf90ab30p-4
    0x1.a7cfda32681d2p-3 0x1.72a9e931c7a56p-6 0x1.18ede1c1fd293p-4 0x1.4d8f48426de41p-4
    0x1.3cb522961d426p-3 0x1.4d8f48426de41p-4 0x1.4d8f48426de41p-4 0x1.0a530445f9212p-6
    0x1.e3566f9d7b94dp-4 0x1.9ef9d6c6f79bdp-3 0x1.4d8f48426de41p-4 0x1.f93215735f179p-7
    0x1.1cf254c7eed5ep-1 0x1.1e57a584af3eap-4 0x1.7db6935e240cbp-5 0x1.c74707c821178p-7
    0x1.8618618618618p-5 0x1.a6cea47823f4cp-9 0x1.4a78fe316a5a8p-7 0x1.39c5b29df2383p-4
    0x1.0f5edfab325a2p-7 0x1.a6bb4c51c06a4p-10 0x1.a6b04c00844fep-5 0x1.bfa21c9c5a890p-5
    0x1.b5032c5982f4ep-6 0x1.402c27924c822p-9 0x1.d841666023c62p-7 0x1.009a1acfca9f1p-8
    0x1.39c5b29df2383p-4 0x1.c31c0cbf7eec5p-9 0x1.a324a3e83d11cp-2 0x1.b66ecef0ccb99p-10
    0x1.0f5edfab325a2p-7 0x1.4d8f48426de41p-4 0x1.568691ac1ff10p-9 0x1.58f41979af6d4p-5
    0x1.23966927162c4p-3 0x1.8c970abc6526bp-7 0x1.a2e72baa27420p-4 0x1.e21be7530ce57p-7
    0x1.231692043cd60p-6 0x1.0f5edfab325a2p-7 0x1.5ffe85c3736e8p-8 0x1.c1270116dc70dp-8
    0x1.8618618618618p-5 0x1.6e966c2ee4dc1p-6 0x1.ea8a4fd58de2bp-10 0x1.2d506b5e2c232p-5
    0x1.6779d40483776p-3 0x1.3a096ff8cba68p-6 0x1.6c005693dff7ep-5 0x1.358e858a450fbp-8
    0x1.2c6dfe5b77f54p-9 0x1.0e00d41f84a43p-4 0x1.f6c05273c8f67p-8 0x1.92a2da88f1ee6p-8
    0x1.6868deb0cf501p-9 0x1.13065892735cep-4 0x1.5cc89f99ed049p-5 0x1.df4dcd8b76db0p-7
    0x1.adab8ccf0fb95p-5 0x1.4cb0e29c1fe28p-4 0x1.0f5edfab325a2p-7 0x1.314abba098a56p-6
    0x1.7fc88c27031dbp-10 0x1.d26d5319344dfp-4 0x1.0f5edfab325a2p-7 0x1.789563e745242p-6
    0x1.357c50aafca42p-7 0x1.0f5edfab325a2p-7 0x1.cb5e74d8e8ad7p-10 0x1.44027d7900414p-7
    0x1.411f7814f3c5fp-5 0x1.adab8ccf0fb95p-5 0x1.ecad00474797bp-9 0x1.bfca36cda036bp-7
    0x1.c448ca1d53eb8p-7 0x1.20699805e3ccbp-9 0x1.83ac1af491130p-6 0x1.48e1281f5a201p-7
    0x1.4a78fe316a5a8p-7 0x1.8732530e1010ep-5 0x1.8071123287550p-6 0x1.21726809603fap-6
    0x1.85cfea88310a5p-8 0x1.31761f77d931ep-3 0x1.515f57ff892e6p-6 0x1.d064cb9b2bc68p-11
    0x1.a324a3e83d11cp-2 0x1.3ec2bd1bdad32p-9 0x1.62e8496788730p-3 0x1.69d3d4e44322ep-8
    0x1.39c5b29df2383p-4 0x1.a74c424170cd2p-9 0x1.606de9f59b28ap-8 0x1.cf9768c47604ap-6
    0x1.c448ca1d53eb8p-7 0x1.36f20af429b1fp-5 0x1.a8aa16da88d7ap-5 0x1.91a9563d2c7d5p-6
    0x1.d03f5d0832319p-8 0x1.d04ced59702d5p-9 0x1.18ad26a2985b8p-6 0x1.1371ae4462306p-7
    0x1.b5032c5982f4ep-6 0x1.cf9768c47604ap-6 0x1.c87536b83becep-4 0x1.8618618618618p-5
    0x1.f7a3acb1ad100p-5 0x1.5255098f9f313p-8 0x1.6f923be6ce23dp-6 0x1.60c19713513d1p-6
    0x1.5255098f9f313p-8 0x1.e3dc186056649p-7 0x1.85b4aa5b5d61ep-6 0x1.e65a3dbe74d6ap-6
""".split()


def test_order5_output_export_and_probabilities_are_golden(tmp_path, capsys):
    main(["synth", "--out-dir", str(tmp_path), "--topics", "3", "--vocab", "40", "--docs", "40",
          "--valid-docs", "2", "--test-docs", "8", "--sentences", "5", "--len-min", "3",
          "--len-max", "9", "--seed", "12"])
    train, test, arpa = tmp_path / "train.txt", tmp_path / "test.txt", tmp_path / "lm.arpa"
    capsys.readouterr()
    assert main(["ngram", "--order", "5", "--train", str(train), "--eval", str(test),
                 "--export", str(arpa)]) == 0
    assert capsys.readouterr().out == GOLDEN_STDOUT
    assert hashlib.sha256(arpa.read_bytes()).hexdigest() == GOLDEN_ARPA_SHA256

    raw = load_corpus_file(train)
    vocab = build_vocabulary(raw, 2 + len({t for d in raw for s in d for t in s}))
    table = count_ngrams(encode_documents(raw, vocab), 5, len(vocab))
    V = len(vocab)
    seqs = [(BOS,) * 4 + s.token_ids for d in encode_documents(load_corpus_file(test), vocab)
            for s in d.sentences]
    rng = np.random.default_rng(5)
    probs = []
    for _ in range(100):   # seen contexts: a test position and up to four tokens before it
        seq = seqs[rng.integers(len(seqs))]
        i = int(rng.integers(4, len(seq)))
        probs.append(table.probability(seq[i], seq[i - int(rng.integers(0, 5)) : i]))
    for _ in range(100):   # any word after any context of ids and padding
        ctxt = tuple(int(t) for t in rng.integers(BOS, V, size=rng.integers(0, 5)))
        probs.append(table.probability(int(rng.integers(V)), ctxt))
    assert [p.hex() for p in probs] == GOLDEN_PROBABILITIES
