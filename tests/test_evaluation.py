import io
import math

import numpy as np
import pytest

import oracle
from ctxlm import evaluation, fusion
from ctxlm.corpus import CorpusError, Document, Sentence, Vocabulary, corpus_windows
from ctxlm.evaluation import (EvalReport, Model, TagAlignmentError, TagReport,
                              check_alignment, corpus_perplexity,
                              load_tag_annotations, perplexity_by_tag)
from ctxlm.ngram import count_ngrams
from support import sentence_log_probability

V = 8
VOCAB = Vocabulary(["<unk>", "</s>"] + list("abcdef"))


def sent(*ids):
    return Sentence(tuple(ids) + (1,))


def docs_from(pattern):
    return [Document(tuple(sent(*s) for s in doc)) for doc in pattern]


def zero_model(vocab=VOCAB, d_emb=3, d_h=2, variant="RLM"):
    rng = np.random.Generator(np.random.PCG64(0))
    var = fusion.parse_variant(variant)
    params = fusion.init_parameters(var, len(vocab), d_emb, d_h, 2, 2, rng, np.float64)
    for p in params.values():
        p.value[...] = 0.0
    return Model(params, var, vocab)


def random_model(variant="RLM-BoW-LF", seed=5):
    rng = np.random.Generator(np.random.PCG64(seed))
    var = fusion.parse_variant(variant)
    params = fusion.init_parameters(var, len(VOCAB), 4, 3, 2, 2, rng, np.float64)
    return Model(params, var, VOCAB)


DOCS = docs_from([[(2, 3, 4), (3, 5)], [(6, 7), (2, 2, 6), (4,)]])


def test_uniform_model_perplexity_is_vocab_size():
    report = corpus_perplexity(zero_model(), DOCS, n=0)
    assert report.perplexity == pytest.approx(V, rel=1e-12)
    assert report.tokens == sum(len(s.token_ids) for d in DOCS for s in d.sentences)


def test_perplexity_one_at_zero_nll():
    assert EvalReport(tokens=12, total_nll=0.0, unk_rate=0.0).perplexity == 1.0


def test_perplexity_at_least_one():
    for model in (zero_model(), random_model()):
        report = corpus_perplexity(model, DOCS, n=1)
        assert report.perplexity >= 1.0


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        corpus_perplexity(zero_model(), [], n=0)


def test_rlm_perplexity_independent_of_n():
    model = random_model("RLM")
    reports = [corpus_perplexity(model, DOCS, n=n).perplexity for n in (0, 1, 4)]
    assert reports[0] == reports[1] == reports[2]


def test_evaluation_never_mutates_parameters():
    model = random_model()
    before = {k: p.value.tobytes() for k, p in model.params.items()}
    corpus_perplexity(model, DOCS, n=1)
    tags = [[["X"] * s.length for s in d.sentences] for d in DOCS]
    perplexity_by_tag(model, DOCS, tags, n=1)
    after = {k: p.value.tobytes() for k, p in model.params.items()}
    assert before == after


def test_ngram_perplexity_matches_manual_sum():
    table = count_ngrams(DOCS, 2, len(VOCAB))
    report = corpus_perplexity(table, DOCS, n=0)
    manual = -sum(sentence_log_probability(s, table) for d in DOCS for s in d.sentences)
    assert report.total_nll == pytest.approx(manual, abs=1e-12)
    assert report.perplexity == pytest.approx(math.exp(manual / report.tokens), rel=1e-12)


def test_corpus_total_adds_left_to_right():
    # 1e16 + 1 + 1 is 1e16 from the left, but 1e16 + 2 with compensation
    report = evaluation._corpus_report(DOCS, [1e16, 1.0, 1.0])
    assert report.total_nll == 1e16


def test_unk_rate():
    docs = docs_from([[(0, 0, 2), (3,)]])
    report = corpus_perplexity(zero_model(), docs, n=0)
    assert report.unk_rate == pytest.approx(0.5)


# -- per-tag analysis -----------------------------------------------------------


def test_empty_corpus_fails_clearly_in_every_sentence_model_evaluation():
    model = random_model()
    with pytest.raises(ValueError, match="^empty corpus$"):
        corpus_perplexity(model, [], n=1)
    with pytest.raises(ValueError, match="^empty corpus$"):
        perplexity_by_tag(model, [], [], n=1)


def test_single_tag_equals_content_token_perplexity():
    model = random_model()
    tags = [[["X"] * s.length for s in d.sentences] for d in DOCS]
    report = perplexity_by_tag(model, DOCS, tags, n=1)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.tag == "X"
    assert row.count == sum(s.length for d in DOCS for s in d.sentences)
    # matches exp(mean NLL) over exactly the content-token positions
    _, per_token = evaluation.window_nlls(model, corpus_windows(DOCS, 1), 64)
    eos = np.cumsum([len(s.token_ids) for d in DOCS for s in d.sentences]) - 1
    content = np.delete(per_token, eos)
    assert row.mean_nll == pytest.approx(content.mean(), abs=1e-12)
    assert row.perplexity == pytest.approx(math.exp(content.mean()), rel=1e-12)


def test_hand_set_token_probabilities_give_exact_tag_perplexities():
    model = zero_model()
    probs = np.full(V, 1 / 16)
    probs[2] = 1 / 2   # token 'a'
    probs[3] = 1 / 8   # token 'b'
    model.params["b_out"].value[...] = np.log(probs)
    docs = docs_from([[(2, 2, 3), (3, 2)]])
    tags = [[["A", "A", "B"], ["B", "A"]]]
    report = perplexity_by_tag(model, docs, tags, n=0)
    by_tag = {r.tag: r for r in report.rows}
    assert by_tag["A"].count == 3 and by_tag["B"].count == 2
    assert by_tag["A"].perplexity == pytest.approx(2.0, rel=1e-12)
    assert by_tag["B"].perplexity == pytest.approx(8.0, rel=1e-12)


def test_bucketing_matches_bruteforce_oracle():
    model = random_model("RLM-BoW-EF", seed=9)
    rng = np.random.default_rng(4)
    pattern = [[tuple(rng.integers(2, V, size=rng.integers(1, 5)))
                for _ in range(5)] for _ in range(2)]
    docs = docs_from(pattern)
    tag_set = ["NN", "NNS", "VB", "VBZ", "DT", "JJ"]
    tags = [[[tag_set[int(rng.integers(len(tag_set)))] for _ in range(s.length)]
             for s in d.sentences] for d in docs]
    report = perplexity_by_tag(model, docs, tags, n=2, top_k=20)

    # independent bucketing through the per-window oracle
    from ctxlm.corpus import context_windows
    buckets: dict[str, list[float]] = {}
    for doc, doc_tags in zip(docs, tags):
        for w, sent_tags in zip(context_windows(doc, 2), doc_tags):
            nlls = oracle.token_nlls(model.params, model.variant.tag, w.target.token_ids,
                                     [s.token_ids for s in w.context])
            for nll, tag in zip(nlls, sent_tags):
                merged = {"NN": "Noun", "NNS": "Noun", "VB": "Verb", "VBZ": "Verb"}.get(tag, tag)
                buckets.setdefault(merged, []).append(nll)
    assert {r.tag for r in report.rows} == set(buckets)
    for row in report.rows:
        vals = buckets[row.tag]
        assert row.count == len(vals)
        assert row.mean_nll == pytest.approx(sum(vals) / len(vals), abs=1e-9)


@pytest.mark.parametrize("tag", sorted(fusion.VARIANTS))
def test_reports_do_not_depend_on_batch_size(tag):
    """Batches of 1, 3 and all windows pack the same positions in different
    groupings; the reports agree to float64 rounding (a row's products can
    take another BLAS path when the row count changes)."""
    model = random_model(tag, seed=11)
    for p in model.params.values():
        p.value *= 10.0  # weights of about ±0.8, so the context terms matter
    rng = np.random.default_rng(8)
    docs = docs_from([[tuple(rng.integers(2, V, size=rng.integers(1, 7)))
                       for _ in range(int(rng.integers(2, 6)))] for _ in range(4)])
    tags = [[["NN" if t % 2 else "DT" for t in s.content_ids] for s in d.sentences]
            for d in docs]
    reports = [(corpus_perplexity(model, docs, n=2, batch_size=bs),
                perplexity_by_tag(model, docs, tags, n=2, batch_size=bs))
               for bs in (1, 3, 64)]
    base, base_tags = reports[0]
    for report, tag_report in reports[1:]:
        assert report.tokens == base.tokens
        assert report.total_nll == pytest.approx(base.total_nll, rel=1e-12)
        assert [(r.tag, r.count) for r in tag_report.rows] == \
            [(r.tag, r.count) for r in base_tags.rows]
        for row, want in zip(tag_report.rows, base_tags.rows):
            assert row.mean_nll == pytest.approx(want.mean_nll, rel=1e-12)


def test_merges_and_top_k_ranking():
    model = zero_model()
    docs = docs_from([[(2, 3, 4, 5), (6, 7)]])
    tags = [[["NN", "NNS", "VB", "VBZ"], ["DT", "JJ"]]]
    report = perplexity_by_tag(model, docs, tags, n=0, top_k=2)
    assert [r.tag for r in report.rows] == ["Noun", "Verb"]  # count 2 each, ties by name
    assert report.rows[0].count == 2
    assert report.tagged_tokens == 6


def test_geometric_decomposition_recombines():
    model = random_model(seed=11)
    rng = np.random.default_rng(7)
    tag_set = ["NN", "IN", "DT", "JJ", "RB"]
    tags = [[[tag_set[int(rng.integers(len(tag_set)))] for _ in range(s.length)]
             for s in d.sentences] for d in DOCS]
    report = perplexity_by_tag(model, DOCS, tags, n=1, top_k=50)
    log_sum = sum(r.count * math.log(r.perplexity) for r in report.rows)
    count = sum(r.count for r in report.rows)
    assert count == report.tagged_tokens
    recombined = math.exp(log_sum / count)
    overall = math.exp(report.tagged_total_nll / report.tagged_tokens)
    assert recombined == pytest.approx(overall, abs=1e-9)


def test_arithmetic_average_alternative():
    model = zero_model()
    docs = docs_from([[(2, 3)]])
    tags = [[["A", "A"]]]
    geo = perplexity_by_tag(model, docs, tags, n=0, average="geometric")
    ari = perplexity_by_tag(model, docs, tags, n=0, average="arithmetic")
    # uniform model: every token has identical NLL, so the two conventions agree
    assert geo.rows[0].perplexity == pytest.approx(ari.rows[0].perplexity, rel=1e-12)
    with pytest.raises(ValueError):
        perplexity_by_tag(model, docs, tags, n=0, average="median")


def two_level_model():
    """A model that gives word 2 probability 1/2 and word 3 probability 1/8
    everywhere: per-token perplexities 2 and 8."""
    model = zero_model()
    probs = np.full(V, 1 / 16)
    probs[2] = 1 / 2
    probs[3] = 1 / 8
    model.params["b_out"].value[...] = np.log(probs)
    return model


def test_arithmetic_average_is_mean_of_per_word_perplexities():
    docs = docs_from([[(2, 3)]])
    tags = [[["A", "A"]]]
    report = perplexity_by_tag(two_level_model(), docs, tags, n=0, average="arithmetic")
    assert report.rows[0].perplexity == pytest.approx((2.0 + 8.0) / 2, rel=1e-12)


def test_arithmetic_all_row_is_the_mean_per_token_perplexity():
    docs = docs_from([[(2, 3)]])
    report = perplexity_by_tag(two_level_model(), docs, [[["A", "B"]]], n=0,
                               average="arithmetic")
    assert [r.perplexity for r in report.rows] == pytest.approx([2.0, 8.0], rel=1e-12)
    # the mean of exp(NLL) over both tagged tokens; exp(mean NLL) would be 4
    assert report.tagged_perplexity == pytest.approx((2.0 + 8.0) / 2, rel=1e-12)
    assert report.csv().splitlines()[-1] == f"ALL,2,{math.log(4.0):.6f},5.000000"


def test_negative_top_k_rejected():
    docs = docs_from([[(2, 3)]])
    with pytest.raises(ValueError, match="top_k"):
        perplexity_by_tag(zero_model(), docs, [[["NN", "VB"]]], n=0, top_k=-1)


def test_tag_report_carries_the_corpus_report():
    """The tag report's overall report is ``corpus_perplexity``'s, bit for bit."""
    model = random_model()
    tags = [[["X"] * s.length for s in d.sentences] for d in DOCS]
    assert perplexity_by_tag(model, DOCS, tags, n=1).overall == corpus_perplexity(model, DOCS, n=1)


def test_averages_share_mean_nll_and_differ_in_perplexity():
    model = random_model(seed=7)
    for p in model.params.values():
        p.value *= 10.0  # per-token NLLs far apart, so the two averages differ
    rng = np.random.default_rng(3)
    docs = docs_from([[tuple(rng.integers(2, V, size=rng.integers(2, 6))) for _ in range(4)]
                      for _ in range(2)])
    tags = [[["NN" if t % 2 else "DT" for t in s.content_ids] for s in d.sentences]
            for d in docs]
    geo = perplexity_by_tag(model, docs, tags, n=2, average="geometric")
    ari = perplexity_by_tag(model, docs, tags, n=2, average="arithmetic")
    assert [(r.tag, r.count) for r in ari.rows] == [(r.tag, r.count) for r in geo.rows]
    for a, g in zip(ari.rows, geo.rows):
        assert a.mean_nll == g.mean_nll
        assert g.perplexity == math.exp(g.mean_nll)
        assert a.perplexity > g.perplexity  # AM > GM over unequal per-token perplexities


def test_alignment_errors_name_indices():
    model = zero_model()
    docs = docs_from([[(2, 3), (4,)]])
    with pytest.raises(TagAlignmentError, match="document 0, sentence 1"):
        check_alignment(docs, [[["X", "X"], ["X", "X"]]])
    with pytest.raises(TagAlignmentError, match="document 0: 1 tag lines"):
        check_alignment(docs, [[["X", "X"]]])
    with pytest.raises(TagAlignmentError, match="2 tag documents"):
        check_alignment(docs, [[["X", "X"], ["X"]], [["X"]]])
    with pytest.raises(TagAlignmentError):
        perplexity_by_tag(model, docs, [[["X"], ["X"]]], n=0)


def test_load_tag_annotations_structure():
    text = "NN VBZ\nDT\n\nJJ JJ\n"
    docs = load_tag_annotations(io.StringIO(text))
    assert docs == [[["NN", "VBZ"], ["DT"]], [["JJ", "JJ"]]]
    with pytest.raises(CorpusError, match="UTF-8"):
        load_tag_annotations(io.BytesIO(b"NN \xff\n"))


@pytest.mark.parametrize("batch_size", [0, -1])
def test_nonpositive_batch_size_rejected(batch_size):
    docs = docs_from([[(2, 3)]])
    with pytest.raises(ValueError, match="batch_size"):
        corpus_perplexity(random_model(), docs, n=1, batch_size=batch_size)


def test_report_csv_shapes():
    report = EvalReport(tokens=10, total_nll=23.0, unk_rate=0.0)
    lines = report.csv().strip().split("\n")
    assert lines[0] == "tag,count,mean_nll,perplexity"
    assert lines[1].startswith("ALL,10,")
    tag_report = TagReport([], tagged_tokens=4, tagged_total_nll=4 * math.log(2.0),
                           tagged_perplexity=2.0, overall=report)
    body = tag_report.csv().strip().split("\n")
    assert body[-1].startswith("ALL,4,")
    assert float(body[-1].split(",")[-1]) == pytest.approx(2.0, abs=1e-6)
