"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. AC-4 trains three small models on a synthetic topical corpus and
takes a couple of minutes; everything else is fast.
"""

import io
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oracle
import support
from ctxlm import context as ctx
from ctxlm import fusion, numeric as nm, rlm
from ctxlm.cli import SynthSpec, generate_synthetic
from ctxlm.corpus import (ContextWindow, Document, Sentence, Vocabulary,
                          build_vocabulary, encode_documents, load_corpus)
from ctxlm.evaluation import Model, corpus_perplexity, perplexity_by_tag
from ctxlm.ngram import count_ngrams
from ctxlm.numeric import Tape, Variable
from ctxlm.training import TrainConfig, load_checkpoint, save_checkpoint, train


def sent_of(rng, vocab_size, lo=3, hi=7):
    L = int(rng.integers(lo, hi))
    return Sentence(tuple(int(x) for x in rng.integers(2, vocab_size, size=L)) + (1,))


def announce(name, detail):
    print(f"{name} PASS: {detail}")


# -- AC-1: gradient correctness ---------------------------------------------------


def test_ac1_gradient_correctness():
    """Every parameter gradient of every variant matches central differences.

    The window is a batch of one through fusion.batch_nll, the engine that
    training uses, so these are the gradients training follows.

    Coordinates the 1e-5 central-difference oracle can resolve
    (|tape| + |fd| >= 1e-5) must agree to relative error 1e-4; coordinates
    below that sit at the oracle's own noise floor (~1e-10 absolute here,
    from rounding and truncation of an O(10) loss) and must agree to 1e-8
    absolute.
    """
    started = time.monotonic()
    V = 20
    vocab = Vocabulary(["<unk>", "</s>"] + [f"w{i}" for i in range(V - 2)])
    rng = np.random.Generator(np.random.PCG64(12))
    window = ContextWindow(sent_of(rng, V), (sent_of(rng, V), sent_of(rng, V)))  # n=2
    worst_rel = 0.0
    worst_abs = 0.0
    for tag in sorted(fusion.VARIANTS):
        params = fusion.init_parameters(fusion.parse_variant(tag), V, 8, 8, 6, 6,
                                        rng, np.float64)
        tape = Tape()
        total, _ = fusion.batch_nll([window], params, tag, vocab, tape)
        tape.backward(nm.sum_all(tape, total))
        for name, p in params.items():
            got = p.grad_buffer().copy().ravel()
            shape = p.value.shape

            def f(theta, p=p):
                saved = p.value
                p.value = theta.reshape(shape)
                out = float(fusion.batch_nll([window], params, tag, vocab)[0].value[0])
                p.value = saved
                return out

            fd = support.finite_difference_gradient(f, p.value.ravel().copy(), eps=1e-5)
            resolvable = (np.abs(got) + np.abs(fd)) >= 1e-5
            rel = support.relative_error(got[resolvable], fd[resolvable]).max(initial=0.0)
            sub = np.max(np.abs(got[~resolvable] - fd[~resolvable]), initial=0.0)
            assert rel <= 1e-4, f"{tag} {name}: relative error {rel:.3g}"
            assert sub <= 1e-8, f"{tag} {name}: sub-noise disagreement {sub:.3g}"
            worst_rel = max(worst_rel, rel)
            worst_abs = max(worst_abs, sub)
            p.zero_grad()
    elapsed = time.monotonic() - started
    assert elapsed <= 60.0, f"AC-1 took {elapsed:.1f}s"
    announce("AC-1", f"7 variants, worst resolvable rel err {worst_rel:.2e}, "
                     f"worst sub-noise abs err {worst_abs:.2e}, {elapsed:.1f}s")


# -- AC-2: reduction equivalences -------------------------------------------------


def _decoder_cell_steps(windows, tag, params, vocab):
    """The engine's decoder recurrence on a batch, step by step: each step's
    cell recomputed from h_prev, xproj and b alone, beside the c it returned
    (``support.recurrence_steps``)."""
    d_h = params["b_i"].shape[0]
    with pytest.MonkeyPatch.context() as mp:
        calls = support.spy_recurrences(mp)
        fusion.batch_nll(windows, params, tag, vocab)
    # the context LSTMs are d_ctx wide
    decoder, = (c for c in calls if c["U"].shape == (d_h, 4 * d_h))
    assert decoder["late"] is not None and decoder["state"] is None
    return support.recurrence_steps(decoder)


def test_ac2_reduction_equivalences():
    """Every conditioned variant reduces to the unconditioned model (RLM with
    the shared weights) when p = 0 or W_p = 0. Late fusion leaves the memory
    cell alone, checked on the engine itself: its decoder cell gets no
    context input, the cell state it carries from step to step is the one the
    cell returned, bitwise, and a closed gate (r exactly 0) gives RLM's
    per-position NLLs bitwise."""
    V = 14
    vocab = Vocabulary(["<unk>", "</s>"] + [f"w{i}" for i in range(V - 2)])
    rng = np.random.Generator(np.random.PCG64(5))
    target = sent_of(rng, V)
    context = (sent_of(rng, V), sent_of(rng, V))
    batch = [ContextWindow(sent_of(rng, V, 1, 9), tuple(sent_of(rng, V) for _ in range(k)))
             for k in (0, 1, 2, 3, 2, 1, 3, 2)]
    variants = [t for t in sorted(fusion.VARIANTS) if t != "RLM"]

    def token_nll(window, tag, params):
        return fusion.batch_nll([window], params, tag, vocab)[1]

    worst = 0.0
    steps = 0
    for tag in variants:
        params = fusion.init_parameters(fusion.parse_variant(tag), V, 5, 4, 3, 3,
                                        rng, np.float64)
        baseline = {k: Variable(params[k].value.copy()) for k in
                    fusion.init_parameters(fusion.parse_variant("RLM"), V, 5, 4, 3, 3,
                                           np.random.Generator(np.random.PCG64(0)),
                                           np.float64)}
        base_nll = token_nll(ContextWindow(target, ()), "RLM", baseline)
        base_probs = np.exp(-base_nll)

        # p = 0 via an empty context window
        probs = np.exp(-token_nll(ContextWindow(target, ()), tag, params))
        diff = np.max(np.abs(probs - base_probs))
        assert diff <= 1e-9, f"{tag} empty-context: {diff:.3g}"
        worst = max(worst, diff)

        # W_p = 0 with a real context
        saved = params["W_p"].value.copy()
        params["W_p"].value[...] = 0.0
        probs = np.exp(-token_nll(ContextWindow(target, context), tag, params))
        params["W_p"].value = saved
        diff = np.max(np.abs(probs - base_probs))
        assert diff <= 1e-9, f"{tag} zero-projection: {diff:.3g}"
        worst = max(worst, diff)

        if fusion.VARIANTS[tag].fusion != "late":
            continue
        # late fusion never perturbs the cell update: every step's c is, bitwise,
        # f * c_prev + i * g from h_prev, xproj and b alone (no context input),
        # with c_prev the rows of the c the cell returned at the step before
        cells = _decoder_cell_steps(batch, tag, params, vocab)
        assert len(cells) == max(len(w.target.token_ids) for w in batch)
        assert not cells[0]["c_prev"].any()
        for step in cells:
            assert np.array_equal(step["c"], step["c_returned"]), \
                f"{tag}: context enters the cell, or the carried cell state is not the cell's own"
        steps += len(cells)

        # a closed gate: b_r = -1e3 makes r exactly 0
        saved = params["b_r"].value.copy()
        params["b_r"].value[...] = -1e3
        closed = token_nll(ContextWindow(target, context), tag, params)
        params["b_r"].value = saved
        assert np.array_equal(closed, base_nll), f"{tag} closed gate differs from RLM"
    announce("AC-2", f"6 variants reduce to baseline (worst prob diff {worst:.2e}); "
                     f"late-fusion decoder cell context-free and carried bitwise over "
                     f"{steps} engine steps; closed gate bitwise RLM")


# -- AC-3: Kneser-Ney normalization ------------------------------------------------


def test_ac3_kneser_ney_normalization():
    rng = np.random.default_rng(42)
    V = 40  # <= 50 per criterion
    sents = [Sentence(tuple(int(x) for x in rng.integers(2, V, size=rng.integers(1, 8))) + (1,))
             for _ in range(60)]
    docs = [Document(tuple(sents))]
    table = count_ngrams(docs, 3, V)
    worst = 0.0
    for i in range(100):
        k = int(rng.integers(0, 3))
        if i % 3 == 0:
            ctxt = tuple(int(x) for x in rng.integers(0, V, size=k))  # often unseen
        else:
            base = sents[int(rng.integers(len(sents)))].token_ids
            ctxt = base[:k]
        total = sum(table.probability(w, ctxt) for w in range(V))
        assert abs(total - 1.0) <= 1e-9, f"context {ctxt}: sum {total}"
        worst = max(worst, abs(total - 1.0))

    # hand-derived oracle on the two-sentence corpus "a b" / "a c"
    ab_ac = [Document((Sentence((2, 3, 1)),)), Document((Sentence((2, 4, 1)),))]
    toy = count_ngrams(ab_ac, 2, 5)
    expect = float(Fraction(213, 750))
    got = toy.probability(3, (2,))
    assert got == pytest.approx(expect, abs=1e-15)
    announce("AC-3", f"100 contexts sum to 1 (worst dev {worst:.2e}); "
                     f"p(b|a) = {got:.12f} = 213/750")


# -- AC-4: directional larger-context benefit ---------------------------------------


def test_ac4_directional_larger_context_benefit():
    started = time.monotonic()
    spec = SynthSpec(topics=5, vocab=200, train_docs=2000, valid_docs=200,
                     test_docs=200, sentences=10, len_min=8, len_max=12,
                     sharpness=20.0, seed=101)
    texts = generate_synthetic(spec)
    train_raw = load_corpus(io.StringIO(texts["train"]))
    valid_raw = load_corpus(io.StringIO(texts["valid"]))
    vocab = build_vocabulary(train_raw, 250)
    train_docs = encode_documents(train_raw, vocab)
    valid_docs = encode_documents(valid_raw, vocab)

    def fit(variant, n):
        cfg = TrainConfig(variant=variant, n=n, d_h=64, d_emb=32, d_ctx=32,
                          vocab_size=250, max_len=50, batch_size=64, max_epochs=4,
                          patience=3, seed=7, precision="f64")
        result = train(cfg, train_docs, valid_docs, vocab)
        assert not result.diverged
        model = Model(result.checkpoint.model_params(),
                      fusion.parse_variant(variant), vocab)
        return corpus_perplexity(model, valid_docs, n).perplexity

    base = fit("RLM", 1)
    lf1 = fit("RLM-BoW-LF", 1)
    lf4 = fit("RLM-BoW-LF", 4)
    elapsed = time.monotonic() - started
    assert lf1 <= 0.95 * base, f"LF-1 {lf1:.3f} not 5% below RLM {base:.3f}"
    assert lf4 <= 1.01 * lf1, f"LF-4 {lf4:.3f} above LF-1 {lf1:.3f} + 1%"
    assert elapsed <= 900.0, f"AC-4 took {elapsed:.0f}s"
    announce("AC-4", f"valid ppl RLM={base:.2f} LF-1={lf1:.2f} ({(1 - lf1 / base):.1%} better) "
                     f"LF-4={lf4:.2f} ({(lf4 / lf1 - 1):+.2%} vs LF-1), {elapsed:.0f}s")


# -- AC-5: attention sanity -----------------------------------------------------------


def test_ac5_attention_sanity():
    """The engine's attention (keys by context.project, the query h U_a, weights
    by context.attend, the mix by numeric.attention_mix) on one batch of 1000
    windows with 1-5 live context positions each, left-padded to 5 with junk."""
    rng = np.random.default_rng(9)
    params = rlm.draw_parameters(ctx.attention_shapes(annot_dim=6, d_h=4, d_a=5),
                                 np.random.Generator(np.random.PCG64(3)), np.float64)

    def attend(annots, h, mask):
        annots = Variable(annots)
        keys = ctx.project(None, annots, params["W_a"])
        alphas = ctx.attend(None, params, keys, Variable(h @ params["U_a"].value), mask)
        mixed = nm.attention_mix(None, alphas, annots)
        return mixed.value, alphas.value

    # single annotation concentrates all weight
    z = rng.standard_normal((1, 1, 6))
    mixed, alphas = attend(z, rng.standard_normal((1, 4)), np.ones((1, 1)))
    assert np.array_equal(alphas, [[1.0]])
    assert np.allclose(mixed, z[0], atol=1e-15)

    B, K = 1000, 5
    live = rng.integers(1, K + 1, size=B)
    mask = (np.arange(K) >= K - live[:, None]).astype(np.float64)
    annots = rng.standard_normal((K, B, 6))
    mixed, alphas = attend(annots, rng.standard_normal((B, 4)), mask)
    dev = np.abs(alphas.sum(axis=1) - 1.0)
    assert dev.max() <= 1e-12
    assert np.all(alphas[mask > 0] > 0.0) and np.all(alphas[mask == 0] == 0.0)
    for b in range(B):
        stack = annots[mask[b] > 0, b]
        assert np.all(mixed[b] >= stack.min(axis=0) - 1e-12)
        assert np.all(mixed[b] <= stack.max(axis=0) + 1e-12)
    announce("AC-5", f"1000 draws: alphas sum to 1 (worst dev {dev.max():.2e}), "
                     "padding gets zero weight, mixture stays in the coordinatewise hull")


# -- AC-6: evaluation consistency ------------------------------------------------------


def test_ac6_evaluation_consistency():
    V = 12
    vocab = Vocabulary(["<unk>", "</s>"] + [f"w{i}" for i in range(V - 2)])
    rng = np.random.Generator(np.random.PCG64(21))
    windows = [
        ContextWindow(sent_of(rng, V, 3, 4), ()),
        ContextWindow(sent_of(rng, V, 7, 8), (sent_of(rng, V),)),
        ContextWindow(sent_of(rng, V, 2, 3), (sent_of(rng, V), sent_of(rng, V))),
        ContextWindow(sent_of(rng, V, 5, 6), (sent_of(rng, V),)),
    ]
    worst = 0.0
    for tag in sorted(fusion.VARIANTS):
        params = fusion.init_parameters(fusion.parse_variant(tag), V, 5, 4, 3, 3,
                                        rng, np.float64)
        total, _ = fusion.batch_nll(windows, params, tag, vocab)
        for b, w in enumerate(windows):
            diff = abs(float(total.value[b]) - oracle.window_nll(params, tag, w))
            assert diff <= 1e-9, f"{tag} window {b}: {diff:.3g}"
            worst = max(worst, diff)

    # geometric per-tag decomposition recombines to the tagged-token perplexity
    docs = [Document(tuple(sent_of(rng, V) for _ in range(5))) for _ in range(2)]
    tag_names = ["NN", "IN", "DT", "JJ", "RB", "NNS", "VBZ", "VB", "PRP", "CC"]
    annotations = [[[tag_names[int(rng.integers(len(tag_names)))]
                     for _ in range(s.length)] for s in d.sentences] for d in docs]
    params = fusion.init_parameters(fusion.parse_variant("RLM-BoW-EF"), V, 5, 4, 3, 3,
                                    rng, np.float64)
    model = Model(params, fusion.parse_variant("RLM-BoW-EF"), vocab)
    report = perplexity_by_tag(model, docs, annotations, n=2, top_k=50)
    log_sum = sum(r.count * math.log(r.perplexity) for r in report.rows)
    count = sum(r.count for r in report.rows)
    recombined = math.exp(log_sum / count)
    tagged = math.exp(report.tagged_total_nll / report.tagged_tokens)
    assert abs(recombined - tagged) <= 1e-9

    # uniform model: perplexity is exactly the vocabulary size
    uniform = fusion.init_parameters(fusion.parse_variant("RLM"), V, 5, 4, 3, 3,
                                     rng, np.float64)
    for p in uniform.values():
        p.value[...] = 0.0
    ppl = corpus_perplexity(Model(uniform, fusion.parse_variant("RLM"), vocab),
                            docs, n=0).perplexity
    assert ppl == pytest.approx(V, rel=1e-12)
    announce("AC-6", f"batched=per-window oracle (worst diff {worst:.2e}); tag decomposition "
                     f"recombines; uniform ppl = {ppl:.12f} = |V|")


# -- AC-7: determinism and persistence ---------------------------------------------------


def test_ac7_determinism_and_persistence(tmp_path):
    V = 10
    vocab = Vocabulary(["<unk>", "</s>"] + [f"w{i}" for i in range(V - 2)])
    rng = np.random.default_rng(3)
    docs = [Document(tuple(
        Sentence(tuple(int(x) for x in rng.integers(2, V, size=rng.integers(1, 5))) + (1,))
        for _ in range(3))) for _ in range(5)]
    cfg = TrainConfig(variant="RLM-SeqBoW-LF", n=2, d_h=3, d_emb=3, d_ctx=2,
                      vocab_size=V, max_len=10, batch_size=4, max_epochs=3,
                      patience=5, seed=77, precision="f64")
    a = train(cfg, docs[:4], docs[4:], vocab)
    b = train(cfg, docs[:4], docs[4:], vocab)
    assert support.format_log(a.log).encode() == support.format_log(b.log).encode()
    for name in a.checkpoint.arrays:
        assert np.array_equal(a.checkpoint.arrays[name], b.checkpoint.arrays[name])

    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a.checkpoint, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    announce("AC-7", f"retrain log byte-identical ({len(a.log)} epochs); "
                     f"checkpoint save/load/save byte-identical ({p1.stat().st_size} bytes)")
