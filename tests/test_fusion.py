import numpy as np
import pytest

import oracle
from ctxlm import fusion, numeric as nm, rlm
from ctxlm.corpus import ContextWindow, Sentence, Vocabulary, bow_vector
from ctxlm.numeric import Tape, Variable

V = 14
VOCAB = Vocabulary(["<unk>", "</s>"] + [f"w{i}" for i in range(V - 2)])
DIMS = dict(d_emb=5, d_h=4, d_ctx=3, d_a=3)
EF_LF_TAGS = [t for t in fusion.VARIANTS if t != "RLM"]


def sent(*ids):
    return Sentence(tuple(ids) + (1,))


def make_params(tag, seed=5, scale=1.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    params = fusion.init_parameters(fusion.parse_variant(tag), V, DIMS["d_emb"],
                                    DIMS["d_h"], DIMS["d_ctx"], DIMS["d_a"],
                                    rng, np.float64)
    if scale != 1.0:
        for p in params.values():
            p.value *= scale
    return params


def copy_core(src, dst):
    """Copy the shared sentence-model weights so two variants are comparable."""
    for name in dst:
        if name in src:
            dst[name].value = src[name].value.copy()


WINDOW = ContextWindow(sent(3, 5, 2, 7), (sent(4, 6), sent(2, 8, 3)))
EMPTY = ContextWindow(sent(3, 5, 2, 7), ())


def test_parse_variant_rejects_unknown():
    with pytest.raises(ValueError, match="unknown variant"):
        fusion.parse_variant("RLM-BoW-EF-4")
    with pytest.raises(ValueError):
        fusion.conditional_sentence_nll(WINDOW, "nope", make_params("RLM"), VOCAB)


def test_variant_tags_are_canonical():
    assert sorted(fusion.VARIANTS) == [
        "RLM", "RLM-BoW-EF", "RLM-BoW-LF", "RLM-SeqBoW-ATT-EF", "RLM-SeqBoW-ATT-LF",
        "RLM-SeqBoW-EF", "RLM-SeqBoW-LF",
    ]


# -- early fusion --------------------------------------------------------------


def _bow_ef_and_baseline(seed=0):
    params = make_params("RLM-BoW-EF", seed=seed)
    baseline = make_params("RLM")
    copy_core(params, baseline)
    return params, baseline


def _token_nlls(window, tag, params):
    trace = {}
    fusion.conditional_sentence_nll(window, tag, params, VOCAB, trace=trace)
    return trace["nll"]


def test_early_fusion_input_reduces_without_projection():
    params, baseline = _bow_ef_and_baseline()
    params["W_p"].value[...] = 0.0
    assert _token_nlls(WINDOW, "RLM-BoW-EF", params) == _token_nlls(WINDOW, "RLM", baseline)


def test_early_fusion_input_reduces_on_zero_context():
    params, baseline = _bow_ef_and_baseline()
    assert _token_nlls(EMPTY, "RLM-BoW-EF", params) == _token_nlls(EMPTY, "RLM", baseline)


def test_early_fusion_input_matches_sum_of_terms():
    """With a fixed context vector p, early fusion is the unconditioned model
    whose every embedding row is shifted by p W_p."""
    params, baseline = _bow_ef_and_baseline(seed=1)
    p = bow_vector(WINDOW.context, VOCAB) @ params["P"].value
    baseline["E"].value = params["E"].value + p @ params["W_p"].value
    fused = _token_nlls(WINDOW, "RLM-BoW-EF", params)
    shifted = _token_nlls(WINDOW, "RLM", baseline)
    assert np.max(np.abs(np.subtract(fused, shifted))) < 1e-12


# -- late fusion ---------------------------------------------------------------


def _lf_setup(seed=7):
    params = make_params("RLM-BoW-LF", seed=seed)
    rng = np.random.default_rng(seed)
    x = Variable(rng.standard_normal((1, DIMS["d_emb"])))
    state = rlm.LstmState(Variable(rng.standard_normal((1, DIMS["d_h"]))),
                          Variable(rng.standard_normal((1, DIMS["d_h"]))))
    return params, x, state


def test_late_fusion_zero_context_equals_plain_step():
    params, x, state = _lf_setup()
    p = Variable(np.zeros((1, DIMS["d_ctx"])))
    fused_state, h = fusion.late_fusion_step(x, state, p, params)
    plain = rlm.lstm_step(x, state, params)
    assert np.array_equal(h.value, plain.h.value)
    assert np.array_equal(fused_state.c.value, plain.c.value)


def test_late_fusion_saturated_gate_open():
    params, x, state = _lf_setup()
    params["W_rp"].value[...] = 0.0
    params["W_rc"].value[...] = 0.0
    params["b_r"].value[...] = 20.0
    p = Variable(np.random.default_rng(2).standard_normal((1, DIMS["d_ctx"])))
    _, h = fusion.late_fusion_step(x, state, p, params)
    _, o, c_new = rlm.lstm_gates(None, params, "", x, state)
    q = p.value @ params["W_p"].value
    expect = o.value * np.tanh(c_new.value + q)
    assert np.max(np.abs(h.value - expect)) < 1e-8


def test_late_fusion_saturated_gate_closed():
    params, x, state = _lf_setup()
    params["b_r"].value[...] = -20.0
    p = Variable(np.random.default_rng(3).standard_normal((1, DIMS["d_ctx"])))
    _, h = fusion.late_fusion_step(x, state, p, params)
    plain = rlm.lstm_step(x, state, params)
    assert np.max(np.abs(h.value - plain.h.value)) < 1e-8


def test_late_fusion_gate_is_strictly_inside_unit_interval():
    params, x, state = _lf_setup()
    p = Variable(np.random.default_rng(4).standard_normal((1, DIMS["d_ctx"])))
    q = nm.matmul(None, p, params["W_p"])
    pre = nm.add(None, nm.matmul(None, q, params["W_rp"]),
                 nm.matmul(None, state.c, params["W_rc"]))
    r = nm.sigmoid_v(None, nm.add_bias(None, pre, params["b_r"]))
    assert np.all(r.value > 0.0) and np.all(r.value < 1.0)


def test_late_fusion_cell_untouched_by_context():
    params, x, state = _lf_setup()
    for seed in range(3):
        p = Variable(np.random.default_rng(seed).standard_normal((1, DIMS["d_ctx"])))
        fused_state, _ = fusion.late_fusion_step(x, state, p, params)
        plain = rlm.lstm_step(x, state, params)
        assert np.array_equal(fused_state.c.value, plain.c.value)


# -- conditional sentence NLL ----------------------------------------------------


def test_rlm_variant_equals_baseline_exactly():
    params = make_params("RLM")
    with_context = fusion.conditional_sentence_nll(WINDOW, "RLM", params, VOCAB)
    without = fusion.conditional_sentence_nll(EMPTY, "RLM", params, VOCAB)
    assert with_context.value.shape == ()
    assert float(with_context.value) == float(without.value)


@pytest.mark.parametrize("tag", EF_LF_TAGS)
def test_empty_context_reduces_to_baseline(tag):
    params = make_params(tag)
    baseline = make_params("RLM")
    copy_core(params, baseline)
    fused = fusion.conditional_sentence_nll(EMPTY, tag, params, VOCAB)
    plain = fusion.conditional_sentence_nll(EMPTY, "RLM", baseline, VOCAB)
    assert float(fused.value) == pytest.approx(float(plain.value), abs=1e-12)


@pytest.mark.parametrize("tag", EF_LF_TAGS)
def test_zero_projection_reduces_to_baseline(tag):
    params = make_params(tag)
    params["W_p"].value[...] = 0.0
    baseline = make_params("RLM")
    copy_core(params, baseline)
    trace_f, trace_b = {}, {}
    fused = fusion.conditional_sentence_nll(WINDOW, tag, params, VOCAB, trace=trace_f)
    plain = fusion.conditional_sentence_nll(WINDOW, "RLM", baseline, VOCAB, trace=trace_b)
    assert float(fused.value) == pytest.approx(float(plain.value), abs=1e-9)
    for a, b in zip(trace_f["nll"], trace_b["nll"]):
        assert a == pytest.approx(b, abs=1e-9)  # per-word probabilities agree


@pytest.mark.parametrize("tag", EF_LF_TAGS)
def test_context_gradient_is_connected(tag):
    params = make_params(tag, seed=9)
    tape = Tape()
    nll = fusion.conditional_sentence_nll(WINDOW, tag, params, VOCAB, tape)
    tape.backward(nll)
    assert params["W_p"].grad is not None and np.any(params["W_p"].grad != 0.0)
    assert params["P"].grad is not None and np.any(params["P"].grad != 0.0)


@pytest.mark.parametrize("tag", sorted(fusion.VARIANTS))
def test_gradients_match_finite_differences(tag):
    params = make_params(tag, seed=13, scale=3.0)
    window = ContextWindow(sent(3, 5), (sent(4, 6), sent(2,)))
    tape = Tape()
    nll = fusion.conditional_sentence_nll(window, tag, params, VOCAB, tape)
    tape.backward(nll)
    for name, p in params.items():
        got = p.grad_buffer().copy().ravel()
        shape = p.value.shape

        def f(theta, p=p):
            saved = p.value
            p.value = theta.reshape(shape)
            out = float(fusion.conditional_sentence_nll(window, tag, params, VOCAB).value)
            p.value = saved
            return out

        fd = nm.finite_difference_gradient(f, p.value.ravel().copy())
        resolvable = (np.abs(got) + np.abs(fd)) >= 1e-5
        assert nm.relative_error(got[resolvable], fd[resolvable]).max(initial=0.0) < 1e-4, name
        assert np.max(np.abs(got[~resolvable] - fd[~resolvable]), initial=0.0) < 1e-8, name
        p.zero_grad()


# -- batched engine --------------------------------------------------------------


MIXED = [
    ContextWindow(sent(3, 5, 2), ()),
    ContextWindow(sent(4,), (sent(2, 6),)),
    ContextWindow(sent(6, 2, 8, 3, 5, 9), (sent(4,), sent(5, 7), sent(3, 3))),
    ContextWindow(sent(2, 2), (sent(9, 4), sent(6,))),
]


@pytest.mark.parametrize("tag", sorted(fusion.VARIANTS))
def test_batched_equals_unbatched(tag):
    """The batch engine, on the padded batch and on each window alone, against
    the independent per-window oracle. Parameters are scaled to about ±0.8 so
    the context terms (attention above all) move the NLL well beyond the
    tolerance."""
    params = make_params(tag, seed=17, scale=10.0)
    total, _ = fusion.batch_nll(MIXED, params, tag, VOCAB)
    for b, w in enumerate(MIXED):
        expect = oracle.token_nlls(params, tag, w.target.token_ids,
                                   [s.token_ids for s in w.context])
        assert float(total.value[b]) == pytest.approx(sum(expect), abs=1e-9)
        trace = {}
        single = fusion.conditional_sentence_nll(w, tag, params, VOCAB, trace=trace)
        assert float(single.value) == pytest.approx(sum(expect), abs=1e-9)
        assert np.max(np.abs(np.subtract(trace["nll"], expect))) <= 1e-9


@pytest.mark.parametrize("tag", sorted(fusion.VARIANTS))
def test_batched_token_nll_masks_padding(tag):
    params = make_params(tag, seed=19)
    total, token = fusion.batch_nll(MIXED, params, tag, VOCAB, want_token_nll=True)
    lengths = [len(w.target.token_ids) for w in MIXED]
    for b, L in enumerate(lengths):
        assert np.all(token[b, L:] == 0.0)
        assert np.all(token[b, :L] > 0.0)
        assert token[b].sum() == pytest.approx(float(total.value[b]), rel=1e-12)


@pytest.mark.parametrize("tag", ["RLM-BoW-LF", "RLM-SeqBoW-ATT-EF"])
def test_batch_gradient_equals_mean_of_single_gradients(tag):
    params = make_params(tag, seed=23)
    tape = Tape()
    total, _ = fusion.batch_nll(MIXED, params, tag, VOCAB, tape)
    loss = nm.scale(tape, nm.sum_all(tape, total), 1.0 / len(MIXED))
    tape.backward(loss)
    batch_grads = {k: p.grad_buffer().copy() for k, p in params.items()}
    for p in params.values():
        p.zero_grad()

    accum = {k: np.zeros_like(p.value) for k, p in params.items()}
    for w in MIXED:
        tape = Tape()
        nll = fusion.conditional_sentence_nll(w, tag, params, VOCAB, tape)
        tape.backward(nll)
        for k, p in params.items():
            accum[k] += p.grad_buffer() / len(MIXED)
            p.zero_grad()
    for k in params:
        assert np.max(np.abs(batch_grads[k] - accum[k])) < 1e-9, k


def test_all_empty_context_batch():
    windows = [ContextWindow(sent(3, 5), ()), ContextWindow(sent(4, 2, 6), ())]
    for tag in ("RLM-SeqBoW-LF", "RLM-SeqBoW-ATT-LF", "RLM-SeqBoW-ATT-EF"):
        params = make_params(tag, seed=29)
        baseline = make_params("RLM")
        copy_core(params, baseline)
        total, _ = fusion.batch_nll(windows, params, tag, VOCAB)
        for b, w in enumerate(windows):
            plain = float(fusion.conditional_sentence_nll(w, "RLM", baseline, VOCAB).value)
            assert float(total.value[b]) == pytest.approx(plain, abs=1e-12)


# -- batched engine: gradients and tape shape --------------------------------------


PADDED = [
    ContextWindow(sent(3, 5, 2), ()),
    ContextWindow(sent(6, 2, 8, 3, 5), (sent(4,), sent(5, 7))),
    ContextWindow(sent(9,), (sent(2, 6, 6),)),
]


@pytest.mark.parametrize("tag", sorted(fusion.VARIANTS))
def test_batch_engine_gradients_match_finite_differences(tag):
    """Every parameter gradient of sum(batch_nll) over a padded batch of three
    windows of different lengths, one with an empty context, against central
    differences with AC-1's tolerances. Parameters are scaled to about ±0.8:
    at the default ±0.08 the attention gradients sit below what the
    difference quotient resolves, so a wrong one would pass unseen."""
    params = make_params(tag, seed=31, scale=10.0)
    tape = Tape()
    total, _ = fusion.batch_nll(PADDED, params, tag, VOCAB, tape)
    tape.backward(nm.sum_all(tape, total))
    for name, p in params.items():
        got = p.grad_buffer().copy().ravel()
        shape = p.value.shape

        def f(theta, p=p):
            saved = p.value
            p.value = theta.reshape(shape)
            out = float(fusion.batch_nll(PADDED, params, tag, VOCAB)[0].value.sum())
            p.value = saved
            return out

        fd = nm.finite_difference_gradient(f, p.value.ravel().copy())
        resolvable = (np.abs(got) + np.abs(fd)) >= 1e-5
        assert nm.relative_error(got[resolvable], fd[resolvable]).max(initial=0.0) <= 1e-4, name
        assert np.max(np.abs(got[~resolvable] - fd[~resolvable]), initial=0.0) <= 1e-8, name
        p.zero_grad()


@pytest.mark.parametrize("tag", ["RLM-BoW-LF", "RLM-SeqBoW-EF", "RLM-SeqBoW-ATT-LF"])
def test_count_matrices_get_no_gradient(tag, monkeypatch):
    """The BoW count matrices enter as constant matmul operands: backward
    leaves their gradient unallocated while P still gets one."""
    operands = []
    matmul = nm.matmul

    def spy(tape, a, b):
        operands.append(a)
        return matmul(tape, a, b)

    monkeypatch.setattr(nm, "matmul", spy)
    params = make_params(tag, seed=37)
    tape = Tape()
    total, _ = fusion.batch_nll(MIXED, params, tag, VOCAB, tape)
    tape.backward(nm.sum_all(tape, total))
    counts = [a for a in operands if a.constant]
    assert counts, "no count-matrix operand seen"
    assert all(a.grad is None for a in counts)
    assert params["P"].grad is not None and np.any(params["P"].grad != 0.0)


def _tape_length(tag, target_length):
    params = make_params(tag, seed=41)
    windows = [ContextWindow(sent(*([3] * target_length)), (sent(4, 6), sent(2, 8, 3))),
               ContextWindow(sent(5, 2), (sent(7,),))]
    tape = Tape()
    fusion.batch_nll(windows, params, tag, VOCAB, tape)
    return len(tape)


@pytest.mark.parametrize("tag", sorted(fusion.VARIANTS))
def test_tape_grows_by_a_few_ops_per_timestep(tag):
    """Tape operations added by one more timestep (T=7 -> T=8, two context
    sentences). With one primitive per operation the engine recorded
    RLM 30, BoW-EF 31, BoW-LF 37, SeqBoW-EF 31, SeqBoW-LF 37, ATT-EF 42 and
    ATT-LF 48, 3K+5 of them attention ops for K context sentences. With
    the fused cell, fused late-fusion output and batched attention scores it
    records RLM 1, BoW-EF 1, BoW-LF 2, SeqBoW-EF 1, SeqBoW-LF 2, ATT-EF 7 and
    ATT-LF 8, whatever K is."""
    grown = _tape_length(tag, 7) - _tape_length(tag, 6)
    assert grown == _tape_length(tag, 8) - _tape_length(tag, 7)  # exact and repeatable
    assert grown <= (2 if tag == "RLM" else 20)
