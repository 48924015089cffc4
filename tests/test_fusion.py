import re

import numpy as np
import pytest

import oracle
import support
from ctxlm import fusion, numeric as nm, rlm
from ctxlm.corpus import ContextWindow, Sentence, Vocabulary, bow_vector
from ctxlm.numeric import Tape

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
        fusion.batch_nll([WINDOW], make_params("RLM"), "nope", VOCAB)


def test_variant_tags_are_canonical():
    assert sorted(fusion.VARIANTS) == [
        "RLM", "RLM-BoW-EF", "RLM-BoW-LF", "RLM-SeqBoW-ATT-EF", "RLM-SeqBoW-ATT-LF",
        "RLM-SeqBoW-EF", "RLM-SeqBoW-LF",
    ]


# the checkpoint layout at |V|=9, d_emb=5, d_h=4, d_ctx=3, d_a=2, spelled out
LAYOUT_DECODER = [
    ("E", (10, 5)),
    ("W_i", (5, 4)), ("U_i", (4, 4)), ("b_i", (4,)),
    ("W_o", (5, 4)), ("U_o", (4, 4)), ("b_o", (4,)),
    ("W_f", (5, 4)), ("U_f", (4, 4)), ("b_f", (4,)),
    ("W_c", (5, 4)), ("U_c", (4, 4)), ("b_c", (4,)),
    ("W_out", (4, 9)), ("b_out", (9,)),
]
LAYOUT_FORWARD = [
    ("cf_W_i", (3, 3)), ("cf_U_i", (3, 3)), ("cf_b_i", (3,)),
    ("cf_W_o", (3, 3)), ("cf_U_o", (3, 3)), ("cf_b_o", (3,)),
    ("cf_W_f", (3, 3)), ("cf_U_f", (3, 3)), ("cf_b_f", (3,)),
    ("cf_W_c", (3, 3)), ("cf_U_c", (3, 3)), ("cf_b_c", (3,)),
]
LAYOUT_REVERSE = [
    ("cr_W_i", (3, 3)), ("cr_U_i", (3, 3)), ("cr_b_i", (3,)),
    ("cr_W_o", (3, 3)), ("cr_U_o", (3, 3)), ("cr_b_o", (3,)),
    ("cr_W_f", (3, 3)), ("cr_U_f", (3, 3)), ("cr_b_f", (3,)),
    ("cr_W_c", (3, 3)), ("cr_U_c", (3, 3)), ("cr_b_c", (3,)),
]
LAYOUT_ATTENTION = [("W_a", (6, 2)), ("U_a", (4, 2)), ("v_a", (2,))]
LAYOUT_GATE = [("W_rp", (4, 4)), ("W_rc", (4, 4)), ("b_r", (4,))]
LAYOUTS = {
    "RLM": LAYOUT_DECODER,
    "RLM-BoW-EF": LAYOUT_DECODER + [("P", (9, 3)), ("W_p", (3, 5))],
    "RLM-BoW-LF": LAYOUT_DECODER + [("P", (9, 3)), ("W_p", (3, 4))] + LAYOUT_GATE,
    "RLM-SeqBoW-EF": LAYOUT_DECODER + [("P", (9, 3))] + LAYOUT_FORWARD + [("W_p", (3, 5))],
    "RLM-SeqBoW-LF": (LAYOUT_DECODER + [("P", (9, 3))] + LAYOUT_FORWARD + [("W_p", (3, 4))]
                      + LAYOUT_GATE),
    "RLM-SeqBoW-ATT-EF": (LAYOUT_DECODER + [("P", (9, 3))] + LAYOUT_FORWARD + LAYOUT_REVERSE
                          + LAYOUT_ATTENTION + [("W_p", (6, 5))]),
    "RLM-SeqBoW-ATT-LF": (LAYOUT_DECODER + [("P", (9, 3))] + LAYOUT_FORWARD + LAYOUT_REVERSE
                          + LAYOUT_ATTENTION + [("W_p", (6, 4))] + LAYOUT_GATE),
}


@pytest.mark.parametrize("tag", sorted(fusion.VARIANTS))
def test_parameter_table_is_the_checkpoint_layout(tag):
    """Every parameter's name and shape, in draw order: seeded models draw
    their weights in this order, so a reorder changes every one of them."""
    table = fusion.parameter_shapes(fusion.parse_variant(tag), 9, 5, 4, 3, 2)
    assert list(table.items()) == LAYOUTS[tag]


# -- early fusion --------------------------------------------------------------


def _bow_ef_and_baseline(seed=0):
    params = make_params("RLM-BoW-EF", seed=seed)
    baseline = make_params("RLM")
    copy_core(params, baseline)
    return params, baseline


def _token_nlls(window, tag, params):
    """One window's per-position NLLs: the engine on a batch of one."""
    return fusion.batch_nll([window], params, tag, VOCAB)[1]


def _nll(window, tag, params, tape=None):
    """One window's NLL as a scalar Variable."""
    return nm.sum_all(tape, fusion.batch_nll([window], params, tag, VOCAB, tape)[0])


def test_early_fusion_input_reduces_without_projection():
    params, baseline = _bow_ef_and_baseline()
    params["W_p"].value[...] = 0.0
    assert np.array_equal(_token_nlls(WINDOW, "RLM-BoW-EF", params),
                          _token_nlls(WINDOW, "RLM", baseline))


def test_early_fusion_input_reduces_on_zero_context():
    params, baseline = _bow_ef_and_baseline()
    assert np.array_equal(_token_nlls(EMPTY, "RLM-BoW-EF", params),
                          _token_nlls(EMPTY, "RLM", baseline))


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

LF_TAGS = [t for t, v in sorted(fusion.VARIANTS.items()) if v.fusion == "late"]


def _decoder_trace(windows, tag, params):
    """Run the engine with spies on nm.lstm_recurrence and on the output affine
    -> (the decoder's steps from ``support.recurrence_steps``: each one's cell
    recomputed from h_prev, xproj and b alone, its ``o`` and the ``c`` it
    returned; the packed hidden states that reach W_out)."""
    hidden = []
    matmul = nm.matmul
    d_h = params["b_i"].shape[0]

    def matmul_spy(tape, a, b):
        if b is params["W_out"]:
            hidden.append(a.value.copy())
        return matmul(tape, a, b)

    with pytest.MonkeyPatch.context() as mp:
        calls = support.spy_recurrences(mp)
        mp.setattr(nm, "matmul", matmul_spy)
        fusion.batch_nll(windows, params, tag, VOCAB)
    # the context LSTMs are d_ctx wide
    decoder, = (c for c in calls if c["U"].shape == (d_h, 4 * d_h))
    return support.recurrence_steps(decoder), hidden[0]


def test_late_fusion_zero_context_equals_plain_step():
    """Without context sentences q = 0, and every LF variant's per-position
    NLLs equal the unconditioned model's bitwise."""
    for tag in LF_TAGS:
        params = make_params(tag, seed=7)
        baseline = make_params("RLM")
        copy_core(params, baseline)
        assert np.array_equal(_token_nlls(EMPTY, tag, params),
                              _token_nlls(EMPTY, "RLM", baseline)), tag


def test_late_fusion_saturated_gate_open():
    """With r = 1 exactly (W_rp = W_rc = 0, b_r = 1e3) the hidden state the
    engine scores is o * tanh(c + q), q = (s P) W_p for the context counts s."""
    params = make_params("RLM-BoW-LF", seed=7, scale=10.0)
    params["W_rp"].value[...] = 0.0
    params["W_rc"].value[...] = 0.0
    params["b_r"].value[...] = 1e3
    steps, hidden = _decoder_trace([WINDOW], "RLM-BoW-LF", params)
    q = bow_vector(WINDOW.context, VOCAB) @ params["P"].value @ params["W_p"].value
    assert np.any(np.abs(q) > 0.1)
    expect = np.concatenate([s["o"] * np.tanh(s["c_returned"] + q) for s in steps])
    assert np.max(np.abs(hidden - expect)) < 1e-12


def test_late_fusion_saturated_gate_closed():
    """A gate near closing (b_r = -20, r about 2e-9) keeps every LF variant's
    per-position NLLs within 1e-8 of the unconditioned model's."""
    for tag in LF_TAGS:
        params = make_params(tag, seed=7)
        params["b_r"].value[...] = -20.0
        baseline = make_params("RLM")
        copy_core(params, baseline)
        diff = _token_nlls(WINDOW, tag, params) - _token_nlls(WINDOW, "RLM", baseline)
        assert np.max(np.abs(diff)) < 1e-8, tag


def test_late_fusion_gate_is_strictly_inside_unit_interval():
    """The gate r of every engine step, recomputed from the inputs and the
    states of its nm.lstm_recurrence call, lies strictly inside (0, 1)."""
    for tag in LF_TAGS:
        steps, _ = _decoder_trace(MIXED, tag, make_params(tag, seed=7, scale=10.0))
        assert len(steps) == max(len(w.target.token_ids) for w in MIXED), tag
        r = np.concatenate([s["r"] for s in steps])
        assert np.all(r > 0.0) and np.all(r < 1.0), tag


def test_late_fusion_cell_untouched_by_context():
    """For every LF variant the decoder's cell gets no context input, and the
    cell state it reads at each step is, bitwise, the one it returned at the
    step before: each step's c equals f * c_prev + i * g recomputed from
    h_prev, xproj and b alone, with c_prev the cell's own. The context
    reaches the output only."""
    for tag in LF_TAGS:
        steps, _ = _decoder_trace(MIXED, tag, make_params(tag, seed=7))
        assert len(steps) == max(len(w.target.token_ids) for w in MIXED), tag
        assert all(np.array_equal(s["c"], s["c_returned"]) for s in steps), tag


def test_rlm_variant_equals_baseline_exactly():
    params = make_params("RLM")
    with_context = _nll(WINDOW, "RLM", params)
    without = _nll(EMPTY, "RLM", params)
    assert with_context.value.shape == ()
    assert float(with_context.value) == float(without.value)


@pytest.mark.parametrize("tag", EF_LF_TAGS)
def test_empty_context_reduces_to_baseline(tag):
    params = make_params(tag)
    baseline = make_params("RLM")
    copy_core(params, baseline)
    fused = _nll(EMPTY, tag, params)
    plain = _nll(EMPTY, "RLM", baseline)
    assert float(fused.value) == pytest.approx(float(plain.value), abs=1e-12)


@pytest.mark.parametrize("tag", EF_LF_TAGS)
def test_zero_projection_reduces_to_baseline(tag):
    params = make_params(tag)
    params["W_p"].value[...] = 0.0
    baseline = make_params("RLM")
    copy_core(params, baseline)
    fused, fused_tokens = fusion.batch_nll([WINDOW], params, tag, VOCAB)
    plain, plain_tokens = fusion.batch_nll([WINDOW], baseline, "RLM", VOCAB)
    assert float(fused.value[0]) == pytest.approx(float(plain.value[0]), abs=1e-9)
    for a, b in zip(fused_tokens, plain_tokens, strict=True):
        assert a == pytest.approx(b, abs=1e-9)  # per-word probabilities agree


@pytest.mark.parametrize("tag", EF_LF_TAGS)
def test_context_gradient_is_connected(tag):
    params = make_params(tag, seed=9)
    tape = Tape()
    tape.backward(_nll(WINDOW, tag, params, tape))
    assert params["W_p"].grad is not None and np.any(params["W_p"].grad != 0.0)
    assert params["P"].grad is not None and np.any(params["P"].grad_buffer() != 0.0)


@pytest.mark.parametrize("tag", sorted(fusion.VARIANTS))
def test_gradients_match_finite_differences(tag):
    params = make_params(tag, seed=13, scale=3.0)
    window = ContextWindow(sent(3, 5), (sent(4, 6), sent(2,)))
    tape = Tape()
    tape.backward(_nll(window, tag, params, tape))
    for name, p in params.items():
        got = p.grad_buffer().copy().ravel()
        shape = p.value.shape

        def f(theta, p=p):
            saved = p.value
            p.value = theta.reshape(shape)
            out = float(_nll(window, tag, params).value)
            p.value = saved
            return out

        fd = support.finite_difference_gradient(f, p.value.ravel().copy())
        resolvable = (np.abs(got) + np.abs(fd)) >= 1e-5
        assert support.relative_error(got[resolvable], fd[resolvable]).max(initial=0.0) < 1e-4, name
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
    """The batch engine, on the mixed batch and on each window alone, against
    the independent per-window oracle. Parameters are scaled to about ±0.8 so
    the context terms (attention above all) move the NLL well beyond the
    tolerance."""
    params = make_params(tag, seed=17, scale=10.0)
    total, _ = fusion.batch_nll(MIXED, params, tag, VOCAB)
    for b, w in enumerate(MIXED):
        expect = oracle.token_nlls(params, tag, w.target.token_ids,
                                   [s.token_ids for s in w.context])
        assert float(total.value[b]) == pytest.approx(sum(expect), abs=1e-9)
        single, tokens = fusion.batch_nll([w], params, tag, VOCAB)
        assert float(single.value[0]) == pytest.approx(sum(expect), abs=1e-9)
        assert np.max(np.abs(tokens - expect)) <= 1e-9


@pytest.mark.parametrize("tag", sorted(fusion.VARIANTS))
def test_batched_token_nll_masks_padding(tag):
    """The per-position NLLs hold the real positions only, windows in the
    caller's order (not the engine's longest-first rows) and each window's
    positions in time order: the oracle's per-window lists concatenated, to
    1e-12 in float64. Each window's slice sums to its total."""
    params = make_params(tag, seed=19)
    total, token = fusion.batch_nll(MIXED, params, tag, VOCAB)
    expect = [oracle.token_nlls(params, tag, w.target.token_ids,
                                [s.token_ids for s in w.context]) for w in MIXED]
    assert token.dtype == np.float64 and token.shape == (sum(map(len, expect)),)
    assert np.max(np.abs(token - np.concatenate(expect))) <= 1e-12
    ends = np.cumsum([len(e) for e in expect])
    for b, piece in enumerate(np.split(token, ends[:-1])):
        assert piece.sum() == pytest.approx(float(total.value[b]), rel=1e-12)


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
        tape.backward(_nll(w, tag, params, tape))
        for k, p in params.items():
            accum[k] += p.grad_buffer() / len(MIXED)
            p.zero_grad()
    for k in params:
        assert np.max(np.abs(batch_grads[k] - accum[k])) < 1e-9, k


def test_all_empty_context_batch():
    """A batch in which no window has a context sentence is the RLM with the
    same core weights, bit for bit, for every context variant."""
    windows = [ContextWindow(sent(3, 5), ()), ContextWindow(sent(4, 2, 6), ())]
    for tag in sorted(set(fusion.VARIANTS) - {"RLM"}):
        params = make_params(tag, seed=29)
        baseline = make_params("RLM")
        copy_core(params, baseline)
        total, token_nll = fusion.batch_nll(windows, params, tag, VOCAB)
        plain_total, plain_token_nll = fusion.batch_nll(windows, baseline, "RLM", VOCAB)
        assert np.array_equal(total.value, plain_total.value), tag
        assert np.array_equal(token_nll, plain_token_nll), tag


# -- batched engine: gradients and tape shape --------------------------------------


PADDED = [
    ContextWindow(sent(3, 5, 2), ()),
    ContextWindow(sent(6, 2, 8, 3, 5), (sent(4,), sent(5, 7))),
    ContextWindow(sent(9,), (sent(2, 6, 6),)),
]

# target lengths 2, 3, 3, 5 in the caller's order: the engine reverses them,
# keeping the tied pair in order
TIED_ASCENDING = [
    ContextWindow(sent(7,), (sent(3, 3),)),
    ContextWindow(sent(2, 9), ()),
    ContextWindow(sent(5, 4), (sent(8,), sent(6, 2, 4))),
    ContextWindow(sent(4, 6, 3, 2), (sent(9,),)),
]


@pytest.mark.parametrize("tag", sorted(fusion.VARIANTS))
def test_batch_engine_gradients_match_finite_differences(tag):
    """Every parameter gradient of sum(batch_nll) against central differences
    with AC-1's tolerances, on two batches: three windows of different lengths,
    one with an empty context, and four whose lengths tie and ascend.
    Parameters are scaled to about ±0.8: at the default ±0.08 the attention
    gradients sit below what the difference quotient resolves, so a wrong one
    would pass unseen."""
    params = make_params(tag, seed=31, scale=10.0)
    for windows in (PADDED, TIED_ASCENDING):
        tape = Tape()
        total, _ = fusion.batch_nll(windows, params, tag, VOCAB, tape)
        tape.backward(nm.sum_all(tape, total))
        for name, p in params.items():
            got = p.grad_buffer().copy().ravel()
            shape = p.value.shape

            def f(theta, p=p):
                saved = p.value
                p.value = theta.reshape(shape)
                out = float(fusion.batch_nll(windows, params, tag, VOCAB)[0].value.sum())
                p.value = saved
                return out

            fd = support.finite_difference_gradient(f, p.value.ravel().copy())
            resolvable = (np.abs(got) + np.abs(fd)) >= 1e-5
            assert support.relative_error(got[resolvable], fd[resolvable]).max(initial=0.0) <= 1e-4, name
            assert np.max(np.abs(got[~resolvable] - fd[~resolvable]), initial=0.0) <= 1e-8, name
            p.zero_grad()


def _eos_only():
    """A target of EOS alone, so the batch has one step (T = 1). The corpus
    never makes one (a sentence has a content token); the engine must not
    depend on that."""
    target = object.__new__(Sentence)
    object.__setattr__(target, "token_ids", (1,))
    return target


# every target one step long, each context one sentence long (K = 1 too)
ONE_STEP = [ContextWindow(_eos_only(), (sent(4, 6),)), ContextWindow(_eos_only(), ()),
            ContextWindow(_eos_only(), (sent(2, 8, 3),))]
NO_CONTEXT = [ContextWindow(sent(3, 5, 2), ()), ContextWindow(sent(6, 2, 8, 3, 5), ()),
              ContextWindow(sent(9,), ())]


def _per_step_weight_grads(windows, tag, params):
    """Backpropagate sum(batch_nll) with a spy on nm.lstm_recurrence, then add
    up every step's own weight gradients into a reference: h_prev.T @ dz and
    dz.sum(0) for the cell (dz read back from xproj's gradient), h_prev.T @
    dq for attention's query (dq its gradient), and c.T @ dpre and
    dpre.sum(0) for late fusion's gate, dpre recomputed from the hidden
    state's gradient. -> {parameter name: reference gradient}."""
    tape = Tape()
    with pytest.MonkeyPatch.context() as mp:
        calls = support.spy_recurrences(mp)
        total, _ = fusion.batch_nll(windows, params, tag, VOCAB, tape)
    tape.backward(nm.sum_all(tape, total))
    ref = {}
    for call in calls:
        # the layer whose per-gate U_* the concatenated U holds
        U = call["U"]
        prefix = next(p for p in ("", fusion.CTX_FWD, fusion.CTX_REV)
                      if f"{p}U_i" in params and np.array_equal(
                          U.value, np.concatenate([params[f"{p}U_{g}"].value
                                                   for g in rlm.GATES], axis=1)))
        dU, db, dU_a, dW_rc, db_r = 0.0, 0.0, 0.0, 0.0, 0.0
        for t, step in enumerate(support.recurrence_steps(call)):
            dz = call["xproj"].grad[step["rows"]]
            dU = dU + step["h_prev"].T @ dz
            db = db + dz.sum(axis=0)
            if call["queries"]:
                dU_a = dU_a + step["h_prev"].T @ call["queries"][t].grad
            if call["late"] is not None:
                g = call["H"].grad[step["rows"]]
                r, u = step["r"], step["u"]
                dpre = g * step["o"] * (1.0 - u * u) * step["q"] * r * (1.0 - r)
                dW_rc = dW_rc + step["c_returned"].T @ dpre
                db_r = db_r + dpre.sum(axis=0)
        d = U.shape[0]
        for k, g in enumerate(rlm.GATES):
            ref[f"{prefix}U_{g}"] = dU[..., k * d:(k + 1) * d]
            ref[f"{prefix}b_{g}"] = db[..., k * d:(k + 1) * d]
        if call["queries"]:
            ref["U_a"] = dU_a
        if call["late"] is not None:
            ref.update(W_rc=dW_rc, b_r=db_r)
    return ref


@pytest.mark.parametrize("tag", sorted(fusion.VARIANTS))
def test_weight_gradients_equal_the_per_step_sum(tag):
    """Every recurrent weight's gradient (U_* and b_* of the decoder and of
    both context LSTMs, W_rc and b_r, U_a), formed once per batch, equals the sum of every step's own
    h_prev.T @ dz (c.T @ dpre, h_prev.T @ dq) and dz.sum(0) to 1e-12 of its
    largest entry, in float64: on batches of mixed and tied lengths, one
    whose every target is one step long and every context one sentence (so
    dU is exactly 0), and one with no context at all."""
    for windows in (PADDED, TIED_ASCENDING, ONE_STEP, NO_CONTEXT):
        params = make_params(tag, seed=47, scale=10.0)
        ref = _per_step_weight_grads(windows, tag, params)
        recurrent = [n for n in params if re.fullmatch(r"(cf_|cr_)?[Ub]_[iofc]|W_rc|b_r|U_a", n)]
        for name in recurrent:
            got = params[name].grad_buffer()
            want = np.broadcast_to(ref.get(name, 0.0), got.shape)  # unused layer: 0
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
        if windows is ONE_STEP:
            assert all(not params[f"U_{g}"].grad_buffer().any() for g in rlm.GATES)
            assert any(params[f"b_{g}"].grad_buffer().any() for g in rlm.GATES)


@pytest.mark.parametrize("tag", ["RLM-BoW-LF", "RLM-SeqBoW-EF", "RLM-SeqBoW-ATT-LF"])
def test_p_gets_a_row_gradient_over_bow_ids(tag):
    """P enters through embed_rows of the batch's context words: after
    backward its gradient is row-form over exactly bow_ids."""
    params = make_params(tag, seed=37)
    tape = Tape()
    total, _ = fusion.batch_nll(MIXED, params, tag, VOCAB, tape)
    tape.backward(nm.sum_all(tape, total))
    batch = fusion.make_batch(MIXED, VOCAB, fusion.parse_variant(tag), np.float64)
    grad = params["P"].grad
    assert isinstance(grad, nm.RowGrad) and grad.shape == params["P"].shape
    assert grad.rows.tolist() == batch.bow_ids.tolist() and len(grad.rows) < V
    assert np.any(grad.values != 0.0)


@pytest.mark.parametrize("tag", sorted(fusion.VARIANTS))
def test_wide_products_see_only_real_positions(tag, monkeypatch):
    """The input projection (by W) and the output affine (by W_out) run on
    the packed real positions only: sum(len(target)) rows, not B*T. Every
    product of the context by W_p, W or W_rp runs once per batch, before the
    time loop, on one row per window (per context sentence for attention)."""
    operands = []
    matmul = nm.matmul

    def spy(tape, a, b):
        operands.append((a.shape[0], b))
        return matmul(tape, a, b)

    monkeypatch.setattr(nm, "matmul", spy)
    params = make_params(tag, seed=43)
    fusion.batch_nll(MIXED, params, tag, VOCAB, Tape())
    real = sum(len(w.target.token_ids) for w in MIXED)
    assert real < len(MIXED) * max(len(w.target.token_ids) for w in MIXED)
    variant = fusion.parse_variant(tag)
    K = max(len(w.context) for w in MIXED)
    ctx_rows = K * len(MIXED) if variant.context == "att" else len(MIXED)
    W_shape, out_shape = (DIMS["d_emb"], 4 * DIMS["d_h"]), (DIMS["d_h"], V)
    by_W = [rows for rows, b in operands if b.shape == W_shape]
    # the input projection, and early fusion's context product q W
    assert sorted(by_W) == sorted([real] + [ctx_rows] * (variant.fusion == "early"))
    assert [rows for rows, b in operands if b.shape == out_shape] == [real]
    for name, used in (("W_p", variant.context is not None),
                       ("W_rp", variant.fusion == "late")):
        assert [rows for rows, b in operands if b is params.get(name)] == [ctx_rows] * used


@pytest.mark.parametrize("tag", sorted(fusion.VARIANTS))
def test_context_lstms_run_as_rlm_lstm_step(tag, monkeypatch):
    """Each context LSTM is one call of the layer ``rlm.lstm_step`` per batch,
    taped or not: none without a context LSTM, the forward one for SeqBoW,
    forward and reverse for attention."""
    prefixes = []
    lstm_step = rlm.lstm_step

    def spy(tape, params, x, bounds, prefix, reverse=False):
        prefixes.append((prefix, reverse))
        return lstm_step(tape, params, x, bounds, prefix, reverse)

    monkeypatch.setattr(rlm, "lstm_step", spy)
    params = make_params(tag, seed=44)
    context = fusion.parse_variant(tag).context
    expect = {"seqbow": [(fusion.CTX_FWD, False)],
              "att": [(fusion.CTX_FWD, False), (fusion.CTX_REV, True)]}.get(context, [])
    for tape in (Tape(), None):
        prefixes.clear()
        fusion.batch_nll(MIXED, params, tag, VOCAB, tape)
        assert prefixes == expect


@pytest.mark.parametrize("tag", ["RLM-BoW-LF", "RLM-SeqBoW-ATT-EF"])
def test_make_batch_counts_equal_bow_vector(tag):
    """The batch counts over its context words only: bow_ids is sorted,
    unique and exactly the words the contexts hold. Scattered back into |V|
    columns, the counts equal corpus.bow_vector of each window's context,
    bitwise, in the engine's row order (longest target first); per-sentence
    rows are packed over the real positions of contexts left-padded to the
    longest one, for the context LSTMs. A batch whose contexts are all empty
    counts over no column at all."""
    windows = [
        ContextWindow(sent(3, 5), (sent(4, 4, 6), sent(2,))),
        ContextWindow(sent(6, 2, 8, 3), ()),
        ContextWindow(sent(2,), (sent(9, 9, 9),)),
        ContextWindow(sent(5, 7, 7), (sent(2, 3), sent(3,), sent(4, 8, 4, 4))),
    ]
    variant = fusion.parse_variant(tag)
    for dtype in (np.float32, np.float64):
        batch = fusion.make_batch(windows, VOCAB, variant, dtype)
        assert batch.bow_ids.tolist() == [2, 3, 4, 6, 8, 9]  # sorted and unique

        def widen(counts):
            wide = np.zeros(counts.shape[:-1] + (V,), dtype)
            wide[..., batch.bow_ids] = counts
            return wide

        order = batch.window[: batch.bounds[1]].tolist()  # step 0 holds every row
        assert order == [1, 3, 0, 2]
        if batch.bow_sum is not None:
            expect = np.stack([bow_vector(windows[i].context, VOCAB, dtype) for i in order])
            assert batch.bow_sum.dtype == dtype
            assert batch.bow_sum.shape == (4, 6) and np.array_equal(widen(batch.bow_sum), expect)
        else:
            K = batch.ctx_mask.shape[1]
            assert batch.bow_seq.shape == (6, 6) and batch.bow_seq.dtype == dtype
            # the real (position, window) pairs, position-major, the windows by
            # context count (3, 2, 1 in engine rows 1, 2, 3), most first
            assert batch.ctx_bounds.tolist() == [0, 1, 3, 6]
            assert batch.ctx_slot.tolist() == [1, 5, 6, 9, 10, 11]
            bow_seq = widen(batch.bow_seq)
            for row, slot in enumerate(batch.ctx_slot.tolist()):
                k, b = divmod(slot, 4)
                context = windows[order[b]].context
                assert np.array_equal(bow_seq[row],
                                      bow_vector([context[k - K + len(context)]], VOCAB, dtype))
            for b, i in enumerate(order):
                pad = K - len(windows[i].context)
                assert batch.ctx_mask[b].tolist() == [0.0] * pad + [1.0] * (K - pad)
        empty = fusion.make_batch([ContextWindow(sent(3), ()), ContextWindow(sent(5, 2), ())],
                                  VOCAB, variant, dtype)
        assert empty.bow_ids.shape == (0,)
        if empty.bow_sum is not None:
            assert empty.bow_sum.shape == (2, 0)
        else:
            assert empty.bow_seq.shape == (0, 0) and empty.ctx_mask.shape == (2, 0)
            assert empty.ctx_bounds.tolist() == [0] and empty.ctx_slot.shape == (0,)


def test_make_batch_packs_real_positions_time_major():
    batch = fusion.make_batch(TIED_ASCENDING, VOCAB, fusion.parse_variant("RLM"), np.float64)
    assert batch.bounds.tolist() == [0, 4, 8, 11, 12, 13]
    assert batch.window.tolist() == [3, 1, 2, 0, 3, 1, 2, 0, 3, 1, 2, 3, 3]
    bos = len(VOCAB)
    assert batch.inputs.tolist() == [bos] * 4 + [4, 2, 5, 7, 6, 9, 4, 3, 2]
    assert batch.targets.tolist() == [4, 2, 5, 7, 6, 9, 4, 1, 3, 1, 1, 2, 1]


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
