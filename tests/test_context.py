import numpy as np

import oracle
from ctxlm import fusion, rlm
from ctxlm import numeric as nm
from ctxlm.corpus import ContextWindow, Sentence, Vocabulary
from ctxlm.numeric import Tape, Variable

V = 8
VOCAB = Vocabulary(["<unk>", "</s>"] + [f"w{i}" for i in range(V - 2)])


def sent(*ids):
    return Sentence(tuple(ids) + (1,))


def batch_of(*contexts, tag="RLM-SeqBoW-ATT-LF"):
    """The engine's batch of windows with these contexts (targets are irrelevant)."""
    windows = [ContextWindow(sent(2), tuple(c)) for c in contexts]
    return fusion.make_batch(windows, VOCAB, fusion.parse_variant(tag), np.float64)


def bow_params(d_ctx=3, seed=1):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rlm.draw_parameters({"P": (V, d_ctx)}, rng, np.float64)


def seq_params(d_ctx=3, seed=1, bidirectional=False):
    rng = np.random.Generator(np.random.PCG64(seed))
    shapes = {"P": (V, d_ctx), **rlm.lstm_shapes(fusion.CTX_FWD, d_ctx, d_ctx)}
    if bidirectional:
        shapes.update(rlm.lstm_shapes(fusion.CTX_REV, d_ctx, d_ctx))
    return rlm.draw_parameters(shapes, rng, np.float64)


def att_params(d_ctx=3, d_a=3, d_h=4, seed=1):
    rng = np.random.Generator(np.random.PCG64(seed))
    shapes = {"P": (V, d_ctx), **rlm.lstm_shapes(fusion.CTX_FWD, d_ctx, d_ctx),
              **rlm.lstm_shapes(fusion.CTX_REV, d_ctx, d_ctx),
              "W_a": (2 * d_ctx, d_a), "U_a": (d_h, d_a), "v_a": (d_a,)}
    return rlm.draw_parameters(shapes, rng, np.float64)


def encode(params, contexts, tag, tape=None):
    batch = batch_of(*contexts, tag=tag)
    return fusion.encode_context(tape, params, fusion.parse_variant(tag), batch), batch


def encode_bow(params, *contexts):
    return encode(params, contexts, "RLM-BoW-LF")[0]


def encode_seqbow(params, *contexts):
    return encode(params, contexts, "RLM-SeqBoW-LF")[0]


def annotate(params, *contexts, tape=None):
    annots, batch = encode(params, contexts, "RLM-SeqBoW-ATT-LF", tape)
    return annots, batch.ctx_mask


def attention(params, annots, h_query, mask, tape=None):
    """Attention as the engine runs it: keys by fusion.project, the query h U_a
    (the decoder's recurrence forms it), weights by fusion.attend, and the
    annotations mixed with those weights -> (mixed, alphas)."""
    keys = fusion.project(tape, annots, params["W_a"])
    query = nm.matmul(tape, h_query, params["U_a"])
    alphas = fusion.attend(tape, params, keys, query, mask)
    return nm.attention_mix(tape, alphas, annots), alphas


def test_encode_bow_empty_is_zero():
    p = encode_bow(bow_params(), (), (sent(2, 3),))
    assert np.all(p.value[0] == 0.0)
    assert np.any(p.value[1] != 0.0)


def test_encode_bow_identity_projection_returns_counts():
    params = {"P": Variable(np.eye(V))}
    p = encode_bow(params, (sent(2, 2, 5),))
    assert p.value[0, 2] == 2 and p.value[0, 5] == 1
    assert p.value[0].sum() == 3


def test_encode_bow_is_order_blind():
    p = encode_bow(bow_params(), (sent(2, 3), sent(4, 5)), (sent(4, 5), sent(2, 3)),
                   (sent(2, 3, 4, 5),))  # the last splits the same multiset differently
    assert np.array_equal(p.value[0], p.value[1])
    assert np.allclose(p.value[0], p.value[2], atol=1e-15)


def test_encode_seqbow_empty_is_zero():
    out = encode_seqbow(seq_params(), (), (sent(2, 3),))
    assert np.all(out.value[0] == 0.0)
    assert np.any(out.value[1] != 0.0)


def test_encode_seqbow_zero_weights_give_zero():
    params = seq_params()
    for p in params.values():
        p.value[...] = 0.0
    out = encode_seqbow(params, (sent(2, 3), sent(4,)))
    assert np.all(out.value == 0.0)


def test_encode_seqbow_is_order_sensitive():
    s1, s2 = sent(2, 3), sent(5, 6, 7)
    out = encode_seqbow(seq_params(seed=9), (s1, s2), (s2, s1))
    assert not np.allclose(out.value[0], out.value[1])


def test_annotate_empty_context_is_zero():
    params = att_params()
    annots, mask = annotate(params, (), (sent(2, 3), sent(4,)))
    assert np.all(annots.value[:, 0] == 0.0)
    assert np.all(annots.value[:, 1] != 0.0)
    mixed, alphas = attention(params, annots, query(batch=2), mask)
    assert np.all(alphas.value[0] == 0.0) and np.all(mixed.value[0] == 0.0)


def test_annotate_single_sentence_halves_match_one_step_lstm():
    """Each half is one LSTM step from the zero state, by the per-gate
    formula: c = i * g and h = o * tanh(c)."""
    params = att_params()
    s = sent(2, 4, 4)
    annots, _ = annotate(params, (s,))
    d_ctx = params["P"].shape[1]
    x = oracle.counts([s.token_ids], len(VOCAB)) @ params["P"].value

    def one_step(prefix):
        z = {g: x @ params[f"{prefix}W_{g}"].value + params[f"{prefix}b_{g}"].value
             for g in rlm.GATES}
        return nm.sigmoid(z["o"]) * np.tanh(nm.sigmoid(z["i"]) * np.tanh(z["c"]))

    assert np.allclose(annots.value[0, 0, :d_ctx], one_step(fusion.CTX_FWD), rtol=0, atol=1e-15)
    assert np.allclose(annots.value[0, 0, d_ctx:], one_step(fusion.CTX_REV), rtol=0, atol=1e-15)


def test_annotate_zero_weights_give_zero():
    params = att_params()
    for p in params.values():
        p.value[...] = 0.0
    annots, _ = annotate(params, (sent(2, 3), sent(4,)))
    assert annots.shape[0] == 2
    assert np.all(annots.value == 0.0)


def test_annotations_depend_on_position():
    s1, s2 = sent(2, 3), sent(5, 6, 7)
    annots, _ = annotate(att_params(seed=11), (s1, s2), (s2, s1))
    ab, ba = annots.value[:, 0], annots.value[:, 1]
    # reversing the sentences does not merely reverse the annotation list
    assert not np.allclose(ab[0], ba[1])
    assert not np.allclose(ab[1], ba[0])


def query(d_h=4, seed=2, batch=1):
    rng = np.random.Generator(np.random.PCG64(seed))
    return Variable(rng.standard_normal((batch, d_h)))


def attend_one(zs, h, params):
    """Attention of one window over the annotations zs, each (D,)."""
    annots = Variable(np.stack(zs)[:, None, :])
    mixed, alphas = attention(params, annots, h, np.ones((1, len(zs))))
    return mixed.value[0], alphas.value[0]


def test_attend_single_annotation():
    params = att_params()
    z = np.random.default_rng(0).standard_normal(6)
    mixed, alphas = attend_one([z], query(), params)
    assert np.array_equal(alphas, [1.0])
    assert np.allclose(mixed, z, atol=1e-15)


def test_attend_identical_annotations_split_evenly():
    params = att_params()
    z = np.random.default_rng(1).standard_normal(6)
    _, alphas = attend_one([z, z.copy()], query(), params)
    assert np.allclose(alphas, [0.5, 0.5], atol=1e-12)


def test_attend_matches_bruteforce_weighted_sum():
    params = att_params(seed=21)
    rng = np.random.default_rng(3)
    zs = [rng.standard_normal(6) for _ in range(3)]
    h = query(seed=4)
    mixed, alphas = attend_one(zs, h, params)
    # independent recomputation from scratch
    scores = []
    for z in zs:
        e = np.tanh(z @ params["W_a"].value + h.value[0] @ params["U_a"].value)
        scores.append(float(e @ params["v_a"].value))
    exps = np.exp(np.array(scores) - max(scores))
    expect_alpha = exps / exps.sum()
    expect_mix = sum(a * z for a, z in zip(expect_alpha, zs))
    assert np.max(np.abs(alphas - expect_alpha)) < 1e-12
    assert np.max(np.abs(mixed - expect_mix)) < 1e-12


def test_attend_alphas_properties_and_hull():
    """50 windows of 1-4 live positions, left-padded to 4 with junk annotations,
    in one batch: the junk gets exactly zero weight."""
    params = att_params(seed=31)
    rng = np.random.default_rng(6)
    B, K = 50, 4
    live = rng.integers(1, K + 1, size=B)
    mask = (np.arange(K) >= K - live[:, None]).astype(np.float64)
    annots = Variable(rng.standard_normal((K, B, 6)))
    mixed, alphas = attention(params, annots, Variable(rng.standard_normal((B, 4))), mask)
    for b in range(B):
        a = alphas.value[b]
        on = mask[b] > 0
        assert abs(a.sum() - 1.0) < 1e-12
        assert np.all(a[on] > 0) and np.all(a[on] < 1.0 + 1e-15)
        assert np.all(a[~on] == 0.0)
        stack = annots.value[on, b]
        assert np.all(mixed.value[b] >= stack.min(axis=0) - 1e-12)
        assert np.all(mixed.value[b] <= stack.max(axis=0) + 1e-12)


def test_attend_fully_masked_row_is_zero():
    params = att_params()
    annots = Variable(np.random.default_rng(7).standard_normal((3, 2, 6)))
    mask = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    mixed, alphas = attention(params, annots, query(batch=2), mask)
    assert np.all(alphas.value[0] == 0.0) and np.all(mixed.value[0] == 0.0)
    assert abs(alphas.value[1].sum() - 1.0) < 1e-12


def test_encoder_gradients_flow_through_tape():
    params = att_params(seed=41)
    tape = Tape()
    annots, mask = annotate(params, (sent(2, 3), sent(4,)), tape=tape)
    mixed, _ = attention(params, annots, query(), mask, tape=tape)
    tape.backward(nm.sum_all(tape, mixed))
    for name in ("P", "cf_W_i", "cr_U_f", "W_a", "U_a", "v_a"):
        assert params[name].grad is not None and np.any(params[name].grad_buffer() != 0.0), name
