"""Conditioning the sentence LSTM on preceding-sentence context.

Early fusion adds the projected context vector to the word input at every
timestep. Late fusion leaves the cell update untouched and gates the
projected context into the output: r = sigmoid(W_rp q + W_rc c + b_r),
h = o * tanh(c + r * q) with q = W_p p. Attention variants recompute the
context vector at each step, queried by the previous hidden state.

One engine evaluates every variant: a padded, masked batch of windows, used
by training, corpus evaluation and (as a batch of one) the per-window NLL.
It steps through time only for the recurrence, which records the fused
``numeric.lstm_cell`` (plus ``numeric.late_fusion_output`` for late fusion
and one batched scoring of all context positions for attention). The
embedding gather, the input projection of all timesteps, the encoding of
the context sentences (module ``context``) and the output softmax + NLL of
all positions are each computed once per batch.
"""

from dataclasses import dataclass

import numpy as np

from . import context as ctx
from . import numeric as nm
from . import rlm
from .corpus import ContextWindow, Vocabulary, bow_vector
from .numeric import Tape, Variable
from .rlm import LstmState


@dataclass(frozen=True)
class Variant:
    tag: str
    context: str | None  # None | "bow" | "seqbow" | "att"
    fusion: str | None   # None | "early" | "late"


VARIANTS = {
    v.tag: v
    for v in (
        Variant("RLM", None, None),
        Variant("RLM-BoW-EF", "bow", "early"),
        Variant("RLM-SeqBoW-EF", "seqbow", "early"),
        Variant("RLM-SeqBoW-ATT-EF", "att", "early"),
        Variant("RLM-BoW-LF", "bow", "late"),
        Variant("RLM-SeqBoW-LF", "seqbow", "late"),
        Variant("RLM-SeqBoW-ATT-LF", "att", "late"),
    )
}


def parse_variant(tag: str) -> Variant:
    try:
        return VARIANTS[tag]
    except KeyError:
        raise ValueError(f"unknown variant {tag!r}; expected one of {sorted(VARIANTS)}")


def context_dim(variant: Variant, d_ctx: int) -> int:
    return 2 * d_ctx if variant.context == "att" else d_ctx


def init_parameters(variant: Variant, vocab_size: int, d_emb: int, d_h: int,
                    d_ctx: int, d_a: int, rng, dtype) -> dict[str, Variable]:
    """All trainable parameters for one model variant, in a stable order."""
    params = rlm.init_rlm_parameters(vocab_size, d_emb, d_h, rng, dtype)
    if variant.context is None:
        return params
    if variant.context == "bow":
        ctx.init_bow(params, vocab_size, d_ctx, rng, dtype)
    else:
        ctx.init_seqbow(params, vocab_size, d_ctx, variant.context == "att", rng, dtype)
    if variant.context == "att":
        ctx.init_attention(params, 2 * d_ctx, d_h, d_a, rng, dtype)
    d_target = d_emb if variant.fusion == "early" else d_h
    params["W_p"] = Variable(nm.uniform_init(rng, (context_dim(variant, d_ctx), d_target), dtype))
    if variant.fusion == "late":
        params["W_rp"] = Variable(nm.uniform_init(rng, (d_h, d_h), dtype))
        params["W_rc"] = Variable(nm.uniform_init(rng, (d_h, d_h), dtype))
        params["b_r"] = Variable(nm.uniform_init(rng, (d_h,), dtype))
    return params


def _late_output(tape: Tape | None, params: dict[str, Variable], o: Variable,
                 c_new: Variable, q: Variable, q_r: Variable | None = None) -> Variable:
    """h = o * tanh(c + r*q); ``q_r`` is q @ W_rp when the caller already has it."""
    if q_r is None:
        q_r = nm.matmul(tape, q, params["W_rp"])
    return nm.late_fusion_output(tape, o, c_new, q, q_r, params["W_rc"], params["b_r"])


def late_fusion_step(x: Variable, state: LstmState, p: Variable,
                     params: dict[str, Variable],
                     tape: Tape | None = None) -> tuple[LstmState, Variable]:
    """One decoder step with late fusion; the cell update is the plain LSTM's."""
    _, o, c_new = rlm.lstm_gates(tape, params, "", x, state)
    q = nm.matmul(tape, p, params["W_p"])
    h_new = _late_output(tape, params, o, c_new, q)
    return LstmState(h_new, c_new), h_new


def conditional_sentence_nll(window: ContextWindow, variant: Variant | str,
                             params: dict[str, Variable], vocab: Vocabulary,
                             tape: Tape | None = None, trace: dict | None = None) -> Variable:
    """Negative log-likelihood (scalar) of the target sentence given its context
    window: the batch engine on a batch of one. ``trace``, when given, receives
    the per-position NLLs (EOS included) under ``"nll"``."""
    total, token_nll = batch_nll([window], params, variant, vocab, tape,
                                 want_token_nll=trace is not None)
    if trace is not None:
        trace["nll"] = token_nll[0].tolist()
    return nm.reshape(tape, total, ())


# ---------------------------------------------------------------------------
# batched engine
# ---------------------------------------------------------------------------


@dataclass
class WindowBatch:
    inputs: np.ndarray            # (B,T) int64: BOS then content tokens, EOS-padded
    targets: np.ndarray           # (B,T) int64: content tokens then EOS, 0-padded
    mask: np.ndarray              # (B,T) float: 1 at predicted positions
    bow_sum: np.ndarray | None    # (B,V) summed context counts
    bow_seq: np.ndarray | None    # (K,B,V) per-sentence counts, left-padded
    ctx_mask: np.ndarray | None   # (B,K) float: 1 at real context positions

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def predicted_tokens(self) -> float:
        return float(self.mask.sum())


def make_batch(windows: list[ContextWindow], vocab: Vocabulary, variant: Variant,
               dtype) -> WindowBatch:
    B = len(windows)
    if B == 0:
        raise ValueError("empty batch")
    V = len(vocab)
    bos = V  # extra embedding row
    T = max(len(w.target.token_ids) for w in windows)
    inputs = np.full((B, T), 1, dtype=np.int64)  # EOS id as inert padding input
    targets = np.zeros((B, T), dtype=np.int64)
    mask = np.zeros((B, T), dtype=dtype)
    for b, w in enumerate(windows):
        ids = w.target.token_ids
        inputs[b, 0] = bos
        inputs[b, 1 : len(ids)] = ids[:-1]
        targets[b, : len(ids)] = ids
        mask[b, : len(ids)] = 1.0
    bow_sum = bow_seq = ctx_mask = None
    if variant.context == "bow":
        bow_sum = np.stack([bow_vector(w.context, vocab, dtype) for w in windows])
    elif variant.context in ("seqbow", "att"):
        K = max(len(w.context) for w in windows)
        bow_seq = np.zeros((K, B, V), dtype=dtype)
        ctx_mask = np.zeros((B, K), dtype=dtype)
        for b, w in enumerate(windows):
            off = K - len(w.context)
            for j, sent in enumerate(w.context):
                bow_seq[off + j, b] = bow_vector([sent], vocab, dtype)
                ctx_mask[b, off + j] = 1.0
    return WindowBatch(inputs, targets, mask, bow_sum, bow_seq, ctx_mask)


def batch_nll(windows: list[ContextWindow], params: dict[str, Variable], variant: Variant | str,
              vocab: Vocabulary, tape: Tape | None = None,
              want_token_nll: bool = False):
    """Per-window NLL over a padded batch -> ((B,) Variable, (B,T) array | None).

    Padded positions contribute exactly zero to values and gradients; empty
    contexts reduce to the unconditioned model. Only the recurrence runs step
    by step: the embedding gather, the input projection of all T steps, the
    context encoder's BoW projection and the attention keys W_a z_k are each
    one product before the time loop, and the output affine and NLL of all
    (T*B) positions one after it.
    """
    if isinstance(variant, str):
        variant = parse_variant(variant)
    dtype = params["E"].dtype
    batch = make_batch(windows, vocab, variant, dtype)
    B, T = batch.inputs.shape
    d_h = params["b_i"].shape[0]

    p = None          # context vector, fixed over the sentence
    extra = None      # early fusion: fixed projected context
    q = None          # late fusion: projected context entering the output gate
    annots = None     # attention: annotations (K,B,2*d_ctx)
    if variant.context == "bow":
        p = ctx.project_counts(tape, params, batch.bow_sum)
    elif variant.context in ("seqbow", "att") and batch.bow_seq.shape[0] == 0:
        p = nm.zeros((B, context_dim(variant, params["P"].shape[1])), dtype)
    elif variant.context == "seqbow":
        p = ctx.seqbow_summary(tape, params, batch.bow_seq, batch.ctx_mask)
    elif variant.context == "att":
        annots = ctx.annotate(tape, params, batch.bow_seq, batch.ctx_mask)
        keys = ctx.attention_keys(tape, params, annots)
    if p is not None:
        proj = nm.matmul(tape, p, params["W_p"])
        if variant.fusion == "early":
            extra = proj
        else:
            q = proj
    q_r = nm.matmul(tape, q, params["W_rp"]) if q is not None else None

    W, U, b = rlm.gate_weights(tape, params, "")
    x = nm.embed_rows(tape, params["E"], batch.inputs.T)
    if extra is not None:
        x = nm.add_bias(tape, x, extra)
    x = nm.reshape(tape, x, (T * B, -1))
    xproj = nm.reshape(tape, nm.matmul(tape, x, W), (T, B, -1))

    state = rlm.zero_state(B, d_h, dtype)
    hs = []
    for t in range(T):
        step_in = None
        if annots is not None:
            mixed, _ = ctx.attend(tape, params, annots, keys, state.h, batch.ctx_mask)
            proj_t = nm.matmul(tape, mixed, params["W_p"])
            if variant.fusion == "early":
                step_in = nm.matmul(tape, proj_t, W)
            else:
                q = proj_t
        _, o, c_new, h_new = nm.lstm_cell(tape, xproj, t, state.h, state.c, U, b, step_in)
        if variant.fusion == "late" and q is not None:
            h_new = _late_output(tape, params, o, c_new, q, q_r)
        hs.append(h_new)
        state = LstmState(h_new, c_new)

    hidden = nm.reshape(tape, nm.stack_first(tape, hs), (T * B, d_h))
    logits = nm.add_bias(tape, nm.matmul(tape, hidden, params["W_out"]), params["b_out"])
    nll = nm.nll_rows(tape, logits, batch.targets.T.ravel(), batch.mask.T.ravel())
    nll = nm.reshape(tape, nll, (T, B))
    total = nm.sum_all(tape, nll, axis=0)
    token_nll = nll.value.T.astype(np.float64) if want_token_nll else None
    return total, token_nll
