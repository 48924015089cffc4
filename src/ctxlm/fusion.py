"""Conditioning the sentence LSTM on preceding-sentence context.

Early fusion adds the projected context vector to the word input at every
timestep. Late fusion leaves the cell update untouched and gates the
projected context into the output: r = sigmoid(W_rp q + W_rc c + b_r),
h = o * tanh(c + r * q) with q = W_p p. Attention variants recompute the
context vector at each step, queried by the previous hidden state.

One engine evaluates every variant, used by training, corpus evaluation and
(as a batch of one) the per-window NLL. It works on a packed batch: the
windows are sorted by target length, longest first (a stable sort), and only
the N real target positions are kept, time-major. The windows still running
at step t are then the n_t leading rows of the batch, so step t owns the
packed rows ``bounds[t]:bounds[t+1]`` and no padded position is ever
embedded, projected or scored. The engine steps through time only for the
recurrence, which records the fused ``numeric.lstm_cell`` on the n_t leading
rows (plus ``numeric.late_fusion_output`` for late fusion and one batched
scoring of all context positions for attention). The embedding gather, the
input projection of all N positions, the encoding of the context sentences
(module ``context``) and the output softmax + NLL of all N positions are
each computed once per batch. Per-window totals are segment sums of the
packed NLLs, added in time order and returned in the caller's window order.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import context as ctx
from . import numeric as nm
from . import rlm
from .corpus import ContextWindow, Vocabulary, bow_vector  # noqa: F401  (re-exported)
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
    """B windows in engine row order (target length descending, ties in the
    caller's order), their N real target positions packed time-major."""

    inputs: np.ndarray            # (N,) int64: BOS, then the previous target token
    targets: np.ndarray           # (N,) int64: content tokens, then EOS
    bounds: np.ndarray            # (T+1,) int64: step t owns positions bounds[t]:bounds[t+1]
    row: np.ndarray               # (N,) int64: each position's batch row
    window: np.ndarray            # (N,) int64: each position's window, in the caller's order
    bow_sum: np.ndarray | None    # (B,V) summed context counts
    bow_seq: np.ndarray | None    # (K,B,V) per-sentence counts, left-padded
    ctx_mask: np.ndarray | None   # (B,K) float: 1 at real context positions


def _count_rows(pairs: list, rows: int, V: int, dtype) -> np.ndarray:
    """(rows, V) token counts: each (row, sentence) pair adds that sentence's
    content tokens (EOS excluded) to its row. One scatter for all pairs."""
    lengths = [s.length for _, s in pairs]
    flat = np.repeat(np.array([r for r, _ in pairs], dtype=np.int64) * V, lengths)
    flat += np.fromiter(chain.from_iterable(s.content_ids for _, s in pairs),
                        dtype=np.int64, count=len(flat))
    counts = np.zeros(rows * V, dtype=dtype)
    np.add.at(counts, flat, 1.0)
    return counts.reshape(rows, V)


def make_batch(windows: list[ContextWindow], vocab: Vocabulary, variant: Variant,
               dtype) -> WindowBatch:
    B = len(windows)
    if B == 0:
        raise ValueError("empty batch")
    V = len(vocab)
    order = sorted(range(B), key=lambda i: -len(windows[i].target.token_ids))
    ranked = [windows[i] for i in order]
    lengths = np.array([len(w.target.token_ids) for w in ranked])
    T = int(lengths[0])
    targets = np.zeros((T, B), dtype=np.int64)
    for b, w in enumerate(ranked):
        targets[: lengths[b], b] = w.target.token_ids
    inputs = np.empty_like(targets)
    inputs[0] = V  # BOS: the extra embedding row
    inputs[1:] = targets[:-1]
    real = np.arange(T)[:, None] < lengths  # (T,B): a prefix of the rows at every step
    bounds = np.concatenate(([0], np.cumsum(real.sum(axis=1))))
    row = np.broadcast_to(np.arange(B), (T, B))[real]
    window = np.array(order)[row]
    bow_sum = bow_seq = ctx_mask = None
    if variant.context == "bow":
        bow_sum = _count_rows([(b, s) for b, w in enumerate(ranked) for s in w.context],
                              B, V, dtype)
    elif variant.context in ("seqbow", "att"):
        K = max(len(w.context) for w in ranked)
        offsets = [K - len(w.context) for w in ranked]
        pairs = [((off + j) * B + b, s)
                 for b, (w, off) in enumerate(zip(ranked, offsets))
                 for j, s in enumerate(w.context)]
        bow_seq = _count_rows(pairs, K * B, V, dtype).reshape(K, B, V)
        ctx_mask = (np.arange(K) >= np.array(offsets)[:, None]).astype(dtype)
    return WindowBatch(inputs[real], targets[real], bounds, row, window,
                       bow_sum, bow_seq, ctx_mask)


def batch_nll(windows: list[ContextWindow], params: dict[str, Variable], variant: Variant | str,
              vocab: Vocabulary, tape: Tape | None = None,
              want_token_nll: bool = False):
    """Per-window NLL of a batch -> ((B,) Variable, (B,T) array | None), both in
    the order of ``windows``; the per-token array is 0 past each window's end.

    Empty contexts reduce to the unconditioned model. Only the recurrence runs
    step by step, on the windows still running; the embedding gather, the
    input projection of all N real positions, the context encoder's BoW
    projection and the attention keys W_a z_k are each one product before the
    time loop, and the output affine and NLL of all N positions one after it.
    """
    if isinstance(variant, str):
        variant = parse_variant(variant)
    dtype = params["E"].dtype
    batch = make_batch(windows, vocab, variant, dtype)
    B, T = len(windows), len(batch.bounds) - 1
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
    x = nm.embed_rows(tape, params["E"], batch.inputs)
    if extra is not None:
        x = nm.add(tape, x, nm.embed_rows(tape, extra, batch.row))
    xproj = nm.matmul(tape, x, W)

    state = rlm.zero_state(B, d_h, dtype)
    hs = []
    for t in range(T):
        rows = slice(batch.bounds[t], batch.bounds[t + 1])
        n = rows.stop - rows.start
        step_in = None
        if annots is not None:
            query = nm.leading_rows(tape, state.h, n)
            mixed, _ = ctx.attend(tape, params, annots, keys, query, batch.ctx_mask[:n])
            proj_t = nm.matmul(tape, mixed, params["W_p"])
            if variant.fusion == "early":
                step_in = nm.matmul(tape, proj_t, W)
            else:
                q = proj_t
        _, o, c_new, h_new = nm.lstm_cell(tape, xproj, rows, state.h, state.c, U, b, step_in)
        if variant.fusion == "late" and q is not None:
            h_new = _late_output(tape, params, o, c_new, q, q_r)
        hs.append(h_new)
        state = LstmState(h_new, c_new)

    hidden = nm.concat_rows(tape, hs)
    logits = nm.add_bias(tape, nm.matmul(tape, hidden, params["W_out"]), params["b_out"])
    nll = nm.nll_rows(tape, logits, batch.targets)
    total = nm.segment_sum(tape, nll, batch.window, B)
    token_nll = None
    if want_token_nll:
        token_nll = np.zeros((B, T))
        steps = np.repeat(np.arange(T), np.diff(batch.bounds))
        token_nll[batch.window, steps] = nll.value
    return total, token_nll
