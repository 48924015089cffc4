"""Conditioning the sentence LSTM on preceding-sentence context.

Every variant projects its context once per batch, q = p W_p. Early fusion
feeds q W into the cell's input term (q added to the word input, as W is
linear). Late fusion leaves the cell untouched and gates q into the output:
r = sigmoid(q W_rp + c W_rc + b_r), h = o * tanh(c + r * q). Attention's p
holds one annotation per context sentence; each step mixes their
projections with weights queried by the previous hidden state.

One engine, ``batch_nll``, evaluates every variant for training, corpus
evaluation and tests alike; a single window is a batch of one. It works on a
packed batch: the windows are sorted by target length, longest first (a
stable sort), and only the N real target positions are kept, time-major.
The windows still running at step t are then the n_t leading rows of the
batch, so step t owns the packed rows ``bounds[t]:bounds[t+1]`` and no
padded position is ever embedded, projected or scored. Contexts are counted
over the batch's R distinct context words (``WindowBatch.bow_ids``), so the
BoW product reads R rows of P, not |V|. The engine steps
through time only in ``numeric.lstm_recurrence``: the decoder in every form
(plain, early fusion's input term, late fusion's gate, and attention's
per-step weights and mix, which it records between its steps) and both
context LSTMs, whose rows ``make_batch`` packs over the real context
sentences with the windows sorted by context count. Everything else is
computed once per batch, the gradients of the weights every step applies
(U and b, late fusion's W_rc and b_r, attention's U_a) included. Per-window totals
are segment sums of the packed NLLs, added in time order and returned in the
caller's window order; the per-position NLLs come back in that order too,
gathered once from the packed ones.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import context as ctx
from . import numeric as nm
from . import rlm
# bow_vector is re-exported only because bench/tracing.py wraps fusion.bow_vector
from .corpus import ContextWindow, Vocabulary, bow_vector  # noqa: F401
from .numeric import Tape, Variable


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


def parameter_shapes(variant: Variant, vocab_size: int, d_emb: int, d_h: int,
                     d_ctx: int, d_a: int) -> rlm.Shapes:
    """Name -> shape of every trainable parameter of one model variant, in the
    order ``init_parameters`` draws them; checkpoints are checked against it."""
    shapes = rlm.rlm_shapes(vocab_size, d_emb, d_h)
    if variant.context is None:
        return shapes
    if variant.context == "bow":
        shapes.update(ctx.bow_shapes(vocab_size, d_ctx))
    else:
        shapes.update(ctx.seqbow_shapes(vocab_size, d_ctx, variant.context == "att"))
    if variant.context == "att":
        shapes.update(ctx.attention_shapes(2 * d_ctx, d_h, d_a))
    d_target = d_emb if variant.fusion == "early" else d_h
    shapes["W_p"] = (context_dim(variant, d_ctx), d_target)
    if variant.fusion == "late":
        shapes.update(W_rp=(d_h, d_h), W_rc=(d_h, d_h), b_r=(d_h,))
    return shapes


def init_parameters(variant: Variant, vocab_size: int, d_emb: int, d_h: int,
                    d_ctx: int, d_a: int, rng, dtype) -> dict[str, Variable]:
    """All trainable parameters for one model variant, in a stable order."""
    return rlm.draw_parameters(parameter_shapes(variant, vocab_size, d_emb, d_h, d_ctx, d_a),
                               rng, dtype)


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
    window: np.ndarray            # (N,) int64: each position's window, in the caller's order
    token_order: np.ndarray       # (N,) int64: the positions by window (caller's order), then step
    bow_ids: np.ndarray | None    # (R,) int64: the batch's distinct context words, ascending
    bow_sum: np.ndarray | None    # (B,R) summed context counts of the words bow_ids
    bow_seq: np.ndarray | None    # (M,R) per-sentence counts of bow_ids, packed as ctx_bounds
    ctx_mask: np.ndarray | None   # (B,K) float: 1 at real (left-padded) context positions
    ctx_bounds: np.ndarray | None  # (K+1,) int64: position k owns rows ctx_bounds[k]:[k+1]
    ctx_slot: np.ndarray | None   # (M,) int64: each row's position k and window b, as k*B + b


def _count_rows(pairs: list, rows: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(rows, R) token counts over the R distinct words ``ids`` the pairs hold,
    ascending -> (counts, ids): each (row, sentence) pair adds that sentence's
    content tokens (EOS excluded) to its row. One unique and one bincount for
    all pairs."""
    lengths = [s.length for _, s in pairs]
    words = np.fromiter(chain.from_iterable(s.content_ids for _, s in pairs),
                        dtype=np.int64, count=sum(lengths))
    ids, column = np.unique(words, return_inverse=True)
    flat = np.repeat(np.array([r for r, _ in pairs], dtype=np.int64) * len(ids), lengths)
    flat += column
    counts = np.bincount(flat, minlength=rows * len(ids)).astype(dtype)
    return counts.reshape(rows, len(ids)), ids


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
    window = np.array(order)[np.broadcast_to(np.arange(B), (T, B))[real]]
    # time-major packing lists each window's positions in step order already
    token_order = np.argsort(window, kind="stable")
    bow_ids = bow_sum = bow_seq = ctx_mask = ctx_bounds = ctx_slot = None
    if variant.context == "bow":
        bow_sum, bow_ids = _count_rows([(b, s) for b, w in enumerate(ranked) for s in w.context],
                                       B, dtype)
    elif variant.context in ("seqbow", "att"):
        sizes = np.array([len(w.context) for w in ranked])
        K = int(sizes.max())
        # the context LSTMs' rows: the windows by context count, most first (a
        # stable sort), so those running at a left-padded position lead
        rank = np.argsort(-sizes, kind="stable")
        running = sizes[rank] >= K - np.arange(K)[:, None]  # (K,B): a prefix of the ranks
        ctx_bounds = np.concatenate(([0], np.cumsum(running.sum(axis=1))))
        starts = ctx_bounds.tolist()
        pairs = [(starts[K - len(ranked[b].context) + j] + r, s)
                 for r, b in enumerate(rank.tolist()) for j, s in enumerate(ranked[b].context)]
        bow_seq, bow_ids = _count_rows(pairs, starts[-1], dtype)
        ctx_slot = (np.arange(K)[:, None] * B + rank)[running]
        ctx_mask = (np.arange(K) >= K - sizes[:, None]).astype(dtype)
    return WindowBatch(inputs[real], targets[real], bounds, window, token_order,
                       bow_ids, bow_sum, bow_seq, ctx_mask, ctx_bounds, ctx_slot)


def batch_nll(windows: list[ContextWindow], params: dict[str, Variable], variant: Variant | str,
              vocab: Vocabulary, tape: Tape | None = None) -> tuple[Variable, np.ndarray]:
    """NLL of a batch of windows -> (total, token_nll). ``total`` is the (B,)
    per-window NLL in the order of ``windows``; ``token_nll`` (N,) holds every
    window's per-position NLLs, EOS included, windows in that order and each
    window's positions in time order.

    Empty contexts reduce to the unconditioned model. Only the recurrence runs
    step by step, on the windows still running; its only product is
    attention's query h U_a. The input projection of all N real positions
    and every product of the context are made before the time loop, and the
    output affine and NLL of all N positions after it.
    """
    if isinstance(variant, str):
        variant = parse_variant(variant)
    dtype = params["E"].dtype
    batch = make_batch(windows, vocab, variant, dtype)
    B = len(windows)

    p = None          # context: a summary (B,D), or attention's annotations (K,B,D)
    annots = None
    if variant.context == "bow":
        p = ctx.project_counts(tape, params, batch.bow_sum, batch.bow_ids)
    elif variant.context in ("seqbow", "att") and batch.bow_seq.shape[0] == 0:
        p = nm.zeros((B, context_dim(variant, params["P"].shape[1])), dtype)
    elif variant.context == "seqbow":
        p = ctx.seqbow_summary(tape, params, batch)
    elif variant.context == "att":
        p = annots = ctx.annotate(tape, params, batch)
        keys = ctx.project(tape, annots, params["W_a"])
    feed = ()         # the decoder's context: (q W,) for early fusion, (q, q W_rp) for late
    if variant.fusion == "late":
        q = ctx.project(tape, p, params["W_p"])
        feed = (q, ctx.project(tape, q, params["W_rp"]))
    W, U, b = rlm.gate_weights(tape, params, "")
    if variant.fusion == "early":
        feed = (ctx.project(tape, ctx.project(tape, p, params["W_p"]), W),)

    x = nm.embed_rows(tape, params["E"], batch.inputs)
    xproj = nm.matmul(tape, x, W)
    late = (params["W_rc"], params["b_r"]) if variant.fusion == "late" else None
    attend = None
    if annots is not None:
        def mix(tape, query):  # this step's weights mix the projected annotations
            alphas = ctx.attend(tape, params, keys, query, batch.ctx_mask[:query.shape[0]])
            return tuple(nm.attention_mix(tape, alphas, f) for f in feed)
        attend = (params["U_a"], mix)
    hidden, _ = nm.lstm_recurrence(tape, xproj, batch.bounds, U, b, feed, late, attend)
    logits = nm.add_bias(tape, nm.matmul(tape, hidden, params["W_out"]), params["b_out"])
    nll = nm.nll_rows(tape, logits, batch.targets)
    total = nm.segment_sum(tape, nll, batch.window, B)
    return total, nll.value[batch.token_order]
