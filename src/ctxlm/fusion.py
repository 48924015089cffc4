"""The model: a sentence LSTM conditioned on preceding-sentence context.

Every variant projects its context once per batch, q = p W_p. Early fusion
feeds q W into the cell's input term (q added to the word input, as W is
linear). Late fusion leaves the cell untouched and gates q into the output:
r = sigmoid(q W_rp + c W_rc + b_r), h = o * tanh(c + r * q). One encoder,
:func:`encode_context`, makes the context p: a bag of words projected by P
(BoW), the last state of a context LSTM over the sentences' projected bags
(SeqBoW), or one annotation per context sentence, a forward and a reverse
context LSTM's states side by side; each decoder step then mixes the
annotations' projections with additive-attention weights queried by the
previous hidden state, which equals projecting the mix.
:func:`parameter_shapes` is the one table of every parameter, in draw order.

One engine, ``batch_nll``, evaluates every variant for training, corpus
evaluation and tests alike; a single window is a batch of one. In its packed
batch the windows are sorted by target length, longest first (a stable
sort), and only the N real target positions are kept, time-major: step t
owns the rows ``bounds[t]:bounds[t+1]``, those of the n_t windows still
running, which lead, and no padded position is embedded or scored. Contexts
are counted over the batch's R distinct context words
(``WindowBatch.bow_ids``), so P is read through R rows, never |V|. Context
sentences are left-padded to K positions, with a (B, K) 0/1 mask. The
context LSTMs run over the real (position, window) pairs only, packed
position-major with the windows sorted by context count, most first (a
stable sort): the windows running at a position are its leading rows, a
window joins from the zero state at its first sentence, and every window
with a context ends at the last position. Their states are placed into the
decoder's row order once per batch, zero at padded positions, so a window
without context encodes to the zero vector and gets all-zero attention
weights. A decoder step's attention query covers its n <= B leading windows.

The engine steps through time only in ``numeric.lstm_recurrence``: the
decoder in every form (plain, early fusion's input term, late fusion's
gate, and attention's per-step weights and mix, which it records between
its steps) and both context LSTMs, as ``rlm.lstm_step``. Everything else is
computed once per batch, the gradients of the weights every step applies
(U and b, late fusion's W_rc and b_r, attention's U_a) included. Per-window
totals are segment sums of the packed NLLs, added in time order and
returned in the caller's window order; the per-position NLLs come back in
that order too, gathered once from the packed ones.
"""

from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import numeric as nm
from . import rlm
from .corpus import ContextWindow, Vocabulary
from .numeric import Tape, Variable

# bow_vector is bound only because bench/tracing.py wraps fusion.bow_vector; no
# program path calls it, and the line leaves with ROADMAP item 3
bow_vector = None

CTX_FWD = "cf_"
CTX_REV = "cr_"


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


def parameter_shapes(variant: Variant, vocab_size: int, d_emb: int, d_h: int,
                     d_ctx: int, d_a: int) -> rlm.Shapes:
    """Name -> shape of every trainable parameter of one model variant, in the
    order ``init_parameters`` draws them; checkpoints are checked against it."""
    # E's extra row is the begin-of-sentence input
    shapes = {"E": (vocab_size + 1, d_emb), **rlm.lstm_shapes("", d_emb, d_h),
              "W_out": (d_h, vocab_size), "b_out": (vocab_size,)}
    if variant.context is None:
        return shapes
    shapes["P"] = (vocab_size, d_ctx)
    if variant.context != "bow":
        shapes.update(rlm.lstm_shapes(CTX_FWD, d_ctx, d_ctx))
    d_p = d_ctx       # the width of the context p
    if variant.context == "att":
        shapes.update(rlm.lstm_shapes(CTX_REV, d_ctx, d_ctx))
        d_p = 2 * d_ctx
        shapes.update(W_a=(d_p, d_a), U_a=(d_h, d_a), v_a=(d_a,))
    shapes["W_p"] = (d_p, d_emb if variant.fusion == "early" else d_h)
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


# ---------------------------------------------------------------------------
# the context encoder
# ---------------------------------------------------------------------------


def encode_context(tape: Tape | None, params: dict[str, Variable], variant: Variant,
                   batch: WindowBatch) -> Variable:
    """The context p of a batch's windows, in the decoder's row order: BoW's
    P s (B, d_ctx); SeqBoW's forward context LSTM's state at the last
    position, where every context ends (B, d_ctx); attention's annotations,
    the forward and reverse context LSTMs' states side by side at their
    positions and windows (K, B, 2*d_ctx), zero at padded positions. Count
    rows over the sorted distinct words ``bow_ids`` (R,), one per window for
    BoW and one per context sentence for the LSTMs, are projected by the R
    rows of P that ``bow_ids`` gathers, so P's gradient is row-form. With no
    context sentence in a SeqBoW or attention batch, p is zero (B, W_p rows)."""
    counts = batch.bow_sum if variant.context == "bow" else batch.bow_seq
    if len(counts) == 0:
        W_p = params["W_p"]
        return Variable(np.zeros((len(batch.ctx_mask), W_p.shape[0]), W_p.dtype))
    x = nm.matmul(tape, Variable(counts), nm.embed_rows(tape, params["P"], batch.bow_ids))
    if variant.context == "bow":
        return x
    B, K = batch.ctx_mask.shape
    fwd = rlm.lstm_step(tape, params, x, batch.ctx_bounds, CTX_FWD)
    if variant.context == "seqbow":
        last = slice(*batch.ctx_bounds[-2:])  # the last position's rows
        return nm.place_rows(tape, fwd, last, batch.ctx_slot[last] - (K - 1) * B, B)
    rev = rlm.lstm_step(tape, params, x, batch.ctx_bounds, CTX_REV, reverse=True)
    both = nm.place_rows(tape, nm.concat_cols(tape, [fwd, rev]), slice(None), batch.ctx_slot,
                         K * B)
    return nm.reshape(tape, both, (K, B, -1))


def project(tape: Tape | None, x: Variable, weight: Variable) -> Variable:
    """A context summary (B, D) or annotations (K, B, D) times weight (D, E) ->
    (B, E) or (K, B, E), one product either way."""
    if x.value.ndim == 2:
        return nm.matmul(tape, x, weight)
    K, B, D = x.shape
    flat = nm.reshape(tape, x, (K * B, D))
    return nm.reshape(tape, nm.matmul(tape, flat, weight), (K, B, -1))


def attend(tape: Tape | None, params: dict[str, Variable], keys: Variable,
           query: Variable, mask: np.ndarray) -> Variable:
    """Additive attention weights: score_k = v_a . tanh(W_a z_k + U_a h), softmax
    over the unmasked positions -> alphas (n, K), for the query U_a h (n, d_a)
    the decoder's recurrence projects, with mask rows (n, K). ``keys``
    (K, B, d_a) holds every W_a z_k, from :func:`project`."""
    scores = nm.attention_scores(tape, keys, query, params["v_a"])
    return nm.masked_softmax(tape, scores, mask)


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

    W, U, b = rlm.gate_weights(tape, params, "")
    late = (params["W_rc"], params["b_r"]) if variant.fusion == "late" else None
    feed = ()         # the decoder's context: (q W,) for early fusion, (q, q W_rp) for late
    attention = None
    if variant.context is not None:
        p = encode_context(tape, params, variant, batch)
        q = project(tape, p, params["W_p"])
        feed = (q, project(tape, q, params["W_rp"])) if late else (project(tape, q, W),)
        if p.value.ndim == 3:
            keys = project(tape, p, params["W_a"])

            def mix(tape, query):  # this step's weights mix the projected annotations
                alphas = attend(tape, params, keys, query, batch.ctx_mask[:query.shape[0]])
                return tuple(nm.attention_mix(tape, alphas, f) for f in feed)
            attention = (params["U_a"], mix)

    x = nm.embed_rows(tape, params["E"], batch.inputs)
    xproj = nm.matmul(tape, x, W)
    hidden, _ = nm.lstm_recurrence(tape, xproj, batch.bounds, U, b, feed, late, attention)
    logits = nm.add_bias(tape, nm.matmul(tape, hidden, params["W_out"]), params["b_out"])
    nll = nm.nll_rows(tape, logits, batch.targets)
    total = nm.segment_sum(tape, nll, batch.window, B)
    return total, nll.value[batch.token_order]
