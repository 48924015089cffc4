"""Context-sentence encoders: BoW projection, sequential BoW LSTM, and
bidirectional annotations with additive attention.

These are the encoders the batch engine runs, over a batch of B windows in
the engine's row order. Contexts arrive as counts over the batch's R
distinct context words, never |V| wide, and P is read through those R rows
alone. Context sentences are left-padded to K positions, with a (B, K) 0/1
mask. The context LSTMs run over the real (position, window) pairs only,
packed position-major with the windows sorted by context count, most
first: the windows running at a position are its leading rows, and a
window joins from the zero state at its first sentence. Their states are
placed into the decoder's row order once per batch, zero at padded
positions, so a window without context encodes to the zero vector and its
attention weights are all zero. :func:`attend` returns one decoder step's
weights only; the engine mixes the annotations' projections (from
:func:`project`) with them, which equals projecting the mix. Its query may
cover only the n <= B leading windows (the targets still running at a
decoder step), which read their keys' rows.
"""

import numpy as np

from . import numeric as nm
from . import rlm
from .numeric import Tape, Variable

CTX_FWD = "cf_"
CTX_REV = "cr_"


def bow_shapes(vocab_size: int, d_ctx: int) -> rlm.Shapes:
    return {"P": (vocab_size, d_ctx)}


def seqbow_shapes(vocab_size: int, d_ctx: int, bidirectional: bool) -> rlm.Shapes:
    shapes = {**bow_shapes(vocab_size, d_ctx), **rlm.lstm_shapes(CTX_FWD, d_ctx, d_ctx)}
    if bidirectional:
        shapes.update(rlm.lstm_shapes(CTX_REV, d_ctx, d_ctx))
    return shapes


def attention_shapes(annot_dim: int, d_h: int, d_a: int) -> rlm.Shapes:
    return {"W_a": (annot_dim, d_a), "U_a": (d_h, d_a), "v_a": (d_a,)}


def project(tape: Tape | None, x: Variable, weight: Variable) -> Variable:
    """A context summary (B, D) or annotations (K, B, D) times weight (D, E) ->
    (B, E) or (K, B, E), one product either way."""
    if x.value.ndim == 2:
        return nm.matmul(tape, x, weight)
    K, B, D = x.shape
    flat = nm.reshape(tape, x, (K * B, D))
    return nm.reshape(tape, nm.matmul(tape, flat, weight), (K, B, -1))


def project_counts(tape: Tape | None, params: dict[str, Variable], counts: np.ndarray,
                   ids: np.ndarray) -> Variable:
    """Count rows (N, R) over the sorted distinct words ``ids`` (R,) projected
    by P -> (N, d_ctx): p = P s, one product with the R rows of P that ``ids``
    gathers. For BoW, one row per window holding all its context words. P's
    gradient is row-form over ``ids``, from ``numeric.embed_rows``; the counts'
    own (N, R) gradient is formed and dropped."""
    return nm.matmul(tape, Variable(counts), nm.embed_rows(tape, params["P"], ids))


def seqbow_summary(tape: Tape | None, params: dict[str, Variable], batch) -> Variable:
    """The forward context LSTM's last hidden state (B, d_ctx), in the
    decoder's row order, over a batch's per-sentence counts."""
    x = project_counts(tape, params, batch.bow_seq, batch.bow_ids)
    last = slice(*batch.ctx_bounds[-2:])  # every window with a context ends there
    B, K = batch.ctx_mask.shape
    return nm.place_rows(tape, rlm.lstm_step(tape, params, x, batch.ctx_bounds, CTX_FWD), last,
                         batch.ctx_slot[last] - (K - 1) * B, B)


def annotate(tape: Tape | None, params: dict[str, Variable], batch) -> Variable:
    """Forward and reverse context-LSTM states side by side, placed at their
    positions and windows: (K, B, 2*d_ctx), zero at padded positions."""
    x = project_counts(tape, params, batch.bow_seq, batch.bow_ids)
    fwd = rlm.lstm_step(tape, params, x, batch.ctx_bounds, CTX_FWD)
    rev = rlm.lstm_step(tape, params, x, batch.ctx_bounds, CTX_REV, reverse=True)
    B, K = batch.ctx_mask.shape
    both = nm.place_rows(tape, nm.concat_cols(tape, [fwd, rev]), slice(None), batch.ctx_slot,
                         K * B)
    return nm.reshape(tape, both, (K, B, -1))


def attend(tape: Tape | None, params: dict[str, Variable], keys: Variable,
           query: Variable, mask: np.ndarray) -> Variable:
    """Additive attention weights: score_k = v_a . tanh(W_a z_k + U_a h), softmax
    over the unmasked positions -> alphas (n, K), for the projected query
    U_a h (n, d_a) of the n leading windows, whose mask rows (n, K) are
    ``mask``. ``keys`` (K, B, d_a) holds every W_a z_k, from :func:`project`;
    the decoder's recurrence projects the query."""
    scores = nm.attention_scores(tape, keys, query, params["v_a"])
    return nm.masked_softmax(tape, scores, mask)
