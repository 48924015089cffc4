"""Context-sentence encoders: BoW projection, sequential BoW LSTM, and
bidirectional annotations with additive attention.

These are the single-window building blocks; values are row vectors (1, d).
An empty context always encodes to the zero vector.
"""

import numpy as np

from . import numeric as nm
from . import rlm
from .corpus import Vocabulary, bow_vector
from .numeric import Tape, Variable

CTX_FWD = "cf_"
CTX_REV = "cr_"


def init_bow(params: dict[str, Variable], vocab_size: int, d_ctx: int, rng, dtype) -> None:
    params["P"] = Variable(nm.uniform_init(rng, (vocab_size, d_ctx), dtype))


def init_seqbow(params: dict[str, Variable], vocab_size: int, d_ctx: int,
                bidirectional: bool, rng, dtype) -> None:
    init_bow(params, vocab_size, d_ctx, rng, dtype)
    rlm.init_lstm(params, CTX_FWD, d_ctx, d_ctx, rng, dtype)
    if bidirectional:
        rlm.init_lstm(params, CTX_REV, d_ctx, d_ctx, rng, dtype)


def init_attention(params: dict[str, Variable], annot_dim: int, d_h: int, d_a: int,
                   rng, dtype) -> None:
    params["W_a"] = Variable(nm.uniform_init(rng, (annot_dim, d_a), dtype))
    params["U_a"] = Variable(nm.uniform_init(rng, (d_h, d_a), dtype))
    params["v_a"] = Variable(nm.uniform_init(rng, (d_a,), dtype))


def _bow_rows(context, vocab: Vocabulary, dtype) -> list[np.ndarray]:
    return [bow_vector([s], vocab, dtype).reshape(1, -1) for s in context]


def encode_bow(context, vocab: Vocabulary, params: dict[str, Variable],
               tape: Tape | None = None) -> Variable:
    """All context words bagged into one count vector, projected: p = P s."""
    dtype = params["P"].dtype
    s = Variable(bow_vector(context, vocab, dtype).reshape(1, -1), constant=True)
    return nm.matmul(tape, s, params["P"])


def encode_seqbow(context, vocab: Vocabulary, params: dict[str, Variable],
                  tape: Tape | None = None) -> Variable:
    """Run the context LSTM over per-sentence BoW projections; last hidden state."""
    dtype = params["P"].dtype
    d_ctx = params["P"].shape[1]
    if not context:
        return nm.zeros((1, d_ctx), dtype)
    state = rlm.zero_state(1, d_ctx, dtype)
    for s_row in _bow_rows(context, vocab, dtype):
        x = nm.matmul(tape, Variable(s_row, constant=True), params["P"])
        state = rlm.lstm_step(x, state, params, tape, CTX_FWD)
    return state.h


def annotate_bidirectional(context, vocab: Vocabulary, params: dict[str, Variable],
                           tape: Tape | None = None) -> list[Variable]:
    """Forward and reverse context-LSTM states, concatenated per context sentence."""
    if not context:
        return []
    dtype = params["P"].dtype
    d_ctx = params["P"].shape[1]
    rows = _bow_rows(context, vocab, dtype)
    xs = [nm.matmul(tape, Variable(r, constant=True), params["P"]) for r in rows]
    fwd = []
    state = rlm.zero_state(1, d_ctx, dtype)
    for x in xs:
        state = rlm.lstm_step(x, state, params, tape, CTX_FWD)
        fwd.append(state.h)
    rev = [None] * len(xs)
    state = rlm.zero_state(1, d_ctx, dtype)
    for j in reversed(range(len(xs))):
        state = rlm.lstm_step(xs[j], state, params, tape, CTX_REV)
        rev[j] = state.h
    return [nm.concat_cols(tape, [f, r]) for f, r in zip(fwd, rev)]


def attend(annotations: list[Variable], h_query: Variable, params: dict[str, Variable],
           tape: Tape | None = None) -> tuple[Variable, Variable]:
    """Additive attention: score_k = v_a . tanh(W_a z_k + U_a h); returns
    (weighted annotation sum (1, annot_dim), alphas (1, K))."""
    if not annotations:
        raise ValueError("attend needs at least one annotation")
    v_col = nm.reshape(tape, params["v_a"], (-1, 1))
    q = nm.matmul(tape, h_query, params["U_a"])
    cols = []
    for z in annotations:
        e = nm.tanh_v(tape, nm.add(tape, nm.matmul(tape, z, params["W_a"]), q))
        cols.append(nm.matmul(tape, e, v_col))
    scores = nm.concat_cols(tape, cols)
    ones = np.ones(scores.shape, dtype=scores.dtype)
    alphas = nm.masked_softmax(tape, scores, ones)
    stacked = nm.stack_first(tape, annotations)
    mixed = nm.attention_mix(tape, alphas, stacked)
    return mixed, alphas
