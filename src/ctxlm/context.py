"""Context-sentence encoders: BoW projection, sequential BoW LSTM, and
bidirectional annotations with additive attention.

These are the encoders the batch engine runs, over a batch of B windows in
the engine's row order. Context sentences are left-padded to K positions,
position-major (K, B, ...), with a (B, K) 0/1 mask; the context LSTM carries
its state unchanged over padded positions, so a window without context
encodes to the zero vector and its attention weights are all zero. An
attention query may cover only the n <= B leading windows (the targets
still running at a decoder step); it then reads those windows' rows of the
annotations and keys.
"""

import numpy as np

from . import numeric as nm
from . import rlm
from .numeric import Tape, Variable
from .rlm import LstmState

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


def project_counts(tape: Tape | None, params: dict[str, Variable],
                   counts: np.ndarray) -> Variable:
    """Count rows (N, V) projected by P -> (N, d_ctx); the counts get no gradient.
    For BoW, one row per window holding all its context words: p = P s."""
    return nm.matmul(tape, Variable(counts, constant=True), params["P"])


def context_lstm(tape: Tape | None, params: dict[str, Variable], x: Variable,
                 mask: np.ndarray, prefix: str, reverse: bool = False) -> list[Variable]:
    """Masked context-LSTM pass over projected BoW rows x (K*B, d_ctx), position-major;
    one (B, d_ctx) hidden state per position."""
    B, K = mask.shape
    W, U, b = rlm.gate_weights(tape, params, prefix)
    xproj = nm.matmul(tape, x, W)
    states: list[Variable | None] = [None] * K
    state = rlm.zero_state(B, x.shape[1], x.dtype)
    for k in (range(K - 1, -1, -1) if reverse else range(K)):
        rows = slice(k * B, (k + 1) * B)
        _, _, c_new, h_new = nm.lstm_cell(tape, xproj, rows, state.h, state.c, U, b)
        m = mask[:, k : k + 1]
        state = LstmState(nm.blend(tape, m, h_new, state.h), nm.blend(tape, m, c_new, state.c))
        states[k] = state.h
    return states


def seqbow_summary(tape: Tape | None, params: dict[str, Variable], bow_seq: np.ndarray,
                   mask: np.ndarray) -> Variable:
    """The forward context LSTM's last hidden state (B, d_ctx) over per-sentence
    counts (K, B, V)."""
    x = project_counts(tape, params, bow_seq.reshape(-1, bow_seq.shape[-1]))
    return context_lstm(tape, params, x, mask, CTX_FWD)[-1]


def annotate(tape: Tape | None, params: dict[str, Variable], bow_seq: np.ndarray,
             mask: np.ndarray) -> Variable:
    """Forward and reverse context-LSTM states side by side: (K, B, 2*d_ctx)."""
    x = project_counts(tape, params, bow_seq.reshape(-1, bow_seq.shape[-1]))
    fwd = context_lstm(tape, params, x, mask, CTX_FWD)
    rev = context_lstm(tape, params, x, mask, CTX_REV, reverse=True)
    return nm.concat_cols(tape, [nm.stack_first(tape, fwd), nm.stack_first(tape, rev)])


def attention_keys(tape: Tape | None, params: dict[str, Variable],
                   annotations: Variable) -> Variable:
    """W_a z_k for every annotation at once: (K, B, D) -> (K, B, d_a)."""
    K, B, D = annotations.shape
    flat = nm.reshape(tape, annotations, (K * B, D))
    return nm.reshape(tape, nm.matmul(tape, flat, params["W_a"]), (K, B, -1))


def attend(tape: Tape | None, params: dict[str, Variable], annotations: Variable,
           keys: Variable, h_query: Variable, mask: np.ndarray) -> tuple[Variable, Variable]:
    """Additive attention: score_k = v_a . tanh(W_a z_k + U_a h), softmax over the
    unmasked positions; returns (weighted annotation sum (n, D), alphas (n, K))
    for a query h_query (n, d_h) of the n leading windows, whose mask rows
    (n, K) are ``mask``."""
    query = nm.matmul(tape, h_query, params["U_a"])
    scores = nm.attention_scores(tape, keys, query, params["v_a"])
    alphas = nm.masked_softmax(tape, scores, mask)
    return nm.attention_mix(tape, alphas, annotations), alphas
