"""Sentence-level LSTM language model: embeddings, one LSTM layer, softmax output.

This module holds the model's parameters and its LSTM cell; the sentence NLL
of every variant, this unconditioned one included, is computed by the batch
engine, ``fusion.batch_nll``. Parameters live in an ordered name->Variable dict. Weight storage is
row-batch friendly: an input-to-hidden map is stored as (d_in, d_h) so a
batch (B, d_in) multiplies it directly. The embedding table carries one
extra row used as the begin-of-sentence input for the first prediction.

Gate weights are stored per gate (``W_i``, ``U_o``, ``b_f``, ...), which is
the checkpoint layout. A computation concatenates them in ``GATES`` order
once (:func:`gate_weights`), so one product serves all four gates and the
gradients split back per gate; the cell itself is the fused
``numeric.lstm_cell``.
"""

from dataclasses import dataclass

from . import numeric as nm
from .numeric import Tape, Variable

GATES = ("i", "o", "f", "c")


@dataclass
class LstmState:
    h: Variable
    c: Variable


def init_lstm(params: dict[str, Variable], prefix: str, d_in: int, d_h: int, rng, dtype) -> None:
    """Add one LSTM layer's gate weights under a name prefix."""
    for g in GATES:
        params[f"{prefix}W_{g}"] = Variable(nm.uniform_init(rng, (d_in, d_h), dtype))
        params[f"{prefix}U_{g}"] = Variable(nm.uniform_init(rng, (d_h, d_h), dtype))
        params[f"{prefix}b_{g}"] = Variable(nm.uniform_init(rng, (d_h,), dtype))


def init_rlm_parameters(vocab_size: int, d_emb: int, d_h: int, rng, dtype) -> dict[str, Variable]:
    """Embedding (+1 row for begin-of-sentence), LSTM gates, output affine."""
    params: dict[str, Variable] = {}
    params["E"] = Variable(nm.uniform_init(rng, (vocab_size + 1, d_emb), dtype))
    init_lstm(params, "", d_emb, d_h, rng, dtype)
    params["W_out"] = Variable(nm.uniform_init(rng, (d_h, vocab_size), dtype))
    params["b_out"] = Variable(nm.uniform_init(rng, (vocab_size,), dtype))
    return params


def parameter_count(params: dict[str, Variable]) -> int:
    return sum(p.value.size for p in params.values())


def zero_state(batch: int, d_h: int, dtype) -> LstmState:
    return LstmState(nm.zeros((batch, d_h), dtype), nm.zeros((batch, d_h), dtype))


def gate_weights(tape: Tape | None, params: dict[str, Variable],
                 prefix: str) -> tuple[Variable, Variable, Variable]:
    """One layer's (W, U, b), each with its four gates side by side in GATES order."""
    return tuple(nm.concat_cols(tape, [params[f"{prefix}{kind}_{g}"] for g in GATES])
                 for kind in ("W", "U", "b"))


def _cell(tape: Tape | None, params: dict[str, Variable], prefix: str, x: Variable,
          state: LstmState) -> tuple[Variable, Variable, Variable, Variable]:
    W, U, b = gate_weights(tape, params, prefix)
    xproj = nm.reshape(tape, nm.matmul(tape, x, W), (1, x.shape[0], -1))
    return nm.lstm_cell(tape, xproj, 0, state.h, state.c, U, b)


def lstm_gates(tape: Tape | None, params: dict[str, Variable], prefix: str,
               x: Variable, state: LstmState) -> tuple[Variable, Variable, Variable]:
    """One LSTM cell update; returns (input gate i, output gate o, new cell c)."""
    i, o, c_new, _ = _cell(tape, params, prefix, x, state)
    return i, o, c_new


def lstm_step(x: Variable, state: LstmState, params: dict[str, Variable],
              tape: Tape | None = None, prefix: str = "") -> LstmState:
    _, _, c_new, h_new = _cell(tape, params, prefix, x, state)
    return LstmState(h_new, c_new)
