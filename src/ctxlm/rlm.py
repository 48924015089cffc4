"""Sentence-level LSTM language model: embeddings, one LSTM layer, softmax output.

Parameters live in an ordered name->Variable dict. Weight storage is
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

import numpy as np

from . import numeric as nm
from .corpus import Sentence
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


def bos_row(params: dict[str, Variable]) -> int:
    return params["E"].shape[0] - 1


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


def output_distribution(h: np.ndarray, params: dict[str, Variable]) -> np.ndarray:
    """Next-word probabilities for a single hidden vector (d_h,)."""
    logits = h @ params["W_out"].value + params["b_out"].value
    return nm.softmax_row(logits)


class ContextHook:
    """Injection points for conditioning the sentence LSTM on external context.

    The baseline model uses the defaults: no extra input, h = o * tanh(c).
    """

    def input_extra(self, tape: Tape | None, t: int, h_prev: Variable) -> Variable | None:
        return None

    def output(self, tape: Tape | None, t: int, o: Variable, c_new: Variable,
               h_prev: Variable) -> Variable:
        return nm.mul(tape, o, nm.tanh_v(tape, c_new))


def sentence_nll(sentence: Sentence, params: dict[str, Variable],
                 context_hook: ContextHook | None = None, tape: Tape | None = None,
                 trace: dict | None = None) -> Variable:
    """Total negative log-likelihood of a sentence (EOS included), in nats.

    The first prediction conditions on the zero state and the dedicated
    begin-of-sentence embedding row. ``trace``, when given, collects the
    h/c value trajectories and per-position NLLs for inspection.
    """
    hook = context_hook or ContextHook()
    d_h = params["b_i"].shape[0]
    dtype = params["E"].dtype
    inputs = np.array([bos_row(params)] + list(sentence.content_ids), dtype=np.int64)
    targets = np.array(sentence.token_ids, dtype=np.int64)

    state = zero_state(1, d_h, dtype)
    total = nm.zeros((), dtype)
    for t in range(len(targets)):
        x = nm.embed_rows(tape, params["E"], inputs[t : t + 1])
        extra = hook.input_extra(tape, t, state.h)
        if extra is not None:
            x = nm.add(tape, x, extra)
        _, o, c_new = lstm_gates(tape, params, "", x, state)
        h_new = hook.output(tape, t, o, c_new, state.h)
        logits = nm.add_bias(tape, nm.matmul(tape, h_new, params["W_out"]), params["b_out"])
        step = nm.nll_rows(tape, logits, targets[t : t + 1])
        total = nm.add(tape, total, nm.reshape(tape, step, ()))
        state = LstmState(h_new, c_new)
        if trace is not None:
            trace.setdefault("h", []).append(h_new.value[0].copy())
            trace.setdefault("c", []).append(c_new.value[0].copy())
            trace.setdefault("nll", []).append(float(step.value[0]))
    return total
