"""Sentence-level LSTM language model: embeddings, one LSTM layer, softmax output.

This module holds the model's parameter shapes and its gate-weight layout;
the sentence NLL of every variant, this unconditioned one included, is
computed by the batch engine, ``fusion.batch_nll``. Parameters live in an
ordered name->Variable dict, drawn by :func:`draw_parameters` in the order
of a name->shape table; the same table checks a checkpoint's arrays. Weight storage is
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


Shapes = dict[str, tuple[int, ...]]


def lstm_shapes(prefix: str, d_in: int, d_h: int) -> Shapes:
    """One LSTM layer's gate weights under a name prefix."""
    shapes: Shapes = {}
    for g in GATES:
        shapes[f"{prefix}W_{g}"] = (d_in, d_h)
        shapes[f"{prefix}U_{g}"] = (d_h, d_h)
        shapes[f"{prefix}b_{g}"] = (d_h,)
    return shapes


def rlm_shapes(vocab_size: int, d_emb: int, d_h: int) -> Shapes:
    """Embedding (+1 row for begin-of-sentence), LSTM gates, output affine."""
    return {"E": (vocab_size + 1, d_emb), **lstm_shapes("", d_emb, d_h),
            "W_out": (d_h, vocab_size), "b_out": (vocab_size,)}


def draw_parameters(shapes: Shapes, rng, dtype) -> dict[str, Variable]:
    """One uniform draw per parameter, in the table's order."""
    return {name: Variable(nm.uniform_init(rng, shape, dtype)) for name, shape in shapes.items()}


def zero_state(batch: int, d_h: int, dtype) -> LstmState:
    return LstmState(nm.zeros((batch, d_h), dtype), nm.zeros((batch, d_h), dtype))


def gate_weights(tape: Tape | None, params: dict[str, Variable],
                 prefix: str) -> tuple[Variable, Variable, Variable]:
    """One layer's (W, U, b), each with its four gates side by side in GATES order."""
    return tuple(nm.concat_cols(tape, [params[f"{prefix}{kind}_{g}"] for g in GATES])
                 for kind in ("W", "U", "b"))


# no engine use; kept because bench/tracing.py wraps rlm.lstm_step and rlm.lstm_gates by name
def lstm_step(x: Variable, state: LstmState, params: dict[str, Variable],
              tape: Tape | None = None, prefix: str = "") -> LstmState:
    """One LSTM cell update of the layer under ``prefix``."""
    W, U, b = gate_weights(tape, params, prefix)
    xproj = nm.matmul(tape, x, W)
    rows = slice(0, x.shape[0])
    nm.step_weight_grads(tape, U, b, xproj, rows, lambda: state.h.value[rows])
    _, c_new, h_new = nm.lstm_cell(tape, xproj, rows, state.h, state.c, U, b)
    return LstmState(h_new, c_new)


lstm_gates = lstm_step
