"""Sentence-level LSTM layers: the gate-weight layout and one packed layer.

The sentence NLL of every variant, the unconditioned one included, is
computed by the batch engine, ``fusion.batch_nll``, and every parameter's
name and shape is in one table, ``fusion.parameter_shapes``. Parameters
live in an ordered name->Variable dict, drawn by :func:`draw_parameters` in
the order of such a table. Weight storage is row-batch friendly: an
input-to-hidden map is stored as (d_in, d_h) so a batch (B, d_in)
multiplies it directly.

Gate weights are stored per gate (``W_i``, ``U_o``, ``b_f``, ...), which is
the checkpoint layout (:func:`lstm_shapes`). A computation concatenates them
in ``GATES`` order once (:func:`gate_weights`), so one product serves all
four gates and the gradients split back per gate; every LSTM, the decoder
and both context LSTMs, runs through ``numeric.lstm_recurrence``, the
context LSTMs as the layer :func:`lstm_step`.
"""

import numpy as np

from . import numeric as nm
from .numeric import Tape, Variable

GATES = ("i", "o", "f", "c")

Shapes = dict[str, tuple[int, ...]]


def lstm_shapes(prefix: str, d_in: int, d_h: int) -> Shapes:
    """One LSTM layer's gate weights under a name prefix."""
    shapes: Shapes = {}
    for g in GATES:
        shapes[f"{prefix}W_{g}"] = (d_in, d_h)
        shapes[f"{prefix}U_{g}"] = (d_h, d_h)
        shapes[f"{prefix}b_{g}"] = (d_h,)
    return shapes


def draw_parameters(shapes: Shapes, rng, dtype) -> dict[str, Variable]:
    """One uniform draw per parameter, in the table's order; a MemoryError
    names the parameter and its shape."""
    params = {}
    for name, shape in shapes.items():
        try:
            params[name] = Variable(nm.uniform_init(rng, shape, dtype))
        except MemoryError:
            raise MemoryError(f"parameter {name} of shape {shape}") from None
    return params


def gate_weights(tape: Tape | None, params: dict[str, Variable],
                 prefix: str) -> tuple[Variable, Variable, Variable]:
    """One layer's (W, U, b), each with its four gates side by side in GATES order."""
    return tuple(nm.concat_cols(tape, [params[f"{prefix}{kind}_{g}"] for g in GATES])
                 for kind in ("W", "U", "b"))


def lstm_step(tape: Tape | None, params: dict[str, Variable], x: Variable,
              bounds: np.ndarray, prefix: str, reverse: bool = False) -> Variable:
    """The LSTM layer under ``prefix`` over packed input rows x (N, d_in), from
    the zero state, one step per position, position k owning the rows
    bounds[k]:bounds[k+1] (run last to first if ``reverse``) -> its hidden
    states (N, d_h). The context LSTMs run through it; the decoder calls
    ``numeric.lstm_recurrence`` itself, as early fusion's input term is
    multiplied by its W too."""
    W, U, b = gate_weights(tape, params, prefix)
    return nm.lstm_recurrence(tape, nm.matmul(tape, x, W), bounds, U, b, reverse=reverse)[0]


# bench/tracing.py wraps both names
lstm_gates = lstm_step
