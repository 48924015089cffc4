import ctypes
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import support
from ctxlm import numeric as nm
from ctxlm.numeric import Tape, TapeError, Variable
from ctxlm.training import encode_rng_state

RNG = np.random.Generator(np.random.PCG64(1234))


def test_sigmoid_tanh_point_values():
    assert nm.sigmoid(0.0) == 0.5
    assert math.tanh(0.0) == 0.0
    assert abs(nm.sigmoid(2.0) - 0.8807970779) < 1e-9


@given(st.floats(-700, 700))
def test_sigmoid_symmetry(x):
    assert abs(nm.sigmoid(-x) - (1.0 - nm.sigmoid(x))) < 1e-15


def test_sigmoid_saturates_monotone():
    xs = np.linspace(-30, 30, 101)
    ys = nm.sigmoid(xs)
    assert np.all(np.diff(ys) >= 0)
    assert np.all(ys > 0) and np.all(ys < 1)
    assert np.all(np.isfinite(nm.sigmoid(np.array([-1e6, 1e6]))))


def _sigmoid_boolean_mask(x):
    """The previous formula: separate exp branches chosen by boolean-mask indexing."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_within_one_ulp_of_boolean_mask_formula(dtype):
    edges = [0.0, 1e-8, 40.0, 745.0, 1e6]
    grid = np.concatenate([edges, np.negative(edges), np.linspace(-50, 50, 1001),
                           RNG.standard_normal(1000) * 10]).astype(dtype)
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        got = nm.sigmoid(grid)
        want = _sigmoid_boolean_mask(grid)
    assert got.dtype == dtype
    assert np.all(np.abs(got - want) <= np.spacing(want))
    assert np.all((got >= 0.0) & (got <= 1.0))


def test_sigmoid_scalar_and_integer_input():
    assert isinstance(nm.sigmoid(0.0), np.floating) and nm.sigmoid(0.0) == 0.5
    assert nm.sigmoid(3) == nm.sigmoid(3.0)
    ints = nm.sigmoid(np.array([-2, 0, 2]))
    assert ints.dtype == np.float64 and ints[1] == 0.5


def test_finite_difference_quadratic():
    grad = support.finite_difference_gradient(lambda t: t[0] ** 2, np.array([3.0]), eps=1e-5)
    assert abs(grad[0] - 6.0) < 1e-8


def test_finite_difference_constant():
    grad = support.finite_difference_gradient(lambda t: 7.5, np.array([1.0, -2.0]))
    assert np.all(grad == 0.0)


def test_finite_difference_nonfinite_names_coordinate():
    def f(t):
        return float("nan") if t[1] != 0.5 else 1.0

    with pytest.raises(ValueError, match="coordinate 1"):
        support.finite_difference_gradient(f, np.array([0.0, 0.5]))


def test_finite_difference_bad_eps():
    with pytest.raises(ValueError):
        support.finite_difference_gradient(lambda t: 0.0, np.array([1.0]), eps=0.0)


def test_matmul_associativity():
    for _ in range(10):
        a = RNG.standard_normal((4, 5))
        b = RNG.standard_normal((5, 3))
        c = RNG.standard_normal((3, 6))
        left = (a @ b) @ c
        right = a @ (b @ c)
        assert np.max(np.abs(left - right)) < 1e-10


def test_tape_backward_order_is_reversed():
    tape = Tape()
    seen = []
    for i in range(4):
        tape.record(lambda i=i: seen.append(i))
    tape.backward(Variable(np.asarray(0.0)))
    assert seen == [3, 2, 1, 0]


def test_tape_backward_requires_scalar():
    with pytest.raises(ValueError):
        Tape().backward(Variable(np.zeros(3)))


def test_tape_backward_raises_on_an_output_off_the_loss():
    tape = Tape()
    x, w = Variable(np.ones((2, 3))), Variable(np.ones((3, 4)))
    nm.matmul(tape, x, w)  # recorded, but never reaches the loss
    loss = nm.sum_all(tape, x)
    with pytest.raises(TapeError):
        tape.backward(loss)


def _ones(*shape):
    return Variable(np.ones(shape))


# every primitive that records one closure, called with small inputs
RECORDING_PRIMITIVES = {
    "matmul": lambda t: nm.matmul(t, _ones(2, 3), _ones(3, 4)),
    "add_bias": lambda t: nm.add_bias(t, _ones(2, 3), _ones(3)),
    "embed_rows": lambda t: nm.embed_rows(t, _ones(4, 3), np.array([0, 2, 2])),
    "nll_rows": lambda t: nm.nll_rows(t, _ones(2, 3), np.array([0, 2])),
    "masked_softmax": lambda t: nm.masked_softmax(t, _ones(2, 3), np.ones((2, 3))),
    "attention_mix": lambda t: nm.attention_mix(t, _ones(2, 3), _ones(3, 2, 4)),
    "attention_scores": lambda t: nm.attention_scores(t, _ones(3, 2, 4), _ones(2, 4), _ones(4)),
    "concat_cols": lambda t: nm.concat_cols(t, [_ones(2, 3), _ones(2, 1)]),
    "reshape": lambda t: nm.reshape(t, _ones(2, 3), (3, 2)),
    "place_rows": lambda t: nm.place_rows(t, _ones(4, 3), slice(1, 3), np.array([2, 0]), 3),
    "sum_all": lambda t: nm.sum_all(t, _ones(2, 3)),
    "segment_sum": lambda t: nm.segment_sum(t, _ones(4), np.array([0, 1, 1, 0]), 2),
    "scale": lambda t: nm.scale(t, _ones(2, 3), 0.5),
}


@pytest.mark.parametrize("name", sorted(RECORDING_PRIMITIVES))
def test_tape_error_names_the_primitive_whose_output_is_off_the_loss(name):
    tape = Tape()
    x = nm.scale(tape, _ones(2), 2.0)
    entry = len(tape)
    RECORDING_PRIMITIVES[name](tape)
    assert len(tape) == entry + 1
    with pytest.raises(TapeError, match=rf"^tape entry {entry} \({name}\): "):
        tape.backward(nm.sum_all(tape, x))


@pytest.mark.parametrize("kind", ["plain", "late", "attend"])
def test_tape_error_names_the_recurrence_whose_output_is_off_the_loss(kind):
    """The recurrence's hidden states off the loss, plain and with late
    fusion's gate: its last step's closure raises, where it used to hand U and
    xproj zero gradients. With attention, H reaches the loss but a mix that
    ignores its query leaves the query off it: the last step's query raises."""
    xproj, U, b, *rest = (Variable(v) for v in
                          _recurrence_inputs(np.random.default_rng(39), kind))
    feed, late, attend = (), None, None
    if kind == "late":
        feed, late = (rest[0], rest[1]), (rest[2], rest[3])
    elif kind == "attend":
        attend = (rest[0], lambda tape, query: (_ones(3, 12),))
    tape = Tape()
    H, _ = nm.lstm_recurrence(tape, xproj, SHRINKING[0], U, b, feed, late, attend)
    # the last step's closure is the last entry; its query's comes just before
    entry = len(tape) - (2 if kind == "attend" else 1)
    loss = nm.sum_all(tape, H if kind == "attend" else xproj)
    with pytest.raises(TapeError, match=rf"^tape entry {entry} \(lstm_recurrence\): "):
        tape.backward(loss)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(), (0,), (7,), (3, nm.INIT_BLOCK // 2 + 5)])
def test_uniform_init_is_the_uniform_draw_cast_bitwise(shape, dtype):
    """Drawn block by block, the init equals one float64 uniform draw cast to
    the dtype, bitwise, and leaves the generator in the same state."""
    blocked, whole = (np.random.Generator(np.random.PCG64(11)) for _ in range(2))
    got = nm.uniform_init(blocked, shape, dtype)
    want = whole.uniform(-nm.INIT_SCALE, nm.INIT_SCALE, size=shape).astype(dtype)
    assert got.dtype == dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert encode_rng_state(blocked) == encode_rng_state(whole)


# -- per-primitive gradient checks -------------------------------------------


def _check_op(build, inputs, tol=1e-4):
    """Tape gradient of sum(op(inputs)) vs finite differences, elementwise;
    returns the checked Variables with their tape gradients."""
    variables = [Variable(v.copy()) for v in inputs]
    tape = Tape()
    out = build(tape, variables)
    loss = nm.sum_all(tape, out) if out.value.shape != () else out
    tape.backward(loss)
    for k, var in enumerate(variables):
        got = var.grad_buffer().copy().ravel()

        def f(theta, k=k):
            vs = [Variable(v.copy()) for v in inputs]
            vs[k].value = theta.reshape(inputs[k].shape)
            o = build(None, vs)
            return float(o.value.sum())

        fd = support.finite_difference_gradient(f, inputs[k].ravel().copy())
        assert support.relative_error(got, fd).max() < tol, f"input {k}"
    return variables


def test_grad_matmul():
    _check_op(lambda t, v: nm.matmul(t, v[0], v[1]),
              [RNG.standard_normal((3, 4)), RNG.standard_normal((4, 2))])


def test_grad_add_bias():
    _check_op(lambda t, v: nm.add_bias(t, v[0], v[1]),
              [RNG.standard_normal((4, 3)), RNG.standard_normal(3)])


def test_grad_embed_rows():
    ids = np.array([0, 2, 2, 1])
    _check_op(lambda t, v: nm.embed_rows(t, v[0], ids), [RNG.standard_normal((4, 3))])


def _backward_from(tape, out, g):
    """Run the tape's closures with ``g`` as the gradient of ``out``."""
    out.grad = g
    for fn in reversed(tape._backprops):
        fn()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embed_rows_gives_the_dense_scatter_rows_bitwise(dtype):
    """The table's gradient is row-form over the distinct ids, sorted, and
    each row holds the bits np.add.at leaves in a dense zero table: the
    position gradients of a repeated id added in index order."""
    rng = np.random.default_rng(8)
    ids = rng.integers(0, 40, size=500)
    table = Variable(rng.standard_normal((60, 7)).astype(dtype))
    g = rng.standard_normal((500, 7)).astype(dtype)
    tape = Tape()
    _backward_from(tape, nm.embed_rows(tape, table, ids), g)
    grad = table.grad
    assert isinstance(grad, nm.RowGrad) and grad.shape == (60, 7)
    assert grad.rows.tolist() == sorted(set(ids.tolist()))
    dense = np.zeros((60, 7), dtype)
    np.add.at(dense, ids, g)
    assert grad.values.dtype == dtype
    assert grad.values.tobytes() == dense[grad.rows].tobytes()
    assert table.grad_buffer().tobytes() == dense.tobytes()


def test_embed_rows_with_distinct_ids_assigns_each_position_gradient():
    """Distinct ids (P's context words) need no scatter: each row of the
    row-form gradient is its one position's gradient, bitwise, -0.0 included."""
    ids = np.array([5, 1, 3])
    table = Variable(np.arange(18.0).reshape(6, 3))
    g = np.array([[1.5, -0.0, 2.0], [-3.0, 0.25, -0.0], [7.0, -1.0, 0.5]])
    tape = Tape()
    _backward_from(tape, nm.embed_rows(tape, table, ids), g)
    assert table.grad.rows.tolist() == [1, 3, 5]
    assert table.grad.values.tobytes() == g[[1, 2, 0]].tobytes()


@pytest.mark.parametrize("vocab", [1 << 13, 8])
def test_constant_operand_gives_the_weight_a_row_gradient(vocab):
    """Constant counts over some words times those words' rows of a weight,
    gathered by embed_rows: the weight's gradient is row-form over exactly
    those words, however many rows the weight has, and holds the row products
    counts[:, ids].T @ g of the |V|-wide counts, bit for bit; a NaN in the
    output gradient reaches those rows only."""
    rng = np.random.default_rng(9)
    full = np.zeros((4, vocab))
    full[[0, 1, 1, 3], [2, 2, 7, 5]] = [1.0, 2.0, 1.0, 3.0]
    ids = np.array([2, 5, 7])
    weights = Variable(rng.standard_normal((vocab, 3)))
    g = rng.standard_normal((4, 3))
    for _ in range(2):
        tape = Tape()
        out = nm.matmul(tape, Variable(full[:, ids]), nm.embed_rows(tape, weights, ids))
        assert out.value.tobytes() == (full[:, ids] @ weights.value[ids]).tobytes()
        _backward_from(tape, out, g.copy())
        grad = weights.grad
        assert isinstance(grad, nm.RowGrad) and grad.rows.tolist() == [2, 5, 7]
        assert grad.values.tobytes() == (full[:, ids].T @ g).tobytes()
        assert np.allclose(grad.values, (full.T @ g)[ids], rtol=1e-15, atol=0.0, equal_nan=True)
        weights.zero_grad()
        g[1, 0] = np.nan
    assert np.isnan(grad.values[:, 0]).all() and np.isfinite(grad.values[:, 1:]).all()


def test_grad_nll_rows():
    targets = np.array([1, 0, 3])
    _check_op(lambda t, v: nm.nll_rows(t, v[0], targets),
              [RNG.standard_normal((3, 5))])


def test_grad_masked_softmax():
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])

    def build(t, v):
        sm = nm.masked_softmax(t, v[0], mask)
        return support.weighted_sum(t, sm, np.array([[0.3, -1.2, 9.9], [0.7, 0.1, -0.4]]))

    _check_op(build, [RNG.standard_normal((2, 3))])


def test_masked_softmax_fully_masked_row_is_zero():
    scores = Variable(RNG.standard_normal((2, 3)))
    mask = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
    out = nm.masked_softmax(None, scores, mask)
    assert np.all(out.value[0] == 0.0)
    assert abs(out.value[1].sum() - 1.0) < 1e-12
    assert out.value[1, 1] == 0.0


def test_grad_attention_mix():
    _check_op(lambda t, v: nm.attention_mix(t, v[0], v[1]),
              [RNG.standard_normal((2, 3)), RNG.standard_normal((3, 2, 4))])


def test_grad_concat_reshape_scale():
    a, b = RNG.standard_normal((2, 3)), RNG.standard_normal((2, 2))
    _check_op(lambda t, v: nm.concat_cols(t, [v[0], v[1]]), [a, b])
    _check_op(lambda t, v: nm.reshape(t, v[0], (6,)), [RNG.standard_normal((2, 3))])
    _check_op(lambda t, v: nm.scale(t, v[0], -1.7), [RNG.standard_normal((2, 3))])


def test_relative_error_floor():
    assert support.relative_error(0.0, 0.0) == 0.0
    assert support.relative_error(1e-12, 0.0) == pytest.approx(1e-4)


def test_dtype_of():
    assert nm.dtype_of("f32") == np.float32
    assert nm.dtype_of("f64") == np.float64
    with pytest.raises(ValueError):
        nm.dtype_of("f16")


def test_grad_add_bias_per_row_vector_over_timesteps():
    _check_op(lambda t, v: nm.add_bias(t, v[0], v[1]),
              [RNG.standard_normal((3, 2, 4)), RNG.standard_normal((2, 4))])


def test_grad_concat_last_axis_and_segment_sum():
    _check_op(lambda t, v: nm.concat_cols(t, [v[0], v[1]]),
              [RNG.standard_normal(3), RNG.standard_normal(2)])
    _check_op(lambda t, v: nm.concat_cols(t, [v[0], v[1]]),
              [RNG.standard_normal((2, 3, 2)), RNG.standard_normal((2, 3, 1))])
    weights = RNG.standard_normal(3)
    segment = np.array([2, 0, 2, 1, 2, 0])
    _check_op(lambda t, v: support.weighted_sum(t, nm.segment_sum(t, v[0], segment, 3), weights),
              [RNG.standard_normal(6)])


def test_segment_sum_adds_in_index_order_and_in_the_operand_dtype():
    x = np.array([1e16, 1.0, -1e16, 1.0, 5.0])
    out = nm.segment_sum(None, Variable(x), np.array([0, 0, 0, 0, 1]), 3)
    assert out.value.tolist() == [((1e16 + 1.0) - 1e16) + 1.0, 5.0, 0.0]
    half_ulp = np.float32(2.0 ** -24)  # 1 + half_ulp rounds back to 1 in float32
    x32 = np.array([1.0, half_ulp, half_ulp], dtype=np.float32)
    out32 = nm.segment_sum(None, Variable(x32), np.zeros(3, dtype=np.int64), 1)
    assert out32.value.dtype == np.float32 and out32.value[0] == 1.0


# (bounds, reverse) of a packed batch of three rows: steps of 3, 2 and 1 rows
# (the decoder), of 1, 2 and 3 (a forward context LSTM over left-padded
# contexts: rows join from the zero state), and the latter's reverse pass;
# last, steps that grow while running backwards through the rows, where a
# step's rows follow those of the step before it
SHRINKING = (np.array([0, 3, 5, 6]), False)
GROWING = (np.array([0, 1, 3, 6]), False)
REVERSED = (GROWING[0], True)
REVERSED_GROWING = (SHRINKING[0], True)


def _recurrence(t, v, steps, kind="plain"):
    """A weighting of nm.lstm_recurrence's hidden states H, whose gradient
    reaches the cell states through every step. v: xproj (6,12), U (3,12), b (12,),
    then early fusion's extra (B,12), late fusion's q, q_r (B,3), W_rc (3,3)
    and b_r (3,), or attention's U_a (3,12) whose per-step query q gives the
    input term softmax(q), by ``kind``."""
    xproj, U, b, *rest = v
    feed, late, attend = (), None, None
    if kind == "early":
        feed = (rest[0],)
    elif kind == "late":
        feed, late = (rest[0], rest[1]), (rest[2], rest[3])
    elif kind == "attend":
        attend = (rest[0], lambda tape, query:
                  (nm.masked_softmax(tape, query, np.ones(query.shape)),))
    bounds, reverse = steps
    H, _ = nm.lstm_recurrence(t, xproj, bounds, U, b, feed, late, attend, reverse)
    return support.weighted_sum(t, H, np.linspace(-2.0, 2.0, H.value.size))


def _recurrence_inputs(rng, kind="plain", rows=3):
    inputs = [rng.standard_normal((6, 12)), rng.standard_normal((3, 12)),
              rng.standard_normal(12)]
    if kind == "early":
        inputs.append(rng.standard_normal((rows, 12)))
    elif kind == "late":
        inputs += [rng.standard_normal((rows, 3)), rng.standard_normal((rows, 3)),
                   rng.standard_normal((3, 3)), rng.standard_normal(3)]
    elif kind == "attend":
        inputs.append(rng.standard_normal((3, 12)))
    return inputs


def test_grad_lstm_cell():
    """Early fusion's cell, its input term included, in a three-step
    recurrence: every input's gradient, U's and b's (formed once per batch)
    included."""
    inputs = _recurrence_inputs(np.random.default_rng(33), "early")
    _check_op(lambda t, v: _recurrence(t, v, SHRINKING, "early"), inputs)


def test_grad_lstm_cell_without_extra_input():
    _check_op(lambda t, v: _recurrence(t, v, SHRINKING),
              _recurrence_inputs(np.random.default_rng(34)))


def test_grad_lstm_cell_reads_leading_rows_of_wider_extra():
    """Early fusion's context term: ``extra`` holds 4 rows, the widest step
    runs 3. Only its 3 leading rows are read and get gradient."""
    inputs = _recurrence_inputs(np.random.default_rng(35), "early", rows=4)
    extra = _check_op(lambda t, v: _recurrence(t, v, SHRINKING, "early"), inputs)[3]
    assert np.any(extra.grad[:3] != 0.0) and np.all(extra.grad[3:] == 0.0)


@pytest.mark.parametrize("steps", [GROWING, REVERSED], ids=["growing", "reversed"])
def test_grad_lstm_recurrence_of_a_context_lstm(steps):
    """The context LSTMs' step patterns: steps that grow, whose new rows join
    from the zero state, and their reverse pass, whose first step holds the
    last rows."""
    _check_op(lambda t, v: _recurrence(t, v, steps),
              _recurrence_inputs(np.random.default_rng(36)))


@pytest.mark.parametrize("steps", [SHRINKING, GROWING, REVERSED, REVERSED_GROWING],
                         ids=["shrinking", "growing", "reversed", "reversed-growing"])
@pytest.mark.parametrize("kind", ["attend"])
def test_grad_lstm_recurrence_with_a_per_step_query(steps, kind):
    """Attention's per-step query h_prev @ U_a, over each step pattern: the
    query's gradient reaches the rows of the previous step that it read."""
    _check_op(lambda t, v: _recurrence(t, v, steps, kind),
              _recurrence_inputs(np.random.default_rng(38), kind))


def test_lstm_cell_matches_per_gate_formula():
    """Every row of the recurrence, over each step pattern, against the
    per-gate formula run one window at a time: a window's state passes from
    step to step in the leading rows, and a window new at a step starts from
    zero."""
    xproj, U, b = _recurrence_inputs(np.random.default_rng(37))
    sig = lambda a: 1.0 / (1.0 + np.exp(-a))
    for bounds, reverse in (SHRINKING, GROWING, REVERSED):
        H, C = nm.lstm_recurrence(None, Variable(xproj), bounds, Variable(U), Variable(b),
                                  reverse=reverse)
        steps = [slice(a, z) for a, z in zip(bounds[:-1], bounds[1:])]
        for window in range(3):
            h, c = np.zeros(3), np.zeros(3)
            for rows in (steps[::-1] if reverse else steps):
                if window >= rows.stop - rows.start:
                    continue
                z = xproj[rows.start + window] + h @ U + b
                gi, go, gf, gc = sig(z[0:3]), sig(z[3:6]), sig(z[6:9]), np.tanh(z[9:12])
                c = gf * c + gi * gc
                h = go * np.tanh(c)
                assert np.max(np.abs(C[rows.start + window] - c)) < 1e-14
                assert np.max(np.abs(H.value[rows.start + window] - h)) < 1e-14


def test_grad_late_fusion_output():
    """Late fusion's gated output, h = o * tanh(c + r*q), in a three-step
    recurrence: every input's gradient, W_rc's and b_r's (formed once per
    batch) included."""
    inputs = _recurrence_inputs(np.random.default_rng(31), "late")
    _check_op(lambda t, v: _recurrence(t, v, SHRINKING, "late"), inputs)


def test_grad_late_fusion_output_reads_leading_rows_of_wider_context():
    """q and q_r hold 4 rows, the widest step 3: only the leading rows are
    read and get gradient."""
    inputs = _recurrence_inputs(np.random.default_rng(32), "late", rows=4)
    q, q_r = _check_op(lambda t, v: _recurrence(t, v, SHRINKING, "late"), inputs)[3:5]
    assert np.all(q.grad[3:] == 0.0) and np.all(q_r.grad[3:] == 0.0)


def test_grad_attention_scores():
    _check_op(lambda t, v: support.weighted_sum(t, nm.attention_scores(t, v[0], v[1], v[2]),
                                                np.array([[0.5, -2.0, 1.0, 3.0]] * 2)),
              [RNG.standard_normal((4, 2, 3)), RNG.standard_normal((2, 3)),
               RNG.standard_normal(3)])


def test_grad_attention_reads_leading_rows_of_wider_keys_and_annotations():
    weights = np.array([[0.5, -2.0, 1.0, 3.0]] * 2)
    keys = _check_op(lambda t, v: support.weighted_sum(t, nm.attention_scores(t, v[0], v[1], v[2]),
                                                       weights),
                     [RNG.standard_normal((4, 5, 3)), RNG.standard_normal((2, 3)),
                      RNG.standard_normal(3)])[0]
    assert np.all(keys.grad[:, 2:] == 0.0)
    annotations = _check_op(lambda t, v: nm.attention_mix(t, v[0], v[1]),
                            [RNG.standard_normal((2, 3)), RNG.standard_normal((3, 4, 4))])[1]
    assert np.all(annotations.grad[:, 2:] == 0.0)


def test_attention_scores_match_per_position_formula():
    keys, query, v = (RNG.standard_normal((4, 2, 3)), RNG.standard_normal((2, 3)),
                      RNG.standard_normal(3))
    out = nm.attention_scores(None, Variable(keys), Variable(query), Variable(v))
    for k in range(4):
        assert np.max(np.abs(out.value[:, k] - np.tanh(keys[k] + query) @ v)) < 1e-15


def test_adopted_gradients_are_never_shared_between_inputs():
    a, b = Variable(RNG.standard_normal((2, 3))), Variable(RNG.standard_normal((2, 3)))
    tape = Tape()
    tape.backward(nm.sum_all(tape, nm.concat_cols(tape, [a, b])))
    assert a.grad is not b.grad
    a.grad += 1.0
    assert np.all(b.grad == 1.0)
    x = Variable(RNG.standard_normal((2, 3)))
    tape = Tape()
    tape.backward(nm.sum_all(tape, nm.concat_cols(tape, [x, x])))
    assert np.all(x.grad == 2.0)


# In a fresh interpreter: one warm-up cycle, then the minor faults of each of
# five cycles that allocate, fill and free a 40 MB float32 array, above
# glibc's largest dynamic mmap threshold (32 MB).
FAULT_SCRIPT = """
import resource
import numpy as np
import ctxlm.numeric

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

np.ones(10_000_000, np.float32)
counts = []
for _ in range(5):
    before = faults()
    np.ones(10_000_000, np.float32)
    counts.append(faults() - before)
print(max(counts))
"""


def test_freed_arrays_are_reused_without_page_faults():
    if getattr(ctypes.CDLL(None), "mallopt", None) is None:
        pytest.skip("libc has no mallopt")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nm.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", FAULT_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert int(run.stdout) < 50


def test_allocator_policy_is_skipped_without_mallopt(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert nm.keep_freed_arrays() is False
