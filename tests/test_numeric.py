import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import support
from ctxlm import numeric as nm
from ctxlm.numeric import Tape, Variable

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


def test_grad_add_mul():
    a, b = RNG.standard_normal((3, 3)), RNG.standard_normal((3, 3))
    _check_op(lambda t, v: nm.add(t, v[0], v[1]), [a, b])
    _check_op(lambda t, v: nm.mul(t, v[0], v[1]), [a, b])


def test_grad_add_bias():
    _check_op(lambda t, v: nm.add_bias(t, v[0], v[1]),
              [RNG.standard_normal((4, 3)), RNG.standard_normal(3)])


def test_grad_sigmoid_tanh():
    x = RNG.standard_normal((2, 5))
    _check_op(lambda t, v: nm.sigmoid_v(t, v[0]), [x])
    _check_op(lambda t, v: nm.tanh_v(t, v[0]), [x])


def test_grad_embed_rows():
    ids = np.array([0, 2, 2, 1])
    _check_op(lambda t, v: nm.embed_rows(t, v[0], ids), [RNG.standard_normal((4, 3))])


def test_grad_nll_rows():
    targets = np.array([1, 0, 3])
    _check_op(lambda t, v: nm.nll_rows(t, v[0], targets),
              [RNG.standard_normal((3, 5))])


def test_grad_masked_softmax():
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])

    def build(t, v):
        sm = nm.masked_softmax(t, v[0], mask)
        return nm.mul(t, sm, Variable(np.array([[0.3, -1.2, 9.9], [0.7, 0.1, -0.4]])))

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


def test_grad_concat_stack_blend_reshape_scale():
    a, b = RNG.standard_normal((2, 3)), RNG.standard_normal((2, 2))
    _check_op(lambda t, v: nm.concat_cols(t, [v[0], v[1]]), [a, b])
    _check_op(lambda t, v: nm.stack_first(t, [v[0], v[1]]),
              [RNG.standard_normal((2, 3)), RNG.standard_normal((2, 3))])
    gate = np.array([[1.0], [0.0]])
    _check_op(lambda t, v: nm.blend(t, gate, v[0], v[1]),
              [RNG.standard_normal((2, 3)), RNG.standard_normal((2, 3))])
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
    weights = Variable(RNG.standard_normal(3))
    segment = np.array([2, 0, 2, 1, 2, 0])
    _check_op(lambda t, v: nm.mul(t, nm.segment_sum(t, v[0], segment, 3), weights),
              [RNG.standard_normal(6)])


def test_segment_sum_adds_in_index_order_and_in_the_operand_dtype():
    x = np.array([1e16, 1.0, -1e16, 1.0, 5.0])
    out = nm.segment_sum(None, Variable(x), np.array([0, 0, 0, 0, 1]), 3)
    assert out.value.tolist() == [((1e16 + 1.0) - 1e16) + 1.0, 5.0, 0.0]
    half_ulp = np.float32(2.0 ** -24)  # 1 + half_ulp rounds back to 1 in float32
    x32 = np.array([1.0, half_ulp, half_ulp], dtype=np.float32)
    out32 = nm.segment_sum(None, Variable(x32), np.zeros(3, dtype=np.int64), 1)
    assert out32.value.dtype == np.float32 and out32.value[0] == 1.0


def test_grad_concat_rows_and_leading_rows():
    _check_op(lambda t, v: nm.concat_rows(t, [v[0], v[1], v[2]]),
              [RNG.standard_normal((3, 2)), RNG.standard_normal((1, 2)),
               RNG.standard_normal((2, 2))])
    weights = Variable(RNG.standard_normal((2, 3)))
    x = _check_op(lambda t, v: nm.mul(t, nm.leading_rows(t, v[0], 2), weights),
                  [RNG.standard_normal((4, 3))])[0]
    assert np.all(x.grad[2:] == 0.0)
    same = Variable(RNG.standard_normal((2, 3)))
    assert nm.leading_rows(Tape(), same, 2) is same


def _lstm_cell_combined(t, v, rows=slice(2, 4), with_extra=True):
    """A weighted sum of all three outputs of one cell, so every output's
    gradient path is exercised. v: xproj (N,4d), h_prev, c_prev, U, b, extra;
    the cell runs on the two rows ``rows`` of xproj."""
    o, c, h = nm.lstm_cell(t, v[0], rows, v[1], v[2], v[3], v[4],
                           v[5] if with_extra else None)
    weights = [Variable(np.linspace(-1.0, 1.0, 6).reshape(2, 3) * k) for k in (2, 3, 4)]
    terms = [nm.mul(t, out, w) for out, w in zip((o, c, h), weights)]
    return nm.add(t, nm.add(t, terms[0], terms[1]), terms[2])


def _cell_inputs(state_rows=2):
    return [RNG.standard_normal((6, 12)), RNG.standard_normal((state_rows, 3)),
            RNG.standard_normal((state_rows, 3)), RNG.standard_normal((3, 12)),
            RNG.standard_normal(12), RNG.standard_normal((2, 12))]


def test_grad_lstm_cell():
    _check_op(_lstm_cell_combined, _cell_inputs())


def test_grad_lstm_cell_without_extra_input():
    _check_op(lambda t, v: _lstm_cell_combined(t, v, rows=slice(0, 2), with_extra=False),
              _cell_inputs())


def test_grad_lstm_cell_reads_leading_rows_of_wider_state():
    """A packed step: h_prev and c_prev hold 4 rows, the cell runs on 2. The
    rows past the step get no gradient, nor do xproj rows outside the slice."""
    xproj, h_prev, c_prev = _check_op(_lstm_cell_combined, _cell_inputs(state_rows=4))[:3]
    assert np.all(h_prev.grad[2:] == 0.0) and np.all(c_prev.grad[2:] == 0.0)
    assert np.all(xproj.grad[:2] == 0.0) and np.all(xproj.grad[4:] == 0.0)


def test_grad_lstm_cell_reads_leading_rows_of_wider_extra():
    """Early fusion's context term: ``extra`` holds 4 rows, the cell runs on 2.
    Only its 2 leading rows are read and get gradient."""
    inputs = _cell_inputs()
    inputs[5] = RNG.standard_normal((4, 12))
    extra = _check_op(_lstm_cell_combined, inputs)[5]
    assert np.any(extra.grad[:2] != 0.0) and np.all(extra.grad[2:] == 0.0)


def test_lstm_cell_matches_per_gate_formula():
    xproj, h, c, U, b, _ = _cell_inputs()
    o, c_new, h_new = nm.lstm_cell(None, Variable(xproj), slice(4, 6), Variable(h),
                                   Variable(c), Variable(U), Variable(b))
    z = xproj[4:6] + h @ U + b
    sig = lambda a: 1.0 / (1.0 + np.exp(-a))
    gi, go, gf, gc = sig(z[:, 0:3]), sig(z[:, 3:6]), sig(z[:, 6:9]), np.tanh(z[:, 9:12])
    expect_c = gf * c + gi * gc
    assert np.max(np.abs(o.value - go)) < 1e-15
    assert np.max(np.abs(c_new.value - expect_c)) < 1e-14
    assert np.max(np.abs(h_new.value - go * np.tanh(expect_c))) < 1e-14


def test_grad_late_fusion_output():
    _check_op(lambda t, v: nm.late_fusion_output(t, *v),
              [RNG.standard_normal((2, 3)), RNG.standard_normal((2, 3)),
               RNG.standard_normal((2, 3)), RNG.standard_normal((2, 3)),
               RNG.standard_normal((3, 3)), RNG.standard_normal(3)])


def test_grad_late_fusion_output_reads_leading_rows_of_wider_context():
    q, q_r = _check_op(lambda t, v: nm.late_fusion_output(t, *v),
                       [RNG.standard_normal((2, 3)), RNG.standard_normal((2, 3)),
                        RNG.standard_normal((4, 3)), RNG.standard_normal((4, 3)),
                        RNG.standard_normal((3, 3)), RNG.standard_normal(3)])[2:4]
    assert np.all(q.grad[2:] == 0.0) and np.all(q_r.grad[2:] == 0.0)


def test_grad_attention_scores():
    _check_op(lambda t, v: nm.mul(t, nm.attention_scores(t, v[0], v[1], v[2]),
                                  Variable(np.array([[0.5, -2.0, 1.0, 3.0]] * 2))),
              [RNG.standard_normal((4, 2, 3)), RNG.standard_normal((2, 3)),
               RNG.standard_normal(3)])


def test_grad_attention_reads_leading_rows_of_wider_keys_and_annotations():
    weights = Variable(np.array([[0.5, -2.0, 1.0, 3.0]] * 2))
    keys = _check_op(lambda t, v: nm.mul(t, nm.attention_scores(t, v[0], v[1], v[2]), weights),
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


def test_constant_operand_gets_no_gradient():
    data = Variable(RNG.standard_normal((3, 4)), constant=True)
    weights = Variable(RNG.standard_normal((4, 2)))
    tape = Tape()
    tape.backward(nm.sum_all(tape, nm.matmul(tape, data, weights)))
    assert data.grad is None
    assert np.allclose(weights.grad, data.value.sum(axis=0)[:, None] * np.ones((1, 2)))


def test_adopted_gradients_are_never_shared_between_inputs():
    a, b = Variable(RNG.standard_normal((2, 3))), Variable(RNG.standard_normal((2, 3)))
    tape = Tape()
    tape.backward(nm.sum_all(tape, nm.add(tape, a, b)))
    assert a.grad is not b.grad
    a.grad += 1.0
    assert np.all(b.grad == 1.0)
    x = Variable(RNG.standard_normal((2, 3)))
    tape = Tape()
    tape.backward(nm.sum_all(tape, nm.add(tape, x, x)))
    assert np.all(x.grad == 2.0)
