import math

import numpy as np
import pytest

import support
from ctxlm import fusion, numeric as nm, rlm
from ctxlm.corpus import ContextWindow, Sentence, Vocabulary
from ctxlm.numeric import Tape, Variable
from ctxlm.rlm import LstmState, lstm_step


def init_rlm_parameters(vocab_size, d_emb, d_h, rng, dtype):
    return rlm.draw_parameters(rlm.rlm_shapes(vocab_size, d_emb, d_h), rng, dtype)


def zero_params(vocab_size=4, d_emb=3, d_h=2):
    rng = np.random.Generator(np.random.PCG64(0))
    params = init_rlm_parameters(vocab_size, d_emb, d_h, rng, np.float64)
    for p in params.values():
        p.value[...] = 0.0
    return params


def rand_params(vocab_size=6, d_emb=3, d_h=4, seed=3):
    rng = np.random.Generator(np.random.PCG64(seed))
    return init_rlm_parameters(vocab_size, d_emb, d_h, rng, np.float64)


def row(*vals):
    return Variable(np.array([list(vals)], dtype=np.float64))


def zero_state(d_h):
    return LstmState(Variable(np.zeros((1, d_h))), Variable(np.zeros((1, d_h))))


def test_lstm_step_zero_parameters():
    params = zero_params()
    state = zero_state(2)
    out = lstm_step(row(1.0, -2.0, 0.5), state, params)
    assert np.all(out.h.value == 0.0)
    assert np.all(out.c.value == 0.0)


def test_lstm_step_scalar_hand_formula():
    params = zero_params(d_emb=1, d_h=1)
    w = {"W_i": 0.5, "U_i": -0.3, "b_i": 0.1, "W_o": 0.2, "U_o": 0.4, "b_o": -0.2,
         "W_f": -0.7, "U_f": 0.6, "b_f": 0.3, "W_c": 1.1, "U_c": -0.9, "b_c": 0.05}
    for name, val in w.items():
        params[name].value[...] = val
    x, h0, c0 = 0.7, -0.2, 0.4
    state = LstmState(row(h0), row(c0))
    out = lstm_step(row(x), state, params)

    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    i = sig(w["W_i"] * x + w["U_i"] * h0 + w["b_i"])
    o = sig(w["W_o"] * x + w["U_o"] * h0 + w["b_o"])
    f = sig(w["W_f"] * x + w["U_f"] * h0 + w["b_f"])
    c1 = f * c0 + i * math.tanh(w["W_c"] * x + w["U_c"] * h0 + w["b_c"])
    h1 = o * math.tanh(c1)
    assert out.c.value[0, 0] == pytest.approx(c1, abs=1e-12)
    assert out.h.value[0, 0] == pytest.approx(h1, abs=1e-12)


def test_lstm_step_saturated_gates_retain_memory():
    params = rand_params(d_emb=3, d_h=4)
    params["b_f"].value[...] = 20.0
    params["b_i"].value[...] = -20.0
    c0 = np.array([[0.3, -0.8, 0.1, 0.5]])
    state = LstmState(Variable(np.zeros((1, 4))), Variable(c0.copy()))
    out = lstm_step(row(0.2, -0.1, 0.4), state, params)
    assert np.max(np.abs(out.c.value - c0)) < 1e-8


def test_lstm_step_gradients_match_finite_differences():
    """A taped step from a nonzero state gives every gate weight, U and b
    included, its gradient of sum(h) + sum(c)."""
    params = rand_params(d_emb=3, d_h=4)
    rng = np.random.Generator(np.random.PCG64(8))
    x, h0, c0 = (rng.standard_normal((2, d)) for d in (3, 4, 4))

    def objective(tape):
        out = lstm_step(Variable(x), LstmState(Variable(h0), Variable(c0)), params, tape)
        return nm.sum_all(tape, nm.add(tape, out.h, out.c))

    tape = Tape()
    tape.backward(objective(tape))
    for name, p in params.items():
        if name[0] not in "WUb" or name in ("W_out", "b_out"):
            continue
        got = p.grad_buffer().copy().ravel()

        def f(theta, p=p):
            saved = p.value
            p.value = theta.reshape(saved.shape)
            out = float(objective(None).value)
            p.value = saved
            return out

        fd = support.finite_difference_gradient(f, p.value.ravel().copy())
        assert np.any(got != 0.0), name
        assert support.relative_error(got, fd).max() < 1e-6, name


def test_lstm_step_shape_mismatch():
    params = zero_params(d_emb=3, d_h=2)
    state = zero_state(2)
    with pytest.raises(ValueError):
        lstm_step(row(1.0, 2.0), state, params)  # d_emb is 3


def vocab_of(size):
    return Vocabulary(["<unk>", "</s>"] + [f"w{i}" for i in range(size - 2)])


def sentence_nll(sentence, params, tape=None):
    """The sentence model alone: the RLM variant on a window without context
    -> (scalar NLL Variable, per-position NLLs)."""
    vocab = vocab_of(params["b_out"].shape[0])
    total, token_nll = fusion.batch_nll([ContextWindow(sentence, ())], params, "RLM", vocab,
                                        tape)
    return nm.sum_all(tape, total), token_nll


def test_sentence_nll_uniform_model():
    V = 10
    params = zero_params(vocab_size=V)
    s = Sentence((2, 3, 2, 1))  # three content tokens + EOS
    nll, _ = sentence_nll(s, params)
    assert float(nll.value) == pytest.approx(4 * math.log(V), abs=1e-12)


def test_sentence_nll_nonnegative_and_distributions_normalized():
    V = 6
    params = rand_params(vocab_size=V)
    nll, token_nll = sentence_nll(Sentence((2, 4, 1)), params)
    assert float(nll.value) >= 0.0
    assert token_nll.shape == (3,) and np.all(token_nll > 0)
    assert token_nll.sum() == pytest.approx(float(nll.value), abs=1e-12)
    # the first prediction's probabilities over every next token sum to one
    first = [math.exp(-sentence_nll(Sentence((w, 1)), params)[1][0]) for w in range(V)]
    assert abs(sum(first) - 1.0) < 1e-12


def test_sentence_nll_gradients_match_finite_differences():
    params = rand_params(vocab_size=5, d_emb=2, d_h=3)
    s = Sentence((2, 3, 1))
    tape = Tape()
    nll, _ = sentence_nll(s, params, tape)
    tape.backward(nll)
    for name, p in params.items():
        got = p.grad_buffer().copy().ravel()
        shape = p.value.shape

        def f(theta, p=p):
            saved = p.value
            p.value = theta.reshape(shape)
            out = float(sentence_nll(s, params)[0].value)
            p.value = saved
            return out

        fd = support.finite_difference_gradient(f, p.value.ravel().copy())
        mask = (np.abs(got) + np.abs(fd)) >= 1e-5
        assert support.relative_error(got[mask], fd[mask]).max(initial=0.0) < 1e-4, name
        assert np.max(np.abs(got[~mask] - fd[~mask]), initial=0.0) < 1e-8, name
        p.zero_grad()


def test_parameter_count():
    V, d_emb, d_h = 6, 3, 4
    params = init_rlm_parameters(V, d_emb, d_h,
                                 np.random.Generator(np.random.PCG64(0)), np.float64)
    expect = (V + 1) * d_emb  # embedding incl. begin-of-sentence row
    expect += 4 * (d_emb * d_h + d_h * d_h + d_h)
    expect += d_h * V + V
    assert support.parameter_count(params) == expect


def test_precision_modes():
    rng = np.random.Generator(np.random.PCG64(0))
    params32 = init_rlm_parameters(4, 2, 2, rng, np.float32)
    assert all(p.dtype == np.float32 for p in params32.values())
    out, token_nll = sentence_nll(Sentence((2, 1)), params32)
    assert out.value.dtype == np.float32 and token_nll.dtype == np.float32
