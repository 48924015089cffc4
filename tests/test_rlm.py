import math

import numpy as np
import pytest

import support
from ctxlm import fusion, numeric as nm, rlm
from ctxlm.corpus import ContextWindow, Sentence, Vocabulary
from ctxlm.numeric import Variable
from ctxlm.rlm import lstm_step


def init_rlm_parameters(vocab_size, d_emb, d_h, rng, dtype):
    return fusion.init_parameters(fusion.VARIANTS["RLM"], vocab_size, d_emb, d_h, d_h, d_h,
                                  rng, dtype)


def zero_params(vocab_size=4, d_emb=3, d_h=2):
    rng = np.random.Generator(np.random.PCG64(0))
    params = init_rlm_parameters(vocab_size, d_emb, d_h, rng, np.float64)
    for p in params.values():
        p.value[...] = 0.0
    return params


def rand_params(vocab_size=6, d_emb=3, d_h=4, seed=3):
    rng = np.random.Generator(np.random.PCG64(seed))
    return init_rlm_parameters(vocab_size, d_emb, d_h, rng, np.float64)


def one_row(x):
    """A single input row run as one step."""
    return Variable(np.array([x], dtype=np.float64)), np.array([0, 1])


def test_lstm_step_zero_parameters():
    params = zero_params()
    out = lstm_step(None, params, *one_row([1.0, -2.0, 0.5]), "")
    assert out.shape == (1, 2) and np.all(out.value == 0.0)


def test_lstm_step_scalar_hand_formula():
    """Two steps of one row from the zero state, so the second reads the
    first's h through U and its c through the forget gate."""
    params = zero_params(d_emb=1, d_h=1)
    w = {"W_i": 0.5, "U_i": -0.3, "b_i": 0.1, "W_o": 0.2, "U_o": 0.4, "b_o": -0.2,
         "W_f": -0.7, "U_f": 0.6, "b_f": 0.3, "W_c": 1.1, "U_c": -0.9, "b_c": 0.05}
    for name, val in w.items():
        params[name].value[...] = val
    xs = (0.7, -1.3)
    out = lstm_step(None, params, Variable(np.array([[x] for x in xs])), np.array([0, 1, 2]), "")

    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    h, c = 0.0, 0.0
    for t, x in enumerate(xs):
        i = sig(w["W_i"] * x + w["U_i"] * h + w["b_i"])
        o = sig(w["W_o"] * x + w["U_o"] * h + w["b_o"])
        f = sig(w["W_f"] * x + w["U_f"] * h + w["b_f"])
        c = f * c + i * math.tanh(w["W_c"] * x + w["U_c"] * h + w["b_c"])
        h = o * math.tanh(c)
        assert out.value[t, 0] == pytest.approx(h, abs=1e-12)


def test_lstm_step_saturated_gates_retain_memory():
    """The first step's input opens the input gate and closes the forget gate,
    the second's does the reverse, and the output gate is open: the second
    step keeps the first step's cell, so both give the same h."""
    params = rand_params(d_emb=2, d_h=4)
    for g in "ifo":
        params[f"U_{g}"].value[...] = 0.0
        params[f"b_{g}"].value[...] = 0.0
    params["W_i"].value[...] = [[40.0], [-40.0]]
    params["W_f"].value[...] = [[-40.0], [40.0]]
    params["W_o"].value[...] = 0.0
    params["b_o"].value[...] = 40.0
    x = Variable(np.array([[1.0, 0.0], [0.0, 1.0]]))
    h = lstm_step(None, params, x, np.array([0, 1, 2]), "").value
    assert np.min(np.abs(h[0])) > 1e-3
    assert np.max(np.abs(h[1] - h[0])) < 1e-8


def test_lstm_step_gradients_match_finite_differences():
    """A taped layer of three steps (2, 2 and 1 rows) from the zero state gives
    every gate weight, U and b included, its gradient of sum(H)."""
    params = rand_params(d_emb=3, d_h=4)
    x = np.random.Generator(np.random.PCG64(8)).standard_normal((5, 3))
    bounds = np.array([0, 2, 4, 5])

    def objective(tape):
        return nm.sum_all(tape, lstm_step(tape, params, Variable(x), bounds, ""))

    gates = [name for name in params if name[0] in "WUb" and name not in ("W_out", "b_out")]
    for name, (got, fd) in support.parameter_gradients(objective, params, gates).items():
        assert np.any(got != 0.0), name
        assert support.relative_error(got, fd).max() < 1e-6, name


def test_lstm_step_shape_mismatch():
    params = zero_params(d_emb=3, d_h=2)
    with pytest.raises(ValueError):
        lstm_step(None, params, *one_row([1.0, 2.0]), "")  # d_emb is 3


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
    pairs = support.parameter_gradients(lambda tape: sentence_nll(s, params, tape)[0], params)
    for name, (got, fd) in pairs.items():
        mask = (np.abs(got) + np.abs(fd)) >= 1e-5
        assert support.relative_error(got[mask], fd[mask]).max(initial=0.0) < 1e-4, name
        assert np.max(np.abs(got[~mask] - fd[~mask]), initial=0.0) < 1e-8, name


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
