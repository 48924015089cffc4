import errno
import math
import os
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

import support
from ctxlm import evaluation, fusion, training
from ctxlm import numeric as nm
from ctxlm.corpus import (CorpusError, Document, Sentence, Vocabulary, corpus_windows,
                          filter_by_length)
from ctxlm.numeric import RowGrad
from ctxlm.training import (AdadeltaState, CheckpointError, ConfigError,
                            TrainConfig, adadelta_update, clip_gradients,
                            config_from_mapping, format_config,
                            gradient_batch, load_checkpoint, parse_config_text,
                            save_checkpoint, train)

VOCAB = Vocabulary(["<unk>", "</s>", "a", "b", "c", "d"])


def sent(*ids):
    return Sentence(tuple(ids) + (1,))


def docs_from(pattern):
    return [Document(tuple(sent(*s) for s in doc)) for doc in pattern]


TRAIN_DOCS = docs_from([
    [(2, 3), (2, 3, 4), (3,)],
    [(4, 5), (4, 4), (5, 2, 3)],
    [(3, 3, 3), (2,), (4, 5, 2)],
    [(5,), (5, 4), (2, 2)],
])
VALID_DOCS = docs_from([[(2, 3), (4,)], [(5, 2), (3, 4)]])


def tiny_config(**kw):
    base = dict(variant="RLM-BoW-LF", n=1, d_h=3, d_emb=3, d_ctx=2, vocab_size=6,
                max_len=10, batch_size=4, max_epochs=2, patience=5, seed=11,
                precision="f64")
    base.update(kw)
    return TrainConfig(**base)


# -- adadelta -----------------------------------------------------------------


def test_adadelta_zero_gradient_only_decays_state():
    param = np.array([1.0, -2.0])
    sq_g = np.array([0.4, 0.1])
    sq_d = np.array([0.2, 0.3])
    adadelta_update(param, np.zeros(2), sq_g, sq_d, rho=0.95, eps=1e-6, live=np.ones(2, bool))
    assert np.array_equal(param, [1.0, -2.0])
    assert np.allclose(sq_g, [0.38, 0.095], atol=1e-15)
    assert np.allclose(sq_d, [0.19, 0.285], atol=1e-15)


def test_adadelta_first_step_frozen_value():
    # Eg = 0.05, delta = -sqrt(1e-6)/sqrt(0.05 + 1e-6)
    param = np.array([0.0])
    sq_g = np.zeros(1)
    sq_d = np.zeros(1)
    adadelta_update(param, np.array([1.0]), sq_g, sq_d, rho=0.95, eps=1e-6,
                    live=np.zeros(1, bool))
    assert param[0] == pytest.approx(-4.4720e-3, abs=1e-7)
    assert sq_g[0] == pytest.approx(0.05, abs=1e-15)


def test_adadelta_update_is_scale_free():
    deltas = []
    for g in (1.0, 10.0):
        param = np.array([0.0])
        adadelta_update(param, np.array([g]), np.zeros(1), np.zeros(1), 0.95, 1e-6,
                        np.zeros(1, bool))
        deltas.append(param[0])
    assert abs(deltas[0] - deltas[1]) / abs(deltas[0]) < 0.01


def test_adadelta_state_accumulators_stay_nonnegative():
    rng = np.random.default_rng(0)
    param, sq_g, sq_d = np.zeros(5), np.zeros(5), np.zeros(5)
    for _ in range(50):
        adadelta_update(param, rng.standard_normal(5), sq_g, sq_d, 0.95, 1e-6, np.ones(5, bool))
        assert np.all(sq_g >= 0) and np.all(sq_d >= 0)


def _adadelta_formula(param, grad, sq_grad, sq_delta, rho, eps):
    # the update as one expression per line, allocating full-size temporaries
    sq_grad *= rho
    sq_grad += (1.0 - rho) * grad * grad
    delta = -(np.sqrt(sq_delta + eps) / np.sqrt(sq_grad + eps)) * grad
    sq_delta *= rho
    sq_delta += (1.0 - rho) * delta * delta
    param += delta


def _adadelta_cases(rng, dtype):
    block = training.ADADELTA_BLOCK
    d = 200   # a (d, d) gate slice holds more than one block
    wide = [rng.standard_normal((d, 4 * d)).astype(dtype) for _ in range(4)]
    return {
        "ragged_rows": [rng.standard_normal((37, 1001)).astype(dtype) for _ in range(4)],
        "bias": [rng.standard_normal(3 * block + 5).astype(dtype) for _ in range(4)],
        "one_block": [rng.standard_normal((7, 13)).astype(dtype) for _ in range(4)],
        "gate_columns": [w[:, 2 * d : 3 * d] for w in wide],
    }


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adadelta_update_bitwise_equals_formula(dtype):
    cases = _adadelta_cases(np.random.default_rng(5), dtype)
    for case, (param, grad, sq_g, sq_d) in cases.items():
        grad[..., 0] = 0.0   # zero deltas: signed zeros must match too
        sq_g[...] = np.abs(sq_g)
        sq_d[...] = np.abs(sq_d)
        expect = [a.copy() for a in (param, sq_g, sq_d)]
        for step in range(3):
            _adadelta_formula(expect[0], grad, expect[1], expect[2], 0.95, 1e-6)
            adadelta_update(param, grad, sq_g, sq_d, 0.95, 1e-6, np.ones(len(param), bool))
            for got, want in zip((param, sq_g, sq_d), expect):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (case, step)


def test_adadelta_update_allocates_no_parameter_sized_temporary():
    param = np.zeros((1000, 1000))
    grad = np.ones_like(param)
    sq_g, sq_d = np.zeros_like(param), np.zeros_like(param)
    tracemalloc.start()
    try:
        adadelta_update(param, grad, sq_g, sq_d, 0.95, 1e-6, np.zeros(1000, bool))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < param.nbytes / 8


# each step's touched rows of a (9, 6) parameter: row 2 is touched, missed,
# then touched again; row 5's gradient is all (signed) zeros; row 0 only in
# the last step, which reaches every row
ROW_STEPS = [[1, 2, 5], [1, 3, 5, 7], [2, 4, 5, 8], list(range(9))]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("start", ["fresh", "warm", "no_mask", "dense_first"])
def test_adadelta_row_form_step_is_bitwise_the_dense_step(dtype, start):
    """The row-form step equals adadelta_update on the zero-filled dense
    gradient, bit for bit (signed zeros included), for the parameter and both
    moments after every step. "fresh" starts as training does, with zero
    moments and no live row; "warm" with non-zero moments and every row live;
    "no_mask" with zero moments but every row flagged live, so every row is
    decayed, as if no row were masked; "dense_first"
    starts fresh but takes its first step from a dense gradient, which makes
    every row live."""
    rng = np.random.default_rng(11)
    shape = (9, 6)
    param = rng.standard_normal(shape).astype(dtype)
    if start in ("fresh", "dense_first", "no_mask"):
        sq_g, sq_d = np.zeros(shape, dtype), np.zeros(shape, dtype)
    else:
        sq_g, sq_d = (np.abs(rng.standard_normal(shape)).astype(dtype) for _ in range(2))
    live = np.full(9, start in ("warm", "no_mask"))
    want = [a.copy() for a in (param, sq_g, sq_d)]
    if start == "dense_first":
        first = rng.standard_normal(shape).astype(dtype)
        adadelta_update(*want[:1], first, *want[1:], 0.95, 1e-6, np.ones(9, bool))
        adadelta_update(param, first.copy(), sq_g, sq_d, 0.95, 1e-6, live)
        assert live.all()
    for step, rows in enumerate(ROW_STEPS):
        rows = np.array(rows)
        values = rng.standard_normal((len(rows), 6)).astype(dtype)
        values[rows == 5] = np.array([0.0, -0.0] * 3, dtype)
        dense = np.zeros(shape, dtype)
        dense[rows] = values
        adadelta_update(*want[:1], dense, *want[1:], 0.95, 1e-6, np.ones(9, bool))
        adadelta_update(param, RowGrad(rows, values, shape), sq_g, sq_d, 0.95, 1e-6, live)
        for got, expect in zip((param, sq_g, sq_d), want):
            assert got.dtype == dtype and got.tobytes() == expect.tobytes(), (start, step)
        if start == "fresh" and step == 2:
            # row 0 has not been reached: not live, its moments still exactly 0
            assert live.tolist() == [False] + [True] * 5 + [False, True, True]
            assert not sq_g[0].any() and not sq_d[0].any()
            assert not sq_g[6].any() and not sq_d[6].any()


def test_adadelta_row_step_allocates_only_row_sized_temporaries():
    """A row-form step on 20 of 1000 rows, every row live: the decay works in
    place, and the touched rows' gathered copies stay far below the
    parameter's size."""
    param = np.zeros((1000, 1000))
    grad = RowGrad(np.arange(0, 1000, 50), np.ones((20, 1000)), param.shape)
    sq_g, sq_d = np.ones_like(param), np.ones_like(param)
    live = np.ones(1000, bool)
    tracemalloc.start()
    try:
        adadelta_update(param, grad, sq_g, sq_d, 0.95, 1e-6, live)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < param.nbytes / 8
    assert np.all(param[grad.rows] < 0) and not param[1:50].any()
    assert np.all(sq_g[1:50] == 0.95)


def test_clip_gradients_global_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([4.0])}
    norm = clip_gradients(grads, 1.0)
    assert norm == pytest.approx(5.0)
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert total == pytest.approx(1.0)
    unclipped = {"a": np.array([0.3])}
    clip_gradients(unclipped, 1.0)
    assert unclipped["a"][0] == 0.3
    disabled = {"a": np.array([30.0])}
    clip_gradients(disabled, 0.0)
    assert disabled["a"][0] == 30.0


def test_clip_gradients_adds_squared_norms_left_to_right():
    # squared norms 1e16, 1, 1: a left fold rounds each 1 away (the spacing of
    # doubles at 1e16 is 2), a compensated sum keeps both and gives 1e16 + 2
    grads = {"a": np.array([1e8]), "b": np.array([1.0]), "c": np.array([1.0])}
    assert clip_gradients(grads, 0.0) == 1e8
    # the same with row-form entries first and last
    grads = {"a": RowGrad(np.array([3]), np.array([[1e8]]), (5, 1)), "b": np.array([1.0]),
             "c": RowGrad(np.array([0]), np.array([[1.0]]), (2, 1))}
    assert clip_gradients(grads, 0.0) == 1e8


@pytest.mark.parametrize("gate_view", [False, True])
def test_clip_gradients_makes_no_gradient_sized_temporary(gate_view):
    """A (1000, 1000) float64 gradient, alone or as the column slice of a
    (d, 4d) array that a gate's U receives: the norm is the plain one and
    clipping scales in place, with a traced peak below 1/8 of its bytes."""
    d = 1000
    whole = np.random.default_rng(3).standard_normal((d, 4 * d) if gate_view else (d, d))
    grad = whole[:, d : 2 * d] if gate_view else whole
    expect = math.sqrt(float((grad * grad).sum()))
    scaled = grad / expect
    tracemalloc.start()
    try:
        norm = clip_gradients({"U_o": grad}, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grad.nbytes / 8
    assert norm == pytest.approx(expect, rel=1e-12)
    assert np.allclose(grad, scaled, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(12, 300), (200, 300), (301, 40), (9,)])
def test_clip_gradients_row_form_is_the_dense_clip(shape, dtype):
    """A row-form entry gives its dense array's norm bit for bit, whether the
    table is one block or many (rows in the first, last and a short last
    block, several to a block or alone), and clipping scales its values
    alone, in place, to the dense clip's bits."""
    rng = np.random.default_rng(4)
    rows = np.array([r for r in (0, 3, 4, 9, 54, 55, 120, 199, 300) if r < shape[0]])
    values = rng.standard_normal((len(rows),) + shape[1:]).astype(dtype)
    other = rng.standard_normal((5, 7)).astype(dtype)
    grad = RowGrad(rows, values, shape)
    dense, dense_other = grad.dense(), other.copy()
    expect = clip_gradients({"W": dense_other, "E": dense}, 1.0)
    norm = clip_gradients({"W": other, "E": grad}, 1.0)
    assert norm == expect and norm > 1.0
    assert grad.values is values and grad.rows is rows
    assert grad.dense().tobytes() == dense.tobytes()
    assert other.tobytes() == dense_other.tobytes()


@pytest.mark.parametrize("bad", [math.inf, math.nan, 1e200])
def test_clip_gradients_nonfinite_norm_leaves_gradients_unscaled(bad):
    # 1e200 is finite, but its square overflows the sum of squares
    grads = {"a": np.array([3.0, 4.0]), "b": np.array([bad])}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        norm = clip_gradients(grads, 1.0)
    assert not math.isfinite(norm)
    assert np.array_equal(grads["a"], [3.0, 4.0])


# -- gradient batches ------------------------------------------------------------


def _windows():
    return corpus_windows(TRAIN_DOCS, 1)


def test_gradient_batch_single_window_equals_nll():
    cfg = tiny_config()
    rng = np.random.Generator(np.random.PCG64(3))
    params = fusion.init_parameters(fusion.parse_variant(cfg.variant), len(VOCAB),
                                    cfg.d_emb, cfg.d_h, cfg.d_ctx, cfg.d_a, rng,
                                    np.float64)
    w = _windows()[2]
    loss, grads = gradient_batch([w], params, cfg.variant, VOCAB)
    single = float(fusion.batch_nll([w], params, cfg.variant, VOCAB)[0].value[0])
    assert loss == pytest.approx(single, abs=1e-12)
    assert set(grads) == set(params)


def test_gradient_batch_duplicate_window_same_mean():
    cfg = tiny_config()
    rng = np.random.Generator(np.random.PCG64(3))
    params = fusion.init_parameters(fusion.parse_variant(cfg.variant), len(VOCAB),
                                    cfg.d_emb, cfg.d_h, cfg.d_ctx, cfg.d_a, rng,
                                    np.float64)
    w = _windows()[0]
    one, grads_one = gradient_batch([w], params, cfg.variant, VOCAB)
    two, grads_two = gradient_batch([w, w], params, cfg.variant, VOCAB)
    assert one == pytest.approx(two, abs=1e-12)
    for k in grads_one:
        assert np.allclose(_dense(grads_one[k]), _dense(grads_two[k]), atol=1e-12)


def _dense(g):
    return g.dense() if isinstance(g, RowGrad) else g


@pytest.mark.parametrize("tag", sorted(fusion.VARIANTS))
def test_gradient_batch_hands_over_disjoint_buffers(tag):
    # train() clips and consumes these arrays in place, so none may be shared
    cfg = tiny_config(variant=tag)
    rng = np.random.Generator(np.random.PCG64(3))
    params = fusion.init_parameters(fusion.parse_variant(tag), len(VOCAB), cfg.d_emb,
                                    cfg.d_h, cfg.d_ctx, cfg.d_a, rng, np.float64)
    _, grads = gradient_batch(_windows()[:4], params, tag, VOCAB)
    assert set(grads) == set(params)
    # E and P come in row form, whose row indices and values count as buffers
    assert all(isinstance(grads[k], RowGrad) for k in ("E", "P") if k in params)
    arrays = [a for g in grads.values()
              for a in ((g.rows, g.values) if isinstance(g, RowGrad) else (g,))]
    for i, g in enumerate(arrays):
        for other in arrays[i + 1:]:
            assert not np.shares_memory(g, other)
        for p in params.values():
            assert not np.shares_memory(g, p.value)
    assert all(p.grad is None for p in params.values())


def test_gradient_batch_gives_unreached_parameters_empty_row_gradients():
    """A batch whose windows have no context never reaches the context
    encoder: its parameters get a row-form gradient holding no row, not a
    dense zero array."""
    tag = "RLM-SeqBoW-ATT-LF"
    cfg = tiny_config(variant=tag)
    params = fusion.init_parameters(fusion.parse_variant(tag), len(VOCAB), cfg.d_emb,
                                    cfg.d_h, cfg.d_ctx, cfg.d_a,
                                    np.random.Generator(np.random.PCG64(3)), np.float64)
    windows = [w for w in _windows() if not w.context][:3]
    _, grads = gradient_batch(windows, params, tag, VOCAB)
    unreached = {k for k, g in grads.items() if isinstance(g, RowGrad) and not len(g.rows)}
    assert unreached == {"P", "W_a", "U_a", "v_a"} | {k for k in params if k[:3] in ("cf_", "cr_")}
    assert all(isinstance(grads[k], np.ndarray) for k in params if k not in unreached | {"E"})
    assert grads["P"].values.shape == (0, cfg.d_ctx)


# -- train loop -------------------------------------------------------------------


def test_format_log_is_canonical_and_excludes_timing():
    Rec = training.EpochRecord
    fast = [Rec(1, 2.5, 0.1 + 0.2, 0.01), Rec(2, 2.0, 1e-17, 0.02)]
    slow = [Rec(1, 2.5, 0.1 + 0.2, 9.0), Rec(2, 2.0, 1e-17, 8.0)]
    assert support.format_log(fast) == support.format_log(slow) == (
        "1,2.5,0.30000000000000004\n2,2.0,1e-17\n")
    assert support.format_log([]) == ""


def test_train_is_deterministic_bit_exact():
    cfg = tiny_config(max_epochs=3)
    a = train(cfg, TRAIN_DOCS, VALID_DOCS, VOCAB)
    b = train(cfg, TRAIN_DOCS, VALID_DOCS, VOCAB)
    assert support.format_log(a.log) == support.format_log(b.log)
    for name in a.checkpoint.arrays:
        assert np.array_equal(a.checkpoint.arrays[name], b.checkpoint.arrays[name]), name
    assert a.checkpoint.rng_state == b.checkpoint.rng_state


def test_train_nll_decreases_on_degenerate_corpus():
    docs = docs_from([[(2, 2, 2)]] * 8)
    cfg = tiny_config(variant="RLM", n=0, max_epochs=5, batch_size=2, seed=2)
    result = train(cfg, docs, docs, VOCAB)
    nlls = [r.train_nll for r in result.log]
    assert len(nlls) == 5
    assert all(b < a for a, b in zip(nlls, nlls[1:]))


def test_train_returns_best_checkpoint_and_stops_early():
    calls = []

    def fake_mean_nll(windows, params, variant, vocab, batch_size):
        values = {1: 3.0, 2: 2.0, 3: 4.0, 4: 5.0, 5: 6.0, 6: 7.0, 7: 8.0}
        calls.append(len(calls) + 1)
        return values[calls[-1]]

    original = training.mean_window_nll
    training.mean_window_nll = fake_mean_nll
    try:
        cfg = tiny_config(max_epochs=10, patience=2)
        result = train(cfg, TRAIN_DOCS, VALID_DOCS, VOCAB)
    finally:
        training.mean_window_nll = original
    assert len(result.log) == 5  # epoch 5 runs, then training halts
    assert result.checkpoint.epoch == 2
    assert result.checkpoint.best_valid_nll == 2.0


@pytest.mark.parametrize("patience", [1, 2, 3])
def test_train_stops_after_patience_epochs_without_strict_improvement(monkeypatch, patience):
    # an equal validation NLL is no improvement: epoch 1 stays the best, and
    # the epoch that makes patience + 1 without one is the last
    monkeypatch.setattr(training, "mean_window_nll",
                        lambda windows, params, variant, vocab, batch_size: 2.0)
    result = train(tiny_config(max_epochs=10, patience=patience), TRAIN_DOCS, VALID_DOCS,
                   VOCAB)
    assert [r.epoch for r in result.log] == list(range(1, patience + 3))
    assert result.checkpoint.epoch == 1
    assert result.checkpoint.best_valid_nll == 2.0


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_validation_nll_is_the_evaluation_loop_mean(precision):
    """The logged validation NLL is evaluation's per-window NLLs of the length-
    filtered validation windows under the kept parameters, added left to right
    in float64: not a float32 or a pairwise sum of each batch, which give
    other bits on these windows in both precisions."""
    rng = np.random.default_rng(1)
    valid = docs_from([[rng.integers(2, 6, rng.integers(1, 5)).tolist() for _ in range(6)]
                       for _ in range(4)] + [[(2, 3, 4, 5, 2, 3, 4, 5, 2, 3, 4)]])
    cfg = tiny_config(precision=precision, max_epochs=1, batch_size=16)
    result = train(cfg, TRAIN_DOCS, valid, VOCAB)
    windows = corpus_windows(filter_by_length(valid, cfg.max_len), cfg.n)
    assert len(windows) == 24  # batches of 16 and 8; the 11-word sentence is filtered out
    nlls, _ = evaluation.window_nlls(evaluation.Model.from_checkpoint(result.checkpoint),
                                     windows, cfg.batch_size)
    assert result.log[0].valid_nll == nm.fold_sum(nlls) / len(windows)


def test_train_divergence_returns_last_good_checkpoint(monkeypatch):
    state = {"batches": 0}

    def exploding(windows, params, variant, vocab):
        state["batches"] += 1
        if state["batches"] > 3:
            return float("nan"), {k: np.zeros_like(p.value) for k, p in params.items()}
        return 1.0, {k: np.zeros_like(p.value) for k, p in params.items()}

    monkeypatch.setattr(training, "gradient_batch", exploding)
    cfg = tiny_config(max_epochs=4)
    result = train(cfg, TRAIN_DOCS, VALID_DOCS, VOCAB)
    assert result.diverged
    assert result.checkpoint is not None


def test_train_nonfinite_gradient_aborts(monkeypatch):
    def nan_grads(windows, params, variant, vocab):
        return 1.0, {k: np.full_like(p.value, np.nan) for k, p in params.items()}

    monkeypatch.setattr(training, "gradient_batch", nan_grads)
    cfg = tiny_config()
    result = train(cfg, TRAIN_DOCS, VALID_DOCS, VOCAB)
    _assert_initial_checkpoint(result, cfg)


def _assert_initial_checkpoint(result, cfg):
    assert result.diverged
    assert result.checkpoint.epoch == 0
    # the epoch-0 checkpoint is the seeded initial state, bit for bit
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    fresh = fusion.init_parameters(fusion.parse_variant(cfg.variant), len(VOCAB), cfg.d_emb,
                                   cfg.d_h, cfg.d_ctx, cfg.d_a, rng, cfg.dtype)
    arrays = result.checkpoint.arrays
    assert len(arrays) == len(fresh)
    for name, p in fresh.items():
        assert arrays[name].dtype == p.value.dtype
        assert np.array_equal(arrays[name], p.value), name
    assert result.checkpoint.rng_state == training.encode_rng_state(rng)
    assert result.checkpoint.best_valid_nll == math.inf


def _row_form_grads(params, name, bad):
    """Dense ones for every parameter but E and P, which get row-form ones
    over rows 1 and 3; one entry of ``name``'s last row is ``bad``."""
    grads = {k: np.ones_like(p.value) for k, p in params.items()}
    for k in ("E", "P"):
        rows = np.array([1, 3])
        values = np.ones((2,) + params[k].shape[1:], params[k].dtype)
        grads[k] = RowGrad(rows, values, params[k].shape)
    grads[name].values[-1, 0] = bad
    return grads


@pytest.mark.parametrize("bad", [math.inf, math.nan, 1e200])
@pytest.mark.parametrize("name", ["E", "P"])
def test_train_nonfinite_row_gradient_aborts(monkeypatch, name, bad):
    """A row-form gradient keeps a non-finite value in its row (the dense
    product spread it over every row); the norm still sees it, and train
    returns the seeded initial checkpoint."""
    monkeypatch.setattr(training, "gradient_batch",
                        lambda windows, params, variant, vocab:
                        (1.0, _row_form_grads(params, name, bad)))
    cfg = tiny_config()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = train(cfg, TRAIN_DOCS, VALID_DOCS, VOCAB)
    _assert_initial_checkpoint(result, cfg)


def test_train_returns_the_best_epoch_state_not_a_later_one(monkeypatch):
    # best epoch 2 of 3: its snapshot must not follow the parameters into epoch 3
    seen = []

    def fake_mean_nll(windows, params, variant, vocab, batch_size):
        seen.append({name: p.value.copy() for name, p in params.items()})
        return {1: 3.0, 2: 2.0, 3: 2.5}[len(seen)]

    monkeypatch.setattr(training, "mean_window_nll", fake_mean_nll)
    result = train(tiny_config(max_epochs=3), TRAIN_DOCS, VALID_DOCS, VOCAB)
    assert not result.diverged
    assert result.checkpoint.epoch == 2
    after_epoch2, after_epoch3 = seen[1], seen[2]
    for name, value in after_epoch2.items():
        assert np.array_equal(result.checkpoint.arrays[name], value), name
    assert any(not np.array_equal(result.checkpoint.arrays[name], value)
               for name, value in after_epoch3.items())


def test_best_epoch_snapshot_copies_only_the_parameters(monkeypatch):
    # epoch 1 improves while epoch 2 can still move the parameters, so its
    # snapshot is a copy: of the parameters alone, not of optimizer state
    monkeypatch.setattr(training, "mean_window_nll",
                        lambda windows, params, variant, vocab, batch_size: 3.0)
    snapshot = training._snapshot
    peaks = []

    def traced(config, params, *args, copy):
        if not copy:
            return snapshot(config, params, *args, copy=copy)
        tracemalloc.start()
        try:
            ckpt = snapshot(config, params, *args, copy=copy)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak / sum(p.value.nbytes for p in params.values()))
        return ckpt

    monkeypatch.setattr(training, "_snapshot", traced)
    cfg = tiny_config(d_h=96, d_emb=96, d_ctx=96, max_epochs=2)
    result = train(cfg, TRAIN_DOCS, VALID_DOCS, VOCAB)
    assert result.checkpoint.epoch == 1
    assert len(peaks) == 1
    assert peaks[0] <= 1.25, f"snapshot copy peaked at {peaks[0]:.2f}x the parameter bytes"


@pytest.mark.parametrize("bad", [math.inf, 1e200])
def test_train_diverges_on_last_gradient_before_any_update(monkeypatch, bad):
    # one +inf (or a finite value whose square overflows) in the last
    # parameter's gradient: no parameter may move, no warning may be raised
    seen = {}

    def one_bad_entry(windows, params, variant, vocab):
        seen["params"] = params
        seen["before"] = {k: p.value.copy() for k, p in params.items()}
        grads = {k: np.ones_like(p.value) for k, p in params.items()}
        grads[list(grads)[-1]].flat[0] = bad
        return 1.0, grads

    monkeypatch.setattr(training, "gradient_batch", one_bad_entry)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = train(tiny_config(), TRAIN_DOCS, VALID_DOCS, VOCAB)
    assert result.diverged
    assert result.checkpoint.epoch == 0
    for name, p in seen["params"].items():
        assert np.array_equal(p.value, seen["before"][name]), name


@pytest.mark.parametrize("bad", [math.inf, math.nan, 1e200])
@pytest.mark.parametrize("name", ["E", "P"])
def test_train_diverges_on_row_form_gradient_before_any_update(monkeypatch, name, bad):
    # one bad entry in E's or P's row values (E is the first parameter, P
    # follows dense ones): no Adadelta step runs and no parameter moves
    seen = {}

    def one_bad_entry(windows, params, variant, vocab):
        seen["params"] = params
        seen["before"] = {k: p.value.copy() for k, p in params.items()}
        return 1.0, _row_form_grads(params, name, bad)

    def no_update(*args):
        raise AssertionError("adadelta_update ran on a diverged batch")

    monkeypatch.setattr(training, "gradient_batch", one_bad_entry)
    monkeypatch.setattr(training, "adadelta_update", no_update)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = train(tiny_config(), TRAIN_DOCS, VALID_DOCS, VOCAB)
    assert result.diverged
    assert result.checkpoint.epoch == 0
    for k, p in seen["params"].items():
        assert np.array_equal(p.value, seen["before"][k]), k


# the training corpus never uses e and f; </s> is never an input and no
# context counts it; <unk> never occurs
WIDE_VOCAB = Vocabulary(["<unk>", "</s>", "a", "b", "c", "d", "e", "f"])
UNUSED_ROWS = [0, 1, 6, 7]


def test_train_leaves_unreached_rows_of_E_and_P_untouched(monkeypatch):
    """After two epochs, every row of E and P that no window reaches keeps
    its initial bits, both its moments are exactly 0, and it is not live:
    the rows a batch misses cost nothing."""
    state = {}
    update = training.adadelta_update

    def spy(param, grad, sq_grad, sq_delta, rho, eps, live):
        state[param.shape] = (param, sq_grad, sq_delta, live)
        update(param, grad, sq_grad, sq_delta, rho, eps, live)

    monkeypatch.setattr(training, "adadelta_update", spy)
    cfg = tiny_config(max_epochs=2)
    result = train(cfg, TRAIN_DOCS, VALID_DOCS, WIDE_VOCAB)
    assert not result.diverged and len(result.log) == 2
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    initial = fusion.init_parameters(fusion.parse_variant(cfg.variant), len(WIDE_VOCAB),
                                     cfg.d_emb, cfg.d_h, cfg.d_ctx, cfg.d_a, rng, cfg.dtype)
    for name in ("E", "P"):
        before = initial[name].value
        final, sq_grad, sq_delta, live = state[before.shape]
        assert final[UNUSED_ROWS].tobytes() == before[UNUSED_ROWS].tobytes(), name
        zeros = np.zeros_like(final[UNUSED_ROWS]).tobytes()
        assert sq_grad[UNUSED_ROWS].tobytes() == zeros, name
        assert sq_delta[UNUSED_ROWS].tobytes() == zeros, name
        assert not live[UNUSED_ROWS].any() and live[[2, 3, 4, 5]].all(), name
        assert np.all(final[[2, 3, 4, 5]] != before[[2, 3, 4, 5]]), name


@pytest.mark.parametrize("tag", ["RLM-BoW-LF", "RLM-SeqBoW-ATT-EF"])
def test_training_forms_no_dense_gradient_of_E_or_P(tag, monkeypatch):
    """Through a whole two-epoch run, E and P receive only row-form
    gradients over fewer rows than they have: no dense gradient of either is
    allocated, accumulated or densified."""
    tables = []
    dense_uses = []
    batch = training.gradient_batch

    def spy_batch(windows, params, variant, vocab):
        tables[:] = [params["E"], params["P"]]
        loss, grads = batch(windows, params, variant, vocab)
        for name in ("E", "P"):
            g = grads[name]
            assert type(g) is RowGrad and len(g.rows) < len(params[name].value), name
        return loss, grads

    def dense_spy(method):
        def spy(self, *args, **kwargs):
            if any(self is t for t in tables):
                dense_uses.append(method.__name__)
            return method(self, *args, **kwargs)
        return spy

    monkeypatch.setattr(training, "gradient_batch", spy_batch)
    for method in ("grad_buffer", "add_grad", "add_grad_leading"):
        monkeypatch.setattr(nm.Variable, method, dense_spy(getattr(nm.Variable, method)))
    monkeypatch.setattr(RowGrad, "dense", dense_spy(RowGrad.dense))
    result = train(tiny_config(variant=tag, max_epochs=2), TRAIN_DOCS, VALID_DOCS, WIDE_VOCAB)
    assert not result.diverged and len(result.log) == 2
    assert dense_uses == []


def test_train_empty_windows_raises():
    with pytest.raises(CorpusError):
        train(tiny_config(max_len=1), docs_from([[(2, 3, 4)]]), VALID_DOCS, VOCAB)


# -- checkpoints -------------------------------------------------------------------


def test_checkpoint_roundtrip_byte_identical(tmp_path):
    cfg = tiny_config(max_epochs=1)
    result = train(cfg, TRAIN_DOCS, VALID_DOCS, VOCAB)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(result.checkpoint, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for name, arr in result.checkpoint.arrays.items():
        assert np.array_equal(loaded.arrays[name], arr)
    assert loaded.vocab_tokens == list(VOCAB.tokens)
    assert loaded.config == cfg
    assert loaded.epoch == result.checkpoint.epoch
    assert loaded.best_valid_nll == result.checkpoint.best_valid_nll
    assert loaded.rng_state == result.checkpoint.rng_state


class _DiskFullAfter:
    """A binary file that accepts `limit` bytes, then fails like a full disk."""

    def __init__(self, fh, limit):
        self.fh, self.left = fh, limit

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        data = bytes(data)
        if len(data) > self.left:
            self.fh.write(data[: self.left])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.left -= len(data)
        return self.fh.write(data)

    def flush(self):
        self.fh.flush()

    def fileno(self):
        return self.fh.fileno()


def test_failed_checkpoint_write_keeps_the_earlier_file(tmp_path, monkeypatch):
    result = train(tiny_config(max_epochs=1), TRAIN_DOCS, VALID_DOCS, VOCAB)
    path = tmp_path / "m.ckpt"
    save_checkpoint(result.checkpoint, path)
    before = path.read_bytes()
    monkeypatch.setattr(training, "open",
                        lambda *a, **kw: _DiskFullAfter(open(*a, **kw), len(before) // 2),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(result.checkpoint, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.ckpt"]


def test_checkpoint_binary_layout(tmp_path):
    cfg = tiny_config(max_epochs=1)
    result = train(cfg, TRAIN_DOCS, VALID_DOCS, VOCAB)
    path = tmp_path / "m.ckpt"
    save_checkpoint(result.checkpoint, path)
    blob = path.read_bytes()
    assert blob[:6] == b"CTXLM1"
    version, count = struct.unpack_from("<II", blob, 6)
    assert version == 2
    assert count == len(result.checkpoint.arrays)
    (name_len,) = struct.unpack_from("<H", blob, 14)
    name = blob[16 : 16 + name_len].decode("utf-8")
    assert name == next(iter(result.checkpoint.arrays))
    code, rank = struct.unpack_from("<BB", blob, 16 + name_len)
    assert code == 2  # f64
    assert rank == result.checkpoint.arrays[name].ndim


def test_checkpoint_rejects_every_truncation_and_trailing_bytes(tmp_path):
    result = train(tiny_config(max_epochs=1), TRAIN_DOCS, VALID_DOCS, VOCAB)
    path = tmp_path / "a.ckpt"
    save_checkpoint(result.checkpoint, path)
    blob = path.read_bytes()
    cut_path = tmp_path / "cut.ckpt"
    for cut in range(len(blob)):
        cut_path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(cut_path)
    cut_path.write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointError, match="after the checkpoint's end"):
        load_checkpoint(cut_path)


def test_checkpoint_load_holds_no_second_copy(tmp_path):
    ckpt = train(tiny_config(max_epochs=1), TRAIN_DOCS, VALID_DOCS, VOCAB).checkpoint
    ckpt.config = tiny_config(variant="RLM", d_h=256, d_emb=256)
    params = fusion.init_parameters(fusion.parse_variant("RLM"), len(VOCAB), 256, 256, 256,
                                    256, np.random.Generator(np.random.PCG64(5)), np.float64)
    ckpt.arrays = {name: p.value for name, p in params.items()}
    path = tmp_path / "big.ckpt"
    save_checkpoint(ckpt, path)
    array_bytes = sum(a.nbytes for a in ckpt.arrays.values())
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(loaded.arrays[k], a) for k, a in ckpt.arrays.items())
    assert peak < 1.25 * array_bytes


def test_checkpoint_parameters_must_fit_the_config(tmp_path):
    """A checkpoint whose arrays lack a parameter, carry one more (optimizer
    moments included), or have a wrong shape or precision is refused at load,
    and so is a version-1 file, which carried the Adadelta moments."""
    good = train(tiny_config(max_epochs=1), TRAIN_DOCS, VALID_DOCS, VOCAB).checkpoint
    path = tmp_path / "m.ckpt"
    save_checkpoint(good, path)
    assert set(load_checkpoint(path).model_params()) == set(fusion.parameter_shapes(
        fusion.parse_variant("RLM-BoW-LF"), len(VOCAB), 3, 3, 2, 2))
    arrays = dict(good.arrays)
    cases = {
        "missing W_p": {k: a for k, a in arrays.items() if k != "W_p"},
        "unexpected W_extra": {**arrays, "W_extra": np.zeros(2)},
        "unexpected opt.Eg.E": {**arrays, "opt.Eg.E": np.zeros_like(arrays["E"])},
        "W_out is (3, 5), not (3, 6)": {**arrays, "W_out": arrays["W_out"][:, :5]},
        "b_r is float32, not f64": {**arrays, "b_r": arrays["b_r"].astype(np.float32)},
    }
    for message, bad in cases.items():
        good.arrays = bad
        save_checkpoint(good, path)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path)
    good.arrays = {**arrays, **{f"opt.{m}.{k}": np.zeros_like(a)
                                for m in ("Eg", "Ed") for k, a in arrays.items()}}
    save_checkpoint(good, path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, len(training.CHECKPOINT_MAGIC), 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)


def test_parameter_shapes_are_what_init_parameters_draws():
    rng = np.random.Generator(np.random.PCG64(0))
    for tag, variant in fusion.VARIANTS.items():
        shapes = fusion.parameter_shapes(variant, 9, 5, 4, 3, 2)
        params = fusion.init_parameters(variant, 9, 5, 4, 3, 2, rng, np.float32)
        assert list(shapes) == list(params), tag
        assert all(params[k].shape == s for k, s in shapes.items()), tag


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTLM1" + b"\x00" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


# -- config files -------------------------------------------------------------------


def test_config_parse_roundtrip():
    cfg = tiny_config()
    text = format_config(cfg)
    again = config_from_mapping(parse_config_text(text))
    assert again == cfg


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="learning_rate"):
        config_from_mapping({"variant": "RLM", "n": "1", "learning_rate": "0.1"})


def test_config_missing_required_keys():
    with pytest.raises(ConfigError, match="variant"):
        config_from_mapping({"n": "1"})
    with pytest.raises(ConfigError, match="'n'"):
        config_from_mapping({"variant": "RLM"})


def test_config_type_errors_and_validation():
    with pytest.raises(ConfigError, match="integer"):
        config_from_mapping({"variant": "RLM", "n": "one"})
    with pytest.raises(ConfigError, match="rho"):
        TrainConfig(variant="RLM", n=1, rho=1.5)
    with pytest.raises(ValueError):
        TrainConfig(variant="RLM-XL", n=1)
    with pytest.raises(ConfigError, match="patience"):
        TrainConfig(variant="RLM", n=1, patience=0)
    for value in ("nan", "inf", "-inf"):
        with pytest.raises(ConfigError, match="eps"):
            config_from_mapping({"variant": "RLM", "n": "1", "eps": value})
        with pytest.raises(ConfigError, match="clip_norm"):
            config_from_mapping({"variant": "RLM", "n": "1", "clip_norm": value})
    assert TrainConfig(variant="RLM", n=1, clip_norm=-1.0).clip_norm == -1.0  # no clipping


def test_config_duplicate_key_and_bad_line():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("n = 1\nn = 2\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("just words\n")


def test_config_defaults_derived_dims():
    cfg = TrainConfig(variant="RLM", n=2, d_h=16)
    assert cfg.d_emb == 16 and cfg.d_ctx == 16 and cfg.d_a == 16
    assert cfg.max_len == 50 and cfg.rho == 0.95 and cfg.eps == 1e-6


def test_adadelta_state_factory():
    rng = np.random.Generator(np.random.PCG64(0))
    params = fusion.init_parameters(fusion.parse_variant("RLM"), 4, 2, 2, 2, 2,
                                    rng, np.float64)
    opt = AdadeltaState.for_params(params)
    assert set(opt.sq_grad) == set(params)
    assert all(np.all(v == 0) for v in opt.sq_grad.values())


def test_adadelta_state_memory_cannot_hold_is_a_config_error(monkeypatch):
    """A MemoryError while the moments are allocated names the parameter; the
    allocation is made to fail, never requested for real."""
    params = {"W": nm.Variable(np.ones((2, 3))), "b": nm.Variable(np.ones(3))}
    zeros = np.zeros

    def failing(shape, dtype=float):
        if shape == (2, 3):
            raise MemoryError("Unable to allocate")
        return zeros(shape, dtype)

    monkeypatch.setattr(np, "zeros", failing)
    with pytest.raises(ConfigError, match=r"^the Adadelta state of parameter W of shape "
                                          r"\(2, 3\) does not fit in memory$"):
        AdadeltaState.for_params(params)
