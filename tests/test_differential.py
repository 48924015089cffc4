"""Differential test of the batch engine against the independent oracle.

Hypothesis draws tiny corpora: documents of one to three-token sentences over
a few words and ``<unk>``, windows at every position of a document (so many
have fewer than n context sentences, and with n = 0 none has any), batches
of one, batches whose targets share one length, and batches whose windows
all have the same, or all different, context counts. For every variant, in
float64, the engine must agree with ``tests/oracle.py`` per window and per
position, give each window the same NLL whatever its batch partners, and
give gradients that central differences confirm, on rows of E and P the
batch reaches and on rows it does not.

Tolerances, set from a run of 7 variants x 80 examples and then given about
30x headroom: the engine and the oracle differed by at most 4.4e-16 nats
per position and 1.8e-15 per window total, and a window's total alone and
in its batch by at most 1.8e-15. The last is not 0 because numpy sends a
one-row product to gemv, whose rows round differently from gemm's.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
import support
from ctxlm import fusion, numeric as nm
from ctxlm.corpus import Document, Sentence, Vocabulary, corpus_windows
from ctxlm.numeric import Tape

ORACLE_TOLERANCE = 5e-14     # nats, per position and per window total
PARTNER_TOLERANCE = 5e-14    # nats, a window's total alone against in its batch
DIMS = dict(d_emb=3, d_h=3, d_ctx=2, d_a=2)
FD_COORDINATES = 8           # random coordinates per example, besides E's and P's rows


@st.composite
def cases(draw):
    """-> (vocabulary size, windows, parameter seed, parameter scale)."""
    V = draw(st.integers(3, 6))
    words = st.sampled_from([0] + list(range(2, V)))  # <unk> and the content words
    same_length = draw(st.booleans())
    length = draw(st.integers(1, 3))
    documents = []
    for _ in range(draw(st.integers(1, 3))):
        sentences = []
        for _ in range(draw(st.integers(1, 4))):
            size = length if same_length else draw(st.integers(1, 3))
            sentences.append(Sentence(tuple(draw(words) for _ in range(size)) + (1,)))
        documents.append(Document(tuple(sentences)))
    windows = corpus_windows(documents, draw(st.integers(0, 3)))
    mode = draw(st.sampled_from(["all", "one", "equal", "distinct"]))
    if mode == "one":
        windows = [windows[draw(st.integers(0, len(windows) - 1))]]
    elif mode == "equal":  # every window has the first one's context count
        windows = [w for w in windows if len(w.context) == len(windows[0].context)]
    elif mode == "distinct":  # the first window of each context count
        firsts = {}
        for w in windows:
            firsts.setdefault(len(w.context), w)
        windows = list(firsts.values())
    return V, windows, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([1.0, 6.0]))


def _params(tag, V, seed, scale):
    rng = np.random.Generator(np.random.PCG64(seed))
    params = fusion.init_parameters(fusion.parse_variant(tag), V, DIMS["d_emb"], DIMS["d_h"],
                                    DIMS["d_ctx"], DIMS["d_a"], rng, np.float64)
    for p in params.values():
        p.value *= scale
    return params


def _coordinates(params, windows, V, rng):
    """(name, flat index) pairs: random ones, and one in a row of E and of P
    that the batch reaches and one in a row it does not, where both exist."""
    names = list(params)
    picks = []
    for _ in range(FD_COORDINATES):
        name = names[rng.integers(len(names))]
        picks.append((name, int(rng.integers(params[name].value.size))))
    reached = {"E": {V} | {t for w in windows for t in w.target.token_ids[:-1]},
               "P": {t for w in windows for s in w.context for t in s.content_ids}}
    for name, rows in reached.items():
        if name not in params:
            continue
        width = params[name].shape[1]
        missed = sorted(set(range(params[name].shape[0])) - rows)
        for pool in (sorted(rows), missed):
            if pool:
                row = pool[rng.integers(len(pool))]
                picks.append((name, row * width + int(rng.integers(width))))
    return picks


@pytest.mark.parametrize("tag", sorted(fusion.VARIANTS))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(case=cases())
def test_engine_matches_oracle_partners_and_finite_differences(tag, case):
    V, windows, seed, scale = case
    vocab = Vocabulary(["<unk>", "</s>"] + [f"w{i}" for i in range(V - 2)])
    params = _params(tag, V, seed, scale)

    tape = Tape()
    total, token_nll = fusion.batch_nll(windows, params, tag, vocab, tape)
    want = [oracle.token_nlls(params, tag, w.target.token_ids,
                              [s.token_ids for s in w.context]) for w in windows]
    flat = np.concatenate(want)
    assert token_nll.shape == flat.shape
    assert np.max(np.abs(token_nll - flat)) <= ORACLE_TOLERANCE
    assert np.max(np.abs(total.value - [sum(w) for w in want])) <= ORACLE_TOLERANCE
    alone = [fusion.batch_nll([w], params, tag, vocab)[0].value[0] for w in windows]
    assert np.max(np.abs(total.value - alone)) <= PARTNER_TOLERANCE
    untaped_total, untaped_nll = fusion.batch_nll(windows, params, tag, vocab)
    assert untaped_total.value.tobytes() == total.value.tobytes()
    assert untaped_nll.tobytes() == token_nll.tobytes()

    tape.backward(nm.sum_all(tape, total))
    grads = {name: p.grad_buffer().ravel() for name, p in params.items()}
    for name, i in _coordinates(params, windows, V, np.random.default_rng(seed)):
        flat_value = params[name].value.reshape(-1)  # a view: edits reach the parameter
        saved = flat_value[i]

        def f(theta):
            flat_value[i] = theta[0]
            return float(fusion.batch_nll(windows, params, tag, vocab)[0].value.sum())

        fd = support.finite_difference_gradient(f, np.array([saved]))[0]
        flat_value[i] = saved
        got = grads[name][i]
        if abs(got) + abs(fd) >= 1e-5:
            assert support.relative_error(got, fd) <= 1e-4, (name, i, got, fd)
        else:
            assert abs(got - fd) <= 1e-8, (name, i, got, fd)
