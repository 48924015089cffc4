"""Helpers that only the tests use: gradient checking, parameter counting, a
sentence's n-gram log-probability, a canonical training log and the reference
synthetic corpus generator. The package never calls them."""

import numpy as np


def relative_error(a, b) -> np.ndarray:
    """|a-b| / max(1e-8, |a|+|b|), elementwise; stable near zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(1e-8, np.abs(a) + np.abs(b))


def finite_difference_gradient(f, theta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat parameter array."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    work = theta.copy()
    for i in range(theta.size):
        work[i] = theta[i] + eps
        up = f(work)
        work[i] = theta[i] - eps
        down = f(work)
        work[i] = theta[i]
        if not (np.isfinite(up) and np.isfinite(down)):
            raise ValueError(f"finite_difference_gradient: f non-finite at coordinate {i}")
        grad[i] = (up - down) / (2.0 * eps)
    return grad


def parameter_count(params) -> int:
    """Number of scalars in a name->Variable parameter dict."""
    return sum(p.value.size for p in params.values())


def sentence_log_probability(sentence, table) -> float:
    """Natural-log probability of a sentence (EOS included) with begin padding,
    under an n-gram table."""
    from ctxlm.ngram import sentence_log_probabilities

    return sentence_log_probabilities([sentence], table)[0]


def choice_synthetic(spec) -> dict[str, str]:
    """``cli.generate_synthetic`` drawn the plain way, through ``rng.choice(p=...)``
    per sentence, as earlier versions drew it: the reference that pins its draws."""
    rng = np.random.default_rng(spec.seed)
    dists = rng.dirichlet(np.full(spec.vocab, 1.0 / spec.sharpness), size=spec.topics)
    words = np.array([f"t{i}" for i in range(spec.vocab)])

    def make_doc() -> str:
        topic = int(rng.integers(spec.topics))
        lines = []
        for _ in range(spec.sentences):
            length = int(rng.integers(spec.len_min, spec.len_max + 1))
            ids = rng.choice(spec.vocab, size=length, p=dists[topic])
            lines.append(" ".join(words[ids]))
        return "\n".join(lines)

    return {split: "\n\n".join(make_doc() for _ in range(count)) + "\n"
            for split, count in (("train", spec.train_docs), ("valid", spec.valid_docs),
                                 ("test", spec.test_docs))}


def format_log(log) -> str:
    """Canonical training log of EpochRecords (timing excluded: wall clock is
    not reproducible)."""
    return "".join(f"{r.epoch},{r.train_nll!r},{r.valid_nll!r}\n" for r in log)


def spy_recurrences(mp):
    """Patch ``numeric.lstm_recurrence`` on the pytest MonkeyPatch ``mp`` to
    record every call -> the list of records. Each is a dict of the call's
    arguments (``xproj``, its ``steps`` as row slices in step order, ``U``, ``b``, ``feed``,
    ``late``), its outputs ``H`` and ``C`` (the cell states, an array), and, with
    attention, every step's ``queries`` and ``feeds`` (what the step's mix returned)."""
    from ctxlm import numeric as nm

    calls = []
    original = nm.lstm_recurrence

    def spy(tape, xproj, bounds, U, b, feed=(), late=None, attend=None, reverse=False):
        steps = [slice(a, z) for a, z in zip(bounds[:-1], bounds[1:])]
        call = dict(xproj=xproj, steps=steps[::-1] if reverse else steps, U=U, b=b,
                    feed=feed, late=late, queries=[], feeds=[])
        if attend is not None:
            U_a, mix = attend

            def mix_spy(tape, query):
                call["queries"].append(query)
                call["feeds"].append(mix(tape, query))
                return call["feeds"][-1]
            attend = (U_a, mix_spy)
        call["H"], call["C"] = out = original(tape, xproj, bounds, U, b, feed, late, attend,
                                              reverse)
        calls.append(call)
        return out

    mp.setattr(nm, "lstm_recurrence", spy)
    return calls


def recurrence_steps(call) -> list[dict]:
    """Every step of a recorded recurrence (see ``spy_recurrences``), recomputed
    from its inputs and the states it returned: ``h_prev`` and ``c_prev`` are
    the previous step's returned rows (zero for a row without one), the
    pre-activations h_prev @ U + xproj[rows] + b have no
    other input, and ``c`` = f * c_prev + i * g, in the recurrence's own
    arithmetic. Each step's dict also holds its ``rows``, ``o`` and the
    returned ``c_returned``; with late fusion also its ``q``, ``q_r``, gate
    ``r`` and ``u`` = tanh(c + r * q)."""
    from ctxlm import numeric as nm

    H, C, U = call["H"].value, call["C"], call["U"].value
    d = U.shape[0]
    out, prev = [], None
    for t, rows in enumerate(call["steps"]):
        n = rows.stop - rows.start
        h_prev, c_prev = np.zeros((n, d), H.dtype), np.zeros((n, d), H.dtype)
        if prev is not None:
            m = min(n, prev.stop - prev.start)
            h_prev[:m], c_prev[:m] = H[prev][:m], C[prev][:m]
        z = h_prev @ U
        z += call["xproj"].value[rows]
        z += call["b"].value
        i, o, f = (nm.sigmoid(z[:, k * d:(k + 1) * d]) for k in range(3))
        c = f * c_prev
        c += i * np.tanh(z[:, 3 * d:])
        step = dict(rows=rows, h_prev=h_prev, c_prev=c_prev, o=o, c=c, c_returned=C[rows])
        if call["late"] is not None:
            W_rc, b_r = call["late"]
            q, q_r = (v.value[:n] for v in (call["feeds"][t] if call["feeds"] else call["feed"]))
            pre = q_r + C[rows] @ W_rc.value
            pre += b_r.value
            r = nm.sigmoid(pre)
            step.update(q=q, q_r=q_r, r=r, u=np.tanh(C[rows] + r * q))
        out.append(step)
        prev = rows
    return out
