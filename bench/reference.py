"""Correctness checks that share no code with the model they check.

``window_nll`` is a plain-numpy, one-window-at-a-time forward of the RLM and
RLM-BoW-LF models, written from the model equations and the parameter
layout alone, so it stays an independent oracle when the program's own
per-window path is rebuilt on top of its batch engine.
"""

import math

import numpy as np

REFERENCE_VARIANTS = ("RLM", "RLM-BoW-LF")


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def window_nll(arrays: dict[str, np.ndarray], variant: str, target: tuple[int, ...],
               context: list[tuple[int, ...]]) -> float:
    """NLL in nats of one target sentence (token ids ending in EOS) given the
    token ids of its context sentences (EOS included, ignored), in float64."""
    p = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
    d_h = p["b_i"].shape[0]
    q = None
    if variant == "RLM-BoW-LF":
        bag = np.zeros(p["P"].shape[0])
        for sent in context:
            for tid in sent[:-1]:
                bag[tid] += 1.0
        q = (bag @ p["P"]) @ p["W_p"]
    elif variant != "RLM":
        raise ValueError(f"no reference forward for {variant}")
    h = np.zeros(d_h)
    c = np.zeros(d_h)
    total = 0.0
    inputs = (p["E"].shape[0] - 1,) + tuple(target[:-1])   # last embedding row starts a sentence
    with np.errstate(over="ignore"):
        for x_id, y in zip(inputs, target):
            x = p["E"][x_id]
            pre = {g: x @ p[f"W_{g}"] + h @ p[f"U_{g}"] + p[f"b_{g}"] for g in "iofc"}
            c = _sigmoid(pre["f"]) * c + _sigmoid(pre["i"]) * np.tanh(pre["c"])
            if q is None:
                h = _sigmoid(pre["o"]) * np.tanh(c)
            else:
                r = _sigmoid(q @ p["W_rp"] + c @ p["W_rc"] + p["b_r"])
                h = _sigmoid(pre["o"]) * np.tanh(c + r * q)
            logits = h @ p["W_out"] + p["b_out"]
            top = logits.max()
            total += top + math.log(np.exp(logits - top).sum()) - logits[y]
    return float(total)


def kn_normalization_error(table, vocab_size: int, context: tuple[int, ...]) -> float:
    """|sum_w p(w | context) - 1| over the whole vocabulary."""
    return abs(math.fsum(table.probability(w, context) for w in range(vocab_size)) - 1.0)
