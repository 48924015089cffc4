"""Independent per-window forward of all seven model variants, in plain numpy.

Written from the model equations and the parameter layout alone: it imports
nothing from ctxlm, handles one window at a time in float64 with no padding,
masks or tape, so a test that compares the batch engine against it never
compares the engine with itself.

Model (row vectors; ``W_*`` stored (d_in, d_out)):
- LSTM: i, o, f = sigmoid(x W + h U + b), g = tanh(x W_c + h U_c + b_c),
  c = f c_prev + i g, h = o tanh(c). Inputs are the begin-of-sentence row
  (the last row of E) and then the content tokens; targets are the content
  tokens and EOS.
- BoW: p = s P with s the counts of all context words (EOS excluded).
- SeqBoW: the ``cf_`` LSTM runs over x_k = s_k P, one per context sentence;
  p is its last hidden state.
- ATT: annotation z_k = [forward h_k ; reverse h_k], the reverse pass using
  ``cr_`` from the last sentence back. At each step
  alpha = softmax_k(v_a . tanh(z_k W_a + h_prev U_a)), p_t = sum_k alpha_k z_k.
- Early fusion: x = E[w] + p W_p. Late fusion: q = p W_p,
  r = sigmoid(q W_rp + c W_rc + b_r), h = o tanh(c + r q).
- A window without context sentences is the unconditioned model.
"""

import numpy as np


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _lstm(p, prefix, x, h, c):
    """-> (output gate o, new cell c)."""
    pre = {g: x @ p[f"{prefix}W_{g}"] + h @ p[f"{prefix}U_{g}"] + p[f"{prefix}b_{g}"]
           for g in "iofc"}
    c = _sigmoid(pre["f"]) * c + _sigmoid(pre["i"]) * np.tanh(pre["c"])
    return _sigmoid(pre["o"]), c


def _hidden_states(p, prefix, xs):
    d = p[f"{prefix}b_i"].shape[0]
    h, c = np.zeros(d), np.zeros(d)
    out = []
    for x in xs:
        o, c = _lstm(p, prefix, x, h, c)
        h = o * np.tanh(c)
        out.append(h)
    return out


def counts(sentences, vocab_size):
    """Word counts of token-id sentences, EOS (each one's last id) not counted."""
    s = np.zeros(vocab_size)
    for sentence in sentences:
        for token in sentence[:-1]:
            s[token] += 1.0
    return s


def token_nlls(params, tag: str, target, context) -> list[float]:
    """Per-position NLL (nats) of ``target`` (token ids ending in EOS) given the
    ``context`` sentences (token-id tuples ending in EOS) under variant ``tag``.
    ``params`` maps parameter names to arrays or to objects with a ``value``."""
    p = {k: np.asarray(getattr(v, "value", v), dtype=np.float64) for k, v in params.items()}
    kind = ("att" if "ATT" in tag else "seqbow" if "SeqBoW" in tag
            else "bow" if "BoW" in tag else None)
    early = tag.endswith("-EF")
    vocab_size = p["W_out"].shape[1]

    fixed = None    # projected context p W_p, the same at every step
    annots = []     # attention: one z_k per context sentence
    if kind == "bow":
        fixed = (counts(context, vocab_size) @ p["P"]) @ p["W_p"]
    elif kind == "seqbow":
        xs = [counts([s], vocab_size) @ p["P"] for s in context]
        last = _hidden_states(p, "cf_", xs)[-1] if xs else np.zeros(p["P"].shape[1])
        fixed = last @ p["W_p"]
    elif kind == "att":
        xs = [counts([s], vocab_size) @ p["P"] for s in context]
        fwd = _hidden_states(p, "cf_", xs)
        rev = _hidden_states(p, "cr_", xs[::-1])[::-1]
        annots = [np.concatenate([f, r]) for f, r in zip(fwd, rev)]

    d_h = p["b_i"].shape[0]
    h, c = np.zeros(d_h), np.zeros(d_h)
    inputs = [p["E"].shape[0] - 1] + list(target[:-1])
    out = []
    with np.errstate(over="ignore"):
        for x_id, y in zip(inputs, target):
            proj = fixed
            if annots:
                z = np.stack(annots)
                scores = np.tanh(z @ p["W_a"] + h @ p["U_a"]) @ p["v_a"]
                alpha = np.exp(scores - scores.max())
                alpha /= alpha.sum()
                proj = (alpha @ z) @ p["W_p"]
            x = p["E"][x_id]
            if early and proj is not None:
                x = x + proj
            o, c = _lstm(p, "", x, h, c)
            if not early and proj is not None:
                r = _sigmoid(proj @ p["W_rp"] + c @ p["W_rc"] + p["b_r"])
                h = o * np.tanh(c + r * proj)
            else:
                h = o * np.tanh(c)
            logits = h @ p["W_out"] + p["b_out"]
            top = logits.max()
            out.append(float(top + np.log(np.exp(logits - top).sum()) - logits[y]))
    return out


def window_nll(params, tag: str, window) -> float:
    """Total NLL of a window object with ``target`` and ``context`` sentences
    that carry ``token_ids``."""
    return sum(token_nlls(params, tag, window.target.token_ids,
                          [s.token_ids for s in window.context]))
