"""Dense numeric core: a minimal reverse-mode gradient tape over numpy arrays.

Values are plain numpy arrays wrapped in :class:`Variable`. Every primitive
takes the tape as its first argument; passing ``tape=None`` runs the forward
computation only (no gradient bookkeeping), which is what evaluation uses.
All arrays of one computation share a dtype: float64 for verification,
float32 for faster training.

Most primitives are single numpy operations. The exceptions are the hot
spots of a recurrent model, fused so one timestep records one closure with
a hand-written backward: :func:`lstm_cell` (all four gates from one
precomputed input projection and one ``h_prev @ U`` product),
:func:`late_fusion_output` (the gated context term of late fusion) and
:func:`attention_scores` (additive-attention scores for every context
position at once). Operands marked ``constant`` (data such as bag-of-words
count matrices) receive no gradient.

Packed batches: the batch engine sorts its sequences longest first, so the
sequences still running at a timestep are the leading rows of the batch.
The fused primitives therefore accept state and context operands wider than
the step (``h_prev``/``c_prev``/``extra`` of :func:`lstm_cell`, ``q``/``q_r`` of
:func:`late_fusion_output`, the keys and annotations of attention): they
read only the leading rows the step's other operands have, and add
gradient back into those rows only. :func:`concat_rows` joins the ragged
per-step outputs into one packed matrix, and :func:`segment_sum` adds
packed rows up per sequence.
"""

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}

INIT_SCALE = 0.08  # uniform init range for all trainable parameters


def dtype_of(precision: str) -> np.dtype:
    try:
        return np.dtype(DTYPES[precision])
    except KeyError:
        raise ValueError(f"unknown precision {precision!r}, expected one of {sorted(DTYPES)}")


class Variable:
    """A numpy array plus a lazily allocated gradient buffer of the same shape.

    A ``constant`` Variable holds data, not a parameter or an intermediate:
    :func:`matmul`, the primitive data operands enter through, computes no
    gradient for it, so its ``grad`` stays None.
    """

    __slots__ = ("value", "grad", "name", "constant")

    def __init__(self, value, name: str | None = None, constant: bool = False):
        self.value = np.asarray(value)
        self.grad: np.ndarray | None = None
        self.name = name
        self.constant = constant

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def grad_buffer(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        return self.grad

    def add_grad(self, g: np.ndarray) -> None:
        """Accumulate g into the gradient. With no gradient yet, a g of the same
        shape and dtype becomes the buffer itself, so g must be an array the
        caller does not use afterwards: a fresh result, or (a distinct part of)
        the gradient of an output whose backward is running."""
        if self.grad is None and g.shape == self.value.shape and g.dtype == self.value.dtype:
            self.grad = g
        else:
            self.grad_buffer()[...] += g

    def add_grad_leading(self, g: np.ndarray, axis: int = 0) -> None:
        """Accumulate g into the leading ``g.shape[axis]`` entries along ``axis``
        of a gradient that may be wider there (a packed step's prefix rows)."""
        n = g.shape[axis]
        if n == self.value.shape[axis]:
            self.add_grad(g)
        else:
            self.grad_buffer()[(slice(None),) * axis + (slice(0, n),)] += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"Variable({self.value.shape}{label})"


class Tape:
    """Ordered record of primitive operations for reverse-mode differentiation.

    Each recorded entry is a closure that propagates the output gradient to
    the inputs. ``backward`` replays the closures in exact reverse order of
    the forward pass.
    """

    def __init__(self):
        self._backprops = []

    def record(self, fn) -> None:
        self._backprops.append(fn)

    def __len__(self):
        return len(self._backprops)

    def backward(self, loss: Variable) -> None:
        if loss.value.shape != ():
            raise ValueError(f"backward needs a scalar loss, got shape {loss.value.shape}")
        loss.grad_buffer()[...] = 1.0
        for fn in reversed(self._backprops):
            fn()


# ---------------------------------------------------------------------------
# plain math (no tape)
# ---------------------------------------------------------------------------


def sigmoid(x):
    """Logistic function, stable for large |x|; works on scalars and arrays."""
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    # 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below, from one exp that
    # cannot overflow; np.maximum picks the numerator (1 or e <= 1) without the
    # data-dependent branch that makes np.where slow on mixed signs.
    e = np.exp(-np.abs(x))
    out = np.maximum(e, x >= 0) / (1.0 + e)
    return out if out.shape else out[()]


def uniform_init(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape).astype(dtype)


# ---------------------------------------------------------------------------
# tape primitives
# ---------------------------------------------------------------------------


def matmul(tape: Tape | None, a: Variable, b: Variable) -> Variable:
    """a (m,k) @ b (k,n) -> (m,n); a constant operand gets no gradient."""
    out = Variable(a.value @ b.value)
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            if not a.constant:
                a.add_grad(g @ b.value.T)
            if not b.constant:
                b.add_grad(a.value.T @ g)
        tape.record(backprop)
    return out


# no engine use; kept because bench/tracing.py wraps numeric.add by name
def add(tape: Tape | None, a: Variable, b: Variable) -> Variable:
    out = Variable(a.value + b.value)
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            a.add_grad(g)
            b.grad_buffer()[...] += g
        tape.record(backprop)
    return out


# no engine use; kept because bench/tracing.py wraps numeric.mul by name
def mul(tape: Tape | None, a: Variable, b: Variable) -> Variable:
    """Elementwise product of same-shape arrays."""
    out = Variable(a.value * b.value)
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            a.add_grad(g * b.value)
            b.add_grad(g * a.value)
        tape.record(backprop)
    return out


def add_bias(tape: Tape | None, x: Variable, b: Variable) -> Variable:
    """x (..., *b.shape) + b, broadcast over the leading axes: (B,d) + (d,), or
    (T,B,d) + (B,d) for one per-row vector added at every timestep."""
    out = Variable(x.value + b.value)
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            x.add_grad(g)
            b.add_grad(g.reshape((-1,) + b.value.shape).sum(axis=0))
        tape.record(backprop)
    return out


# no engine use; kept because bench/tracing.py wraps numeric.sigmoid_v by name
def sigmoid_v(tape: Tape | None, x: Variable) -> Variable:
    out = Variable(sigmoid(x.value))
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            x.add_grad(g * out.value * (1.0 - out.value))
        tape.record(backprop)
    return out


# no engine use; kept because bench/tracing.py wraps numeric.tanh_v by name
def tanh_v(tape: Tape | None, x: Variable) -> Variable:
    out = Variable(np.tanh(x.value))
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            x.add_grad(g * (1.0 - out.value * out.value))
        tape.record(backprop)
    return out


def embed_rows(tape: Tape | None, table: Variable, ids: np.ndarray) -> Variable:
    """Gather rows of table (V,d) at integer ids (B,) -> (B,d)."""
    out = Variable(table.value[ids])
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            np.add.at(table.grad_buffer(), ids, g)
        tape.record(backprop)
    return out


def nll_rows(tape: Tape | None, logits: Variable, targets: np.ndarray) -> Variable:
    """Per-row negative log-likelihood of targets under row softmax -> (N,).

    Fused log-softmax + NLL with max-subtraction.
    """
    z = logits.value
    zmax = z.max(axis=1, keepdims=True)
    rows = np.arange(z.shape[0])
    work = z - zmax
    picked = work[rows, targets]
    lse = np.log(np.exp(work, out=work).sum(axis=1))
    del work  # only zmax and lse are kept: backward rebuilds the softmax from z
    out = Variable(lse - picked)
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            soft = z - zmax
            soft -= lse[:, None]
            np.exp(soft, out=soft)
            soft[rows, targets] -= 1.0
            soft *= g[:, None]
            logits.add_grad(soft)
        tape.record(backprop)
    return out


def masked_softmax(tape: Tape | None, scores: Variable, mask: np.ndarray) -> Variable:
    """Row softmax over scores (B,K) restricted to positions where mask is 1.

    Fully-masked rows yield all-zero probability rows (callers treat those
    windows as having no context).
    """
    z = np.where(mask > 0, scores.value, -np.inf)
    zmax = z.max(axis=1, keepdims=True)
    zmax[~np.isfinite(zmax)] = 0.0  # a fully masked row stays -inf, so exp gives 0
    e = np.exp(z - zmax)
    denom = e.sum(axis=1, keepdims=True)
    denom[denom == 0.0] = 1.0
    out = Variable(e / denom)
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            p = out.value
            inner = (g * p).sum(axis=1, keepdims=True)
            scores.add_grad(p * (g - inner))
        tape.record(backprop)
    return out


def attention_mix(tape: Tape | None, alphas: Variable, annotations: Variable) -> Variable:
    """Weighted sum of annotation vectors: alphas (n,K), annotations (K,B,D) with
    B >= n -> (n,D); the mix reads the annotations' n leading rows."""
    annots = annotations.value[:, :alphas.shape[0]]
    out = Variable(np.einsum("bk,kbd->bd", alphas.value, annots))
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            alphas.add_grad(np.einsum("bd,kbd->bk", g, annots))
            annotations.add_grad_leading(np.einsum("bk,bd->kbd", alphas.value, g), axis=1)
        tape.record(backprop)
    return out


def attention_scores(tape: Tape | None, keys: Variable, query: Variable,
                     v: Variable) -> Variable:
    """Additive-attention scores of every position at once:
    score[b,k] = v . tanh(keys[k,b] + query[b]); keys (K,B,A), query (n,A) with
    n <= B, v (A,) -> (n,K). Only the keys' n leading rows are read."""
    e = np.tanh(keys.value[:, :query.shape[0]] + query.value)
    out = Variable((e @ v.value).T)
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            gt = g.T
            de = gt[:, :, None] * v.value * (1.0 - e * e)
            keys.add_grad_leading(de, axis=1)
            query.add_grad(de.sum(axis=0))
            v.add_grad(gt.reshape(-1) @ e.reshape(-1, e.shape[-1]))
        tape.record(backprop)
    return out


def lstm_cell(tape: Tape | None, xproj: Variable, rows: slice, h_prev: Variable,
              c_prev: Variable, U: Variable, b: Variable, extra: Variable | None = None):
    """One LSTM cell update with all four gates fused -> (o, c, h), each (n,d).

    ``xproj`` (N,4d) holds the input projection x @ W of a whole packed
    sequence batch, with gate blocks in ``rlm.GATES`` order (i, o, f, c); the
    step reads its n rows ``xproj[rows]``. ``h_prev``, ``c_prev`` and ``extra``
    may have more rows than n: the step reads, and sends gradient to, their n
    leading rows. The pre-activations are
    h_prev[:n] @ U + xproj[rows] (+ ``extra[:n]``, a further input term) + b;
    then c = f*c_prev + i*g and h = o*tanh(c). One closure backpropagates every
    output's gradient: it forms the pre-activation gradient dz once, then
    dh_prev = dz @ U.T, dc_prev, dU = h_prev.T @ dz, db, and xproj[rows] (and
    extra) receive dz.
    """
    x_t = xproj.value[rows]
    n = x_t.shape[0]
    h_in, c_in = h_prev.value[:n], c_prev.value[:n]
    z = h_in @ U.value
    z += x_t
    if extra is not None:
        z += extra.value[:n]
    z += b.value
    d = z.shape[1] // 4
    act = np.empty_like(z)
    act[:, :3 * d] = sigmoid(z[:, :3 * d])
    act[:, 3 * d:] = np.tanh(z[:, 3 * d:])
    i, o, f, g = act[:, :d], act[:, d:2 * d], act[:, 2 * d:3 * d], act[:, 3 * d:]
    c = f * c_in + i * g
    tc = np.tanh(c)
    o_out, c_out, h_out = Variable(o), Variable(c), Variable(o * tc)
    if tape is not None:
        def backprop():
            go, gc, gh = o_out.grad, c_out.grad, h_out.grad
            if go is None and gc is None and gh is None:
                return
            dc = np.zeros_like(c) if gc is None else gc.copy()
            dz = np.zeros_like(act)  # gradient w.r.t. the activations, then w.r.t. z
            if gh is not None:
                dz[:, d:2 * d] = gh * tc
                dc += gh * o * (1.0 - tc * tc)
            if go is not None:
                dz[:, d:2 * d] += go
            dz[:, :d] += dc * g
            dz[:, 2 * d:3 * d] = dc * c_in
            dz[:, 3 * d:] = dc * i
            sig = act[:, :3 * d]
            dz[:, :3 * d] *= sig * (1.0 - sig)
            dz[:, 3 * d:] *= 1.0 - g * g
            xproj.grad_buffer()[rows] += dz
            h_prev.add_grad_leading(dz @ U.value.T)
            c_prev.add_grad_leading(dc * f)
            U.add_grad(h_in.T @ dz)
            b.add_grad(dz.sum(axis=0))
            if extra is not None:  # last: it may adopt dz as its gradient
                extra.add_grad_leading(dz)
        tape.record(backprop)
    return o_out, c_out, h_out


def late_fusion_output(tape: Tape | None, o: Variable, c: Variable, q: Variable,
                       q_r: Variable, W_rc: Variable, b_r: Variable) -> Variable:
    """Late-fusion hidden state h = o * tanh(c + r*q), gated by
    r = sigmoid(q_r + c @ W_rc + b_r) where q_r = q @ W_rp; o and c (n,d), and
    q and q_r (B,d) with B >= n, of which the n leading rows are read. One closure."""
    n = c.shape[0]
    q_n = q.value[:n]
    pre = q_r.value[:n] + c.value @ W_rc.value
    pre += b_r.value
    r = sigmoid(pre)
    u = np.tanh(c.value + r * q_n)
    out = Variable(o.value * u)
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            o.add_grad(g * u)
            du = g * o.value * (1.0 - u * u)
            q.add_grad_leading(du * r)
            dpre = du * q_n * r * (1.0 - r)
            b_r.add_grad(dpre.sum(axis=0))
            W_rc.add_grad(c.value.T @ dpre)
            c.add_grad(du + dpre @ W_rc.value.T)
            q_r.add_grad_leading(dpre)
        tape.record(backprop)
    return out


def stack_first(tape: Tape | None, parts: list[Variable]) -> Variable:
    """Stack (B,D) parts into (K,B,D)."""
    out = Variable(np.stack([p.value for p in parts]))
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            for k, p in enumerate(parts):
                p.add_grad(g[k])
        tape.record(backprop)
    return out


def concat_rows(tape: Tape | None, parts: list[Variable]) -> Variable:
    """Concatenate parts (n_i, D) along their first axis -> (sum n_i, D)."""
    out = Variable(np.concatenate([p.value for p in parts]))
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            off = 0
            for p in parts:
                n = p.value.shape[0]
                p.add_grad(g[off:off + n])
                off += n
        tape.record(backprop)
    return out


def leading_rows(tape: Tape | None, x: Variable, n: int) -> Variable:
    """The first n rows of x; x itself when it has exactly n."""
    if n == x.shape[0]:
        return x
    out = Variable(x.value[:n])
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            x.add_grad_leading(g)
        tape.record(backprop)
    return out


def concat_cols(tape: Tape | None, parts: list[Variable]) -> Variable:
    """Concatenate parts along their last axis: (..., d_i) -> (..., sum d_i)."""
    out = Variable(np.concatenate([p.value for p in parts], axis=-1))
    if tape is not None:
        widths = [p.value.shape[-1] for p in parts]
        def backprop():
            g = out.grad
            if g is None:
                return
            off = 0
            for p, w in zip(parts, widths):
                p.add_grad(g[..., off:off + w])
                off += w
        tape.record(backprop)
    return out


def blend(tape: Tape | None, gate: np.ndarray, new: Variable, old: Variable) -> Variable:
    """gate*new + (1-gate)*old with a constant 0/1 gate column (B,1)."""
    out = Variable(gate * new.value + (1.0 - gate) * old.value)
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            new.add_grad(g * gate)
            old.add_grad(g * (1.0 - gate))
        tape.record(backprop)
    return out


def reshape(tape: Tape | None, x: Variable, shape) -> Variable:
    out = Variable(x.value.reshape(shape))
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            x.add_grad(g.reshape(x.value.shape))
        tape.record(backprop)
    return out


def sum_all(tape: Tape | None, x: Variable) -> Variable:
    """Sum of all elements."""
    out = Variable(np.asarray(x.value.sum()))
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            x.grad_buffer()[...] += g
        tape.record(backprop)
    return out


def segment_sum(tape: Tape | None, x: Variable, segment: np.ndarray, count: int) -> Variable:
    """Per-segment sums of x (N,) -> (count,): entry s adds up, in index order,
    every x[j] with segment[j] == s."""
    total = np.zeros(count, dtype=x.dtype)
    np.add.at(total, segment, x.value)
    out = Variable(total)
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            x.add_grad(g[segment])
        tape.record(backprop)
    return out


def scale(tape: Tape | None, x: Variable, s: float) -> Variable:
    out = Variable(x.value * s)
    if tape is not None:
        def backprop():
            g = out.grad
            if g is None:
                return
            x.add_grad(g * s)
        tape.record(backprop)
    return out


def zeros(shape, dtype) -> Variable:
    return Variable(np.zeros(shape, dtype=dtype))
