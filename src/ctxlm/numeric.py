"""Dense numeric core: a minimal reverse-mode gradient tape over numpy arrays.

Values are plain numpy arrays wrapped in :class:`Variable`. Every primitive
takes the tape as its first argument; passing ``tape=None`` runs the forward
computation only (no gradient bookkeeping), which is what evaluation uses.
All arrays of one computation share a dtype: float64 for verification,
float32 for faster training. Every output a primitive records must reach
the loss: :func:`_record` makes ``Tape.backward`` raise :class:`TapeError`,
naming the primitive and its tape entry, on one that received no gradient.

Most primitives are single numpy operations. The exceptions are the hot
spots of a recurrent model, with hand-written backwards:
:func:`lstm_recurrence`, the one LSTM definition, and
:func:`attention_scores` (additive-attention scores for every context
position at once).

Row-form gradients: a batch reaches only the rows of an embedding table
that its words select, and only the rows of the BoW projection that its
context words count; both enter through :func:`embed_rows`, the gather of
those rows. It hands the table a :class:`RowGrad`, the sorted unique rows it
reaches with one value row each, instead of a dense array that is zero
almost everywhere. :meth:`Variable.grad_buffer` densifies it on demand.

Packed batches: the batch engine sorts its sequences so that those running
at a step are the leading rows (longest first for the decoder, most context
sentences first for the context LSTMs) and packs their real positions step
by step. :func:`lstm_recurrence` forms the gradient of each weight that
every step applies once per batch, in one product over the packed rows.
The fused primitives read only the leading rows of context operands wider
than a step, and add gradient back into those rows only.
:func:`segment_sum` adds packed rows up per sequence, and
:func:`place_rows` puts them into another row order.

Allocation: importing this module keeps freed arrays in glibc's heap
(:func:`keep_freed_arrays`), so each batch reuses the memory the last one
freed instead of faulting it in again.
"""

import ctypes

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}

INIT_SCALE = 0.08  # uniform init range for all trainable parameters
INIT_BLOCK = 1 << 14  # float64 draws per block of uniform_init


# glibc's mallopt parameters (malloc.h), and the size below which freed
# memory stays in the heap
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
HEAP_KEEP_BYTES = 1 << 30


def keep_freed_arrays() -> bool:
    """Ask libc to serve every allocation below HEAP_KEEP_BYTES from its heap
    and to trim the heap only when more than that is free at its top, so
    that the large arrays one batch frees (the logits, the input projection,
    the recurrence's scratch, the gradients) are reused by the next without
    being mapped and faulted in again. Process-wide: the heap keeps its
    high-water mark. True if libc took both settings; False, doing nothing,
    where libc has no ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    taken = [mallopt(param, HEAP_KEEP_BYTES) for param in (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD)]
    return taken == [1, 1]


FREED_ARRAYS_KEPT = keep_freed_arrays()


def dtype_of(precision: str) -> np.dtype:
    try:
        return np.dtype(DTYPES[precision])
    except KeyError:
        raise ValueError(f"unknown precision {precision!r}, expected one of {sorted(DTYPES)}")


class RowGrad:
    """A gradient that is zero outside some rows (leading-axis entries) of an
    array of ``shape``: row ``rows[i]`` holds ``values[i]``. ``rows`` is sorted
    and unique."""

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows: np.ndarray, values: np.ndarray, shape: tuple):
        self.rows = rows
        self.values = values
        self.shape = shape

    @classmethod
    def empty(cls, like: np.ndarray) -> "RowGrad":
        """The zero gradient of ``like``, holding no row."""
        return cls(np.empty(0, np.intp), np.empty((0,) + like.shape[1:], like.dtype),
                   like.shape)

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, self.values.dtype)
        out[self.rows] = self.values
        return out


class Variable:
    """A numpy array plus a lazily allocated gradient of the same shape: a
    dense array, or a :class:`RowGrad` while the only gradient it has received
    came through :meth:`add_row_grad`."""

    __slots__ = ("value", "grad", "name")

    def __init__(self, value, name: str | None = None):
        self.value = np.asarray(value)
        self.grad: np.ndarray | RowGrad | None = None
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def grad_buffer(self) -> np.ndarray:
        """The gradient as a dense array: allocated as zeros, or densified from
        a row-form gradient, on first use."""
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        elif type(self.grad) is RowGrad:
            self.grad = self.grad.dense()
        return self.grad

    def add_row_grad(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Accumulate the gradient that is ``values`` at the sorted, unique
        ``rows`` and zero elsewhere. It stays in row form (adopting ``values``)
        while it is the only gradient received; otherwise it is added densely."""
        if self.grad is None:
            self.grad = RowGrad(rows, values, self.value.shape)
        else:
            self.grad_buffer()[rows] += values

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


class TapeError(RuntimeError):
    """A recorded output that received no gradient: it does not reach the loss."""


class Tape:
    """Ordered record of primitive operations for reverse-mode differentiation.

    Each recorded entry is a zero-argument closure that propagates an output's
    gradient to the inputs. ``backward`` replays the closures in exact reverse
    order of the forward pass. Primitives record theirs through :func:`_record`.
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


def _record(tape: Tape, out: Variable, backprop) -> None:
    """Record ``backprop(g)`` to run on ``out``'s gradient g; if ``out`` got none,
    the recorded closure raises TapeError instead, naming its tape entry and
    the primitive that defined ``backprop``."""
    def run(entry=len(tape)):
        if out.grad is None:
            primitive = backprop.__qualname__.split(".")[0]
            raise TapeError(f"tape entry {entry} ({primitive}): its output {out!r} received "
                            "no gradient, so it does not reach the loss")
        backprop(out.grad)
    tape.record(run)


# ---------------------------------------------------------------------------
# plain math (no tape)
# ---------------------------------------------------------------------------


def sigmoid(x, out=None):
    """Logistic function, stable for large |x|; works on scalars and arrays.
    ``out``, an array of x's shape, receives the result (it may be x)."""
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.float64)
    # 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below, from one exp that
    # cannot overflow; np.maximum picks the numerator (1 or e <= 1) without the
    # data-dependent branch that makes np.where slow on mixed signs.
    e = np.exp(-np.abs(x))
    out = np.divide(np.maximum(e, x >= 0), 1.0 + e, out=out)
    return out if out.shape else out[()]


def fold_sum(values) -> float:
    """Float sum from left to right. Builtin ``sum`` compensates its rounding
    on Python 3.12 and later, so it gives other bits there than on 3.10."""
    total = 0.0
    for x in values:
        total += x
    return total


def uniform_init(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    """``rng.uniform(-INIT_SCALE, INIT_SCALE, shape).astype(dtype)``, bitwise and
    with the same draws from rng, filled block by block through one float64
    scratch block of INIT_BLOCK elements instead of a float64 copy of the
    whole array: ``uniform`` computes low + (high - low) * u, and high - low
    is exactly 2 * INIT_SCALE."""
    out = np.empty(shape, dtype)
    flat = out.reshape(-1)
    scratch = np.empty(min(flat.size, INIT_BLOCK))
    for start in range(0, flat.size, INIT_BLOCK):
        block = scratch[: flat.size - start]
        rng.random(out=block)
        block *= 2 * INIT_SCALE
        block += -INIT_SCALE
        flat[start : start + block.size] = block
    return out


# ---------------------------------------------------------------------------
# tape primitives
# ---------------------------------------------------------------------------


def matmul(tape: Tape | None, a: Variable, b: Variable) -> Variable:
    """a (m,k) @ b (k,n) -> (m,n)."""
    out = Variable(a.value @ b.value)
    if tape is not None:
        def backprop(g):
            a.add_grad(g @ b.value.T)
            b.add_grad(a.value.T @ g)
        _record(tape, out, backprop)
    return out


# no engine use; kept because bench/tracing.py wraps numeric.add by name
def add(tape: Tape | None, a: Variable, b: Variable) -> Variable:
    out = Variable(a.value + b.value)
    if tape is not None:
        def backprop(g):
            a.add_grad(g)
            b.grad_buffer()[...] += g
        _record(tape, out, backprop)
    return out


# no engine use; kept because bench/tracing.py wraps numeric.mul by name
def mul(tape: Tape | None, a: Variable, b: Variable) -> Variable:
    """Elementwise product of same-shape arrays."""
    out = Variable(a.value * b.value)
    if tape is not None:
        def backprop(g):
            a.add_grad(g * b.value)
            b.add_grad(g * a.value)
        _record(tape, out, backprop)
    return out


def add_bias(tape: Tape | None, x: Variable, b: Variable) -> Variable:
    """x (..., *b.shape) + b, broadcast over the leading axes; the engine adds
    the output bias to every packed position's logits, (N,|V|) + (|V|,)."""
    out = Variable(x.value + b.value)
    if tape is not None:
        def backprop(g):
            x.add_grad(g)
            b.add_grad(g.reshape((-1,) + b.value.shape).sum(axis=0))
        _record(tape, out, backprop)
    return out


# no engine use; kept because bench/tracing.py wraps numeric.sigmoid_v by name
def sigmoid_v(tape: Tape | None, x: Variable) -> Variable:
    out = Variable(sigmoid(x.value))
    if tape is not None:
        def backprop(g):
            x.add_grad(g * out.value * (1.0 - out.value))
        _record(tape, out, backprop)
    return out


# no engine use; kept because bench/tracing.py wraps numeric.tanh_v by name
def tanh_v(tape: Tape | None, x: Variable) -> Variable:
    out = Variable(np.tanh(x.value))
    if tape is not None:
        def backprop(g):
            x.add_grad(g * (1.0 - out.value * out.value))
        _record(tape, out, backprop)
    return out


def embed_rows(tape: Tape | None, table: Variable, ids: np.ndarray) -> Variable:
    """Gather rows of table (V,d) at integer ids (N,) -> (N,d). The table gets
    a row-form gradient over the distinct ids: ``np.add.at`` adds each id's
    position gradients into its row in index order, as into a dense zero
    table, so the rows hold that table's bits. Distinct ids (P's context
    words) skip the scatter: each row is assigned, -0.0 keeping its sign."""
    out = Variable(table.value[ids])
    if tape is not None:
        def backprop(g):
            # each table row's place among the distinct ids, without a sort
            place = np.zeros(len(table.value), np.intp)
            place[ids] = 1
            rows = np.flatnonzero(place)
            place[rows] = np.arange(len(rows))
            if len(rows) == len(ids):
                values = np.empty_like(g)
                values[place[ids]] = g
            else:
                values = np.zeros((len(rows),) + g.shape[1:], g.dtype)
                np.add.at(values, place[ids], g)
            table.add_row_grad(rows, values)
        _record(tape, out, backprop)
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
        def backprop(g):
            soft = z - zmax
            soft -= lse[:, None]
            np.exp(soft, out=soft)
            soft[rows, targets] -= 1.0
            soft *= g[:, None]
            logits.add_grad(soft)
        _record(tape, out, backprop)
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
        def backprop(g):
            p = out.value
            inner = (g * p).sum(axis=1, keepdims=True)
            scores.add_grad(p * (g - inner))
        _record(tape, out, backprop)
    return out


def attention_mix(tape: Tape | None, alphas: Variable, annotations: Variable) -> Variable:
    """Weighted sum of annotation vectors: alphas (n,K), annotations (K,B,D) with
    B >= n -> (n,D); the mix reads the annotations' n leading rows."""
    annots = annotations.value[:, :alphas.shape[0]]
    out = Variable(np.einsum("bk,kbd->bd", alphas.value, annots))
    if tape is not None:
        def backprop(g):
            alphas.add_grad(np.einsum("bd,kbd->bk", g, annots))
            annotations.add_grad_leading(np.einsum("bk,bd->kbd", alphas.value, g), axis=1)
        _record(tape, out, backprop)
    return out


def attention_scores(tape: Tape | None, keys: Variable, query: Variable,
                     v: Variable) -> Variable:
    """Additive-attention scores of every position at once:
    score[b,k] = v . tanh(keys[k,b] + query[b]); keys (K,B,A), query (n,A) with
    n <= B, v (A,) -> (n,K). Only the keys' n leading rows are read."""
    e = np.tanh(keys.value[:, :query.shape[0]] + query.value)
    out = Variable((e @ v.value).T)
    if tape is not None:
        def backprop(g):
            gt = g.T
            de = gt[:, :, None] * v.value * (1.0 - e * e)
            keys.add_grad_leading(de, axis=1)
            query.add_grad(de.sum(axis=0))
            v.add_grad(gt.reshape(-1) @ e.reshape(-1, e.shape[-1]))
        _record(tape, out, backprop)
    return out


def lstm_recurrence(tape: Tape | None, xproj: Variable, bounds: np.ndarray, U: Variable,
                    b: Variable, feed: tuple = (), late: tuple | None = None,
                    attend: tuple | None = None, reverse: bool = False):
    """An LSTM run over a packed batch -> (H, C): every row's hidden states, a
    (N,d) Variable, and cell states, a (N,d) array that no gradient reaches.

    ``xproj`` (N,4d) holds the input projection x @ W of every row, gate
    blocks in ``rlm.GATES`` order (i, o, f, c). Step s owns the rows
    ``bounds[s]:bounds[s+1]`` (the steps run backwards if ``reverse``) and
    starts from the previous step's leading rows; rows past those, and the
    first step's rows, start from zero. The pre-activations are
    h_prev @ U + xproj[rows] (+ the leading rows of ``feed[0]``, early
    fusion's input term) + b, and c = f*c_prev + i*g. With ``late`` =
    (W_rc, b_r), ``feed`` = (q, q_r) gates the output instead:
    r = sigmoid(q_r + c @ W_rc + b_r) and h = o * tanh(c + r*q); otherwise
    h = o * tanh(c). With ``attend`` = (U_a, mix), each step's ``feed`` is
    what ``mix(tape, query)`` records and returns for its query h_prev @ U_a.

    Every step writes into arrays allocated once. Its one closure writes
    its pre-activation gradient into its rows of xproj's gradient (so xproj
    feeds nothing else); the weights' gradients are then formed once each.
    """
    N, d = xproj.shape[0], U.shape[0]
    dtype = xproj.dtype
    starts = bounds.tolist()
    steps = [slice(a, z) for a, z in zip(starts, starts[1:])][::-1 if reverse else 1]
    act, TC = np.empty((N, 4 * d), dtype), np.empty((N, d), dtype)
    Hp, Cp = np.zeros((N, d), dtype), np.zeros((N, d), dtype)  # the states rows start from
    H, C = np.empty((N, d), dtype), np.empty((N, d), dtype)
    h_out = Variable(H)
    if late is not None:
        W_rc, b_r = late
        R = np.empty((N, d), dtype)
        dpre = np.empty((N, d), dtype)  # the gate's pre-activation gradient, every row set
    if attend is not None:
        U_a, mix = attend
        dQ = np.zeros((N, U_a.shape[1]), dtype)  # the query gradient
    # rows that read a state: all but the first step's
    first = steps[0]
    live = slice(first.stop, N) if first.start == 0 else slice(0, first.start)
    if tape is not None:
        dC = np.zeros((N, d), dtype)  # the cell gradient each step carries back
        # contiguous transposes: faster to multiply by than strided views
        Ut = np.ascontiguousarray(U.value.T)
        if late is not None:
            W_rcT = np.ascontiguousarray(W_rc.value.T)
        if attend is not None:
            U_aT = np.ascontiguousarray(U_a.value.T)

        def weight_grads():
            g = xproj.grad
            U.add_grad(Hp[live].T @ g[live])
            b.add_grad(g.sum(axis=0))
            if late is not None:
                W_rc.add_grad(C.T @ dpre)
                b_r.add_grad(dpre.sum(axis=0))
            if attend is not None:
                U_a.add_grad(Hp[live].T @ dQ[live])
        tape.record(weight_grads)

    prev = None
    for rows in steps:
        n = rows.stop - rows.start
        m = 0 if prev is None else min(n, prev.stop - prev.start)
        if prev is not None:
            Hp[rows.start:rows.start + m] = H[prev.start:prev.start + m]
            Cp[rows.start:rows.start + m] = C[prev.start:prev.start + m]
        step_feed = feed
        if attend is not None:
            query = Variable(Hp[rows] @ U_a.value)
            if tape is not None:
                def query_backprop(g, rows=rows, prev=prev, m=m):
                    dQ[rows] = g
                    if prev is not None:  # only the first m rows read the previous step
                        # H's gradient: this step's closure, run just before, found it
                        h_out.grad[prev.start:prev.start + m] += g[:m] @ U_aT
                _record(tape, query, query_backprop)
            step_feed = mix(tape, query)
        z = act[rows]
        np.matmul(Hp[rows], U.value, out=z)
        z += xproj.value[rows]
        if step_feed and late is None:
            z += step_feed[0].value[:n]
        z += b.value
        sigmoid(z[:, :3 * d], out=z[:, :3 * d])
        np.tanh(z[:, 3 * d:], out=z[:, 3 * d:])
        i, o, f, g = z[:, :d], z[:, d:2 * d], z[:, 2 * d:3 * d], z[:, 3 * d:]
        c, u = C[rows], TC[rows]
        np.multiply(f, Cp[rows], out=c)
        c += i * g
        if late is not None:
            pre = step_feed[1].value[:n] + c @ W_rc.value
            pre += b_r.value
            sigmoid(pre, out=R[rows])
            np.tanh(c + R[rows] * step_feed[0].value[:n], out=u)
        else:
            np.tanh(c, out=u)
        np.multiply(o, u, out=H[rows])
        if tape is not None:
            def backprop(gH, rows=rows, prev=prev, m=m, step_feed=step_feed):
                n = rows.stop - rows.start
                a = act[rows]
                i, o, f, g = a[:, :d], a[:, d:2 * d], a[:, 2 * d:3 * d], a[:, 3 * d:]
                gh, u = gH[rows], TC[rows]
                dc = dC[rows]  # the gradient carried from the next step
                if xproj.grad is None:  # every step sets all of its rows
                    xproj.grad = np.empty_like(xproj.value)
                dz = xproj.grad[rows]  # gradient w.r.t. the activations, then z
                np.multiply(gh, u, out=dz[:, d:2 * d])
                if late is not None:
                    q, q_r = step_feed
                    r = R[rows]
                    du = gh * o * (1.0 - u * u)
                    q.add_grad_leading(du * r)
                    dp = dpre[rows]
                    np.multiply(du * q.value[:n] * r, 1.0 - r, out=dp)
                    dc += du + dp @ W_rcT
                    q_r.grad_buffer()[:n] += dp
                else:
                    dc += gh * o * (1.0 - u * u)
                np.multiply(dc, g, out=dz[:, :d])
                np.multiply(dc, Cp[rows], out=dz[:, 2 * d:3 * d])
                np.multiply(dc, i, out=dz[:, 3 * d:])
                sig = a[:, :3 * d]
                dz[:, :3 * d] *= sig * (1.0 - sig)
                dz[:, 3 * d:] *= 1.0 - g * g
                if prev is not None:
                    gH[prev.start:prev.start + m] += dz[:m] @ Ut
                    dC[prev.start:prev.start + m] += dc[:m] * f[:m]
                if step_feed and late is None:
                    step_feed[0].grad_buffer()[:n] += dz
            _record(tape, h_out, backprop)
        prev = rows
    return h_out, C


# no engine use; kept because bench/tracing.py wraps numeric.stack_first by name
def stack_first(tape: Tape | None, parts: list[Variable]) -> Variable:
    """Stack (B,D) parts into (K,B,D)."""
    out = Variable(np.stack([p.value for p in parts]))
    if tape is not None:
        def backprop(g):
            for k, p in enumerate(parts):
                p.add_grad(g[k])
        _record(tape, out, backprop)
    return out


def concat_cols(tape: Tape | None, parts: list[Variable]) -> Variable:
    """Concatenate parts along their last axis: (..., d_i) -> (..., sum d_i)."""
    out = Variable(np.concatenate([p.value for p in parts], axis=-1))
    if tape is not None:
        widths = [p.value.shape[-1] for p in parts]
        def backprop(g):
            off = 0
            for p, w in zip(parts, widths):
                p.add_grad(g[..., off:off + w])
                off += w
        _record(tape, out, backprop)
    return out


# no engine use; kept because bench/tracing.py wraps numeric.blend by name
def blend(tape: Tape | None, gate: np.ndarray, new: Variable, old: Variable) -> Variable:
    """gate*new + (1-gate)*old with a constant 0/1 gate column (B,1)."""
    out = Variable(gate * new.value + (1.0 - gate) * old.value)
    if tape is not None:
        def backprop(g):
            new.add_grad(g * gate)
            old.add_grad(g * (1.0 - gate))
        _record(tape, out, backprop)
    return out


def reshape(tape: Tape | None, x: Variable, shape) -> Variable:
    out = Variable(x.value.reshape(shape))
    if tape is not None:
        def backprop(g):
            x.add_grad(g.reshape(x.value.shape))
        _record(tape, out, backprop)
    return out


def place_rows(tape: Tape | None, x: Variable, rows: slice, dest: np.ndarray,
               count: int) -> Variable:
    """Rows ``rows`` of x (N, ...) placed at the distinct rows ``dest`` of an
    otherwise zero (count, ...) array."""
    out = np.zeros((count,) + x.shape[1:], x.dtype)
    out[dest] = x.value[rows]
    out = Variable(out)
    if tape is not None:
        def backprop(g):
            x.grad_buffer()[rows] += g[dest]
        _record(tape, out, backprop)
    return out


def sum_all(tape: Tape | None, x: Variable) -> Variable:
    """Sum of all elements."""
    out = Variable(np.asarray(x.value.sum()))
    if tape is not None:
        def backprop(g):
            x.grad_buffer()[...] += g
        _record(tape, out, backprop)
    return out


def segment_sum(tape: Tape | None, x: Variable, segment: np.ndarray, count: int) -> Variable:
    """Per-segment sums of x (N,) -> (count,): entry s adds up, in index order,
    every x[j] with segment[j] == s."""
    total = np.zeros(count, dtype=x.dtype)
    np.add.at(total, segment, x.value)
    out = Variable(total)
    if tape is not None:
        def backprop(g):
            x.add_grad(g[segment])
        _record(tape, out, backprop)
    return out


def scale(tape: Tape | None, x: Variable, s: float) -> Variable:
    out = Variable(x.value * s)
    if tape is not None:
        def backprop(g):
            x.add_grad(g * s)
        _record(tape, out, backprop)
    return out


def zeros(shape, dtype) -> Variable:
    return Variable(np.zeros(shape, dtype=dtype))
