"""Training: Adadelta updates, minibatched epochs with early stopping, checkpoints.

The objective is the mean per-sentence NLL over context windows (perplexity
evaluation divides by tokens instead; both conventions are explicit in the
code). Minibatches group windows of similar target length, and the engine
packs each batch so it computes only real positions. An epoch's validation
NLL is the mean per-window NLL over the length-filtered validation windows,
scored by evaluation's loop (`evaluation.window_nlls`) and summed left to
right in float64; `train` keeps the epoch with the lowest one.
Everything is driven by one seeded generator, so a fixed seed in 64-bit mode
reproduces the whole trajectory bit for bit.

Training has diverged when a batch's loss or its gradients' global norm
before clipping is not finite (checked before any parameter moves), or when
an epoch's validation NLL is not finite; `train` then returns the last good
checkpoint with ``diverged`` set.

The optimizer step and the training state make no parameter-sized copies.
`adadelta_update` rounds every element exactly as the one-expression
Adadelta formula does, but works through cache-sized row blocks with two
small scratch buffers, so its results are bitwise that formula's. The word
embedding ``E`` and the BoW projection ``P`` get row-form gradients
(``numeric.RowGrad``): a batch reaches a few hundred of their rows. Clipping
reads and scales only those rows, and Adadelta gives them the full step and
every other row only the decay its moments undergo at a zero gradient,
which is bitwise the dense step; rows whose moments are still 0 are not
touched at all, so the untouched parts of the moments are never written.
A checkpoint holds the model parameters and the run's metadata, not the
optimizer's moments. `train` keeps the best epoch's parameters as a copy
only while a later epoch can still move them; the last epoch's snapshot
holds the live arrays, and the epoch-0 state is never copied: it is rebuilt
from the seed when divergence before the first validation forces `train` to
return it.
`save_checkpoint` writes to a temporary file beside the target and renames
it into place.
"""

import math
import os
import secrets
import struct
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import evaluation, fusion
from . import numeric as nm
from .corpus import (ContextWindow, CorpusError, Document, Vocabulary, corpus_windows,
                     filter_by_length)
from .numeric import Tape, Variable

CHECKPOINT_MAGIC = b"CTXLM1"
CHECKPOINT_VERSION = 2
DTYPE_CODES = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}
CODE_DTYPES = {v: k for k, v in DTYPE_CODES.items()}


class ConfigError(ValueError):
    pass


def check_array_size(what: str, shape: tuple, dtype) -> None:
    """Raise ConfigError unless numpy can hold an array of ``shape`` and
    ``dtype``: its size in bytes must fit a signed index."""
    if math.prod(shape) * np.dtype(dtype).itemsize > np.iinfo(np.intp).max:
        raise ConfigError(f"{what} of shape {shape} is too large for an array")


class CheckpointError(ValueError):
    """A checkpoint file that lacks the magic bytes, has an unsupported
    version, is truncated, carries bytes after its end, holds an array of
    unknown precision, lacks a trailer key, or holds other parameters than its
    configuration describes."""


@dataclass
class TrainConfig:
    variant: str
    n: int
    d_h: int = 1000
    d_emb: int = 0          # 0 -> d_h
    d_ctx: int = 0          # 0 -> d_h
    vocab_size: int = 10000
    max_len: int = 50
    batch_size: int = 32
    max_epochs: int = 20
    patience: int = 3
    seed: int = 1
    precision: str = "f64"
    rho: float = 0.95
    eps: float = 1e-6
    clip_norm: float = 5.0
    train_path: str = ""
    valid_path: str = ""

    def __post_init__(self):
        variant = fusion.parse_variant(self.variant)
        if self.d_emb == 0:
            self.d_emb = self.d_h
        if self.d_ctx == 0:
            self.d_ctx = self.d_h
        for key in ("n", "seed"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be non-negative")
        for key in ("d_h", "d_emb", "d_ctx", "max_len", "batch_size", "max_epochs", "patience"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be positive")
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must be at least 2")
        if not 0.0 < self.rho < 1.0:
            raise ConfigError("rho must be in (0, 1)")
        if not (math.isfinite(self.eps) and self.eps > 0.0):
            raise ConfigError("eps must be finite and positive")
        if not math.isfinite(self.clip_norm):
            raise ConfigError("clip_norm must be finite (0 or less disables clipping)")
        dtype = nm.dtype_of(self.precision)
        shapes = fusion.parameter_shapes(variant, self.vocab_size, self.d_emb, self.d_h,
                                         self.d_ctx, self.d_a)
        for name, shape in shapes.items():
            check_array_size(f"parameter {name}", shape, dtype)

    @property
    def d_a(self) -> int:
        # attention scorer width; the config schema has no key for it
        return self.d_ctx

    @property
    def dtype(self):
        return nm.dtype_of(self.precision)


CONFIG_KEYS = [f.name for f in fields(TrainConfig)]
_INT_KEYS = {f.name for f in fields(TrainConfig) if f.type is int}
_FLOAT_KEYS = {f.name for f in fields(TrainConfig) if f.type is float}


def parse_config_text(text: str) -> dict[str, str]:
    """`key = value` lines; blank lines and #-comments are ignored."""
    out: dict[str, str] = {}
    for ln, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {ln}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def config_from_mapping(raw: dict[str, str]) -> TrainConfig:
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    if "variant" not in raw:
        raise ConfigError("missing config key 'variant'")
    if "n" not in raw:
        raise ConfigError("missing config key 'n'")
    kwargs: dict = {}
    for key, value in raw.items():
        if key in _INT_KEYS:
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise ConfigError(f"config key {key!r}: expected an integer, got {value!r}")
        elif key in _FLOAT_KEYS:
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise ConfigError(f"config key {key!r}: expected a number, got {value!r}")
        else:
            kwargs[key] = value
    try:
        return TrainConfig(**kwargs)
    except ValueError as e:
        raise ConfigError(str(e))


def format_config(config: TrainConfig, extras: dict[str, str] | None = None) -> str:
    lines = []
    for key in CONFIG_KEYS:
        value = getattr(config, key)
        if value == "" and key.endswith("_path"):
            continue
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
    for key, value in (extras or {}).items():
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdadeltaState:
    """Running second moments of gradients and updates, one pair per parameter,
    and per parameter one flag per row (leading-axis entry), ``live``: False
    while both moments of the row are still exactly 0."""

    sq_grad: dict[str, np.ndarray]
    sq_delta: dict[str, np.ndarray]
    live: dict[str, np.ndarray]

    @classmethod
    def for_params(cls, params: dict[str, Variable]) -> "AdadeltaState":
        def zeros(name, shape, dtype):
            # check_array_size passes every shape numpy can index, not only
            # those that memory can hold
            try:
                return np.zeros(shape, dtype)
            except MemoryError:
                raise ConfigError(f"the Adadelta state of parameter {name} of shape "
                                  f"{params[name].shape} does not fit in memory") from None

        # np.zeros is calloc: it writes the zeros into reused heap memory now,
        # and only memory fresh from the OS arrives as lazily mapped zero pages
        return cls(
            {k: zeros(k, v.value.shape, v.value.dtype) for k, v in params.items()},
            {k: zeros(k, v.value.shape, v.value.dtype) for k, v in params.items()},
            {k: zeros(k, v.value.shape[:1], bool) for k, v in params.items()},
        )


# Elements per Adadelta block: the block's slices of the four operands and the
# two scratch buffers stay in L2 cache (at most 768 KB in float64).
ADADELTA_BLOCK = 1 << 14


def adadelta_update(param: np.ndarray, grad: np.ndarray | nm.RowGrad, sq_grad: np.ndarray,
                    sq_delta: np.ndarray, rho: float, eps: float, live: np.ndarray) -> None:
    """In-place Adadelta step: accumulate E[g^2], apply the scale-free delta,
    then accumulate E[delta^2]. The gradient must be finite; `train` checks.

    Works through blocks of whole rows (leading-axis slices) of about
    ADADELTA_BLOCK elements with two block-sized scratch buffers, so no
    parameter-sized temporary exists; any of the four arrays may be a strided
    view. Each element is rounded exactly as in
    ``delta = -(sqrt(E[d^2] + eps) / sqrt(E[g^2] + eps)) * g``, so the result is
    bitwise that formula's.

    ``grad`` may be a row-form ``numeric.RowGrad``, zero outside its rows.
    At g = 0 the step is exactly ``sq_grad *= rho; sq_delta *= rho`` (every
    other term adds or subtracts an exact 0), so the gradient's rows get the
    full step and every other row only that decay: bitwise the dense step on
    the zero-filled gradient, with temporaries the size of the gradient's
    rows. ``live`` (one flag per row) marks the rows whose moments may be
    non-zero: only those are decayed, as 0 * rho = 0, and the step marks
    every row it reaches."""
    if type(grad) is nm.RowGrad:
        _adadelta_rows(param, grad, sq_grad, sq_delta, rho, eps, live)
        return
    live[...] = True
    _adadelta_dense(param, grad, sq_grad, sq_delta, rho, eps)


def _adadelta_rows(param, grad, sq_grad, sq_delta, rho, eps, live) -> None:
    rows = grad.rows
    # gathered before the decay below reaches them, then stepped and put back
    touched = param.take(rows, 0), sq_grad.take(rows, 0), sq_delta.take(rows, 0)
    for start, stop in _live_runs(live):
        sq_grad[start:stop] *= rho
        sq_delta[start:stop] *= rho
    _adadelta_dense(touched[0], grad.values, touched[1], touched[2], rho, eps)
    param[rows], sq_grad[rows], sq_delta[rows] = touched
    live[rows] = True


def _live_runs(live: np.ndarray) -> list[list[int]]:
    """[start, stop) of every run of consecutive True flags."""
    edges = np.flatnonzero(np.diff(live, prepend=False, append=False))
    return edges.reshape(-1, 2).tolist()


def _adadelta_dense(param, grad, sq_grad, sq_delta, rho, eps) -> None:
    rows = len(param)
    step = max(1, min(rows, ADADELTA_BLOCK // math.prod(param.shape[1:])))
    scratch = np.empty((2, step) + param.shape[1:], param.dtype)
    for r in range(0, rows, step):
        block = slice(r, r + step)
        t1, t2 = scratch[:, : min(step, rows - r)]
        _adadelta_block(param[block], grad[block], sq_grad[block], sq_delta[block],
                        rho, eps, t1, t2)


def _adadelta_block(param, grad, sq_grad, sq_delta, rho, eps, t1, t2) -> None:
    sq_grad *= rho
    np.multiply(1.0 - rho, grad, out=t1)
    t1 *= grad
    sq_grad += t1
    np.add(sq_delta, eps, out=t1)
    np.sqrt(t1, out=t1)
    np.add(sq_grad, eps, out=t2)
    np.sqrt(t2, out=t2)
    t1 /= t2
    # t1 = sqrt(E[d^2] + eps) / sqrt(E[g^2] + eps) * g = -delta: IEEE rounding is
    # symmetric in sign, so (c * -x) * -x == (c * x) * x and p + -x == p - x
    t1 *= grad
    sq_delta *= rho
    np.multiply(1.0 - rho, t1, out=t2)
    t2 *= t1
    sq_delta += t2
    param -= t1


def clip_gradients(grads: dict[str, np.ndarray | nm.RowGrad], max_norm: float) -> float:
    """Scale all gradients in place so their global L2 norm is at most max_norm.
    Non-positive max_norm disables clipping. Returns the pre-clip norm, which is
    NaN or inf (and the gradients are left unscaled) when any gradient is
    non-finite or the sum of squares overflows. Each gradient's rows
    (leading-axis entries) are squared and summed row by row, and those sums,
    gradient after gradient, are added from left to right in float64. A
    row-form gradient's values are read as a dense array is: the rows it
    lacks would only add exact zeros, so it gives its dense array's norm bit
    for bit, and only its values are scaled."""
    with np.errstate(over="ignore"):
        norm = math.sqrt(nm.fold_sum(
            np.concatenate([_row_sums_of_squares(g) for g in grads.values()]).tolist()))
    if 0.0 < max_norm < norm < math.inf:
        factor = max_norm / norm
        for g in grads.values():
            values = g.values if type(g) is nm.RowGrad else g
            values *= factor
    return norm


def _row_sums_of_squares(g: np.ndarray | nm.RowGrad) -> np.ndarray:
    """Per-row sums of g's squared entries, in float64; g may be a strided view."""
    values = g.values if type(g) is nm.RowGrad else g
    flat = values.reshape(len(values), math.prod(g.shape[1:]))
    return np.einsum("ij,ij->i", flat, flat).astype(np.float64)


def gradient_batch(windows: list[ContextWindow], params: dict[str, Variable],
                   variant, vocab: Vocabulary
                   ) -> tuple[float, dict[str, np.ndarray | nm.RowGrad]]:
    """Mean per-window NLL and its gradients w.r.t. every parameter: the tape's
    own buffers, which share no memory, so the caller may change them in place.
    ``E`` and ``P`` come in row form (``numeric.RowGrad``) over the rows the
    batch reaches, the others as dense arrays; a parameter the batch does not
    reach at all gets an empty row-form gradient."""
    tape = Tape()
    total, _ = fusion.batch_nll(windows, params, variant, vocab, tape)
    loss = nm.scale(tape, nm.sum_all(tape, total), 1.0 / len(windows))
    tape.backward(loss)
    grads = {name: nm.RowGrad.empty(p.value) if p.grad is None else p.grad
             for name, p in params.items()}
    for p in params.values():
        p.zero_grad()
    return float(loss.value), grads


# validation goes through this name because bench/tracing.py times it and
# tests replace it
def mean_window_nll(windows: list[ContextWindow], params: dict[str, Variable],
                    variant, vocab: Vocabulary, batch_size: int) -> float:
    """Mean per-window NLL: evaluation's totals, added left to right in float64."""
    nlls, _ = evaluation.window_nlls(evaluation.Model(params, variant, vocab), windows,
                                     batch_size)
    return nm.fold_sum(nlls) / len(windows)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    config: TrainConfig
    arrays: dict[str, np.ndarray]  # exactly the model parameters
    vocab_tokens: list[str]
    epoch: int
    best_valid_nll: float
    rng_state: str

    def model_params(self) -> dict[str, Variable]:
        return {name: Variable(arr, name) for name, arr in self.arrays.items()}

    def vocabulary(self) -> Vocabulary:
        return Vocabulary(self.vocab_tokens)


def encode_rng_state(rng: np.random.Generator) -> str:
    s = rng.bit_generator.state
    return f"{s['bit_generator']}:{s['state']['state']}:{s['state']['inc']}:{s['has_uint32']}:{s['uinteger']}"


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write the checkpoint atomically: the bytes go to a new file beside ``path``
    that then replaces it, so a failed write leaves any earlier file intact."""
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    try:
        with open(tmp, "xb") as fh:
            _write_checkpoint(ckpt, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_checkpoint(ckpt: Checkpoint, fh) -> None:
    fh.write(CHECKPOINT_MAGIC)
    fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(ckpt.arrays)))
    for name, arr in ckpt.arrays.items():
        encoded = name.encode("utf-8")
        fh.write(struct.pack("<H", len(encoded)) + encoded)
        fh.write(struct.pack("<BB", DTYPE_CODES[arr.dtype], arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        # no copy when the array is already contiguous and little-endian
        fh.write(np.ascontiguousarray(arr, arr.dtype.newbyteorder("<")))
    extras = {
        "epoch": str(ckpt.epoch),
        "best_valid_nll": repr(ckpt.best_valid_nll),
        "rng_state": ckpt.rng_state,
        "vocab": " ".join(ckpt.vocab_tokens),
    }
    text = format_config(ckpt.config, extras).encode("utf-8")
    fh.write(struct.pack("<I", len(text)) + text)


def load_checkpoint(path) -> Checkpoint:
    """Read a file written by ``save_checkpoint``. Every length field is checked
    against the bytes left in the file before anything is allocated, and each
    array is read straight into its own buffer, so no copy of the file is held.
    The model arrays must have exactly the names, shapes and precision of the
    parameters of the stored configuration and vocabulary. Every fault of the
    file, a bad magic and an unsupported version included, is a CheckpointError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CheckpointError("not a checkpoint file (bad magic)")
        off = len(CHECKPOINT_MAGIC)

        def claim(n: int) -> None:
            nonlocal off
            if n > size - off:
                raise CheckpointError(f"truncated checkpoint: {n} bytes needed at offset {off}, "
                                      f"{size - off} left")
            off += n

        def take(n: int) -> bytes:
            claim(n)
            return fh.read(n)

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, take(struct.calcsize(fmt)))

        version, count = unpack("<II")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = unpack("<H")
            name = str(take(name_len), "utf-8")
            if name in arrays:
                raise CheckpointError(f"array {name} appears twice")
            code, rank = unpack("<BB")
            dims = unpack(f"<{rank}Q")
            dtype = CODE_DTYPES.get(code)
            if dtype is None:
                raise CheckpointError(f"array {name} has unknown precision code {code}")
            claim(math.prod(dims) * dtype.itemsize)
            flat = np.empty(math.prod(dims), dtype.newbyteorder("<"))
            if fh.readinto(flat.view(np.uint8)) != flat.nbytes:
                raise CheckpointError(f"{path} shrank while it was read")
            arrays[name] = flat.reshape(dims).astype(dtype, copy=False)
        (text_len,) = unpack("<I")
        text = str(take(text_len), "utf-8")
    if off != size:
        raise CheckpointError(f"{size - off} unexpected bytes after the checkpoint's end")
    raw = parse_config_text(text)
    missing = [key for key in ("epoch", "best_valid_nll", "rng_state", "vocab")
               if key not in raw]
    if missing:
        raise CheckpointError(f"checkpoint trailer lacks {', '.join(missing)}")
    epoch = int(raw.pop("epoch"))
    best = float(raw.pop("best_valid_nll"))
    rng_state = raw.pop("rng_state")
    vocab_tokens = raw.pop("vocab").split(" ")
    # earlier versions had a test_path key, which checkpoints may still hold
    raw.pop("test_path", None)
    config = config_from_mapping(raw)
    _check_parameters(arrays, config, len(Vocabulary(vocab_tokens)))
    return Checkpoint(config, arrays, vocab_tokens, epoch, best, rng_state)


def _check_parameters(arrays: dict[str, np.ndarray], config: TrainConfig,
                      vocab_size: int) -> None:
    expect = fusion.parameter_shapes(fusion.parse_variant(config.variant), vocab_size,
                                     config.d_emb, config.d_h, config.d_ctx, config.d_a)
    problems = [f"missing {name}" for name in expect if name not in arrays]
    problems += [f"unexpected {name}" for name in arrays if name not in expect]
    problems += [f"{name} is {arrays[name].shape}, not {shape}" for name, shape in expect.items()
                 if name in arrays and arrays[name].shape != shape]
    problems += [f"{name} is {a.dtype}, not {config.precision}" for name, a in arrays.items()
                 if a.dtype != config.dtype]
    if problems:
        raise CheckpointError(f"parameters do not fit {config.variant}: "
                              + ", ".join(problems))


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    train_nll: float
    valid_nll: float
    seconds: float

    def csv(self) -> str:
        return f"{self.epoch},{self.train_nll!r},{self.valid_nll!r},{self.seconds:.3f}"


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    log: list[EpochRecord] = field(default_factory=list)
    diverged: bool = False


def _snapshot(config: TrainConfig, params: dict[str, Variable], vocab: Vocabulary,
              epoch: int, best: float, rng: np.random.Generator, copy: bool) -> Checkpoint:
    """The model as a checkpoint; without ``copy`` it holds the live arrays,
    which is safe only once nothing will update them again."""
    arrays = {name: p.value.copy() if copy else p.value for name, p in params.items()}
    return Checkpoint(config, arrays, list(vocab.tokens), epoch, best, encode_rng_state(rng))


def _initial_state(config: TrainConfig, variant, vocab: Vocabulary
                   ) -> tuple[dict[str, Variable], np.random.Generator]:
    """Parameters and the generator, as seeded."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    try:
        params = fusion.init_parameters(
            variant, len(vocab), config.d_emb, config.d_h, config.d_ctx, config.d_a, rng,
            config.dtype
        )
    except MemoryError as e:  # check_array_size passes shapes memory cannot hold
        raise ConfigError(f"{e} does not fit in memory") from None
    return params, rng


def _initial_checkpoint(config: TrainConfig, variant, vocab: Vocabulary) -> Checkpoint:
    """The epoch-0 checkpoint, rebuilt from the seed instead of kept as a copy."""
    params, rng = _initial_state(config, variant, vocab)
    return _snapshot(config, params, vocab, 0, math.inf, rng, copy=False)


def _length_bucketed_batches(windows: list[ContextWindow], rng: np.random.Generator,
                             batch_size: int) -> list[list[int]]:
    perm = rng.permutation(len(windows))
    by_len = sorted(perm, key=lambda i: len(windows[i].target.token_ids))
    batches = [by_len[i : i + batch_size] for i in range(0, len(by_len), batch_size)]
    order = rng.permutation(len(batches))
    return [batches[i] for i in order]


def train(config: TrainConfig, train_docs: list[Document], valid_docs: list[Document],
          vocab: Vocabulary, progress=None) -> TrainResult:
    """Fit the configured variant; returns the best checkpoint by validation NLL.
    An epoch improves only on a strictly lower validation NLL than the best
    one's, and training stops once more than ``config.patience`` epochs in a
    row have not.

    On numeric divergence the last good checkpoint is returned with
    ``diverged`` set instead of raising.
    """
    variant = fusion.parse_variant(config.variant)
    params, rng = _initial_state(config, variant, vocab)
    moments = AdadeltaState.for_params(params)

    train_windows = corpus_windows(filter_by_length(train_docs, config.max_len), config.n)
    valid_windows = corpus_windows(filter_by_length(valid_docs, config.max_len), config.n)
    if not train_windows:
        raise CorpusError("no training windows after length filtering")
    if not valid_windows:
        raise CorpusError("no validation windows after length filtering")

    best: Checkpoint | None = None    # None: the epoch-0 state, rebuilt on demand
    stale = 0                         # epochs since the best one
    log: list[EpochRecord] = []

    def diverged() -> TrainResult:
        checkpoint = best if best is not None else _initial_checkpoint(config, variant, vocab)
        return TrainResult(checkpoint, log, diverged=True)

    for epoch in range(1, config.max_epochs + 1):
        started = time.monotonic()
        batches = _length_bucketed_batches(train_windows, rng, config.batch_size)
        loss_sum = 0.0
        seen = 0
        for idx_batch in batches:
            ws = [train_windows[i] for i in idx_batch]
            loss, grads = gradient_batch(ws, params, variant, vocab)
            norm = clip_gradients(grads, config.clip_norm)
            # a non-finite gradient makes the norm NaN or inf: stop before any
            # parameter moves
            if not (math.isfinite(loss) and math.isfinite(norm)):
                return diverged()
            for name, p in params.items():
                adadelta_update(p.value, grads[name], moments.sq_grad[name],
                                moments.sq_delta[name], config.rho, config.eps,
                                moments.live[name])
            loss_sum += loss * len(ws)
            seen += len(ws)
        train_nll = loss_sum / seen
        valid_nll = mean_window_nll(valid_windows, params, variant, vocab, config.batch_size)
        record = EpochRecord(epoch, train_nll, valid_nll, time.monotonic() - started)
        log.append(record)
        if progress is not None:
            progress(record)
        if not math.isfinite(valid_nll):
            return diverged()
        if best is None or valid_nll < best.best_valid_nll:
            # the last epoch's arrays never move again, so they need no copy
            best = _snapshot(config, params, vocab, epoch, valid_nll, rng,
                             copy=epoch < config.max_epochs)
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break
    return TrainResult(best, log, diverged=False)
