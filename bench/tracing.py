"""Layer tracing from outside the program: timers around public ctxlm functions.

The tracer replaces module attributes with timing wrappers while it is
installed and restores them on removal; the program itself is not edited.
Layer functions become spans (name, start, end, parent) kept in memory;
high-frequency leaves (tape primitives, n-gram lookups, bag-of-words
vectors, per-parameter Adadelta steps) only bump counters. Every timed call
adds its duration to the enclosing frame, so each name also gets a self time.
Backward time of a tape primitive is attributed by wrapping the closure the
primitive hands to ``Tape.record``.
"""

import contextlib
import time
from collections import defaultdict

from ctxlm import corpus, evaluation, fusion, ngram, rlm, training
from ctxlm import numeric as nm

TAPE_PRIMITIVES = ("matmul", "add", "mul", "add_bias", "sigmoid_v", "tanh_v", "embed_rows",
                   "nll_rows", "masked_softmax", "attention_mix", "blend", "concat_cols",
                   "stack_first", "reshape", "sum_all", "scale")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Spans and counters for one process; install() patches, remove() restores."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []          # [name, start, end, parent index or -1]
        self._stack: list[list] = []         # open frames: [name, start, child time, span index]
        self._patches: list[tuple] = []
        self._prim: str | None = None
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counts: dict[str, float] = defaultdict(float)

    def reset_counters(self) -> None:
        """Start a new accumulation window; spans are kept."""
        self.stats.clear()
        self.counts.clear()

    # -- frames ----------------------------------------------------------------

    def _enter(self, name: str, keep: bool) -> None:
        now = time.perf_counter()
        idx = -1
        if keep:
            parent = next((f[3] for f in reversed(self._stack) if f[3] >= 0), -1)
            idx = len(self.spans)
            self.spans.append([name, now - self.origin, None, parent])
        self._stack.append([name, now, 0.0, idx])

    def _exit(self) -> float:
        name, start, child, idx = self._stack.pop()
        now = time.perf_counter()
        dur = now - start
        st = self.stats[name]
        st.calls += 1
        st.total += dur
        st.self_time += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self.spans[idx][2] = now - self.origin
        return dur

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        self._enter(name, True)
        try:
            yield
        finally:
            self._exit()

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, owner, attr: str, name, keep: bool, after=None) -> None:
        """Wrap owner.attr; ``name`` is a string or a function of the call's arguments."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                label = name(args, kwargs) if callable(name) else name
                tracer._enter(label, keep)
                try:
                    out = original(*args, **kwargs)
                finally:
                    tracer._exit()
                if after is not None:
                    after(args, kwargs, out)
                return out
            return wrapper

        self._patch(owner, attr, make)

    def _primitive(self, prim: str) -> None:
        tracer = self
        name = f"numeric.{prim}"

        def make(original):
            def wrapper(*args, **kwargs):
                if prim == "matmul":
                    (m, k), n = args[1].value.shape, args[2].value.shape[1]
                    tracer.counts["numeric.matmul.flop"] += 2.0 * m * k * n
                outer = tracer._prim
                tracer._prim = prim
                tracer._enter(name, False)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._exit()
                    tracer._prim = outer
            return wrapper

        self._patch(nm, prim, make)

    def _record(self, original):
        tracer = self

        def record(tape, fn):
            bwd = f"numeric.{tracer._prim}.bwd"
            tracer.counts["numeric.tape_ops"] += 1

            def timed_backprop():
                tracer._enter(bwd, False)
                try:
                    fn()
                finally:
                    tracer._exit()

            original(tape, timed_backprop)

        return record

    def install(self) -> None:
        counts = self.counts

        def batch_nll_name(args, kwargs):
            taped = kwargs.get("tape", args[4] if len(args) > 4 else None) is not None
            return "fusion.batch_nll.fwd" if taped else "fusion.batch_nll.eval"

        def after_batch_nll(args, kwargs, out):
            windows = args[0]
            if isinstance(windows, fusion.WindowBatch):
                useful, slots = windows.mask.sum(), windows.mask.size
            else:
                lengths = [len(w.target.token_ids) for w in windows]
                useful, slots = sum(lengths), len(lengths) * max(lengths)
            taped = batch_nll_name(args, kwargs).endswith("fwd")
            key = "taped" if taped else "untaped"
            counts[f"fusion.useful_tokens.{key}"] += useful
            counts[f"fusion.token_slots.{key}"] += slots

        def after_make_batch(args, kwargs, batch):
            for bow in (batch.bow_sum, batch.bow_seq):
                if bow is not None:
                    counts["fusion.bow_nonzero"] += int((bow != 0).sum())
                    counts["fusion.bow_cells"] += bow.size

        ops_before = []

        def gradient_batch_name(args, kwargs):
            ops_before.append(counts["numeric.tape_ops"])
            return "training.gradient_batch"

        def after_gradient_batch(args, kwargs, out):
            variant = args[2] if isinstance(args[2], str) else args[2].tag
            counts["numeric.taped_windows"] += len(args[0])
            counts[f"numeric.taped_windows.{variant}"] += len(args[0])
            counts[f"numeric.tape_ops.{variant}"] += counts["numeric.tape_ops"] - ops_before.pop()

        def corpus_perplexity_name(args, kwargs):
            if isinstance(args[0], ngram.NGramTable):
                return "evaluation.corpus_perplexity.ngram"
            return "evaluation.corpus_perplexity"

        for prim in TAPE_PRIMITIVES:
            self._primitive(prim)
        self._patch(nm.Tape, "record", self._record)
        self._timed(nm.Tape, "backward", "numeric.backward", True)
        self._timed(rlm, "lstm_gates", "rlm.lstm_gates", True)
        self._timed(rlm, "lstm_step", "fusion.ctx_encoder", True)
        self._timed(fusion, "make_batch", "fusion.make_batch", True, after_make_batch)
        self._timed(fusion, "batch_nll", batch_nll_name, True, after_batch_nll)
        self._timed(fusion, "bow_vector", "corpus.bow_vector", False)
        self._timed(corpus, "encode_documents", "corpus.encode", True)
        self._timed(training, "train", "training.train", True)
        self._timed(training, "gradient_batch", gradient_batch_name, True,
                    after_gradient_batch)
        self._timed(training, "clip_gradients", "training.clip", True)
        self._timed(training, "adadelta_update", "training.adadelta", False)
        self._timed(training, "mean_window_nll", "training.validation", True)
        self._timed(training, "load_checkpoint", "training.load_checkpoint", True)
        self._timed(evaluation, "corpus_perplexity", corpus_perplexity_name, True)
        self._timed(evaluation, "perplexity_by_tag", "evaluation.perplexity_by_tag", True)
        self._timed(ngram, "count_ngrams", "ngram.count_ngrams", True)
        self._timed(ngram.NGramTable, "add_sentence", "ngram.add_sentence", False)
        self._timed(ngram, "estimate_discounts", "ngram.estimate_discounts", True)
        self._timed(ngram.NGramTable, "probability", "ngram.probability", False)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer number of the counters since the last reset, by metric name."""
        out: dict[str, float] = {}
        st, counts = self.stat, self.counts
        for prim in TAPE_PRIMITIVES:
            out[f"numeric.{prim}.calls"] = st(f"numeric.{prim}").calls
            out[f"numeric.{prim}.fwd_s"] = st(f"numeric.{prim}").total
            out[f"numeric.{prim}.bwd_s"] = st(f"numeric.{prim}.bwd").total
        out["numeric.tape_ops_per_window"] = _ratio(counts["numeric.tape_ops"],
                                                    counts["numeric.taped_windows"])
        out["numeric.backward_s"] = st("numeric.backward").total
        flop = counts["numeric.matmul.flop"]
        out["numeric.matmul.gflop"] = flop / 1e9
        out["numeric.matmul.gflops_per_s"] = _ratio(flop / 1e9, st("numeric.matmul").total)
        out["rlm.lstm_gates_s"] = st("rlm.lstm_gates").total
        out["rlm.lstm_gates.calls"] = st("rlm.lstm_gates").calls
        out["fusion.make_batch_s"] = st("fusion.make_batch").total
        out["fusion.make_batch.calls"] = st("fusion.make_batch").calls
        out["fusion.batch_nll.fwd_s"] = st("fusion.batch_nll.fwd").total
        out["fusion.batch_nll.eval_s"] = st("fusion.batch_nll.eval").total
        out["fusion.ctx_encoder_s"] = st("fusion.ctx_encoder").total
        for key in ("taped", "untaped"):
            out[f"fusion.useful_token_share.{key}"] = _ratio(
                counts[f"fusion.useful_tokens.{key}"], counts[f"fusion.token_slots.{key}"])
        out["fusion.bow_nonzero_share"] = _ratio(counts["fusion.bow_nonzero"],
                                                 counts["fusion.bow_cells"])
        out["corpus.encode_s"] = st("corpus.encode").total
        out["corpus.bow_vector_s"] = st("corpus.bow_vector").total
        out["corpus.bow_vector.calls"] = st("corpus.bow_vector").calls
        out["training.gradient_batch.self_s"] = st("training.gradient_batch").self_time
        out["training.clip_s"] = st("training.clip").total
        out["training.adadelta_s"] = st("training.adadelta").total
        out["training.validation_s"] = st("training.validation").total
        out["training.train.self_s"] = st("training.train").self_time
        out["training.load_checkpoint_s"] = st("training.load_checkpoint").total
        out["evaluation.corpus_perplexity_s"] = st("evaluation.corpus_perplexity").total
        out["evaluation.perplexity_by_tag.self_s"] = st("evaluation.perplexity_by_tag").self_time
        out["ngram.add_sentence_s"] = st("ngram.add_sentence").total
        out["ngram.count_ngrams.self_s"] = st("ngram.count_ngrams").self_time
        out["ngram.estimate_discounts_s"] = st("ngram.estimate_discounts").total
        out["ngram.probability_s"] = st("ngram.probability").total
        out["ngram.probability.calls"] = st("ngram.probability").calls
        for name, value in counts.items():
            if name.startswith("numeric.taped_windows."):
                variant = name.rsplit(".", 1)[1]
                ops = counts.get(f"numeric.tape_ops.{variant}", 0.0)
                out[f"numeric.tape_ops_per_window.{variant}"] = ops / value
        return out
