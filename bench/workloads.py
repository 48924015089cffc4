"""The benchmark's workloads: how each builds its inputs from a seed, and the
timed units of work it repeats.

Every workload runs the same five phases (train, eval, pos_ppl, ngram_count,
ngram_query) so that every end-to-end metric exists on every workload; the
share of the run each phase gets is what makes a workload stress one layer
more than another. All calls go through module attributes (``training.train``,
not an imported name), so the tracer's wrappers see them.
"""

import io
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from ctxlm import corpus, evaluation, fusion, ngram, training
from ctxlm.cli import SynthSpec, generate_synthetic

NGRAM_ORDER = 5
TAG_SET = ("NN", "NNS", "VB", "VBZ", "JJ", "DT", "IN", "RB", "PRP", "CC")
PHASES = ("train", "eval", "pos_ppl", "ngram_count", "ngram_query")

# The clock units are timed with; run.py swaps in one that leaves out the
# machine-speed probe's time (probe.py).
clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str                      # "topical" (the synth recipe) or "zipf"
    docs: dict[str, int]             # documents per split
    train_docs: int                  # leading train documents the neural models see
    precision: str
    d_h: int
    d_emb: int
    d_ctx: int
    batch_size: int
    n: int
    train_variants: tuple[str, ...]
    eval_variants: tuple[str, ...]
    shares: dict[str, float]         # "setup" or phase -> share of --seconds
    array_phases: tuple[str, ...] = ()   # read against the array probe, the rest against Python
    query_repeats: int = 1           # test-split passes per ngram_query unit

    def train_config(self, variant: str, vocab_size: int, seed: int) -> training.TrainConfig:
        return training.TrainConfig(
            variant=variant, n=self.n, d_h=self.d_h, d_emb=self.d_emb, d_ctx=self.d_ctx,
            vocab_size=vocab_size, max_len=50, batch_size=self.batch_size, max_epochs=1,
            patience=1, seed=seed, precision=self.precision)


# Why each workload exists is recorded in BENCHMARK.json; the shapes follow it.
WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance experiment's shape: tiny GEMMs, so Python dispatch, tape
        # length, sigmoid, make_batch and the per-timestep loop dominate.
        Workload("toy-train", "topical", {"train": 200, "valid": 40, "test": 40},
                 train_docs=200, precision="f64", d_h=64, d_emb=32, d_ctx=32,
                 batch_size=64, n=4,
                 train_variants=("RLM", "RLM-BoW-LF", "RLM-SeqBoW-EF", "RLM-SeqBoW-ATT-LF"),
                 eval_variants=("RLM", "RLM-BoW-LF"),
                 shares={"setup": 0.04, "train": 0.56, "eval": 0.10, "pos_ppl": 0.10,
                         "ngram_count": 0.10, "ngram_query": 0.10}),
        # The paper's model size: large GEMMs, a 10000-wide softmax, and clip plus
        # Adadelta over about 41M parameters dominate; Python overhead does not.
        Workload("paper-train", "zipf", {"train": 40, "valid": 4, "test": 2},
                 train_docs=8, precision="f32", d_h=1000, d_emb=1000, d_ctx=1000,
                 batch_size=32, n=4,
                 train_variants=("RLM-BoW-LF",), eval_variants=("RLM-BoW-LF",),
                 shares={"setup": 0.05, "train": 0.63, "eval": 0.08, "pos_ppl": 0.08,
                         "ngram_count": 0.08, "ngram_query": 0.08},
                 array_phases=("setup", "train", "eval", "pos_ppl"), query_repeats=25),
        # The read path at toy shape: the fusion engine without the tape, on batches
        # that are not length-bucketed, plus the pure-Python Kneser-Ney tables.
        Workload("score", "topical", {"train": 60, "valid": 40, "test": 100},
                 train_docs=60, precision="f64", d_h=64, d_emb=32, d_ctx=32,
                 batch_size=64, n=4,
                 train_variants=("RLM-BoW-LF", "RLM-SeqBoW-ATT-LF"),
                 eval_variants=("RLM-BoW-LF", "RLM-SeqBoW-ATT-LF"),
                 shares={"setup": 0.04, "train": 0.16, "eval": 0.22, "pos_ppl": 0.22,
                         "ngram_count": 0.18, "ngram_query": 0.18}),
    )
}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

ZIPF_VOCAB = 10000
ZIPF_LENGTHS = tuple(range(15, 31))
ZIPF_SENTENCES_PER_DOC = 8


def _zipf_texts(docs: dict[str, int], seed: int) -> dict[str, str]:
    """Sentences of 15-30 tokens drawn from a Zipf (1/rank) unigram law over the
    content words; every 16 sentences use each length once, in seeded order, so
    the seed changes which tokens appear but not how much work they are."""
    rng = np.random.default_rng(seed)
    content = ZIPF_VOCAB - 2
    weights = 1.0 / np.arange(1, content + 1)
    weights /= weights.sum()
    words = np.array([f"w{i}" for i in range(content)])   # w0 is the most frequent
    out = {}
    for split, count in docs.items():
        sentences = count * ZIPF_SENTENCES_PER_DOC
        cycles = -(-sentences // len(ZIPF_LENGTHS))
        lengths = np.concatenate([rng.permutation(ZIPF_LENGTHS) for _ in range(cycles)])
        ids = rng.choice(content, size=int(lengths[:sentences].sum()), p=weights)
        bounds = np.cumsum(lengths[:sentences - 1])
        lines = [" ".join(words[chunk]) for chunk in np.split(ids, bounds)]
        per_doc = ZIPF_SENTENCES_PER_DOC
        out[split] = "\n\n".join("\n".join(lines[i:i + per_doc])
                                 for i in range(0, sentences, per_doc)) + "\n"
    return out


def _zipf_vocabulary() -> corpus.Vocabulary:
    """The full 10000-entry vocabulary, as a vocabulary file would give it."""
    return corpus.Vocabulary([corpus.UNK_TOKEN, corpus.EOS_TOKEN]
                             + [f"w{i}" for i in range(ZIPF_VOCAB - 2)])


def _tag_text(documents: list[corpus.Document], vocab_size: int, seed: int) -> str:
    """A tag file for the documents: each token id has one seeded tag."""
    rng = np.random.default_rng(seed + 1)
    tag_of = [TAG_SET[i] for i in rng.integers(len(TAG_SET), size=vocab_size)]
    docs = ["\n".join(" ".join(tag_of[t] for t in s.content_ids) for s in d.sentences)
            for d in documents]
    return "\n\n".join(docs) + "\n"


@dataclass
class Inputs:
    vocab: corpus.Vocabulary
    docs: dict[str, list[corpus.Document]]
    tags: list
    models: list = field(default_factory=list)
    table: ngram.NGramTable | None = None     # set by the ngram_count unit


def build_inputs(wl: Workload, seed: int, checkpoints: list[str]) -> Inputs:
    """Everything a user pays before the first useful operation: corpus
    generation and parsing, vocabulary, encoding, tags, checkpoint loads."""
    if wl.corpus == "topical":
        spec = SynthSpec(topics=5, vocab=200, train_docs=wl.docs["train"],
                         valid_docs=wl.docs["valid"], test_docs=wl.docs["test"],
                         sentences=10, len_min=8, len_max=12, sharpness=20.0, seed=seed)
        texts = generate_synthetic(spec)
    else:
        texts = _zipf_texts(wl.docs, seed)
    raw = {split: corpus.load_corpus(io.StringIO(text)) for split, text in texts.items()}
    if wl.corpus == "topical":
        vocab = corpus.build_vocabulary(raw["train"], 250)
    else:
        vocab = _zipf_vocabulary()
    docs = {split: corpus.encode_documents(r, vocab) for split, r in raw.items()}
    docs["nn_train"] = docs["train"][: wl.train_docs]   # what train() sees
    tags = evaluation.load_tag_annotations(io.StringIO(_tag_text(docs["test"], len(vocab), seed)))
    models = [evaluation.Model.from_checkpoint(training.load_checkpoint(p)) for p in checkpoints]
    return Inputs(vocab, docs, tags, models)


def write_seeded_checkpoints(wl: Workload, seed: int, inputs: Inputs, directory: str) -> list[str]:
    """Checkpoints of freshly initialised evaluation models (parameters only)."""
    paths = []
    for k, variant in enumerate(wl.eval_variants):
        config = wl.train_config(variant, len(inputs.vocab), seed + 100 + k)
        rng = np.random.Generator(np.random.PCG64(config.seed))
        params = fusion.init_parameters(fusion.parse_variant(variant), len(inputs.vocab),
                                        config.d_emb, config.d_h, config.d_ctx, config.d_a,
                                        rng, config.dtype)
        ckpt = training.Checkpoint(config, {name: p.value for name, p in params.items()},
                                   list(inputs.vocab.tokens), 0, math.inf,
                                   training.encode_rng_state(rng))
        path = os.path.join(directory, f"{variant}.ckpt")
        training.save_checkpoint(ckpt, path)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# timed units
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """One timed unit of a phase: work done, seconds taken, operations tried."""

    work: float
    seconds: float
    attempted: int
    failed: int
    detail: dict = field(default_factory=dict)


def _tokens(documents: list[corpus.Document]) -> int:
    return sum(len(s.token_ids) for d in documents for s in d.sentences)


def _eval_batches(documents: list[corpus.Document], batch_size: int = 64) -> int:
    windows = sum(len(d.sentences) for d in documents)
    return -(-windows // batch_size)


def unit_train(wl: Workload, seed: int, inputs: Inputs) -> Sample:
    """One ``train()`` epoch per variant; work is training windows."""
    train_docs = inputs.docs["nn_train"]
    windows = len(corpus.corpus_windows(corpus.filter_by_length(train_docs, 50), wl.n))
    steps = -(-windows // wl.batch_size)
    total = 0.0
    failed = 0
    detail = {"windows_per_s": {}, "valid_nll": {}, "state_mb": 0.0}
    for variant in wl.train_variants:
        config = wl.train_config(variant, len(inputs.vocab), seed)
        started = clock()
        result = training.train(config, train_docs, inputs.docs["valid"], inputs.vocab)
        took = clock() - started
        total += took
        record = result.log[-1] if result.log else None
        ok = (not result.diverged and record is not None
              and math.isfinite(record.train_nll) and math.isfinite(record.valid_nll))
        failed += 0 if ok else steps
        detail["windows_per_s"][variant] = windows / took
        detail["valid_nll"][variant] = record.valid_nll if record is not None else math.nan
        # parameters + gradient buffers + gradient copies + two Adadelta moments
        params = sum(a.nbytes for n, a in result.checkpoint.arrays.items()
                     if not n.startswith("opt."))
        detail["state_mb"] = max(detail["state_mb"], 5 * params / 2**20)
    return Sample(windows * len(wl.train_variants), total, steps * len(wl.train_variants),
                  failed, detail)


def unit_eval(wl: Workload, seed: int, inputs: Inputs) -> Sample:
    """``corpus_perplexity`` of each evaluation model over the test split."""
    test = inputs.docs["test"]
    total = 0.0
    failed = 0
    nll = {}
    for model in inputs.models:
        started = clock()
        report = evaluation.corpus_perplexity(model, test, wl.n)
        total += clock() - started
        nll[model.variant.tag] = report.total_nll
        failed += 0 if math.isfinite(report.total_nll) else _eval_batches(test)
    count = len(inputs.models)
    return Sample(_tokens(test) * count, total, _eval_batches(test) * count, failed,
                  {"total_nll": nll})


def unit_pos_ppl(wl: Workload, seed: int, inputs: Inputs) -> Sample:
    """``perplexity_by_tag`` of each evaluation model over the tagged test split."""
    test = inputs.docs["test"]
    total = 0.0
    failed = 0
    nll = {}
    for model in inputs.models:
        started = clock()
        report = evaluation.perplexity_by_tag(model, test, inputs.tags, wl.n)
        total += clock() - started
        nll[model.variant.tag] = report.tagged_total_nll
        failed += 0 if math.isfinite(report.tagged_total_nll) else _eval_batches(test)
    count = len(inputs.models)
    return Sample(_tokens(test) * count, total, _eval_batches(test) * count, failed,
                  {"tagged_nll": nll})


def unit_ngram_count(wl: Workload, seed: int, inputs: Inputs) -> Sample:
    """Count an order-5 Kneser-Ney table over the whole train split."""
    train = inputs.docs["train"]
    started = clock()
    table = ngram.count_ngrams(train, NGRAM_ORDER, len(inputs.vocab))
    took = clock() - started
    table.discounts  # lazy, once per table: warmed here so queries time queries only
    inputs.table = table
    entries = sum(len(m) for m in table.counts.values())
    sentences = sum(len(d.sentences) for d in train)
    return Sample(_tokens(train), took, sentences, 0, {"entries": entries})


def unit_ngram_query(wl: Workload, seed: int, inputs: Inputs) -> Sample:
    """Score the test split with the latest counted table, ``query_repeats`` times."""
    test = inputs.docs["test"]
    started = clock()
    reports = [evaluation.corpus_perplexity(inputs.table, test, wl.n)
               for _ in range(wl.query_repeats)]
    took = clock() - started
    sentences = sum(len(d.sentences) for d in test) * wl.query_repeats
    nll = [r.total_nll for r in reports]
    failed = 0 if all(math.isfinite(x) for x in nll) else sentences
    return Sample(sum(r.tokens for r in reports), took, sentences, failed, {"total_nll": nll})


UNITS = {"train": unit_train, "eval": unit_eval, "pos_ppl": unit_pos_ppl,
         "ngram_count": unit_ngram_count, "ngram_query": unit_ngram_query}
