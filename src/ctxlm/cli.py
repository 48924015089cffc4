"""Command-line entry points: train, eval, ngram, synth, pos-ppl.

Data goes to standard output, logs and progress to standard error.
Exit codes: 0 success, 1 configuration error, 2 data error, 3 numeric
divergence.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .corpus import (CorpusError, build_vocabulary, encode_documents, load_corpus_file)
from .evaluation import (Model, TagAlignmentError, corpus_perplexity, load_tag_annotations,
                         perplexity_with_tags)
from .ngram import count_ngrams, write_arpa
from .training import (Checkpoint, ConfigError, check_array_size, config_from_mapping,
                       load_checkpoint, parse_config_text, save_checkpoint, train)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


def log(msg: str) -> None:
    print(msg, file=sys.stderr)


@dataclass(frozen=True)
class SynthSpec:
    """Topical synthetic corpus: each document draws one topic, each sentence
    draws tokens from that topic's unigram distribution."""

    topics: int
    vocab: int
    train_docs: int
    valid_docs: int
    test_docs: int
    sentences: int
    len_min: int
    len_max: int
    sharpness: float
    seed: int

    def __post_init__(self):
        for key in ("topics", "vocab", "train_docs", "valid_docs", "test_docs",
                    "sentences", "len_min", "len_max"):
            if getattr(self, key) < 1:
                raise ConfigError(f"synth {key} must be positive")
        if self.len_min > self.len_max:
            raise ConfigError("synth len_min must not exceed len_max")
        check_array_size("synth topic distributions", (self.topics, self.vocab), np.float64)
        check_array_size("synth sentence", (self.len_max,), np.int64)
        if not (math.isfinite(self.sharpness) and self.sharpness > 0):
            raise ConfigError("synth sharpness must be finite and positive")


def generate_synthetic(spec: SynthSpec) -> dict[str, str]:
    """Split name -> corpus file text; splits are disjoint by document."""
    rng = np.random.default_rng(spec.seed)
    # higher sharpness concentrates each topic on fewer tokens
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

    out = {}
    for split, count in (("train", spec.train_docs), ("valid", spec.valid_docs),
                         ("test", spec.test_docs)):
        out[split] = "\n\n".join(make_doc() for _ in range(count)) + "\n"
    return out


def _load_documents(path, vocab=None):
    raw = load_corpus_file(path)
    if not raw:
        raise CorpusError(f"no sentences in {path}")
    if vocab is None:
        return raw
    return encode_documents(raw, vocab)


def cmd_train(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ConfigError(f"{args.config}: invalid UTF-8 at byte {e.start}") from e
    config = config_from_mapping(parse_config_text(text))
    for key in ("train_path", "valid_path"):
        if not getattr(config, key):
            raise ConfigError(f"missing config key {key!r}")
    # the checkpoint is written after the last epoch: refuse a target that cannot take it now
    if not os.path.isdir(os.path.dirname(args.out) or ".") or os.path.isdir(args.out):
        raise CorpusError(f"--out {args.out}: not a file in an existing directory")
    try:
        train_raw = _load_documents(config.train_path)
        valid_raw = _load_documents(config.valid_path)
    except OSError as e:
        log(f"error: {e}")
        return EXIT_DATA
    vocab = build_vocabulary(train_raw, config.vocab_size)
    train_docs = encode_documents(train_raw, vocab)
    valid_docs = encode_documents(valid_raw, vocab)
    log(f"training {config.variant} (n={config.n}) on {len(train_docs)} documents, "
        f"|V|={len(vocab)}")
    result = train(config, train_docs, valid_docs, vocab,
                   progress=lambda r: log(r.csv()))
    save_checkpoint(result.checkpoint, args.out)
    with open(args.out + ".log.csv", "w", encoding="utf-8") as fh:
        for record in result.log:
            fh.write(record.csv() + "\n")
    if result.diverged:
        log("error: training diverged; wrote last good checkpoint")
        return EXIT_DIVERGED
    log(f"wrote {args.out} (best epoch {result.checkpoint.epoch})")
    return EXIT_OK


def _load_checkpoint_model(path) -> tuple[Model, Checkpoint]:
    try:
        ckpt = load_checkpoint(path)
    except ValueError as e:
        raise CorpusError(f"cannot read checkpoint {path}: {e}")
    return Model.from_checkpoint(ckpt), ckpt


def cmd_eval(args) -> int:
    if args.batch_size < 1:
        raise ConfigError("--batch-size must be at least 1")
    if args.top_k < 0:
        raise ConfigError("--top-k must not be negative")
    if args.n is not None and args.n < 0:
        raise ConfigError("--n must not be negative")
    model, ckpt = _load_checkpoint_model(args.checkpoint)
    docs = _load_documents(args.corpus, model.vocab)
    n = args.n if args.n is not None else ckpt.config.n
    if args.tags:
        with open(args.tags, "rb") as fh:
            annotations = load_tag_annotations(fh)
        # perplexity_with_tags checks the tags' alignment before any output
        report, tag_report = perplexity_with_tags(model, docs, annotations, n,
                                                  top_k=args.top_k, average=args.average,
                                                  batch_size=args.batch_size)
    else:
        report = corpus_perplexity(model, docs, n, batch_size=args.batch_size)
    if report.unk_rate > 0.5:
        log(f"warning: {report.unk_rate:.1%} of tokens are unknown; "
            "vocabulary and corpus may not match")
    sys.stdout.write(report.csv())
    if args.tags:
        sys.stdout.write("\n" + tag_report.csv())
    return EXIT_OK


def cmd_ngram(args) -> int:
    if args.order < 1:
        raise ConfigError("order must be at least 1")
    check_array_size("--order's begin-of-sentence padding", (args.order - 1,), np.int64)
    if args.vocab_size < 0 or args.vocab_size == 1:
        raise ConfigError("--vocab-size must be 0 or at least 2")
    train_raw = _load_documents(args.train)
    max_size = args.vocab_size if args.vocab_size else 2 + len(
        {t for doc in train_raw for sent in doc for t in sent}
    )
    vocab = build_vocabulary(train_raw, max_size)
    train_docs = encode_documents(train_raw, vocab)  # unfiltered: all sentences count
    table = count_ngrams(train_docs, args.order, len(vocab))
    eval_docs = _load_documents(args.eval, vocab)
    report = corpus_perplexity(table, eval_docs, n=0)
    export = open(args.export, "w", encoding="utf-8") if args.export else None  # before any output
    sys.stdout.write(report.csv())
    if export:
        with export:
            write_arpa(table, vocab, export)
        log(f"wrote {args.export}")
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = SynthSpec(args.topics, args.vocab, args.docs, args.valid_docs, args.test_docs,
                     args.sentences, args.len_min, args.len_max, args.sharpness, args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    for split, text in generate_synthetic(spec).items():
        path = os.path.join(args.out_dir, f"{split}.txt")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        log(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ctxlm",
                                     description="larger-context language modelling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.set_defaults(func=cmd_train)

    for name, need_tags in (("eval", False), ("pos-ppl", True)):
        p = sub.add_parser(name, help="perplexity report" +
                           (" per POS tag" if need_tags else ""))
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--corpus", required=True)
        p.add_argument("--tags", required=need_tags)
        p.add_argument("--n", type=int, default=None,
                       help="context size override (default: from checkpoint)")
        p.add_argument("--batch-size", type=int, default=64)
        p.add_argument("--top-k", type=int, default=10)
        p.add_argument("--average", choices=("geometric", "arithmetic"),
                       default="geometric")
        p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ngram", help="Kneser-Ney n-gram baseline")
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--train", required=True)
    p.add_argument("--eval", required=True)
    p.add_argument("--vocab-size", type=int, default=0, help="0 keeps every training token")
    p.add_argument("--export", default=None, help="write the smoothed table as text")
    p.set_defaults(func=cmd_ngram)

    p = sub.add_parser("synth", help="generate a topical synthetic corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--topics", type=int, default=5)
    p.add_argument("--vocab", type=int, default=200)
    p.add_argument("--docs", type=int, default=2000)
    p.add_argument("--valid-docs", type=int, default=200)
    p.add_argument("--test-docs", type=int, default=200)
    p.add_argument("--sentences", type=int, default=10)
    p.add_argument("--len-min", type=int, default=8)
    p.add_argument("--len-max", type=int, default=12)
    p.add_argument("--sharpness", type=float, default=20.0)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        log(f"config error: {e}")
        return EXIT_CONFIG
    except FileNotFoundError as e:
        code = EXIT_CONFIG if args.command == "train" and e.filename == getattr(args, "config", None) else EXIT_DATA
        log(f"error: {e}")
        return code
    except (CorpusError, TagAlignmentError, OSError) as e:
        log(f"error: {e}")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
