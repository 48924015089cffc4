"""Corpus-level perplexity and perplexity per POS tag.

Perplexity is exp(total NLL / predicted tokens) with end-of-sentence events
counted. Tag analysis groups per-token NLLs by externally supplied tags
(one tag per content token, none for EOS); per-tag perplexity is the
geometric convention exp(mean NLL), with an arithmetic alternative one flag
away. Evaluation is read-only over the model: one pass of the batch engine
over the corpus gives both the per-sentence totals and the per-token NLLs,
the latter as one array in corpus order, each sentence's EOS last.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fusion
from .corpus import Document, UNK_ID, Vocabulary, corpus_windows, load_corpus
from .ngram import NGramTable, sentence_log_probabilities
from .numeric import Variable, fold_sum

TAG_MERGES = {"NN": "Noun", "NNS": "Noun", "VB": "Verb", "VBZ": "Verb"}


class TagAlignmentError(ValueError):
    pass


@dataclass
class Model:
    """A trained sentence model bundled with what evaluation needs."""

    params: dict[str, Variable]
    variant: fusion.Variant
    vocab: Vocabulary

    @classmethod
    def from_checkpoint(cls, ckpt) -> "Model":
        return cls(ckpt.model_params(), fusion.parse_variant(ckpt.config.variant),
                   ckpt.vocabulary())


@dataclass
class EvalReport:
    tokens: int            # predicted events
    total_nll: float       # nats
    unk_rate: float        # UNK share among content tokens

    @property
    def mean_nll(self) -> float:
        return self.total_nll / self.tokens

    @property
    def perplexity(self) -> float:
        return math.exp(self.mean_nll)

    def csv(self) -> str:
        return ("tag,count,mean_nll,perplexity\n"
                f"ALL,{self.tokens},{self.mean_nll:.6f},{self.perplexity:.6f}\n")


@dataclass
class TagRow:
    tag: str
    count: int
    mean_nll: float

    @property
    def perplexity(self) -> float:
        return math.exp(self.mean_nll)


@dataclass
class TagReport:
    rows: list[TagRow]            # the reported (top-k) tags
    tagged_tokens: int            # all tagged tokens, reported or not
    tagged_total_nll: float
    average: str = "geometric"

    def csv(self) -> str:
        out = ["tag,count,mean_nll,perplexity"]
        for r in self.rows:
            out.append(f"{r.tag},{r.count},{r.mean_nll:.6f},{r.perplexity:.6f}")
        mean = self.tagged_total_nll / self.tagged_tokens
        out.append(f"ALL,{self.tagged_tokens},{mean:.6f},{math.exp(mean):.6f}")
        return "\n".join(out) + "\n"


def _unk_rate(documents: list[Document]) -> float:
    unk = total = 0
    for doc in documents:
        for sent in doc.sentences:
            total += sent.length
            unk += sum(1 for t in sent.content_ids if t == UNK_ID)
    return unk / total if total else 0.0


def _window_nlls(model: Model, documents: list[Document], n: int,
                 batch_size: int) -> tuple[list[float], np.ndarray]:
    """Per-window NLL of every sentence, and all their per-token NLLs (EOS
    included) concatenated, both in document order."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    windows = corpus_windows(documents, n)
    if not windows:
        raise ValueError("empty corpus")
    per_window: list[float] = []
    per_token: list[np.ndarray] = []
    for i in range(0, len(windows), batch_size):
        totals, tokens = fusion.batch_nll(windows[i : i + batch_size], model.params,
                                          model.variant, model.vocab)
        per_window.extend(totals.value.tolist())
        per_token.append(tokens)
    return per_window, np.concatenate(per_token)


def corpus_perplexity(model, documents: list[Document], n: int,
                      batch_size: int = 64) -> EvalReport:
    """Perplexity of a sentence model or an n-gram table over whole documents."""
    if not documents:
        raise ValueError("empty corpus")
    if isinstance(model, NGramTable):
        sentences = [s for d in documents for s in d.sentences]
        tokens = sum(len(s.token_ids) for s in sentences)
        total = -fold_sum(sentence_log_probabilities(sentences, model))
        return EvalReport(tokens, total, _unk_rate(documents))
    nlls, _ = _window_nlls(model, documents, n, batch_size)
    return _corpus_report(documents, nlls)


def _corpus_report(documents: list[Document], nlls: list[float]) -> EvalReport:
    tokens = sum(len(s.token_ids) for d in documents for s in d.sentences)
    return EvalReport(tokens, fold_sum(nlls), _unk_rate(documents))


def load_tag_annotations(stream) -> list[list[list[str]]]:
    """Tag file: same line/document structure as the corpus, tags whitespace-split.
    Invalid UTF-8 raises CorpusError."""
    return load_corpus(stream)


def check_alignment(documents: list[Document], annotations: list[list[list[str]]]) -> None:
    if len(documents) != len(annotations):
        raise TagAlignmentError(
            f"{len(annotations)} tag documents for {len(documents)} corpus documents"
        )
    for di, (doc, tag_doc) in enumerate(zip(documents, annotations)):
        if len(doc.sentences) != len(tag_doc):
            raise TagAlignmentError(
                f"document {di}: {len(tag_doc)} tag lines for {len(doc.sentences)} sentences"
            )
        for si, (sent, tags) in enumerate(zip(doc.sentences, tag_doc)):
            if sent.length != len(tags):
                raise TagAlignmentError(
                    f"document {di}, sentence {si}: {len(tags)} tags for {sent.length} tokens"
                )


def perplexity_by_tag(model: Model, documents: list[Document],
                      annotations: list[list[list[str]]], n: int, top_k: int = 10,
                      average: str = "geometric", batch_size: int = 64) -> TagReport:
    """Group per-token NLLs by POS tag; NN/NNS merge into Noun, VB/VBZ into Verb."""
    _check_tag_request(documents, annotations, average)
    _, per_token = _window_nlls(model, documents, n, batch_size)
    return _tag_report(per_token, annotations, top_k, average)


def perplexity_with_tags(model: Model, documents: list[Document],
                         annotations: list[list[list[str]]], n: int, top_k: int = 10,
                         average: str = "geometric",
                         batch_size: int = 64) -> tuple[EvalReport, TagReport]:
    """``corpus_perplexity`` and ``perplexity_by_tag`` of a sentence model from
    one forward pass over the corpus."""
    _check_tag_request(documents, annotations, average)
    nlls, per_token = _window_nlls(model, documents, n, batch_size)
    return (_corpus_report(documents, nlls),
            _tag_report(per_token, annotations, top_k, average))


def _check_tag_request(documents: list[Document], annotations: list[list[list[str]]],
                       average: str) -> None:
    if average not in ("geometric", "arithmetic"):
        raise ValueError(f"unknown averaging mode {average!r}")
    check_alignment(documents, annotations)


def _tag_report(per_token: np.ndarray, annotations: list[list[list[str]]],
                top_k: int, average: str) -> TagReport:
    """Walk the corpus-order per-token NLLs sentence by sentence, one tag per
    content token, skipping each sentence's trailing EOS."""
    nlls = per_token.tolist()
    nll_sum: dict[str, float] = {}
    ppl_sum: dict[str, float] = {}
    counts: dict[str, int] = {}
    total_nll = 0.0
    total_count = 0
    pos = 0
    for tags in (tags for doc in annotations for tags in doc):
        for value, tag in zip(nlls[pos : pos + len(tags)], tags):
            tag = TAG_MERGES.get(tag, tag)
            counts[tag] = counts.get(tag, 0) + 1
            nll_sum[tag] = nll_sum.get(tag, 0.0) + value
            ppl_sum[tag] = ppl_sum.get(tag, 0.0) + math.exp(value)
            total_nll += value
            total_count += 1
        pos += len(tags) + 1  # the sentence's EOS
    ranked = sorted(counts, key=lambda t: (-counts[t], t))[:top_k]
    rows = []
    for tag in ranked:
        if average == "geometric":
            mean = nll_sum[tag] / counts[tag]
        else:
            mean = math.log(ppl_sum[tag] / counts[tag])  # store as log of mean per-word ppl
        rows.append(TagRow(tag, counts[tag], mean))
    return TagReport(rows, total_count, total_nll, average)
