"""Corpus ingestion: vocabulary, documents, context windows.

Corpus files are UTF-8 with one pre-tokenized sentence per line (tokens
whitespace-separated) and a blank line between documents. A file with no
blank lines is a single document. A leading byte-order mark is not part of
the text.
"""

from collections import Counter
from dataclasses import dataclass

UNK_ID = 0
EOS_ID = 1
UNK_TOKEN = "<unk>"
EOS_TOKEN = "</s>"


class CorpusError(ValueError):
    pass


class Vocabulary:
    """Token <-> contiguous id map with reserved unknown and end-of-sentence ids;
    the token list starts with those two."""

    def __init__(self, tokens: list[str]):
        if tokens[:2] != [UNK_TOKEN, EOS_TOKEN]:
            raise CorpusError(f"vocabulary must start with {UNK_TOKEN} {EOS_TOKEN}")
        self.tokens = list(tokens)
        self._ids = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self._ids) != len(self.tokens):
            raise CorpusError("duplicate token in vocabulary")

    def __len__(self):
        return len(self.tokens)

    def encode(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def decode(self, token_id: int) -> str:
        return self.tokens[token_id]


@dataclass(frozen=True)
class Sentence:
    """Encoded sentence; token_ids always ends with EOS_ID."""

    token_ids: tuple[int, ...]

    def __post_init__(self):
        if len(self.token_ids) < 2 or self.token_ids[-1] != EOS_ID:
            raise CorpusError("sentence needs at least one content token and a trailing EOS")

    @property
    def length(self) -> int:
        """Content-token count, excluding the trailing EOS."""
        return len(self.token_ids) - 1

    @property
    def content_ids(self) -> tuple[int, ...]:
        return self.token_ids[:-1]


@dataclass(frozen=True)
class Document:
    sentences: tuple[Sentence, ...]
    # per-sentence eligibility as a training/eval target; None means all eligible
    target_mask: tuple[bool, ...] | None = None

    def __post_init__(self):
        if not self.sentences:
            raise CorpusError("document has no sentences")
        if self.target_mask is not None and len(self.target_mask) != len(self.sentences):
            raise CorpusError("target_mask length mismatch")

    def is_target(self, index: int) -> bool:
        return self.target_mask is None or self.target_mask[index]


@dataclass(frozen=True)
class ContextWindow:
    """A target sentence plus up to n immediately preceding sentences, in order."""

    target: Sentence
    context: tuple[Sentence, ...]


RawDocument = list[list[str]]  # sentences as token-string lists, pre-encoding


def load_corpus(stream) -> list[RawDocument]:
    """Parse raw documents from a text or binary stream (binary is decoded as UTF-8)."""
    data = stream.read()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CorpusError(f"invalid UTF-8 at byte {e.start}") from e
    # dropped after decoding, so an invalid byte's offset counts from the file's start
    data = data.removeprefix("\ufeff")
    docs: list[RawDocument] = []
    current: RawDocument = []
    for line in data.split("\n"):
        tokens = line.split()
        if tokens:
            current.append(tokens)
        elif current:
            docs.append(current)
            current = []
    if current:
        docs.append(current)
    return docs


def load_corpus_file(path) -> list[RawDocument]:
    with open(path, "rb") as fh:
        return load_corpus(fh)


def build_vocabulary(raw_docs: list[RawDocument], max_size: int) -> Vocabulary:
    """Keep the (max_size - 2) most frequent tokens; ties break lexicographically."""
    if max_size < 2:
        raise CorpusError("max_size must be at least 2 (unknown + end-of-sentence)")
    counts = Counter()
    for doc in raw_docs:
        for sent in doc:
            counts.update(sent)
    counts.pop(UNK_TOKEN, None)
    counts.pop(EOS_TOKEN, None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = [tok for tok, _ in ranked[: max_size - 2]]
    return Vocabulary([UNK_TOKEN, EOS_TOKEN] + keep)


def encode_documents(raw_docs: list[RawDocument], vocab: Vocabulary) -> list[Document]:
    docs = []
    for doc in raw_docs:
        sentences = tuple(
            Sentence(tuple(vocab.encode(t) for t in sent) + (EOS_ID,)) for sent in doc
        )
        docs.append(Document(sentences))
    return docs


def filter_by_length(documents: list[Document], max_len: int) -> list[Document]:
    """Mark over-length sentences as non-targets; they stay available as context."""
    if max_len < 1:
        raise CorpusError("max_len must be at least 1")
    out = []
    for doc in documents:
        mask = tuple(s.length <= max_len for s in doc.sentences)
        out.append(Document(doc.sentences, None if all(mask) else mask))
    return out


def context_windows(document: Document, n: int) -> list[ContextWindow]:
    """One window per eligible target sentence; context is the up-to-n preceding sentences."""
    if n < 0:
        raise CorpusError("context size n must be non-negative")
    windows = []
    for i, sent in enumerate(document.sentences):
        if not document.is_target(i):
            continue
        lo = max(0, i - n) if n > 0 else i
        windows.append(ContextWindow(sent, document.sentences[lo:i]))
    return windows


def corpus_windows(documents: list[Document], n: int) -> list[ContextWindow]:
    out = []
    for doc in documents:
        out.extend(context_windows(doc, n))
    return out
