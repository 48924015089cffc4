"""Count-based n-gram language model with interpolated modified Kneser-Ney smoothing.

Counting is per sentence with (order-1) begin-of-sentence padding tokens and a
trailing end-of-sentence token; n-grams never cross sentence boundaries and
never end in the padding token. The highest order interpolates raw counts;
every lower order uses continuation counts (number of distinct left contexts);
the base distribution is uniform over the vocabulary, which keeps every
probability strictly positive.

The table stores each order as one sorted int64 key array with value arrays
beside it, the layout of KenLM (Heafield, "KenLM: Faster and Smaller
Language Model Queries", WMT 2011); see ``NGramTable``, whose constructor
builds every array once with numpy. A gram's id is its rank among its
order's keys, and a context's id is the id of the gram it spells: as in
KenLM's carried state, a word's context is the gram that ends just before
it, so scoring a corpus makes one lookup per order. Every query, whether a
whole corpus, an export listing or a single ``probability`` call, goes
through one interpolation. It works bottom-up: the top-down recursion
p_k = max(c - D, 0) / total + weight * p_(k-1) evaluates its lower orders
first anyway, so starting from the uniform base and going up the orders
performs the same float operations in the same order, elementwise.
"""

import logging
import math
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .corpus import Document, Sentence
from .numeric import fold_sum

log = logging.getLogger(__name__)

BOS = -1  # context-only padding id, never in the vocabulary and never predicted

FALLBACK_DISCOUNT = 0.5  # used when count-of-counts give no usable discount

# The code of a context token that is neither a word nor BOS: every key built
# from it is negative, so it matches no gram.
_INVALID = -(1 << 62)
_END = np.iinfo(np.int64).max  # sentinel closing every sorted key array


@dataclass(frozen=True)
class OrderDiscounts:
    d1: float
    d2: float
    d3plus: float


class NGramTable:
    """N-gram statistics as per-order sorted arrays.

    Internally BOS is the code V (the vocabulary size), so W = V + 1 codes
    make one digit of a key. The gram t_1..t_k has the key
    ``id(t_1..t_(k-1)) * W + t_k`` at order k, and its id is the rank of
    that key in ``_keys[k]``; the empty gram has id 0. The first n_k keys are
    the grams seen in training. BOS^k, the context of every sentence's first
    word at order k + 1, follows them with id n_k (so BOS^0, the empty gram,
    fits with n_0 = 0). A context of k - 1 tokens is the order-(k-1) gram it
    spells, so at order k:

    - ``counts[k]`` holds the count order k's estimate uses for each seen
      gram (occurrence counts at the top order, continuation counts below:
      the number of distinct left extensions) and ``_numerators[k]`` each
      ``max(c - D(c), 0)``;
    - ``_totals[k]`` and ``_weights[k]``, indexed by order-(k-1) ids, hold
      each context's count total and interpolation weight
      ``(d1*n1 + d2*n2 + d3+*n3+) / total``. A gram never followed by a word
      (one ending in EOS) is no context: total inf and weight 1, as unseen.

    Each key and value array except ``counts`` ends in a sentinel: a lookup
    that misses reads index -1, whose numerator 0, total inf and weight 1
    leave p as it is, and whose key matches nothing. The constructor builds
    every array once from ``sentences``, token-id tuples that end in EOS.
    """

    # no program path calls this name; bench/tracing.py wraps it all the same,
    # so it stays bound until its next change (ROADMAP item 3) drops it
    add_sentence = None

    def __init__(self, sentences: list[tuple[int, ...]], order: int, vocab_size: int):
        if order < 1:
            raise ValueError("order must be at least 1")
        if vocab_size < 2:
            raise ValueError("vocab_size must cover the reserved ids")
        self.order = order
        self.vocab_size = vocab_size
        n, V, W = order, vocab_size, vocab_size + 1
        words, first = _flat(sentences, vocab_size)
        if n * len(words) > np.iinfo(np.intp).max // np.dtype(np.int64).itemsize:
            raise ValueError(f"{n} orders of {len(words)} gram ids each are too large "
                             "for an array")
        self.counts: dict[int, np.ndarray] = {}
        self._keys: dict[int, np.ndarray] = {}
        gram_of = np.empty((n, len(words)), np.int64)  # row k - 1: each word's order-k gram
        context = np.zeros(len(words), np.int64)  # BOS^0, the empty gram, before every word
        bos = 0  # id of BOS^(k-1)
        for k in range(1, n + 1):
            keys, gram_of[k - 1], self.counts[k] = np.unique(
                context * W + words, return_inverse=True, return_counts=True)
            self._keys[k] = np.append(keys, [bos * W + V, _END])
            bos = len(keys)
            if k < n:
                context = _after(gram_of[k - 1], first, bos)
        # below the top order, continuation counts replace the occurrence counts:
        # each distinct (k+1)-gram adds one to the count of its suffix
        for k in range(n - 1, 0, -1):
            suffix = np.empty(len(self.counts[k + 1]), np.int64)
            suffix[gram_of[k]] = gram_of[k - 1]
            self.counts[k] = np.bincount(suffix, minlength=len(self.counts[k]))
        self.discounts = estimate_discounts(self)
        self._totals: dict[int, np.ndarray] = {}
        self._weights: dict[int, np.ndarray] = {}
        self._numerators: dict[int, np.ndarray] = {}
        for k in range(1, n + 1):
            c = self.counts[k]
            owner = self._keys[k][:len(c)] // W  # context id of each gram, ascending
            # one slot per order-(k-1) id, BOS^(k-1) included, and the sentinel
            size = (len(self.counts[k - 1]) if k > 1 else 0) + 2
            total = np.bincount(owner, weights=c, minlength=size)
            n1, n2, n3 = (np.bincount(owner[sel], minlength=size)
                          for sel in (c == 1, c == 2, c >= 3))
            d = self.discounts[k]
            seen = total > 0  # false for grams never followed by a word, and the sentinel
            self._totals[k] = np.where(seen, total, np.inf)
            self._weights[k] = np.where(
                seen, (d.d1 * n1 + d.d2 * n2 + d.d3plus * n3) / self._totals[k], 1.0)
            discount = np.array([0.0, d.d1, d.d2, d.d3plus])
            # BOS^k is never predicted and the sentinel never found: numerators 0
            self._numerators[k] = np.append(np.maximum(c - discount[np.minimum(c, 3)], 0.0),
                                            [0.0, 0.0])

    def count_of_counts(self, order: int) -> tuple[int, int, int, int]:
        """n1..n4 over the counts this order's estimate uses."""
        tally = np.bincount(np.minimum(self.counts[order], 5), minlength=6)
        return tuple(int(x) for x in tally[1:5])

    def grams(self, k: int) -> dict[tuple[int, ...], int]:
        """The order-k grams, with BOS as ``BOS``, and the counts order k's estimate uses."""
        W = self.vocab_size + 1
        keys = self._keys[k][:len(self.counts[k])]
        rows = np.empty((len(keys), k), np.int64)
        for j in range(k - 1, 0, -1):  # a key is prefix_id * W + last_token
            rows[:, j] = keys % W
            keys = self._keys[j][keys // W]
        rows[:, 0] = keys
        rows[rows == self.vocab_size] = BOS
        return dict(zip(map(tuple, rows.tolist()), self.counts[k].tolist()))

    def _walk(self, words, first, top):
        """Per order from 1 to ``top``, every word's (context ids, gram ids):
        ``words`` is a flat code array of sentences that start at the indices
        ``first``. One lookup per order: each word's order-k gram ids,
        shifted one place right, are the next order's contexts."""
        W = self.vocab_size + 1
        context = np.zeros(len(words), np.int64)
        for k in range(1, top + 1):
            gram = _find(self._keys[k], context * W + words)
            yield context, gram
            if k < top:
                context = _after(gram, first, len(self.counts[k]))

    def _interpolate(self, ids):
        """The one scorer: probability of each word from the (context ids, gram
        ids) of every order, from 1 up. An unseen context reads total inf and
        weight 1, which leave p as it is."""
        p = 1.0 / self.vocab_size
        for k, (c, g) in enumerate(ids, 1):
            p = self._numerators[k][g] / self._totals[k][c] + self._weights[k][c] * p
        return p

    def probability(self, word: int, context: tuple[int, ...] = ()) -> float:
        """Interpolated modified-KN probability of a vocabulary word after a context:
        the one-row case of the scorer."""
        V = self.vocab_size
        if not 0 <= word < V:
            raise ValueError(f"word id {word} outside vocabulary of size {V}")
        context = context[max(0, len(context) - self.order + 1):]
        codes = [t if 0 <= t < V else V if t == BOS else _INVALID for t in context] + [word]
        # as one sentence, read at its len(codes) lowest orders: the word's
        # grams there never reach before the context's first token
        return float(self._interpolate(self._walk(np.array(codes, np.int64), 0, len(codes)))[-1])


def _find(keys: np.ndarray, key):
    """Index of each key in the sorted keys, or -1 (the sentinel) where it is missing."""
    i = keys.searchsorted(key)
    return (i + 1) * (keys[i] == key) - 1


def _after(grams: np.ndarray, first: np.ndarray, bos: int) -> np.ndarray:
    """The gram that ends just before each word: the one ending at the word
    before it, or ``bos``, the id of BOS^k, at each sentence's first word."""
    out = np.empty_like(grams)
    out[1:] = grams[:-1]
    out[first] = bos
    return out


def _flat(sentences: list[tuple[int, ...]], vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The sentences' token ids in one flat int64 array, and the index of each
    sentence's first token."""
    lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
    try:
        words = np.fromiter(chain.from_iterable(sentences), np.int64, int(lengths.sum()))
    except OverflowError:
        raise ValueError(f"token id outside vocabulary of size {vocab_size}") from None
    bad = (words < 0) | (words >= vocab_size)
    if bad.any():
        raise ValueError(f"token id {words[bad][0]} outside vocabulary of size {vocab_size}")
    return words, np.cumsum(lengths) - lengths


def count_ngrams(documents: list[Document], order: int, vocab_size: int) -> NGramTable:
    return NGramTable([s.token_ids for d in documents for s in d.sentences], order, vocab_size)


def estimate_discounts(table: NGramTable) -> dict[int, OrderDiscounts]:
    """Three discounts per order from count-of-counts: Y = n1/(n1+2*n2),
    D1 = 1 - 2*Y*n2/n1, D2 = 2 - 3*Y*n3/n2, D3+ = 3 - 4*Y*n4/n3.

    Orders with degenerate count-of-counts (a zero denominator) or a
    non-positive D2/D3+ fall back to the single discount D = Y, keeping
    every discount in (0, 1] so unseen events always retain mass.
    """
    per_order = {}
    for k in range(1, table.order + 1):
        n1, n2, n3, n4 = table.count_of_counts(k)
        if n1 == 0 and n2 == 0:
            # order carries no types at all (or only duplicates beyond 2); any
            # positive discount keeps the interpolation positive
            if not len(table.counts[k]):
                per_order[k] = OrderDiscounts(0.0, 0.0, 0.0)
            else:
                log.warning("order %d: no singleton/doubleton types, using D=%.2f", k, FALLBACK_DISCOUNT)
                d = FALLBACK_DISCOUNT
                per_order[k] = OrderDiscounts(d, d, d)
            continue
        y = n1 / (n1 + 2.0 * n2)
        if n1 > 0 and n2 > 0 and n3 > 0:
            d1 = 1.0 - 2.0 * y * n2 / n1
            d2 = 2.0 - 3.0 * y * n3 / n2
            d3p = 3.0 - 4.0 * y * n4 / n3
            if d2 > 0.0 and d3p > 0.0:
                per_order[k] = OrderDiscounts(d1, d2, d3p)
                continue
            log.warning("order %d: non-positive modified discounts, falling back to D=Y", k)
        else:
            log.warning("order %d: degenerate count-of-counts, falling back to D=Y", k)
        d = y if y > 0.0 else FALLBACK_DISCOUNT
        per_order[k] = OrderDiscounts(d, d, d)
    return per_order


def sentence_log_probabilities(sentences: list[Sentence], table: NGramTable) -> list[float]:
    """Natural-log probability of each sentence (EOS included) with begin padding.

    Every token is scored in one pass; each sentence adds its tokens'
    ``math.log`` left to right, so the result does not depend on how the
    corpus is split into calls."""
    token_ids = [s.token_ids for s in sentences]
    probs = table._interpolate(table._walk(*_flat(token_ids, table.vocab_size), table.order))
    logs = map(math.log, probs.tolist())
    return [fold_sum(islice(logs, len(ids))) for ids in token_ids]


def write_arpa(table: NGramTable, vocab, stream) -> None:
    """Conventional text export: per line log10 prob, tab, tokens, tab, log10 backoff."""
    V = table.vocab_size

    def render(tid: int) -> str:
        return "<s>" if tid == BOS else vocab.decode(tid)

    def log10(x: float) -> float:
        return math.log10(x) if x > 0 else -99.0

    # every context but the begin padding <s>^k is a gram; the padding gets a
    # placeholder probability line so that its backoff weight has somewhere to live
    listed = {k: sorted(table.grams(k).keys()
                        | ({(BOS,) * k} if k < table.order and len(table.counts[k]) else set()))
              for k in range(1, table.order + 1)}
    stream.write("\\data\\\n")
    for k in range(1, table.order + 1):
        stream.write(f"ngram {k}={len(listed[k])}\n")
    stream.write("\n")
    for k in range(1, table.order + 1):
        stream.write(f"\\{k}-grams:\n")
        rows = np.array(listed[k], np.int64).reshape(-1, k)
        codes = np.where(rows == BOS, V, rows).ravel()
        # each row as one sentence, read at its last token
        ids = [(c[k - 1::k], g[k - 1::k])
               for c, g in table._walk(codes, np.arange(0, len(codes), k), k)]
        probs = np.where(rows[:, -1] == BOS, 0.0, table._interpolate(ids))
        if k < table.order:  # a row's own id is its context at the order above
            own = ids[-1][1]
            seen = table._totals[k + 1][own] < np.inf
            backoffs = np.where(seen, table._weights[k + 1][own], np.nan).tolist()
        else:
            backoffs = [math.nan] * len(rows)
        for gram, prob, backoff in zip(listed[k], probs.tolist(), backoffs):
            line = f"{log10(prob):.7f}\t{' '.join(render(t) for t in gram)}"
            if not math.isnan(backoff):
                line += f"\t{log10(backoff):.7f}"
            stream.write(line + "\n")
        stream.write("\n")
    stream.write("\\end\\\n")
