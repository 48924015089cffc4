"""Count-based n-gram language model with interpolated modified Kneser-Ney smoothing.

Counting is per sentence with (order-1) begin-of-sentence padding tokens and a
trailing end-of-sentence token; n-grams never cross sentence boundaries and
never end in the padding token. The highest order interpolates raw counts;
every lower order uses continuation counts (number of distinct left contexts);
the base distribution is uniform over the vocabulary, which keeps every
probability strictly positive.

The table stores each order as sorted int64 key arrays with value arrays
beside them, the layout of KenLM (Heafield, "KenLM: Faster and Smaller
Language Model Queries", WMT 2011); see ``NGramTable``. ``count_ngrams``
builds every array once with numpy. One vectorised scorer answers every
query, whether a whole corpus, an export listing or a single ``probability``
call. It interpolates bottom-up: the top-down recursion
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

# The code of a context id that is neither a word nor BOS: every key built
# from it is negative, so it matches no gram and no context.
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
    make one digit of a key. Every seen context of j tokens has an id: its
    rank among the sorted keys ``suffix_id * W + first_token``, where
    ``suffix_id`` is the id of the context without its first token and the
    empty context has id 0. A query thus lengthens its context one token to
    the left per order, with one lookup each. At order k:

    - ``_contexts[k]`` (k >= 2) holds the keys of the seen (k-1)-token
      contexts; ``_totals[k]`` and ``_weights[k]`` hold each one's count total
      and interpolation weight ``(d1*n1 + d2*n2 + d3+*n3+) / total``;
    - ``_grams[k]`` holds the keys ``context_id * W + word`` of the k-grams,
      ``counts[k]`` the count order k's estimate uses (occurrence counts at
      the top order, continuation counts below: the number of distinct left
      extensions) and ``_numerators[k]`` each ``max(c - D(c), 0)``.

    Each key and value array except ``counts`` ends in a sentinel: a lookup
    that misses reads index -1, whose numerator 0, total inf and weight 1
    leave p as it is, and whose keys match nothing. ``add_sentence`` only
    buffers; ``_freeze`` builds every array once, after which the table
    takes no more sentences.
    """

    def __init__(self, order: int, vocab_size: int):
        if order < 1:
            raise ValueError("order must be at least 1")
        if vocab_size < 2:
            raise ValueError("vocab_size must cover the reserved ids")
        self.order = order
        self.vocab_size = vocab_size
        self._sentences: list[tuple[int, ...]] | None = []  # None once frozen
        # built by _freeze; empty while counting
        self.counts: dict[int, np.ndarray] = {}
        self.discounts: dict[int, OrderDiscounts] = {}
        self._root = -1  # id of the empty context: 0 once any token is counted
        self._contexts: dict[int, np.ndarray] = {}
        self._totals: dict[int, np.ndarray] = {}
        self._weights: dict[int, np.ndarray] = {}
        self._grams: dict[int, np.ndarray] = {}
        self._numerators: dict[int, np.ndarray] = {}

    def add_sentence(self, sentence: Sentence) -> None:
        if self._sentences is None:
            raise RuntimeError("table already counted")
        self._sentences.append(sentence.token_ids)

    def _freeze(self) -> None:
        n, W = self.order, self.vocab_size + 1
        codes, at = _padded(self._sentences, n - 1, self.vocab_size)
        self._sentences = None
        words = codes[at]
        context = np.zeros(len(at), np.int64)  # id of each position's context so far
        gram_of = []  # per order, the gram id of each position
        for k in range(1, n + 1):
            if k > 1:
                keys, context = np.unique(context * W + codes[at - (k - 1)], return_inverse=True)
                self._contexts[k] = np.append(keys, _END)
            keys, gram, self.counts[k] = np.unique(context * W + words, return_inverse=True,
                                                   return_counts=True)
            self._grams[k] = np.append(keys, _END)
            gram_of.append(gram)
        # below the top order, continuation counts replace the occurrence counts:
        # each distinct (k+1)-gram adds one to the count of its suffix
        for k in range(n - 1, 0, -1):
            suffix = np.empty(len(self.counts[k + 1]), np.int64)
            suffix[gram_of[k]] = gram_of[k - 1]
            self.counts[k] = np.bincount(suffix, minlength=len(self.counts[k]))
        self._root = 0 if len(at) else -1
        self.discounts = estimate_discounts(self)
        for k in range(1, n + 1):
            c = self.counts[k]
            owner = self._grams[k][:-1] // W  # context id of each gram, ascending
            size = len(self._contexts[k]) - 1 if k > 1 else self._root + 1
            total = np.bincount(owner, weights=c, minlength=size)
            n1, n2, n3 = (np.bincount(owner[sel], minlength=size)
                          for sel in (c == 1, c == 2, c >= 3))
            d = self.discounts[k]
            self._totals[k] = np.append(total, np.inf)
            self._weights[k] = np.append((d.d1 * n1 + d.d2 * n2 + d.d3plus * n3) / total, 1.0)
            discount = np.array([0.0, d.d1, d.d2, d.d3plus])
            self._numerators[k] = np.append(np.maximum(c - discount[np.minimum(c, 3)], 0.0), 0.0)

    def _check_counted(self) -> None:
        if self._sentences is not None:
            raise RuntimeError("n-gram table was never counted; build it with count_ngrams")

    def count_of_counts(self, order: int) -> tuple[int, int, int, int]:
        """n1..n4 over the counts this order's estimate uses."""
        tally = np.bincount(np.minimum(self.counts[order], 5), minlength=6)
        return tuple(int(x) for x in tally[1:5])

    def grams(self, k: int) -> dict[tuple[int, ...], int]:
        """The order-k grams, with BOS as ``BOS``, and the counts order k's estimate uses."""
        self._check_counted()
        W = self.vocab_size + 1
        keys = self._grams[k][:-1]
        rows = np.empty((len(keys), k), np.int64)
        rows[:, -1], ids = keys % W, keys // W
        for j in range(k - 1):  # a context key is suffix_id * W + first_token
            keys = self._contexts[k - j][ids]
            rows[:, j], ids = keys % W, keys // W
        rows[rows == self.vocab_size] = BOS
        return dict(zip(map(tuple, rows.tolist()), self.counts[k].tolist()))

    def _context_ids(self, context):
        """Ids of ever longer suffixes of the context: the empty context (order
        1's), then one token more per order, -1 once unseen. ``context`` lists
        token codes nearest last, each an int or an int64 array (one per row)."""
        W = self.vocab_size + 1
        c = self._root
        yield c
        for j in range(1, min(len(context), self.order - 1) + 1):
            c = _find(self._contexts[j + 1], c * W + context[-j])
            yield c

    def _score(self, words, context):
        """The one scorer: probability of each word after its context, elementwise
        over rows (``context`` as for ``_context_ids``). An order whose context
        is unseen reads the sentinels, which leave p as it is; once no row has
        a seen context, no higher order has one either."""
        self._check_counted()
        W = self.vocab_size + 1
        p = 1.0 / self.vocab_size
        for k, c in enumerate(self._context_ids(context), 1):
            if k > 1 and _none_seen(c):
                break
            g = _find(self._grams[k], c * W + words)
            p = self._numerators[k][g] / self._totals[k][c] + self._weights[k][c] * p
        return p

    def probability(self, word: int, context: tuple[int, ...] = ()) -> float:
        """Interpolated modified-KN probability of a vocabulary word after a context:
        the one-row case of the scorer."""
        V = self.vocab_size
        if not 0 <= word < V:
            raise ValueError(f"word id {word} outside vocabulary of size {V}")
        codes = [t if 0 <= t < V else V if t == BOS else _INVALID for t in context]
        return float(self._score(word, codes))


def _find(keys: np.ndarray, key):
    """Index of each key in the sorted keys, or -1 (the sentinel) where it is missing."""
    i = keys.searchsorted(key)
    return (i + 1) * (keys[i] == key) - 1


def _none_seen(c) -> bool:
    """Whether no row's context was seen: ``c`` is one id or an array of them.
    A numpy reduction on one id would cost more than the rest of its lookup."""
    return c.max(initial=-1) < 0 if isinstance(c, np.ndarray) else c < 0


def _padded(sentences: list[tuple[int, ...]], pad: int,
            vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The sentences' token ids in one flat int64 array, each sentence after
    ``pad`` BOS codes (``vocab_size``), and the positions of the tokens. A
    padded size beyond numpy's index range is a ValueError, raised before
    anything of that size is allocated."""
    size = sum(map(len, sentences)) + pad * len(sentences)
    if size > np.iinfo(np.intp).max // np.dtype(np.int64).itemsize:
        raise ValueError(f"{len(sentences)} sentences after {pad} begin-of-sentence codes "
                         f"each ({size} codes) are too large for an array")
    lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
    try:
        tokens = np.fromiter(chain.from_iterable(sentences), np.int64, int(lengths.sum()))
    except OverflowError:
        raise ValueError(f"token id outside vocabulary of size {vocab_size}") from None
    bad = (tokens < 0) | (tokens >= vocab_size)
    if bad.any():
        raise ValueError(f"token id {tokens[bad][0]} outside vocabulary of size {vocab_size}")
    at = np.arange(len(tokens)) + pad * np.repeat(np.arange(1, len(sentences) + 1), lengths)
    codes = np.full(len(tokens) + pad * len(sentences), vocab_size, np.int64)
    codes[at] = tokens
    return codes, at


def count_ngrams(documents: list[Document], order: int, vocab_size: int) -> NGramTable:
    table = NGramTable(order, vocab_size)
    for doc in documents:
        for sent in doc.sentences:
            table.add_sentence(sent)
    table._freeze()
    return table


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
    pad = table.order - 1
    token_ids = [s.token_ids for s in sentences]
    codes, at = _padded(token_ids, pad, table.vocab_size)
    probs = table._score(codes[at], [codes[at - d] for d in range(pad, 0, -1)])
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
        codes = np.where(rows == BOS, V, rows)
        columns = list(codes.T)
        last = rows[:, -1]
        probs = np.where(last == BOS, 0.0, table._score(np.maximum(last, 0), columns[:-1]))
        if k < table.order:
            *_, seen = table._context_ids(columns)
            backoffs = np.where(seen >= 0, table._weights[k + 1][seen], np.nan).tolist()
        else:
            backoffs = [math.nan] * len(rows)
        for gram, prob, backoff in zip(listed[k], probs.tolist(), backoffs):
            line = f"{log10(prob):.7f}\t{' '.join(render(t) for t in gram)}"
            if not math.isnan(backoff):
                line += f"\t{log10(backoff):.7f}"
            stream.write(line + "\n")
        stream.write("\n")
    stream.write("\\end\\\n")
