"""Count-based n-gram language model with interpolated modified Kneser-Ney smoothing.

Counting is per sentence with (order-1) begin-of-sentence padding tokens and a
trailing end-of-sentence token; n-grams never cross sentence boundaries and
never end in the padding token. The highest order interpolates raw counts;
every lower order uses continuation counts (number of distinct left contexts);
the base distribution is uniform over the vocabulary, which keeps every
probability strictly positive.

``count_ngrams`` counts and then derives, once, every map a query reads (see
``NGramTable``). A query interpolates bottom-up in one loop: the top-down
recursion p_k = max(c - D, 0) / total + weight * p_(k-1) evaluates its lower
orders first anyway, so starting from the uniform base and going up the
orders performs the same float operations in the same order.
"""

import logging
import math
from collections import Counter
from dataclasses import dataclass

from .corpus import Document, Sentence

log = logging.getLogger(__name__)

BOS = -1  # context-only padding id, never in the vocabulary and never predicted

FALLBACK_DISCOUNT = 0.5  # used when count-of-counts give no usable discount


@dataclass(frozen=True)
class OrderDiscounts:
    d1: float
    d2: float
    d3plus: float


class NGramTable:
    """N-gram statistics: raw counts per order plus the maps derived from them.

    ``counts[k]`` maps k-tuples of token ids to occurrence counts. Once counting
    is done, ``_freeze`` derives everything the queries read, once: per order
    the effective counts (raw at the top order, continuation counts below),
    their per-context totals, the discounts, and each context's interpolation
    weight ``(d1*n1 + d2*n2 + d3+*n3+) / total``. A table with derived maps
    takes no more sentences.
    """

    def __init__(self, order: int, vocab_size: int):
        if order < 1:
            raise ValueError("order must be at least 1")
        if vocab_size < 2:
            raise ValueError("vocab_size must cover the reserved ids")
        self.order = order
        self.vocab_size = vocab_size
        self.counts: dict[int, dict[tuple[int, ...], int]] = {k: {} for k in range(1, order + 1)}
        # derived by _freeze; empty while counting
        self.discounts: dict[int, OrderDiscounts] = {}
        self._effective: dict[int, dict[tuple[int, ...], int]] = {}
        self._totals: dict[int, dict[tuple[int, ...], int]] = {}
        self._weights: dict[int, dict[tuple[int, ...], float]] = {}
        self._discount: dict[int, tuple[float, float, float, float]] = {}  # by min(count, 3)

    def add_sentence(self, sentence: Sentence) -> None:
        if self._effective:
            raise RuntimeError("table already counted")
        seq = (BOS,) * (self.order - 1) + sentence.token_ids
        start = self.order - 1
        for i in range(start, len(seq)):
            for k in range(1, self.order + 1):
                gram = seq[i - k + 1 : i + 1]
                m = self.counts[k]
                m[gram] = m.get(gram, 0) + 1

    def _freeze(self) -> None:
        top = self.order
        self._effective = {top: self.counts[top]}
        for k in range(top - 1, 0, -1):
            # continuation count: number of distinct left extensions
            cont: dict[tuple[int, ...], int] = {}
            for gram in self.counts[k + 1]:
                suffix = gram[1:]
                cont[suffix] = cont.get(suffix, 0) + 1
            self._effective[k] = cont
        self.discounts = estimate_discounts(self)
        for k, counts in self._effective.items():
            stats: dict[tuple[int, ...], list[int]] = {}  # context -> [total, n1, n2, n3+]
            for gram, c in counts.items():
                s = stats.get(gram[:-1])
                if s is None:
                    s = stats[gram[:-1]] = [0, 0, 0, 0]
                s[0] += c
                s[min(c, 3)] += 1
            d = self.discounts[k]
            self._discount[k] = (0.0, d.d1, d.d2, d.d3plus)
            self._totals[k] = {h: s[0] for h, s in stats.items()}
            self._weights[k] = {h: (d.d1 * n1 + d.d2 * n2 + d.d3plus * n3) / total
                                for h, (total, n1, n2, n3) in stats.items()}

    def count_of_counts(self, order: int) -> tuple[int, int, int, int]:
        """n1..n4 over the effective counts at this order."""
        tally = Counter(self._effective[order].values())
        return tally[1], tally[2], tally[3], tally[4]

    def probability(self, word: int, context: tuple[int, ...] = ()) -> float:
        """Interpolated modified-KN probability of a vocabulary word after a context.

        Starts from the uniform base and goes up the orders: each order whose
        context was seen sets ``p = max(c - D, 0) / total + weight * p``, and an
        order whose context was never seen leaves ``p`` as it is. These are the
        float operations of the top-down recursion, in the same order.
        """
        if not 0 <= word < self.vocab_size:
            raise ValueError(f"word id {word} outside vocabulary of size {self.vocab_size}")
        context = tuple(context)
        n = len(context)
        p = 1.0 / self.vocab_size
        for k in range(1, min(n, self.order - 1) + 2):
            h = context[n - k + 1 :]
            total = self._totals[k].get(h)
            if total:
                c = self._effective[k].get(h + (word,), 0)
                p = max(c - self._discount[k][min(c, 3)], 0.0) / total + self._weights[k][h] * p
        return p


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
            if not table._effective[k]:
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


def sentence_log_probability(sentence: Sentence, table: NGramTable) -> float:
    """Natural-log probability of a sentence (EOS included) with begin padding."""
    seq = (BOS,) * (table.order - 1) + sentence.token_ids
    start = table.order - 1
    total = 0.0
    for i in range(start, len(seq)):
        ctx = seq[i - table.order + 1 : i]
        total += math.log(table.probability(seq[i], ctx))
    return total


def write_arpa(table: NGramTable, vocab, stream) -> None:
    """Conventional text export: per line log10 prob, tab, tokens, tab, log10 backoff."""

    def render(tid: int) -> str:
        return "<s>" if tid == BOS else vocab.decode(tid)

    def log10(x: float) -> float:
        return math.log10(x) if x > 0 else -99.0

    # context-only prefixes (begin-padding) get a placeholder probability line
    # so that their backoff weights have somewhere to live
    listed: dict[int, list[tuple[int, ...]]] = {}
    for k in range(1, table.order + 1):
        grams = set(table.counts[k])
        if k < table.order:
            grams.update(gram[:-1] for gram in table.counts[k + 1])
        listed[k] = sorted(grams)
    stream.write("\\data\\\n")
    for k in range(1, table.order + 1):
        stream.write(f"ngram {k}={len(listed[k])}\n")
    stream.write("\n")
    for k in range(1, table.order + 1):
        stream.write(f"\\{k}-grams:\n")
        for gram in listed[k]:
            prob = table.probability(gram[-1], gram[:-1]) if gram[-1] != BOS else 0.0
            line = f"{log10(prob):.7f}\t{' '.join(render(t) for t in gram)}"
            if k < table.order:
                weight = table._weights[k + 1].get(gram)
                if weight is not None:
                    line += f"\t{log10(weight):.7f}"
            stream.write(line + "\n")
        stream.write("\n")
    stream.write("\\end\\\n")
