"""Count-based n-gram language models with interpolated smoothing.

Training accumulates raw counts for the highest order (sentences contribute
a single start-pad token, so contexts grow from the sentence head) and
derives lower orders as left-extension continuation counts, keeping raw
counts for start-pad-initial grams, which cannot be extended left. Smoothing
is interpolated modified Kneser-Ney with per-order discounts estimated from
the count-of-counts; when those are degenerate (any of n1..n4 empty, or a
non-positive discount) the order falls back to a flat 0.75 absolute
discount. Probability mass is reserved for a single unknown word, so for any
observed context the distribution over vocabulary + unknown sums to one.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

SENT_START = "<s>"
UNK = "<unk>"

MAGIC = b"CFLM"
FORMAT_VERSION = 1

FALLBACK_DISCOUNT = 0.75


@dataclass
class EvalReport:
    oov_rate: float
    perplexity: float
    total_tokens: int
    oov_tokens: int
    scored_tokens: int
    order: int
    oov_context: str


def _discount_for(count: int, discounts: tuple[float, float, float]) -> float:
    if count <= 0:
        return 0.0
    if count == 1:
        return discounts[0]
    if count == 2:
        return discounts[1]
    return discounts[2]


def _estimate_discounts(counts) -> tuple[tuple[float, float, float], bool]:
    """Chen-Goodman discounts from count-of-counts; returns (D1..D3, fallback?)."""
    n = [0, 0, 0, 0]
    for c in counts:
        if 1 <= c <= 4:
            n[c - 1] += 1
    n1, n2, n3, n4 = n
    if n1 == 0 or n2 == 0 or n3 == 0 or n4 == 0:
        return (FALLBACK_DISCOUNT,) * 3, True
    y = n1 / (n1 + 2 * n2)
    d1 = 1.0 - 2.0 * y * n2 / n1
    d2 = 2.0 - 3.0 * y * n3 / n2
    d3 = 3.0 - 4.0 * y * n4 / n3
    if d1 <= 0 or d2 <= 0 or d3 <= 0:
        return (FALLBACK_DISCOUNT,) * 3, True
    return (d1, d2, d3), False


class NGramModel:
    """Immutable after construction; safe to query concurrently."""

    def __init__(self, order, smoothing, vocab, tables, discounts, fallback, metadata=None):
        self.order = order
        self.smoothing = smoothing
        self.vocab = frozenset(vocab)
        self.tables = tables  # tables[k-1]: order-k gram tuple -> adjusted count
        self.discounts = discounts
        self.fallback = fallback
        self.metadata = dict(metadata or {})
        self._finalize()

    def _finalize(self) -> None:
        self.totals: list[dict[tuple[str, ...], int]] = []
        self.gamma_mass: list[dict[tuple[str, ...], float]] = []
        for k, table in enumerate(self.tables, start=1):
            tot: dict[tuple[str, ...], int] = {}
            mass: dict[tuple[str, ...], float] = {}
            d = self.discounts[k - 1]
            for gram, count in table.items():
                ctx = gram[:-1]
                tot[ctx] = tot.get(ctx, 0) + count
                mass[ctx] = mass.get(ctx, 0.0) + _discount_for(count, d)
            self.totals.append(tot)
            self.gamma_mass.append(mass)
        self._p0 = 1.0 / (len(self.vocab) + 1)

    # -- training ----------------------------------------------------------

    @classmethod
    def train(cls, corpus, order: int, smoothing: str = "kn", metadata=None) -> "NGramModel":
        """Estimate a model of the given order from tokenized sentences."""
        if order < 1:
            raise ValueError("order must be >= 1")
        if smoothing not in ("kn", "none"):
            raise ValueError(f"unknown smoothing {smoothing!r}")
        raw: list[dict[tuple[str, ...], int]] = [dict() for _ in range(order)]
        vocab: set[str] = set()
        n_sentences = 0
        for sentence in corpus:
            words = list(sentence)
            if not words:
                continue
            n_sentences += 1
            vocab.update(words)
            padded = [SENT_START] + words
            for e in range(len(words)):
                p = e + 1
                length = min(p + 1, order)
                gram = tuple(padded[p - length + 1 : p + 1])
                table = raw[length - 1]
                table[gram] = table.get(gram, 0) + 1
        if n_sentences == 0:
            raise ValueError("corpus is empty")

        tables: list[dict[tuple[str, ...], int]] = [dict() for _ in range(order)]
        tables[order - 1] = raw[order - 1]
        for k in range(order - 1, 0, -1):
            cont: dict[tuple[str, ...], int] = {}
            for gram in tables[k]:
                suffix = gram[1:]
                cont[suffix] = cont.get(suffix, 0) + 1
            # start-pad-initial grams cannot be left-extended: keep raw counts
            for gram, count in raw[k - 1].items():
                cont[gram] = count
            tables[k - 1] = cont

        discounts = []
        fallback = []
        for table in tables:
            d, fb = _estimate_discounts(table.values())
            discounts.append(d)
            fallback.append(fb)
        return cls(
            order=order,
            smoothing=smoothing,
            vocab=vocab,
            tables=tables,
            discounts=discounts,
            fallback=fallback,
            metadata=metadata,
        )

    # -- queries -----------------------------------------------------------

    def prob(self, word: str, context=()) -> float:
        """P(word | context); context longer than order-1 is truncated."""
        ctx = tuple(context)
        if self.order > 1:
            ctx = ctx[-(self.order - 1):]
        else:
            ctx = ()
        return self._p(len(ctx) + 1, ctx, word)

    def _p(self, k: int, ctx: tuple[str, ...], word: str) -> float:
        if k == 1:
            tot = self.totals[0].get((), 0)
            count = self.tables[0].get((word,), 0)
            if self.smoothing == "none":
                return count / tot if tot else 0.0
            gamma = self.gamma_mass[0].get((), 0.0) / tot
            d = _discount_for(count, self.discounts[0])
            return max(count - d, 0.0) / tot + gamma * self._p0
        tot = self.totals[k - 1].get(ctx)
        if not tot:
            return self._p(k - 1, ctx[1:], word)
        count = self.tables[k - 1].get(ctx + (word,), 0)
        if self.smoothing == "none":
            return count / tot
        d = _discount_for(count, self.discounts[k - 1])
        gamma = self.gamma_mass[k - 1][ctx] / tot
        return max(count - d, 0.0) / tot + gamma * self._p(k - 1, ctx[1:], word)

    def logprob(self, word: str, context=()) -> float:
        p = self.prob(word, context)
        return math.log(p) if p > 0.0 else float("-inf")

    def truncated(self, order: int) -> "NGramModel":
        """Lower-order view sharing this model's count structure (diagnostic)."""
        if not 1 <= order <= self.order:
            raise ValueError("bad truncation order")
        return NGramModel(
            order=order,
            smoothing=self.smoothing,
            vocab=self.vocab,
            tables=self.tables[:order],
            discounts=self.discounts[:order],
            fallback=self.fallback[:order],
            metadata=self.metadata,
        )

    # -- serialization -----------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Documented binary format: 4-byte magic, 1-byte version, zlib-
        compressed canonical JSON of counts + smoothing parameters."""
        payload = {
            "order": self.order,
            "smoothing": self.smoothing,
            "vocab": sorted(self.vocab),
            # sort_keys below orders the grams; no pre-sort needed
            "tables": [{" ".join(g): c for g, c in t.items()} for t in self.tables],
            "discounts": [list(d) for d in self.discounts],
            "fallback": list(self.fallback),
            "metadata": {k: self.metadata[k] for k in sorted(self.metadata)},
        }
        blob = zlib.compress(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8"),
            6,
        )
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(bytes([FORMAT_VERSION]))
            fh.write(blob)

    @classmethod
    def load(cls, path: str | Path) -> "NGramModel":
        data = Path(path).read_bytes()
        if data[:4] != MAGIC:
            raise ValueError(f"{path}: not a corpus-forge model file")
        if data[4] != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported model format version {data[4]}")
        payload = json.loads(zlib.decompress(data[5:]).decode("utf-8"))
        # one str object per word, shared by every gram that contains it
        words = {w: w for w in payload["vocab"]}
        words[SENT_START] = SENT_START
        word = words.__getitem__
        tables = [
            {tuple(map(word, g.split(" "))): c for g, c in t.items()}
            for t in payload["tables"]
        ]
        return cls(
            order=payload["order"],
            smoothing=payload["smoothing"],
            vocab=payload["vocab"],
            tables=tables,
            discounts=[tuple(d) for d in payload["discounts"]],
            fallback=list(payload["fallback"]),
            metadata=payload.get("metadata"),
        )

    def to_arpa(self, path: str | Path) -> None:
        """Plain-text ARPA export of the interpolated model.

        Stored probabilities are the interpolated values; backoff weights are
        the per-context discount masses (-99 for every seen context of an
        unsmoothed model), so an ARPA consumer reproduces this model's
        probabilities. Sentence ends are not modeled, so no
        </s> entry is emitted. Model metadata rides along as preamble
        comments (readers skip text before the data marker). A zero
        probability (<s>, or <unk> when unsmoothed) is written as -99.
        Levels are evaluated bottom-up (``_level_probs``) and written as each
        one finishes.
        """
        header = [f"# {key}={self.metadata[key]}" for key in sorted(self.metadata)]
        counts = [len(self.tables[0]) + 2]  # + <unk>, <s>
        counts += [len(t) for t in self.tables[1:]]
        header.append("\\data\\")
        header += [f"ngram {k}={c}" for k, c in enumerate(counts, start=1)]
        header.append("")

        lower = {(UNK,): self._p(1, (), UNK), (SENT_START,): 0.0}  # <s>: never predicted
        lower.update(((w,), self._p(1, (), w)) for w in sorted(self.vocab))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(header) + "\n")
            fh.write(self._arpa_level(1, list(lower), lower))
            for k in range(2, self.order + 1):
                lower = self._level_probs(k, lower)
                fh.write(self._arpa_level(k, sorted(lower), lower))
            fh.write("\\end\\\n")

    def _level_probs(self, k: int, lower: dict) -> dict:
        """P(gram[-1] | gram[:-1]) for every stored order-k gram, k >= 2.

        ``lower`` maps each order-(k-1) gram to its probability. The float
        operations are ``_p``'s, in ``_p``'s order, so every value equals
        ``_p``'s exactly. Every suffix of a stored gram is stored one order
        down, under a context with a positive total (continuation counts),
        so the lookups cannot miss on a trained model.
        """
        table = self.tables[k - 1]
        tot_k = self.totals[k - 1]
        if self.smoothing == "none":
            return {gram: count / tot_k[gram[:-1]] for gram, count in table.items()}
        mass_k = self.gamma_mass[k - 1]
        d = self.discounts[k - 1]
        probs = {}
        for gram, count in table.items():
            ctx = gram[:-1]
            tot = tot_k[ctx]
            gamma = mass_k[ctx] / tot
            probs[gram] = (
                max(count - _discount_for(count, d), 0.0) / tot + gamma * lower[gram[1:]]
            )
        return probs

    def _arpa_level(self, k: int, grams, probs) -> str:
        """The ARPA section of order k: header, one line per gram, blank."""
        # gram acts as a context of order k+1. Where it has no continuation
        # the model backs off with weight 1 (no field); otherwise the weight
        # is the discount mass, or 0 (-99) for an unsmoothed model, which
        # never backs off from a seen context.
        tot_next = self.totals[k] if k < self.order else {}
        mass_next = self.gamma_mass[k] if k < self.order else {}
        unsmoothed = self.smoothing == "none"
        log10 = math.log10
        lines = [f"\\{k}-grams:"]
        for gram in grams:
            p = probs[gram]
            head = f"{log10(p) if p > 0.0 else -99.0:.7f}\t{' '.join(gram)}"
            tot = tot_next.get(gram)
            if not tot:
                lines.append(head)
            else:
                bow = -99.0 if unsmoothed else log10(mass_next[gram] / tot)
                lines.append(f"{head}\t{bow:.7f}")
        lines.append("")
        return "\n".join(lines) + "\n"


def train(corpus, order: int, smoothing: str = "kn", metadata=None) -> NGramModel:
    return NGramModel.train(corpus, order, smoothing=smoothing, metadata=metadata)


def evaluate(
    model: NGramModel,
    dev_sentences,
    exclude_oov: bool = True,
    oov_context: str = "break",
) -> EvalReport:
    """OOV rate and perplexity of the model on tokenized dev sentences.

    With ``exclude_oov`` the perplexity skips OOV tokens; ``oov_context``
    decides whether an OOV acts as a sentence-internal break (the window
    restarts from the sentence-start state; default) or stays in the window
    as an unmatchable token ("keep", which backs off through the unknown
    position). With ``exclude_oov`` off, OOV tokens are scored through the
    unknown-word mass.
    """
    if oov_context not in ("break", "keep"):
        raise ValueError(f"oov_context must be 'break' or 'keep', got {oov_context!r}")
    total = 0
    oov = 0
    scored = 0
    logsum = 0.0
    sentences = [list(s) for s in dev_sentences]
    if not any(sentences):
        raise ValueError("dev text is empty")
    for words in sentences:
        history: list[str] = [SENT_START]
        for w in words:
            total += 1
            if w in model.vocab:
                logsum += model.logprob(w, history)
                scored += 1
                history.append(w)
            else:
                oov += 1
                if not exclude_oov:
                    logsum += model.logprob(UNK, history)
                    scored += 1
                if oov_context == "break":
                    history = [SENT_START]
                else:
                    history.append(UNK)
    if scored == 0:
        raise ValueError("no scorable tokens in dev text")
    return EvalReport(
        oov_rate=oov / total,
        perplexity=math.exp(-logsum / scored),
        total_tokens=total,
        oov_tokens=oov,
        scored_tokens=scored,
        order=model.order,
        oov_context=oov_context,
    )


def compare_orders(corpus, dev_sentences, orders=(3, 5), **eval_kwargs) -> dict:
    """Train one model per order and report both evaluations side by side.

    The expectation that the higher order never evaluates worse holds
    whenever the dev text shares long-range context with training; it is
    reported, not asserted.
    """
    corpus = [list(s) for s in corpus]
    results = {}
    for order in sorted(orders):
        model = train(corpus, order)
        report = evaluate(model, dev_sentences, **eval_kwargs)
        results[order] = report
    return {
        "reports": results,
        "higher_order_not_worse": higher_order_not_worse(
            {order: report.perplexity for order, report in results.items()}
        ),
    }


def higher_order_not_worse(perplexities: dict[int, float]) -> bool:
    """Whether the highest order's perplexity is no worse than the lowest
    order's, up to 1e-9; ``perplexities`` maps order -> perplexity."""
    orders = sorted(perplexities)
    return perplexities[orders[-1]] <= perplexities[orders[0]] + 1e-9
