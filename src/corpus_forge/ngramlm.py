"""Count-based n-gram language models with interpolated smoothing.

Training counts, at every word, the longest gram ending there: a full
highest-order gram, or a shorter one back to the sentence's single start-pad
token. Lower orders hold left-extension continuation counts, except
start-pad-initial grams, which cannot be extended left and keep raw counts.
Smoothing is interpolated modified Kneser-Ney with per-order discounts
estimated from the count-of-counts; when those are degenerate (any of n1..n4
empty, or a non-positive discount) the order falls back to a flat 0.75
absolute discount. Probability mass is reserved for a single unknown word, so
for any observed context the distribution over vocabulary + unknown sums to one.

Word ids number vocab + ``<s>`` in code-point order; order k is a sorted
(n_k, k) int32 array of id rows plus their int64 counts. No word may hold a
character at or below U+0020, so id order is the order of the space-joined
gram strings, in which the ARPA file lists grams. A context's grams form one
run; its discount mass is summed left to right in that one order, so a
loaded model equals its original in every float. The search index over each
order (``_keys``, ``run_of``) is int32 unless a key reaches 2^31.

What each step holds at once, besides the model's own arrays: ``train`` an
int32 per word of its corpus, read once, then its id rows (twice while they
sort) and one order's run masks and run starts, all freed before the
constructor runs; the constructor one order's key being built and one CHUNK
of context runs; ``save`` the compressed ``.cflm`` parts and one column of
ids, then two orders' probabilities and one BLOCK of ARPA lines as a byte
matrix, each word padded to at most WIDE bytes; ``load`` the file's bytes and
one array being inflated; ``evaluate`` one id row per dev token.

``.cflm`` version 2 holds the arrays themselves, as KenLM's binary format
does: the magic, the version byte, then parts each preceded by its 8-byte
little-endian length. The head is the canonical JSON (sorted keys, compact,
ASCII) of "discounts", "fallback", "grams" (rows per order), "metadata",
"order", "smoothing" and "vocab"; then, per order, the zlib stream (level 1)
of its id rows, column by column, as little-endian int32, and that of its
counts as little-endian int64. A CRC-32 of every byte before it ends the file.
"""

from __future__ import annotations

import json
import math
import sys
import zlib
from array import array
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .manifest import atomic_open

SENT_START = "<s>"
UNK = "<unk>"

MAGIC = b"CFLM"
FORMAT_VERSION = 2

FALLBACK_DISCOUNT = 0.75
CHUNK = 1 << 13  # context runs per discount-mass sum: bounds the constructor's scratch
BLOCK = 1 << 12  # id rows per block of ARPA text: bounds the bytes held at once
WIDE = 32  # bytes of the longest spelling an ARPA block pads its word columns to
SPLICE = b"\x01"  # stands in a block for a longer word; no word holds it


def _items(table):
    """The rows of a uint8 table as one array of void items, which numpy
    gathers and stores whole."""
    return np.ascontiguousarray(table, np.uint8).view(f"V{table.shape[1]}").ravel()


@cache
def _digit_tables():
    """ASCII "0000".."9999", "000".."999" and "  0.".."999." (pads NUL).
    Built on first use, not at import, where their numpy temporaries left
    0.4 MiB more resident in every process."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    four = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), -1).reshape(10_000, 4)
    whole = np.where(np.arange(1000)[:, None] >= (100, 10, 0), four[:1000, 1:], 0)
    return _items(four), _items(four[:1000, 1:]), _items(np.append(whole, np.full((1000, 1), ord(".")), axis=1))


@dataclass
class EvalReport:
    oov_rate: float
    perplexity: float
    total_tokens: int
    oov_tokens: int
    scored_tokens: int


def _estimate_discounts(counts) -> tuple[tuple[float, float, float], bool]:
    """Chen-Goodman discounts from count-of-counts; returns (D1..D3, fallback?)."""
    n1, n2, n3, n4 = np.bincount(np.minimum(counts, 5), minlength=6)[1:5].tolist()
    if n1 == 0 or n2 == 0 or n3 == 0 or n4 == 0:
        return (FALLBACK_DISCOUNT,) * 3, True
    y = n1 / (n1 + 2 * n2)
    d1 = 1.0 - 2.0 * y * n2 / n1
    d2 = 2.0 - 3.0 * y * n3 / n2
    d3 = 3.0 - 4.0 * y * n4 / n3
    if d1 <= 0 or d2 <= 0 or d3 <= 0:
        return (FALLBACK_DISCOUNT,) * 3, True
    return (d1, d2, d3), False


def _check_vocab(vocab) -> None:
    """Refuse a word that a space-joined gram string cannot hold, or one that
    the model writes its own entry for."""
    for word in vocab:
        if word and min(word) <= " ":
            raise ValueError(f"vocabulary word {word!r} holds a character at or below U+0020")
    if reserved := sorted(set(vocab) & {SENT_START, UNK}):
        raise ValueError(f"vocabulary word {reserved[0]!r} is reserved by the model")


def _word_ids(vocab) -> dict[str, int]:
    return {w: i for i, w in enumerate(sorted({*vocab, SENT_START}))}


def _run_sums(values, starts):
    """The sum of each run ``values[starts[i]:starts[i + 1]]``, added left to
    right as a Python loop adds. The runs advance one element per step,
    longest first; the last run left finishes in one sequential ``cumsum``."""
    sizes = np.diff(np.append(starts, len(values)))
    by_size = np.argsort(-sizes, kind="stable")
    first, sizes = starts[by_size], sizes[by_size]
    acc = np.zeros(len(starts))
    for j in range(sizes[0] if len(sizes) else 0):
        live = np.searchsorted(-sizes, -j)  # runs longer than j
        if live == 1:
            acc[0] = np.cumsum(np.append(acc[0], values[first[0] + j : first[0] + sizes[0]]))[-1]
            break
        acc[:live] += values[first[:live] + j]
    return acc[np.argsort(by_size)]


def _gram_tables(rows):
    """The order-k id rows and counts, k = 1..n, of (m, n) gram rows sorted
    last id first: see ``NGramModel.train``. Besides ``rows`` and the tables
    it holds one order's run mask and run starts at a time."""
    n = rows.shape[1]
    # same[i]: row i + 1 repeats the last k ids of row i; starts: the first
    # row of each run of order-k grams, then of order k + 1
    same = rows[1:, n - 1] == rows[:-1, n - 1]
    starts = np.flatnonzero(np.append(True, ~same))
    tables, counts = [], []
    for k in range(1, n + 1):
        head = starts
        if k < n:
            same &= rows[1:, n - k - 1] == rows[:-1, n - k - 1]
            starts = np.flatnonzero(np.append(True, ~same))
            at = np.searchsorted(starts, head)  # the run's first extension
            extensions = np.diff(np.append(at, len(starts)))
            sizes = np.append(starts, len(rows))[at + 1] - starts[at]
            count = np.where(rows[head, n - k - 1] == -1, sizes, extensions)
        else:
            count = np.diff(np.append(head, len(rows)))
        keep = rows[head, n - k] != -1
        grams, count = rows[head[keep], n - k :], count[keep]
        by_gram = np.lexsort(grams.T[::-1])
        tables.append(grams[by_gram])
        counts.append(count[by_gram])
    return tables, counts


class NGramModel:
    """Nothing in a model changes after construction.

    ``tables[k-1]`` holds the order-k grams as sorted rows of word ids
    (``words[i]`` is the word of id i), ``counts[k-1]`` their adjusted counts.
    """

    def __init__(self, order, smoothing, vocab, tables, counts, discounts, fallback, metadata=None):
        self.order = order
        self.smoothing = smoothing
        self.vocab = frozenset(vocab)
        self.ids = _word_ids(self.vocab)
        self.words = list(self.ids)
        self.tables = tables
        self.counts = counts
        self.discounts = discounts
        self.fallback = fallback
        self.metadata = dict(metadata or {})
        self._p0 = 1.0 / (len(self.vocab) + 1)
        # per order: each gram's context run, run totals and masses, ``_find``
        # keys; keys and runs take int32 while every key fits in it
        self.run_of, self.totals, self.gamma_mass, self._keys = [], [], [], []
        for table, count, d in zip(tables, counts, discounts):
            n, k = table.shape
            wide = (n + 1) * (len(self.words) + 1) > np.iinfo(np.int32).max
            index = np.arange(n, dtype=np.int64 if wide else np.int32)
            new = index == 0  # row starts a run of rows sharing ids 0..j-1
            self._keys.append([])
            for j in range(k):
                if j:
                    new[1:] |= table[1:, j - 1] != table[:-1, j - 1]
                key = np.where(new, index, 0)  # the run's first row
                np.maximum.accumulate(key, out=key)
                key *= len(self.words) + 1
                key += table[:, j]
                key += 1
                self._keys[-1].append(key)
            # rows rise strictly: no key falls, and the last one (``key``) never repeats
            if any((key[1:] < key[:-1]).any() for key in self._keys[-1]) or (key[1:] == key[:-1]).any():
                raise ValueError(f"order-{k} grams are not in sorted order")
            # ``new`` now starts each context run; its masses are summed
            # CHUNK runs at a time
            run_of = np.cumsum(new, dtype=index.dtype)
            run_of -= 1
            self.run_of.append(run_of)
            starts = np.flatnonzero(new)
            self.totals.append(np.add.reduceat(count, starts) if n else count)
            mass, ends = np.empty(len(starts)), np.append(starts[CHUNK::CHUNK], n)
            for a, (lo, hi) in enumerate(zip(starts[::CHUNK], ends)):
                part = slice(a * CHUNK, (a + 1) * CHUNK)
                mass[part] = _run_sums(self._discount(count[lo:hi], d), starts[part] - lo)
            self.gamma_mass.append(mass)

    def _find(self, k, rows):
        """Per id row of ``rows`` (at most k ids; -1 matches nothing), the index
        of the first order-k gram starting with it, or -1. The search descends
        one column at a time: among rows sharing the ids before column j,
        column j is sorted, so (first such row, id) is a sorted key. Queries
        take the keys' dtype, so no search widens a whole key array."""
        keys = self._keys[k - 1]
        if not len(keys[0]):
            return np.full(len(rows), -1)
        first = np.zeros(len(rows), np.int64)
        hit = np.ones(len(rows), bool)
        for j in range(rows.shape[1]):
            query = (first * (len(self.words) + 1) + rows[:, j] + 1).astype(keys[j].dtype)
            first = np.minimum(np.searchsorted(keys[j], query), len(keys[j]) - 1)
            hit &= keys[j][first] == query
        return np.where(hit, first, -1)

    @staticmethod
    def _discount(count, d):
        return np.take((0.0, *d), count, mode="clip")  # counts above 3 take d3

    # -- training ----------------------------------------------------------

    @classmethod
    def train(cls, corpus, order: int, smoothing: str = "kn", metadata=None) -> "NGramModel":
        """Estimate a model of the given order from tokenized sentences.

        Every word's gram becomes one row of ``order`` ids, left-padded with
        -1, and the rows are sorted once, last id first. The order-k grams
        are then the runs of rows sharing their last k ids: a run counts its
        distinct order-(k+1) extensions, or its rows where the id before them
        is padding (the gram starts the sentence) or k is the highest order.
        """
        if order < 1:
            raise ValueError("order must be >= 1")
        if smoothing not in ("kn", "none"):
            raise ValueError(f"unknown smoothing {smoothing!r}")
        vocab, flat, lengths = {}, array("i"), []  # ids in first-seen order, renumbered below
        for words in corpus:
            size = len(flat)
            flat.extend(vocab.setdefault(w, len(vocab)) for w in words)
            if len(flat) > size:
                lengths.append(len(flat) - size)
        if not lengths:
            raise ValueError("corpus is empty")
        _check_vocab(vocab)
        ids = _word_ids(vocab)
        n = order
        lengths = np.array(lengths)
        flat = np.array([ids[w] for w in vocab], np.int32)[np.frombuffer(flat, np.intc)]
        opens = np.zeros(len(flat), bool)  # a window opens at each sentence
        opens[np.cumsum(lengths) - lengths] = True
        stream, pos = _padded_stream(flat, opens, n, ids[SENT_START])
        rows = sliding_window_view(stream, n)[pos - n + 1]
        del flat, opens, pos, stream
        rows = rows[np.lexsort(rows.T)]
        tables, counts = _gram_tables(rows)
        del rows
        discounts, fallback = zip(*map(_estimate_discounts, counts))
        return cls(order, smoothing, vocab, tables, counts, list(discounts), list(fallback), metadata)

    # -- queries -----------------------------------------------------------

    def _score(self, grams, levels):
        """P(last id | the ids before it) of each row of ``grams``, which holds
        ``order`` ids, -1 for none or unknown. A row starts at its level, the
        order of its truncated context, and backs off while the context is
        unseen, as the recursive definition does; the orders are evaluated
        bottom-up, for all rows at once."""
        n = self.order
        p = np.full(len(grams), self._p0)
        for k in range(1, n + 1):
            q = np.flatnonzero(levels >= k)
            start = self._find(k, grams[q, n - k : n - 1])
            q, start = q[start >= 0], start[start >= 0]
            idx = self._find(k, grams[q, n - k :])
            count = np.where(idx >= 0, self.counts[k - 1][idx], 0)
            p[q] = self._interpolate(k, count, self.run_of[k - 1][start], p[q])
        return p

    def _interpolate(self, k, count, run, lower):
        """Order-k probabilities of grams with these counts and context runs,
        over their order-(k-1) probabilities (1/(V+1) below order 1): the
        float operations of the recursive definition, in its order."""
        tot = self.totals[k - 1][run]
        if self.smoothing == "none":
            return count / tot
        d = self._discount(count, self.discounts[k - 1])
        return np.maximum(count - d, 0.0) / tot + self.gamma_mass[k - 1][run] / tot * lower

    # -- serialization -----------------------------------------------------

    def save(self, cflm_path: str | Path, arpa_path: str | Path) -> None:
        """Write the ``.cflm`` file (see above), then the ARPA export, one BLOCK
        of an order's id rows at a time, each block one byte matrix with a row
        per line and a column per byte of every field, written in binary.

        ARPA: stored probabilities are the interpolated values; backoff
        weights are the per-context discount masses, so an ARPA consumer
        reproduces this model's probabilities. Sentence ends are not modeled,
        so no </s> entry is emitted. Model metadata rides along as preamble
        comments (readers skip text before the data marker). A zero
        probability (<s>, or <unk> when unsmoothed) is written as -99.
        Log10 values are ``math.log10``'s, spelled as ``f"{x:.7f}"`` spells
        them (``_fixed_point``). Orders are evaluated bottom-up, each gram
        over the probability of its suffix one order down.
        """
        head = {"order": self.order, "smoothing": self.smoothing, "vocab": sorted(self.vocab),
                "grams": [len(t) for t in self.tables], "discounts": [list(d) for d in self.discounts],
                "fallback": list(self.fallback), "metadata": self.metadata}
        parts = [json.dumps(head, sort_keys=True, separators=(",", ":")).encode()]
        for table, count in zip(self.tables, self.counts):
            ids = zlib.compressobj(1)  # a copy of one column at a time, not of the table
            columns = (np.ascontiguousarray(column, "<i4") for column in table.T)
            parts += [b"".join([*map(ids.compress, columns), ids.flush()]),
                      zlib.compress(np.ascontiguousarray(count, "<i8"), 1)]
        crc = 0
        with atomic_open(cflm_path, "wb") as cflm:
            for piece in [MAGIC + bytes([FORMAT_VERSION]), *(
                    x for p in parts for x in (len(p).to_bytes(8, "little"), p))]:
                cflm.write(piece)
                crc = zlib.crc32(piece, crc)
            cflm.write(crc.to_bytes(4, "little"))
        del parts
        sizes = [len(self.tables[0]) + 2] + [len(t) for t in self.tables[1:]]  # + <unk>, <s>
        header = [f"# {key}={self.metadata[key]}" for key in sorted(self.metadata)]
        header += ["\\data\\", *(f"ngram {k}={c}" for k, c in enumerate(sizes, start=1)), ""]
        # the UTF-8 spelling of each id, NUL-padded, or SPLICE for a word longer
        # than WIDE bytes; the last one, id -1, is <unk>
        spell = [w.encode() for w in self.words] + [UNK.encode()]
        wide = {i: w for i, w in enumerate(spell) if len(w) > WIDE}
        spell = np.array([SPLICE if i in wide else w for i, w in enumerate(spell)])
        spell = spell.view(f"V{spell.itemsize}")
        unigram = np.concatenate(([0, 0], self.counts[0]))  # <unk>, <s>, the words
        probs = self._interpolate(1, unigram, np.zeros(len(unigram), int), self._p0)
        probs[1] = 0.0  # <s>: never predicted
        with atomic_open(arpa_path, "wb") as arpa:
            arpa.write(("\n".join(header) + "\n").encode())
            for k, grams in enumerate(self.tables, start=1):
                if k == 1:
                    grams = np.concatenate(([[-1], [self.ids[SENT_START]]], grams))
                else:  # drop the order two below before this order's array is made
                    lower = probs[2:] if k == 2 else probs
                    probs = np.empty(len(grams))
                arpa.write(f"\\{k}-grams:\n".encode())
                for i in range(0, len(grams), BLOCK):
                    rows, part = grams[i : i + BLOCK], slice(i, i + BLOCK)
                    if k > 1:  # over the probability of each gram's suffix
                        probs[part] = self._interpolate(k, self.counts[k - 1][part], self.run_of[k - 1][part],
                                                        lower[self._find(k - 1, rows[:, 1:])])
                    arpa.write(_arpa_text(rows, probs[part], *self._backoff_weights(k, rows), spell, wide))
                arpa.write(b"\n")
            arpa.write(b"\\end\\\n")

    def _backoff_weights(self, k, rows):
        """The order-k id rows, among ``rows``, that have a back-off weight,
        and those weights; None for both at the highest order. A gram with no
        continuation at order k+1 backs off with weight 1 (none); otherwise
        the weight is its discount mass as a context, or 0 for an unsmoothed
        model, which never backs off from a seen one."""
        if k == self.order:
            return None, None
        cont = self._find(k + 1, rows)
        has = np.flatnonzero(cont >= 0)
        run = self.run_of[k][cont[has]]
        if self.smoothing == "none":
            return has, np.zeros(len(run))
        return has, self.gamma_mass[k][run] / self.totals[k][run]

    @classmethod
    def load(cls, path: str | Path) -> "NGramModel":
        """The model in the ``.cflm`` file at ``path``; any file ``save`` would
        not write is refused with a ValueError that starts with the path. The
        frame, the head and the vocabulary are checked first, each array as it
        is inflated, and the rows' order by the constructor."""
        data = Path(path).read_bytes()
        view, end, parts, at = memoryview(data), len(data) - 4, [], 5
        try:
            if data[:4] != MAGIC:
                raise ValueError("not a corpus-forge model file")
            if data[4:5] != bytes([FORMAT_VERSION]):
                raise ValueError(f"unsupported model format version {data[4] if len(data) > 4 else None}")
            if end < 5 or zlib.crc32(view[:end]) != int.from_bytes(data[end:], "little"):
                raise ValueError("CRC-32 mismatch: the file is damaged or truncated")
            while at < end:
                size = int.from_bytes(data[at : at + 8], "little")
                parts.append(view[at + 8 : at + 8 + size])
                at += 8 + size
            if at != end:
                raise ValueError("the last part runs past the CRC-32")
            try:
                head = json.loads(bytes(parts[0]))
            except (IndexError, ValueError, RecursionError):
                head = None
            if not _canonical_head(head) or json.dumps(
                    head, sort_keys=True, separators=(",", ":")).encode() != parts[0]:
                raise ValueError("the head or the vocabulary is not what save writes")
            _check_vocab(head["vocab"])
            if len(parts) != 1 + 2 * head["order"]:
                raise ValueError(f"{len(parts) - 1} arrays for order {head['order']}")
            tables, counts = [], []
            for k, n in enumerate(head["grams"], start=1):
                ids = _inflated(parts[2 * k - 1], "<i4", n * k, 0, len(head["vocab"]) + 1, f"order-{k} ids")
                tables.append(ids.reshape(k, n).T)  # the rows, read column by column
                counts.append(_inflated(parts[2 * k], "<i8", n, 1, 2**63, f"order-{k} counts"))
            del data, view, parts
            return cls(head["order"], head["smoothing"], head["vocab"], tables, counts,
                       [tuple(d) for d in head["discounts"]], head["fallback"], head["metadata"])
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from None


def _arpa_text(rows, probs, has, weights, spell, wide) -> bytes:
    """The ARPA lines of these id rows: log10 probability, tab, the
    space-joined gram (``spell`` holds each id's NUL-padded UTF-8), then,
    for the rows ``has``, a tab and the log10 of their back-off
    ``weights``, and a newline. Each line is one row of a byte matrix whose
    columns are NUL where a field or a word is shorter than its columns; no
    word holds a NUL, so dropping them leaves the text. The words in
    ``wide`` (id: UTF-8) are spelled SPLICE in ``spell``, and replace those
    bytes in the text in turn, so a long word costs its own length only."""
    k, width = rows.shape[1], spell.itemsize + 1  # a word and the column after it
    line = np.zeros((len(rows), 13 + k * width + (13 if has is not None else 0)), np.uint8)
    _fixed_point(_log10(probs), line[:, :12])
    line[:, 12] = ord("\t")
    for j in range(k):
        at = 13 + j * width
        line[:, at : at + width - 1].view(spell.dtype)[:, 0] = spell[rows[:, j]]
        line[:, at + width - 1] = ord(" ") if j < k - 1 else 0
    line[:, -1] = ord("\n")
    if has is not None:  # a tab in the column after the last word, then the weight
        # weights repeat (under 1 % of those of synth's order-5 models are
        # distinct): each distinct weight is formatted once
        weights, which = np.unique(weights, return_inverse=True)
        bows = np.full((len(weights), 13), ord("\t"), np.uint8)
        _fixed_point(_log10(weights), bows[:, 1:])
        line[has, -14:-1] = bows[which]
    text = line.tobytes().translate(None, b"\0")
    if wide and (ids := rows[np.isin(rows, list(wide))].tolist()):  # in row-major order, as written
        text = b"".join(x for piece in zip(text.split(SPLICE), [wide[i] for i in ids] + [b""]) for x in piece)
    return text


def _log10(values):
    """``math.log10`` of each value, to the last bit, or -99 where it is not
    positive."""
    positive = values > 0.0
    if positive.all():
        return np.fromiter(map(math.log10, values.tolist()), float, len(values))
    logs = np.full(len(values), -99.0)
    logs[positive] = _log10(values[positive])
    return logs


def _fixed_point(values, out) -> None:
    """Write each value as ``f"{value:.7f}"`` spells it into its row of the
    (n, 12) uint8 ``out``, right-aligned after NUL pads: the sign, three
    columns of whole digits, the point and seven digits. Python rounds the
    exact binary value half to even; ``rint`` rounds the scaled float so,
    which can differ only within an ulp of a tie. A value within 1e-5 of a
    tie (over four ulps below 1000), or of 1000 or more, is formatted by
    Python itself. Every log10 of a positive double fits the columns."""
    scaled = values * 1e7
    rounded = np.rint(scaled)
    off = np.abs(np.abs(scaled - rounded) - 0.5) <= 1e-5
    off |= ~(np.abs(rounded) < 1e10)  # NaN too
    rounded[off] = 0.0
    whole, frac = np.divmod(np.abs(rounded).astype(np.int64), 10**7)
    hi, lo = np.divmod(frac, 10**4)
    out[:, 0] = np.signbit(values) * ord("-")
    four, three, point = _digit_tables()
    out[:, 1:5].view(point.dtype)[:, 0] = point[whole]
    out[:, 5:8].view(three.dtype)[:, 0] = three[hi]
    out[:, 8:].view(four.dtype)[:, 0] = four[lo]
    for i in np.flatnonzero(off).tolist():
        text = f"{values[i]:.7f}".encode()
        out[i] = 0
        out[i, 12 - len(text) :] = np.frombuffer(text, np.uint8)


def _inflated(part, dtype, n, low, high, what):
    """The ``n`` values of ``dtype`` in the zlib stream ``part``, each in
    [low, high). A stream that holds more is refused before it is fully
    inflated."""
    size, inflate = n * np.dtype(dtype).itemsize, zlib.decompressobj()
    try:
        raw = inflate.decompress(part, min(size + 1, sys.maxsize))
    except zlib.error as error:
        raise ValueError(f"damaged zlib stream ({error}) of the {what}") from None
    if len(raw) > size:
        raise ValueError(f"the {what} inflate past the {size} bytes the head declares")
    if not inflate.eof:
        raise ValueError(f"truncated zlib stream of the {what}")
    if inflate.unused_data:
        raise ValueError(f"bytes after the zlib stream of the {what}")
    if len(raw) != size:
        raise ValueError(f"the {what} hold {len(raw)} bytes, not the {size} the head declares")
    values = np.frombuffer(raw, dtype)
    if n and not low <= values.min() <= values.max() < high:
        raise ValueError(f"the {what} are not all in [{low}, {high})")
    return values


def _canonical_head(head) -> bool:
    """Whether a parsed head holds the keys and value types ``save`` writes."""
    if not isinstance(head, dict) or sorted(head) != [
            "discounts", "fallback", "grams", "metadata", "order", "smoothing", "vocab"]:
        return False
    k_max, vocab = head["order"], head["vocab"]
    return (type(k_max) is int and k_max >= 1 and head["smoothing"] in ("kn", "none")
            and isinstance(head["metadata"], dict)
            and isinstance(vocab, list) and all(type(w) is str for w in vocab)
            and vocab == sorted(set(vocab))
            and all(isinstance(head[key], list) and len(head[key]) == k_max
                    for key in ("discounts", "fallback", "grams"))
            and all(type(n) is int and n >= 0 for n in head["grams"])
            and all(type(f) is bool for f in head["fallback"])
            and all(isinstance(d, list) and len(d) == 3 and all(type(x) is float for x in d)
                    for d in head["discounts"]))


def train(corpus, order: int, smoothing: str = "kn", metadata=None) -> NGramModel:
    return NGramModel.train(corpus, order, smoothing=smoothing, metadata=metadata)


def _padded_stream(ids, opens, n: int, start_id: int):
    """The id stream in which each window opening where ``opens`` is set takes
    n slots (n - 1 pads, then <s>) before its tokens, and each token's slot."""
    slot = np.arange(len(ids)) + n * np.cumsum(opens)
    stream = np.full(len(ids) + n * np.count_nonzero(opens), -1, np.int32)
    stream[slot] = ids
    stream[slot[opens] - 1] = start_id
    return stream, slot


def evaluate(model: NGramModel, dev_sentences, exclude_oov: bool = True,
             oov_context: str = "break") -> EvalReport:
    """OOV rate and perplexity of the model on tokenized dev sentences.

    With ``exclude_oov`` the perplexity skips OOV tokens; ``oov_context``
    decides whether an OOV acts as a sentence-internal break (the window
    restarts from the sentence-start state; default) or stays in the window
    as an unmatchable token ("keep", which backs off through the unknown
    position). With ``exclude_oov`` off, OOV tokens are scored through the
    unknown-word mass.

    Every scored token is one row of ``order`` ids, cut from one id stream
    in which each window opens with n - 1 pads and <s>; an OOV is id -1. All
    rows are scored at once, and their logs summed in token order.
    """
    if oov_context not in ("break", "keep"):
        raise ValueError(f"oov_context must be 'break' or 'keep', got {oov_context!r}")
    sentences = [s for s in map(list, dev_sentences) if s]
    if not sentences:
        raise ValueError("dev text is empty")
    n, get, start_id = model.order, model.ids.get, model.ids[SENT_START]
    ids = np.array([get(w, -1) for s in sentences for w in s], np.int32)
    ids[ids == start_id] = -1  # <s> is no dev word
    oov = ids < 0
    oov_tokens = int(np.count_nonzero(oov))
    # a window opens at each sentence and, under "break", after each OOV
    lengths = np.array([len(s) for s in sentences])
    opens = np.zeros(len(ids), bool)
    opens[np.cumsum(lengths) - lengths] = True
    if oov_context == "break":
        opens[1:] |= oov[:-1]
    scored = ~oov if exclude_oov else np.ones(len(ids), bool)
    if not scored.any():
        raise ValueError("no scorable tokens in dev text")
    stream, slot = _padded_stream(ids, opens, n, start_id)
    token = np.arange(len(ids))
    # a token's level: 1 + the window's tokens before it and its <s>, at most n
    level = np.minimum(token - np.maximum.accumulate(np.where(opens, token, 0)) + 2, n)
    probs = model._score(sliding_window_view(stream, n)[slot[scored] - n + 1], level[scored])
    logsum = 0.0
    for p in probs.tolist():
        logsum += math.log(p) if p > 0.0 else float("-inf")
    return EvalReport(oov_rate=oov_tokens / len(ids), perplexity=math.exp(-logsum / len(probs)),
                      total_tokens=len(ids), oov_tokens=oov_tokens, scored_tokens=len(probs))


def higher_order_not_worse(perplexities: dict[int, float]) -> bool:
    """Whether the highest order's perplexity is no worse than the lowest
    order's, up to 1e-9; ``perplexities`` maps order -> perplexity."""
    orders = sorted(perplexities)
    return perplexities[orders[-1]] <= perplexities[orders[0]] + 1e-9
