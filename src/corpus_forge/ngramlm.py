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
loaded model equals its original in every float. Runs and the query index
(``_keys``, built on a model's first query) are int32 unless a key reaches
2^31. One sort of the highest order's rows yields every order, and every
lower order's model (``lower_order``); ``save`` joins each gram to its
suffix one order down and its context run one order up with indexes that
sort gives (``_links``), not with the query index.

What each step holds at once, besides the model's own arrays (tables,
counts, runs and links): ``train`` an int32 per word of its corpus, read
once, then its id rows and their sort keys, then the rows and two orders'
runs; ``save``, in each process, one ``.cflm`` part and one column of ids,
then two orders' probabilities and one BLOCK of ARPA lines as a byte
matrix, each word padded to at most WIDE bytes; ``load`` the file's bytes
and one array being inflated; ``evaluate`` one id row per dev token.

``.cflm`` version 2 holds the arrays themselves, as KenLM's binary format
does: the magic, the version byte, then parts each preceded by its 8-byte
little-endian length. The head is the canonical JSON (sorted keys, compact,
ASCII) of "discounts", "fallback", "grams" (rows per order), "metadata",
"order", "smoothing" and "vocab"; then, per order, the zlib stream (level 1)
of its id rows, column by column, as little-endian int32, and that of its
counts as little-endian int64. A CRC-32 of every byte before it ends the file.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import zlib
from array import array
from collections import defaultdict
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cache, cached_property, partial
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


def _rank(table, rows):
    """The index in ``table`` (sorted rows) of each of ``rows``, which it
    holds: rows as big-endian bytes sort as their ids do."""
    key = [np.ascontiguousarray(ids, ">u4").view(f"V{4 * ids.shape[1]}").ravel() for ids in (table, rows)]
    return np.searchsorted(*key)


def _gram_tables(rows):
    """The order-k id rows, adjusted counts and suffix links, k = 1..n, of
    (m, n) gram rows sorted last id first: see ``train``. An order-k run
    lies in the run of its suffix one order down, and that suffix's index
    among the sorted grams (``link``) and the gram's first id sort the
    grams. Besides ``rows`` and the tables it holds two orders' runs."""
    n = rows.shape[1]
    # same[i]: row i + 1 repeats the last k ids of row i; starts: the first
    # row of each run of order-k grams, then of order k + 1
    same = rows[1:, n - 1] == rows[:-1, n - 1]
    starts = np.flatnonzero(np.append(True, ~same)).astype(np.int32 if len(rows) < 2**31 else np.int64)
    tables, counts, suffix = [], [], [None]
    link = np.zeros(len(starts), starts.dtype)  # per run: its suffix's rank
    for k in range(1, n + 1):
        head, count = starts, np.diff(np.append(starts, len(rows)))
        if k < n:  # a gram after padding starts the sentence and keeps its raw count
            same &= rows[1:, n - k - 1] == rows[:-1, n - k - 1]
            starts = np.flatnonzero(np.append(True, ~same)).astype(head.dtype)
            extensions = np.diff(np.append(np.searchsorted(starts, head), len(starts))).astype(head.dtype)
            count = np.where(rows[head, n - k - 1] == -1, count, extensions)
        keep = np.flatnonzero(rows[head, n - k] != -1)
        key = rows[head[keep], n - k] * np.int64(len(tables[-1]) if tables else 1)
        key += link[keep]
        by_gram = keep[np.argsort(key)]
        del keep, key
        tables.append(rows[head[by_gram], n - k :])
        counts.append(count[by_gram].astype(np.int64))
        if k > 1:
            suffix.append(link[by_gram])
        if k < n:
            del count, link
            link = np.full(len(head), -1, head.dtype)  # each run's rank, then its extensions'
            link[by_gram] = np.arange(len(by_gram))
            link = np.repeat(link, extensions)
    return tables, counts, suffix


class NGramModel:
    """Nothing in a model changes after construction.

    ``tables[k-1]`` holds the order-k grams as sorted rows of word ids
    (``words[i]`` is the word of id i), ``counts[k-1]`` their adjusted counts.
    """

    def __init__(self, order, smoothing, vocab, tables, counts, discounts, fallback, metadata=None,
                 runs=None):
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
        # per order: each gram's context run (rows sharing all ids but the
        # last), run totals and masses; runs take int32 while every ``_keys``
        # key fits in it. A model built with ``runs``, another model, takes
        # its runs for the orders below its own top.
        shared = order - 1 if runs else 0
        self.run_of, self.totals, self.gamma_mass = (
            [x[:shared] for x in (runs.run_of, runs.totals, runs.gamma_mass)] if runs else ([], [], []))
        for table, count, d in list(zip(tables, counts, discounts))[shared:]:
            n, k = table.shape
            new = np.zeros(n, bool)
            new[:1] = True
            for j in range(k - 1):
                new[1:] |= table[1:, j] != table[:-1, j]
            wide = (n + 1) * (len(self.words) + 1) > np.iinfo(np.int32).max
            run_of = np.cumsum(new, dtype=np.int64 if wide else np.int32)
            run_of -= 1
            self.run_of.append(run_of)
            starts = np.flatnonzero(new)  # each run's masses are summed CHUNK runs at a time
            self.totals.append(np.add.reduceat(count, starts) if n else count)
            mass, ends = np.empty(len(starts)), np.append(starts[CHUNK::CHUNK], n)
            for a, (lo, hi) in enumerate(zip(starts[::CHUNK], ends)):
                part = slice(a * CHUNK, (a + 1) * CHUNK)
                mass[part] = _run_sums(self._discount(count[lo:hi], d), starts[part] - lo)
            self.gamma_mass.append(mass)

    @cached_property
    def _keys(self):
        """Per order, the query index ``_find`` descends, built on first use;
        rows that do not rise strictly are refused."""
        keys = []
        for table, run_of in zip(self.tables, self.run_of):
            index = np.arange(len(table), dtype=run_of.dtype)
            new = index == 0  # row starts a run of rows sharing ids 0..j-1
            keys.append([])
            for j in range(table.shape[1]):
                if j:
                    new[1:] |= table[1:, j - 1] != table[:-1, j - 1]
                key = np.where(new, index, 0)  # the run's first row
                np.maximum.accumulate(key, out=key)
                key *= len(self.words) + 1
                key += table[:, j]
                key += 1
                keys[-1].append(key)
            # rows rise strictly: no key falls, and the last one (``key``) never repeats
            if any((key[1:] < key[:-1]).any() for key in keys[-1]) or (key[1:] == key[:-1]).any():
                raise ValueError(f"order-{table.shape[1]} grams are not in sorted order")
        return keys

    def _links(self, suffix=None):
        """Per order k, the joins ``save`` makes: the index one order down
        of each gram's suffix (``suffix``, from training's walk, or found by
        ``_rank``), and the context run one order up that each gram heads,
        or -1 (None at the top order; at order 1 over the ARPA rows <unk>,
        <s>, then the words). A row's key, its first id and its suffix's
        index, rises with the rows; that of each row's first k ids one order
        up, from the index one order down of its first k - 1, merges them
        into the order-k rows."""
        suffix = suffix or [None] + [_rank(a, b[:, 1:]) for a, b in zip(self.tables, self.tables[1:])]
        links, prefix = [], None  # the index one order down of each order-k row's first k - 1 ids
        for k, table in enumerate(self.tables, start=1):
            heads = None
            if k < self.order:  # the order-(k+1) rows' first k ids, a CHUNK at a time
                up, size = self.tables[k], np.int64(len(self.tables[k - 2]) if k > 1 else 1)
                key = table[:, 0] * size
                key += suffix[k - 1] if k > 1 else 0
                at = np.empty(len(up), self.run_of[k].dtype)
                for i in range(0, len(up), CHUNK):
                    c = slice(i, i + CHUNK)
                    at[c] = np.searchsorted(key, up[c, 0] * size + (prefix[suffix[k][c]] if k > 1 else 0))
                if k == 1:  # the ARPA rows lead with <unk> and <s>, which the table lacks
                    at = np.where(up[:, 0] == self.ids[SENT_START], -1, at) + 2
                heads = np.full(len(table) + 2 * (k == 1), -1, at.dtype)
                heads[at] = self.run_of[k]
                prefix = at - 2 if k == 1 else at
            links.append((suffix[k - 1], heads))
        return links

    links = cached_property(_links)  # found on first use unless training gives them

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
        """Write the ``.cflm`` file (see above), then the ARPA export (see
        ``save``)."""
        save([self], [(cflm_path, arpa_path)])

    def lower_order(self, order: int) -> "NGramModel":
        """The model ``train`` makes of a lower ``order`` from the same
        corpus: a lower order's counts depend only on the grams one order up,
        so it shares this model's orders below its own, and its top order
        takes raw counts, each summed from the grams' left extensions one
        order up (a gram that starts the sentence has none, and its count is
        raw already)."""
        if not 1 <= order <= self.order:
            raise ValueError(f"order {order} is not in 1..{self.order}")
        if order == self.order:
            return self
        raw = self.counts[-1]  # the top order's counts are raw
        for k in range(self.order - 1, order - 1, -1):
            up, raw = raw, np.zeros(len(self.tables[k - 1]), np.int64)
            np.add.at(raw, self.links[k][0], up)
            del up
            start = self.tables[k - 1][:, 0] == self.ids[SENT_START]
            raw[start] = self.counts[k - 1][start]
        d, f = _estimate_discounts(raw)
        model = NGramModel(order, self.smoothing, self.vocab, self.tables[:order],
                           [*self.counts[: order - 1], raw], [*self.discounts[: order - 1], d],
                           [*self.fallback[: order - 1], f], self.metadata, runs=self)
        model.links = [*self.links[: order - 1], (self.links[order - 1][0], None)]
        return model

    @classmethod
    def load(cls, path: str | Path) -> "NGramModel":
        """The model in the ``.cflm`` file at ``path``; any file ``save`` would
        not write is refused with a ValueError that starts with the path. The
        frame, the head and the vocabulary are checked first, each array as it
        is inflated, and the rows' order by the query index."""
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
            model = cls(head["order"], head["smoothing"], head["vocab"], tables, counts,
                        [tuple(d) for d in head["discounts"]], head["fallback"], head["metadata"])
            model._keys  # built now: it refuses rows that do not rise strictly
            return model
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
    """Estimate a model of the given order from tokenized sentences, read once.

    Every word's gram becomes one row of ``order`` ids, left-padded with -1,
    and the rows are sorted once, last id first. The order-k grams are then
    the runs of rows sharing their last k ids: a run counts its distinct
    order-(k+1) extensions, or its rows where the id before them is padding
    (the gram starts the sentence) or k is the highest order.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if smoothing not in ("kn", "none"):
        raise ValueError(f"unknown smoothing {smoothing!r}")
    vocab, flat, lengths = defaultdict(itertools.count().__next__), array("i"), []  # ids in first-seen order
    for words in corpus:
        size = len(flat)
        flat.extend(map(vocab.__getitem__, words))
        if len(flat) > size:
            lengths.append(len(flat) - size)
    if not lengths:
        raise ValueError("corpus is empty")
    _check_vocab(vocab)
    ids, n = _word_ids(vocab), order
    lengths = np.array(lengths)
    flat = np.array([ids[w] for w in vocab], np.int32)[np.frombuffer(flat, np.intc)]  # renumbered
    opens = np.zeros(len(flat), bool)  # a window opens at each sentence
    opens[np.cumsum(lengths) - lengths] = True
    stream, pos = _padded_stream(flat, opens, n, ids[SENT_START])
    del flat, opens
    # a row's ids + 1, packed last id highest into as few int64 keys as hold
    # them, so that one argsort (or a lexsort of those keys) sorts the rows
    bits, keys = len(ids).bit_length(), []
    for hi in range(n, 0, -(63 // bits)):
        keys.append(np.zeros(len(pos), np.int64))
        for j in range(hi - 1, max(hi - 63 // bits, 0) - 1, -1):
            keys[-1] <<= bits
            keys[-1] |= stream[pos - (n - 1 - j)] + 1
    by_row = np.lexsort(keys[::-1]) if keys[1:] else np.argsort(keys[0])
    rows = sliding_window_view(stream, n)[pos[by_row] - n + 1]
    del pos, stream, keys, by_row
    tables, counts, suffix = _gram_tables(rows)
    del rows
    discounts, fallback = zip(*map(_estimate_discounts, counts))
    model = NGramModel(order, smoothing, vocab, tables, counts, list(discounts), list(fallback), metadata)
    model.links = model._links(suffix)
    return model


def save(models, paths, map_fn=map) -> None:
    """Write each model's ``.cflm`` file and ARPA export through
    ``atomic_open``; ``paths`` holds a (cflm, arpa) pair per model.

    Each ``.cflm`` part, then each BLOCK of an order's ARPA lines, is one
    item, made by ``map_fn`` (which may make items in other processes) and
    written here in item order to every file that holds it: models that
    share an order's arrays, as ``lower_order`` makes them, share its parts
    and, while they share the order above too, its lines. A process that
    makes an order's lines computes its probabilities, over the order
    below's, when it reaches them, and holds two orders' at a time.

    ARPA: stored probabilities are the interpolated values; backoff weights
    are the per-context discount masses, so an ARPA consumer reproduces the
    model's probabilities. A gram with no continuation one order up backs
    off with weight 1 (no field), and an unsmoothed model never backs off
    from a seen context (weight 0). Sentence ends are not modeled, so no
    </s> entry is emitted. Metadata rides along as preamble comments
    (readers skip text before the data marker). A zero probability (<s>,
    or <unk> when unsmoothed) is written as -99. Log10 values are
    ``math.log10``'s, spelled as ``f"{x:.7f}"`` spells them (``_fixed_point``).
    """
    probs, spelling = {}, {}  # id of an order's counts -> its ARPA rows' probabilities

    def probabilities(m, k):
        if (key := id(m.counts[k - 1])) not in probs:
            lower = probabilities(m, k - 1)[2 * (k == 2) :] if k > 1 else None
            for old in [old for old in probs if k == 1 or old != id(m.counts[k - 2])]:
                del probs[old]  # no later line of this process needs it
            if k == 1:  # <unk>, <s> (never predicted), the words
                unigram = np.concatenate(([0, 0], m.counts[0]))
                p = m._interpolate(1, unigram, np.zeros(len(unigram), int), m._p0)
                p[1] = 0.0
            else:  # a BLOCK at a time, each gram over its suffix's probability
                p = np.empty(len(m.tables[k - 1]))
                for i in range(0, len(p), BLOCK):
                    part = slice(i, i + BLOCK)
                    p[part] = m._interpolate(k, m.counts[k - 1][part], m.run_of[k - 1][part],
                                             lower[m.links[k - 1][0][part]])
            probs[key] = p
        return probs[key]

    def lines(m, k, i):
        """The ARPA lines of order-k rows i..i+BLOCK, after the section head
        when i is 0 and before its blank line when they end it."""
        rows, p = m.tables[k - 1], probabilities(m, k)
        rows = (np.concatenate(([[-1], [m.ids[SENT_START]]], rows)) if k == 1 else rows)[i : i + BLOCK]
        has = weights = None
        if k < m.order:
            run = m.links[k - 1][1][i : i + BLOCK]
            run = run[has := np.flatnonzero(run >= 0)]
            weights = np.zeros(len(run)) if m.smoothing == "none" else m.gamma_mass[k][run] / m.totals[k][run]
        text = _arpa_text(rows, p[i : i + BLOCK], has, weights, *spelling[id(m)])
        return b"".join([f"\\{k}-grams:\n".encode() * (i == 0), text, b"\n" * (i + BLOCK >= len(p))])

    def items():  # (the files that hold it, a function making its bytes)
        for arpa, k, kind in [(0, k, kind) for k in range(1, top + 1) for kind in (0, 1)] + [
                (1, k, 1) for k in range(1, top + 1)]:
            shared = {}
            for i, m in sorted(enumerate(models), key=lambda im: im[1].order):  # a top order first
                if k <= m.order:
                    key = (id(m.counts[k - 1]), k < m.order and id(m.counts[k])) if arpa else id(
                        (m.tables, m.counts)[kind][k - 1])
                    shared.setdefault(key, ([], m))[0].append(2 * i + arpa)
            for files, m in shared.values():
                if arpa:
                    size = len(m.tables[k - 1]) + 2 * (k == 1)
                    yield from ((files, partial(lines, m, k, i)) for i in range(0, max(size, 1), BLOCK))
                else:
                    yield files, partial(_cflm_part, m, k, kind)

    top = max(m.order for m in models)
    for m in models:  # each id's UTF-8, NUL-padded, or SPLICE past WIDE bytes; id -1 is <unk>
        spell = [w.encode() for w in m.words] + [UNK.encode()]
        wide = {i: w for i, w in enumerate(spell) if len(w) > WIDE}
        spell = np.array([SPLICE if i in wide else w for i, w in enumerate(spell)])
        spelling[id(m)] = spell.view(f"V{spell.itemsize}"), wide
    with ExitStack() as stack:
        files = [stack.enter_context(atomic_open(path, "wb")) for pair in paths for path in pair]
        crcs, pieces = [0] * len(files), []
        for i, m in enumerate(models):
            head = {"order": m.order, "smoothing": m.smoothing, "vocab": sorted(m.vocab),
                    "grams": [len(t) for t in m.tables], "discounts": [list(d) for d in m.discounts],
                    "fallback": list(m.fallback), "metadata": m.metadata}
            head = json.dumps(head, sort_keys=True, separators=(",", ":")).encode()
            text = [f"# {key}={m.metadata[key]}" for key in sorted(m.metadata)] + ["\\data\\"]
            text += [f"ngram {k}={len(t) + 2 * (k == 1)}"  # + <unk>, <s>
                     for k, t in enumerate(m.tables, start=1)]
            pieces += [([2 * i], MAGIC + bytes([FORMAT_VERSION]) + len(head).to_bytes(8, "little") + head),
                      ([2 * i + 1], ("\n".join(text) + "\n\n").encode())]
        for targets, data in itertools.chain(pieces, map_fn(lambda item: (item[0], item[1]()), items())):
            for f in targets:
                files[f].write(data)
                crcs[f] = zlib.crc32(data, crcs[f]) if f % 2 == 0 else 0
        for f in range(0, len(files), 2):
            files[f].write(crcs[f].to_bytes(4, "little"))
            files[f + 1].write(b"\\end\\\n")
    probs.clear()  # the recursive ``probabilities`` holds it in a cycle


def _cflm_part(model, k, kind) -> bytes:
    """The ``.cflm`` part of the order-k id rows (``kind`` 0), column by
    column as little-endian int32, or of the counts as little-endian int64,
    zlib level 1, after its length; one column is copied at a time."""
    if kind:
        data = zlib.compress(np.ascontiguousarray(model.counts[k - 1], "<i8"), 1)
    else:
        ids = zlib.compressobj(1)
        columns = (np.ascontiguousarray(column, "<i4") for column in model.tables[k - 1].T)
        data = b"".join([*map(ids.compress, columns), ids.flush()])
    return len(data).to_bytes(8, "little") + data


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
