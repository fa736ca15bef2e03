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
(n_k, k) int32 array of id rows plus their counts. No word may hold a
character at or below U+0020, so id order is the order of the space-joined
gram strings, in which the ``.cflm`` JSON and the ARPA file list grams;
``save`` writes both files in one pass over the id rows, one CHUNK of gram
strings at a time. A context's grams form one run; its discount mass is
summed left to right in that one order, so a loaded model equals its
original in every float. The search index over each order (``_keys``,
``run_of``) is int32 unless a key reaches 2^31.

What each step holds at once, besides the model's own arrays: ``train`` its
id rows, sorted once, and one order's run masks, all freed before the
constructor runs; the constructor one order's key being built and one
CHUNK of context runs; ``save`` one CHUNK of gram strings and lines, plus
two orders' probabilities; ``load`` the compressed file, one CHUNK of grams
and one inflated piece of text.

``.cflm``: 4-byte magic, version byte, then zlib (level 6) of the JSON object
{"discounts", "fallback", "metadata", "order", "smoothing", "tables": per
order {"w1 .. wk": count}, "vocab"}: sorted keys, compact separators, ASCII.
``load`` reads exactly that canonical text and refuses any other, valid
JSON included, with a ValueError that names the file (and, for a fault in
a table, its byte offset in the JSON text). Only the head and the vocabulary
go through ``json.loads``; the tables are read a CHUNK of grams at a time
from text inflated 32 bytes per CHUNK gram at a time, so the whole text is
never held.
"""

from __future__ import annotations

import itertools
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SENT_START = "<s>"
UNK = "<unk>"

MAGIC = b"CFLM"
FORMAT_VERSION = 1

FALLBACK_DISCOUNT = 0.75
CHUNK = 1 << 13  # grams per piece of text: bounds the text held at once


@dataclass
class EvalReport:
    oov_rate: float
    perplexity: float
    total_tokens: int
    oov_tokens: int
    scored_tokens: int
    order: int
    oov_context: str


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
            raise ValueError(f"word {word!r} holds a character at or below U+0020")
    if reserved := sorted(set(vocab) & {SENT_START, UNK}):
        raise ValueError(f"word {reserved[0]!r} is reserved by the model")


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
            if any((key[1:] < key[:-1]).any() for key in self._keys[-1]):
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

        Besides the corpus and the tables, it holds the id rows (twice while
        they sort) and one order's run masks and run starts; all of these are
        freed before the constructor builds the index.
        """
        if order < 1:
            raise ValueError("order must be >= 1")
        if smoothing not in ("kn", "none"):
            raise ValueError(f"unknown smoothing {smoothing!r}")
        sentences = [words for words in map(list, corpus) if words]
        if not sentences:
            raise ValueError("corpus is empty")
        vocab = set().union(*sentences)
        _check_vocab(vocab)
        ids = _word_ids(vocab)
        n = order
        lengths = np.array([len(s) for s in sentences])
        flat = np.array([ids[w] for s in sentences for w in s], np.int32)
        del sentences
        # sentence i takes n slots (n - 1 pads, then <s>) before its words
        pos = np.arange(len(flat)) + n * np.repeat(np.arange(1, len(lengths) + 1), lengths)
        stream = np.full(len(flat) + n * len(lengths), -1, np.int32)
        stream[pos] = flat
        stream[pos[np.cumsum(lengths) - lengths] - 1] = ids[SENT_START]
        rows = sliding_window_view(stream, n)[pos - n + 1]
        del flat, pos, stream
        rows = rows[np.lexsort(rows.T)]
        tables, counts = _gram_tables(rows)
        del rows
        discounts, fallback = zip(*map(_estimate_discounts, counts))
        return cls(order, smoothing, vocab, tables, counts, list(discounts), list(fallback), metadata)

    # -- queries -----------------------------------------------------------

    def probs(self, queries) -> list[float]:
        """P(word | context) for each (context, word) pair, in order.

        A query starts at the order of its truncated context and backs off
        while the context is unseen, as the recursive definition does; the
        orders are evaluated bottom-up, for all queries at once.
        """
        n = self.order
        get = self.ids.get
        grams, levels = [], []
        for context, word in queries:
            ctx = [get(w, -1) for w in list(context)[1 - n :]] if n > 1 else []
            grams.append([-1] * (n - 1 - len(ctx)) + ctx + [get(word, -1)])
            levels.append(len(ctx) + 1)
        grams = np.array(grams, np.int32).reshape(-1, n)
        levels = np.array(levels)
        p = np.full(len(grams), self._p0)
        for k in range(1, n + 1):
            q = np.flatnonzero(levels >= k)
            start = self._find(k, grams[q, n - k : n - 1])
            q, start = q[start >= 0], start[start >= 0]
            idx = self._find(k, grams[q, n - k :])
            count = np.where(idx >= 0, self.counts[k - 1][idx], 0)
            p[q] = self._interpolate(k, count, self.run_of[k - 1][start], p[q])
        return p.tolist()

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
        """Write the ``.cflm`` file and the ARPA export in one pass over the
        orders. Each CHUNK of an order's id rows is joined into gram strings
        once (and once more JSON-escaped when escaping changes some word);
        their ``"gram":count`` pairs stream into the compressor and their
        ARPA lines into the text file.

        ARPA: stored probabilities are the interpolated values; backoff
        weights are the per-context discount masses, so an ARPA consumer
        reproduces this model's probabilities. Sentence ends are not modeled,
        so no </s> entry is emitted. Model metadata rides along as preamble
        comments (readers skip text before the data marker). A zero
        probability (<s>, or <unk> when unsmoothed) is written as -99.
        Orders are evaluated bottom-up, each gram over the probability of its
        suffix one order down.
        """
        payload = {"order": self.order, "smoothing": self.smoothing, "vocab": sorted(self.vocab),
                   "tables": [], "discounts": [list(d) for d in self.discounts],
                   "fallback": list(self.fallback), "metadata": self.metadata}
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        head, _, tail = text.rpartition('"tables":[]')  # only "vocab" follows it
        escaped = [json.dumps(w)[1:-1] for w in self.words]
        escape = escaped != self.words
        sizes = [len(self.tables[0]) + 2] + [len(t) for t in self.tables[1:]]  # + <unk>, <s>
        header = [f"# {key}={self.metadata[key]}" for key in sorted(self.metadata)]
        header += ["\\data\\", *(f"ngram {k}={c}" for k, c in enumerate(sizes, start=1)), ""]
        unigram = np.concatenate(([0, 0], self.counts[0]))  # <unk>, <s>, the words
        probs = self._interpolate(1, unigram, np.zeros(len(unigram), int), self._p0)
        probs[1] = 0.0  # <s>: never predicted
        special = np.array([[-1], [self.ids[SENT_START]]])  # <unk> has no id
        z = zlib.compressobj(6)
        with open(cflm_path, "wb") as cflm, open(arpa_path, "w", encoding="utf-8") as arpa:
            cflm.write(MAGIC + bytes([FORMAT_VERSION]) + z.compress(f'{head}"tables":['.encode()))
            arpa.write("\n".join(header) + "\n\\1-grams:\n")
            arpa.write(_arpa_lines(probs[:2].tolist(), [UNK, SENT_START], self._backoffs(1, special)))
            probs = probs[2:]
            for k, (grams, count) in enumerate(zip(self.tables, self.counts), start=1):
                if k > 1:
                    lower, probs = probs, np.empty(len(grams))
                    arpa.write(f"\\{k}-grams:\n")
                cflm.write(z.compress(b",{" if k > 1 else b"{"))
                for i in range(0, len(grams), CHUNK):
                    rows = grams[i : i + CHUNK]
                    if k > 1:  # over the probability of each gram's suffix
                        probs[i : i + CHUNK] = self._interpolate(
                            k, count[i : i + CHUNK], self.run_of[k - 1][i : i + CHUNK],
                            lower[self._find(k - 1, rows[:, 1:])])
                    strings = _join_grams(self.words, rows)
                    keys = _join_grams(escaped, rows) if escape else strings
                    pairs = map('"{}":{}'.format, keys, count[i : i + CHUNK].tolist())
                    cflm.write(z.compress(f'{"," if i else ""}{",".join(pairs)}'.encode()))
                    arpa.write(_arpa_lines(probs[i : i + CHUNK].tolist(), strings, self._backoffs(k, rows)))
                cflm.write(z.compress(b"}"))
                arpa.write("\n")
            cflm.write(z.compress(f"]{tail}".encode()) + z.flush())
            arpa.write("\\end\\\n")

    @classmethod
    def load(cls, path: str | Path) -> "NGramModel":
        """The model in the ``.cflm`` file at ``path``, which must hold the
        bytes ``save`` writes: any other file, valid JSON included, is refused
        with a ValueError that starts with the path (see ``_read_cflm``).

        Besides the model's arrays, it holds the file's compressed bytes, the
        inflater, one piece of text (32 bytes per CHUNK gram) and one CHUNK of
        grams as strings; never the whole text."""
        head, tables, counts = _read_cflm(path)
        return cls(head["order"], head["smoothing"], head["vocab"], tables, counts,
                   [tuple(d) for d in head["discounts"]], head["fallback"], head["metadata"])

    def _backoffs(self, k: int, rows) -> list[str]:
        """The ARPA back-off field of each order-k id row. A gram with no
        continuation at order k+1 backs off with weight 1 (no field);
        otherwise the weight is its discount mass as a context, or 0 (-99)
        for an unsmoothed model, which never backs off from a seen one."""
        fields = np.full(len(rows), "", object)
        if k < self.order:
            start = self._find(k + 1, rows)
            run = self.run_of[k][start[start >= 0]]
            mass = self.gamma_mass[k][run] / self.totals[k][run]
            bows = [-99.0] * len(run) if self.smoothing == "none" else map(math.log10, mass.tolist())
            fields[start >= 0] = [f"\t{bow:.7f}" for bow in bows]
        return fields.tolist()


def _join_grams(words, rows) -> list[str]:
    """The space-joined gram string of each id row; ``words[i]`` spells id i."""
    return list(map(" ".join, zip(*([words[i] for i in col] for col in rows.T.tolist()))))


def _arpa_lines(probs, strings, fields) -> str:
    """One ARPA line per gram: log10 probability (-99 for zero), the gram,
    then its back-off field."""
    log10 = math.log10
    return "".join([f"{log10(p) if p > 0.0 else -99.0:.7f}\t{s}{field}\n"
                    for p, s, field in zip(probs, strings, fields)])


# JSON escapes that hold a quote or a backslash, and same-length stand-ins
# that neither splitting on quotes nor on spaces can break up
_ESCAPES = (("\\\\", "\x01\x01"), ('\\"', "\x02\x02"))
_TABLES, _VOCAB = b'"tables":[', b'],"vocab":['


def _read_cflm(path):
    """The head (every key but "tables"), the id rows and the counts of the
    ``.cflm`` file ``save`` wrote to ``path``.

    The file's bytes stay compressed; its text is inflated twice, in pieces
    of 32 bytes per CHUNK gram. The first pass (``_outline``) checks the whole
    stream and finds the tables and the vocabulary, keeping only the text
    from the vocabulary on. The second keeps the head: only the head and the
    vocabulary go through ``json.loads``, and, re-dumped, they must give back
    their own bytes. It then reads the tables (``_read_tables``). A fault in
    a table names its byte offset in the JSON text.
    """
    def fault(message, at=None):
        return ValueError(f"{path}: " + ("" if at is None else f"byte {at}: ") + message)

    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise fault("not a corpus-forge model file")
    if data[4:5] != bytes([FORMAT_VERSION]):
        raise fault(f"unsupported model format version {data[4] if len(data) > 4 else None}")
    data, size = memoryview(data)[5:], 32 * CHUNK
    non_ascii, control, start, end, tail, braces, n_quotes, last_quote = _outline(
        _inflate(data, size, fault))
    if non_ascii is not None:
        raise fault("not ASCII", non_ascii)
    if control is not None:
        raise fault("a raw control character", control)
    if end is None:
        raise fault("no tables between the head and the vocabulary")
    pieces, text = _inflate(data, size, fault), bytearray()
    while len(text) < start:
        text += next(pieces)
    small = bytes(text[:start]) + tail
    del text[:start], tail
    try:
        head = json.loads(small)
        if not _canonical_head(head) or json.dumps(
                head, sort_keys=True, separators=(",", ":")).encode() != small:
            raise ValueError
    except ValueError:
        raise fault("the head or the vocabulary is not what save writes") from None
    try:
        _check_vocab(head["vocab"])
    except ValueError as error:
        raise fault(f"vocabulary {error}") from None
    k_max = head["order"]
    escaped = [json.dumps(w)[1:-1] for w in _word_ids(head["vocab"])]
    for escape, stand_in in _ESCAPES:
        escaped = [e.replace(escape, stand_in) for e in escaped]
    if n_quotes % 2:
        raise fault("an unterminated string", last_quote)
    at, char, rank, after = braces.T
    opens = char == ord("{")
    (lefts, ranks), (rights, ends) = ((at[o].tolist(), rank[o]) for o in (opens, ~opens))
    if len(lefts) != k_max or len(rights) != k_max:
        raise fault(f"{len(lefts)} tables for order {k_max}", start)
    gaps = [start] + [c + 2 for c in rights[:-1]]
    if lefts != gaps or rights[-1] != end - 1 or (after[~opens][:-1] != ord(",")).any():
        raise fault("tables are not one comma-separated {...} per order", start)
    tables, counts = _read_tables(itertools.chain([bytes(text)], pieces), start, end,
                                  zip(lefts, rights, ((ends - ranks) // 2).tolist()),
                                  dict(zip(escaped, range(len(escaped)))), fault)
    return head, tables, counts


def _inflate(data, size, fault):
    """The text of the zlib stream ``data``, in pieces of ``size`` bytes or
    fewer, except that a run of backslashes goes whole into one piece. A
    damaged or truncated stream and bytes after it raise ``fault``."""
    inflate, carry = zlib.decompressobj(), b""
    try:
        for i in range(0, len(data), size):
            piece = inflate.decompress(data[i : i + size], size)
            while piece:
                piece = carry + piece
                cut = len(piece.rstrip(b"\\"))
                carry = piece[cut:]
                if cut:
                    yield piece[:cut]
                piece = inflate.decompress(inflate.unconsumed_tail, size)
            if inflate.eof:
                break
    except zlib.error as error:
        raise fault(f"damaged zlib stream ({error})") from None
    if carry:
        yield carry
    if not inflate.eof:
        raise fault("truncated zlib stream")
    if inflate.unused_data or i + size < len(data):
        raise fault("bytes after the zlib stream")


def _stood_in(text: bytes) -> bytes:
    """``text``, which splits no run of backslashes, with the JSON escapes of
    a quote or a backslash replaced by their stand-ins."""
    if b"\\" not in text:
        return text
    for escape, stand_in in _ESCAPES:
        text = text.replace(escape.encode(), stand_in.encode())
    return text


def _outline(pieces):
    """One pass over the text of a ``.cflm`` file, given as pieces. Returns
    the offsets of its first non-ASCII byte and of its first raw control
    character (None if there is none); ``start``, where the last
    ``"tables":[`` ends; ``end``, where the last ``],"vocab":[`` after it
    begins (None if there is none); the text from ``end`` on; and, of the
    table text [start, end) with escapes stood in: one row per brace outside
    every string (its offset, the brace, how many quotes come before it in
    the table text, the byte after it or -1), the number of quotes and the
    offset of the last one.

    The last bytes of each piece, as many as a marker could still need, are
    scanned with the next piece. A later ``"tables":[`` starts the table text
    over, and the counts are kept as they stood at the last ``],"vocab":[``."""
    non_ascii = control = start = end = tail = None
    held, at = b"", 0  # the bytes held back, and where the next piece starts
    quotes, last, braces, n_braces = 0, None, [], 0  # of the table text scanned so far
    at_end = None  # (quotes, last quote, braces) before ``end``
    for piece in itertools.chain(pieces, [b""]):
        raw = np.frombuffer(piece, np.uint8)
        if non_ascii is None and not piece.isascii():
            non_ascii = at + int(np.argmax(raw > 0x7F))
        if control is None and len(raw) and raw.min() < 0x20:
            control = at + int(np.argmax(raw < 0x20))
        if tail is not None:
            tail += piece
        window, base = held + piece, at - len(held)
        at += len(piece)
        # the last piece is empty: scan what is held; else never split a run
        # of backslashes, which a stand-in may pair across the cut
        limit = len(window) if not piece else max(len(window) - len(_VOCAB) + 1, 0)
        while 0 < limit < len(window) and window[limit - 1] == ord("\\"):
            limit -= 1
        held = window[limit:]
        marked = b"[" in window  # both markers end with it; table text holds few
        t = window.rfind(_TABLES, 0, limit + len(_TABLES) - 1) if marked else -1
        if t >= 0:
            start, end, tail = base + t + len(_TABLES), None, None
            quotes, last, braces, n_braces = 0, None, [], 0
        if start is None:
            continue
        lo = max(start - base, 0)
        text = _stood_in(window[lo:limit])
        b = np.empty(0, np.int64)
        if b"{" in text or b"}" in text:
            chars = np.frombuffer(text, np.uint8)
            b = np.flatnonzero((chars == ord("{")) | (chars == ord("}")))
            rank = np.searchsorted(np.flatnonzero(chars == ord('"')), b) + quotes
            b, rank = b[rank % 2 == 0], rank[rank % 2 == 0]
        e = window.rfind(_VOCAB, 0, limit + len(_VOCAB) - 1) if marked else -1
        if e >= 0 and base + e >= start:
            end, tail = base + e, bytearray(window[e:])
            q = text.rfind(b'"', 0, e - lo)
            at_end = (quotes + text.count(b'"', 0, e - lo), last if q < 0 else base + lo + q,
                      n_braces + int(np.searchsorted(b, e - lo)))
        quotes += int(np.count_nonzero(np.frombuffer(text, np.uint8) == ord('"')))
        if (q := text.rfind(b'"')) >= 0:
            last = base + lo + q
        if len(b):
            after = lo + b + 1
            after = np.where(after < len(window), np.frombuffer(window, np.uint8)[
                np.minimum(after, len(window) - 1)], -1)
            braces.append(np.column_stack((b + base + lo, chars[b], rank, after)))
            n_braces += len(b)
    n_quotes, last, n_braces = at_end or (0, None, 0)
    braces = np.concatenate([np.empty((0, 4), np.int64), *braces])[:n_braces]
    return non_ascii, control, start, end, tail, braces, n_quotes, last


def _read_tables(pieces, start, end, spans, word_id, fault):
    """The id rows and counts of each order's table, from the text pieces
    that start at offset ``start``; ``spans``: per order, the offsets of its
    braces and how many grams it holds. Only the table text up to ``end``
    is read, one piece at a time, with escapes stood in, and it holds at
    most one CHUNK of grams and one piece (with their quote offsets). Each
    chunk is read by ``_chunk_grams``; each order's rows must rise strictly
    in id order."""
    text, at, quotes = bytearray(), start, np.empty(0, np.int64)  # text from ``at``

    def more():
        nonlocal quotes
        piece = _stood_in(next(pieces)[: end - at - len(text)])
        q = np.flatnonzero(np.frombuffer(piece, np.uint8) == ord('"')) + at + len(text)
        quotes = np.concatenate((quotes, q))
        text.extend(piece)

    tables, counts = [], []
    for k, (left, right, n) in enumerate(spans, start=1):
        while n and not len(quotes):
            more()
        if (quotes[0] if n else right) != left + 1:
            raise fault(f"the order-{k} table does not start with a gram", left + 1)
        table, count = np.empty((n, k), np.int32), np.empty(n, np.int64)
        for i in range(0, n, CHUNK):
            j = min(i + CHUNK, n)
            while len(quotes) < 2 * (j - i) + (j < n) or (j == n and at + len(text) < right):
                more()
            opening, closing = quotes[: 2 * (j - i)].reshape(-1, 2).T
            stop = int(quotes[2 * (j - i)]) if j < n else right
            piece = text[opening[0] - at : stop - at]
            grams = _chunk_grams(piece, opening - opening[0], closing - opening[0], k, j == n,
                                 word_id)
            if grams is None:
                off, message = _piece_fault(piece.decode(), k, j == n, word_id)
                raise fault(message, int(opening[0]) + off)
            table[i:j], count[i:j] = grams
            rows = table[max(i - 1, 0) : j]
            step = rows[1:] != rows[:-1]
            col = step.argmax(axis=1)[:, None]
            up = np.take_along_axis(rows[1:] > rows[:-1], col, 1)[:, 0] & step.any(axis=1)
            if not up.all():
                g = max(i - 1, 0) + 1 + int(np.argmin(up))
                raise fault(f"order-{k} grams are not in sorted order", int(opening[g - i]))
            quotes = quotes[2 * (j - i) :]
            del text[: stop - at]
            at = stop
        tables.append(table)
        counts.append(count)
    return tables, counts


def _chunk_grams(piece, opening, closing, k, last, word_id):
    """The id rows and counts of a chunk of an order-k table, or None if a
    gram in it is not as save writes it. ``piece`` runs from the chunk's
    first opening quote to the next gram's (to the table's '}' if the chunk
    is ``last``); ``opening`` and ``closing`` are its grams' quotes in it.
    The keys are split on quotes and spaces and mapped word by word through
    ``word_id``, a dict over the vocabulary's JSON-escaped forms."""
    raw = np.frombuffer(piece, np.uint8)
    # the piece holds k - 1 spaces per gram, the first and the last of each
    # gram's share inside its key: then every key holds its k - 1
    spaces = np.flatnonzero(raw == ord(" "))
    if len(spaces) != len(opening) * (k - 1):
        return None
    spaces = spaces.reshape(len(opening), k - 1)
    if k > 1 and not ((spaces[:, 0] > opening).all() and (spaces[:, -1] < closing).all()):
        return None
    counts = _tail_counts(raw, closing + 1, np.append(opening[1:], len(piece)), last)
    if counts is None:
        return None
    words = piece.replace(b'"', b" ").decode().split(" ")
    del words[k + 1 :: k + 1], words[0]  # the tails, and the empty head
    try:
        ids = np.fromiter(map(word_id.__getitem__, words), np.int32, len(words))
    except KeyError:
        return None
    return ids.reshape(-1, k), counts


def _tail_counts(raw, first, stop, last):
    """The count in each gram's tail ``raw[first[g]:stop[g]]``, or None
    unless every tail is what save writes after a key: ':', a count below
    10^18 as ``json.dumps`` writes it (no sign, no leading zero), ','. The
    ``last`` tail of a table has no ','."""
    ends = stop.copy()
    if last:
        ends[-1] += 1  # where its ',' would be
    digits, top = ends - first - 2, len(raw) - 1
    comma = raw[np.minimum(ends - 1, top)] == ord(",")
    if last:
        comma[-1] = True
    ok = (digits >= 1) & (digits <= 18) & (raw[np.minimum(first, top)] == ord(":")) & comma
    ok &= (digits == 1) | (raw[np.minimum(first + 1, top)] != ord("0"))
    value = np.zeros(len(first), np.int64)
    for c in range(1, 19):
        live = c <= digits
        if not live.any():
            break
        digit = raw[np.minimum(first + c, top)].astype(np.int64) - ord("0")
        ok &= ~live | ((digit >= 0) & (digit <= 9))
        value = np.where(live, value * 10 + digit, value)
    return value if ok.all() else None


def _canonical_head(head) -> bool:
    """Whether a parsed head holds the keys and value types ``save`` writes."""
    if not isinstance(head, dict) or sorted(head) != [
            "discounts", "fallback", "metadata", "order", "smoothing", "tables", "vocab"]:
        return False
    k_max, vocab = head["order"], head["vocab"]
    return (type(k_max) is int and k_max >= 1 and head["smoothing"] in ("kn", "none")
            and isinstance(head["metadata"], dict)
            and isinstance(vocab, list) and all(type(w) is str for w in vocab)
            and vocab == sorted(set(vocab))
            and isinstance(head["fallback"], list) and len(head["fallback"]) == k_max
            and all(type(f) is bool for f in head["fallback"])
            and isinstance(head["discounts"], list) and len(head["discounts"]) == k_max
            and all(isinstance(d, list) and len(d) == 3 and all(type(x) is float for x in d)
                    for d in head["discounts"]))


def _shown(key) -> str:
    """A key as the file spells it, quoted."""
    for escape, stand_in in _ESCAPES:
        key = key.replace(stand_in, escape)
    return repr(key)


def _piece_fault(piece, k, last, word_id) -> tuple[int, str]:
    """The offset in ``piece`` (one chunk of an order-k table's text) of its
    first fault, and what it is. ``last``: the piece ends the table, so its
    last count has no comma after it."""
    parts = piece.split('"')
    at = 0
    for g in range(len(parts) // 2):
        key, tail = parts[1 + 2 * g], parts[2 + 2 * g]
        words = key.split(" ")
        if "" in words and "" not in word_id:
            return at, f"gram {_shown(key)} holds a doubled, leading or trailing space"
        if len(words) != k:
            return at, f"gram {_shown(key)} is not {k} words long"
        for word in words:
            if word not in word_id:
                return at, f"gram {_shown(key)} holds the unknown word {_shown(word)}"
        raw = np.frombuffer(tail.encode() + b" ", np.uint8)  # never empty
        if _tail_counts(raw, np.zeros(1, int), np.full(1, len(tail)),
                        last and 2 * g + 3 == len(parts)) is None:
            return at + len(key) + 2, (f"gram {_shown(key)} is followed by {tail!r},"
                                       " not by ':' and a count as save writes it")
        at += len(key) + 2 + len(tail)
    raise AssertionError("every gram of the piece is well formed")


def train(corpus, order: int, smoothing: str = "kn", metadata=None) -> NGramModel:
    return NGramModel.train(corpus, order, smoothing=smoothing, metadata=metadata)


def evaluate(model: NGramModel, dev_sentences, exclude_oov: bool = True,
             oov_context: str = "break") -> EvalReport:
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
    total = oov = 0
    queries = []  # (history, word) of every scored token, in token order
    sentences = [list(s) for s in dev_sentences]
    if not any(sentences):
        raise ValueError("dev text is empty")
    for words in sentences:
        history: list[str] = [SENT_START]
        for w in words:
            total += 1
            if w in model.vocab:
                queries.append((history[-model.order :], w))
                history.append(w)
            else:
                oov += 1
                if not exclude_oov:
                    queries.append((history[-model.order :], UNK))
                if oov_context == "break":
                    history = [SENT_START]
                else:
                    history.append(UNK)
    if not queries:
        raise ValueError("no scorable tokens in dev text")
    logsum = 0.0
    for p in model.probs(queries):
        logsum += math.log(p) if p > 0.0 else float("-inf")
    return EvalReport(oov_rate=oov / total, perplexity=math.exp(-logsum / len(queries)),
                      total_tokens=total, oov_tokens=oov, scored_tokens=len(queries),
                      order=model.order, oov_context=oov_context)


def higher_order_not_worse(perplexities: dict[int, float]) -> bool:
    """Whether the highest order's perplexity is no worse than the lowest
    order's, up to 1e-9; ``perplexities`` maps order -> perplexity."""
    orders = sorted(perplexities)
    return perplexities[orders[-1]] <= perplexities[orders[0]] + 1e-9
