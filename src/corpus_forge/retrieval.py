"""Transcript retrieval: locate each pseudo-label inside its source book.

Books are split into overlapping word-window shards (1250 words, stride
1000), indexed by tf-idf over word bigrams, and queried with the pseudo
label. Indexing a book also interns it once into int32 word ids. The
pseudo label is encoded in the same vocabulary, where words the book lacks
get an id no book word has, and aligned to a view of the winning window's
ids with a local Smith-Waterman (match 2, substitution/insertion/deletion
-1). Digit words of the matched book text are replaced from the aligned
pseudo words. Candidates are accepted when their word error rate against
the pseudo label does not exceed the threshold (default 40%); the rate
comes from a bit-parallel Levenshtein distance (Myers 1999; Hyyrö 2003).

A book's segments are retrieved as one batch, with inter-sequence
vectorization as in SWIPE (Rognes 2011):
- tf-idf: every label's (bigram, weight) entries meet their postings in
  one pass, and the products are added into a (labels, shards) array one
  bigram position at a time, so every dot product adds its terms in the
  label's first-occurrence bigram order, as a per-bigram loop would; a
  matrix product would add them in another order and can flip near ties.
- Column bounds: labels that share a window take one gather of their
  (labels, vocabulary) table of column gains, then ``cumsum`` and
  ``minimum.accumulate`` along the window. Only the runs of columns whose
  bound is positive are aligned, usually a few percent of the window.
- DP fill: runs are sorted by (length, label length) and packed into
  end-padded (B, n, m) int32 tables of at most CHUNK cells, and row i of
  all B tables is filled by one numpy call per step. The traceback and the
  tie-break stay per segment.
``smith_waterman``, ``retrieve`` and ``retrieve_transcript`` are batches of
one through the same kernels.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

from .manifest import CandidateTranscript

DEFAULT_SHARD_SIZE = 1250
DEFAULT_SHARD_STRIDE = 1000
DEFAULT_WER_THRESHOLD = 0.40
DEFAULT_RARE_THRESHOLD = 3

HYPHEN_SPLIT_CHARS = "-‐"
ABSENT_ID = -1  # id of a query word the book does not contain; matches nothing
CHUNK = 1 << 18  # cells per batch (labels x shards, labels x columns, or DP table cells)


@dataclass(frozen=True)
class DocumentShard:
    shard_id: int
    book_id: str
    word_offset: int
    words: tuple[str, ...]


@dataclass(frozen=True)
class AlignmentOp:
    """One alignment step; indices are into the query / reference word lists
    (None for the unmatched side of a gap)."""

    kind: str  # match | substitute | insert | delete
    query_index: int | None
    ref_index: int | None


@dataclass(frozen=True)
class AlignmentResult:
    score: int
    ref_span: tuple[int, int]  # half-open word range in the reference
    query_span: tuple[int, int]
    ops: tuple[AlignmentOp, ...]


@dataclass
class RetrievalHit:
    shard: DocumentShard
    score: float


@dataclass
class RetrievalResult:
    hits: list[RetrievalHit]
    status: str  # "ok" | "no_match"


def shard_book(
    words,
    book_id: str = "",
    shard_size: int = DEFAULT_SHARD_SIZE,
    shard_stride: int = DEFAULT_SHARD_STRIDE,
) -> list[DocumentShard]:
    """Overlapping windows at offsets 0, stride, 2*stride, ...; the final
    shard may be shorter. Empty books yield no shards."""
    if shard_stride > shard_size:
        raise ValueError("shard_stride must be <= shard_size")
    if shard_stride <= 0:
        raise ValueError("shard_stride must be positive")
    words = list(words)
    shards = []
    offset = 0
    while offset < len(words):
        shards.append(
            DocumentShard(
                shard_id=len(shards),
                book_id=book_id,
                word_offset=offset,
                words=tuple(words[offset : offset + shard_size]),
            )
        )
        offset += shard_stride
    return shards


class TfIdfIndex:
    """Bigram tf-idf index over one book's shards.

    tf is the raw bigram count per shard, idf = ln(N/df). Vectors keep no
    zero entries, so a bigram occurring in every shard carries no weight;
    queries whose weighted vector vanishes entirely (single-shard books, or
    a query made only of everywhere-bigrams) fall back to raw-tf dot-product
    scoring so retrieval still functions.

    The shards' words are interned once into int32 ids (``vocab``), and the
    book as its shards cover it is ``book_ids``. A bigram is the int64 key
    ``left * len(vocab) + right``; ``grams`` lists the book's keys sorted,
    and the postings of gram g are the entries ``ptr[g]:ptr[g+1]`` of
    ``post_shard`` (ascending), ``post_tf`` and ``post_weight``.
    """

    def __init__(self, shards: list[DocumentShard]):
        if not shards:
            raise ValueError("cannot index zero shards")
        self.shards = list(shards)
        self.n_shards = n = len(shards)
        vocab: dict[str, int] = {}
        self.vocab = vocab
        lens = np.array([len(s.words) for s in self.shards])
        flat = np.array([vocab.setdefault(w, len(vocab)) for s in self.shards for w in s.words],
                        dtype=np.int64)
        ends = np.cumsum(lens)
        self.book_ids = np.full(int(max(s.word_offset + len(s.words) for s in shards)),
                                ABSENT_ID, dtype=np.int32)
        for shard, end in zip(self.shards, ends.tolist()):
            self.book_ids[shard.word_offset : shard.word_offset + len(shard.words)] = (
                flat[end - len(shard.words) : end])

        # every in-shard bigram occurrence, in shard order then position order
        pair_shard = np.repeat(np.arange(n), np.maximum(lens - 1, 0))
        inside = np.ones(max(len(flat) - 1, 0), dtype=bool)
        inside[ends[:-1][(ends[:-1] > 0) & (ends[:-1] < len(flat))] - 1] = False
        keys = (flat[:-1] * len(vocab) + flat[1:])[inside]
        self.grams, gram = np.unique(keys, return_inverse=True)
        n_grams = len(self.grams)
        entry, first, tf = np.unique(pair_shard * n_grams + gram.ravel(),
                                     return_index=True, return_counts=True)
        e_shard, e_gram = np.divmod(entry, n_grams)
        self.gram_df = np.bincount(e_gram, minlength=n_grams)
        d_vals, d_of = np.unique(self.gram_df, return_inverse=True)
        self.gram_idf = np.array([math.log(n / d) for d in d_vals.tolist()])[d_of.ravel()]
        weight = tf * self.gram_idf[e_gram]

        by_gram = np.lexsort((e_shard, e_gram))
        self.ptr = np.concatenate(([0], np.cumsum(self.gram_df)))
        self.post_shard = e_shard[by_gram]
        self.post_tf = tf[by_gram].astype(np.float64)
        self.post_weight = weight[by_gram]

        # shard norms: squares summed left to right in the shard's
        # first-occurrence order of its bigrams
        in_order = np.argsort(first, kind="stable")
        shard_of, sq = e_shard[in_order], (weight * weight)[in_order]
        per_shard = np.bincount(shard_of, minlength=n)
        squares = np.zeros((n, max(1, int(per_shard.max(initial=0)))))
        squares[shard_of, np.arange(len(sq)) - (np.cumsum(per_shard) - per_shard)[shard_of]] = sq
        self.norms = np.sqrt(np.cumsum(squares, axis=1)[:, -1])

    def _gram_words(self) -> list[tuple[str, str]]:
        words = list(self.vocab)
        left, right = np.divmod(self.grams, len(words))
        return [(words[a], words[b]) for a, b in zip(left.tolist(), right.tolist())]

    @property
    def df(self) -> dict[tuple[str, str], int]:
        """Shard count of every indexed bigram, keyed by its two words."""
        return dict(zip(self._gram_words(), self.gram_df.tolist()))

    @property
    def idf(self) -> dict[tuple[str, str], float]:
        return dict(zip(self._gram_words(), self.gram_idf.tolist()))

    @property
    def postings(self) -> dict[tuple[str, str], list[tuple[int, float]]]:
        """(shard, weight) of every nonzero weight, by bigram words."""
        ptr, shard, weight = self.ptr.tolist(), self.post_shard.tolist(), self.post_weight.tolist()
        return {
            gram: list(zip(shard[a:b], weight[a:b]))
            for gram, a, b, idf in zip(self._gram_words(), ptr, ptr[1:], self.gram_idf.tolist())
            if idf != 0.0
        }

    def encode(self, words) -> np.ndarray:
        """Word ids of ``words`` in this book's vocabulary (ABSENT_ID for
        words the book does not contain)."""
        return np.array([self.vocab.get(w, ABSENT_ID) for w in words], dtype=np.int32)


def build_index(shards: list[DocumentShard]) -> TfIdfIndex:
    return TfIdfIndex(shards)


def retrieve(index: TfIdfIndex, pseudo_label, top_k: int = 1) -> RetrievalResult:
    """Rank shards by cosine similarity to the pseudo label's bigrams.

    A query sharing no indexed bigram (including queries shorter than two
    words) returns status "no_match", distinct from a zero score.
    """
    ranked = _rank(index, [index.encode(pseudo_label)], max(top_k, 1))[0]
    if not ranked:
        return RetrievalResult(hits=[], status="no_match")
    hits = [RetrievalHit(shard=index.shards[i], score=score) for i, score in ranked[:top_k]]
    return RetrievalResult(hits=hits, status="ok")


def _rank(index: TfIdfIndex, queries: list[np.ndarray], top_k: int) -> list[list[tuple[int, float]]]:
    """(shard index, score) of the ``top_k`` best shards of every encoded
    query, best first, ties to the lower shard; [] for a query that shares
    no indexed bigram.

    A query's vector lists its known bigrams in first-occurrence order with
    weight count * idf, dropping zero weights; when none is left it is the
    raw count of every known bigram, scored by plain dot product against
    raw shard counts. Each dot product is summed one query position at a
    time across the batch, so every cosine adds its terms in the query's
    order, as a per-bigram loop would; the query norm is a cumulative sum
    in the same order. Queries are scored CHUNK // n_shards at a time.
    """
    rows = max(1, CHUNK // index.n_shards)
    out: list[list[tuple[int, float]]] = []
    for c in range(0, len(queries), rows):
        out += _rank_batch(index, queries[c : c + rows], top_k)
    return out


def _rank_batch(index, queries, top_k):
    """``_rank`` of one batch of queries."""
    n_q, n_grams = len(queries), len(index.grams)
    lens = np.array([len(q) for q in queries])
    flat = np.concatenate(queries).astype(np.int64)
    owner = np.repeat(np.arange(n_q), lens)
    pair = np.flatnonzero((owner[:-1] == owner[1:]) & (flat[:-1] >= 0) & (flat[1:] >= 0))
    keys = flat[pair] * len(index.vocab) + flat[pair + 1]
    gram = np.minimum(np.searchsorted(index.grams, keys), max(n_grams - 1, 0))
    known = index.grams[gram] == keys if n_grams else np.zeros(len(keys), bool)
    # (query, gram) entries with their counts, in first-occurrence order
    entry, first, count = np.unique(owner[pair][known] * n_grams + gram[known],
                                    return_index=True, return_counts=True)
    in_order = np.argsort(first)
    e_q, e_gram = np.divmod(entry[in_order], n_grams)
    count = count[in_order]
    weight = count * index.gram_idf[e_gram]
    weighted = np.zeros(n_q, dtype=bool)
    weighted[e_q[weight != 0.0]] = True
    raw = ~weighted[e_q]  # entries of a query that falls back to raw tf
    keep = raw | (weight != 0.0)
    e_q, e_gram, raw = e_q[keep], e_gram[keep], raw[keep]
    weight = np.where(raw, count[keep], weight[keep])
    pos = np.arange(len(e_q)) - np.searchsorted(e_q, e_q)
    width = int(pos.max(initial=-1)) + 1

    sq = np.zeros((n_q, max(width, 1)))
    sq[e_q, pos] = weight * weight
    qnorm = np.sqrt(np.cumsum(sq, axis=1)[:, -1])
    dot = np.zeros((n_q, index.n_shards))
    by_pos = np.argsort(pos, kind="stable")
    cuts = np.searchsorted(pos[by_pos], np.arange(width + 1)).tolist()
    for a, b in zip(cuts, cuts[1:]):  # each query's entry at one position meets its postings
        k = by_pos[a:b]
        n_post = index.ptr[e_gram[k] + 1] - index.ptr[e_gram[k]]
        of = np.repeat(k, n_post)
        at = np.repeat(index.ptr[e_gram[k]] - np.cumsum(n_post) + n_post, n_post) + np.arange(len(of))
        shard_w = np.where(raw[of], index.post_tf[at], index.post_weight[at])
        dot[e_q[of], index.post_shard[at]] += weight[of] * shard_w  # one cell at most once

    fallback = ~weighted[:, None]
    denom = np.where(fallback, 1.0, qnorm[:, None] * index.norms)
    scores = np.divide(dot, denom, out=np.full_like(dot, -np.inf), where=dot > 0.0)
    best = np.argsort(-scores, axis=1, kind="stable")[:, :top_k]
    top = np.take_along_axis(scores, best, axis=1)
    return [
        [(i, s) for i, s in zip(b_row, s_row) if s != -np.inf]
        for b_row, s_row in zip(best.tolist(), top.tolist())
    ]


def smith_waterman(
    query,
    reference,
    match: int = 2,
    mismatch: int = -1,
    gap: int = -1,
) -> AlignmentResult:
    """Word-level local alignment by the standard zero-clamped DP.

    ``query`` and ``reference`` are two integer id arrays (retrieval passes
    the pseudo label encoded in the book's vocabulary and a view of the
    book's ids) or two sequences of hashable tokens, interned here. Both
    are renumbered into one dense vocabulary and aligned as a batch of one
    by the batched kernels (``_column_runs`` and ``_align``).
    """
    if not len(query) or not len(reference):
        raise ValueError("query and reference must be non-empty")
    if gap >= 0 or mismatch >= match:
        raise ValueError("scores must satisfy gap < 0 and mismatch < match")
    if (match - mismatch - gap) * (len(query) + len(reference) + 2) >= 2**31:
        raise ValueError("scores too large for an int32 alignment table")
    if isinstance(query, np.ndarray) and isinstance(reference, np.ndarray):
        n_ids, both = np.unique(np.concatenate((query, reference)), return_inverse=True)
        n_ids, both = len(n_ids), both.ravel()
    else:
        ids: dict = {}  # one vocabulary for both sides
        both = np.array([ids.setdefault(w, len(ids)) for seq in (query, reference) for w in seq])
        n_ids = len(ids)
    windows = [(len(query), len(both))]
    return next(_align([both[: len(query)]], both, windows, n_ids, match, mismatch, gap))


def _column_runs(queries, ref, n_ids, match, other):
    """(query, start, end, bound) arrays of every run of columns of the
    reference ``ref`` that can score against each query; ids are below
    ``n_ids`` (query words may also be ABSENT_ID).

    Every reference column consumed by an alignment adds at most ``match``
    when its word occurs in the query and at most ``other`` = max(mismatch,
    gap) otherwise, and query-only steps add gap < 0, so no cell of column
    j scores more than the best suffix sum of those column values ending
    at j, nor more than ``match * len(query)``. Columns bounded by 0 hold
    H = 0 in every row and cut the reference into independent runs; a
    run's bound is its largest column bound. The queries share one gather
    of a (B, n_ids) table of column gains; rows are taken CHUNK cells at a
    time.
    """
    width = len(ref)
    per = max(1, CHUNK // max(n_ids, width))
    parts = []
    for c in range(0, len(queries), per):
        qs = queries[c : c + per]
        q_len = np.array([len(q) for q in qs])
        q_flat, owner = np.concatenate(qs), np.repeat(np.arange(len(qs)), q_len)
        gain = np.full((len(qs), n_ids), np.int32(other))
        gain[owner[q_flat >= 0], q_flat[q_flat >= 0]] = match
        bound = np.cumsum(np.take(gain, ref, axis=1), axis=1, dtype=np.int32)
        low = np.minimum.accumulate(bound, axis=1)
        bound -= np.minimum(low, 0, out=low)  # best suffix sum ending at the column
        is_open = np.zeros((len(qs), width + 2), dtype=bool)
        np.greater(bound, 0, out=is_open[:, 1:-1])
        edges = np.flatnonzero(is_open[:, 1:] != is_open[:, :-1]).astype(np.int32)
        row, col = np.divmod(edges, np.int32(width + 1))
        row, starts, ends = row[0::2], col[0::2], col[1::2]
        run_bound = np.maximum.reduceat(bound.ravel(), row * width + starts) if row.size else row
        parts.append((row + c, starts, ends, np.minimum(run_bound, match * q_len[row], dtype=np.int32)))
    return tuple(np.concatenate(a) for a in zip(*parts))


def _align(queries, ids, windows, n_ids, match, mismatch, gap) -> Iterator[AlignmentResult]:
    """Best local alignment of each query against its (start, end) window
    of ``ids``, in order; ids are below ``n_ids`` (query words may also be
    ABSENT_ID).

    The column runs of queries that share a window come from one
    ``_column_runs`` call. The first round aligns each query's run of
    highest bound, the earliest among equal bounds; the second aligns every
    other run whose bound still reaches the query's first score, so every
    run that can hold the best score is aligned. Among equal-score
    alignments, from any run, the smallest reference start wins, then the
    shortest reference span, the smallest query start and the earliest end
    cell. A query with no run scores 0. Nothing is computed until the first
    result is asked for.
    """
    scores, found = _aligned_runs(queries, ids, windows, n_ids, match, mismatch, gap)
    for best, runs_of in zip(scores, found):
        if not best:
            yield AlignmentResult(score=0, ref_span=(0, 0), query_span=(0, 0), ops=())
            continue
        rs, _span_len, qs, re_, qe, path = min(
            (c for score, cands in runs_of if score == best for c in cands), key=lambda c: c[:5]
        )
        yield AlignmentResult(score=best, ref_span=(rs, re_), query_span=(qs, qe),
                              ops=_ops(path, qs, rs))


def _aligned_runs(queries, ids, windows, n_ids, match, mismatch, gap) -> tuple[list, list]:
    """(best score, [(score, candidates) of each aligned run]) per query;
    see ``_align``. The run arrays are dropped on return."""
    by_window: dict[tuple[int, int], list[int]] = {}
    for k, window in enumerate(windows):
        by_window.setdefault(window, []).append(k)
    runs = []
    for (start, end), ks in by_window.items():
        pair, *rest = _column_runs([queries[k] for k in ks], ids[start:end], n_ids, match,
                                   max(mismatch, gap))
        runs.append((np.array(ks, dtype=np.int32)[pair], *rest))
    # each query's runs are contiguous and in column order
    pair, lo, hi, bound = (np.concatenate(a) for a in zip(*runs))
    del runs
    refs = [ids[start:end] for start, end in windows]
    first = np.flatnonzero(np.r_[True, pair[1:] != pair[:-1]]) if pair.size else pair
    top = np.repeat(np.maximum.reduceat(bound, first), np.diff(np.r_[first, len(pair)]))
    head = np.minimum.reduceat(np.where(bound == top, np.arange(len(pair)), len(pair)), first)
    scores = np.zeros(len(queries), dtype=np.int64)
    found: list[list] = [[] for _ in queries]  # (score, candidates) of each aligned run

    def align(chosen):
        ks, starts = pair[chosen].tolist(), lo[chosen].tolist()
        tables = _fill([queries[k] for k in ks],
                       [refs[k][a:b] for k, a, b in zip(ks, starts, hi[chosen].tolist())],
                       starts, match, mismatch, gap)
        for k, (score, cands) in zip(ks, tables):
            found[k].append((score, cands))
            scores[k] = max(scores[k], score)

    align(head)
    rest = np.ones(len(pair), dtype=bool)
    rest[head] = False
    align(np.flatnonzero(rest & (bound >= scores[pair])))
    return scores.tolist(), found


def _ops(path: str, i: int, j: int) -> tuple[AlignmentOp, ...]:
    """The ops of a traceback path, one letter per op ("m"atch,
    "s"ubstitute, "i"nsert, "d"elete), that starts at query index i and
    reference index j. Paths stay letters until their alignment wins, so a
    book's candidates cost a few bytes per op."""
    ops = []
    for step in path:
        if step == "i":
            ops.append(AlignmentOp("insert", i, None))
            i += 1
        elif step == "d":
            ops.append(AlignmentOp("delete", None, j))
            j += 1
        else:
            ops.append(AlignmentOp("match" if step == "m" else "substitute", i, j))
            i += 1
            j += 1
    return tuple(ops)


def _fill(queries, refs, offsets, match, mismatch, gap) -> list[tuple[int, list]]:
    """(best score, best-cell tracebacks) of the zero-clamped DP of each
    (query, run) pair, whose left neighbour column holds H = 0; a run's
    reference indices start at its offset.

    Pairs are sorted by (run length, query length) and packed, CHUNK table
    cells at a time, into end-padded (B, n, m) batches; see ``_fill_batch``.
    """
    n = [len(q) for q in queries]
    m = [len(r) for r in refs]
    order = sorted(range(len(n)), key=lambda k: (m[k], n[k]))
    out: list = [None] * len(n)
    a = 0
    while a < len(order):
        b, rows = a + 1, n[order[a]]
        while b < len(order) and (b + 1 - a) * (max(rows, n[order[b]]) + 1) * (m[order[b]] + 1) <= CHUNK:
            rows = max(rows, n[order[b]])
            b += 1
        batch = order[a:b]
        tables = _fill_batch([queries[k] for k in batch], [refs[k] for k in batch],
                             [offsets[k] for k in batch], rows, m[order[b - 1]], match, mismatch, gap)
        for k, table in zip(batch, tables):
            out[k] = table
        a = b
    return out


def _fill_batch(queries, refs, offsets, rows, cols, match, mismatch, gap) -> list[tuple[int, list]]:
    """Fill B tables at once: row i of every table is one numpy call per
    step, in coordinates G = H - gap*j where the linear gap chain is a
    prefix maximum. Queries are end-padded to ``rows`` with an id matching
    nothing, and references to ``cols`` with another: a padded cell only
    extends real cells by negative steps, so no padded cell reaches its
    table's best score. Every best cell is traced back over plain ints,
    preferring the diagonal, then the insertion, then the deletion, into a
    (ref start, ref span length, query start, ref end, query end, path)
    candidate; see ``_ops`` for the path."""
    n_b = len(queries)
    q_len = np.array([len(q) for q in queries])
    r_len = np.array([len(r) for r in refs])
    q_ids = np.full((n_b, rows), -2, dtype=np.int32)
    q_ids[np.arange(rows) < q_len[:, None]] = np.concatenate(queries)
    r_ids = np.full((n_b, cols), -3, dtype=np.int32)
    r_ids[np.arange(cols) < r_len[:, None]] = np.concatenate(refs)
    # step[i, b, j]: the diagonal gain s - gap into cell (i+1, j+1) of table b
    step = np.multiply(q_ids.T[:, :, None] == r_ids, np.int32(match - mismatch), dtype=np.int32)
    step += np.int32(mismatch - gap)
    floor = np.arange(cols + 1, dtype=np.int32) * np.int32(-gap)  # G of H == 0
    G = np.empty((rows + 1, n_b, cols + 1), dtype=np.int32)
    G[0] = floor
    G[1:, :, 0] = 0
    up, gap32, floor_1 = np.empty((n_b, cols), dtype=np.int32), np.int32(gap), floor[1:]
    for i in range(rows):
        cand = G[i, :, :-1] + step[i]
        np.add(G[i, :, 1:], gap32, out=up)
        np.maximum(cand, up, out=cand)
        np.maximum(cand, floor_1, out=cand)
        np.maximum.accumulate(cand, axis=1, out=G[i + 1, :, 1:])
    G -= floor  # now H
    best = G.max(axis=(0, 2))
    cands: list[list] = [[] for _ in range(n_b)]
    h, diag_gain, matched = G.item, step.item, match - gap
    for end_i, b, end_j in np.argwhere(G == best[:, None]).tolist():
        i, j, path, lo = end_i, end_j, [], offsets[b]
        here = h(i, b, j)
        while here > 0:
            cell_gain = diag_gain(i - 1, b, j - 1)
            if here == (diag := h(i - 1, b, j - 1)) + cell_gain + gap:
                i, j, here = i - 1, j - 1, diag
                path.append("m" if cell_gain == matched else "s")
            elif here == (above := h(i - 1, b, j)) + gap:
                i, here = i - 1, above
                path.append("i")
            else:
                j -= 1
                here = h(i, b, j)
                path.append("d")
        cands[b].append((lo + j, end_j - j, i, lo + end_j, end_i, "".join(reversed(path))))
    return list(zip(best.tolist(), cands))


@lru_cache(maxsize=1 << 16)
def _has_digit(word: str) -> bool:
    return any(c.isdigit() for c in word)


def replace_numbers(aligned: AlignmentResult, reference_words, pseudo_words) -> list[str]:
    """Resolve digit words of the aligned book span from the pseudo label.

    The ops fall into maximal runs of insertions and ops on digit-bearing
    book words. A run holding a digit word becomes the pseudo words aligned
    in it, so multi-word readings ("four o one" for "401") are
    reconstructed and digit words aligned only to deletions disappear
    (unread page numbers). A run of insertions alone adds nothing, and every
    other op keeps its book word.
    """

    def in_run(op: AlignmentOp) -> bool:
        return op.kind == "insert" or _has_digit(reference_words[op.ref_index])

    out: list[str] = []
    for numeric, run in groupby(aligned.ops, key=in_run):
        if not numeric:
            out += (reference_words[op.ref_index] for op in run)
            continue
        run = list(run)
        if any(op.kind != "insert" for op in run):
            out += (pseudo_words[op.query_index] for op in run if op.query_index is not None)
    return out


def fix_rare_wordforms(
    words,
    book_freq: dict[str, int],
    rare_threshold: int = DEFAULT_RARE_THRESHOLD,
) -> list[str]:
    """Hyphen/apostrophe cleanup driven by distinct-book counts.

    Rare hyphenated words are split at their hyphens; rare apostrophe words
    lose the apostrophe unless the stripped form is itself rare, in which
    case the original stands. Frequent forms always pass unchanged.
    """
    out: list[str] = []
    for word in words:
        freq = book_freq.get(word, 0)
        if any(h in word for h in HYPHEN_SPLIT_CHARS):
            if freq < rare_threshold:
                piece = word
                for h in HYPHEN_SPLIT_CHARS:
                    piece = piece.replace(h, " ")
                out.extend(p for p in piece.split() if p)
            else:
                out.append(word)
        elif "'" in word or "’" in word:
            if freq < rare_threshold:
                stripped = word.replace("'", "").replace("’", "")
                if stripped and book_freq.get(stripped, 0) >= rare_threshold:
                    out.append(stripped)
                else:
                    out.append(word)
            else:
                out.append(word)
        else:
            out.append(word)
    return out


def build_book_frequencies(books: dict[str, list[str]]) -> dict[str, int]:
    """word -> number of distinct books it appears in."""
    freq: dict[str, int] = {}
    for words in books.values():
        for w in set(words):
            freq[w] = freq.get(w, 0) + 1
    return freq


def edit_distance(a, b) -> int:
    """Levenshtein distance over any hashable tokens, unit costs.

    Myers's (1999) bit-vector recurrence in Hyyrö's (2003) edit-distance
    form: the longer sequence is the pattern, bit i of the Python ints
    VP/VN says whether the DP column steps up or down at row i, and each
    token of the shorter sequence advances the whole column in a few
    integer operations while the bottom cell keeps the running distance.
    The common prefix and suffix, which leave the distance unchanged, are
    stripped first.
    """
    a = list(a)
    b = list(b)
    if len(a) < len(b):
        a, b = b, a
    lo = 0
    while lo < len(b) and a[lo] == b[lo]:
        lo += 1
    del a[:lo], b[:lo]
    while b and a[-1] == b[-1]:
        del a[-1], b[-1]
    m = len(a)
    if not b:
        return m
    peq: dict = {}  # token -> bitmask of its positions in a
    for i, tok in enumerate(a):
        peq[tok] = peq.get(tok, 0) | (1 << i)
    full = (1 << m) - 1
    top = 1 << (m - 1)
    vp, vn, dist = full, 0, m
    for tok in b:
        eq = peq.get(tok, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & top:
            dist += 1
        elif hn & top:
            dist -= 1
        hp = ((hp << 1) | 1) & full
        hn <<= 1
        vp = (hn | ~(d0 | hp)) & full
        vn = d0 & hp
    return dist


def wer(hyp, ref) -> float:
    """Word error rate: edit distance divided by reference length."""
    ref = list(ref)
    if not ref:
        raise ValueError("wer reference must be non-empty")
    return edit_distance(hyp, ref) / len(ref)


def accept_candidate(
    candidate_words,
    pseudo_words,
    threshold: float = DEFAULT_WER_THRESHOLD,
    segment_id: str = "",
    source: tuple[str, tuple[int, int]] | None = None,
) -> CandidateTranscript:
    """Accept iff WER(candidate, pseudo) <= threshold (strictly greater is
    filtered out); the WER is recorded either way."""
    candidate_words = list(candidate_words)
    pseudo_words = list(pseudo_words)
    if not candidate_words or not pseudo_words:
        raise ValueError("candidate and pseudo label must be non-empty")
    rate = wer(candidate_words, pseudo_words)
    return CandidateTranscript(
        segment_id=segment_id,
        words=tuple(candidate_words),
        source=source if source is not None else ("", (0, 0)),
        pseudo_wer=rate,
        accepted=rate <= threshold,
    )


def retrieve_transcript(
    book_words,
    shards: list[DocumentShard],
    index: TfIdfIndex,
    pseudo_words,
) -> tuple[list[str], tuple[int, int], AlignmentResult] | None:
    """Retrieve one segment's transcript from its indexed book: (words, book
    word span, alignment), or None when nothing matches. A batch of one
    through ``_transcripts``, which describes the steps."""
    return next(_transcripts(book_words, shards, index, [list(pseudo_words)]))


def _transcripts(book_words, shards, index, labels, match=2, mismatch=-1, gap=-1) -> Iterator:
    """(words, book word span, alignment) or None for every pseudo label of
    one book, in order.

    The labels are ranked together (``_rank``), and each is aligned against
    its top shard plus the shard's overlap neighbours (a true span can
    straddle a stride boundary); their column bounds (``_column_runs``) and
    alignments (``_align``) are batched too. Digit words are resolved from
    the pseudo label, and the span is widened across unaligned query edges:
    corrupted edge words correspond to real audio, and the book text across
    from them is the best transcript available, the same assumption the
    number replacement makes. The alignment runs on the index's interned
    ids, so ``book_words`` must be the indexed book. Nothing matches when
    no shard shares a bigram or the score is 0.
    """
    found, queries = [], []  # found: per label, None or (window start, window end, words)
    codes = [index.encode(words) for words in labels]
    for words, code, hits in zip(labels, codes, _rank(index, codes, 1)):
        if not hits:
            found.append(None)
            continue
        top = index.shards[hits[0][0]]
        lo = shards[max(0, top.shard_id - 1)]
        hi = shards[min(len(shards) - 1, top.shard_id + 1)]
        win_start, win_end = lo.word_offset, hi.word_offset + len(hi.words)
        found.append((win_start, win_end, words))
        queries.append(code)
    windows = [hit[:2] for hit in found if hit]
    aligned = _align(queries, index.book_ids, windows, len(index.vocab), match, mismatch, gap)
    for hit in found:
        if hit is None or (al := next(aligned)).score <= 0:
            yield None
            continue
        win_start, win_end, pseudo_words = hit
        window = book_words[win_start:win_end]
        core = replace_numbers(al, window, pseudo_words)
        ext_lo = max(0, al.ref_span[0] - al.query_span[0])
        ext_hi = min(len(window), al.ref_span[1] + len(pseudo_words) - al.query_span[1])
        span_words = [*window[ext_lo : al.ref_span[0]], *core, *window[al.ref_span[1] : ext_hi]]
        yield span_words, (win_start + ext_lo, win_start + ext_hi), al


def retrieve_candidates(
    books: dict[str, list[str]],
    segments,
    shard_size: int = DEFAULT_SHARD_SIZE,
    shard_stride: int = DEFAULT_SHARD_STRIDE,
    threshold: float = DEFAULT_WER_THRESHOLD,
) -> tuple[list[CandidateTranscript], int]:
    """Retrieve and score a candidate for every segment manifest row, in
    sorted book order (each book indexed once), then input order. Returns
    (candidates, misses); a miss is a segment whose book or pseudo label
    is empty or missing, or for which nothing non-empty was retrieved.
    """
    by_book: dict[str, list] = {}
    for row in segments:
        by_book.setdefault(row.book_id, []).append(row)
    candidates = []
    misses = 0
    for book_id in sorted(by_book):
        words = books.get(book_id)
        if not words:
            misses += len(by_book[book_id])
            continue
        shards = shard_book(words, book_id, shard_size=shard_size, shard_stride=shard_stride)
        pseudos = [row.transcript.split() for row in by_book[book_id]]
        found_all = _transcripts(words, shards, build_index(shards), pseudos)
        for found, row, pseudo in zip(found_all, by_book[book_id], pseudos):
            if found is None or not found[0]:
                misses += 1
                continue
            cand_words, span, _aligned = found
            candidates.append(
                accept_candidate(cand_words, pseudo, threshold, row.segment_id, (book_id, span))
            )
    return candidates, misses
