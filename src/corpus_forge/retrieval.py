"""Transcript retrieval: locate each pseudo-label inside its source book.

A book is interned once into int32 word ids, and its shards are
overlapping (start, end) word ranges over that one copy (1250 words, stride
1000), indexed by tf-idf over word bigrams and queried with the pseudo
label. The pseudo label is encoded in the same vocabulary, where words the
book lacks get an id no book word has, and aligned to a view of the winning
window's ids with a local Smith-Waterman at fixed scores: MATCH 2, and
MISMATCH and GAP -1 for a substitution, insertion or deletion. Digit words of the
matched book text are replaced from the aligned pseudo words. Candidates
are accepted when their word error rate against the pseudo label does not
exceed the threshold (default 40%); the rate comes from a bit-parallel
Levenshtein distance (Myers 1999; Hyyrö 2003).

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
  all B tables is filled by one numpy call per step. The best cells come
  from row maxima: only the rows that hold a table's best are compared
  cell by cell.
- Workspace: the tables, their diagonal gains and the column-bound arrays
  lie on CHUNK-cell buffers (``_work_array``) that every batch and book
  reuses until the ``workspace`` block around them ends.

The traceback and the tie-break stay per segment: a batch holds a few
dozen walks, too few for a walk in lockstep across them to cost less.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .manifest import CandidateTranscript

DEFAULT_SHARD_SIZE = 1250
DEFAULT_SHARD_STRIDE = 1000
DEFAULT_WER_THRESHOLD = 0.40
DEFAULT_RARE_THRESHOLD = 3

HYPHENS_TO_SPACES = str.maketrans("-‐", "  ")  # HYPHEN-MINUS and U+2010 HYPHEN
ABSENT_ID = -1  # id of a query word the book does not contain; matches nothing
CHUNK = 1 << 18  # cells per batch (labels x shards, labels x columns, or DP table cells)
MATCH, MISMATCH, GAP = 2, -1, -1  # Smith-Waterman scores
_WORKSPACE: dict[int, np.ndarray] = {}  # slot -> byte buffer of CHUNK int32 cells; see _work_array


@dataclass(frozen=True)
class AlignmentResult:
    score: int
    ref_span: tuple[int, int]  # half-open word range in the reference
    query_span: tuple[int, int]
    path: str  # per step from the spans' starts: m(atch), s(ubstitute), i(nsert), d(elete)


def shard_spans(
    n_words: int,
    shard_size: int = DEFAULT_SHARD_SIZE,
    shard_stride: int = DEFAULT_SHARD_STRIDE,
) -> list[tuple[int, int]]:
    """Half-open word ranges of the overlapping windows at offsets 0,
    stride, 2*stride, ...; the final one may be shorter. An empty book has
    none."""
    if shard_stride > shard_size:
        raise ValueError("shard_stride must be <= shard_size")
    if shard_stride <= 0:
        raise ValueError("shard_stride must be positive")
    return [(start, min(start + shard_size, n_words)) for start in range(0, n_words, shard_stride)]


class TfIdfIndex:
    """Bigram tf-idf index over the shards of one book, each a (start, end)
    word range of it.

    tf is the raw bigram count per shard, idf = ln(N/df). Vectors keep no
    zero entries, so a bigram occurring in every shard carries no weight;
    queries whose weighted vector vanishes entirely (single-shard books, or
    a query made only of everywhere-bigrams) fall back to raw-tf dot-product
    scoring so retrieval still functions.

    The book's words are interned once, in first-occurrence order, into the
    int32 ids ``book_ids`` (``vocab`` maps word to id), and each shard's
    bigrams are read from that one array. A bigram is the int64 key
    ``left * len(vocab) + right``; ``grams`` lists the book's keys sorted,
    and the postings of gram g are the entries ``ptr[g]:ptr[g+1]`` of
    ``post_shard`` (ascending), ``post_tf`` and ``post_weight``.
    """

    def __init__(self, words, spans):
        if not spans:
            raise ValueError("cannot index zero shards")
        self.words = words
        self.spans = list(spans)
        self.n_shards = n = len(self.spans)
        vocab: dict[str, int] = {}
        self.vocab = vocab
        self.book_ids = np.array([vocab.setdefault(w, len(vocab)) for w in words], dtype=np.int32)

        # every in-shard bigram occurrence, in shard order then position order
        starts, ends = np.array(self.spans, dtype=np.int64).T
        lens = np.maximum(ends - starts - 1, 0)
        pair_shard = np.repeat(np.arange(n), lens)
        left = np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(len(pair_shard))
        keys = self.book_ids[left].astype(np.int64) * len(vocab) + self.book_ids[left + 1]
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

    def encode(self, words) -> np.ndarray:
        """Word ids of ``words`` in this book's vocabulary (ABSENT_ID for
        words the book does not contain)."""
        return np.array([self.vocab.get(w, ABSENT_ID) for w in words], dtype=np.int32)


def _rank(index: TfIdfIndex, queries: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(best shard, its score) of every encoded query, as two arrays: ties
    go to the lower shard, and a query that shares no indexed bigram gets
    shard -1 and score -inf.

    A query's vector lists its known bigrams in first-occurrence order with
    weight count * idf, dropping zero weights; when none is left it is the
    raw count of every known bigram, scored by plain dot product against
    raw shard counts. Each dot product is summed one query position at a
    time across the batch, so every cosine adds its terms in the query's
    order, as a per-bigram loop would; the query norm is a cumulative sum
    in the same order. Queries are scored CHUNK // n_shards at a time, and
    each takes the first maximum of its row of scores.
    """
    rows = max(1, CHUNK // index.n_shards)
    shard, score = np.full(len(queries), -1), np.full(len(queries), -np.inf)
    for c in range(0, len(queries), rows):
        shard[c : c + rows], score[c : c + rows] = _rank_batch(index, queries[c : c + rows])
    return shard, score


def _rank_batch(index, queries):
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
    best = scores.argmax(axis=1)
    top = scores[np.arange(n_q), best]
    return np.where(top > -np.inf, best, -1), top


def _column_runs(queries, ref, n_ids):
    """(query, start, end, bound) arrays of every run of columns of the
    reference ``ref`` that can score against each query; ids are below
    ``n_ids`` (query words may also be ABSENT_ID).

    Every reference column consumed by an alignment adds at most MATCH
    when its word occurs in the query and at most max(MISMATCH, GAP)
    otherwise, and query-only steps add GAP < 0, so no cell of column j
    scores more than the best suffix sum of those column values ending at
    j, nor more than ``MATCH * len(query)``. Columns bounded by 0 hold
    H = 0 in every row and cut the reference into independent runs; a
    run's bound is its largest column bound. The queries share one gather
    of a (B, n_ids) table of column gains; rows are taken CHUNK cells at a
    time.
    """
    width = len(ref)
    per = max(1, CHUNK // (max(n_ids, width) + 2))
    parts = []
    for c in range(0, len(queries), per):
        qs = queries[c : c + per]
        q_len = np.array([len(q) for q in qs])
        q_flat, owner = np.concatenate(qs), np.repeat(np.arange(len(qs)), q_len)
        gain = _work_array(0, (len(qs), n_ids))
        gain.fill(max(MISMATCH, GAP))
        gain[owner[q_flat >= 0], q_flat[q_flat >= 0]] = MATCH
        # ``low`` first holds the gathered gains; every id is below n_ids, so
        # "clip" clips nothing, and unlike "raise" it writes to ``out`` unbuffered
        low = np.take(gain, ref, axis=1, out=_work_array(1, (len(qs), width)), mode="clip")
        bound = np.cumsum(low, axis=1, dtype=np.int32, out=_work_array(0, (len(qs), width)))
        np.minimum.accumulate(bound, axis=1, out=low)
        bound -= np.minimum(low, 0, out=low)  # best suffix sum ending at the column
        is_open = _work_array(2, (len(qs), width + 2), bool)
        is_open[:, 0] = is_open[:, -1] = False
        np.greater(bound, 0, out=is_open[:, 1:-1])
        flips = _work_array(1, (len(qs), width + 1), bool)
        edges = np.flatnonzero(np.not_equal(is_open[:, 1:], is_open[:, :-1], out=flips)).astype(np.int32)
        row, col = np.divmod(edges, np.int32(width + 1))
        row, starts, ends = row[0::2], col[0::2], col[1::2]
        run_bound = np.maximum.reduceat(bound.ravel(), row * width + starts) if row.size else row
        parts.append((row + c, starts, ends, np.minimum(run_bound, MATCH * q_len[row], dtype=np.int32)))
    return tuple(np.concatenate(a) for a in zip(*parts))


def _align(queries, ids, windows, n_ids) -> Iterator[AlignmentResult]:
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
    scores, found = _aligned_runs(queries, ids, windows, n_ids)
    for best, runs_of in zip(scores, found):
        if not best:
            yield AlignmentResult(score=0, ref_span=(0, 0), query_span=(0, 0), path="")
            continue
        rs, _span_len, qs, re_, qe, path = min(
            (c for score, cands in runs_of if score == best for c in cands), key=lambda c: c[:5]
        )
        yield AlignmentResult(score=best, ref_span=(rs, re_), query_span=(qs, qe), path=path)


def _aligned_runs(queries, ids, windows, n_ids) -> tuple[list, list]:
    """(best score, [(score, candidates) of each aligned run]) per query;
    see ``_align``. The run arrays are dropped on return."""
    by_window: dict[tuple[int, int], list[int]] = {}
    for k, window in enumerate(windows):
        by_window.setdefault(window, []).append(k)
    runs = []
    for (start, end), ks in by_window.items():
        pair, *rest = _column_runs([queries[k] for k in ks], ids[start:end], n_ids)
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
                       [refs[k][a:b] for k, a, b in zip(ks, starts, hi[chosen].tolist())], starts)
        for k, (score, cands) in zip(ks, tables):
            found[k].append((score, cands))
            scores[k] = max(scores[k], score)

    align(head)
    rest = np.ones(len(pair), dtype=bool)
    rest[head] = False
    align(np.flatnonzero(rest & (bound >= scores[pair])))
    return scores.tolist(), found


def _fill(queries, refs, offsets) -> list[tuple[int, list]]:
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
                             [offsets[k] for k in batch], rows, m[order[b - 1]])
        for k, table in zip(batch, tables):
            out[k] = table
        a = b
    return out


def _fill_batch(queries, refs, offsets, rows, cols) -> list[tuple[int, list]]:
    """Fill B tables at once: row i of every table is one numpy call per
    step, in coordinates G = H - GAP*j where the linear gap chain is a
    prefix maximum. Queries are end-padded to ``rows`` with an id matching
    nothing, and references to ``cols`` with another: a padded cell only
    extends real cells by negative steps, so no padded cell reaches its
    table's best score. The tables and their diagonal gains lie on
    ``_work_array`` buffers.

    The best cells are found from row maxima: only the rows that hold
    their table's best are compared cell by cell, in (row, table, column)
    order. Every best cell is traced back over plain ints, preferring the
    diagonal, then the insertion, then the deletion, into a (ref start, ref
    span length, query start, ref end, query end, path) candidate, the path
    as ``AlignmentResult.path`` spells it."""
    n_b = len(queries)
    q_len = np.array([len(q) for q in queries])
    r_len = np.array([len(r) for r in refs])
    q_ids = np.full((n_b, rows), -2, dtype=np.int32)
    q_ids[np.arange(rows) < q_len[:, None]] = np.concatenate(queries)
    r_ids = np.full((n_b, cols), -3, dtype=np.int32)
    r_ids[np.arange(cols) < r_len[:, None]] = np.concatenate(refs)
    # step[i, b, j]: the diagonal gain s - GAP into cell (i+1, j+1) of table b
    same = np.equal(q_ids.T[:, :, None], r_ids, out=_work_array(2, (rows, n_b, cols), bool))
    step = np.multiply(same, np.int32(MATCH - MISMATCH), dtype=np.int32,
                       out=_work_array(1, (rows, n_b, cols)))
    step += np.int32(MISMATCH - GAP)
    floor = np.arange(cols + 1, dtype=np.int32) * np.int32(-GAP)  # G of H == 0
    G = _work_array(0, (rows + 1, n_b, cols + 1))
    G[0] = floor
    G[1:, :, 0] = 0
    cand, up = np.empty((n_b, cols), dtype=np.int32), np.empty((n_b, cols), dtype=np.int32)
    gap32, floor_1 = np.int32(GAP), floor[1:]
    for i in range(rows):
        np.add(G[i, :, :-1], step[i], out=cand)
        np.add(G[i, :, 1:], gap32, out=up)
        np.maximum(cand, up, out=cand)
        np.maximum(cand, floor_1, out=cand)
        np.maximum.accumulate(cand, axis=1, out=G[i + 1, :, 1:])
    G -= floor  # now H
    row_best = G.max(axis=2)  # (rows + 1, B)
    best = row_best.max(axis=0)
    best_i, best_b = np.nonzero(row_best == best)
    hit, best_j = np.nonzero(G[best_i, best_b] == best[best_b, None])
    cands: list[list] = [[] for _ in range(n_b)]
    h, diag_gain, matched = G.item, step.item, MATCH - GAP
    for end_i, b, end_j in zip(best_i[hit].tolist(), best_b[hit].tolist(), best_j.tolist()):
        i, j, path, lo = end_i, end_j, [], offsets[b]
        here = h(i, b, j)
        while here > 0:
            cell_gain = diag_gain(i - 1, b, j - 1)
            if here == (diag := h(i - 1, b, j - 1)) + cell_gain + GAP:
                i, j, here = i - 1, j - 1, diag
                path.append("m" if cell_gain == matched else "s")
            elif here == (above := h(i - 1, b, j)) + GAP:
                i, here = i - 1, above
                path.append("i")
            else:
                j -= 1
                here = h(i, b, j)
                path.append("d")
        cands[b].append((lo + j, end_j - j, i, lo + end_j, end_i, "".join(reversed(path))))
    return list(zip(best.tolist(), cands))


@contextmanager
def workspace() -> Iterator[None]:
    """Free the ``_work_array`` buffers when the block ends, so the memory of
    the alignments run inside it is not held by later work."""
    try:
        yield
    finally:
        _WORKSPACE.clear()


def _work_array(slot: int, shape, dtype=np.int32) -> np.ndarray:
    """An uninitialised ``shape`` array on workspace buffer ``slot``.

    A buffer holds CHUNK int32 cells and is kept until a ``workspace``
    block ends, so every batch and book reuses pages faulted in once; arrays
    allocated and freed per batch are handed back to the kernel by the C
    allocator and faulted in again. Only an array larger than a buffer,
    from one pair of more than CHUNK cells, is allocated fresh. Arrays in
    use at the same time take different slots; ``_column_runs`` and
    ``_fill_batch`` share slots 0-2, so the workspace is the larger of their
    needs, not the sum.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes > CHUNK * 4:
        return np.empty(shape, dtype)
    buf = _WORKSPACE.get(slot)
    if buf is None or buf.size < nbytes:  # CHUNK has grown
        buf = _WORKSPACE[slot] = np.empty(CHUNK * 4, dtype=np.uint8)
    return buf[:nbytes].view(dtype).reshape(shape)


def _has_digit(word: str) -> bool:
    return any(c.isdigit() for c in word)


def replace_numbers(aligned: AlignmentResult, reference_words, pseudo_words) -> list[str]:
    """Resolve digit words of the aligned book span from the pseudo label.

    The path is walked from the spans' starts, and its steps fall into
    maximal runs of insertions and steps on digit-bearing book words. A run
    holding a digit word becomes the pseudo words aligned in it, so
    multi-word readings ("four o one" for "401") are reconstructed and digit
    words aligned only to deletions disappear (unread page numbers). A run
    of insertions alone adds nothing, and every other step keeps its book
    word, so a span without a digit word comes back as it stands.
    """
    j, i = aligned.ref_span[0], aligned.query_span[0]
    out: list[str] = []
    run: list[str] = []  # pseudo words of the open run
    read = False  # the open run holds a digit word
    for step in aligned.path:
        if step == "i" or _has_digit(reference_words[j]):
            if step != "d":
                run.append(pseudo_words[i])
            read = read or step != "i"
        else:
            if read:
                out += run
            run, read = [], False
            out.append(reference_words[j])
        i += step != "d"
        j += step != "i"
    return out + run if read else out


def fix_rare_wordforms(
    words,
    book_freq: dict[str, int],
    rare_threshold: int = DEFAULT_RARE_THRESHOLD,
) -> list[str]:
    """Hyphen/apostrophe cleanup driven by distinct-book counts.

    A word in at least ``rare_threshold`` books passes unchanged, whatever
    its form. A rarer word with a hyphen is split at its hyphens; one with
    an apostrophe loses its apostrophes when the stripped form is a
    non-empty word in at least ``rare_threshold`` books, and stands
    otherwise.
    """
    out: list[str] = []
    for word in words:
        if book_freq.get(word, 0) >= rare_threshold:
            out.append(word)
        elif "-" in word or "‐" in word:
            out += word.translate(HYPHENS_TO_SPACES).split()
        elif "'" in word or "’" in word:
            stripped = word.replace("'", "").replace("’", "")
            out.append(stripped if stripped and book_freq.get(stripped, 0) >= rare_threshold else word)
        else:
            out.append(word)
    return out


def build_book_frequencies(books) -> dict[str, int]:
    """word -> number of distinct books it appears in, from each book's
    words in turn (any iterable of word sequences)."""
    freq: dict[str, int] = {}
    for words in books:
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


def _transcripts(index, labels) -> Iterator:
    """(words, book word span) or None for every pseudo label of the
    indexed book, in order.

    The labels are ranked together (``_rank``), and each is aligned against
    its top shard plus the shard's overlap neighbours (a true span can
    straddle a stride boundary); their column bounds (``_column_runs``) and
    alignments (``_align``) are batched too. Digit words are resolved from
    the pseudo label, and the span is widened across unaligned query edges:
    corrupted edge words correspond to real audio, and the book text across
    from them is the best transcript available, the same assumption the
    number replacement makes. Nothing matches when no shard shares a bigram
    or the score is 0. The book's digit words are found once; a span
    without one is a slice of the book, and only a span with one goes
    through ``replace_numbers``.
    """
    codes = [index.encode(words) for words in labels]
    shard, _ = _rank(index, codes)
    hits = (shard >= 0).tolist()
    span_starts, span_ends = np.array(index.spans).T
    win_starts = span_starts[np.maximum(shard - 1, 0)].tolist()
    win_ends = span_ends[np.minimum(shard + 1, index.n_shards - 1)].tolist()
    aligned = _align([code for code, hit in zip(codes, hits) if hit], index.book_ids,
                     [(a, b) for a, b, hit in zip(win_starts, win_ends, hits) if hit],
                     len(index.vocab))
    digit = np.array([_has_digit(w) for w in index.vocab], dtype=bool)[index.book_ids]
    words = index.words
    for pseudo_words, hit, win_start, win_end in zip(labels, hits, win_starts, win_ends):
        if not hit or (al := next(aligned)).score <= 0:
            yield None
            continue
        a, b = win_start + al.ref_span[0], win_start + al.ref_span[1]
        lo = max(win_start, a - al.query_span[0])
        hi = min(win_end, b + len(pseudo_words) - al.query_span[1])
        if digit[a:b].any():
            core = replace_numbers(al, words[win_start:win_end], pseudo_words)
            yield [*words[lo:a], *core, *words[b:hi]], (lo, hi)
        else:
            yield words[lo:hi], (lo, hi)


def labels_by_book(segments) -> dict[str, list[tuple[str, str]]]:
    """book_id -> (segment_id, pseudo label text) of each segment manifest
    row of the book, in input order."""
    labels: dict[str, list[tuple[str, str]]] = {}
    for row in segments:
        labels.setdefault(row.book_id, []).append((row.segment_id, row.transcript))
    return labels


def book_candidates(
    book_id: str,
    words,
    labels,
    shard_size: int = DEFAULT_SHARD_SIZE,
    shard_stride: int = DEFAULT_SHARD_STRIDE,
    threshold: float = DEFAULT_WER_THRESHOLD,
) -> Iterator[CandidateTranscript | None]:
    """The scored candidate of each (segment_id, pseudo label text) of one
    book, in order, or None for a miss: the book's words or the pseudo
    label are empty or missing, or nothing non-empty was retrieved. The
    book is indexed once."""
    if not words:
        yield from (None for _ in labels)
        return
    index = TfIdfIndex(words, shard_spans(len(words), shard_size, shard_stride))
    pseudos = [text.split() for _, text in labels]
    for found, (segment_id, _), pseudo in zip(_transcripts(index, pseudos), labels, pseudos):
        if found is None or not found[0]:
            yield None
        else:
            yield accept_candidate(found[0], pseudo, threshold, segment_id, (book_id, found[1]))
