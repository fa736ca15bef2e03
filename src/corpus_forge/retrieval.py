"""Transcript retrieval: locate each pseudo-label inside its source book.

Books are split into overlapping word-window shards (1250 words, stride
1000), indexed by tf-idf over word bigrams, and queried with the pseudo
label. Indexing a book also interns it once into int32 word ids. The
pseudo label is encoded in the same vocabulary, where words the book lacks
get an id no book word has, and aligned to a view of the winning window's
ids with a local Smith-Waterman (match 2, substitution/insertion/deletion
-1). The alignment is computed only on the runs of window columns whose
cheap upper bound (from which columns hold a query word) can reach the best
score, usually a few percent of the window. Digit words of the matched book
text are replaced from the aligned pseudo words. Candidates are accepted
when their word error rate against the pseudo label does not exceed the
threshold (default 40%); the rate comes from a bit-parallel Levenshtein
distance (Myers 1999; Hyyrö 2003).
"""

from __future__ import annotations

import math
from collections import Counter
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
    """

    def __init__(self, shards: list[DocumentShard]):
        if not shards:
            raise ValueError("cannot index zero shards")
        self.shards = list(shards)
        self.n_shards = len(shards)
        # the book as its shards cover it, interned once into int32 word ids
        vocab: dict[str, int] = {}
        self.vocab = vocab
        book_len = max(s.word_offset + len(s.words) for s in shards)
        self.book_ids = np.full(book_len, ABSENT_ID, dtype=np.int32)
        covered = 0
        for shard in sorted(self.shards, key=lambda s: s.word_offset):
            start = max(covered, shard.word_offset)
            covered = max(covered, shard.word_offset + len(shard.words))
            fresh = shard.words[start - shard.word_offset :]
            self.book_ids[start:covered] = [vocab.setdefault(w, len(vocab)) for w in fresh]
        self.df: dict[tuple[str, str], int] = {}
        tfs = []
        for shard in self.shards:
            tf = Counter(zip(shard.words, shard.words[1:]))
            tfs.append(tf)
            for gram in tf:
                self.df[gram] = self.df.get(gram, 0) + 1

        self.idf = {g: math.log(self.n_shards / d) for g, d in self.df.items()}

        self.postings: dict[tuple[str, str], list[tuple[int, float]]] = {}
        self.tf_postings: dict[tuple[str, str], list[tuple[int, int]]] = {}
        self.norms = [0.0] * self.n_shards
        for i, tf in enumerate(tfs):
            for gram, count in tf.items():
                self.tf_postings.setdefault(gram, []).append((i, count))
                weight = count * self.idf[gram]
                if weight == 0.0:
                    continue
                self.postings.setdefault(gram, []).append((i, weight))
                self.norms[i] += weight * weight
        self.norms = [math.sqrt(v) for v in self.norms]

    def encode(self, words) -> np.ndarray:
        """Word ids of ``words`` in this book's vocabulary (ABSENT_ID for
        words the book does not contain)."""
        return np.array([self.vocab.get(w, ABSENT_ID) for w in words], dtype=np.int32)

    def query_vector(self, words) -> tuple[dict[tuple[str, str], float], bool]:
        """(vector, tf_fallback?): the weighted query vector, or the raw-tf
        vector over known bigrams when every weighted entry vanished."""
        qtf = Counter(zip(words, words[1:]))
        vec = {}
        known = {}
        for gram, count in qtf.items():
            if gram not in self.df:
                continue
            known[gram] = float(count)
            weight = count * self.idf[gram]
            if weight != 0.0:
                vec[gram] = weight
        if vec:
            return vec, False
        return known, True


def build_index(shards: list[DocumentShard]) -> TfIdfIndex:
    return TfIdfIndex(shards)


def retrieve(index: TfIdfIndex, pseudo_label, top_k: int = 1) -> RetrievalResult:
    """Rank shards by cosine similarity to the pseudo label's bigrams.

    A query sharing no indexed bigram (including queries shorter than two
    words) returns status "no_match", distinct from a zero score.
    """
    words = list(pseudo_label)
    qvec, tf_fallback = index.query_vector(words)
    if not qvec:
        return RetrievalResult(hits=[], status="no_match")
    qnorm = math.sqrt(sum(w * w for w in qvec.values()))
    scores: dict[int, float] = {}
    postings = index.tf_postings if tf_fallback else index.postings
    for gram, weight in qvec.items():
        for shard_i, shard_w in postings[gram]:
            scores[shard_i] = scores.get(shard_i, 0.0) + weight * shard_w
    ranked = []
    for shard_i, dot in scores.items():
        if tf_fallback:
            ranked.append((-dot, shard_i))
        else:
            ranked.append((-dot / (qnorm * index.norms[shard_i]), shard_i))
    ranked.sort()  # ties broken by lower shard id
    hits = [
        RetrievalHit(shard=index.shards[i], score=-neg) for neg, i in ranked[:top_k]
    ]
    return RetrievalResult(hits=hits, status="ok")


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
    book's ids) or two sequences of hashable tokens, interned here.

    The DP is filled only where the best score can lie. Every reference
    column consumed by an alignment adds at most ``match`` when its word
    occurs in the query and at most ``max(mismatch, gap)`` otherwise, and
    query-only steps add ``gap`` < 0, so no cell of column j scores more
    than the best suffix sum of those column values ending at j, nor more
    than ``match * len(query)``. Columns bounded by 0 hold H = 0 in every
    row and cut the reference into independent runs. Runs are aligned in
    descending order of their bound until the next bound falls below the
    best score found; each one fills an int32 table row-wise in coordinates
    G = H - gap*j, where the linear gap chain is a prefix maximum, and its
    best cells come from the row maxima and are traced back over plain
    ints. Among equal-score alignments, from any run, the smallest
    reference start wins, then the shortest reference span, the smallest
    query start and the earliest end cell.
    """
    if not len(query) or not len(reference):
        raise ValueError("query and reference must be non-empty")
    if gap >= 0 or mismatch >= match:
        raise ValueError("scores must satisfy gap < 0 and mismatch < match")
    q_ids, r_ids = query, reference
    if not (isinstance(q_ids, np.ndarray) and isinstance(r_ids, np.ndarray)):
        ids: dict = {}  # one vocabulary for both sides
        q_ids, r_ids = (
            np.array([ids.setdefault(w, len(ids)) for w in seq], dtype=np.int32)
            for seq in (query, reference)
        )
    n, m = len(q_ids), len(r_ids)
    if (match - mismatch - gap) * (n + m + 2) >= 2**31:
        raise ValueError("scores too large for an int32 alignment table")

    # column bound: best suffix sum of per-column gains, capped at match * n
    gain = np.where((q_ids[:, None] == r_ids).any(axis=0), match, max(mismatch, gap))
    total = np.cumsum(gain)
    bound = np.minimum(total - np.minimum(np.minimum.accumulate(total), 0), match * n)
    is_open = np.concatenate(([False], bound > 0, [False]))
    edges = np.flatnonzero(is_open[1:] != is_open[:-1])
    if not edges.size:  # no column can score; a run always holds a positive cell
        return AlignmentResult(score=0, ref_span=(0, 0), query_span=(0, 0), ops=())
    starts, ends = edges[0::2], edges[1::2]
    run_bound = np.maximum.reduceat(bound, starts)

    matched = match - gap  # diagonal gain of a match
    best, candidates = 0, []
    for run in np.argsort(-run_bound, kind="stable").tolist():
        if run_bound[run] < best:
            break  # no later run can reach the best score
        lo = int(starts[run])
        H, step = _run_table(q_ids, r_ids[lo : ends[run]], match, mismatch, gap)
        row_best = H.max(axis=1)
        score = int(row_best.max())
        if score < best:
            continue
        if score > best:
            best, candidates = score, []
        h = H.item
        diag_gain = step.item  # s - gap of cell (i-1, j-1)
        for end_i in np.flatnonzero(row_best == score).tolist():
            for end_j in np.flatnonzero(H[end_i] == score).tolist():
                i, j, ops = end_i, end_j, []
                while (here := h(i, j)) > 0:
                    cell_gain = diag_gain(i - 1, j - 1)
                    if here == h(i - 1, j - 1) + cell_gain + gap:
                        i, j = i - 1, j - 1
                        kind = "match" if cell_gain == matched else "substitute"
                        ops.append(AlignmentOp(kind, i, lo + j))
                    elif here == h(i - 1, j) + gap:
                        i -= 1
                        ops.append(AlignmentOp("insert", i, None))
                    else:
                        j -= 1
                        ops.append(AlignmentOp("delete", None, lo + j))
                candidates.append((lo + j, end_j - j, i, lo + end_j, end_i, ops[::-1]))
    rs, _span_len, qs, re_, qe, ops = min(candidates, key=lambda c: c[:5])
    return AlignmentResult(
        score=best,
        ref_span=(rs, re_),
        query_span=(qs, qe),
        ops=tuple(ops),
    )


def _run_table(q_ids, r_ids, match, mismatch, gap) -> tuple[np.ndarray, np.ndarray]:
    """(H, step) of the zero-clamped DP of ``q_ids`` against one run of
    reference columns, whose left neighbour holds H = 0; step[i, j] is the
    diagonal gain s - gap into cell (i+1, j+1)."""
    n, m = len(q_ids), len(r_ids)
    # diagonal step in G coordinates: H[i-1, j-1] + s - gap*j = G[i-1, j-1] + s - gap
    step = np.multiply(q_ids[:, None] == r_ids, np.int32(match - mismatch), dtype=np.int32)
    step += np.int32(mismatch - gap)
    floor = np.arange(m + 1, dtype=np.int32) * np.int32(-gap)  # G of H == 0
    G = np.empty((n + 1, m + 1), dtype=np.int32)
    G[0] = floor
    G[:, 0] = 0
    up, gap32, floor_1 = np.empty(m, dtype=np.int32), np.int32(gap), floor[1:]
    for diag, above, row, row_step in zip(G[:-1, :-1], G[:-1, 1:], G[1:, 1:], step):
        cand = diag + row_step
        np.add(above, gap32, out=up)
        np.maximum(cand, up, out=cand)
        np.maximum(cand, floor_1, out=cand)
        np.maximum.accumulate(cand, out=row)
    return G - floor, step


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
    """
    a = list(a)
    b = list(b)
    if len(a) < len(b):
        a, b = b, a
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
    """Full per-segment retrieval: rank shards, align against the top shard
    plus its overlap neighbors (a true span can straddle a stride boundary),
    resolve digit words, and widen the span across unaligned query edges.

    The widening covers pseudo-label words the local alignment trimmed at
    either end (corrupted edge words correspond to real audio, and the book
    text across from them is the best transcript available, the same
    assumption the number replacement makes). Returns (words, book word
    span, alignment) or None when nothing matches. The alignment runs on
    the index's interned ids, so ``book_words`` must be the indexed book.
    """
    pseudo_words = list(pseudo_words)
    hit = retrieve(index, pseudo_words, top_k=1)
    if hit.status != "ok":
        return None
    top = hit.hits[0].shard
    lo = max(0, top.shard_id - 1)
    hi = min(len(shards) - 1, top.shard_id + 1)
    win_start = shards[lo].word_offset
    win_end = shards[hi].word_offset + len(shards[hi].words)
    aligned = smith_waterman(index.encode(pseudo_words), index.book_ids[win_start:win_end])
    if aligned.score <= 0:
        return None
    window = list(book_words[win_start:win_end])
    core = replace_numbers(aligned, window, pseudo_words)
    lead = aligned.query_span[0]
    trail = len(pseudo_words) - aligned.query_span[1]
    ext_lo = max(0, aligned.ref_span[0] - lead)
    ext_hi = min(len(window), aligned.ref_span[1] + trail)
    span_words = window[ext_lo : aligned.ref_span[0]] + core + window[aligned.ref_span[1] : ext_hi]
    span = (win_start + ext_lo, win_start + ext_hi)
    return span_words, span, aligned


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
        index = build_index(shards)
        for row in by_book[book_id]:
            pseudo = row.transcript.split()
            found = retrieve_transcript(words, shards, index, pseudo) if pseudo else None
            if found is None or not found[0]:
                misses += 1
                continue
            cand_words, span, _aligned = found
            candidates.append(
                accept_candidate(cand_words, pseudo, threshold, row.segment_id, (book_id, span))
            )
    return candidates, misses
