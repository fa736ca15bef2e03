"""Independent reference implementations used as test oracles.

Everything in here is deliberately written the dumb way (explicit walks,
enumeration, replayed rules) and stays decoupled from the package code it
checks.
"""

from __future__ import annotations

import json
import math
import struct
import unicodedata
import zlib
from pathlib import Path

import numpy as np

# the model file format's constants; the dict engine below is this module's own
from corpus_forge.ngramlm import FALLBACK_DISCOUNT, FORMAT_VERSION, MAGIC, SENT_START, UNK, EvalReport


# ---------------------------------------------------------------------------
# text normalization


def reference_normalize(raw, valid_chars, apostrophes, hyphens):
    """Character-class walker: builds tokens one character at a time.

    Mirrors the documented normalization contract: NFKC, end-of-line
    hyphen joining, separator classes, casefold, orthography filter,
    edge cleanup of apostrophe/hyphen characters.
    """
    text = unicodedata.normalize("NFKC", raw)
    joined = []
    i = 0
    eol_hyphens = {"-", "‐", "­"}
    while i < len(text):
        ch = text[i]
        if ch in eol_hyphens:
            j = i + 1
            while j < len(text) and text[j] in (" ", "\t"):
                j += 1
            if j < len(text) and text[j] in ("\n", "\r"):
                if text[j] == "\r" and j + 1 < len(text) and text[j + 1] == "\n":
                    j += 1
                j += 1
                while j < len(text) and text[j] in (" ", "\t"):
                    j += 1
                i = j
                continue
        joined.append(ch)
        i += 1

    tokens = []
    current = []

    def flush():
        if not current:
            return
        word = "".join(current)
        # strip class characters not adjacent to a valid character
        keep = []
        for k, c in enumerate(word):
            if c in valid_chars:
                keep.append(c)
                continue
            prev_ok = k > 0 and word[k - 1] in valid_chars
            next_ok = k + 1 < len(word) and word[k + 1] in valid_chars
            if prev_ok or next_ok:
                keep.append(c)
        current.clear()
        if keep:
            tokens.append("".join(keep))

    for ch in "".join(joined):
        cat = unicodedata.category(ch)
        if ch.isspace():
            flush()
            continue
        if cat == "Cf":
            continue
        if ch in apostrophes or ch in hyphens:
            current.append(ch)
            continue
        if cat[0] in ("P", "S", "C", "Z"):
            flush()
            continue
        for folded in ch.casefold():
            if folded in valid_chars:
                current.append(folded)
            elif folded in apostrophes or folded in hyphens:
                current.append(folded)
            # otherwise dropped without splitting
    flush()
    return tokens


# ---------------------------------------------------------------------------
# segmentation


def pairwise_gap_scan(tokens):
    """Gaps as explicit pairwise scan over (start, end) tuples."""
    gaps = []
    for a, b in zip(tokens, tokens[1:]):
        if a[1] < b[0]:
            gaps.append((a[1], b[0]))
    return gaps


def brute_force_segment_bounds(tokens, min_len, max_len, slack=250):
    """Re-derives segment boundaries by scanning every gap per window.

    Returns (list of (start, end) spans, residual span or None,
    dropped (start, end) token spans). tokens are (start, end) pairs.
    """
    spans = []
    dropped = []
    if not tokens:
        return spans, None, dropped
    gaps = pairwise_gap_scan(tokens)
    start = tokens[0][0]
    stream_end = tokens[-1][1]
    while True:
        remaining = stream_end - start
        if remaining < min_len:
            residual = (start, stream_end) if remaining > 0 else None
            return spans, residual, dropped
        if remaining <= max_len:
            spans.append((start, stream_end))
            return spans, None, dropped
        best = None
        for gs, ge in gaps:
            mid = (gs + ge) // 2
            if start + min_len <= mid <= start + max_len:
                length = ge - gs
                if best is None or length > best[0]:
                    best = (length, mid)
        if best is not None:
            cut = best[1]
            spans.append((start, cut))
            start = cut
            continue
        cut = start + max_len
        inside = None
        for ts, te in tokens:
            if ts < cut < te:
                inside = (ts, te)
                break
        if inside is None:
            spans.append((start, cut))
            start = cut
        elif inside[1] <= cut + slack:
            spans.append((start, inside[1]))
            start = inside[1]
        else:
            dropped.append(inside)
            spans.append((start, inside[0]))
            start = inside[1]


def cut_by_cut_segments(tokens, min_len, max_len, slack=250):
    """The segmenter one cut at a time, every 20 s of a silence included, as
    the loop before the silence skip ran; tokens are (start, end) pairs.

    Returns ([(number, start, end, token indices)] of the cuts that hold a
    token, residual (start, end, token indices) or None, dropped indices).
    A cut of nonzero width takes the next number whether or not it holds a
    token; a zero-width cut drops the tokens it would hold, and so does a
    loop that stops where the stream ends.
    """
    segments, dropped = [], []
    if not tokens:
        return segments, None, dropped
    gaps = pairwise_gap_scan(tokens)
    start, stream_end = tokens[0][0], tokens[-1][1]
    state = {"next": 0, "number": 0, "start": start}

    def emit(end):
        held = []
        while state["next"] < len(tokens) and tokens[state["next"]][1] <= end:
            held.append(state["next"])
            state["next"] += 1
        if end > state["start"]:
            if held:
                segments.append((state["number"], state["start"], end, held))
            state["number"] += 1
        else:
            dropped.extend(held)
        state["start"] = end

    while True:
        start = state["start"]
        remaining = stream_end - start
        if remaining < min_len:
            break
        if remaining <= max_len:
            emit(stream_end)
            break
        best = None
        for gs, ge in gaps:
            mid = (gs + ge) // 2
            if start + min_len <= mid <= start + max_len and (best is None or ge - gs > best[0]):
                best = (ge - gs, mid)
        if best is not None:
            emit(best[1])
            continue
        cut = start + max_len
        last = max((i for i in range(state["next"], len(tokens)) if tokens[i][0] < cut), default=None)
        if last is None or tokens[last][1] <= cut:
            emit(cut)
        elif tokens[last][1] <= cut + slack:
            emit(tokens[last][1])
        else:
            emit(tokens[last][0])
            dropped.append(last)
            state["next"], state["start"] = last + 1, tokens[last][1]
    rest = list(range(state["next"], len(tokens)))
    if state["start"] < stream_end and rest:
        return segments, (state["start"], stream_end, rest), dropped
    return segments, None, dropped + rest  # zero-length tokens at the stream's end


# ---------------------------------------------------------------------------
# retrieval


def count_bigram_vectors(shards):
    """Brute-force tf-idf vectors: shards is a list of word lists."""
    import math

    n = len(shards)
    df = {}
    tfs = []
    for words in shards:
        tf = {}
        for a, b in zip(words, words[1:]):
            tf[(a, b)] = tf.get((a, b), 0) + 1
        tfs.append(tf)
        for g in tf:
            df[g] = df.get(g, 0) + 1
    vectors = []
    for tf in tfs:
        vec = {}
        for g, c in tf.items():
            w = c * math.log(n / df[g])
            if w != 0.0:
                vec[g] = w
        vectors.append(vec)
    return vectors, df


def exhaustive_cosine_scores(shards, query_words):
    """Scores every shard against the query by direct cosine computation."""
    import math

    vectors, df = count_bigram_vectors(shards)
    n = len(shards)
    qtf = {}
    for a, b in zip(query_words, query_words[1:]):
        qtf[(a, b)] = qtf.get((a, b), 0) + 1
    qvec = {}
    for g, c in qtf.items():
        if g in df:
            w = c * math.log(n / df[g])
            if w != 0.0:
                qvec[g] = w
    qnorm = math.sqrt(left_to_right(w * w for w in qvec.values()))
    scores = []
    for vec in vectors:
        dot = left_to_right(w * vec.get(g, 0.0) for g, w in qvec.items())
        norm = math.sqrt(left_to_right(w * w for w in vec.values()))
        if qnorm == 0.0 or norm == 0.0:
            scores.append(0.0)
        else:
            scores.append(dot / (qnorm * norm))
    return scores


def left_to_right(values):
    """Float sum added strictly in order (``sum`` compensates floats from
    Python 3.12 on)."""
    total = 0.0
    for v in values:
        total += v
    return total


def ranked_shards(shards, query_words):
    """(shard index, score) of every shard sharing a bigram with the query,
    best first and ties to the lower index, by the tf-idf rule walked one
    bigram at a time: tf is the raw count, idf = ln(N/df), zero weights are
    dropped, dot products add the query's bigrams in first-occurrence order
    and norms add squares in each shard's first-occurrence order. A query
    whose weighted vector vanishes is scored by raw-count dot products.
    ``shards`` is a list of word lists."""
    import math

    def counts(words):
        tf = {}
        for gram in zip(words, words[1:]):
            tf[gram] = tf.get(gram, 0) + 1
        return tf

    n = len(shards)
    tfs = [counts(words) for words in shards]
    df = {}
    for tf in tfs:
        for gram in tf:
            df[gram] = df.get(gram, 0) + 1
    known = {g: c for g, c in counts(query_words).items() if g in df}
    qvec = {g: c * math.log(n / df[g]) for g, c in known.items()}
    qvec = {g: w for g, w in qvec.items() if w != 0.0}
    raw = not qvec
    if raw:
        qvec = {g: float(c) for g, c in known.items()}
    qnorm = math.sqrt(left_to_right(w * w for w in qvec.values()))
    scored = []
    for i, tf in enumerate(tfs):
        if not any(g in tf for g in qvec):
            continue
        weight = {g: c if raw else c * math.log(n / df[g]) for g, c in tf.items()}
        dot = left_to_right(w * weight[g] for g, w in qvec.items() if g in tf)
        norm = math.sqrt(left_to_right(w * w for w in weight.values() if w != 0.0))
        scored.append((-dot if raw else -dot / (qnorm * norm), i))
    return [(i, -neg) for neg, i in sorted(scored)]


def per_segment_transcript(book_words, spans, pseudo_words):
    """One segment retrieved on its own: rank the book's shards, its (start,
    end) word ranges ``spans``, with ``ranked_shards``, align the pseudo
    label against the top shard plus its overlap neighbours over the whole
    window (``full_window_smith_waterman``), resolve digit words from its
    traceback (``scan_replace_numbers``) and widen the span across unaligned
    query edges. Returns (words, book word span, alignment) or None."""
    pseudo_words = list(pseudo_words)
    ranked = ranked_shards([list(book_words[a:b]) for a, b in spans], pseudo_words)
    if not ranked:
        return None
    top = ranked[0][0]
    win_start, win_end = spans[max(0, top - 1)][0], spans[min(len(spans) - 1, top + 1)][1]
    window = list(book_words[win_start:win_end])
    aligned = full_window_smith_waterman(pseudo_words, window)
    score, ref_span, query_span, _path = aligned
    if score <= 0:
        return None
    core = scan_replace_numbers(aligned, window, pseudo_words)
    ext_lo = max(0, ref_span[0] - query_span[0])
    ext_hi = min(len(window), ref_span[1] + len(pseudo_words) - query_span[1])
    words = window[ext_lo : ref_span[0]] + core + window[ref_span[1] : ext_hi]
    return words, (win_start + ext_lo, win_start + ext_hi), aligned


def per_segment_candidates(books, segments, shard_size, shard_stride, threshold):
    """(candidates, misses) of ``retrieval.book_candidates`` over every
    book, computed one segment at a time with ``per_segment_transcript``."""
    from corpus_forge import retrieval as rt

    by_book = {}
    for row in segments:
        by_book.setdefault(row.book_id, []).append(row)
    candidates, misses = [], 0
    for book_id in sorted(by_book):
        words = books.get(book_id)
        if not words:
            misses += len(by_book[book_id])
            continue
        spans = rt.shard_spans(len(words), shard_size, shard_stride)
        for row in by_book[book_id]:
            pseudo = row.transcript.split()
            found = per_segment_transcript(words, spans, pseudo) if pseudo else None
            if found is None or not found[0]:
                misses += 1
                continue
            candidates.append(rt.accept_candidate(found[0], pseudo, threshold, row.segment_id,
                                                  (book_id, found[1])))
    return candidates, misses


def enumerate_local_alignment_score(query, reference, match=2, mismatch=-1, gap=-1):
    """Best local alignment score by enumerating every window.

    Runs an unclamped global-extension table from every (query_start,
    ref_start) pair and maximizes over all cells, i.e. over every pair of
    substrings. Empty alignment scores 0.
    """
    best = 0
    n, m = len(query), len(reference)
    for qi in range(n):
        for rj in range(m):
            rows = n - qi
            cols = m - rj
            prev = [g * gap for g in range(cols + 1)]
            for u in range(1, rows + 1):
                cur = [u * gap] + [0] * cols
                qw = query[qi + u - 1]
                for v in range(1, cols + 1):
                    s = match if qw == reference[rj + v - 1] else mismatch
                    cur[v] = max(prev[v - 1] + s, prev[v] + gap, cur[v - 1] + gap)
                    if cur[v] > best:
                        best = cur[v]
                prev = cur
    return best


def full_window_smith_waterman(query, reference, match=2, mismatch=-1, gap=-1):
    """Smith-Waterman over the whole reference window, with the package's
    tie-break: smallest reference start, then shortest reference span,
    smallest query start, earliest end column, earliest end row.

    The full int32 table is filled row-wise in G = H - gap*j coordinates and
    every best cell is traced back. Sequences are integer id arrays or
    hashable tokens. Returns (score, ref_span, query_span, path), the path
    one letter per step from the spans' starts: "m"atch, "s"ubstitute,
    "i"nsert, "d"elete; a zero score has no spans and an empty path.
    """
    import numpy as np

    q_ids, r_ids = query, reference
    if not (isinstance(q_ids, np.ndarray) and isinstance(r_ids, np.ndarray)):
        ids = {}
        q_ids, r_ids = (
            np.array([ids.setdefault(w, len(ids)) for w in seq], dtype=np.int32)
            for seq in (query, reference)
        )
    n, m = len(q_ids), len(r_ids)
    step = np.multiply(q_ids[:, None] == r_ids, np.int32(match - mismatch), dtype=np.int32)
    step += np.int32(mismatch - gap)
    floor = np.arange(m + 1, dtype=np.int32) * np.int32(-gap)
    G = np.empty((n + 1, m + 1), dtype=np.int32)
    G[0] = floor
    G[:, 0] = 0
    for i in range(1, n + 1):
        prev = G[i - 1]
        cand = np.maximum(prev[:m] + step[i - 1], prev[1:] + np.int32(gap))
        np.maximum(cand, floor[1:], out=cand)
        np.maximum.accumulate(cand, out=G[i, 1:])
    H = G - floor
    best = int(H.max())
    if best == 0:
        return 0, (0, 0), (0, 0), ""
    candidates = []
    for end_i, end_j in np.argwhere(H == best).tolist():
        i, j, steps = end_i, end_j, []
        while H[i, j] > 0:
            s = match if q_ids[i - 1] == r_ids[j - 1] else mismatch
            if H[i, j] == H[i - 1, j - 1] + s:
                i, j = i - 1, j - 1
                steps.append("m" if s == match else "s")
            elif H[i, j] == H[i - 1, j] + gap:
                i -= 1
                steps.append("i")
            else:
                j -= 1
                steps.append("d")
        candidates.append((j, end_j - j, i, end_j, end_i, "".join(reversed(steps))))
    rs, _span, qs, re_, qe, path = min(candidates, key=lambda c: c[:5])
    return best, (rs, re_), (qs, qe), path


def edit_script_minimum(a, b, cap=None):
    """Unit-cost edit distance by iterative-deepening script search.

    Uses only the equal-head reduction (safe for unit costs); no
    memoization, no DP table.
    """
    if cap is None:
        cap = len(a) + len(b)

    def feasible(i, j, budget):
        while i < len(a) and j < len(b) and a[i] == b[j]:
            i += 1
            j += 1
        if i == len(a) and j == len(b):
            return True
        if budget == 0:
            return False
        if i < len(a) and j < len(b) and feasible(i + 1, j + 1, budget - 1):
            return True
        if i < len(a) and feasible(i + 1, j, budget - 1):
            return True
        if j < len(b) and feasible(i, j + 1, budget - 1):
            return True
        return False

    for k in range(cap + 1):
        if feasible(0, 0, k):
            return k
    return cap


def full_matrix_edit_distance(a, b):
    """Classic full-matrix Wagner-Fischer table (title filter oracle)."""
    rows = len(a) + 1
    cols = len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[-1][-1]


def scan_replace_numbers(alignment, reference_words, pseudo_words):
    """Digit-word resolution by two nested index scans over the ops of an
    alignment in ``full_window_smith_waterman``'s form.

    The path is first spelled out as (kind, query index, reference index)
    ops, None for the unmatched side of a gap. An outer scan copies book
    words until it meets an insertion or an op on a digit-bearing book word;
    an inner scan then collects the whole block of such ops. A block with a
    digit word is replaced by its aligned pseudo words, a block of
    insertions alone adds nothing.
    """

    def has_digit(word):
        return any(c.isdigit() for c in word)

    reference_words = list(reference_words)
    pseudo_words = list(pseudo_words)
    _score, (ref_index, _), (query_index, _), path = alignment
    ops = []
    for step in path:
        ops.append((step, None if step == "d" else query_index, None if step == "i" else ref_index))
        if step != "d":
            query_index += 1
        if step != "i":
            ref_index += 1
    out = []
    i = 0
    while i < len(ops):
        kind, _q, r = ops[i]
        in_digit_block = kind == "i" or (r is not None and has_digit(reference_words[r]))
        if not in_digit_block:
            if r is not None:
                out.append(reference_words[r])
            i += 1
            continue
        block = []
        digit_seen = False
        while i < len(ops):
            kind, _q, r = ops[i]
            if kind == "i":
                block.append(ops[i])
            elif r is not None and has_digit(reference_words[r]):
                block.append(ops[i])
                digit_seen = True
            else:
                break
            i += 1
        if digit_seen:
            for _kind, q, _r in block:
                if q is not None:
                    out.append(pseudo_words[q])
        else:
            for _kind, _q, r in block:
                if r is not None:
                    out.append(reference_words[r])
    return out


def replay_wordform_rules(words, book_freq, threshold):
    """Direct restatement of the hyphen/apostrophe heuristics. The hyphens
    are ``-`` and ``‐``, the apostrophes ``'`` and ``’``; a word with both
    is a hyphen word."""
    out = []
    for w in words:
        freq = book_freq.get(w, 0)
        if "-" in w or "‐" in w:
            if freq < threshold:
                out.extend(p for p in w.replace("‐", "-").split("-") if p)
            else:
                out.append(w)
        elif "'" in w or "’" in w:
            if freq < threshold:
                stripped = w.replace("'", "").replace("’", "")
                if stripped == "" or book_freq.get(stripped, 0) < threshold:
                    out.append(w)  # a word never strips to nothing
                else:
                    out.append(stripped)
            else:
                out.append(w)
        else:
            out.append(w)
    return out


# ---------------------------------------------------------------------------
# splitting


def replay_book_validation(books):
    """books: list of dicts with book_id/title/author/version/multi_speaker/
    chapter_speakers. Returns surviving book_ids."""
    ok = []
    for b in books:
        if not b["title"] or not b["author"]:
            continue
        if any(not s for s in b["chapter_speakers"]):
            continue
        if b["multi_speaker"]:
            continue
        ok.append(b)
    latest = {}
    for b in ok:
        key = (b["author"], tuple(b["title"].split()))
        cur = latest.get(key)
        if cur is None or b["version"] > cur["version"] or (
            b["version"] == cur["version"] and b["book_id"] < cur["book_id"]
        ):
            latest[key] = b
    return sorted(x["book_id"] for x in latest.values())


def simulate_partition(speakers, k, threshold):
    """Step-by-step split simulation: speakers is a list of
    (speaker_id, gender, duration). Returns dict speaker_id -> partition."""
    part = {}
    eligible = {"M": [], "F": []}
    for sid, gender, dur in speakers:
        if dur < threshold:
            part[sid] = "train"
        else:
            eligible[gender].append((dur, sid))
    for gender in ("M", "F"):
        ranked = sorted(eligible[gender])
        chosen = ranked[: 2 * k]
        for idx, (_, sid) in enumerate(chosen):
            part[sid] = "dev" if idx % 2 == 0 else "test"
        for _, sid in ranked[2 * k :]:
            part[sid] = "train"
    return part


def interpolated_quantile(values, q):
    """Linear-interpolated quantile of an unsorted list."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0]
    h = q * (len(vals) - 1)
    lo = int(h)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (h - lo) * (vals[hi] - vals[lo])


def tally_durations(segment_durations, members):
    """Sum of durations (ms) for the given segment ids."""
    return sum(segment_durations[s] for s in members)


# ---------------------------------------------------------------------------
# decontamination


def sliding_window_fivegrams(tokens, stopwords):
    kept = [t for t in tokens if t not in stopwords]
    grams = set()
    for i in range(len(kept) - 4):
        grams.add(tuple(kept[i : i + 5]))
    return grams


# ---------------------------------------------------------------------------
# statistics


def sum_hours(rows):
    """rows: iterable of (start_ms, end_ms); plain summation in ms."""
    total_ms = 0
    for s, e in rows:
        total_ms += e - s
    return total_ms / 3_600_000.0


# ---------------------------------------------------------------------------
# n-gram language model


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


class DictNGramModel:
    """The dict-of-tuples n-gram engine: one dict per order from gram tuple to
    adjusted count, a recursive ``_p`` and level-wise ARPA export. ``train``
    keeps each table in the order of its space-joined keys, the order a
    ``.cflm`` file holds them in, so every discount mass is summed in that
    order."""

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
    def train(cls, corpus, order: int, smoothing: str = "kn", metadata=None) -> "DictNGramModel":
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

        tables = [{g: t[g] for g in sorted(t, key=" ".join)} for t in tables]
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

    def probs(self, queries) -> list[float]:
        return [self.prob(word, context) for context, word in queries]

    def truncated(self, order: int) -> "DictNGramModel":
        """Lower-order view sharing this model's count structure (diagnostic)."""
        if not 1 <= order <= self.order:
            raise ValueError("bad truncation order")
        return DictNGramModel(
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
        """The ``.cflm`` file, format version 2, written from the dict tables:
        word ids number the vocabulary and <s> in code-point order, and each
        order's rows are its grams' id tuples, sorted. The rows go column by
        column as little-endian int32, the counts as little-endian int64,
        each zlib level 1, after the canonical JSON head."""
        ids = {w: i for i, w in enumerate(sorted(self.vocab | {SENT_START}))}
        head = {
            "order": self.order,
            "smoothing": self.smoothing,
            "vocab": sorted(self.vocab),
            "grams": [len(t) for t in self.tables],
            "discounts": [list(d) for d in self.discounts],
            "fallback": list(self.fallback),
            "metadata": self.metadata,
        }
        parts = [json.dumps(head, sort_keys=True, separators=(",", ":")).encode("ascii")]
        for k, table in enumerate(self.tables, start=1):
            rows = sorted((tuple(ids[w] for w in gram), count) for gram, count in table.items())
            columns = [row[j] for j in range(k) for row, _ in rows]
            parts.append(zlib.compress(struct.pack(f"<{len(columns)}i", *columns), 1))
            parts.append(zlib.compress(struct.pack(f"<{len(rows)}q", *(c for _, c in rows)), 1))
        Path(path).write_bytes(cflm_frame(parts))

    @classmethod
    def load(cls, path: str | Path) -> "DictNGramModel":
        """The model in a ``.cflm`` file ``save`` (or the engine) wrote."""
        parts = cflm_parts(Path(path).read_bytes())
        payload = json.loads(parts[0])
        # one str object per word, shared by every gram that contains it
        words = sorted(payload["vocab"] + [SENT_START])
        tables = []
        for k, n in enumerate(payload["grams"], start=1):
            ids = struct.unpack(f"<{n * k}i", zlib.decompress(parts[2 * k - 1]))
            counts = struct.unpack(f"<{n}q", zlib.decompress(parts[2 * k]))
            rows = zip(*(ids[j * n : (j + 1) * n] for j in range(k)))
            tables.append({tuple(words[i] for i in row): c for row, c in zip(rows, counts)})
        return cls(
            order=payload["order"],
            smoothing=payload["smoothing"],
            vocab=payload["vocab"],
            tables=tables,
            discounts=[tuple(d) for d in payload["discounts"]],
            fallback=list(payload["fallback"]),
            metadata=payload["metadata"],
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


def cflm_frame(parts) -> bytes:
    """A ``.cflm`` file of these parts (the head, then each order's
    compressed ids and counts): the magic, the version byte, each part after
    its 8-byte little-endian length, then the CRC-32 of all of that."""
    body = MAGIC + bytes([FORMAT_VERSION]) + b"".join(struct.pack("<Q", len(p)) + p for p in parts)
    return body + struct.pack("<I", zlib.crc32(body))


def cflm_parts(data: bytes) -> list[bytes]:
    """The parts of a ``.cflm`` file ``cflm_frame`` would write; its magic,
    version and CRC-32 must be right."""
    if data[:4] != MAGIC or data[4] != FORMAT_VERSION:
        raise ValueError("not a version-2 model file")
    if struct.unpack("<I", data[-4:])[0] != zlib.crc32(data[:-4]):
        raise ValueError("CRC-32 mismatch")
    parts, at = [], 5
    while at < len(data) - 4:
        (size,) = struct.unpack_from("<Q", data, at)
        parts.append(data[at + 8 : at + 8 + size])
        at += 8 + size
    return parts


# ---------------------------------------------------------------------------
# the array engine's ARPA text and dev scoring, one Python object per gram or
# per token


def join_grams(words, rows) -> list[str]:
    """The space-joined gram string of each id row; ``words[i]`` spells id i."""
    return list(map(" ".join, zip(*([words[i] for i in col] for col in rows.T.tolist()))))


def arpa_lines(probs, strings, fields) -> str:
    """One ARPA line per gram: log10 probability (-99 for zero), the gram,
    then its back-off field."""
    log10 = math.log10
    return "".join([f"{log10(p) if p > 0.0 else -99.0:.7f}\t{s}{field}\n"
                    for p, s, field in zip(probs, strings, fields)])


def backoffs(model, k: int, rows) -> list[str]:
    """The ARPA back-off field of each order-k id row of the array engine
    ``model``. A gram with no continuation at order k+1 backs off with
    weight 1 (no field); otherwise the weight is its discount mass as a
    context, or 0 (-99) for an unsmoothed model, which never backs off from
    a seen one."""
    fields = np.full(len(rows), "", object)
    if k < model.order:
        start = model._find(k + 1, rows)
        run = model.run_of[k][start[start >= 0]]
        mass = model.gamma_mass[k][run] / model.totals[k][run]
        bows = [-99.0] * len(run) if model.smoothing == "none" else map(math.log10, mass.tolist())
        fields[start >= 0] = [f"\t{bow:.7f}" for bow in bows]
    return fields.tolist()


def chunked_arpa(model, path: str | Path, chunk: int = 1 << 13) -> None:
    """The array engine's ARPA export, ``chunk`` grams of an order at a
    time, each line an f-string: every gram's probability is interpolated
    over its suffix's, which ``_find`` looks up one order down."""
    sizes = [len(model.tables[0]) + 2] + [len(t) for t in model.tables[1:]]  # + <unk>, <s>
    header = [f"# {key}={model.metadata[key]}" for key in sorted(model.metadata)]
    header += ["\\data\\", *(f"ngram {k}={c}" for k, c in enumerate(sizes, start=1)), ""]
    unigram = np.concatenate(([0, 0], model.counts[0]))  # <unk>, <s>, the words
    probs = model._interpolate(1, unigram, np.zeros(len(unigram), int), model._p0)
    probs[1] = 0.0  # <s>: never predicted
    special = np.array([[-1], [model.ids[SENT_START]]])  # <unk> has no id
    with open(path, "w", encoding="utf-8") as arpa:
        arpa.write("\n".join(header) + "\n\\1-grams:\n")
        arpa.write(arpa_lines(probs[:2].tolist(), [UNK, SENT_START], backoffs(model, 1, special)))
        probs = probs[2:]
        for k, (grams, count) in enumerate(zip(model.tables, model.counts), start=1):
            if k > 1:
                lower, probs = probs, np.empty(len(grams))
                arpa.write(f"\\{k}-grams:\n")
            for i in range(0, len(grams), chunk):
                rows = grams[i : i + chunk]
                if k > 1:
                    probs[i : i + chunk] = model._interpolate(
                        k, count[i : i + chunk], model.run_of[k - 1][i : i + chunk],
                        lower[model._find(k - 1, rows[:, 1:])])
                arpa.write(arpa_lines(probs[i : i + chunk].tolist(), join_grams(model.words, rows),
                                      backoffs(model, k, rows)))
            arpa.write("\n")
        arpa.write("\\end\\\n")


def engine_probs(model, queries) -> list[float]:
    """P(word | context) of the array engine ``model`` for each (context,
    word) pair, in order, as one batch of id rows through
    ``NGramModel._score``: the context truncated to its last ``order - 1``
    words, padded and unknown words -1, and each row's level one more than
    its context's length."""
    n, get = model.order, model.ids.get
    grams, levels = [], []
    for context, word in queries:
        ctx = [get(w, -1) for w in list(context)[1 - n :]] if n > 1 else []
        grams.append([-1] * (n - 1 - len(ctx)) + ctx + [get(word, -1)])
        levels.append(len(ctx) + 1)
    return model._score(np.array(grams, np.int32).reshape(-1, n), np.array(levels)).tolist()


def per_token_evaluate(model, dev_sentences, exclude_oov: bool = True,
                       oov_context: str = "break", probs=None) -> EvalReport:
    """``ngramlm.evaluate`` with one (history, word) query per scored token,
    all scored by one call of ``probs`` (the dict engine's ``model.probs``
    unless given). An OOV restarts the history from <s> under "break" and
    stands in it as <unk> under "keep"."""
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
    for p in (probs or model.probs)(queries):
        logsum += math.log(p) if p > 0.0 else float("-inf")
    return EvalReport(oov_rate=oov / total, perplexity=math.exp(-logsum / len(queries)),
                      total_tokens=total, oov_tokens=oov, scored_tokens=len(queries))
