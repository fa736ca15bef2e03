"""Independent reference implementations used as test oracles.

Everything in here is deliberately written the dumb way (explicit walks,
enumeration, replayed rules) and stays decoupled from the package code it
checks.
"""

from __future__ import annotations

import unicodedata


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
    qnorm = math.sqrt(sum(w * w for w in qvec.values()))
    scores = []
    for vec in vectors:
        dot = sum(w * vec.get(g, 0.0) for g, w in qvec.items())
        norm = math.sqrt(sum(w * w for w in vec.values()))
        if qnorm == 0.0 or norm == 0.0:
            scores.append(0.0)
        else:
            scores.append(dot / (qnorm * norm))
    return scores


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
    hashable tokens. Returns (score, ref_span, query_span, ops) with ops as
    (kind, query_index, ref_index) triples; a zero score has no spans.
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
        return 0, (0, 0), (0, 0), ()
    candidates = []
    for end_i, end_j in np.argwhere(H == best).tolist():
        i, j, ops = end_i, end_j, []
        while H[i, j] > 0:
            s = match if q_ids[i - 1] == r_ids[j - 1] else mismatch
            if H[i, j] == H[i - 1, j - 1] + s:
                i, j = i - 1, j - 1
                ops.append(("match" if s == match else "substitute", i, j))
            elif H[i, j] == H[i - 1, j] + gap:
                i -= 1
                ops.append(("insert", i, None))
            else:
                j -= 1
                ops.append(("delete", None, j))
        candidates.append((j, end_j - j, i, end_j, end_i, tuple(ops[::-1])))
    rs, _span, qs, re_, qe, ops = min(candidates, key=lambda c: c[:5])
    return best, (rs, re_), (qs, qe), ops


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


def scan_replace_numbers(aligned, reference_words, pseudo_words):
    """Digit-word resolution by two nested index scans over the ops.

    An outer scan copies book words until it meets an insertion or an op
    on a digit-bearing book word; an inner scan then collects the whole
    block of such ops. A block with a digit word is replaced by its
    aligned pseudo words, a block of insertions alone adds nothing.
    """

    def has_digit(word):
        return any(c.isdigit() for c in word)

    reference_words = list(reference_words)
    pseudo_words = list(pseudo_words)
    out = []
    ops = aligned.ops
    i = 0
    while i < len(ops):
        op = ops[i]
        in_digit_block = op.kind == "insert" or (
            op.ref_index is not None and has_digit(reference_words[op.ref_index])
        )
        if not in_digit_block:
            if op.ref_index is not None:
                out.append(reference_words[op.ref_index])
            i += 1
            continue
        block = []
        digit_seen = False
        while i < len(ops):
            op = ops[i]
            if op.kind == "insert":
                block.append(op)
            elif op.ref_index is not None and has_digit(reference_words[op.ref_index]):
                block.append(op)
                digit_seen = True
            else:
                break
            i += 1
        if digit_seen:
            for op in block:
                if op.query_index is not None:
                    out.append(pseudo_words[op.query_index])
        else:
            for op in block:
                if op.ref_index is not None:
                    out.append(reference_words[op.ref_index])
    return out


def replay_wordform_rules(words, book_freq, threshold):
    """Direct restatement of the hyphen/apostrophe heuristics."""
    out = []
    for w in words:
        freq = book_freq.get(w, 0)
        if any(h in w for h in "-‐") :
            if freq < threshold:
                out.extend(p for p in w.replace("‐", "-").split("-") if p)
            else:
                out.append(w)
        elif "'" in w:
            if freq < threshold:
                stripped = w.replace("'", "")
                if book_freq.get(stripped, 0) < threshold:
                    out.append(w)
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
