"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion as it completes.
"""

import functools
import json
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from corpus_forge import ngramlm
from corpus_forge import retrieval as rt
from corpus_forge import splitter as sp
from corpus_forge.cli import main as cli_main
from corpus_forge.config import PipelineConfig
from corpus_forge.decontam import LmBook, build_heldout_index, contamination_rate, filter_corpus
from corpus_forge.manifest import read_manifest, read_tsv
from corpus_forge.pipeline import run_pipeline
from corpus_forge.segmenter import TokenStream, segment_stream
from corpus_forge.synth import SynthParams, synth_corpus

from oracles import (
    DictNGramModel,
    brute_force_segment_bounds,
    edit_script_minimum,
    enumerate_local_alignment_score,
    sliding_window_fivegrams,
)


def criterion(number, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number}: FAIL - {name}", flush=True)
                raise
            print(f"\nACCEPTANCE {number}: PASS - {name}", flush=True)
            return result

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# shared fixtures


def run_synth_pipeline(root, noise, params=None, until_stage=None, seed=17, **cfg_overrides):
    params = params or SynthParams(noise=noise)
    synth_corpus(root / "input", seed=seed, params=params)
    cfg = PipelineConfig(
        input_dir=str(root / "input"), output_dir=str(root / "out"), seed=seed,
        **cfg_overrides,
    )
    report = run_pipeline(cfg, until_stage=until_stage)
    return cfg, report


def load_truth(input_root, out_root):
    """segment_id -> (book_id, true word span) from the generator's sidecars."""
    input_root = Path(input_root)
    out_root = Path(out_root)
    norm_books = {
        p.stem: p.read_text(encoding="utf-8").split()
        for p in (out_root / "work" / "normalize").glob("*.txt")
    }
    chapter_tokens = {}
    chapter_truth = {}
    for path in (input_root / "tokens").glob("*.jsonl"):
        chapter_tokens[path.stem] = [
            json.loads(l) for l in path.read_text(encoding="utf-8").splitlines() if l
        ]
        chapter_truth[path.stem] = json.loads(
            (input_root / "truth" / f"{path.stem}.json").read_text(encoding="utf-8")
        )
    spans = {}
    seg_rows = read_manifest(out_root / "work" / "segment" / "segments.tsv")
    for row in seg_rows:
        toks = chapter_tokens[row.chapter_id]
        truth = chapter_truth[row.chapter_id]
        inside = [
            i
            for i, t in enumerate(toks)
            if t["s"] >= row.start_ms and t["e"] <= row.end_ms
        ]
        lo = truth["source_indices"][inside[0]]
        hi = truth["source_indices"][inside[-1]] + 1
        spans[row.segment_id] = (truth["book_id"], (lo, hi))
    return norm_books, spans


# ---------------------------------------------------------------------------
# criteria


@criterion(1, "synthetic end-to-end recovery at noise 0, runtime < 60 s")
def test_criterion_1_noiseless_recovery(noiseless_run):
    root, cfg, report, elapsed = noiseless_run
    assert elapsed < 60.0, f"end-to-end run took {elapsed:.1f}s"
    norm_books, truth = load_truth(cfg.input_dir, cfg.output_dir)
    seg_rows = read_manifest(Path(cfg.output_dir) / "work" / "segment" / "segments.tsv")
    _, cand_rows = read_tsv(Path(cfg.output_dir) / "work" / "retrieve" / "candidates.tsv")
    by_segment = {r[0]: r for r in cand_rows}
    assert len(by_segment) == len(seg_rows), "every segment must be retrieved"
    for row in seg_rows:
        book_id, (lo, hi) = truth[row.segment_id]
        cand = by_segment[row.segment_id]
        assert cand[1] == book_id
        assert (int(cand[2]), int(cand[3])) == (lo, hi), row.segment_id
        expected = " ".join(norm_books[book_id][lo:hi])
        assert cand[6] == expected, row.segment_id
        assert float(cand[4]) == 0.0  # WER 0 against the pseudo label


@criterion(2, "noise robustness: 0.15 accepted cleanly, 0.6 rejected, 0.40 boundary strict")
def test_criterion_2_noise_robustness(tmp_path):
    params = SynthParams(n_books=10, words_per_book=3000, speakers_per_gender=5, noise=0.15)
    cfg, _ = run_synth_pipeline(tmp_path / "n15", 0.15, params=params, until_stage="filter")
    norm_books, truth = load_truth(cfg.input_dir, cfg.output_dir)
    seg_rows = read_manifest(Path(cfg.output_dir) / "work" / "segment" / "segments.tsv")
    _, cand_rows = read_tsv(Path(cfg.output_dir) / "work" / "postprocess" / "candidates.tsv")
    accepted = {r[0]: r for r in cand_rows if r[5] == "true"}
    assert len(accepted) >= 0.95 * len(seg_rows)
    for seg_id, cand in accepted.items():
        book_id, (lo, hi) = truth[seg_id]
        truth_words = norm_books[book_id][lo:hi]
        assert rt.wer(cand[6].split(), truth_words) <= 0.15, seg_id

    params6 = SynthParams(n_books=10, words_per_book=3000, speakers_per_gender=5, noise=0.6)
    cfg6, _ = run_synth_pipeline(tmp_path / "n60", 0.6, params=params6, until_stage="filter")
    seg_rows6 = read_manifest(Path(cfg6.output_dir) / "work" / "segment" / "segments.tsv")
    _, cand_rows6 = read_tsv(
        Path(cfg6.output_dir) / "work" / "postprocess" / "candidates.tsv"
    )
    accepted6 = sum(1 for r in cand_rows6 if r[5] == "true")
    assert accepted6 <= 0.05 * len(seg_rows6)

    # the filter is strictly-greater-than at exactly 0.40
    exact = rt.accept_candidate("a b c d e".split(), "a b c x y".split(), threshold=0.40)
    assert exact.pseudo_wer == pytest.approx(0.40) and exact.accepted
    over = rt.accept_candidate("a b c d e".split(), "a b x y z".split(), threshold=0.40)
    assert over.pseudo_wer > 0.40 and not over.accepted


@criterion(3, "Smith-Waterman equals exhaustive enumeration on 500 seeded instances")
def test_criterion_3_smith_waterman_oracle():
    alphabet = ["a", "b", "c", "d"]
    for seed in range(500):
        rng = random.Random(seed)
        q = [rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
        r = [rng.choice(alphabet) for _ in range(rng.randint(1, 40))]
        got = rt.smith_waterman(q, r, match=2, mismatch=-1, gap=-1).score
        assert got == enumerate_local_alignment_score(q, r), (q, r)


@criterion(4, "WER equals brute-force edit-script minimum on 500 seeded pairs")
def test_criterion_4_wer_oracle():
    alphabet = ["a", "b", "c", "d"]
    for seed in range(500):
        rng = random.Random(10_000 + seed)
        hyp = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        ref = [rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
        assert rt.edit_distance(hyp, ref) == edit_script_minimum(hyp, ref), (hyp, ref)
        assert rt.wer(hyp, ref) == edit_script_minimum(hyp, ref) / len(ref)


def _random_stream(seed, n_tokens=150):
    rng = random.Random(seed)
    words, starts, ends = [], [], []
    t = rng.randint(0, 100)
    until_pause = rng.randint(6, 18)
    for i in range(n_tokens):
        dur = rng.randint(180, 520)
        words.append(f"w{i}")
        starts.append(t)
        ends.append(t + dur)
        until_pause -= 1
        gap = rng.randint(700, 1500) if until_pause == 0 else rng.randint(20, 320)
        if until_pause == 0:
            until_pause = rng.randint(6, 18)
        t += dur + gap
    return TokenStream(words, starts, ends)


@criterion(5, "segmentation bounds, oracle boundaries, and tiling on 100 seeded streams")
def test_criterion_5_segmentation():
    for seed in range(100):
        tokens = _random_stream(seed)
        result = segment_stream(tokens, 10_000, 20_000)
        spans, residual, dropped = brute_force_segment_bounds(
            list(zip(tokens.starts, tokens.ends)), 10_000, 20_000
        )
        assert dropped == []
        assert [(s.start, s.end) for s in result.segments] == spans
        got_res = (
            None if result.residual is None else (result.residual.start, result.residual.end)
        )
        assert got_res == residual
        for seg in result.segments:
            assert 10_000 <= seg.duration <= 20_000
        pieces = [(s.start, s.end) for s in result.segments]
        if got_res:
            pieces.append(got_res)
        assert pieces[0][0] == tokens.starts[0]
        assert pieces[-1][1] == tokens.ends[-1]
        for (_, a_end), (b_start, _) in zip(pieces, pieces[1:]):
            assert a_end == b_start


@criterion(6, "split and limited-supervision invariants on 50 seeded populations")
def test_criterion_6_split_invariants():
    for seed in range(50):
        rng = random.Random(seed)
        speakers = []
        segments = []
        chapters = []
        n = rng.randint(14, 50)
        for i in range(n):
            sid = f"s{i:03d}"
            gender = rng.choice("MF")
            n_chapters = rng.randint(1, 3)
            total = 0.0
            for c in range(n_chapters):
                cid = f"{sid}_ch{c}"
                chapters.append(sp.ChapterRef(cid, sid))
                for j in range(rng.randint(4, 40)):
                    dur = rng.uniform(10.0, 20.0)
                    segments.append((f"{cid}_{j:03d}", sid, gender, dur))
                    total += dur
            speakers.append(sp.SpeakerRecord(sid, gender, total))
        k = rng.randint(1, 2)
        recordings = {}
        for seg_id, sid, _, dur in segments:
            recordings.setdefault(sid, []).append((seg_id, dur))
        try:
            assignment = sp.partition_speakers(
                speakers, k, train_threshold=120.0, dev_test_cap=400.0,
                recordings=recordings, seed=seed,
            )
        except sp.SplitError:
            eligible = {
                g: sum(1 for s in speakers if s.gender == g and s.total_duration >= 120.0)
                for g in "MF"
            }
            assert min(eligible.values()) < 2 * k
            continue
        sp.enforce_chapter_exclusivity(assignment, chapters)
        parts = assignment.speaker_partition
        # zero speaker overlap and full coverage
        assert len(parts) == n
        by_part = {p: {s for s, q in parts.items() if q == p} for p in ("train", "dev", "test")}
        assert not (by_part["train"] & by_part["dev"])
        assert not (by_part["train"] & by_part["test"])
        assert not (by_part["dev"] & by_part["test"])
        gender_of = {s.speaker_id: s.gender for s in speakers}
        for g in "MF":
            assert (
                sum(1 for s in by_part["dev"] if gender_of[s] == g)
                == sum(1 for s in by_part["test"] if gender_of[s] == g)
                == k
            )
        # every chapter in exactly one partition
        assert len(assignment.chapter_partition) == len(chapters)
        for ch in chapters:
            assert assignment.chapter_partition[ch.chapter_id] == parts[ch.speaker_id]
        # limited supervision over the train rows
        train_segments = [
            (seg_id, sid, g, dur)
            for seg_id, sid, g, dur in segments
            if parts[sid] == "train"
        ]
        if not train_segments:
            continue
        sets = sp.make_limited_supervision(train_segments, seed=seed)
        union = frozenset().union(*sets.ten_minute)
        assert union == sets.one_hour
        assert sets.one_hour <= sets.ten_hour
        for i in range(6):
            for j in range(i + 1, 6):
                assert not (sets.ten_minute[i] & sets.ten_minute[j])


@criterion(7, "decontamination soundness on constructed fixtures")
def test_criterion_7_decontamination():
    rng = random.Random(70)
    vocab = [c + v + c2 for c in "bdfgklmnprst" for v in "aeiou" for c2 in "nrst"]
    stopwords = frozenset({"the", "of", "and"})
    heldout = [rng.choice(vocab) for _ in range(2000)]
    index = build_heldout_index([heldout], stopwords)

    body = [rng.choice(vocab) for _ in range(6000)]
    over_grams = sliding_window_fivegrams(body, stopwords)
    # plant > 1% of distinct 5-grams
    plant_hi = heldout[:100]
    book_hi = LmBook("hi", ("some", "title"), tuple(body[:3000] + plant_hi + body[3000:]))
    rate_hi = contamination_rate(book_hi.tokens, index)
    assert rate_hi > 0.01
    # plant < 1%
    plant_lo = heldout[500:525]
    book_lo = LmBook("lo", ("other", "title"), tuple(body[:3000] + plant_lo + body[3000:]))
    rate_lo = contamination_rate(book_lo.tokens, index)
    assert 0.0 < rate_lo < 0.01

    titled_1 = LmBook("t1", ("green", "hills", "rise"), tuple(rng.choice(vocab) for _ in range(500)))
    titled_2 = LmBook("t2", ("blue", "rivers", "fall"), tuple(rng.choice(vocab) for _ in range(500)))
    heldout_titles = [("green", "hills", "rises"), ("blue", "river", "falls")]
    # t1 at distance 1 (one substitution), t2 at distance 2
    kept, removed, report = filter_corpus(
        [book_hi, book_lo, titled_1, titled_2], heldout_titles, index, threshold=0.01
    )
    outcome = {r["book_id"]: (r["action"], r["reason"]) for r in report}
    assert outcome["hi"] == ("removed", "ngram-overlap")
    assert outcome["lo"] == ("kept", "")
    assert outcome["t1"] == ("removed", "title")
    assert outcome["t2"] == ("kept", "")


@criterion(8, "language model correctness: sums, hand-worked values, 5-gram vs 3-gram")
def test_criterion_8_language_models():
    # per-context probability sums over 50 sampled contexts per order
    rng = random.Random(80)
    vocab = [f"w{i}" for i in range(14)]
    corpus = [
        [rng.choice(vocab) for _ in range(rng.randint(1, 16))] for _ in range(400)
    ]
    model = ngramlm.train(corpus, 5)
    oracle = DictNGramModel.train(corpus, 5)
    events = sorted(model.vocab) + [ngramlm.UNK]
    for order_k in range(1, 6):
        contexts = sorted({g[:-1] for g in oracle.tables[order_k - 1]})
        for ctx in rng.sample(contexts, min(50, len(contexts))):
            total = sum(model.prob(w, ctx) for w in events)
            assert total == pytest.approx(1.0, abs=1e-6), (order_k, ctx)
            assert [model.prob(w, ctx) for w in events] == [oracle.prob(w, ctx) for w in events]

    # hand-worked order-2 Kneser-Ney values to 1e-9
    hand = ngramlm.train([["a", "a", "a", "a", "a", "b", "a", "b", "a", "b"]], 2)
    expected = {
        ("a", ()): F(11, 16), ("b", ()): F(3, 16), (ngramlm.UNK, ()): F(1, 8),
        ("a", ("a",)): F(37, 56), ("b", ("a",)): F(47, 168), (ngramlm.UNK, ("a",)): F(5, 84),
        ("a", ("b",)): F(27, 32), ("b", ("b",)): F(3, 32), (ngramlm.UNK, ("b",)): F(1, 16),
        ("a", ("<s>",)): F(43, 48), ("b", ("<s>",)): F(1, 16), (ngramlm.UNK, ("<s>",)): F(1, 24),
    }
    for (word, ctx), value in expected.items():
        assert hand.prob(word, ctx) == pytest.approx(float(value), abs=1e-9)

    # seeded order-3 Markov corpus: 5-gram dev perplexity < 3-gram
    def markov3(seed, n_sentences):
        r = random.Random(seed)
        vv = [f"m{i:02d}" for i in range(15)]
        out = []
        for _ in range(n_sentences):
            s = [r.choice(vv) for _ in range(3)]
            while len(s) < 12:
                i1, i2, i3 = (vv.index(w) for w in s[-3:])
                s.append(vv[(7 * i1 + 3 * i2 + 5 * i3 + r.choice((0, 1))) % 15])
            out.append(s)
        return out

    result = ngramlm.compare_orders(markov3(11, 600), markov3(12, 60), orders=(3, 5))
    assert result["reports"][5].perplexity < result["reports"][3].perplexity


@criterion(9, "two identical CLI runs produce byte-identical outputs")
def test_criterion_9_determinism(tmp_path):
    synth_corpus(
        tmp_path / "input", seed=17,
        params=SynthParams(n_books=8, words_per_book=1600, speakers_per_gender=3),
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"input_dir = {tmp_path / 'input'}\n"
        "seed = 17\n"
        "train_threshold_s = 200\n"
        "dev_test_cap_s = 300\n",
        encoding="utf-8",
    )
    for out in ("out_a", "out_b"):
        assert cli_main(["run", "--config", str(cfg_path), "--output", str(tmp_path / out)]) == 0
    a, b = tmp_path / "out_a", tmp_path / "out_b"
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    assert files_a, "run produced no files"
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


@criterion(10, "performance floor: retrieval < 50 ms over 10k shards, alignment < 5 ms")
def test_criterion_10_performance(noiseless_run):
    rng = random.Random(100)
    vocab = [c + v + c2 for c in "bdfgklmnprst" for v in "aeiou" for c2 in "nrst"]
    shards = []
    shard_words = []
    for i in range(10_000):
        words = tuple(rng.choice(vocab) for _ in range(60))
        shard_words.append(words)
        shards.append(rt.DocumentShard(shard_id=i, book_id="b", word_offset=0, words=words))
    index = rt.build_index(shards)
    target = list(shard_words[7321][10:50])
    timings = []
    for _ in range(5):
        t0 = time.perf_counter()
        result = rt.retrieve(index, target)
        timings.append(time.perf_counter() - t0)
    assert result.hits[0].shard.shard_id == 7321
    assert min(timings) < 0.050, f"retrieval took {min(timings) * 1000:.2f} ms"

    reference = [rng.choice(vocab) for _ in range(1250)]
    query = reference[600:650]
    timings = []
    for _ in range(5):
        t0 = time.perf_counter()
        aligned = rt.smith_waterman(query, reference)
        timings.append(time.perf_counter() - t0)
    assert aligned.score == 100
    assert min(timings) < 0.005, f"alignment took {min(timings) * 1000:.2f} ms"
