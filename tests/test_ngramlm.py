import json
import math
import random
import re
import tracemalloc
import zlib
from fractions import Fraction as F

import numpy as np
import pytest

from corpus_forge import ngramlm
from corpus_forge.ngramlm import (
    SENT_START,
    UNK,
    NGramModel,
    evaluate,
    higher_order_not_worse,
    train,
)
from oracles import (DictNGramModel, cflm_frame, cflm_parts, chunked_arpa, engine_probs, per_order_files,
                     per_order_train, per_token_evaluate)


def prob(model, word, context=()):
    """P(word | context) as a batch of one through ``engine_probs``."""
    return engine_probs(model, [(context, word)])[0]


def perplexity_by_order(corpus, dev, orders):
    """Perplexity per order and whether the highest is no worse, computed
    as the lm_eval stage does: ``train``, ``evaluate``,
    ``higher_order_not_worse``."""
    ppl = {order: evaluate(train(corpus, order), dev).perplexity for order in orders}
    return ppl, higher_order_not_worse(ppl)

HAND_CORPUS = [["a", "a", "a", "a", "a", "b", "a", "b", "a", "b"]]

# hand-worked interpolated modified Kneser-Ney values for HAND_CORPUS at
# order 2, derived by hand before the implementation:
#   adjusted counts: (<s>,a)=1 (a,a)=4 (a,b)=3 (b,a)=2; continuation a=3 b=1
#   order-2 count-of-counts n1..n4 = 1,1,1,1 -> Y=1/3, D=(1/3, 1, 5/3)
#   order-1 count-of-counts degenerate (n2=0) -> fallback D=0.75
#   gamma: () -> 3/8; (a) -> 10/21; (b) -> 1/2; (<s>) -> 1/3; base 1/(V+1)=1/3
HAND_VALUES = {
    ("a", ()): F(11, 16),
    ("b", ()): F(3, 16),
    (UNK, ()): F(1, 8),
    ("a", ("a",)): F(37, 56),
    ("b", ("a",)): F(47, 168),
    (UNK, ("a",)): F(5, 84),
    ("a", ("b",)): F(27, 32),
    ("b", ("b",)): F(3, 32),
    (UNK, ("b",)): F(1, 16),
    ("a", (SENT_START,)): F(43, 48),
    ("b", (SENT_START,)): F(1, 16),
    (UNK, (SENT_START,)): F(1, 24),
}


def test_hand_worked_kneser_ney_values_to_1e9():
    model = train(HAND_CORPUS, 2)
    assert model.discounts[1] == pytest.approx((F(1, 3), 1.0, F(5, 3)))
    assert model.fallback == [True, False]
    for (word, ctx), expected in HAND_VALUES.items():
        assert prob(model, word, ctx) == pytest.approx(float(expected), abs=1e-9), (
            word,
            ctx,
        )


def test_unseen_context_descends_to_unigram():
    model = train(HAND_CORPUS, 2)
    assert prob(model, "a", ("zzz",)) == pytest.approx(11 / 16, abs=1e-12)


def test_repeated_word_order3_dominates_and_normalizes():
    model = train([["a", "a", "a"]], 3)
    p_a = prob(model, "a", ("a", "a"))
    p_b = prob(model, "b", ("a", "a"))
    assert p_a > p_b
    total = sum(prob(model, w, ("a", "a")) for w in sorted(model.vocab) + [UNK])
    assert total == pytest.approx(1.0, abs=1e-6)


def test_order1_uniform_corpus_closed_form():
    # V distinct words, one occurrence each: count-of-counts degenerate,
    # fallback discount 0.75 -> P(w) = 0.25/V + 0.75/(V+1) exactly
    v = 40
    corpus = [[f"u{i}"] for i in range(v)]
    model = train(corpus, 1)
    expected_p = 0.25 / v + 0.75 / (v + 1)
    for i in range(v):
        assert prob(model, f"u{i}") == pytest.approx(expected_p, abs=1e-12)
    report = evaluate(model, corpus)
    assert report.perplexity == pytest.approx(1.0 / expected_p, rel=1e-9)
    # V * (1 + o(1)) behavior
    assert report.perplexity == pytest.approx(v, rel=0.05)


def test_context_sums_to_one_over_sampled_contexts():
    rng = random.Random(13)
    vocab = [f"w{i}" for i in range(12)]
    corpus = [
        [rng.choice(vocab) for _ in range(rng.randint(1, 14))] for _ in range(300)
    ]
    model = train(corpus, 3)
    oracle = DictNGramModel.train(corpus, 3)
    events = sorted(model.vocab) + [UNK]
    for order_k in (1, 2, 3):
        contexts = sorted({g[:-1] for g in oracle.tables[order_k - 1]})
        sample = rng.sample(contexts, min(50, len(contexts)))
        for ctx in sample:
            total = sum(prob(model, w, ctx) for w in events)
            assert total == pytest.approx(1.0, abs=1e-6), (order_k, ctx)
            for w in sorted(model.vocab):
                assert prob(model, w, ctx) > 0.0
            assert [prob(model, w, ctx) for w in events] == [oracle.prob(w, ctx) for w in events]


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        train([], 3)
    with pytest.raises(ValueError):
        train([[]], 3)
    with pytest.raises(ValueError):
        train([["a"]], 0)


# -- evaluation -----------------------------------------------------------------


def test_oov_rate_half():
    model = train([["a", "b", "a", "b"]], 2)
    report = evaluate(model, [["a", "c", "b", "c"]])
    assert report.oov_rate == pytest.approx(0.5)
    assert report.oov_tokens == 2
    assert report.total_tokens == 4


def test_unsmoothed_single_word_perplexity_one():
    corpus = [["a", "a", "a", "a"]]
    model = train(corpus, 1, smoothing="none")
    report = evaluate(model, corpus)
    assert report.perplexity == pytest.approx(1.0, abs=1e-12)


def test_unsmoothed_training_perplexity_below_uniform_bound():
    rng = random.Random(3)
    vocab = [f"w{i}" for i in range(30)]
    corpus = [
        [rng.choice(vocab) for _ in range(rng.randint(2, 12))] for _ in range(80)
    ]
    model = train(corpus, 2, smoothing="none")
    report = evaluate(model, corpus)
    assert report.perplexity <= len(model.vocab) + 1e-9


def test_oov_context_break_vs_keep():
    model = train([["a", "b", "c", "a", "b", "c"]], 3)
    dev = [["a", "zzz", "b", "c"]]
    broke = evaluate(model, dev, oov_context="break")
    kept = evaluate(model, dev, oov_context="keep")
    assert broke.oov_tokens == kept.oov_tokens == 1
    # 'break' restarts from the sentence-start state; 'keep' backs off
    # through the unknown position; both are valid, just different
    assert broke.perplexity != kept.perplexity
    with pytest.raises(ValueError):
        evaluate(model, dev, oov_context="bogus")


def test_include_oov_scores_unknown_mass():
    model = train([["a", "b", "a", "b"]], 2)
    dev = [["a", "zzz", "b"]]
    excl = evaluate(model, dev, exclude_oov=True)
    incl = evaluate(model, dev, exclude_oov=False)
    assert excl.scored_tokens == 2
    assert incl.scored_tokens == 3
    assert incl.perplexity > excl.perplexity  # unknown mass is expensive


@pytest.mark.parametrize("oov_context", ["break", "keep"])
@pytest.mark.parametrize("exclude_oov", [True, False])
def test_evaluate_scores_as_the_per_token_oracle(exclude_oov, oov_context):
    # OOVs open and close sentences and follow each other, and sentences are
    # shorter than the order; no model holds "<s>" or "<unk>" as a word
    corpus = markov3_corpus(50, 120)
    words = sorted({w for s in corpus for w in s})
    oovs = ["zz1", "zz2", SENT_START, UNK]
    dev = [["zz1", "m01", "m02"], ["m02", "m03", "zz2"], [SENT_START, UNK, "zz1", "m03", "m04"],
           ["m05"], ["zz2"], [], ["m06", "zz1", "zz2", "m07"]]
    rng = random.Random(51)
    dev += [[rng.choice(words + oovs) for _ in range(rng.randint(1, 9))] for _ in range(60)]
    for order, smoothing in [(1, "kn"), (2, "kn"), (3, "kn"), (5, "kn"), (3, "none")]:
        model = train(corpus, order, smoothing=smoothing)
        report = evaluate(model, dev, exclude_oov, oov_context)
        expected = per_token_evaluate(model, dev, exclude_oov, oov_context,
                                      probs=lambda queries: engine_probs(model, queries))
        assert report == expected, (order, smoothing)
        assert report.oov_tokens > 10


def test_empty_dev_rejected():
    model = train(HAND_CORPUS, 2)
    with pytest.raises(ValueError):
        evaluate(model, [])
    with pytest.raises(ValueError):
        evaluate(model, [[]])


# -- order comparisons -------------------------------------------------------------


def test_zero_bigram_overlap_gives_equal_perplexities():
    train_sents = [["a", "b", "c", "d"], ["b", "c", "d", "a"], ["c", "d", "a", "b"]]
    # dev words are in-vocabulary but no dev bigram (nor sentence start)
    # ever occurs in training: both orders back off identically
    dev = [["d", "b"], ["d", "c", "a", "c"], ["d", "d", "b", "a"]]
    train_bigrams = set()
    for s in train_sents:
        train_bigrams |= set(zip([SENT_START] + s, s))
    for s in dev:
        for g in zip([SENT_START] + s, s):
            assert g not in train_bigrams
    ppl, _ = perplexity_by_order(train_sents, dev, orders=(3, 5))
    assert ppl[5] == pytest.approx(ppl[3], abs=1e-6)


def markov3_corpus(seed, n_sentences, words_per_sentence=12, v=15):
    rng = random.Random(seed)
    vocab = [f"m{i:02d}" for i in range(v)]
    sentences = []
    for _ in range(n_sentences):
        s = [rng.choice(vocab) for _ in range(3)]
        while len(s) < words_per_sentence:
            i1, i2, i3 = (vocab.index(w) for w in s[-3:])
            nxt = (7 * i1 + 3 * i2 + 5 * i3 + rng.choice((0, 1))) % v
            s.append(vocab[nxt])
        sentences.append(s)
    return sentences


def test_markov3_corpus_5gram_beats_3gram():
    corpus = markov3_corpus(11, 600)
    dev = markov3_corpus(12, 60)
    ppl, not_worse = perplexity_by_order(corpus, dev, orders=(3, 5))
    assert ppl[5] < ppl[3]
    assert not_worse


def test_emptied_top_order_matches_truncated_view_exactly():
    corpus = markov3_corpus(21, 120)
    dev = markov3_corpus(22, 20)
    full = DictNGramModel.train(corpus, 3)
    gutted = DictNGramModel(
        order=3,
        smoothing=full.smoothing,
        vocab=full.vocab,
        tables=[full.tables[0], full.tables[1], {}],
        discounts=full.discounts,
        fallback=full.fallback,
    )
    lower = full.truncated(2)
    p_gutted = per_token_evaluate(gutted, dev).perplexity
    p_lower = per_token_evaluate(lower, dev).perplexity
    assert p_gutted == p_lower  # exact: unseen contexts descend untouched
    # the engine, built from the same arrays with an empty top order or
    # without it, gives the oracle's value exactly
    engine = train(corpus, 3)
    empty = [np.zeros((0, 3), np.int32)], [np.zeros(0, np.int64)]
    engine_gutted = NGramModel(3, engine.smoothing, engine.vocab, engine.tables[:2] + empty[0],
                               engine.counts[:2] + empty[1], engine.discounts, engine.fallback)
    engine_lower = NGramModel(2, engine.smoothing, engine.vocab, engine.tables[:2],
                              engine.counts[:2], engine.discounts[:2], engine.fallback[:2])
    assert evaluate(engine_gutted, dev).perplexity == p_gutted
    assert evaluate(engine_lower, dev).perplexity == p_lower


# -- serialization -------------------------------------------------------------------


def test_model_files_byte_identical_across_runs(tmp_path):
    corpus = markov3_corpus(31, 100)
    a = tmp_path / "a.cflm"
    b = tmp_path / "b.cflm"
    train(corpus, 3, metadata={"language": "en"}).save(a, tmp_path / "a.arpa")
    train(list(corpus), 3, metadata={"language": "en"}).save(b, tmp_path / "b.arpa")
    assert a.read_bytes() == b.read_bytes()


def test_one_shot_corpus_writes_the_bytes_of_a_list(tmp_path):
    """A corpus read once, as a generator of word iterators with blank
    sentences among them, gives the files of the same corpus as a list."""
    corpus = markov3_corpus(32, 120) + [[]]
    for order in (1, 3, 5):
        train(corpus, order).save(tmp_path / "list.cflm", tmp_path / "list.arpa")
        train((iter(s) for s in corpus), order).save(tmp_path / "once.cflm", tmp_path / "once.arpa")
        for suffix in ("cflm", "arpa"):
            assert (tmp_path / f"once.{suffix}").read_bytes() == (tmp_path / f"list.{suffix}").read_bytes()


def test_save_load_round_trip(tmp_path):
    corpus = markov3_corpus(32, 80)
    model = train(corpus, 3, metadata={"language": "en"})
    path = tmp_path / "m.cflm"
    model.save(path, tmp_path / "m.arpa")
    loaded = NGramModel.load(path)
    assert loaded.order == 3
    assert loaded.vocab == model.vocab
    for k in range(3):
        assert np.array_equal(loaded.tables[k], model.tables[k])
        assert np.array_equal(loaded.counts[k], model.counts[k])
    assert loaded.discounts == [tuple(d) for d in model.discounts]
    # the dict tables round-trip too, and the oracle writes the same bytes
    oracle = DictNGramModel.train(corpus, 3, metadata={"language": "en"})
    oracle.save(tmp_path / "oracle.cflm")
    assert DictNGramModel.load(tmp_path / "oracle.cflm").tables == oracle.tables
    assert (tmp_path / "oracle.cflm").read_bytes() == path.read_bytes()
    rng = random.Random(1)
    vocab = sorted(model.vocab)
    for _ in range(100):
        ctx = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 2)))
        w = rng.choice(vocab)
        assert prob(loaded, w, ctx) == prob(model, w, ctx)


def test_load_rejects_junk(tmp_path):
    path = tmp_path / "junk.cflm"
    path.write_bytes(b"not a model")
    with pytest.raises(ValueError):
        NGramModel.load(path)


def parse_arpa(path):
    probs = {}
    bows = {}
    section = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("\\") and "-grams:" in line:
            section = int(line[1 : line.index("-")])
            continue
        if not line or line.startswith(("\\", "ngram ", "#")):
            continue
        if section == 0:
            continue  # arbitrary preamble before the data marker
        parts = line.split("\t")
        gram = tuple(parts[1].split(" "))
        assert len(gram) == section
        probs[gram] = float(parts[0])
        if len(parts) == 3:
            bows[gram] = float(parts[2])
    return probs, bows


def arpa_prob(probs, bows, ctx, word):
    ctx = tuple(ctx)
    while True:
        gram = ctx + (word,)
        if gram in probs:
            return 10.0 ** probs[gram]
        if not ctx:
            raise KeyError(word)
        scale = 10.0 ** bows.get(ctx, 0.0)
        return scale * arpa_prob(probs, bows, ctx[1:], word)


def test_arpa_export_reproduces_model_probabilities(tmp_path):
    corpus = markov3_corpus(33, 120)
    model = train(corpus, 3)
    path = tmp_path / "m.arpa"
    model.save(tmp_path / "m.cflm", path)
    probs, bows = parse_arpa(path)
    assert (UNK,) in probs and (SENT_START,) in probs
    rng = random.Random(5)
    vocab = sorted(model.vocab)
    oracle_tables = DictNGramModel.train(corpus, 3).tables
    contexts = [()] + [g[:-1] for g in rng.sample(sorted(oracle_tables[2]), 20)]
    contexts += [tuple(rng.choice(vocab) for _ in range(2)) for _ in range(20)]
    for ctx in contexts:
        for w in rng.sample(vocab, 5) + [UNK]:
            expected = prob(model, w, ctx)
            got = arpa_prob(probs, bows, ctx, w)
            assert got == pytest.approx(expected, rel=2e-6), (ctx, w)


def test_arpa_header_counts_match_body(tmp_path):
    model = train(markov3_corpus(34, 60), 3)
    path = tmp_path / "m.arpa"
    model.save(tmp_path / "m.cflm", path)
    lines = path.read_text(encoding="utf-8").splitlines()
    declared = {}
    for line in lines:
        if line.startswith("ngram "):
            k, n = line[6:].split("=")
            declared[int(k)] = int(n)
    probs, _ = parse_arpa(path)
    by_order = {}
    for gram in probs:
        by_order[len(gram)] = by_order.get(len(gram), 0) + 1
    assert declared == by_order


def test_arpa_unigrams_are_unique_and_counted(tmp_path):
    model = train(markov3_corpus(34, 60), 3)
    path = tmp_path / "m.arpa"
    model.save(tmp_path / "m.cflm", path)
    lines = path.read_text(encoding="utf-8").splitlines()
    declared = int(next(line for line in lines if line.startswith("ngram 1=")).split("=")[1])
    start = lines.index("\\1-grams:") + 1
    unigrams = [line.split("\t")[1] for line in lines[start : lines.index("", start)]]
    assert len(unigrams) == declared
    assert len(set(unigrams)) == len(unigrams)
    assert {SENT_START, UNK} <= set(unigrams)


def arpa_fields(path):
    """{gram: (probability field, backoff field or None)} of an ARPA file."""
    fields = {}
    section = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("\\") and "-grams:" in line:
            section = int(line[1 : line.index("-")])
            continue
        if section == 0 or not line or line.startswith("\\"):
            continue
        parts = line.split("\t")
        gram = tuple(parts[1].split(" "))
        assert len(gram) == section and gram not in fields
        fields[gram] = (parts[0], parts[2] if len(parts) == 3 else None)
    return fields


@pytest.mark.parametrize("smoothing", ["kn", "none"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_arpa_lines_equal_recursive_model_exactly(tmp_path, order, smoothing):
    model = DictNGramModel.train(markov3_corpus(35, 80), order, smoothing=smoothing)
    assert any(model.fallback)  # the flat 0.75 discount is exercised
    path = tmp_path / "m.arpa"
    model.to_arpa(path)
    fields = arpa_fields(path)
    expected_grams = {(UNK,), (SENT_START,)} | {(w,) for w in model.vocab}
    for table in model.tables[1:]:
        expected_grams |= set(table)
    assert set(fields) == expected_grams
    for gram, (prob_field, bow_field) in fields.items():
        k = len(gram)
        p = 0.0 if gram == (SENT_START,) else model._p(k, gram[:-1], gram[-1])
        assert prob_field == (f"{math.log10(p):.7f}" if p > 0.0 else "-99.0000000"), gram
        tot = model.totals[k].get(gram) if k < order else None
        if not tot:
            assert bow_field is None, gram
        elif smoothing == "none":  # an unsmoothed model never backs off from a seen context
            assert bow_field == "-99.0000000", gram
        else:
            assert bow_field == f"{math.log10(model.gamma_mass[k][gram] / tot):.7f}", gram
    # the level-wise values themselves equal the recursive ones, bit for bit
    lower = {(w,): model._p(1, (), w) for w in model.vocab}
    for k in range(2, order + 1):
        lower = model._level_probs(k, lower)
        for gram, p in lower.items():
            assert p == model._p(k, gram[:-1], gram[-1]), gram
    # the array engine writes the oracle's file byte for byte
    engine_path = tmp_path / "engine.arpa"
    engine = train(markov3_corpus(35, 80), order, smoothing=smoothing)
    engine.save(tmp_path / "engine.cflm", engine_path)
    assert engine_path.read_bytes() == path.read_bytes()


# words of WIDE bytes are padded; of WIDE + 1 and of 600 bytes, spliced in
ARPA_WORDS = ["a", "b", "café", "straße", "zz", "é", "\U0001F600", "y" * ngramlm.WIDE,
              "ü" * (ngramlm.WIDE // 2) + "x", "ß" * 300]


@pytest.mark.parametrize("smoothing", ["kn", "none"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_arpa_blocks_write_the_per_gram_oracle_lines(tmp_path, monkeypatch, order, smoothing):
    # blocks of 1 and 3 rows put a seam between every two grams and inside
    # every order; the oracle formats each line as one f-string
    rng = random.Random(60 + order)
    corpus = [[rng.choice(ARPA_WORDS) for _ in range(rng.randint(1, 8))] for _ in range(40)]
    model = train(corpus, order, smoothing=smoothing, metadata={"language": "xx", "note": "straße"})
    assert sum(map(len, model.tables)) > 3 * order
    chunked_arpa(model, tmp_path / "oracle.arpa")
    expected = (tmp_path / "oracle.arpa").read_bytes()
    assert "café".encode() in expected and ("ß" * 300).encode() in expected
    for block in (1, 3, ngramlm.BLOCK):
        monkeypatch.setattr(ngramlm, "BLOCK", block)
        model.save(tmp_path / "m.cflm", tmp_path / "m.arpa")
        assert (tmp_path / "m.arpa").read_bytes() == expected, block


def test_fixed_point_spells_what_python_formats():
    # x * 1e7 of an odd multiple of 2^-8 is a tie; Python rounds it half to
    # even, as it does every exact binary value
    ties = -np.arange(1, 2561, 2) / 256
    edges = [-0.00390625, 0.0, -0.0, -1e-9, -4.9e-8, -5e-8, 5e-8, -6e-8, -99.0, 99.0, 1.0,
             -12.3456789, -123.45678915, -999.9999999, -999.99999994, -0.5, -0.05]
    rng = np.random.default_rng(8)
    values = np.concatenate([
        ties, np.nextafter(ties, 0), np.nextafter(ties, -np.inf), edges,
        np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf),
        -rng.random(20_000) * 10,  # log10 probabilities
        -rng.random(5_000) * 999,  # two- and three-digit whole parts
        rng.normal(0, 1e-7, 5_000),  # about zero, either sign
        -10.0 ** -rng.uniform(0, 9, 5_000)])
    out = np.zeros((len(values), 12), np.uint8)
    ngramlm._fixed_point(values, out)
    spelled = [row.tobytes().replace(b"\0", b"").decode() for row in out]
    assert spelled == [f"{x:.7f}" for x in values.tolist()]


def test_save_holds_the_cflm_parts_then_two_orders_and_one_block(tmp_path, monkeypatch):
    # beyond the model, save holds the compressed .cflm parts, one column of
    # ids and at most two zlib deflate states (256 KiB of window and hash
    # chains each); then, for the ARPA text, two orders' probabilities and
    # one block of 256 rows: its byte matrix of 13 + 5 * 5 + 13 columns, the
    # copies that drop the NULs, and some twenty numpy and Python values a row
    monkeypatch.setattr(ngramlm, "BLOCK", 256)
    rng = random.Random(9)
    words = [f"w{i}" for i in range(200)]
    model = train([[rng.choice(words) for _ in range(8)] for _ in range(4000)], 5)
    assert min(map(len, model.tables[1:])) >= 64 * ngramlm.BLOCK
    cflm_peak, arpa_text = [], ngramlm._arpa_text

    def first_block_ends_the_cflm(*args):
        if not cflm_peak:
            cflm_peak.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        return arpa_text(*args)

    monkeypatch.setattr(ngramlm, "_arpa_text", first_block_ends_the_cflm)
    tracemalloc.start()
    try:
        model.save(tmp_path / "m.cflm", tmp_path / "m.arpa")
        arpa_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    parts = (tmp_path / "m.cflm").stat().st_size + 4 * max(map(len, model.tables))
    assert cflm_peak[0] <= parts + 2 * 262 * 1024, (cflm_peak, parts)
    two_orders = 8 * max(len(a) + len(b) for a, b in zip(model.tables, model.tables[1:]))
    assert arpa_peak <= two_orders + 96 * 1024, (arpa_peak, two_orders)


def test_save_holds_a_very_long_word_once_per_use(tmp_path, monkeypatch):
    # a 20 000-byte word, padded into every row of a block and every entry of
    # the spelling table, would take 20 000 bytes a column; spliced in, it
    # costs what the ARPA text holds of it, plus the one copy save keeps
    monkeypatch.setattr(ngramlm, "BLOCK", 256)
    rng = random.Random(9)
    words, long = [f"w{i}" for i in range(200)], "L" * 20_000
    corpus = [[rng.choice(words) for _ in range(8)] for _ in range(4000)]
    for sentence in corpus[::1000]:
        sentence[3] = long
    model = train(corpus, 5)
    uses = max(np.count_nonzero(table == model.ids[long]) for table in model.tables)
    tracemalloc.start()
    try:
        model.save(tmp_path / "m.cflm", tmp_path / "m.arpa")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "m.arpa").read_bytes().count(long.encode()) == sum(
        np.count_nonzero(table == model.ids[long]) for table in model.tables)
    parts = (tmp_path / "m.cflm").stat().st_size + 4 * max(map(len, model.tables))
    two_orders = 8 * max(len(a) + len(b) for a, b in zip(model.tables, model.tables[1:]))
    budget = max(parts + 2 * 262 * 1024, two_orders + 96 * 1024) + (3 * uses + 2) * len(long)
    assert peak <= budget, (peak, budget, uses)


def test_unsmoothed_arpa_writes_zero_unknown_probability(tmp_path):
    path = tmp_path / "m.arpa"
    train([["a", "b", "a"], ["b", "c"]], 2, smoothing="none").save(tmp_path / "m.cflm", path)
    fields = arpa_fields(path)
    assert fields[(UNK,)] == ("-99.0000000", None)
    assert fields[("a",)][0] == f"{math.log10(2 / 5):.7f}"


@pytest.mark.parametrize("smoothing", ["kn", "none"])
@pytest.mark.parametrize(
    "corpus,order",
    [([["a", "b", "a"], ["b", "c"]], 2), (markov3_corpus(37, 60), 3)],
    ids=["tiny", "markov3"],
)
def test_arpa_round_trip_reproduces_every_probability(tmp_path, corpus, order, smoothing):
    model = train(corpus, order, smoothing=smoothing)
    path = tmp_path / "m.arpa"
    model.save(tmp_path / "m.cflm", path)
    probs, bows = parse_arpa(path)
    words = sorted(model.vocab) + [UNK]
    oracle = DictNGramModel.train(corpus, order, smoothing=smoothing)
    contexts = {()} | {g[:-1] for table in oracle.tables for g in table}
    contexts |= {(w,) for w in words} | {(SENT_START, w) for w in words}
    for ctx in sorted(contexts):
        for w in words:
            expected = prob(model, w, ctx)
            assert arpa_prob(probs, bows, ctx, w) == pytest.approx(expected, abs=1e-6), (ctx, w)
            assert expected == oracle.prob(w, ctx), (ctx, w)


def test_save_load_save_byte_identical_and_words_shared(tmp_path):
    model = train(markov3_corpus(36, 60), 4, metadata={"language": "en"})
    first = tmp_path / "a.cflm"
    second = tmp_path / "b.cflm"
    model.save(first, tmp_path / "a.arpa")
    NGramModel.load(first).save(second, tmp_path / "b.arpa")
    assert first.read_bytes() == second.read_bytes()
    # the dict oracle reads the engine's file, writes it back unchanged and
    # shares one str per word
    loaded = DictNGramModel.load(first)
    loaded.save(second)
    assert first.read_bytes() == second.read_bytes()
    canonical = {w: w for w in loaded.vocab}
    canonical[SENT_START] = SENT_START
    for table in loaded.tables:
        for gram in table:
            for word in gram:
                assert word is canonical[word], gram


@pytest.mark.parametrize("seed,n_sentences,order", [(32, 80, 3), (11, 600, 5)])
def test_loaded_model_equals_trained_model_on_every_stored_gram(tmp_path, seed, n_sentences, order):
    model = train(markov3_corpus(seed, n_sentences), order)
    model.save(tmp_path / "m.cflm", tmp_path / "trained.arpa")
    loaded = NGramModel.load(tmp_path / "m.cflm")
    words = sorted(model.vocab) + [UNK]
    queries = [((), w) for w in words] + [((SENT_START,), w) for w in words]
    for table in model.tables:
        for row in table.tolist():
            gram = [model.words[i] for i in row]
            queries.append((tuple(gram[:-1]), gram[-1]))
    expected = engine_probs(model, queries)
    assert engine_probs(loaded, queries) == expected
    for (context, word), p in zip(queries, expected):
        assert prob(model, word, context) == p, (context, word)
    loaded.save(tmp_path / "loaded.cflm", tmp_path / "loaded.arpa")
    assert (tmp_path / "trained.arpa").read_bytes() == (tmp_path / "loaded.arpa").read_bytes()


@pytest.mark.parametrize("word", [SENT_START, UNK])
def test_train_refuses_reserved_word(word):
    # the model writes its own <s> and <unk> entries; a corpus copy of
    # either would repeat that unigram in the ARPA file
    with pytest.raises(ValueError, match=re.escape(repr(word))):
        train([["a", word, "b"], ["a", "b"]], 2)


@pytest.mark.parametrize("word", ["tab\tbed", "line\nbreak", "nul\x00", "\x1f", "two words"])
def test_train_refuses_word_the_gram_order_cannot_hold(word):
    # the space-joined gram strings sort like the id rows only while no word
    # holds a character at or below U+0020
    with pytest.raises(ValueError, match=re.escape(repr(word))):
        train([["ok", word, "ok"]], 2)


ESCAPED_WORDS = ["a", "a!", "ab", "é", "ß", 'say"', "back\\slash", "\U0001F600", "zz"]
RAW_WORDS = ["a", "a!", "ab", "zz"]  # json.dumps leaves each one as it is


@pytest.mark.parametrize("smoothing", ["kn", "none"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_escaped_words_write_the_oracle_bytes(tmp_path, monkeypatch, order, smoothing):
    # a 7-row BLOCK splits the ARPA orders into many blocks, and a 7-run
    # CHUNK the discount masses; words that JSON escapes in the head and
    # words it leaves alone
    metadata = {"language": "xx", "note": 'ß "q" \\ \U0001F600'}
    chunks = (ngramlm.CHUNK, 7)
    for words in (ESCAPED_WORDS, RAW_WORDS):
        rng = random.Random(40 + order)
        corpus = [[rng.choice(words) for _ in range(rng.randint(1, 9))] for _ in range(80)]
        engine = train(corpus, order, smoothing=smoothing, metadata=metadata)
        oracle = DictNGramModel.train(corpus, order, smoothing=smoothing, metadata=metadata)
        oracle.save(tmp_path / "oracle.cflm")
        oracle.to_arpa(tmp_path / "oracle.arpa")
        assert set(words) <= engine.vocab
        for chunk in chunks:
            monkeypatch.setattr(ngramlm, "CHUNK", chunk)
            monkeypatch.setattr(ngramlm, "BLOCK", chunk)
            state = dict(vars(engine))
            engine.save(tmp_path / "engine.cflm", tmp_path / "engine.arpa")
            # saving holds on to nothing: a cache cannot come back
            assert vars(engine).keys() == state.keys()
            assert all(vars(engine)[key] is value for key, value in state.items())
            for ext in ("cflm", "arpa"):
                engine_bytes = (tmp_path / f"engine.{ext}").read_bytes()
                assert engine_bytes == (tmp_path / f"oracle.{ext}").read_bytes(), (words, chunk, ext)
            assert_same_model(NGramModel.load(tmp_path / "engine.cflm"), engine)


def assert_same_model(loaded, model):
    """Every table, count, discount, fallback flag and metadata entry of
    ``loaded`` equals ``model``'s, array dtypes and shapes included."""
    assert loaded.words == model.words
    assert (loaded.order, loaded.smoothing) == (model.order, model.smoothing)
    assert len(loaded.tables) == len(loaded.counts) == model.order
    for mine, theirs in zip(loaded.tables + loaded.counts, model.tables + model.counts):
        assert (mine.dtype, mine.shape) == (theirs.dtype, theirs.shape)
        assert np.array_equal(mine, theirs)
    assert loaded.discounts == model.discounts
    assert loaded.fallback == model.fallback
    assert loaded.metadata == model.metadata


def test_empty_highest_order_table_round_trips(tmp_path):
    # no sentence is long enough for a trigram: the last table is empty
    model = train([["a"], ["b"]], 3)
    assert model.tables[2].shape == (0, 3)
    model.save(tmp_path / "m.cflm", tmp_path / "m.arpa")
    parts = cflm_parts((tmp_path / "m.cflm").read_bytes())
    assert json.loads(parts[0])["grams"] == [2, 2, 0]
    assert zlib.decompress(parts[5]) == zlib.decompress(parts[6]) == b""
    assert_same_model(NGramModel.load(tmp_path / "m.cflm"), model)


@pytest.mark.parametrize("chunk", [1 << 13, 2])
def test_words_spelled_like_json_syntax_round_trip(tmp_path, monkeypatch, chunk):
    # runs of backslashes and quotes at a word's either end and inside it,
    # braces, a word spelled like a count, and the empty word: the head's
    # JSON must hold them all
    monkeypatch.setattr(ngramlm, "CHUNK", chunk)
    words = ["\\", "a\\", '\\"', '"', '""', "\\\\", 'x\\\\"y', "\\a", '"\\',
             "{", "}", "},{", ":1,", ""]
    rng = random.Random(3)
    model = train([[rng.choice(words) for _ in range(6)] for _ in range(30)], 3)
    model.save(tmp_path / "m.cflm", tmp_path / "m.arpa")
    assert_same_model(NGramModel.load(tmp_path / "m.cflm"), model)


# a model whose file is small enough to read: words a, b, c (ids 1-3, <s> is
# 0); order 3. Its parts: the head, then per order the ids and the counts
IDS, COUNTS = {1: 1, 2: 3, 3: 5}, {1: 2, 2: 4, 3: 6}
DAMAGE_CORPUS = [["a", "b", "c", "a"], ["b", "c"], ["c", "a", "b"]]


def damaged(tmp_path, edit):
    """The path of DAMAGE_CORPUS's ``.cflm`` file after ``edit`` (the file's
    bytes -> new bytes) changed it, and its bytes before the edit."""
    path = tmp_path / "m.cflm"
    train(DAMAGE_CORPUS, 3).save(path, tmp_path / "m.arpa")
    data = path.read_bytes()
    path.write_bytes(edit(data))
    return path, data


def resealed(edit):
    """A file edit that applies ``edit`` (the file's parts -> new parts) and
    writes the parts back behind a CRC-32 that matches."""
    return lambda data: cflm_frame(edit(cflm_parts(data)))


def part_edit(i, change):
    """A resealed edit of part ``i`` by ``change`` (its bytes -> new bytes)."""
    return resealed(lambda parts: [change(p) if j == i else p for j, p in enumerate(parts)])


def array_edit(i, dtype, change):
    """A resealed edit of part ``i``, an array of ``dtype``: ``change`` maps
    the values (a writable copy) to the values written back."""
    return part_edit(i, lambda part: zlib.compress(
        np.asarray(change(np.frombuffer(zlib.decompress(part), dtype).copy())).tobytes(), 1))


def assigned(at, value):
    def change(values):
        values[at] = value
        return values
    return change


def flip(data, at):
    return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1 :]


def sealed(body):
    """``body`` (a file without its CRC-32) and a CRC-32 that matches it."""
    return body + zlib.crc32(body).to_bytes(4, "little")


# Each case carries a fault class of the JSON-text tables over to the
# binary arrays and keeps that text case's id; CHANGES.md lists the mapping.
TABLE_DAMAGE = {
    '"b":-"\xc3\xa9":-1-not ASCII':  # a byte save never writes
        (lambda data: flip(data, len(data) - 30), "CRC-32 mismatch"),
    "\"c a\":-\"c zzzunknown\":-0-gram 'c zzzunknown' holds the unknown word 'zzzunknown'":
        (array_edit(IDS[2], "<i4", assigned(-1, 4)), r"the order-2 ids are not all in \[0, 4\)"),
    "\"b c\":-\"b  c\":-0-gram 'b  c' holds a doubled, leading or trailing space":
        (array_edit(IDS[3], "<i4", assigned(0, -1)), r"the order-3 ids are not all in \[0, 4\)"),
    "\"b c\":-\"b c a\":-0-gram 'b c a' is not 2 words long":
        (array_edit(IDS[2], "<i4", lambda ids: np.append(ids, ids[:6])),
         "the order-2 ids inflate past the 48 bytes the head declares"),
    "\"b c a\":-\"b c\":-0-gram 'b c' is not 3 words long":
        (array_edit(IDS[3], "<i4", lambda ids: ids[:-6]),
         "the order-3 ids hold 48 bytes, not the 72 the head declares"),
    # the right ids, moved between rows: written row by row
    "\"<s> a\":1,\"<s> b\":1-\"<s>\":1,\"a <s> b\":1-0-gram '<s>' is not 2 words long":
        (array_edit(IDS[2], "<i4", lambda ids: ids.reshape(2, -1).T),
         "order-2 grams are not in sorted order"),
    "\"<s> a\":1,\"<s> b\":1-\"<s> a\":1 ,\"<s>b\":1-7-gram '<s> a' is followed by ':1 ,'":
        (array_edit(COUNTS[2], "<i8", lambda counts: np.append(counts, 1)),
         "the order-2 counts inflate past the 48 bytes the head declares"),
    "\"a\":-\"a\":0-3-gram 'a' is followed by ':0[0-9]+,', not by ':' and a count":
        (array_edit(COUNTS[1], "<i8", assigned(0, 0)),
         r"the order-1 counts are not all in \[1, 9223372036854775808\)"),
    "\"a\":-\"a\":--3-gram 'a' is followed by ':-[0-9]+,', not by ':' and a count":
        (array_edit(COUNTS[3], "<i8", assigned(5, -2)),
         r"the order-3 counts are not all in \[1, 9223372036854775808\)"),
    "\"a\":-\"a\":+-3-gram 'a' is followed by ':\\+[0-9]+,', not by ':' and a count":
        (array_edit(COUNTS[2], "<i8", lambda counts: counts.astype("<i4")),
         "the order-2 counts hold 24 bytes, not the 48 the head declares"),
    "\"a\":-\"a\":99999999999999999999-3-gram 'a' is followed by ':9{20}[0-9],'":
        (part_edit(COUNTS[1], lambda part: flip(part, 0)),
         r"damaged zlib stream \(Error -3 .*\) of the order-1 counts"),
    "\"a\":-\"a\" :-3-gram 'a' is followed by ' :[0-9]+,', not by ':' and a count":
        (part_edit(COUNTS[1], lambda part: part + b"\0"),
         "bytes after the zlib stream of the order-1 counts"),
    "\"a\":2,\"b\":2,-\"a\"\"b\":2,:2,-3-gram 'a' is followed by '', not by ':' and a count":
        (part_edit(IDS[1], lambda part: part[:-2]),
         "truncated zlib stream of the order-1 ids"),
    '"b":-"a":-0-order-1 grams are not in sorted order':  # a doubled gram
        (array_edit(IDS[1], "<i4", assigned(1, 1)), "order-1 grams are not in sorted order"),
    '"tables":[{-"tables":[ {-10-tables are not one comma-separated':  # a byte between parts
        (lambda data: (lambda at: sealed(data[:at] + b"\0" + data[at:-4]))(
            13 + len(cflm_parts(data)[0])),
         "the last part runs past the CRC-32"),
    "{\"<s> a\"-{,\"<s> a\"-1-the order-2 table does not start with a gram":
        (array_edit(IDS[2], "<i4", lambda ids: ids[[1, 0, 2, 3, 4, 5, 7, 6, 8, 9, 10, 11]]),
         "order-2 grams are not in sorted order"),
}


@pytest.mark.parametrize("edit,message",
                         [pytest.param(*case, id=name) for name, case in TABLE_DAMAGE.items()])
def test_load_refuses_a_damaged_table_naming_file_and_byte(tmp_path, edit, message):
    path, _ = damaged(tmp_path, edit)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        NGramModel.load(path)


@pytest.mark.parametrize("edit,message", [
    (lambda data: b"XXXX" + data[4:], "not a corpus-forge model file"),
    (lambda data: data[:4] + bytes([1]) + data[5:], "unsupported model format version 1$"),
    (lambda data: data[:4] + bytes([3]) + data[5:], "unsupported model format version 3$"),
    (lambda data: data[:4], "unsupported model format version"),
    (lambda data: data[:-9], "CRC-32 mismatch"),
    (lambda data: data + b"\x00", "CRC-32 mismatch"),
    (lambda data: flip(data, 20), "CRC-32 mismatch"),
    (lambda data: flip(data, len(data) - 1), "CRC-32 mismatch"),
    (part_edit(6, lambda part: part[:-2]), "truncated zlib stream"),
    (part_edit(1, lambda part: b"\xff" + part[1:]), r"damaged zlib stream \(Error -3"),
    (part_edit(6, lambda part: part + b"\x00"), "bytes after the zlib stream"),
    # a length that runs past the CRC, behind a CRC that matches
    (lambda data: sealed(data[:-5]), "the last part runs past the CRC-32"),
])
def test_load_refuses_a_damaged_file_naming_it(tmp_path, edit, message):
    path = tmp_path / "m.cflm"
    train(DAMAGE_CORPUS, 3).save(path, tmp_path / "m.arpa")
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        NGramModel.load(path)


def head_edit(old: bytes, new: bytes):
    """A resealed edit of the head's JSON text: ``old`` becomes ``new``."""
    return part_edit(0, lambda head: head.replace(old, new, 1) if old in head else pytest.fail(old))


@pytest.mark.parametrize("edit,message", [
    # the arrays of an order that is not there, or of one too many
    pytest.param(resealed(lambda parts: parts[:5]), "4 arrays for order 3",
                 id=r"<lambda>-byte \d+: 2 tables for order 3"),
    pytest.param(resealed(lambda parts: parts + parts[5:]), "8 arrays for order 3",
                 id=r"<lambda>-byte \d+: 4 tables for order 3"),
    pytest.param(resealed(lambda parts: parts[:1]), "0 arrays for order 3",
                 id="<lambda>-no tables between"),
    # valid JSON that save would not write
    (head_edit(b'"order":3', b'"order": 3'), "the head or the vocabulary is not"),
    (head_edit(b'"order":3', b'"order":3.0'), "the head or the vocabulary is not"),
    (head_edit(b"0.75", b"0.750"), "the head or the vocabulary is not"),
    (head_edit(b'"metadata":{}', b'"metadata":{},"more":1'), "the head or the vocabulary is not"),
    (head_edit(b'"vocab":["a","b","c"]', b'"vocab":["b","a","c"]'), "the head or the vocabulary is not"),
    (head_edit(b'"vocab":["a",', b'"vocab":["\\u0061",'), "the head or the vocabulary is not"),
    (head_edit(b'"smoothing":"kn"', b'"smoothing":"wb"'), "the head or the vocabulary is not"),
    (head_edit(b'"grams":[3,6,6]', b'"grams":[3,6]'), "the head or the vocabulary is not"),
    (head_edit(b'"grams":[3,6,6]', b'"grams":[3,6,-6]'), "the head or the vocabulary is not"),
    (head_edit(b'"grams":[3,6,6]', b'"grams":[3,6,true]'), "the head or the vocabulary is not"),
    # a vocabulary word that train refuses
    (head_edit(b'"vocab":["a",', b'"vocab":["a\\u001f",'),
     r"vocabulary word 'a\\x1f' holds a character at or below U\+0020"),
    (head_edit(b'"vocab":["a",', b'"vocab":["<s>","a",'),
     "vocabulary word '<s>' is reserved by the model"),
    # text that is not JSON, or not ASCII
    pytest.param(head_edit(b'"vocab"', b'"vocab\x7f\x01"'), "the head or the vocabulary is not",
                 id=r"<lambda>-byte \d+: a raw control character"),
    pytest.param(head_edit(b'"vocab":["a"', b'"vocab":["a'), "the head or the vocabulary is not",
                 id=r"<lambda>-byte \d+: an unterminated string"),
    (head_edit(b'"vocab":["a"', '"vocab":["\xe9"'.encode()), "the head or the vocabulary is not"),
])
def test_load_refuses_text_that_save_would_not_write(tmp_path, edit, message):
    path, _ = damaged(tmp_path, edit)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
        NGramModel.load(path)


def test_load_refuses_grams_out_of_id_order(tmp_path, monkeypatch):
    # two unigrams swap places, counts and all: both are known words, in the
    # wrong order; the constructor checks whole orders, whatever the CHUNK
    path = tmp_path / "m.cflm"
    train([["a", "b", "a"]], 2).save(path, tmp_path / "m.arpa")
    parts = cflm_parts(path.read_bytes())
    assert np.frombuffer(zlib.decompress(parts[1]), "<i4").tolist() == [1, 2]
    assert np.frombuffer(zlib.decompress(parts[2]), "<i8").tolist() == [2, 1]
    parts[1] = zlib.compress(np.array([2, 1], "<i4").tobytes(), 1)
    parts[2] = zlib.compress(np.array([1, 2], "<i8").tobytes(), 1)
    path.write_bytes(cflm_frame(parts))
    for chunk in (ngramlm.CHUNK, 1):
        monkeypatch.setattr(ngramlm, "CHUNK", chunk)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: order-1 grams are not in sorted"):
            NGramModel.load(path)


@pytest.mark.parametrize("chunk", [1, 3])
def test_load_refusals_do_not_depend_on_the_piece_size(tmp_path, monkeypatch, chunk):
    # the constructor sums its discount masses CHUNK context runs at a time;
    # no refusal may depend on where those chunks fall
    monkeypatch.setattr(ngramlm, "CHUNK", chunk)
    for edit, message in TABLE_DAMAGE.values():
        path, _ = damaged(tmp_path, edit)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            NGramModel.load(path)


def test_load_refuses_every_damaged_byte_naming_the_file(tmp_path):
    # seeded byte flips in every region of the file (magic, version, each
    # part's length and bytes, CRC), truncation at every region boundary and
    # appended bytes. As written, each is refused with a ValueError naming
    # the file. Behind a matching CRC-32 (as a forger would write it) the
    # file may load, but nothing but that ValueError is ever raised.
    path = tmp_path / "m.cflm"
    train(DAMAGE_CORPUS, 3, metadata={"language": "xx"}).save(path, tmp_path / "m.arpa")
    data = path.read_bytes()
    bounds = [0, 4, 5]
    for part in cflm_parts(data):
        bounds += [bounds[-1] + 8, bounds[-1] + 8 + len(part)]
    assert bounds[-1] == len(data) - 4
    bounds.append(len(data))
    rng = random.Random(21)
    variants = []
    for lo, hi in zip(bounds, bounds[1:]):
        for at in sorted({lo, hi - 1, *(rng.randrange(lo, hi) for _ in range(6))}):
            variants.append(data[:at] + bytes([data[at] ^ rng.randrange(1, 256)]) + data[at + 1 :])
    variants += [data[:at] for at in sorted({*bounds[:-1], *(b - 1 for b in bounds[1:])})]
    variants += [data + tail for tail in (b"\0", b"\0" * 8, rng.randbytes(13))]
    for variant in variants:
        path.write_bytes(variant)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            NGramModel.load(path)
        if variant[:-4] == data[:-4] or len(variant) < 9:  # nothing to seal but the CRC
            continue
        path.write_bytes(sealed(variant[:-4]))
        try:
            NGramModel.load(path)
        except ValueError as error:
            assert str(error).startswith(f"{path}: "), error


def model_array_bytes(model) -> int:
    """The bytes of every numpy array a model holds."""
    arrays = [*model.tables, *model.counts, *model.run_of, *model.totals, *model.gamma_mass]
    return sum(a.nbytes for a in arrays) + sum(a.nbytes for keys in model._keys for a in keys)


def load_peak(path) -> tuple[NGramModel, int]:
    """The model at ``path`` and the traced peak of loading it."""
    tracemalloc.start()
    try:
        loaded = NGramModel.load(path)
        return loaded, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_holds_at_most_its_text_and_twice_the_arrays(tmp_path, monkeypatch):
    # no text: the file's compressed bytes, the model's arrays, and at most
    # two tables more, for the array being inflated or for the index and run
    # masks of the order the constructor is indexing
    monkeypatch.setattr(ngramlm, "CHUNK", 64)
    model = train(markov3_corpus(5, 200), 3)
    path = tmp_path / "m.cflm"
    model.save(path, tmp_path / "m.arpa")
    assert max(len(t) for t in model.tables) >= 4 * ngramlm.CHUNK
    loaded, peak = load_peak(path)
    assert model_array_bytes(loaded) == model_array_bytes(model)
    one_table = max(t.nbytes for t in model.tables)
    assert peak <= path.stat().st_size + model_array_bytes(model) + 2 * one_table, (peak, one_table)


def test_load_holds_its_compressed_bytes_and_one_chunk_not_the_text(tmp_path, monkeypatch):
    # beyond the compressed file and the arrays, load holds zlib's 32 KiB
    # window and state and the one array being inflated: under 64 KiB here
    monkeypatch.setattr(ngramlm, "CHUNK", 64)
    model = train(markov3_corpus(5, 300), 5)
    path = tmp_path / "m.cflm"
    model.save(path, tmp_path / "m.arpa")
    allowance = 64 * 1024
    loaded, peak = load_peak(path)
    assert model_array_bytes(loaded) == model_array_bytes(model)
    assert peak <= path.stat().st_size + model_array_bytes(model) + allowance, peak


def test_load_refuses_a_stream_that_inflates_past_its_size_before_inflating_it(tmp_path):
    # 16 MiB of zeros deflate to 16 KiB: load stops one byte past the 12 the
    # head declares for the order-1 ids
    path, _ = damaged(tmp_path, array_edit(IDS[1], "<i4", lambda ids: np.zeros(1 << 22, "<i4")))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="the order-1 ids inflate past the 12 bytes"):
            NGramModel.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= path.stat().st_size + (1 << 20), peak


def test_train_holds_at_most_twice_its_arrays():
    # the sort buffers are gone before the constructor runs, and it sums its
    # discount masses one chunk of runs at a time
    corpus = markov3_corpus(20, 2000)
    tracemalloc.start()
    try:
        model = train(corpus, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * model_array_bytes(model), (peak, model_array_bytes(model))


@pytest.mark.parametrize("chunk", [1 << 13, 1])
def test_metadata_spelling_the_loader_markers_round_trips(tmp_path, monkeypatch, chunk):
    # metadata is free JSON in the head, whatever it spells, even the head's
    # own keys
    monkeypatch.setattr(ngramlm, "CHUNK", chunk)
    metadata = {"note": '],"vocab":[', "tables": [1, 2], "vocab": ["x"], "grams": {"order": 9}}
    model = train(DAMAGE_CORPUS, 3, metadata=metadata)
    path = tmp_path / "m.cflm"
    model.save(path, tmp_path / "m.arpa")
    assert json.loads(cflm_parts(path.read_bytes())[0])["metadata"] == metadata
    assert_same_model(NGramModel.load(path), model)
    oracle = DictNGramModel.train(DAMAGE_CORPUS, 3, metadata=metadata)
    oracle.save(tmp_path / "oracle.cflm")
    assert (tmp_path / "oracle.cflm").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("width", [np.int32, np.int64])
def test_index_width_follows_the_largest_key(tmp_path, width):
    # keys and runs are int32 while (grams + 1) * (words + 1) fits in it; one
    # sentence of 50 000 distinct words at order 2 makes 50 001 * 50 002 > 2^31
    if width is np.int64:
        corpus, order = [[f"w{i}" for i in range(50_000)]], 2
    else:
        corpus, order = markov3_corpus(7, 60), 3
    model = train(corpus, order, metadata={"language": "xx"})
    oracle = DictNGramModel.train(corpus, order, metadata={"language": "xx"})
    assert {a.dtype for a in (*model.run_of, *(a for keys in model._keys for a in keys))} == {
        np.dtype(width)}
    rng = random.Random(8)
    words = sorted(model.vocab)
    queries = [((SENT_START,), w) for w in words[:50]] + [
        (tuple(rng.choice(words) for _ in range(rng.randint(0, order - 1))), rng.choice(words + [UNK]))
        for _ in range(200)]
    for row in model.tables[-1][rng.sample(range(len(model.tables[-1])), 200)].tolist():
        gram = [model.words[i] for i in row]
        queries.append((tuple(gram[:-1]), gram[-1]))
    assert engine_probs(model, queries) == oracle.probs(queries)
    model.save(tmp_path / "m.cflm", tmp_path / "m.arpa")
    oracle.save(tmp_path / "oracle.cflm")
    oracle.to_arpa(tmp_path / "oracle.arpa")
    for ext in ("cflm", "arpa"):
        assert (tmp_path / f"m.{ext}").read_bytes() == (tmp_path / f"oracle.{ext}").read_bytes(), ext
    loaded = NGramModel.load(tmp_path / "m.cflm")
    assert_same_model(loaded, model)
    for mine, theirs in zip([*loaded.run_of, *sum(loaded._keys, [])], [*model.run_of, *sum(model._keys, [])]):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)


# -- every order from one sort -------------------------------------------------


def mixed_corpus(rng):
    """Sentences of one word and shorter than the orders, repeated ones, and
    words of non-ASCII letters and longer than WIDE bytes (spliced into the
    ARPA text)."""
    words = [f"w{i}" for i in range(25)] + ["née", "straße", "ü" * 3, "x" * (ngramlm.WIDE + 1),
                                            "é" * ngramlm.WIDE]
    corpus = [[rng.choice(words) for _ in range(rng.choice((1, 1, 2, 3, 4, 7, 15)))]
              for _ in range(rng.randint(1, 250))]
    corpus += [list(s) for s in rng.choices(corpus, k=rng.randint(0, 20))]
    rng.shuffle(corpus)
    return corpus


@pytest.mark.parametrize("orders", [(1,), (5,), (3, 5), (2, 3, 4)], ids=lambda o: ",".join(map(str, o)))
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_one_sort_writes_the_files_of_one_sort_per_order(tmp_path, seed, orders):
    """Each model ``lower_order`` makes from the highest order's one sort,
    written with the others by ``ngramlm.save``, has the bytes of the model
    trained at its own order alone."""
    corpus = mixed_corpus(random.Random(seed))
    smoothing = "none" if seed == 4 else "kn"
    top = train(corpus, max(orders), smoothing, metadata={"language": "xx"})
    paths = [(tmp_path / f"{order}.cflm", tmp_path / f"{order}.arpa") for order in orders]
    ngramlm.save([top.lower_order(order) for order in orders], paths)
    for order, (cflm, arpa) in zip(orders, paths):
        alone = per_order_train(corpus, order, smoothing, metadata={"language": "xx"})
        per_order_files(alone, tmp_path / "alone.cflm", tmp_path / "alone.arpa")
        assert cflm.read_bytes() == (tmp_path / "alone.cflm").read_bytes(), order
        assert arpa.read_bytes() == (tmp_path / "alone.arpa").read_bytes(), order


def test_training_and_saving_never_search_the_query_index(tmp_path, monkeypatch):
    """Suffixes and context runs come from the sort, not from ``_find``; the
    query index is built only when a model is queried or loaded."""
    def refused(*args):
        raise AssertionError("_find called")

    corpus = mixed_corpus(random.Random(5))
    orders = (2, 3, 4, 5)
    paths = [(tmp_path / f"{order}.cflm", tmp_path / f"{order}.arpa") for order in orders]
    monkeypatch.setattr(NGramModel, "_find", refused)
    top = train(corpus, 5)
    models = [top.lower_order(order) for order in orders]
    ngramlm.save(models, paths)
    assert not any("_keys" in vars(model) for model in models)
    monkeypatch.undo()
    for order, (cflm, arpa) in zip(orders, paths):
        per_order_files(per_order_train(corpus, order), tmp_path / "alone.cflm", tmp_path / "alone.arpa")
        assert cflm.read_bytes() == (tmp_path / "alone.cflm").read_bytes(), order
        assert arpa.read_bytes() == (tmp_path / "alone.arpa").read_bytes(), order
