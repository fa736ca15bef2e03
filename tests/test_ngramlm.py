import math
import random
from fractions import Fraction as F

import pytest

from corpus_forge.ngramlm import (
    SENT_START,
    UNK,
    NGramModel,
    compare_orders,
    evaluate,
    train,
)

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
        assert model.prob(word, ctx) == pytest.approx(float(expected), abs=1e-9), (
            word,
            ctx,
        )


def test_unseen_context_descends_to_unigram():
    model = train(HAND_CORPUS, 2)
    assert model.prob("a", ("zzz",)) == pytest.approx(11 / 16, abs=1e-12)


def test_repeated_word_order3_dominates_and_normalizes():
    model = train([["a", "a", "a"]], 3)
    p_a = model.prob("a", ("a", "a"))
    p_b = model.prob("b", ("a", "a"))
    assert p_a > p_b
    total = sum(model.prob(w, ("a", "a")) for w in sorted(model.vocab) + [UNK])
    assert total == pytest.approx(1.0, abs=1e-6)


def test_order1_uniform_corpus_closed_form():
    # V distinct words, one occurrence each: count-of-counts degenerate,
    # fallback discount 0.75 -> P(w) = 0.25/V + 0.75/(V+1) exactly
    v = 40
    corpus = [[f"u{i}"] for i in range(v)]
    model = train(corpus, 1)
    expected_p = 0.25 / v + 0.75 / (v + 1)
    for i in range(v):
        assert model.prob(f"u{i}") == pytest.approx(expected_p, abs=1e-12)
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
    events = sorted(model.vocab) + [UNK]
    for order_k in (1, 2, 3):
        contexts = sorted({g[:-1] for g in model.tables[order_k - 1]})
        sample = rng.sample(contexts, min(50, len(contexts)))
        for ctx in sample:
            total = sum(model.prob(w, ctx) for w in events)
            assert total == pytest.approx(1.0, abs=1e-6), (order_k, ctx)
            for w in sorted(model.vocab):
                assert model.prob(w, ctx) > 0.0


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
    result = compare_orders(train_sents, dev, orders=(3, 5))
    p3 = result["reports"][3].perplexity
    p5 = result["reports"][5].perplexity
    assert p5 == pytest.approx(p3, abs=1e-6)


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
    result = compare_orders(corpus, dev, orders=(3, 5))
    assert result["reports"][5].perplexity < result["reports"][3].perplexity
    assert result["higher_order_not_worse"]


def test_emptied_top_order_matches_truncated_view_exactly():
    corpus = markov3_corpus(21, 120)
    dev = markov3_corpus(22, 20)
    full = train(corpus, 3)
    gutted = NGramModel(
        order=3,
        smoothing=full.smoothing,
        vocab=full.vocab,
        tables=[full.tables[0], full.tables[1], {}],
        discounts=full.discounts,
        fallback=full.fallback,
    )
    lower = full.truncated(2)
    p_gutted = evaluate(gutted, dev).perplexity
    p_lower = evaluate(lower, dev).perplexity
    assert p_gutted == p_lower  # exact: unseen contexts descend untouched


# -- serialization -------------------------------------------------------------------


def test_model_files_byte_identical_across_runs(tmp_path):
    corpus = markov3_corpus(31, 100)
    a = tmp_path / "a.cflm"
    b = tmp_path / "b.cflm"
    train(corpus, 3, metadata={"language": "en"}).save(a)
    train(list(corpus), 3, metadata={"language": "en"}).save(b)
    assert a.read_bytes() == b.read_bytes()


def test_save_load_round_trip(tmp_path):
    corpus = markov3_corpus(32, 80)
    model = train(corpus, 3, metadata={"language": "en"})
    path = tmp_path / "m.cflm"
    model.save(path)
    loaded = NGramModel.load(path)
    assert loaded.order == 3
    assert loaded.vocab == model.vocab
    assert loaded.tables == model.tables
    assert loaded.discounts == [tuple(d) for d in model.discounts]
    rng = random.Random(1)
    vocab = sorted(model.vocab)
    for _ in range(100):
        ctx = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 2)))
        w = rng.choice(vocab)
        assert loaded.prob(w, ctx) == model.prob(w, ctx)


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
    model.to_arpa(path)
    probs, bows = parse_arpa(path)
    assert (UNK,) in probs and (SENT_START,) in probs
    rng = random.Random(5)
    vocab = sorted(model.vocab)
    contexts = [()] + [g[:-1] for g in rng.sample(sorted(model.tables[2]), 20)]
    contexts += [tuple(rng.choice(vocab) for _ in range(2)) for _ in range(20)]
    for ctx in contexts:
        for w in rng.sample(vocab, 5) + [UNK]:
            expected = model.prob(w, ctx)
            got = arpa_prob(probs, bows, ctx, w)
            assert got == pytest.approx(expected, rel=2e-6), (ctx, w)


def test_arpa_header_counts_match_body(tmp_path):
    model = train(markov3_corpus(34, 60), 3)
    path = tmp_path / "m.arpa"
    model.to_arpa(path)
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
    model = train(markov3_corpus(35, 80), order, smoothing=smoothing)
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
        bow = model.gamma_mass[k][gram] / tot if tot else 0.0
        assert bow_field == (f"{math.log10(bow):.7f}" if bow > 0.0 else None), gram
    # the level-wise values themselves equal the recursive ones, bit for bit
    lower = {(w,): model._p(1, (), w) for w in model.vocab}
    for k in range(2, order + 1):
        lower = model._level_probs(k, lower)
        for gram, p in lower.items():
            assert p == model._p(k, gram[:-1], gram[-1]), gram


def test_unsmoothed_arpa_writes_zero_unknown_probability(tmp_path):
    path = tmp_path / "m.arpa"
    train([["a", "b", "a"], ["b", "c"]], 2, smoothing="none").to_arpa(path)
    fields = arpa_fields(path)
    assert fields[(UNK,)] == ("-99.0000000", None)
    assert fields[("a",)][0] == f"{math.log10(2 / 5):.7f}"


def test_save_load_save_byte_identical_and_words_shared(tmp_path):
    model = train(markov3_corpus(36, 60), 4, metadata={"language": "en"})
    first = tmp_path / "a.cflm"
    second = tmp_path / "b.cflm"
    model.save(first)
    loaded = NGramModel.load(first)
    loaded.save(second)
    assert first.read_bytes() == second.read_bytes()
    canonical = {w: w for w in loaded.vocab}
    canonical[SENT_START] = SENT_START
    for table in loaded.tables:
        for gram in table:
            for word in gram:
                assert word is canonical[word], gram
