"""Synthetic corpus generator for end-to-end exercise and testing.

Produces the full pipeline input tree: raw book texts (punctuated, cased,
line-wrapped), book/speaker metadata, one timed-token stream per chapter
simulating a reading at a given speech rate with silence gaps, plus a ground
truth sidecar recording every token's source word index so recovery can be
checked. Pseudo-label noise substitutes words at the requested rate without
touching the recorded source indices.

The generated vocabulary is plain lowercase letters (no digits, hyphens or
apostrophes), so at noise 0 every downstream post-processing step is a
no-op and retrieved transcripts must equal their source spans exactly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from .config import derived_seed
from .segmenter import TokenStream, write_token_stream


_ONSETS = ["b", "br", "d", "dr", "f", "fl", "g", "gl", "k", "kr", "l", "m",
           "n", "p", "pl", "r", "s", "sk", "st", "t", "tr", "v", "w", "z"]
_NUCLEI = ["a", "e", "i", "o", "u", "ai", "ea", "ou"]
_CODAS = ["", "l", "m", "n", "nd", "r", "rk", "s", "st", "t"]


@dataclass
class SynthParams:
    n_books: int = 20
    words_per_book: int = 5000
    speakers_per_gender: int = 6
    chapters_per_book: int = 2
    noise: float = 0.0
    speech_rate: float = 2.5  # words per second
    vocabulary_size: int = 400
    sentence_words: tuple[int, int] = (6, 18)
    line_words: tuple[int, int] = (8, 12)


@dataclass
class SynthSummary:
    root: Path
    book_ids: list[str]
    chapter_ids: list[str]
    speaker_ids: list[str]


def _make_vocabulary(rng: random.Random, size: int) -> list[str]:
    words = set()
    while len(words) < size:
        syllables = rng.randint(1, 3)
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
            for _ in range(syllables)
        )
        words.add(word)
    return sorted(words)


def _markov_words(rng: random.Random, vocab: list[str], count: int) -> list[str]:
    """Seeded first-order chain over the vocabulary; transitions are sparse
    so text is locally repetitive the way prose is."""
    successors = {
        w: [rng.choice(vocab) for _ in range(6)] for w in vocab
    }
    out = [rng.choice(vocab)]
    while len(out) < count:
        if rng.random() < 0.15:
            out.append(rng.choice(vocab))
        else:
            out.append(rng.choice(successors[out[-1]]))
    return out


def _render_book_text(rng: random.Random, words: list[str], params: SynthParams) -> str:
    """Raw page rendering: sentence casing/punctuation and line wrapping.
    Normalizing the result must reproduce ``words`` exactly."""
    text_parts: list[str] = []
    sentence_left = 0
    line_left = rng.randint(*params.line_words)
    for w in words:
        if sentence_left == 0:
            w = w.capitalize()
            sentence_left = rng.randint(*params.sentence_words)
        sentence_left -= 1
        suffix = ""
        if sentence_left == 0:
            suffix = rng.choice([".", ".", ".", "!", "?"])
        elif rng.random() < 0.06:
            suffix = ","
        text_parts.append(w + suffix)
        line_left -= 1
        if line_left == 0:
            text_parts.append("\n")
            line_left = rng.randint(*params.line_words)
        else:
            text_parts.append(" ")
    return "".join(text_parts).strip() + "\n"


def synth_corpus(root: str | Path, seed: int, params: SynthParams | None = None) -> SynthSummary:
    """Write a complete synthetic input tree under ``root``."""
    params = params or SynthParams()
    root = Path(root)
    (root / "books").mkdir(parents=True, exist_ok=True)
    (root / "tokens").mkdir(parents=True, exist_ok=True)
    (root / "truth").mkdir(parents=True, exist_ok=True)

    rng = random.Random(seed)
    vocab = _make_vocabulary(rng, params.vocabulary_size)

    speaker_ids = []
    speakers = {}
    for g in ("M", "F"):
        for i in range(params.speakers_per_gender):
            sid = f"spk_{g.lower()}{i:02d}"
            speakers[sid] = {"gender": g}
            speaker_ids.append(sid)

    books_meta = []
    book_ids = []
    chapter_ids = []
    for b in range(params.n_books):
        book_id = f"book{b:03d}"
        book_ids.append(book_id)
        book_rng = random.Random(derived_seed(f"{seed}/book/{b}"))
        words = _markov_words(book_rng, vocab, params.words_per_book)
        raw = _render_book_text(book_rng, words, params)
        (root / "books" / f"{book_id}.txt").write_text(raw, encoding="utf-8")

        title_words = book_rng.sample(vocab, book_rng.randint(2, 4))
        chapters = []
        bounds = [
            round(j * len(words) / params.chapters_per_book)
            for j in range(params.chapters_per_book + 1)
        ]
        # one reader per book (solo recordings); books rotate through the
        # speaker roster so held-out books stay a proper subset
        sid = speaker_ids[b % len(speaker_ids)]
        for c in range(params.chapters_per_book):
            chapter_id = f"{book_id}_ch{c:02d}"
            chapter_ids.append(chapter_id)
            chapters.append({"chapter_id": chapter_id, "speaker_id": sid})
            span = (bounds[c], bounds[c + 1])
            _write_reading(
                root,
                chapter_id,
                book_id,
                sid,
                words[span[0] : span[1]],
                span[0],
                vocab,
                random.Random(derived_seed(f"{seed}/read/{chapter_id}")),
                params,
            )
        books_meta.append(
            {
                "book_id": book_id,
                "title": " ".join(title_words),
                "author": f"author{b % 7:02d}",
                "version": 1,
                "multi_speaker": False,
                "chapters": chapters,
            }
        )

    (root / "books.json").write_text(
        json.dumps(books_meta, indent=1, sort_keys=True), encoding="utf-8"
    )
    (root / "speakers.json").write_text(
        json.dumps(speakers, indent=1, sort_keys=True), encoding="utf-8"
    )
    return SynthSummary(
        root=root,
        book_ids=book_ids,
        chapter_ids=chapter_ids,
        speaker_ids=speaker_ids,
    )


def _write_reading(
    root: Path,
    chapter_id: str,
    book_id: str,
    speaker_id: str,
    words: list[str],
    offset: int,
    vocab: list[str],
    rng: random.Random,
    params: SynthParams,
) -> None:
    slot_ms = 1000.0 / params.speech_rate
    t = 0
    spoken_words, starts, ends, indices = [], [], [], []
    words_until_pause = rng.randint(6, 16)
    for i, w in enumerate(words):
        duration = int(slot_ms * rng.uniform(0.55, 0.8))
        spoken = w
        if params.noise > 0 and rng.random() < params.noise:
            spoken = vocab[rng.randrange(len(vocab))]
        spoken_words.append(spoken)
        starts.append(t)
        ends.append(t + duration)
        indices.append(offset + i)
        words_until_pause -= 1
        if words_until_pause == 0:
            gap = int(rng.uniform(600, 1500))
            words_until_pause = rng.randint(6, 16)
        else:
            gap = int(slot_ms * rng.uniform(0.1, 0.35))
        t += duration + gap
    write_token_stream(root / "tokens" / f"{chapter_id}.jsonl",
                       TokenStream(spoken_words, starts, ends))
    (root / "truth" / f"{chapter_id}.json").write_text(
        json.dumps(
            {
                "book_id": book_id,
                "chapter_id": chapter_id,
                "speaker_id": speaker_id,
                "source_indices": indices,
            },
            sort_keys=True,
        ),
        encoding="utf-8",
    )
