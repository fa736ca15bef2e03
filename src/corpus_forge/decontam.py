"""Held-out leakage removal for the language-model corpus.

A candidate book is removed when its title is within word edit distance 1 of
any dev/test book title, or when more than the threshold fraction (default
1%) of its stop-word-filtered 5-grams appear in the dev/test transcripts.
Books are checked one at a time against the held-out index, so only one
book's words are held at once, and the report rows say which are kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .manifest import InputError, numbered_lines, write_tsv
from .retrieval import edit_distance

NGRAM_ORDER = 5
DEFAULT_CONTAMINATION_THRESHOLD = 0.01
TITLE_DISTANCE_LIMIT = 2  # strictly-less-than match rule


@dataclass
class FiveGramIndex:
    grams: set[tuple[str, ...]] = field(default_factory=set)
    stopwords: frozenset[str] = frozenset()

    def __contains__(self, gram: tuple[str, ...]) -> bool:
        return gram in self.grams

    def __len__(self) -> int:
        return len(self.grams)


def load_stopwords(path: str | Path, language_id: str = "en") -> frozenset[str]:
    """The stop words of the file at ``path``, or of the bundled list for
    the language when it is empty: one per line; '#' starts a comment."""
    if not path:
        path = Path(__file__).parent / "data" / "stopwords" / f"{language_id}.stop"
        if not path.exists():
            raise InputError(f"{path}: no bundled stopword list for {language_id!r}")
    return frozenset(line for _, line in numbered_lines(path))


def _fivegrams(tokens, stopwords, distinct: bool = True):
    kept = [t for t in tokens if t not in stopwords]
    grams = zip(*(kept[i:] for i in range(NGRAM_ORDER)))
    return set(grams) if distinct else list(grams)


def title_match(candidate_title, dev_test_titles) -> bool:
    """True when the word edit distance to any held-out title is < 2."""
    return any(edit_distance(candidate_title, title) < TITLE_DISTANCE_LIMIT
               for title in dev_test_titles)


def build_heldout_index(texts, stopwords) -> FiveGramIndex:
    """Membership set of every stop-word-filtered 5-gram in the held-out
    texts (a posting-list inverted index adds nothing to a membership test)."""
    index = FiveGramIndex(stopwords=frozenset(stopwords))
    for tokens in texts:
        index.grams |= _fivegrams(list(tokens), index.stopwords)
    return index


def contamination_rate(
    book_tokens, index: FiveGramIndex, count_tokens: bool = False
) -> float:
    """Fraction of the book's 5-grams found in the held-out index.

    Defaults to distinct 5-grams; ``count_tokens`` switches the denominator
    to running occurrences. Books too short for any 5-gram rate 0.
    """
    grams = _fivegrams(list(book_tokens), index.stopwords, distinct=not count_tokens)
    if not grams:
        return 0.0
    hits = sum(1 for g in grams if g in index.grams)
    return hits / len(grams)


def filter_corpus(
    books,
    dev_test_titles,
    index: FiveGramIndex,
    threshold: float = DEFAULT_CONTAMINATION_THRESHOLD,
    count_tokens: bool = False,
) -> list[dict]:
    """A report row per ``(book_id, title, tokens)`` of ``books``, taken one
    at a time: the book is removed for its title or its 5-gram overlap, or
    kept."""
    report = []
    for book_id, title, tokens in books:
        rate = contamination_rate(tokens, index, count_tokens=count_tokens)
        reason = ("title" if title_match(title, dev_test_titles)
                  else "ngram-overlap" if rate > threshold else "")
        action = "removed" if reason else "kept"
        report.append({"book_id": book_id, "action": action, "reason": reason, "rate": rate})
    return report


def write_report(path: str | Path, report: list[dict], config_hash: str) -> None:
    """The per-book report rows of ``filter_corpus`` as a hashed TSV."""
    write_tsv(
        path,
        ("book_id", "action", "reason", "rate"),
        [(r["book_id"], r["action"], r["reason"], f"{r['rate']:.6f}") for r in report],
        config_hash,
    )
