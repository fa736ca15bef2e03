"""Golden release digests: the sha256 of every file the criterion-1 run
writes under ``output_dir`` (S corpus, seed 17), and of every file of the
rules tree's release (``rules_tree.py``, ``golden_rules.json``).

The release tree is the behaviour contract, so a speed-up or refactor must
leave every byte unchanged. An intentional output change regenerates
``golden_release.json`` with ``python tests/test_golden.py`` from the
repository root and says why in CHANGES.md.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_release.json")
GOLDEN_RULES = Path(__file__).with_name("golden_rules.json")


def release_digests(output_dir) -> dict[str, str]:
    out = Path(output_dir)
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def assert_release_matches(golden, output_dir):
    expected = json.loads(golden.read_text(encoding="utf-8"))
    got = release_digests(output_dir)
    assert sorted(got) == sorted(expected), "release file set changed"
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"release bytes changed: {changed}"


def test_release_matches_golden_digests(noiseless_run):
    _root, cfg, _report, _elapsed = noiseless_run
    assert_release_matches(GOLDEN, cfg.output_dir)


def test_rules_tree_matches_golden_digests(rules_run):
    """The same contract on the rules tree, whose run reaches the split
    rules the S run does not (``rules_tree.py``)."""
    assert_release_matches(GOLDEN_RULES, rules_run.output_dir)


if __name__ == "__main__":
    sys.path[:0] = [str(Path(__file__).parent), str(Path(__file__).parents[1] / "src")]
    from corpus_forge.synth import SynthParams
    from test_acceptance import run_synth_pipeline

    with tempfile.TemporaryDirectory() as tmp:
        cfg, _ = run_synth_pipeline(
            Path(tmp), noise=0.0,
            params=SynthParams(n_books=20, words_per_book=5000, speakers_per_gender=6),
        )
        digests = release_digests(cfg.output_dir)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
