"""Fixtures shared by more than one test module."""

import time

import pytest

from corpus_forge.synth import SynthParams


@pytest.fixture(scope="session")
def noiseless_run(tmp_path_factory):
    """The criterion-1 run: 20 books x 5 000 words, noise 0, seed 17.

    Built once per session, because the acceptance criteria and the golden
    release digests both read it.
    """
    from test_acceptance import run_synth_pipeline

    root = tmp_path_factory.mktemp("accept1")
    t0 = time.perf_counter()
    cfg, report = run_synth_pipeline(
        root,
        noise=0.0,
        params=SynthParams(n_books=20, words_per_book=5000, speakers_per_gender=6),
    )
    elapsed = time.perf_counter() - t0
    return root, cfg, report, elapsed


@pytest.fixture(scope="session")
def rules_run(tmp_path_factory):
    """The rules tree (``rules_tree.py``), built and run once per session;
    its config, with absolute directories."""
    from rules_tree import build_rules_tree

    return build_rules_tree(tmp_path_factory.mktemp("rules"))
