"""Seeded byte-level fuzz of the input tree (Miller, Fredriksen and So 1990,
"An Empirical Study of the Reliability of UNIX Utilities").

Each case mutates the bytes of one input file of a small ``synth`` tree and
runs the whole pipeline through the command line. A hostile input must
either pass (exit 0) or fail fast as an input fault: exit 2, with a message
that starts by naming a file of the input tree. Exit 3, a traceback, or a
message naming anything else fails the case.
"""

import random
import re
import shutil
from pathlib import Path

import pytest

from corpus_forge.cli import main as cli_main
from corpus_forge.synth import synth_corpus

from test_pipeline import SMALL, config_file, small_config

TARGETS = ["tokens/book001_ch00.jsonl", "books/book001.txt", "books.json", "speakers.json"]
SEEDS = range(4)  # per target; each case is one full run of about 0.25 s


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three random edits: a byte set to any value, a byte set to
    one found elsewhere in the file, a run of up to 8 bytes deleted, or a
    run of up to 8 bytes copied from elsewhere inserted."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(out))
        kind = rng.randrange(4)
        if kind == 0:
            out[at] = rng.randrange(256)
        elif kind == 1:
            out[at] = out[rng.randrange(len(out))]
        elif kind == 2:
            del out[at : at + rng.randint(1, 8)]
        else:
            src = rng.randrange(len(out))
            out[at:at] = out[src : src + rng.randint(1, 8)]
    return bytes(out)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = tmp_path_factory.mktemp("pristine") / "input"
    synth_corpus(root, seed=17, params=SMALL)
    return root


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("target", TARGETS)
def test_mutated_input_passes_or_exits_2_naming_an_input_file(tmp_path, capsys, pristine,
                                                               target, seed):
    tree = tmp_path / "input"
    shutil.copytree(pristine, tree)
    path = tree / target
    path.write_bytes(mutate(path.read_bytes(), random.Random(f"{target}:{seed}")))
    code = cli_main(["run", "--config", config_file(tmp_path / "run.cfg", small_config(tmp_path))])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    if code == 2:
        named = re.match(rf"error: ({re.escape(str(tree))}/[^:\n]+):", err)
        assert named and Path(named[1]).is_file(), err
