"""``pipeline.ordered_map``: the results and the first error of the serial
order from every process, no worker left behind, and errors that cross a
pipe unchanged. The CPU count is set by patching ``os.sched_getaffinity``,
so every case runs the same on a host of any size."""

import os
import pickle
import shutil
import signal
import time

import pytest

from corpus_forge import pipeline
from corpus_forge.cli import main as cli_main
from corpus_forge.config import ConfigError
from corpus_forge.manifest import InputError, ProvenanceError
from corpus_forge.pipeline import StageError, ordered_map, run_stage
from corpus_forge.segmenter import TokenStreamError
from corpus_forge.splitter import SplitError
from corpus_forge.synth import synth_corpus

from test_pipeline import SMALL, config_file, small_config


def cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_process_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """A test that waits more than 60 s fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("waited more than 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("error", [
    StageError("segment", "boom"), InputError("books.json: book 1 is malformed"),
    ProvenanceError("lm_3.cflm: config hash abc does not match active run def"),
    ConfigError("lm_orders must be positive integers"), SplitError("dev/test quota deficit"),
    TokenStreamError("a.jsonl:3: bad token times (5, 2)", 2),
], ids=lambda exc: type(exc).__name__)
def test_errors_survive_pickling(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert (str(copy), copy.args, vars(copy)) == (str(error), error.args, vars(error))


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
@pytest.mark.parametrize("n_items", [0, 1, 2, 7])
def test_results_in_item_order_from_every_process(monkeypatch, deadline, n_cpus, n_items):
    cpus(monkeypatch, n_cpus)
    results = list(ordered_map(lambda i: (i * i, os.getpid()), range(n_items)))
    assert [square for square, _ in results] == [i * i for i in range(n_items)]
    processes = max(min(n_cpus, n_items), 1)
    pids = [pid for _, pid in results]
    assert len(set(pids)) == min(n_cpus, n_items)
    assert [pid == os.getpid() for pid in pids] == [i % processes == 0 for i in range(n_items)]
    assert_no_process_left()


@pytest.mark.parametrize("failing", [(3, 4), (4, 5)], ids=["worker first", "caller first"])
def test_first_failure_in_item_order_is_raised(monkeypatch, deadline, failing):
    """Of two processes, the caller takes the even items and the worker the odd."""
    cpus(monkeypatch, 2)

    def fn(i):
        if i in failing:
            raise InputError(f"item {i} in process {os.getpid()}")
        return i

    seen = []
    with pytest.raises(InputError, match=f"^item {failing[0]} in process") as err:
        for result in ordered_map(fn, range(8)):
            seen.append(result)
    assert seen == list(range(failing[0]))
    raised_here = str(err.value) == f"item {failing[0]} in process {os.getpid()}"
    assert raised_here == (failing[0] % 2 == 0)
    assert_no_process_left()


def test_closing_early_kills_every_worker(monkeypatch, deadline):
    cpus(monkeypatch, 3)
    results = ordered_map(lambda i: time.sleep(0.05 * i) or i, range(9))
    assert next(results) == 0
    results.close()
    assert_no_process_left()


@pytest.fixture(scope="module")
def small_input(tmp_path_factory):
    root = tmp_path_factory.mktemp("ordered_map") / "input"
    synth_corpus(root, seed=17, params=SMALL)
    return root


def test_a_killed_worker_fails_its_stage(tmp_path, monkeypatch, deadline, small_input):
    cpus(monkeypatch, 2)
    caller, normalize_file = os.getpid(), pipeline.normalize_file

    def killed_in_a_worker(*args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return normalize_file(*args)

    monkeypatch.setattr(pipeline, "normalize_file", killed_in_a_worker)
    with pytest.raises(StageError, match="^stage normalize: worker process of item 1 ") as err:
        run_stage(small_config(tmp_path, input_dir=str(small_input)), "normalize")
    assert err.value.stage == "normalize"
    assert_no_process_left()


def run_twice(tmp_path, capsys, monkeypatch, tree):
    """(exit code, stderr) of ``run`` on ``tree`` on one CPU, then on two."""
    outcomes = []
    for n in (1, 2):
        cpus(monkeypatch, n)
        cfg = small_config(tmp_path / f"cpus{n}", input_dir=str(tree))
        outcomes.append((cli_main(["run", "--config", config_file(tmp_path / f"{n}.cfg", cfg)]),
                         capsys.readouterr().err))
    assert_no_process_left()
    return outcomes


@pytest.mark.parametrize("bad, line", [
    (["books/book001.txt"], 2),
    (["tokens", 1], 3),
    (["tokens", 1, 2], 3),
    (["tokens", 2, 3], 3),
], ids=["non-UTF-8 second book", "second token file", "token files 2 and 3",
        "token files 3 and 4"])
def test_a_fault_in_a_workers_share_reads_as_in_one_process(tmp_path, capsys, monkeypatch,
                                                             deadline, small_input, bad, line):
    """Book k and token file k (from 0, in name order) are item k of
    normalize and segment; of two processes the worker takes the odd items.
    The first bad file in item order is named with its line, as on one CPU."""
    tree = tmp_path / "input"
    shutil.copytree(small_input, tree)
    if bad[0] == "tokens":
        paths = [sorted((tree / "tokens").glob("*.jsonl"))[k] for k in bad[1:]]
        for path in paths:
            lines = path.read_text(encoding="utf-8").split("\n")
            lines[line - 1] = '{"word": "x", "start_ms": 9'
            path.write_text("\n".join(lines), encoding="utf-8")
    else:
        paths = [tree / bad[0]]
        paths[0].write_bytes(b"a first line\n\xff" + paths[0].read_bytes())
    (one_code, one_err), (two_code, two_err) = run_twice(tmp_path, capsys, monkeypatch, tree)
    assert one_code == two_code == 2
    assert two_err == one_err
    assert two_err.startswith(f"error: {paths[0]}:{line}: ")
