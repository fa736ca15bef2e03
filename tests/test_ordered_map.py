"""``pipeline.ordered_map``: the results and the first error of the serial
order from every process, no worker left behind, and errors that cross a
pipe unchanged. The CPU count is set by patching ``os.sched_getaffinity``,
so every case runs the same on a host of any size."""

import json
import os
import pickle
import shutil
import signal
import time
from dataclasses import replace
from pathlib import Path

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


@pytest.fixture(autouse=True)
def one_thread_at_each_fork(monkeypatch):
    """Every fork is made from a process of one OS thread: in the child only
    the forking thread lives on, and a lock another thread held stays held."""
    fork = os.fork

    def from_one_thread():
        assert len(os.listdir("/proc/self/task")) == 1
        return fork()

    monkeypatch.setattr(os, "fork", from_one_thread)


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


def test_without_an_affinity_set_the_map_is_plain(monkeypatch, deadline):
    """Where ``os.sched_getaffinity`` does not exist the CPUs are unknown:
    this process makes every item, and nothing is forked."""
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "fork", None)
    assert list(ordered_map(lambda i: (i * i, os.getpid()), range(5))) == [
        (i * i, os.getpid()) for i in range(5)]


def lm_config(root, tree, orders):
    """A config file of the small run on ``tree`` with these ``lm_orders``,
    and its output directory."""
    cfg = small_config(root, input_dir=str(tree))
    path = config_file(root / "run.cfg", cfg)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"lm_orders = {orders}\n")
    return path, Path(cfg.output_dir)


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("orders, repeated", [("5,5", 5), ("3,5,3", 3)])
def test_a_repeated_lm_order_is_refused(tmp_path, capsys, monkeypatch, deadline, small_input,
                                        orders, repeated, n_cpus):
    """Two models of one order would be written through one temporary file."""
    cpus(monkeypatch, n_cpus)
    path, out = lm_config(tmp_path, small_input, orders)
    assert cli_main(["run", "--config", path]) == 2
    assert capsys.readouterr().err == f"error: lm_orders repeats order {repeated}\n"
    assert not out.exists()
    assert_no_process_left()


def test_lm_orders_in_either_order_write_the_same_models(tmp_path, capsys, monkeypatch, deadline,
                                                         small_input):
    """Only the config hash, which every file holds, and the summary's list
    of orders tell the runs apart."""
    cpus(monkeypatch, 2)
    trees, reports = {}, {}
    for orders in ("3,5", "5,3"):
        (tmp_path / orders).mkdir()
        path, trees[orders] = lm_config(tmp_path / orders, small_input, orders)
        assert cli_main(["run", "--config", path]) == 0
        reports[orders] = json.loads((trees[orders] / "report.json").read_text(encoding="utf-8"))
    capsys.readouterr()
    hashes = [reports[orders]["config_hash"] for orders in ("3,5", "5,3")]
    assert hashes[0] != hashes[1]
    names = sorted(path.name for path in (trees["3,5"] / "lm").iterdir())
    assert names == sorted(path.name for path in (trees["5,3"] / "lm").iterdir())
    for name in names:
        mine, theirs = ((trees[o] / "lm" / name).read_bytes() for o in ("3,5", "5,3"))
        mine, theirs = mine.replace(hashes[0].encode(), b""), theirs.replace(hashes[1].encode(), b"")
        if name.endswith(".cflm"):  # the CRC-32 covers the hash
            mine, theirs = mine[:-4], theirs[:-4]
        assert mine == theirs, name
    summaries = [reports[o]["stages"]["lm_train"] for o in ("3,5", "5,3")]
    assert [summary.pop("orders") for summary in summaries] == [[3, 5], [5, 3]]
    assert summaries[0] == summaries[1]
    assert_no_process_left()


@pytest.fixture(scope="module")
def lm_input(tmp_path_factory, small_input):
    """The small run's output tree up to ``lm_train``, and its config."""
    cfg = small_config(tmp_path_factory.mktemp("lm_input"), input_dir=str(small_input))
    pipeline.run_pipeline(cfg, until_stage="decontam")
    return cfg


def test_lm_train_writes_the_same_models_on_any_number_of_cpus(tmp_path, monkeypatch, deadline,
                                                               lm_input):
    files, summaries = [], []
    for n in (1, 2, 3):
        cpus(monkeypatch, n)
        cfg = replace(lm_input, output_dir=str(tmp_path / f"cpus{n}"))
        shutil.copytree(lm_input.output_dir, cfg.output_dir)
        summaries.append(run_stage(cfg, "lm_train"))
        lm = Path(cfg.output_dir) / "lm"
        files.append({path.name: path.read_bytes() for path in sorted(lm.iterdir())})
        assert_no_process_left()
    assert sorted(files[0]) == ["corpus_books.txt", "decontam_report.tsv", "lm_3.arpa", "lm_3.cflm",
                                "lm_5.arpa", "lm_5.cflm"]
    assert files[0] == files[1] == files[2]
    assert summaries[0] == summaries[1] == summaries[2]


def test_a_model_file_that_cannot_be_placed_fails_alike_on_any_number_of_cpus(
        tmp_path, capsys, monkeypatch, deadline, lm_input):
    """A directory where ``lm_5.arpa`` goes: the stage fails as on one CPU,
    leaving no temporary file, no provenance and no process."""
    outcomes = []
    for n in (1, 2, 3):
        cpus(monkeypatch, n)
        out = tmp_path / f"cpus{n}"
        shutil.copytree(lm_input.output_dir, out)
        (out / "lm" / "lm_5.arpa").mkdir()
        path = config_file(tmp_path / f"{n}.cfg", replace(lm_input, output_dir=str(out)))
        code = cli_main(["run", "--config", path, "--from-stage", "lm_train", "--until-stage", "lm_train"])
        outcomes.append((code, capsys.readouterr().err.replace(str(out), "OUT")))
        assert not list((out / "lm").glob("*.tmp"))
        assert not (out / "work" / "lm_train" / "provenance.json").exists()
        assert_no_process_left()
    assert outcomes[0][0] == 3
    assert outcomes[0][1].startswith("error: stage lm_train: ")
    assert "OUT/lm/lm_5.arpa" in outcomes[0][1]
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_a_pipe_the_system_will_not_grow_keeps_its_size(monkeypatch, deadline):
    """Pipes are grown to 1 MiB so that a worker can run ahead; past the
    system's limit (``EPERM``) they keep the default size."""
    cpus(monkeypatch, 2)

    def refused(*args):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(pipeline.fcntl, "fcntl", refused)
    assert list(ordered_map(lambda i: bytes(100_000) * (i % 2) + bytes([i]), range(6))) == [
        bytes(100_000) * (i % 2) + bytes([i]) for i in range(6)]
    assert_no_process_left()
