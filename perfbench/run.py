"""Benchmark the corpus-forge build the way an operator runs it.

    python3 perfbench/run.py --workload short_books --seed 17 --seconds 40 --trace 0

Set-up generates the workload's input tree with ``corpus-forge synth`` from
the seed (and, for resume_lm, builds the normalize..filter prefix), several
times, and reports the median. Each timed repetition then runs
``corpus-forge run`` in a fresh child process: a closed loop, one pipeline
process at a time. Wall time, CPU time and peak RSS come from outside the
child (``os.wait4``). Wall and CPU time are the mean over the run's
repetitions: the host slows a core in phases lasting minutes, which a mean
averages and a median of a few samples does not. Every repetition's release
is checked against the generator's truth by ``check.py`` and digested. With ``--trace 1`` one more
repetition runs under ``traced.py`` and the per-layer metrics of
``layers.py`` are reported instead of the end-to-end ones.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TIME_LIMIT_S = 170.0  # the whole invocation stays under 180 s


@dataclass(frozen=True)
class Workload:
    name: str
    synth: tuple[str, ...]  # `corpus-forge synth` shape arguments
    exact: bool  # noise-free: every transcript must equal its truth span
    setups: int  # set-ups per invocation; setup_s is their median
    prefix: tuple[str, ...] = ()  # `run` arguments that build state during set-up
    rep: tuple[str, ...] = ()  # extra `run` arguments of each timed repetition


SHORT_BOOKS = ("--books", "20", "--words-per-book", "5000", "--speakers-per-gender", "6",
               "--chapters-per-book", "2", "--noise", "0.0")
WORKLOADS = {  # the ones BENCHMARK.json lists
    w.name: w
    for w in (
        Workload("short_books", SHORT_BOOKS, exact=True, setups=5),
        Workload("resume_lm", SHORT_BOOKS, exact=True, setups=2,
                 prefix=("--until-stage", "filter"), rep=("--from-stage", "split")),
    )
}
# Runnable by name for the traced short-vs-long comparison of the segmenter
# and retrieval rates, but not timed by the benchmark: its ~20 s repetitions
# leave no room in the run budget for a third workload.
EXTRA_WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long_books",
            ("--books", "6", "--words-per-book", "20000", "--speakers-per-gender", "3",
             "--chapters-per-book", "2", "--noise", "0.15"),
            exact=False,
            setups=5,
        ),
    )
}

END_TO_END = {  # name -> unit, as BENCHMARK.json lists them
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "truth_word_acc": "share",
    "kept_h": "h",
    "release_mb": "MiB",
}


class SetupError(RuntimeError):
    pass


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    spawn_epoch: float


def child_env() -> dict[str, str]:
    """The caller's environment minus config overrides, with the checkout's
    sources first on the import path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CORPUS_FORGE_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], cwd: Path, log: Path, timeout: float) -> Child:
    """Run one child to completion and measure it from outside."""
    with open(log, "wb") as err:
        spawn_epoch = time.time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024, spawn_epoch)


def cli(*args: object) -> list[str]:
    return [sys.executable, "-m", "corpus_forge.cli", *map(str, args)]


def write_config(path: Path, input_dir: Path, output_dir: Path) -> Path:
    path.write_text(f"input_dir = {input_dir}\noutput_dir = {output_dir}\n", encoding="utf-8")
    return path


def log_tail(log: Path, lines: int = 5) -> str:
    text = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return " | ".join(text[-lines:])


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float, work: Path):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.release_digest: str | None = None
        self.verdict: check.Verdict | None = None

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    # -- set-up ---------------------------------------------------------------

    def set_up(self) -> list[float]:
        """Build the inputs (and prefix) ``setups`` times; keep the first copy.
        Every copy must be byte-identical to the first."""
        times = []
        digests = set()
        for i in range(self.w.setups):
            inp, pre = self.work / f"input{i}", self.work / f"prefix{i}"
            log = self.work / f"setup{i}.log"
            elapsed = 0.0
            steps = [cli("synth", "--out", inp, "--seed", self.seed, *self.w.synth)]
            if self.w.prefix:
                cfg = write_config(self.work / f"prefix{i}.cfg", inp, pre)
                steps.append(cli("run", "--config", cfg, *self.w.prefix))
            for cmd in steps:
                child = run_child(cmd, self.work, log, self.remaining())
                if child.code != 0:
                    raise SetupError(f"set-up step {cmd[3]} exited {child.code}: {log_tail(log)}")
                elapsed += child.wall_s
            times.append(elapsed)
            digests.add((check.tree_digest(inp), check.tree_digest(pre) if self.w.prefix else ""))
            if i:
                shutil.rmtree(inp)
                shutil.rmtree(pre, ignore_errors=True)
        if len(digests) != 1:
            raise SetupError("set-up is not deterministic: copies differ")
        self.input_digest, self.prefix_digest = digests.pop()
        self.truth = check.Truth(self.work / "input0")
        return times

    # -- repetitions ----------------------------------------------------------

    def repetition(self, traced: bool) -> tuple[Child | None, Path | None]:
        """One timed `corpus-forge run`; the child, or None when it failed.
        A failure is a nonzero exit, an exception, a failed check or a
        release that differs from this invocation's first one."""
        self.attempted += 1
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        if self.w.prefix:
            shutil.copytree(self.work / "prefix0", out)
        cfg = write_config(self.work / "run.cfg", self.work / "input0", out)
        log = self.work / f"rep{self.attempted}.log"
        args = ["run", "--config", cfg, *self.w.rep]
        spans = None
        if traced:
            spans = self.work / "spans.json"
            cmd = [sys.executable, str(HERE / "traced.py"), "--spans", str(spans),
                   "--run-id", f"{self.w.name}-{self.seed}-{self.attempted}", "--", *map(str, args)]
        else:
            cmd = cli(*args)
        child = run_child(cmd, self.work, log, self.remaining())
        try:
            if child.code != 0:
                raise RuntimeError(f"exit {child.code}: {log_tail(log)}")
            verdict = check.check_release(self.truth, out, exact=self.w.exact)
            if not verdict.ok:
                raise RuntimeError(f"{verdict.error_count} check failures: {verdict.errors}")
            digest = check.tree_digest(out)
            if self.release_digest is None:
                self.release_digest, self.verdict = digest, verdict
            elif digest != self.release_digest:
                raise RuntimeError(f"release digest {digest} differs from {self.release_digest}")
        except Exception as exc:  # a failed repetition is counted, not fatal
            self.failed += 1
            print(f"repetition {self.attempted} failed: {exc}", file=sys.stderr)
            return None, None
        return child, spans

    def timed_loop(self) -> list[Child]:
        """Repeat while the next repetition would end nearer to ``seconds``
        than the last one did, so the run measures the whole number of
        repetitions closest to ``seconds``; at least one."""
        done: list[Child] = []
        t0 = time.perf_counter()
        while True:
            child, _ = self.repetition(traced=False)
            if child is not None:
                done.append(child)
            elapsed = time.perf_counter() - t0
            per_rep = elapsed / self.attempted
            if elapsed + per_rep / 2 > self.seconds or per_rep * 2.5 > self.remaining():
                return done


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean_or_zero(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def environment() -> str:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return (f"python={platform.python_version()} numpy={numpy} nproc={os.cpu_count()} "
            f"cpu={cpu!r} commit={commit()}")


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def describe(name: str, values: list[float], unit: str, stat: str) -> str:
    """``stat`` ("mean" or "median") names the figure the JSON reports."""
    if not values:
        return f"{name:<16} no samples"
    value = statistics.fmean(values) if stat == "mean" else statistics.median(values)
    other = (f"mean {statistics.fmean(values):.4f}" if stat == "median"
             else f"median {statistics.median(values):.4f}")
    spread = f"{other} min {min(values):.4f} max {max(values):.4f}" if len(values) > 1 else ""
    return f"{name:<16} {value:12.4f} {unit:<6} {stat} of n={len(values)} {spread}"


def bench(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    b = Bench(workload, seed, seconds, work)
    print(f"perfbench workload={workload.name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"env {environment()}")
    setups = b.set_up()
    print(f"input_sha256   {b.input_digest}")
    if workload.prefix:
        print(f"prefix_sha256  {b.prefix_digest}")
    done = b.timed_loop()
    print(f"release_sha256 {b.release_digest}")
    walls = [c.wall_s for c in done]
    v = b.verdict or check.Verdict(truth_wer=1.0)

    if trace:
        child, spans_path = b.repetition(traced=True)
        metrics = {}
        if child is not None and walls:
            payload = json.loads(spans_path.read_text(encoding="utf-8"))
            if payload["counter_errors"]:
                print(f"counter errors: {payload['counter_errors']}", file=sys.stderr)
            startup = (payload["first_stage_epoch"] or child.spawn_epoch) - child.spawn_epoch
            overhead = child.wall_s - statistics.fmean(walls)
            metrics = layers.layer_metrics(payload["spans"], startup, overhead)
            print(f"traced wall_s {child.wall_s:.4f} s, untraced mean {statistics.fmean(walls):.4f} s")
            print_span_table(payload["spans"])
        for name, unit, _better in layers.PER_LAYER:
            metrics.setdefault(name, {"value": 0.0, "unit": unit})
            print(f"{name:<48} {metrics[name]['value']:14.6f} {unit}")
    else:
        values = {
            "wall_s": mean_or_zero(walls),
            "cpu_s": mean_or_zero([c.cpu_s for c in done]),
            "peak_rss_mb": median_or_zero([c.rss_mib for c in done]),
            "setup_s": statistics.median(setups),
            "truth_word_acc": 1.0 - v.truth_wer,
            "kept_h": v.kept_h,
            "release_mb": v.release_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        print(describe("wall_s", walls, "s", "mean"))
        print(describe("cpu_s", [c.cpu_s for c in done], "s", "mean"))
        print(describe("peak_rss_mb", [c.rss_mib for c in done], "MiB", "median"))
        print(describe("setup_s", setups, "s", "median"))
        for name in ("truth_word_acc", "kept_h", "release_mb"):
            print(f"{name:<16} {values[name]:12.6f} {END_TO_END[name]}")
    print(f"{'truth_wer':<16} {v.truth_wer:12.6f} share (released words vs generator truth)")
    print(f"{'segments':<16} {v.segments:12d} count ({v.accepted} accepted)")
    print(f"{'failed_share':<16} {b.failed / b.attempted:12.6f} share ({b.failed} of {b.attempted})")
    return {
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": metrics,
    }


def print_span_table(spans: list[list]) -> None:
    """Every traced function that ran: calls, busy and self seconds."""
    stats = layers.span_stats(spans)
    print(f"{'span':<48} {'calls':>8} {'busy_s':>10} {'self_s':>10}")
    for name in sorted(stats, key=lambda n: -stats[n].busy_s):
        st = stats[name]
        print(f"{name:<48} {st.calls:8d} {st.busy_s:10.4f} {st.self_s:10.4f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS | EXTRA_WORKLOADS))
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "corpus_forge" / "cli.py").is_file():
        print(f"perfbench: no corpus-forge sources under {SRC}", file=sys.stderr)
        return 2

    # turn SIGTERM into SystemExit so run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = bench((WORKLOADS | EXTRA_WORKLOADS)[args.workload], args.seed, args.seconds, bool(args.trace), work)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
