"""One benchmark run: generate the corpus, run the session, check, report.

Load model: a closed loop with one client.  Commands run one at a time,
each in a fresh `python -m rvjop.cli` process, the way users invoke
`rvjop`, so no state carries over between commands.  A session pass is
the command list below, with the queries of the query set taking turns,
one per pass; passes repeat until the run's time is up
(the first pass always completes), and each metric is the median of its
samples.  Corpus generation and the oracle run before timing starts.

The shared machine the benchmark was built on runs at one speed for a few
seconds and then at another, up to half again faster or slower, and a
run's share of fast seconds decides its medians.  So every timed job
(a command or a setup) runs between two runs of a fixed reference job
that does not use rvjop (a fresh interpreter running `REFERENCE_JOB`),
and each sample is reported in reference seconds: the measured time
scaled by `REFERENCE_S` over the mean of the two reference times around
it.  A change to rvjop moves a sample and not the reference around it; a
change in machine speed moves both.  Run reports print the measured
medians beside the reported ones.

The traced run runs the commands in-process through `rvjop.cli.main`:
one untraced pass, then passes with every layer's public functions
wrapped (see tracer.py), and reports per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import rvjop
import rvjop.cli
from rvjop.image import from_bytes, parse_elf

import checks
import corpus as corpus_mod
from corpus import Corpus
from tracer import Tracer, layer_metrics, self_times

# Setup samples taken before the first pass; one more follows each pass.
SETUP_SAMPLES = 8

# Pure-Python work shaped like rvjop's (bit fields, dicts, formatting,
# stdlib imports), run in a fresh interpreter like every command.
REFERENCE_JOB = """\
import argparse, dataclasses, json, re
x, seen = 12345, {}
for i in range(15000):
    x = (x * 1103515245 + 12345) & 0x7fffffff
    key = (x & 0x7f, (x >> 7) & 31, (x >> 15) & 31)
    seen[key] = seen.get(key, 0) + 1
text = json.dumps(sorted(f"{k[0]:02x}{k[1]}{k[2]}:{v}" for k, v in seen.items()))
assert len(re.findall(":", text)) == len(seen)
"""
# The reference job's median wall time on the machine the benchmark was
# built on (a shared 2-vCPU 2.0 GHz Xeon VM, Python 3.11), so reference
# seconds read close to that machine's seconds.
REFERENCE_S = 0.18


@dataclass(frozen=True)
class Command:
    metric: str                                # end-to-end metric it times
    argv: tuple[str, ...]                      # rvjop arguments
    check: Callable[[int, str], list[str]]     # (exit code, stdout) -> problems


@dataclass
class Prepared:
    corpus: Corpus
    image: Path
    workdir: Path
    commands: list[Command]
    records_check: Command                     # run once, untimed

    def session_pass(self, k: int) -> list[Command]:
        """Commands of timed pass `k`: each command once, except that
        the queries of the query set take turns, one per pass."""
        queries = [c for c in self.commands if c.metric == "query_s"]
        turn = queries[k % len(queries)]
        return [c for c in self.commands
                if c.metric != "query_s" or c is turn]


def prepare(workdir: Path, workload: str, seed: int, scale: float = 1.0
            ) -> Prepared:
    """Write the workload's files into `workdir` and work out every
    expected answer."""
    c = corpus_mod.build(workload, seed, scale)
    workdir.mkdir(parents=True, exist_ok=True)
    image = workdir / ("image.elf" if c.fmt == "elf" else "image.bin")
    image.write_bytes(c.file_bytes)
    spec = workdir / "chain.txt"
    spec.write_text(c.chain_text())
    loaded = parse_elf(c.file_bytes) if c.fmt == "elf" \
        else from_bytes(c.code, c.base, c.xlen)
    exp = checks.expected_for(loaded)
    img = tuple(c.image_args(image))
    a = c.labels

    def query(argv, target):
        planted = None if target is None else a[target]
        return Command("query_s", ("query",) + img + argv,
                       lambda code, out: checks.check_query(
                           code, out, exp, argv, planted))

    commands = [
        Command("scan_s", ("scan",) + img + ("--max", "4"),
                lambda code, out: checks.check_scan(code, out, exp)),
        *[query(argv, target) for argv, target in c.queries],
        Command("dispatchers_s", ("dispatchers",) + img,
                lambda code, out: checks.check_dispatchers(code, out, c)),
        Command("initializers_s",
                ("initializers",) + img + ("--dispatcher", hex(a["loop"])),
                lambda code, out: checks.check_initializers(code, out, c)),
        Command("stats_s", ("stats",) + img,
                lambda code, out: checks.check_stats(code, out, exp)),
        Command("chain_s", ("chain",) + img + ("--spec", str(spec)),
                lambda code, out: checks.check_chain(code, out, c)),
        Command("chain_sim_s",
                ("chain",) + img + ("--spec", str(spec), "--simulate"),
                lambda code, out: checks.check_chain_sim(code, out, c)),
    ]
    records = Command("scan_records", ("scan",) + img +
                      ("--max", "4", "--format", "records"),
                      lambda code, out: checks.check_scan_records(
                          code, out, exp))
    return Prepared(c, image, workdir, commands, records)


class Runner:
    """Runs commands as child processes and keeps the tallies."""

    def __init__(self, src: Path, prep: Prepared):
        self.prep = prep
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_kb = 0
        self.measured: dict[str, list[float]] = {}   # seconds as measured
        self._last_reference: float | None = None

    def _spawn(self, argv: list[str], stdout) -> tuple[int, float, int]:
        """(exit code, wall seconds, max RSS in KiB) of one child."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout,
                                stderr=subprocess.DEVNULL,
                                cwd=self.prep.workdir, env=self.env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss

    def record(self, cmd: Command, code: int, out: str) -> None:
        self.attempted += 1
        problems = cmd.check(code, out)
        if problems:
            self.failed += 1
            self.problems.append(f"{cmd.argv[0]} ({cmd.metric}): "
                                 f"{'; '.join(problems)}")

    def run(self, cmd: Command) -> float:
        """Run one CLI command, check its output, return its wall time."""
        path = self.prep.workdir / "stdout.txt"
        with open(path, "w+b") as fh:
            code, wall, rss = self._spawn(
                [sys.executable, "-m", "rvjop.cli", *cmd.argv], fh)
            fh.seek(0)
            out = fh.read().decode("utf-8", "replace")
        self.peak_rss_kb = max(self.peak_rss_kb, rss)
        self.record(cmd, code, out)
        return wall

    def setup(self) -> float:
        """Fresh interpreter: import rvjop and load the image."""
        c = self.prep.corpus
        path = str(self.prep.image)
        load = f"rvjop.load_elf({path!r})" if c.fmt == "elf" else \
            f"rvjop.load_raw({path!r}, {c.base}, {c.xlen})"
        code, wall, _ = self._spawn(
            [sys.executable, "-c", f"import rvjop; {load}"],
            subprocess.DEVNULL)
        if code != 0:
            self.failed += 1
            self.problems.append(f"setup exited with {code}")
        self.attempted += 1
        return wall

    def reference(self) -> float:
        """Wall time of the reference job in a fresh interpreter."""
        code, wall, _ = self._spawn([sys.executable, "-c", REFERENCE_JOB],
                                    subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"reference job exited with {code}")
        return wall

    def timed(self, metric: str, job: Callable[[], float]) -> float:
        """Run `job` (which returns its measured wall time) between two
        reference jobs and return its time in reference seconds.  Jobs
        run back to back share the reference job between them."""
        before = self._last_reference
        if before is None:
            before = self.reference()
        wall = job()
        self._last_reference = after = self.reference()
        self.measured.setdefault(metric, []).append(wall)
        return wall * 2 * REFERENCE_S / (before + after)

    def passes(self, seconds: float, between: Callable[[], None]
               ) -> tuple[dict[str, list[float]], list[float]]:
        """Session passes until `seconds` run out; the first one always
        completes.  Returns per-metric samples and the time of each whole
        pass (its commands, without the reference jobs between them)."""
        samples: dict[str, list[float]] = {}
        sessions = []
        deadline = time.perf_counter() + seconds
        while True:
            total = measured = 0.0
            for cmd in self.prep.session_pass(len(sessions)):
                if sessions and time.perf_counter() >= deadline:
                    return samples, sessions
                t = self.timed(cmd.metric, lambda: self.run(cmd))
                samples.setdefault(cmd.metric, []).append(t)
                total += t
                measured += self.measured[cmd.metric][-1]
            sessions.append(total)
            self.measured.setdefault("session_s", []).append(measured)
            between()
            if time.perf_counter() >= deadline:
                return samples, sessions


def measure(src: Path, prep: Prepared, seconds: float
            ) -> tuple[Runner, dict[str, tuple[float, str, int]]]:
    """Untraced run: every end-to-end metric as (value, unit, samples),
    times in reference seconds (`r.measured` keeps the measured ones).

    `src` is the directory the child processes import rvjop from."""
    r = Runner(src, prep)
    r.run(prep.records_check)
    r.setup()                                  # warm the bytecode cache
    setups = []

    def sample_setup():
        setups.append(r.timed("setup_s", r.setup))

    for _ in range(SETUP_SAMPLES):
        sample_setup()
    samples, sessions = r.passes(seconds, sample_setup)

    metrics = {"setup_s": (statistics.median(setups), "s", len(setups))}
    for name, xs in samples.items():
        metrics[name] = (statistics.median(xs), "s", len(xs))
    metrics["session_s"] = (statistics.median(sessions), "s", len(sessions))
    metrics["peak_rss_mb"] = (r.peak_rss_kb / 1024, "MiB", r.attempted)
    return r, metrics


def _run_in_process(main, r: Runner, cmd: Command) -> tuple[float, int]:
    """One command through rvjop.cli.main: (wall, stdout bytes)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(cmd.argv))
    wall = time.perf_counter() - t0
    text = out.getvalue()
    r.record(cmd, code, text)
    return wall, len(text.encode())


def measure_traced(src: Path, prep: Prepared, seconds: float
                   ) -> tuple[Runner, dict[str, tuple[float, str, int]]]:
    """Traced run: per-layer metrics, medians over traced passes.

    Every command runs in-process here, so the tracing overhead is the
    traced pass minus one untraced in-process pass of the same commands;
    comparing with the untraced run's session_s would also count the
    interpreter start-ups that in-process runs skip.
    """
    r = Runner(src, prep)
    deadline = time.perf_counter() + seconds
    t0 = time.perf_counter()
    for cmd in prep.commands:
        _run_in_process(rvjop.cli.main, r, cmd)
    untraced = time.perf_counter() - t0

    tr = Tracer()
    tr.install(rvjop)
    passes = []                  # (span range, wall, stdout bytes, cmd walls)
    n = len(prep.commands)
    try:
        while True:
            lo = len(tr)
            t0 = time.perf_counter()
            cmd_walls, out_bytes = 0.0, 0
            for k, cmd in enumerate(prep.commands):
                tr.current_command = len(passes) * n + k
                wall, size = _run_in_process(rvjop.cli.main, r, cmd)
                cmd_walls += wall
                out_bytes += size
            passes.append(((lo, len(tr)), time.perf_counter() - t0,
                           out_bytes, cmd_walls))
            if time.perf_counter() >= deadline:
                break
    finally:
        tr.uninstall()

    selfs = self_times(tr.start, tr.end, tr.parent)
    tr.write(prep.workdir / "spans.bin")
    per_pass = []
    for (lo, hi), wall, out_bytes, cmd_walls in passes:
        m = layer_metrics(tr, selfs, lo, hi, prep.corpus.halfwords, n)
        m["cli.output_bytes"] = out_bytes
        m["trace.session_s"] = wall
        m["trace.untraced_session_s"] = untraced
        m["trace.overhead_s"] = wall - untraced
        m["trace.self_coverage"] = sum(selfs[lo:hi]) / cmd_walls
        per_pass.append(m)
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        metrics[name] = (statistics.median(values), _unit(name), len(values))
    return r, metrics


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_halfword", "_per_gadget",
                      "_per_step", "_coverage")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"
