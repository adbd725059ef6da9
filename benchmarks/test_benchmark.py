"""Tests of the benchmark itself (not of rvjop).

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import corpus  # noqa: E402
import session  # noqa: E402
import tracer  # noqa: E402

import rvjop  # noqa: E402
import rvjop.cli  # noqa: E402

# `rvjop.classify` is the classify() function, not the module.
CLASSIFY = sys.modules["rvjop.classify"]

SMALL = 0.05


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_identical_files(workload):
    a, b = corpus.build(workload, 7, 0.25), corpus.build(workload, 7, 0.25)
    assert a.file_bytes == b.file_bytes
    assert a.chain_text() == b.chain_text()
    assert a.queries == b.queries
    assert corpus.build(workload, 8, 0.25).code != a.code


def test_full_size_images_are_linear_to_build():
    c = corpus.build("scan-dense-rv32", 1)
    assert len(c.code) >= corpus.DENSE_SIZE
    assert c.file_bytes[:4] == b"\x7fELF" and c.file_bytes[4] == 1
    c = corpus.build("scan-clean-rv64", 1)
    assert c.file_bytes[4] == 2                      # ELFCLASS64
    assert corpus.build("chain-long", 1).fmt == "raw"


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = rvjop.cli.main(list(argv))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def chain_prep(tmp_path_factory):
    return session.prepare(tmp_path_factory.mktemp("bench"), "chain-long", 3,
                           scale=0.01)


@pytest.fixture(scope="module")
def dense_prep(tmp_path_factory):
    return session.prepare(tmp_path_factory.mktemp("bench"),
                           "scan-dense-rv32", 3, scale=SMALL)


def test_every_command_passes_its_check(dense_prep):
    r = session.Runner(ROOT / "src", dense_prep)
    for cmd in dense_prep.commands + [dense_prep.records_check]:
        r.record(cmd, *_cli(cmd.argv))
    assert r.problems == []
    assert (r.attempted, r.failed) == (len(dense_prep.commands) + 1, 0)


def test_timed_passes_take_turns_over_the_query_set(dense_prep):
    queries = [c for c in dense_prep.commands if c.metric == "query_s"]
    others = [c for c in dense_prep.commands if c.metric != "query_s"]
    seen = []
    for k in range(2 * len(queries)):
        cmds = dense_prep.session_pass(k)
        (q,) = [c for c in cmds if c.metric == "query_s"]
        assert [c for c in cmds if c is not q] == others
        seen.append(q)
    assert seen == queries + queries


def test_timed_jobs_are_scaled_by_the_reference_jobs_around_them(
        dense_prep, monkeypatch):
    r = session.Runner(ROOT / "src", dense_prep)
    refs = iter([0.1, 0.3, 0.2])
    monkeypatch.setattr(r, "reference", lambda: next(refs))
    ref = session.REFERENCE_S
    assert r.timed("scan_s", lambda: 1.0) == pytest.approx(ref / 0.2)
    # The second job shares the reference job (0.3) after the first.
    assert r.timed("scan_s", lambda: 0.5) == pytest.approx(0.5 * ref / 0.25)
    assert r.measured == {"scan_s": [1.0, 0.5]}


def _corruptions(metric, out):
    """A few ways to damage a correct output of the command for `metric`."""
    if metric == "scan_s":
        blocks = out.split("\n\n")
        yield "\n\n".join(blocks[1:])                # lose the first gadget
    elif metric == "dispatchers_s":
        yield "\n".join(out.splitlines()[1:]) + "\n"
    elif metric == "stats_s":
        head, row, total = out.splitlines()
        yield f"{head}\n{row} | 1\n{total}\n"
    elif metric == "chain_sim_s":
        yield out.replace("stealth        yes", "stealth        no")
        yield out.replace("ecall 63", "ecall 62")


@pytest.mark.parametrize("metric", ["scan_s", "dispatchers_s", "stats_s",
                                    "chain_sim_s"])
def test_corrupted_output_counts_as_failure(dense_prep, metric):
    (cmd,) = [c for c in dense_prep.commands if c.metric == metric]
    code, out = _cli(cmd.argv)
    for bad in _corruptions(metric, out):
        r = session.Runner(ROOT / "src", dense_prep)
        r.record(cmd, code, out)
        r.record(cmd, code, bad)
        assert (r.attempted, r.failed) == (2, 1)
    r = session.Runner(ROOT / "src", dense_prep)
    r.record(cmd, 1, out)                            # wrong exit code
    assert r.failed == 1


def test_self_times_of_a_synthetic_nest():
    # root [0,10]: A [1,4] holding A1 [2,3], then B [5,9] and C [8,12];
    # C overlaps B and runs past the root's end.  Listed out of order.
    spans = {"C": (8, 12, "root"), "A1": (2, 3, "A"), "root": (0, 10, None),
             "B": (5, 9, "root"), "A": (1, 4, "root")}
    names = list(spans)
    start = array("d", (spans[n][0] for n in names))
    end = array("d", (spans[n][1] for n in names))
    parent = array("i", (names.index(spans[n][2]) if spans[n][2] else -1
                         for n in names))
    got = dict(zip(names, tracer.self_times(start, end, parent)))
    # root: 10 - |[1,4] u [5,9] u [8,10]| = 10 - 8
    assert got == {"root": 2, "A": 2, "A1": 1, "B": 4, "C": 4}


def test_tracer_wraps_every_lookup_and_restores(chain_prep, tmp_path):
    originals = (rvjop.scanner.decode_one, CLASSIFY.decode_one,
                 rvjop.sim.decode_one, rvjop.cli.extract_gadgets)
    tr = tracer.Tracer()
    tr.install(rvjop)
    try:
        assert rvjop.scanner.decode_one is rvjop.sim.decode_one
        assert rvjop.scanner.decode_one is not originals[0]
        for cmd in chain_prep.commands:
            tr.current_command += 1
            _cli(cmd.argv)
    finally:
        tr.uninstall()
    assert (rvjop.scanner.decode_one, CLASSIFY.decode_one,
            rvjop.sim.decode_one, rvjop.cli.extract_gadgets) == originals

    names = {tr.names[k] for k in tr.name}
    assert {"cli.main", "decoder.decode_one", "scanner.extract_gadgets",
            "classify.find_dispatchers", "dataflow.summarize_dataflow",
            "chain.parse_chain_text", "sim.run_chain"} <= names
    selfs = tracer.self_times(tr.start, tr.end, tr.parent)
    roots = [i for i in range(len(tr)) if tr.parent[i] < 0]
    assert {tr.names[tr.name[i]] for i in roots} == {"cli.main"}
    total = sum(tr.end[i] - tr.start[i] for i in roots)
    assert sum(selfs) == pytest.approx(total, rel=1e-9)

    tr.write(tmp_path / "spans.bin")
    names_back, cols = tracer.read_spans(tmp_path / "spans.bin")
    assert names_back == tr.names
    assert cols["start"] == tr.start and cols["parent"] == tr.parent


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_traced_run_reports_every_per_layer_metric(chain_prep):
    r, metrics = session.measure_traced(ROOT / "src", chain_prep, 0)
    assert r.failed == 0
    want = [(m["name"], m["unit"]) for m in _benchmark_json()["per_layer"]]
    assert [(k, unit) for k, (_, unit, _) in metrics.items()] == want
    assert metrics["sim.dispatch_rounds"][0] == chain_prep.corpus.entries
    assert metrics["trace.self_coverage"][0] == pytest.approx(1, abs=0.05)


def test_untraced_run_reports_every_end_to_end_metric(chain_prep):
    r, metrics = session.measure(ROOT / "src", chain_prep, 0)
    assert (r.failed, r.problems) == (0, [])
    want = [(m["name"], m["unit"]) for m in _benchmark_json()["end_to_end"]]
    assert [(k, unit) for k, (_, unit, _) in metrics.items()] == want
    assert all(value > 0 for value, _, _ in metrics.values())
