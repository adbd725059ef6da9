"""Query flags, matching semantics, and report formats."""

from collections import Counter

import pytest

from rvjop.classify import (LOCAL_ROLES, ROLES, classify, dispatcher_index,
                            find_dispatchers)
from rvjop.cli import _build_parser, _query, main
from rvjop.errors import UsageError
from rvjop.image import from_bytes, parse_elf
from rvjop.isa import reg
from rvjop.query import (Query, dispatcher_lookup, emit_records,
                         render_listing, run_query)
from rvjop.scanner import Gadget, extract_gadgets

from conftest import (CodeBuilder, benchmark_corpus, count_calls, query_hits,
                      refuse_calls, roles_of, summary_of)


def _fixture_builder():
    b = CodeBuilder()
    b.label("li_a2")
    b.emit("li", "a2", 0)
    b.emit("ret")
    b.label("li_a2_5")
    b.emit("li", "a2", 5)
    b.emit("ret")
    b.label("li_a0")
    b.emit("li", "a0", 0)
    b.emit("ret")
    b.label("bump")
    b.emit("addi", "a2", "a2", 4)
    b.emit("c.jr", "a5")
    b.label("save")
    b.emit("sw", "s0", "sp", 0)
    b.emit("ret")
    return b


def workload_image(workload, seed):
    c = benchmark_corpus().build(workload, seed)
    return (parse_elf(c.file_bytes) if c.fmt == "elf"
            else from_bytes(c.code, c.base, c.xlen))


@pytest.fixture(scope="module")
def fixture_image():
    b = _fixture_builder()
    return b.image(), dict(b.labels)


@pytest.fixture(scope="module")
def fixture_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("query") / "fixture.bin"
    path.write_bytes(_fixture_builder().blob())
    return path


# --- flag parsing, by the command line's parser ------------------------------

def query_flags(argv):
    """The Query that `rvjop query` builds from these filter flags."""
    return _query(_build_parser().parse_args(["query", *argv]))


def run_cli(capsys, blob, argv):
    """`rvjop query` on `blob` with these flags: (exit code, stderr)."""
    code = main(["query", "--raw", str(blob), *argv])
    return code, capsys.readouterr().err


def test_parse_both_spellings():
    a = query_flags(["--op=li", "--imm=0", "--rr=a2"])
    b = query_flags(["--op", "li", "--imm", "0", "--rr", "a2"])
    assert a == b
    assert a.op == "li" and a.imm == 0 and a.rr is reg("a2")


def test_parse_numeric_bases():
    q = query_flags(["--imm=0x10"])
    assert q.imm == 16


def test_parse_preserve_accumulates():
    q = query_flags(["--preserve=s0,s1", "--preserve=a0"])
    assert {r.name for r in q.preserve} == {"s0", "s1", "a0"}


def test_parse_rejects_unknown_flag(capsys, fixture_blob):
    code, err = run_cli(capsys, fixture_blob, ["--frobnicate=1"])
    assert code == 2 and "frobnicate" in err and "Traceback" not in err


def test_parse_rejects_bad_values(capsys, fixture_blob):
    for argv in (["--rr=q9"], ["--imm=ten"], ["--max=0"], ["--max=33"],
                 ["--link=zz"], ["--preserve=a0,zz"], ["--unique=1"],
                 ["--op"]):
        code, err = run_cli(capsys, fixture_blob, argv)
        assert code == 2 and "error: argument" in err, argv
        assert "Traceback" not in err, argv


def test_parse_requires_a_filter(capsys, fixture_blob):
    with pytest.raises(UsageError):
        query_flags([])
    with pytest.raises(UsageError):
        query_flags(["--max=2"])
    assert query_flags(["--all"]).all_
    code, err = run_cli(capsys, fixture_blob, ["--max=2"])
    assert code == 2 and err == "rvjop: give at least one filter, or --all\n"


def test_parse_positional_rejected(capsys, fixture_blob):
    code, err = run_cli(capsys, fixture_blob, ["li"])
    assert code == 2 and "unrecognized arguments: li" in err
    assert "Traceback" not in err


def test_parse_query_canonical_flags():
    """Every flag, in the `--flag=value` spelling, to the Query it means."""
    a0, a2, a5, s0, s1 = (reg(n) for n in ("a0", "a2", "a5", "s0", "s1"))
    cases = [
        (["--all"], Query(all_=True)),
        (["--op=li"], Query(op="li")),
        (["--rr=a2"], Query(rr=a2)),
        (["--imm=-2048"], Query(imm=-2048)),
        (["--imm=2047", "--max=32"], Query(imm=2047, max=32)),
        (["--link=ra", "--max=1"], Query(link=reg("ra"), max=1)),
        (["--preserve=s0,s1"], Query(preserve=frozenset({s0, s1}))),
        (["--role=syscall", "--unique"], Query(role="syscall", unique=True)),
        (["--op=lw", "--rr=a0", "--imm=0", "--max=6", "--link=a5",
          "--preserve=s1", "--role=arith", "--unique", "--all"],
         Query(op="lw", rr=a0, imm=0, max=6, link=a5,
               preserve=frozenset({s1}), role="arith", unique=True,
               all_=True)),
    ]
    for argv, want in cases:
        assert query_flags(argv) == want, argv


# --- matching ---------------------------------------------------------------

def test_single_instruction_satisfies_all_conditions(fixture_image):
    img, addrs = fixture_image
    hits = query_hits(img, Query(op="li", imm=0, rr=reg("a2"), max=1))
    starts = {h.start for h in hits}
    assert addrs["li_a2"] in starts
    assert addrs["li_a2_5"] not in starts    # imm differs
    assert addrs["li_a0"] not in starts      # register differs
    assert addrs["bump"] not in starts       # mnemonic differs


def test_conditions_not_satisfiable_across_instructions():
    # li a2 in one instruction, imm 7 in another: no single match
    b = CodeBuilder()
    b.emit("li", "a2", 0)
    b.emit("addi", "a0", "a0", 7)
    b.emit("ret")
    img = b.image()
    assert query_hits(img, Query(op="li", imm=7)) == []
    assert query_hits(img, Query(op="li", imm=0)) != []


def test_link_filter(fixture_image):
    img, addrs = fixture_image
    via_a5 = query_hits(img, Query(all_=True, link=reg("a5")))
    assert via_a5
    assert all(h.link_register is reg("a5") for h in via_a5)


def test_preserve_filter(fixture_image):
    img, addrs = fixture_image
    keep = query_hits(img, Query(op="li", preserve=frozenset({reg("a2")})))
    assert {h.start for h in keep} == {addrs["li_a0"]}


def test_role_filter(fixture_image):
    img, addrs = fixture_image
    stores = query_hits(img, Query(all_=True, role="store"))
    assert any(h.start == addrs["save"] for h in stores)
    assert all("store" in roles_of(h, img) for h in stores)


@pytest.mark.parametrize("workload",
                         ["scan-dense-rv32", "scan-clean-rv64", "chain-long"])
def test_local_roles_filter_with_no_dispatcher_search(monkeypatch, workload):
    """A role read from the gadget alone lists the hits the full roles
    give, on each workload's seed-1 image, with the dispatcher search
    refused."""
    assert LOCAL_ROLES == {"arith", "load", "store", "call", "syscall",
                           "initializer"}
    img = workload_image(workload, 1)
    every = query_hits(img, Query(all_=True, max=6))
    index = dispatcher_index(find_dispatchers(img))
    roles = [classify(h, summary_of(h), index) for h in every]
    want = {role: [(h.start, h.end) for h, r in zip(every, roles)
                   if role in r] for role in LOCAL_ROLES}
    assert want["initializer"] and want["load"]
    refuse_calls(monkeypatch, "find_dispatchers")
    for role in sorted(LOCAL_ROLES):
        got = query_hits(img, Query(role=role, max=6))
        assert [(h.start, h.end) for h in got] == want[role]


def test_max_monotonic(fixture_image):
    img, _ = fixture_image
    prev: set = set()
    for cap in range(1, 6):
        q = Query(all_=True, max=cap)
        now = {(h.start, h.encoding)
               for h in query_hits(img, q)}
        assert prev <= now
        prev = now


def test_unique_collapses(fixture_image):
    img, _ = fixture_image
    every = query_hits(img, Query(op="li"))
    unique = query_hits(img, Query(op="li", unique=True))
    encs = [h.encoding for h in unique]
    assert len(encs) == len(set(encs))
    assert len(unique) <= len(every)


def test_results_ordered_by_start(fixture_image):
    img, _ = fixture_image
    hits = query_hits(img, Query(all_=True))
    starts = [h.start for h in hits]
    assert starts == sorted(starts)


# --- output formats ---------------------------------------------------------

def test_listing_shape(fixture_image):
    img, addrs = fixture_image
    hits = list(run_query(img, Query(op="li", imm=0, rr=reg("a2"), max=1),
                          dispatcher_lookup(img)))
    text = render_listing(hits)
    assert f"0x{addrs['li_a2']:08x}:" in text
    assert text.rstrip().endswith("gadget" if len(hits) == 1 else "gadgets")
    stanzas = text.strip().split("\n\n")
    assert len(stanzas) == len(hits) + 1     # one per gadget plus the count


def test_empty_listing():
    assert render_listing([]) == "0 gadgets\n"


def test_records_round_trip(fixture_image):
    img, _ = fixture_image
    hits = list(run_query(img, Query(all_=True), dispatcher_lookup(img)))
    lines = emit_records(hits, dispatcher_lookup(img)).splitlines()
    assert len(lines) == len(hits)
    for line, (hit, _) in zip(lines, hits):
        offset, alignment, link, roles, written = line.split()
        assert int(offset, 16) == hit.start
        assert alignment == hit.alignment
        assert link == hit.link_register.name
        assert roles == (",".join(roles_of(hit, img)) or "-")
        summary = summary_of(hit)
        names = {r.name for r in summary.written | summary.cond_written}
        assert written == (",".join(sorted(names)) or "-")


def test_records_dash_for_empty(fixture_image):
    img, addrs = fixture_image
    hits = query_hits(img, Query(all_=True, max=1))
    bare = [h for h in hits
            if not (summary_of(h).written | summary_of(h).cond_written)]
    assert bare, "need a gadget with no writes"
    text = emit_records([(h, None) for h in bare], dispatcher_lookup(img))
    assert text.splitlines()[0].split()[-1] == "-"


# --- hits are (gadget, summary) pairs, against a restated reference ---------

def _reference(img):
    """(gadget, summary, roles, record line) for every gadget a query
    reads, each summary and roles computed here, from scratch."""
    index = dispatcher_index(find_dispatchers(img))
    rows = []
    for g in extract_gadgets(img, 4):
        summary = summary_of(g)
        roles = classify(g, summary, index)
        written = sorted(r.name
                         for r in summary.written | summary.cond_written)
        rows.append((g, summary, roles,
                     f"0x{g.start:08x} {g.alignment} "
                     f"{g.terminator.control_flow.base.name} "
                     f"{','.join(roles) or '-'} {','.join(written) or '-'}"))
    return rows


def _listing_starts(text):
    """The first address of each stanza of a listing, and its count line."""
    *stanzas, count = text.rstrip("\n").split("\n\n")
    return [int(s.split(":", 1)[0], 16) for s in stanzas], count


@pytest.mark.parametrize("workload, seed", [
    *((w, seed) for w in ("scan-dense-rv32", "scan-clean-rv64", "chain-long")
      for seed in (1, 2, 3)),
    ("fixture", None)])
def test_hits_and_records_match_a_restated_reference(fixture_image, workload,
                                                     seed):
    """For every role (and none), with and without `--preserve`, the hits
    are the gadgets the reference keeps, each a `Gadget` paired with its
    summary where a filter needed one and None where none did; the
    listing shows them in order, and the record lines are the
    reference's."""
    img = (fixture_image[0] if workload == "fixture"
           else workload_image(workload, seed))
    name = f"{workload}/{seed}"
    rows = _reference(img)
    for preserve in (frozenset(), frozenset({reg("s0")})):
        for role in (None, *ROLES):
            filtered = bool(preserve) or role is not None
            kept = [(g, summary if filtered else None, line)
                    for g, summary, roles, line in rows
                    if not summary.clobbers(preserve)
                    and (role is None or role in roles)]
            want = [g for g, _, _ in kept]
            lines = [line for _, _, line in kept]
            dispatchers = dispatcher_lookup(img)
            hits = list(run_query(img, Query(all_=True, preserve=preserve,
                                             role=role), dispatchers))
            assert all(type(h) is Gadget for h, _ in hits), (name, role)
            assert [h for h, _ in hits] == want, (name, role, preserve)
            assert [s for _, s in hits] == [s for _, s, _ in kept], \
                (name, role, preserve)
            starts, count = _listing_starts(render_listing(hits))
            assert starts == [g.start for g in want], (name, role)
            assert count.split()[0] == str(len(want))
            assert emit_records(hits, dispatchers).splitlines() == lines, \
                (name, role, preserve)


@pytest.mark.parametrize("argv, searches", [
    (["--all", "--role", "dispatcher-classic", "--format", "records"], 1),
    (["--all", "--format", "records"], 1),
    (["--all"], 0),
    (["--all", "--preserve", "s0"], 0),
    (["--all", "--role", "load"], 0),
    (["--all", "--role", "initializer", "--format", "records"], 1),
])
def test_query_searches_dispatchers_at_most_once(capsys, monkeypatch, tmp_path,
                                                 argv, searches):
    """The role filter and the record lines share one dispatcher search,
    which a text listing and a role read from the gadget alone never
    run."""
    c = benchmark_corpus().build("scan-dense-rv32", 1)
    image = tmp_path / "image.elf"
    image.write_bytes(c.file_bytes)
    calls = count_calls(monkeypatch, "find_dispatchers")
    code = main(["query", *c.image_args(image), *argv])
    assert code == 0 and capsys.readouterr().err == ""
    assert len(calls) == searches


def test_records_of_no_hits_search_nothing():
    def refuse():
        raise AssertionError("dispatcher index read")
    assert emit_records([], refuse) == ""


# --- one summary per gadget per command --------------------------------------

def _summarized(calls):
    """(start, length) of each summarized instruction run, with counts."""
    return Counter((insns[0].address, len(insns)) for insns, _ in calls)


def test_len_of_hits_runs_the_query_once(fixture_image, monkeypatch):
    """`len()` before reading runs the filters to the end and keeps the
    pairs, so reading them after summarizes nothing again."""
    img, _ = fixture_image
    q = Query(all_=True, preserve=frozenset({reg("s0")}))
    want = list(run_query(img, q, dispatcher_lookup(img)))
    calls = count_calls(monkeypatch, "summarize_dataflow")
    hits = run_query(img, q, dispatcher_lookup(img))
    assert len(hits) == len(want) and hits.read == 0
    assert len(calls) == len(extract_gadgets(img, 4))
    assert list(hits) == want
    assert hits.read == len(hits) == len(want)
    assert len(calls) == len(extract_gadgets(img, 4))


@pytest.mark.parametrize("workload",
                         ["scan-dense-rv32", "scan-clean-rv64", "chain-long"])
def test_session_commands_summarize_each_gadget_once(capsys, monkeypatch,
                                                     tmp_path, workload):
    """Each of the benchmark session's commands, seed 1, summarizes an
    instruction run at most once, the dispatcher search's included."""
    benchmark_corpus()                      # puts benchmarks/ on sys.path
    import session
    prep = session.prepare(tmp_path, workload, 1)
    assert len(prep.commands) == 10
    calls = count_calls(monkeypatch, "summarize_dataflow")
    for cmd in prep.commands:
        calls.clear()
        assert main(list(cmd.argv)) == 0, cmd.argv
        capsys.readouterr()
        assert max(_summarized(calls).values(), default=1) == 1, cmd.argv


@pytest.mark.parametrize("workload", ["scan-dense-rv32", "scan-clean-rv64"])
@pytest.mark.parametrize("argv", [["--all", "--preserve", "s0"],
                                  ["--role", "load"]])
def test_filtered_records_summarize_each_gadget_once(capsys, monkeypatch,
                                                     tmp_path, workload,
                                                     argv):
    """A filtered records query summarizes every gadget its filter reads
    once, and its lines reuse those summaries.  The one dispatcher search
    the lines read makes its own summaries, some of the same gadgets."""
    c = benchmark_corpus().build(workload, 1)
    image = tmp_path / "image.elf"
    image.write_bytes(c.file_bytes)
    img = parse_elf(c.file_bytes)
    gadgets = {(g.start, len(g.instructions)) for g in extract_gadgets(img, 4)}
    calls = count_calls(monkeypatch, "summarize_dataflow")
    find_dispatchers(parse_elf(c.file_bytes))
    search = _summarized(calls)
    calls.clear()
    code = main(["query", *c.image_args(image), *argv, "--format", "records"])
    assert code == 0 and capsys.readouterr().err == ""
    made = _summarized(calls)
    assert made - search == Counter(gadgets)
    assert made == Counter(gadgets) + search
