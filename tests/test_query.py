"""Query flags, matching semantics, and report formats."""

import pytest

from rvjop.classify import LOCAL_ROLES
from rvjop.cli import _build_parser, _query, main
from rvjop.errors import UsageError
from rvjop.image import from_bytes, parse_elf
from rvjop.isa import reg
from rvjop.query import Query, emit_records, render_listing, run_query

from conftest import CodeBuilder, benchmark_corpus, refuse_calls


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
    hits = run_query(img, Query(op="li", imm=0, rr=reg("a2"), max=1))
    starts = {h.gadget.start for h in hits}
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
    assert run_query(img, Query(op="li", imm=7)) == []
    assert run_query(img, Query(op="li", imm=0)) != []


def test_link_filter(fixture_image):
    img, addrs = fixture_image
    via_a5 = run_query(img, Query(all_=True, link=reg("a5")))
    assert via_a5
    assert all(h.gadget.link_register is reg("a5") for h in via_a5)


def test_preserve_filter(fixture_image):
    img, addrs = fixture_image
    keep = run_query(img, Query(op="li", preserve=frozenset({reg("a2")})))
    assert {h.gadget.start for h in keep} == {addrs["li_a0"]}


def test_role_filter(fixture_image):
    img, addrs = fixture_image
    stores = run_query(img, Query(all_=True, role="store"))
    assert any(h.gadget.start == addrs["save"] for h in stores)
    assert all("store" in h.roles for h in stores)


@pytest.mark.parametrize("workload",
                         ["scan-dense-rv32", "scan-clean-rv64", "chain-long"])
def test_local_roles_filter_with_no_dispatcher_search(monkeypatch, workload):
    """A role read from the gadget alone lists the hits the full roles
    give, on each workload's seed-1 image, with the dispatcher search
    refused."""
    assert LOCAL_ROLES == {"arith", "load", "store", "call", "syscall",
                           "initializer"}
    c = benchmark_corpus().build(workload, 1)
    img = (parse_elf(c.file_bytes) if c.fmt == "elf"
           else from_bytes(c.code, c.base, c.xlen))
    every = run_query(img, Query(all_=True, max=6))
    want = {role: [(h.gadget.start, h.gadget.end) for h in every
                   if role in h.roles] for role in LOCAL_ROLES}
    assert want["initializer"] and want["load"]
    refuse_calls(monkeypatch, "find_dispatchers")
    for role in sorted(LOCAL_ROLES):
        got = run_query(img, Query(role=role, max=6))
        assert [(h.gadget.start, h.gadget.end) for h in got] == want[role]


def test_max_monotonic(fixture_image):
    img, _ = fixture_image
    prev: set = set()
    for cap in range(1, 6):
        q = Query(all_=True, max=cap)
        now = {(h.gadget.start, h.gadget.encoding)
               for h in run_query(img, q)}
        assert prev <= now
        prev = now


def test_unique_collapses(fixture_image):
    img, _ = fixture_image
    every = run_query(img, Query(op="li"))
    unique = run_query(img, Query(op="li", unique=True))
    encs = [h.gadget.encoding for h in unique]
    assert len(encs) == len(set(encs))
    assert len(unique) <= len(every)


def test_results_ordered_by_start(fixture_image):
    img, _ = fixture_image
    hits = run_query(img, Query(all_=True))
    starts = [h.gadget.start for h in hits]
    assert starts == sorted(starts)


# --- output formats ---------------------------------------------------------

def test_listing_shape(fixture_image):
    img, addrs = fixture_image
    hits = run_query(img, Query(op="li", imm=0, rr=reg("a2"), max=1))
    text = render_listing(hits)
    assert f"0x{addrs['li_a2']:08x}:" in text
    assert text.rstrip().endswith("gadget" if len(hits) == 1 else "gadgets")
    stanzas = text.strip().split("\n\n")
    assert len(stanzas) == len(hits) + 1     # one per gadget plus the count


def test_empty_listing():
    assert render_listing([]) == "0 gadgets\n"


def test_records_round_trip(fixture_image):
    img, _ = fixture_image
    hits = run_query(img, Query(all_=True))
    lines = emit_records(hits).splitlines()
    assert len(lines) == len(hits)
    for line, hit in zip(lines, hits):
        offset, alignment, link, roles, written = line.split()
        assert int(offset, 16) == hit.gadget.start
        assert alignment == hit.gadget.alignment
        assert link == hit.gadget.link_register.name
        assert roles == (",".join(hit.roles) or "-")
        names = {r.name for r in hit.summary.written | hit.summary.cond_written}
        assert written == (",".join(sorted(names)) or "-")


def test_records_dash_for_empty(fixture_image):
    img, addrs = fixture_image
    hits = run_query(img, Query(all_=True, max=1))
    bare = [h for h in hits
            if not (h.summary.written | h.summary.cond_written)]
    assert bare, "need a gadget with no writes"
    text = emit_records(bare)
    assert text.splitlines()[0].split()[-1] == "-"
