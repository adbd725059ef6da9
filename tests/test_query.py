"""Query parsing, matching semantics, and report formats."""

import pytest

from rvjop.errors import UsageError
from rvjop.isa import reg
from rvjop.query import (Query, emit_records, parse_query, parse_records,
                         render_listing, run_query)

from conftest import CodeBuilder


@pytest.fixture(scope="module")
def fixture_image():
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
    return b.image(), dict(b.labels)


# --- flag parsing -----------------------------------------------------------

def test_parse_both_spellings():
    a = parse_query(["--op=li", "--imm=0", "--rr=a2"])
    b = parse_query(["--op", "li", "--imm", "0", "--rr", "a2"])
    assert a == b
    assert a.op == "li" and a.imm == 0 and a.rr is reg("a2")


def test_parse_numeric_bases():
    q = parse_query(["--imm=0x10"])
    assert q.imm == 16


def test_parse_preserve_accumulates():
    q = parse_query(["--preserve=s0,s1", "--preserve=a0"])
    assert {r.name for r in q.preserve} == {"s0", "s1", "a0"}


def test_parse_rejects_unknown_flag():
    with pytest.raises(UsageError) as ei:
        parse_query(["--frobnicate=1"])
    assert "frobnicate" in str(ei.value)


def test_parse_rejects_bad_values():
    for argv in (["--rr=q9"], ["--imm=ten"], ["--max=0"], ["--max=33"],
                 ["--link=zz"], ["--preserve=a0,zz"], ["--unique=1"],
                 ["--op"]):
        with pytest.raises(UsageError):
            parse_query(argv)


def test_parse_requires_a_filter():
    with pytest.raises(UsageError):
        parse_query([])
    with pytest.raises(UsageError):
        parse_query(["--max=2"])
    assert parse_query(["--all"]).all_


def test_parse_positional_rejected():
    with pytest.raises(UsageError):
        parse_query(["li"])


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
        assert parse_query(argv) == want, argv


# --- matching ---------------------------------------------------------------

def test_single_instruction_satisfies_all_conditions(fixture_image):
    img, addrs = fixture_image
    hits = run_query(img, parse_query(["--op=li", "--imm=0", "--rr=a2",
                                       "--max=1"]))
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
    assert run_query(img, parse_query(["--op=li", "--imm=7"])) == []
    assert run_query(img, parse_query(["--op=li", "--imm=0"])) != []


def test_link_filter(fixture_image):
    img, addrs = fixture_image
    via_a5 = run_query(img, parse_query(["--all", "--link=a5"]))
    assert via_a5
    assert all(h.gadget.link_register is reg("a5") for h in via_a5)


def test_preserve_filter(fixture_image):
    img, addrs = fixture_image
    keep = run_query(img, parse_query(["--op=li", "--preserve=a2"]))
    assert {h.gadget.start for h in keep} == {addrs["li_a0"]}


def test_role_filter(fixture_image):
    img, addrs = fixture_image
    stores = run_query(img, parse_query(["--all", "--role=store"]))
    assert any(h.gadget.start == addrs["save"] for h in stores)
    assert all("store" in h.roles for h in stores)


def test_max_monotonic(fixture_image):
    img, _ = fixture_image
    prev: set = set()
    for cap in range(1, 6):
        q = parse_query(["--all", f"--max={cap}"])
        now = {(h.gadget.start, h.gadget.encoding)
               for h in run_query(img, q)}
        assert prev <= now
        prev = now


def test_unique_collapses(fixture_image):
    img, _ = fixture_image
    every = run_query(img, parse_query(["--op=li"]))
    unique = run_query(img, parse_query(["--op=li", "--unique"]))
    encs = [h.gadget.encoding for h in unique]
    assert len(encs) == len(set(encs))
    assert len(unique) <= len(every)


def test_results_ordered_by_start(fixture_image):
    img, _ = fixture_image
    hits = run_query(img, parse_query(["--all"]))
    starts = [h.gadget.start for h in hits]
    assert starts == sorted(starts)


# --- output formats ---------------------------------------------------------

def test_listing_shape(fixture_image):
    img, addrs = fixture_image
    hits = run_query(img, parse_query(["--op=li", "--imm=0", "--rr=a2",
                                       "--max=1"]))
    text = render_listing(hits)
    assert f"0x{addrs['li_a2']:08x}:" in text
    assert text.rstrip().endswith("gadget" if len(hits) == 1 else "gadgets")
    stanzas = text.strip().split("\n\n")
    assert len(stanzas) == len(hits) + 1     # one per gadget plus the count


def test_empty_listing():
    assert render_listing([]) == "0 gadgets\n"


def test_records_round_trip(fixture_image):
    img, _ = fixture_image
    hits = run_query(img, parse_query(["--all"]))
    text = emit_records(hits)
    back = parse_records(text)
    assert len(back) == len(hits)
    for rec, hit in zip(back, hits):
        assert rec.offset == hit.gadget.start
        assert rec.alignment == hit.gadget.alignment
        assert rec.link == hit.gadget.link_register.name
        assert rec.roles == hit.roles
        written = hit.summary.written | hit.summary.cond_written
        assert set(rec.written) == {r.name for r in written}


def test_records_dash_for_empty(fixture_image):
    img, addrs = fixture_image
    hits = run_query(img, parse_query(["--all", "--max=1"]))
    bare = [h for h in hits
            if not (h.summary.written | h.summary.cond_written)]
    assert bare, "need a gadget with no writes"
    text = emit_records(bare)
    assert text.splitlines()[0].split()[-1] == "-"


def test_records_reject_malformed():
    with pytest.raises(UsageError):
        parse_records("0x10 natural ra arith\n")        # four fields
    with pytest.raises(UsageError):
        parse_records("zz natural ra arith a0\n")       # bad offset
