"""Role assignment, dispatcher discovery, initializer pairing, stats."""

import sys

import pytest

from rvjop.classify import (ARITH, DISPATCHER_AUTONOMOUS, DISPATCHER_CLASSIC,
                            DISPATCHER_TWO_STAGE, INITIALIZER, LOAD, STORE,
                            SYSCALL, UNCLASSIFIED, availability_stats,
                            classify, dispatcher_at, dispatcher_index,
                            find_dispatchers,
                            find_initializers, initializer_sources,
                            render_stats_table)
from rvjop.chain import parse_chain_text
from rvjop.cli import main
from rvjop.image import from_bytes, parse_elf
from rvjop.scanner import (NATURAL, SHIFTED, dedupe, extract_gadgets,
                           gadget_at, terminators)
from rvjop.isa import RA, reg

from conftest import (PF_R, PF_W, PF_X, TABLE_BASE, CodeBuilder,
                      benchmark_corpus, count_calls, make_elf, refuse_calls)
from oracle import natural_starts

# `import rvjop.classify` binds the function the package re-exports.
CLASSIFY = sys.modules["rvjop.classify"]
DECODER = sys.modules["rvjop.decoder"]


def roles_of(image, address, context=None):
    g = gadget_at(image, address)
    return {r.kind for r in classify(g, dispatchers=context)}


# --- body-local roles -------------------------------------------------------

def test_arith_load_store_roles():
    b = CodeBuilder()
    b.label("arith")
    b.emit("addi", "a2", "a2", 4)
    b.emit("ret")
    b.label("load")
    b.emit("lw", "a0", "a1", 0)
    b.emit("ret")
    b.label("store")
    b.emit("sw", "a0", "a1", 0)
    b.emit("ret")
    img = b.image()
    assert ARITH in roles_of(img, b.labels["arith"])
    assert LOAD in roles_of(img, b.labels["load"])
    assert STORE in roles_of(img, b.labels["store"])


def test_syscall_role_with_id():
    b = CodeBuilder()
    b.label("g")
    b.emit("li", "a7", 56)
    b.emit("ecall")
    b.emit("ret")
    img = b.image()
    g = gadget_at(img, b.labels["g"])
    roles = classify(g)
    sys_roles = [r for r in roles if r.kind == SYSCALL]
    assert sys_roles and sys_roles[0].detail == 56


def test_syscall_role_inherited_a7():
    b = CodeBuilder()
    b.label("g")
    b.emit("ecall")
    b.emit("ret")
    img = b.image()
    roles = {r.kind: r for r in classify(gadget_at(img, b.labels["g"]))}
    assert SYSCALL in roles
    assert roles[SYSCALL].detail is None   # caller must have set a7


@pytest.mark.parametrize("body, sysno", [
    ([("addiw", "a7", "zero", 93)], 93),
    ([("lui", "a7", 1), ("addiw", "a7", "a7", -1)], 4095),
    ([("li", "a7", 60), ("c.addiw", "a7", 3)], 63),
])
def test_syscall_id_through_addiw_on_rv64(body, sysno):
    b = CodeBuilder(xlen=64)
    b.label("g")
    for insn in body:
        b.emit(*insn)
    b.emit("ecall")
    b.emit("ret")
    g = gadget_at(b.image(), b.labels["g"])
    sys_roles = [r for r in classify(g) if r.kind == SYSCALL]
    assert [r.detail for r in sys_roles] == [sysno]


def test_unclassified_fallback():
    b = CodeBuilder()
    b.emit("c.jr", "t2")
    img = b.image()
    assert roles_of(img, b.base) == {UNCLASSIFIED}


# --- dispatcher discovery ---------------------------------------------------

def test_autonomous_dispatcher_fields(adg):
    img, addrs = adg
    found = find_dispatchers(img)
    auto = [d for d in found if d.kind == DISPATCHER_AUTONOMOUS]
    assert len(auto) == 1
    d = auto[0]
    assert d.loop_entry == addrs["loop"]
    assert d.table_reg is reg("s0")
    assert d.target_reg is reg("a5")
    assert d.stride == 4
    assert d.gadget.terminator_links
    assert not d.pre_increment
    assert d.self_link.kind == "conditional"
    assert d.self_link.op == "lt"
    assert d.self_link.regs == (reg("s0"), reg("s1"))
    assert d.required_registers == {reg("s0"), reg("s1")}
    # return path carries the update and the loop branch
    assert [x.mnemonic for x in d.return_path] == ["addi", "blt"]


def test_self_link_below_segment_start_is_not_autonomous():
    # bne jumps to base-8; wrapping that to the segment's tail would read
    # `lw t1,0(s1); nop` as the loop body.
    b = CodeBuilder(base=0x1000)
    b.emit("jalr", "ra", "t1", 0)
    b.emit("addi", "s1", "s1", 4)
    b.emit("bne", "s1", "s2", -16)
    b.emit("lw", "t1", "s1", 0)
    b.emit("nop")
    found = find_dispatchers(b.image())
    assert not [d for d in found if d.kind == DISPATCHER_AUTONOMOUS]


def test_return_path_off_segment_end_is_not_autonomous():
    b = CodeBuilder()
    b.emit("lw", "a5", "s0", 0)
    b.emit("jalr", "ra", "a5", 0)
    b.emit("addi", "s0", "s0", 4)         # segment ends before any branch
    found = find_dispatchers(b.image())
    assert not [d for d in found if d.kind == DISPATCHER_AUTONOMOUS]


def test_classic_dispatcher_fields(classic):
    img, addrs = classic
    found = find_dispatchers(img)
    cls = [d for d in found if d.kind == DISPATCHER_CLASSIC]
    assert len(cls) == 1
    d = cls[0]
    assert d.loop_entry == addrs["dispatch"]
    assert d.table_reg is reg("s0")
    assert d.target_reg is reg("a5")
    assert d.stride == 4
    assert not d.gadget.terminator_links
    assert not d.pre_increment


def test_two_stage_dispatcher_fields(two_stage):
    img, addrs = two_stage
    found = find_dispatchers(img)
    two = [d for d in found if d.kind == DISPATCHER_TWO_STAGE]
    assert len(two) == 1
    d = two[0]
    assert d.loop_entry == addrs["stage1"]
    assert d.stage2 is not None
    assert d.stage2.start == addrs["stage2"]
    assert d.table_reg is reg("s0")
    assert d.target_reg is reg("a5")


def test_pre_increment_classic():
    b = CodeBuilder()
    b.label("d")
    b.emit("addi", "s1", "s1", 4)
    b.emit("lw", "t1", "s1", 0)
    b.emit("c.jr", "t1")
    img = b.image()
    found = [d for d in find_dispatchers(img)
             if d.kind == DISPATCHER_CLASSIC]
    assert found and found[0].pre_increment
    assert found[0].table_reg is reg("s1")


def test_negative_stride_detected():
    b = CodeBuilder()
    b.label("d")
    b.emit("lw", "a5", "s0", 0)
    b.emit("addi", "s0", "s0", -4)
    b.emit("c.jr", "a5")
    img = b.image()
    found = [d for d in find_dispatchers(img)
             if d.kind == DISPATCHER_CLASSIC]
    assert found and found[0].stride == -4


# An add of 0 (the HINT `c.addi rd, 0`, which the assembler will not
# emit) does not advance a table: no shape may use it as its update.

def _add_zero(b, name):
    b.half(0x0001 | reg(name).index << 7)


def test_stride_zero_classic_is_rejected():
    b = CodeBuilder()
    b.emit("lw", "a5", "s0", 0)
    _add_zero(b, "s0")
    b.emit("c.jr", "a5")
    assert find_dispatchers(b.image()) == []


def test_stride_zero_two_stage_is_rejected():
    b = CodeBuilder()
    _add_zero(b, "s0")                    # stage one
    b.emit("jr", "t2")
    b.emit("lw", "a5", "s0", 0)           # stage two
    b.emit("jr", "a5")
    assert find_dispatchers(b.image()) == []


def _two_stage_with_stage_one_jump(jump):
    b = CodeBuilder()
    b.emit("addi", "s0", "s0", 4)         # stage one
    b.emit(*jump)
    b.emit("lw", "a5", "s0", 0)           # stage two
    b.emit("jr", "a5")
    return [d for d in find_dispatchers(b.image())
            if d.kind == DISPATCHER_TWO_STAGE]


def test_two_stage_stage_one_through_ra_is_rejected():
    assert _two_stage_with_stage_one_jump(("ret",)) == []
    assert len(_two_stage_with_stage_one_jump(("jr", "t2"))) == 1


def test_stage_one_of_two_pairs_names_its_kind_once(capsys, tmp_path):
    b = CodeBuilder(base=0)               # a raw blob's base
    b.emit("addi", "s0", "s0", 4)         # stage one
    b.emit("jr", "t2")
    b.emit("lw", "a5", "s0", 0)           # stage two through a5
    b.emit("jr", "a5")
    b.emit("lw", "a4", "s0", 0)           # stage two through a4
    b.emit("jr", "a4")
    img = b.image()
    found = find_dispatchers(img)
    assert [d.stage2.start for d in found] == [8, 16]
    roles = classify(gadget_at(img, 0), dispatchers=dispatcher_index(found))
    assert [r.kind for r in roles] == [ARITH, DISPATCHER_TWO_STAGE]
    assert roles[1].detail is found[0]
    blob = tmp_path / "pair.bin"
    blob.write_bytes(img.segments[0].data)
    assert main(["scan", "--raw", str(blob), "--format", "records"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "0x00000000 natural t2 arith,dispatcher-two-stage s0")
    assert main(["query", "--raw", str(blob),
                 "--role", DISPATCHER_TWO_STAGE]) == 0
    assert capsys.readouterr().out.startswith("0x00000000: addi s0, s0, 4")


def _copies(initializer=False):
    """`lw a5,0(s0); addi s0,s0,4; jr a5` at 0x0 and again at 0xc, and
    with `initializer`, then an initializer at 0x18 and c.ret at 0x24."""
    b = CodeBuilder(base=0)               # a raw blob's base
    for _ in range(2):
        b.emit("lw", "a5", "s0", 0)
        b.emit("addi", "s0", "s0", 4)
        b.emit("jr", "a5")
    if initializer:
        b.emit("lw", "s0", "sp", 0)
        b.emit("lw", "a5", "sp", 4)
        b.emit("jr", "a5")
        b.emit("c.jr", "ra")
    return b.image()


def test_byte_identical_dispatcher_copies_share_its_role():
    """A classic or two-stage dispatcher is a property of its body's
    bytes: `find_dispatchers` lists the body once, at its first copy,
    and every copy gets the role and answers `dispatcher_at`, re-based
    to its own address."""
    img = _copies()
    found = find_dispatchers(img)
    assert [(d.kind, d.loop_entry) for d in found] == [
        (DISPATCHER_CLASSIC, 0)]
    context = dispatcher_index(found)
    for start in (0x0, 0xc):
        g = gadget_at(img, start)
        roles = classify(g, dispatchers=context)
        assert [r.kind for r in roles] == [LOAD, DISPATCHER_CLASSIC,
                                           INITIALIZER]
        assert roles[1].detail == found[0]._replace(gadget=g)
        assert dispatcher_at(img, start) == roles[1].detail
    assert dispatcher_at(img, 0x4) is None


def test_only_its_own_copy_is_an_autonomous_loop():
    """An autonomous loop needs the return path after its body, so a
    copy of the body alone is no loop, while a copy of the whole loop is
    one of its own."""
    b = CodeBuilder(base=0)
    for name in ("loop", "copy"):
        b.label(name)
        b.emit("lw", "a5", "s0", 0)
        b.emit("addi", "s0", "s0", 4)
        b.emit("jalr", "ra", "a5", 0)
        b.branch("blt", "s0", "s1", name)
    b.label("body")                       # the body, then no way back
    b.emit("lw", "a5", "s0", 0)
    b.emit("addi", "s0", "s0", 4)
    b.emit("jalr", "ra", "a5", 0)
    b.emit("ebreak")
    img = b.image()
    a = b.labels
    found = find_dispatchers(img)
    assert [(d.kind, d.loop_entry) for d in found] == [
        (DISPATCHER_AUTONOMOUS, a["loop"]),
        (DISPATCHER_AUTONOMOUS, a["copy"])]
    context = dispatcher_index(found)
    assert len(context) == 1              # one body, two loops
    for name, want in (("loop", found[0]), ("copy", found[1])):
        roles = classify(gadget_at(img, a[name]), dispatchers=context)
        assert [r.detail for r in roles if r.kind == DISPATCHER_AUTONOMOUS
                ] == [want], name
        assert dispatcher_at(img, a[name]) == want
    body = gadget_at(img, a["body"])
    assert body.encoding == found[0].gadget.encoding
    assert DISPATCHER_AUTONOMOUS not in {
        r.kind for r in classify(body, dispatchers=context)}
    assert dispatcher_at(img, a["body"]) is None


def test_a_chain_names_either_copy(capsys, tmp_path):
    """The copies through the command line: `scan --format records`
    gives both the dispatcher role, `dispatchers` lists one, and a chain
    naming the second copy lays out with its loop entry."""
    img = _copies(initializer=True)
    blob = tmp_path / "copies.bin"
    blob.write_bytes(img.segments[0].data)
    assert main(["scan", "--raw", str(blob), "--format", "records"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[3] for line in lines if line.split()[0] in (
        "0x00000000", "0x0000000c")] == [
        "load,dispatcher-classic,initializer"] * 2
    assert main(["dispatchers", "--raw", str(blob)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1 candidate"
    spec = tmp_path / "copy.chain"
    spec.write_text("dispatcher 0xc\ninitializer 0x18\ntable-base 0x40000\n"
                    "return-to 0x24\ndispatch-reg a5\n")
    assert main(["chain", "--raw", str(blob), "--spec", str(spec),
                 "--simulate"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("dispatcher   dispatcher-classic entry=0x0000000c")
    assert "  a5    = 0xc" in out
    assert "outcome        reached" in out


def test_stride_zero_autonomous_is_rejected():
    b = CodeBuilder()
    b.label("loop")
    b.emit("lw", "a5", "s0", 0)
    b.emit("jalr", "ra", "a5", 0)
    _add_zero(b, "s0")
    b.branch("blt", "s0", "s1", "loop")
    b.emit("ebreak")
    assert find_dispatchers(b.image()) == []


# Each shape's table load, then (`mv`) an overwrite of its jump target
# before the jump, as `(mnemonic, *operands)` rows; "loop" is a label.
_OVERWRITTEN_TARGETS = {
    DISPATCHER_CLASSIC: [("lw", "a5", "s0", 0), ("addi", "s0", "s0", 4),
                         ("mv", "a5", "a1"), ("jr", "a5")],
    DISPATCHER_TWO_STAGE: [("addi", "s0", "s0", 4), ("jr", "t2"),
                           ("lw", "s1", "s0", 16), ("mv", "s1", "a1"),
                           ("jalr", "ra", "s1", 0)],
    DISPATCHER_AUTONOMOUS: [("lw", "a5", "s0", 0), ("mv", "a5", "a1"),
                            ("jalr", "ra", "a5", 0), ("addi", "s0", "s0", 4),
                            ("blt", "s0", "s1", "loop"), ("ebreak",)],
}


@pytest.mark.parametrize("kind", list(_OVERWRITTEN_TARGETS))
def test_target_overwritten_after_its_table_load_is_rejected(kind):
    """The table load must be the jump target's last write: with the
    `mv` after it the target is a1's value, not a table entry, and the
    shape is no dispatcher; without it, it is one."""
    def image(overwrite):
        b = CodeBuilder()
        b.label("loop")
        for insn in _OVERWRITTEN_TARGETS[kind]:
            if insn[0] == "blt":
                b.branch(*insn)
            elif insn[0] != "mv" or overwrite:
                b.emit(*insn)
        return b.image()
    assert [d.kind for d in find_dispatchers(image(False))] == [kind]
    assert find_dispatchers(image(True)) == []


def _walk_in_body(update_first: bool) -> CodeBuilder:
    """An autonomous loop whose body both loads through s0 and advances
    it, in either order, plus an initializer, two steps and a landing."""
    b = CodeBuilder()
    b.label("loop")
    body = [("lw", "a5", "s0", 0), ("addi", "s0", "s0", 4)]
    for insn in (body[::-1] if update_first else body):
        b.emit(*insn)
    b.emit("jalr", "ra", "a5", 0)
    b.branch("blt", "s0", "s1", "loop")
    b.emit("ebreak")
    b.label("init")
    b.emit("lw", "s0", "sp", 0)
    b.emit("lw", "s1", "sp", 4)
    b.emit("lw", "t0", "sp", 8)
    b.emit("jr", "t0")
    b.label("g_li_a0")
    b.emit("li", "a0", 1)
    b.emit("ret")
    b.label("g_bump_a2")
    b.emit("addi", "a2", "a2", 4)
    b.emit("ret")
    b.label("landing")
    b.emit("nop")
    b.emit("ebreak")
    return b


def test_autonomous_pre_increment_follows_body_order(capsys, tmp_path):
    # A loop that loads before it advances is not pre-increment, even
    # with the update in the body: the same rule as for classic bodies.
    for update_first in (False, True):
        b = _walk_in_body(update_first)
        auto = [d for d in find_dispatchers(b.image())
                if d.kind == DISPATCHER_AUTONOMOUS]
        assert len(auto) == 1 and auto[0].pre_increment is update_first
        blob = tmp_path / "loop.bin"
        blob.write_bytes(b.blob())
        assert main(["dispatchers", "--raw", str(blob),
                     "--base", hex(b.base)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        pre = " pre" if update_first else ""
        assert line == (f"0x{b.base:08x} dispatcher-autonomous table=s0 "
                        f"stride=+4 target=a5{pre} while s0 lt s1")


@pytest.mark.parametrize("update_first", [False, True])
def test_chain_through_body_walk_reaches_its_end(capsys, tmp_path,
                                                 update_first):
    # the table seed follows pre_increment, so a wrong flag starts the
    # walk one stride off the table
    b = _walk_in_body(update_first)
    a = b.labels
    blob = tmp_path / "loop.bin"
    blob.write_bytes(b.blob())
    spec = tmp_path / "chain.txt"
    spec.write_text(f"dispatcher {a['loop']:#x}\ninitializer {a['init']:#x}\n"
                    f"table-base {TABLE_BASE:#x}\n"
                    f"return-to {a['landing']:#x}\n"
                    f"step {a['g_li_a0']:#x}\nstep {a['g_bump_a2']:#x}\n")
    code = main(["chain", "--raw", str(blob), "--base", hex(b.base),
                 "--spec", str(spec), "--simulate"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "outcome        reached" in out
    assert "stealth        yes" in out


def test_no_dispatchers_in_plain_code(clean_images):
    for name, img in clean_images:
        assert find_dispatchers(img) == [], name


def _search_images():
    """The benchmark's three seed-1 images, and an ELF of two code
    segments, the higher first, each holding an autonomous loop: lw a5,
    0(s0); addi s0, s0, 4; jalr ra, a5; blt s0, s1, loop."""
    corpus = benchmark_corpus()
    for workload in ("scan-dense-rv32", "scan-clean-rv64", "chain-long"):
        c = corpus.build(workload, 1)
        yield workload, (parse_elf(c.file_bytes) if c.fmt == "elf"
                         else from_bytes(c.code, c.base, c.xlen))
    loop = bytes.fromhex("8327040013044400e7800700e34a94fe")
    yield "two segments", parse_elf(make_elf(
        [(0x20000, loop, PF_R | PF_X), (0x10000, loop, PF_R | PF_X)]))


def test_dispatcher_search_scans_each_table_once(monkeypatch):
    """A fresh image's search scans each decode table's bytes for
    terminators once, for its gadget growth; the autonomous pass reads
    the one-instruction gadgets, and finds what a pass over every
    terminator of every table finds."""
    for name, img in _search_images():
        calls = count_calls(monkeypatch, "terminators")
        found = find_dispatchers(img)
        assert len(calls) == len(img.decode_table), name
        monkeypatch.undo()
        tried = [CLASSIFY._try_autonomous(table, t)
                 for table in img.decode_table.values()
                 for t in terminators(table)]
        want = sorted(filter(None, tried), key=lambda c: c.loop_entry)
        assert [c for c in found if c.kind == DISPATCHER_AUTONOMOUS] == \
            want, name
    assert len(want) == 2           # the two-segment ELF: one per segment


def test_dispatcher_role_tagging(adg):
    img, addrs = adg
    found = find_dispatchers(img)
    context = dispatcher_index(found)
    d = [x for x in found if x.kind == DISPATCHER_AUTONOMOUS][0]
    roles = {r.kind for r in classify(d.gadget, dispatchers=context)}
    assert DISPATCHER_AUTONOMOUS in roles


def test_dispatcher_at_rejects_non_code_addresses_without_a_search(
        monkeypatch):
    code = bytes.fromhex("8327040013044400e7800700e34a94fe")  # a loop
    img = parse_elf(make_elf([(0x10000, code, PF_R | PF_X),
                              (0x20000, code, PF_R | PF_W)]))
    assert dispatcher_at(img, 0x10000).kind == DISPATCHER_AUTONOMOUS
    refuse_calls(monkeypatch, "find_dispatchers", "extract_gadgets")
    for address in (0x1, 0x10001, 0x10007, 0xfffe, 0x10010, 0x20000,
                    0x20004):
        assert dispatcher_at(img, address) is None, hex(address)


@pytest.mark.parametrize("pad", [0, 14, 15])
def test_dispatcher_at_window_edges(monkeypatch, pad):
    # nop; loop: lw a5,0(s0); addi s0,s0,4; `pad` nops; jalr ra,a5;
    # blt s0,s1,loop.  With 14 nops the call sits exactly
    # _BACKLINK_WINDOW bytes after the entry; with 15 it is too far.
    b = CodeBuilder()
    b.emit("nop")
    b.label("loop")
    b.emit("lw", "a5", "s0", 0)
    b.emit("addi", "s0", "s0", 4)
    for _ in range(pad):
        b.emit("nop")
    b.emit("jalr", "ra", "a5", 0)
    b.branch("blt", "s0", "s1", "loop")
    img = b.image()
    full = find_dispatchers(img)
    want = full[0] if pad < 15 else None
    assert [d.loop_entry for d in full] == ([b.labels["loop"]] if want else [])
    monkeypatch.setattr(CLASSIFY, "find_dispatchers", lambda image: full)
    assert dispatcher_at(img, b.base) is None
    if want is not None:
        refuse_calls(monkeypatch, "find_dispatchers", "extract_gadgets")
    assert dispatcher_at(img, b.labels["loop"]) == want


@pytest.mark.parametrize("workload", ["scan-dense-rv32", "scan-clean-rv64"])
def test_dispatcher_at_is_the_first_full_search_candidate(monkeypatch,
                                                          workload):
    corpus = benchmark_corpus()
    for seed in range(1, 11):
        c = corpus.build(workload, seed)
        img = parse_elf(c.file_bytes)
        full = find_dispatchers(img)
        monkeypatch.setattr(CLASSIFY, "find_dispatchers", lambda image: full)
        probes = {c.base, c.base + 2} | {d.loop_entry for d in full}
        for a in sorted(probes):
            want = next((d for d in full if d.loop_entry == a), None)
            assert dispatcher_at(img, a) == want, (seed, hex(a))
        monkeypatch.undo()


@pytest.mark.parametrize("workload", ["scan-dense-rv32", "scan-clean-rv64",
                                      "chain-long"])
def test_alignment_read_lazily_is_the_whole_sweeps(monkeypatch, workload):
    # Chain gadgets and dispatcher_at candidates label their alignment on
    # read, from a sweep that has run only as far as earlier reads needed;
    # the label must be the one the oracle's whole sweep gives.
    corpus = benchmark_corpus()
    for seed in range(1, 11):
        c = corpus.build(workload, seed)
        img = parse_elf(c.file_bytes) if c.fmt == "elf" \
            else from_bytes(c.code, c.base, c.xlen)
        (seg,) = img.executable_segments
        naturals = natural_starts(seg, img)
        spec = parse_chain_text(c.chain_text(), img)
        gadgets = [spec.dispatcher.gadget, spec.initializer.gadget,
                   *(s.gadget for s in spec.steps)]
        full = find_dispatchers(img)
        monkeypatch.setattr(CLASSIFY, "find_dispatchers", lambda image: full)
        gadgets += [dispatcher_at(img, a).gadget
                    for a in sorted({d.loop_entry for d in full})]
        monkeypatch.undo()
        for g in gadgets:
            want = NATURAL if g.start in naturals else SHIFTED
            assert g.alignment == want, (seed, hex(g.start))


def test_dispatcher_at_reads_around_the_loop_only(monkeypatch):
    corpus = benchmark_corpus()
    e = corpus._dense_image(1, 64 * 1024)
    img = parse_elf(corpus.make_elf(e.base, bytes(e.buf), e.xlen))
    refuse_calls(monkeypatch, "find_dispatchers", "extract_gadgets")
    decoded = []
    real = DECODER.decode_one

    def counted(data, address, xlen):
        decoded.append(address)
        return real(data, address, xlen)

    monkeypatch.setattr(DECODER, "decode_one", counted)
    d = dispatcher_at(img, e.labels["loop"])
    assert (d.kind, d.loop_entry) == (DISPATCHER_AUTONOMOUS, e.labels["loop"])
    # the loop body and its return path, however deep the loop lies
    assert len(set(decoded)) == len(decoded) < 100


# --- initializer pairing ----------------------------------------------------

def _candidates(img, dispatcher, max_len=6):
    return find_initializers(dedupe(extract_gadgets(img, max_len)),
                             dispatcher)


def test_initializer_found_for_adg(adg):
    img, addrs = adg
    d = [x for x in find_dispatchers(img)
         if x.kind == DISPATCHER_AUTONOMOUS][0]
    cands = _candidates(img, d)
    starts = {c.gadget.start for c in cands}
    assert addrs["init"] in starts
    full = [c for c in cands if c.gadget.start == addrs["init"]][0]
    assert full.link_register is reg("t0")
    assert {r.name for r in full.sets} >= {"s0", "s1", "t0"}
    srcs = {r.name: (s.kind, s.offset) for r, s in full.sets.items()}
    assert srcs["s0"] == ("stack", 0)
    assert srcs["s1"] == ("stack", 4)


def test_initializer_rejects_partial_loads(adg):
    img, addrs = adg
    d = [x for x in find_dispatchers(img)
         if x.kind == DISPATCHER_AUTONOMOUS][0]
    # a gadget loading only s1 and t0 (skipping the first load) fails
    cands = _candidates(img, d)
    for c in cands:
        assert d.required_registers <= set(c.sets), c.gadget.start


def test_initializer_rejects_ra_jump():
    b = CodeBuilder()
    b.label("loop")
    b.emit("lw", "a5", "s0", 0)
    b.emit("jalr", "ra", "a5", 0)
    b.emit("addi", "s0", "s0", 4)
    b.branch("blt", "s0", "s1", "loop")
    b.label("bad_init")                    # loads fine but returns via ra
    b.emit("lw", "s0", "sp", 0)
    b.emit("lw", "s1", "sp", 4)
    b.emit("ret")
    img = b.image()
    d = [x for x in find_dispatchers(img)
         if x.kind == DISPATCHER_AUTONOMOUS][0]
    cands = _candidates(img, d)
    assert addrs_not_present(cands, b.labels["bad_init"])


def addrs_not_present(cands, addr):
    return all(c.gadget.start != addr for c in cands)


def test_initializer_mem_source_single_indirection():
    b = CodeBuilder()
    b.label("loop")
    b.emit("lw", "a5", "s0", 0)
    b.emit("jalr", "ra", "a5", 0)
    b.emit("addi", "s0", "s0", 4)
    b.branch("blt", "s0", "s1", "loop")
    b.label("init")                        # loads through a1, not the stack
    b.emit("lw", "s0", "a1", 0)
    b.emit("lw", "s1", "a1", 4)
    b.emit("lw", "t0", "a1", 8)
    b.emit("jr", "t0")
    img = b.image()
    d = [x for x in find_dispatchers(img)
         if x.kind == DISPATCHER_AUTONOMOUS][0]
    cands = _candidates(img, d)
    hit = [c for c in cands if c.gadget.start == b.labels["init"]]
    assert hit
    assert all(s.kind == "mem" for s in hit[0].sets.values())


def test_initializer_role_agrees_with_pairing():
    b = CodeBuilder()
    b.label("loop")
    b.emit("lw", "a5", "s0", 0)
    b.emit("jalr", "ra", "a5", 0)
    b.emit("addi", "s0", "s0", 4)
    b.branch("blt", "s0", "s1", "loop")
    b.label("clobbered")                   # loads s1, then overwrites it
    b.emit("lw", "s1", "sp", 0)
    b.emit("li", "s1", 0)
    b.emit("jr", "t0")
    b.label("init")
    b.emit("lw", "s0", "sp", 0)
    b.emit("lw", "s1", "sp", 4)
    b.emit("jr", "t0")
    img = b.image()
    assert INITIALIZER not in roles_of(img, b.labels["clobbered"])
    assert INITIALIZER in roles_of(img, b.labels["init"])
    (d,) = find_dispatchers(img)
    paired = {c.gadget.start for c in _candidates(img, d)}
    assert b.labels["init"] in paired and b.labels["clobbered"] not in paired
    # one rule decides both: every gadget has the role exactly when the
    # source map that pairing reads gives it a stack seed
    for g in extract_gadgets(img, 6):
        sets = initializer_sources(g) or {}
        seeds_stack = any(s.kind == "stack" for s in sets.values())
        assert (INITIALIZER in {r.kind for r in classify(g)}) == seeds_stack


def _benchmark_images():
    """The benchmark images (seeds 1-10, every workload), ten 64 KiB clean
    RV64 draws and one 64 KiB dense draw."""
    corpus = benchmark_corpus()
    for w in corpus.WORKLOADS:
        for seed in range(1, 11):
            c = corpus.build(w, seed)
            yield f"{w}/{seed}", (parse_elf(c.file_bytes) if c.fmt == "elf"
                                  else from_bytes(c.code, c.base, c.xlen))
    draws = [corpus._functions_image("scan-clean-rv64", seed, 0x10000, 64,
                                     64 * 1024, False) for seed in range(1, 11)]
    draws.append(corpus._dense_image(1, 64 * 1024))
    for n, e in enumerate(draws):
        yield f"64 KiB draw {n}", parse_elf(
            corpus.make_elf(e.base, bytes(e.buf), e.xlen))


def test_initializer_filter_matches_every_summary():
    # find_initializers skips the summary of a gadget that does not write
    # every required register; pairing by every gadget's summary must
    # find the same candidates with the same sets.
    for name, img in _benchmark_images():
        gadgets = dedupe(extract_gadgets(img, 6))
        sources = [(g, initializer_sources(g)) for g in gadgets]
        by_required = {}
        for d in find_dispatchers(img):
            by_required.setdefault(d.required_registers, d)
        assert by_required, name
        for d in by_required.values():
            want = [(g, sets) for g, sets in sources
                    if sets is not None and not d.unseeded(sets)]
            got = [tuple(c) for c in find_initializers(gadgets, d)]
            assert got == want, (name, d.kind, hex(d.loop_entry))


# --- availability stats -----------------------------------------------------

def test_availability_partition(adg):
    img, _ = adg
    gadgets = extract_gadgets(img, 4)
    rows = availability_stats(gadgets)
    total = len(dedupe(gadgets))
    assert sum(r.count for r in rows) == total
    assert all(r.count == r.natural + r.shifted for r in rows)
    names = [r.register.name for r in rows]
    assert len(names) == len(set(names))


def test_availability_ordering():
    # byte-identical gadgets collapse, so distinguish the a5 bodies
    b = CodeBuilder()
    b.emit("addi", "a0", "a0", 1)
    b.emit("c.jr", "a5")
    b.emit("addi", "a0", "a0", 2)
    b.emit("c.jr", "a5")
    b.emit("c.jr", "a5")
    b.emit("c.jr", "t1")
    img = b.image()
    rows = availability_stats(extract_gadgets(img, 1))
    assert rows[0].register.name == "a5"
    assert rows[0].count > rows[-1].count


def test_stats_table_shape():
    pairs = [("ra", 4557), ("a5", 810), ("t1", 318)]
    text = render_stats_table(pairs)
    lines = text.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("Register")
    assert lines[1].startswith("Available gadgets")
    assert "4557" in lines[1] and "ra" in lines[0]
    top2 = render_stats_table(pairs, top=2)
    assert "t1" not in top2
