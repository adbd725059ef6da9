"""How far a dispatcher round moves its registers, and the loop bounds
layout gives a conditional self-link, run end to end through the CLI."""

import pytest

from rvjop.chain import ChainSpec, ChainStep, validate_chain
from rvjop.classify import (DISPATCHER_AUTONOMOUS, DISPATCHER_TWO_STAGE,
                            find_dispatchers, initializer_at)
from rvjop.cli import main
from rvjop.image import from_bytes, parse_elf
from rvjop.isa import reg
from rvjop.scanner import gadget_at

from conftest import BASE, TABLE_BASE, CodeBuilder, benchmark_corpus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_chain(tmp_path, b, base=TABLE_BASE):
    """The image and a two-step chain file for a builder with `loop`,
    `init`, `g_ret` and `landing` labels; returns the CLI arguments."""
    a = b.labels
    blob = tmp_path / "loop.bin"
    blob.write_bytes(b.blob())
    spec = tmp_path / "chain.txt"
    spec.write_text(f"dispatcher {a['loop']:#x}\ninitializer {a['init']:#x}\n"
                    f"table-base {base:#x}\nreturn-to {a['landing']:#x}\n"
                    f"step {a['g_ret']:#x}\nstep {a['g_ret']:#x}\n")
    return ["--raw", str(blob), "--base", hex(b.base), "--xlen", str(b.xlen),
            "--spec", str(spec)]


def loop_lab(body, *, xlen=32, seeds=("s0", "s1")):
    """A loop of `body` (instructions, with ("branch", op, r1, r2) for the
    self-link back to its entry), an initializer loading `seeds` and t0
    from the stack, a `ret` step and a landing."""
    b = CodeBuilder(xlen=xlen)
    load = "lw" if xlen == 32 else "ld"
    b.label("loop")
    for insn in body:
        if insn[0] == "branch":
            b.branch(*insn[1:], "loop")
        else:
            b.emit(*insn)
    b.emit("ebreak")
    b.label("init")
    for i, r in enumerate(seeds + ("t0",)):
        b.emit(load, r, "sp", i * xlen // 8)
    b.emit("jr", "t0")
    b.label("g_ret")
    b.emit("ret")
    b.label("landing")
    b.emit("ebreak")
    return b


def reaches(out, rounds):
    return ("outcome        reached" in out and "stealth        yes" in out
            and f"dispatch rounds {rounds}\n" in out)


# --- strides are the net move of a round ------------------------------------

@pytest.mark.parametrize("workload", ["scan-dense-rv32", "scan-clean-rv64",
                                      "chain-long"])
def test_stride_is_the_rounds_move(workload):
    """Every candidate's stride is how far its round moves the table
    register.  An autonomous loop keeps the round its stride was read
    from; no other candidate's round is summarized until it is read."""
    corpus = benchmark_corpus()
    for seed in range(1, 4):
        c = corpus.build(workload, seed)
        img = parse_elf(c.file_bytes) if c.fmt == "elf" \
            else from_bytes(c.code, c.base, c.xlen)
        found = find_dispatchers(img)
        assert found, seed
        assert all(("round" in vars(d)) == (d.kind == DISPATCHER_AUTONOMOUS)
                   for d in found), seed
        for d in found:
            assert d.stride == d.round.moved(d.table_reg), (seed, d)


# `lw a5,0(s0); addi s0,s0,4; jalr ra,a5; addi s0,s0,4; blt s0,s1,loop`,
# loaded by `lw s0,0(sp); lw s1,4(sp); lw t0,8(sp); jr t0` at 0x0
SPLIT_BLOB = bytes.fromhex(
    "032401008324410083228100678002008327040013044400e780070013044400"
    "e34894fe130515006780000073001000")
SPLIT_CHAIN = ("dispatcher 0x10\ninitializer 0x0\ntable-base 0x40000\n"
               "return-to 0x2c\nstep 0x24\nstep 0x24\n")


def test_split_advance_reports_its_net_stride(capsys, tmp_path):
    blob = tmp_path / "split.bin"
    blob.write_bytes(SPLIT_BLOB)
    spec = tmp_path / "split.txt"
    spec.write_text(SPLIT_CHAIN)
    raw = ["--raw", str(blob), "--base", "0"]
    code, out, _ = run(capsys, "dispatchers", *raw)
    assert code == 0
    assert out.splitlines()[0] == ("0x00000010 dispatcher-autonomous table=s0 "
                                   "stride=+8 target=a5 while s0 lt s1")
    # eight bytes a round skip every other 4-byte entry: refused, not run
    code, out, err = run(capsys, "chain", *raw, "--spec", str(spec),
                         "--simulate")
    assert code == 1
    assert "error: StrideMismatch: dispatcher stride 8 walks 4-byte" in err
    assert "outcome" not in out


@pytest.mark.parametrize("xlen", [32, 64])
@pytest.mark.parametrize("first_add_before_load", [False, True])
def test_split_advance_of_one_entry_runs(capsys, tmp_path, xlen,
                                         first_add_before_load):
    """Half an entry's advance in the body and half on the return path
    make one entry a round, whichever side of the load the first is."""
    half = xlen // 16
    load = ("lw" if xlen == 32 else "ld", "a5", "s0", 0)
    add = ("addi", "s0", "s0", half)
    body = [add, load] if first_add_before_load else [load, add]
    b = loop_lab(body + [("jalr", "ra", "a5", 0), add,
                         ("branch", "blt", "s0", "s1")], xlen=xlen)
    d, = [d for d in find_dispatchers(b.image()) if d.loop_entry == BASE]
    assert d.stride == xlen // 8
    assert d.load_offset == (half if first_add_before_load else 0)
    code, out, _ = run(capsys, "chain", *write_chain(tmp_path, b),
                       "--simulate")
    assert code == 0, out
    assert reaches(out, 3), out


def test_stage_one_listed_once_at_its_net_stride():
    # `c.addi s4,-26; ...; addi s4,s4,-451` moves s4 by -477 in all
    b = CodeBuilder()
    b.label("stage1")
    b.emit("c.addi", "s4", -26)
    b.emit("addi", "a0", "a0", 1)
    b.emit("addi", "s4", "s4", -451)
    b.emit("jr", "t2")
    for target in ("a5", "a4"):
        b.emit("lw", target, "s4", 0)
        b.emit("jr", target)
    found = [d for d in find_dispatchers(b.image())
             if d.kind == DISPATCHER_TWO_STAGE and d.loop_entry == BASE]
    assert [(d.stride, d.stage2.start - BASE) for d in found] == [
        (-477, 14), (-477, 22)]
    assert all(d.load_offset == -477 for d in found)


def test_stage_one_that_overwrites_its_add_is_no_stage_one():
    b = CodeBuilder()
    b.emit("addi", "t2", "t2", -61)       # moved, then overwritten
    b.emit("addi", "t2", "s3", -37)
    b.emit("jr", "t1")
    b.emit("lw", "a2", "t2", 0)
    b.emit("jr", "a2")
    assert find_dispatchers(b.image()) == []


def test_load_through_a_loaded_base_is_no_table_walk():
    # from `stage2`, s0 holds a loaded value at the table load, so that
    # gadget walks no table; the one from the load on does
    b = CodeBuilder()
    b.emit("addi", "s0", "s0", 4)         # stage one
    b.emit("jr", "t2")
    b.label("stage2")
    b.emit("lw", "s0", "sp", 0)
    b.emit("lw", "a5", "s0", 0)
    b.emit("jr", "a5")
    starts = {d.stage2.start - b.labels["stage2"]
              for d in find_dispatchers(b.image())}
    assert 4 in starts and 0 not in starts


def test_two_stage_round_includes_stage_two():
    # a round of a two-stage pair is stage one and then stage two: sp
    # moved in stage two moves each round
    b = CodeBuilder()
    b.label("stage1")
    b.emit("addi", "s0", "s0", 4)
    b.emit("jr", "t2")
    b.label("stage2")
    b.emit("addi", "sp", "sp", -16)
    b.emit("lw", "a5", "s0", 0)
    b.emit("jr", "a5")
    b.label("init")
    b.emit("lw", "s0", "sp", 0)
    b.emit("lw", "t2", "sp", 4)
    b.emit("lw", "t1", "sp", 8)
    b.emit("jr", "t1")
    b.label("g")
    b.emit("li", "a0", 3)
    b.emit("jr", "t1")
    img, a = b.image(), b.labels
    d, = [d for d in find_dispatchers(img) if d.kind == DISPATCHER_TWO_STAGE
          and d.stage2.start == a["stage2"]]
    ini = initializer_at(img, a["init"], d)
    spec = ChainSpec(dispatcher=d, initializer=ini,
                     steps=(ChainStep(gadget_at(img, a["g"])),),
                     return_to=a["g"], table_base=TABLE_BASE, image=img,
                     dispatch_reg=reg("t1"))
    assert [x.code for x in validate_chain(spec)] == ["DispatcherTouchesSp"]


# --- loops layout cannot bound ----------------------------------------------

# `lw a5,0(s0); jalr ra,a5; addi s1,s1,1; addi s0,s0,4; blt s1,s2,loop`
# at 0x14, loaded by `lw s0,0(sp); lw s1,4(sp); lw s2,8(sp); lw t0,12(sp);
# jr t0` at 0x0
COUNTER_BLOB = bytes.fromhex(
    "0324010083244100032981008322c1006780020083270400e780070093841400"
    "13044400e3c824ff130515006780000073001000")
COUNTER_CHAIN = ("dispatcher 0x14\ninitializer 0x0\ntable-base 0x40000\n"
                 "return-to 0x30\nstep 0x28\nstep 0x28\n")


def test_counter_loop_is_refused(capsys, tmp_path):
    blob = tmp_path / "counter.bin"
    blob.write_bytes(COUNTER_BLOB)
    spec = tmp_path / "counter.txt"
    spec.write_text(COUNTER_CHAIN)
    raw = ["--raw", str(blob), "--base", "0"]
    code, out, _ = run(capsys, "dispatchers", *raw)
    assert out.splitlines()[0] == ("0x00000014 dispatcher-autonomous table=s0 "
                                   "stride=+4 target=a5 while s1 lt s2")
    for extra in ([], ["--simulate"]):
        code, out, err = run(capsys, "chain", *raw, "--spec", str(spec),
                             *extra)
        assert code == 3
        assert out == ""
        assert err == ("rvjop: cannot bound a loop on s1 lt s2: it must "
                       "compare the table register s0 with a register no "
                       "round moves\n")


@pytest.mark.parametrize("bound_move", [("addi", "s1", "s1", 1),
                                        ("lw", "s1", "sp", 0)])
def test_bound_that_moves_each_round_is_refused(capsys, tmp_path, bound_move):
    b = loop_lab([("lw", "a5", "s0", 0), ("jalr", "ra", "a5", 0),
                  bound_move, ("addi", "s0", "s0", 4),
                  ("branch", "blt", "s0", "s1")])
    code, out, err = run(capsys, "chain", *write_chain(tmp_path, b),
                         "--simulate")
    assert code == 3 and out == ""
    assert err == ("rvjop: cannot bound a loop on s0 lt s1: it must compare "
                   "the table register s0 with a register no round moves\n")


# --- loop bounds in every branch's domain -----------------------------------

# 0x7ffffff8 and 0x7ffffffc put entries on both sides of 0x80000000, where
# the signed domain wraps; 0xfffffff8 would run the table past 2^32.
BASES = (0x40000, 0xffffffe0, 0x0, 0x7ffffff8, 0x7ffffffc, 0xfffffff8)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("stride", [4, -4])
@pytest.mark.parametrize("table_left", [True, False])
@pytest.mark.parametrize("op", ["lt", "ge", "ltu", "geu", "ne"])
def test_loop_bound_reaches_or_is_refused(capsys, tmp_path, op, table_left,
                                          stride, base):
    regs = ("s0", "s1") if table_left else ("s1", "s0")
    b = loop_lab([("lw", "a5", "s0", 0), ("jalr", "ra", "a5", 0),
                  ("addi", "s0", "s0", stride), ("branch", "b" + op, *regs)])
    code, out, err = run(capsys, "chain", *write_chain(tmp_path, b, base),
                         "--simulate", "--stack-top", "0x200000")
    if code == 3:
        assert out == "" and err.startswith("rvjop: ") and err.count("\n") == 1
    else:
        assert code == 0, out
        assert reaches(out, 3), out


def test_eq_self_link_is_refused(capsys, tmp_path):
    # an `eq` branch falls through as soon as the pointer moves
    b = loop_lab([("lw", "a5", "s0", 0), ("jalr", "ra", "a5", 0),
                  ("addi", "s0", "s0", 4), ("branch", "beq", "s0", "s1")])
    code, out, err = run(capsys, "chain", *write_chain(tmp_path, b),
                         "--simulate")
    assert code == 3 and out == ""
    assert err == "rvjop: cannot keep a eq self-link taken for every round\n"
