"""Dataflow summaries: write sets, read-before-write, sp tracking,
stack load provenance, each register's exit value, and the
conditional-write split."""

import pytest

from rvjop.assembler import assemble
from rvjop.dataflow import (UNKNOWN, Const, Loaded, Offset, Source,
                            const_add, summarize_dataflow)
from rvjop.decoder import decode_one
from rvjop.isa import A0, A1, A2, RA, SP, reg


def seq(*items, xlen=32, base=0):
    out = []
    addr = base
    for mnemonic, *ops in items:
        raw = assemble(mnemonic, tuple(ops), xlen=xlen)
        out.append(decode_one(raw, addr, xlen))
        addr += len(raw)
    return tuple(out)


def test_written_and_rbw():
    s = summarize_dataflow(seq(("addi", "a0", "a1", 1),
                               ("add", "a2", "a0", "a1"),
                               ("ret",)))
    assert s.written == {A0, A2}
    assert s.read_before_write == {A1, RA}
    assert A0 not in s.read_before_write       # written first, then read


def test_preserved_complement():
    """A register is preserved when the gadget does not clobber it."""
    s = summarize_dataflow(seq(("li", "a0", 5), ("ret",)))
    assert A0 in s.written
    assert s.clobbers({A0, A1, SP}) == {A0}


def test_sp_delta_constant_sum():
    s = summarize_dataflow(seq(("addi", "sp", "sp", -32),
                               ("addi", "sp", "sp", 16),
                               ("ret",)))
    assert s.sp_delta == -16


def test_sp_delta_compressed():
    s = summarize_dataflow(seq(("c.addi16sp", -64), ("ret",)))
    assert s.sp_delta == -64


def test_sp_delta_unknown_after_nonconst_write():
    s = summarize_dataflow(seq(("add", "sp", "sp", "a0"), ("ret",)))
    assert s.sp_delta is None


def test_stack_loads_entry_relative():
    # loads after an sp adjustment report offsets from the entry sp
    insns = seq(("addi", "sp", "sp", -16),
                ("lw", "a0", "sp", 4),
                ("addi", "sp", "sp", 16),
                ("ret",))
    assert summarize_dataflow(insns).loaded == {A0: Source("stack", SP, -12)}
    assert summarize_dataflow(insns).sp_delta == 0


def test_stack_loads_through_s0():
    got = summarize_dataflow(seq(("lw", "a1", "s0", 8), ("ret",))).loaded
    assert got == {A1: Source("stack", reg("s0"), 8)}


def test_loaded_sources_s0_counts_only_while_unwritten():
    # once s0 holds a loaded value, a load through it is not a stack slot
    got = summarize_dataflow(seq(("lw", "s0", "sp", 0),
                                 ("lw", "s1", "s0", 4),
                                 ("jr", "t0"))).loaded
    assert got == {reg("s0"): Source("stack", SP, 0)}


def test_loaded_sources_drops_double_indirection():
    # a0 ends up holding *(*(sp+0)), not the stack slot itself
    got = summarize_dataflow(seq(("lw", "a0", "sp", 0),
                                 ("lw", "a0", "a0", 0),
                                 ("jr", "t0"))).loaded
    assert got == {}


def test_loaded_sources_drops_sp_load_after_nonconst_sp_write():
    # after the shift sp no longer has a known offset from the entry sp
    got = summarize_dataflow(seq(("c.slli", "sp", 4),
                                 ("lw", "s0", "sp", 8),
                                 ("jr", "t0"))).loaded
    assert got == {}


def test_mem_reads_and_writes_recorded():
    s = summarize_dataflow(seq(("lw", "a0", "a1", 0),
                               ("sw", "a0", "a2", 4),
                               ("ret",)))
    assert len(s.mem_reads) == 1 and len(s.mem_writes) == 1
    assert s.mem_writes[0].base is A2 and s.mem_writes[0].offset == 4


def test_cond_written_after_branch():
    s = summarize_dataflow(seq(("beq", "a0", "a1", 8),
                               ("li", "a2", 1),
                               ("ret",)))
    assert A2 in s.cond_written
    assert A2 not in s.written
    assert s.clobbers({A2}) == {A2}


def test_clobbers_helper():
    s = summarize_dataflow(seq(("li", "s0", 0), ("ret",)))
    assert s.clobbers({reg("s0"), reg("s1")}) == {reg("s0")}
    assert s.clobbers({reg("s1")}) == frozenset()


def test_zero_register_never_tracked():
    s = summarize_dataflow(seq(("addi", "zero", "a0", 1), ("ret",)))
    assert reg("zero") not in s.written
    assert A0 in s.read_before_write


def test_const_values_chains():
    exits = summarize_dataflow(seq(("li", "a0", 5),
                                   ("addi", "a0", "a0", 3),
                                   ("lui", "a1", 0x12345),
                                   ("ret",))).exits
    assert exits[A0] == Const(8)
    assert exits[A1] == Const(0x12345000)


def test_const_values_invalidated_by_unknown():
    # written-but-unknown registers are Unknown, not a stale constant
    exits = summarize_dataflow(seq(("li", "a0", 5),
                                   ("add", "a0", "a0", "a1"),
                                   ("ret",))).exits
    assert exits[A0] == UNKNOWN


# --- exit values ------------------------------------------------------------

def _stack(offset):
    return Loaded(Source("stack", SP, offset))


EXITS = [
    # (xlen, body without its `ret`, {register: value at exit})
    (32, [("li", "a0", 5)], {"a0": Const(5)}),
    (32, [("li", "a0", -100)], {"a0": Const(-100)}),
    (32, [("mv", "a0", "s1")], {"a0": Offset(reg("s1"), 0)}),
    (32, [("addi", "a2", "a1", 8)], {"a2": Offset(A1, 8)}),
    (32, [("addi", "a0", "a0", 1), ("addi", "a0", "a0", 2)],
     {"a0": Offset(A0, 3)}),
    (32, [("mv", "a1", "a0"), ("addi", "a0", "a1", -4)],
     {"a1": Offset(A0, 0), "a0": Offset(A0, -4)}),
    (32, [("lui", "a1", 0x12345)], {"a1": Const(0x12345000)}),
    (64, [("lui", "a1", 0x80000)], {"a1": Const(-0x80000000)}),
    (64, [("addiw", "a7", "zero", 93)], {"a7": Const(93)}),
    (64, [("lui", "a7", 0x80000), ("addiw", "a7", "a7", -1)],
     {"a7": Const(0x7FFFFFFF)}),
    (64, [("li", "a0", 5), ("c.addiw", "a0", 3)], {"a0": Const(8)}),
    (64, [("c.addiw", "a0", 1)], {"a0": Offset(A0, 1)}),
    (32, [("c.addi16sp", -64)], {"sp": Offset(SP, -64)}),
    (32, [("addi", "sp", "sp", -16), ("lw", "a0", "sp", 4),
          ("addi", "sp", "sp", 16)],
     {"sp": Offset(SP, 0), "a0": _stack(-12)}),
    (32, [("c.lwsp", "a0", 8)], {"a0": _stack(8)}),
    (32, [("lw", "a1", "s0", 8)],
     {"a1": Loaded(Source("stack", reg("s0"), 8))}),
    (32, [("lw", "a1", "a2", 4)], {"a1": Loaded(Source("mem", A2, 4))}),
    (32, [("lw", "a0", "sp", 0), ("lw", "a0", "a0", 0)], {"a0": UNKNOWN}),
    (32, [("lw", "s0", "sp", 0), ("lw", "s1", "s0", 4)],
     {"s0": _stack(0), "s1": UNKNOWN}),
    (32, [("lw", "a0", "sp", 0), ("addi", "a0", "a0", 4)], {"a0": UNKNOWN}),
    (32, [("add", "a0", "a0", "a1")], {"a0": UNKNOWN}),
    (32, [("c.slli", "sp", 4), ("lw", "s0", "sp", 8)],
     {"sp": UNKNOWN, "s0": UNKNOWN}),
    (32, [("beq", "a0", "a1", 8), ("li", "a2", 1)], {"a2": Const(1)}),
    (32, [("jalr", "ra", "a5", 0)], {"ra": UNKNOWN}),
    (32, [("c.mv", "a0", "a1")], {"a0": Offset(A1, 0)}),
    (64, [("add", "a0", "a1", "zero")], {"a0": Offset(A1, 0)}),
    (32, [("li", "a1", 7), ("c.mv", "a0", "a1")],
     {"a1": Const(7), "a0": Const(7)}),
]


@pytest.mark.parametrize("xlen, body, want", EXITS)
def test_exit_values(xlen, body, want):
    s = summarize_dataflow(seq(*body, ("ret",), xlen=xlen))
    assert s.exits == {reg(name): v for name, v in want.items()}
    assert s.exits.keys() == s.written | s.cond_written


def test_sp_rebuilt_through_a_copy_has_a_known_delta():
    # sp's value travels through t0, so its exit delta is known; a
    # constant-add-only tracker gives up at the write to sp
    insns = seq(("mv", "t0", "sp"),
                ("addi", "sp", "t0", 16),
                ("lw", "a0", "sp", 4),
                ("ret",))
    s = summarize_dataflow(insns)
    assert s.sp_delta == 16
    assert s.loaded == {A0: Source("stack", SP, 20)}


@pytest.mark.parametrize("xlen", [32, 64])
def test_c_mv_has_the_value_of_mv(xlen):
    # c.mv's base form is `add rd, zero, rs`, mv's `addi rd, rs, 0`
    for rd, rs in (("a0", "a1"), ("t0", "sp"), ("s1", "s1")):
        insns = [seq((m, rd, rs), xlen=xlen)[0] for m in ("mv", "c.mv")]
        want, got = (summarize_dataflow((i, *seq(("ret",), xlen=xlen)))
                     for i in insns)
        assert got.exits == want.exits == {reg(rd): Offset(reg(rs), 0)}
        assert const_add(insns[1]) == const_add(insns[0])


def test_sp_rebuilt_through_c_mv_has_a_known_delta():
    s = summarize_dataflow(seq(("c.mv", "t0", "sp"),
                               ("addi", "sp", "t0", 16),
                               ("lw", "a0", "sp", 4),
                               ("ret",)))
    assert s.sp_delta == 16
    assert s.loaded == {A0: Source("stack", SP, 20)}


def test_a7_at_the_first_ecall():
    s = summarize_dataflow(seq(("li", "a7", 64), ("ecall",),
                               ("li", "a7", 63), ("ecall",),
                               ("ret",)))
    assert s.ecall_a7 == Const(64)
    assert s.exits[reg("a7")] == Const(63)
    inherited = summarize_dataflow(seq(("ecall",), ("ret",)))
    assert inherited.ecall_a7 == Offset(reg("a7"), 0)
    assert summarize_dataflow(seq(("li", "a7", 64), ("ret",))).ecall_a7 is None
