"""Dataflow summaries: write sets, read-before-write, sp tracking,
stack load provenance, and the conditional-write split."""

from rvjop.assembler import assemble
from rvjop.dataflow import (Source, const_values, loaded_sources,
                            summarize_dataflow)
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
    s = summarize_dataflow(seq(("li", "a0", 5), ("ret",)))
    assert A0 in s.written
    assert A1 in s.preserved
    assert SP in s.preserved


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
    assert loaded_sources(insns) == {A0: Source("stack", SP, -12)}
    assert summarize_dataflow(insns).sp_delta == 0


def test_stack_loads_through_s0():
    got = loaded_sources(seq(("lw", "a1", "s0", 8), ("ret",)))
    assert got == {A1: Source("stack", reg("s0"), 8)}


def test_loaded_sources_s0_counts_only_while_unwritten():
    # once s0 holds a loaded value, a load through it is not a stack slot
    got = loaded_sources(seq(("lw", "s0", "sp", 0),
                             ("lw", "s1", "s0", 4),
                             ("jr", "t0")))
    assert got == {reg("s0"): Source("stack", SP, 0)}


def test_loaded_sources_drops_double_indirection():
    # a0 ends up holding *(*(sp+0)), not the stack slot itself
    got = loaded_sources(seq(("lw", "a0", "sp", 0),
                             ("lw", "a0", "a0", 0),
                             ("jr", "t0")))
    assert got == {}


def test_loaded_sources_drops_sp_load_after_nonconst_sp_write():
    # after the shift sp no longer has a known offset from the entry sp
    got = loaded_sources(seq(("c.slli", "sp", 4),
                             ("lw", "s0", "sp", 8),
                             ("jr", "t0")))
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
    assert A2 not in s.preserved


def test_clobbers_helper():
    s = summarize_dataflow(seq(("li", "s0", 0), ("ret",)))
    assert s.clobbers({reg("s0"), reg("s1")}) == {reg("s0")}
    assert s.clobbers({reg("s1")}) == frozenset()


def test_zero_register_never_tracked():
    s = summarize_dataflow(seq(("addi", "zero", "a0", 1), ("ret",)))
    assert reg("zero") not in s.written
    assert A0 in s.read_before_write


def test_const_values_chains():
    vals = const_values(seq(("li", "a0", 5),
                            ("addi", "a0", "a0", 3),
                            ("lui", "a1", 0x12345),
                            ("ret",)))
    assert vals[A0] == 8
    assert vals[A1] == 0x12345000


def test_const_values_invalidated_by_unknown():
    # written-but-unknown registers map to None, not to a stale constant
    vals = const_values(seq(("li", "a0", 5),
                            ("add", "a0", "a0", "a1"),
                            ("ret",)))
    assert vals[A0] is None
