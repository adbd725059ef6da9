"""Interpreter semantics: ALU, memory, control flow, shadow stack, faults,
and the decode cache: code a program writes runs, and every run ends in
the same state with the cache as without it."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rvjop.sim
from rvjop.assembler import assemble
from rvjop.chain import layout_payload
from rvjop.errors import Overlap, ToolError
from rvjop.image import from_bytes
from rvjop.isa import reg
from rvjop.sim import (DEFAULT_STACK_TOP, Machine, SimReport, new_machine,
                       run_chain)

from conftest import BASE, CodeBuilder
from test_acceptance import _e2e_chain

M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF


class _Forgetful(dict):
    """A decode cache that keeps nothing, so every fetch decodes."""

    def __setitem__(self, pc, insn):
        pass


def machine_state(m, report):
    return (report, list(m.regs), m.pc, list(m.shadow_stack),
            [(start, bytes(buf)) for start, buf in m.regions])


def run_both(make, entry, return_to, **kw):
    """Run a machine from `make()` with the decode cache and another
    without it; both must end in the same state.  Returns the first."""
    m, uncached = make(), make()
    uncached._decoded = _Forgetful()
    report = run_chain(m, entry, return_to, **kw)
    assert machine_state(m, report) == machine_state(
        uncached, run_chain(uncached, entry, return_to, **kw))
    return m, report


def run_built(b, entry, return_to, seed=None, **kw):
    def make():
        m = new_machine(b.image())
        for name, val in (seed or {}).items():
            m.poke(name, val)
        return m
    return run_both(make, entry, return_to, **kw)


def run_snippet(lines, *, xlen=32, seed=None, fuel=1000):
    """Assemble, run to the end marker, return the machine."""
    b = CodeBuilder(xlen=xlen)
    for mn, *ops in lines:
        b.emit(mn, *ops)
    b.label("end")
    b.emit("ebreak")
    m, report = run_built(b, b.base, b.labels["end"], seed, fuel=fuel)
    assert report.outcome == "reached", report.render()
    return m


def out(lines, want_reg="a0", **kw):
    return run_snippet(lines, **kw).get(reg(want_reg))


# --- ALU --------------------------------------------------------------------

@pytest.mark.parametrize("mn,seed,expect", [
    ("add", {"a1": 5, "a2": 7}, 12),
    ("sub", {"a1": 5, "a2": 7}, -2 & M32),
    ("sll", {"a1": 1, "a2": 33}, 2),            # shamt masked to 5 bits
    ("srl", {"a1": 0x80000000, "a2": 4}, 0x08000000),
    ("sra", {"a1": 0x80000000, "a2": 4}, 0xF8000000),
    ("slt", {"a1": -1 & M32, "a2": 0}, 1),
    ("sltu", {"a1": -1 & M32, "a2": 0}, 0),
    ("xor", {"a1": 0b1100, "a2": 0b1010}, 0b0110),
    ("or", {"a1": 0b1100, "a2": 0b1010}, 0b1110),
    ("and", {"a1": 0b1100, "a2": 0b1010}, 0b1000),
    ("mul", {"a1": -3 & M32, "a2": 7}, -21 & M32),
    ("mulh", {"a1": 0x80000000, "a2": 2}, M32),
    ("mulhu", {"a1": 0x80000000, "a2": 2}, 1),
    ("mulhsu", {"a1": 0x80000000, "a2": 2}, M32),
    ("div", {"a1": 7, "a2": -2 & M32}, -3 & M32),
    ("rem", {"a1": -7 & M32, "a2": 2}, -1 & M32),
    ("divu", {"a1": -2 & M32, "a2": 2}, 0x7FFFFFFF),
    ("remu", {"a1": -1 & M32, "a2": 16}, 15),
    ("add", {"a1": M32, "a2": 2}, 1),           # wraps at 32 bits
])
def test_register_ops(mn, seed, expect):
    assert out([(mn, "a0", "a1", "a2")], seed=seed) == expect


@pytest.mark.parametrize("mn,seed,imm,expect", [
    ("addi", {"a1": 5}, -6, -1 & M32),
    ("andi", {"a1": 0xFF}, 0x0F, 0x0F),
    ("ori", {"a1": 0xF0}, 0x0F, 0xFF),
    ("xori", {"a1": 0xFF}, -1, 0xFFFFFF00),
    ("slti", {"a1": -5 & M32}, -4, 1),
    ("sltiu", {"a1": 3}, -1, 1),                # immediate compares unsigned
    ("slli", {"a1": 3}, 4, 48),
    ("srli", {"a1": 0x80000000}, 31, 1),
    ("srai", {"a1": 0x80000000}, 31, M32),
])
def test_immediate_ops(mn, seed, imm, expect):
    assert out([(mn, "a0", "a1", imm)], seed=seed) == expect


@pytest.mark.parametrize("xlen,a1,imm,expect", [
    (32, M32, 1, 0), (32, 0, -1, M32), (32, 0x7FFFFFFF, 1, 0x80000000),
    (64, M64, 1, 0), (64, 0, -1, M64), (64, M32, 1, 1 << 32),
])
def test_addi_wraps_at_xlen(xlen, a1, imm, expect):
    m = run_snippet([("addi", "a0", "a1", imm), ("addi", "zero", "a1", imm)],
                    xlen=xlen, seed={"a1": a1})
    assert m.get(reg("a0")) == expect and m.get(reg("zero")) == 0


def test_division_by_zero_and_overflow():
    assert out([("div", "a0", "a1", "a2")], seed={"a1": 9, "a2": 0}) == M32
    assert out([("rem", "a0", "a1", "a2")], seed={"a1": 9, "a2": 0}) == 9
    assert out([("divu", "a0", "a1", "a2")], seed={"a1": 9, "a2": 0}) == M32
    assert out([("remu", "a0", "a1", "a2")], seed={"a1": 9, "a2": 0}) == 9
    low = 0x80000000
    assert out([("div", "a0", "a1", "a2")],
               seed={"a1": low, "a2": M32}) == low
    assert out([("rem", "a0", "a1", "a2")], seed={"a1": low, "a2": M32}) == 0


def test_lui_auipc():
    assert out([("lui", "a0", 0x12345)]) == 0x12345000
    m = run_snippet([("auipc", "a0", 1)])
    assert m.get(reg("a0")) == 0x10000 + 0x1000


@pytest.mark.parametrize("mn,seed,expect", [
    ("addw", {"a1": 0x7FFFFFFF, "a2": 1}, 0xFFFFFFFF80000000),
    ("subw", {"a1": 0, "a2": 1}, M64),
    ("sllw", {"a1": 1, "a2": 31}, 0xFFFFFFFF80000000),
    ("srlw", {"a1": 0xFFFFFFFF80000000, "a2": 4}, 0x08000000),
    ("sraw", {"a1": 0x80000000, "a2": 4}, 0xFFFFFFFFF8000000),
    ("divw", {"a1": 0x80000000, "a2": M64}, 0xFFFFFFFF80000000),
    ("remw", {"a1": 7, "a2": M64 - 1}, 1),
    ("mulw", {"a1": 0x10000, "a2": 0x10000}, 0),
])
def test_word_ops_sign_extend(mn, seed, expect):
    assert out([(mn, "a0", "a1", "a2")], seed=seed, xlen=64) == expect


def test_word_immediates():
    assert out([("addiw", "a0", "a1", 1)],
               seed={"a1": 0x7FFFFFFF}, xlen=64) == 0xFFFFFFFF80000000
    assert out([("slliw", "a0", "a1", 4)],
               seed={"a1": 0x08000000}, xlen=64) == 0xFFFFFFFF80000000
    assert out([("srai", "a0", "a1", 63)],
               seed={"a1": 1 << 63}, xlen=64) == M64


def test_shift_mask_is_six_bits_on_rv64():
    assert out([("sll", "a0", "a1", "a2")],
               seed={"a1": 1, "a2": 33}, xlen=64) == 1 << 33


def test_zero_register_swallows_writes():
    m = run_snippet([("addi", "zero", "zero", 5),
                     ("add", "a0", "zero", "zero")])
    assert m.get(reg("zero")) == 0 and m.get(reg("a0")) == 0


@pytest.mark.parametrize("xlen", [32, 64])
@pytest.mark.parametrize("line", [
    ("lui", "zero", 0x12345),
    ("auipc", "zero", 1),               # Zicfilp's lpad 1
    ("csrrs", "zero", 0x340, "a0"),
])
def test_constant_written_to_zero_only_advances(line, xlen):
    """lui, auipc and a CSR read with rd = x0 take one step to the next
    instruction and change no register."""
    b = CodeBuilder(xlen=xlen)
    b.emit(*line)
    b.label("end")
    b.emit("ebreak")
    m, report = run_built(b, b.base, b.labels["end"], {"a0": 3})
    before = new_machine(b.image())
    before.poke("a0", 3)
    assert report.outcome == "reached" and report.steps == 1
    assert m.pc == b.labels["end"] == b.base + 4
    assert m.regs == before.regs


def test_csr_reads_zero_and_fence_is_inert():
    m = run_snippet([("li", "a0", 3),
                     ("fence", 0xF, 0xF),
                     ("csrrw", "a1", 0x340, "a0")])
    assert m.get(reg("a1")) == 0 and m.get(reg("a0")) == 3


# --- memory -----------------------------------------------------------------

def scratch(m):
    return (DEFAULT_STACK_TOP - 256) & M64


def test_load_store_widths():
    m = run_snippet([
        ("li", "a1", -256), ("add", "a1", "sp", "a1"),
        ("li", "a0", -2), ("sw", "a0", "a1", 0),
        ("lb", "a2", "a1", 0), ("lbu", "a3", "a1", 0),
        ("lh", "a4", "a1", 0), ("lhu", "a5", "a1", 0),
        ("lw", "a6", "a1", 0)])
    assert m.get(reg("a2")) == -2 & M32
    assert m.get(reg("a3")) == 0xFE
    assert m.get(reg("a4")) == -2 & M32
    assert m.get(reg("a5")) == 0xFFFE
    assert m.get(reg("a6")) == -2 & M32


def test_narrow_stores_leave_neighbors():
    m = run_snippet([
        ("li", "a1", -256), ("add", "a1", "sp", "a1"),
        ("li", "a0", -1), ("sw", "a0", "a1", 0),
        ("li", "a2", 0), ("sb", "a2", "a1", 1),
        ("lw", "a3", "a1", 0)])
    assert m.get(reg("a3")) == 0xFFFF00FF


def test_rv64_loads():
    m = run_snippet([
        ("li", "a1", -256), ("add", "a1", "sp", "a1"),
        ("li", "a0", -2), ("sd", "a0", "a1", 0),
        ("lw", "a2", "a1", 0), ("lwu", "a3", "a1", 0),
        ("ld", "a4", "a1", 0)], xlen=64)
    assert m.get(reg("a2")) == M64 - 1
    assert m.get(reg("a3")) == 0xFFFFFFFE
    assert m.get(reg("a4")) == M64 - 1


def test_amoadd_returns_old_value():
    m = run_snippet([
        ("li", "a1", -256), ("add", "a1", "sp", "a1"),
        ("li", "a0", 40), ("sw", "a0", "a1", 0),
        ("li", "a2", 2),
        ("amoadd.w", "a3", "a2", "a1"),
        ("lw", "a4", "a1", 0)])
    assert m.get(reg("a3")) == 40
    assert m.get(reg("a4")) == 42


def test_amoswap_and_minmax():
    m = run_snippet([
        ("li", "a1", -256), ("add", "a1", "sp", "a1"),
        ("li", "a0", -5), ("sw", "a0", "a1", 0),
        ("li", "a2", 3),
        ("amomax.w", "a3", "a2", "a1"),       # signed max(-5, 3) = 3
        ("lw", "a4", "a1", 0),
        ("li", "a5", 7),
        ("amoswap.w", "a6", "a5", "a1"),
        ("lw", "a7", "a1", 0)])
    assert m.get(reg("a4")) == 3
    assert m.get(reg("a6")) == 3
    assert m.get(reg("a7")) == 7


@pytest.mark.parametrize("mn,memory,a2,stored", [
    ("amomin.w", 0, 0xFFFFFFFF, 0xFFFFFFFF),        # min(0, -1) = -1
    ("amomax.w", 5, 0xFFFFFFFF, 5),                 # max(5, -1) = 5
    ("amominu.w", 0x80000000, 0x90000000, 0x80000000),
    ("amomaxu.w", 0x80000000, 0x90000000, 0x90000000),
])
def test_rv64_word_amo_compares_the_low_word(mn, memory, a2, stored):
    m = run_snippet([
        ("li", "a1", -256), ("add", "a1", "sp", "a1"),
        ("sw", "a0", "a1", 0),
        (mn, "a3", "a2", "a1"),
        ("lwu", "a4", "a1", 0)], seed={"a0": memory, "a2": a2}, xlen=64)
    assert m.get(reg("a4")) == stored
    # rd gets the old word, sign-extended
    assert m.get(reg("a3")) == ((memory ^ 0x80000000) - 0x80000000) & M64


def test_lr_sc_pair_always_succeeds():
    m = run_snippet([
        ("li", "a1", -256), ("add", "a1", "sp", "a1"),
        ("li", "a0", 11), ("sw", "a0", "a1", 0),
        ("lr.w", "a2", "a1"),
        ("li", "a3", 22),
        ("sc.w", "a4", "a3", "a1"),
        ("lw", "a5", "a1", 0)])
    assert m.get(reg("a2")) == 11
    assert m.get(reg("a4")) == 0
    assert m.get(reg("a5")) == 22


def test_compressed_aliases_execute():
    m = run_snippet([
        ("c.li", "a0", 9),
        ("c.mv", "a1", "a0"),
        ("c.addi", "a1", 1),
        ("c.addi16sp", -32),
        ("c.swsp", "a1", 4),
        ("c.lwsp", "a2", 4),
        ("c.addi16sp", 32)])
    assert m.get(reg("a1")) == 10
    assert m.get(reg("a2")) == 10


# --- branches and jumps -----------------------------------------------------

@pytest.mark.parametrize("mn,seed,taken", [
    ("beq", {"a1": 4, "a2": 4}, True),
    ("beq", {"a1": 4, "a2": 5}, False),
    ("bne", {"a1": 4, "a2": 5}, True),
    ("blt", {"a1": -1 & M32, "a2": 0}, True),
    ("bltu", {"a1": -1 & M32, "a2": 0}, False),
    ("bge", {"a1": 0, "a2": -1 & M32}, True),
    ("bgeu", {"a1": 0, "a2": -1 & M32}, False),
])
def test_branch_conditions(mn, seed, taken):
    m = run_snippet([("li", "a0", 1),
                     (mn, "a1", "a2", 8),      # skips the next word if taken
                     ("li", "a0", 99)], seed=seed)
    assert m.get(reg("a0")) == (1 if taken else 99)


def test_jal_links_and_jumps():
    b = CodeBuilder()
    b.label("f")
    b.emit("li", "a0", 5)
    b.emit("ret")
    b.label("start")
    b.emit("jal", "ra", b.labels["f"] - b.here)
    b.label("end")
    b.emit("ebreak")
    m, report = run_built(b, b.labels["start"], b.labels["end"])
    assert report.outcome == "reached"
    assert m.get(reg("a0")) == 5
    assert report.shadow_pushes == 1 and report.shadow_pops == 1


def test_offset_return_does_not_pop():
    # jalr through ra with a nonzero offset is a jump, not a return
    b = CodeBuilder()
    b.label("start")
    b.emit("auipc", "ra", 0)
    b.emit("jalr", "zero", "ra", 12)
    b.emit("ebreak")
    b.label("end")
    b.emit("ebreak")
    _, report = run_built(b, b.labels["start"], b.labels["end"])
    assert report.outcome == "reached"
    assert report.shadow_pops == 0


def jalr_pc(base: int, imm: int, xlen: int = 32) -> int:
    """The pc after one step of `jalr zero, imm(a0)` with a0 = base."""
    b = CodeBuilder(xlen=xlen)
    b.emit("jalr", "zero", "a0", imm)
    m = new_machine(b.image())
    m.poke("a0", base)
    assert run_chain(m, b.base, b.base + 4, fuel=1).steps == 1
    return m.pc


def test_jalr_target_clears_bit0():
    for xlen in (32, 64):
        assert jalr_pc(0x1001, 0, xlen) == 0x1000
        assert jalr_pc(0x1000, 3, xlen) == 0x1002


def test_jalr_target_wraps():
    assert jalr_pc(0xFFFFFFFF, 1, 32) == 0
    assert jalr_pc(0, -2, 32) == 0xFFFFFFFE
    assert jalr_pc(M64, 1, 64) == 0
    assert jalr_pc(0, -2, 64) == 0xFFFFFFFFFFFFFFFE
    assert jalr_pc(0xFFFFFFFF, 1, 64) == 0x100000000    # no wrap at 32 bits


@given(data=st.data(), xlen=st.sampled_from([32, 64]),
       imm=st.integers(-2048, 2047))
@settings(max_examples=200, deadline=None)
def test_jalr_target_props(data, xlen, imm):
    base = data.draw(st.integers(0, 2**xlen - 1))
    t = jalr_pc(base, imm, xlen)
    assert 0 <= t < 2**xlen
    assert t & 1 == 0
    assert (t - (base + imm)) % 2**xlen in (0, 2**xlen - 1)


# --- shadow stack -----------------------------------------------------------

def test_return_mismatch_is_a_violation():
    b = CodeBuilder()
    b.label("f")
    b.emit("addi", "ra", "ra", 8)
    b.emit("ret")
    b.label("start")
    b.emit("jal", "ra", b.labels["f"] - b.here)
    b.emit("nop")
    b.label("end")
    b.emit("ebreak")
    _, report = run_built(b, b.labels["start"], b.labels["end"])
    assert report.outcome == "violation"
    ret = b.labels["start"] + 4
    assert report.violation == (f"return to 0x{ret + 8:x}, shadow stack "
                                f"expected 0x{ret:x}")
    # the mismatched entry is popped; the faulting return is not a step
    assert (report.steps, report.shadow_pushes, report.shadow_pops,
            report.shadow_depth) == (2, 1, 1, 0)
    assert not report.stealth
    assert report.render().splitlines() == [
        "outcome        violation",
        f"violation      {report.violation}",
        "steps          2",
        "dispatch rounds 0",
        "shadow stack   pushes=1 pops=1 depth=0",
        "sp delta       +0",
        "stealth        no",
    ]


def test_return_without_call_is_a_violation():
    b = CodeBuilder()
    b.label("start")
    b.emit("ret")
    b.label("end")
    b.emit("ebreak")
    _, report = run_built(b, b.labels["start"], b.labels["end"],
                          {"ra": b.labels["end"]})
    assert report.outcome == "violation"
    assert report.violation == (f"return to 0x{b.labels['end']:x} with an "
                                "empty shadow stack")
    assert (report.steps, report.shadow_pushes, report.shadow_pops,
            report.shadow_depth) == (0, 0, 0, 0)


def test_unlinked_jump_skips_the_shadow_stack():
    b = CodeBuilder()
    b.label("f")
    b.emit("li", "a0", 1)
    b.emit("jr", "t1")
    b.label("start")
    b.emit("auipc", "t0", 0)
    b.emit("jalr", "zero", "t0", b.labels["f"] - b.labels["start"])
    b.label("end")
    b.emit("ebreak")
    _, report = run_built(b, b.labels["start"], b.labels["end"],
                          {"t1": b.labels["end"]})
    assert report.outcome == "reached"
    assert report.shadow_pushes == 0 and report.shadow_pops == 0


def test_linking_jalr_pushes():
    b = CodeBuilder()
    b.label("f")
    b.emit("ret")
    b.label("start")
    b.emit("auipc", "t0", 0)
    b.emit("jalr", "ra", "t0", b.labels["f"] - b.labels["start"])
    b.label("end")
    b.emit("ebreak")
    _, report = run_built(b, b.labels["start"], b.labels["end"])
    assert report.outcome == "reached"
    assert report.shadow_pushes == 1 and report.shadow_pops == 1
    assert report.shadow_depth == 0


# --- faults -----------------------------------------------------------------

def fault_report(b, entry, **kw):
    return run_built(b, entry, 0xDEAD0000, kw)[1]


def test_misaligned_pc_faults():
    b = CodeBuilder()
    b.emit("nop")
    report = fault_report(b, b.base + 1)
    assert report.outcome == "fault" and "misaligned" in report.fault


def test_unmapped_fetch_faults():
    b = CodeBuilder()
    b.emit("nop")
    report = fault_report(b, 0x900000)
    assert report.outcome == "fault" and "unmapped" in report.fault


def test_unmapped_load_faults():
    b = CodeBuilder()
    b.emit("lw", "a0", "a1", 0)
    report = fault_report(b, b.base, a1=0x900000)
    assert report.outcome == "fault" and "unmapped" in report.fault


def test_invalid_encoding_faults():
    b = CodeBuilder()
    b.word(0)
    report = fault_report(b, b.base)
    assert report.outcome == "fault" and "invalid-encoding" in report.fault


def test_ebreak_faults():
    b = CodeBuilder()
    b.emit("ebreak")
    report = fault_report(b, b.base)
    assert report.outcome == "fault" and "breakpoint" in report.fault


def test_fuel_runs_out():
    b = CodeBuilder()
    b.emit("j", 0)
    _, report = run_built(b, b.base, 0xDEAD0000, fuel=500)
    assert report.outcome == "fuel-exhausted"
    assert report.steps == 500


def test_fetch_faults_are_not_cached():
    m = Machine()
    assert run_chain(m, 0x900000, 0x900004).outcome == "fault"
    m.map_region(0x900000, assemble("addi", ("a0", "a0", 1)))
    assert run_chain(m, 0x900000, 0x900004).outcome == "reached"
    m.map_region(0x900004, bytes(4))
    assert run_chain(m, 0x900004, 0x900008).outcome == "fault"
    m.store(0x900004, 4, int.from_bytes(assemble("nop"), "little"))
    assert run_chain(m, 0x900004, 0x900008).outcome == "reached"
    assert m.get(reg("a0")) == 1


# --- code that writes code --------------------------------------------------

def run_patched(patched, store, value, at=0):
    """Run the raw instruction bytes `patched`, then `store` `value` at
    byte `at` of them, then run them again; return the machine."""
    b = CodeBuilder()
    b.label("patch")
    for part in patched:
        b.raw(part)
    b.emit("bne", "a1", "zero", 16)         # second time round: to end
    b.emit("li", "a1", 1)
    b.emit(store, "t0", "s0", 0)
    b.emit("jal", "zero", b.labels["patch"] - b.here)
    b.label("end")
    b.emit("ebreak")
    m, report = run_built(b, b.base, b.labels["end"],
                          {"s0": b.labels["patch"] + at, "t0": value})
    assert report.outcome == "reached", report.render()
    return m


def test_stored_instruction_runs():
    m = run_patched([assemble("addi", ("a0", "a0", 1))], "sw",
                    int.from_bytes(assemble("addi", ("a0", "a0", 100)),
                                   "little"))
    assert m.get(reg("a0")) == 1 + 100


def test_store_to_last_byte_of_an_instruction():
    # byte 3 of an I-type word holds imm[11:4]: 0x06 there makes 1 into 0x61
    m = run_patched([assemble("addi", ("a0", "a0", 1))], "sb", 0x06, at=3)
    assert m.get(reg("a0")) == 1 + 0x61


def test_store_widens_a_compressed_instruction():
    # The low half of `addi a0, a0, 100` over `c.addi a0, 1` joins the
    # halfword after it, which on its own reads as `c.addi a2, 17`.
    word = int.from_bytes(assemble("addi", ("a0", "a0", 100)), "little")
    high = (word >> 16).to_bytes(2, "little")
    assert high == assemble("c.addi", ("a2", 17))
    m = run_patched([assemble("c.addi", ("a0", 1)), high], "sh",
                    word & 0xFFFF)
    assert m.get(reg("a0")) == 1 + 100
    assert m.get(reg("a2")) == 17


# --- the decode cache changes nothing but speed -----------------------------

def test_e2e_chain_same_with_and_without_cache(monkeypatch):
    img, addrs, spec, _, _ = _e2e_chain()
    layout = layout_payload(spec)
    decodes = []
    decode = rvjop.sim.decode_one
    monkeypatch.setattr(rvjop.sim, "decode_one",
                        lambda *a: decodes.append(a) or decode(*a))
    m, report = run_both(
        lambda: new_machine(img, payload=layout,
                            buffer_base=spec.table_base),
        addrs["init"], spec.return_to,
        loop_entry=spec.dispatcher.loop_entry)
    assert report.stealth
    # the uncached run decodes every step, the cached one every pc once
    assert len(decodes) == report.steps + len(m._decoded)
    assert len(m._decoded) < report.steps // 100


_VALUES = ("a0", "a1", "a2", "a3", "a4", "a5", "t0", "t1", "t2")
_BASES = ("s0", "s1")
_KINDS = ("alu", "alu", "store", "store", "store", "load", "branch", "jump",
          "compressed", "compressed", "raw")


def _random_insn(rng, xlen, back=0):
    """One instruction of a mix heavy in stores through s0 and s1, which
    point into the program's own code; jumps go at most `back` bytes back
    and 32 forward."""
    pick = rng.choice
    kind = pick(_KINDS)
    offset = 2 * rng.randrange(-back // 2, 17) or 2
    if kind == "alu":
        mn, ops = pick(("add", "sub", "xor")), tuple(
            pick(_VALUES) for _ in range(3))
        if rng.random() < 0.5:
            mn, ops = "addi", ops[:2] + (rng.randrange(-64, 64),)
    elif kind == "store":
        mn, ops = pick(("sw", "sh", "sb")), (pick(_VALUES), pick(_BASES),
                                             rng.randrange(64))
    elif kind == "load":
        mn, ops = pick(("lw", "lbu")), (pick(_VALUES), pick(_BASES),
                                        rng.randrange(64))
    elif kind == "branch":
        mn, ops = pick(("beq", "bne", "blt", "bgeu")), (
            pick(_VALUES), pick(_VALUES), offset)
    elif kind == "jump":
        mn, ops = "jal", ("zero", offset)
    elif kind == "compressed":
        mn, ops = pick((("c.addi", (pick(_VALUES), rng.randrange(1, 32))),
                        ("c.li", (pick(_VALUES), rng.randrange(-32, 32)))))
    else:
        return rng.getrandbits(16).to_bytes(2, "little")
    return assemble(mn, ops, xlen=xlen)


def random_program(rng, xlen):
    """(code, registers): 40 random instructions, then 32 bytes of c.nop
    that a forward jump past the end lands in."""
    code = b""
    for _ in range(40):
        code += _random_insn(rng, xlen, back=len(code))
    code += assemble("c.nop") * 16
    seed = {"s0": BASE, "s1": BASE + len(code) // 2}
    for name in _VALUES:                # what a store writes is code too
        pair = _random_insn(rng, xlen) + _random_insn(rng, xlen)
        seed[name] = int.from_bytes(pair[:4], "little")
    return code, seed


@pytest.mark.parametrize("xlen", [32, 64])
def test_random_programs_same_with_and_without_cache(xlen):
    rng = random.Random(xlen)
    rewrote = 0
    for _ in range(100):
        code, seed = random_program(rng, xlen)
        img = from_bytes(code, BASE, xlen)

        def make():
            m = new_machine(img)
            for name, val in seed.items():
                m.poke(name, val)
            return m

        m, report = run_both(make, BASE, BASE + len(code), fuel=150)
        rewrote += report.steps > 20 and bytes(m.regions[0][1]) != code
    # enough of them write their own code and keep running to test the cache
    assert rewrote >= 10


# --- syscalls ---------------------------------------------------------------

def test_open_like_returns_descriptor_five():
    b = CodeBuilder()
    b.emit("li", "a7", 56)
    b.emit("li", "a0", -100)
    b.emit("lui", "a1", 4)
    b.label("sys")
    b.emit("ecall")
    b.label("end")
    b.emit("ebreak")
    m, report = run_built(b, b.base, b.labels["end"])
    assert report.outcome == "reached"
    (rec,) = report.syscalls
    assert rec.number == 56
    assert rec.address == b.labels["sys"]
    assert rec.args[:2] == (-100 & M32, 0x4000)
    assert rec.result == 5
    assert m.get(reg("a0")) == 5


def test_transfer_calls_return_the_count():
    for number in (63, 64):
        m = run_snippet([("li", "a7", number), ("li", "a2", 77), ("ecall",)])
        assert m.get(reg("a0")) == 77


def test_unknown_ecall_returns_zero():
    m = run_snippet([("li", "a7", 999), ("li", "a0", 4), ("ecall",)])
    assert m.get(reg("a0")) == 0


# --- machine plumbing -------------------------------------------------------

def test_region_overlap_rejected():
    m = Machine()
    m.map_region(0x1000, b"abcd")
    with pytest.raises(Overlap):
        m.map_region(0x1003, b"x")
    m.map_region(0x1004, b"x")


def test_located_region_cache_keeps_faults():
    m = Machine()
    m.map_region(0x1000, bytes(range(16)))
    m.map_region(0x1010, bytes(range(16, 32)))
    m.map_region(0x3000, bytes(range(32, 48)))
    for _ in range(3):
        assert m.load(0x1004, 1) == 4
        assert m.load(0x3008, 2) == 0x2928
        assert m.load(0x1014, 4) == 0x17161514
    # the last hit is [0x1010, 0x1020): straddle its end, then its start
    with pytest.raises(rvjop.sim._Fault) as exc:
        m.load(0x101e, 4)
    assert str(exc.value) == "unmapped: 4-byte access at 0x101e"
    with pytest.raises(rvjop.sim._Fault) as exc:
        m.store(0x100e, 4, 0)
    assert str(exc.value) == "unmapped: 4-byte access at 0x100e"
    assert m.load(0x100c, 4) == 0x0f0e0d0c


DATA_A, DATA_B = 0x200000, 0x300000


def run_loads(lines, seed, regions, m=None):
    """Run `lines` to their end marker on a machine with `regions` mapped
    besides the code and stack (or on `m`, as it stands); return both."""
    b = CodeBuilder()
    for mn, *ops in lines:
        b.emit(mn, *ops)
    b.label("end")
    b.emit("ebreak")

    def make():
        made = new_machine(b.image())
        for start, data in regions:
            made.map_region(start, data)
        for name, value in seed.items():
            made.poke(name, value)
        return made
    if m is None:
        return run_both(make, b.base, b.labels["end"])
    return m, run_chain(m, b.base, b.labels["end"])


def test_load_after_a_hit_reads_another_region():
    # each load's region differs from the one the last access hit
    m, report = run_loads(
        [("lw", "a0", "a1", 4), ("lw", "a2", "a3", 8), ("lbu", "a4", "a1", 0),
         ("lh", "a5", "a3", 2)],
        {"a1": DATA_A, "a3": DATA_B},
        [(DATA_A, bytes(range(16))), (DATA_B, bytes(range(0x80, 0x90)))])
    assert report.outcome == "reached"
    assert [m.get(reg(r)) for r in ("a0", "a2", "a4", "a5")] == [
        0x07060504, 0x8B8A8988, 0, 0xFFFF8382]


@pytest.mark.parametrize("offset", [14, 16])     # straddles, then just past
def test_load_past_the_hit_regions_end_faults(offset):
    _, report = run_loads(
        [("lw", "a0", "a1", 12), ("lw", "a2", "a1", offset)], {"a1": DATA_A},
        [(DATA_A, bytes(16))])
    assert report.outcome == "fault" and report.steps == 1
    assert report.fault == (f"unmapped: 4-byte access at "
                            f"0x{DATA_A + offset:x}")


def test_load_reads_a_region_mapped_after_a_run():
    lines = [("lw", "a0", "a1", 0), ("lw", "a2", "a3", 0)]
    seed = {"a1": DATA_A, "a3": DATA_B}
    m, report = run_loads(lines, seed, [(DATA_A, b"\x11" * 4)])
    assert report.fault == f"unmapped: 4-byte access at 0x{DATA_B:x}"
    m.map_region(DATA_B, b"\x22" * 4)
    _, report = run_loads(lines, seed, (), m)
    assert report.outcome == "reached"
    assert (m.get(reg("a0")), m.get(reg("a2"))) == (0x11111111, 0x22222222)


def test_int_region_maps_zeroes():
    m = Machine()
    m.map_region(0x2000, 16)
    assert m.load(0x2008, 8) == 0


def test_xlen_checked():
    with pytest.raises(ToolError):
        Machine(xlen=16)


def test_set_masks_and_x0_fixed():
    m = Machine()
    m.set(reg("a0"), -1)
    assert m.get(reg("a0")) == M32
    m.set(reg("zero"), 5)
    assert m.get(reg("zero")) == 0


def test_new_machine_seeds_stack():
    class P:
        buffer = b"\xAA" * 8
        from rvjop.chain import StackWrite
        stack_writes = (StackWrite(0, 0x1234, reg("s0")),
                        StackWrite(4, 0x5678, reg("s1")))

    b = CodeBuilder()
    b.emit("nop")
    m = new_machine(b.image(), payload=P, buffer_base=0x40000)
    assert m.sp == DEFAULT_STACK_TOP
    assert m.load(0x40000, 4) == 0xAAAAAAAA
    assert m.load(DEFAULT_STACK_TOP, 4) == 0x1234
    assert m.load(DEFAULT_STACK_TOP + 4, 4) == 0x5678
    assert all(r == 0 for i, r in enumerate(m.regs) if i != 2)

    with pytest.raises(ToolError):
        new_machine(b.image(), payload=P)


# addi sp, sp, -16; sw ra, 0(sp); addi sp, sp, 16; ret
PUSH_POP = bytes.fromhex("130101ff232011001301010167800000")


@pytest.mark.parametrize("xlen", [32, 64])
def test_stack_slack_stays_in_the_address_space(xlen):
    # Slack below 0 or past 2^XLEN is memory no masked access reaches, so
    # a push from a stack top that low would fault at 0xfffffff8.
    img = from_bytes(PUSH_POP, BASE, xlen)
    slack, end = rvjop.sim.STACK_SLACK, 1 << xlen
    for top in (slack, end - slack):
        _, report = run_both(lambda: new_machine(img, stack_top=top),
                             BASE, BASE + 12)
        assert (report.outcome, report.steps) == ("reached", 3), hex(top)
    for top in (0, 8, slack - 1, end - slack + 1, end - 8):
        with pytest.raises(ToolError, match=f"^stack top {top:#x}: its "):
            new_machine(img, stack_top=top)


def test_final_sp_delta_reported():
    m = run_snippet([("addi", "sp", "sp", -16)])
    b = CodeBuilder()
    b.emit("addi", "sp", "sp", -16)
    b.label("end")
    b.emit("ebreak")
    _, report = run_built(b, b.base, b.labels["end"])
    assert report.final_sp_delta == -16
    assert not report.stealth


def test_round_counting_needs_loop_entry():
    b = CodeBuilder()
    b.emit("nop")
    b.emit("nop")
    b.label("end")
    b.emit("ebreak")
    _, report = run_built(b, b.base, b.labels["end"])
    assert report.dispatch_rounds == 0


def test_report_render_mentions_everything():
    report = SimReport(outcome="reached", steps=12, dispatch_rounds=3,
                       syscalls=[], shadow_pushes=4, shadow_pops=3,
                       shadow_depth=1, final_sp_delta=0)
    text = report.render()
    assert "outcome        reached" in text
    assert "pushes=4 pops=3" in text
    assert "stealth        yes" in text
