"""Assembler golden encodings and operand validation."""

import hashlib
import random

import pytest

from rvjop.assembler import assemble, supported_mnemonics
from rvjop.errors import OperandOutOfRange, UnsupportedInstruction
from rvjop.isa import REGISTERS

from gen_llvm_golden import GOLDEN, REG_KINDS, SHAPES, imm_kind


def word(b: bytes) -> int:
    return int.from_bytes(b, "little")


# --- golden words -----------------------------------------------------------

@pytest.mark.parametrize("mnemonic,ops,expect,width", [
    ("ret", (), 0x00008067, 4),
    ("ecall", (), 0x00000073, 4),
    ("ebreak", (), 0x00100073, 4),
    ("nop", (), 0x00000013, 4),
    ("c.nop", (), 0x0001, 2),
    ("c.ebreak", (), 0x9002, 2),
    ("c.jr", ("a5",), 0x8782, 2),
    ("c.jr", ("ra",), 0x8082, 2),
    ("c.jalr", ("a5",), 0x9782, 2),
    ("c.li", ("a0", 1), 0x4505, 2),
    ("c.mv", ("a0", "a1"), 0x852E, 2),
    ("c.addi16sp", (-16,), 0x717D, 2),
    ("c.addi16sp", (16,), 0x6141, 2),
    ("lui", ("a0", 1), 0x00001537, 4),
    ("jal", ("ra", 0), 0x000000EF, 4),
    ("li", ("a0", 1), 0x00100513, 4),
])
def test_golden(mnemonic, ops, expect, width):
    raw = assemble(mnemonic, ops)
    assert len(raw) == width
    assert word(raw) == expect


def test_register_spellings_equivalent():
    from rvjop.isa import reg
    a = assemble("addi", ("a0", "a0", 1))
    b = assemble("addi", ("x10", 10, 1))
    c = assemble("addi", (reg("a0"), reg("a0"), 1))
    assert a == b == c


def test_fp_alias_for_s0():
    assert assemble("mv", ("fp", "sp")) == assemble("mv", ("s0", "sp"))


# --- rejection paths --------------------------------------------------------

def test_unknown_mnemonic():
    with pytest.raises(UnsupportedInstruction):
        assemble("fadd.s", ("f0", "f1", "f2"))


def test_rv64_only_rejected_on_rv32():
    for m, ops in [("ld", ("a0", "sp", 0)), ("addw", ("a0", "a1", "a2")),
                   ("c.addiw", ("a0", 1)), ("amoadd.d", ("a0", "a1", "a2"))]:
        with pytest.raises(UnsupportedInstruction):
            assemble(m, ops, xlen=32)


def test_cjal_rv32_only():
    assert assemble("c.jal", (4,), xlen=32)
    with pytest.raises(UnsupportedInstruction):
        assemble("c.jal", (4,), xlen=64)


@pytest.mark.parametrize("mnemonic,ops", [
    ("addi", ("a0", "a1", 2048)),
    ("addi", ("a0", "a1", -2049)),
    ("slli", ("a0", "a1", 32)),          # RV32 shamt cap
    ("jal", ("ra", 3)),                  # odd jump offset
    ("beq", ("a0", "a1", 1)),
    ("c.addi", ("a0", 0)),               # nonzero immediate required
    ("c.addi", ("zero", 4)),
    ("c.addi16sp", (8,)),                # multiple of 16
    ("c.addi16sp", (0,)),
    ("c.lui", ("sp", 1)),
    ("c.lui", ("a0", 0)),
    ("c.lw", ("t6", "a0", 0)),           # t6 has no 3-bit encoding
    ("c.lw", ("a0", "a1", 2)),           # multiple of 4
    ("c.lwsp", ("zero", 0)),
    ("c.jr", ("zero",)),
    ("lui", ("a0", 1 << 20)),
    ("addi", ("a0", "a1")),              # operand count
    ("addi", ("a0", "a1", "a2")),        # register where imm expected
    ("add", ("a0", "a1", "nope")),       # not a register name
    ("add", ("a0", "a1", 99)),           # no such register index
])
def test_operand_out_of_range(mnemonic, ops):
    with pytest.raises(OperandOutOfRange):
        assemble(mnemonic, ops)


def test_li_window_is_imm12():
    assert assemble("li", ("a0", 2047))
    with pytest.raises(OperandOutOfRange):
        assemble("li", ("a0", 2048))


def test_supported_list_is_sorted_and_complete():
    ms = supported_mnemonics()
    assert list(ms) == sorted(ms)
    for must in ("addi", "jalr", "c.jr", "lr.w.aqrl", "amomaxu.d.rl",
                 "csrrci", "ret"):
        assert must in ms


# --- llvm-mc golden file ----------------------------------------------------

# Golden-file cases where llvm and the assembler part ways, with the reason.
LLVM_DIVERGENCES = {
    (32, "fence", (0, 0)): "llvm spells a fence set with letters from "
                           "iorw and has no spelling for the empty set",
    (64, "fence", (0, 15)): "as above",
}


def _golden_cases():
    """(xlen, mnemonic, operands, hex bytes or 'error') per golden line."""
    for line in GOLDEN.read_text(encoding="ascii").splitlines():
        if line.startswith("#"):
            continue
        xlen, m, ops, want = line.split()
        operands = () if ops == "-" else tuple(
            int(o) if o.lstrip("-").isdigit() else o for o in ops.split(","))
        yield int(xlen), m, operands, want


def test_llvm_golden():
    """`assemble()` gives llvm-mc's bytes for seeded valid operands of
    every mnemonic (regenerate with tests/gen_llvm_golden.py)."""
    cases = list(_golden_cases())
    assert {m for _, m, _, _ in cases} == set(supported_mnemonics())
    diverged, mismatches = set(), []
    for xlen, m, ops, want in cases:
        got = assemble(m, ops, xlen=xlen).hex()    # divergences assemble too
        if want == "error":
            diverged.add((xlen, m, ops))
        elif got != want:
            mismatches.append((xlen, m, ops, got, want))
    assert not mismatches, mismatches[:20]
    assert diverged == set(LLVM_DIVERGENCES)


# --- whole-assembler digest -------------------------------------------------

ASSEMBLER_DIGEST = \
    "689fe495cbb9892d509eef3b4ba9a89afd06b33f769b3d4badb61975d1a8286e"

_JUNK = (True, False, None, "nope", 2.5, 32, -1, "x32")


def _operand_pool(kind, xlen, rng):
    """A field's edges, both sides of each, in several spellings."""
    if kind in REG_KINDS:
        ok = REG_KINDS[kind]
        bad = [i for i in (0, 2, 7, 16) if i not in ok]
        return [REGISTERS[ok[0]].name, REGISTERS[ok[-1]].name,
                f"x{rng.choice(ok)}", rng.choice(ok), REGISTERS[ok[0]],
                "fp"] + [REGISTERS[i].name for i in bad]
    lo, hi, step, _ = imm_kind(kind, xlen)
    return [lo, hi, lo - 1, hi + 1, lo + 1, 0, step, -step,
            rng.randrange(lo, hi + 1, step)]


def _digest_cases():
    rng = random.Random(20261018)
    for m in supported_mnemonics():
        kinds = SHAPES[m][0]
        for xlen in (32, 64):
            pools = [_operand_pool(k, xlen, rng) for k in kinds]
            tuples = [tuple(rng.choice(p) for p in pools) for _ in range(100)]
            for i in range(len(kinds)):           # one junk operand
                ops = list(tuples[0])
                ops[i] = rng.choice(_JUNK)
                tuples.append(tuple(ops))
            tuples += [tuples[0][:-1], tuples[0] + (0,)]  # wrong counts
            for ops in tuples:
                yield m, ops, xlen


def _digest_line(m, ops, xlen) -> str:
    try:
        result = assemble(m, ops, xlen=xlen).hex()
    except (OperandOutOfRange, UnsupportedInstruction) as exc:
        result = f"{type(exc).__name__}: {exc}"
    return f"{xlen} {m} {ops!r} {result}"


def test_assembler_digest():
    """Bytes, or exception type and message, for a seeded sweep of edge,
    invalid and miscounted operands of every mnemonic on RV32 and RV64
    hash to a pinned value: any change to what the assembler accepts or
    emits shows here."""
    h = hashlib.sha256()
    for case in _digest_cases():
        h.update(_digest_line(*case).encode() + b"\n")
    assert h.hexdigest() == ASSEMBLER_DIGEST
