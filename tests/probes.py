"""Operand probe corpus for assemble/decode round-trips.

Yields (mnemonic, operands, xlen) covering every supported form with
boundary immediates and representative register choices, including the
compressed-window and RV64-only cases.
"""

from __future__ import annotations

from rvjop.assembler import supported_mnemonics
from rvjop.decoder import PSEUDOS as _PSEUDO_ROWS

XR = ("zero", "a0", "t6")            # any register field
XS = ("zero", "sp", "a5")
XT = ("ra", "s0", "t6")
NZ = ("ra", "a0", "t6")              # fields rejecting x0
PR = ("s0", "s1", "a0", "a5")        # 3-bit compressed fields

IMM12 = (-2048, -1, 0, 1, 2047)
SHAMT32 = (0, 1, 31)
SHAMT64 = (0, 1, 31, 32, 63)
BR13 = (-4096, -2, 0, 2, 4094)
J21 = (-(1 << 20), -2, 0, 2, (1 << 20) - 2)
U20 = (0, 1, 0x7FFFF, 0xFFFFF)

R32 = ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
       "mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu")
R64 = ("addw", "subw", "sllw", "srlw", "sraw",
       "mulw", "divw", "divuw", "remw", "remuw")
I32 = ("addi", "slti", "sltiu", "xori", "ori", "andi", "jalr")
LOADS32 = ("lb", "lh", "lw", "lbu", "lhu")
LOADS64 = ("lwu", "ld")
STORES32 = ("sb", "sh", "sw")
BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")
AMO_BASES = ("amoswap", "amoadd", "amoxor", "amoand", "amoor",
             "amomin", "amomax", "amominu", "amomaxu")
ORDERINGS = ("", ".aq", ".rl", ".aqrl")

PSEUDOS = frozenset(pseudo for pseudo, _, _ in _PSEUDO_ROWS)


def iter_probes():
    for m in R32:
        for rd in XR:
            for rs1 in XS:
                for rs2 in XT:
                    yield m, (rd, rs1, rs2), 32
                    yield m, (rd, rs1, rs2), 64
    for m in R64:
        for rd in XR:
            yield m, (rd, "a1", "a2"), 64
    for m in I32:
        for rd in XR:
            for imm in IMM12:
                yield m, (rd, "a1", imm), 32
    for imm in IMM12:
        yield "addiw", ("a0", "a1", imm), 64
    for m in ("slli", "srli", "srai"):
        for sh in SHAMT32:
            yield m, ("a0", "a1", sh), 32
        for sh in SHAMT64:
            yield m, ("a0", "a1", sh), 64
    for m in ("slliw", "srliw", "sraiw"):
        for sh in SHAMT32:
            yield m, ("a0", "a1", sh), 64
    for m in LOADS32:
        for imm in IMM12:
            yield m, ("a0", "sp", imm), 32
    for m in LOADS64:
        for imm in IMM12:
            yield m, ("a0", "sp", imm), 64
    for m in STORES32:
        for imm in IMM12:
            yield m, ("a0", "sp", imm), 32
    for imm in IMM12:
        yield "sd", ("a0", "sp", imm), 64
    for m in ("lui", "auipc"):
        for rd in XR:
            for f in U20:
                yield m, (rd, f), 32
    for rd in ("zero", "ra", "t6"):
        for imm in J21:
            yield "jal", (rd, imm), 32
    for m in BRANCHES:
        for imm in BR13:
            yield m, ("a0", "a1", imm), 32
            yield m, ("s0", "zero", imm), 32
    yield "fence", (0, 0), 32
    yield "fence", (15, 15), 32
    yield "fence", (3, 12), 32
    for m in ("fence.i", "ecall", "ebreak"):
        yield m, (), 32
    for m in ("csrrw", "csrrs", "csrrc"):
        for csr in (0, 0x305, 4095):
            yield m, ("a0", csr, "a1"), 32
    for m in ("csrrwi", "csrrsi", "csrrci"):
        for u in (0, 31):
            yield m, ("a0", 0x340, u), 32
    for base in AMO_BASES:
        for order in ORDERINGS:
            yield f"{base}.w{order}", ("a0", "a1", "a2"), 32
            yield f"{base}.d{order}", ("a0", "a1", "a2"), 64
    for order in ORDERINGS:
        yield f"lr.w{order}", ("a0", "a1"), 32
        yield f"lr.d{order}", ("a0", "a1"), 64
        yield f"sc.w{order}", ("a0", "a1", "a2"), 32
        yield f"sc.d{order}", ("a0", "a1", "a2"), 64

    # compressed
    yield "c.nop", (), 32
    yield "c.ebreak", (), 32
    for rd in NZ:
        for imm in (-32, -1, 1, 31):
            yield "c.addi", (rd, imm), 32
        for imm in (-32, 0, 31):
            yield "c.addiw", (rd, imm), 64
            yield "c.li", (rd, imm), 32
    for imm in (-512, -16, 16, 496):
        yield "c.addi16sp", (imm,), 32
    for rd in ("ra", "a0", "t6"):
        for f in (-32, -1, 1, 31):
            yield "c.lui", (rd, f), 32
    for rd in PR:
        for imm in (4, 8, 512, 1020):
            yield "c.addi4spn", (rd, imm), 32
    for rd in PR[:2]:
        for rb in PR[2:]:
            for imm in (0, 4, 64, 124):
                yield "c.lw", (rd, rb, imm), 32
                yield "c.sw", (rd, rb, imm), 32
            for imm in (0, 8, 128, 248):
                yield "c.ld", (rd, rb, imm), 64
                yield "c.sd", (rd, rb, imm), 64
    for rd in NZ:
        for imm in (0, 4, 128, 252):
            yield "c.lwsp", (rd, imm), 32
    for rs in XR:
        for imm in (0, 4, 128, 252):
            yield "c.swsp", (rs, imm), 32
    for rd in NZ:
        for imm in (0, 8, 256, 504):
            yield "c.ldsp", (rd, imm), 64
    for rs in XR:
        for imm in (0, 8, 256, 504):
            yield "c.sdsp", (rs, imm), 64
    for imm in (-2048, -2, 0, 2, 2046):
        yield "c.j", (imm,), 32
        yield "c.j", (imm,), 64
        yield "c.jal", (imm,), 32
    for m in ("c.beqz", "c.bnez"):
        for rs in PR:
            for imm in (-256, -2, 0, 2, 254):
                yield m, (rs, imm), 32
    for m in ("c.srli", "c.srai"):
        for rd in PR:
            yield m, (rd, 1), 32
            yield m, (rd, 31), 32
            yield m, (rd, 32), 64
            yield m, (rd, 63), 64
    for rd in PR:
        for imm in (-32, 0, 31):
            yield "c.andi", (rd, imm), 32
    for m in ("c.sub", "c.xor", "c.or", "c.and"):
        for rd in PR[:2]:
            for rs in PR[2:]:
                yield m, (rd, rs), 32
    for m in ("c.subw", "c.addw"):
        yield m, ("s0", "a5"), 64
    for rd in NZ:
        yield "c.slli", (rd, 1), 32
        yield "c.slli", (rd, 31), 32
        yield "c.slli", (rd, 63), 64
        yield "c.jr", (rd,), 32
        yield "c.jalr", (rd,), 32
    for rd in NZ:
        for rs in ("ra", "t0", "a5"):
            yield "c.mv", (rd, rs), 32
            yield "c.add", (rd, rs), 32

    # pseudo spellings expand to base forms
    for imm in IMM12:
        yield "li", ("a2", imm), 32
    yield "mv", ("a0", "s1"), 32
    yield "ret", (), 32
    yield "jr", ("t0",), 32
    yield "nop", (), 32
    yield "j", (-8,), 32
    yield "j", (2044,), 32


def probed_mnemonics() -> set[str]:
    return {m for m, _, _ in iter_probes()}


def all_mnemonics_probed() -> set[str]:
    """Mnemonics the assembler knows but the corpus never exercises."""
    return set(supported_mnemonics()) - probed_mnemonics()
