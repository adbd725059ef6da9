"""RV32/RV64 IMAC instruction decoder.

Decodes one instruction at a time from raw bytes (little-endian), covering
the I base, M, A, and C extensions.  Float and vector opcodes are rejected
with a distinguishing subcode so scanners can tell "unsupported extension"
from "not an instruction".

Width discrimination follows the base encoding scheme: if the low two bits
of the first halfword are not 0b11 the instruction is compressed (2 bytes),
otherwise it is a 4-byte instruction.  Longer encodings (low five bits all
ones) are not supported.

Decoding has two parts.  `_decode32` and `_decode16` decide which
instruction an encoding is: its name and operands and, for a compressed
instruction, its 32-bit expansion (`base`; a 32-bit instruction is its own
base).  Both read one table with a row per encoding, `_ROWS32` and
`_ROWS16` in one grammar: the row's bits with its fields marked, the
register width it exists at, its mnemonic and immediate layout.  The
first row that matches an encoding decodes it, and the reserved slots
(float, vector, undefined) are rows of their own.  The rows are the one
statement of each encoding: `rvjop.assembler` encodes from them.
`_effects` says what a base instruction does:
registers read and written, control flow, memory access, immediate and
pseudo spellings (li, mv, nop, ret, jr, j).  It is written once per base
mnemonic, and a compressed instruction takes all of it from its
expansion.  `base` is the one expansion every consumer reads
(interpreter, dataflow, classification), so no other module knows how a C
form expands; it is also the first alias of a compressed instruction.
Immediates are kept sign-extended as plain Python ints, independent of
XLEN.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from operator import itemgetter

from .errors import InvalidEncoding, Truncated
from .isa import REGISTERS, RA, A7, Register, mask, reg, sext

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import NoReturn


# --- control flow and access descriptors ------------------------------------
#
# Records are `collections.namedtuple` classes, subclassed only to add a
# property or method: `typing.NamedTuple` would compile a forward reference
# for every annotated field at import.  Each field's type is in the comment
# beside it.

DirectJump = namedtuple("DirectJump", (
    "target",       # int
    "link",         # Register | None
), defaults=(None,))


class IndirectJump(namedtuple("IndirectJump", (
        "base",         # Register
        "offset",       # int
        "link",         # Register | None
        ), defaults=(None,))):
    __slots__ = ()

    @property
    def is_return(self) -> bool:
        # Return-like is exactly the no-link jump through ra with offset 0
        # (jalr x0, 0(ra) and its compressed spelling).
        return self.link is None and self.base is RA and self.offset == 0


CondBranch = namedtuple("CondBranch", (
    "target",       # int
    "regs",         # tuple[Register, Register]
    "op",           # str: "eq" | "ne" | "lt" | "ge" | "ltu" | "geu"
))


Trap = namedtuple("Trap", (
    "kind",         # str: "ecall" | "ebreak"
))


ControlFlow = DirectJump | IndirectJump | CondBranch | Trap


MemAccess = namedtuple("MemAccess", (
    "kind",         # str: "load" | "store" | "amo"
    "base",         # Register
    "offset",       # int
    "size",         # int
))


Alias = namedtuple("Alias", (
    "name",         # str
    "operands",     # tuple
))


class DecodedInstruction(namedtuple("DecodedInstruction", (
        "address",      # int
        "width",        # int: 2 or 4
        "raw",          # int: encoding word
        "mnemonic",     # str
        "operands",     # tuple
        "regs_read",    # frozenset[Register]
        "regs_written",  # frozenset[Register]
        "control_flow",  # ControlFlow | None
        "mem_access",   # MemAccess | None
        "imm",          # int | None
        "aliases",      # tuple[Alias, ...]
        "base",         # Alias | None: the 32-bit form; decoding always
                        # sets it
        ), defaults=(None, None, None, (), None))):
    __slots__ = ()

    @property
    def is_terminator(self) -> bool:
        """Indirect jumps (Return-like included) end a gadget."""
        return isinstance(self.control_flow, IndirectJump)

    def matches_op(self, name: str) -> bool:
        """Pseudo-aware mnemonic test: canonical name or any alias."""
        if self.mnemonic == name:
            return True
        return any(a.name == name for a in self.aliases)

    @property
    def encoding(self) -> bytes:
        return self.raw.to_bytes(self.width, "little")

    def render(self) -> str:
        """Assembly text, memory operands in offset(base) form."""
        m = self.mnemonic
        ops = self.operands
        if self.mem_access is not None and ops:
            if m.startswith(("lr.", "sc.", "amo")):
                *front, base = ops
                return f"{m} " + ", ".join(str(o) for o in front) + f", ({base})"
            if len(ops) == 2:    # c.lwsp/c.swsp family: (reg, imm), sp implied
                ops = (ops[0], self.mem_access.base, ops[1])
            # loads/stores: last two operands are base, offset
            *front, base, off = ops
            txt = ", ".join(str(o) for o in front)
            return f"{m} {txt}, {off}({base})" if front else f"{m} {off}({base})"
        if not ops:
            return m
        return f"{m} " + ", ".join(str(o) for o in ops)


_EMPTY: frozenset[Register] = frozenset()


# {r} for each register r but the hard-wired zero, by index: most sets
# hold one register.
_ONE: tuple[frozenset[Register], ...] = (_EMPTY,) + tuple(
    frozenset((r,)) for r in REGISTERS[1:])


def _two(a: Register, b: Register) -> frozenset[Register]:
    """{a, b} with the hard-wired zero filtered out."""
    if a.index and b.index and a is not b:
        return frozenset((a, b))
    return _ONE[a.index or b.index]


# Builds a record from a tuple of its fields: a namedtuple's own
# `__new__` takes them by keyword, one more call per record.
_new = tuple.__new__


# --- effects of a base instruction ------------------------------------------

_NOP = Alias("nop", ())
_RET = Alias("ret", ())
_ECALL = Trap("ecall")
_EBREAK = Trap("ebreak")


def _effects(name: str, ops: tuple, address: int, xlen: int) -> tuple:
    """What the base instruction `name ops` at `address` does: (regs read,
    regs written, control flow, memory access, imm, pseudo aliases).

    Written once per base mnemonic; a compressed instruction gets its
    effects from its expansion."""
    kind, size = _SHAPE[name]
    if kind == "imm":                           # rd, rs1, imm
        rd, rs1, imm = ops
        pseudo = ()
        if name == "addi":
            if rs1.index == 0:
                pseudo = (_NOP,) if rd.index == 0 and imm == 0 \
                    else (Alias("li", (rd, imm)),)
            elif imm == 0:
                pseudo = (Alias("mv", (rd, rs1)),)
        return _ONE[rs1.index], _ONE[rd.index], None, None, imm, pseudo
    if kind == "reg":                           # rd, rs1, rs2
        rd, rs1, rs2 = ops
        return _two(rs1, rs2), _ONE[rd.index], None, None, None, ()
    if kind == "load":                          # rd, rs1, imm
        rd, rs1, imm = ops
        return (_ONE[rs1.index], _ONE[rd.index], None,
                MemAccess("load", rs1, imm, size), imm, ())
    if kind == "store":                         # rs2, rs1, imm
        rs2, rs1, imm = ops
        return (_two(rs1, rs2), _EMPTY, None,
                MemAccess("store", rs1, imm, size), imm, ())
    if kind == "branch":                        # rs1, rs2, imm
        rs1, rs2, imm = ops
        cf = CondBranch((address + imm) & mask(xlen), (rs1, rs2), name[1:])
        return _two(rs1, rs2), _EMPTY, cf, None, imm, ()
    if kind == "jal":                           # rd, imm
        rd, imm = ops
        link = rd if rd.index else None
        pseudo = () if link else (Alias("j", (imm,)),)
        cf = DirectJump((address + imm) & mask(xlen), link)
        return _EMPTY, _ONE[rd.index], cf, None, imm, pseudo
    if kind == "jalr":                          # rd, rs1, imm
        rd, rs1, imm = ops
        link = rd if rd.index else None
        pseudo = ()
        if link is None and imm == 0:
            pseudo = (_RET,) if rs1 is RA else (Alias("jr", (rs1,)),)
        cf = IndirectJump(rs1, imm, link)
        return _ONE[rs1.index], _ONE[rd.index], cf, None, imm, pseudo
    if kind == "upper":                         # rd, imm[31:12]
        rd, f = ops
        return _EMPTY, _ONE[rd.index], None, None, sext(f << 12, 32), ()
    if kind == "lr":                            # rd, rs1
        rd, rs1 = ops
        return (_ONE[rs1.index], _ONE[rd.index], None,
                MemAccess("load", rs1, 0, size), None, ())
    if kind == "sc" or kind == "amo":           # rd, rs2, rs1
        rd, rs2, rs1 = ops
        return (_two(rs1, rs2), _ONE[rd.index], None,
                MemAccess("store" if kind == "sc" else kind, rs1, 0, size),
                None, ())
    if kind == "csr":                           # rd, csr, rs1 or zimm
        rd, _, src = ops
        if name[-1] == "i":
            return _EMPTY, _ONE[rd.index], None, None, src, ()
        return _ONE[src.index], _ONE[rd.index], None, None, None, ()
    if name == "ecall":
        # By convention the syscall id travels in a7; record the read so a
        # bare ecall shows a7 as an external dependency.
        return _ONE[A7.index], _EMPTY, _ECALL, None, None, ()
    if name == "ebreak":
        return _EMPTY, _EMPTY, _EBREAK, None, None, ()
    return _EMPTY, _EMPTY, None, None, None, ()     # fence, fence.i


# --- the instruction table --------------------------------------------------
#
# One row per encoding, in the ISA manual's terms, 32-bit and compressed
# alike.  The 32-bit rows follow riscv-opcodes (one instruction a line,
# its fixed bits and named fields):
#
# - the bits, 31..0 in the first 38 columns of a 32-bit row and 15..0 in
#   the first 23 of a compressed one.  "0" and "1" must match and "-" may
#   be anything.  A letter marks a field: d is rd, t rs2 and s rs1, each
#   naming x8..x15 when three bits wide (rd', rs2', rs1'); i (signed) or
#   u (unsigned) holds the immediate; p (pred), q (succ) and z (zimm) are
#   small numbers; "oo" are an atomic's aq and rl bits, and the row stands
#   for four, one per ordering, whose suffix its mnemonic takes;
# - the register width the row exists at, "-" for both;
# - the mnemonic;
# - which immediate bits the i or u letters hold, left to right, in the
#   manual's notation: "5:3|2|6" is uimm[5:3|2|6].  lui's operand is its
#   imm[31:12] and c.lui's its nzimm[17:12], each written from bit 0;
# - for a 32-bit row, the rule of `_effects` it follows (`_SHAPE`), then
#   its operands in the assembler's order: "i" is the immediate, the
#   other letters are fields.  A compressed row's operands are its fields
#   in the order d, t, s, then the immediate, and its last column is its
#   32-bit expansion, in which those letters stand for the operands.
#
# The first row that matches an encoding decodes it.  A row named "fp"
# (a float opcode, or a float load or store), "vector" or "undefined" is
# reserved: decoding it raises InvalidEncoding with that subcode, as does
# an encoding no row matches.  `rvjop.assembler` encodes from these rows.
_ROWS32 = """
------- ----- ----- --- ----- 0000111 -  fp
------- ----- ----- --- ----- 0100111 -  fp
------- ----- ----- --- ----- 1000011 -  fp
------- ----- ----- --- ----- 1000111 -  fp
------- ----- ----- --- ----- 1001011 -  fp
------- ----- ----- --- ----- 1001111 -  fp
------- ----- ----- --- ----- 1010011 -  fp
------- ----- ----- --- ----- 1010111 -  vector
uuuuuuu uuuuu uuuuu uuu ddddd 0110111 -  lui       19:0            upper d,i
uuuuuuu uuuuu uuuuu uuu ddddd 0010111 -  auipc     19:0            upper d,i
iiiiiii iiiii iiiii iii ddddd 1101111 -  jal       20|10:1|11|19:12 jal d,i
iiiiiii iiiii sssss 000 ddddd 1100111 -  jalr      11:0            jalr d,s,i
iiiiiii ttttt sssss 000 iiiii 1100011 -  beq       12|10:5|4:1|11  branch s,t,i
iiiiiii ttttt sssss 001 iiiii 1100011 -  bne       12|10:5|4:1|11  branch s,t,i
iiiiiii ttttt sssss 100 iiiii 1100011 -  blt       12|10:5|4:1|11  branch s,t,i
iiiiiii ttttt sssss 101 iiiii 1100011 -  bge       12|10:5|4:1|11  branch s,t,i
iiiiiii ttttt sssss 110 iiiii 1100011 -  bltu      12|10:5|4:1|11  branch s,t,i
iiiiiii ttttt sssss 111 iiiii 1100011 -  bgeu      12|10:5|4:1|11  branch s,t,i
iiiiiii iiiii sssss 000 ddddd 0000011 -  lb        11:0            load d,s,i
iiiiiii iiiii sssss 001 ddddd 0000011 -  lh        11:0            load d,s,i
iiiiiii iiiii sssss 010 ddddd 0000011 -  lw        11:0            load d,s,i
iiiiiii iiiii sssss 011 ddddd 0000011 64 ld        11:0            load d,s,i
iiiiiii iiiii sssss 100 ddddd 0000011 -  lbu       11:0            load d,s,i
iiiiiii iiiii sssss 101 ddddd 0000011 -  lhu       11:0            load d,s,i
iiiiiii iiiii sssss 110 ddddd 0000011 64 lwu       11:0            load d,s,i
iiiiiii ttttt sssss 000 iiiii 0100011 -  sb        11:5|4:0        store t,s,i
iiiiiii ttttt sssss 001 iiiii 0100011 -  sh        11:5|4:0        store t,s,i
iiiiiii ttttt sssss 010 iiiii 0100011 -  sw        11:5|4:0        store t,s,i
iiiiiii ttttt sssss 011 iiiii 0100011 64 sd        11:5|4:0        store t,s,i
iiiiiii iiiii sssss 000 ddddd 0010011 -  addi      11:0            imm d,s,i
iiiiiii iiiii sssss 010 ddddd 0010011 -  slti      11:0            imm d,s,i
iiiiiii iiiii sssss 011 ddddd 0010011 -  sltiu     11:0            imm d,s,i
iiiiiii iiiii sssss 100 ddddd 0010011 -  xori      11:0            imm d,s,i
iiiiiii iiiii sssss 110 ddddd 0010011 -  ori       11:0            imm d,s,i
iiiiiii iiiii sssss 111 ddddd 0010011 -  andi      11:0            imm d,s,i
0000000 uuuuu sssss 001 ddddd 0010011 32 slli      4:0             imm d,s,i
000000u uuuuu sssss 001 ddddd 0010011 64 slli      5:0             imm d,s,i
0000000 uuuuu sssss 101 ddddd 0010011 32 srli      4:0             imm d,s,i
000000u uuuuu sssss 101 ddddd 0010011 64 srli      5:0             imm d,s,i
0100000 uuuuu sssss 101 ddddd 0010011 32 srai      4:0             imm d,s,i
010000u uuuuu sssss 101 ddddd 0010011 64 srai      5:0             imm d,s,i
0000000 ttttt sssss 000 ddddd 0110011 -  add                       reg d,s,t
0100000 ttttt sssss 000 ddddd 0110011 -  sub                       reg d,s,t
0000000 ttttt sssss 001 ddddd 0110011 -  sll                       reg d,s,t
0000000 ttttt sssss 010 ddddd 0110011 -  slt                       reg d,s,t
0000000 ttttt sssss 011 ddddd 0110011 -  sltu                      reg d,s,t
0000000 ttttt sssss 100 ddddd 0110011 -  xor                       reg d,s,t
0000000 ttttt sssss 101 ddddd 0110011 -  srl                       reg d,s,t
0100000 ttttt sssss 101 ddddd 0110011 -  sra                       reg d,s,t
0000000 ttttt sssss 110 ddddd 0110011 -  or                        reg d,s,t
0000000 ttttt sssss 111 ddddd 0110011 -  and                       reg d,s,t
0000001 ttttt sssss 000 ddddd 0110011 -  mul                       reg d,s,t
0000001 ttttt sssss 001 ddddd 0110011 -  mulh                      reg d,s,t
0000001 ttttt sssss 010 ddddd 0110011 -  mulhsu                    reg d,s,t
0000001 ttttt sssss 011 ddddd 0110011 -  mulhu                     reg d,s,t
0000001 ttttt sssss 100 ddddd 0110011 -  div                       reg d,s,t
0000001 ttttt sssss 101 ddddd 0110011 -  divu                      reg d,s,t
0000001 ttttt sssss 110 ddddd 0110011 -  rem                       reg d,s,t
0000001 ttttt sssss 111 ddddd 0110011 -  remu                      reg d,s,t
iiiiiii iiiii sssss 000 ddddd 0011011 64 addiw     11:0            imm d,s,i
0000000 uuuuu sssss 001 ddddd 0011011 64 slliw     4:0             imm d,s,i
0000000 uuuuu sssss 101 ddddd 0011011 64 srliw     4:0             imm d,s,i
0100000 uuuuu sssss 101 ddddd 0011011 64 sraiw     4:0             imm d,s,i
0000000 ttttt sssss 000 ddddd 0111011 64 addw                      reg d,s,t
0100000 ttttt sssss 000 ddddd 0111011 64 subw                      reg d,s,t
0000000 ttttt sssss 001 ddddd 0111011 64 sllw                      reg d,s,t
0000000 ttttt sssss 101 ddddd 0111011 64 srlw                      reg d,s,t
0100000 ttttt sssss 101 ddddd 0111011 64 sraw                      reg d,s,t
0000001 ttttt sssss 000 ddddd 0111011 64 mulw                      reg d,s,t
0000001 ttttt sssss 100 ddddd 0111011 64 divw                      reg d,s,t
0000001 ttttt sssss 101 ddddd 0111011 64 divuw                     reg d,s,t
0000001 ttttt sssss 110 ddddd 0111011 64 remw                      reg d,s,t
0000001 ttttt sssss 111 ddddd 0111011 64 remuw                     reg d,s,t
00010oo 00000 sssss 010 ddddd 0101111 -  lr.w                      lr d,s
00011oo ttttt sssss 010 ddddd 0101111 -  sc.w                      sc d,t,s
00001oo ttttt sssss 010 ddddd 0101111 -  amoswap.w                 amo d,t,s
00000oo ttttt sssss 010 ddddd 0101111 -  amoadd.w                  amo d,t,s
00100oo ttttt sssss 010 ddddd 0101111 -  amoxor.w                  amo d,t,s
01100oo ttttt sssss 010 ddddd 0101111 -  amoand.w                  amo d,t,s
01000oo ttttt sssss 010 ddddd 0101111 -  amoor.w                   amo d,t,s
10000oo ttttt sssss 010 ddddd 0101111 -  amomin.w                  amo d,t,s
10100oo ttttt sssss 010 ddddd 0101111 -  amomax.w                  amo d,t,s
11000oo ttttt sssss 010 ddddd 0101111 -  amominu.w                 amo d,t,s
11100oo ttttt sssss 010 ddddd 0101111 -  amomaxu.w                 amo d,t,s
00010oo 00000 sssss 011 ddddd 0101111 64 lr.d                      lr d,s
00011oo ttttt sssss 011 ddddd 0101111 64 sc.d                      sc d,t,s
00001oo ttttt sssss 011 ddddd 0101111 64 amoswap.d                 amo d,t,s
00000oo ttttt sssss 011 ddddd 0101111 64 amoadd.d                  amo d,t,s
00100oo ttttt sssss 011 ddddd 0101111 64 amoxor.d                  amo d,t,s
01100oo ttttt sssss 011 ddddd 0101111 64 amoand.d                  amo d,t,s
01000oo ttttt sssss 011 ddddd 0101111 64 amoor.d                   amo d,t,s
10000oo ttttt sssss 011 ddddd 0101111 64 amomin.d                  amo d,t,s
10100oo ttttt sssss 011 ddddd 0101111 64 amomax.d                  amo d,t,s
11000oo ttttt sssss 011 ddddd 0101111 64 amominu.d                 amo d,t,s
11100oo ttttt sssss 011 ddddd 0101111 64 amomaxu.d                 amo d,t,s
----ppp pqqqq ----- 000 ----- 0001111 -  fence                     system p,q
------- ----- ----- 001 ----- 0001111 -  fence.i                   system
0000000 00000 00000 000 00000 1110011 -  ecall                     system
0000000 00001 00000 000 00000 1110011 -  ebreak                    system
uuuuuuu uuuuu sssss 001 ddddd 1110011 -  csrrw     11:0            csr d,i,s
uuuuuuu uuuuu sssss 010 ddddd 1110011 -  csrrs     11:0            csr d,i,s
uuuuuuu uuuuu sssss 011 ddddd 1110011 -  csrrc     11:0            csr d,i,s
uuuuuuu uuuuu zzzzz 101 ddddd 1110011 -  csrrwi    11:0            csr d,i,z
uuuuuuu uuuuu zzzzz 110 ddddd 1110011 -  csrrsi    11:0            csr d,i,z
uuuuuuu uuuuu zzzzz 111 ddddd 1110011 -  csrrci    11:0            csr d,i,z
"""

_ROWS16 = """
000 00000000 --- 00    -  undefined
000 uuuuuuuu ddd 00    -  c.addi4spn  5:4|9:6|2|3            addi d,sp,i
001 ----------- 00     -  fp
010 uuu sss uu ddd 00  -  c.lw        5:3|2|6                lw d,s,i
011 uuu sss uu ddd 00  64 c.ld        5:3|7:6                ld d,s,i
011 ----------- 00     32 fp
101 ----------- 00     -  fp
110 uuu sss uu ttt 00  -  c.sw        5:3|2|6                sw t,s,i
111 uuu sss uu ttt 00  64 c.sd        5:3|7:6                sd t,s,i
111 ----------- 00     32 fp
000 - 00000 ----- 01   -  c.nop                              addi zero,zero,0
000 i ddddd iiiii 01   -  c.addi      5|4:0                  addi d,d,i
001 - 00000 ----- 01   64 undefined
001 i ddddd iiiii 01   64 c.addiw     5|4:0                  addiw d,d,i
001 iiiiiiiiiii 01     32 c.jal       11|4|9:8|10|6|7|3:1|5  jal ra,i
010 i ddddd iiiii 01   -  c.li        5|4:0                  addi d,zero,i
011 0 ----- 00000 01   -  undefined
011 i 00010 iiiii 01   -  c.addi16sp  9|4|6|8:7|5            addi sp,sp,i
011 i ddddd iiiii 01   -  c.lui       5|4:0                  lui d,i
100 1 0- --- ----- 01  32 undefined
100 u 00 ddd uuuuu 01  -  c.srli      5|4:0                  srli d,d,i
100 u 01 ddd uuuuu 01  -  c.srai      5|4:0                  srai d,d,i
100 i 10 ddd iiiii 01  -  c.andi      5|4:0                  andi d,d,i
100 0 11 ddd 00 ttt 01 -  c.sub                              sub d,d,t
100 0 11 ddd 01 ttt 01 -  c.xor                              xor d,d,t
100 0 11 ddd 10 ttt 01 -  c.or                               or d,d,t
100 0 11 ddd 11 ttt 01 -  c.and                              and d,d,t
100 1 11 ddd 00 ttt 01 64 c.subw                             subw d,d,t
100 1 11 ddd 01 ttt 01 64 c.addw                             addw d,d,t
101 iiiiiiiiiii 01     -  c.j         11|4|9:8|10|6|7|3:1|5  jal zero,i
110 iii sss iiiii 01   -  c.beqz      8|4:3|7:6|2:1|5        beq s,zero,i
111 iii sss iiiii 01   -  c.bnez      8|4:3|7:6|2:1|5        bne s,zero,i
000 1 ----- ----- 10   32 undefined
000 u ddddd uuuuu 10   -  c.slli      5|4:0                  slli d,d,i
001 ----------- 10     -  fp
010 - 00000 ----- 10   -  undefined
010 u ddddd uuuuu 10   -  c.lwsp      5|4:2|7:6              lw d,sp,i
011 - 00000 ----- 10   64 undefined
011 u ddddd uuuuu 10   64 c.ldsp      5|4:3|8:6              ld d,sp,i
011 ----------- 10     32 fp
100 0 00000 ----- 10   -  undefined
100 0 sssss 00000 10   -  c.jr                               jalr zero,s,0
100 0 ddddd ttttt 10   -  c.mv                               add d,zero,t
100 1 00000 00000 10   -  c.ebreak                           ebreak
100 1 00000 ----- 10   -  undefined
100 1 sssss 00000 10   -  c.jalr                             jalr ra,s,0
100 1 ddddd ttttt 10   -  c.add                              add d,d,t
101 ----------- 10     -  fp
110 uuuuuu ttttt 10    -  c.swsp      5:2|7:6                sw t,sp,i
111 uuuuuu ttttt 10    64 c.sdsp      5:3|8:6                sd t,sp,i
111 ----------- 10     32 fp
"""

_ORDERS = ("", ".rl", ".aq", ".aqrl")   # by (aq << 1) | rl
_RESERVED = ("fp", "vector", "undefined")
_FIELDS = "dtspqz"                      # in the order of a row's fields
_MASK = str.maketrans("01-dtsiupqzo", "110000000000")
_MATCH = str.maketrans("-dtsiupqzo", "0000000000")
_LETTERS = str.maketrans("01", "--")


def _parse(text: str, columns: int) -> tuple:
    """The rows of `text`, whose bits take its first `columns` columns."""
    rows = []
    for line in text.strip().splitlines():
        bits = line[:columns].replace(" ", "")
        row = _row(bits, *line[columns:].split())
        if "oo" not in bits:
            rows.append(row)
            continue
        x, mask, match, name, *rest = row
        at = len(bits) - 2 - bits.index("oo")
        rows += [(x, mask | 3 << at, match | k << at, name + order, *rest)
                 for k, order in enumerate(_ORDERS)]
    return tuple(rows)


def _row(bits: str, xlen: str, name: str, *rest: str) -> tuple:
    """A row as (xlen or None, mask, match, mnemonic, fields, immediate,
    tail).  The fields and immediate are its `_layout`.  The tail is ()
    for a reserved row, else the effects rule of a 32-bit row or the
    expansion's mnemonic of a compressed one, then the layout's
    operands."""
    mask = int(bits.translate(_MASK), 2)
    match = int(bits.translate(_MATCH), 2)
    xlen = None if xlen == "-" else int(xlen)
    if name in _RESERVED:
        return xlen, mask, match, name, (), None, ()
    if "i" not in bits and "u" not in bits:
        rest = ("", *rest)
    order, word, *args = rest
    fields, imm, operands = _layout(bits.translate(_LETTERS), order, *args)
    return xlen, mask, match, name, fields, imm, (word, operands)


@cache
def _layout(bits: str, order: str, args: str = "") -> tuple:
    """(fields, immediate, operands) of the rows whose letters lie as in
    `bits`, their immediate's bits in `order`.

    A field is (lowest bit, width, letter), in the order of `_FIELDS`.
    The immediate is None or ((instruction bit, immediate bit) pairs,
    whether it is signed).  The operands are those in `args`: each the
    index of one of the fields or, after them, of the immediate, or a
    fixed register's name or "0"."""
    top = len(bits) - 1
    letters = [c for c in _FIELDS if c in bits]
    fields = tuple((top - bits.rindex(c), bits.count(c), c) for c in letters)
    imm = None
    if order:
        places = []
        for part in order.split("|"):
            hi, _, lo = part.partition(":")
            places += range(int(hi), int(lo or hi) - 1, -1)
        imm = (tuple(zip((top - k for k, c in enumerate(bits) if c in "iu"),
                         places)), "i" in bits)
        letters.append("i")
    return fields, imm, tuple(letters.index(a) if a in letters else a
                              for a in args.split(",") if a)


_WIDE = _parse(_ROWS32, 38)
_COMPRESSED = _parse(_ROWS16, 23)

_WIDTH = {"b": 1, "h": 2, "w": 4, "d": 8}   # by the letter after l/s


def _shape(name: str, kind: str) -> tuple[str, int | None]:
    """A base mnemonic's rule in `_effects` and, for a memory access, its
    size in bytes: by the letter after l or s, or after an atomic's
    first dot."""
    if kind in ("load", "store"):
        return kind, _WIDTH[name[1]]
    if kind in ("lr", "sc", "amo"):
        return kind, _WIDTH[name[name.index(".") + 1]]
    return kind, None


_SHAPE = {row[3]: _shape(row[3], row[6][0]) for row in _WIDE if row[6]}


# --- decode -----------------------------------------------------------------
#
# A row decodes by a plan built once: its fields read five bits wide
# through a table of their operands, and its immediate as the sum of one
# table lookup per group of instruction bits, a signed immediate's top bit
# weighing negatively, so there is no sign step and no helper call per
# field.  This is the hot path of every decode.

# The three-bit register fields name x8..x15; read five bits wide, they
# repeat.
_PRIMED = REGISTERS[8:16] * 4


def _field(width: int, letter: str) -> tuple:
    """A field's operand by the five bits from its lowest."""
    if letter in "dts":
        return REGISTERS if width == 5 else _PRIMED
    return tuple(v & (1 << width) - 1 for v in range(32))


@cache
def _sums(weights: tuple[int, ...]) -> tuple[int, ...]:
    """The sum of `weights[k]` over the set bits k of each index."""
    table = (0,)
    for w in weights:
        table += tuple(map(w.__add__, table))
    return table


@cache
def _immediate(imm, groups: tuple) -> tuple[tuple[int, ...], ...]:
    """An immediate's value by each group (lowest bit, width) of
    instruction bits: it is the sum of the groups'."""
    pairs, signed = imm
    weights = [0] * 32
    for at, b in pairs:
        weights[at] = 1 << b
    if signed:
        at, b = max(pairs, key=itemgetter(1))
        weights[at] = -(1 << b)
    return tuple(_sums(tuple(weights[lo:lo + n])) for lo, n in groups)


def _pick(places: list[int]):
    """The function giving a pool's items at `places`, as a tuple."""
    if len(places) > 1:
        return itemgetter(*places)
    return itemgetter(slice(places[0], places[0] + 1) if places else slice(0))


def _reads(fields, n: int) -> list:
    """(lowest bit, table) of each field, padded to `n` with x0..x31."""
    return [(at, _field(width, c)) for at, width, c in fields] + \
        [(0, REGISTERS)] * (n - len(fields))


@cache
def _plan32(fields, imm, tail) -> tuple:
    """What `_decode32` needs of an instruction row, after its name.  It
    decodes the row into the pool (first field, second, third,
    immediate) and picks the operands out of it."""
    (s1, t1), (s2, t2), (s3, t3) = _reads(fields, 3)
    places = [3 if a == len(fields) else a for a in tail[1]]
    return (s1, t1, s2, t2, s3, t3,
            imm and _immediate(imm, ((25, 7), (20, 5), (12, 8), (7, 5))),
            _pick(places))


@cache
def _plan16(fields, imm, expansion) -> tuple:
    """What `_decode16` needs of an instruction row, after its name.  It
    decodes the row into the pool (first register, second register,
    immediate, fixed register) and picks the operands and the
    expansion's out of it: the immediate is 0 in a row without one, and
    no expansion names more than one fixed register."""
    (s1, t1), (s2, t2) = _reads(fields, 2)
    base, args = expansion
    fixed = [a for a in args if a in ("zero", "ra", "sp")]
    places = [3 if a in fixed else 2 if a in (len(fields), "0") else a
              for a in args]
    base_of = _pick(places)
    if base == "lui":       # lui d,i holds imm[31:12], a 20-bit field
        base_of = lambda pool: (pool[0], pool[2] & 0xFFFFF)
    ops = [*range(len(fields)), *[2] * (imm is not None)]
    high, low = _immediate(imm, ((7, 6), (2, 5))) if imm else (None, None)
    return (s1, t1, s2, t2, high, low, reg(fixed[0]) if fixed else None,
            _pick(ops), base, base_of)


@cache
def _subsets(bits: int) -> tuple[int, ...]:
    """Every value whose set bits are among `bits`."""
    subsets = [0]
    for b in range(bits.bit_length()):
        if bits >> b & 1:
            subsets += [s | 1 << b for s in subsets]
    return tuple(subsets)


def _buckets(rows: tuple, key: int, plan) -> dict:
    """By xlen, then by an encoding's bits under `key`: the rows to try,
    as (mask, match, plan or reserved subcode), ending in one that
    matches anything, "undefined".  A row that leaves a key bit free is
    tried under both of its values."""
    table: dict = {32: {}, 64: {}}
    for x, mask, match, name, fields, imm, tail in rows:
        entry = (mask, match, (name, *plan(fields, imm, tail)) if tail
                 else name)
        for k in _subsets(key & ~mask):
            for xlen in (32, 64) if x is None else (x,):
                table[xlen].setdefault(match & key | k, []).append(entry)
    last = (0, 0, "undefined")
    keys = [k | q for q in {row[2] & 3 for row in rows}
            for k in _subsets(key & ~3)]
    return {xlen: {**dict.fromkeys(keys, (last,)),
                   **{k: (*tried, last) for k, tried in buckets.items()}}
            for xlen, buckets in table.items()}


# By xlen, then by an encoding's funct3 and opcode, or its bits 15..12 and
# quadrant.
_C32 = _buckets(_WIDE, 0x707F, _plan32)
_C16 = _buckets(_COMPRESSED, 0xF003, _plan16)


def _invalid(address: int, word: int,
             subcode: str = "undefined") -> NoReturn:
    """Raise the decoder's error for the encoding `word` at `address`."""
    raise InvalidEncoding(address, word, subcode)


def _decode32(word: int, address: int, xlen: int) -> DecodedInstruction:
    """The 32-bit instruction `word`: its own base form."""
    for care, match, row in _C32[xlen][word & 0x707F]:
        if word & care == match:
            break
    if type(row) is str:
        _invalid(address, word, row)
    name, s1, t1, s2, t2, s3, t3, imm, ops_of = row
    if imm:
        a, b, c, d = imm
        imm = (a[word >> 25] + b[word >> 20 & 31] + c[word >> 12 & 255]
               + d[word >> 7 & 31])
    operands = ops_of((t1[word >> s1 & 31], t2[word >> s2 & 31],
                       t3[word >> s3 & 31], imm))
    reads, writes, cf, mem, imm, aliases = _effects(name, operands, address,
                                                    xlen)
    return _new(DecodedInstruction, (address, 4, word, name, operands, reads,
                                     writes, cf, mem, imm, aliases,
                                     _new(Alias, (name, operands))))


def _decode16(hw: int, address: int, xlen: int) -> DecodedInstruction:
    """The compressed instruction `hw`, with the effects of its 32-bit
    expansion, which also goes first in its aliases."""
    for care, match, row in _C16[xlen][hw & 0xF003]:
        if hw & care == match:
            break
    if type(row) is str:
        _invalid(address, hw, row)
    name, s1, t1, s2, t2, high, low, fixed, ops_of, base, base_of = row
    pool = (t1[hw >> s1 & 31], t2[hw >> s2 & 31],
            high[hw >> 7 & 63] + low[hw >> 2 & 31] if high else 0, fixed)
    operands = ops_of(pool)
    base_ops = base_of(pool)
    reads, writes, cf, mem, imm, pseudo = _effects(base, base_ops, address,
                                                   xlen)
    if high is None:
        imm = None      # no immediate operand: c.nop, c.jr, c.mv, ...
    if name == "c.mv":
        # mv spells c.mv; its expansion `add rd, zero, rs` has no pseudo
        pseudo = (_new(Alias, ("mv", operands)),)
    base = _new(Alias, (base, base_ops))
    return _new(DecodedInstruction, (address, 2, hw, name, operands, reads,
                                     writes, cf, mem, imm, (base, *pseudo),
                                     base))


def decode_one(data: bytes, address: int = 0, xlen: int = 32) -> DecodedInstruction:
    """Decode the instruction at the start of `data`.

    Raises Truncated when fewer bytes are available than the encoding
    needs, InvalidEncoding for unsupported patterns.
    """
    if xlen not in (32, 64):
        raise ValueError(f"xlen must be 32 or 64, got {xlen}")
    if len(data) < 2:
        raise Truncated(address, 2, len(data))
    hw = data[0] | (data[1] << 8)
    if hw & 0b11 != 0b11:
        return _decode16(hw, address, xlen)
    if hw & 0b11111 == 0b11111:
        # 48-bit and longer encodings are out of scope
        raise InvalidEncoding(address, hw)
    if len(data) < 4:
        raise Truncated(address, 4, len(data))
    return _decode32(hw | (data[2] << 16) | (data[3] << 24), address, xlen)
