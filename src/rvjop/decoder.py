"""RV32/RV64 IMAC instruction decoder.

Decodes one instruction at a time from raw bytes (little-endian), covering
the I base, M, A, and C extensions.  Float and vector opcodes are rejected
with a distinguishing subcode so scanners can tell "unsupported extension"
from "not an instruction".

Width discrimination follows the base encoding scheme: if the low two bits
of the first halfword are not 0b11 the instruction is compressed (2 bytes),
otherwise it is a 4-byte instruction.  Longer encodings (low five bits all
ones) are not supported.

Decoding has two parts.  `_decode` decides which instruction an
encoding of either width is: its name and operands and its base form
(`base`), the 32-bit instruction it stands for, which for a compressed
instruction is its expansion and for a 32-bit one is itself.  It reads
one table with a row per encoding, `_ROWS32` and `_ROWS16` in one
grammar: the row's bits with its fields marked, the register width it
exists at, its mnemonic and immediate layout.  The first row that matches
an encoding decodes it, and the reserved slots (float, vector, undefined)
are rows of their own.  `_plan` turns a row into what `_decode` reads of
it, the same way for both widths, once: the first time a decode tries
the row.  `_bucket` lists the rows to try for an encoding's opcode bits
the first time a decode reads those bits, so an import plans no row.
The rows are the one statement of each encoding: `rvjop.assembler`
encodes from them.
`_effects` says what a base instruction does:
registers read and written, control flow, memory access and immediate.
It is written once per base mnemonic, and a compressed instruction takes
all of it from its expansion.  `base` is the one expansion every consumer
reads (interpreter, dataflow, classification), so no other module knows
how a C form expands.  Pseudo spellings (nop, li, mv, ret, jr, j) are
rows of one table, `PSEUDOS`, that both `DecodedInstruction.spelling`
and the assembler read; a decoded instruction stores none.  The jump
records state the shadow-stack rule, which jumps push (`pushes`) and
which pop (`is_return`, read from the ret row), for every other layer.
Immediates are kept sign-extended as plain Python ints, independent of
XLEN.

The operation table (`_OPS`) says what every ALU row computes, for both
the interpreter (`rvjop.sim`) and the dataflow walk (`rvjop.dataflow`).
It states the 18 register-register operations of RV32I/RV64I and M,
each a function of (XLEN, rs1, rs2) on unsigned XLEN-bit values, and
derives the other imm and reg rows of `_SHAPE` from them, the way the
ISA manual defines them: an immediate form is its register operation
with the immediate, masked to XLEN, as rs2, and an RV64 `.w` form runs
its base operation at XLEN 32 on the low 32 bits and sign-extends the
result.  A reader masks each result to XLEN.  `_upper_value` is the one
rule for what lui and auipc write.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from operator import itemgetter

from .errors import InvalidEncoding, Truncated
from .isa import REGISTERS, RA, A7, ZERO, Register, mask, reg, sext, to_signed

# --- control flow and access descriptors ------------------------------------
#
# Records are `collections.namedtuple` classes, subclassed only to add a
# property or method: `typing.NamedTuple` would compile a forward reference
# for every annotated field at import.  Each field's type is in the comment
# beside it.

class _Jump:
    """The shadow-stack rule, stated once for both jump records: a jump
    pushes its return address when it links ra (`pushes`), and pops and
    compares when it is the jalr that `PSEUDOS` spells ret (`is_return`,
    which no jal is).  Every other jump touches nothing.  The scanner,
    classification, chain validation and the interpreter read these two
    answers, so a change of rule is made here."""
    __slots__ = ()
    is_return = False
    pushes = property(lambda self: self.link is RA)


class DirectJump(_Jump, namedtuple("DirectJump", (
        "target",       # int
        "link",         # Register | None
        ), defaults=(None,))):
    __slots__ = ()


class IndirectJump(_Jump, namedtuple("IndirectJump", (
        "base",         # Register
        "offset",       # int
        "link",         # Register | None
        ), defaults=(None,))):
    __slots__ = ()

    @property
    def is_return(self) -> bool:
        # its jalr form (rd, rs1, imm) against the ret row's operands
        return (self.link or ZERO, self.base, self.offset) == _RETURN


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
        "base",         # Alias | None: the 32-bit form; decoding always
                        # sets it
        ), defaults=(None, None, None, None))):
    __slots__ = ()

    @property
    def is_terminator(self) -> bool:
        """Indirect jumps (Return-like included) end a gadget."""
        return isinstance(self.control_flow, IndirectJump)

    def matches_op(self, name: str) -> bool:
        """Pseudo-aware mnemonic test: `name` is the mnemonic, the base
        form's or the pseudo spelling's."""
        if name not in _PSEUDO_NAMES:
            return name == self.mnemonic or name == self.base.name
        spelled = self.spelling if self.mnemonic in _SPELLED else None
        return spelled is not None and spelled.name == name

    @property
    def spelling(self) -> Alias | None:
        """The pseudo spelling: by the first row of `PSEUDOS` that its
        base form matches, or for c.mv its own form."""
        own, rows = _SPELLED.get(self.mnemonic, _UNSPELLED)
        ops = self.operands if own else self.base.operands
        for pseudo, fixed, want, pick in rows:
            if fixed(ops) == want:
                return _new(Alias, (pseudo, pick(ops)))
        return None

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

_ECALL = Trap("ecall")
_EBREAK = Trap("ebreak")


def _effects(name: str, ops: tuple, address: int, xlen: int) -> tuple:
    """What the base instruction `name ops` at `address` does: (regs read,
    regs written, control flow, memory access, imm).

    Written once per base mnemonic; a compressed instruction gets its
    effects from its expansion."""
    kind, size = _SHAPE[name]
    if kind == "imm":                           # rd, rs1, imm
        rd, rs1, imm = ops
        return _ONE[rs1.index], _ONE[rd.index], None, None, imm
    if kind == "reg":                           # rd, rs1, rs2
        rd, rs1, rs2 = ops
        return _two(rs1, rs2), _ONE[rd.index], None, None, None
    if kind == "load":                          # rd, rs1, imm
        rd, rs1, imm = ops
        return (_ONE[rs1.index], _ONE[rd.index], None,
                MemAccess("load", rs1, imm, size), imm)
    if kind == "store":                         # rs2, rs1, imm
        rs2, rs1, imm = ops
        return (_two(rs1, rs2), _EMPTY, None,
                MemAccess("store", rs1, imm, size), imm)
    if kind == "branch":                        # rs1, rs2, imm
        rs1, rs2, imm = ops
        cf = CondBranch((address + imm) & mask(xlen), (rs1, rs2), name[1:])
        return _two(rs1, rs2), _EMPTY, cf, None, imm
    if kind == "jal":                           # rd, imm
        rd, imm = ops
        cf = DirectJump((address + imm) & mask(xlen), rd if rd.index else None)
        return _EMPTY, _ONE[rd.index], cf, None, imm
    if kind == "jalr":                          # rd, rs1, imm
        rd, rs1, imm = ops
        cf = IndirectJump(rs1, imm, rd if rd.index else None)
        return _ONE[rs1.index], _ONE[rd.index], cf, None, imm
    if kind == "upper":                         # rd, imm[31:12]
        rd, f = ops
        return _EMPTY, _ONE[rd.index], None, None, sext(f << 12, 32)
    if kind == "lr":                            # rd, rs1
        rd, rs1 = ops
        return (_ONE[rs1.index], _ONE[rd.index], None,
                MemAccess("load", rs1, 0, size), None)
    if kind == "sc" or kind == "amo":           # rd, rs2, rs1
        rd, rs2, rs1 = ops
        return (_two(rs1, rs2), _ONE[rd.index], None,
                MemAccess("store" if kind == "sc" else kind, rs1, 0, size),
                None)
    if kind == "csr":                           # rd, csr, rs1 or zimm
        rd, _, src = ops
        if name[-1] == "i":
            return _EMPTY, _ONE[rd.index], None, None, src
        return _ONE[src.index], _ONE[rd.index], None, None, None
    if name == "ecall":
        # By convention the syscall id travels in a7; record the read so a
        # bare ecall shows a7 as an external dependency.
        return _ONE[A7.index], _EMPTY, _ECALL, None, None
    if name == "ebreak":
        return _EMPTY, _EMPTY, _EBREAK, None, None
    return _EMPTY, _EMPTY, None, None, None     # fence, fence.i


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


# --- the operation table ----------------------------------------------------

def _signed(fn):
    """`fn` on the operands read as signed `xlen`-bit values."""
    def wrap(xlen: int, a: int, b: int) -> int:
        return fn(to_signed(a, xlen), to_signed(b, xlen))
    return wrap


def _div(a: int, b: int) -> int:
    if b == 0:
        return -1
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _rem(a: int, b: int) -> int:
    if b == 0:
        return a
    return a - _div(a, b) * b


def _word(op):
    """An RV64 .w form: `op` at XLEN 32 on the low 32 bits of each
    operand, its 32-bit result sign-extended."""
    def wrap(xlen: int, a: int, b: int) -> int:
        return sext(op(32, a & 0xFFFFFFFF, b & 0xFFFFFFFF) & 0xFFFFFFFF, 32)
    return wrap


# The register-register operations of RV32I/RV64I and M, as functions of
# (XLEN, rs1, rs2) on unsigned XLEN-bit values; a reader masks the result
# to XLEN.
_OPS = {
    "add": lambda x, a, b: a + b,
    "sub": lambda x, a, b: a - b,
    "and": lambda x, a, b: a & b,
    "or": lambda x, a, b: a | b,
    "xor": lambda x, a, b: a ^ b,
    "slt": _signed(lambda a, b: int(a < b)),
    "sltu": lambda x, a, b: int(a < b),
    "sll": lambda x, a, b: a << (b & (x - 1)),
    "srl": lambda x, a, b: a >> (b & (x - 1)),
    "sra": lambda x, a, b: to_signed(a, x) >> (b & (x - 1)),
    "mul": lambda x, a, b: a * b,
    "mulh": lambda x, a, b: to_signed(a, x) * to_signed(b, x) >> x,
    "mulhsu": lambda x, a, b: to_signed(a, x) * b >> x,
    "mulhu": lambda x, a, b: a * b >> x,
    "div": _signed(_div),
    "divu": lambda x, a, b: a // b if b else -1,
    "rem": _signed(_rem),
    "remu": lambda x, a, b: a % b if b else a,
}


def _operation(name: str, kind: str):
    """The operation of an ALU mnemonic of `_SHAPE` kind `kind`.  An
    immediate form is its register operation, whose name is its own
    without the i (addi: add, sltiu: sltu, slliw: sllw), with the
    immediate as rs2; a .w form runs its base operation on the low words
    (`_word`)."""
    if kind == "imm":
        name = name.replace("i", "", 1)
    return _OPS.get(name) or _word(_OPS[name[:-1]])


_OPS.update({name: _operation(name, kind)
             for name, (kind, _) in _SHAPE.items() if kind in ("imm", "reg")})


def _upper_value(insn: DecodedInstruction, xlen: int) -> int:
    """What lui or auipc writes: its immediate, plus its pc for auipc, as
    an XLEN-bit value."""
    pc = insn.address if insn.base.name == "auipc" else 0
    return (insn.imm + pc) & mask(xlen)


# --- decode -----------------------------------------------------------------
#
# A row decodes by a plan built the first time a decode tries the row:
# its fields read five bits wide through a table of their operands, and
# its immediate as the sum of one table lookup per group of instruction
# bits, a signed immediate's top bit weighing negatively, so there is no
# sign step and no helper call per field.  Both widths read the same
# groups, and a group that holds none of a row's immediate bits looks up
# zeros.  This is the hot path of every decode.

# The three-bit register fields name x8..x15; read five bits wide, they
# repeat.
_PRIMED = REGISTERS[8:16] * 4

# The groups (lowest bit, width) of instruction bits an immediate is read
# by: 31..25, 24..20, 19..12, 11..7 and 6..2.
_GROUPS = ((25, 7), (20, 5), (12, 8), (7, 5), (2, 5))


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
def _immediate(imm) -> tuple[tuple[int, ...], ...]:
    """An immediate's value by each of `_GROUPS`: it is the sum of the
    groups'."""
    pairs, signed = imm
    weights = [0] * 32
    for at, b in pairs:
        weights[at] = 1 << b
    if signed:
        at, b = max(pairs, key=itemgetter(1))
        weights[at] = -(1 << b)
    return tuple(_sums(tuple(weights[lo:lo + n])) for lo, n in _GROUPS)


def _pick(places: list[int]):
    """The function giving a pool's items at `places`, as a tuple."""
    if len(places) > 1:
        return itemgetter(*places)
    return itemgetter(slice(places[0], places[0] + 1) if places else slice(0))


@cache
def _plan(name: str, fields, imm, tail, width: int) -> tuple:
    """What `_decode` needs of an instruction row: its name, then how it
    decodes the row into the pool (field 1, field 2, field 3, immediate,
    fixed register) and picks the operands and its base form's out of it.

    A 32-bit row is its own base form.  A compressed row's is its
    expansion, and its operands are its fields, then its immediate.  An
    expansion names at most one fixed register, and its "0" is the
    immediate of a row without one, which is 0."""
    (s1, t1), (s2, t2), (s3, t3) = \
        [(at, _field(n, c)) for at, n, c in fields] + \
        [(0, REGISTERS)] * (3 - len(fields))
    base, args = tail
    fixed = [a for a in args if a in ("zero", "ra", "sp")]
    slot = {**dict.fromkeys(fixed, 4), len(fields): 3, "0": 3}
    base_of = _pick([slot.get(a, a) for a in args])
    ops_of = _pick([slot.get(a, a)
                    for a in range(len(fields) + (imm is not None))])
    if width == 4:          # its own base form, in its operands' order
        base, ops_of = name, base_of
    if name == "c.lui":     # lui d,i holds imm[31:12], a 20-bit field
        base_of = lambda pool: (pool[0], pool[3] & 0xFFFFF)
    return (name, s1, t1, s2, t2, s3, t3, imm and _immediate(imm),
            reg(fixed[0]) if fixed else None, ops_of, base, base_of)


# By xlen, then by an encoding's funct3 and opcode, or its bits 15..12 and
# quadrant: the rows to try, listed by `_bucket` the first time a decode
# reads the key.
_C32: dict = {32: {}, 64: {}}
_C16: dict = {32: {}, 64: {}}


def _bucket(buckets: dict, rows: tuple, key: int, raw: int, width: int,
            xlen: int) -> tuple:
    """The rows of `rows` to try at `xlen` on an encoding whose bits under
    `key` are those of `raw`, in row order, as (mask, match, plan or
    reserved subcode), ending in one that matches anything, "undefined";
    stored in `buckets[xlen]` under those bits."""
    bits = raw & key
    tried = buckets[xlen][bits] = (*[
        (mask, match, _plan(name, fields, imm, tail, width) if tail else name)
        for x, mask, match, name, fields, imm, tail in rows
        if x in (None, xlen) and not (bits ^ match) & mask & key],
        (0, 0, "undefined"))
    return tried


def _decode(raw: int, width: int, tried: tuple, address: int,
            xlen: int) -> DecodedInstruction:
    """The `width`-byte instruction `raw`, by the first row of `tried`
    that matches it, with the effects of its base form."""
    for care, match, row in tried:
        if raw & care == match:
            break
    if type(row) is str:
        raise InvalidEncoding(address, raw, row)
    name, s1, t1, s2, t2, s3, t3, imm, fixed, ops_of, base, base_of = row
    value = 0
    if imm:
        a, b, c, d, e = imm
        value = (a[raw >> 25] + b[raw >> 20 & 31] + c[raw >> 12 & 255]
                 + d[raw >> 7 & 31] + e[raw >> 2 & 31])
    pool = (t1[raw >> s1 & 31], t2[raw >> s2 & 31], t3[raw >> s3 & 31],
            value, fixed)
    operands = ops_of(pool)
    base_ops = operands if base_of is ops_of else base_of(pool)
    reads, writes, cf, mem, value = _effects(base, base_ops, address, xlen)
    if imm is None:
        value = None        # no immediate operand: c.nop, c.jr, add, ...
    return _new(DecodedInstruction, (address, width, raw, name, operands,
                                     reads, writes, cf, mem, value,
                                     _new(Alias, (base, base_ops))))


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
        return _decode(hw, 2, _C16[xlen].get(hw & 0xF003)
                       or _bucket(_C16, _COMPRESSED, 0xF003, hw, 2, xlen),
                       address, xlen)
    if hw & 0b11111 == 0b11111:
        # 48-bit and longer encodings are out of scope
        raise InvalidEncoding(address, hw)
    if len(data) < 4:
        raise Truncated(address, 4, len(data))
    word = hw | (data[2] << 16) | (data[3] << 24)
    return _decode(word, 4, _C32[xlen].get(word & 0x707F)
                   or _bucket(_C32, _WIDE, 0x707F, word, 4, xlen),
                   address, xlen)


# --- pseudo spellings -------------------------------------------------------
#
# One row per pseudo spelling, in the order they are recognized: the
# pseudo, the mnemonic it spells and that mnemonic's operands, in which a
# register or an int is a fixed operand and None an operand of the pseudo,
# in order.  An instruction is spelled by the first row that it matches
# (`DecodedInstruction.spelling`): a compressed one by its base form, but
# c.mv by its own, as its expansion `add rd, zero, rs` has no pseudo.
# `rvjop.assembler` encodes each pseudo by its first row.
PSEUDOS = (
    ("nop", "addi", (ZERO, ZERO, 0)),
    ("li", "addi", (None, ZERO, None)),
    ("mv", "addi", (None, None, 0)),
    ("ret", "jalr", (ZERO, RA, 0)),
    ("jr", "jalr", (ZERO, None, 0)),
    ("j", "jal", (ZERO, None)),
    ("mv", "c.mv", (None, None)),
)

_PSEUDO_NAMES = frozenset(pseudo for pseudo, _, _ in PSEUDOS)

# The operands of the jalr spelled ret: the jump that pops a shadow stack.
_RETURN = next(ops for pseudo, _, ops in PSEUDOS if pseudo == "ret")


def _spelled() -> dict:
    """By decoded mnemonic: whether its rows read its own form or its base
    form, and the rows, each as the pseudo, the function giving a form's
    fixed operands, their values, and the function giving the pseudo's
    operands.  A compressed mnemonic without rows of its own takes its
    expansion's."""
    spelled: dict = {}
    for pseudo, name, fill in PSEUDOS:
        fixed = _pick([i for i, f in enumerate(fill) if f is not None])
        spelled.setdefault(name, (True, []))[1].append((
            pseudo, fixed, fixed(fill),
            _pick([i for i, f in enumerate(fill) if f is None])))
    for _, _, _, name, _, _, tail in _COMPRESSED:
        if tail and tail[0] in spelled:
            spelled.setdefault(name, (False, spelled[tail[0]][1]))
    return spelled


_SPELLED = _spelled()
_UNSPELLED = (True, ())
