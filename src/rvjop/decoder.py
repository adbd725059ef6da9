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
base).  `_decode32` reads maps of funct fields to mnemonics, and
`_decode16` a table with one row per compressed encoding (`_ROWS`).  These
maps and rows are the one statement of each encoding: `rvjop.assembler`
encodes from them.  `_effects` says what a base instruction does:
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


def _ins(address, word, mnemonic, operands, xlen):
    """The 32-bit instruction `mnemonic operands`: its own base form."""
    reads, writes, cf, mem, imm, aliases = _effects(
        mnemonic, operands, address, xlen)
    return _new(DecodedInstruction, (address, 4, word, mnemonic, operands,
                                     reads, writes, cf, mem, imm, aliases,
                                     _new(Alias, (mnemonic, operands))))


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


# --- 32-bit decode ----------------------------------------------------------
#
# These maps from funct fields to mnemonics are the one statement of each
# encoding: `rvjop.assembler` encodes from them too.

_BRANCHES = {0b000: "beq", 0b001: "bne", 0b100: "blt",
             0b101: "bge", 0b110: "bltu", 0b111: "bgeu"}

_LOADS = {0b000: "lb", 0b001: "lh", 0b010: "lw", 0b100: "lbu", 0b101: "lhu"}
_LOADS_RV64 = {**_LOADS, 0b110: "lwu", 0b011: "ld"}

_STORES = {0b000: "sb", 0b001: "sh", 0b010: "sw"}
_STORES_RV64 = {**_STORES, 0b011: "sd"}

_OP_IMM = {0b000: "addi", 0b010: "slti", 0b011: "sltiu",
           0b100: "xori", 0b110: "ori", 0b111: "andi"}

_OP = {(0b000, 0): "add", (0b000, 0b0100000): "sub",
       (0b001, 0): "sll", (0b010, 0): "slt", (0b011, 0): "sltu",
       (0b100, 0): "xor", (0b101, 0): "srl", (0b101, 0b0100000): "sra",
       (0b110, 0): "or", (0b111, 0): "and",
       **{(funct3, 0b0000001): name for funct3, name in enumerate(
           ("mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu"))}}

_OP32 = {(0b000, 0): "addw", (0b000, 0b0100000): "subw",
         (0b001, 0): "sllw", (0b101, 0): "srlw", (0b101, 0b0100000): "sraw",
         (0b000, 1): "mulw", (0b100, 1): "divw", (0b101, 1): "divuw",
         (0b110, 1): "remw", (0b111, 1): "remuw"}

_OP_IMM32 = {0b000: "addiw"}

# By (funct3, funct7); on RV64 funct7 is the six bits above shamt, shifted
# left one.
_SHIFTS = {(0b001, 0): "slli", (0b101, 0): "srli", (0b101, 0b0100000): "srai"}
_SHIFT32 = {key: name + "w" for key, name in _SHIFTS.items()}

_AMO = {0b00010: "lr", 0b00011: "sc", 0b00001: "amoswap", 0b00000: "amoadd",
        0b00100: "amoxor", 0b01100: "amoand", 0b01000: "amoor",
        0b10000: "amomin", 0b10100: "amomax", 0b11000: "amominu",
        0b11100: "amomaxu"}

_AMO_WIDTHS = {0b010: ".w"}
_AMO_WIDTHS_RV64 = {**_AMO_WIDTHS, 0b011: ".d"}

_ORDERS = ("", ".rl", ".aq", ".aqrl")   # by (aq << 1) | rl

_CSR = {0b001: "csrrw", 0b010: "csrrs", 0b011: "csrrc",
        0b101: "csrrwi", 0b110: "csrrsi", 0b111: "csrrci"}

_FP_OPCODES = frozenset([0x07, 0x27, 0x43, 0x47, 0x4B, 0x4F, 0x53])

_WIDTH = {"b": 1, "h": 2, "w": 4, "d": 8}   # by the letter after l/s

# Each base mnemonic's rule in `_effects` and, for a memory access, its
# size in bytes.
_SHAPE = {
    "lui": ("upper", None), "auipc": ("upper", None),
    "jal": ("jal", None), "jalr": ("jalr", None),
    **{n: ("branch", None) for n in _BRANCHES.values()},
    **{n: ("load", _WIDTH[n[1]]) for n in _LOADS_RV64.values()},
    **{n: ("store", _WIDTH[n[1]]) for n in _STORES_RV64.values()},
    **{n: ("imm", None) for n in (*_OP_IMM.values(), *_OP_IMM32.values(),
                                  *_SHIFTS.values(), *_SHIFT32.values())},
    **{n: ("reg", None) for n in (*_OP.values(), *_OP32.values())},
    **{f"{n}{width}{order}": (n if n in ("lr", "sc") else "amo",
                              _WIDTH[width[1]])
       for width in _AMO_WIDTHS_RV64.values() for order in _ORDERS
       for n in _AMO.values()},
    **{n: ("csr", None) for n in _CSR.values()},
    **{n: ("system", None) for n in ("fence", "fence.i", "ecall", "ebreak")},
}


# Immediates and fields come out of the encoding by inline shifts and
# masks, and sign-extend as `(v ^ sign) - sign`: this is the hot path of
# every decode, so it calls no helper per field.

def _imm_i(w: int) -> int:
    # imm[11:0] = inst[31:20]
    return ((w >> 20) ^ 0x800) - 0x800


def _imm_s(w: int) -> int:
    # imm[11:5] = inst[31:25], imm[4:0] = inst[11:7]
    return (((w >> 20) & 0xFE0 | (w >> 7) & 0x1F) ^ 0x800) - 0x800


def _imm_b(w: int) -> int:
    # imm[12|10:5] = inst[31:25], imm[4:1|11] = inst[11:7]
    v = ((w >> 19) & 0x1000 | (w << 4) & 0x800 | (w >> 20) & 0x7E0
         | (w >> 7) & 0x1E)
    return (v ^ 0x1000) - 0x1000


def _imm_j(w: int) -> int:
    # imm[20|10:1|11|19:12] = inst[31:12]
    v = ((w >> 11) & 0x100000 | w & 0xFF000 | (w >> 9) & 0x800
         | (w >> 20) & 0x7FE)
    return (v ^ 0x100000) - 0x100000


def _invalid(address: int, word: int,
             subcode: str = "undefined") -> NoReturn:
    """Raise the decoder's error for the encoding `word` at `address`."""
    raise InvalidEncoding(address, word, subcode)


def _decode32(word: int, address: int, xlen: int) -> tuple[str, tuple]:
    """(mnemonic, operands) of a 32-bit instruction."""
    opcode = word & 0x7F
    rd = REGISTERS[(word >> 7) & 31]
    rs1 = REGISTERS[(word >> 15) & 31]
    rs2 = REGISTERS[(word >> 20) & 31]
    funct3 = (word >> 12) & 7
    funct7 = word >> 25

    if opcode in _FP_OPCODES:
        _invalid(address, word, "fp")
    if opcode == 0x57:
        _invalid(address, word, "vector")

    if opcode == 0b0110111:
        return "lui", (rd, word >> 12)
    if opcode == 0b0010111:
        return "auipc", (rd, word >> 12)
    if opcode == 0b1101111:
        return "jal", (rd, _imm_j(word))
    if opcode == 0b1100111:
        if funct3 != 0:
            _invalid(address, word)
        return "jalr", (rd, rs1, _imm_i(word))

    if opcode == 0b1100011:  # branches
        if funct3 not in _BRANCHES:
            _invalid(address, word)
        return _BRANCHES[funct3], (rs1, rs2, _imm_b(word))

    if opcode == 0b0000011:  # loads
        table = _LOADS_RV64 if xlen == 64 else _LOADS
        if funct3 not in table:
            _invalid(address, word)
        return table[funct3], (rd, rs1, _imm_i(word))

    if opcode == 0b0100011:  # stores
        table = _STORES_RV64 if xlen == 64 else _STORES
        if funct3 not in table:
            _invalid(address, word)
        return table[funct3], (rs2, rs1, _imm_s(word))

    if opcode == 0b0010011:  # op-imm
        name = _OP_IMM.get(funct3)
        if name is not None:
            return name, (rd, rs1, _imm_i(word))
        shbits = 6 if xlen == 64 else 5
        name = _SHIFTS.get((funct3, word >> (20 + shbits) << (shbits - 5)))
        if name is None:
            _invalid(address, word)
        return name, (rd, rs1, (word >> 20) & ((1 << shbits) - 1))

    # op, and op-32 on RV64
    if opcode == 0b0110011 or (opcode == 0b0111011 and xlen == 64):
        name = (_OP if opcode == 0b0110011 else _OP32).get((funct3, funct7))
        if name is None:
            _invalid(address, word)
        return name, (rd, rs1, rs2)

    if opcode == 0b0011011 and xlen == 64:  # op-imm-32
        name = _OP_IMM32.get(funct3)
        if name is not None:
            return name, (rd, rs1, _imm_i(word))
        name = _SHIFT32.get((funct3, funct7))
        if name is None:
            _invalid(address, word)
        return name, (rd, rs1, (word >> 20) & 31)

    if opcode == 0b0101111:  # amo
        width = (_AMO_WIDTHS_RV64 if xlen == 64 else _AMO_WIDTHS).get(funct3)
        name = _AMO.get(word >> 27)
        if width is None or name is None:
            _invalid(address, word)
        name += width + _ORDERS[(word >> 25) & 3]
        if name[:2] == "lr":
            if rs2.index != 0:
                _invalid(address, word)
            return name, (rd, rs1)
        return name, (rd, rs2, rs1)

    if opcode == 0b0001111:  # fence / fence.i
        if funct3 == 0b000:
            return "fence", ((word >> 24) & 15, (word >> 20) & 15)
        if funct3 == 0b001:
            return "fence.i", ()
        _invalid(address, word)

    if opcode == 0b1110011:  # system
        if funct3 == 0b000:
            if word == 0x00000073:
                return "ecall", ()
            if word == 0x00100073:
                return "ebreak", ()
            _invalid(address, word)
        if funct3 in _CSR:
            src = (word >> 15) & 31     # zimm in the immediate forms
            return _CSR[funct3], (rd, word >> 20,
                                  src if funct3 & 0b100 else REGISTERS[src])
        _invalid(address, word)

    _invalid(address, word)


# --- 16-bit decode ----------------------------------------------------------
#
# One row per compressed encoding, in the ISA manual's terms:
#
# - bits 15..0, in the first 23 columns.  "0" and "1" must match and "-"
#   may be anything.  A letter marks a field: d is rd, t rs2 and s rs1,
#   each naming x8..x15 when three bits wide (rd', rs2', rs1'), and i
#   (signed) or u (unsigned) holds the immediate;
# - the register width the row exists at, "-" for both;
# - the mnemonic.  Its operands are its register fields in the order d, t,
#   s, then the immediate;
# - which immediate bits the i or u letters hold, left to right, in the
#   manual's notation: "5:3|2|6" is uimm[5:3|2|6].  c.lui's operand is
#   its nzimm[17:12], written as bits 5:0;
# - the 32-bit expansion, in which d, t, s and i stand for the operands.
#
# The first row that matches an encoding decodes it.  A row named "fp" (a
# float load or store) or "undefined" is reserved: decoding it raises
# InvalidEncoding with that subcode, as does an encoding no row matches.
# `rvjop.assembler` encodes from these rows.
_ROWS = """
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

_MASK = str.maketrans("01-dtsiu", "11000000")
_MATCH = str.maketrans("-dtsiu", "000000")


def _row(line: str) -> tuple:
    """A row of `_ROWS` as (xlen or None, mask, match, mnemonic, register
    fields, immediate, expansion).

    A register field is (shift, width).  The immediate is None or
    ((instruction bit, immediate bit) pairs, whether it is signed).  The
    expansion is () for a reserved row, else (mnemonic, operands), each of
    its operands the index of one of the row's, a fixed register's name or
    "0"."""
    bits = line[:23].replace(" ", "")
    xlen, name, *rest = line[23:].split()
    xlen = None if xlen == "-" else int(xlen)
    mask = int(bits.translate(_MASK), 2)
    match = int(bits.translate(_MATCH), 2)
    if not rest:
        return xlen, mask, match, name, (), None, ()
    letters = [c for c in "dts" if c in bits]
    regs = tuple((15 - bits.rindex(c), bits.count(c)) for c in letters)
    imm = None
    if "i" in bits or "u" in bits:
        order = []
        for part in rest.pop(0).split("|"):
            hi, _, lo = part.partition(":")
            order += range(int(hi), int(lo or hi) - 1, -1)
        imm = (tuple(zip((15 - k for k, c in enumerate(bits) if c in "iu"),
                         order)), "i" in bits)
        letters.append("i")
    args = rest[1].split(",") if len(rest) > 1 else ()
    return xlen, mask, match, name, regs, imm, (rest[0], tuple(
        letters.index(a) if a in letters else a for a in args))


_COMPRESSED = tuple(_row(line) for line in _ROWS.strip().splitlines())

# The three-bit register fields name x8..x15; read five bits wide, as
# `_decode16` reads every field, they repeat.
_PRIMED = REGISTERS[8:16] * 4


def _sums(weights: list[int]) -> tuple[int, ...]:
    """The sum of `weights[k]` over the set bits k of each index."""
    table = (0,)
    for w in weights:
        table += tuple(map(w.__add__, table))
    return table


def _halves(imm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """An immediate's value by instruction bits 12..7 and by bits 6..2: it
    is the sum of the two.  A signed immediate's top bit weighs
    negatively."""
    pairs, signed = imm
    weights = [0] * 13
    for at, b in pairs:
        weights[at] = 1 << b
    if signed:
        at, b = max(pairs, key=itemgetter(1))
        weights[at] = -(1 << b)
    return _sums(weights[7:]), _sums(weights[2:7])


def _pick(places: list[int]):
    """The function giving a pool's items at `places`, as a tuple."""
    if len(places) > 1:
        return itemgetter(*places)
    return itemgetter(slice(places[0], places[0] + 1) if places else slice(0))


_HALVES: dict = {}      # `_halves` by layout, for `_plan`


def _plan(name, regs, imm, expansion) -> tuple:
    """What `_decode16` needs of an instruction row.  It decodes the row
    into the pool (first register, second register, immediate, fixed
    register) and picks the operands and the expansion's out of it: the
    immediate is 0 in a row without one, and no expansion names more than
    one fixed register."""
    fields = [(shift, REGISTERS if width == 5 else _PRIMED)
              for shift, width in regs]
    (s1, t1), (s2, t2) = fields + [(0, REGISTERS)] * (2 - len(fields))
    base, args = expansion
    fixed = [a for a in args if a in ("zero", "ra", "sp")]
    places = [3 if a in fixed else 2 if a in (len(regs), "0") else a
              for a in args]
    base_of = _pick(places)
    if base == "lui":       # lui d,i holds imm[31:12], a 20-bit field
        base_of = lambda pool: (pool[0], pool[2] & 0xFFFFF)
    ops = [*range(len(regs)), *[2] * (imm is not None)]
    if imm not in _HALVES:
        _HALVES[imm] = _halves(imm) if imm else (None, None)
    return (name, s1, t1, s2, t2, *_HALVES[imm],
            reg(fixed[0]) if fixed else None, _pick(ops), base, base_of)


# By xlen, then by an encoding's bits 15..12 and quadrant (`hw & 0xF003`):
# the rows to try, as (mask, match, plan or reserved subcode).  A row that
# leaves bit 12 free is tried under both of its values.
_C16 = {xlen: {top << 12 | q: [] for top in range(16) for q in range(3)}
        for xlen in (32, 64)}
for _x, _mask, _match, _name, *_rest in _COMPRESSED:
    _try = (_mask, _match, _plan(_name, *_rest) if _rest[2] else _name)
    for _key in {_match & 0xF003, _match & 0xF003 | 0x1000 & ~_mask}:
        for _xlen in (32, 64) if _x is None else (_x,):
            _C16[_xlen][_key].append(_try)
for _buckets in _C16.values():
    for _key, _rows in _buckets.items():
        _buckets[_key] = (*_rows, (0, 0, "undefined"))


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
    word = hw | (data[2] << 16) | (data[3] << 24)
    name, operands = _decode32(word, address, xlen)
    return _ins(address, word, name, operands, xlen)
