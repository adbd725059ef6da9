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
base).  `_effects` says what a base instruction does: registers read and
written, control flow, memory access, immediate and pseudo spellings (li,
mv, nop, ret, jr, j).  It is written once per base mnemonic, and a
compressed instruction takes all of it from its expansion.  `base` is the
one expansion every consumer reads (interpreter, dataflow, classification),
so no other module knows how a C form expands; it is also the first alias
of a compressed instruction.  Immediates are kept sign-extended as plain
Python ints, independent of XLEN.
"""

from __future__ import annotations

from typing import NamedTuple, NoReturn

from .errors import InvalidEncoding, Truncated
from .isa import REGISTERS, RA, SP, ZERO, A7, Register, sext, mask


# --- control flow and access descriptors ------------------------------------

class DirectJump(NamedTuple):
    target: int
    link: Register | None = None


class IndirectJump(NamedTuple):
    base: Register
    offset: int
    link: Register | None = None

    @property
    def is_return(self) -> bool:
        # Return-like is exactly the no-link jump through ra with offset 0
        # (jalr x0, 0(ra) and its compressed spelling).
        return self.link is None and self.base is RA and self.offset == 0


class CondBranch(NamedTuple):
    target: int
    regs: tuple[Register, Register]
    op: str  # "eq" | "ne" | "lt" | "ge" | "ltu" | "geu"


class Trap(NamedTuple):
    kind: str  # "ecall" | "ebreak"


ControlFlow = DirectJump | IndirectJump | CondBranch | Trap


class MemAccess(NamedTuple):
    kind: str  # "load" | "store" | "amo"
    base: Register
    offset: int
    size: int


class Alias(NamedTuple):
    name: str
    operands: tuple


class DecodedInstruction(NamedTuple):
    address: int
    width: int          # 2 or 4
    raw: int            # encoding word
    mnemonic: str
    operands: tuple
    regs_read: frozenset[Register]
    regs_written: frozenset[Register]
    control_flow: ControlFlow | None = None
    mem_access: MemAccess | None = None
    imm: int | None = None
    aliases: tuple[Alias, ...] = ()
    base: Alias | None = None    # 32-bit form; `_ins` always sets it

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


def jalr_target(base_value: int, imm: int, xlen: int = 32) -> int:
    """Indirect jump target: base plus sign-extended offset, bit 0 cleared."""
    return (base_value + sext(imm & 0xFFF, 12)) & mask(xlen) & ~1


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


# Builds a record from a tuple of its fields: a NamedTuple's own
# `__new__` takes them by keyword, one more call per record.
_new = tuple.__new__


def _ins(address, width, raw, mnemonic, operands, xlen, base=None):
    """The instruction `mnemonic operands`, with the effects of its base
    form.  `base` is a compressed form's 32-bit expansion; it also goes
    first in `aliases`.  A 32-bit form is its own base."""
    if base is None:
        base = _new(Alias, (mnemonic, operands))
        reads, writes, cf, mem, imm, aliases = _effects(
            mnemonic, operands, address, xlen)
    else:
        reads, writes, cf, mem, imm, pseudo = _effects(
            base.name, base.operands, address, xlen)
        if mnemonic == "c.mv":
            # mv spells c.mv; its expansion `add rd, zero, rs` has no pseudo
            pseudo = (Alias("mv", operands),)
        aliases = (base, *pseudo)
        if not operands or type(operands[-1]) is not int:
            imm = None    # no immediate operand: c.nop, c.jr, c.jalr
    return _new(DecodedInstruction, (address, width, raw, mnemonic, operands,
                                     reads, writes, cf, mem, imm, aliases,
                                     base))


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

_SHIFT32 = {(0b001, 0): "slliw", (0b101, 0): "srliw",
            (0b101, 0b0100000): "sraiw"}

_AMO = {0b00001: "amoswap", 0b00000: "amoadd", 0b00100: "amoxor",
        0b01100: "amoand", 0b01000: "amoor", 0b10000: "amomin",
        0b10100: "amomax", 0b11000: "amominu", 0b11100: "amomaxu"}

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
    **{n: ("imm", None) for n in (*_OP_IMM.values(), "slli", "srli", "srai",
                                  "addiw", *_SHIFT32.values())},
    **{n: ("reg", None) for n in (*_OP.values(), *_OP32.values())},
    **{f"{n}{suffix}{order}": (n if n in ("lr", "sc") else "amo", size)
       for suffix, size in ((".w", 4), (".d", 8)) for order in _ORDERS
       for n in ("lr", "sc", *_AMO.values())},
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
        if funct3 == 0b001 or funct3 == 0b101:
            shbits = 6 if xlen == 64 else 5
            shamt = (word >> 20) & ((1 << shbits) - 1)
            top = word >> (20 + shbits)
            if funct3 == 0b001:
                if top != 0:
                    _invalid(address, word)
                name = "slli"
            elif top == 0:
                name = "srli"
            elif top == (0b0100000 >> (shbits - 5)):
                name = "srai"
            else:
                _invalid(address, word)
            return name, (rd, rs1, shamt)
        return _OP_IMM[funct3], (rd, rs1, _imm_i(word))

    # op, and op-32 on RV64
    if opcode == 0b0110011 or (opcode == 0b0111011 and xlen == 64):
        name = (_OP if opcode == 0b0110011 else _OP32).get((funct3, funct7))
        if name is None:
            _invalid(address, word)
        return name, (rd, rs1, rs2)

    if opcode == 0b0011011 and xlen == 64:  # op-imm-32
        if funct3 == 0b000:
            return "addiw", (rd, rs1, _imm_i(word))
        name = _SHIFT32.get((funct3, funct7))
        if name is None:
            _invalid(address, word)
        return name, (rd, rs1, (word >> 20) & 31)

    if opcode == 0b0101111:  # amo
        if funct3 == 0b010:
            suffix = ".w"
        elif funct3 == 0b011 and xlen == 64:
            suffix = ".d"
        else:
            _invalid(address, word)
        funct5 = word >> 27
        suffix += _ORDERS[(word >> 25) & 3]
        if funct5 == 0b00010:  # lr
            if rs2.index != 0:
                _invalid(address, word)
            return "lr" + suffix, (rd, rs1)
        if funct5 == 0b00011:
            return "sc" + suffix, (rd, rs2, rs1)
        if funct5 in _AMO:
            return _AMO[funct5] + suffix, (rd, rs2, rs1)
        _invalid(address, word)

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

# The three-bit register fields of the compressed ISA name x8..x15.
_RVC_REGS = REGISTERS[8:16]


def _decode16(hw: int, address: int, xlen: int) -> tuple[str, tuple, Alias]:
    """(mnemonic, operands, 32-bit expansion) of a compressed instruction."""
    quadrant = hw & 0b11
    funct3 = hw >> 13

    if quadrant == 0b00:
        if hw == 0:
            _invalid(address, hw)  # defined illegal instruction
        if funct3 == 0b000:  # c.addi4spn: nzuimm[5:4|9:6|2|3] = inst[12:5]
            imm = ((hw >> 7) & 0x30 | (hw >> 1) & 0x3C0 | (hw >> 4) & 0x4
                   | (hw >> 2) & 0x8)
            if imm == 0:
                _invalid(address, hw)
            rd = _RVC_REGS[(hw >> 2) & 7]
            return "c.addi4spn", (rd, imm), Alias("addi", (rd, SP, imm))
        r, rs1 = _RVC_REGS[(hw >> 2) & 7], _RVC_REGS[(hw >> 7) & 7]
        if funct3 in (0b010, 0b110):  # c.lw / c.sw: uimm[5:3|2|6]
            imm = (hw >> 7) & 0x38 | (hw >> 4) & 0x4 | (hw << 1) & 0x40
            name = "lw" if funct3 == 0b010 else "sw"
            return "c." + name, (r, rs1, imm), Alias(name, (r, rs1, imm))
        if funct3 in (0b011, 0b111) and xlen == 64:  # c.ld / c.sd
            imm = (hw >> 7) & 0x38 | (hw << 1) & 0xC0   # uimm[5:3|7:6]
            name = "ld" if funct3 == 0b011 else "sd"
            return "c." + name, (r, rs1, imm), Alias(name, (r, rs1, imm))
        if funct3 == 0b100:
            _invalid(address, hw)
        _invalid(address, hw, "fp")  # c.flw / c.fsw (RV32), c.fld / c.fsd

    if quadrant == 0b01:
        rd = REGISTERS[(hw >> 7) & 31]
        # imm[5] = inst[12], imm[4:0] = inst[6:2]
        imm = (((hw >> 7) & 0x20 | (hw >> 2) & 0x1F) ^ 0x20) - 0x20
        if funct3 == 0b000:  # c.nop / c.addi
            if rd.index == 0:
                return "c.nop", (), Alias("addi", (ZERO, ZERO, 0))
            return "c.addi", (rd, imm), Alias("addi", (rd, rd, imm))
        if funct3 == 0b001:
            if xlen == 64:  # c.addiw
                if rd.index == 0:
                    _invalid(address, hw)
                return "c.addiw", (rd, imm), Alias("addiw", (rd, rd, imm))
            imm = _cj_imm(hw)  # c.jal (RV32 only)
            return "c.jal", (imm,), Alias("jal", (RA, imm))
        if funct3 == 0b010:  # c.li
            return "c.li", (rd, imm), Alias("addi", (rd, ZERO, imm))
        if funct3 == 0b011:
            if rd.index == 2:  # c.addi16sp: nzimm[9|4|6|8:7|5]
                imm = ((hw >> 3) & 0x200 | (hw >> 2) & 0x10 | (hw << 1) & 0x40
                       | (hw << 4) & 0x180 | (hw << 3) & 0x20)
                imm = (imm ^ 0x200) - 0x200
                if imm == 0:
                    _invalid(address, hw)
                return "c.addi16sp", (imm,), Alias("addi", (SP, SP, imm))
            if imm == 0:  # c.lui
                _invalid(address, hw)
            return "c.lui", (rd, imm), Alias("lui", (rd, imm & 0xFFFFF))
        if funct3 == 0b100:
            sub = (hw >> 10) & 3
            rd = _RVC_REGS[(hw >> 7) & 7]
            if sub in (0b00, 0b01):  # c.srli / c.srai: shamt[5|4:0]
                shamt = (hw >> 7) & 0x20 | (hw >> 2) & 0x1F
                if xlen == 32 and shamt >= 32:
                    _invalid(address, hw)
                name = "srli" if sub == 0 else "srai"
                return "c." + name, (rd, shamt), Alias(name, (rd, rd, shamt))
            if sub == 0b10:  # c.andi
                return "c.andi", (rd, imm), Alias("andi", (rd, rd, imm))
            # register-register group
            rs2 = _RVC_REGS[(hw >> 2) & 7]
            low = (hw >> 5) & 3
            if not hw & 0x1000:
                name = ("sub", "xor", "or", "and")[low]
            else:
                if xlen != 64 or low > 0b01:
                    _invalid(address, hw)
                name = ("subw", "addw")[low]
            return "c." + name, (rd, rs2), Alias(name, (rd, rd, rs2))
        if funct3 == 0b101:  # c.j
            imm = _cj_imm(hw)
            return "c.j", (imm,), Alias("jal", (ZERO, imm))
        # c.beqz / c.bnez: offset[8|4:3] = inst[12:10], [7:6|2:1|5] = inst[6:2]
        rs1 = _RVC_REGS[(hw >> 7) & 7]
        imm = ((hw >> 4) & 0x100 | (hw >> 7) & 0x18 | (hw << 1) & 0xC0
               | (hw >> 2) & 0x6 | (hw << 3) & 0x20)
        imm = (imm ^ 0x100) - 0x100
        name = "beq" if funct3 == 0b110 else "bne"
        return f"c.{name}z", (rs1, imm), Alias(name, (rs1, ZERO, imm))

    # quadrant 0b10
    rd = REGISTERS[(hw >> 7) & 31]     # rd or rs1
    rs2 = REGISTERS[(hw >> 2) & 31]
    if funct3 == 0b000:  # c.slli: shamt[5|4:0]
        shamt = (hw >> 7) & 0x20 | (hw >> 2) & 0x1F
        if xlen == 32 and shamt >= 32:
            _invalid(address, hw)
        return "c.slli", (rd, shamt), Alias("slli", (rd, rd, shamt))
    if funct3 == 0b010:  # c.lwsp: uimm[5] = inst[12], [4:2|7:6] = inst[6:2]
        if rd.index == 0:
            _invalid(address, hw)
        imm = (hw >> 7) & 0x20 | (hw >> 2) & 0x1C | (hw << 4) & 0xC0
        return "c.lwsp", (rd, imm), Alias("lw", (rd, SP, imm))
    if funct3 == 0b011 and xlen == 64:  # c.ldsp: uimm[5], [4:3|8:6]
        if rd.index == 0:
            _invalid(address, hw)
        imm = (hw >> 7) & 0x20 | (hw >> 2) & 0x18 | (hw << 4) & 0x1C0
        return "c.ldsp", (rd, imm), Alias("ld", (rd, SP, imm))
    if funct3 == 0b100:
        if not hw & 0x1000:
            if rs2.index == 0:  # c.jr
                if rd.index == 0:
                    _invalid(address, hw)
                return "c.jr", (rd,), Alias("jalr", (ZERO, rd, 0))
            if rd.index == 0:  # c.mv
                _invalid(address, hw)
            return "c.mv", (rd, rs2), Alias("add", (rd, ZERO, rs2))
        if rs2.index == 0:
            if rd.index == 0:  # c.ebreak
                return "c.ebreak", (), Alias("ebreak", ())
            return "c.jalr", (rd,), Alias("jalr", (RA, rd, 0))
        if rd.index == 0:  # c.add
            _invalid(address, hw)
        return "c.add", (rd, rs2), Alias("add", (rd, rd, rs2))
    if funct3 == 0b110:  # c.swsp: uimm[5:2|7:6] = inst[12:7]
        imm = (hw >> 7) & 0x3C | (hw >> 1) & 0xC0
        return "c.swsp", (rs2, imm), Alias("sw", (rs2, SP, imm))
    if funct3 == 0b111 and xlen == 64:  # c.sdsp: uimm[5:3|8:6] = inst[12:7]
        imm = (hw >> 7) & 0x38 | (hw >> 1) & 0x1C0
        return "c.sdsp", (rs2, imm), Alias("sd", (rs2, SP, imm))
    _invalid(address, hw, "fp")  # c.flwsp / c.fswsp (RV32), c.fldsp / c.fsdsp


def _cj_imm(hw: int) -> int:
    # offset[11|4|9:8|10|6|7|3:1|5] = inst[12:2]
    v = ((hw >> 1) & 0xB40 | (hw >> 7) & 0x10 | (hw << 2) & 0x400
         | (hw << 1) & 0x80 | (hw >> 2) & 0xE | (hw << 3) & 0x20)
    return (v ^ 0x800) - 0x800


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
        name, operands, base = _decode16(hw, address, xlen)
        return _ins(address, 2, hw, name, operands, xlen, base)
    if hw & 0b11111 == 0b11111:
        # 48-bit and longer encodings are out of scope
        raise InvalidEncoding(address, hw)
    if len(data) < 4:
        raise Truncated(address, 4, len(data))
    word = hw | (data[2] << 16) | (data[3] << 24)
    name, operands = _decode32(word, address, xlen)
    return _ins(address, 4, word, name, operands, xlen)
