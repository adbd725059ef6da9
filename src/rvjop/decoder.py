"""RV32/RV64 IMAC instruction decoder.

Decodes one instruction at a time from raw bytes (little-endian), covering
the I base, M, A, and C extensions.  Float and vector opcodes are rejected
with a distinguishing subcode so scanners can tell "unsupported extension"
from "not an instruction".

Width discrimination follows the base encoding scheme: if the low two bits
of the first halfword are not 0b11 the instruction is compressed (2 bytes),
otherwise it is a 4-byte instruction.  Longer encodings (low five bits all
ones) are not supported.

Decoded immediates are kept sign-extended as plain Python ints, independent
of XLEN.  Every instruction carries its base form in `base`: the 32-bit
expansion for a compressed instruction, its own name and operands
otherwise.  `base` is the one expansion every consumer reads (the
interpreter, dataflow and classification), so no other module knows how a
C form expands.  The expansion is also the first alias of a compressed
instruction, and the common pseudo spellings (li, mv, ret, jr, j, nop) are
recorded as aliases too, so downstream matching can be pseudo-aware without
re-deriving any of this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidEncoding, Truncated
from .isa import REGISTERS, RA, SP, ZERO, A7, Register, bits, sext, mask


# --- control flow and access descriptors ------------------------------------

@dataclass(frozen=True, slots=True)
class DirectJump:
    target: int
    link: Register | None = None


@dataclass(frozen=True, slots=True)
class IndirectJump:
    base: Register
    offset: int
    link: Register | None = None

    @property
    def is_return(self) -> bool:
        # Return-like is exactly the no-link jump through ra with offset 0
        # (jalr x0, 0(ra) and its compressed spelling).
        return self.link is None and self.base is RA and self.offset == 0


@dataclass(frozen=True, slots=True)
class CondBranch:
    target: int
    regs: tuple[Register, Register]
    op: str  # "eq" | "ne" | "lt" | "ge" | "ltu" | "geu"


@dataclass(frozen=True, slots=True)
class Trap:
    kind: str  # "ecall" | "ebreak"


ControlFlow = DirectJump | IndirectJump | CondBranch | Trap


@dataclass(frozen=True, slots=True)
class MemAccess:
    kind: str  # "load" | "store" | "amo"
    base: Register
    offset: int
    size: int


@dataclass(frozen=True, slots=True)
class Alias:
    name: str
    operands: tuple


@dataclass(frozen=True, slots=True)
class DecodedInstruction:
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


def _rset(*regs: Register) -> frozenset[Register]:
    """Register set with the hard-wired zero filtered out."""
    out = [r for r in regs if r.index != 0]
    return frozenset(out) if out else _EMPTY


def _ins(address, width, raw, mnemonic, operands, reads=(), writes=(),
         cf=None, mem=None, imm=None, aliases=(), base=None):
    """`base` is a compressed form's 32-bit expansion; it also goes first
    in `aliases`.  A 32-bit form is its own base."""
    operands = tuple(operands)
    if base is None:
        base = Alias(mnemonic, operands)
    else:
        aliases = (base, *aliases)
    return DecodedInstruction(
        address=address, width=width, raw=raw, mnemonic=mnemonic,
        operands=operands, regs_read=_rset(*reads),
        regs_written=_rset(*writes), control_flow=cf, mem_access=mem,
        imm=imm, aliases=tuple(aliases), base=base)


# --- 32-bit decode ----------------------------------------------------------

_BRANCH_OPS = {0b000: ("beq", "eq"), 0b001: ("bne", "ne"), 0b100: ("blt", "lt"),
               0b101: ("bge", "ge"), 0b110: ("bltu", "ltu"), 0b111: ("bgeu", "geu")}

_LOADS = {0b000: ("lb", 1), 0b001: ("lh", 2), 0b010: ("lw", 4),
          0b100: ("lbu", 1), 0b101: ("lhu", 2)}
_LOADS64 = {0b110: ("lwu", 4), 0b011: ("ld", 8)}

_STORES = {0b000: ("sb", 1), 0b001: ("sh", 2), 0b010: ("sw", 4)}

_LOADS_RV64 = {**_LOADS, **_LOADS64}
_STORES_RV64 = {**_STORES, 0b011: ("sd", 8)}

_OP_IMM = {0b000: "addi", 0b010: "slti", 0b011: "sltiu",
           0b100: "xori", 0b110: "ori", 0b111: "andi"}

_OP_R = {(0b000, 0): "add", (0b000, 0b0100000): "sub",
         (0b001, 0): "sll", (0b010, 0): "slt", (0b011, 0): "sltu",
         (0b100, 0): "xor", (0b101, 0): "srl", (0b101, 0b0100000): "sra",
         (0b110, 0): "or", (0b111, 0): "and"}

_OP_M = {0b000: "mul", 0b001: "mulh", 0b010: "mulhsu", 0b011: "mulhu",
         0b100: "div", 0b101: "divu", 0b110: "rem", 0b111: "remu"}

_OP32_R = {(0b000, 0): "addw", (0b000, 0b0100000): "subw",
           (0b001, 0): "sllw", (0b101, 0): "srlw", (0b101, 0b0100000): "sraw"}

_OP32_M = {0b000: "mulw", 0b100: "divw", 0b101: "divuw",
           0b110: "remw", 0b111: "remuw"}

_AMO = {0b00001: "amoswap", 0b00000: "amoadd", 0b00100: "amoxor",
        0b01100: "amoand", 0b01000: "amoor", 0b10000: "amomin",
        0b10100: "amomax", 0b11000: "amominu", 0b11100: "amomaxu"}

_CSR = {0b001: "csrrw", 0b010: "csrrs", 0b011: "csrrc",
        0b101: "csrrwi", 0b110: "csrrsi", 0b111: "csrrci"}

_FP_OPCODES = frozenset([0x07, 0x27, 0x43, 0x47, 0x4B, 0x4F, 0x53])


def _imm_i(w: int) -> int:
    return sext(bits(w, 31, 20), 12)


def _imm_s(w: int) -> int:
    return sext((bits(w, 31, 25) << 5) | bits(w, 11, 7), 12)


def _imm_b(w: int) -> int:
    v = (bits(w, 31, 31) << 12) | (bits(w, 7, 7) << 11) | \
        (bits(w, 30, 25) << 5) | (bits(w, 11, 8) << 1)
    return sext(v, 13)


def _imm_j(w: int) -> int:
    v = (bits(w, 31, 31) << 20) | (bits(w, 19, 12) << 12) | \
        (bits(w, 20, 20) << 11) | (bits(w, 30, 21) << 1)
    return sext(v, 21)


def _decode32(word: int, address: int, xlen: int) -> DecodedInstruction:
    opcode = word & 0x7F
    rd = REGISTERS[bits(word, 11, 7)]
    rs1 = REGISTERS[bits(word, 19, 15)]
    rs2 = REGISTERS[bits(word, 24, 20)]
    funct3 = bits(word, 14, 12)
    funct7 = bits(word, 31, 25)

    def inv(subcode="undefined"):
        raise InvalidEncoding(address, word, subcode)

    if opcode in _FP_OPCODES:
        inv("fp")
    if opcode == 0x57:
        inv("vector")

    if opcode == 0b0110111:  # lui
        f = bits(word, 31, 12)
        return _ins(address, 4, word, "lui", (rd, f), writes=(rd,),
                    imm=sext(f << 12, 32))
    if opcode == 0b0010111:  # auipc
        f = bits(word, 31, 12)
        return _ins(address, 4, word, "auipc", (rd, f), writes=(rd,),
                    imm=sext(f << 12, 32))

    if opcode == 0b1101111:  # jal
        imm = _imm_j(word)
        target = (address + imm) & mask(xlen)
        link = rd if rd.index else None
        aliases = (Alias("j", (imm,)),) if rd.index == 0 else ()
        return _ins(address, 4, word, "jal", (rd, imm), writes=(rd,),
                    cf=DirectJump(target, link), imm=imm, aliases=aliases)

    if opcode == 0b1100111:  # jalr
        if funct3 != 0:
            inv()
        imm = _imm_i(word)
        link = rd if rd.index else None
        aliases = []
        if rd.index == 0 and imm == 0:
            aliases.append(Alias("ret", ()) if rs1 is RA else Alias("jr", (rs1,)))
        return _ins(address, 4, word, "jalr", (rd, rs1, imm),
                    reads=(rs1,), writes=(rd,),
                    cf=IndirectJump(rs1, imm, link), imm=imm, aliases=aliases)

    if opcode == 0b1100011:  # branches
        if funct3 not in _BRANCH_OPS:
            inv()
        name, op = _BRANCH_OPS[funct3]
        imm = _imm_b(word)
        target = (address + imm) & mask(xlen)
        return _ins(address, 4, word, name, (rs1, rs2, imm),
                    reads=(rs1, rs2), cf=CondBranch(target, (rs1, rs2), op),
                    imm=imm)

    if opcode == 0b0000011:  # loads
        table = _LOADS_RV64 if xlen == 64 else _LOADS
        if funct3 not in table:
            inv()
        name, size = table[funct3]
        imm = _imm_i(word)
        return _ins(address, 4, word, name, (rd, rs1, imm),
                    reads=(rs1,), writes=(rd,),
                    mem=MemAccess("load", rs1, imm, size), imm=imm)

    if opcode == 0b0100011:  # stores
        table = _STORES_RV64 if xlen == 64 else _STORES
        if funct3 not in table:
            inv()
        name, size = table[funct3]
        imm = _imm_s(word)
        return _ins(address, 4, word, name, (rs2, rs1, imm),
                    reads=(rs1, rs2),
                    mem=MemAccess("store", rs1, imm, size), imm=imm)

    if opcode == 0b0010011:  # op-imm
        if funct3 == 0b001 or funct3 == 0b101:
            shbits = 6 if xlen == 64 else 5
            shamt = bits(word, 20 + shbits - 1, 20)
            top = bits(word, 31, 20 + shbits)
            if funct3 == 0b001:
                if top != 0:
                    inv()
                name = "slli"
            elif top == 0:
                name = "srli"
            elif top == (0b0100000 >> (shbits - 5)):
                name = "srai"
            else:
                inv()
            return _ins(address, 4, word, name, (rd, rs1, shamt),
                        reads=(rs1,), writes=(rd,), imm=shamt)
        name = _OP_IMM[funct3]
        imm = _imm_i(word)
        aliases = []
        if name == "addi":
            if rs1.index == 0:
                if rd.index == 0 and imm == 0:
                    aliases.append(Alias("nop", ()))
                else:
                    aliases.append(Alias("li", (rd, imm)))
            elif imm == 0:
                aliases.append(Alias("mv", (rd, rs1)))
        return _ins(address, 4, word, name, (rd, rs1, imm),
                    reads=(rs1,), writes=(rd,), imm=imm, aliases=aliases)

    if opcode == 0b0110011:  # op
        if funct7 == 0b0000001:
            if funct3 not in _OP_M:
                inv()
            name = _OP_M[funct3]
        else:
            key = (funct3, funct7)
            if key not in _OP_R:
                inv()
            name = _OP_R[key]
        return _ins(address, 4, word, name, (rd, rs1, rs2),
                    reads=(rs1, rs2), writes=(rd,))

    if opcode == 0b0011011:  # op-imm-32 (RV64)
        if xlen != 64:
            inv()
        if funct3 == 0b000:
            imm = _imm_i(word)
            return _ins(address, 4, word, "addiw", (rd, rs1, imm),
                        reads=(rs1,), writes=(rd,), imm=imm)
        if funct3 in (0b001, 0b101):
            shamt = bits(word, 24, 20)
            if funct3 == 0b001 and funct7 == 0:
                name = "slliw"
            elif funct3 == 0b101 and funct7 == 0:
                name = "srliw"
            elif funct3 == 0b101 and funct7 == 0b0100000:
                name = "sraiw"
            else:
                inv()
            return _ins(address, 4, word, name, (rd, rs1, shamt),
                        reads=(rs1,), writes=(rd,), imm=shamt)
        inv()

    if opcode == 0b0111011:  # op-32 (RV64)
        if xlen != 64:
            inv()
        if funct7 == 0b0000001:
            if funct3 not in _OP32_M:
                inv()
            name = _OP32_M[funct3]
        else:
            key = (funct3, funct7)
            if key not in _OP32_R:
                inv()
            name = _OP32_R[key]
        return _ins(address, 4, word, name, (rd, rs1, rs2),
                    reads=(rs1, rs2), writes=(rd,))

    if opcode == 0b0101111:  # amo
        if funct3 == 0b010:
            suffix, size = ".w", 4
        elif funct3 == 0b011 and xlen == 64:
            suffix, size = ".d", 8
        else:
            inv()
        funct5 = bits(word, 31, 27)
        aq, rl = bits(word, 26, 26), bits(word, 25, 25)
        order = ("", ".rl", ".aq", ".aqrl")[(aq << 1) | rl]
        if funct5 == 0b00010:  # lr
            if rs2.index != 0:
                inv()
            return _ins(address, 4, word, f"lr{suffix}{order}", (rd, rs1),
                        reads=(rs1,), writes=(rd,),
                        mem=MemAccess("load", rs1, 0, size))
        if funct5 == 0b00011:  # sc
            return _ins(address, 4, word, f"sc{suffix}{order}", (rd, rs2, rs1),
                        reads=(rs1, rs2), writes=(rd,),
                        mem=MemAccess("store", rs1, 0, size))
        if funct5 in _AMO:
            name = _AMO[funct5]
            return _ins(address, 4, word, f"{name}{suffix}{order}",
                        (rd, rs2, rs1), reads=(rs1, rs2), writes=(rd,),
                        mem=MemAccess("amo", rs1, 0, size))
        inv()

    if opcode == 0b0001111:  # fence / fence.i
        if funct3 == 0b000:
            pred, succ = bits(word, 27, 24), bits(word, 23, 20)
            return _ins(address, 4, word, "fence", (pred, succ))
        if funct3 == 0b001:
            return _ins(address, 4, word, "fence.i", ())
        inv()

    if opcode == 0b1110011:  # system
        if funct3 == 0b000:
            if word == 0x00000073:
                # By convention the syscall id travels in a7; record the
                # read so a bare ecall shows a7 as an external dependency.
                return _ins(address, 4, word, "ecall", (), reads=(A7,),
                            cf=Trap("ecall"))
            if word == 0x00100073:
                return _ins(address, 4, word, "ebreak", (), cf=Trap("ebreak"))
            inv()
        if funct3 in _CSR:
            name = _CSR[funct3]
            csr = bits(word, 31, 20)
            if funct3 & 0b100:  # immediate forms
                zimm = bits(word, 19, 15)
                return _ins(address, 4, word, name, (rd, csr, zimm),
                            writes=(rd,), imm=zimm)
            return _ins(address, 4, word, name, (rd, csr, rs1),
                        reads=(rs1,), writes=(rd,))
        inv()

    inv()


# --- 16-bit decode ----------------------------------------------------------

def _rp(field3: int) -> Register:
    """Three-bit register field of the compressed ISA (x8..x15)."""
    return REGISTERS[8 + field3]


def _decode16(hw: int, address: int, xlen: int) -> DecodedInstruction:
    quadrant = hw & 0b11
    funct3 = bits(hw, 15, 13)

    def inv(subcode="undefined"):
        raise InvalidEncoding(address, hw, subcode)

    if quadrant == 0b00:
        if hw == 0:
            inv()  # defined illegal instruction
        if funct3 == 0b000:  # c.addi4spn
            imm = (bits(hw, 12, 11) << 4) | (bits(hw, 10, 7) << 6) | \
                  (bits(hw, 6, 6) << 2) | (bits(hw, 5, 5) << 3)
            if imm == 0:
                inv()
            rd = _rp(bits(hw, 4, 2))
            return _ins(address, 2, hw, "c.addi4spn", (rd, imm),
                        reads=(SP,), writes=(rd,), imm=imm,
                        base=Alias("addi", (rd, SP, imm)))
        if funct3 == 0b010:  # c.lw
            imm = (bits(hw, 12, 10) << 3) | (bits(hw, 6, 6) << 2) | \
                  (bits(hw, 5, 5) << 6)
            rd, rs1 = _rp(bits(hw, 4, 2)), _rp(bits(hw, 9, 7))
            return _ins(address, 2, hw, "c.lw", (rd, rs1, imm),
                        reads=(rs1,), writes=(rd,),
                        mem=MemAccess("load", rs1, imm, 4), imm=imm,
                        base=Alias("lw", (rd, rs1, imm)))
        if funct3 == 0b011:
            if xlen == 64:  # c.ld
                imm = (bits(hw, 12, 10) << 3) | (bits(hw, 6, 5) << 6)
                rd, rs1 = _rp(bits(hw, 4, 2)), _rp(bits(hw, 9, 7))
                return _ins(address, 2, hw, "c.ld", (rd, rs1, imm),
                            reads=(rs1,), writes=(rd,),
                            mem=MemAccess("load", rs1, imm, 8), imm=imm,
                            base=Alias("ld", (rd, rs1, imm)))
            inv("fp")  # c.flw
        if funct3 == 0b110:  # c.sw
            imm = (bits(hw, 12, 10) << 3) | (bits(hw, 6, 6) << 2) | \
                  (bits(hw, 5, 5) << 6)
            rs2, rs1 = _rp(bits(hw, 4, 2)), _rp(bits(hw, 9, 7))
            return _ins(address, 2, hw, "c.sw", (rs2, rs1, imm),
                        reads=(rs1, rs2),
                        mem=MemAccess("store", rs1, imm, 4), imm=imm,
                        base=Alias("sw", (rs2, rs1, imm)))
        if funct3 == 0b111:
            if xlen == 64:  # c.sd
                imm = (bits(hw, 12, 10) << 3) | (bits(hw, 6, 5) << 6)
                rs2, rs1 = _rp(bits(hw, 4, 2)), _rp(bits(hw, 9, 7))
                return _ins(address, 2, hw, "c.sd", (rs2, rs1, imm),
                            reads=(rs1, rs2),
                            mem=MemAccess("store", rs1, imm, 8), imm=imm,
                            base=Alias("sd", (rs2, rs1, imm)))
            inv("fp")  # c.fsw
        if funct3 in (0b001, 0b101):
            inv("fp")  # c.fld / c.fsd
        inv()

    if quadrant == 0b01:
        if funct3 == 0b000:  # c.nop / c.addi
            rd = REGISTERS[bits(hw, 11, 7)]
            imm = sext((bits(hw, 12, 12) << 5) | bits(hw, 6, 2), 6)
            if rd.index == 0:
                return _ins(address, 2, hw, "c.nop", (), imm=None,
                            base=Alias("addi", (ZERO, ZERO, 0)),
                            aliases=(Alias("nop", ()),))
            return _ins(address, 2, hw, "c.addi", (rd, imm),
                        reads=(rd,), writes=(rd,), imm=imm,
                        base=Alias("addi", (rd, rd, imm)))
        if funct3 == 0b001:
            if xlen == 64:  # c.addiw
                rd = REGISTERS[bits(hw, 11, 7)]
                if rd.index == 0:
                    inv()
                imm = sext((bits(hw, 12, 12) << 5) | bits(hw, 6, 2), 6)
                return _ins(address, 2, hw, "c.addiw", (rd, imm),
                            reads=(rd,), writes=(rd,), imm=imm,
                            base=Alias("addiw", (rd, rd, imm)))
            # c.jal (RV32 only)
            imm = _cj_imm(hw)
            return _ins(address, 2, hw, "c.jal", (imm,), writes=(RA,),
                        cf=DirectJump((address + imm) & mask(xlen), RA),
                        imm=imm, base=Alias("jal", (RA, imm)))
        if funct3 == 0b010:  # c.li
            rd = REGISTERS[bits(hw, 11, 7)]
            imm = sext((bits(hw, 12, 12) << 5) | bits(hw, 6, 2), 6)
            return _ins(address, 2, hw, "c.li", (rd, imm), writes=(rd,),
                        imm=imm, base=Alias("addi", (rd, ZERO, imm)),
                        aliases=(Alias("li", (rd, imm)),))
        if funct3 == 0b011:
            rd = REGISTERS[bits(hw, 11, 7)]
            if rd.index == 2:  # c.addi16sp
                imm = sext((bits(hw, 12, 12) << 9) | (bits(hw, 6, 6) << 4) |
                           (bits(hw, 5, 5) << 6) | (bits(hw, 4, 3) << 7) |
                           (bits(hw, 2, 2) << 5), 10)
                if imm == 0:
                    inv()
                return _ins(address, 2, hw, "c.addi16sp", (imm,),
                            reads=(SP,), writes=(SP,), imm=imm,
                            base=Alias("addi", (SP, SP, imm)))
            # c.lui
            f = sext((bits(hw, 12, 12) << 5) | bits(hw, 6, 2), 6)
            if f == 0:
                inv()
            return _ins(address, 2, hw, "c.lui", (rd, f), writes=(rd,),
                        imm=sext((f << 12) & 0xFFFFFFFF, 32),
                        base=Alias("lui", (rd, f & 0xFFFFF)))
        if funct3 == 0b100:
            sub = bits(hw, 11, 10)
            rd = _rp(bits(hw, 9, 7))
            if sub in (0b00, 0b01):  # c.srli / c.srai
                shamt = (bits(hw, 12, 12) << 5) | bits(hw, 6, 2)
                if xlen == 32 and shamt >= 32:
                    inv()
                name = "c.srli" if sub == 0 else "c.srai"
                return _ins(address, 2, hw, name, (rd, shamt),
                            reads=(rd,), writes=(rd,), imm=shamt,
                            base=Alias(name[2:], (rd, rd, shamt)))
            if sub == 0b10:  # c.andi
                imm = sext((bits(hw, 12, 12) << 5) | bits(hw, 6, 2), 6)
                return _ins(address, 2, hw, "c.andi", (rd, imm),
                            reads=(rd,), writes=(rd,), imm=imm,
                            base=Alias("andi", (rd, rd, imm)))
            # register-register group
            rs2 = _rp(bits(hw, 4, 2))
            hi = bits(hw, 12, 12)
            low = bits(hw, 6, 5)
            if hi == 0:
                name = ("c.sub", "c.xor", "c.or", "c.and")[low]
            else:
                if xlen != 64 or low > 0b01:
                    inv()
                name = ("c.subw", "c.addw")[low]
            return _ins(address, 2, hw, name, (rd, rs2),
                        reads=(rd, rs2), writes=(rd,),
                        base=Alias(name[2:], (rd, rd, rs2)))
        if funct3 == 0b101:  # c.j
            imm = _cj_imm(hw)
            return _ins(address, 2, hw, "c.j", (imm,),
                        cf=DirectJump((address + imm) & mask(xlen), None),
                        imm=imm, base=Alias("jal", (ZERO, imm)),
                        aliases=(Alias("j", (imm,)),))
        # c.beqz / c.bnez
        rs1 = _rp(bits(hw, 9, 7))
        imm = sext((bits(hw, 12, 12) << 8) | (bits(hw, 11, 10) << 3) |
                   (bits(hw, 6, 5) << 6) | (bits(hw, 4, 3) << 1) |
                   (bits(hw, 2, 2) << 5), 9)
        name, op, base = ("c.beqz", "eq", "beq") if funct3 == 0b110 \
            else ("c.bnez", "ne", "bne")
        return _ins(address, 2, hw, name, (rs1, imm), reads=(rs1,),
                    cf=CondBranch((address + imm) & mask(xlen), (rs1, ZERO), op),
                    imm=imm, base=Alias(base, (rs1, ZERO, imm)))

    # quadrant 0b10
    if funct3 == 0b000:  # c.slli
        rd = REGISTERS[bits(hw, 11, 7)]
        shamt = (bits(hw, 12, 12) << 5) | bits(hw, 6, 2)
        if xlen == 32 and shamt >= 32:
            inv()
        return _ins(address, 2, hw, "c.slli", (rd, shamt),
                    reads=(rd,), writes=(rd,), imm=shamt,
                    base=Alias("slli", (rd, rd, shamt)))
    if funct3 == 0b010:  # c.lwsp
        rd = REGISTERS[bits(hw, 11, 7)]
        if rd.index == 0:
            inv()
        imm = (bits(hw, 12, 12) << 5) | (bits(hw, 6, 4) << 2) | \
              (bits(hw, 3, 2) << 6)
        return _ins(address, 2, hw, "c.lwsp", (rd, imm),
                    reads=(SP,), writes=(rd,),
                    mem=MemAccess("load", SP, imm, 4), imm=imm,
                    base=Alias("lw", (rd, SP, imm)))
    if funct3 == 0b011:
        if xlen == 64:  # c.ldsp
            rd = REGISTERS[bits(hw, 11, 7)]
            if rd.index == 0:
                inv()
            imm = (bits(hw, 12, 12) << 5) | (bits(hw, 6, 5) << 3) | \
                  (bits(hw, 4, 2) << 6)
            return _ins(address, 2, hw, "c.ldsp", (rd, imm),
                        reads=(SP,), writes=(rd,),
                        mem=MemAccess("load", SP, imm, 8), imm=imm,
                        base=Alias("ld", (rd, SP, imm)))
        inv("fp")  # c.flwsp
    if funct3 == 0b100:
        rs1 = REGISTERS[bits(hw, 11, 7)]
        rs2 = REGISTERS[bits(hw, 6, 2)]
        if bits(hw, 12, 12) == 0:
            if rs2.index == 0:  # c.jr
                if rs1.index == 0:
                    inv()
                alias = Alias("ret", ()) if rs1 is RA else Alias("jr", (rs1,))
                return _ins(address, 2, hw, "c.jr", (rs1,), reads=(rs1,),
                            cf=IndirectJump(rs1, 0, None),
                            base=Alias("jalr", (ZERO, rs1, 0)),
                            aliases=(alias,))
            # c.mv
            if rs1.index == 0:
                inv()
            return _ins(address, 2, hw, "c.mv", (rs1, rs2), reads=(rs2,),
                        writes=(rs1,),
                        base=Alias("add", (rs1, ZERO, rs2)),
                        aliases=(Alias("mv", (rs1, rs2)),))
        if rs2.index == 0:
            if rs1.index == 0:  # c.ebreak
                return _ins(address, 2, hw, "c.ebreak", (),
                            cf=Trap("ebreak"), base=Alias("ebreak", ()))
            # c.jalr
            return _ins(address, 2, hw, "c.jalr", (rs1,), reads=(rs1,),
                        writes=(RA,), cf=IndirectJump(rs1, 0, RA),
                        base=Alias("jalr", (RA, rs1, 0)))
        # c.add
        if rs1.index == 0:
            inv()
        return _ins(address, 2, hw, "c.add", (rs1, rs2),
                    reads=(rs1, rs2), writes=(rs1,),
                    base=Alias("add", (rs1, rs1, rs2)))
    if funct3 == 0b110:  # c.swsp
        rs2 = REGISTERS[bits(hw, 6, 2)]
        imm = (bits(hw, 12, 9) << 2) | (bits(hw, 8, 7) << 6)
        return _ins(address, 2, hw, "c.swsp", (rs2, imm),
                    reads=(SP, rs2), mem=MemAccess("store", SP, imm, 4),
                    imm=imm, base=Alias("sw", (rs2, SP, imm)))
    if funct3 == 0b111:
        if xlen == 64:  # c.sdsp
            rs2 = REGISTERS[bits(hw, 6, 2)]
            imm = (bits(hw, 12, 10) << 3) | (bits(hw, 9, 7) << 6)
            return _ins(address, 2, hw, "c.sdsp", (rs2, imm),
                        reads=(SP, rs2), mem=MemAccess("store", SP, imm, 8),
                        imm=imm, base=Alias("sd", (rs2, SP, imm)))
        inv("fp")  # c.fswsp
    inv("fp")  # c.fldsp / c.fsdsp (funct3 001/101)


def _cj_imm(hw: int) -> int:
    v = (bits(hw, 12, 12) << 11) | (bits(hw, 11, 11) << 4) | \
        (bits(hw, 10, 9) << 8) | (bits(hw, 8, 8) << 10) | \
        (bits(hw, 7, 7) << 6) | (bits(hw, 6, 6) << 7) | \
        (bits(hw, 5, 3) << 1) | (bits(hw, 2, 2) << 5)
    return sext(v, 12)


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
    return _decode32(word, address, xlen)
