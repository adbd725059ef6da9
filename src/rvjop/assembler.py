"""Single-instruction assembler, the encoding mirror of the decoder.

Covers every canonical mnemonic the decoder produces plus the pseudo
spellings li, mv, ret, jr, j, and nop (expanded to their 4-byte base
forms).  Operands follow the decoder's conventions: registers may be
given as Register objects, ABI names, or indices; immediates are ints.

Raises UnsupportedInstruction for unknown mnemonics and OperandOutOfRange
for operands that do not fit their encoding fields.
"""

from __future__ import annotations

from .errors import OperandOutOfRange, UnsupportedInstruction
from .isa import Register, reg


def _reg(op) -> Register:
    try:
        return reg(op)
    except (ValueError, TypeError):
        raise OperandOutOfRange(f"not a register: {op!r}") from None


def _prime(op) -> int:
    r = _reg(op)
    if not 8 <= r.index <= 15:
        raise OperandOutOfRange(f"{r.name} not encodable in a 3-bit field (x8..x15)")
    return r.index - 8


def _imm(op, lo: int, hi: int, multiple: int = 1, nonzero: bool = False) -> int:
    if isinstance(op, bool) or not isinstance(op, int):
        raise OperandOutOfRange(f"not an immediate: {op!r}")
    if not lo <= op <= hi:
        raise OperandOutOfRange(f"immediate {op} outside [{lo}, {hi}]")
    if op % multiple:
        raise OperandOutOfRange(f"immediate {op} not a multiple of {multiple}")
    if nonzero and op == 0:
        raise OperandOutOfRange("immediate must be nonzero")
    return op


def _nonzero_reg(op) -> Register:
    r = _reg(op)
    if r.index == 0:
        raise OperandOutOfRange(f"x0 not allowed here")
    return r


def _count(ops, n: int):
    if len(ops) != n:
        raise OperandOutOfRange(f"expected {n} operands, got {len(ops)}")


# --- 32-bit format packers --------------------------------------------------

def _pack_r(opcode, f3, f7, rd, rs1, rs2):
    return (f7 << 25) | (rs2.index << 20) | (rs1.index << 15) | \
           (f3 << 12) | (rd.index << 7) | opcode


def _pack_i(opcode, f3, rd, rs1, imm):
    return ((imm & 0xFFF) << 20) | (rs1.index << 15) | (f3 << 12) | \
           (rd.index << 7) | opcode


def _pack_s(opcode, f3, rs1, rs2, imm):
    imm &= 0xFFF
    return ((imm >> 5) << 25) | (rs2.index << 20) | (rs1.index << 15) | \
           (f3 << 12) | ((imm & 0x1F) << 7) | opcode


def _pack_b(opcode, f3, rs1, rs2, imm):
    imm &= 0x1FFF
    return ((imm >> 12) << 31) | (((imm >> 5) & 0x3F) << 25) | \
           (rs2.index << 20) | (rs1.index << 15) | (f3 << 12) | \
           (((imm >> 1) & 0xF) << 8) | (((imm >> 11) & 1) << 7) | opcode


def _pack_j(opcode, rd, imm):
    imm &= 0x1FFFFF
    return ((imm >> 20) << 31) | (((imm >> 1) & 0x3FF) << 21) | \
           (((imm >> 11) & 1) << 20) | (((imm >> 12) & 0xFF) << 12) | \
           (rd.index << 7) | opcode


# --- encoder table ----------------------------------------------------------
# Each entry maps a mnemonic to a function of (operands, xlen) returning
# (word, width).  The factories below build one such function per
# instruction format; the loops after each bind it to its mnemonics.

_ENC: dict = {}


def _enc(name):
    def wrap(fn):
        _ENC[name] = fn
        return fn
    return wrap


def _r_type(opcode, f3, f7):
    def enc(ops, xlen):
        _count(ops, 3)
        return _pack_r(opcode, f3, f7, _reg(ops[0]), _reg(ops[1]), _reg(ops[2])), 4
    return enc


def _i_type(opcode, f3):
    def enc(ops, xlen):
        _count(ops, 3)
        return _pack_i(opcode, f3, _reg(ops[0]), _reg(ops[1]),
                       _imm(ops[2], -2048, 2047)), 4
    return enc


for _n, _f3, _f7 in [("add", 0, 0), ("sub", 0, 0b0100000), ("sll", 1, 0),
                     ("slt", 2, 0), ("sltu", 3, 0), ("xor", 4, 0),
                     ("srl", 5, 0), ("sra", 5, 0b0100000), ("or", 6, 0),
                     ("and", 7, 0)]:
    _ENC[_n] = _r_type(0b0110011, _f3, _f7)

for _f3, _n in enumerate(["mul", "mulh", "mulhsu", "mulhu",
                          "div", "divu", "rem", "remu"]):
    _ENC[_n] = _r_type(0b0110011, _f3, 1)

for _n, _f3, _f7 in [("addw", 0, 0), ("subw", 0, 0b0100000), ("sllw", 1, 0),
                     ("srlw", 5, 0), ("sraw", 5, 0b0100000), ("mulw", 0, 1),
                     ("divw", 4, 1), ("divuw", 5, 1), ("remw", 6, 1),
                     ("remuw", 7, 1)]:
    _ENC[_n] = _r_type(0b0111011, _f3, _f7)

for _n, _f3 in [("addi", 0), ("slti", 2), ("sltiu", 3), ("xori", 4),
                ("ori", 6), ("andi", 7)]:
    _ENC[_n] = _i_type(0b0010011, _f3)

for _f3, _n in enumerate(["lb", "lh", "lw", "ld", "lbu", "lhu", "lwu"]):
    _ENC[_n] = _i_type(0b0000011, _f3)

_ENC["addiw"] = _i_type(0b0011011, 0)
_ENC["jalr"] = _i_type(0b1100111, 0)


def _shift(opcode, f3, top, narrow):
    def enc(ops, xlen):
        _count(ops, 3)
        hi = 31 if (narrow or xlen == 32) else 63
        sh = _imm(ops[2], 0, hi)
        f7 = top if (narrow or xlen == 32) else top >> 1
        shift = 25 if (narrow or xlen == 32) else 26
        word = (f7 << shift) | (sh << 20) | (_reg(ops[1]).index << 15) | \
               (f3 << 12) | (_reg(ops[0]).index << 7) | opcode
        return word, 4
    return enc


for _n, _f3, _top in [("sll", 1, 0), ("srl", 5, 0), ("sra", 5, 0b0100000)]:
    _ENC[_n + "i"] = _shift(0b0010011, _f3, _top, narrow=False)
    _ENC[_n + "iw"] = _shift(0b0011011, _f3, _top, narrow=True)


def _store(f3):
    def enc(ops, xlen):
        _count(ops, 3)
        return _pack_s(0b0100011, f3, _reg(ops[1]), _reg(ops[0]),
                       _imm(ops[2], -2048, 2047)), 4
    return enc


for _f3, _n in enumerate(["sb", "sh", "sw", "sd"]):
    _ENC[_n] = _store(_f3)


def _u_type(opcode):
    def enc(ops, xlen):
        _count(ops, 2)
        return ((_imm(ops[1], 0, 0xFFFFF) << 12) | (_reg(ops[0]).index << 7)
                | opcode), 4
    return enc


_ENC["lui"] = _u_type(0b0110111)
_ENC["auipc"] = _u_type(0b0010111)


@_enc("jal")
def _enc_jal(ops, xlen):
    _count(ops, 2)
    return _pack_j(0b1101111, _reg(ops[0]),
                   _imm(ops[1], -(1 << 20), (1 << 20) - 2, multiple=2)), 4


def _branch(f3):
    def enc(ops, xlen):
        _count(ops, 3)
        return _pack_b(0b1100011, f3, _reg(ops[0]), _reg(ops[1]),
                       _imm(ops[2], -4096, 4094, multiple=2)), 4
    return enc


for _n, _f3 in [("beq", 0), ("bne", 1), ("blt", 4), ("bge", 5),
                ("bltu", 6), ("bgeu", 7)]:
    _ENC[_n] = _branch(_f3)


@_enc("fence")
def _enc_fence(ops, xlen):
    _count(ops, 2)
    return ((_imm(ops[0], 0, 15) << 24) | (_imm(ops[1], 0, 15) << 20)
            | 0b0001111), 4


def _csr(f3, immediate):
    def enc(ops, xlen):
        _count(ops, 3)
        csr = _imm(ops[1], 0, 4095)
        src = _imm(ops[2], 0, 31) if immediate else _reg(ops[2]).index
        return ((csr << 20) | (src << 15) | (f3 << 12) |
                (_reg(ops[0]).index << 7) | 0b1110011), 4
    return enc


for _n, _f3 in [("csrrw", 1), ("csrrs", 2), ("csrrc", 3)]:
    _ENC[_n] = _csr(_f3, immediate=False)
    _ENC[_n + "i"] = _csr(_f3 + 4, immediate=True)


def _amo(f3, f7, has_rs2):
    def enc(ops, xlen):
        if has_rs2:
            _count(ops, 3)
            rd, rs2, rs1 = _reg(ops[0]), _reg(ops[1]), _reg(ops[2])
        else:
            _count(ops, 2)
            rd, rs1 = _reg(ops[0]), _reg(ops[1])
            rs2 = reg(0)
        return _pack_r(0b0101111, f3, f7, rd, rs1, rs2), 4
    return enc


for _base, _f5 in [("lr", 0b00010), ("sc", 0b00011), ("amoswap", 0b00001),
                   ("amoadd", 0b00000), ("amoxor", 0b00100),
                   ("amoand", 0b01100), ("amoor", 0b01000),
                   ("amomin", 0b10000), ("amomax", 0b10100),
                   ("amominu", 0b11000), ("amomaxu", 0b11100)]:
    for _width, _f3 in (("w", 0b010), ("d", 0b011)):
        for _order, _aqrl in (("", 0), (".aq", 0b10), (".rl", 0b01),
                              (".aqrl", 0b11)):
            _ENC[f"{_base}.{_width}{_order}"] = _amo(
                _f3, (_f5 << 2) | _aqrl, has_rs2=_base != "lr")


# --- compressed forms -------------------------------------------------------

def _ci_imm6(imm):
    return (((imm >> 5) & 1) << 12) | ((imm & 0x1F) << 2)


def _ci(f3, nonzero):
    """c.addi, c.addiw, c.li: rd != x0 and a 6-bit signed immediate."""
    def enc(ops, xlen):
        _count(ops, 2)
        rd = _nonzero_reg(ops[0])
        imm = _imm(ops[1], -32, 31, nonzero=nonzero)
        return 0b01 | (f3 << 13) | (rd.index << 7) | _ci_imm6(imm), 2
    return enc


_ENC["c.addi"] = _ci(0b000, nonzero=True)
_ENC["c.addiw"] = _ci(0b001, nonzero=False)
_ENC["c.li"] = _ci(0b010, nonzero=False)


@_enc("c.addi16sp")
def _enc_caddi16sp(ops, xlen):
    _count(ops, 1)
    imm = _imm(ops[0], -512, 496, multiple=16, nonzero=True)
    word = 0b01 | (0b011 << 13) | (2 << 7)
    word |= (((imm >> 9) & 1) << 12) | (((imm >> 4) & 1) << 6) | \
            (((imm >> 6) & 1) << 5) | (((imm >> 7) & 3) << 3) | \
            (((imm >> 5) & 1) << 2)
    return word, 2


@_enc("c.lui")
def _enc_clui(ops, xlen):
    _count(ops, 2)
    rd = _reg(ops[0])
    if rd.index in (0, 2):
        raise OperandOutOfRange("c.lui cannot target x0 or sp")
    f = _imm(ops[1], -32, 31, nonzero=True)
    return 0b01 | (0b011 << 13) | (rd.index << 7) | _ci_imm6(f), 2


@_enc("c.addi4spn")
def _enc_caddi4spn(ops, xlen):
    _count(ops, 2)
    rd = _prime(ops[0])
    imm = _imm(ops[1], 4, 1020, multiple=4)
    word = 0b00 | (rd << 2)
    word |= (((imm >> 4) & 3) << 11) | (((imm >> 6) & 0xF) << 7) | \
            (((imm >> 2) & 1) << 6) | (((imm >> 3) & 1) << 5)
    return word, 2


def _clmem(name, f3, quad, size, sp_rel, store):
    def enc(ops, xlen):
        if sp_rel:
            _count(ops, 2)
            r = _reg(ops[0])
            if not store and r.index == 0:
                raise OperandOutOfRange(f"{name} cannot target x0")
            hi = 504 if size == 8 else 252
            imm = _imm(ops[1], 0, hi, multiple=size)
            word = quad | (f3 << 13)
            if store:
                word |= r.index << 2
                if size == 4:
                    word |= (((imm >> 2) & 0xF) << 9) | (((imm >> 6) & 3) << 7)
                else:
                    word |= (((imm >> 3) & 7) << 10) | (((imm >> 6) & 7) << 7)
            else:
                word |= r.index << 7
                word |= ((imm >> 5) & 1) << 12
                if size == 4:
                    word |= (((imm >> 2) & 7) << 4) | (((imm >> 6) & 3) << 2)
                else:
                    word |= (((imm >> 3) & 3) << 5) | (((imm >> 6) & 7) << 2)
            return word, 2
        _count(ops, 3)
        rr = _prime(ops[0])
        rb = _prime(ops[1])
        hi = 248 if size == 8 else 124
        imm = _imm(ops[2], 0, hi, multiple=size)
        word = quad | (f3 << 13) | (rb << 7) | (rr << 2)
        word |= ((imm >> 3) & 7) << 10
        if size == 4:
            word |= (((imm >> 2) & 1) << 6) | (((imm >> 6) & 1) << 5)
        else:
            word |= ((imm >> 6) & 3) << 5
        return word, 2
    _ENC[name] = enc


_clmem("c.lw", 0b010, 0b00, 4, sp_rel=False, store=False)
_clmem("c.sw", 0b110, 0b00, 4, sp_rel=False, store=True)
_clmem("c.ld", 0b011, 0b00, 8, sp_rel=False, store=False)
_clmem("c.sd", 0b111, 0b00, 8, sp_rel=False, store=True)
_clmem("c.lwsp", 0b010, 0b10, 4, sp_rel=True, store=False)
_clmem("c.swsp", 0b110, 0b10, 4, sp_rel=True, store=True)
_clmem("c.ldsp", 0b011, 0b10, 8, sp_rel=True, store=False)
_clmem("c.sdsp", 0b111, 0b10, 8, sp_rel=True, store=True)


def _cj(f3):
    """c.j and c.jal: an 11-bit even offset, scrambled into bits 12..2."""
    def enc(ops, xlen):
        _count(ops, 1)
        imm = _imm(ops[0], -2048, 2046, multiple=2)
        return 0b01 | (f3 << 13) | \
            (((imm >> 11) & 1) << 12) | (((imm >> 4) & 1) << 11) | \
            (((imm >> 8) & 3) << 9) | (((imm >> 10) & 1) << 8) | \
            (((imm >> 6) & 1) << 7) | (((imm >> 7) & 1) << 6) | \
            (((imm >> 1) & 7) << 3) | (((imm >> 5) & 1) << 2), 2
    return enc


_ENC["c.j"] = _cj(0b101)
_ENC["c.jal"] = _cj(0b001)


def _cbranch(f3):
    def enc(ops, xlen):
        _count(ops, 2)
        rs = _prime(ops[0])
        imm = _imm(ops[1], -256, 254, multiple=2)
        word = 0b01 | (f3 << 13) | (rs << 7)
        word |= (((imm >> 8) & 1) << 12) | (((imm >> 3) & 3) << 10) | \
                (((imm >> 6) & 3) << 5) | (((imm >> 1) & 3) << 3) | \
                (((imm >> 5) & 1) << 2)
        return word, 2
    return enc


_ENC["c.beqz"] = _cbranch(0b110)
_ENC["c.bnez"] = _cbranch(0b111)


def _cshift(funct2):
    def enc(ops, xlen):
        _count(ops, 2)
        rd = _prime(ops[0])
        sh = _imm(ops[1], 1, 63 if xlen == 64 else 31)
        return 0b01 | (0b100 << 13) | (funct2 << 10) | (rd << 7) | _ci_imm6(sh), 2
    return enc


_ENC["c.srli"] = _cshift(0b00)
_ENC["c.srai"] = _cshift(0b01)


@_enc("c.andi")
def _enc_candi(ops, xlen):
    _count(ops, 2)
    rd = _prime(ops[0])
    imm = _imm(ops[1], -32, 31)
    return 0b01 | (0b100 << 13) | (0b10 << 10) | (rd << 7) | _ci_imm6(imm), 2


def _carith(hi_bit, funct2):
    def enc(ops, xlen):
        _count(ops, 2)
        rd, rs2 = _prime(ops[0]), _prime(ops[1])
        return (0b01 | (0b100 << 13) | (hi_bit << 12) | (0b11 << 10) |
                (rd << 7) | (funct2 << 5) | (rs2 << 2)), 2
    return enc


for _n, _hi, _f2 in [("c.sub", 0, 0b00), ("c.xor", 0, 0b01), ("c.or", 0, 0b10),
                     ("c.and", 0, 0b11), ("c.subw", 1, 0b00),
                     ("c.addw", 1, 0b01)]:
    _ENC[_n] = _carith(_hi, _f2)


@_enc("c.slli")
def _enc_cslli(ops, xlen):
    _count(ops, 2)
    rd = _nonzero_reg(ops[0])
    sh = _imm(ops[1], 1, 63 if xlen == 64 else 31)
    return 0b10 | (rd.index << 7) | _ci_imm6(sh), 2


def _cr(hi_bit, has_rs2):
    """c.jr, c.jalr, c.mv, c.add: rd/rs1 and rs2, neither x0."""
    def enc(ops, xlen):
        _count(ops, 1 + has_rs2)
        rd = _nonzero_reg(ops[0])
        rs2 = _nonzero_reg(ops[1]).index if has_rs2 else 0
        return (0b10 | (0b100 << 13) | (hi_bit << 12) | (rd.index << 7) |
                (rs2 << 2)), 2
    return enc


_ENC["c.jr"] = _cr(0, has_rs2=False)
_ENC["c.jalr"] = _cr(1, has_rs2=False)
_ENC["c.mv"] = _cr(0, has_rs2=True)
_ENC["c.add"] = _cr(1, has_rs2=True)


# --- no-operand encodings ---------------------------------------------------

def _fixed(word, width):
    """An encoding with no operands."""
    def enc(ops, xlen):
        _count(ops, 0)
        return word, width
    return enc


for _n, _word, _width in [("fence.i", 0x0000100F, 4), ("ecall", 0x00000073, 4),
                          ("ebreak", 0x00100073, 4), ("c.nop", 0x0001, 2),
                          ("c.ebreak", 0x9002, 2)]:
    _ENC[_n] = _fixed(_word, _width)


# --- pseudo spellings -------------------------------------------------------

def _pseudo(base, fill):
    """`base` with the operands `fill`, whose None slots take the pseudo's
    own operands in order."""
    def enc(ops, xlen):
        _count(ops, fill.count(None))
        given = iter(ops)
        return _ENC[base](tuple(next(given) if f is None else f
                                for f in fill), xlen)
    return enc


for _n, _base, _fill in [("mv", "addi", (None, None, 0)),
                         ("ret", "jalr", (0, 1, 0)),
                         ("jr", "jalr", (0, None, 0)),
                         ("nop", "addi", (0, 0, 0)),
                         ("j", "jal", (0, None))]:
    _ENC[_n] = _pseudo(_base, _fill)


@_enc("li")
def _enc_li(ops, xlen):
    _count(ops, 2)
    _imm(ops[1], -2048, 2047)          # before addi's register check
    return _ENC["addi"]((ops[0], 0, ops[1]), xlen)


# The mnemonics that exist at one register width only (the RV64 ones, the
# .d atomics among them, and c.jal); every other one assembles at both.
# `assemble` checks this before the encoder runs.
_XLEN = dict.fromkeys(
    "addw subw sllw srlw sraw mulw divw divuw remw remuw addiw slliw srliw "
    "sraiw lwu ld sd c.addiw c.ld c.sd c.ldsp c.sdsp c.subw c.addw".split()
    + [n for n in _ENC if n.split(".")[1:2] == ["d"]], 64)
_XLEN["c.jal"] = 32


def assemble(mnemonic: str, operands=(), xlen: int = 32) -> bytes:
    """Encode one instruction, returning its 2- or 4-byte little-endian form."""
    try:
        enc = _ENC[mnemonic]
    except KeyError:
        raise UnsupportedInstruction(f"unknown mnemonic: {mnemonic!r}") from None
    ops = tuple(operands)
    only = _XLEN.get(mnemonic)
    if only is not None and xlen != only:
        raise UnsupportedInstruction(
            f"{mnemonic} requires RV64" if only == 64
            else f"{mnemonic} is RV32-only")
    word, width = enc(ops, xlen)
    return word.to_bytes(width, "little")


def supported_mnemonics() -> tuple[str, ...]:
    return tuple(sorted(_ENC))
