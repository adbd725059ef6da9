"""Single-instruction assembler: the decoder's tables, read backwards.

Covers every canonical mnemonic the decoder produces plus the pseudo
spellings li, mv, ret, jr, j, and nop (expanded to their 4-byte base
forms).  The encodings come from `rvjop.decoder`: its maps of funct
fields to mnemonics for the 32-bit forms, and its rows for the compressed
ones.  Besides the major opcodes and the few fixed words, this module
states only what decoding does not need: operand ranges, the HINT and
reserved forms it refuses, and the error texts.  Operands follow the
decoder's conventions: registers may be given as Register objects, ABI
names, or indices; immediates are ints.

Raises UnsupportedInstruction for unknown mnemonics and OperandOutOfRange
for operands that do not fit their encoding fields.
"""

from __future__ import annotations

from functools import partial

from .decoder import (_AMO, _AMO_WIDTHS, _AMO_WIDTHS_RV64, _BRANCHES,
                      _COMPRESSED, _CSR, _LOADS, _LOADS_RV64, _OP, _OP32,
                      _OP_IMM, _OP_IMM32, _ORDERS, _SHIFT32, _SHIFTS, _STORES,
                      _STORES_RV64)
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
# instruction format, and the loops after them bind it to each mnemonic
# of the decoder's maps and compressed rows.

_ENC: dict = {}

# The mnemonics that exist at one register width only, by that width:
# those only the decoder's RV64 maps name, and the compressed rows of one
# width.  `assemble` checks this before the encoder runs.
_XLEN: dict = {}


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


def _shift(opcode, narrow, f3, top):
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


def _store(f3):
    def enc(ops, xlen):
        _count(ops, 3)
        return _pack_s(0b0100011, f3, _reg(ops[1]), _reg(ops[0]),
                       _imm(ops[2], -2048, 2047)), 4
    return enc


def _branch(f3):
    def enc(ops, xlen):
        _count(ops, 3)
        return _pack_b(0b1100011, f3, _reg(ops[0]), _reg(ops[1]),
                       _imm(ops[2], -4096, 4094, multiple=2)), 4
    return enc


def _csr(f3):
    def enc(ops, xlen):
        _count(ops, 3)
        csr = _imm(ops[1], 0, 4095)
        src = _imm(ops[2], 0, 31) if f3 & 0b100 else _reg(ops[2]).index
        return ((csr << 20) | (src << 15) | (f3 << 12) |
                (_reg(ops[0]).index << 7) | 0b1110011), 4
    return enc


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


def _amos(widths: dict) -> dict:
    """The decoder's atomics at `widths`, as a map like the others: by
    (funct3, funct7, whether rs2 is an operand)."""
    return {(f3, f5 << 2 | aqrl, name != "lr"): name + width + order
            for f5, name in _AMO.items() for f3, width in widths.items()
            for aqrl, order in enumerate(_ORDERS)}


# The RV64 maps come after the ones they extend, so that a mnemonic both
# widths have is bound at both.
for _table, _make, _width in (
        (_OP, partial(_r_type, 0b0110011), None),
        (_OP32, partial(_r_type, 0b0111011), 64),
        (_OP_IMM, partial(_i_type, 0b0010011), None),
        (_OP_IMM32, partial(_i_type, 0b0011011), 64),
        (_SHIFTS, partial(_shift, 0b0010011, False), None),
        (_SHIFT32, partial(_shift, 0b0011011, True), 64),
        (_LOADS, partial(_i_type, 0b0000011), None),
        (_LOADS_RV64, partial(_i_type, 0b0000011), 64),
        (_STORES, _store, None),
        (_STORES_RV64, _store, 64),
        (_BRANCHES, _branch, None),
        (_CSR, _csr, None),
        (_amos(_AMO_WIDTHS), _amo, None),
        (_amos(_AMO_WIDTHS_RV64), _amo, 64)):
    for _key, _n in _table.items():
        if _n not in _ENC:
            _ENC[_n] = _make(*_key) if type(_key) is tuple else _make(_key)
            if _width:
                _XLEN[_n] = _width

_ENC["jalr"] = _i_type(0b1100111, 0)


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


@_enc("fence")
def _enc_fence(ops, xlen):
    _count(ops, 2)
    return ((_imm(ops[0], 0, 15) << 24) | (_imm(ops[1], 0, 15) << 20)
            | 0b0001111), 4


# --- compressed forms -------------------------------------------------------
#
# Every compressed row of the decoder encodes through `_compressed`: its
# fixed bits, then each operand into its field.  What the rows do not
# state is below: the forms the assembler refuses though they fit their
# fields.  These are the HINTs (rd = x0, a zero addend or shift), the
# reserved forms whose immediate is zero, and the shifts past the
# register width.

# Registers refused in a mnemonic's full-width fields, with the message.
_REFUSED = {
    **dict.fromkeys(("c.addi", "c.addiw", "c.li", "c.slli", "c.jr", "c.jalr",
                     "c.mv", "c.add"), ((0,), "x0 not allowed here")),
    "c.lui": ((0, 2), "c.lui cannot target x0 or sp"),
    "c.lwsp": ((0,), "c.lwsp cannot target x0"),
    "c.ldsp": ((0,), "c.ldsp cannot target x0"),
}

# Immediates that must be nonzero, and the lowest one where that is above
# the field's.
_NONZERO = ("c.addi", "c.addi16sp", "c.lui")
_LOWEST = {"c.addi4spn": 4, "c.slli": 1, "c.srli": 1, "c.srai": 1}


def _compressed(name, match, regs, imm, shift):
    """The encoder of a compressed row: `regs` are its register fields,
    `imm` its immediate's layout, and `shift` whether it shifts (its
    amount stays below the register width)."""
    refused, message = _REFUSED.get(name, ((), ""))
    if imm is not None:
        pairs, signed = imm
        bits = [b for _, b in pairs]
        multiple = 1 << min(bits)
        top = 1 << max(bits) + (not signed)
        lo = _LOWEST.get(name, -top if signed else 0)

    def enc(ops, xlen):
        _count(ops, len(regs) + (imm is not None))
        word = match
        for op, (at, width) in zip(ops, regs):
            if width == 3:
                word |= _prime(op) << at
                continue
            r = _reg(op)
            if r.index in refused:
                raise OperandOutOfRange(message)
            word |= r.index << at
        if imm is not None:
            hi = min(top - multiple, xlen - 1) if shift else top - multiple
            value = _imm(ops[-1], lo, hi, multiple, name in _NONZERO)
            for at, b in pairs:
                word |= (value >> b & 1) << at
        return word, 2
    return enc


for _width, _, _match, _n, _regs, _imm_layout, _expansion in _COMPRESSED:
    if _expansion:          # an instruction, not a reserved slot
        _ENC[_n] = _compressed(_n, _match, _regs, _imm_layout,
                               _expansion[0] in _SHIFTS.values())
        if _width:
            _XLEN[_n] = _width


# --- no-operand encodings ---------------------------------------------------

def _fixed(word):
    """A 32-bit encoding with no operands."""
    def enc(ops, xlen):
        _count(ops, 0)
        return word, 4
    return enc


for _n, _word in [("fence.i", 0x0000100F), ("ecall", 0x00000073),
                 ("ebreak", 0x00100073)]:
    _ENC[_n] = _fixed(_word)


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
