"""Single-instruction assembler: the decoder's tables, read backwards.

Covers every canonical mnemonic the decoder produces plus the pseudo
spellings of its `PSEUDOS` table (li, mv, ret, jr, j and nop), each
encoded by its first row, a 4-byte base form.  The encodings come from
`rvjop.decoder`: every row of its instruction table, 32-bit and
compressed, encodes through one encoder, which writes the row's fixed
bits and each operand into its field, and takes each operand's range from
the field.  This module states only what
decoding does not need: the HINT and reserved forms it refuses, and the
error texts.  Operands follow the decoder's conventions: registers may be
given as Register objects, ABI names, or indices; immediates are ints.

Raises UnsupportedInstruction for unknown mnemonics and OperandOutOfRange
for operands that do not fit their encoding fields.
"""

from __future__ import annotations

from .decoder import _COMPRESSED, _WIDE, PSEUDOS
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


# --- encoders ---------------------------------------------------------------
#
# Every row of the decoder's tables, 32-bit and compressed, encodes
# through `_encoder`: its fixed bits, then each operand into its field.
# What the rows do not state is below: the forms the assembler refuses
# though they fit their fields.  These are the compressed HINTs (rd = x0,
# a zero addend or shift), the reserved forms whose immediate is zero,
# and the compressed shifts past the register width.

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


def _encoder(name, match, fields, imm, order, shift):
    """The encoder of a row: `fields` are its fields and `imm` its
    immediate's layout, `order` gives its operands, each the index of a
    field or, after them, of the immediate, and `shift` says whether the
    immediate is a compressed shift (its amount stays below the register
    width)."""
    refused, message = _REFUSED.get(name, ((), ""))
    if imm is not None:
        pairs, signed = imm
        bits = [b for _, b in pairs]
        multiple = 1 << min(bits)
        top = 1 << max(bits) + (not signed)
        lo = _LOWEST.get(name, -top if signed else 0)
    width = 4 if match & 3 == 3 else 2
    # Operands in the order they are checked, for which refusal is the
    # error: a 32-bit row with an unsigned immediate (a shift amount,
    # lui's, a CSR number) checks it first, then its fields from the
    # highest bits down; every other row checks them in order.
    checks = list(enumerate(order))
    if width == 4 and imm is not None and not signed:
        checks.sort(key=lambda c: -fields[c[1]][0] if c[1] < len(fields)
                    else -32)

    def enc(ops, xlen):
        _count(ops, len(order))
        word = match
        for i, k in checks:
            op = ops[i]
            if k == len(fields):                    # the immediate
                hi = min(top - multiple, xlen - 1) if shift else top - multiple
                value = _imm(op, lo, hi, multiple, name in _NONZERO)
                for at, b in pairs:
                    word |= (value >> b & 1) << at
                continue
            at, size, letter = fields[k]
            if letter not in "dts":                 # a small number
                word |= _imm(op, 0, (1 << size) - 1) << at
            elif size == 3:
                word |= _prime(op) << at
            else:
                r = _reg(op)
                if r.index in refused:
                    raise OperandOutOfRange(message)
                word |= r.index << at
        return word, width
    return enc


# Each entry maps a mnemonic to a function of (operands, xlen) returning
# (word, width).
_ENC: dict = {}

# The mnemonics that exist at one register width only, by that width: the
# rows of one width.  `assemble` checks this before the encoder runs.
_XLEN: dict = {}

# The expansions of the compressed shifts (a 32-bit row's tail names its
# effects rule, never one of these).
_SHIFTS = ("slli", "srli", "srai")


def _at_width(rv32, rv64):
    """The encoder of a mnemonic with one row per register width."""
    return lambda ops, xlen: (rv32 if xlen == 32 else rv64)(ops, xlen)


for _width, _, _match, _n, _fields, _imm_layout, _tail in _WIDE + _COMPRESSED:
    if _tail:               # an instruction, not a reserved slot
        _order = _tail[1] if _match & 3 == 3 else \
            range(len(_fields) + (_imm_layout is not None))
        _e = _encoder(_n, _match, _fields, _imm_layout, _order,
                      _tail[0] in _SHIFTS)
        if _n in _ENC:      # its RV64 row, after its RV32 one
            _e = _at_width(_ENC[_n], _e)
            del _XLEN[_n]
        elif _width:
            _XLEN[_n] = _width
        _ENC[_n] = _e


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


for _n, _base, _fill in PSEUDOS:       # each pseudo by its first row
    _ENC.setdefault(_n, _pseudo(_base, _fill))


_li = _ENC["li"]


def _enc_li(ops, xlen):
    _count(ops, 2)
    _imm(ops[1], -2048, 2047)          # before addi's register check
    return _li(ops, xlen)


_ENC["li"] = _enc_li


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
