"""Encode-decode agreement over the whole probe corpus.

Every probe must survive assemble -> decode -> assemble byte-identically,
with the decoder reporting the same canonical mnemonic (pseudo spellings
resolve through aliases).  The corpus itself must touch every mnemonic
the assembler claims to support.
"""

import pytest

from rvjop.assembler import assemble, supported_mnemonics
from rvjop.decoder import _COMPRESSED, decode_one
from rvjop.errors import (InvalidEncoding, OperandOutOfRange,
                          UnsupportedInstruction)

from probes import PSEUDOS, all_mnemonics_probed, iter_probes


def test_corpus_covers_every_mnemonic():
    assert all_mnemonics_probed() == set()


def test_round_trip_all_probes():
    failures = []
    n = 0
    for mnemonic, ops, xlen in iter_probes():
        n += 1
        raw = assemble(mnemonic, ops, xlen=xlen)
        insn = decode_one(raw, 0, xlen)
        if mnemonic in PSEUDOS:
            if not insn.matches_op(mnemonic):
                failures.append((mnemonic, ops, xlen, "alias missing"))
                continue
        elif insn.mnemonic != mnemonic:
            failures.append((mnemonic, ops, xlen,
                             f"decoded as {insn.mnemonic}"))
            continue
        again = assemble(insn.mnemonic, insn.operands, xlen=xlen)
        if again != raw:
            failures.append((mnemonic, ops, xlen,
                             f"{raw.hex()} != {again.hex()}"))
    assert not failures, failures[:20]
    assert n > 1000


def test_round_trip_preserves_width():
    for mnemonic, ops, xlen in iter_probes():
        raw = assemble(mnemonic, ops, xlen=xlen)
        expect = 2 if mnemonic.startswith("c.") else 4
        if mnemonic in PSEUDOS:
            expect = 4
        assert len(raw) == expect, (mnemonic, ops)
        assert decode_one(raw, 0, xlen).width == expect


def test_immediates_survive():
    # decoded imm equals the assembled operand wherever the form has one
    forms = [("addi", ("a0", "a1", -2048), -2048),
             ("andi", ("a0", "a1", 2047), 2047),
             ("c.addi", ("a0", -32), -32),
             ("c.andi", ("s0", -1), -1),
             ("c.addi16sp", (-512,), -512),
             ("lw", ("a0", "sp", -4), None),
             ("jal", ("ra", -2048), -2048)]
    for mnemonic, ops, imm in forms:
        insn = decode_one(assemble(mnemonic, ops), 0, 32)
        if imm is not None:
            assert insn.imm == imm, mnemonic


# --- one table, read both ways ----------------------------------------------

def _decoded_mnemonics(xlen):
    """Every mnemonic the decoder gives at `xlen`: each 16-bit pattern,
    and each 32-bit opcode, funct3 and funct7 with rs2 of 0 or 1 (ebreak
    is the system opcode with rs2 = 1)."""
    words = [hw.to_bytes(2, "little") for hw in range(1 << 16)
             if hw & 3 != 3]
    words += [(f7 << 25 | rs2 << 20 | f3 << 12 | op).to_bytes(4, "little")
              for op in range(3, 128, 4) for f3 in range(8)
              for f7 in range(128) for rs2 in (0, 1)]
    names = set()
    for data in words:
        try:
            names.add(decode_one(data, 0, xlen).mnemonic)
        except InvalidEncoding:
            pass
    return names


def _accepted(xlen):
    """The mnemonics `assemble` accepts at `xlen`: wrong operands are an
    OperandOutOfRange, a mnemonic of the other width unsupported."""
    names = set()
    for m in supported_mnemonics():
        try:
            assemble(m, (), xlen=xlen)
        except UnsupportedInstruction:
            continue
        except OperandOutOfRange:
            pass
        names.add(m)
    return names


@pytest.mark.parametrize("xlen", [32, 64])
def test_assembler_and_decoder_name_the_same_mnemonics(xlen):
    assert _accepted(xlen) - PSEUDOS == _decoded_mnemonics(xlen)


def _legal(mnemonic, xlen, n_regs, values):
    """The values of `values` that `assemble` takes as `mnemonic`'s
    immediate, with s0 (x8, valid in every register field) elsewhere."""
    for value in values:
        ops = ("s0",) * n_regs + (value,)
        try:
            yield value, assemble(mnemonic, ops, xlen=xlen)
        except OperandOutOfRange:
            pass


@pytest.mark.parametrize("xlen", [32, 64])
def test_compressed_immediates_round_trip_exhaustively(xlen):
    """Each compressed immediate layout takes every value in its field's
    span that the assembler accepts to bits the decoder reads back
    unchanged, and the instruction reassembles to the same bytes."""
    checked = {}
    for width, _, _, name, regs, imm, _ in _COMPRESSED:
        if imm is None or width not in (None, xlen):
            continue
        top = max(b for _, b in imm[0]) + 1
        span = range(-(1 << top), 1 << top)
        legal = list(_legal(name, xlen, len(regs), span))
        assert legal, name
        for value, raw in legal:
            insn = decode_one(raw, 0, xlen)
            assert (insn.mnemonic, insn.operands[-1]) == (name, value)
            assert assemble(name, insn.operands, xlen=xlen) == raw
        checked[name] = len(legal)
    assert max(checked.values()) == 2048        # c.j's offset
    assert len(checked) == (21 if xlen == 64 else 17)
