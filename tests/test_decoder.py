"""Decoder behavior: golden encodings, width rules, rejection classes,
return discrimination, aliases, and immediate reconstruction."""

import gzip
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvjop.decoder import (CondBranch, DecodedInstruction, DirectJump,
                           IndirectJump, Trap, decode_one)
from rvjop.errors import InvalidEncoding, Truncated
from rvjop.isa import A0, A7, RA, SP, reg, sext

from gen_llvm_golden import DECODER_GOLDEN


def d32(word: int, address: int = 0, xlen: int = 32):
    return decode_one(word.to_bytes(4, "little"), address, xlen)


def d16(half: int, address: int = 0, xlen: int = 32):
    return decode_one(half.to_bytes(2, "little"), address, xlen)


# --- golden encodings (independently known words) ---------------------------

def test_ret_word():
    x = d32(0x00008067)
    assert x.mnemonic == "jalr"
    assert x.control_flow.is_return
    assert x.matches_op("ret")
    assert x.regs_read == {RA}
    assert x.regs_written == frozenset()


def test_ecall_ebreak():
    x = d32(0x00000073)
    assert x.mnemonic == "ecall"
    assert x.control_flow == Trap("ecall")
    assert A7 in x.regs_read
    y = d32(0x00100073)
    assert y.mnemonic == "ebreak"
    assert y.control_flow == Trap("ebreak")


def test_nop_words():
    assert d32(0x00000013).matches_op("nop")
    assert d16(0x0001).matches_op("nop")


def test_c_ebreak():
    assert d16(0x9002).control_flow == Trap("ebreak")


def test_c_jr_words():
    a5 = d16(0x8782)
    assert a5.mnemonic == "c.jr"
    cf = a5.control_flow
    assert isinstance(cf, IndirectJump)
    assert cf.base is reg("a5") and cf.offset == 0 and cf.link is None
    assert not cf.is_return
    ra = d16(0x8082)
    assert ra.control_flow.is_return
    assert ra.matches_op("ret")


def test_li_a0_1_compressed():
    x = d16(0x4505)
    assert x.mnemonic == "c.li"
    assert x.matches_op("li") and x.matches_op("addi")
    assert x.imm == 1 and x.regs_written == {A0}


def test_c_mv():
    x = d16(0x852E)
    assert x.mnemonic == "c.mv"
    assert x.matches_op("mv")
    assert x.regs_written == {A0} and x.regs_read == {reg("a1")}


def test_lui_word():
    x = d32(0x00001537)
    assert x.mnemonic == "lui" and x.regs_written == {A0}
    assert x.imm == 0x1000


def test_jal_link():
    x = d32(0x000000EF, address=0x400)
    assert x.mnemonic == "jal"
    assert x.control_flow == DirectJump(0x400, RA)


def test_c_addi16sp_minus16():
    x = d16(0x717D)
    assert x.mnemonic == "c.addi16sp"
    assert x.imm == -16
    assert x.regs_read == {SP} and x.regs_written == {SP}


def test_branch_shape():
    # blt a0, a1, -4 encodes rs1=a0 rs2=a1; target is pc-relative
    from rvjop.assembler import assemble
    raw = assemble("blt", ("a0", "a1", -4))
    x = decode_one(raw, 0x100, 32)
    cf = x.control_flow
    assert isinstance(cf, CondBranch)
    assert cf.op == "lt" and cf.target == 0xFC
    assert cf.regs == (reg("a0"), reg("a1"))


# --- width discrimination and truncation ------------------------------------

def test_width_rule():
    assert d16(0x8082).width == 2
    assert d32(0x00008067).width == 4


def test_longer_encodings_rejected():
    # low five bits all ones announce a >32-bit instruction
    with pytest.raises(InvalidEncoding):
        decode_one(b"\x1f\x00\x00\x00", 0, 32)


def test_truncated():
    with pytest.raises(Truncated):
        decode_one(b"\x67", 0, 32)
    with pytest.raises(Truncated):
        decode_one(b"\x67\x80", 0, 32)   # 4-byte encoding, 2 bytes given
    with pytest.raises(Truncated):
        decode_one(b"", 0, 32)


def test_truncated_reports_need():
    try:
        decode_one(b"\x67\x80", 0x44, 32)
    except Truncated as exc:
        assert exc.needed == 4 and exc.got == 2 and exc.address == 0x44
    else:
        pytest.fail("no Truncated")


# --- rejection subcodes -----------------------------------------------------

def test_fp_opcodes_flagged():
    # flw f0, 0(a0): opcode 0000111
    with pytest.raises(InvalidEncoding) as ei:
        d32(0x00052007)
    assert ei.value.subcode == "fp"


def test_vector_opcode_flagged():
    with pytest.raises(InvalidEncoding) as ei:
        d32(0x02008057)                  # opcode 1010111
    assert ei.value.subcode == "vector"


def test_compressed_fp_slot_flagged():
    # quadrant 0 funct3 011 is c.flw on RV32
    with pytest.raises(InvalidEncoding) as ei:
        d16(0x6000)
    assert ei.value.subcode == "fp"


def test_all_zero_halfword_invalid():
    with pytest.raises(InvalidEncoding):
        d16(0x0000)


@pytest.mark.parametrize("word", [0x00000077, 0xFFFFFFFF, 0x0000002F,
                                  0x42000033])
def test_undefined_subcode(word):
    with pytest.raises(InvalidEncoding) as ei:
        d32(word)
    assert ei.value.subcode == "undefined"


# --- RV64 differences -------------------------------------------------------

def test_rv64_ld_and_lwu():
    from rvjop.assembler import assemble
    x = decode_one(assemble("ld", ("a0", "sp", 8), xlen=64), 0, 64)
    assert x.mnemonic == "ld" and x.mem_access.size == 8
    y = decode_one(assemble("lwu", ("a0", "sp", 8), xlen=64), 0, 64)
    assert y.mem_access.size == 4


def test_rv64_shift_shamt6():
    from rvjop.assembler import assemble
    raw = assemble("slli", ("a0", "a0", 63), xlen=64)
    x = decode_one(raw, 0, 64)
    assert x.operands[-1] == 63
    with pytest.raises(InvalidEncoding):
        decode_one(raw, 0, 32)           # shamt >= 32 is invalid on RV32


def test_c_addiw_only_rv64():
    from rvjop.assembler import assemble
    raw = assemble("c.addiw", ("a0", 1), xlen=64)
    assert decode_one(raw, 0, 64).mnemonic == "c.addiw"
    # the same bits mean c.jal on RV32
    assert decode_one(raw, 0, 32).mnemonic == "c.jal"


# --- helper arithmetic ------------------------------------------------------

@given(st.integers(0, 2**16 - 1))
@settings(max_examples=200, deadline=None)
def test_sext_16(v):
    s = sext(v, 16)
    assert s & 0xFFFF == v
    assert -(1 << 15) <= s < (1 << 15)


# --- rendering --------------------------------------------------------------

def test_render_memory_operands():
    from rvjop.assembler import assemble
    x = decode_one(assemble("lw", ("a3", "sp", 16)), 0, 32)
    assert x.render() == "lw a3, 16(sp)"
    y = decode_one(assemble("sw", ("s0", "sp", -4)), 0, 32)
    assert y.render() == "sw s0, -4(sp)"
    # sp-relative compressed forms carry (reg, imm) with sp implied
    for mnemonic, ops, xlen, text in [
            ("c.lwsp", ("ra", 88), 32, "c.lwsp ra, 88(sp)"),
            ("c.swsp", ("a1", 4), 32, "c.swsp a1, 4(sp)"),
            ("c.ldsp", ("s0", 8), 64, "c.ldsp s0, 8(sp)"),
            ("c.sdsp", ("a0", 16), 64, "c.sdsp a0, 16(sp)")]:
        z = decode_one(assemble(mnemonic, ops, xlen=xlen), 0, xlen)
        assert z.render() == text


def test_render_amo():
    from rvjop.assembler import assemble
    x = decode_one(assemble("amoadd.w", ("a0", "a2", "a1")), 0, 32)
    assert x.render() == "amoadd.w a0, a2, (a1)"


def test_compressed_expansion_alias():
    x = d16(0x4110)                      # c.lw a2, 0(a0)
    assert x.mnemonic == "c.lw"
    assert any(a.name == "lw" for a in x.aliases)
    assert x.mem_access.size == 4


# --- whole-decoder digest ---------------------------------------------------

DIGEST_ADDRESS = 0xFFFF_F000     # forward targets wrap on RV32, not on RV64
DECODER_DIGEST = \
    "d14f92dd059ddb7bd98d6fc16d68588af9eba78fd9363643f9b5f380ea43b371"


_FIELDS = list(DecodedInstruction._fields)
_REG_SETS = [_FIELDS.index("regs_read"), _FIELDS.index("regs_written")]


def _digest_inputs():
    """Every 16-bit pattern, then 16384 seeded 32-bit words."""
    rng = random.Random(20261018)
    yield from (hw.to_bytes(2, "little") for hw in range(1 << 16))
    for _ in range(1 << 14):
        yield (rng.getrandbits(32) | 0b11).to_bytes(4, "little")


def _digest_line(data: bytes, xlen: int) -> str:
    try:
        insn = decode_one(data, DIGEST_ADDRESS, xlen)
    except (InvalidEncoding, Truncated) as exc:
        return f"{data.hex()} {type(exc).__name__} {getattr(exc, 'subcode', '')}"
    values = [getattr(insn, name) for name in _FIELDS]
    for i in _REG_SETS:                   # register sets: order by index
        values[i] = sorted(r.index for r in values[i])
    return f"{data.hex()} {values!r} {insn.render()}"


def test_decoder_digest():
    """Every field and the rendering of every 16-bit pattern and a seeded
    32-bit sample, on RV32 and RV64, hash to a pinned value: any change to
    what the decoder reports shows here."""
    h = hashlib.sha256()
    for xlen in (32, 64):
        for data in _digest_inputs():
            h.update(_digest_line(data, xlen).encode() + b"\n")
    assert h.hexdigest() == DECODER_DIGEST


# --- llvm-mc golden file, 32-bit half ---------------------------------------

# Where the decoder and llvm-mc 14 part ways on the golden words, by (the
# decoder's mnemonic, llvm's), "-" for an invalid encoding: the words on
# RV32 and on RV64, and why.
LLVM_DIVERGENCES = {
    ("fence", "-"): (427, 427, "the decoder takes any fm, rs1 and rd in a "
                     "fence; llvm wants fm 0 (or fence.tso's) and rs1 = rd "
                     "= x0"),
    ("fence.i", "-"): (462, 462, "the decoder takes any imm, rs1 and rd in "
                       "a fence.i; llvm wants them all zero"),
    ("-", "slli"): (4, 0, "llvm 14 takes shamt[5] = 1 on RV32, which the "
                    "ISA reserves"),
    ("-", "srli"): (3, 0, "as above"),
    ("-", "srai"): (4, 0, "as above"),
    ("-", "fmv.w.x"): (1, 1, "llvm 14 decodes fmv.w.x and fmv.x.w without "
                       "+f; the decoder reports every float opcode as fp"),
    ("-", "fmv.x.w"): (1, 1, "as above"),
    ("-", "sfence.vma"): (2, 2, "the decoder has no privileged "
                          "instructions"),
    ("csrrw", "unimp"): (1, 1, "llvm spells csrrw zero, cycle, zero as "
                         "unimp even with -M no-aliases"),
}

_LLVM_FENCE_SET = {"unknown": 0, **{
    "".join(c for c, bit in zip("iorw", (8, 4, 2, 1)) if n & bit): n
    for n in range(1, 16)}}


def _llvm_as_rendered(word: int, text: str) -> str:
    """llvm's text for `word` in `render()`'s spelling: jalr's memory
    operand as base and offset, fence sets as numbers, and a CSR as the
    number in bits 31..20 (llvm names the CSRs it knows)."""
    name, _, ops = text.partition(" ")
    parts = ops.split(", ") if ops else []
    if name == "jalr":
        off, _, base = parts[1].partition("(")
        parts[1:] = [base[:-1], off]
    elif name == "fence":
        parts = [str(_LLVM_FENCE_SET[p]) for p in parts]
    elif name.startswith("csr"):
        parts[1] = str(word >> 20)
    return " ".join([name, ", ".join(parts)]).rstrip()


def _llvm_golden_lines():
    """(word, xlen, llvm's text or '-') for each golden word and XLEN."""
    text = gzip.decompress(DECODER_GOLDEN.read_bytes()).decode("ascii")
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        word, _, texts = line.partition(" ")
        rv32, rv64 = texts.split("|")
        yield int(word, 16), 32, rv32
        yield int(word, 16), 64, rv32 if rv64 == "=" else rv64


def test_llvm_golden():
    """The decoder agrees with llvm-mc on validity, mnemonic and operands
    of every 32-bit opcode x funct3 x funct7 corner and of seeded words,
    but for the classes in LLVM_DIVERGENCES (regenerate with
    `tests/gen_llvm_golden.py decoder`)."""
    diverged = {}
    for word, xlen, theirs in _llvm_golden_lines():
        try:
            ours = d32(word, 0, xlen).render()
        except InvalidEncoding:
            ours = "-"
        if theirs != "-":
            theirs = _llvm_as_rendered(word, theirs)
        if ours != theirs:
            key = (ours.split(" ")[0], theirs.split(" ")[0])
            counts = diverged.setdefault(key, {32: 0, 64: 0})
            counts[xlen] += 1
    assert diverged == {key: {32: rv32, 64: rv64} for key, (rv32, rv64, _)
                        in LLVM_DIVERGENCES.items()}


# --- records ----------------------------------------------------------------

def test_records_have_no_instance_dict():
    """Every record of the package is a namedtuple whose instances carry
    no `__dict__`, except the three that cache a summary in theirs."""
    import importlib
    import pkgutil

    import rvjop
    caching = {"DispatcherCandidate", "InitializerCandidate", "ChainStep"}
    records = {}
    for info in pkgutil.iter_modules(rvjop.__path__):
        module = importlib.import_module(f"rvjop.{info.name}")
        for name, cls in vars(module).items():
            if (isinstance(cls, type) and issubclass(cls, tuple)
                    and hasattr(cls, "_fields")
                    and cls.__module__ == module.__name__):
                record = cls._make([None] * len(cls._fields))
                records[name] = hasattr(record, "__dict__")
    assert len(records) == 29
    assert {name for name, has in records.items() if has} == caching
