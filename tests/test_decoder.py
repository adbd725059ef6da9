"""Decoder behavior: golden encodings, width rules, rejection classes,
return discrimination, aliases, and immediate reconstruction."""

import copy
import gzip
import hashlib
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvjop import decoder
from rvjop.assembler import assemble
from rvjop.decoder import (PSEUDOS, CondBranch, DecodedInstruction,
                           DirectJump, IndirectJump, Trap, decode_one)
from rvjop.errors import InvalidEncoding, ToolError, Truncated
from rvjop.isa import A0, A1, A7, RA, REGISTERS, SP, T0, reg, sext

from gen_llvm_golden import (COMPRESSED_GOLDEN, DECODER_GOLDEN, REG_KINDS,
                             SHAPES, imm_kind)


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


def test_unsupported_xlen_is_a_tool_error():
    # every public entry point succeeds or raises a ToolError
    for data in (b"\x67\x80\x00\x00", b"\x82\x80"):
        with pytest.raises(ToolError, match="xlen must be 32 or 64, got 48"):
            decode_one(data, 0, xlen=48)


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


@pytest.mark.parametrize("exc,text", [
    (InvalidEncoding(0x10, 0x7), "invalid encoding 0x7 at 0x10 (undefined)"),
    (InvalidEncoding(0x10, 0x52007, "fp"),
     "invalid encoding 0x52007 at 0x10 (fp)"),
    (InvalidEncoding(0x8000, 0x2008057, "vector"),
     "invalid encoding 0x2008057 at 0x8000 (vector)"),
    (Truncated(0x44, 4, 2), "truncated fetch at 0x44: need 4 bytes, have 2"),
])
def test_decode_errors_text_pickle_and_copy(exc, text):
    """The message is the same however the exception was made: raised,
    unpickled or copied."""
    assert str(exc) == text
    for twin in (pickle.loads(pickle.dumps(exc)), copy.copy(exc)):
        assert type(twin) is type(exc) and twin.args == exc.args
        assert vars(twin) == vars(exc)
        assert str(twin) == text


def test_decode_error_from_the_decoder_reads_the_same():
    with pytest.raises(InvalidEncoding) as ei:
        d32(0x00052007, 0x10)
    assert str(ei.value) == "invalid encoding 0x52007 at 0x10 (fp)"
    with pytest.raises(Truncated) as ei:
        decode_one(b"\x67\x80", 0x44, 32)
    assert str(ei.value) == "truncated fetch at 0x44: need 4 bytes, have 2"


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
    assert x.matches_op("lw") and x.base.name == "lw"
    assert x.spelling is None
    assert x.mem_access.size == 4


# --- pseudo spellings -------------------------------------------------------

def _own_operands(pseudo: str, xlen: int) -> tuple:
    """Operands of `pseudo` that make no earlier row match: a distinct
    register other than x0 per register, a nonzero immediate."""
    ops = []
    for k, kind in enumerate(SHAPES[pseudo][0]):
        if kind in REG_KINDS:
            ops.append(f"a{k}")
        else:
            ops.append(3 * imm_kind(kind, xlen)[2])
    return tuple(ops)


@pytest.mark.parametrize("xlen", [32, 64])
@pytest.mark.parametrize("pseudo,mnemonic,fill", PSEUDOS)
def test_pseudo_row_round_trips(pseudo, mnemonic, fill, xlen):
    """The pseudo, and its row's mnemonic with the row's operands, both
    decode to an instruction spelled by the pseudo."""
    ops = _own_operands(pseudo, xlen)
    given = iter(ops)
    full = tuple(next(given) if f is None else f for f in fill)
    want = (pseudo, tuple(reg(o) if type(o) is str else o for o in ops))
    for data in (assemble(pseudo, ops, xlen), assemble(mnemonic, full, xlen)):
        x = decode_one(data, 0, xlen)
        assert x.spelling == want, x.render()
        assert x.matches_op(pseudo)


@pytest.mark.parametrize("mnemonic,ops,spelled,not_spelled", [
    ("addi", ("zero", "zero", 0), ("nop", ()), "li"),
    ("addi", ("t0", "zero", 0), ("li", (T0, 0)), "mv"),
    ("jalr", ("zero", "ra", 0), ("ret", ()), "jr"),
])
def test_first_matching_row_spells(mnemonic, ops, spelled, not_spelled):
    x = decode_one(assemble(mnemonic, ops), 0, 32)
    assert x.spelling == spelled
    assert x.matches_op(spelled[0]) and x.matches_op(mnemonic)
    assert not x.matches_op(not_spelled)


def test_only_c_mv_spells_mv_by_its_own_form():
    """32-bit `add a0, zero, a1` is no mv; c.mv a0, a1, whose base form it
    is, is."""
    wide = decode_one(assemble("add", ("a0", "zero", "a1")), 0, 32)
    assert wide.matches_op("add") and not wide.matches_op("mv")
    assert wide.spelling is None
    short = decode_one(assemble("c.mv", ("a0", "a1")), 0, 32)
    assert short.base == wide.base
    assert all(short.matches_op(m) for m in ("c.mv", "add", "mv"))
    assert short.spelling == ("mv", (A0, A1))


def test_tables_parse_again():
    """The row text parses to the same tables after import: no
    module-level name shadows a function the parse calls."""
    assert decoder._parse(decoder._ROWS32, 38) == decoder._WIDE
    assert decoder._parse(decoder._ROWS16, 23) == decoder._COMPRESSED


@pytest.mark.parametrize("xlen", [32, 64])
def test_a_jump_pops_when_spelled_ret_and_pushes_when_it_links_ra(xlen):
    """The shadow-stack rule of the jump records: over jalr at every rd
    and rs1 and a few offsets, and c.jr and c.jalr at every rs1, a jump
    pops (`is_return`) exactly when `PSEUDOS` spells it ret, and pushes
    exactly when it writes ra."""
    names = [r.name for r in REGISTERS]
    forms = [("jalr", (rd, rs1, off)) for rd in names for rs1 in names
             for off in (0, 2, -2)]
    forms += [(c, (rs1,)) for c in ("c.jr", "c.jalr") for rs1 in names[1:]]
    for mnemonic, ops in forms:
        x = decode_one(assemble(mnemonic, ops, xlen), 0, xlen)
        cf = x.control_flow
        assert cf.is_return == x.matches_op("ret"), x.render()
        assert cf.pushes == (RA in x.regs_written), x.render()


# --- whole-decoder digest ---------------------------------------------------

DIGEST_ADDRESS = 0xFFFF_F000     # forward targets wrap on RV32, not on RV64
DECODER_DIGEST = \
    "d14f92dd059ddb7bd98d6fc16d68588af9eba78fd9363643f9b5f380ea43b371"


_FIELDS = list(DecodedInstruction._fields)
_REG_SETS = [_FIELDS.index("regs_read"), _FIELDS.index("regs_written")]
# Where the digest's lines hold a compressed instruction's base form, then
# the pseudo spelling: the place of a field that held them.
_SPELLED_AT = _FIELDS.index("imm") + 1


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
    spelled = (insn.base,) if insn.width == 2 else ()
    if insn.spelling is not None:
        spelled += (insn.spelling,)
    values.insert(_SPELLED_AT, spelled)
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


# --- dispatch buckets -------------------------------------------------------

def test_buckets_are_listed_on_first_read():
    # A fresh interpreter: importing the command line builds no row index
    # and lists no bucket, and one decode of an RV32 word builds the RV32
    # index of 32-bit rows and lists the one bucket it reads.
    code = ("import rvjop.cli\n"
            "from rvjop import decoder as d\n"
            "sizes = lambda: [len(t[x]) for t in (d._C16, d._C32)"
            " for x in (32, 64)]\n"
            "assert sizes() == [0, 0, 0, 0], sizes()\n"
            "assert d._index.cache_info().currsize == 0\n"
            "d.decode_one(bytes.fromhex('83270400'))\n"
            "assert sizes() == [0, 0, 1, 0], sizes()\n"
            "assert d._index.cache_info().currsize == 1\n"
            "assert list(d._C32[32]) == [0x2003], list(d._C32[32])\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_buckets_list_the_rows_that_agree_with_their_key():
    """Each bucket the digest inputs read lists, in row order, every row
    of its xlen that some encoding with the key's bits can match, then
    the catch-all: checked against a filter written bit by bit."""
    for xlen in (32, 64):
        for data in _digest_inputs():
            try:
                decode_one(data, 0, xlen)
            except (InvalidEncoding, Truncated):
                pass
        for key, buckets, rows in ((0x707F, decoder._C32, decoder._WIDE),
                                   (0xF003, decoder._C16,
                                    decoder._COMPRESSED)):
            for bits, tried in buckets[xlen].items():
                want = [(mask, match, name)
                        for x, mask, match, name, *_ in rows
                        if x in (None, xlen)
                        and all(bits >> b & 1 == match >> b & 1
                                for b in range(16)   # both keys' bits
                                if key >> b & mask >> b & 1)]
                got = [(mask, match, row if type(row) is str else row[0])
                       for mask, match, row in tried]
                assert got == want + [(0, 0, "undefined")], (xlen, hex(bits))
        # every key: 3 quadrants of 16, and 28 opcodes (bits 4..2 not
        # 111) of 8 funct3 values
        assert len(decoder._C16[xlen]) == 48
        assert len(decoder._C32[xlen]) == 224


def test_row_index_lists_the_rows_the_filter_picks():
    """For both widths and XLENs and every value of the key bits (64
    compressed, 1,024 32-bit), the row index lists exactly the rows of
    that XLEN that the filter `not (bits ^ match) & mask & key` picks,
    in row order."""
    for width, key, rows, count in ((4, 0x707F, decoder._WIDE, 1024),
                                    (2, 0xF003, decoder._COMPRESSED, 64)):
        values = [v for v in range(key + 1) if not v & ~key]
        assert len(values) == count
        for xlen in (32, 64):
            index = decoder._index(width, xlen)
            assert set(index) <= set(values)
            for bits in values:
                want = [row for row in rows if row[0] in (None, xlen)
                        and not (bits ^ row[2]) & row[1] & key]
                assert index.get(bits, []) == want, (width, xlen, hex(bits))


# --- llvm-mc golden files ---------------------------------------------------

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

# The same for the compressed golden: every halfword whose low two bits
# are not 11.  llvm 14 accepts the HINTs and RV128 spellings the decoder
# reserves, and spells the rest of the HINTs its own way.
LLVM_DIVERGENCES16 = {
    ("-", "c.slli"): (1024, 0, "shamt[5] = 1 is reserved on RV32; llvm 14 "
                      "takes it"),
    ("-", "c.srli"): (256, 0, "as above"),
    ("-", "c.srai"): (256, 0, "as above"),
    ("-", "c.lui"): (31, 31, "c.lui with immediate 0 is reserved; llvm "
                     "takes it"),
    ("-", "c.mv"): (31, 31, "c.mv and c.add with rd = x0 are HINTs, which "
                    "the decoder rejects; llvm takes them"),
    ("-", "c.add"): (31, 31, "as above"),
    ("-", "c.unimp"): (1, 1, "the all-zero halfword is undefined to the "
                       "decoder; llvm names it c.unimp"),
    ("c.nop", "c.nop"): (63, 63, "llvm prints a c.nop HINT's nonzero "
                         "immediate; the decoder's c.nop has no operand"),
    ("c.slli", "c.slli64"): (32, 32, "shamt 0 is a HINT the decoder takes "
                             "as c.slli; llvm spells it as RV128's "
                             "c.slli64"),
    ("c.srli", "c.srli64"): (8, 8, "as above"),
    ("c.srai", "c.srai64"): (8, 8, "as above"),
}

_LLVM_FENCE_SET = {"unknown": 0, **{
    "".join(c for c, bit in zip("iorw", (8, 4, 2, 1)) if n & bit): n
    for n in range(1, 16)}}


def _llvm_as_rendered(word: int, text: str) -> str:
    """llvm's text for `word` in `render()`'s spelling: jalr's memory
    operand as base and offset, fence sets as numbers, a CSR as the
    number in bits 31..20 (llvm names the CSRs it knows), no sp operand
    in c.addi4spn and c.addi16sp, and c.lui's immediate as the signed
    six bits it holds (llvm writes the 20 bits of its expansion)."""
    name, _, ops = text.partition(" ")
    parts = ops.split(", ") if ops else []
    if name == "jalr":
        off, _, base = parts[1].partition("(")
        parts[1:] = [base[:-1], off]
    elif name == "fence":
        parts = [str(_LLVM_FENCE_SET[p]) for p in parts]
    elif name.startswith("csr"):
        parts[1] = str(word >> 20)
    elif name in ("c.addi4spn", "c.addi16sp"):
        parts.remove("sp")
    elif name == "c.lui":
        parts[1] = str(sext(int(parts[1]), 20))
    return " ".join([name, ", ".join(parts)]).rstrip()


def _llvm_divergences(golden) -> dict:
    """How often the decoder and the llvm text of `golden` part ways, by
    (the decoder's mnemonic, llvm's) and XLEN."""
    text = gzip.decompress(golden.read_bytes()).decode("ascii")
    diverged = {}
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        word, _, texts = line.partition(" ")
        rv32, rv64 = texts.split("|")
        data = bytes.fromhex(word)[::-1]    # the golden writes the number
        for xlen, theirs in ((32, rv32), (64, rv32 if rv64 == "=" else rv64)):
            try:
                ours = decode_one(data, 0, xlen).render()
            except InvalidEncoding:
                ours = "-"
            if theirs != "-":
                theirs = _llvm_as_rendered(int(word, 16), theirs)
            if ours != theirs:
                key = (ours.split(" ")[0], theirs.split(" ")[0])
                counts = diverged.setdefault(key, {32: 0, 64: 0})
                counts[xlen] += 1
    return diverged


def test_llvm_golden():
    """The decoder agrees with llvm-mc on validity, mnemonic and operands
    of every 32-bit opcode x funct3 x funct7 corner and of seeded words,
    but for the classes in LLVM_DIVERGENCES (regenerate with
    `tests/gen_llvm_golden.py decoder`)."""
    assert _llvm_divergences(DECODER_GOLDEN) == {
        key: {32: rv32, 64: rv64}
        for key, (rv32, rv64, _) in LLVM_DIVERGENCES.items()}


def test_llvm_golden16():
    """The decoder agrees with llvm-mc on validity, mnemonic and operands
    of every 16-bit pattern, but for the classes in LLVM_DIVERGENCES16
    (regenerate with `tests/gen_llvm_golden.py compressed`)."""
    assert _llvm_divergences(COMPRESSED_GOLDEN) == {
        key: {32: rv32, 64: rv64}
        for key, (rv32, rv64, _) in LLVM_DIVERGENCES16.items()}


# --- records ----------------------------------------------------------------

def test_records_have_no_instance_dict():
    """Every record of the package is a namedtuple whose instances carry
    no `__dict__`, except the two that cache a summary in theirs."""
    import importlib
    import pkgutil

    import rvjop
    caching = {"DispatcherCandidate", "ChainStep"}
    records = {}
    for info in pkgutil.iter_modules(rvjop.__path__):
        module = importlib.import_module(f"rvjop.{info.name}")
        for name, cls in vars(module).items():
            if (isinstance(cls, type) and issubclass(cls, tuple)
                    and hasattr(cls, "_fields")
                    and cls.__module__ == module.__name__):
                record = cls._make([None] * len(cls._fields))
                records[name] = hasattr(record, "__dict__")
    assert len(records) == 27
    assert {name for name, has in records.items() if has} == caching


def test_no_module_runs_a_loop_at_module_scope():
    """A `for` at module scope binds its loop variables as module
    globals, which a later helper of the same name would silently
    rebind; every module builds its tables inside functions instead."""
    import ast
    import pkgutil

    import rvjop

    def module_scope(body):
        for stmt in body:
            yield stmt
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                for field in ("body", "orelse", "finalbody"):
                    yield from module_scope(getattr(stmt, field, ()))
                for handler in getattr(stmt, "handlers", ()):
                    yield from module_scope(handler.body)

    loops = []
    for info in pkgutil.iter_modules(rvjop.__path__):
        path = Path(rvjop.__path__[0]) / f"{info.name}.py"
        tree = ast.parse(path.read_text(), str(path))
        loops += [f"{info.name}:{stmt.lineno}"
                  for stmt in module_scope(tree.body)
                  if isinstance(stmt, (ast.For, ast.AsyncFor))]
    assert len(list(pkgutil.iter_modules(rvjop.__path__))) >= 12
    assert loops == []
