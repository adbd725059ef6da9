"""Image loading: ELF parsing, raw blobs, segment reads."""

import random
import struct
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rvjop.image
from rvjop.cli import main
from rvjop.decoder import decode_one
from rvjop.errors import (InvalidEncoding, MalformedImage, NotElf, ToolError,
                          Truncated, WrongMachine)
from rvjop.image import ExecutableImage, from_bytes, load_raw, parse_elf
from rvjop.scanner import terminators

from conftest import (PF_R, PF_W, PF_X, build_adg_fixture, make_elf,
                      make_huge_segment_elf64, make_zero_fill_elf)

CODE = bytes.fromhex("6780000073000000")      # ret; ecall
DATA = b"just data, not code....."


def test_parse_elf32():
    blob = make_elf([(0x10000, CODE, PF_R | PF_X),
                     (0x20000, DATA, PF_R | PF_W)], xlen=32, entry=0x10000)
    img = parse_elf(blob)
    assert img.xlen == 32
    assert len(img.segments) == 2
    assert [s.executable for s in img.segments] == [True, False]
    assert img.segment_containing(0x10000).data == CODE
    assert img.segment_containing(0x20000).data == DATA


def test_parse_elf64():
    blob = make_elf([(0x10000, CODE, PF_R | PF_X)], xlen=64, entry=0x10000)
    img = parse_elf(blob)
    assert img.xlen == 64
    assert [s.executable for s in img.segments] == [True]


def test_executable_segments_filter():
    blob = make_elf([(0x10000, CODE, PF_R | PF_X),
                     (0x20000, DATA, PF_R)], xlen=32)
    img = parse_elf(blob)
    assert [s.vaddr for s in img.executable_segments] == [0x10000]


def test_not_elf():
    with pytest.raises(NotElf):
        parse_elf(b"MZ\x90\x00" + bytes(60))
    with pytest.raises(NotElf):
        parse_elf(b"\x7fELF")                # too short for a header


def test_wrong_machine():
    blob = make_elf([(0x10000, CODE, PF_R | PF_X)], xlen=32, machine=62)
    with pytest.raises(WrongMachine):
        parse_elf(blob)


@pytest.mark.parametrize("xlen, header_end", [(32, 46), (64, 58)])
def test_header_truncation_offsets(xlen, header_end):
    # e_phnum is the last header field read; a file that stops anywhere
    # before its end has a truncated header, one that holds it does not.
    blob = make_elf([(0x10000, CODE, PF_R | PF_X)], xlen=xlen)
    for size in range(16, header_end):
        with pytest.raises(MalformedImage, match="ELF header truncated"):
            parse_elf(blob[:size])
    with pytest.raises(MalformedImage, match="program header 0 truncated"):
        parse_elf(blob[:header_end])


@pytest.mark.parametrize("top", [0x7F, 0x80])
def test_program_header_offset_past_the_file(top):
    # e_phoff's top byte (byte 39 of an ELF64 header): from 0x80 on the
    # offset is 2**63 or more, past any index
    blob = bytearray(make_elf([(0x10000, CODE, PF_R | PF_X)], xlen=64))
    blob[39] = top
    with pytest.raises(MalformedImage, match="program header 0 truncated"):
        parse_elf(bytes(blob))


@pytest.mark.parametrize("xlen", [32, 64])
def test_mutated_elf_raises_only_tool_errors(monkeypatch, xlen):
    """`parse_elf` on a small ELF with bytes overwritten and its tail cut
    off returns an image or raises a ToolError, nothing else."""
    # a mutated memsz may ask for zero fill: keep each draw's small
    monkeypatch.setattr(rvjop.image, "MAX_ZERO_FILL", 1 << 16)
    blob = make_elf([(0x10000, CODE, PF_R | PF_X),
                     (0x20000, DATA, PF_R | PF_W)], xlen=xlen)
    byte = st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(byte, max_size=6), st.integers(0, len(blob)))
    @example([(39, 0x80)], len(blob))
    def check(edits, size):
        mutated = bytearray(blob)
        for at, value in edits:
            mutated[at] = value
        try:
            parse_elf(bytes(mutated[:size]))
        except ToolError:
            pass

    check()


def test_big_endian_rejected():
    blob = bytearray(make_elf([(0x10000, CODE, PF_R | PF_X)], xlen=32))
    blob[5] = 2                              # EI_DATA = big endian
    with pytest.raises(MalformedImage):
        parse_elf(bytes(blob))


def test_filesz_beyond_file_rejected():
    blob = bytearray(make_elf([(0x10000, CODE, PF_R | PF_X)], xlen=32))
    # p_filesz for ELF32 phdr 0 sits at offset 52 + 16
    blob[52 + 16:52 + 20] = (0x10000).to_bytes(4, "little")
    with pytest.raises(MalformedImage):
        parse_elf(bytes(blob))


def test_memsz_zero_fill():
    blob = bytearray(make_elf([(0x10000, CODE, PF_R | PF_X)], xlen=32))
    # grow p_memsz beyond p_filesz: the tail must read as zeros
    blob[52 + 20:52 + 24] = (len(CODE) + 8).to_bytes(4, "little")
    img = parse_elf(bytes(blob))
    assert img.segment_containing(0x10000).data == CODE + bytes(8)


def test_memsz_below_filesz_rejected():
    blob = bytearray(make_elf([(0x10000, CODE, PF_R | PF_X)], xlen=32))
    blob[52 + 20:52 + 24] = (2).to_bytes(4, "little")
    with pytest.raises(MalformedImage):
        parse_elf(bytes(blob))


def test_segment_past_address_space_rejected():
    with pytest.raises(MalformedImage, match="address space"):
        parse_elf(make_huge_segment_elf64(CODE))


def test_zero_fill_over_64_mib_rejected():
    with pytest.raises(MalformedImage, match="segment 1 .* zero fill"):
        parse_elf(make_zero_fill_elf((64 << 20) + 4096))


def test_zero_fill_of_4_gib_rejected_before_allocating():
    blob = make_zero_fill_elf(0xFFF0_0000)
    tracemalloc.start()
    try:
        with pytest.raises(MalformedImage, match="zero fill"):
            parse_elf(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_zero_fill_of_1_mib_loads():
    img = parse_elf(make_zero_fill_elf(1 << 20))
    seg = img.segments[1]
    assert len(seg.data) == 4 + (1 << 20)
    assert seg.data[-8:] == bytes(8)


def test_from_bytes_and_load_raw(tmp_path):
    img = from_bytes(CODE, 0x400, 32)
    assert img.segments[0].executable
    assert img.segments[0].data == CODE
    p = tmp_path / "blob.bin"
    p.write_bytes(CODE)
    img2 = load_raw(str(p), 0x400, 32)
    assert img2.segments[0].data == CODE


@pytest.mark.parametrize("xlen", [0, 16, 48, 128])
def test_raw_loaders_refuse_other_xlens(tmp_path, xlen):
    """An XLEN the decoder has no tables for is a MalformedImage from
    either raw loader, not a ValueError at the first decode."""
    with pytest.raises(MalformedImage, match=f"xlen must be 32 or 64, "
                                             f"got {xlen}"):
        from_bytes(CODE, 0, xlen)
    p = tmp_path / "blob.bin"
    p.write_bytes(CODE)
    with pytest.raises(MalformedImage, match=f"got {xlen}"):
        load_raw(str(p), 0, xlen)


def test_segment_containing_and_byte_at():
    img = from_bytes(CODE, 0x400, 32)
    assert img.segment_containing(0x400).vaddr == 0x400
    assert img.segment_containing(0x399) is None
    assert img.segment_containing(0x400 + len(CODE)) is None


def test_overlapping_segments_rejected():
    blob = make_elf([(0x10000, CODE, PF_R | PF_X),
                     (0x10004, DATA, PF_R)], xlen=32)
    with pytest.raises(MalformedImage):
        parse_elf(blob)


# --- the decode table: filled on first read ---------------------------------

def _eager_table(seg, xlen):
    """Reference: every halfword decoded up front, then the sweep walk."""
    slots = []
    for off in range(0, len(seg.data) - 1, 2):
        try:
            slots.append(decode_one(seg.data[off:off + 4], seg.vaddr + off,
                                    xlen))
        except (InvalidEncoding, Truncated):
            slots.append(None)
    sweep = set()
    off = 0
    while off < len(seg.data):
        sweep.add(seg.vaddr + off)
        insn = slots[off >> 1] if off >> 1 < len(slots) else None
        off += 2 if insn is None else insn.width
    return tuple(slots), frozenset(sweep)


def _random_code(rng, n):
    """Mostly plausible code: compressed halfwords, 32-bit words (low bits
    0b11) and raw bytes, many of which do not decode."""
    out = bytearray()
    while len(out) < n:
        pick = rng.random()
        if pick < 0.4:
            out += rng.getrandbits(16).to_bytes(2, "little")
        elif pick < 0.9:
            out += (rng.getrandbits(32) | 3).to_bytes(4, "little")
        else:
            out += bytes([0xFF, 0xFF])       # no valid encoding
    return bytes(out[:n])


def _lazy_images():
    rng = random.Random(20231)
    for xlen in (32, 64):
        for n in (0, 1, 2, 3, 7, 64, 301):
            yield f"rv{xlen}-{n}", from_bytes(_random_code(rng, n), 0x1000,
                                              xlen)
        # a 32-bit instruction cut off after its first halfword
        yield (f"rv{xlen}-truncated",
               from_bytes(_random_code(rng, 40) + b"\x13\x05", 0x1000, xlen))
    blob = make_elf([(0x10000, _random_code(rng, 123), PF_R | PF_X),
                     (0x20000, DATA, PF_R | PF_W),
                     (0x30000, _random_code(rng, 90) + b"\x13\x05",
                      PF_R | PF_X)], xlen=64)
    yield "elf-two-segments", parse_elf(blob)


@pytest.mark.parametrize("name,img", list(_lazy_images()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_decode_table_matches_eager_reference(decode_log, name, img):
    rng = random.Random(name)
    assert len(img.decode_table) == len(img.executable_segments)
    for seg in img.executable_segments:
        table = img.decode_table[seg.vaddr]
        want_slots, want_sweep = _eager_table(seg, img.xlen)
        probe = range(seg.vaddr - 4, seg.end + 5)
        # the sweep first, high address then low, before any slot is read
        hi, lo = seg.vaddr + len(seg.data) // 2 + 1, seg.vaddr
        for a in (hi, hi - 1, lo):
            assert table.natural(a) == (a in want_sweep)
        order = list(probe)
        rng.shuffle(order)
        for a in order:
            off = a - seg.vaddr
            want = want_slots[off >> 1] \
                if off % 2 == 0 and 0 <= off >> 1 < len(want_slots) else None
            assert table.at(a) == want, hex(a)
        rng.shuffle(order)
        for a in order:
            assert table.natural(a) == (a in want_sweep), hex(a)
    counts = Counter(decode_log)
    assert all(v == 1 for v in counts.values())
    assert set(counts) == {seg.vaddr + off for seg in img.executable_segments
                           for off in range(0, len(seg.data) - 1, 2)}


def _with_jumps(img, rng):
    """`img` with indirect jumps, and halfwords that only look like one
    (jalr with a nonzero funct3, c.mv), written over a quarter of its
    code, and the first half of a jalr cut off at the end of each
    executable segment."""
    def jump_like():
        hw = rng.getrandbits(16)
        return rng.choice(((hw & ~0x707F) | 0x0067,     # jalr
                           (hw & ~0x707F) | 0x1067,     # funct3 1: invalid
                           (hw & ~0xE07F) | 0x8002,     # c.jr/c.jalr/c.ebreak
                           (hw & ~0xE003) | 0x8002))    # c.mv, c.add, ...
    segs = []
    for seg in img.segments:
        data = bytearray(seg.data)
        if seg.executable and len(data) >= 2:
            for off in range(0, len(data) - 1, 2):
                if rng.random() < 0.25:
                    data[off:off + 2] = jump_like().to_bytes(2, "little")
            last = (len(data) - 2) & ~1
            data[last:last + 2] = (0x8067).to_bytes(2, "little")
        segs.append(seg._replace(data=bytes(data)))
    return ExecutableImage(tuple(segs), img.xlen)


@pytest.mark.parametrize("name,img", list(_lazy_images()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_terminators_match_eager_reference(decode_log, name, img):
    rng = random.Random(name)
    img = _with_jumps(img, rng)
    for seg in img.executable_segments:
        want_slots, _ = _eager_table(seg, img.xlen)
        want = [i for i in want_slots if i is not None and i.is_terminator]
        table = img.decode_table[seg.vaddr]
        got = list(terminators(table))
        assert got == want
        if len(seg.data) >= 64:
            assert want
        # the cut-off jalr at the end is read, and is no terminator
        if len(seg.data) >= 2:
            assert seg.vaddr + ((len(seg.data) - 2) & ~1) in decode_log
    assert len(decode_log) == len(set(decode_log))


def test_decode_table_reads_only_what_is_asked(decode_log):
    code = bytes.fromhex("13051500") * 64    # addi a0, a0, 1
    table = from_bytes(code, 0x1000, 32).decode_table[0x1000]
    assert table.at(0x1080) is not None
    assert decode_log == [0x1080]
    assert table.natural(0x1008)
    assert not table.natural(0x100a)
    # the sweep stops once it passes the query; 0x100a is mid-instruction
    assert decode_log == [0x1080, 0x1000, 0x1004, 0x1008]
    assert not table.natural(0x1100)       # past the end: the whole sweep
    assert sorted(decode_log) == list(range(0x1000, 0x1100, 4))


# --- program headers other than PT_LOAD -------------------------------------

PT_LOAD, PT_NOTE = 1, 4
PT_GNU_STACK, PT_RISCV_ATTRIBUTES = 0x6474E551, 0x70000003
OTHER_HEADERS = (PT_NOTE, PT_GNU_STACK, PT_RISCV_ATTRIBUTES)


def elf_with_headers(code: bytes, xlen: int, before=(), after=()) -> bytes:
    """An ELF whose one R+X PT_LOAD segment holds `code` at 0x10000,
    behind program headers of the types `before` and ahead of those of
    the types `after`.  Each other header covers a 16-byte blob after the
    code, as a note or attributes section would."""
    ehsize, phentsize = (52, 32) if xlen == 32 else (64, 56)
    types = [*before, PT_LOAD, *after]
    ident = bytes([0x7F, 0x45, 0x4C, 0x46, xlen // 32, 1, 1, 0]) + bytes(8)
    word = "I" if xlen == 32 else "Q"
    ehdr = ident + struct.pack(f"<HHI{word}{word}{word}IHHHHHH", 2, 243, 1,
                               0x10000, ehsize, 0, 0, ehsize, phentsize,
                               len(types), 0, 0, 0)
    code_off = ehsize + phentsize * len(types)
    extra_off = code_off + len(code)
    phdrs = []
    for t in types:
        off, vaddr, size, flags = ((code_off, 0x10000, len(code), PF_R | PF_X)
                                   if t == PT_LOAD else
                                   (extra_off, 0, 16, PF_R))
        if xlen == 32:
            phdrs.append(struct.pack("<8I", t, off, vaddr, vaddr, size, size,
                                     flags, 4))
        else:
            phdrs.append(struct.pack("<2I6Q", t, flags, off, vaddr, vaddr,
                                     size, size, 8))
    return ehdr + b"".join(phdrs) + code + bytes(range(16))


@pytest.mark.parametrize("xlen", [32, 64])
@pytest.mark.parametrize("before, after", [
    (OTHER_HEADERS, ()), ((), OTHER_HEADERS),
    ((PT_NOTE,), (PT_GNU_STACK, PT_RISCV_ATTRIBUTES))])
def test_other_program_headers_scan_like_none(capsys, tmp_path, xlen,
                                              before, after):
    code = build_adg_fixture(xlen)[0].segments[0].data
    outs = []
    for name, blob in (("plain", elf_with_headers(code, xlen)),
                       ("other", elf_with_headers(code, xlen, before, after))):
        img = parse_elf(blob)
        assert [(s.vaddr, s.data, s.executable) for s in img.segments] == [
            (0x10000, code, True)]
        path = tmp_path / f"{name}.elf"
        path.write_bytes(blob)
        for argv in (["scan"], ["dispatchers"]):
            status = main(argv + ["--binary", str(path)])
            captured = capsys.readouterr()
            outs.append((status, captured.out, captured.err))
    assert outs[:2] == outs[2:]
    assert outs[0][0] == 0 and outs[1][1].startswith("0x00010000 ")


@pytest.mark.parametrize("xlen", [32, 64])
@pytest.mark.parametrize("field, value, message", [
    (4, b"\x03", "bad EI_CLASS 3"),
    (None, b"\x10\x00", "e_phentsize 16 too small")])
def test_bad_class_and_short_phentsize_exit_3(capsys, tmp_path, xlen, field,
                                              value, message):
    blob = bytearray(make_elf([(0x10000, CODE, PF_R | PF_X)], xlen=xlen))
    at = field if field is not None else (42 if xlen == 32 else 54)
    blob[at:at + len(value)] = value
    path = tmp_path / "bad.elf"
    path.write_bytes(bytes(blob))
    assert main(["scan", "--binary", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"rvjop: {message}\n"
