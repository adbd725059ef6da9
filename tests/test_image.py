"""Image loading: ELF parsing, raw blobs, segment reads."""

import random
import tracemalloc
from collections import Counter

import pytest

import rvjop.image
from rvjop.decoder import decode_one
from rvjop.errors import (InvalidEncoding, MalformedImage, NotElf, OutOfRange,
                          Truncated, WrongMachine)
from rvjop.image import from_bytes, load_raw, parse_elf

from conftest import (PF_R, PF_W, PF_X, make_elf, make_huge_segment_elf64,
                      make_zero_fill_elf)

CODE = bytes.fromhex("6780000073000000")      # ret; ecall
DATA = b"just data, not code....."


def test_parse_elf32():
    blob = make_elf([(0x10000, CODE, PF_R | PF_X),
                     (0x20000, DATA, PF_R | PF_W)], xlen=32, entry=0x10000)
    img = parse_elf(blob)
    assert img.xlen == 32
    assert img.entry_point == 0x10000
    assert len(img.segments) == 2
    assert [s.executable for s in img.segments] == [True, False]
    assert img.read(0x10000, 4) == CODE[:4]
    assert img.read(0x20000, 4) == DATA[:4]


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
    assert img.read(0x10000 + len(CODE), 8) == bytes(8)


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
    assert img.read(seg.end - 8, 8) == bytes(8)


def test_from_bytes_and_load_raw(tmp_path):
    img = from_bytes(CODE, 0x400, 32)
    assert img.segments[0].executable
    assert img.read(0x400, 8) == CODE
    p = tmp_path / "blob.bin"
    p.write_bytes(CODE)
    img2 = load_raw(str(p), 0x400, 32)
    assert img2.read(0x400, 8) == CODE


def test_read_rejects_cross_segment_and_holes():
    blob = make_elf([(0x10000, CODE, PF_R | PF_X),
                     (0x10010, DATA, PF_R)], xlen=32)
    img = parse_elf(blob)
    with pytest.raises(OutOfRange):
        img.read(0x10000 + len(CODE) - 2, 4)  # runs off the segment
    with pytest.raises(OutOfRange):
        img.read(0x50000, 1)


def test_segment_containing_and_byte_at():
    img = from_bytes(CODE, 0x400, 32)
    assert img.segment_containing(0x400).vaddr == 0x400
    assert img.segment_containing(0x399) is None
    assert img.byte_at(0x400) == CODE[0]


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


@pytest.fixture
def decode_log(monkeypatch):
    """Addresses the decode table decodes, in call order."""
    log = []

    def counted(data, address, xlen):
        log.append(address)
        return decode_one(data, address, xlen)

    monkeypatch.setattr(rvjop.image, "decode_one", counted)
    return log


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
        assert table.slots == want_slots
    counts = Counter(decode_log)
    assert all(v == 1 for v in counts.values())
    assert set(counts) == {seg.vaddr + off for seg in img.executable_segments
                           for off in range(0, len(seg.data) - 1, 2)}


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
