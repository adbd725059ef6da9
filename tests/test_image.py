"""Image loading: ELF parsing, raw blobs, segment reads."""

import tracemalloc

import pytest

from rvjop.errors import MalformedImage, NotElf, OutOfRange, WrongMachine
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
