"""Executable image loading: ELF program headers or flat binary blobs.

Only program headers matter here; section headers are ignored entirely
(scanning operates on what gets mapped, not on link-time metadata).
Little-endian images only.  Segments are kept byte-exact: a segment's
`data` holds the same bytes the file supplied, padded with zeros where
its memory size exceeds its file size.

Each executable segment has a decode table that every static analysis
reads (gadget growth, linear sweep, dispatcher search).  A halfword is
decoded on first read, at most once per image, so a command that names
one address reads only around it, and a whole-image scan reads only the
indirect jumps and what backward growth probes around them.  The image
keeps that growth too, so every analysis of it reads one growth.  The
interpreter does not use the table: it decodes live memory, which a
payload may overwrite.

Loading an image decodes nothing, so this module does not import the
decoder: it loads with the first decode table.  A table reads
`decode_one` through the decoder module on every decode, so whatever
that name is bound to at the time (a tracer's wrapper, say) is what runs.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from functools import cached_property

from .errors import (InvalidEncoding, MalformedImage, NotElf, Truncated,
                     WrongMachine)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .decoder import DecodedInstruction

_EM_RISCV = 243
_PT_LOAD = 1
_PF_X = 1

# Bytes of zero fill (memsz beyond filesz) one image may ask for in all:
# a header of a hundred bytes could otherwise ask for gigabytes.
MAX_ZERO_FILL = 64 << 20


class Segment(namedtuple("Segment", (
        "vaddr",        # int
        "data",         # bytes
        "executable",   # bool
        ))):
    # a namedtuple subclass (see `rvjop.decoder`); field types beside them
    __slots__ = ()

    @property
    def end(self) -> int:
        return self.vaddr + len(self.data)


# Marks a halfword of a decode table not decoded yet.
_PENDING = object()


class DecodedSegment:
    """One executable segment's decode table, filled on first read.

    `at` decodes a halfword the first time it is read and keeps the
    result, so no halfword is decoded twice.  The linear sweep advances
    only as far as a `natural` query needs.  Nothing decodes the whole
    segment: whole-image analyses find their indirect jumps by a bit test
    on the raw bytes (`scanner.terminators`) and read around them.
    """
    __slots__ = ("segment", "xlen", "_table", "_size", "_swept",
                 "_sweep_off", "_decoder")

    def __init__(self, segment: Segment, xlen: int):
        from . import decoder
        self._decoder = decoder
        self.segment = segment
        self.xlen = xlen
        n = len(segment.data) >> 1
        self._table: list = [_PENDING] * n  # one per halfword
        self._size = 2 * n
        self._swept: set[int] = set()
        self._sweep_off = 0                 # next offset the sweep visits

    def at(self, address: int) -> DecodedInstruction | None:
        """The instruction at `address`; None where the bytes do not
        decode, outside the segment, or an odd number of bytes in."""
        off = address - self.segment.vaddr
        # Bound explicitly: a negative index would wrap to the tail.
        if off & 1 or not 0 <= off < self._size:
            return None
        insn = self._table[off >> 1]
        return self._decode(off) if insn is _PENDING else insn

    def _decode(self, off: int) -> DecodedInstruction | None:
        """Decode the halfword at even offset `off` and keep the result."""
        try:
            insn = self._decoder.decode_one(self.segment.data[off:off + 4],
                                            self.segment.vaddr + off,
                                            self.xlen)
        except (InvalidEncoding, Truncated):
            insn = None
        self._table[off >> 1] = insn
        return insn

    def natural(self, address: int) -> bool:
        """True when a linear sweep from the segment start visits
        `address`: step by each instruction's width; on bytes that do
        not decode, skip one halfword and resync."""
        base = self.segment.vaddr
        stop = min(address - base, len(self.segment.data) - 1)
        off = self._sweep_off
        if off <= stop:
            table, size, swept = self._table, self._size, self._swept
            while off <= stop:
                swept.add(base + off)
                insn = table[off >> 1] if off < size else None
                if insn is _PENDING:
                    insn = self._decode(off)
                off += 2 if insn is None else insn.width
            self._sweep_off = off
        return address in self._swept


class ExecutableImage:
    def __init__(self, segments: tuple[Segment, ...], xlen: int):
        last_end = None
        for seg in segments:
            if last_end is not None and seg.vaddr < last_end:
                raise MalformedImage(
                    f"overlapping segments at 0x{seg.vaddr:x}")
            last_end = seg.end
        self.segments = segments
        self.xlen = xlen
        self.growth = None      # the scanner's, made by its first extraction

    @property
    def executable_segments(self) -> tuple[Segment, ...]:
        return tuple(s for s in self.segments if s.executable)

    @cached_property
    def decode_table(self) -> dict[int, DecodedSegment]:
        """Decoded executable segments keyed by start address, built on
        first use and shared by every analysis of this image."""
        return {seg.vaddr: DecodedSegment(seg, self.xlen)
                for seg in self.executable_segments}

    def segment_containing(self, address: int) -> Segment | None:
        for seg in self.segments:
            if seg.vaddr <= address < seg.end:
                return seg
        return None


def _segments_sorted(segs: list[Segment]) -> tuple[Segment, ...]:
    return tuple(sorted(segs, key=lambda s: s.vaddr))


def load_elf(path: str) -> ExecutableImage:
    with open(path, "rb") as fh:
        blob = fh.read()
    return parse_elf(blob)


def parse_elf(blob: bytes) -> ExecutableImage:
    if len(blob) < 16 or blob[:4] != b"\x7fELF":
        raise NotElf("missing ELF magic")
    ei_class, ei_data = blob[4], blob[5]
    if ei_class not in (1, 2):
        raise MalformedImage(f"bad EI_CLASS {ei_class}")
    if ei_data != 1:
        raise MalformedImage("big-endian ELF not supported")
    xlen = 32 if ei_class == 1 else 64

    try:
        if xlen == 32:
            (e_machine, e_phoff, e_phentsize, e_phnum) = (
                struct.unpack_from("<H", blob, 18)[0],
                struct.unpack_from("<I", blob, 28)[0],
                struct.unpack_from("<H", blob, 42)[0],
                struct.unpack_from("<H", blob, 44)[0])
        else:
            (e_machine, e_phoff, e_phentsize, e_phnum) = (
                struct.unpack_from("<H", blob, 18)[0],
                struct.unpack_from("<Q", blob, 32)[0],
                struct.unpack_from("<H", blob, 54)[0],
                struct.unpack_from("<H", blob, 56)[0])
    except struct.error:
        raise MalformedImage("ELF header truncated") from None

    if e_machine != _EM_RISCV:
        raise WrongMachine(f"e_machine {e_machine}, expected {_EM_RISCV}")

    min_phentsize = 32 if xlen == 32 else 56
    if e_phnum and e_phentsize < min_phentsize:
        raise MalformedImage(f"e_phentsize {e_phentsize} too small")

    segs: list[Segment] = []
    zero_fill = 0
    for i in range(e_phnum):
        off = e_phoff + i * e_phentsize
        # Bound the header before reading it: an offset of 2**63 or more
        # does not fit the index `unpack_from` takes.
        if off + min_phentsize > len(blob):
            raise MalformedImage(f"program header {i} truncated")
        if xlen == 32:
            p_type, p_offset, p_vaddr, _paddr, p_filesz, p_memsz, p_flags, _al = \
                struct.unpack_from("<8I", blob, off)
        else:
            p_type, p_flags, p_offset, p_vaddr, _paddr, p_filesz, p_memsz, _al = \
                struct.unpack_from("<2I6Q", blob, off)
        if p_type != _PT_LOAD:
            continue
        if p_offset + p_filesz > len(blob):
            raise MalformedImage(f"segment {i} file range exceeds file size")
        if p_memsz < p_filesz:
            raise MalformedImage(f"segment {i} memsz smaller than filesz")
        if p_vaddr + p_memsz > 1 << xlen:
            raise MalformedImage(
                f"segment {i} runs past the {xlen}-bit address space")
        zero_fill += p_memsz - p_filesz
        if zero_fill > MAX_ZERO_FILL:
            raise MalformedImage(
                f"segment {i} brings the zero fill to {zero_fill} bytes, "
                f"over the {MAX_ZERO_FILL}-byte limit")
        data = blob[p_offset:p_offset + p_filesz] + bytes(p_memsz - p_filesz)
        segs.append(Segment(vaddr=p_vaddr, data=data,
                            executable=bool(p_flags & _PF_X)))

    return ExecutableImage(segments=_segments_sorted(segs), xlen=xlen)


def load_raw(path: str, base: int, xlen: int) -> ExecutableImage:
    """Map a flat file as one executable segment at `base`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    return from_bytes(blob, base, xlen)


def from_bytes(blob: bytes, base: int, xlen: int) -> ExecutableImage:
    """Wrap a byte blob as a single-segment executable image."""
    if xlen not in (32, 64):
        raise MalformedImage(f"xlen must be 32 or 64, got {xlen}")
    seg = Segment(vaddr=base, data=bytes(blob), executable=True)
    return ExecutableImage(segments=(seg,), xlen=xlen)
