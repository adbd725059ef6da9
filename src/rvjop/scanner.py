"""Gadget discovery over executable segments.

A gadget is a contiguous run of instructions whose last instruction is an
indirect jump (Return-like included).  Candidate starts are every 2-byte
aligned offset, which is what surfaces gadgets hidden inside the natural
instruction stream of a binary built with the compressed extension.
Gadgets grow backwards from the indirect jumps, which a bit test on the
raw bytes finds, so halfwords far from every jump are never decoded.

Interior instructions must fall through: direct jumps, indirect jumps,
ecall/ebreak, and undecodable bytes all stop the backward extension.
Conditional branches are admitted only when a caller asks for them
(loop-shaped dispatcher bodies need them; plain functional scans do not).
An image keeps one growth that every `extract_gadgets` call reads a view
of.  It grows one interior length at a time: straight gadgets to the
longest request so far, and gadgets through a branch only as far as a
request for branches asked, so no call grows what an earlier one did.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from operator import attrgetter

from .decoder import (_COMPRESSED, _WIDE, CondBranch, DecodedInstruction,
                      DirectJump, decode_one)
from .errors import ToolError
from .image import DecodedSegment, ExecutableImage
from .isa import Register

MAX_GADGET_LEN = 32
GADGET_AT_LIMIT = 64     # instructions `gadget_at` reads before giving up

NATURAL = "natural"
SHIFTED = "shifted"


class Gadget(namedtuple("Gadget", (
        "start",        # int
        "instructions",  # tuple[DecodedInstruction, ...]
        "table",        # DecodedSegment: the decode table the gadget was
                        # read from
        ))):
    # a namedtuple subclass (see `rvjop.decoder`); field types beside them
    __slots__ = ()

    @property
    def alignment(self) -> str:
        """NATURAL when the linear sweep of the gadget's segment visits
        its start, else SHIFTED.  Computed on read: the sweep runs only as
        far as the first read needs, and only for commands that read it."""
        return NATURAL if self.table.natural(self.start) else SHIFTED

    @property
    def terminator(self) -> DecodedInstruction:
        return self.instructions[-1]

    @property
    def interior(self) -> tuple[DecodedInstruction, ...]:
        return self.instructions[:-1]

    @property
    def link_register(self) -> Register:
        """Register the terminator jumps through."""
        return self.terminator.control_flow.base

    @property
    def terminator_links(self) -> bool:
        """True when the terminator is a call: it pushes a shadow stack
        (`rvjop.decoder`'s rule)."""
        return self.terminator.control_flow.pushes

    @property
    def encoding(self) -> bytes:
        """The segment's bytes from start to end: a gadget is one
        contiguous run of its table's instructions."""
        seg = self.table.segment
        return seg.data[self.start - seg.vaddr:self.end - seg.vaddr]

    @property
    def end(self) -> int:
        t = self.terminator
        return t.address + t.width

    def render(self) -> str:
        return "; ".join(i.render() for i in self.instructions)


def _byte_test(rows) -> tuple[int, int, int, int]:
    """A bit test that every encoding of the instruction-table `rows`
    passes, on the bytes of its low halfword: (low byte's mask, its
    match, high byte's mask, its match).  It keeps the fixed bits of the
    halfword on which the rows agree."""
    match = rows[0][2]
    mask = 0xFFFF
    for row in rows:
        mask &= row[1] & ~(row[2] ^ match)
    match &= mask
    return mask & 0xFF, match & 0xFF, mask >> 8, match >> 8


# jalr's row, and the compressed rows that expand to jalr (c.jr, c.jalr)
_JALR = _byte_test([row for row in _WIDE if row[3] == "jalr"])
_C_JALR = _byte_test([row for row in _COMPRESSED
                      if row[6] and row[6][0] == "jalr"])


def terminators(table: DecodedSegment, start: int | None = None,
                end: int | None = None) -> Iterator[DecodedInstruction]:
    """Every indirect jump in the table's segment, in address order; only
    those at addresses in [start, end) when a window is given.

    One bit test per halfword finds the candidates: the fixed bits of
    jalr's row of the instruction table (`_JALR`: opcode, funct3 0) or
    those that c.jr's and c.jalr's rows share (`_C_JALR`: quadrant 2,
    funct4 100-, rs2 zero, which c.ebreak passes too), done a byte at a
    time.  Every indirect jump passes it, and only the halfwords that
    pass are decoded.
    """
    data, base = table.segment.data, table.segment.vaddr
    lo = 0 if start is None else max(0, start - base + 1) & ~1
    hi = len(data) - 1 if end is None else min(len(data) - 1, end - base)
    m0, v0, m1, v1 = _JALR
    n0, w0, n1, w1 = _C_JALR
    for off in range(lo, hi, 2):
        low = data[off]
        if (low & m0 == v0 and data[off + 1] & m1 == v1
                or low & n0 == w0 and data[off + 1] & n1 == w1):
            insn = table.at(base + off)
            if insn is not None and insn.is_terminator:
                yield insn


def extract_gadgets(image: ExecutableImage, max_len: int = 4,
                    branches: bool = False) -> list[Gadget]:
    """Gadgets of at most `max_len` interior instructions, through
    conditional branches only when `branches`, by start.  Each length a
    terminator grows backwards to is its own gadget."""
    if not 0 <= max_len <= MAX_GADGET_LEN:
        raise ValueError(f"max_len must be in [0, {MAX_GADGET_LEN}]")
    if image.growth is None:
        image.growth = _Growth(image)
    return image.growth.view(max_len, branches)


class _Growth:
    """Every terminator's backward tree in one image, grown one interior
    length at a time.  `levels[n]` pairs the straight gadgets of n
    interior instructions with those through a conditional branch, and
    the branched lists are complete up to length `branched`.  A new level
    probes the straight level below: a fall-through predecessor makes a
    straight gadget and a branch a branched one, so nothing waits.  Only
    a request for branches grows the branched lists, level by level, from
    every predecessor of the branched level below."""
    __slots__ = ("levels", "branched")

    def __init__(self, image: ExecutableImage):
        self.levels = [([Gadget(t.address, (t,), table)
                         for table in image.decode_table.values()
                         for t in terminators(table)], [])]
        self.branched = 0            # no branched gadget has length 0

    def view(self, max_len: int, branches: bool) -> list[Gadget]:
        levels = self.levels
        while len(levels) <= max_len:
            straight, branched = [], []
            for g in levels[-1][0]:
                for p in _predecessors(g):
                    cf = p.instructions[0].control_flow
                    (straight if cf is None else branched).append(p)
            levels.append((straight, branched))
        if branches:
            for n in range(self.branched + 1, max_len + 1):
                levels[n][1].extend(p for g in levels[n - 1][1]
                                    for p in _predecessors(g))
            self.branched = max(self.branched, max_len)
        # Decoding forward from a start is deterministic, so a start
        # begins at most one gadget: its start alone orders the view.
        out = [g for level in levels[:max_len + 1]
               for run in level[:2 if branches else 1] for g in run]
        out.sort(key=attrgetter("start"))
        return out


def _predecessors(g: Gadget) -> Iterator[Gadget]:
    """`g` grown by one instruction: a 2-byte and a 4-byte one can both
    end at its start, and each must fall through or be a conditional
    branch."""
    for width in (2, 4):
        insn = g.table.at(g.start - width)
        if insn is not None and insn.width == width and (
                insn.control_flow is None
                or isinstance(insn.control_flow, CondBranch)):
            yield Gadget(insn.address, (insn,) + g.instructions, g.table)


def dedupe(gadgets: list[Gadget]) -> list[Gadget]:
    """Collapse byte-identical gadgets, keeping the lowest address."""
    best: dict[bytes, Gadget] = {}
    for g in gadgets:
        key = g.encoding
        cur = best.get(key)
        if cur is None or g.start < cur.start:
            best[key] = g
    return sorted(best.values(), key=lambda g: g.start)


def gadget_at(image: ExecutableImage, address: int) -> Gadget:
    """Materialize the gadget that runs from `address` to its terminator.

    This is execution-order decoding for chain steps: interior syscalls
    and branches are allowed here because they simply execute; only the
    first indirect jump ends the sequence.
    """
    seg = image.segment_containing(address)
    if seg is None or not seg.executable:
        raise ToolError(f"0x{address:x} is not in an executable segment")
    if (address - seg.vaddr) & 1:
        raise ToolError(f"0x{address:x} is misaligned: RISC-V code starts "
                        f"at even offsets from its segment base")
    table = image.decode_table[seg.vaddr]
    chain = []
    addr = address
    for _ in range(GADGET_AT_LIMIT):
        insn = table.at(addr)
        if insn is None:
            # Decode again only to raise the decoder's own error.
            off = addr - seg.vaddr
            insn = decode_one(seg.data[off:off + 4], addr, image.xlen)
        chain.append(insn)
        if insn.is_terminator:
            return Gadget(address, tuple(chain), table)
        if isinstance(insn.control_flow, DirectJump):
            raise ToolError(
                f"direct jump at 0x{addr:x} before any indirect terminator")
        addr += insn.width
    raise ToolError(f"no terminator within {GADGET_AT_LIMIT} instructions "
                    f"of 0x{address:x}")
