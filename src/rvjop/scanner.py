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
of, widened only where a call asks for more than earlier calls grew.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator, NamedTuple

from .decoder import (CondBranch, DecodedInstruction, DirectJump,
                      decode_one)
from .errors import ToolError
from .image import DecodedSegment, ExecutableImage
from .isa import RA, Register

MAX_GADGET_LEN = 32

NATURAL = "natural"
SHIFTED = "shifted"


class Gadget(NamedTuple):
    start: int
    instructions: tuple[DecodedInstruction, ...]
    table: DecodedSegment    # the decode table the gadget was read from

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
        """True when the terminator writes ra (a jalr-style call)."""
        return self.terminator.control_flow.link is RA

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


def terminators(table: DecodedSegment, start: int | None = None,
                end: int | None = None) -> Iterator[DecodedInstruction]:
    """Every indirect jump in the table's segment, in address order; only
    those at addresses in [start, end) when a window is given.

    One bit test per halfword finds the candidates: `hw & 0x707F ==
    0x0067` (jalr: opcode, funct3 0) or `hw & 0xE07F == 0x8002` (c.jr,
    c.jalr, c.ebreak: quadrant 2, rs2 zero, funct3 100), done a byte at a
    time.  Every indirect jump passes it, and only the halfwords that pass
    are decoded.
    """
    data, base = table.segment.data, table.segment.vaddr
    lo = 0 if start is None else max(0, start - base + 1) & ~1
    hi = len(data) - 1 if end is None else min(len(data) - 1, end - base)
    for off in range(lo, hi, 2):
        low = data[off] & 0x7F
        if (low == 0x67 and not data[off + 1] & 0x70
                or low == 0x02 and data[off + 1] & 0xE0 == 0x80):
            insn = table.at(base + off)
            if insn is not None and insn.is_terminator:
                yield insn


def extract_gadgets(image: ExecutableImage, max_len: int = 4,
                    branches: bool = False) -> list[Gadget]:
    """Gadgets of at most `max_len` interior instructions, through
    conditional branches only when `branches`, by start then length.
    Each terminator grows backwards: a predecessor is kept when its bytes
    decode to a fall-through instruction whose width lands exactly on
    the current start, and every prefix length is its own gadget."""
    if not 0 <= max_len <= MAX_GADGET_LEN:
        raise ValueError(f"max_len must be in [0, {MAX_GADGET_LEN}]")
    if image.growth is None:
        image.growth = _Growth(image)
    return image.growth.view(max_len, branches)


class _Growth:
    """Every terminator's backward tree in one image, grown as far as the
    widest request so far.  `found[k][n]` lists the gadgets of n interior
    instructions, straight (k = 0) or through a conditional branch
    (k = 1); kind k is grown to `depth[k]`, where a longer request resumes
    (depth[1] never passes depth[0]: branches come with straight gadgets).
    `waiting[n]` pairs each probed branch predecessor whose n-instruction
    gadget no request has admitted yet with the gadget it precedes.
    """
    __slots__ = ("depth", "found", "waiting")

    def __init__(self, image: ExecutableImage):
        self.depth = [0, 0]          # no branched gadget has length 0
        self.found = tuple([[] for _ in range(MAX_GADGET_LEN + 1)]
                           for _ in range(2))
        self.found[0][0].extend(Gadget(t.address, (t,), table)
                                for table in image.decode_table.values()
                                for t in terminators(table))
        self.waiting = [[] for _ in range(MAX_GADGET_LEN + 1)]

    def view(self, max_len: int, branches: bool) -> list[Gadget]:
        (old0, old1), found = self.depth, self.found
        self.depth = [max(old0, max_len),
                      max(old1, max_len) if branches else old1]
        straight = list(found[0][old0]) if max_len > old0 else []
        branched = list(found[1][old1]) if self.depth[1] > old1 else []
        for n in range(old1 + 1, self.depth[1] + 1):
            pairs, self.waiting[n] = self.waiting[n], []
            branched += [self._add(1, insn, g) for insn, g in pairs]
        self._grow(0, straight, branched)
        self._grow(1, branched, branched)
        # Decoding forward from a start is deterministic, so a start
        # begins at most one gadget: its start alone orders the view.
        out = [g for k in range(2 if branches else 1)
               for run in found[k][:max_len + 1] for g in run]
        out.sort(key=attrgetter("start"))
        return out

    def _add(self, kind: int, insn: DecodedInstruction, g: Gadget) -> Gadget:
        child = Gadget(insn.address, (insn,) + g.instructions, g.table)
        self.found[kind][len(g.instructions)].append(child)
        return child

    def _grow(self, kind: int, stack: list, branched: list) -> None:
        """Grow the kind-`kind` gadgets on `stack` back to `depth[kind]`.
        A branch predecessor's gadget joins `branched` when `depth[1]`
        reaches its length, and waits otherwise.  A 2-byte and a 4-byte
        predecessor can both be valid, so this walks a tree."""
        depth, reach = self.depth[kind], self.depth[1]
        while stack:
            g = stack.pop()
            n = len(g.instructions)         # a predecessor's gadget length
            if n > depth:
                continue
            for width in (2, 4):
                insn = g.table.at(g.start - width)
                if insn is None or insn.width != width:
                    continue
                if insn.control_flow is None:
                    stack.append(self._add(kind, insn, g))
                elif isinstance(insn.control_flow, CondBranch):
                    if n <= reach:
                        branched.append(self._add(1, insn, g))
                    else:
                        self.waiting[n].append((insn, g))


def dedupe(gadgets: list[Gadget]) -> list[Gadget]:
    """Collapse byte-identical gadgets, keeping the lowest address."""
    best: dict[bytes, Gadget] = {}
    for g in gadgets:
        key = g.encoding
        cur = best.get(key)
        if cur is None or g.start < cur.start:
            best[key] = g
    return sorted(best.values(), key=lambda g: g.start)


def gadget_at(image: ExecutableImage, address: int,
              limit: int = 64) -> Gadget:
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
    for _ in range(limit):
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
    raise ToolError(f"no terminator within {limit} instructions of 0x{address:x}")
