"""Gadget discovery over executable segments.

A gadget is a contiguous run of instructions whose last instruction is an
indirect jump (Return-like included).  Candidate starts are every 2-byte
aligned offset, which is what surfaces gadgets hidden inside the natural
instruction stream of a binary built with the compressed extension.

Interior instructions must fall through: direct jumps, indirect jumps,
ecall/ebreak, and undecodable bytes all stop the backward extension.
Conditional branches are admitted only when the config says so (loop-shaped
dispatcher bodies need them; plain functional scans do not).
"""

from __future__ import annotations

from typing import NamedTuple

from .decoder import (CondBranch, DecodedInstruction, DirectJump,
                      decode_one)
from .errors import ToolError
from .image import DecodedSegment, ExecutableImage
from .isa import RA, Register

MAX_GADGET_LEN = 32

NATURAL = "natural"
SHIFTED = "shifted"


class ScanConfig:
    __slots__ = ("max_len", "allow_interior_branches")

    def __init__(self, max_len: int = 4,
                 allow_interior_branches: bool = False):
        if not 0 <= max_len <= MAX_GADGET_LEN:
            raise ValueError(f"max_len must be in [0, {MAX_GADGET_LEN}]")
        self.max_len = max_len             # interior instruction bound
        self.allow_interior_branches = allow_interior_branches


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
    def length(self) -> int:
        """Interior instruction count (terminator excluded)."""
        return len(self.instructions) - 1

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
        return b"".join(i.encoding for i in self.instructions)

    @property
    def end(self) -> int:
        t = self.terminator
        return t.address + t.width

    def render(self) -> str:
        return "; ".join(i.render() for i in self.instructions)


def _interior_ok(insn: DecodedInstruction, config: ScanConfig) -> bool:
    cf = insn.control_flow
    if cf is None:
        return True
    if isinstance(cf, CondBranch):
        return config.allow_interior_branches
    return False


def extract_gadgets(image: ExecutableImage,
                    config: ScanConfig = ScanConfig()) -> list[Gadget]:
    """All gadgets, sorted by start address then length.

    For each terminator, grow backwards: a predecessor is kept when its
    bytes decode to a fall-through instruction whose width lands exactly
    on the current start.  Every prefix length from 0 to max_len yields
    its own gadget.
    """
    out = []
    for table in image.decode_table.values():
        for term in table.slots:
            if term is None or not term.is_terminator:
                continue
            # Backward extension branches: a 2-byte and a 4-byte
            # predecessor can both be valid, so walk the tree.  Forward
            # decoding from any start is deterministic, which makes every
            # discovered start unique to its chain.
            stack: list[tuple[DecodedInstruction, ...]] = [(term,)]
            while stack:
                chain = stack.pop()
                start = chain[0].address
                out.append(Gadget(start, chain, table))
                if len(chain) - 1 >= config.max_len:
                    continue
                for prev in _predecessors(table, start, config):
                    stack.append((prev,) + chain)
    out.sort(key=lambda g: (g.start, g.length))
    return out


def _predecessors(table: DecodedSegment, start: int,
                  config: ScanConfig) -> list[DecodedInstruction]:
    """Fall-through instructions whose width lands exactly on `start`."""
    found = []
    for width in (2, 4):
        insn = table.at(start - width)
        if insn is not None and insn.width == width and _interior_ok(insn, config):
            found.append(insn)
    return found


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
