"""Straight-line dataflow summaries for gadgets.

The walk is an abstract interpretation of the instruction list in order,
terminator included.  No path-sensitivity: once an interior conditional
branch has been seen, later register writes count as conditional (they
may or may not happen at run time) and drop out of the preserved set.

Stack discipline is tracked as a running constant: only constant adds to
sp keep the delta known; any other write to sp makes it Unknown (None).
`const_add` is the one constant-add rule, for sp here and for dispatcher
table pointers in `classify`.  It and `const_values` read each
instruction's 32-bit base form, so a compressed instruction means exactly
what its expansion means.

`loaded_sources` is the one stack-load analysis: it says which registers
a gadget leaves holding a value loaded from memory an attacker can
prepare, and from where, which is what initializer roles, initializer
pairing and payload seeding all read.  Its rule, walking in order:

* a load based on sp counts as `stack` at an offset relative to the sp
  value at gadget entry, but only while sp has moved by constants;
* a load based on s0 counts as `stack` at its raw offset, but only while
  s0 still holds its entry value;
* a load through any other register counts as `mem` if that register
  still holds its entry value;
* any other write to a register drops its source, including a load
  through a base the gadget has already written, and any non-load write.
"""

from __future__ import annotations

from typing import NamedTuple

from .decoder import CondBranch, DecodedInstruction, MemAccess
from .isa import REGISTERS, S0, SP, Register


class Source(NamedTuple):
    kind: str            # "stack" | "mem"
    base: Register
    offset: int          # entry-relative for sp, raw otherwise


class DataflowSummary(NamedTuple):
    written: frozenset[Register]
    cond_written: frozenset[Register]
    read_before_write: frozenset[Register]
    preserved: frozenset[Register]
    sp_delta: int | None              # None = unknown
    mem_reads: tuple[MemAccess, ...]   # sp offsets entry-relative if known
    mem_writes: tuple[MemAccess, ...]

    def clobbers(self, regs) -> frozenset[Register]:
        """Registers from `regs` this gadget writes (even conditionally)."""
        return (self.written | self.cond_written) & frozenset(regs)


_ALL_REGS = frozenset(REGISTERS)


def const_add(insn: DecodedInstruction) -> tuple[Register, int] | None:
    """(rd, imm) when `insn` adds a constant to a register in place: its
    base form is `addi` or `addiw rd, rd, imm` with rd not zero."""
    name, ops = insn.base.name, insn.base.operands
    if name in ("addi", "addiw"):
        rd, rs1, imm = ops
        if rd is rs1 and rd.index != 0:
            return rd, imm
    return None


def _next_sp_delta(sp_delta: int | None, insn: DecodedInstruction
                   ) -> int | None:
    """sp's offset from its entry value after `insn`; None once unknown."""
    if SP not in insn.regs_written:
        return sp_delta
    add = const_add(insn)
    if add is None or sp_delta is None:
        return None
    return sp_delta + add[1]


def summarize_dataflow(instructions) -> DataflowSummary:
    """Summarize a gadget body (iterable of DecodedInstruction) in order."""
    written: set[Register] = set()
    cond_written: set[Register] = set()
    rbw: set[Register] = set()
    sp_delta: int | None = 0
    mem_reads: list[MemAccess] = []
    mem_writes: list[MemAccess] = []
    conditional = False

    for insn in instructions:
        for r in insn.regs_read:
            if r not in written and r not in cond_written:
                rbw.add(r)

        mem = insn.mem_access
        if mem is not None:
            if mem.base is SP and sp_delta:
                mem = mem._replace(offset=mem.offset + sp_delta)
            if mem.kind in ("load", "amo"):
                mem_reads.append(mem)
            if mem.kind in ("store", "amo"):
                mem_writes.append(mem)

        sp_delta = _next_sp_delta(sp_delta, insn)
        for r in insn.regs_written:
            if conditional and r not in written:
                cond_written.add(r)
            else:
                written.add(r)

        if isinstance(insn.control_flow, CondBranch):
            conditional = True

    preserved = _ALL_REGS - written - cond_written
    return DataflowSummary(
        written=frozenset(written),
        cond_written=frozenset(cond_written),
        read_before_write=frozenset(rbw),
        preserved=frozenset(preserved),
        sp_delta=sp_delta,
        mem_reads=tuple(mem_reads),
        mem_writes=tuple(mem_writes),
    )


def loaded_sources(instructions) -> dict[Register, Source]:
    """Registers a gadget body leaves holding an attacker-reachable
    load, with where each came from (the rule is in the module
    docstring)."""
    sources: dict[Register, Source] = {}
    written: set[Register] = set()
    sp_delta: int | None = 0
    for insn in instructions:
        mem = insn.mem_access
        src = None
        if mem is not None and mem.kind == "load":
            if mem.base is SP:
                if sp_delta is not None:
                    src = Source("stack", SP, mem.offset + sp_delta)
            elif mem.base not in written:
                kind = "stack" if mem.base is S0 else "mem"
                src = Source(kind, mem.base, mem.offset)
        for r in insn.regs_written:
            if src is None:
                sources.pop(r, None)
            else:
                sources[r] = src
        written |= insn.regs_written
        sp_delta = _next_sp_delta(sp_delta, insn)
    return sources


def const_values(instructions) -> dict[Register, int | None]:
    """Best-effort constants at the end of a straight-line walk.

    Tracks li/lui-style definitions and constant adds; anything loaded from
    memory or derived from a non-constant register maps to None.  Used to
    recover syscall ids from a7 and table strides without simulating.
    """
    vals: dict[Register, int | None] = {}
    for insn in instructions:
        m, ops = insn.base.name, insn.base.operands
        tracked: int | None = None
        if m == "addi":
            rd, rs1, imm = ops
            if rs1.index == 0:
                tracked = imm
            elif vals.get(rs1) is not None:
                tracked = vals[rs1] + imm
        elif m == "lui":
            tracked = insn.imm
        for r in insn.regs_written:
            if tracked is not None and r is ops[0]:
                vals[r] = tracked
            else:
                vals[r] = None
    return vals
