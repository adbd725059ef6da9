"""Straight-line dataflow summaries for gadgets.

`summarize_dataflow` is the one walk: an abstract interpretation of a
gadget's instructions in order, terminator included, as if each falls
through to the next.  It gives every register the gadget writes one
value at the terminator (`exits`).  A register not yet written reads as
`Offset(r, 0)`, and the zero register as `Const(0)`.  A write gives:

* `Const(c)`: `lui`'s immediate, or a constant add to a constant (the
  sum sign-extended from 32 bits for `addiw`); so `li` is a constant;
* `Offset(r, c)`, r's entry value plus c: a constant add to an offset,
  which covers `mv`, `c.mv`, `addi rd, rs, imm` and sp's motion;
* `Loaded(source)`, a load from memory an attacker can prepare: based
  on sp, `stack` at an offset from the entry sp while sp is
  `Offset(sp, d)`; based on s0, `stack` at its raw offset, and based on
  any other register, `mem`, while that base is unwritten;
* `Unknown`: every other write, such as a load through a written base
  or an add to a loaded value.

`const_add` is the one constant-add rule, and `DataflowSummary.moved`
the one rule for how far a register moves: sp's and every dispatcher
stride in `classify`.  A register copy is an add of 0, so `c.mv` (base
form `add rd, zero, rs`) gets the value `mv` (`addi rd, rs, 0`) gets.
Rules read each instruction's 32-bit base form, so a compressed
instruction means exactly what its expansion means.

No path-sensitivity: after an interior conditional branch, later writes
count as conditional (`cond_written`; they may or may not happen at run
time) and leave the preserved set, while `exits` keeps the fall-through
value.
"""

from __future__ import annotations

from collections import namedtuple

from .decoder import CondBranch, DecodedInstruction, MemAccess
from .isa import A7, REGISTERS, S0, SP, Register, sext

# Records are namedtuple subclasses (see `rvjop.decoder`); each field's
# type is in the comment beside it.


class Source(namedtuple("Source", (
        "kind",         # str: "stack" | "mem"
        "base",         # Register
        "offset",       # int: entry-relative for sp, raw otherwise
        ))):
    __slots__ = ()


class Const(namedtuple("Const", (
        "value",        # int
        ))):
    __slots__ = ()


class Offset(namedtuple("Offset", (
        "reg",          # Register
        "delta",        # int: added to reg's value at gadget entry
        ))):
    __slots__ = ()


class Loaded(namedtuple("Loaded", (
        "source",       # Source
        ))):
    __slots__ = ()


class Unknown(namedtuple("Unknown", ())):
    __slots__ = ()


UNKNOWN = Unknown()
Value = Const | Offset | Loaded | Unknown


def _moved(r: Register, value: Value | None) -> int | None:
    """r's offset from its entry value, given r's value (None while
    unwritten); None once that offset is not a known constant."""
    if value is None:
        return 0
    return value.delta if type(value) is Offset and value.reg is r else None


class DataflowSummary(namedtuple("DataflowSummary", (
        "written",              # frozenset[Register]
        "cond_written",         # frozenset[Register]
        "read_before_write",    # frozenset[Register]
        "preserved",            # frozenset[Register]
        "exits",        # dict[Register, Value]: written register -> its
                        # value at exit
        "ecall_a7",     # Value | None: a7 at the first ecall; None = no ecall
        "mem_reads",    # tuple[MemAccess, ...]: sp offsets entry-relative
                        # if known
        "mem_writes",   # tuple[MemAccess, ...]
        ))):
    __slots__ = ()

    def moved(self, r: Register) -> int | None:
        """r's offset at exit from its entry value: 0 when r is unwritten,
        None unless it is a known constant."""
        return _moved(r, self.exits.get(r))

    @property
    def sp_delta(self) -> int | None:
        return self.moved(SP)

    @property
    def loaded(self) -> dict[Register, Source]:
        """Registers left holding an attacker-reachable load, by source:
        what initializer roles, pairing and payload seeding read."""
        return {r: v.source for r, v in self.exits.items()
                if type(v) is Loaded}

    def clobbers(self, regs) -> frozenset[Register]:
        """Registers from `regs` this gadget writes (even conditionally)."""
        return (self.written | self.cond_written).intersection(regs)


_ALL_REGS = frozenset(REGISTERS)


def const_add(insn: DecodedInstruction
              ) -> tuple[Register, Register, int] | None:
    """(rd, rs1, imm) when `insn` adds a constant to a register, rd not
    zero: its base form is `addi` or `addiw rd, rs1, imm`, or the copy
    `add rd, zero, rs` or `add rd, rs, zero`, which gives (rd, rs, 0)."""
    name, ops = insn.base.name, insn.base.operands
    if name in ("addi", "addiw") and ops[0].index != 0:
        return ops
    if name == "add" and ops[0].index != 0:
        rd, rs1, rs2 = ops
        if rs1.index == 0:
            return rd, rs2, 0
        if rs2.index == 0:
            return rd, rs1, 0
    return None


def summarize_dataflow(instructions) -> DataflowSummary:
    """Summarize a gadget body (iterable of DecodedInstruction) in order."""
    exits: dict[Register, Value] = {}
    written: set[Register] = set()
    cond_written: set[Register] = set()
    rbw: set[Register] = set()
    ecall_a7 = None
    mem_reads: list[MemAccess] = []
    mem_writes: list[MemAccess] = []
    conditional = False

    for insn in instructions:
        for r in insn.regs_read:
            if r not in exits:
                rbw.add(r)

        mem = insn.mem_access
        value = UNKNOWN
        if mem is not None:
            kind, base = mem.kind, mem.base
            if base is SP:
                delta = _moved(SP, exits.get(SP))
                if delta:
                    mem = mem._replace(offset=mem.offset + delta)
                if kind == "load" and delta is not None:
                    value = Loaded(Source("stack", SP, mem.offset))
            elif kind == "load" and base not in exits:
                value = Loaded(Source("stack" if base is S0 else "mem",
                                      base, mem.offset))
            if kind in ("load", "amo"):
                mem_reads.append(mem)
            if kind in ("store", "amo"):
                mem_writes.append(mem)
        elif insn.regs_written:
            add = const_add(insn)
            if add is not None:
                _, rs1, imm = add
                v = exits.get(rs1)
                if v is None:        # rs1's entry value; zero's is 0
                    value = Const(imm) if rs1.index == 0 else Offset(rs1, imm)
                elif type(v) is Offset:
                    value = Offset(v.reg, v.delta + imm)
                elif type(v) is Const:
                    c = v.value + imm
                    value = Const(sext(c, 32) if insn.base.name == "addiw"
                                  else c)
            elif insn.base.name == "lui":
                value = Const(insn.imm)
        elif ecall_a7 is None and insn.mnemonic == "ecall":
            ecall_a7 = exits.get(A7, Offset(A7, 0))

        for r in insn.regs_written:
            exits[r] = value
            if conditional and r not in written:
                cond_written.add(r)
            else:
                written.add(r)

        if isinstance(insn.control_flow, CondBranch):
            conditional = True

    return DataflowSummary(
        written=frozenset(written),
        cond_written=frozenset(cond_written),
        read_before_write=frozenset(rbw),
        preserved=_ALL_REGS - written - cond_written,
        exits=exits,
        ecall_a7=ecall_a7,
        mem_reads=tuple(mem_reads),
        mem_writes=tuple(mem_writes),
    )
