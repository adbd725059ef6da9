"""Straight-line dataflow summaries for gadgets.

`summarize_dataflow` is the one walk: an abstract interpretation of a
gadget's instructions in order, terminator included, as if each falls
through to the next.  It gives every register the gadget writes one
value at the terminator (`exits`).  A register not yet written reads as
`Offset(r, 0)`, and the zero register as `Const(0)`.  A write gives:

* `Const(c)`, an XLEN-bit value in [0, 2^XLEN): an ALU row (`_SHAPE`
  kind imm or reg) whose inputs are all constants, folded through
  `rvjop.decoder`'s operation table (`_OPS`), the one the interpreter
  computes by, or lui or auipc, whose value the pc and immediate fix
  (`decoder._upper_value`); so `li` is a constant, and `auipc` is one;
  and the link a jal or jalr writes, its return address pc + width, as
  the machine writes it (the walk models the jump's own write only, not
  what the code it jumps to does);
* `Offset(r, c)`, r's entry value plus c: a constant add to an offset,
  which covers `mv`, `c.mv`, `addi rd, rs, imm` and sp's motion;
* `Loaded(source)`, a load from memory an attacker can prepare: based
  on sp, `stack` at an offset from the entry sp while sp is
  `Offset(sp, d)`; based on s0, `stack` at its raw offset, and based on
  any other register, `mem`, while that base is unwritten;
* `Unknown`: every other write, such as a load through a written base
  or an add to a loaded value.

The walk has no arithmetic of its own, so it and the machine agree on
every constant.  `const_add` is the one constant-add rule for offsets,
and `DataflowSummary.moved` the one rule for how far a register moves:
sp's and every dispatcher stride in `classify`.  A register copy is an
add of 0, so `c.mv` (base form `add rd, zero, rs`) gets the value `mv`
(`addi rd, rs, 0`) gets.  An offset's constant is not wrapped to XLEN,
and on RV64 `addiw` adds to an offset as `addi` does.  Rules read each
instruction's 32-bit base form, so a compressed instruction means
exactly what its expansion means.

No path-sensitivity: after an interior conditional branch, later writes
count as conditional (`cond_written`; they may or may not happen at run
time) and count as clobbers (`clobbers`), while `exits` keeps the
fall-through value.
"""

from __future__ import annotations

from collections import namedtuple

from .decoder import (_OPS, _SHAPE, CondBranch, DecodedInstruction,
                      MemAccess, _upper_value)
from .isa import A7, S0, SP, Register, mask

# Records are namedtuples (see `rvjop.decoder`); each field's
# type is in the comment beside it.


class Source(namedtuple("Source", (
        "base",         # Register
        "offset",       # int: entry-relative for sp, raw otherwise
        ))):
    __slots__ = ()

    @property
    def kind(self) -> str:
        """`stack` for a load through sp or s0 (the frame), else `mem`."""
        return "stack" if self.base is SP or self.base is S0 else "mem"


Const = namedtuple("Const", (
    "value",        # int: in [0, 2^XLEN)
))


Offset = namedtuple("Offset", (
    "reg",          # Register
    "delta",        # int: added to reg's value at gadget entry
))


Loaded = namedtuple("Loaded", (
    "source",       # Source
))


Unknown = namedtuple("Unknown", ())


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


def _known(operand: Register | int, exits: dict[Register, Value],
           full: int) -> int | None:
    """An ALU operand's value when it is a known constant, else None: an
    immediate masked to XLEN (`full`), as the interpreter masks it, or a
    register holding a constant (the zero register 0)."""
    if type(operand) is int:
        return operand & full
    if operand.index == 0:
        return 0
    v = exits.get(operand)
    return v.value if type(v) is Const else None


def _alu(insn: DecodedInstruction, exits: dict[Register, Value],
         xlen: int, full: int) -> Value:
    """The value an ALU row writes: its operation on known operands,
    masked to XLEN; else a constant add to an offset (`const_add`); else
    Unknown."""
    name, (_, rs1, src) = insn.base
    a = exits.get(rs1)                  # x0 has no entry; it reads 0
    if type(a) is Const or rs1.index == 0:
        b = _known(src, exits, full)
        if b is not None:
            a = 0 if a is None else a.value
            return Const(_OPS[name](xlen, a, b) & full)
    add = const_add(insn)
    if add is not None:
        _, rs, imm = add
        v = exits.get(rs)
        if v is None:                   # rs's entry value
            return Offset(rs, imm)
        if type(v) is Offset:
            return Offset(v.reg, v.delta + imm)
    return UNKNOWN


def summarize_dataflow(instructions, xlen: int) -> DataflowSummary:
    """Summarize a gadget body (iterable of DecodedInstruction) in order,
    at register width `xlen`."""
    full = mask(xlen)
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
                    value = Loaded(Source(SP, mem.offset))
            elif kind == "load" and base not in exits:
                value = Loaded(Source(base, mem.offset))
            if kind in ("load", "amo"):
                mem_reads.append(mem)
            if kind in ("store", "amo"):
                mem_writes.append(mem)
        elif insn.regs_written:
            kind = _SHAPE[insn.base.name][0]
            if kind == "imm" or kind == "reg":
                value = _alu(insn, exits, xlen, full)
            elif kind == "upper":
                value = Const(_upper_value(insn, xlen))
            elif kind == "jal" or kind == "jalr":
                value = Const((insn.address + insn.width) & full)
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
        exits=exits,
        ecall_a7=ecall_a7,
        mem_reads=tuple(mem_reads),
        mem_writes=tuple(mem_writes),
    )
