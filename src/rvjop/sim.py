"""Concrete chain execution with a shadow-stack referee.

The machine is deliberately small: 31 live registers, a flat set of mapped
byte regions, and an instruction budget.  It exists to answer one question
about a chain: does control flow reach the designated return address with
the stack balanced and the shadow stack satisfied?

Shadow stack model: `rvjop.decoder`'s rule, which the scanner,
classification and chain validation read too.  A jump whose record
`pushes` (it links ra) pushes the return address; one that `is_return`
(jalr x0, 0(ra), spelled ret, or its compressed form) pops and compares.
Other jumps touch nothing.  A pop from an empty stack or a mismatched
compare terminates the run as a violation, the way an enforcing
implementation would.  Which jumps push or pop is decided when a
handler is built, so it costs no step anything.

Each pc is decoded and dispatched once, the way Spike's decode cache
does it.  The first fetch of a pc builds one handler for its instruction:
a closure, made by the factory for the instruction's effects shape, that
already holds the register indices, immediate, masks, branch comparison,
memory `struct` and fall-through pc, executes the instruction and returns
the next pc.  The machine keeps the handler of every pc it has fetched,
so a step is one dict lookup and one call.  The commonest steps make no
further Python-level call: `addi` and `add` compute in the handler, a
load unpacks from the region the machine's last access hit (only a miss
goes through `Machine._locate`, which walks the regions and raises the
unmapped fault), and a jump that pushes or pops the shadow stack does
it in its handler.  Memory goes through one `Struct` per access width
and signedness (`_MEMORY`): a load reads its value sign-extended; a
store packs it masked to its width and drops the cached pc of every
instruction the bytes overlap, [address - 3, address + size), so code a
payload writes runs.  A fetch that faults caches nothing.  The
cache holds at most one entry per distinct pc run: it is bounded by fuel.

ALU handlers compute by `rvjop.decoder`'s operation table (`_OPS`),
which the dataflow walk reads too: an immediate is masked to XLEN once,
when the handler is built, and each result is masked to XLEN.  lui and
auipc write `decoder._upper_value`.  An AMO's add, xor, and and or are
`_OPS`' operations at the access width; `_AMOS` holds the rest (swap,
min, max, minu, maxu).

System calls are not forwarded anywhere.  Each ecall is recorded and a0
gets a canned result from a fixed table: open-like calls yield descriptor
5, read and write report the full requested count, anything else
returns 0.
"""

from __future__ import annotations

import operator
import struct
from collections import namedtuple
from collections.abc import Callable

from .decoder import (_OPS, _SHAPE, DecodedInstruction, DirectJump,
                      _signed, _upper_value, decode_one)
from .errors import InvalidEncoding, Overlap, ToolError, Truncated
from .image import ExecutableImage
from .isa import SP, Register, mask, reg, to_signed

DEFAULT_FUEL = 1_000_000
DEFAULT_STACK_TOP = 0x7FFF_F000
STACK_SLACK = 4096

OPENAT = 56
READ = 63
WRITE = 64
DEFAULT_ECALL_RETURNS = {OPENAT: 5}

# (access bytes, signed) -> the little-endian struct of that access
_MEMORY = {(1 << i, s): struct.Struct("<" + ("bhiq" if s else "BHIQ")[i])
           for i in range(4) for s in (False, True)}

REACHED = "reached"
VIOLATION = "violation"
FAULT = "fault"
FUEL_EXHAUSTED = "fuel-exhausted"


class _Fault(Exception):
    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


class _Violation(Exception):
    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


# Records are namedtuples (see `rvjop.decoder`); each field's
# type is in the comment beside it.

SyscallRecord = namedtuple("SyscallRecord", (
    "number",       # int
    "args",         # tuple[int, ...]: a0..a5 at the ecall
    "address",      # int
    "result",       # int
))


class SimReport(namedtuple("SimReport", (
        "outcome",      # str
        "steps",        # int
        "dispatch_rounds",  # int
        "syscalls",     # list[SyscallRecord]
        "shadow_pushes",    # int
        "shadow_pops",      # int
        "shadow_depth",     # int
        "final_sp_delta",   # int
        "fault",        # str | None
        "violation",    # str | None
        ), defaults=(None, None))):
    __slots__ = ()

    @property
    def stealth(self) -> bool:
        """Reached the return address, sp balanced, one unpopped frame.

        The single leftover shadow entry is the dispatcher's final call
        into the return address; a real return from there would match it.
        """
        return (self.outcome == REACHED
                and self.final_sp_delta == 0
                and self.shadow_pushes - self.shadow_pops == 1)

    def render(self) -> str:
        lines = [f"outcome        {self.outcome}"]
        if self.fault:
            lines.append(f"fault          {self.fault}")
        if self.violation:
            lines.append(f"violation      {self.violation}")
        lines.append(f"steps          {self.steps}")
        lines.append(f"dispatch rounds {self.dispatch_rounds}")
        lines.append(f"shadow stack   pushes={self.shadow_pushes} "
                     f"pops={self.shadow_pops} depth={self.shadow_depth}")
        lines.append(f"sp delta       {self.final_sp_delta:+d}")
        lines.append(f"stealth        {'yes' if self.stealth else 'no'}")
        for s in self.syscalls:
            args = ", ".join(f"0x{a:x}" for a in s.args[:4])
            lines.append(f"ecall {s.number:<4d} at 0x{s.address:08x} "
                         f"({args}) -> 0x{s.result:x}")
        return "\n".join(lines) + "\n"


class Machine:
    """Single-hart interpreter over mapped memory regions."""

    def __init__(self, xlen: int = 32):
        if xlen not in (32, 64):
            raise ToolError(f"xlen must be 32 or 64, not {xlen}")
        self.xlen = xlen
        self.mask = mask(xlen)
        self.regs = [0] * 32
        self.pc = 0
        self.regions: list[tuple[int, bytearray]] = []
        # [base, end, bytes] of the region the last access hit, updated in
        # place (load handlers hold this list); empty until the first hit.
        # Regions never overlap or go away, so a hit stays valid.
        self._last: list = [0, 0, bytearray()]
        self.shadow_stack: list[int] = []
        self.shadow_pushes = 0
        self.shadow_pops = 0
        self.syscalls: list[SyscallRecord] = []
        self._decoded: dict[int, Callable[[], int]] = {}   # pc -> handler

    # -- memory ---------------------------------------------------------

    def map_region(self, start: int, data: bytes | bytearray | int) -> None:
        # An int maps that many zeroed bytes; anything else is copied.
        buf = bytearray(data)
        end = start + len(buf)
        for base, existing in self.regions:
            if start < base + len(existing) and base < end:
                raise Overlap(
                    f"region [0x{start:x}, 0x{end:x}) collides with "
                    f"[0x{base:x}, 0x{base + len(existing):x})")
        self.regions.append((start, buf))
        self.regions.sort(key=lambda r: r[0])

    def _locate(self, address: int, size: int) -> tuple[bytearray, int]:
        # Accesses cluster: try the region the last one hit first.
        base, end, buf = self._last
        if base <= address and address + size <= end:
            return buf, address - base
        for base, buf in self.regions:
            end = base + len(buf)
            if base <= address and address + size <= end:
                self._last[:] = base, end, buf
                return buf, address - base
        raise _Fault("unmapped",
                     f"{size}-byte access at 0x{address:x}")

    def load(self, address: int, size: int) -> int:
        return _MEMORY[size, False].unpack_from(
            *self._locate(address & self.mask, size))[0]

    def store(self, address: int, size: int, value: int) -> None:
        address &= self.mask
        buf, off = self._locate(address, size)
        decoded = self._decoded
        for pc in range(address - 3, address + size):
            decoded.pop(pc & self.mask, None)   # fetches wrap too
        _MEMORY[size, False].pack_into(buf, off, value & mask(size * 8))

    # -- registers ------------------------------------------------------

    def get(self, r: Register) -> int:
        return self.regs[r.index]

    def set(self, r: Register, value: int) -> None:
        if r.index != 0:
            self.regs[r.index] = value & self.mask

    def poke(self, name: str, value: int) -> None:
        self.set(reg(name), value)

    @property
    def sp(self) -> int:
        return self.regs[SP.index]

    # -- execution ------------------------------------------------------

    def _decode_at(self, pc: int) -> DecodedInstruction:
        if pc & 1:
            raise _Fault("misaligned-pc", f"odd pc 0x{pc:x}")
        first = self.load(pc, 2)
        width = 2 if first & 0b11 != 0b11 else 4
        raw = first if width == 2 else first | (self.load(pc + 2, 2) << 16)
        try:
            return decode_one(raw.to_bytes(width, "little"), pc, self.xlen)
        except (InvalidEncoding, Truncated) as exc:
            raise _Fault("invalid-encoding", f"at 0x{pc:x}: {exc}") from None

    def _handler(self, pc: int) -> Callable[[], int]:
        """Decode the instruction at `pc`, build its handler and cache it."""
        insn = self._decode_at(pc)
        kind, size = _SHAPE[insn.base.name]
        handler = _FACTORIES[kind](self, insn, size)
        self._decoded[pc] = handler
        return handler

    def _ecall(self, pc: int) -> None:
        number = self.regs[17]
        args = tuple(self.regs[10:16])
        if number in DEFAULT_ECALL_RETURNS:
            result = DEFAULT_ECALL_RETURNS[number]
        elif number in (READ, WRITE):
            result = self.regs[12]          # full count transferred
        else:
            result = 0
        self.regs[10] = result & self.mask
        self.syscalls.append(SyscallRecord(number, args, pc, result))


# Branch condition -> (comparison, whether it compares signed values).
# Registers hold unsigned values, so eq and ne need no conversion.
_BRANCHES = {
    "eq": (operator.eq, False), "ne": (operator.ne, False),
    "lt": (operator.lt, True), "ge": (operator.ge, True),
    "ltu": (operator.lt, False), "geu": (operator.ge, False),
}


_AMOS = {   # the AMO operations `_OPS` lacks, on values of the access width
    "swap": lambda x, old, src: src,
    "min": _signed(min),
    "max": _signed(max),
    "minu": lambda x, old, src: min(old, src),
    "maxu": lambda x, old, src: max(old, src),
}


# --- handlers ---------------------------------------------------------------
#
# One factory per effects shape (`decoder._SHAPE`'s kinds).  A factory reads
# the decoded instruction once and returns a closure that holds everything
# the instruction fixes: register indices, immediate, masks, comparison,
# access size and signedness, fall-through pc.  The closure executes the
# instruction on its machine and returns the next pc; a fault or violation
# raises out of it, and the run ends with the pc on that instruction.
#
# A write to x0 is left out of the closure, but an access that can fault
# stays in.


def _alu(m: Machine, insn: DecodedInstruction,
         size: int | None) -> Callable[[], int]:
    rd, rs1, src = insn.base.operands
    name, regs, mask_, xlen = insn.base.name, m.regs, m.mask, m.xlen
    fn = _OPS[name]
    d, a, nxt = rd.index, rs1.index, _next_pc(m, insn)
    if d == 0:
        return lambda: nxt
    if type(src) is int:                # an immediate, as rs2 would hold it
        src &= mask_
        if name == "addi":              # the commonest step: no call
            def run():
                regs[d] = (regs[a] + src) & mask_
                return nxt
            return run

        def run():
            regs[d] = fn(xlen, regs[a], src) & mask_
            return nxt
        return run
    b = src.index
    if name == "add":
        def run():
            regs[d] = (regs[a] + regs[b]) & mask_
            return nxt
        return run

    def run():
        regs[d] = fn(xlen, regs[a], regs[b]) & mask_
        return nxt
    return run


def _upper(m: Machine, insn: DecodedInstruction,
           size: int | None) -> Callable[[], int]:
    # lui and auipc write a value the pc and the immediate fix
    return _constant(m, insn, _upper_value(insn, m.xlen))


def _csr(m: Machine, insn: DecodedInstruction,
         size: int | None) -> Callable[[], int]:
    return _constant(m, insn, 0)        # CSR state is not modeled; reads 0


def _constant(m: Machine, insn: DecodedInstruction,
              value: int) -> Callable[[], int]:
    regs, d, nxt = m.regs, insn.base.operands[0].index, _next_pc(m, insn)
    if d == 0:
        return lambda: nxt

    def run():
        regs[d] = value
        return nxt
    return run


def _load(m: Machine, insn: DecodedInstruction,
          size: int | None) -> Callable[[], int]:
    # Loads sign-extend unless the base name ends in u (lbu, lhu, lwu);
    # lr sign-extends like the load of its width.
    acc = insn.mem_access
    regs, locate, last, mask_ = m.regs, m._locate, m._last, m.mask
    d, a, off = insn.base.operands[0].index, acc.base.index, acc.offset
    nxt = _next_pc(m, insn)
    unpack = _MEMORY[size, insn.base.name[-1] != "u"].unpack_from

    def run():
        address = (regs[a] + off) & mask_
        base, end, buf = last
        if base <= address and address + size <= end:
            value = unpack(buf, address - base)[0]
        else:
            value = unpack(*locate(address, size))[0]
        if d:
            regs[d] = value & mask_
        return nxt
    return run


def _store(m: Machine, insn: DecodedInstruction,
           size: int | None) -> Callable[[], int]:
    acc = insn.mem_access
    regs, store = m.regs, m.store
    s, a, off = insn.base.operands[0].index, acc.base.index, acc.offset
    nxt = _next_pc(m, insn)

    def run():
        store(regs[a] + off, size, regs[s])
        return nxt
    return run


def _sc(m: Machine, insn: DecodedInstruction,
        size: int | None) -> Callable[[], int]:
    rd, rs2, rs1 = insn.base.operands
    regs, store = m.regs, m.store
    d, s, a, nxt = rd.index, rs2.index, rs1.index, _next_pc(m, insn)

    def run():
        store(regs[a], size, regs[s])
        if d:
            regs[d] = 0                 # always succeeds
        return nxt
    return run


def _amo(m: Machine, insn: DecodedInstruction,
         size: int | None) -> Callable[[], int]:
    # The operation runs at the access width: a .w op on RV64 reads the
    # low word of rs2, and rd gets the old word sign-extended.
    rd, rs2, rs1 = insn.base.operands
    regs, locate, store, mask_ = m.regs, m._locate, m.store, m.mask
    d, s, a, nxt = rd.index, rs2.index, rs1.index, _next_pc(m, insn)
    op = insn.base.name.split(".")[0][3:]
    combine, bits = _AMOS.get(op) or _OPS[op], size * 8
    unpack, low = _MEMORY[size, True].unpack_from, mask(bits)

    def run():
        address = regs[a]
        old = unpack(*locate(address, size))[0]
        store(address, size, combine(bits, old & low, regs[s] & low))
        if d:
            regs[d] = old & mask_
        return nxt
    return run


def _branch(m: Machine, insn: DecodedInstruction,
            size: int | None) -> Callable[[], int]:
    cf = insn.control_flow
    compare, signed = _BRANCHES[cf.op]
    # flipping the sign bit of both sides turns unsigned order into signed
    flip = 1 << (m.xlen - 1) if signed else 0
    regs, a, b = m.regs, cf.regs[0].index, cf.regs[1].index
    target, nxt = cf.target & m.mask, _next_pc(m, insn)

    def run():
        return target if compare(regs[a] ^ flip, regs[b] ^ flip) else nxt
    return run


def _jump(m: Machine, insn: DecodedInstruction,
          size: int | None) -> Callable[[], int]:
    """jal and jalr.  The target is the base register plus the offset
    (the decoder gives it sign-extended), wrapped to XLEN, with bit 0
    cleared; a jal is a jalr through x0, which reads 0, with its target
    (even, since the pc is) as the offset.  The shadow stack follows
    `rvjop.decoder`'s rule, read once here: a return pops the top and
    compares it with its target, and a jump that pushes appends its
    link.  The target is taken before the link is written, since the
    link may be the base."""
    cf = insn.control_flow
    regs, keep, stack = m.regs, m.mask & ~1, m.shadow_stack
    b, off = ((0, cf.target) if type(cf) is DirectJump
              else (cf.base.index, cf.offset))
    if cf.is_return:
        def run():
            target = (regs[b] + off) & keep
            if not stack:
                raise _Violation(
                    f"return to 0x{target:x} with an empty shadow stack")
            expected = stack.pop()
            m.shadow_pops += 1
            if expected != target:
                raise _Violation(f"return to 0x{target:x}, shadow stack "
                                 f"expected 0x{expected:x}")
            return target
        return run
    if cf.link is None:
        if not b:
            target = off & keep
            return lambda: target
        return lambda: (regs[b] + off) & keep
    d, ret = cf.link.index, _next_pc(m, insn)
    if not cf.pushes:
        def run():
            target = (regs[b] + off) & keep
            regs[d] = ret
            return target
        return run

    def run():
        target = (regs[b] + off) & keep
        regs[d] = ret
        stack.append(ret)
        m.shadow_pushes += 1
        return target
    return run


def _system(m: Machine, insn: DecodedInstruction,
            size: int | None) -> Callable[[], int]:
    name, pc, nxt = insn.base.name, insn.address, _next_pc(m, insn)
    if name == "ebreak":
        def run():
            raise _Fault("breakpoint", f"ebreak at 0x{pc:x}")
        return run
    if name == "ecall":
        ecall = m._ecall

        def run():
            ecall(pc)
            return nxt
        return run
    return lambda: nxt                  # fence, fence.i


def _next_pc(m: Machine, insn: DecodedInstruction) -> int:
    return (insn.address + insn.width) & m.mask


_FACTORIES = {
    "imm": _alu, "reg": _alu, "upper": _upper, "csr": _csr,
    "load": _load, "lr": _load, "store": _store, "sc": _sc, "amo": _amo,
    "branch": _branch, "jal": _jump, "jalr": _jump, "system": _system,
}


def stack_slack_problem(stack_top: int, xlen: int) -> str | None:
    """What is wrong with `stack_top` as a stack top at `xlen`, or None:
    its `STACK_SLACK` bytes either side must stay in the address space,
    where accesses reach them."""
    if STACK_SLACK <= stack_top <= (1 << xlen) - STACK_SLACK:
        return None
    return (f"0x{stack_top:x}: its {STACK_SLACK}-byte slack runs outside "
            f"the {xlen}-bit address space")


def new_machine(image: ExecutableImage, *,
                payload=None, buffer_base: int | None = None,
                stack_top: int = DEFAULT_STACK_TOP) -> Machine:
    """Map the image, the payload buffer, and a scratch stack.

    Registers start at zero apart from sp, which points at `stack_top`
    inside a zeroed scratch region.  Seed values travel through memory:
    the payload's stack writes land at their entry-sp-relative offsets,
    and it is the chain initializer's job to load them.  The scratch
    region spans `STACK_SLACK` bytes either side of `stack_top`, stretched
    to cover the farthest stack write; a slack that leaves the address
    space, where no access reaches it, is an error.
    """
    problem = stack_slack_problem(stack_top, image.xlen)
    if problem:
        raise ToolError(f"stack top {problem}")
    m = Machine(xlen=image.xlen)
    for seg in image.segments:
        m.map_region(seg.vaddr, seg.data)
    writes = ()
    if payload is not None:
        if buffer_base is None:
            raise ToolError("payload given without a buffer base")
        m.map_region(buffer_base, payload.buffer)
        writes = payload.stack_writes
    size = m.xlen // 8
    low = min([-STACK_SLACK] + [w.offset for w in writes])
    high = max([STACK_SLACK] + [w.offset + size for w in writes])
    m.map_region(stack_top + low, high - low)
    m.regs[SP.index] = stack_top & m.mask
    for w in writes:
        try:
            m.store(stack_top + w.offset, size, w.value)
        except _Fault as exc:       # the address wrapped past 2^xlen
            raise ToolError(
                f"stack write at sp{w.offset:+d} from 0x{stack_top:x}: "
                f"{exc}") from None
    return m


def run_chain(machine: Machine, entry: int, return_to: int,
              fuel: int = DEFAULT_FUEL,
              loop_entry: int | None = None) -> SimReport:
    """Run until the chain lands on `return_to` or something gives out."""
    pc = entry & machine.mask
    return_to &= machine.mask
    if loop_entry is not None:
        loop_entry &= machine.mask
    sp_entry = machine.sp
    cached, build = machine._decoded.get, machine._handler
    rounds = 0
    steps = 0                       # steps run: the loop index on a way out
    outcome = FUEL_EXHAUSTED
    fault = violation = None
    try:
        for steps in range(fuel):
            if pc == return_to:
                outcome = REACHED
                break
            if pc == loop_entry:
                rounds += 1
            pc = (cached(pc) or build(pc))()
        else:
            steps = max(fuel, 0)
    except _Fault as exc:
        outcome = FAULT
        fault = str(exc)
    except _Violation as exc:
        outcome = VIOLATION
        violation = exc.detail
    machine.pc = pc
    return SimReport(
        outcome=outcome, steps=steps, dispatch_rounds=rounds,
        syscalls=list(machine.syscalls),
        shadow_pushes=machine.shadow_pushes,
        shadow_pops=machine.shadow_pops,
        shadow_depth=len(machine.shadow_stack),
        final_sp_delta=to_signed((machine.sp - sp_entry) & machine.mask,
                                 machine.xlen),
        fault=fault, violation=violation)
