"""Concrete chain execution with a shadow-stack referee.

The machine is deliberately small: 31 live registers, a flat set of mapped
byte regions, and an instruction budget.  It exists to answer one question
about a chain: does control flow reach the designated return address with
the stack balanced and the shadow stack satisfied?

Shadow stack model: a jump that links through ra pushes the return
address; a return-like jump (jalr x0, 0(ra) or its compressed spelling)
pops and compares.  Indirect jumps through any other register touch
nothing.  A pop from an empty stack or a mismatched compare terminates
the run as a violation, the way an enforcing implementation would.

Each pc is decoded and dispatched once, the way Spike's decode cache
does it.  The first fetch of a pc builds one handler for its instruction:
a closure, made by the factory for the instruction's effects shape, that
already holds the register indices, immediate, masks, branch comparison,
access size and signedness and fall-through pc, executes the instruction
and returns the next pc.  The machine keeps the handler of every pc it
has fetched, so a step is one dict lookup and one call.  The commonest
steps make no further Python-level call: `addi` and `add` compute in
the handler, a load reads the region the machine's last access hit
(only a miss goes through `Machine.load`, which walks the regions and
raises the unmapped fault), and a linking jump through ra or a return
pushes or pops the shadow stack itself (only a return that does not
match calls `_shadow_pop`, to raise the violation).  A store drops
every cached pc in [address - 3, address + size), which covers any 2- or
4-byte instruction overlapping the written bytes, so a payload that
writes code runs the new bytes.  A fetch that faults caches nothing.  The
cache holds at most one entry per distinct pc run, so it is bounded by
the fuel.

System calls are not forwarded anywhere.  Each ecall is recorded and a0
gets a canned result from a fixed table: open-like calls yield descriptor
5, read and write report the full requested count, anything else
returns 0.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Callable

from .decoder import _SHAPE, DecodedInstruction, decode_one
from .errors import InvalidEncoding, Overlap, ToolError, Truncated
from .image import ExecutableImage
from .isa import RA, SP, Register, mask, reg, sext, to_signed

DEFAULT_FUEL = 1_000_000
DEFAULT_STACK_TOP = 0x7FFF_F000
STACK_SLACK = 4096

OPENAT = 56
READ = 63
WRITE = 64
DEFAULT_ECALL_RETURNS = {OPENAT: 5}

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


# Records are namedtuple subclasses (see `rvjop.decoder`); each field's
# type is in the comment beside it.

class SyscallRecord(namedtuple("SyscallRecord", (
        "number",       # int
        "args",         # tuple[int, ...]: a0..a5 at the ecall
        "address",      # int
        "result",       # int
        ))):
    __slots__ = ()


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
        buf, off = self._locate(address & self.mask, size)
        return int.from_bytes(buf[off:off + size], "little")

    def store(self, address: int, size: int, value: int) -> None:
        address &= self.mask
        buf, off = self._locate(address, size)
        decoded = self._decoded
        for pc in range(address - 3, address + size):
            decoded.pop(pc & self.mask, None)   # fetches wrap too
        buf[off:off + size] = (value & ((1 << (size * 8)) - 1)
                               ).to_bytes(size, "little")

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

    def _shadow_pop(self, target: int) -> None:
        # A return handler pops a match itself and calls this to raise.
        if not self.shadow_stack:
            raise _Violation(
                f"return to 0x{target:x} with an empty shadow stack")
        expected = self.shadow_stack.pop()
        self.shadow_pops += 1
        if expected != target & self.mask:
            raise _Violation(
                f"return to 0x{target & self.mask:x}, shadow stack "
                f"expected 0x{expected:x}")

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


def _signed(fn):
    def wrap(m: Machine, a: int, b: int) -> int:
        return fn(to_signed(a, m.xlen), to_signed(b, m.xlen))
    return wrap


def _shamt(m: Machine, b: int) -> int:
    return b & (m.xlen - 1)


def _div(a: int, b: int) -> int:
    if b == 0:
        return -1
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _rem(a: int, b: int) -> int:
    if b == 0:
        return a
    return a - _div(a, b) * b


def _word(fn):
    """RV64 .w forms: compute on the low 32 bits, sign-extend the result."""
    def wrap(m: Machine, a: int, b: int) -> int:
        r = fn(m, a & 0xFFFFFFFF, b)
        return sext(r & 0xFFFFFFFF, 32) & m.mask
    return wrap


_BASE_OPS = {
    "addi": lambda m, a, b: a + b,
    "add": lambda m, a, b: a + b,
    "sub": lambda m, a, b: a - b,
    "andi": lambda m, a, b: a & b,
    "and": lambda m, a, b: a & b,
    "ori": lambda m, a, b: a | b,
    "or": lambda m, a, b: a | b,
    "xori": lambda m, a, b: a ^ b,
    "xor": lambda m, a, b: a ^ b,
    "slti": _signed(lambda a, b: int(a < b)),
    "slt": _signed(lambda a, b: int(a < b)),
    "sltiu": lambda m, a, b: int(a < (b & m.mask)),
    "sltu": lambda m, a, b: int(a < b),
    "slli": lambda m, a, b: a << _shamt(m, b),
    "sll": lambda m, a, b: a << _shamt(m, b),
    "srli": lambda m, a, b: a >> _shamt(m, b),
    "srl": lambda m, a, b: a >> _shamt(m, b),
    "srai": lambda m, a, b: to_signed(a, m.xlen) >> _shamt(m, b),
    "sra": lambda m, a, b: to_signed(a, m.xlen) >> _shamt(m, b),
    "mul": lambda m, a, b: a * b,
    "mulh": lambda m, a, b: (to_signed(a, m.xlen)
                             * to_signed(b, m.xlen)) >> m.xlen,
    "mulhu": lambda m, a, b: (a * b) >> m.xlen,
    "mulhsu": lambda m, a, b: (to_signed(a, m.xlen) * b) >> m.xlen,
    "div": _signed(_div),
    "divu": lambda m, a, b: m.mask if b == 0 else a // b,
    "rem": _signed(_rem),
    "remu": lambda m, a, b: a if b == 0 else a % b,
    "addiw": _word(lambda m, a, b: a + b),
    "addw": _word(lambda m, a, b: a + b),
    "subw": _word(lambda m, a, b: a - b),
    "slliw": _word(lambda m, a, b: a << (b & 31)),
    "srliw": _word(lambda m, a, b: (a & 0xFFFFFFFF) >> (b & 31)),
    "sraiw": _word(lambda m, a, b: sext(a, 32) >> (b & 31)),
    "sllw": _word(lambda m, a, b: a << (b & 31)),
    "srlw": _word(lambda m, a, b: (a & 0xFFFFFFFF) >> (b & 31)),
    "sraw": _word(lambda m, a, b: sext(a, 32) >> (b & 31)),
    "mulw": _word(lambda m, a, b: a * b),
    "divw": _word(lambda m, a, b: _div(sext(a, 32), sext(b & 0xFFFFFFFF, 32))),
    "divuw": _word(lambda m, a, b: 0xFFFFFFFF if b & 0xFFFFFFFF == 0
                   else a // (b & 0xFFFFFFFF)),
    "remw": _word(lambda m, a, b: _rem(sext(a, 32), sext(b & 0xFFFFFFFF, 32))),
    "remuw": _word(lambda m, a, b: a if b & 0xFFFFFFFF == 0
                   else a % (b & 0xFFFFFFFF)),
}


_AMOS = {   # old and src sign-extended from the access width `low` masks
    "swap": lambda old, src, low: src,
    "add": lambda old, src, low: old + src,
    "xor": lambda old, src, low: old ^ src,
    "or": lambda old, src, low: old | src,
    "and": lambda old, src, low: old & src,
    "min": lambda old, src, low: min(old, src),
    "max": lambda old, src, low: max(old, src),
    "minu": lambda old, src, low: min(old & low, src & low),
    "maxu": lambda old, src, low: max(old & low, src & low),
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
    name, regs, mask_ = insn.base.name, m.regs, m.mask
    fn = _BASE_OPS[name]
    d, a, nxt = rd.index, rs1.index, _next_pc(m, insn)
    if d == 0:
        return lambda: nxt
    if type(src) is int:                # an immediate
        if name == "addi":              # the commonest step: no call
            def run():
                regs[d] = (regs[a] + src) & mask_
                return nxt
            return run

        def run():
            regs[d] = fn(m, regs[a], src) & mask_
            return nxt
        return run
    b = src.index
    if name == "add":
        def run():
            regs[d] = (regs[a] + regs[b]) & mask_
            return nxt
        return run

    def run():
        regs[d] = fn(m, regs[a], regs[b]) & mask_
        return nxt
    return run


def _upper(m: Machine, insn: DecodedInstruction,
           size: int | None) -> Callable[[], int]:
    # lui and auipc write a value the pc and the immediate fix
    value = insn.imm & m.mask
    if insn.base.name == "auipc":
        value = (value + insn.address) & m.mask
    return _constant(m, insn, value)


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
    # The region the machine's last access hit is tested here; a miss
    # goes through `Machine.load`, which finds the region or faults.
    acc = insn.mem_access
    regs, load, last, mask_ = m.regs, m.load, m._last, m.mask
    d, a, off = insn.base.operands[0].index, acc.base.index, acc.offset
    nxt = _next_pc(m, insn)
    sign = 0 if insn.base.name[-1] == "u" else 1 << (size * 8 - 1)

    def run():
        address = (regs[a] + off) & mask_
        base, end, buf = last
        if base <= address and address + size <= end:
            address -= base
            value = int.from_bytes(buf[address:address + size], "little")
        else:
            value = load(address, size)
        if d:
            regs[d] = ((value ^ sign) - sign) & mask_
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
    regs, load, store, mask_ = m.regs, m.load, m.store, m.mask
    d, s, a, nxt = rd.index, rs2.index, rs1.index, _next_pc(m, insn)
    combine = _AMOS[insn.base.name.split(".")[0][3:]]
    low, sign = mask(size * 8), 1 << (size * 8 - 1)

    def run():
        address = regs[a]
        old = (load(address, size) ^ sign) - sign
        src = ((regs[s] & low) ^ sign) - sign
        store(address, size, combine(old, src, low))
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


def _jal(m: Machine, insn: DecodedInstruction,
         size: int | None) -> Callable[[], int]:
    cf = insn.control_flow
    target = cf.target & m.mask
    if cf.link is None:
        return lambda: target
    # a jal is a jalr through x0, which reads 0, with its target (even,
    # since the pc is) as the offset
    return _linked(m, insn, 0, target)


def _jalr(m: Machine, insn: DecodedInstruction,
          size: int | None) -> Callable[[], int]:
    # the target is base plus the sign-extended offset, wrapped to XLEN,
    # with bit 0 cleared; the offset is extended once, here
    cf = insn.control_flow
    regs, b = m.regs, cf.base.index
    off, keep = sext(cf.offset & 0xFFF, 12), m.mask & ~1
    if cf.link is not None:
        return _linked(m, insn, b, off)
    if not cf.is_return:
        return lambda: (regs[b] + off) & keep
    stack, pop = m.shadow_stack, m._shadow_pop

    def run():
        target = (regs[b] + off) & keep
        if stack and stack[-1] == target:
            stack.pop()
            m.shadow_pops += 1
            return target
        pop(target)                     # raises the violation
    return run


def _linked(m: Machine, insn: DecodedInstruction, b: int,
            off: int) -> Callable[[], int]:
    """A jump to register `b` plus `off` that writes the return address to
    its link register and, when that is ra, pushes it on the shadow stack.
    The target is taken before the link is written, since the link may be
    the base."""
    regs, keep, stack = m.regs, m.mask & ~1, m.shadow_stack
    link, ret = insn.control_flow.link, _next_pc(m, insn)
    d = link.index
    if link is not RA:
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
    "branch": _branch, "jal": _jal, "jalr": _jalr, "system": _system,
}


def new_machine(image: ExecutableImage, *,
                payload=None, buffer_base: int | None = None,
                stack_top: int = DEFAULT_STACK_TOP) -> Machine:
    """Map the image, the payload buffer, and a scratch stack.

    Registers start at zero apart from sp, which points at `stack_top`
    inside a zeroed scratch region.  Seed values travel through memory:
    the payload's stack writes land at their entry-sp-relative offsets,
    and it is the chain initializer's job to load them.  The scratch
    region spans `STACK_SLACK` bytes either side of `stack_top`, stretched
    to cover the farthest stack write.
    """
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
