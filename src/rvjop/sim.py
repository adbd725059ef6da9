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

Each pc is decoded once: the machine keeps the decoded instruction of
every pc it has fetched, the way Spike's decode cache does, and decodes
again only after a store.  A store drops every cached pc in
[address - 3, address + size), which covers any 2- or 4-byte instruction
overlapping the written bytes, so a payload that writes code runs the new
bytes.  A fetch that faults caches nothing.  The cache holds at most one
entry per distinct pc run, so it is bounded by the fuel.

System calls are not forwarded anywhere.  Each ecall is recorded and a0
gets a canned result from a fixed table: open-like calls yield descriptor
5, read and write report the full requested count, anything else
returns 0.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .decoder import (CondBranch, DecodedInstruction, DirectJump,
                      IndirectJump, Trap, decode_one, jalr_target)
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


@dataclass(frozen=True)
class SyscallRecord:
    number: int
    args: tuple[int, ...]      # a0..a5 at the ecall
    address: int
    result: int


@dataclass
class SimReport:
    outcome: str
    steps: int
    dispatch_rounds: int
    syscalls: list[SyscallRecord]
    shadow_pushes: int
    shadow_pops: int
    shadow_depth: int
    final_sp_delta: int
    fault: str | None = None
    violation: str | None = None

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
        self.shadow_stack: list[int] = []
        self.shadow_pushes = 0
        self.shadow_pops = 0
        self.syscalls: list[SyscallRecord] = []
        self._decoded: dict[int, DecodedInstruction] = {}

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
        for base, buf in self.regions:
            if base <= address and address + size <= base + len(buf):
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

    def fetch(self) -> DecodedInstruction:
        insn = self._decoded.get(self.pc)
        if insn is not None:
            return insn
        if self.pc & 1:
            raise _Fault("misaligned-pc", f"odd pc 0x{self.pc:x}")
        first = self.load(self.pc, 2)
        width = 2 if first & 0b11 != 0b11 else 4
        raw = first if width == 2 else first | (self.load(self.pc + 2, 2) << 16)
        try:
            insn = decode_one(raw.to_bytes(width, "little"), self.pc, self.xlen)
        except (InvalidEncoding, Truncated) as exc:
            raise _Fault("invalid-encoding",
                         f"at 0x{self.pc:x}: {exc}") from None
        self._decoded[self.pc] = insn
        return insn

    def step(self) -> None:
        insn = self.fetch()
        next_pc = self._execute(insn)
        self.pc = (self.pc + insn.width if next_pc is None else next_pc) & self.mask

    def _shadow_push(self, value: int) -> None:
        self.shadow_stack.append(value & self.mask)
        self.shadow_pushes += 1

    def _shadow_pop(self, target: int) -> None:
        if not self.shadow_stack:
            raise _Violation(
                f"return to 0x{target:x} with an empty shadow stack")
        expected = self.shadow_stack.pop()
        self.shadow_pops += 1
        if expected != target & self.mask:
            raise _Violation(
                f"return to 0x{target & self.mask:x}, shadow stack "
                f"expected 0x{expected:x}")

    def _execute(self, insn: DecodedInstruction) -> int | None:
        cf = insn.control_flow
        if isinstance(cf, DirectJump):
            if cf.link is not None:
                self.set(cf.link, self.pc + insn.width)
                if cf.link is RA:
                    self._shadow_push(self.pc + insn.width)
            return cf.target & self.mask
        if isinstance(cf, IndirectJump):
            target = jalr_target(self.get(cf.base), cf.offset, self.xlen)
            if cf.link is not None:
                self.set(cf.link, self.pc + insn.width)
                if cf.link is RA:
                    self._shadow_push(self.pc + insn.width)
            elif cf.is_return:
                self._shadow_pop(target)
            return target
        if isinstance(cf, CondBranch):
            compare, signed = _BRANCHES[cf.op]
            a, b = self.regs[cf.regs[0].index], self.regs[cf.regs[1].index]
            if signed:
                a, b = to_signed(a, self.xlen), to_signed(b, self.xlen)
            return cf.target & self.mask if compare(a, b) else None
        if isinstance(cf, Trap):
            if cf.kind == "ebreak":
                raise _Fault("breakpoint", f"ebreak at 0x{self.pc:x}")
            self._ecall(insn)
            return None
        if insn.mem_access is not None:
            return self._mem_op(insn)
        self._alu_op(insn)
        return None

    def _ecall(self, insn: DecodedInstruction) -> None:
        number = self.regs[17]
        args = tuple(self.regs[10:16])
        if number in DEFAULT_ECALL_RETURNS:
            result = DEFAULT_ECALL_RETURNS[number]
        elif number in (READ, WRITE):
            result = self.regs[12]          # full count transferred
        else:
            result = 0
        self.regs[10] = result & self.mask
        self.syscalls.append(SyscallRecord(number, args, self.pc, result))

    # Loads sign-extend unless the base name says otherwise.
    _UNSIGNED_LOADS = {"lbu", "lhu", "lwu"}

    def _mem_op(self, insn: DecodedInstruction) -> None:
        acc = insn.mem_access
        name, ops = insn.base.name, insn.base.operands
        address = (self.get(acc.base) + acc.offset) & self.mask
        if name.startswith("lr."):
            rd = ops[0]
            self.set(rd, sext(self.load(address, acc.size), acc.size * 8)
                     & self.mask)
            return None
        if name.startswith("sc."):
            rd, rs2 = ops[0], ops[1]
            self.store(address, acc.size, self.get(rs2))
            self.set(rd, 0)                 # always succeeds
            return None
        if name.startswith("amo"):
            rd, rs2 = ops[0], ops[1]
            old = sext(self.load(address, acc.size), acc.size * 8)
            src = to_signed(self.get(rs2), self.xlen)
            op = name.split(".")[0][3:]
            new = {"add": old + src, "swap": src,
                   "xor": old ^ src, "or": old | src, "and": old & src,
                   "min": min(old, src), "max": max(old, src),
                   "minu": min(old & self.mask, src & self.mask),
                   "maxu": max(old & self.mask, src & self.mask)}[op]
            self.store(address, acc.size, new)
            self.set(rd, old & self.mask)
            return None
        if acc.kind == "load":
            rd = ops[0]
            value = self.load(address, acc.size)
            if name not in self._UNSIGNED_LOADS:
                value = sext(value, acc.size * 8) & self.mask
            self.set(rd, value)
            return None
        rs2 = ops[0]
        self.store(address, acc.size, self.get(rs2))
        return None

    def _alu_op(self, insn: DecodedInstruction) -> None:
        name, ops = insn.base.name, insn.base.operands
        if name in ("fence", "fence.i"):
            return
        if name.startswith("csr"):
            # CSR state is not modeled; reads yield zero.
            self.set(ops[0], 0)
            return
        if name in ("lui", "auipc"):
            rd = ops[0]
            value = insn.imm & self.mask
            if name == "auipc":
                value = (value + self.pc) & self.mask
            self.set(rd, value)
            return
        fn = _BASE_OPS.get(name)
        if fn is None:
            raise _Fault("unsupported",
                         f"{insn.mnemonic} at 0x{self.pc:x}")
        rd, a, b = ops[0], ops[1], ops[2]
        lhs = self.get(a)
        rhs = self.get(b) if isinstance(b, Register) else b
        self.set(rd, fn(self, lhs, rhs) & self.mask)


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


def new_machine(image: ExecutableImage, *,
                payload=None, buffer_base: int | None = None,
                stack_top: int = DEFAULT_STACK_TOP) -> Machine:
    """Map the image, the payload buffer, and a scratch stack.

    Registers start at zero apart from sp, which points at `stack_top`
    inside a zeroed scratch region.  Seed values travel through memory:
    the payload's stack writes land at their entry-sp-relative offsets,
    and it is the chain initializer's job to load them.
    """
    m = Machine(xlen=image.xlen)
    for seg in image.segments:
        m.map_region(seg.vaddr, seg.data)
    if payload is not None:
        if buffer_base is None:
            raise ToolError("payload given without a buffer base")
        m.map_region(buffer_base, payload.buffer)
    m.map_region(stack_top - STACK_SLACK, 2 * STACK_SLACK)
    m.regs[SP.index] = stack_top & m.mask
    if payload is not None:
        size = m.xlen // 8
        for w in payload.stack_writes:
            m.store(stack_top + w.offset, size, w.value)
    return m


def run_chain(machine: Machine, entry: int, return_to: int,
              fuel: int = DEFAULT_FUEL,
              loop_entry: int | None = None) -> SimReport:
    """Run until the chain lands on `return_to` or something gives out."""
    machine.pc = entry & machine.mask
    return_to &= machine.mask
    if loop_entry is not None:
        loop_entry &= machine.mask
    sp_entry = machine.sp
    rounds = 0
    steps = 0
    outcome = FUEL_EXHAUSTED
    fault = violation = None
    while steps < fuel:
        if machine.pc == return_to:
            outcome = REACHED
            break
        if machine.pc == loop_entry:
            rounds += 1
        try:
            machine.step()
        except _Fault as exc:
            outcome = FAULT
            fault = str(exc)
            break
        except _Violation as exc:
            outcome = VIOLATION
            violation = exc.detail
            break
        steps += 1
    return SimReport(
        outcome=outcome, steps=steps, dispatch_rounds=rounds,
        syscalls=list(machine.syscalls),
        shadow_pushes=machine.shadow_pushes,
        shadow_pops=machine.shadow_pops,
        shadow_depth=len(machine.shadow_stack),
        final_sp_delta=to_signed((machine.sp - sp_entry) & machine.mask,
                                 machine.xlen),
        fault=fault, violation=violation)
