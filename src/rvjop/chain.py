"""Chain assembly: dispatch tables, payload layout, and static validation.

A chain is an initializer, a dispatcher, and an ordered list of functional
gadget steps, for one image: `ChainSpec.image`, which `parse_chain_text`
fills in, decides XLEN (the table element width and the width of every
seed) and which addresses the payload must stay clear of.  The dispatch
table holds one entry per repeat of each step plus the final return
address; layout writes it once, a run of `repeat` copies of each step's
entry at a time, so memory follows the payload size and not the number
of steps.  The payload buffer is the table followed by any data seeds
(path strings and the like).  Register seeds are the values the
initializer must load, as the XLEN-bit values the registers will hold,
placed at the stack offsets its loads read from.  Layout refuses a
buffer that overlaps a segment of the image or runs past 2^XLEN (before
it writes the table), a dispatcher loop that no XLEN-bit bound, or x0
where the loop compares against it, keeps running for every round, one
whose self-link does not compare the table register with a register no
round moves, such as a counted loop, and two seeds of different values
that the initializer loads from one stack slot.

What a dispatcher round does is its candidate's `round`; each step and
the initializer carry their own `summary`.  All three are computed on
first read and kept, so validation and layout summarize each part of a
chain once between them.

Validation is static and best-effort: it proves nothing, it just catches
the cheap mistakes (clobbered reserved registers, unbalanced stack motion,
arguments overwritten before their syscall, a jump register the
initializer leaves unseeded) before simulation does the real verdict.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType

from .classify import (DISPATCHER_AUTONOMOUS, DISPATCHER_TWO_STAGE,
                       DispatcherCandidate, InitializerCandidate, Source,
                       dispatcher_at, initializer_at)
from .dataflow import DataflowSummary, summarize_dataflow
from .errors import AddressTooWide, Diverges, Overlap, ToolError
from .image import ExecutableImage
from .isa import ARG_REGS, Register, mask, reg
from .scanner import Gadget, gadget_at

ERROR = "error"
WARNING = "warning"
INFO = "info"


# Records are namedtuples (see `rvjop.decoder`); each field's
# type is in the comment beside it.

class Diagnostic(namedtuple("Diagnostic", (
        "severity",     # str
        "code",         # str
        "message",      # str
        ))):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.severity}: {self.code}: {self.message}"


def has_errors(diagnostics) -> bool:
    return any(d.severity == ERROR for d in diagnostics)


class ChainStep(namedtuple("ChainStep", (
        "gadget",       # Gadget
        "repeat",       # int
        "note",         # str
        ), defaults=(1, ""))):
    # no `__slots__ = ()`: `summary` is cached in the instance's __dict__

    @cached_property
    def summary(self) -> DataflowSummary:
        return summarize_dataflow(self.gadget.instructions)


class ChainSpec(namedtuple("ChainSpec", (
        "dispatcher",   # DispatcherCandidate
        "initializer",  # InitializerCandidate
        "steps",        # tuple[ChainStep, ...]
        "return_to",    # int
        "table_base",   # int
        "image",        # ExecutableImage: the image the chain runs in
        "reserved",     # frozenset[Register]
        "dispatch_reg",  # Register | None: classic schemes only
        "data_seeds",   # tuple[tuple[bytes, str], ...]
        "seed_overrides",  # Mapping[Register, int]
        ), defaults=(frozenset(), None, (), MappingProxyType({})))):
    __slots__ = ()

    @property
    def reserved_registers(self) -> frozenset[Register]:
        regs = set(self.dispatcher.required_registers) | set(self.reserved)
        if self.dispatch_reg is not None:
            regs.add(self.dispatch_reg)
        return frozenset(regs)


MemorySeed = namedtuple("MemorySeed", (
    "offset",       # int: from the buffer (table) base
    "data",         # bytes
    "note",         # str
), defaults=("",))


StackWrite = namedtuple("StackWrite", (
    "offset",       # int: from the entry sp
    "value",        # int
    "register",     # Register
))


PayloadLayout = namedtuple("PayloadLayout", (
    "buffer",       # bytes: the table, then the data seeds
    "entries",      # int: table entries, return address included
    "register_seeds",  # dict[Register, int]
    "memory_seeds",    # tuple[MemorySeed, ...]
    "stack_writes",    # tuple[StackWrite, ...]
    "unplaced_seeds",  # tuple[tuple[Register, Source], ...]
    "sp_ledger",       # tuple[tuple[str, int | None], ...]
))


def repetitions_for(target: int, stride_per_use: int, start: int = 0) -> int:
    """Smallest count with start + count * stride reaching past target.

    "Reaching" respects the stride direction: counting up means >= target,
    counting down means <= target.  A stride of the wrong sign (or zero)
    can never get there and raises Diverges.
    """
    delta = target - start
    if delta == 0:
        return 0
    if stride_per_use == 0 or (delta > 0) != (stride_per_use > 0):
        raise Diverges(
            f"stride {stride_per_use} never reaches {target} from {start}")
    return math.ceil(abs(delta) / abs(stride_per_use))


# --- validation -------------------------------------------------------------

def _sp_ledger(spec: ChainSpec) -> list[tuple[str, int | None]]:
    """(label, sp delta) for the initializer and each step, repeats
    folded in; None where a step moves sp by a non-constant amount."""
    ledger: list[tuple[str, int | None]] = [
        ("initializer", spec.initializer.summary.sp_delta)]
    for i, step in enumerate(spec.steps):
        d = step.summary.sp_delta
        ledger.append((f"step {i}", None if d is None else d * step.repeat))
    return ledger


def validate_chain(spec: ChainSpec) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    disp = spec.dispatcher
    elem = spec.image.xlen // 8

    if abs(disp.stride) != elem:
        diags.append(Diagnostic(ERROR, "StrideMismatch",
                                f"dispatcher stride {disp.stride} walks "
                                f"{elem}-byte table entries"))

    autonomous = disp.kind == DISPATCHER_AUTONOMOUS
    if not autonomous and spec.dispatch_reg is None:
        diags.append(Diagnostic(ERROR, "MissingDispatchReg",
                                "classic schemes need the register gadgets "
                                "jump back through"))

    # Layout aims these at the loop entry only if the initializer loads them.
    init = spec.initializer
    for r in dict.fromkeys([init.link_register, spec.dispatch_reg]):
        if r is not None and r not in init.sets:
            diags.append(Diagnostic(
                WARNING, "UnseededJumpReg",
                f"initializer does not load {r.name}, which must hold the "
                f"loop entry 0x{disp.loop_entry:x}"))

    # 1. terminator compatibility
    for i, step in enumerate(spec.steps):
        if step.repeat < 1:
            diags.append(Diagnostic(ERROR, "BadRepeat",
                                    f"step {i}: repeat must be >= 1"))
        cf = step.gadget.terminator.control_flow
        if autonomous:
            if not cf.is_return:
                diags.append(Diagnostic(
                    ERROR, "TerminatorMismatch",
                    f"step {i}: must end with a return-like jump through ra "
                    f"(ends via {cf.base.name})"))
        elif spec.dispatch_reg is not None:
            if cf.base is not spec.dispatch_reg:
                diags.append(Diagnostic(
                    ERROR, "TerminatorMismatch",
                    f"step {i}: must jump back via "
                    f"{spec.dispatch_reg.name} (ends via {cf.base.name})"))
            elif cf.pushes:
                diags.append(Diagnostic(
                    WARNING, "LinkingStep",
                    f"step {i}: links with ra; each round grows a shadow stack"))

    # 2. reserved registers stay untouched
    reserved = spec.reserved_registers
    for i, step in enumerate(spec.steps):
        hit = step.summary.clobbers(reserved)
        if hit:
            names = ",".join(sorted(r.name for r in hit))
            diags.append(Diagnostic(ERROR, "ClobbersReserved",
                                    f"step {i}: writes reserved {names}"))

    # 3. syscall argument continuity (best effort, warnings only)
    pending: dict[Register, int] = {}
    later_syscall = [False] * (len(spec.steps) + 1)
    for i in range(len(spec.steps) - 1, -1, -1):
        later_syscall[i] = (later_syscall[i + 1]
                            or spec.steps[i].summary.ecall_a7 is not None)
    for i, step in enumerate(spec.steps):
        summary = step.summary
        has_ecall = summary.ecall_a7 is not None
        for r in summary.written | summary.cond_written:
            if r not in ARG_REGS:
                continue
            blind = r not in summary.read_before_write
            if blind and r in pending and later_syscall[i] and not has_ecall:
                diags.append(Diagnostic(
                    WARNING, "ArgClobbered",
                    f"step {i}: overwrites {r.name} set by step "
                    f"{pending[r]} before any ecall consumed it"))
            pending[r] = i
        if has_ecall:
            pending.clear()

    # 4. stack ledger
    ledger = _sp_ledger(spec)
    if disp.round.sp_delta != 0:
        diags.append(Diagnostic(WARNING, "DispatcherTouchesSp",
                                "dispatcher round moves sp"))
    unknown = any(d is None for _, d in ledger)
    if unknown:
        diags.append(Diagnostic(WARNING, "UnknownSpDelta",
                                "a step moves sp by a non-constant amount"))
    else:
        net = sum(d for _, d in ledger)
        if net != 0:
            diags.append(Diagnostic(ERROR, "UnbalancedStack",
                                    f"chain ends with net sp delta {net:+d}"))

    # 5. loop-condition obligation
    if disp.self_link.kind == "conditional":
        r1, r2 = disp.self_link.regs
        diags.append(Diagnostic(
            INFO, "MustHold",
            f"dispatcher keeps looping only while "
            f"{r1.name} {disp.self_link.op} {r2.name} holds at each round"))
    return diags


# --- payload layout ---------------------------------------------------------

def _condition_bound(disp: DispatcherCandidate, seed_ptr: int, rounds: int,
                     xlen: int) -> int:
    """Bound-register value keeping the branch taken at every evaluation.

    The self-link runs after each of `rounds` rounds.  After round k the
    pointer holds seed + k*stride (mod 2^XLEN).  `lt` and `ge` compare
    those values as signed XLEN-bit numbers, the other branches as
    unsigned ones, so the bound is worked out in the same domain: a
    signed bound may be negative.  When the bound register is x0 the
    bound is 0, and this only checks it.  Raises `ToolError` when no
    XLEN-bit value (or 0, for x0) keeps the branch taken.
    """
    if rounds == 0:
        return 0
    op, stride = disp.self_link.op, disp.stride
    r1, r2 = disp.self_link.regs
    table_left = r1 is disp.table_reg
    if op not in ("ne", "lt", "ltu", "ge", "geu"):
        raise ToolError(f"cannot keep a {op} self-link taken for every round")
    size = 1 << xlen
    low = -(size >> 1) if op in ("lt", "ge") else 0
    high = low + size - 1
    kind = "signed" if low else "unsigned"
    # The pointer's values as the branch reads them, and the least and
    # greatest of them.  Its stride is the element size (validation checks
    # it), so it spans less than the table, which fits the address space:
    # it crosses the domain's edge at most once.
    first = (seed_ptr + stride - low) % size + low
    last = first + (rounds - 1) * stride
    if low <= last <= high:
        lo, hi = min(first, last), max(first, last)
    elif stride > 0:
        hi = first + (high - first) // stride * stride
        lo = hi + stride - size
    else:
        lo = first - (first - low) // -stride * -stride
        hi = lo + stride + size
    if (r2 if table_left else r1).index == 0:
        # `ne` reads unsigned, where 0 lies below every value but 0 itself
        if (op in ("ge", "geu") and (lo >= 0 if table_left else hi <= 0)
                or op == "ne" and lo > 0
                or op in ("lt", "ltu") and (hi < 0 if table_left else lo > 0)):
            return 0
        raise ToolError(f"{r1.name} {op} {r2.name} does not hold for every "
                        f"round ({kind} {xlen}-bit): the table pointer runs "
                        f"from {first & (size - 1):#x} to "
                        f"{last & (size - 1):#x}")
    if op in ("ge", "geu"):
        return lo if table_left else hi
    # above every value if the branch wants the pointer below the bound,
    # else below every value; `ne` takes either, above if there is room
    up = hi < high if op == "ne" else table_left
    gap = (abs(stride) if rounds > 1 else 0) or 4
    bound = min(hi + gap, high) if up else max(lo - gap, low)
    if bound == (hi if up else lo):
        raise ToolError(f"no {kind} {xlen}-bit loop bound keeps {r1.name} "
                        f"{op} {r2.name} for every round: the table pointer "
                        f"reaches {bound & (size - 1):#x}")
    return bound


def _buffer(spec: ChainSpec) -> bytes:
    """The payload bytes: the dispatch table in memory order, a run of
    `repeat` copies of each step's entry and then the return address
    (the runs reversed for a negative stride), followed by the data
    seeds."""
    xlen = spec.image.xlen
    runs = [(step.gadget.start, step.repeat) for step in spec.steps]
    runs.append((spec.return_to, 1))
    for entry, _ in runs:
        if not 0 <= entry < 1 << xlen:
            raise AddressTooWide(f"entry {entry:#x} does not fit {xlen} bits")
    if spec.dispatcher.stride < 0:
        runs.reverse()
    return b"".join([entry.to_bytes(xlen // 8, "little") * repeat
                     for entry, repeat in runs]
                    + [data for data, _ in spec.data_seeds])


def layout_payload(spec: ChainSpec) -> PayloadLayout:
    disp = spec.dispatcher
    xlen = spec.image.xlen
    elem = xlen // 8
    # Sized from the repeats, so a payload past the address space is
    # refused before its table is written.
    n = sum(max(step.repeat, 0) for step in spec.steps) + 1

    mem_seeds = []
    off = n * elem
    for data, note in spec.data_seeds:
        mem_seeds.append(MemorySeed(off, bytes(data), note))
        off += len(data)
    base, end = spec.table_base, spec.table_base + off
    if end > 1 << xlen:
        raise AddressTooWide(f"payload [0x{base:x}, 0x{end:x}) runs past "
                             f"the {xlen}-bit address space")
    for seg in spec.image.segments:
        if base < seg.end and seg.vaddr < end:
            raise Overlap(f"payload [0x{base:x}, 0x{end:x}) collides with "
                          f"segment at 0x{seg.vaddr:x}")
    buffer = _buffer(spec)

    # Where must the table register point so round one reads entry one?
    first_read = base if disp.stride >= 0 else base + (n - 1) * elem
    seed_ptr = first_read - disp.load_offset

    seeds: dict[Register, int] = {}
    init = spec.initializer
    seeds[disp.table_reg] = seed_ptr

    if disp.self_link.kind == "conditional":
        r1, r2 = disp.self_link.regs
        bound_reg = r2 if r1 is disp.table_reg else r1
        if (disp.table_reg not in (r1, r2)
                or disp.round.moved(bound_reg) != 0):
            raise ToolError(f"cannot bound a loop on {r1.name} "
                            f"{disp.self_link.op} {r2.name}: it must compare "
                            f"the table register {disp.table_reg.name} with "
                            f"a register no round moves")
        bound = _condition_bound(disp, seed_ptr, n - 1, xlen)
        if bound_reg.index != 0:
            seeds[bound_reg] = bound

    # The initializer's own jump register must aim at the dispatcher,
    # and on classic schemes so must the register gadgets return through.
    if init.link_register in init.sets:
        seeds[init.link_register] = disp.loop_entry
    if spec.dispatch_reg is not None and spec.dispatch_reg in init.sets:
        seeds.setdefault(spec.dispatch_reg, disp.loop_entry)
    if disp.kind == DISPATCHER_TWO_STAGE and disp.stage2 is not None:
        j = disp.gadget.link_register
        if j in init.sets:
            seeds[j] = disp.stage2.start

    for r in init.sets:
        seeds.setdefault(r, 0)
    seeds.update(spec.seed_overrides)
    # Each seed as the XLEN-bit value its register or stack slot holds.
    seeds = {r: v & mask(xlen) for r, v in seeds.items()}

    stack_writes = []
    unplaced = []
    slots: dict[int, Register] = {}     # sp offset -> first register loaded
    for r, src in sorted(init.sets.items(), key=lambda kv: kv[0].index):
        if src.kind == "stack" and src.base.index == 2:
            first = slots.setdefault(src.offset, r)
            if seeds[first] != seeds[r]:
                raise ToolError(
                    f"stack slot sp{src.offset:+d} cannot hold both "
                    f"{first.name} = 0x{seeds[first]:x} and "
                    f"{r.name} = 0x{seeds[r]:x}: the initializer loads "
                    f"both from it")
            stack_writes.append(StackWrite(src.offset, seeds[r], r))
        else:
            unplaced.append((r, src))

    ledger = _sp_ledger(spec)
    return PayloadLayout(
        buffer=buffer, entries=n, register_seeds=seeds,
        memory_seeds=tuple(mem_seeds), stack_writes=tuple(stack_writes),
        unplaced_seeds=tuple(unplaced), sp_ledger=tuple(ledger))


# --- chain spec text format -------------------------------------------------

def parse_chain_text(text: str, image: ExecutableImage) -> ChainSpec:
    """Parse the line-oriented chain description.

    Directives (one per line, '#' starts a comment), where every ADDR
    must lie in [0, 2^XLEN) for the image's XLEN:

        dispatcher 0xADDR         loop-entry address of the dispatcher
        initializer 0xADDR        gadget address used to seed registers
        table-base 0xADDR         where the payload buffer will sit
        return-to 0xADDR          final table entry
        dispatch-reg REG          classic schemes: gadgets jump back via REG
        reserve REG[,REG...]      extra registers steps must preserve
        seed REG=VALUE            explicit register seed override
        step 0xADDR [REPEAT] [note...]
        data hex:BYTES [note...]  raw payload bytes after the table
        data str:TEXT [note...]   NUL-terminated string after the table
    """
    dispatcher_addr = None
    initializer_addr = None
    table_base = None
    return_to = None
    dispatch_reg = None
    reserved: set[Register] = set()
    overrides: dict[Register, int] = {}
    steps: list[tuple[int, int, str]] = []
    data_seeds: list[tuple[bytes, str]] = []

    def num(tok: str) -> int:
        return int(tok, 0)

    def address(tok: str) -> int:
        value = num(tok)
        if not 0 <= value < 1 << image.xlen:
            raise ValueError(f"address {tok} is outside the "
                             f"{image.xlen}-bit address space")
        return value

    for lineno, rawline in enumerate(text.splitlines(), 1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        try:
            if key == "dispatcher":
                dispatcher_addr = address(args[0])
            elif key == "initializer":
                initializer_addr = address(args[0])
            elif key == "table-base":
                table_base = address(args[0])
            elif key == "return-to":
                return_to = address(args[0])
            elif key == "dispatch-reg":
                dispatch_reg = reg(args[0])
            elif key == "reserve":
                for name in args[0].split(","):
                    reserved.add(reg(name))
            elif key == "seed":
                name, _, val = args[0].partition("=")
                overrides[reg(name)] = num(val)
            elif key == "step":
                addr = address(args[0])
                repeat = 1
                note_from = 1
                if len(args) > 1 and args[1].isdigit():
                    repeat = int(args[1])
                    note_from = 2
                steps.append((addr, repeat, " ".join(args[note_from:])))
            elif key == "data":
                spec_tok = args[0]
                note = " ".join(args[1:])
                if spec_tok.startswith("hex:"):
                    data_seeds.append((bytes.fromhex(spec_tok[4:]), note))
                elif spec_tok.startswith("str:"):
                    data_seeds.append((spec_tok[4:].encode() + b"\x00", note))
                else:
                    raise ValueError(f"unknown data form {spec_tok!r}")
            else:
                raise ValueError(f"unknown directive {key!r}")
        except (IndexError, ValueError) as exc:
            raise ToolError(f"chain spec line {lineno}: {exc}") from None

    for what, value in [("dispatcher", dispatcher_addr),
                        ("initializer", initializer_addr),
                        ("table-base", table_base), ("return-to", return_to)]:
        if value is None:
            raise ToolError(f"chain spec is missing a {what} line")

    chosen = dispatcher_at(image, dispatcher_addr)
    if chosen is None:
        raise ToolError(f"no dispatcher candidate at 0x{dispatcher_addr:x}")

    initializer = initializer_at(image, initializer_addr, chosen)
    chain_steps = tuple(ChainStep(gadget_at(image, a), r, n)
                        for a, r, n in steps)
    return ChainSpec(dispatcher=chosen, initializer=initializer,
                     steps=chain_steps, return_to=return_to,
                     table_base=table_base, image=image,
                     reserved=frozenset(reserved),
                     dispatch_reg=dispatch_reg, data_seeds=tuple(data_seeds),
                     seed_overrides=overrides)


def render_manifest(spec: ChainSpec, layout: PayloadLayout,
                    diagnostics) -> str:
    """Human-readable payload summary."""
    disp = spec.dispatcher
    lines = []
    lines.append(f"dispatcher   {disp.kind} entry=0x{disp.loop_entry:08x} "
                 f"table={disp.table_reg.name} stride={disp.stride:+d} "
                 f"target={disp.target_reg.name}")
    lines.append(f"initializer  0x{spec.initializer.gadget.start:08x} "
                 f"jumps via {spec.initializer.link_register.name}")
    lines.append(f"table-base   0x{spec.table_base:08x}  "
                 f"entries={layout.entries}  "
                 f"element={spec.image.xlen // 8}")
    lines.append(f"return-to    0x{spec.return_to:08x}")
    lines.append(f"payload size {len(layout.buffer)} bytes")
    lines.append("")
    lines.append("register seeds (loaded by the initializer):")
    for r, v in sorted(layout.register_seeds.items(), key=lambda kv: kv[0].index):
        lines.append(f"  {r.name:5s} = 0x{v:x}")
    if layout.stack_writes:
        lines.append("stack slots to prepare (relative to entry sp):")
        for w in layout.stack_writes:
            lines.append(f"  sp{w.offset:<+5d} <- 0x{w.value:x}"
                         f"  ({w.register.name})")
    for r, src in layout.unplaced_seeds:
        lines.append(f"  note: {r.name} loads via {src.kind} base "
                     f"{src.base.name}{src.offset:+d}; place it yourself")
    if layout.memory_seeds:
        lines.append("data seeds:")
        for seed in layout.memory_seeds:
            preview = seed.data[:16].hex()
            lines.append(f"  +0x{seed.offset:x} {len(seed.data)}B {preview}"
                         f" {seed.note}".rstrip())
    lines.append("stack ledger:")
    running = 0         # None once a move is unknown: so is every total
    for label, delta in layout.sp_ledger:
        if delta is None:
            running = None
            lines.append(f"  {label:12s} sp?? (unknown)")
        elif running is None:
            lines.append(f"  {label:12s} sp{delta:+d} -> ??")
        else:
            running += delta
            lines.append(f"  {label:12s} sp{delta:+d} -> {running:+d}")
    if diagnostics:
        lines.append("diagnostics:")
        for d in diagnostics:
            lines.append(f"  {d}")
    return "\n".join(lines) + "\n"
