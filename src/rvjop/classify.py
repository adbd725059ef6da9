"""Gadget roles, dispatcher discovery, initializer pairing, availability.

Role assignment is rule-based and deliberately permissive: a gadget can
hold several roles at once (an increment ending in a linking jump is both
arithmetic and a call).

Dispatcher shapes:

* classic: the body itself advances a table pointer by a constant, loads
  the jump target from it, and jumps through the target register.
* two-stage: the same work split across a pair, stage one advancing the
  pointer and jumping to stage two, which loads and jumps.  Neither
  stage may jump through ra: that is a return.
* autonomous: the loop body loads the target from the table pointer and
  calls it with a linking jump; the code after the call advances the
  pointer and branches back to the loop entry.  Because the call links,
  returns from the called gadget keep a shadow stack balanced, which is
  what makes this shape interesting.  Detection therefore looks past the
  terminator at the return path, something plain gadget extraction never
  does.

All three shapes read a table by one rule, `_table_walk`: the target
register's last write in the body must be a load through another
register, the table register, unwritten or moved by a constant up to
that load.  A target written after its table load (`lw a5,0(s0); mv
a5,a1; jr a5`) jumps to whatever that later write put there, not to a
table entry, so the gadget walks no table.

A candidate's `round` is the one model of what a round runs: the
dataflow summary of its body (stage one, for a pair), then stage two,
then the return path.  The stride is how far a round moves the table
register (`DataflowSummary.moved`): read from the round of an
autonomous loop, from the body's own summary for a classic one, and,
per register a stage one adds a nonzero constant to in place, from
stage one's summary, paired only with stage twos that leave that
register where it was.  A stride of 0 or of no known constant walks no
table.  `round` is computed on first read, so the search pays for it
only for autonomous loops, which keep the round their stride came from;
chain validation and layout read it.
Classic and two-stage bodies are a view of the image's one gadget
growth, widened on demand, so none is grown twice.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .dataflow import (Const, DataflowSummary, Source, const_add,
                       summarize_dataflow)
from .decoder import (_SHAPE, CondBranch, DecodedInstruction, DirectJump,
                      IndirectJump, Trap)
from .decoder import decode_one  # noqa: F401  benchmarks/test_benchmark.py looks it up here
from .errors import ToolError
from .image import DecodedSegment, ExecutableImage
from .isa import RA, SP, A7, Register
from .scanner import (NATURAL, SHIFTED, Gadget, dedupe, extract_gadgets,
                      gadget_at, terminators)

# role kinds
ARITH = "arith"
LOAD = "load"
STORE = "store"
CALL = "call"
SYSCALL = "syscall"
DISPATCHER_CLASSIC = "dispatcher-classic"
DISPATCHER_TWO_STAGE = "dispatcher-two-stage"
DISPATCHER_AUTONOMOUS = "dispatcher-autonomous"
INITIALIZER = "initializer"
UNCLASSIFIED = "unclassified"
ROLES = (ARITH, LOAD, STORE, CALL, SYSCALL, DISPATCHER_CLASSIC,
         DISPATCHER_TWO_STAGE, DISPATCHER_AUTONOMOUS, INITIALIZER,
         UNCLASSIFIED)
# the roles classify() reads from the gadget alone, with no dispatcher
# index: whether a gadget holds one needs no dispatcher search
LOCAL_ROLES = frozenset(ROLES) - {DISPATCHER_CLASSIC, DISPATCHER_TWO_STAGE,
                                  DISPATCHER_AUTONOMOUS, UNCLASSIFIED}

# base mnemonics whose effects rule computes a register from registers
# and immediates
_ALU_MNEMONICS = frozenset(n for n, (kind, _) in _SHAPE.items()
                           if kind in ("imm", "reg", "upper"))


# Records are namedtuples (see `rvjop.decoder`); each field's
# type is in the comment beside it.

GadgetRole = namedtuple("GadgetRole", (
    "kind",         # str
    "detail",       # object
), defaults=(None,))


SelfLink = namedtuple("SelfLink", (
    "kind",         # str: "none" | "unconditional" | "conditional"
    "regs",         # tuple[Register, Register] | None
    "op",           # str | None: branch condition for "conditional"
), defaults=(None, None))


NO_SELF_LINK = SelfLink("none")


class DispatcherCandidate(namedtuple("DispatcherCandidate", (
        "kind",         # str: one of the three dispatcher role kinds
        "gadget",       # Gadget: loop body (stage one for two-stage pairs)
        "table_reg",    # Register
        "stride",       # int
        "target_reg",   # Register
        "self_link",    # SelfLink
        "load_offset",  # int: where the table load reads, from the
                        # pointer at the start of a round
        "pre_increment",  # bool: pointer moved before the load each round
        "return_path",  # tuple[DecodedInstruction, ...]
        "stage2",       # Gadget | None
        ), defaults=(0, False, (), None))):
    # no `__slots__ = ()`: `round` is cached in the instance's __dict__

    @cached_property
    def round(self) -> DataflowSummary:
        """Dataflow summary of one round: the body (stage one, for a
        two-stage pair), then stage two, then the return path.  Computed
        on first read and kept; of the candidates `find_dispatchers`
        returns, only autonomous loops hold it, from their stride."""
        stage2 = () if self.stage2 is None else self.stage2.instructions
        return summarize_dataflow(self.gadget.instructions + stage2
                                  + self.return_path, self.gadget.table.xlen)

    @property
    def loop_entry(self) -> int:
        return self.gadget.start

    @property
    def required_registers(self) -> frozenset[Register]:
        """Registers an initializer must set for this dispatcher to loop."""
        regs = {self.table_reg}
        if self.self_link.kind == "conditional":
            regs.update(r for r in self.self_link.regs if r.index != 0)
        if self.kind == DISPATCHER_TWO_STAGE:
            regs.add(self.gadget.link_register)
        return frozenset(regs)

    def unseeded(self, sets: dict[Register, Source]) -> frozenset[Register]:
        """Required registers an initializer seeding `sets` leaves unset."""
        return self.required_registers - sets.keys()

    def on(self, gadget: Gadget) -> DispatcherCandidate | None:
        """This candidate on `gadget`, a byte-identical copy of its body.
        A classic or two-stage shape is a property of the body's bytes,
        and `find_dispatchers` reports each distinct body once, so any
        copy is that dispatcher.  An autonomous loop also needs the
        return path after its body: None for any copy but its own."""
        if gadget.start == self.gadget.start:
            return self
        if self.kind == DISPATCHER_AUTONOMOUS:
            return None
        return self._replace(gadget=gadget)


class InitializerCandidate(namedtuple("InitializerCandidate", (
        "gadget",       # Gadget
        "sets",         # dict[Register, Source]
        ))):
    # no `__slots__ = ()`: `summary` is cached in the instance's __dict__

    @cached_property
    def summary(self) -> DataflowSummary:
        return summarize_dataflow(self.gadget.instructions,
                                  self.gadget.table.xlen)

    @property
    def link_register(self) -> Register:
        return self.gadget.link_register


# --- role classification ----------------------------------------------------

def _is_alu_write(insn: DecodedInstruction) -> bool:
    return insn.base.name in _ALU_MNEMONICS and bool(insn.regs_written)


def classify(gadget: Gadget, summary: DataflowSummary | None = None,
             dispatchers: dict[bytes, list[DispatcherCandidate]] | None = None
             ) -> list[GadgetRole]:
    """Roles for one gadget.  Pure in (gadget bytes, summary, context),
    but for an autonomous loop, whose return path follows its bytes.

    `dispatchers` maps gadget bytes to candidates found by
    find_dispatchers (`dispatcher_index`); without it only body-local
    roles are assigned.
    """
    if summary is None:
        summary = summarize_dataflow(gadget.instructions, gadget.table.xlen)
    roles: list[GadgetRole] = []

    has_mem = bool(summary.mem_reads or summary.mem_writes)
    if not has_mem and any(_is_alu_write(i) for i in gadget.interior):
        roles.append(GadgetRole(ARITH))
    if summary.mem_reads:
        roles.append(GadgetRole(LOAD))
    if summary.mem_writes:
        roles.append(GadgetRole(STORE))
    if gadget.terminator_links:
        roles.append(GadgetRole(CALL))

    a7 = summary.ecall_a7
    sysno = a7.value if type(a7) is Const else None
    if a7 is not None and (sysno is not None
                           or A7 in summary.read_before_write):
        roles.append(GadgetRole(SYSCALL, sysno))

    if dispatchers:
        # each kind once, with its first candidate: a stage one pairs
        # with every stage two that loads through it
        kinds = set()
        for cand in dispatchers.get(gadget.encoding, ()):
            cand = None if cand.kind in kinds else cand.on(gadget)
            if cand is not None:
                kinds.add(cand.kind)
                roles.append(GadgetRole(cand.kind, cand))

    sets = initializer_sources(gadget, summary)
    if sets and any(src.kind == "stack" for src in sets.values()):
        roles.append(GadgetRole(INITIALIZER))

    if not roles:
        roles.append(GadgetRole(UNCLASSIFIED))
    return roles


# --- dispatcher discovery ---------------------------------------------------

_CONTINUATION_WINDOW = 8     # instructions examined after a linking jump
_BACKLINK_WINDOW = 64        # bytes a self-link may reach backwards


def _table_walk(body, target: Register, xlen: int
                ) -> tuple[Register, int, bool] | None:
    """How `body` reads `target` from a table, or None if it does not.

    The last write of `target` in `body` must be a load through another
    register, the table register, which must be unwritten or moved by a
    constant up to that load.  Returns (table, where the load reads
    relative to the table register's entry value, whether the register
    moved first).
    """
    load = None
    for i, insn in enumerate(body):
        if target not in insn.regs_written:
            continue
        mem = insn.mem_access
        if mem is not None and mem.kind == "load" and mem.base is not target:
            load = i, mem.base, mem.offset
        else:
            load = None
    if load is None:
        return None
    at, table, offset = load
    before = 0
    if any(table in insn.regs_written for insn in body[:at]):
        before = summarize_dataflow(body[:at], xlen).moved(table)
    return None if before is None else (table, before + offset, before != 0)


def _try_autonomous(table: DecodedSegment, term: DecodedInstruction
                    ) -> DispatcherCandidate | None:
    cf = term.control_flow
    if not cf.pushes:
        return None
    target_reg = cf.base

    # Walk the return path: straight-line code after the call, up to the
    # first control transfer, which must lead back to the loop entry.
    path: list[DecodedInstruction] = []
    addr = term.address + term.width
    self_link = None
    for _ in range(_CONTINUATION_WINDOW):
        insn = table.at(addr)
        if insn is None:
            return None
        flow = insn.control_flow
        if flow is None:
            path.append(insn)
            addr += insn.width
            continue
        if isinstance(flow, CondBranch):
            self_link = SelfLink("conditional", flow.regs, flow.op)
        elif isinstance(flow, DirectJump) and flow.link is None:
            self_link = SelfLink("unconditional")
        else:
            return None
        back_target = flow.target
        path.append(insn)
        break
    if self_link is None:
        return None
    if not (term.address - _BACKLINK_WINDOW <= back_target <= term.address):
        return None

    # The body must decode contiguously from the entry and land exactly
    # on the call.
    body: list[DecodedInstruction] = []
    addr = back_target
    while addr < term.address + term.width:
        insn = table.at(addr)
        if insn is None:
            return None
        body.append(insn)
        addr += insn.width
    if body[-1].address != term.address:
        return None
    # The loop body runs from the entry to the call; nothing in it may
    # leave the loop unconditionally (exit-guard branches are fine).
    for insn in body[:-1]:
        if isinstance(insn.control_flow, (IndirectJump, DirectJump, Trap)):
            return None

    walk = _table_walk(body[:-1], target_reg, table.xlen)
    if walk is None:
        return None
    table_reg, load_offset, pre_increment = walk
    cand = DispatcherCandidate(
        kind=DISPATCHER_AUTONOMOUS, gadget=Gadget(back_target, tuple(body),
                                                  table),
        table_reg=table_reg, stride=0, target_reg=target_reg,
        self_link=self_link, load_offset=load_offset,
        pre_increment=pre_increment, return_path=tuple(path))
    # The stride is how far the round moves the table register; the
    # record `_replace` makes keeps the round it was read from.
    stride = cand.round.moved(table_reg)
    if not stride:
        return None
    found = cand._replace(stride=stride)
    found.round = cand.round
    return found


def find_dispatchers(image: ExecutableImage) -> list[DispatcherCandidate]:
    """Dispatcher candidates in an image, sorted by loop entry.

    Autonomous-shape detection reads the bytes after each linking jump;
    the classic and two-stage rules read the image's gadgets.  Both read
    the one gadget list: every terminator is a gadget of its own.
    """
    gadgets = extract_gadgets(image, 6, branches=True)
    candidates: list[DispatcherCandidate] = []
    for g in gadgets:
        if len(g.instructions) == 1:        # a terminator on its own
            cand = _try_autonomous(g.table, g.terminator)
            if cand is not None:
                candidates.append(cand)
    adg_terms = {c.gadget.terminator.address for c in candidates}

    # One table walk per gadget not already explained by an autonomous
    # loop.  A jump through a freshly loaded ra is a function epilogue,
    # and an sp table walks the stack; neither is table dispatch.  A walk
    # that moves its table by a constant is a classic dispatcher: keep the
    # shortest body per (terminator, table, target), since longer ones
    # only add a prefix.  One that leaves it where it was is a stage two;
    # a gadget that never writes its jump register may be a stage one.
    classic: dict[tuple, DispatcherCandidate] = {}
    stage2: dict[Register, list[tuple[Gadget, Register, int,
                                      DataflowSummary]]] = {}
    stage1: list[Gadget] = []
    for g in dedupe(gadgets):
        target = g.link_register
        if target is RA or g.terminator.address in adg_terms:
            continue
        walk = _table_walk(g.interior, target, image.xlen)
        if walk is None:
            stage1.append(g)
            continue
        table_reg, load_offset, pre_increment = walk
        if table_reg is SP:
            continue
        summary = summarize_dataflow(g.instructions, image.xlen)
        stride = summary.moved(table_reg)
        if stride is None:
            continue
        if stride == 0:
            stage2.setdefault(table_reg, []).append(
                (g, target, load_offset, summary))
            continue
        key = (g.terminator.address, table_reg, target)
        cur = classic.get(key)
        if cur is None or len(g.instructions) < len(cur.gadget.instructions):
            classic[key] = DispatcherCandidate(
                kind=DISPATCHER_CLASSIC, gadget=g, table_reg=table_reg,
                stride=stride, target_reg=target, self_link=NO_SELF_LINK,
                load_offset=load_offset, pre_increment=pre_increment)
    candidates.extend(classic.values())

    # Stage one moves a table register by a constant and jumps, through a
    # register it leaves alone, to a stage two that loads through that
    # table.  Only a gadget with an in-place constant add is summarized.
    for g1 in stage1:
        tables = dict.fromkeys(
            add[0] for add in map(const_add, g1.interior)
            if add is not None and add[0] is add[1] and add[2] != 0)
        if not tables:
            continue
        jump_reg = g1.link_register
        summary1 = summarize_dataflow(g1.instructions, image.xlen)
        if summary1.clobbers((jump_reg,)):
            continue
        for table_reg in tables:
            stride = summary1.moved(table_reg)
            if not stride:
                continue
            for g2, target, offset, summary2 in stage2.get(table_reg, ()):
                if not summary2.clobbers((jump_reg,)):
                    candidates.append(DispatcherCandidate(
                        kind=DISPATCHER_TWO_STAGE, gadget=g1,
                        table_reg=table_reg, stride=stride, target_reg=target,
                        self_link=NO_SELF_LINK, load_offset=stride + offset,
                        pre_increment=True, stage2=g2))
    candidates.sort(key=lambda c: (c.loop_entry, c.kind))
    return candidates


def dispatcher_at(image: ExecutableImage, address: int
                  ) -> DispatcherCandidate | None:
    """The first `find_dispatchers` candidate whose body is the code at
    `address`, on that copy of it (`DispatcherCandidate.on`), found by
    reading around `address` when it can.

    At most one autonomous loop starts at `address`: its body decodes
    forward from there with no jump before the call, which sits at most
    `_BACKLINK_WINDOW` bytes further on.  Candidates sort by (loop
    entry, kind), autonomous first, so that loop is the answer when
    there is one.  Only otherwise does the whole-image search run, for
    classic and two-stage bodies whose bytes start at `address`.  An
    address at no even offset of an executable segment is no loop
    entry: None, with no search.
    """
    seg = image.segment_containing(address)
    if seg is None or not seg.executable or (address - seg.vaddr) & 1:
        return None
    table = image.decode_table[seg.vaddr]
    for term in terminators(table, address, address + _BACKLINK_WINDOW + 1):
        cand = _try_autonomous(table, term)
        if cand is not None and cand.loop_entry == address:
            return cand
    for d in find_dispatchers(image):
        if seg.data.startswith(d.gadget.encoding, address - seg.vaddr):
            found = d.on(gadget_at(image, address))
            if found is not None:
                return found
    return None


def dispatcher_index(candidates) -> dict[bytes, list[DispatcherCandidate]]:
    """Body-bytes index usable as classify() context: byte-identical
    copies of a body look up the same candidates."""
    index: dict[bytes, list[DispatcherCandidate]] = {}
    for c in candidates:
        index.setdefault(c.gadget.encoding, []).append(c)
    return index


# --- initializer pairing ----------------------------------------------------

def initializer_sources(gadget: Gadget, summary: DataflowSummary | None = None
                        ) -> dict[Register, Source] | None:
    """What `gadget` seeds as an initializer (its summary's `loaded`
    registers), or None when its terminator jumps through ra or pushes a
    shadow stack: an initializer must hand control on without a return
    or a call."""
    cf = gadget.terminator.control_flow
    if cf.base is RA or cf.pushes:
        return None
    if summary is None:
        summary = summarize_dataflow(gadget.instructions, gadget.table.xlen)
    return summary.loaded


def initializer_at(image: ExecutableImage, address: int,
                   dispatcher: DispatcherCandidate) -> InitializerCandidate:
    """The gadget at `address` as an initializer for `dispatcher`;
    ToolError unless it seeds every register the dispatcher needs."""
    g = gadget_at(image, address)
    summary = summarize_dataflow(g.instructions, image.xlen)
    sets = initializer_sources(g, summary)
    if sets is None:
        raise ToolError(f"initializer at 0x{address:x} jumps through ra")
    missing = dispatcher.unseeded(sets)
    if missing:
        names = ",".join(sorted(r.name for r in missing))
        raise ToolError(
            f"initializer at 0x{address:x} never loads {names}")
    found = InitializerCandidate(g, sets)
    found.summary = summary             # kept for the stack ledger
    return found


def find_initializers(gadgets, dispatcher: DispatcherCandidate
                      ) -> list[InitializerCandidate]:
    required = dispatcher.required_registers
    out = []
    for g in gadgets:
        # A summary's exits name only registers the gadget writes, so a
        # gadget that does not write every required register cannot seed
        # them all: skip its summary.
        if required.difference(*(x.regs_written for x in g.instructions)):
            continue
        sets = initializer_sources(g)
        if sets is None or dispatcher.unseeded(sets):
            continue
        out.append(InitializerCandidate(g, sets))
    out.sort(key=lambda c: c.gadget.start)
    return out


# --- availability -----------------------------------------------------------

class AvailabilityRow(namedtuple("AvailabilityRow", (
        "register",     # Register
        "gadgets",      # tuple[Gadget, ...]: unique, jumping through
                        # `register`
        ))):
    __slots__ = ()

    @property
    def count(self) -> int:
        return len(self.gadgets)

    @property
    def natural(self) -> int:
        """How many of the gadgets the linear sweep visits.  Computed on
        read, so a caller that prints only counts runs no sweep."""
        return sum(1 for g in self.gadgets if g.alignment == NATURAL)

    @property
    def shifted(self) -> int:
        return sum(1 for g in self.gadgets if g.alignment == SHIFTED)


def availability_stats(gadgets) -> list[AvailabilityRow]:
    """Unique-gadget counts grouped by link register, most available first.

    Return-like terminators jump through ra, so they land in the ra bucket
    without special casing.  Ties break on register index for determinism.
    """
    unique = dedupe(list(gadgets))
    buckets: dict[Register, list[Gadget]] = {}
    for g in unique:
        buckets.setdefault(g.link_register, []).append(g)
    rows = [AvailabilityRow(reg, tuple(gs)) for reg, gs in buckets.items()]
    rows.sort(key=lambda r: (-r.count, r.register.index))
    return rows


def render_stats_table(pairs, top: int | None = None) -> str:
    """Two-row availability table.

    `pairs` is any iterable of (register-or-name, count); counts are
    display input, so externally sourced numbers render as given.
    """
    items = [(str(r), str(c)) for r, c in pairs]
    if top is not None:
        items = items[:top]
    widths = [max(len(n), len(c)) for n, c in items]
    head = "Register          | " + " | ".join(
        n.ljust(w) for (n, _), w in zip(items, widths))
    vals = "Available gadgets | " + " | ".join(
        c.ljust(w) for (_, c), w in zip(items, widths))
    return head.rstrip() + "\n" + vals.rstrip() + "\n"
