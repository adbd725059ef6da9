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

# `rvjop.dataflow` is read through the package on each use, so it loads
# with the first summary: a command that summarizes no gadget skips it.
import rvjop

from .decoder import _SHAPE, CondBranch, DecodedInstruction, DirectJump, Trap
from .decoder import decode_one  # noqa: F401  benchmarks/test_benchmark.py looks it up here
from .errors import ToolError
from .image import ExecutableImage
from .isa import RA, SP, A7, Register
from .scanner import (NATURAL, SHIFTED, Gadget, dedupe, extract_gadgets,
                      gadget_at)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .dataflow import DataflowSummary, Source

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

class DispatcherCandidate(namedtuple("DispatcherCandidate", (
        "kind",         # str: one of the three dispatcher role kinds
        "gadget",       # Gadget: loop body (stage one for two-stage pairs)
        "table_reg",    # Register
        "stride",       # int
        "self_link",    # CondBranch | DirectJump | None: an autonomous
                        # loop's back edge, `return_path[-1].control_flow`
        "load_offset",  # int: where the table load reads, from the
                        # pointer at the start of a round
        "pre_increment",  # bool: pointer moved before the load each round
        "return_path",  # tuple[DecodedInstruction, ...]
        "stage2",       # Gadget | None
        ), defaults=(None, 0, False, (), None))):
    # no `__slots__ = ()`: `round` is cached in the instance's __dict__

    @cached_property
    def round(self) -> DataflowSummary:
        """Dataflow summary of one round: the body (stage one, for a
        two-stage pair), then stage two, then the return path.  Computed
        on first read and kept; of the candidates `find_dispatchers`
        returns, only autonomous loops hold it, from their stride."""
        stage2 = () if self.stage2 is None else self.stage2.instructions
        return rvjop.dataflow.summarize_dataflow(
            self.gadget.instructions + stage2 + self.return_path,
            self.gadget.table.xlen)

    @property
    def loop_entry(self) -> int:
        return self.gadget.start

    @property
    def target_reg(self) -> Register:
        """The register the dispatcher jumps through to a table entry."""
        return (self.stage2 or self.gadget).link_register

    @property
    def required_registers(self) -> frozenset[Register]:
        """Registers an initializer must set for this dispatcher to loop."""
        regs = {self.table_reg}
        if isinstance(self.self_link, CondBranch):
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
        "summary",      # DataflowSummary: the gadget's
        ))):
    """A gadget that seeds every register a dispatcher needs.  `summary`
    is the one pairing computed (`find_initializers`, `initializer_at`);
    the seeds and the chain's stack ledger read it, not a new one."""
    __slots__ = ()

    @property
    def sets(self) -> dict[Register, Source]:
        """The registers the gadget seeds, by source: its summary's
        `loaded`."""
        return self.summary.loaded

    @property
    def link_register(self) -> Register:
        return self.gadget.link_register


# --- role classification ----------------------------------------------------

def _is_alu_write(insn: DecodedInstruction) -> bool:
    return insn.base.name in _ALU_MNEMONICS and bool(insn.regs_written)


def classify(gadget: Gadget, summary: DataflowSummary | None = None,
             dispatchers: dict[bytes, list[DispatcherCandidate]] | None = None
             ) -> list[str]:
    """Role names for one gadget, from `ROLES`, each at most once.  Pure
    in (gadget bytes, summary, context), but for an autonomous loop,
    whose return path follows its bytes.

    `dispatchers` maps gadget bytes to candidates found by
    find_dispatchers (`dispatcher_index`); without it only body-local
    roles are assigned.  A syscall's number is the summary's `ecall_a7`,
    and a dispatcher role's candidate is `dispatcher_at`'s.
    """
    if summary is None:
        summary = rvjop.dataflow.summarize_dataflow(gadget.instructions,
                                                    gadget.table.xlen)
    roles: list[str] = []

    has_mem = bool(summary.mem_reads or summary.mem_writes)
    if not has_mem and any(_is_alu_write(i) for i in gadget.interior):
        roles.append(ARITH)
    if summary.mem_reads:
        roles.append(LOAD)
    if summary.mem_writes:
        roles.append(STORE)
    if gadget.terminator_links:
        roles.append(CALL)

    a7 = summary.ecall_a7
    if a7 is not None and (type(a7) is rvjop.dataflow.Const
                           or A7 in summary.read_before_write):
        roles.append(SYSCALL)

    if dispatchers:
        # each kind once: a stage one pairs with every stage two that
        # loads through it
        for cand in dispatchers.get(gadget.encoding, ()):
            if cand.kind not in roles and cand.on(gadget) is not None:
                roles.append(cand.kind)

    sets = initializer_sources(gadget, summary)
    if sets and any(src.kind == "stack" for src in sets.values()):
        roles.append(INITIALIZER)

    if not roles:
        roles.append(UNCLASSIFIED)
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
        before = rvjop.dataflow.summarize_dataflow(body[:at],
                                                   xlen).moved(table)
    return None if before is None else (table, before + offset, before != 0)


def _try_autonomous(image: ExecutableImage, call: Gadget
                    ) -> DispatcherCandidate | None:
    """The autonomous loop whose body ends at `call`'s terminator, or
    None.  The body is the gadget that runs from the back edge's target
    (`gadget_at`), and it must end at that call: `gadget_at` refuses a
    direct jump or undecodable bytes on the way and stops at the first
    indirect jump, and it allows exit-guard branches.  An ecall or
    ebreak in the body leaves the loop, so it is refused here."""
    term = call.terminator
    if not term.control_flow.pushes:
        return None

    # Walk the return path: straight-line code after the call, up to the
    # first control transfer, which must lead back to the loop entry.
    path: list[DecodedInstruction] = []
    addr = call.end
    self_link = None
    for _ in range(_CONTINUATION_WINDOW):
        insn = call.table.at(addr)
        if insn is None:
            return None
        path.append(insn)
        self_link = insn.control_flow
        if self_link is not None:
            break
        addr += insn.width
    if not (isinstance(self_link, CondBranch)
            or isinstance(self_link, DirectJump) and self_link.link is None):
        return None
    back_target = self_link.target
    if not (term.address - _BACKLINK_WINDOW <= back_target <= term.address):
        return None
    try:
        loop = gadget_at(image, back_target, decoder_error=False)
    except ToolError:
        return None
    if loop.terminator.address != term.address or any(
            isinstance(insn.control_flow, Trap) for insn in loop.interior):
        return None

    walk = _table_walk(loop.interior, term.control_flow.base, image.xlen)
    if walk is None:
        return None
    table_reg, load_offset, pre_increment = walk
    cand = DispatcherCandidate(
        kind=DISPATCHER_AUTONOMOUS, gadget=loop, table_reg=table_reg,
        stride=0, self_link=self_link, load_offset=load_offset,
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
            cand = _try_autonomous(image, g)
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
    stage2: dict[Register, list[tuple[Gadget, int, DataflowSummary]]] = {}
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
        summary = rvjop.dataflow.summarize_dataflow(g.instructions,
                                                    image.xlen)
        stride = summary.moved(table_reg)
        if stride is None:
            continue
        if stride == 0:
            stage2.setdefault(table_reg, []).append((g, load_offset, summary))
            continue
        key = (g.terminator.address, table_reg, target)
        cur = classic.get(key)
        if cur is None or len(g.instructions) < len(cur.gadget.instructions):
            classic[key] = DispatcherCandidate(
                kind=DISPATCHER_CLASSIC, gadget=g, table_reg=table_reg,
                stride=stride, load_offset=load_offset,
                pre_increment=pre_increment)
    candidates.extend(classic.values())

    # Stage one moves a table register by a constant and jumps, through a
    # register it leaves alone, to a stage two that loads through that
    # table.  Only a gadget with an in-place constant add is summarized.
    for g1 in stage1:
        tables = dict.fromkeys(
            add[0] for add in map(rvjop.dataflow.const_add, g1.interior)
            if add is not None and add[0] is add[1] and add[2] != 0)
        if not tables:
            continue
        jump_reg = g1.link_register
        summary1 = rvjop.dataflow.summarize_dataflow(g1.instructions,
                                                     image.xlen)
        if summary1.clobbers((jump_reg,)):
            continue
        for table_reg in tables:
            stride = summary1.moved(table_reg)
            if not stride:
                continue
            for g2, offset, summary2 in stage2.get(table_reg, ()):
                if not summary2.clobbers((jump_reg,)):
                    candidates.append(DispatcherCandidate(
                        kind=DISPATCHER_TWO_STAGE, gadget=g1,
                        table_reg=table_reg, stride=stride,
                        load_offset=stride + offset, pre_increment=True,
                        stage2=g2))
    candidates.sort(key=lambda c: (c.loop_entry, c.kind))
    return candidates


def dispatcher_at(image: ExecutableImage, address: int
                  ) -> DispatcherCandidate | None:
    """The first `find_dispatchers` candidate whose body is the code at
    `address`, on that copy of it (`DispatcherCandidate.on`), found by
    reading the gadget that runs from `address` (`gadget_at`) once.

    At most one autonomous loop starts at `address`: its body runs from
    the entry to the call with no jump before the call, so the call is
    the first indirect jump decoding forward from the entry, which is
    that gadget's terminator.  Candidates sort by (loop entry, kind),
    autonomous first, so that loop is the answer when there is one.
    Only otherwise does the whole-image search run, and the gadget looks
    its bytes up in its `dispatcher_index`, the rule `classify` finds a
    copy by.  An address no gadget runs from (outside executable code,
    at an odd offset, or before a direct jump or undecodable bytes) is
    no loop entry: None, with no search.
    """
    try:
        g = gadget_at(image, address, decoder_error=False)
    except ToolError:
        return None
    cand = _try_autonomous(image, g)
    if cand is not None and cand.loop_entry == address:
        return cand
    for d in dispatcher_index(find_dispatchers(image)).get(g.encoding, ()):
        found = d.on(g)
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

def _hands_on(gadget: Gadget) -> bool:
    """Whether `gadget`'s terminator neither jumps through ra nor pushes
    a shadow stack: an initializer must hand control on without a return
    or a call."""
    cf = gadget.terminator.control_flow
    return cf.base is not RA and not cf.pushes


def initializer_sources(gadget: Gadget, summary: DataflowSummary | None = None
                        ) -> dict[Register, Source] | None:
    """What `gadget` seeds as an initializer (its summary's `loaded`
    registers), or None unless it hands control on (`_hands_on`)."""
    if not _hands_on(gadget):
        return None
    if summary is None:
        summary = rvjop.dataflow.summarize_dataflow(gadget.instructions,
                                                    gadget.table.xlen)
    return summary.loaded


def initializer_at(image: ExecutableImage, address: int,
                   dispatcher: DispatcherCandidate) -> InitializerCandidate:
    """The gadget at `address` as an initializer for `dispatcher`;
    ToolError unless it seeds every register the dispatcher needs."""
    g = gadget_at(image, address)
    if not _hands_on(g):
        base = g.link_register
        how = "jumps" if base is RA else "calls"
        raise ToolError(f"initializer at 0x{address:x} {how} through {base}")
    found = InitializerCandidate(g, rvjop.dataflow.summarize_dataflow(
        g.instructions, image.xlen))
    missing = dispatcher.unseeded(found.sets)
    if missing:
        names = ",".join(sorted(r.name for r in missing))
        raise ToolError(
            f"initializer at 0x{address:x} never loads {names}")
    return found


def find_initializers(gadgets, dispatcher: DispatcherCandidate
                      ) -> list[InitializerCandidate]:
    required = dispatcher.required_registers
    out = []
    for g in gadgets:
        # A summary's exits name only registers the gadget writes, so a
        # gadget that does not write every required register cannot seed
        # them all: skip its summary.
        if (not _hands_on(g) or required.difference(
                *(x.regs_written for x in g.instructions))):
            continue
        cand = InitializerCandidate(g, rvjop.dataflow.summarize_dataflow(
            g.instructions, g.table.xlen))
        if not dispatcher.unseeded(cand.sets):
            out.append(cand)
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
