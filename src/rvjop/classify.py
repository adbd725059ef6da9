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

All three shapes walk a table by one rule, `_table_walk`: the table
register is the base of the last load of the target register through
another register, the update is the last add of a nonzero constant to
that register (`_table_step`: an add of 0, such as the HINT
`c.addi gp, 0`, advances nothing, so no candidate has stride 0), and the
walk is pre-increment when that update comes before the load.  Classic
bodies and stage twos are walked as gadgets, autonomous loop bodies
from the loop entry to the call, whose return path may carry the
update instead.
"""

from __future__ import annotations

from typing import NamedTuple

from .dataflow import (Const, DataflowSummary, Source, const_add,
                       summarize_dataflow)
from .decoder import (CondBranch, DecodedInstruction, DirectJump,
                      IndirectJump, Trap)
from .decoder import decode_one  # noqa: F401  benchmarks/test_benchmark.py looks it up here
from .image import DecodedSegment, ExecutableImage
from .isa import RA, SP, A7, Register
from .scanner import (NATURAL, SHIFTED, Gadget, ScanConfig, dedupe,
                      extract_gadgets)

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

_CSR_MNEMONICS = frozenset(
    ["csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci"])


class GadgetRole(NamedTuple):
    kind: str
    detail: object = None


class SelfLink(NamedTuple):
    kind: str                                   # "none" | "unconditional" | "conditional"
    regs: tuple[Register, Register] | None = None
    op: str | None = None                       # branch condition for "conditional"


NO_SELF_LINK = SelfLink("none")


class DispatcherCandidate(NamedTuple):
    kind: str                     # one of the three dispatcher role kinds
    gadget: Gadget                # loop body (stage one for two-stage pairs)
    table_reg: Register
    stride: int
    target_reg: Register
    self_link: SelfLink
    load_offset: int = 0          # displacement in the table load
    pre_increment: bool = False   # pointer advanced before the load each round
    return_path: tuple[DecodedInstruction, ...] = ()
    stage2: Gadget | None = None

    @property
    def loop_entry(self) -> int:
        return self.gadget.start

    @property
    def links_with_ra(self) -> bool:
        """True when the gadget that jumps through the target links ra."""
        return (self.stage2 or self.gadget).terminator_links

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


class InitializerCandidate(NamedTuple):
    gadget: Gadget
    sets: dict[Register, Source]

    @property
    def link_register(self) -> Register:
        return self.gadget.link_register

    @property
    def side_effects(self) -> DataflowSummary:
        return summarize_dataflow(self.gadget.instructions)


# --- role classification ----------------------------------------------------

def _is_alu_write(insn: DecodedInstruction) -> bool:
    return (insn.control_flow is None and insn.mem_access is None
            and insn.regs_written and insn.mnemonic not in _CSR_MNEMONICS
            and not insn.mnemonic.startswith("fence"))


def classify(gadget: Gadget, summary: DataflowSummary | None = None,
             dispatchers: dict[int, list[DispatcherCandidate]] | None = None
             ) -> list[GadgetRole]:
    """Roles for one gadget.  Pure in (gadget bytes, summary, context).

    `dispatchers` maps gadget start addresses to candidates found by
    find_dispatchers; without it only body-local roles are assigned.
    """
    if summary is None:
        summary = summarize_dataflow(gadget.instructions)
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
        for cand in dispatchers.get(gadget.start, ()):
            if cand.gadget.encoding == gadget.encoding:
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


def _table_step(insn: DecodedInstruction) -> tuple[Register, int] | None:
    """(register, stride) when `insn` adds a nonzero constant to a
    register in place: the only table updates a dispatcher may use."""
    got = const_add(insn)
    if got is None:
        return None
    rd, rs1, imm = got
    return (rd, imm) if rd is rs1 and imm != 0 else None


def _table_walk(body, target: Register
                ) -> tuple[Register, int, int | None, bool] | None:
    """How `body` walks a table to reach `target`, or None if it does not.

    The table register is the base of the last load of `target` through
    another register.  Returns (table, load offset, stride of the last
    `_table_step` of the table or None when nothing advances it, whether
    that step comes before the load).
    """
    load = None
    for i, insn in enumerate(body):
        mem = insn.mem_access
        if (mem is not None and mem.kind == "load" and mem.base is not target
                and target in insn.regs_written):
            load = i, mem.base, mem.offset
    if load is None:
        return None
    at, table, offset = load
    stride, pre = None, False
    for i, insn in enumerate(body):
        got = _table_step(insn)
        if got is not None and got[0] is table:
            stride, pre = got[1], i < at
    return table, offset, stride, pre


def _try_autonomous(table: DecodedSegment, term: DecodedInstruction
                    ) -> DispatcherCandidate | None:
    cf = term.control_flow
    if not isinstance(cf, IndirectJump) or cf.link is not RA:
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

    walk = _table_walk(body[:-1], target_reg)
    if walk is None:
        return None
    table_reg, load_offset, stride, pre_increment = walk
    if stride is None:  # the update may sit on the return path instead
        stride = next((got[1] for got in map(_table_step, path)
                       if got is not None and got[0] is table_reg), None)
        if stride is None:
            return None

    gadget = Gadget(back_target, tuple(body), table)
    return DispatcherCandidate(
        kind=DISPATCHER_AUTONOMOUS, gadget=gadget, table_reg=table_reg,
        stride=stride, target_reg=target_reg, self_link=self_link,
        load_offset=load_offset, pre_increment=pre_increment,
        return_path=tuple(path))


_DISPATCHER_SCAN = ScanConfig(max_len=6, allow_interior_branches=True)


def find_dispatchers(image: ExecutableImage) -> list[DispatcherCandidate]:
    """Dispatcher candidates in an image, sorted by loop entry.

    Autonomous-shape detection reads the bytes after each linking jump;
    the classic and two-stage rules read the image's gadgets.
    """
    candidates: list[DispatcherCandidate] = []
    for table in image.decode_table.values():
        for insn in table.slots:
            if insn is not None and insn.is_terminator:
                cand = _try_autonomous(table, insn)
                if cand is not None:
                    candidates.append(cand)
    adg_terms = {c.gadget.terminator.address for c in candidates}

    # One table walk per gadget not already explained by an autonomous
    # loop.  A jump through a freshly loaded ra is a function epilogue,
    # and an sp table walks the stack; neither is table dispatch.  A walk
    # that advances its table is a classic dispatcher: keep the shortest
    # body per (terminator, table, target), since longer ones only add a
    # prefix.  One that does not is a stage two; a gadget that never
    # writes its jump register may be a stage one.
    classic: dict[tuple, DispatcherCandidate] = {}
    stage2: dict[Register, list[tuple[Gadget, Register, int,
                                      frozenset[Register]]]] = {}
    stage1: list[Gadget] = []
    for g in dedupe(extract_gadgets(image, _DISPATCHER_SCAN)):
        target = g.link_register
        if target is RA or g.terminator.address in adg_terms:
            continue
        walk = _table_walk(g.interior, target)
        if walk is None:
            stage1.append(g)
            continue
        table_reg, load_offset, stride, pre_increment = walk
        if table_reg is SP:
            continue
        if stride is None:
            summary = summarize_dataflow(g.instructions)
            stage2.setdefault(table_reg, []).append(
                (g, target, load_offset, summary.written | summary.cond_written))
            continue
        key = (g.terminator.address, table_reg, target)
        cur = classic.get(key)
        if cur is None or len(g.instructions) < len(cur.gadget.instructions):
            classic[key] = DispatcherCandidate(
                kind=DISPATCHER_CLASSIC, gadget=g, table_reg=table_reg,
                stride=stride, target_reg=target, self_link=NO_SELF_LINK,
                load_offset=load_offset, pre_increment=pre_increment)
    candidates.extend(classic.values())

    # Stage one advances a table register and jumps, through a register
    # it leaves alone, to a stage two that loads through that table.
    for g1 in stage1:
        jump_reg = g1.link_register
        updates = [got for got in map(_table_step, g1.interior)
                   if got is not None and got[0] is not jump_reg]
        if not updates:
            continue
        summary1 = summarize_dataflow(g1.instructions)
        if jump_reg in (summary1.written | summary1.cond_written):
            continue
        for table_reg, stride in updates:
            for g2, target, load_offset, clobbered2 in stage2.get(table_reg, ()):
                if jump_reg not in clobbered2:
                    candidates.append(DispatcherCandidate(
                        kind=DISPATCHER_TWO_STAGE, gadget=g1,
                        table_reg=table_reg, stride=stride, target_reg=target,
                        self_link=NO_SELF_LINK, load_offset=load_offset,
                        pre_increment=True, stage2=g2))
    candidates.sort(key=lambda c: (c.loop_entry, c.kind))
    return candidates


def dispatcher_at(image: ExecutableImage, address: int
                  ) -> DispatcherCandidate | None:
    """The first `find_dispatchers` candidate whose loop entry is
    `address`, found by reading around `address` when it can.

    At most one autonomous loop starts at `address`: its body decodes
    forward from there with no jump before the call, which sits at most
    `_BACKLINK_WINDOW` bytes further on.  Candidates sort by (loop
    entry, kind), autonomous first, so that loop is the answer when
    there is one.  Only otherwise does the whole-image search run, for
    classic and two-stage entries.  An address at no even offset of an
    executable segment is no loop entry: None, with no search.
    """
    seg = image.segment_containing(address)
    if seg is None or not seg.executable or (address - seg.vaddr) & 1:
        return None
    table = image.decode_table[seg.vaddr]
    for term_addr in range(address, address + _BACKLINK_WINDOW + 1, 2):
        term = table.at(term_addr)
        if term is not None and term.is_terminator:
            cand = _try_autonomous(table, term)
            if cand is not None and cand.loop_entry == address:
                return cand
    for d in find_dispatchers(image):
        if d.loop_entry == address:
            return d
    return None


def dispatcher_index(candidates) -> dict[int, list[DispatcherCandidate]]:
    """Start-address index usable as classify() context."""
    index: dict[int, list[DispatcherCandidate]] = {}
    for c in candidates:
        index.setdefault(c.gadget.start, []).append(c)
    return index


# --- initializer pairing ----------------------------------------------------

def initializer_sources(gadget: Gadget, summary: DataflowSummary | None = None
                        ) -> dict[Register, Source] | None:
    """What `gadget` seeds as an initializer (its summary's `loaded`
    registers), or None when its terminator jumps through or links ra:
    an initializer must hand control on without a return or a call."""
    cf = gadget.terminator.control_flow
    if cf.base is RA or cf.link is RA:
        return None
    if summary is None:
        summary = summarize_dataflow(gadget.instructions)
    return summary.loaded


def find_initializers(gadgets, dispatcher: DispatcherCandidate
                      ) -> list[InitializerCandidate]:
    out = []
    for g in gadgets:
        sets = initializer_sources(g)
        if sets is None or dispatcher.unseeded(sets):
            continue
        out.append(InitializerCandidate(g, sets))
    out.sort(key=lambda c: c.gadget.start)
    return out


# --- availability -----------------------------------------------------------

class AvailabilityRow(NamedTuple):
    register: Register
    count: int
    natural: int
    shifted: int


def availability_stats(gadgets) -> list[AvailabilityRow]:
    """Unique-gadget counts grouped by link register, most available first.

    Return-like terminators jump through ra, so they land in the ra bucket
    without special casing.  Ties break on register index for determinism.
    """
    unique = dedupe(list(gadgets))
    buckets: dict[Register, list[Gadget]] = {}
    for g in unique:
        buckets.setdefault(g.link_register, []).append(g)
    rows = [AvailabilityRow(reg, len(gs),
                            sum(1 for g in gs if g.alignment == NATURAL),
                            sum(1 for g in gs if g.alignment == SHIFTED))
            for reg, gs in buckets.items()]
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
