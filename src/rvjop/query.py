"""Gadget search: matching and report formats.

A query selects gadgets whose interior contains one instruction meeting
every per-instruction condition at once (mnemonic, written register,
immediate), then applies gadget-level filters (terminator link register,
preserved registers, role, interior length cap, dedupe).

A `Query` holds the filters; the command line's `query` flags fill it
in (see `rvjop.cli`).  Two output shapes: a human listing with one
disassembled instruction per line, and a machine-readable record line
per gadget, five space-separated fields.

A hit's dataflow summary and roles are computed the first time they are
read.  Roles read the image's dispatcher index, which one `run_query`
call builds at most once, and only when a roles field is read (`--role`
or a record line).  So `--preserve` computes summaries only, and a plain
listing computes neither and never searches for dispatchers.  Hits and
dispatchers read the image's one gadget growth, widened on demand.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import cache, cached_property

from .classify import (DispatcherCandidate, classify, dispatcher_index,
                       find_dispatchers)
from .dataflow import DataflowSummary, summarize_dataflow
from .image import ExecutableImage
from .isa import Register
from .scanner import Gadget, dedupe, extract_gadgets

DEFAULT_MAX = 4


class Query(namedtuple("Query", (
        "op",           # str | None
        "rr",           # Register | None
        "imm",          # int | None
        "max",          # int
        "link",         # Register | None: jump-through register
        "preserve",     # frozenset[Register]
        "role",         # str | None
        "unique",       # bool
        "all_",         # bool
        ), defaults=(None, None, None, DEFAULT_MAX, None, frozenset(), None,
                     False, False))):
    # a namedtuple subclass (see `rvjop.decoder`); field types beside them
    __slots__ = ()

    @property
    def has_filter(self) -> bool:
        return (self.op is not None or self.rr is not None
                or self.imm is not None or self.link is not None
                or bool(self.preserve) or self.role is not None
                or self.all_)


class QueryHit:
    def __init__(self, gadget: Gadget,
                 dispatchers: Callable[[], dict[int, list[DispatcherCandidate]]]):
        self.gadget = gadget
        # The run's classify() context: the dispatcher index, built on the
        # first call and shared by every hit of the run.
        self.dispatchers = dispatchers

    @cached_property
    def summary(self) -> DataflowSummary:
        return summarize_dataflow(self.gadget.instructions)

    @cached_property
    def roles(self) -> tuple[str, ...]:
        return tuple(r.kind for r in
                     classify(self.gadget, self.summary, self.dispatchers()))


def _instruction_match(q: Query, insn) -> bool:
    if q.op is not None and not insn.matches_op(q.op):
        return False
    if q.imm is not None and insn.imm != q.imm:
        return False
    if q.rr is not None and q.rr not in insn.regs_written:
        return False
    return True


def _wants_instruction(q: Query) -> bool:
    return q.op is not None or q.imm is not None or q.rr is not None


def run_query(image: ExecutableImage, q: Query) -> list[QueryHit]:
    gadgets = extract_gadgets(image, q.max)
    if q.unique:
        gadgets = dedupe(gadgets)
    dispatchers = cache(lambda: dispatcher_index(find_dispatchers(image)))

    hits = []
    for g in gadgets:
        if _wants_instruction(q) and not any(
                _instruction_match(q, x) for x in g.interior):
            continue
        if q.link is not None and g.link_register is not q.link:
            continue
        hit = QueryHit(g, dispatchers)
        if q.preserve and hit.summary.clobbers(q.preserve):
            continue
        if q.role is not None and q.role not in hit.roles:
            continue
        hits.append(hit)
    return hits


# --- output formats ---------------------------------------------------------

def render_listing(hits: list[QueryHit]) -> str:
    """Disassembly listing, one gadget per stanza.

    Gadgets grown from one terminator share their instructions, so each
    address is rendered once and its line reused."""
    text: dict[int, str] = {}
    blocks = []
    for h in hits:
        lines = []
        for x in h.gadget.instructions:
            line = text.get(x.address)
            if line is None:
                line = text[x.address] = f"0x{x.address:08x}: {x.render()}"
            lines.append(line)
        blocks.append("\n".join(lines))
    count = f"{len(hits)} gadget" + ("" if len(hits) == 1 else "s")
    if not blocks:
        return count + "\n"
    return "\n\n".join(blocks) + f"\n\n{count}\n"


def _join(items) -> str:
    return ",".join(items) if items else "-"


def emit_records(hits: list[QueryHit]) -> str:
    """One line per gadget: offset alignment link roles written.

    Each hit's summary and roles are dropped once its line is built, so
    the listing holds lines, not a summary per gadget; a later read
    computes them again."""
    lines = []
    for h in hits:
        g, summary = h.gadget, h.summary
        written = sorted(r.name for r in summary.written | summary.cond_written)
        lines.append(f"0x{g.start:08x} {g.alignment} "
                     f"{g.terminator.control_flow.base.name} "
                     f"{_join(h.roles)} {_join(written)}")
        vars(h).pop("summary", None)
        vars(h).pop("roles", None)
    return "\n".join(lines) + ("\n" if lines else "")
