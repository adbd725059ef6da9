"""Gadget search: matching and report formats.

A query selects gadgets whose interior contains one instruction meeting
every per-instruction condition at once (mnemonic, written register,
immediate), then applies gadget-level filters (terminator link register,
preserved registers, role, interior length cap, dedupe).

A `Query` holds the filters; the command line's `query` flags fill it
in (see `rvjop.cli`).  Two output shapes: a human listing with one
disassembled instruction per line, and a machine-readable record line
per gadget, five space-separated fields.

A hit is the `Gadget` itself; nothing is computed ahead or kept on it.
`run_query` summarizes a gadget only for `--preserve` or `--role`, and
reads its roles only for `--role`, so a plain listing computes neither.
`emit_records` computes each line's summary and roles as it builds the
line.  A dispatcher role, `unclassified` and a record line read the
image's dispatcher index; a role read from the gadget alone
(`LOCAL_ROLES`) does not.  The command builds one `dispatcher_lookup`
and hands it to both, so the dispatcher search runs at most once per
command, and only when an index is read.  Hits and dispatchers read the
image's one gadget growth, widened on demand.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from functools import cache

# `rvjop.dataflow` loads with the first summary, as in `rvjop.classify`.
import rvjop

from .classify import (LOCAL_ROLES, DispatcherCandidate, classify,
                       dispatcher_index, find_dispatchers)
from .image import ExecutableImage
from .scanner import Gadget, dedupe, extract_gadgets

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .dataflow import DataflowSummary

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


def _summary(g: Gadget) -> DataflowSummary:
    return rvjop.dataflow.summarize_dataflow(g.instructions, g.table.xlen)


def dispatcher_lookup(image: ExecutableImage
                      ) -> Callable[[], dict[bytes, list[DispatcherCandidate]]]:
    """The image's dispatcher index (`dispatcher_index`), searched for on
    the first call and kept for the later ones."""
    return cache(lambda: dispatcher_index(find_dispatchers(image)))


def run_query(image: ExecutableImage, q: Query,
              dispatchers: Callable[[], dict] | None = None) -> list[Gadget]:
    """The gadgets that pass every filter of `q`, by start address.
    `dispatchers` is the command's `dispatcher_lookup(image)`, if it
    shares one with `emit_records`."""
    if dispatchers is None:
        dispatchers = dispatcher_lookup(image)
    gadgets = extract_gadgets(image, q.max)
    if q.unique:
        gadgets = dedupe(gadgets)

    hits = []
    for g in gadgets:
        if _wants_instruction(q) and not any(
                _instruction_match(q, x) for x in g.interior):
            continue
        if q.link is not None and g.link_register is not q.link:
            continue
        if q.preserve or q.role is not None:
            summary = _summary(g)
            if summary.clobbers(q.preserve):
                continue
            if q.role is not None:
                index = None if q.role in LOCAL_ROLES else dispatchers()
                if q.role not in classify(g, summary, index):
                    continue
        hits.append(g)
    return hits


# --- output formats ---------------------------------------------------------

def render_listing(hits: list[Gadget]) -> str:
    """Disassembly listing, one gadget per stanza.

    Gadgets grown from one terminator share their instructions, so each
    address is rendered once and its line reused."""
    text: dict[int, str] = {}
    blocks = []
    for h in hits:
        lines = []
        for x in h.instructions:
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


def emit_records(hits: list[Gadget],
                 dispatchers: Callable[[], dict]) -> str:
    """One line per gadget: offset alignment link roles written.

    Each line's summary and roles are computed as it is built, and
    `dispatchers` (`dispatcher_lookup`) is first called for the first
    line."""
    lines = []
    for g in hits:
        summary = _summary(g)
        roles = classify(g, summary, dispatchers())
        written = sorted(r.name for r in summary.written | summary.cond_written)
        lines.append(f"0x{g.start:08x} {g.alignment} "
                     f"{g.terminator.control_flow.base.name} "
                     f"{_join(roles)} {_join(written)}")
    return "\n".join(lines) + ("\n" if lines else "")
