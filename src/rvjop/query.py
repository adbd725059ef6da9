"""Gadget search: matching and report formats.

A query selects gadgets whose interior contains one instruction meeting
every per-instruction condition at once (mnemonic, written register,
immediate), then applies gadget-level filters (terminator link register,
preserved registers, role, interior length cap, dedupe).

A `Query` holds the filters; the command line's `query` flags fill it
in (see `rvjop.cli`).  Two output shapes: a human listing with one
disassembled instruction per line, and a machine-readable record line
per gadget, five space-separated fields.

A query is one pass of (gadget, summary) pairs from its filters to its
writer.  `run_query` summarizes a gadget only for `--preserve` or
`--role`, and reads its roles only for `--role`; the summary travels
with its gadget, None where no filter computed one.  The pairs are
computed as the writer reads them (`Hits`), so a writer holds one
summary at a time.  `render_listing` reads only the gadgets;
`emit_records` summarizes a gadget only when its pair has no summary,
so filter and writer summarize each gadget at most once between them
(the dispatcher search that records read makes its own).  A dispatcher
role, `unclassified` and a record line read the image's dispatcher
index; a role read from the gadget alone (`LOCAL_ROLES`) does not.  The
command builds one `dispatcher_lookup` and hands it to both, so the
dispatcher search runs at most once per command, and only when an index
is read.  Hits and dispatchers read the image's one gadget growth,
widened on demand.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from functools import cache

# `rvjop.dataflow` loads with the first summary, as in `rvjop.classify`.
import rvjop

from .classify import (LOCAL_ROLES, DispatcherCandidate, classify,
                       dispatcher_index, find_dispatchers)
from .image import ExecutableImage
from .scanner import dedupe, extract_gadgets

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


def dispatcher_lookup(image: ExecutableImage
                      ) -> Callable[[], dict[bytes, list[DispatcherCandidate]]]:
    """The image's dispatcher index (`dispatcher_index`), searched for on
    the first call and kept for the later ones."""
    return cache(lambda: dispatcher_index(find_dispatchers(image)))


class Hits:
    """The (gadget, summary) pairs of one `run_query`, by start address:
    a `Gadget` and its `DataflowSummary`, or None where no filter
    computed one.  Each pair is computed as it is read and not kept.
    `read` counts the pairs handed out.  `len()` runs the query to the
    end and keeps the pairs not yet handed out, for a caller that counts
    the hits before it reads them (a profiler does)."""

    def __init__(self, pairs: Iterator[tuple]):
        self._pairs, self.read = pairs, 0

    def __iter__(self) -> Iterator[tuple]:
        for pair in self._pairs:
            self.read += 1
            yield pair

    def __len__(self) -> int:
        rest = list(self._pairs)
        self._pairs = iter(rest)
        return self.read + len(rest)


def run_query(image: ExecutableImage, q: Query,
              dispatchers: Callable[[], dict]) -> Hits:
    """The gadgets that pass every filter of `q`, by start address, each
    with the summary its filter computed (None if none did).
    `dispatchers` is the command's `dispatcher_lookup(image)`, shared
    with `emit_records`."""
    gadgets = extract_gadgets(image, q.max)
    if q.unique:
        gadgets = dedupe(gadgets)
    return Hits(_passing(gadgets, q, dispatchers))


def _passing(gadgets, q: Query, dispatchers) -> Iterator[tuple]:
    wants_insn = q.op is not None or q.imm is not None or q.rr is not None
    for g in gadgets:
        if wants_insn and not any(
                _instruction_match(q, x) for x in g.interior):
            continue
        if q.link is not None and g.link_register is not q.link:
            continue
        summary = None
        if q.preserve or q.role is not None:
            summary = rvjop.dataflow.summarize_dataflow(g.instructions,
                                                        g.table.xlen)
            if summary.clobbers(q.preserve):
                continue
            if q.role is not None:
                index = None if q.role in LOCAL_ROLES else dispatchers()
                if q.role not in classify(g, summary, index):
                    continue
        yield g, summary


# --- output formats ---------------------------------------------------------

def render_listing(pairs: Iterable[tuple]) -> str:
    """Disassembly listing, one gadget per stanza.

    Gadgets grown from one terminator share their instructions, so each
    address is rendered once and its line reused."""
    text: dict[int, str] = {}
    blocks = []
    for h, _ in pairs:
        lines = []
        for x in h.instructions:
            line = text.get(x.address)
            if line is None:
                line = text[x.address] = f"0x{x.address:08x}: {x.render()}"
            lines.append(line)
        blocks.append("\n".join(lines))
    count = f"{len(blocks)} gadget" + ("" if len(blocks) == 1 else "s")
    if not blocks:
        return count + "\n"
    return "\n\n".join(blocks) + f"\n\n{count}\n"


def _join(items) -> str:
    return ",".join(items) if items else "-"


def emit_records(pairs: Iterable[tuple],
                 dispatchers: Callable[[], dict]) -> str:
    """One line per gadget: offset alignment link roles written.

    A line's roles are computed as it is built, from its pair's summary,
    or from one computed then if the pair has none; `dispatchers`
    (`dispatcher_lookup`) is first called for the first line."""
    lines = []
    for g, summary in pairs:
        if summary is None:
            summary = rvjop.dataflow.summarize_dataflow(g.instructions,
                                                        g.table.xlen)
        roles = classify(g, summary, dispatchers())
        written = sorted(r.name for r in summary.written | summary.cond_written)
        lines.append(f"0x{g.start:08x} {g.alignment} "
                     f"{g.terminator.control_flow.base.name} "
                     f"{_join(roles)} {_join(written)}")
    return "\n".join(lines) + ("\n" if lines else "")
