"""Gadget search: filter parsing, matching, and report formats.

A query selects gadgets whose interior contains one instruction meeting
every per-instruction condition at once (mnemonic, written register,
immediate), then applies gadget-level filters (terminator link register,
preserved registers, role, interior length cap, dedupe).

Two output shapes: a human listing with one disassembled instruction per
line, and a machine-readable record line per gadget that parses back
losslessly.

A hit's dataflow summary and roles are computed the first time they are
read.  Roles read the image's dispatcher index, which one `run_query`
call builds at most once, and only when a roles field is read (`--role`
or a record line).  So `--preserve` computes summaries only, and a plain
listing computes neither and never searches for dispatchers.  Hits and
dispatchers read the image's one gadget growth, widened on demand.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import Callable, NamedTuple

from .classify import (DispatcherCandidate, classify, dispatcher_index,
                       find_dispatchers)
from .dataflow import DataflowSummary, summarize_dataflow
from .errors import UsageError
from .image import ExecutableImage
from .isa import Register, is_register_name, reg
from .scanner import MAX_GADGET_LEN, Gadget, dedupe, extract_gadgets

DEFAULT_MAX = 4


class Query(NamedTuple):
    op: str | None = None
    rr: Register | None = None
    imm: int | None = None
    max: int = DEFAULT_MAX
    link: Register | None = None           # jump-through register
    preserve: frozenset[Register] = frozenset()
    role: str | None = None
    unique: bool = False
    all_: bool = False

    @property
    def has_filter(self) -> bool:
        return (self.op is not None or self.rr is not None
                or self.imm is not None or self.link is not None
                or bool(self.preserve) or self.role is not None
                or self.all_)


_FLAGS = ("op", "rr", "imm", "max", "link", "preserve", "role")


def parse_query(args: list[str]) -> Query:
    """Parse `--flag=value` / `--flag value` pairs into a Query."""
    q = Query()
    i = 0
    while i < len(args):
        tok = args[i]
        if not tok.startswith("--"):
            raise UsageError(f"unexpected argument {tok!r}")
        name, eq, value = tok[2:].partition("=")
        if name == "unique":
            if eq:
                raise UsageError("--unique takes no value")
            q = q._replace(unique=True)
            i += 1
            continue
        if name == "all":
            if eq:
                raise UsageError("--all takes no value")
            q = q._replace(all_=True)
            i += 1
            continue
        if name not in _FLAGS:
            raise UsageError(f"unknown flag --{name}")
        if not eq:
            if i + 1 >= len(args):
                raise UsageError(f"--{name} needs a value")
            value = args[i + 1]
            i += 1
        i += 1
        if name == "op":
            q = q._replace(op=value)
        elif name == "rr":
            if not is_register_name(value):
                raise UsageError(f"--rr: {value!r} is not a register")
            q = q._replace(rr=reg(value))
        elif name == "imm":
            try:
                q = q._replace(imm=int(value, 0))
            except ValueError:
                raise UsageError(f"--imm: {value!r} is not a number") from None
        elif name == "max":
            try:
                n = int(value, 0)
            except ValueError:
                raise UsageError(f"--max: {value!r} is not a number") from None
            if not 1 <= n <= MAX_GADGET_LEN:
                raise UsageError(
                    f"--max must be between 1 and {MAX_GADGET_LEN}")
            q = q._replace(max=n)
        elif name == "link":
            if not is_register_name(value):
                raise UsageError(f"--link: {value!r} is not a register")
            q = q._replace(link=reg(value))
        elif name == "preserve":
            regs = set(q.preserve)
            for part in value.split(","):
                if not is_register_name(part):
                    raise UsageError(
                        f"--preserve: {part!r} is not a register")
                regs.add(reg(part))
            q = q._replace(preserve=frozenset(regs))
        elif name == "role":
            q = q._replace(role=value)
    if not q.has_filter:
        raise UsageError("give at least one filter, or --all")
    return q


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
        if q.preserve and not q.preserve <= hit.summary.preserved:
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


class Record(NamedTuple):
    offset: int
    alignment: str
    link: str
    roles: tuple[str, ...]
    written: tuple[str, ...]


def _join(items) -> str:
    return ",".join(items) if items else "-"


def record_for(hit: QueryHit) -> Record:
    g = hit.gadget
    written = tuple(sorted(
        r.name for r in hit.summary.written | hit.summary.cond_written))
    return Record(offset=g.start, alignment=g.alignment,
                  link=g.terminator.control_flow.base.name,
                  roles=hit.roles, written=written)


def emit_records(hits: list[QueryHit]) -> str:
    """One line per gadget: offset alignment link roles written.

    Each hit's summary and roles are dropped once its line is built, so
    the listing holds lines, not a summary per gadget; a later read
    computes them again."""
    lines = []
    for h in hits:
        r = record_for(h)
        lines.append(f"0x{r.offset:08x} {r.alignment} {r.link} "
                     f"{_join(r.roles)} {_join(r.written)}")
        vars(h).pop("summary", None)
        vars(h).pop("roles", None)
    return "\n".join(lines) + ("\n" if lines else "")


def parse_records(text: str) -> list[Record]:
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise UsageError(f"record line {lineno}: want 5 fields, "
                             f"got {len(parts)}")
        offset_s, alignment, link, roles_s, written_s = parts
        try:
            offset = int(offset_s, 16)
        except ValueError:
            raise UsageError(
                f"record line {lineno}: bad offset {offset_s!r}") from None
        def split(s: str) -> tuple[str, ...]:
            return () if s == "-" else tuple(s.split(","))
        out.append(Record(offset, alignment, link,
                          split(roles_s), split(written_s)))
    return out
