"""Command-line front end.

Subcommands:

    scan          dump every gadget in an image
    query         filtered gadget search
    dispatchers   dispatcher-shaped gadget report
    initializers  register-seeding gadgets compatible with a dispatcher
    stats         gadget availability per jump-through register
    chain         build a payload from a chain description file
    sim           execute under the shadow-stack interpreter

Exit codes: 0 results or success, 1 nothing found (or an unsuccessful
run, or a closed stdout), 2 bad usage, 3 unreadable or unsupported input
(an image, or a chain file or payload that cannot be built).

Every command loads the image, decoder, scanner, dataflow and classify
layers.  The query layer loads only for scan and query, the chain layer
only for chain, and the interpreter only for sim and chain --simulate,
so no command pays start-up time for those three unless it runs them.

`run()` is the process entry (`python -m rvjop.cli`, the `rvjop`
script).  It runs the command with the cyclic garbage collector off: a
command builds one analysis, prints it and exits, and its cyclic garbage
does not grow with the image, while the collector's passes walk every
decoded instruction and gadget, a cost that does.  Then it flushes
stdout and stderr and ends the process with `os._exit`, skipping the
interpreter's finalization, which would only free that analysis object
by object.  Every file the CLI writes is closed by its `with` block
before `main` returns, so nothing else needs flushing.
`main(argv)` leaves interpreter state alone, so tests and library callers
keep the default collector.  Under `python -m rvjop.cli` the collector
goes off at this module's first statement, before the layers load, so
their imports run no collections; the `rvjop` script turns it off in
`run()`.

`main(argv)` builds the parser of the one subcommand `argv[0]` names,
or of all seven when it names none (help, a typo, no command); both
print the same usage line (`_build_parser`).

A closed stdout (`rvjop scan ... | head`) ends the command with no
message and exit 1, whether the write that finds it runs in a command or
in `run()`'s flush, and whether stdout is buffered or not.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()                # before the layers load; see `run()`

# Every command decodes, so the decoder loads first.  Without a bytecode
# cache, compiling it needs about 2 MB of temporary memory, more than any
# other module; compiled before the other layers load, it adds least to
# the process's peak RSS.
from . import decoder  # noqa: F401

import argparse
import io
import os
import sys

# Loaded with this module, so by every command: benchmarks/test_benchmark.py
# looks `rvjop.classify` up in sys.modules right after `import rvjop.cli`.
from .classify import (ROLES, availability_stats, dispatcher_at,
                       find_dispatchers, find_initializers,
                       render_stats_table)
from .errors import ToolError, UsageError
from .image import ExecutableImage, load_elf, load_raw
from .isa import SP, Register, is_register_name, reg
from .scanner import MAX_GADGET_LEN, dedupe, extract_gadgets

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import NoReturn

OK = 0
EMPTY = 1
USAGE = 2
BADIMAGE = 3


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--binary", metavar="ELF", help="ELF image to analyze")
    p.add_argument("--raw", metavar="FILE", help="flat code blob")
    p.add_argument("--base", type=_ADDRESS, default=0,
                   help="load address for --raw (default 0)")
    p.add_argument("--xlen", type=int, choices=(32, 64), default=32,
                   help="register width for --raw (default 32)")


def _load_image(args) -> ExecutableImage:
    if args.binary and args.raw:
        raise UsageError("give --binary or --raw, not both")
    if args.binary:
        return load_elf(args.binary)
    if args.raw:
        image = load_raw(args.raw, args.base, args.xlen)
        if image.segments[0].end > 1 << args.xlen:
            raise UsageError(f"--base 0x{args.base:x}: the image runs past "
                             f"the {args.xlen}-bit address space")
        return image
    raise UsageError("an input image is required (--binary or --raw)")


def _int_in(lo: int | None = None, hi: int | None = None, base: int = 10):
    """An argparse type: an int in [lo, hi], unbounded where a bound is
    None, so an out-of-range flag is a usage error like any other."""
    def parse(text: str) -> int:
        try:
            value = int(text, base)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if (lo is not None and value < lo
                or hi is not None and value > hi):
            raise argparse.ArgumentTypeError(
                f"{value} is not in [{lo}, {hi}]" if hi is not None
                else f"{value} is below {lo}")
        return value
    return parse


def _register(text: str) -> Register:
    """An argparse type: a register by ABI or x-number name."""
    if not is_register_name(text):
        raise argparse.ArgumentTypeError(f"{text!r} is not a register")
    return reg(text)


def _registers(text: str) -> frozenset[Register]:
    """An argparse type: a comma list of registers."""
    return frozenset(_register(part) for part in text.split(","))


_MAX_LEN = _int_in(0, MAX_GADGET_LEN)
_ADDRESS = _int_in(0, base=0)   # bounded by the image's XLEN once loaded


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    # Omitted flags stay None, so building the parser does not import
    # rvjop.sim; `_sim_limits` fills in its defaults.
    p.add_argument("--fuel", type=_int_in(0), default=None)
    p.add_argument("--stack-top", type=_ADDRESS, default=None)


def _check_addresses(args, image: ExecutableImage, *flags: str) -> None:
    """An address flag that no pc or pointer of the image's XLEN can
    hold is bad usage; an omitted one (None) passes."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value >> image.xlen:
            raise UsageError(f"{flag} 0x{value:x} is past the "
                             f"{image.xlen}-bit address space")


def _sim_limits(args, image: ExecutableImage) -> tuple[int, int]:
    """(fuel, stack top): the flags as given, else the interpreter's
    defaults; an address past the image's XLEN is bad usage."""
    from .sim import DEFAULT_FUEL, DEFAULT_STACK_TOP
    _check_addresses(args, image, "--stack-top", "--buffer-base")
    fuel = DEFAULT_FUEL if args.fuel is None else args.fuel
    top = DEFAULT_STACK_TOP if args.stack_top is None else args.stack_top
    return fuel, top


def _scan_parser(sub, name: str) -> None:
    p = sub.add_parser(name, help="dump every gadget")
    _add_input_flags(p)
    p.add_argument("--max", type=_MAX_LEN, default=4,
                   help="interior instruction cap (default 4)")
    p.add_argument("--unique", action="store_true",
                   help="collapse byte-identical gadgets")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(run=_cmd_query, all_=True)


def _query_parser(sub, name: str) -> None:
    p = sub.add_parser(name, help="filtered gadget search",
                       description="Gadgets that pass every filter given "
                                   "(give one, or --all); --op, --rr and "
                                   "--imm must all hold for one interior "
                                   "instruction.")
    _add_input_flags(p)
    p.add_argument("--op", metavar="MNEMONIC",
                   help="instruction mnemonic, aliases included (li, mv)")
    p.add_argument("--rr", type=_register, metavar="REG",
                   help="register the instruction writes")
    p.add_argument("--imm", type=_int_in(base=0), metavar="N",
                   help="the instruction's immediate")
    p.add_argument("--max", type=_int_in(1, MAX_GADGET_LEN, base=0),
                   default=4, help="interior instruction cap (default 4)")
    p.add_argument("--link", type=_register, metavar="REG",
                   help="the terminator jumps through REG")
    p.add_argument("--preserve", type=_registers, action="append",
                   default=[], metavar="REG[,REG...]",
                   help="the gadget leaves REG unchanged (repeatable)")
    p.add_argument("--role", choices=ROLES, metavar="ROLE",
                   help="one of the classifier's roles: %(choices)s")
    p.add_argument("--all", dest="all_", action="store_true",
                   help="every gadget the other filters let through")
    p.add_argument("--unique", action="store_true",
                   help="collapse byte-identical gadgets")
    p.add_argument("--format", choices=("text", "records"), default="text")
    p.set_defaults(run=_cmd_query)


def _dispatchers_parser(sub, name: str) -> None:
    p = sub.add_parser(name, help="dispatcher-shaped gadgets")
    _add_input_flags(p)
    p.set_defaults(run=_cmd_dispatchers)


def _initializers_parser(sub, name: str) -> None:
    p = sub.add_parser(name, help="register seeders for a dispatcher")
    _add_input_flags(p)
    p.add_argument("--dispatcher", type=_ADDRESS, required=True,
                   metavar="ADDR", help="dispatcher loop entry address")
    p.add_argument("--max", type=_MAX_LEN, default=6,
                   help="interior instruction cap (default 6)")
    p.set_defaults(run=_cmd_initializers)


def _stats_parser(sub, name: str) -> None:
    p = sub.add_parser(name, help="availability per register")
    _add_input_flags(p)
    p.add_argument("--max", type=_MAX_LEN, default=4)
    p.add_argument("--top", type=_int_in(0), default=None,
                   help="keep only the N busiest registers")
    p.set_defaults(run=_cmd_stats)


def _chain_parser(sub, name: str) -> None:
    p = sub.add_parser(name, help="build a payload from a chain file")
    _add_input_flags(p)
    p.add_argument("--spec", required=True, metavar="FILE",
                   help="chain description file")
    p.add_argument("--out", metavar="FILE",
                   help="write the payload buffer here")
    p.add_argument("--manifest", metavar="FILE",
                   help="write the manifest here instead of stdout")
    p.add_argument("--simulate", action="store_true",
                   help="also run the chain and report")
    p.add_argument("--buffer-base", type=_ADDRESS, default=None,
                   help="map the payload here when simulating "
                        "(default: the table base)")
    _add_sim_flags(p)
    p.set_defaults(run=_cmd_chain)


def _sim_parser(sub, name: str) -> None:
    p = sub.add_parser(name, help="run code under the interpreter")
    _add_input_flags(p)
    p.add_argument("--entry", type=_ADDRESS, required=True)
    p.add_argument("--return-to", type=_ADDRESS, required=True)
    p.add_argument("--payload", metavar="FILE",
                   help="raw bytes to map at --buffer-base")
    p.add_argument("--buffer-base", type=_ADDRESS, default=None)
    _add_sim_flags(p)
    p.add_argument("--loop-entry", type=_ADDRESS, default=None,
                   help="count dispatch rounds at this address")
    p.add_argument("--poke", action="append", default=[],
                   metavar="REG=VALUE", help="set a register before running")
    p.set_defaults(run=_cmd_sim)


# subcommand -> the function that adds its parser, in help order
_SUBPARSERS = {
    "scan": _scan_parser, "query": _query_parser,
    "dispatchers": _dispatchers_parser, "initializers": _initializers_parser,
    "stats": _stats_parser, "chain": _chain_parser, "sim": _sim_parser,
}


def _build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser for `argv`: with only the subcommand `argv[0]` names,
    or with all of them when it names none (help, a typo, no command).

    A parser with one subcommand still prints every subcommand in its
    usage line, so its messages read as the full parser's would.  The
    full parser keeps argparse's own listing, so its errors name the
    argument `command`.
    """
    ap = argparse.ArgumentParser(prog="rvjop", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    names = [argv[0]] if argv and argv[0] in _SUBPARSERS else list(_SUBPARSERS)
    listing = "{" + ",".join(_SUBPARSERS) + "}" if len(names) == 1 else None
    sub = ap.add_subparsers(dest="command", required=True, metavar=listing)
    for name in names:
        _SUBPARSERS[name](sub, name)
    return ap


def _query(args):
    """The Query that `query`'s flags ask for; `scan` asks for --all."""
    from .query import Query
    flags = vars(args)
    q = Query(**{f: flags[f] for f in Query._fields if f in flags})
    # --preserve gives one register set per use
    q = q._replace(preserve=frozenset().union(*q.preserve))
    if not q.has_filter:
        raise UsageError("give at least one filter, or --all")
    return q


def _cmd_query(args) -> int:
    from .query import emit_records, render_listing, run_query
    image = _load_image(args)
    hits = run_query(image, _query(args))
    out = emit_records(hits) if args.format == "records" else render_listing(hits)
    sys.stdout.write(out)
    return OK if hits else EMPTY


def _describe_dispatcher(d) -> str:
    cond = ""
    if d.self_link.kind == "conditional":
        r1, r2 = d.self_link.regs
        cond = f" while {r1.name} {d.self_link.op} {r2.name}"
    extra = f" stage2=0x{d.stage2.start:08x}" if d.stage2 is not None else ""
    return (f"0x{d.loop_entry:08x} {d.kind} table={d.table_reg.name} "
            f"stride={d.stride:+d} target={d.target_reg.name}"
            f"{' pre' if d.pre_increment else ''}{cond}{extra}")


def _cmd_dispatchers(args) -> int:
    image = _load_image(args)
    found = find_dispatchers(image)
    for d in found:
        print(_describe_dispatcher(d))
    print(f"{len(found)} candidate" + ("" if len(found) == 1 else "s"))
    return OK if found else EMPTY


def _describe_source(src) -> str:
    """`stack+8` or `stack-12` for an sp slot; other bases are named:
    `mem(a1)+0`."""
    base = "" if src.base is SP else f"({src.base.name})"
    return f"{src.kind}{base}{src.offset:+d}"


def _cmd_initializers(args) -> int:
    image = _load_image(args)
    _check_addresses(args, image, "--dispatcher")
    target = dispatcher_at(image, args.dispatcher)
    if target is None:
        print(f"rvjop: no dispatcher at 0x{args.dispatcher:x}",
              file=sys.stderr)
        print("0 candidates")
        return EMPTY
    gadgets = dedupe(extract_gadgets(image, args.max))
    found = find_initializers(gadgets, target)
    for cand in found:
        sets = " ".join(
            f"{r.name}<-{_describe_source(src)}"
            for r, src in sorted(cand.sets.items(), key=lambda kv: kv[0].index))
        print(f"0x{cand.gadget.start:08x} via {cand.link_register.name}: {sets}")
    print(f"{len(found)} candidate" + ("" if len(found) == 1 else "s"))
    return OK if found else EMPTY


def _cmd_stats(args) -> int:
    image = _load_image(args)
    gadgets = extract_gadgets(image, args.max)
    rows = availability_stats(gadgets)
    pairs = [(r.register.name, r.count) for r in rows]
    total = sum(r.count for r in rows)
    sys.stdout.write(render_stats_table(pairs, top=args.top))
    print(f"{total} unique gadgets")
    return OK if rows else EMPTY


def _cmd_chain(args) -> int:
    from .chain import (has_errors, layout_payload, parse_chain_text,
                        render_manifest, validate_chain)
    image = _load_image(args)
    with open(args.spec, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ToolError(f"chain spec {args.spec}: not UTF-8 text "
                            f"({exc.reason} at byte {exc.start})") from None
    spec = parse_chain_text(text, image)
    diags = validate_chain(spec)
    if has_errors(diags):
        for d in diags:
            print(str(d), file=sys.stderr)
        return EMPTY
    layout = layout_payload(spec)
    manifest = render_manifest(spec, layout, diags)
    if args.manifest:
        with open(args.manifest, "w", encoding="utf-8") as fh:
            fh.write(manifest)
    else:
        sys.stdout.write(manifest)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(layout.buffer)
    if not args.simulate:
        return OK
    from .sim import new_machine, run_chain
    fuel, stack_top = _sim_limits(args, image)
    base = args.buffer_base if args.buffer_base is not None else spec.table_base
    machine = new_machine(image, payload=layout, buffer_base=base,
                          stack_top=stack_top)
    report = run_chain(machine, spec.initializer.gadget.start,
                       spec.return_to, fuel=fuel,
                       loop_entry=spec.dispatcher.loop_entry)
    sys.stdout.write(report.render())
    return OK if report.outcome == "reached" else EMPTY


def _cmd_sim(args) -> int:
    from .sim import new_machine, run_chain
    image = _load_image(args)
    fuel, stack_top = _sim_limits(args, image)
    _check_addresses(args, image, "--entry", "--return-to", "--loop-entry")
    machine = new_machine(image, stack_top=stack_top)
    if args.payload:
        if args.buffer_base is None:
            raise UsageError("--payload needs --buffer-base")
        with open(args.payload, "rb") as fh:
            machine.map_region(args.buffer_base, fh.read())
    for spec in args.poke:
        name, eq, value = spec.partition("=")
        if not eq:
            raise UsageError(f"--poke wants REG=VALUE, got {spec!r}")
        try:
            machine.poke(name, int(value, 0))
        except (ValueError, ToolError):
            raise UsageError(f"bad --poke {spec!r}") from None
    report = run_chain(machine, args.entry, args.return_to,
                       fuel=fuel, loop_entry=args.loop_entry)
    sys.stdout.write(report.render())
    return OK if report.outcome == "reached" else EMPTY


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    try:
        return args.run(args)
    except BrokenPipeError:             # an OSError, but not a bad input
        return _stdout_closed()
    except UsageError as exc:
        print(f"rvjop: {exc}", file=sys.stderr)
        return USAGE
    except (ToolError, OSError) as exc:
        print(f"rvjop: {exc}", file=sys.stderr)
        return BADIMAGE


def _stdout_closed() -> int:
    """Exit status for a stdout whose reader has gone, after the recipe
    in the `signal` module's docs: no message, later flushes go to
    /dev/null, and 1, Python's own status on EPIPE."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return 1


def run() -> NoReturn:
    """`main()` with the cyclic collector off, then `os._exit` with its
    code once stdout and stderr are flushed (see the module docstring).

    The cyclic garbage is the argument parser and, for `chain --simulate`,
    the interpreter's handler closures, one set per distinct pc.  The
    collector's passes would only walk the decoded instructions and
    gadgets, which live until exit anyway.
    """
    gc.disable()
    # A stream is None when its descriptor was closed at start (`>&-`).
    if isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        # Unbuffered stdout (-u, PYTHONUNBUFFERED): its text layer drops
        # the rest of a short write, so a reader that closes mid-write
        # would go unnoticed.  A BufferedWriter retries the rest and meets
        # the closed pipe; flushed at each line, it keeps output prompt.
        out = sys.stdout
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(out.buffer),
                                      out.encoding, out.errors,
                                      line_buffering=True)
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        code = _stdout_closed()
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
