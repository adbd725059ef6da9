"""Command-line front end.

`_ABOUT` is what `rvjop --help` tells users: what rvjop does and its exit
codes.  What follows is how this module runs the subcommands.

Every command loads the image, decoder, scanner and classify layers.
The dataflow layer loads with the first gadget a command summarizes:
dispatchers, initializers, chain, scan --format records, and a query by
role or --preserve.  So stats, sim, a text scan and a query by
instruction never load it.  The query layer loads only for scan and
query, the chain layer only for chain, and the interpreter only for sim
and chain --simulate, so no command pays start-up time for those
layers unless it runs them.

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

`main(argv)` reads argv straight from one table of the subcommands and
their flags (`_COMMANDS`) when it is a subcommand followed by that
subcommand's flags, each spelled out in full and given a valid value
(`_table_parse`).  Everything else (help, an abbreviation, a usage
error) goes to argparse's parser of all seven subcommands, built from
the same table (`_build_parser`), so its text is argparse's own; only
then do argparse and the gettext and locale modules behind it load.
What argparse stores without reading it through the flag's type and
choices, `--flag=--`, is then a usage error (`_unread_value`), so no
value reaches a command unread on any Python version.

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
# the process's peak RSS.  Importing a name from it, not the module
# itself, makes `python -X importtime` time it on a line of its own.
from .decoder import CondBranch

import io
import os
import sys
from types import SimpleNamespace

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
    import argparse
    from typing import NoReturn

OK = 0
EMPTY = 1
USAGE = 2
BADIMAGE = 3


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


def _bad_value(message: str) -> Exception:
    """argparse's error for a value its type refuses.  argparse loads
    only here, on input that the table parse hands to it anyway."""
    from argparse import ArgumentTypeError
    return ArgumentTypeError(message)


def _int_in(lo: int | None = None, hi: int | None = None, base: int = 10):
    """An argparse type: an int in [lo, hi], unbounded where a bound is
    None, so an out-of-range flag is a usage error like any other."""
    def parse(text: str) -> int:
        try:
            value = int(text, base)
        except ValueError:
            raise _bad_value(f"invalid int value: {text!r}") from None
        if (lo is not None and value < lo
                or hi is not None and value > hi):
            raise _bad_value(f"{value} is not in [{lo}, {hi}]"
                             if hi is not None else f"{value} is below {lo}")
        return value
    return parse


def _register(text: str) -> Register:
    """An argparse type: a register by ABI or x-number name."""
    if not is_register_name(text):
        raise _bad_value(f"{text!r} is not a register")
    return reg(text)


def _registers(text: str) -> frozenset[Register]:
    """An argparse type: a comma list of registers."""
    return frozenset(_register(part) for part in text.split(","))


_MAX_LEN = _int_in(0, MAX_GADGET_LEN)
_ADDRESS = _int_in(0, base=0)   # bounded by the image's XLEN once loaded


def _flag(name: str, **keywords) -> tuple[str, dict]:
    """A row of the command table: a flag and its `add_argument` keywords."""
    return name, keywords


_INPUT_FLAGS = (
    _flag("--binary", metavar="ELF", help="ELF image to analyze"),
    _flag("--raw", metavar="FILE", help="flat code blob"),
    _flag("--base", type=_ADDRESS, default=0,
          help="load address for --raw (default 0)"),
    _flag("--xlen", type=int, choices=(32, 64), default=32,
          help="register width for --raw (default 32)"),
)
# Omitted flags stay None, so parsing does not import rvjop.sim;
# `_sim_limits` fills in its defaults.
_SIM_FLAGS = (
    _flag("--fuel", type=_int_in(0), default=None),
    _flag("--stack-top", type=_ADDRESS, default=None),
)


_ABOUT = """\
Find jump-oriented gadgets in a RISC-V (RV32/RV64 IMAC) image (scan,
query, dispatchers, initializers, stats), lay a chain of them out as a
payload (chain), and run it under a shadow stack (sim, chain --simulate).

exit codes:
  0  results or success
  1  nothing found, an unsuccessful run, or a closed stdout
  2  bad usage
  3  unreadable or unsupported input (an image, or a chain file or
     payload that cannot be built)
"""


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
    defaults.  An address past the image's XLEN is bad usage, and so is a
    stack top whose slack (`sim.STACK_SLACK` bytes either side) leaves the
    address space, where no access reaches it."""
    from .sim import DEFAULT_FUEL, DEFAULT_STACK_TOP, stack_slack_problem
    _check_addresses(args, image, "--stack-top", "--buffer-base")
    top = args.stack_top
    problem = top is not None and stack_slack_problem(top, image.xlen)
    if problem:
        raise UsageError(f"--stack-top {problem}")
    fuel = DEFAULT_FUEL if args.fuel is None else args.fuel
    return fuel, DEFAULT_STACK_TOP if top is None else top


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
    from .query import (dispatcher_lookup, emit_records, render_listing,
                        run_query)
    image = _load_image(args)
    dispatchers = dispatcher_lookup(image)
    hits = run_query(image, _query(args), dispatchers)
    out = (emit_records(hits, dispatchers) if args.format == "records"
           else render_listing(hits))
    sys.stdout.write(out)
    return OK if hits else EMPTY


def _describe_dispatcher(d) -> str:
    cond = ""
    if isinstance(d.self_link, CondBranch):
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
    # A usage error writes nothing: the limits are checked before layout.
    limits = _sim_limits(args, image) if args.simulate else None
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
    fuel, stack_top = limits
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


# subcommand -> (`add_parser` keywords, `set_defaults` keywords, its flags),
# in help order
_COMMANDS = {
    "scan": ({"help": "dump every gadget"},
             {"run": _cmd_query, "all_": True},
             (*_INPUT_FLAGS,
              _flag("--max", type=_MAX_LEN, default=4,
                    help="interior instruction cap (default 4)"),
              _flag("--unique", action="store_true",
                    help="collapse byte-identical gadgets"),
              _flag("--format", choices=("text", "records"), default="text"))),
    "query": ({"help": "filtered gadget search",
               "description": "Gadgets that pass every filter given (give "
                              "one, or --all); --op, --rr and --imm must all "
                              "hold for one interior instruction."},
              {"run": _cmd_query},
              (*_INPUT_FLAGS,
               _flag("--op", metavar="MNEMONIC",
                     help="instruction mnemonic, aliases included (li, mv)"),
               _flag("--rr", type=_register, metavar="REG",
                     help="register the instruction writes"),
               _flag("--imm", type=_int_in(base=0), metavar="N",
                     help="the instruction's immediate"),
               _flag("--max", type=_int_in(1, MAX_GADGET_LEN, base=0),
                     default=4, help="interior instruction cap (default 4)"),
               _flag("--link", type=_register, metavar="REG",
                     help="the terminator jumps through REG"),
               _flag("--preserve", type=_registers, action="append",
                     default=[], metavar="REG[,REG...]",
                     help="the gadget leaves REG unchanged (repeatable)"),
               _flag("--role", choices=ROLES, metavar="ROLE",
                     help="one of the classifier's roles: %(choices)s"),
               _flag("--all", dest="all_", action="store_true",
                     help="every gadget the other filters let through"),
               _flag("--unique", action="store_true",
                     help="collapse byte-identical gadgets"),
               _flag("--format", choices=("text", "records"),
                     default="text"))),
    "dispatchers": ({"help": "dispatcher-shaped gadgets"},
                    {"run": _cmd_dispatchers},
                    _INPUT_FLAGS),
    "initializers": ({"help": "register seeders for a dispatcher"},
                     {"run": _cmd_initializers},
                     (*_INPUT_FLAGS,
                      _flag("--dispatcher", type=_ADDRESS, required=True,
                            metavar="ADDR",
                            help="dispatcher loop entry address"),
                      _flag("--max", type=_MAX_LEN, default=6,
                            help="interior instruction cap (default 6)"))),
    "stats": ({"help": "availability per register"},
              {"run": _cmd_stats},
              (*_INPUT_FLAGS,
               _flag("--max", type=_MAX_LEN, default=4),
               _flag("--top", type=_int_in(0), default=None,
                     help="keep only the N busiest registers"))),
    "chain": ({"help": "build a payload from a chain file"},
              {"run": _cmd_chain},
              (*_INPUT_FLAGS,
               _flag("--spec", required=True, metavar="FILE",
                     help="chain description file"),
               _flag("--out", metavar="FILE",
                     help="write the payload buffer here"),
               _flag("--manifest", metavar="FILE",
                     help="write the manifest here instead of stdout"),
               _flag("--simulate", action="store_true",
                     help="also run the chain and report"),
               _flag("--buffer-base", type=_ADDRESS, default=None,
                     help="map the payload here when simulating "
                          "(default: the table base)"),
               *_SIM_FLAGS)),
    "sim": ({"help": "run code under the interpreter"},
            {"run": _cmd_sim},
            (*_INPUT_FLAGS,
             _flag("--entry", type=_ADDRESS, required=True),
             _flag("--return-to", type=_ADDRESS, required=True),
             _flag("--payload", metavar="FILE",
                   help="raw bytes to map at --buffer-base"),
             _flag("--buffer-base", type=_ADDRESS, default=None),
             *_SIM_FLAGS,
             _flag("--loop-entry", type=_ADDRESS, default=None,
                   help="count dispatch rounds at this address"),
             _flag("--poke", action="append", default=[],
                   metavar="REG=VALUE",
                   help="set a register before running"))),
}


def _dest(name: str, keywords: dict) -> str:
    """Where a flag of `_COMMANDS` is stored, as argparse names it."""
    return keywords.get("dest") or name[2:].replace("-", "_")


def _table_parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace the full parser gives for `argv`, read straight from
    `_COMMANDS`, or None for any argv this parse does not decide.

    It takes a known subcommand followed by that subcommand's flags, each
    spelled out in full as `--flag value` (the value not starting with
    "-") or `--flag=value` (`--flag` alone for a switch), every value
    accepted by its type and choices, and every required flag given.
    Help, abbreviations, `--`, negative numbers as separate words and
    every error are left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, defaults, flags = _COMMANDS[argv[0]]
    found = {"command": argv[0], **defaults}
    by_name, required = {}, set()
    for name, keywords in flags:
        dest = _dest(name, keywords)
        by_name[name] = dest, keywords
        action = keywords.get("action")
        default = keywords.get("default",
                               False if action == "store_true" else None)
        found[dest] = list(default) if action == "append" else default
        if keywords.get("required"):
            required.add(name)
    i = 1
    while i < len(argv):
        name, eq, value = argv[i].partition("=")
        if name not in by_name:
            return None
        dest, keywords = by_name[name]
        action = keywords.get("action")
        i += 1
        if action == "store_true":
            if eq:
                return None
            found[dest] = True
            continue
        if not eq:
            if i == len(argv) or argv[i].startswith("-"):
                return None
            value = argv[i]
            i += 1
        elif value == "--":             # argparse before 3.13 drops it
            return None
        try:
            value = keywords.get("type", str)(value)
        except Exception:           # argparse reports it, as before
            return None
        choices = keywords.get("choices")
        if choices is not None and value not in choices:
            return None
        if action == "append":
            found[dest].append(value)
        else:
            found[dest] = value
        required.discard(name)
    if required:
        return None
    return SimpleNamespace(**found)


def _unread_value(args) -> str | None:
    """The flag whose value argparse stored without reading it through
    the flag's type and choices, if any.  Before Python 3.13 argparse
    stores `--flag=--` as [] without calling either, and from 3.13 it
    gives an untyped flag the string "--".  `_table_parse` takes
    neither, and neither parse takes `--flag --`: "--" is no flag's
    value."""
    for name, keywords in _COMMANDS[args.command][2]:
        value = getattr(args, _dest(name, keywords))
        for v in value if keywords.get("action") == "append" else (value,):
            if type(v) is list or v == "--":
                return name
    return None


def _build_parser() -> argparse.ArgumentParser:
    """argparse's parser with every subcommand of `_COMMANDS`: for help,
    usage errors and whatever else `_table_parse` declines."""
    import argparse
    ap = argparse.ArgumentParser(prog="rvjop", description=_ABOUT,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (about, defaults, flags) in _COMMANDS.items():
        p = sub.add_parser(name, **about)
        for flag, keywords in flags:
            p.add_argument(flag, **keywords)
        p.set_defaults(**defaults)
    return ap


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _table_parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return USAGE if exc.code not in (0, None) else OK
        flag = _unread_value(args)
        if flag is not None:
            print(f"rvjop: argument {flag}: expected one argument",
                  file=sys.stderr)
            return USAGE
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

    The cyclic garbage is argparse's parser, where argparse parses, and,
    for `chain --simulate`, the interpreter's handler closures, one set
    per distinct pc.  The collector's passes would only walk the decoded
    instructions and gadgets, which live until exit anyway.
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
