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
run), 2 bad usage, 3 unreadable or unsupported input image.

Every command loads the image, decoder, scanner, dataflow and classify
layers.  The query layer loads only for scan and query, the chain layer
only for chain, and the interpreter only for sim and chain --simulate,
so no command pays start-up time for those three unless it runs them.
"""

from __future__ import annotations

import argparse
import sys

# Loaded with this module, so by every command: benchmarks/test_benchmark.py
# looks `rvjop.classify` up in sys.modules right after `import rvjop.cli`.
from .classify import (availability_stats, dispatcher_at, find_dispatchers,
                       find_initializers, render_stats_table)
from .errors import ToolError, UsageError
from .image import ExecutableImage, load_elf, load_raw
from .isa import SP
from .scanner import ScanConfig, dedupe, extract_gadgets

OK = 0
EMPTY = 1
USAGE = 2
BADIMAGE = 3


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--binary", metavar="ELF", help="ELF image to analyze")
    p.add_argument("--raw", metavar="FILE", help="flat code blob")
    p.add_argument("--base", type=lambda s: int(s, 0), default=0,
                   help="load address for --raw (default 0)")
    p.add_argument("--xlen", type=int, choices=(32, 64), default=32,
                   help="register width for --raw (default 32)")


def _load_image(args) -> ExecutableImage:
    if args.binary and args.raw:
        raise UsageError("give --binary or --raw, not both")
    if args.binary:
        return load_elf(args.binary)
    if args.raw:
        return load_raw(args.raw, args.base, args.xlen)
    raise UsageError("an input image is required (--binary or --raw)")


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    # Omitted flags stay None, so building the parser does not import
    # rvjop.sim; `_sim_limits` fills in its defaults.
    p.add_argument("--fuel", type=int, default=None)
    p.add_argument("--stack-top", type=lambda s: int(s, 0), default=None)


def _sim_limits(args) -> tuple[int, int]:
    """(fuel, stack top): the flags as given, else the interpreter's
    defaults."""
    from .sim import DEFAULT_FUEL, DEFAULT_STACK_TOP
    fuel = DEFAULT_FUEL if args.fuel is None else args.fuel
    top = DEFAULT_STACK_TOP if args.stack_top is None else args.stack_top
    return fuel, top


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rvjop", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="dump every gadget")
    _add_input_flags(p)
    p.add_argument("--max", type=int, default=4,
                   help="interior instruction cap (default 4)")
    p.add_argument("--unique", action="store_true",
                   help="collapse byte-identical gadgets")
    p.add_argument("--format", choices=("text", "records"), default="text")

    p = sub.add_parser("query", help="filtered gadget search",
                       epilog="filters: --op --rr --imm --max --link "
                              "--preserve --role --unique --all")
    _add_input_flags(p)
    p.add_argument("--format", choices=("text", "records"), default="text")

    p = sub.add_parser("dispatchers", help="dispatcher-shaped gadgets")
    _add_input_flags(p)

    p = sub.add_parser("initializers",
                       help="register seeders for a dispatcher")
    _add_input_flags(p)
    p.add_argument("--dispatcher", type=lambda s: int(s, 0), required=True,
                   metavar="ADDR", help="dispatcher loop entry address")
    p.add_argument("--max", type=int, default=6,
                   help="interior instruction cap (default 6)")

    p = sub.add_parser("stats", help="availability per register")
    _add_input_flags(p)
    p.add_argument("--max", type=int, default=4)
    p.add_argument("--top", type=int, default=None,
                   help="keep only the N busiest registers")

    p = sub.add_parser("chain", help="build a payload from a chain file")
    _add_input_flags(p)
    p.add_argument("--spec", required=True, metavar="FILE",
                   help="chain description file")
    p.add_argument("--out", metavar="FILE",
                   help="write the payload buffer here")
    p.add_argument("--manifest", metavar="FILE",
                   help="write the manifest here instead of stdout")
    p.add_argument("--simulate", action="store_true",
                   help="also run the chain and report")
    p.add_argument("--buffer-base", type=lambda s: int(s, 0), default=None,
                   help="map the payload here when simulating "
                        "(default: the table base)")
    _add_sim_flags(p)

    p = sub.add_parser("sim", help="run code under the interpreter")
    _add_input_flags(p)
    p.add_argument("--entry", type=lambda s: int(s, 0), required=True)
    p.add_argument("--return-to", type=lambda s: int(s, 0), required=True)
    p.add_argument("--payload", metavar="FILE",
                   help="raw bytes to map at --buffer-base")
    p.add_argument("--buffer-base", type=lambda s: int(s, 0), default=None)
    _add_sim_flags(p)
    p.add_argument("--loop-entry", type=lambda s: int(s, 0), default=None,
                   help="count dispatch rounds at this address")
    p.add_argument("--poke", action="append", default=[],
                   metavar="REG=VALUE", help="set a register before running")
    return ap


def _cmd_scan(args) -> int:
    from .query import Query, emit_records, render_listing, run_query
    image = _load_image(args)
    q = Query(all_=True, max=args.max, unique=args.unique)
    hits = run_query(image, q)
    out = emit_records(hits) if args.format == "records" else render_listing(hits)
    sys.stdout.write(out)
    return OK if hits else EMPTY


def _cmd_query(args, extra: list[str]) -> int:
    from .query import emit_records, parse_query, render_listing, run_query
    image = _load_image(args)
    q = parse_query(extra)
    hits = run_query(image, q)
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
    target = dispatcher_at(image, args.dispatcher)
    if target is None:
        print(f"rvjop: no dispatcher at 0x{args.dispatcher:x}",
              file=sys.stderr)
        print("0 candidates")
        return EMPTY
    cfg = ScanConfig(max_len=args.max, allow_interior_branches=False)
    gadgets = dedupe(extract_gadgets(image, cfg))
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
    gadgets = extract_gadgets(image, ScanConfig(max_len=args.max))
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
        spec = parse_chain_text(fh.read(), image)
    diags = validate_chain(spec, image.xlen)
    if has_errors(diags):
        for d in diags:
            print(str(d), file=sys.stderr)
        return EMPTY
    layout = layout_payload(spec, image.xlen, image)
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
    fuel, stack_top = _sim_limits(args)
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
    fuel, stack_top = _sim_limits(args)
    image = _load_image(args)
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
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    extra: list[str] = []
    try:
        if argv and argv[0] == "query":
            args, extra = parser.parse_known_args(argv)
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    try:
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "query":
            return _cmd_query(args, extra)
        if args.command == "dispatchers":
            return _cmd_dispatchers(args)
        if args.command == "initializers":
            return _cmd_initializers(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "chain":
            return _cmd_chain(args)
        if args.command == "sim":
            return _cmd_sim(args)
    except UsageError as exc:
        print(f"rvjop: {exc}", file=sys.stderr)
        return USAGE
    except (ToolError, OSError) as exc:
        print(f"rvjop: {exc}", file=sys.stderr)
        return BADIMAGE
    return USAGE


if __name__ == "__main__":
    sys.exit(main())
