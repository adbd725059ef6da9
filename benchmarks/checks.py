"""Output checks against answers known independently of the code under test.

The expected gadget population comes from `tests/oracle.py`'s brute-force
forward walk (computed once per run, outside any timed command); the
dispatcher, initializer and chain answers come from what the corpus
generator planted.  Every check returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from oracle import brute_force

from corpus import Corpus


@dataclass(frozen=True)
class Expected:
    """Oracle answers for one image."""
    align: dict[int, str]          # gadget start -> alignment (max length 6)
    length: dict[int, int]         # gadget start -> interior length
    unique4: int                   # distinct encodings with interior <= 4

    def starts(self, max_len: int) -> set[int]:
        return {s for s, n in self.length.items() if n <= max_len}


def expected_for(image) -> Expected:
    found = brute_force(image, max_len=6)
    align = {start: a for start, _, a in found}
    length = {start: len(encs) - 1 for start, encs, _ in found}
    unique4 = len({b"".join(encs) for _, encs, _ in found if len(encs) <= 5})
    return Expected(align, length, unique4)


_COUNT = re.compile(r"^(\d+) (gadget|candidate)s?$")


def _count_line(lines: list[str], problems: list[str]) -> int | None:
    m = _COUNT.match(lines[-1]) if lines else None
    if m is None:
        problems.append("missing count line")
        return None
    return int(m.group(1))


def _exit(code: int, want: int, problems: list[str]) -> None:
    if code != want:
        problems.append(f"exit code {code}, expected {want}")


def listing_starts(out: str, problems: list[str]) -> list[int]:
    """Start addresses of a text listing's stanzas, checked against its
    own count line."""
    blocks = out.rstrip("\n").split("\n\n")
    count = _count_line(blocks[-1].splitlines(), problems)
    starts = []
    for block in blocks[:-1]:
        first = block.split(":", 1)[0]
        try:
            starts.append(int(first, 16))
        except ValueError:
            problems.append(f"bad listing line {first!r}")
    if count is not None and count != len(starts):
        problems.append(f"count line says {count}, listing has {len(starts)}")
    return starts


def parse_records(out: str, problems: list[str]) -> list[tuple[int, str, str]]:
    rows = []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) != 5:
            problems.append(f"bad record line {line!r}")
            continue
        try:
            rows.append((int(parts[0], 16), parts[1], parts[2]))
        except ValueError:
            problems.append(f"bad record offset {parts[0]!r}")
    return rows


def check_scan(code: int, out: str, exp: Expected) -> list[str]:
    """Text listing (--max 4): exactly the oracle's gadget starts."""
    problems: list[str] = []
    _exit(code, 0, problems)
    starts = listing_starts(out, problems)
    want = exp.starts(4)
    if len(starts) != len(want) or set(starts) != want:
        problems.append(f"listed {len(starts)} gadgets, oracle has {len(want)}")
    return problems


def check_scan_records(code: int, out: str, exp: Expected) -> list[str]:
    """Records (--max 4): offsets and alignments equal the oracle's set."""
    problems: list[str] = []
    _exit(code, 0, problems)
    got = [(off, align) for off, align, _ in parse_records(out, problems)]
    want = {(s, exp.align[s]) for s in exp.starts(4)}
    if len(got) != len(want) or set(got) != want:
        problems.append(f"records differ from the oracle: {len(got)} rows, "
                        f"{len(set(got) ^ want)} mismatches")
    return problems


def check_query(code: int, out: str, exp: Expected, argv: tuple[str, ...],
                planted: int | None) -> list[str]:
    """Every hit is a real gadget within --max; the planted one is found."""
    problems: list[str] = []
    _exit(code, 0, problems)
    flags = dict(a[2:].split("=", 1) for a in argv if "=" in a)
    max_len = int(flags.get("max", 4))
    allowed = exp.starts(max_len)
    if "records" in argv:
        rows = parse_records(out, problems)
        starts = [off for off, _, _ in rows]
        for off, align, link in rows:
            if exp.align.get(off) != align:
                problems.append(f"0x{off:x}: alignment {align} is wrong")
            if "link" in flags and link != flags["link"]:
                problems.append(f"0x{off:x}: link {link} != {flags['link']}")
    else:
        starts = listing_starts(out, problems)
    if not starts:
        problems.append("no hits")
    stray = set(starts) - allowed
    if stray:
        problems.append(f"{len(stray)} hits are not gadgets of length "
                        f"<= {max_len}")
    if planted is not None and planted not in starts:
        problems.append(f"planted gadget 0x{planted:x} missing")
    return problems


def check_dispatchers(code: int, out: str, corpus: Corpus) -> list[str]:
    """Every planted dispatcher is listed; the count line is consistent."""
    problems: list[str] = []
    _exit(code, 0, problems)
    lines = out.splitlines()
    count = _count_line(lines, problems)
    if count is not None and count != len(lines) - 1:
        problems.append(f"count line says {count}, {len(lines) - 1} listed")
    for kind, entry, stage2 in corpus.dispatchers:
        head = f"0x{entry:08x} {kind} "
        tail = "" if stage2 is None else f" stage2=0x{stage2:08x}"
        if not any(l.startswith(head) and l.endswith(tail) for l in lines):
            problems.append(f"planted {kind} at 0x{entry:x} not listed")
    return problems


def check_initializers(code: int, out: str, corpus: Corpus) -> list[str]:
    problems: list[str] = []
    _exit(code, 0, problems)
    lines = out.splitlines()
    count = _count_line(lines, problems)
    if count is not None and count != len(lines) - 1:
        problems.append(f"count line says {count}, {len(lines) - 1} listed")
    head = f"0x{corpus.labels['init']:08x} via t0: "
    if not any(l.startswith(head) for l in lines):
        problems.append("planted initializer not listed")
    return problems


def check_stats(code: int, out: str, exp: Expected) -> list[str]:
    """Per-register counts sum to the total, which matches the oracle."""
    problems: list[str] = []
    _exit(code, 0, problems)
    lines = out.splitlines()
    m = re.match(r"^(\d+) unique gadgets$", lines[-1]) if len(lines) == 3 \
        else None
    if m is None:
        return problems + ["malformed stats output"]
    total = int(m.group(1))
    try:
        counts = [int(c) for c in lines[1].split("|")[1:]]
    except ValueError:
        return problems + ["malformed stats table"]
    if sum(counts) != total:
        problems.append(f"register counts sum to {sum(counts)}, not {total}")
    if total != exp.unique4:
        problems.append(f"{total} unique gadgets, oracle has {exp.unique4}")
    return problems


def _check_manifest(out: str, corpus: Corpus, problems: list[str]) -> None:
    loop = corpus.labels["loop"]
    if f"dispatcher   dispatcher-autonomous entry=0x{loop:08x}" not in out:
        problems.append("manifest names the wrong dispatcher")
    if f"entries={corpus.entries}" not in out:
        problems.append(f"manifest lacks entries={corpus.entries}")


def check_chain(code: int, out: str, corpus: Corpus) -> list[str]:
    problems: list[str] = []
    _exit(code, 0, problems)
    _check_manifest(out, corpus, problems)
    return problems


_ECALL = re.compile(r"^ecall (\d+)\s+at 0x[0-9a-f]+ \(([^)]*)\) -> 0x([0-9a-f]+)$",
                    re.M)


def check_chain_sim(code: int, out: str, corpus: Corpus) -> list[str]:
    """Reached, stealthy, open/read/write, read size 4 x repeat, and one
    dispatch round per table entry."""
    problems: list[str] = []
    _exit(code, 0, problems)
    _check_manifest(out, corpus, problems)
    for want in ("outcome        reached", "stealth        yes",
                 f"dispatch rounds {corpus.entries}"):
        if not re.search(f"^{want}$", out, re.M):
            problems.append(f"missing {want!r}")
    calls = _ECALL.findall(out)
    if [int(n) for n, _, _ in calls] != [56, 63, 64]:
        problems.append("syscalls are not openat, read, write")
    else:
        args = [int(a, 16) for a in calls[1][1].split(", ")]
        size = 4 * corpus.repeat
        if args[2] != size or int(calls[1][2], 16) != size:
            problems.append(f"read count is not {size}")
    return problems
