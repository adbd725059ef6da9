"""Seeded benchmark corpus: images, planted addresses and chain files.

Every image is assembled instruction by instruction through
`rvjop.assembler.assemble` into one growing buffer, so building one is
linear in its size.  The same workload and seed always give
byte-identical files.  Every image carries the same planted "chain
block" (an autonomous dispatcher, an initializer and the open/read/write
step gadgets), so every workload can run every command of the session;
the workloads differ in what surrounds that block.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from pathlib import Path

from rvjop.assembler import assemble

TABLE_BASE = 0x100000
PATH_TEXT = "flag.txt"

# Registers random code may touch.  s0 and ra are left out, so random
# code never looks like the planted dispatchers' table walks.
GP = ["a0", "a1", "a2", "a3", "a4", "a5", "t0", "t1", "t2",
      "s1", "s2", "s3", "s4"]

# c.addi16sp 16 hidden at +2 inside `lui zero, ...`, then c.jr ra.
_HIDDEN_RELEASE = ((0x6141 << 16) | 0x0037).to_bytes(4, "little")
_RET_C = (0x8082).to_bytes(2, "little")


class Emitter:
    """Assembler with labels and a running offset (no re-summing)."""

    def __init__(self, base: int, xlen: int):
        self.base = base
        self.xlen = xlen
        self.buf = bytearray()
        self.labels: dict[str, int] = {}

    @property
    def here(self) -> int:
        return self.base + len(self.buf)

    @property
    def size(self) -> int:
        return len(self.buf)

    def label(self, name: str) -> None:
        self.labels[name] = self.here

    def emit(self, mnemonic: str, *ops) -> None:
        self.buf += assemble(mnemonic, ops, xlen=self.xlen)

    def branch(self, mnemonic: str, r1: str, r2: str, label: str) -> None:
        self.emit(mnemonic, r1, r2, self.labels[label] - self.here)

    def raw(self, data: bytes) -> None:
        self.buf += data


# --- planted blocks ---------------------------------------------------------

def emit_chain_block(e: Emitter) -> None:
    """Autonomous dispatcher, initializer and the stealth-chain steps."""
    load = "lw" if e.xlen == 32 else "ld"
    word = e.xlen // 8
    e.label("loop")
    e.emit(load, "a5", "s0", 0)
    e.emit("jalr", "ra", "a5", 0)
    e.emit("addi", "s0", "s0", word)
    e.branch("blt", "s0", "s1", "loop")
    e.emit("ebreak")
    e.label("init")
    e.emit(load, "s0", "sp", 0)
    e.emit(load, "s1", "sp", word)
    e.emit(load, "t0", "sp", 2 * word)
    e.emit(load, "a1", "sp", 3 * word)
    e.emit("jr", "t0")
    for name, body in [("g_dirfd", [("li", "a0", -100)]),
                       ("g_flags", [("li", "a2", 0)]),
                       ("g_alloc", [("addi", "sp", "sp", -16)]),
                       ("g_open", [("li", "a7", 56), ("ecall",)]),
                       ("g_count", [("addi", "a2", "a2", 4)]),
                       ("g_read", [("li", "a7", 63), ("ecall",)]),
                       ("g_outfd", [("li", "a0", 5)]),
                       ("g_write", [("li", "a7", 64), ("ecall",)])]:
        e.label(name)
        for mnemonic, *ops in body:
            e.emit(mnemonic, *ops)
        e.emit("ret")
    e.label("hide_release")
    e.raw(_HIDDEN_RELEASE)
    e.raw(_RET_C)
    e.labels["g_release"] = e.labels["hide_release"] + 2
    e.label("landing")
    e.emit("nop")
    e.emit("ebreak")


def emit_classic_dispatcher(e: Emitter) -> None:
    e.label("classic")
    e.emit("lw", "a5", "s0", 0)
    e.emit("addi", "s0", "s0", 4)
    e.emit("jr", "a5")


def emit_two_stage_dispatcher(e: Emitter) -> None:
    e.label("stage1")
    e.emit("addi", "s0", "s0", 4)
    e.emit("jr", "t2")
    e.label("stage2")
    e.emit("lw", "a5", "s0", 0)
    e.emit("jr", "a5")


# --- random code ------------------------------------------------------------

def _emit_random_body(e: Emitter, rng: random.Random, any_base: bool,
                      roll: float | None = None) -> None:
    """One random fall-through instruction (or a short branch); `roll`
    in [0, 1) picks the kind."""
    r = lambda: rng.choice(GP)
    load, store, word = ("lw", "sw", 4) if e.xlen == 32 else ("ld", "sd", 8)
    if roll is None:
        roll = rng.random()
    if roll < 0.20:
        e.emit("addi", r(), r(), rng.randrange(-2048, 2048))
    elif roll < 0.34:
        e.emit(rng.choice(["add", "sub", "xor", "or", "and", "mul"]),
               r(), r(), r())
    elif roll < 0.44:
        e.emit(load, r(), r() if any_base else "sp", word * rng.randrange(0, 8))
    elif roll < 0.52:
        e.emit(store, r(), r() if any_base else "sp",
               word * rng.randrange(0, 8))
    elif roll < 0.62:
        e.emit("lui", r(), rng.randrange(1, 1 << 20))
    elif roll < 0.74:
        e.emit("c.li", r(), rng.randrange(-32, 32))
    elif roll < 0.84:
        e.emit("c.mv", r(), r())
    elif roll < 0.94:
        e.emit("slli", r(), r(), rng.randrange(1, 32))
    else:
        e.emit(rng.choice(["beq", "bne"]), r(), r(),
               rng.choice([-12, -8, 8, 12]))


def _emit_random_terminator(e: Emitter, rng: random.Random, kind: int) -> None:
    if kind == 0:
        e.emit("c.jr", rng.choice(GP))
    elif kind == 1:
        e.emit("jalr", "zero", rng.choice(GP), rng.randrange(-64, 64))
    elif kind == 2:
        e.emit("jalr", "ra", rng.choice(GP), 0)
    else:
        e.emit("ret")


def _emit_compressed(e: Emitter, rng: random.Random) -> None:
    """Compressed forms typical of -Os code; sp-relative memory only."""
    r = lambda: rng.choice(GP)
    word = e.xlen // 8
    roll = rng.random()
    if roll < 0.25:
        e.emit("c.addi", r(), rng.choice([-8, -4, -1, 1, 2, 4, 8, 16]))
    elif roll < 0.45:
        e.emit("c.add", r(), r())
    elif roll < 0.65:
        e.emit("c.ldsp" if word == 8 else "c.lwsp", r(),
               word * rng.randrange(0, 8))
    elif roll < 0.80:
        e.emit("c.sdsp" if word == 8 else "c.swsp", r(),
               word * rng.randrange(0, 8))
    elif roll < 0.90 and e.xlen == 64:
        e.emit("c.addiw", r(), rng.randrange(-32, 32))
    else:
        e.emit("c.slli", r(), rng.randrange(1, e.xlen))


def emit_function(e: Emitter, rng: random.Random) -> None:
    """A function-shaped body: prologue, sp-only memory, epilogue.

    About 6% of body steps are an epilogue-style `load from sp; c.jr`,
    the classic bait for false dispatcher reports.
    """
    load, store, word = ("lw", "sw", 4) if e.xlen == 32 else ("ld", "sd", 8)
    frame = 16 * rng.randrange(2, 5)
    e.emit("addi", "sp", "sp", -frame)
    e.emit(store, "ra", "sp", frame - word)
    e.emit(store, "s0", "sp", frame - 2 * word)
    for _ in range(rng.randrange(8, 40)):
        roll = rng.random()
        if roll < 0.06:
            e.emit(load, rng.choice(GP), "sp", word * rng.randrange(0, 6))
            e.emit("c.jr", rng.choice(["t0", "t1", "t2"]))
        elif roll < 0.45:
            _emit_compressed(e, rng)
        else:
            _emit_random_body(e, rng, any_base=False)
    e.emit(load, "s0", "sp", frame - 2 * word)
    e.emit(load, "ra", "sp", frame - word)
    e.emit("addi", "sp", "sp", frame)
    e.emit("ret")


# --- images -----------------------------------------------------------------

def _fill_deck(rng: random.Random) -> list[tuple[bool, float]]:
    """200 shuffled fill slots: exactly 10% indirect jumps (the four
    kinds equally often) and the body kinds in exact proportions, so
    images of one size differ in order, not in mix."""
    deck = [(True, k % 4) for k in range(20)]
    deck += [(False, (k + 0.5) / 180) for k in range(180)]
    rng.shuffle(deck)
    return deck


def _dense_image(seed: int, size: int) -> Emitter:
    """RV32 random fill, 10% indirect jumps, loads through any base."""
    rng = random.Random(f"scan-dense-rv32/{seed}")
    e = Emitter(0x10000, 32)
    planted = [emit_chain_block, emit_classic_dispatcher,
               emit_two_stage_dispatcher]
    rng.shuffle(planted)
    marks = sorted(rng.randrange(size // 8, size - size // 8)
                   for _ in planted)
    deck: list[tuple[bool, float]] = []
    while e.size < size:
        if planted and e.size >= marks[0]:
            marks.pop(0)
            planted.pop(0)(e)
            continue
        if not deck:
            deck = _fill_deck(rng)
        jump, pick = deck.pop()
        if jump:
            _emit_random_terminator(e, rng, pick)
        else:
            _emit_random_body(e, rng, any_base=True, roll=pick)
    for block in planted:
        block(e)
    e.emit("ret")
    return e


def _functions_image(name: str, seed: int, base: int, xlen: int,
                     size: int, chain_first: bool) -> Emitter:
    """Function-shaped code with the chain block planted between two
    functions (or first, ahead of the filler)."""
    rng = random.Random(f"{name}/{seed}")
    e = Emitter(base, xlen)
    mark = 0 if chain_first else rng.randrange(size // 8, size - size // 8)
    planted = False
    while e.size < size:
        if not planted and e.size >= mark:
            emit_chain_block(e)
            planted = True
        else:
            emit_function(e, rng)
    if not planted:
        emit_chain_block(e)
    return e


# --- files ------------------------------------------------------------------

def make_elf(vaddr: int, code: bytes, xlen: int) -> bytes:
    """A minimal little-endian RISC-V ELF with one R+X PT_LOAD segment."""
    ident = bytes([0x7F, 0x45, 0x4C, 0x46, 1 if xlen == 32 else 2, 1, 1, 0])
    ident += bytes(8)
    if xlen == 32:
        ehsize, phentsize = 52, 32
        ehdr = ident + struct.pack("<HHIIIIIHHHHHH", 2, 243, 1, vaddr,
                                   ehsize, 0, 0, ehsize, phentsize, 1, 0, 0, 0)
        phdr = struct.pack("<IIIIIIII", 1, ehsize + phentsize, vaddr, vaddr,
                           len(code), len(code), 5, 4)
    else:
        ehsize, phentsize = 64, 56
        ehdr = ident + struct.pack("<HHIQQQIHHHHHH", 2, 243, 1, vaddr,
                                   ehsize, 0, 0, ehsize, phentsize, 1, 0, 0, 0)
        phdr = struct.pack("<IIQQQQQQ", 1, 5, ehsize + phentsize, vaddr,
                           vaddr, len(code), len(code), 8)
    return ehdr + phdr + code


@dataclass(frozen=True)
class Corpus:
    """One workload's generated input plus everything planted in it."""
    xlen: int
    base: int
    code: bytes
    fmt: str                                  # "elf" | "raw"
    labels: dict[str, int]
    # (kind, loop entry, stage-two start or None) the image must report
    dispatchers: tuple[tuple[str, int, int | None], ...]
    repeat: int                               # g_count step repeat
    # `rvjop query` argument tails, each with its planted target label
    queries: tuple[tuple[tuple[str, ...], str | None], ...]

    @property
    def file_bytes(self) -> bytes:
        return make_elf(self.base, self.code, self.xlen) \
            if self.fmt == "elf" else self.code

    @property
    def halfwords(self) -> int:
        return len(self.code) // 2

    @property
    def entries(self) -> int:
        """Dispatch-table entries: eight single steps, the counter, return."""
        return 8 + self.repeat + 1

    @property
    def path_addr(self) -> int:
        return TABLE_BASE + self.entries * (self.xlen // 8)

    def image_args(self, path: Path) -> list[str]:
        if self.fmt == "elf":
            return ["--binary", str(path)]
        return ["--raw", str(path), "--base", hex(self.base),
                "--xlen", str(self.xlen)]

    def chain_text(self) -> str:
        a = self.labels
        lines = [f"dispatcher {a['loop']:#x}", f"initializer {a['init']:#x}",
                 f"table-base {TABLE_BASE:#x}",
                 f"return-to {a['landing']:#x}",
                 f"seed a1={self.path_addr:#x}"]
        for name in ("g_dirfd", "g_flags", "g_alloc", "g_open"):
            lines.append(f"step {a[name]:#x} {name}")
        lines.append(f"step {a['g_count']:#x} {self.repeat} g_count")
        for name in ("g_read", "g_outfd", "g_write", "g_release"):
            lines.append(f"step {a[name]:#x} {name}")
        lines.append(f"data str:{PATH_TEXT} path")
        return "\n".join(lines) + "\n"


def _query_set(rng: random.Random) -> tuple[tuple[tuple[str, ...], str | None],
                                            ...]:
    """Four filtered queries, each with the label of the planted gadget
    it must find (None for --unique, which may keep a lower duplicate).

    Together they use --op, --rr, --link, --role, --preserve, --unique,
    --max above 4 and --format records.
    """
    op, rr = rng.choice([("li", "a0"), ("li", "a2"), ("addi", "a2")])
    keep = rng.choice(["s0", "s1", "sp"])
    role, target = rng.choice([("initializer", "init"), ("call", "loop"),
                               ("load", "init")])
    init_rr = rng.choice(["s0", "s1", "a1"])
    return (((f"--op={op}", f"--rr={rr}", "--unique"), None),
            (("--link=ra", f"--preserve={keep}"), "g_dirfd"),
            ((f"--role={role}", "--max=6"), target),
            (("--format", "records", "--link=t0", f"--rr={init_rr}"), "init"))


# Image sizes in bytes and the counter repeat of each workload.
DENSE_SIZE = 4 * 1024
CLEAN_SIZE = 4 * 1024
CHAIN_FILLER = 2 * 1024
SHORT_REPEAT = 16
LONG_REPEAT = 5_000

WORKLOADS = ("scan-dense-rv32", "scan-clean-rv64", "chain-long")


def build(workload: str, seed: int, scale: float = 1.0) -> Corpus:
    """Generate a workload's image.  `scale` shrinks it for tests."""
    rng = random.Random(f"{workload}/queries/{seed}")
    if workload == "scan-dense-rv32":
        e = _dense_image(seed, int(DENSE_SIZE * scale))
        fmt, repeat = "elf", SHORT_REPEAT
        a = e.labels
        dispatchers = (("dispatcher-autonomous", a["loop"], None),
                       ("dispatcher-classic", a["classic"], None),
                       ("dispatcher-two-stage", a["stage1"], a["stage2"]))
    elif workload == "scan-clean-rv64":
        e = _functions_image(workload, seed, 0x10000, 64,
                             int(CLEAN_SIZE * scale), chain_first=False)
        fmt, repeat = "elf", SHORT_REPEAT
        dispatchers = (("dispatcher-autonomous", e.labels["loop"], None),)
    elif workload == "chain-long":
        e = _functions_image(workload, seed, 0x10000, 32,
                             int(CHAIN_FILLER * scale), chain_first=True)
        fmt, repeat = "raw", max(1, int(LONG_REPEAT * scale))
        dispatchers = (("dispatcher-autonomous", e.labels["loop"], None),)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Corpus(xlen=e.xlen, base=e.base, code=bytes(e.buf), fmt=fmt,
                  labels=dict(e.labels), dispatchers=dispatchers,
                  repeat=repeat, queries=_query_set(rng))
