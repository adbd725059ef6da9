"""Shared fixture builders: small images with known gadget populations.

Everything is assembled from mnemonics at fixed base addresses so tests
can talk about exact addresses.  The builders return (image, addrs) where
addrs maps labels to virtual addresses.
"""

from __future__ import annotations

import struct
import sys
import time
from pathlib import Path

import pytest

import rvjop.decoder
from rvjop.assembler import assemble
from rvjop.classify import classify, dispatcher_index, find_dispatchers
from rvjop.dataflow import summarize_dataflow
from rvjop.decoder import decode_one
from rvjop.image import ExecutableImage, from_bytes, parse_elf
from rvjop.query import dispatcher_lookup, run_query

SESSION_T0 = time.monotonic()

BASE = 0x10000
TABLE_BASE = 0x40000


class CodeBuilder:
    """Sequential assembler with labels and raw byte escape hatch."""

    def __init__(self, base: int = BASE, xlen: int = 32):
        self.base = base
        self.xlen = xlen
        self.parts: list[bytes] = []
        self.labels: dict[str, int] = {}

    @property
    def here(self) -> int:
        return self.base + sum(len(p) for p in self.parts)

    def label(self, name: str) -> int:
        self.labels[name] = self.here
        return self.here

    def emit(self, mnemonic: str, *ops) -> None:
        self.parts.append(assemble(mnemonic, ops, xlen=self.xlen))

    def branch(self, mnemonic: str, r1: str, r2: str, label: str) -> None:
        self.emit(mnemonic, r1, r2, self.labels[label] - self.here)

    def raw(self, data: bytes) -> None:
        self.parts.append(bytes(data))

    def word(self, value: int) -> None:
        self.raw(value.to_bytes(4, "little"))

    def half(self, value: int) -> None:
        self.raw(value.to_bytes(2, "little"))

    def blob(self) -> bytes:
        return b"".join(self.parts)

    def image(self) -> ExecutableImage:
        return from_bytes(self.blob(), self.base, self.xlen)


def build_adg_fixture(xlen: int = 32):
    """Autonomous dispatcher, an initializer, and three step gadgets."""
    b = CodeBuilder(xlen=xlen)
    load = "lw" if xlen == 32 else "ld"
    stride = 4 if xlen == 32 else 8

    b.label("loop")
    b.emit(load, "a5", "s0", 0)
    b.emit("jalr", "ra", "a5", 0)
    b.emit("addi", "s0", "s0", stride)
    b.branch("blt", "s0", "s1", "loop")
    b.emit("ebreak")                       # loop exit lands here

    b.label("init")
    b.emit(load, "s0", "sp", 0)
    b.emit(load, "s1", "sp", stride)
    b.emit(load, "t0", "sp", 2 * stride)
    b.emit("jr", "t0")

    b.label("g_li_a0")
    b.emit("li", "a0", 1)
    b.emit("ret")
    b.label("g_bump_a2")
    b.emit("addi", "a2", "a2", 4)
    b.emit("ret")
    b.label("g_li_a1")
    b.emit("li", "a1", 2)
    b.emit("ret")

    b.label("landing")
    b.emit("nop")
    b.emit("ebreak")
    return b.image(), dict(b.labels)


def build_classic_fixture():
    """Classic dispatcher: no link, gadgets jump back through t1."""
    b = CodeBuilder()
    b.label("dispatch")
    b.emit("lw", "a5", "s0", 0)
    b.emit("addi", "s0", "s0", 4)
    b.emit("jr", "a5")

    b.label("init")
    b.emit("lw", "s0", "sp", 0)
    b.emit("lw", "t1", "sp", 4)
    b.emit("lw", "t2", "sp", 8)
    b.emit("jr", "t2")

    b.label("g_li_a0")
    b.emit("li", "a0", 7)
    b.emit("jr", "t1")
    b.label("g_bump_a0")
    b.emit("addi", "a0", "a0", 1)
    b.emit("jr", "t1")

    b.label("landing")
    b.emit("ebreak")
    return b.image(), dict(b.labels)


def build_two_stage_fixture():
    """Stage one advances the table pointer, stage two loads and jumps."""
    b = CodeBuilder()
    b.label("stage1")
    b.emit("addi", "s0", "s0", 4)
    b.emit("jr", "t2")

    b.label("stage2")
    b.emit("lw", "a5", "s0", 0)
    b.emit("jr", "a5")

    b.label("init")
    b.emit("lw", "s0", "sp", 0)
    b.emit("lw", "t1", "sp", 4)
    b.emit("lw", "t2", "sp", 8)
    b.emit("lw", "t3", "sp", 12)
    b.emit("jr", "t3")

    b.label("g_li_a0")
    b.emit("li", "a0", 3)
    b.emit("jr", "t1")

    b.label("landing")
    b.emit("ebreak")
    return b.image(), dict(b.labels)


# Halfwords that hide gadgets at odd halfword offsets inside valid words.
CJR_A5 = 0x8782          # c.jr a5
RET_C = 0x8082           # c.jr ra
ADDI16SP_NEG16 = 0x717D  # c.addi16sp -16
ADDI16SP_POS16 = 0x6141  # c.addi16sp 16


def build_shifted_fixture():
    """Valid natural code concealing gadgets at +2 offsets.

    The natural sweep sees lui/ret; starting two bytes in, the same
    bytes read as c.jr a5 and as c.addi16sp followed by ret.
    """
    b = CodeBuilder()
    b.label("f")
    b.emit("addi", "a0", "a0", 1)
    b.label("hide_cjr")
    b.word((CJR_A5 << 16) | 0x0037)       # lui zero, ... / +2: c.jr a5
    b.emit("ret")
    b.label("hide_cleanup")
    b.word((ADDI16SP_POS16 << 16) | 0x0037)
    b.half(RET_C)
    return b.image(), dict(b.labels)


def build_e2e_fixture():
    """Image for the long stealth chain: open, read, write a file.

    The counter gadget adds 4 to a2 per dispatch; repeated runs build the
    read size in place.  A shifted stack-release gadget undoes the alloc
    step so the chain balances sp.
    """
    b = CodeBuilder()
    b.label("loop")
    b.emit("lw", "a5", "s0", 0)
    b.emit("jalr", "ra", "a5", 0)
    b.emit("addi", "s0", "s0", 4)
    b.branch("blt", "s0", "s1", "loop")
    b.emit("ebreak")                       # condition failure lands here

    b.label("init")
    b.emit("lw", "s0", "sp", 0)
    b.emit("lw", "s1", "sp", 4)
    b.emit("lw", "t0", "sp", 8)
    b.emit("lw", "a1", "sp", 12)
    b.emit("jr", "t0")

    b.label("g_dirfd")
    b.emit("li", "a0", -100)              # openat relative to cwd
    b.emit("ret")
    b.label("g_flags")
    b.emit("li", "a2", 0)
    b.emit("ret")
    b.label("g_alloc")
    b.emit("addi", "sp", "sp", -16)
    b.emit("ret")
    b.label("g_open")
    b.emit("li", "a7", 56)
    b.emit("ecall")
    b.emit("ret")
    b.label("g_count")
    b.emit("addi", "a2", "a2", 4)
    b.emit("ret")
    b.label("g_read")
    b.emit("li", "a7", 63)
    b.emit("ecall")
    b.emit("ret")
    b.label("g_outfd")
    b.emit("li", "a0", 5)
    b.emit("ret")
    b.label("g_write")
    b.emit("li", "a7", 64)
    b.emit("ecall")
    b.emit("ret")
    b.label("g_clobber_s0")
    b.emit("li", "s0", 0)
    b.emit("ret")
    b.label("hide_release")
    b.word((ADDI16SP_POS16 << 16) | 0x0037)
    b.half(RET_C)
    b.label("landing")
    b.emit("nop")
    b.emit("ebreak")
    addrs = dict(b.labels)
    addrs["g_release"] = addrs["hide_release"] + 2
    return b.image(), addrs


def build_clean_fixtures() -> list[tuple[str, ExecutableImage]]:
    """Twenty dispatcher-free images of ordinary-looking code."""
    out = []
    for n in range(20):
        b = CodeBuilder(base=BASE + n * 0x10000)
        b.emit("addi", "sp", "sp", -32)
        b.emit("sw", "ra", "sp", 28)
        b.emit("sw", "s0", "sp", 24)
        for k in range(n + 1):
            b.emit("addi", "a0", "a0", k + 1)
            if k % 3 == 0:
                b.emit("slli", "a1", "a0", 1)
            if k % 4 == 1:
                b.emit("xor", "a2", "a0", "a1")
            if k % 5 == 2:
                b.emit("lw", "a3", "sp", 16)
        b.emit("sub", "a0", "a0", "a1")
        b.emit("lw", "s0", "sp", 24)
        b.emit("lw", "ra", "sp", 28)
        b.emit("addi", "sp", "sp", 32)
        b.emit("ret")
        out.append((f"plain{n}", b.image()))
    return out


# --- minimal ELF writers ----------------------------------------------------

PF_X, PF_W, PF_R = 1, 2, 4


def make_elf(segments, xlen: int = 32, entry: int = 0,
             machine: int = 243) -> bytes:
    """Pack (vaddr, data, flags) triples into a minimal ELF blob."""
    if xlen == 32:
        ehsize, phentsize = 52, 32
    else:
        ehsize, phentsize = 64, 56
    phoff = ehsize
    data_off = phoff + phentsize * len(segments)
    ident = bytes([0x7F, 0x45, 0x4C, 0x46,
                   1 if xlen == 32 else 2, 1, 1, 0]) + bytes(8)
    if xlen == 32:
        ehdr = ident + struct.pack("<HHIIIIIHHHHHH", 2, machine, 1, entry,
                                   phoff, 0, 0, ehsize, phentsize,
                                   len(segments), 0, 0, 0)
    else:
        ehdr = ident + struct.pack("<HHIQQQIHHHHHH", 2, machine, 1, entry,
                                   phoff, 0, 0, ehsize, phentsize,
                                   len(segments), 0, 0, 0)
    phdrs, payloads = [], []
    off = data_off
    for vaddr, data, flags in segments:
        if xlen == 32:
            phdrs.append(struct.pack("<IIIIIIII", 1, off, vaddr, vaddr,
                                     len(data), len(data), flags, 4))
        else:
            phdrs.append(struct.pack("<IIQQQQQQ", 1, flags, off, vaddr,
                                     vaddr, len(data), len(data), 8))
        payloads.append(data)
        off += len(data)
    return ehdr + b"".join(phdrs) + b"".join(payloads)


def make_huge_segment_elf64(code: bytes) -> bytes:
    """An ELF64 whose one segment's vaddr + memsz runs past 2**64.

    A loader that zero-fills before checking fails on the size itself
    (it does not fit an index), so no test ever allocates it.
    """
    blob = bytearray(make_elf([(0x10000, code, PF_R | PF_X)], xlen=64))
    blob[64 + 40:64 + 48] = (2**64 - 8).to_bytes(8, "little")  # p_memsz
    return bytes(blob)


def make_zero_fill_elf(fill: int) -> bytes:
    """An ELF32 with a code segment and a data segment whose memsz is
    `fill` bytes more than its filesz."""
    data = b"data"
    blob = bytearray(make_elf([(0x10000, bytes.fromhex("67800000"),
                                PF_R | PF_X),
                               (0x20000, data, PF_R | PF_W)], xlen=32))
    blob[52 + 32 + 20:52 + 32 + 24] = (len(data) + fill).to_bytes(
        4, "little")                                     # phdr 1 p_memsz
    return bytes(blob)


def make_elf_image(segments, xlen: int = 32, entry: int = 0):
    return parse_elf(make_elf(segments, xlen=xlen, entry=entry))


def benchmark_corpus():
    """The benchmark's image generator, `benchmarks/corpus.py`."""
    here = str(Path(__file__).resolve().parents[1] / "benchmarks")
    if here not in sys.path:
        sys.path.append(here)
    import corpus
    return corpus


def summary_of(g):
    """`g`'s dataflow summary, computed here from scratch."""
    return summarize_dataflow(g.instructions, g.table.xlen)


def roles_of(g, img):
    """The roles a query reads for `g`, from a fresh dispatcher search."""
    return classify(g, summary_of(g), dispatcher_index(find_dispatchers(img)))


def query_hits(img, q):
    """The gadgets of `run_query`'s pairs for `q` on `img`, in order."""
    return [g for g, _ in run_query(img, q, dispatcher_lookup(img))]


def refuse_calls(monkeypatch, *names):
    """Make the functions in `names` fail wherever a module of the
    package looks them up."""
    for name in names:
        def refuse(*args, name=name):
            raise AssertionError(f"{name} called")
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("rvjop.")
                    and name in vars(mod)):
                monkeypatch.setattr(mod, name, refuse)


def count_calls(monkeypatch, name) -> list:
    """Count calls of the function `name` wherever a module of the
    package looks it up; returns a list that grows by one per call."""
    calls = []
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("rvjop.")
                and name in vars(mod)):
            def counted(*args, real=vars(mod)[name]):
                calls.append(args)
                return real(*args)
            monkeypatch.setattr(mod, name, counted)
    return calls


# --- pytest fixtures --------------------------------------------------------

@pytest.fixture
def decode_log(monkeypatch):
    """Addresses the decode table decodes, in call order."""
    log = []

    def counted(data, address, xlen):
        log.append(address)
        return decode_one(data, address, xlen)

    monkeypatch.setattr(rvjop.decoder, "decode_one", counted)
    return log


@pytest.fixture(scope="session")
def adg():
    return build_adg_fixture()


@pytest.fixture(scope="session")
def classic():
    return build_classic_fixture()


@pytest.fixture(scope="session")
def two_stage():
    return build_two_stage_fixture()


@pytest.fixture(scope="session")
def shifted():
    return build_shifted_fixture()


@pytest.fixture(scope="session")
def e2e():
    return build_e2e_fixture()


@pytest.fixture(scope="session")
def clean_images():
    return build_clean_fixtures()
