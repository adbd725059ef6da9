"""The interpreter against `sim_oracle`, one instruction at a time.

Each case assembles one instruction, runs exactly one step of it on a
`Machine` from chosen register and memory values, and compares the
destination register (and, for stores and AMOs, memory) with what the
oracle derives from the ISA spec.  The values are the edges where
implementations go wrong: 0, ±1, the most negative and most positive
XLEN values, on RV64 `.w` operands with and without sign-extended upper
halves, shift amounts around 32 and 64, division by zero and overflow.
"""

import itertools

import pytest

import sim_oracle
from rvjop.assembler import assemble
from rvjop.isa import reg
from rvjop.sim import Machine, run_chain

CODE = 0x1000
DATA = 0x8000
RD, RS1, RS2 = reg("a0"), reg("a1"), reg("a2")


def _edges(xlen):
    top = 1 << (xlen - 1)
    values = [0, 1, -1, top, top - 1, 31, 32, 63, 64, 0x5A5A5A5A]
    if xlen == 64:
        # low words with and without their sign copied into the upper half
        values += [0x80000000, 0xFFFFFFFF80000000, 0xFFFFFFFF,
                   0x7FFFFFFF, 0x123456787FFFFFFF, 0xFFFFFFFF00000001,
                   0x00000001FFFFFFFF]
    mask = (1 << xlen) - 1
    return [v & mask for v in values]


class Stepper:
    """One instruction at CODE, run one step at a time."""

    def __init__(self, mnemonic, ops, xlen):
        self.m = Machine(xlen)
        self.m.map_region(CODE, assemble(mnemonic, ops, xlen=xlen))
        self.m.map_region(DATA, 64)
        self.data = self.m.regions[1][1]
        self.xlen = xlen
        self.label = f"{mnemonic} {ops} rv{xlen}"

    def step(self, regs, memory=None):
        m = self.m
        m.regs[:] = [0] * 32
        for r, value in regs.items():
            m.regs[r.index] = value
        if memory is not None:
            self.data[:] = memory.to_bytes(64, "little")
        report = run_chain(m, CODE, 0, fuel=1)
        assert report.outcome == "fuel-exhausted" and report.steps == 1, (
            self.label, report.render())
        return m

    def memory(self):
        return int.from_bytes(self.data, "little")


def _check(failures, stepper, got, want, *inputs):
    if got != want:
        failures.append((stepper.label, [hex(v) for v in inputs],
                         hex(got), hex(want)))


def _register_cases():
    for xlen in (32, 64):
        names = sim_oracle.REGISTER_OPS
        if xlen == 64:
            names += sim_oracle.WORD_OPS
        for name in names:
            yield name, xlen


@pytest.mark.parametrize("name,xlen", list(_register_cases()))
def test_register_op(name, xlen):
    failures = []
    plain = Stepper(name, (RD, RS1, RS2), xlen)
    aliased = Stepper(name, (RS1, RS1, RS2), xlen)    # rd is rs1
    for a, b in itertools.product(_edges(xlen), repeat=2):
        want = sim_oracle.alu(name, a, b, xlen)
        got = plain.step({RS1: a, RS2: b}).regs[RD.index]
        _check(failures, plain, got, want, a, b)
        got = aliased.step({RS1: a, RS2: b}).regs[RS1.index]
        _check(failures, aliased, got, want, a, b)
    assert not failures, failures[:10]


_ITYPE_IMMS = (0, 1, -1, 2047, -2048, 31, 32)


def _immediate_cases():
    for xlen in (32, 64):
        shifts = (0, 1, 31) + ((32, 63) if xlen == 64 else ())
        for name in ("addi", "andi", "ori", "xori", "slti", "sltiu"):
            yield name, xlen, _ITYPE_IMMS
        for name in ("slli", "srli", "srai"):
            yield name, xlen, shifts
        if xlen == 64:
            yield "addiw", xlen, _ITYPE_IMMS
            for name in ("slliw", "srliw", "sraiw"):
                yield name, xlen, (0, 1, 31)


@pytest.mark.parametrize("name,xlen,imms", list(_immediate_cases()))
def test_immediate_op(name, xlen, imms):
    failures = []
    for imm in imms:
        plain = Stepper(name, (RD, RS1, imm), xlen)
        for a in _edges(xlen):
            want = sim_oracle.alu(name, a, imm, xlen)
            _check(failures, plain, plain.step({RS1: a}).regs[RD.index],
                   want, a, imm)
    assert not failures, failures[:10]


@pytest.mark.parametrize("xlen", [32, 64])
@pytest.mark.parametrize("name", ["lui", "auipc"])
def test_upper_immediate(name, xlen):
    failures = []
    for imm20 in (0, 1, 0x7FFFF, 0x80000, 0xFFFFF):
        s = Stepper(name, (RD, imm20), xlen)
        want = sim_oracle.upper(name, imm20, CODE, xlen)
        _check(failures, s, s.step({}).regs[RD.index], want, imm20)
    assert not failures, failures[:10]


_PATTERNS = (0, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0xFFFF, 0x7FFFFFFF,
             0x80000000, 0xFFFFFFFF, 0x7FFFFFFFFFFFFFFF, 0x8000000000000000,
             0xFFFFFFFFFFFFFFFF, 0x0123456789ABCDEF)


def _load_cases():
    for xlen in (32, 64):
        for name in ("lb", "lh", "lw", "lbu", "lhu"):
            yield name, xlen
        if xlen == 64:
            yield "lwu", xlen
            yield "ld", xlen


@pytest.mark.parametrize("name,xlen", list(_load_cases()))
def test_load(name, xlen):
    failures = []
    for offset in (0, 8, -8):
        s = Stepper(name, (RD, RS1, offset), xlen)
        for pattern in _PATTERNS:
            at = 16
            memory = pattern << (8 * at) | 0xA5 << (8 * (at + 8))
            m = s.step({RS1: DATA + at - offset}, memory)
            want = sim_oracle.load(name, pattern, xlen)
            _check(failures, s, m.regs[RD.index], want, pattern, offset)
    assert not failures, failures[:10]


@pytest.mark.parametrize("xlen", [32, 64])
def test_store(xlen):
    failures = []
    names = ("sb", "sh", "sw") + (("sd",) if xlen == 64 else ())
    fill = int.from_bytes(bytes(range(1, 65)), "little")
    for name in names:
        size = sim_oracle.STORES[name]
        s = Stepper(name, (RS2, RS1, -4), xlen)
        for value in _edges(xlen):
            s.step({RS1: DATA + 20, RS2: value}, fill)
            keep = ~(((1 << (8 * size)) - 1) << (8 * 16))
            want = fill & keep | (value & ((1 << (8 * size)) - 1)) << (8 * 16)
            _check(failures, s, s.memory(), want, value)
    assert not failures, failures[:10]


def _amo_cases():
    for xlen in (32, 64):
        for op in sim_oracle.AMO_OPS:
            yield f"{op}.w", xlen
            if xlen == 64:
                yield f"{op}.d", xlen


@pytest.mark.parametrize("name,xlen", list(_amo_cases()))
def test_amo(name, xlen):
    width = 32 if name.endswith(".w") else 64
    memories = sorted({v & ((1 << width) - 1) for v in _edges(64)})
    failures = []
    plain = Stepper(name, (RD, RS2, RS1), xlen)
    aliased = Stepper(name, (RS2, RS2, RS1), xlen)     # rd is rs2
    for old, src in itertools.product(memories, _edges(xlen)):
        want_rd, want_mem = sim_oracle.amo(name, old, src, xlen)
        upper = 0xC3 << width                # the byte after must stay
        for s, rd in ((plain, RD), (aliased, RS2)):
            m = s.step({RS1: DATA, RS2: src}, old | upper)
            _check(failures, s, m.regs[rd.index], want_rd, old, src)
            _check(failures, s, s.memory(), want_mem | upper, old, src)
    assert not failures, failures[:10]


@pytest.mark.parametrize("xlen", [32, 64])
def test_lr_loads_and_sc_stores(xlen):
    failures = []
    widths = (("w", "lw", 4),) + ((("d", "ld", 8),) if xlen == 64 else ())
    for suffix, load_name, size in widths:
        lr = Stepper(f"lr.{suffix}", (RD, RS1), xlen)
        sc = Stepper(f"sc.{suffix}", (RD, RS2, RS1), xlen)
        for pattern in _PATTERNS:
            m = lr.step({RS1: DATA}, pattern)
            _check(failures, lr, m.regs[RD.index],
                   sim_oracle.load(load_name, pattern, xlen), pattern)
        for value in _edges(xlen):
            m = sc.step({RS1: DATA, RS2: value, RD: 7}, 0)
            _check(failures, sc, m.regs[RD.index], 0, value)
            _check(failures, sc, sc.memory(),
                   value & ((1 << (8 * size)) - 1), value)
    assert not failures, failures[:10]


@pytest.mark.parametrize("xlen", [32, 64])
@pytest.mark.parametrize("name", ["beq", "bne", "blt", "bge", "bltu", "bgeu"])
def test_branch(name, xlen):
    failures = []
    s = Stepper(name, (RS1, RS2, 64), xlen)
    for a, b in itertools.product(_edges(xlen), repeat=2):
        want = CODE + 64 if sim_oracle.branch_taken(name, a, b, xlen) \
            else CODE + 4
        _check(failures, s, s.step({RS1: a, RS2: b}).pc, want, a, b)
    assert not failures, failures[:10]
