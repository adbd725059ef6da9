"""The interpreter against `sim_oracle`, one instruction at a time.

Each case assembles one instruction, runs exactly one step of it on a
`Machine` from chosen register and memory values, and compares the
destination register (and, for stores and AMOs, memory; for branches
and jumps, the pc; for jumps, the shadow stack) with what the oracle
derives from the ISA spec.  The values are the edges where
implementations go wrong: 0, ±1, the most negative and most positive
XLEN values, on RV64 `.w` operands with and without sign-extended upper
halves, shift amounts around 32 and 64, division by zero and overflow.

The dataflow walk folds constants through the interpreter's operation
table, so each ALU row and lui and auipc are checked there too: on
constant inputs, its exit is the Const that one step and the oracle
give.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sim_oracle
from rvjop.assembler import assemble
from rvjop.dataflow import Const, summarize_dataflow
from rvjop.decoder import _OPS, _SHAPE, _WIDE, decode_one
from rvjop.isa import RA, REGISTERS, ZERO, reg
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


def _alu_rows():
    """(mnemonic, XLEN) of every ALU row of the instruction table: each
    32-bit row whose `_SHAPE` kind is imm or reg, at each XLEN it exists
    at."""
    rows = set()
    for xlen, _, _, name, _, _, tail in _WIDE:
        if tail and _SHAPE[name][0] in ("imm", "reg"):
            rows.update((name, x) for x in (32, 64) if xlen in (None, x))
    return sorted(rows)


@pytest.mark.parametrize("name,xlen", _alu_rows())
def test_every_alu_row_has_an_operation_the_oracle_checks(name, xlen):
    """A row added to the table without semantics fails here, not as a
    KeyError at a chain's first step: the interpreter has its operation,
    the oracle lists it, and one step of it agrees with the oracle."""
    assert name in _OPS
    assert (name in sim_oracle.REGISTER_OPS
            or name in sim_oracle.IMMEDIATE_OF
            or xlen == 64 and name in sim_oracle.WORD_OPS)
    failures = []
    src = 1 if _SHAPE[name][0] == "imm" else RS2
    s = Stepper(name, (RD, RS1, src), xlen)
    for a in _edges(xlen):
        got = s.step({RS1: a, RS2: 1}).regs[RD.index]
        _check(failures, s, got, sim_oracle.alu(name, a, 1, xlen), a)
    assert not failures, failures[:10]




# --- the dataflow walk folds constants by the same table -------------------

def _walk(items, xlen):
    """The dataflow summary of `items`, each (mnemonic, *operands),
    assembled from CODE on."""
    insns, pc = [], CODE
    for mnemonic, *ops in items:
        insns.append(decode_one(assemble(mnemonic, tuple(ops), xlen=xlen),
                                pc, xlen))
        pc += insns[-1].width
    return summarize_dataflow(insns, xlen)


def _seed(r, value, xlen):
    """Instructions that leave `value` in `r`, 11 bits at a time: an addi
    from zero, then slli and ori."""
    chunks = [value >> 11 * k & 0x7FF for k in reversed(range(-(-xlen // 11)))]
    body = [("addi", r, ZERO, chunks[0])]
    for chunk in chunks[1:]:
        body += [("slli", r, r, 11), ("ori", r, r, chunk)]
    return body


def _immediates(name, xlen):
    """Every immediate of `name`'s row at `xlen`, or None for a reg row."""
    imm = next(imm for x, _, _, n, _, imm, tail in _WIDE
               if n == name and tail and x in (None, xlen))
    if imm is None:
        return None
    n = len(imm[0])
    if imm[1]:
        return st.integers(-(1 << n - 1), (1 << n - 1) - 1)
    return st.integers(0, (1 << n) - 1)


@pytest.mark.parametrize("name,xlen", _alu_rows())
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_the_walk_folds_every_alu_row_as_one_step(name, xlen, data):
    """An imm or reg row whose inputs are constants exits as the Const
    that one interpreter step of it gives, which is the oracle's; the
    operands are edges or any XLEN-bit value."""
    operand = st.one_of(st.sampled_from(_edges(xlen)),
                        st.integers(0, (1 << xlen) - 1))
    imms = _immediates(name, xlen)
    a = data.draw(operand)
    b = data.draw(operand if imms is None else imms)
    src = RS2 if imms is None else b
    want = sim_oracle.alu(name, a, b, xlen)
    s = Stepper(name, (RD, RS1, src), xlen)
    assert s.step({RS1: a, RS2: b}).regs[RD.index] == want
    body = _seed(RS1, a, xlen) + (_seed(RS2, b, xlen) if imms is None else [])
    summary = _walk(body + [(name, RD, RS1, src), ("ret",)], xlen)
    assert summary.exits[RS1] == Const(a)
    assert summary.exits[RD] == Const(want)


@pytest.mark.parametrize("xlen", [32, 64])
@pytest.mark.parametrize("name", ["lui", "auipc"])
@settings(max_examples=50, deadline=None)
@given(imm20=st.integers(0, 0xFFFFF))
@example(imm20=0)
@example(imm20=1)
@example(imm20=0x7FFFF)
@example(imm20=0x80000)
@example(imm20=0xFFFFF)
def test_upper_immediate(name, xlen, imm20):
    """One step of lui or auipc writes the oracle's value, and the walk
    folds it to that Const; the five sign edges are checked every run."""
    want = sim_oracle.upper(name, imm20, CODE, xlen)
    assert Stepper(name, (RD, imm20), xlen).step({}).regs[RD.index] == want
    assert _walk([(name, RD, imm20), ("ret",)], xlen).exits[RD] == Const(want)


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


@pytest.mark.parametrize("name,xlen", list(_load_cases()))
def test_load_from_the_last_region_and_after_a_switch(name, xlen):
    """A load reads the oracle's value both when its region is the one
    the machine's last access hit (the handler's own check) and when the
    last access hit another region (the region walk), and a load that
    runs past its region's end faults with the same text either way."""
    size = sim_oracle.LOADS[name][0]
    other = DATA + 0x100                 # a region of its own
    m = Machine(xlen)
    m.map_region(CODE, assemble(name, (RD, RS1, 0), xlen=xlen))
    m.map_region(DATA, 16)
    m.map_region(other, 16)
    data = dict(m.regions)[DATA]
    m._handler(CODE)                     # decoded now: the fetch reads no memory
    failures = []
    for pattern, last in itertools.product(_PATTERNS, (DATA, other)):
        data[8:] = (pattern & ((1 << 64) - 1)).to_bytes(8, "little")
        m.load(last, 1)                  # the last access hits `last`
        assert m._last[0] == last
        m.regs[RS1.index] = DATA + 8
        report = run_chain(m, CODE, 0, fuel=1)
        assert report.steps == 1 and m._last[0] == DATA, report.render()
        if m.regs[RD.index] != sim_oracle.load(name, pattern, xlen):
            failures.append((name, xlen, hex(pattern), hex(last),
                             hex(m.regs[RD.index])))
    assert not failures, failures[:10]
    for last in (DATA, other):
        m.load(last, 1)
        m.regs[RS1.index] = DATA + 16 - size + 1
        report = run_chain(m, CODE, 0, fuel=1)
        assert report.outcome == "fault" and report.steps == 0
        assert report.fault == (f"unmapped: {size}-byte access at "
                                f"0x{DATA + 17 - size:x}")


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


# --- jumps ----------------------------------------------------------------

def _jump_step(mnemonic, ops, xlen, at, regs, stack=()):
    """A machine after one step of `mnemonic ops` placed at `at`, from
    the registers `regs` and the shadow stack `stack`, and the step's
    report."""
    m = Machine(xlen)
    m.map_region(at, assemble(mnemonic, ops, xlen=xlen))
    for r, value in regs.items():
        m.regs[r.index] = value
    m.shadow_stack[:] = stack
    return m, run_chain(m, at, at + 2, fuel=1)


def _check_jump(failures, name, at, m, report, rd, rs1, offset, before,
                stack, *inputs):
    """The outcome, pc, registers and shadow stack after one jump, as the
    oracle has them: rd gets the link unless it is x0, no other register
    changes, and the shadow stack pushes and pops by `sim_oracle.shadow`.
    A violation leaves the pc and the registers as they were."""
    want_pc, link = sim_oracle.jump(name, at, before[rs1.index], offset,
                                    m.xlen)
    after, violation = sim_oracle.shadow(name, rd.index, rs1.index, offset,
                                         list(stack), want_pc, link)
    got = (report.outcome, m.pc, m.regs)
    if violation:
        want = ("violation", at, before)
    else:
        regs = list(before)
        if rd.index:
            regs[rd.index] = link
        want = ("fuel-exhausted", want_pc, regs)
        got += (m.shadow_stack, report.shadow_pushes - report.shadow_pops)
        want += (after, len(after) - len(stack))
    if got != want:
        failures.append((name, rd.name, rs1.name, [hex(v) for v in inputs],
                         got[0], hex(got[1]), want[0], hex(want[1])))


@pytest.mark.parametrize("xlen", [32, 64])
@pytest.mark.parametrize("rd", ["zero", "ra", "t0"])
def test_jal(rd, xlen):
    """Forward, backward and across 2^XLEN either way, from code at the
    bottom and at the top of the address space."""
    rd, top = reg(rd), 1 << xlen
    failures = []
    for at, offset in ((CODE, 64), (CODE, -64), (CODE, -CODE),
                       (CODE, -CODE - 64), (top - 4, -8), (top - 4, 8),
                       (top - 8, 0x7FFF0)):
        m, report = _jump_step("jal", (rd, offset), xlen, at, {})
        _check_jump(failures, "jal", at, m, report, rd, ZERO, offset,
                    [0] * 32, (), at, offset)
    assert not failures, failures[:10]


@pytest.mark.parametrize("xlen", [32, 64])
@pytest.mark.parametrize("rd", ["zero", "ra", "t0"])
@pytest.mark.parametrize("same", [False, True], ids=["rs1", "rs1=rd"])
def test_jalr(rd, same, xlen):
    """Odd sums (bit 0 cleared), sums past 2^XLEN, and rs1 = rd, whose
    old value the target reads.  No case is a return (rd x0, rs1 ra)."""
    rd = reg(rd)
    rs1 = rd if same else RS1
    top = 1 << xlen
    bases = sorted(set(_edges(xlen) + [CODE + 1, top - 2]))
    failures = []
    for base, offset in itertools.product(bases,
                                          (0, 1, -1, 8, 2047, -2048)):
        before = [0] * 32
        before[rs1.index] = base if rs1.index else 0
        m, report = _jump_step("jalr", (rd, rs1, offset), xlen, CODE,
                               {rs1: before[rs1.index]})
        _check_jump(failures, "jalr", CODE, m, report, rd, rs1, offset,
                    before, (), base, offset)
    assert not failures, failures[:10]


def _compressed_cases():
    for xlen in (32, 64):
        for name in sim_oracle.COMPRESSED_JUMPS:
            if name != "c.jal" or xlen == 32:   # RV64's slot is c.addiw
                yield name, xlen


@pytest.mark.parametrize("name,xlen", list(_compressed_cases()))
def test_compressed_jump(name, xlen):
    """A compressed jump links pc + 2, which wraps to 0 from the top of
    the address space; c.jr and c.jalr clear bit 0 of their base, and
    c.jalr ra reads ra before it writes the link.  From an empty shadow
    stack, c.jr ra is a violation."""
    top = 1 << xlen
    rd = REGISTERS[sim_oracle.COMPRESSED_JUMPS[name][1]]
    bases = sorted(set(_edges(xlen) + [CODE + 1, top - 2]))
    failures = []
    for at in (CODE, top - 2):
        if name in ("c.j", "c.jal"):
            for offset in (64, -64, 2046, -2048):
                m, report = _jump_step(name, (offset,), xlen, at, {})
                _check_jump(failures, name, at, m, report, rd, ZERO, offset,
                            [0] * 32, (), at, offset)
            continue
        for rs1, base in itertools.product((RS1, RA), bases):
            before = [0] * 32
            before[rs1.index] = base
            m, report = _jump_step(name, (rs1,), xlen, at, {rs1: base})
            _check_jump(failures, name, at, m, report, rd, rs1, 0, before,
                        (), at, base)
    assert not failures, failures[:10]


@pytest.mark.parametrize("xlen", [32, 64])
@pytest.mark.parametrize("name,ops", [("jalr", ("zero", "ra", 0)),
                                      ("c.jr", ("ra",))],
                         ids=["ret", "c.jr-ra"])
def test_return(name, ops, xlen):
    """A return pops a top equal to its target (bit 0 of ra cleared),
    whatever lies below it; an empty stack or another top is a
    violation."""
    failures = []
    for ra in (CODE + 0x40, CODE + 0x41, (1 << xlen) - 2):
        want = ra & ~1
        for stack in ((), (want,), (want ^ 4,), (want, want ^ 4),
                      (want ^ 4, want)):
            before = [0] * 32
            before[RA.index] = ra
            m, report = _jump_step(name, ops, xlen, CODE, {RA: ra}, stack)
            _check_jump(failures, name, CODE, m, report, ZERO, RA, 0,
                        before, stack, ra, *stack)
    assert not failures, failures[:10]


def _jump_encodings(xlen):
    """(mnemonic, operands, rd, rs1, offset) of every jump encoding that
    `test_every_jump_follows_one_shadow_stack_rule` steps: jal over every
    rd and jalr over every rd and rs1, each at a few offsets, c.j, c.jal
    on RV32, and c.jr and c.jalr over every rs1 but x0."""
    for rd in REGISTERS:
        for offset in (-64, 8, 2048):
            yield "jal", (rd.name, offset), rd, ZERO, offset
        for rs1, offset in itertools.product(REGISTERS, (0, 4, -4)):
            yield "jalr", (rd.name, rs1.name, offset), rd, rs1, offset
    for name, x in _compressed_cases():
        if x != xlen:
            continue
        rd = REGISTERS[sim_oracle.COMPRESSED_JUMPS[name][1]]
        if name in ("c.j", "c.jal"):
            for offset in (-64, 8, 2046):
                yield name, (offset,), rd, ZERO, offset
        else:
            for rs1 in REGISTERS[1:]:
                yield name, (rs1.name,), rd, rs1, 0


@pytest.mark.parametrize("xlen", [32, 64])
def test_every_jump_follows_one_shadow_stack_rule(xlen):
    """One step of every jump encoding, from an empty shadow stack and
    from one whose top is the jump's target.  The step pushes exactly
    when the decoded record `pushes` and pops exactly when it
    `is_return` (from the empty stack, a violation); the oracle's
    shadow stack pushes and pops on the same jumps, and the whole step
    agrees with the oracle."""
    failures = []
    for name, ops, rd, rs1, offset in _jump_encodings(xlen):
        cf = decode_one(assemble(name, ops, xlen=xlen), CODE,
                        xlen).control_flow
        rule = (cf.pushes, cf.is_return)
        before = [0] * 32
        before[rs1.index] = CODE + 0x100 if rs1.index else 0
        target, link = sim_oracle.jump(name, CODE, before[rs1.index],
                                       offset, xlen)
        for stack in ((), (target,)):
            m, report = _jump_step(name, ops, xlen, CODE,
                                   {rs1: before[rs1.index]}, stack)
            stepped = (report.shadow_pushes == 1,
                       report.shadow_pops == 1
                       or report.outcome == "violation")
            after, violation = sim_oracle.shadow(
                name, rd.index, rs1.index, offset, list(stack), target, link)
            oracle = (len(after) > len(stack),
                      violation or len(after) < len(stack))
            if not rule == stepped == oracle:
                failures.append((name, ops, stack, rule, stepped, oracle))
            _check_jump(failures, name, CODE, m, report, rd, rs1, offset,
                        before, stack, *stack)
    assert not failures, failures[:10]
