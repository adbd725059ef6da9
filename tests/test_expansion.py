"""Every compressed form against its 32-bit expansion.

The decoder records a compressed instruction's expansion once, in
`DecodedInstruction.base`, and the interpreter, dataflow and
classification read only that.  So each compressed probe must mean the
same as its expansion: the same base, the same dataflow answers, and the
same machine state after one step.
"""

from rvjop.assembler import assemble, supported_mnemonics
from rvjop.dataflow import const_add, summarize_dataflow
from rvjop.decoder import decode_one
from rvjop.isa import ZERO
from rvjop.sim import Machine, run_chain

from probes import iter_probes

CODE = 0x1000
DATA = 0x10000
DATA_SIZE = 0x1000

CASES = [p for p in iter_probes() if p[0].startswith("c.")]
CASES += [("c.addiw", ("sp", imm), 64) for imm in (-32, -16, 16, 31)]
CASES += [("c.addi16sp", (imm,), xlen)
          for imm in (-512, -16, 16, 496) for xlen in (32, 64)]


# The base instruction of each compressed form whose base name is not
# its own name without the "c." prefix (RISC-V unprivileged spec, RVC).
RENAMED = {"c.nop": "addi", "c.li": "addi", "c.mv": "add", "c.j": "jal",
           "c.jr": "jalr", "c.beqz": "beq", "c.bnez": "bne",
           "c.addi16sp": "addi", "c.addi4spn": "addi", "c.lwsp": "lw",
           "c.ldsp": "ld", "c.swsp": "sw", "c.sdsp": "sd"}


def pairs():
    """(compressed, expansion, xlen) for every case, both at CODE."""
    for mnemonic, ops, xlen in CASES:
        short = decode_one(assemble(mnemonic, ops, xlen=xlen), CODE, xlen)
        full = decode_one(assemble(short.base.name, short.base.operands,
                                   xlen=xlen), CODE, xlen)
        yield short, full, xlen


def test_cases_cover_every_compressed_mnemonic():
    got = {short.mnemonic for short, _, _ in pairs()}
    assert got == {m for m in supported_mnemonics() if m.startswith("c.")}


def test_base_is_the_decoded_expansion():
    for short, full, _ in pairs():
        want = RENAMED.get(short.mnemonic, short.mnemonic[2:])
        assert short.base.name == want, short.render()
        assert full.width == 4, short.render()
        assert short.base == full.base, short.render()
        assert short.matches_op(short.base.name), short.render()
        if short.mnemonic != "c.mv":     # mv spells c.mv, not its expansion
            assert short.spelling == full.spelling, short.render()


def _seeded(insn, xlen):
    """`li r, k` for every register `insn` reads, then `insn`."""
    prefix = tuple(
        decode_one(assemble("addi", (r, ZERO, 8 * r.index), xlen=xlen),
                   0, xlen)
        for r in sorted(insn.regs_read, key=lambda r: r.index))
    return prefix + (insn,)


def test_dataflow_agrees():
    failures = []
    for short, full, xlen in pairs():
        load = decode_one(assemble("lw", ("t2", "sp", 4), xlen=xlen),
                          CODE + 4, xlen)
        for name, fn in [
                ("summarize_dataflow", lambda i: summarize_dataflow((i, load))),
                ("seeded summarize_dataflow",
                 lambda i: summarize_dataflow(_seeded(i, xlen))),
                ("const_add", const_add)]:
            if fn(short) != fn(full):
                failures.append((short.render(), name, fn(short), fn(full)))
    assert not failures, failures[:10]


def _step(insn, xlen):
    """Machine state after running `insn` once from fixed registers."""
    m = Machine(xlen=xlen)
    m.map_region(CODE, insn.encoding + bytes(4))
    m.map_region(DATA, bytes((i * 37 + 11) & 0xFF for i in range(DATA_SIZE)))
    data = next(buf for start, buf in m.regions if start == DATA)
    for i in range(1, 32):
        m.regs[i] = DATA + 0x400 + 8 * i
    report = run_chain(m, CODE, return_to=0, fuel=1)
    return (report.fault, report.violation, tuple(m.regs), m.pc,
            tuple(m.shadow_stack), bytes(data))


def _fall_through_as_short(state):
    # A 4-byte form falls through, and links, 2 bytes further on than a
    # 2-byte one; no probe jumps by exactly 4, where this would blur.
    fault, violation, regs, pc, shadow, data = state
    fix = lambda v: CODE + 2 if v == CODE + 4 else v
    return (fault, violation, tuple(map(fix, regs)), fix(pc),
            tuple(map(fix, shadow)), data)


def test_one_step_agrees():
    failures = []
    for short, full, xlen in pairs():
        got = _step(short, xlen)
        want = _fall_through_as_short(_step(full, xlen))
        if got != want:
            failures.append((short.render(), xlen))
    assert not failures, failures[:10]
