"""Top-level acceptance checks, one test per release criterion.

Run with -v for the per-criterion pass/fail lines.  Timing budgets are
asserted inside the tests that carry one; the final test holds the whole
suite under its five-minute ceiling.
"""

import random
import time
from contextlib import contextmanager

import pytest

from rvjop.assembler import assemble
from rvjop.chain import (ChainSpec, ChainStep, has_errors, layout_payload,
                         repetitions_for, validate_chain)
from rvjop.classify import (DISPATCHER_AUTONOMOUS, DISPATCHER_CLASSIC,
                            DISPATCHER_TWO_STAGE, availability_stats,
                            find_dispatchers, find_initializers,
                            initializer_at, render_stats_table)
from rvjop.decoder import CondBranch, decode_one
from rvjop.errors import Diverges, InvalidEncoding, Truncated
from rvjop.isa import reg
from rvjop.query import Query, run_query
from rvjop.scanner import SHIFTED, dedupe, extract_gadgets, gadget_at
from rvjop.sim import new_machine, run_chain

from conftest import (CJR_A5, SESSION_T0, TABLE_BASE, CodeBuilder,
                      build_adg_fixture, build_clean_fixtures,
                      build_e2e_fixture, build_shifted_fixture,
                      build_two_stage_fixture)
from oracle import brute_force
from probes import PSEUDOS, all_mnemonics_probed, iter_probes

M32 = 0xFFFFFFFF


@contextmanager
def budget(seconds):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


# --- random code generators -------------------------------------------------

GP = ["a0", "a1", "a2", "a3", "a4", "a5", "t0", "t1", "t2",
      "s1", "s2", "s3", "s4"]


def _emit_random_body(b, rng, allow_any_base_loads):
    r = lambda: rng.choice(GP)
    roll = rng.random()
    if roll < 0.20:
        b.emit("addi", r(), r(), rng.randrange(-2048, 2048))
    elif roll < 0.34:
        b.emit(rng.choice(["add", "sub", "xor", "or", "and", "mul"]),
               r(), r(), r())
    elif roll < 0.44:
        base = r() if allow_any_base_loads else "sp"
        b.emit("lw", r(), base, 4 * rng.randrange(0, 8))
    elif roll < 0.52:
        base = r() if allow_any_base_loads else "sp"
        b.emit("sw", r(), base, 4 * rng.randrange(0, 8))
    elif roll < 0.62:
        b.emit("lui", r(), rng.randrange(1, 1 << 20))
    elif roll < 0.74:
        b.emit("c.li", r(), rng.randrange(-32, 32))
    elif roll < 0.84:
        b.emit("c.mv", r(), r())
    elif roll < 0.94:
        b.emit("slli", r(), r(), rng.randrange(1, 32))
    else:
        b.emit(rng.choice(["beq", "bne"]), r(), r(),
               rng.choice([-12, -8, 8, 12]))


def random_filled_image(seed):
    """Random valid instruction fill with planted indirect-jump terminators."""
    rng = random.Random(0x5EED + seed)
    b = CodeBuilder(base=0x10000 + (seed % 5) * 0x10000)
    size = rng.randrange(1500, 3800)
    while b.here - b.base < size:
        if rng.random() < 0.10:
            kind = rng.randrange(4)
            if kind == 0:
                b.emit("c.jr", rng.choice(GP))
            elif kind == 1:
                b.emit("jalr", "zero", rng.choice(GP),
                       rng.randrange(-64, 64))
            elif kind == 2:
                b.emit("jalr", "ra", rng.choice(GP), 0)
            else:
                b.emit("ret")
        else:
            _emit_random_body(b, rng, allow_any_base_loads=True)
    b.emit("ret")
    img = b.image()
    assert len(img.segments[0].data) <= 4096
    return img


def random_clean_image(seed):
    """Ordinary function-shaped code: no dispatcher anywhere.

    Loads go through sp only and nothing links with ra except the final
    return, so table-walk shapes cannot arise; the epilogue-style
    load-then-jump sequences are exactly the false-positive bait.
    """
    rng = random.Random(0xC1EA + seed)
    b = CodeBuilder(base=0x20000 + seed * 0x8000)
    b.emit("addi", "sp", "sp", -32)
    b.emit("sw", "ra", "sp", 28)
    b.emit("sw", "s0", "sp", 24)
    for _ in range(rng.randrange(30, 80)):
        if rng.random() < 0.06:
            b.emit("lw", rng.choice(GP), "sp", 4 * rng.randrange(0, 6))
            b.emit("c.jr", rng.choice(["t0", "t1", "t2"]))
        else:
            _emit_random_body(b, rng, allow_any_base_loads=False)
    b.emit("lw", "s0", "sp", 24)
    b.emit("lw", "ra", "sp", 28)
    b.emit("addi", "sp", "sp", 32)
    b.emit("ret")
    return b.image()


def as_set(gadgets):
    return {(g.start, tuple(x.encoding for x in g.instructions), g.alignment)
            for g in gadgets}


# --- criteria ---------------------------------------------------------------

def test_criterion_01_encode_decode_round_trip():
    with budget(60):
        assert all_mnemonics_probed() == set()
        total = 0
        failures = []
        for mnemonic, ops, xlen in iter_probes():
            total += 1
            raw = assemble(mnemonic, ops, xlen=xlen)
            insn = decode_one(raw, 0, xlen)
            if mnemonic in PSEUDOS:
                named_ok = insn.matches_op(mnemonic)
            else:
                named_ok = insn.mnemonic == mnemonic
            again = assemble(insn.mnemonic, insn.operands, xlen=xlen)
            if not named_ok or again != raw:
                failures.append((mnemonic, ops, xlen))
        assert not failures, failures[:10]
        assert total >= 1000


def test_criterion_02_decoder_totality():
    with budget(60):
        # every 16-bit pattern, both widths
        for halfword in range(1 << 16):
            data = halfword.to_bytes(2, "little")
            for xlen in (32, 64):
                try:
                    decode_one(data, 0, xlen)
                except (InvalidEncoding, Truncated):
                    pass
        # a million random 32-bit words
        rng = random.Random(0xF0221)
        for i in range(1_000_000):
            data = rng.getrandbits(32).to_bytes(4, "little")
            try:
                decode_one(data, 0, 64 if i % 4 == 0 else 32)
            except (InvalidEncoding, Truncated):
                pass


def test_criterion_03_scanner_matches_oracle():
    with budget(30):
        nonempty = 0
        for seed in range(20):
            img = random_filled_image(seed)
            got = as_set(extract_gadgets(img, 4))
            want = brute_force(img, max_len=4)
            assert got == want, f"seed {seed}: {len(got ^ want)} diffs"
            nonempty += bool(got)
        assert nonempty == 20


def test_criterion_04_shifted_gadget_regression():
    img, addrs = build_shifted_fixture()
    where = addrs["hide_cjr"] + 2
    hits = [g for g in extract_gadgets(img, 4)
            if g.start == where and len(g.instructions) == 1]
    assert len(hits) == 1
    g = hits[0]
    assert g.alignment == SHIFTED
    assert g.terminator.mnemonic == "c.jr"
    assert g.link_register is reg("a5")
    assert g.terminator.encoding == CJR_A5.to_bytes(2, "little")

    # same trick hides the stack-release gadget in the chain fixture
    e2e, ea = build_e2e_fixture()
    rel = gadget_at(e2e, ea["g_release"])
    assert [x.mnemonic for x in rel.instructions] == ["c.addi16sp", "c.jr"]
    assert rel.instructions[0].imm == 16


def test_criterion_05_dispatcher_detection():
    img, addrs = build_adg_fixture()
    auto = [d for d in find_dispatchers(img)
            if d.kind == DISPATCHER_AUTONOMOUS]
    assert len(auto) == 1
    d = auto[0]
    assert d.table_reg is reg("s0")
    assert d.stride == 4
    assert type(d.self_link) is CondBranch
    assert d.self_link.op == "lt"
    assert d.self_link.regs == (reg("s0"), reg("s1"))
    assert d.gadget.terminator_links

    b = CodeBuilder()
    b.emit("addi", "s1", "s1", 4)
    b.emit("lw", "t1", "s1", 0)
    b.emit("c.jr", "t1")
    classic = [d for d in find_dispatchers(b.image())
               if d.kind == DISPATCHER_CLASSIC]
    assert classic
    assert classic[0].table_reg is reg("s1")
    assert classic[0].stride == 4
    assert classic[0].pre_increment

    two_img, two_addrs = build_two_stage_fixture()
    two = [d for d in find_dispatchers(two_img)
           if d.kind == DISPATCHER_TWO_STAGE]
    assert len(two) == 1
    assert two[0].loop_entry == two_addrs["stage1"]
    assert two[0].stage2.start == two_addrs["stage2"]

    for seed in range(20):
        assert find_dispatchers(random_clean_image(seed)) == []
    for name, clean in build_clean_fixtures():
        assert find_dispatchers(clean) == [], name


def test_criterion_06_initializer_pairing():
    b = CodeBuilder()
    b.label("loop")
    b.emit("lw", "a5", "s0", 0)
    b.emit("jalr", "ra", "a5", 0)
    b.emit("addi", "s0", "s0", 4)
    b.branch("blt", "s0", "s1", "loop")
    b.emit("ebreak")
    b.label("good")
    b.emit("lw", "s0", "sp", 0)
    b.emit("lw", "s1", "sp", 4)
    b.emit("lw", "t0", "sp", 8)
    b.emit("jr", "t0")
    b.label("linking")
    b.emit("lw", "s0", "sp", 12)
    b.emit("lw", "s1", "sp", 16)
    b.emit("lw", "t0", "sp", 20)
    b.emit("jalr", "ra", "t0", 0)
    img = b.image()

    (disp,) = [d for d in find_dispatchers(img)
               if d.kind == DISPATCHER_AUTONOMOUS]
    gadgets = dedupe(extract_gadgets(img, 6))
    found = find_initializers(gadgets, disp)
    starts = {c.gadget.start for c in found}
    assert b.labels["good"] in starts
    assert b.labels["linking"] not in starts

    cand = next(c for c in found if c.gadget.start == b.labels["good"])
    assert cand.link_register is reg("t0")
    srcs = {r.name: (s.kind, s.offset) for r, s in cand.sets.items()}
    assert srcs["s0"] == ("stack", 0)
    assert srcs["s1"] == ("stack", 4)
    assert srcs["t0"] == ("stack", 8)


QUERY_OPS = [None, "li", "addi", "lw", "sw"]
QUERY_IMMS = [None, 0, 4, -100, 56]
QUERY_RRS = [None, "a0", "a2", "a7", "s0"]
QUERY_LINKS = [None, "ra", "a5", "t0"]
QUERY_ROLES = [None, "arith", "load", "store", "syscall"]


def _random_query(rng):
    q = Query(all_=True)
    if rng.random() < 0.5 and (op := rng.choice(QUERY_OPS)):
        q = q._replace(op=op)
    if rng.random() < 0.4 and (imm := rng.choice(QUERY_IMMS)) is not None:
        q = q._replace(imm=imm)
    if rng.random() < 0.4 and (rr := rng.choice(QUERY_RRS)):
        q = q._replace(rr=reg(rr))
    if rng.random() < 0.3 and (link := rng.choice(QUERY_LINKS)):
        q = q._replace(link=reg(link))
    if rng.random() < 0.3 and (role := rng.choice(QUERY_ROLES)):
        q = q._replace(role=role)
    return q._replace(max=rng.randrange(1, 5))


def _augment(rng, q):
    """One extra constraint; retries until the pick tightens something."""
    while True:
        kind = rng.randrange(6)
        if kind == 0 and q.op is None:
            return q._replace(op=rng.choice(QUERY_OPS[1:]))
        if kind == 1 and q.imm is None:
            return q._replace(imm=rng.choice(QUERY_IMMS[1:]))
        if kind == 2 and q.rr is None:
            return q._replace(rr=reg(rng.choice(QUERY_RRS[1:])))
        if kind == 3 and q.link is None:
            return q._replace(link=reg(rng.choice(QUERY_LINKS[1:])))
        if kind == 4 and not q.preserve:
            return q._replace(
                preserve=frozenset({reg(rng.choice(["s0", "s1", "a2"]))}))
        if kind == 5 and q.max > 1:
            return q._replace(max=q.max - 1)


def test_criterion_07_query_conformance():
    b = CodeBuilder()
    b.label("target")
    b.emit("c.li", "a2", 0)
    b.emit("ret")
    b.emit("c.li", "a2", 5)       # right register, wrong value
    b.emit("ret")
    b.emit("c.li", "a0", 0)       # right value, wrong register
    b.emit("ret")
    b.emit("add", "a2", "zero", "zero")   # right effect, wrong operation
    b.emit("ret")
    img = b.image()
    hits = run_query(img, Query(op="li", imm=0, rr=reg("a2"), max=1))
    assert [h.gadget.start for h in hits] == [b.labels["target"]]

    rich, _ = build_e2e_fixture()
    rng = random.Random(0x9E12)
    for _ in range(100):
        base = _random_query(rng)
        extra = _augment(rng, base)
        wide = {(h.gadget.start, h.gadget.encoding)
                for h in run_query(rich, base)}
        narrow = {(h.gadget.start, h.gadget.encoding)
                  for h in run_query(rich, extra)}
        assert narrow <= wide, (base, extra)


def _walk(target, stride, start):
    v, k = start, 0
    if stride > 0:
        while v < target:
            v += stride
            k += 1
    else:
        while v > target:
            v += stride
            k += 1
    return k


def test_criterion_08_repetition_count():
    assert repetitions_for(2604, 4, 0) == 651
    assert _walk(2604, 4, 0) == 651

    rng = random.Random(0x2E95)
    for _ in range(10_000):
        stride = rng.choice([1, -1]) * rng.randrange(1, 65)
        start = rng.randrange(-1000, 1001)
        roll = rng.random()
        if roll < 0.15:
            assert repetitions_for(start, stride, start) == 0
        elif roll < 0.30:
            target = start - stride * rng.randrange(1, 50)
            with pytest.raises(Diverges):
                repetitions_for(target, stride, start)
        else:
            count = rng.randrange(1, 1200)
            slack = rng.randrange(0, abs(stride))
            target = start + count * stride - (slack if stride > 0 else -slack)
            assert repetitions_for(target, stride, start) == count
            assert _walk(target, stride, start) == count


def _e2e_chain():
    img, addrs = build_e2e_fixture()
    (disp,) = [d for d in find_dispatchers(img)
               if d.kind == DISPATCHER_AUTONOMOUS]
    init = initializer_at(img, addrs["init"], disp)
    count = repetitions_for(2604, 4, 0)
    names = ["g_dirfd", "g_flags", "g_alloc", "g_open", ("g_count", count),
             "g_read", "g_outfd", "g_write", "g_release"]
    steps = []
    for n in names:
        name, repeat = n if isinstance(n, tuple) else (n, 1)
        steps.append(ChainStep(gadget_at(img, addrs[name]), repeat))
    entries = sum(s.repeat for s in steps) + 1
    path_addr = TABLE_BASE + entries * 4
    spec = ChainSpec(
        dispatcher=disp, initializer=init, steps=tuple(steps),
        return_to=addrs["landing"], table_base=TABLE_BASE, image=img,
        data_seeds=((b"flag.txt\x00", "path"),),
        seed_overrides={reg("a1"): path_addr})
    return img, addrs, spec, entries, path_addr


def _simulate(img, addrs, spec):
    layout = layout_payload(spec)
    m = new_machine(img, payload=layout, buffer_base=spec.table_base)
    return m, run_chain(m, addrs["init"], spec.return_to,
                        loop_entry=spec.dispatcher.loop_entry)


def test_criterion_09_end_to_end_stealth():
    img, addrs, spec, entries, path_addr = _e2e_chain()
    diags = validate_chain(spec)
    assert not has_errors(diags)
    layout = layout_payload(spec)
    assert layout.memory_seeds[0].offset == entries * 4

    m, report = _simulate(img, addrs, spec)
    assert report.outcome == "reached"
    assert report.stealth
    assert report.final_sp_delta == 0
    assert report.shadow_pushes - report.shadow_pops == 1
    assert report.dispatch_rounds == entries == 660

    assert [s.number for s in report.syscalls] == [56, 63, 64]
    opened, read, wrote = report.syscalls
    assert opened.args[0] == -100 & M32
    assert opened.args[1] == path_addr
    assert opened.args[2] == 0
    assert opened.result == 5
    assert bytes(m.load(path_addr + i, 1)
                 for i in range(9)) == b"flag.txt\x00"
    assert read.args[0] == 5 and read.args[2] == 2604
    assert read.result == 2604
    assert wrote.args[0] == 5 and wrote.args[2] == 2604

    # clobbering the table register derails the walk
    hostile = gadget_at(img, addrs["g_clobber_s0"])
    mut = spec._replace(steps=spec.steps[:4] + (ChainStep(hostile),)
                        + spec.steps[4:])
    assert any(d.code == "ClobbersReserved"
               for d in validate_chain(mut))
    _, bad = _simulate(img, addrs, mut)
    assert not bad.stealth and bad.outcome != "reached"

    # dropping the stack release leaves sp shifted
    mut = spec._replace(steps=spec.steps[:-1])
    assert any(d.code == "UnbalancedStack"
               for d in validate_chain(mut))
    _, bad = _simulate(img, addrs, mut)
    assert bad.outcome == "reached" and bad.final_sp_delta == -16
    assert not bad.stealth

    # a short loop bound breaks the dispatcher's own condition
    mut = spec._replace(seed_overrides={**spec.seed_overrides,
                                        reg("s1"): TABLE_BASE + 8})
    _, bad = _simulate(img, addrs, mut)
    assert not bad.stealth and bad.outcome == "fault"


GOLDEN_TOP15 = [
    ("ra", 4557), ("a5", 810), ("t1", 318), ("t3", 255), ("tp", 239),
    ("a4", 184), ("s0", 183), ("s2", 157), ("a2", 147), ("a0", 106),
    ("sp", 97), ("s1", 86), ("a3", 83), ("t5", 79), ("s8", 68)]

GOLDEN_TABLE = (
    "Register          | ra   | a5  | t1  | t3  | tp  | a4  | s0  | s2  "
    "| a2  | a0  | sp | s1 | a3 | t5 | s8\n"
    "Available gadgets | 4557 | 810 | 318 | 255 | 239 | 184 | 183 | 157 "
    "| 147 | 106 | 97 | 86 | 83 | 79 | 68\n")


def test_criterion_10_stats_partition_and_rendering():
    images = [build_adg_fixture()[0], build_two_stage_fixture()[0],
              build_shifted_fixture()[0], build_e2e_fixture()[0]]
    images += [img for _, img in build_clean_fixtures()]
    images += [random_filled_image(s) for s in range(5)]
    for img in images:
        gadgets = list(extract_gadgets(img, 4))
        rows = availability_stats(gadgets)
        assert sum(r.count for r in rows) == len(dedupe(gadgets))
        assert len({r.register for r in rows}) == len(rows)
        for r in rows:
            assert r.count == r.natural + r.shifted > 0

    assert render_stats_table(GOLDEN_TOP15) == GOLDEN_TABLE
    top3 = render_stats_table(GOLDEN_TOP15, top=3)
    assert top3 == ("Register          | ra   | a5  | t1\n"
                    "Available gadgets | 4557 | 810 | 318\n")


def test_whole_suite_inside_time_ceiling():
    assert time.monotonic() - SESSION_T0 < 300
