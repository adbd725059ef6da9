"""Chain building: tables, validation diagnostics, payload layout, parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvjop.assembler import assemble
from rvjop.chain import (ChainSpec, ChainStep, has_errors, layout_payload,
                         parse_chain_text, render_manifest, repetitions_for,
                         validate_chain)
from rvjop.classify import (DISPATCHER_AUTONOMOUS, DISPATCHER_CLASSIC,
                            DISPATCHER_TWO_STAGE, Source, find_dispatchers,
                            initializer_at)
from rvjop.decoder import decode_one
from rvjop.errors import AddressTooWide, Diverges, Overlap, ToolError
from rvjop.image import ExecutableImage, from_bytes, parse_elf
from rvjop.isa import reg
from rvjop.scanner import gadget_at
from rvjop.sim import new_machine, run_chain

from conftest import (TABLE_BASE, CodeBuilder, benchmark_corpus,
                      build_adg_fixture, build_classic_fixture,
                      build_two_stage_fixture, count_calls)


@pytest.fixture(scope="module")
def lab():
    """Two autonomous dispatchers (opposite strides) plus step gadgets."""
    b = CodeBuilder()
    b.label("loop")
    b.emit("lw", "a5", "s0", 0)
    b.emit("jalr", "ra", "a5", 0)
    b.emit("addi", "s0", "s0", 4)
    b.branch("blt", "s0", "s1", "loop")
    b.emit("ebreak")

    b.label("nloop")
    b.emit("lw", "a5", "s2", 0)
    b.emit("jalr", "ra", "a5", 0)
    b.emit("addi", "s2", "s2", -4)
    b.branch("blt", "s3", "s2", "nloop")
    b.emit("ebreak")

    b.label("init")
    b.emit("lw", "s0", "sp", 0)
    b.emit("lw", "s1", "sp", 4)
    b.emit("lw", "t0", "sp", 8)
    b.emit("jr", "t0")

    b.label("ninit")
    b.emit("lw", "s2", "sp", 0)
    b.emit("lw", "s3", "sp", 4)
    b.emit("lw", "t0", "sp", 8)
    b.emit("jr", "t0")

    b.label("g_one")
    b.emit("li", "a0", 1)
    b.emit("ret")
    b.label("g_two")
    b.emit("li", "a1", 2)
    b.emit("ret")
    b.label("g_jr_t1")
    b.emit("li", "a3", 3)
    b.emit("jr", "t1")
    b.label("g_clobber")
    b.emit("li", "s0", 0)
    b.emit("ret")
    b.label("g_alloc")
    b.emit("addi", "sp", "sp", -16)
    b.emit("ret")
    b.label("g_release")
    b.emit("addi", "sp", "sp", 16)
    b.emit("ret")
    b.label("g_sp_var")
    b.emit("add", "sp", "sp", "a0")
    b.emit("ret")
    b.label("g_a0_two")
    b.emit("li", "a0", 2)
    b.emit("ret")
    b.label("g_a0_bump")
    b.emit("addi", "a0", "a0", 1)
    b.emit("ret")
    b.label("g_ecall")
    b.emit("li", "a7", 64)
    b.emit("ecall")
    b.emit("ret")
    b.label("landing")
    b.emit("nop")
    b.emit("ebreak")
    return b.image(), dict(b.labels)


@pytest.fixture(scope="module")
def classic_lab():
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

    b.label("g_a")
    b.emit("li", "a0", 7)
    b.emit("jr", "t1")
    b.label("g_b")
    b.emit("addi", "a0", "a0", 1)
    b.emit("jr", "t1")
    b.label("g_link")
    b.emit("li", "a1", 1)
    b.emit("jalr", "ra", "t1", 0)
    b.label("g_ret")
    b.emit("li", "a3", 9)
    b.emit("ret")
    b.label("landing")
    b.emit("ebreak")
    return b.image(), dict(b.labels)


def dispatcher_at(img, entry, kind):
    return next(d for d in find_dispatchers(img)
                if d.kind == kind and d.loop_entry == entry)


def spec_for(img, addrs, steps, *, loop="loop", init="init", **kw):
    disp = dispatcher_at(img, addrs[loop], DISPATCHER_AUTONOMOUS)
    ini = initializer_at(img, addrs[init], disp)
    parts = []
    for s in steps:
        name, repeat = s if isinstance(s, tuple) else (s, 1)
        parts.append(ChainStep(gadget_at(img, addrs[name]), repeat))
    return ChainSpec(dispatcher=disp, initializer=ini, steps=tuple(parts),
                     return_to=addrs["landing"], table_base=TABLE_BASE,
                     image=img, **kw)


def codes(diags, severity=None):
    return [d.code for d in diags
            if severity is None or d.severity == severity]


# --- repetition counts ------------------------------------------------------

def test_repetitions_golden():
    assert repetitions_for(2604, 4, 0) == 651


def test_repetitions_small_cases():
    assert repetitions_for(0, 4) == 0
    assert repetitions_for(10, 4) == 3
    assert repetitions_for(12, 4) == 3
    assert repetitions_for(-8, -4) == 2
    assert repetitions_for(8, -4, 20) == 3


def test_repetitions_same_start_needs_nothing():
    assert repetitions_for(7, 4, 7) == 0
    assert repetitions_for(7, 0, 7) == 0


@pytest.mark.parametrize("target,stride,start", [
    (5, 0, 0), (5, -4, 0), (-5, 4, 0), (0, 4, 8)])
def test_repetitions_diverges(target, stride, start):
    with pytest.raises(Diverges):
        repetitions_for(target, stride, start)


@given(st.integers(-10_000, 10_000), st.integers(1, 64),
       st.integers(-100, 100), st.booleans())
@settings(max_examples=300, deadline=None)
def test_repetitions_match_walk(target, magnitude, start, up):
    stride = magnitude if up else -magnitude
    delta = target - start
    if delta != 0 and (delta > 0) != (stride > 0):
        with pytest.raises(Diverges):
            repetitions_for(target, stride, start)
        return
    k = repetitions_for(target, stride, start)
    v = start + k * stride
    if stride > 0:
        assert v >= target and (k == 0 or v - stride < target)
    elif stride < 0:
        assert v <= target and (k == 0 or v - stride > target)
    else:
        assert k == 0


# --- dispatch tables --------------------------------------------------------

def words(*entries):
    return b"".join(e.to_bytes(4, "little") for e in entries)


def test_table_traversal_order(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one", ("g_two", 2)])
    out = layout_payload(spec)
    assert out.entries == 4
    assert out.buffer == words(addrs["g_one"], addrs["g_two"],
                               addrs["g_two"], addrs["landing"])


def test_table_memory_reversed_for_negative_stride(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one", ("g_two", 2)], loop="nloop",
                    init="ninit")
    out = layout_payload(spec)
    assert out.entries == 4
    assert out.buffer == words(addrs["landing"], addrs["g_two"],
                               addrs["g_two"], addrs["g_one"])


def test_table_rejects_wide_addresses(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one"])
    for bad, text in ((1 << 32, "0x100000000"), (-4, "-0x4")):
        with pytest.raises(AddressTooWide,
                           match=f"^entry {text} does not fit 32 bits$"):
            layout_payload(spec._replace(return_to=bad))
    wide = ExecutableImage(img.segments, 64)
    out = layout_payload(spec._replace(return_to=1 << 32, image=wide))
    assert out.buffer == (addrs["g_one"].to_bytes(8, "little")
                          + (1 << 32).to_bytes(8, "little"))


# --- validation -------------------------------------------------------------

def test_clean_chain_validates(lab):
    img, addrs = lab
    diags = validate_chain(spec_for(img, addrs, ["g_one", "g_two"]))
    assert not has_errors(diags)
    assert codes(diags, "info") == ["MustHold"]
    must = next(d for d in diags if d.code == "MustHold")
    assert "s0" in must.message and "s1" in must.message


def test_unseeded_jump_registers_warn(classic_lab):
    """One warning per register layout aims at the loop entry but the
    initializer does not load: its own jump register and dispatch-reg."""
    img, addrs = classic_lab
    disp = dispatcher_at(img, addrs["dispatch"], DISPATCHER_CLASSIC)
    ini = initializer_at(img, addrs["init"], disp)
    spec = ChainSpec(dispatcher=disp, initializer=ini,
                     steps=(ChainStep(gadget_at(img, addrs["g_a"])),),
                     return_to=addrs["landing"], table_base=TABLE_BASE,
                     image=img, dispatch_reg=reg("t1"))

    def warnings(**kw):
        return [d.message for d in validate_chain(spec._replace(**kw))
                if d.code == "UnseededJumpReg" and d.severity == "warning"]

    entry = f"0x{addrs['dispatch']:x}"
    assert warnings() == []
    assert warnings(dispatch_reg=reg("a4")) == [
        f"initializer does not load a4, which must hold the loop entry "
        f"{entry}"]
    no_t2 = ini._replace(sets={r: src for r, src in ini.sets.items()
                               if r is not reg("t2")})
    assert warnings(initializer=no_t2, dispatch_reg=reg("t2")) == [
        f"initializer does not load t2, which must hold the loop entry "
        f"{entry}"]


def test_stride_element_mismatch(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one"])
    wide = spec._replace(dispatcher=spec.dispatcher._replace(stride=8))
    diags = validate_chain(wide)
    assert "StrideMismatch" in codes(diags, "error")
    assert "StrideMismatch" not in codes(validate_chain(spec))


def test_bad_repeat(lab):
    img, addrs = lab
    diags = validate_chain(spec_for(img, addrs, [("g_one", 0)]))
    assert "BadRepeat" in codes(diags, "error")


def test_autonomous_needs_return_like_steps(lab):
    img, addrs = lab
    diags = validate_chain(spec_for(img, addrs, ["g_jr_t1"]))
    mismatch = [d for d in diags if d.code == "TerminatorMismatch"]
    assert mismatch and "t1" in mismatch[0].message


def test_reserved_clobber_flagged(lab):
    img, addrs = lab
    diags = validate_chain(spec_for(img, addrs, ["g_clobber"]))
    hits = [d for d in diags if d.code == "ClobbersReserved"]
    assert hits and "s0" in hits[0].message

    extra = spec_for(img, addrs, ["g_two"], reserved=frozenset({reg("a1")}))
    assert "ClobbersReserved" in codes(validate_chain(extra), "error")


def test_arg_clobber_before_syscall(lab):
    img, addrs = lab
    warned = validate_chain(
        spec_for(img, addrs, ["g_one", "g_a0_two", "g_ecall"]))
    hits = [d for d in warned if d.code == "ArgClobbered"]
    assert hits and "a0" in hits[0].message and "step 0" in hits[0].message

    # read-modify-write keeps the earlier value relevant
    ok = validate_chain(
        spec_for(img, addrs, ["g_one", "g_a0_bump", "g_ecall"]))
    assert "ArgClobbered" not in codes(ok)

    # no syscall ever consumes it: not worth a warning
    quiet = validate_chain(spec_for(img, addrs, ["g_one", "g_a0_two"]))
    assert "ArgClobbered" not in codes(quiet)


def test_stack_balance(lab):
    img, addrs = lab
    bad = validate_chain(spec_for(img, addrs, [("g_alloc", 2), "g_release"]))
    unb = [d for d in bad if d.code == "UnbalancedStack"]
    assert unb and "-16" in unb[0].message

    good = validate_chain(spec_for(img, addrs, ["g_alloc", "g_release"]))
    assert "UnbalancedStack" not in codes(good)

    fuzzy = validate_chain(spec_for(img, addrs, ["g_sp_var"]))
    assert "UnknownSpDelta" in codes(fuzzy, "warning")
    assert "UnbalancedStack" not in codes(fuzzy)


def test_dispatcher_moving_sp_warned(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one"])
    alloc = decode_one(assemble("addi", ("sp", "sp", -16)))
    touched = spec.dispatcher._replace(
        return_path=spec.dispatcher.return_path + (alloc,))
    diags = validate_chain(spec._replace(dispatcher=touched))
    assert "DispatcherTouchesSp" in codes(diags, "warning")


def test_classic_validation(classic_lab):
    img, addrs = classic_lab
    disp = dispatcher_at(img, addrs["dispatch"], DISPATCHER_CLASSIC)
    ini = initializer_at(img, addrs["init"], disp)

    def mk(names, **kw):
        steps = tuple(ChainStep(gadget_at(img, addrs[n])) for n in names)
        return ChainSpec(dispatcher=disp, initializer=ini, steps=steps,
                         return_to=addrs["landing"], table_base=TABLE_BASE,
                         image=img, **kw)

    ok = validate_chain(mk(["g_a", "g_b"], dispatch_reg=reg("t1")))
    assert not has_errors(ok)
    assert "MustHold" not in codes(ok)

    missing = validate_chain(mk(["g_a"]))
    assert "MissingDispatchReg" in codes(missing, "error")

    wrong = validate_chain(mk(["g_ret"], dispatch_reg=reg("t1")))
    assert "TerminatorMismatch" in codes(wrong, "error")

    linking = validate_chain(mk(["g_link"], dispatch_reg=reg("t1")))
    assert "LinkingStep" in codes(linking, "warning")


# --- payload layout ---------------------------------------------------------

def test_layout_autonomous_seeds(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one", "g_two"])
    out = layout_payload(spec)
    seeds = out.register_seeds
    assert seeds[reg("s0")] == TABLE_BASE
    # bound must stay above the pointer at every loop test: 3 entries
    assert seeds[reg("s1")] == TABLE_BASE + 3 * 4
    assert seeds[reg("t0")] == addrs["loop"]
    assert [w.register.name for w in out.stack_writes] == ["t0", "s0", "s1"]
    assert [w.offset for w in out.stack_writes] == [8, 0, 4]
    assert out.unplaced_seeds == ()
    assert out.buffer == words(addrs["g_one"], addrs["g_two"],
                               addrs["landing"])


def test_layout_negative_stride_seeds(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one", "g_two"], loop="nloop",
                    init="ninit")
    out = layout_payload(spec)
    # pointer starts at the high end and counts down
    assert out.register_seeds[reg("s2")] == TABLE_BASE + 8
    assert out.register_seeds[reg("s3")] == TABLE_BASE + 8 - 12


def test_layout_two_stage_seeds(two_stage):
    img, addrs = two_stage
    disp = dispatcher_at(img, addrs["stage1"], DISPATCHER_TWO_STAGE)
    ini = initializer_at(img, addrs["init"], disp)
    spec = ChainSpec(dispatcher=disp, initializer=ini,
                     steps=(ChainStep(gadget_at(img, addrs["g_li_a0"])),),
                     return_to=addrs["landing"], table_base=TABLE_BASE,
                     image=img, dispatch_reg=reg("t1"))
    seeds = layout_payload(spec).register_seeds
    assert seeds[reg("s0")] == TABLE_BASE - 4       # advanced before the load
    assert seeds[reg("t2")] == addrs["stage2"]
    assert seeds[reg("t1")] == addrs["stage1"]
    assert seeds[reg("t3")] == addrs["stage1"]


def test_layout_overrides_win(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one"],
                    seed_overrides={reg("s1"): 0x999})
    out = layout_payload(spec)
    assert out.register_seeds[reg("s1")] == 0x999
    w = next(w for w in out.stack_writes if w.register is reg("s1"))
    assert w.value == 0x999


def test_layout_data_seeds(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one"],
                    data_seeds=((b"abc", "path"), (b"\x01\x02", "")))
    out = layout_payload(spec)
    assert [m.offset for m in out.memory_seeds] == [8, 11]
    buf = out.buffer
    assert len(buf) == 13
    assert buf[8:11] == b"abc" and buf[11:13] == b"\x01\x02"


def test_layout_overlap_with_image(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one"])
    layout_payload(spec)
    inside = spec._replace(table_base=addrs["g_one"])
    with pytest.raises(Overlap):
        layout_payload(inside)


def test_layout_payload_fits_the_address_space(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one"], data_seeds=((b"abc", ""),))
    top = 1 << 32
    layout_payload(spec._replace(table_base=top - 11))      # ends at 2^32
    with pytest.raises(AddressTooWide, match=(
            r"payload \[0xfffffff6, 0x100000001\) runs past the 32-bit "
            r"address space")):
        layout_payload(spec._replace(table_base=top - 10))


def test_layout_loop_bound_fits_the_address_space(lab):
    img, addrs = lab
    # blt s0, s1 compares signed: the bound sits one entry past the
    # pointer's last value read as a signed 32-bit number, or at the
    # highest one if that is past it
    up = spec_for(img, addrs, ["g_one", "g_two"])
    for base, bound in [((1 << 32) - 16, (1 << 32) - 4),   # s0 -12, -8
                        ((1 << 32) - 12, 0),               # s0 -8, -4
                        (0x7ffffff8, 0x7fffffff)]:          # s0 2^31-4, -2^31
        assert layout_payload(up._replace(table_base=base)
                              ).register_seeds[reg("s1")] == bound
    with pytest.raises(ToolError, match=(
            "no signed 32-bit loop bound keeps s0 lt s1 for every round: "
            "the table pointer reaches 0x7fffffff")):
        layout_payload(up._replace(table_base=0x7ffffff7))
    # read unsigned (bltu), the same walks need other bounds
    link = up.dispatcher.self_link._replace(op="ltu")
    ltu = up._replace(dispatcher=up.dispatcher._replace(self_link=link))
    for base, bound in [((1 << 32) - 12, 0xffffffff),
                        (0x7ffffff8, 0x80000004)]:
        assert layout_payload(ltu._replace(table_base=base)
                              ).register_seeds[reg("s1")] == bound
    # blt s3, s2 counting down: the bound sits one entry below the table,
    # negative below 0x0 and stored as its 32-bit pattern
    down = spec_for(img, addrs, ["g_one", "g_two"], loop="nloop",
                    init="ninit")
    for base, bound in [(4, 0), (0, 0xfffffffc)]:
        assert layout_payload(down._replace(table_base=base)
                              ).register_seeds[reg("s3")] == bound
    with pytest.raises(ToolError, match=(
            "no signed 32-bit loop bound keeps s3 lt s2 for every round: "
            "the table pointer reaches 0x80000000")):
        layout_payload(down._replace(table_base=0x80000000))


def _against_zero(spec, op, table):
    """`spec` with its self-link rewritten to compare `table` and x0."""
    link = spec.dispatcher.self_link._replace(
        op=op, regs=(reg(table), reg("zero")))
    return spec._replace(dispatcher=spec.dispatcher._replace(self_link=link))


@pytest.mark.parametrize("op, base, holds", [
    ("lt", 0x40000, False), ("lt", 0x80001000, True),
    ("ge", 0x40000, True), ("ge", 0x80001000, False),
    ("ltu", 0x40000, False), ("geu", 0x40000, True),
    ("ne", 0x40000, True), ("ne", 0, True),
])
def test_layout_checks_a_zero_bound(lab, op, base, holds):
    """x0 cannot be seeded, so layout checks that 0 keeps the branch
    taken at every round, in the branch's signed or unsigned domain."""
    img, addrs = lab
    spec = _against_zero(spec_for(img, addrs, ["g_one", "g_two"]), op, "s0")
    spec = spec._replace(table_base=base)
    if holds:
        seeds = layout_payload(spec).register_seeds
        assert reg("zero") not in seeds and seeds[reg("s0")] == base
    else:
        with pytest.raises(ToolError, match=(
                f"s0 {op} zero does not hold for every round")):
            layout_payload(spec)


def test_layout_checks_a_zero_bound_counting_down(lab):
    # counting down to a table at 0x0, the pointer's last value is 0
    img, addrs = lab
    down = spec_for(img, addrs, ["g_one", "g_two"], loop="nloop",
                    init="ninit")
    ne = _against_zero(down, "ne", "s2")
    layout_payload(ne._replace(table_base=4))
    with pytest.raises(ToolError, match=(
            r"s2 ne zero does not hold for every round \(unsigned 32-bit\): "
            "the table pointer runs from 0x4 to 0x0")):
        layout_payload(ne._replace(table_base=0))


def test_layout_seeds_are_xlen_bit_values(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one"],
                    seed_overrides={reg("s1"): -100, reg("a0"): 1 << 32})
    out = layout_payload(spec)
    assert out.register_seeds[reg("s1")] == 0xffffff9c
    assert out.register_seeds[reg("a0")] == 0
    w = next(w for w in out.stack_writes if w.register is reg("s1"))
    assert w.value == 0xffffff9c
    assert "  s1    = 0xffffff9c" in render_manifest(spec, out, [])


def test_layout_ledger_scales_repeats(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, [("g_alloc", 2), "g_release"])
    out = layout_payload(spec)
    assert out.sp_ledger == (("initializer", 0), ("step 0", -32),
                             ("step 1", 16))


def test_manifest_ledger_marks_a_step_that_moves_sp_by_a_register(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_alloc", "g_sp_var", "g_release"])
    out = layout_payload(spec)
    assert out.sp_ledger == (("initializer", 0), ("step 0", -16),
                             ("step 1", None), ("step 2", 16))
    text = render_manifest(spec, out, [])
    assert text.split("stack ledger:\n")[1].splitlines() == [
        "  initializer  sp+0 -> +0",
        "  step 0       sp-16 -> -16",
        "  step 1       sp?? (unknown)",
        "  step 2       sp+16 -> ??",
    ]


def test_layout_surfaces_unplaced_sources(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one"])
    sets = dict(spec.initializer.sets)
    sets[reg("a1")] = Source("mem", reg("a3"), 0)
    spec = spec._replace(initializer=spec.initializer._replace(sets=sets))
    out = layout_payload(spec)
    assert [(r.name, s.kind) for r, s in out.unplaced_seeds] == [("a1", "mem")]
    assert out.register_seeds[reg("a1")] == 0
    text = render_manifest(spec, out, [])
    assert "place it yourself" in text


def test_manifest_signs_negative_offsets(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one"])
    sets = dict(spec.initializer.sets)
    sets[reg("s0")] = Source("stack", reg("sp"), -12)
    sets[reg("a1")] = Source("mem", reg("a3"), -8)
    spec = spec._replace(initializer=spec.initializer._replace(sets=sets))
    lines = render_manifest(spec, layout_payload(spec), []).splitlines()
    assert any(line.startswith("  sp-12   <- ") for line in lines)
    assert "  note: a1 loads via mem base a3-8; place it yourself" in lines


# `lw s0,0(sp); lw s1,0(sp); lw t0,8(sp); jr t0` at 0x0, then at 0x10
# `loop: lw a5,0(s0); jalr ra,a5; addi s0,s0,4; blt s0,s1,loop`, a `ret`
# step at 0x20 and an ebreak landing at 0x24
SHARED_BLOB = bytes.fromhex(
    "0324010083240100832281006780020083270400e780070013044400e34a94fe"
    "6780000073001000")
SHARED_CHAIN = ("dispatcher 0x10\ninitializer 0x0\ntable-base 0x40000\n"
                "return-to 0x24\nstep 0x20\nstep 0x20\n")


def test_layout_refuses_a_slot_loaded_with_two_values():
    # s0 wants the table pointer and s1 the bound above it, but both
    # load the same stack slot
    spec = parse_chain_text(SHARED_CHAIN, from_bytes(SHARED_BLOB, 0, 32))
    with pytest.raises(ToolError) as exc:
        layout_payload(spec)
    assert str(exc.value) == ("stack slot sp+0 cannot hold both s0 = 0x40000 "
                              "and s1 = 0x4000c: the initializer loads both "
                              "from it")


def test_layout_shares_a_slot_loaded_with_one_value(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one"])
    sets = dict(spec.initializer.sets)
    sets[reg("a0")] = sets[reg("a1")] = Source("stack", reg("sp"), 16)
    spec = spec._replace(initializer=spec.initializer._replace(sets=sets))
    out = layout_payload(spec)
    assert [(w.offset, w.value, w.register.name) for w in out.stack_writes
            if w.offset == 16] == [(16, 0, "a0"), (16, 0, "a1")]
    # the values compared are the seeds after the overrides
    with pytest.raises(ToolError, match=r"^stack slot sp\+16 cannot hold "
                       r"both a0 = 0x0 and a1 = 0x5: "):
        layout_payload(spec._replace(seed_overrides={reg("a1"): 5}))
    shared = parse_chain_text(SHARED_CHAIN, from_bytes(SHARED_BLOB, 0, 32))
    out = layout_payload(shared._replace(seed_overrides={reg("s1"): 0x40000}))
    assert [(w.offset, w.value) for w in out.stack_writes] == [
        (8, 0x10), (0, 0x40000), (0, 0x40000)]


# --- initializer vetting ----------------------------------------------------

def test_initializer_rejects_ra_jump(lab):
    img, addrs = lab
    disp = dispatcher_at(img, addrs["loop"], DISPATCHER_AUTONOMOUS)
    with pytest.raises(ToolError, match="ra"):
        initializer_at(img, addrs["g_one"], disp)


def test_initializer_must_cover_required(lab):
    img, addrs = lab
    disp = dispatcher_at(img, addrs["loop"], DISPATCHER_AUTONOMOUS)
    with pytest.raises(ToolError, match="never loads"):
        initializer_at(img, addrs["g_jr_t1"], disp)


# --- chain text format ------------------------------------------------------

def test_parse_chain_text(lab):
    img, addrs = lab
    text = f"""
    # build a two-step chain
    dispatcher 0x{addrs['loop']:x}
    initializer 0x{addrs['init']:x}
    table-base 0x{TABLE_BASE:x}
    return-to 0x{addrs['landing']:x}      # trailing comment
    reserve a1,a2
    seed s1=0x123
    step 0x{addrs['g_one']:x} 3 set the flag
    step 0x{addrs['g_two']:x}
    data str:flag.txt the path
    data hex:deadbeef
    """
    spec = parse_chain_text(text, img)
    assert spec.dispatcher.loop_entry == addrs["loop"]
    assert spec.initializer.gadget.start == addrs["init"]
    assert spec.table_base == TABLE_BASE
    assert spec.return_to == addrs["landing"]
    assert spec.reserved == {reg("a1"), reg("a2")}
    assert spec.seed_overrides == {reg("s1"): 0x123}
    assert [(s.gadget.start, s.repeat, s.note) for s in spec.steps] == [
        (addrs["g_one"], 3, "set the flag"), (addrs["g_two"], 1, "")]
    assert spec.data_seeds == ((b"flag.txt\x00", "the path"),
                               (bytes.fromhex("deadbeef"), ""))


def test_parse_chain_text_errors(lab):
    img, addrs = lab
    head = (f"dispatcher 0x{addrs['loop']:x}\n"
            f"initializer 0x{addrs['init']:x}\n"
            f"table-base 0x{TABLE_BASE:x}\n")

    with pytest.raises(ToolError, match="missing a return-to"):
        parse_chain_text(head, img)
    with pytest.raises(ToolError, match="line 4"):
        parse_chain_text(head + "frobnicate 1\n", img)
    with pytest.raises(ToolError, match="line 4"):
        parse_chain_text(head + "seed s1\n", img)
    with pytest.raises(ToolError, match="line 4"):
        parse_chain_text(head + "data raw:00\n", img)
    with pytest.raises(ToolError, match="no dispatcher candidate"):
        parse_chain_text(
            f"dispatcher 0x{addrs['landing']:x}\n"
            f"initializer 0x{addrs['init']:x}\n"
            f"table-base 0x{TABLE_BASE:x}\n"
            f"return-to 0x{addrs['landing']:x}\n", img)


@pytest.mark.parametrize("directive", ["dispatcher", "initializer",
                                       "table-base", "return-to", "step"])
@pytest.mark.parametrize("value", ["-0x10", "-1", hex(1 << 32)])
def test_parse_chain_text_addresses_in_xlen(lab, directive, value):
    """An address outside [0, 2^32) on RV32 is a malformed line."""
    img, addrs = lab
    lines = [f"dispatcher 0x{addrs['loop']:x}",
             f"initializer 0x{addrs['init']:x}",
             f"table-base 0x{TABLE_BASE:x}",
             f"return-to 0x{addrs['landing']:x}",
             f"step 0x{addrs['g_one']:x}"]
    n = next(i for i, line in enumerate(lines)
             if line.startswith(directive + " "))
    lines[n] = f"{directive} {value}"
    with pytest.raises(ToolError, match=(
            f"chain spec line {n + 1}: address {value} is outside the "
            f"32-bit address space")):
        parse_chain_text("\n".join(lines) + "\n", img)


def test_parse_chain_text_top_address(lab):
    img, addrs = lab
    spec = parse_chain_text(
        f"dispatcher 0x{addrs['loop']:x}\n"
        f"initializer 0x{addrs['init']:x}\n"
        f"table-base 0xffffffff\n"
        f"return-to 0xffffffff\n", img)
    assert spec.table_base == spec.return_to == (1 << 32) - 1


def test_manifest_contents(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one"])
    out = layout_payload(spec)
    diags = validate_chain(spec)
    text = render_manifest(spec, out, diags)
    assert "dispatcher-autonomous" in text
    assert f"0x{TABLE_BASE:08x}" in text
    assert f"s0    = 0x{TABLE_BASE:x}" in text
    assert "stack slots to prepare" in text
    assert "stack ledger:" in text
    assert "MustHold" in text


# --- the layouts actually run -----------------------------------------------

def run_layout(img, spec, entry, fuel=10_000, **machine):
    out = layout_payload(spec)
    m = new_machine(img, payload=out, buffer_base=spec.table_base, **machine)
    report = run_chain(m, entry, spec.return_to, fuel=fuel,
                       loop_entry=spec.dispatcher.loop_entry)
    return m, report


def test_autonomous_chain_runs(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one", "g_two"])
    assert not has_errors(validate_chain(spec))
    m, report = run_layout(img, spec, addrs["init"])
    assert report.outcome == "reached"
    assert report.dispatch_rounds == 3
    assert report.stealth
    assert m.get(reg("a0")) == 1 and m.get(reg("a1")) == 2


def test_negative_stride_chain_runs(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one", "g_two"], loop="nloop",
                    init="ninit")
    m, report = run_layout(img, spec, addrs["ninit"])
    assert report.outcome == "reached"
    assert report.dispatch_rounds == 3
    assert m.get(reg("a0")) == 1 and m.get(reg("a1")) == 2


def test_signed_bound_across_the_sign_bit_runs(lab):
    # blt s0, s1 on a table whose pointer passes 0x80000000, the lowest
    # signed 32-bit value: the branch stays taken as at TABLE_BASE
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one", "g_two"])
    for base in (TABLE_BASE, 0x7ffffff8):
        # the default stack top would overlap the table at 0x7ffffff8
        m, report = run_layout(img, spec._replace(table_base=base),
                               addrs["init"], stack_top=0x200000)
        assert report.outcome == "reached", base
        assert report.dispatch_rounds == 3
        assert m.get(reg("a0")) == 1 and m.get(reg("a1")) == 2


def test_negative_signed_bound_runs(lab):
    # blt s3, s2 counting down to a table at 0x0: the bound is -4
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one", "g_two"], loop="nloop",
                    init="ninit")._replace(table_base=0)
    m, report = run_layout(img, spec, addrs["ninit"])
    assert layout_payload(spec).register_seeds[reg("s3")] == 0xfffffffc
    assert report.outcome == "reached"
    assert report.dispatch_rounds == 3
    assert m.get(reg("a0")) == 1 and m.get(reg("a1")) == 2


@pytest.fixture(scope="module")
def zero_lab():
    """An autonomous loop bounded by x0 (blt s0, zero), its initializer,
    one ret gadget and a landing."""
    b = CodeBuilder(base=0)
    b.label("init")
    b.emit("lw", "s0", "sp", 0)
    b.emit("lw", "t0", "sp", 4)
    b.emit("jr", "t0")
    b.label("loop")
    b.emit("lw", "a5", "s0", 0)
    b.emit("jalr", "ra", "a5", 0)
    b.emit("addi", "s0", "s0", 4)
    b.branch("blt", "s0", "zero", "loop")
    b.label("g_ret")
    b.emit("ret")
    b.label("landing")
    b.emit("ebreak")
    return b.image(), dict(b.labels)


def test_zero_bound_chain_runs_only_below_zero(zero_lab):
    """blt s0, zero keeps looping only while the signed pointer is
    negative: a table at 0x40000 would leave after one round, so layout
    refuses it; one at 0x80001000 runs every round."""
    img, addrs = zero_lab
    spec = spec_for(img, addrs, ["g_ret", "g_ret"])
    with pytest.raises(ToolError, match=(
            r"s0 lt zero does not hold for every round \(signed 32-bit\): "
            "the table pointer runs from 0x40004 to 0x40008")):
        layout_payload(spec._replace(table_base=0x40000))
    m, report = run_layout(img, spec._replace(table_base=0x80001000),
                           addrs["init"])
    assert report.outcome == "reached"
    assert report.dispatch_rounds == 3
    assert report.stealth


def test_classic_chain_runs(classic_lab):
    img, addrs = classic_lab
    disp = dispatcher_at(img, addrs["dispatch"], DISPATCHER_CLASSIC)
    ini = initializer_at(img, addrs["init"], disp)
    spec = ChainSpec(
        dispatcher=disp, initializer=ini,
        steps=(ChainStep(gadget_at(img, addrs["g_a"])),
               ChainStep(gadget_at(img, addrs["g_b"])),
               ChainStep(gadget_at(img, addrs["g_b"]))),
        return_to=addrs["landing"], table_base=TABLE_BASE,
        image=img, dispatch_reg=reg("t1"))
    assert not has_errors(validate_chain(spec))
    m, report = run_layout(img, spec, addrs["init"])
    assert report.outcome == "reached"
    assert report.dispatch_rounds == 4
    assert m.get(reg("a0")) == 9
    assert report.shadow_pushes == 0        # nothing links, nothing pushed


def test_two_stage_chain_runs(two_stage):
    img, addrs = two_stage
    disp = dispatcher_at(img, addrs["stage1"], DISPATCHER_TWO_STAGE)
    ini = initializer_at(img, addrs["init"], disp)
    spec = ChainSpec(dispatcher=disp, initializer=ini,
                     steps=(ChainStep(gadget_at(img, addrs["g_li_a0"])),),
                     return_to=addrs["landing"], table_base=TABLE_BASE,
                     image=img, dispatch_reg=reg("t1"))
    m, report = run_layout(img, spec, addrs["init"])
    assert report.outcome == "reached"
    assert report.dispatch_rounds == 2
    assert m.get(reg("a0")) == 3


def test_wrong_bound_exits_early(lab):
    img, addrs = lab
    spec = spec_for(img, addrs, ["g_one", "g_two"],
                    seed_overrides={reg("s1"): 1})
    _, report = run_layout(img, spec, addrs["init"])
    assert report.outcome == "fault"
    assert "breakpoint" in report.fault


# --- classic and two-stage layouts in every direction ------------------------

def dispatch_lab(xlen, shape, stride, offset):
    """A classic (`classic-post`: load, then advance; `classic-pre`:
    advance, then load) or two-stage dispatcher on s0 reading targets at
    `offset`, an initializer loading s0, t1, t2 and t3 from the stack and
    jumping via t3, and two steps that jump back via t1."""
    b = CodeBuilder(xlen=xlen)
    w = xlen // 8
    load = ("lw" if xlen == 32 else "ld", "a5", "s0", offset)
    add = ("addi", "s0", "s0", stride)
    b.label("loop")
    if shape == "two-stage":
        b.emit(*add)
        b.emit("jr", "t2")
        b.label("stage2")
        b.emit(*load)
    else:
        for insn in ([load, add] if shape == "classic-post" else [add, load]):
            b.emit(*insn)
    b.emit("jr", "a5")
    b.label("init")
    for i, r in enumerate(("s0", "t1", "t2", "t3")):
        b.emit(load[0], r, "sp", i * w)
    b.emit("jr", "t3")
    b.label("g_bump")
    b.emit("addi", "a0", "a0", 1)
    b.emit("jr", "t1")
    b.label("g_li")
    b.emit("li", "a1", 7)
    b.emit("jr", "t1")
    b.label("landing")
    b.emit("ebreak")
    return b.image(), dict(b.labels)


@pytest.mark.parametrize("base", ["0x40000", "0x0", "top"])
@pytest.mark.parametrize("offset", [0, 12, -8])
@pytest.mark.parametrize("shape", ["classic-post", "classic-pre",
                                   "two-stage"])
@pytest.mark.parametrize("entries_per_round", [1, -1, 2, -2])
@pytest.mark.parametrize("xlen", [32, 64])
def test_classic_and_two_stage_layouts_reach(xlen, entries_per_round, shape,
                                             offset, base):
    """Each layout reaches with one dispatch round per table entry, from
    a table at 0x40000, at 0 or ending at the top of memory; a stride of
    two entries is refused."""
    w = xlen // 8
    img, a = dispatch_lab(xlen, shape, entries_per_round * w, offset)
    kind = DISPATCHER_CLASSIC if shape != "two-stage" else DISPATCHER_TWO_STAGE
    disp, = [d for d in find_dispatchers(img) if d.kind == kind
             and d.loop_entry == a["loop"]
             and (d.stage2 is None or d.stage2.start == a["stage2"])]
    assert disp.pre_increment == (shape != "classic-post")
    steps = (ChainStep(gadget_at(img, a["g_bump"]), 2),
             ChainStep(gadget_at(img, a["g_li"])))
    entries = 4
    table_base = (1 << xlen) - entries * w if base == "top" else int(base, 0)
    spec = ChainSpec(dispatcher=disp, initializer=initializer_at(
                         img, a["init"], disp),
                     steps=steps, return_to=a["landing"],
                     table_base=table_base, image=img, dispatch_reg=reg("t1"))
    diags = validate_chain(spec)
    if abs(entries_per_round) == 2:
        assert codes(diags, "error") == ["StrideMismatch"]
        return
    assert not has_errors(diags), diags
    m, report = run_layout(img, spec, a["init"])
    assert layout_payload(spec).entries == entries
    assert report.outcome == "reached", report
    assert report.dispatch_rounds == entries
    assert m.get(reg("a0")) == 2 and m.get(reg("a1")) == 7


# --- summaries: each part of a chain once ------------------------------------

@pytest.mark.parametrize("workload", ["scan-dense-rv32", "scan-clean-rv64",
                                      "chain-long"])
def test_chain_summarizes_each_part_once(monkeypatch, workload):
    """Parsing, validating and laying out a benchmark chain summarizes
    the dispatcher's round, the initializer and each of the 9 steps once:
    11 calls, where the round and the initializer were summarized twice
    (13) and validation and layout used to summarize each part of the
    chain again (24)."""
    corpus = benchmark_corpus()
    for seed in range(1, 4):
        c = corpus.build(workload, seed)
        img = parse_elf(c.file_bytes) if c.fmt == "elf" \
            else from_bytes(c.code, c.base, c.xlen)
        calls = count_calls(monkeypatch, "summarize_dataflow")
        spec = parse_chain_text(c.chain_text(), img)
        validate_chain(spec)
        layout_payload(spec)
        assert len(spec.steps) == 9
        assert len(calls) == 11, (seed, len(calls))
        monkeypatch.undo()


# --- hostile chain files ----------------------------------------------------

def _valid_chain_texts():
    """(image, chain text) that parse, validate and lay out: an
    autonomous chain at both XLENs, a classic one and a two-stage one,
    between them using every directive of `parse_chain_text`."""
    out = []
    for xlen in (32, 64):
        img, a = build_adg_fixture(xlen)
        out.append((img, f"dispatcher {a['loop']:#x}\n"
                         f"initializer {a['init']:#x}\n"
                         f"table-base {TABLE_BASE:#x}  # the buffer\n"
                         f"return-to {a['landing']:#x}\n"
                         f"step {a['g_li_a0']:#x} 2 a0 gets 1\n"
                         f"step {a['g_bump_a2']:#x}\n"
                         "reserve s2,s3\nseed a3=0x5\n"
                         "data str:/bin/sh path\ndata hex:00ff raw\n"))
    for build, loop, step in ((build_classic_fixture, "dispatch", "g_li_a0"),
                              (build_two_stage_fixture, "stage1", "g_li_a0")):
        img, a = build()
        out.append((img, f"dispatcher {a[loop]:#x}\n"
                         f"initializer {a['init']:#x}\n"
                         f"table-base {TABLE_BASE:#x}\n"
                         f"return-to {a['landing']:#x}\n"
                         "dispatch-reg t1\n"
                         f"step {a[step]:#x} 3\n"))
    return out


_CHAIN_TEXTS = _valid_chain_texts()
_DIRECTIVES = ("dispatcher", "initializer", "table-base", "return-to",
               "dispatch-reg", "reserve", "seed", "step", "data")
_TOKENS = st.one_of(
    st.sampled_from(_DIRECTIVES + (
        "a5", "t1", "ra", "zero", "x0", "x32", "fp", "s0,s1", "a0=",
        "=5", "a0=0x" + "f" * 20, "hex:", "hex:0", "hex:zz", "str:",
        "str:\x00", "#", "0x", "0b101", "0o17", "1_000", "-1", "0x-4",
        "1e3", "٣", "0x5", "2")),
    st.sampled_from(("５", "²", "１２", "0x５", "٣٣", "Ⅻ", "²³",
                     "step ", "\ud800", "\udfff", "str:\ud800",
                     "a0=\udc80", "hex:\ud83d")),
    st.integers(-(1 << 70), 1 << 70).map(hex),
    st.integers(0, 1 << 40).map(str),
    st.text(st.characters(codec=None, categories=None), max_size=6))


@st.composite
def _hostile_chain(draw):
    """A valid chain text, mutated: lines dropped, repeated or added,
    tokens replaced, and lines cut short."""
    img, text = draw(st.sampled_from(_CHAIN_TEXTS))
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(("drop", "repeat", "add", "token", "cut")))
        at = draw(st.integers(0, max(len(lines) - 1, 0)))
        if op == "add" or not lines:
            words = [draw(st.sampled_from(_DIRECTIVES))]
            words += draw(st.lists(_TOKENS, max_size=4))
            lines.insert(at, " ".join(words))
        elif op == "drop":
            del lines[at]
        elif op == "repeat":
            lines.insert(at, lines[at])
        elif op == "token":
            words = lines[at].split(" ")
            k = draw(st.integers(0, len(words) - 1))
            words[k] = draw(_TOKENS)
            lines[at] = " ".join(words)
        else:
            lines[at] = lines[at][:draw(st.integers(0, len(lines[at])))]
    return img, "\n".join(lines) + draw(st.sampled_from(("", "\n", "\r\n")))


# Layout writes one table entry per repeat: a chain asking for more than
# this many is laid out only by the tests of large payloads, so every
# example here runs in bounded time and memory.
_LAYOUT_ENTRIES = 1 << 12


@given(_hostile_chain())
@settings(max_examples=400, deadline=None)
def test_hostile_chain_text_raises_only_tool_errors(chain):
    """`parse_chain_text` on a mutated chain file, then `validate_chain`
    and `layout_payload` on whatever parses: nothing but `ToolError`
    escapes."""
    img, text = chain
    try:
        spec = parse_chain_text(text, img)
    except ToolError:
        return
    for check in (validate_chain, layout_payload):
        if check is layout_payload and sum(
                s.repeat for s in spec.steps) > _LAYOUT_ENTRIES:
            return
        try:
            check(spec)
        except ToolError:
            pass


def test_the_hostile_chains_start_valid():
    """Unmutated, each chain text lays out with no error diagnostic, so
    the property test starts from chains that reach every layer."""
    for img, text in _CHAIN_TEXTS:
        spec = parse_chain_text(text, img)
        assert not has_errors(validate_chain(spec)), text
        layout_payload(spec)
