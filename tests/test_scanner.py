"""Scanner behavior checked against the independent forward enumerator."""

import importlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rvjop.scanner
from rvjop.assembler import assemble
from rvjop.chain import parse_chain_text
from rvjop.decoder import decode_one
from rvjop.errors import InvalidEncoding, ToolError, Truncated
from rvjop.image import DecodedSegment, from_bytes
from rvjop.query import Query, run_query
from rvjop.scanner import (NATURAL, SHIFTED, Gadget, dedupe, extract_gadgets,
                           gadget_at, terminators)

from conftest import (CJR_A5, PF_R, PF_W, PF_X, TABLE_BASE, CodeBuilder,
                      build_e2e_fixture, build_shifted_fixture,
                      make_elf_image)
from oracle import brute_force


def as_set(gadgets):
    return {(g.start, tuple(x.encoding for x in g.instructions), g.alignment)
            for g in gadgets}


def test_matches_oracle_on_simple_image():
    b = CodeBuilder()
    b.emit("li", "a0", 1)
    b.emit("ret")
    b.emit("addi", "a2", "a2", 4)
    b.emit("c.jr", "a5")
    img = b.image()
    got = as_set(extract_gadgets(img, 4))
    want = brute_force(img, max_len=4)
    assert got == want
    assert len(got) > 0


def test_matches_oracle_with_branches_allowed():
    b = CodeBuilder()
    b.label("top")
    b.emit("addi", "a0", "a0", -1)
    b.branch("bne", "a0", "zero", "top")
    b.emit("ret")
    img = b.image()
    for allow in (False, True):
        got = as_set(extract_gadgets(img, 4, branches=allow))
        want = brute_force(img, max_len=4, allow_branches=allow)
        assert got == want
    # the branch is interior only when allowed
    with_b = extract_gadgets(img, 4, branches=True)
    assert any(len(g.instructions) == 3 for g in with_b)


def test_every_prefix_emitted():
    b = CodeBuilder()
    b.emit("addi", "a0", "a0", 1)
    b.emit("addi", "a1", "a1", 2)
    b.emit("addi", "a2", "a2", 3)
    b.emit("ret")
    img = b.image()
    gadgets = extract_gadgets(img, 3)
    by_len = {}
    for g in gadgets:
        if g.terminator.control_flow.is_return:
            by_len[len(g.instructions)] = g
    assert set(by_len) == {1, 2, 3, 4}


def test_shifted_gadget_alignment(shifted):
    img, addrs = shifted
    gadgets = extract_gadgets(img, 2)
    hidden = addrs["hide_cjr"] + 2
    match = [g for g in gadgets if g.start == hidden]
    assert match and all(g.alignment == SHIFTED for g in match)
    naturals = [g for g in gadgets if g.alignment == NATURAL]
    assert naturals
    # shifted starts never appear in the canonical sweep
    seg = img.executable_segments[0]
    assert not img.decode_table[seg.vaddr].natural(hidden)
    assert as_set(gadgets) == brute_force(img, max_len=2)


def test_sweep_resyncs_after_junk():
    b = CodeBuilder()
    b.emit("ret")
    b.word(0xFFFFFFFF)                    # undecodable word
    b.emit("c.jr", "a5")
    img = b.image()
    table = img.decode_table[img.executable_segments[0].vaddr]
    assert table.natural(b.base)
    assert table.natural(b.base + 8)      # resynced past the junk


def test_max_len_cap_and_ordering():
    b = CodeBuilder()
    for k in range(6):
        b.emit("addi", "a0", "a0", k)
    b.emit("ret")
    img = b.image()
    g2 = extract_gadgets(img, 2)
    assert all(len(g.instructions) - 1 <= 2 for g in g2)
    starts = [(g.start, len(g.instructions)) for g in g2]
    assert starts == sorted(starts)


def test_dedupe_keeps_lowest_address():
    b = CodeBuilder()
    b.emit("li", "a0", 1)
    b.emit("ret")
    b.emit("li", "a0", 1)
    b.emit("ret")
    img = b.image()
    gadgets = extract_gadgets(img, 1)
    unique = dedupe(gadgets)
    assert len(unique) < len(gadgets)
    bytes_seen = [tuple(x.encoding for x in g.instructions) for g in unique]
    assert len(bytes_seen) == len(set(bytes_seen))
    li_ret = [g for g in unique
              if len(g.instructions) == 2
              and g.instructions[0].matches_op("li")]
    assert li_ret[0].start == b.base


def test_gadget_at_follows_execution_order():
    b = CodeBuilder()
    b.label("g")
    b.emit("li", "a7", 56)
    b.emit("ecall")
    b.emit("ret")
    img = b.image()
    g = gadget_at(img, b.labels["g"])
    assert [x.mnemonic for x in g.instructions] == ["addi", "ecall", "jalr"]
    assert g.terminator.control_flow.is_return


def test_gadget_at_rejects_runaway():
    b = CodeBuilder()
    for _ in range(70):
        b.emit("nop")
    img = b.image()
    with pytest.raises(ToolError, match="no terminator within 64 "
                       f"instructions of 0x{b.base:x}"):
        gadget_at(img, b.base)


def test_gadget_at_raises_the_decoders_own_errors():
    b = CodeBuilder()
    b.label("junk")
    b.emit("nop")
    b.word(0xFFFFFFFF)                    # undecodable word
    b.label("tail")
    b.emit("nop")                         # runs off the segment end
    img = b.image()
    with pytest.raises(InvalidEncoding) as exc:
        gadget_at(img, b.labels["junk"])
    assert str(exc.value) == f"invalid encoding 0xffff at 0x{b.base + 4:x} (undefined)"
    with pytest.raises(Truncated) as exc:
        gadget_at(img, b.labels["tail"])
    assert str(exc.value) == (f"truncated fetch at 0x{b.base + 12:x}: "
                              f"need 2 bytes, have 0")


def test_gadget_at_decodes_once_for_a_caller_that_drops_the_error(
        monkeypatch):
    # The decoder's own error takes a second decode of the bytes that do
    # not decode; `decoder_error=False` raises a plain ToolError without.
    b = CodeBuilder()
    b.emit("nop")
    b.word(0xFFFFFFFF)
    b.label("tail")
    b.emit("nop")
    img = b.image()
    calls = []
    monkeypatch.setattr(rvjop.scanner, "decode_one",
                        lambda *args: calls.append(args) or decode_one(*args))
    for start, bad in ((b.base, b.base + 4),
                       (b.labels["tail"], b.labels["tail"] + 4)):
        with pytest.raises(ToolError) as exc:
            gadget_at(img, start, decoder_error=False)
        assert type(exc.value) is ToolError
        assert str(exc.value) == f"0x{bad:x} does not decode"
        assert calls == []
        with pytest.raises((InvalidEncoding, Truncated)):
            gadget_at(img, start)
        assert len(calls) == 1
        calls.clear()


def test_gadget_at_rejects_data_and_a_direct_jump_first():
    code = b"".join(assemble(*insn) for insn in (
        ("nop", ()), ("jal", ("zero", 4)), ("ret", ())))
    img = make_elf_image([(0x10000, code, PF_R | PF_X),
                          (0x20000, bytes(16), PF_R | PF_W)])
    for address in (0x20000, 0x30000):
        with pytest.raises(ToolError) as exc:
            gadget_at(img, address)
        assert str(exc.value) == (f"0x{address:x} is not in an executable "
                                  f"segment")
    with pytest.raises(ToolError) as exc:
        gadget_at(img, 0x10000)
    assert str(exc.value) == ("direct jump at 0x10004 before any indirect "
                              "terminator")
    assert gadget_at(img, 0x10008).terminator.control_flow.is_return


def test_gadget_at_rejects_odd_offset():
    b = CodeBuilder()
    b.emit("li", "a0", 1)
    b.emit("ret")
    img = b.image()
    with pytest.raises(ToolError) as exc:
        gadget_at(img, b.base + 1)
    assert type(exc.value) is ToolError
    assert f"0x{b.base + 1:x} is misaligned" in str(exc.value)


def test_each_halfword_decoded_once_per_image(monkeypatch):
    img, a = build_e2e_fixture()
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return decode_one(*args)

    for name in ("rvjop.decoder", "rvjop.scanner", "rvjop.classify"):
        monkeypatch.setattr(importlib.import_module(name), "decode_one",
                            counting, raising=False)
    run_query(img, Query(all_=True))
    parse_chain_text(f"""
        dispatcher {a['loop']:#x}
        initializer {a['init']:#x}
        table-base {TABLE_BASE:#x}
        return-to {a['landing']:#x}
        step {a['g_count']:#x} 3
        step {a['g_release']:#x}
        """, img)
    halfwords = sum(len(s.data) // 2 for s in img.executable_segments)
    assert 0 < calls <= halfwords


# Upper halfwords laid after every 32-bit low halfword: all clear, all
# set, and mixes that vary rs1 and the immediate of a jalr.
_UPPERS = (0x0000, 0xFFFF, 0x5A5A, 0x00F3)


@pytest.mark.parametrize("xlen", (32, 64))
def test_terminator_bit_test_misses_no_indirect_jump(xlen):
    """Every low halfword, each 32-bit one under several upper halves:
    each word the decoder calls an indirect jump is one `terminators`
    reports."""
    words = [low for low in range(1 << 16) if low & 3 != 3]
    words += [low | up << 16 for up in _UPPERS
              for low in range(3, 1 << 16, 4)]
    img = from_bytes(b"".join(w.to_bytes(4, "little") for w in words),
                     0x1000, xlen)
    want = set()
    for i, w in enumerate(words):
        try:
            if decode_one(w.to_bytes(4, "little"), 0, xlen).is_terminator:
                want.add(0x1000 + 4 * i)
        except (InvalidEncoding, Truncated):
            pass
    got = {t.address for t in terminators(img.decode_table[0x1000])}
    assert want and want <= got


def test_extract_decodes_only_around_the_jumps(decode_log):
    code = bytes.fromhex("13051500") * 64 + bytes.fromhex("67800000")
    ret = 0x1100                                   # 64 x addi a0, a0, 1; ret
    for max_len in (0, 1, 4):
        decode_log.clear()
        img = from_bytes(code, 0x1000, 32)
        gadgets = extract_gadgets(img, max_len)
        # each addi's upper halfword is a c.nop hint, so growth also
        # starts a gadget one halfword into every addi it passes
        window = list(range(ret - 4 * max_len, ret + 2, 2))
        assert [g.start for g in gadgets] == window
        # the ret and the halfwords its max_len predecessors span
        assert sorted(decode_log) == window


def test_branches_grow_only_when_a_request_asks(decode_log):
    """A straight request probes the branch before a jump but grows
    nothing through it; the first request for branches decodes what
    lies before the branch, and nothing else."""
    b = CodeBuilder()
    b.emit("addi", "a0", "a0", 1)
    b.emit("addi", "a0", "a0", 1)
    b.label("beq")
    b.emit("beq", "a0", "a1", 8)
    b.emit("addi", "a0", "a0", 1)
    b.emit("jr", "a5")
    img = b.image()
    assert (b.base, b.labels["beq"]) == (0x10000, 0x10008)
    extract_gadgets(img, 4)
    # below the beq only the shifted path through an addi's upper
    # halfword is decoded
    assert sorted(decode_log) == [0x10006, 0x10008, 0x1000a, 0x1000c,
                                  0x1000e, 0x10010]
    decode_log.clear()
    extract_gadgets(img, 4, branches=True)
    assert sorted(decode_log) == [0x10000, 0x10002, 0x10004]


# Halfwords and words for the property below: random ones, conditional
# branches, and indirect jumps with random registers and immediates.
_CODE_PIECES = st.one_of(
    st.binary(min_size=2, max_size=2),
    st.integers(0, 2**32 - 1).map(lambda w: (w | 3).to_bytes(4, "little")),
    st.integers(0, 2**32 - 1).map(
        lambda w: (w & ~0x7F | 0x63).to_bytes(4, "little")),       # b<cond>
    st.integers(0, 2**32 - 1).map(
        lambda w: (w & ~0x707F | 0x67).to_bytes(4, "little")),     # jalr
    st.integers(0, 2**16 - 1).map(
        lambda h: (h & ~0xE07F | 0x8002).to_bytes(2, "little")),   # c.jr/c.jalr
)


def _probes(fn):
    """(fn's result, how many times it read a decode table)."""
    calls = 0
    real = DecodedSegment.at

    def counted(table, address):
        nonlocal calls
        calls += 1
        return real(table, address)

    with mock.patch.object(DecodedSegment, "at", counted):
        return fn(), calls


def _refuse_probes(table, address):
    raise AssertionError(f"probed 0x{address:x}")


@given(pieces=st.lists(_CODE_PIECES, max_size=40),
       tail=st.binary(max_size=1), xlen=st.sampled_from((32, 64)),
       requests=st.lists(st.tuples(st.integers(0, 6), st.booleans()),
                         min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_extract_matches_oracle_on_random_code(pieces, tail, xlen, requests):
    """Requests in any order on one image: each reads the image's one
    growth and equals a fresh growth and the oracle at its shape; one
    that an earlier request covers (no shorter, and with branches if it
    asks for them) reads no decode table; and growing in steps probes
    the table exactly as often as growing to the widest shape at once."""
    code = b"".join(pieces) + tail
    img = from_bytes(code, 0x2000, xlen)
    seen, probes = [], 0
    widest = (max(n for n, _ in requests), any(b for _, b in requests))
    for max_len, branches in requests + [widest]:
        if any(n >= max_len and (b or not branches) for n, b in seen):
            with mock.patch.object(DecodedSegment, "at", _refuse_probes):
                gadgets = extract_gadgets(img, max_len, branches=branches)
        else:
            gadgets, calls = _probes(
                lambda: extract_gadgets(img, max_len, branches=branches))
            probes += calls
        seen.append((max_len, branches))
        fresh = extract_gadgets(from_bytes(code, 0x2000, xlen), max_len,
                                branches=branches)
        assert ([(g.start, g.instructions) for g in gadgets]
                == [(g.start, g.instructions) for g in fresh])
        assert as_set(gadgets) == brute_force(img, max_len=max_len,
                                              allow_branches=branches)
        for g in gadgets:
            assert g.encoding == b"".join(x.encoding for x in g.instructions)
    _, at_once = _probes(lambda: extract_gadgets(
        from_bytes(code, 0x2000, xlen), widest[0], branches=widest[1]))
    assert probes == at_once


def test_extract_max_len_validation():
    img = from_bytes(bytes.fromhex("67800000"), 0x1000, 32)      # ret
    for bad in (-1, 33, 99):
        with pytest.raises(ToolError):
            extract_gadgets(img, bad)
    assert len(extract_gadgets(img, 0)) == 1    # terminator-only scans


def test_gadget_properties():
    b = CodeBuilder()
    b.emit("addi", "a2", "a2", 4)
    b.emit("c.jr", "a5")
    img = b.image()
    g = [x for x in extract_gadgets(img, 1)
         if len(x.instructions) == 2][0]
    assert g.link_register.name == "a5"
    assert not g.terminator_links
    assert len(g.interior) == 1
    assert g.end == b.base + 6
    assert "addi" in g.render()
