"""Scanner behavior checked against the independent forward enumerator."""

import importlib

import pytest

from rvjop.assembler import assemble
from rvjop.chain import parse_chain_text
from rvjop.decoder import decode_one
from rvjop.errors import InvalidEncoding, ToolError, Truncated
from rvjop.image import from_bytes
from rvjop.query import Query, run_query
from rvjop.scanner import (NATURAL, SHIFTED, Gadget, ScanConfig, dedupe,
                           extract_gadgets, gadget_at)

from conftest import (CJR_A5, TABLE_BASE, CodeBuilder, build_e2e_fixture,
                      build_shifted_fixture)
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
    got = as_set(extract_gadgets(img, ScanConfig(max_len=4)))
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
        cfg = ScanConfig(max_len=4, allow_interior_branches=allow)
        got = as_set(extract_gadgets(img, cfg))
        want = brute_force(img, max_len=4, allow_branches=allow)
        assert got == want
    # the branch is interior only when allowed
    with_b = extract_gadgets(img, ScanConfig(max_len=4,
                                             allow_interior_branches=True))
    assert any(len(g.instructions) == 3 for g in with_b)


def test_every_prefix_emitted():
    b = CodeBuilder()
    b.emit("addi", "a0", "a0", 1)
    b.emit("addi", "a1", "a1", 2)
    b.emit("addi", "a2", "a2", 3)
    b.emit("ret")
    img = b.image()
    gadgets = extract_gadgets(img, ScanConfig(max_len=3))
    by_len = {}
    for g in gadgets:
        if g.terminator.control_flow.is_return:
            by_len[len(g.instructions)] = g
    assert set(by_len) == {1, 2, 3, 4}


def test_shifted_gadget_alignment(shifted):
    img, addrs = shifted
    gadgets = extract_gadgets(img, ScanConfig(max_len=2))
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
    g2 = extract_gadgets(img, ScanConfig(max_len=2))
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
    gadgets = extract_gadgets(img, ScanConfig(max_len=1))
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
    for _ in range(40):
        b.emit("nop")
    img = b.image()
    with pytest.raises(ToolError):
        gadget_at(img, b.base, limit=32)


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

    for name in ("rvjop.image", "rvjop.scanner", "rvjop.classify"):
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


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(max_len=-1)
    with pytest.raises(ValueError):
        ScanConfig(max_len=99)
    assert ScanConfig(max_len=0).max_len == 0   # terminator-only scans


def test_gadget_properties():
    b = CodeBuilder()
    b.emit("addi", "a2", "a2", 4)
    b.emit("c.jr", "a5")
    img = b.image()
    g = [x for x in extract_gadgets(img, ScanConfig(max_len=1))
         if len(x.instructions) == 2][0]
    assert g.link_register.name == "a5"
    assert not g.terminator_links
    assert g.length == 1
    assert g.end == b.base + 6
    assert "addi" in g.render()
