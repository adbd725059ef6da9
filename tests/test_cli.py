"""End-to-end command-line runs against files on disk."""

import dataclasses
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rvjop.chain
import rvjop.cli
import rvjop.decoder
import rvjop.image
import rvjop.query
import rvjop.sim
from rvjop.assembler import assemble
from rvjop.cli import main
from rvjop.scanner import extract_gadgets

from conftest import (TABLE_BASE, CodeBuilder, benchmark_corpus,
                      build_adg_fixture, build_clean_fixtures,
                      build_e2e_fixture, make_elf, make_huge_segment_elf64,
                      make_zero_fill_elf, refuse_calls)

BASE = 0x10000


@pytest.fixture(scope="module")
def adg_blob(tmp_path_factory):
    img, addrs = build_adg_fixture()
    path = tmp_path_factory.mktemp("cli") / "adg.bin"
    path.write_bytes(img.segments[0].data)
    return path, addrs


@pytest.fixture(scope="module")
def adg_elf(tmp_path_factory):
    img, addrs = build_adg_fixture()
    path = tmp_path_factory.mktemp("cli") / "adg.elf"
    path.write_bytes(make_elf([(BASE, img.segments[0].data, 5)]))
    return path, addrs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


RAW = lambda p: ["--raw", str(p), "--base", hex(BASE)]


# --- input handling ---------------------------------------------------------

def test_requires_an_image(capsys):
    code, _, err = run(capsys, "scan")
    assert code == 2 and "image is required" in err


def test_rejects_two_images(capsys, adg_blob, adg_elf):
    blob, _ = adg_blob
    elf, _ = adg_elf
    code, _, err = run(capsys, "scan", "--raw", str(blob),
                       "--binary", str(elf))
    assert code == 2 and "not both" in err


def test_missing_file_is_a_bad_image(capsys):
    code, _, err = run(capsys, "scan", "--binary", "/nonexistent/x.elf")
    assert code == 3


def test_garbage_elf_is_a_bad_image(capsys, tmp_path):
    path = tmp_path / "junk.elf"
    path.write_bytes(b"MZ not an elf at all")
    code, _, err = run(capsys, "scan", "--binary", str(path))
    assert code == 3 and "rvjop:" in err


def test_segment_past_address_space_is_a_bad_image(capsys, tmp_path):
    path = tmp_path / "huge.elf"
    path.write_bytes(make_huge_segment_elf64(bytes.fromhex("67800000")))
    code, _, err = run(capsys, "scan", "--binary", str(path))
    assert code == 3 and "address space" in err


def test_zero_fill_over_the_limit_is_a_bad_image(capsys, tmp_path):
    path = tmp_path / "fill.elf"
    path.write_bytes(make_zero_fill_elf((64 << 20) + 4096))
    code, _, err = run(capsys, "scan", "--binary", str(path))
    assert code == 3 and "zero fill" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_shows_usage_not_implementation_notes(capsys, flag):
    code, out, err = run(capsys, flag)
    assert (code, err) == (0, "")
    assert out.startswith("usage: rvjop ")
    for status in ("0  results or success", "1  nothing found",
                   "2  bad usage", "3  unreadable or unsupported input"):
        assert status in out
    for note in ("os._exit", "collector", "_table_parse"):
        assert note not in out


def test_unknown_subcommand_is_usage(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


# --- scan -------------------------------------------------------------------

def test_scan_text(capsys, adg_blob):
    blob, addrs = adg_blob
    code, out, _ = run(capsys, "scan", *RAW(blob))
    assert code == 0
    assert f"0x{addrs['g_li_a0']:08x}:" in out
    assert out.rstrip().splitlines()[-1].endswith("gadgets")


def test_scan_records(capsys, adg_blob):
    blob, _ = adg_blob
    code, out, _ = run(capsys, "scan", *RAW(blob), "--format", "records")
    assert code == 0
    recs = [line.split() for line in out.splitlines()]
    assert recs and all(len(r) == 5 and r[2] for r in recs)


def test_scan_empty_image(capsys, tmp_path):
    b = CodeBuilder()
    b.emit("nop")
    b.emit("nop")
    path = tmp_path / "boring.bin"
    path.write_bytes(b.blob())
    code, out, _ = run(capsys, "scan", *RAW(path))
    assert code == 1
    assert "0 gadgets" in out


def test_scan_elf_input(capsys, adg_elf):
    elf, addrs = adg_elf
    code, out, _ = run(capsys, "scan", "--binary", str(elf))
    assert code == 0 and f"0x{addrs['g_li_a0']:08x}:" in out


# --- query ------------------------------------------------------------------

def test_query_filters(capsys, adg_blob):
    blob, addrs = adg_blob
    code, out, _ = run(capsys, "query", *RAW(blob),
                       "--op=li", "--imm=1", "--rr=a0", "--max=1")
    assert code == 0
    assert f"0x{addrs['g_li_a0']:08x}:" in out


def test_query_no_hits(capsys, adg_blob):
    blob, _ = adg_blob
    code, out, _ = run(capsys, "query", *RAW(blob), "--op=li", "--imm=77")
    assert code == 1 and "0 gadgets" in out


def test_query_bad_flag(capsys, adg_blob):
    blob, _ = adg_blob
    code, _, err = run(capsys, "query", *RAW(blob), "--opp=li")
    assert code == 2 and "opp" in err


def test_query_needs_a_filter(capsys, adg_blob):
    blob, _ = adg_blob
    code, _, err = run(capsys, "query", *RAW(blob))
    assert code == 2


@pytest.mark.parametrize("cap", ["1", "4", "6"])
def test_scan_is_the_query_for_everything(capsys, adg_blob, cap):
    blob, _ = adg_blob
    for fmt in ("text", "records"):
        scan = run(capsys, "scan", *RAW(blob), "--max", cap, "--format", fmt)
        query = run(capsys, "query", *RAW(blob), "--all", "--max", cap,
                    "--format", fmt)
        assert scan == query and scan[0] == 0


def test_query_negative_immediate(capsys, tmp_path):
    b = CodeBuilder(base=BASE)
    b.emit("nop")
    b.label("down")
    b.emit("addi", "sp", "sp", -16)
    b.emit("ret")
    path = tmp_path / "down.bin"
    path.write_bytes(b.blob())
    want = f"0x{b.labels['down']:08x}: addi sp, sp, -16\n"
    for imm in (["--imm=-0x10"], ["--imm", "-16"]):
        code, out, _ = run(capsys, "query", *RAW(path), *imm, "--max=1")
        assert code == 0 and out.startswith(want), imm
    # a separate word that starts with "-" and is no decimal number reads
    # as an option, so argparse finds --imm without its value
    code, out, err = run(capsys, "query", *RAW(path), "--imm", "-0x10")
    assert code == 2 and out == ""
    assert "argument --imm: expected one argument" in err


def test_query_bad_value_is_an_argparse_error(capsys, adg_blob):
    blob, _ = adg_blob
    code, out, err = run(capsys, "query", *RAW(blob), "--rr", "q9")
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.startswith("usage: rvjop query ")
    assert err.endswith(
        "rvjop query: error: argument --rr: 'q9' is not a register\n")


def test_query_unknown_role_is_a_usage_error(capsys, adg_blob):
    blob, _ = adg_blob
    code, out, err = run(capsys, "query", *RAW(blob),
                         "--role=dispatcher-clasic")
    assert code == 2 and out == "" and "Traceback" not in err
    assert ("argument --role: invalid choice: 'dispatcher-clasic'"
            in err)


def test_query_accepts_flag_prefixes(capsys, adg_blob):
    blob, _ = adg_blob
    full = run(capsys, "query", *RAW(blob), "--preserve=s0", "--link=ra")
    short = run(capsys, "query", *RAW(blob), "--pres=s0", "--lin=ra")
    assert full == short and full[0] == 0


# --- dispatchers and initializers -------------------------------------------

def test_dispatchers_lists_the_loop(capsys, adg_blob):
    blob, addrs = adg_blob
    code, out, _ = run(capsys, "dispatchers", *RAW(blob))
    assert code == 0
    assert f"0x{addrs['loop']:08x} dispatcher-autonomous" in out
    assert "while s0 lt s1" in out
    assert out.rstrip().splitlines()[-1].split()[1].startswith("candidate")


def test_dispatchers_lists_a_stage_one_with_each_stage_two(capsys, tmp_path):
    # addi s0, s0, 4; jr t2; then two stage twos: lw a5, 0(s0); jr a5 and
    # lw a4, 0(s0); jr a4.  Each line's target is its stage two's jump
    # register.
    blob = tmp_path / "pairs.bin"
    blob.write_bytes(bytes.fromhex(
        "130444006780030083270400678007000327040067000700"))
    code, out, err = run(capsys, "dispatchers", "--raw", str(blob))
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "0x00000000 dispatcher-two-stage table=s0 stride=+4 target=a5 pre "
        "stage2=0x00000008",
        "0x00000000 dispatcher-two-stage table=s0 stride=+4 target=a4 pre "
        "stage2=0x00000010",
        "2 candidates"]


def test_dispatchers_clean_image(capsys, tmp_path):
    name, img = build_clean_fixtures()[0]
    path = tmp_path / "clean.bin"
    path.write_bytes(img.segments[0].data)
    code, out, _ = run(capsys, "dispatchers", "--raw", str(path),
                       "--base", hex(img.segments[0].vaddr))
    assert code == 1 and "0 candidates" in out


def test_initializers_for_dispatcher(capsys, adg_blob):
    blob, addrs = adg_blob
    code, out, _ = run(capsys, "initializers", *RAW(blob),
                       "--dispatcher", hex(addrs["loop"]))
    assert code == 0
    assert f"0x{addrs['init']:08x} via t0" in out
    assert "s0<-stack+0" in out


def _initializers_for(capsys, tmp_path, *init):
    """`rvjop initializers` output for the adg loop (which needs s0 and s1)
    next to one initializer made of `init`, ending in `jr t0`."""
    b = CodeBuilder()
    b.label("loop")
    b.emit("lw", "a5", "s0", 0)
    b.emit("jalr", "ra", "a5", 0)
    b.emit("addi", "s0", "s0", 4)
    b.branch("blt", "s0", "s1", "loop")
    b.emit("ebreak")
    b.label("init")
    for mnemonic, *ops in init:
        b.emit(mnemonic, *ops)
    b.emit("jr", "t0")
    path = tmp_path / "init.bin"
    path.write_bytes(b.blob())
    code, out, _ = run(capsys, "initializers", *RAW(path),
                       "--dispatcher", hex(b.labels["loop"]))
    assert code == 0
    return b.labels["init"], out.splitlines()


def test_initializers_names_the_s0_base(capsys, tmp_path):
    init, lines = _initializers_for(capsys, tmp_path,
                                    ("lw", "s1", "s0", 8),
                                    ("lw", "s0", "sp", 0))
    assert lines == [f"0x{init:08x} via t0: s0<-stack+0 s1<-stack(s0)+8",
                     "1 candidate"]


def test_initializers_names_the_mem_base(capsys, tmp_path):
    init, lines = _initializers_for(capsys, tmp_path,
                                    ("lw", "s0", "a1", 0),
                                    ("lw", "s1", "a1", 4))
    assert lines == [f"0x{init:08x} via t0: s0<-mem(a1)+0 s1<-mem(a1)+4",
                     "1 candidate"]


def test_initializers_signs_negative_offsets(capsys, tmp_path):
    init, lines = _initializers_for(capsys, tmp_path,
                                    ("addi", "sp", "sp", -16),
                                    ("lw", "s0", "sp", 4),
                                    ("lw", "s1", "sp", 8))
    # the suffix after the addi is a second candidate, with sp unmoved
    assert lines == [f"0x{init:08x} via t0: s0<-stack-12 s1<-stack-8",
                     f"0x{init + 4:08x} via t0: s0<-stack+4 s1<-stack+8",
                     "2 candidates"]


def test_initializers_unknown_dispatcher(capsys, monkeypatch, adg_blob):
    blob, _ = adg_blob
    argv = ["initializers", *RAW(blob), "--dispatcher", "0x1"]
    want = (1, "0 candidates\n", "rvjop: no dispatcher at 0x1\n")
    assert run(capsys, *argv) == want
    # 0x1 is at an odd offset: no search is needed to say so
    refuse_calls(monkeypatch, "find_dispatchers")
    assert run(capsys, *argv) == want


# --- stats ------------------------------------------------------------------

def test_stats_table(capsys, adg_blob):
    blob, _ = adg_blob
    code, out, _ = run(capsys, "stats", *RAW(blob))
    assert code == 0
    assert "Register" in out and "Available gadgets" in out
    assert "unique gadgets" in out


def test_stats_top_truncates(capsys, adg_blob):
    blob, _ = adg_blob
    _, full, _ = run(capsys, "stats", *RAW(blob))
    _, top, _ = run(capsys, "stats", *RAW(blob), "--top", "1")
    assert len(top.splitlines()[0]) <= len(full.splitlines()[0])


@pytest.mark.parametrize("argv", [
    ["scan", "--max", "40"], ["scan", "--max", "-1"],
    ["stats", "--max", "33"], ["stats", "--top", "-1"],
    ["initializers", "--dispatcher", "0", "--max", "40"],
    ["initializers", "--dispatcher", "0", "--max", "-1"],
])
def test_out_of_range_counts_are_usage_errors(capsys, adg_blob, argv):
    """An interior cap outside [0, 32] or a negative --top exits 2 with
    argparse's message, not a traceback or a silently shortened table."""
    blob, _ = adg_blob
    code, out, err = run(capsys, *argv, *RAW(blob))
    assert code == 2 and out == ""
    assert f"argument {argv[-2]}: {argv[-1]} is " in err


def test_scan_max_zero_is_valid(capsys, adg_blob):
    blob, _ = adg_blob
    code, out, _ = run(capsys, "scan", "--max", "0", *RAW(blob))
    assert code == 0 and out.endswith(" gadgets\n")


@pytest.fixture(scope="module")
def ret_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ret.bin"
    path.write_bytes(bytes.fromhex("67800000"))                   # ret
    return path


@pytest.mark.parametrize("flags, last_line", [
    (["--base", "-4"], "argument --base: -4 is below 0"),
    (["--base=-0x10"], "argument --base: -16 is below 0"),
    (["--base", "0x100000000"], "rvjop: --base 0x100000000: the image "
                                "runs past the 32-bit address space"),
    (["--base", "0xfffffffe"], "rvjop: --base 0xfffffffe: the image "
                               "runs past the 32-bit address space"),
    (["--base", "0xfffffffffffffffe", "--xlen", "64"],
     "rvjop: --base 0xfffffffffffffffe: the image runs past the 64-bit "
     "address space"),
])
def test_base_outside_the_address_space_is_a_usage_error(capsys, ret_blob,
                                                         flags, last_line):
    """A raw image's pcs are what a core of its XLEN can hold."""
    code, out, err = run(capsys, "scan", "--raw", str(ret_blob), *flags)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.splitlines()[-1].endswith(last_line)
    if last_line.startswith("rvjop: "):
        assert err == last_line + "\n"


def test_base_at_the_top_of_the_address_space(capsys, ret_blob):
    for flags, pc in ((["--base", "0xfffffffc"], "0xfffffffc"),
                      (["--base", "0x100000000", "--xlen", "64"],
                       "0x100000000")):
        code, out, _ = run(capsys, "scan", "--raw", str(ret_blob), *flags)
        assert code == 0 and out.startswith(f"{pc}: jalr zero, ra, 0\n")


# --- chain ------------------------------------------------------------------

CHAIN_TEXT = """\
dispatcher {loop:#x}
initializer {init:#x}
table-base {table:#x}
return-to {landing:#x}
step {g1:#x}
step {g2:#x} 2
"""


def chain_file(tmp_path, addrs):
    path = tmp_path / "chain.txt"
    path.write_text(CHAIN_TEXT.format(
        loop=addrs["loop"], init=addrs["init"], table=TABLE_BASE,
        landing=addrs["landing"], g1=addrs["g_li_a0"],
        g2=addrs["g_bump_a2"]))
    return path


def test_chain_builds_payload(capsys, tmp_path, adg_blob):
    blob, addrs = adg_blob
    spec = chain_file(tmp_path, addrs)
    payload = tmp_path / "payload.bin"
    manifest = tmp_path / "manifest.txt"
    code, out, _ = run(capsys, "chain", *RAW(blob), "--spec", str(spec),
                       "--out", str(payload), "--manifest", str(manifest))
    assert code == 0
    data = payload.read_bytes()
    entries = [addrs["g_li_a0"], addrs["g_bump_a2"], addrs["g_bump_a2"],
               addrs["landing"]]
    assert data == b"".join(e.to_bytes(4, "little") for e in entries)
    text = manifest.read_text()
    assert "dispatcher-autonomous" in text and "register seeds" in text
    assert out == ""                         # manifest went to the file


def test_chain_simulates(capsys, tmp_path, adg_blob):
    blob, addrs = adg_blob
    spec = chain_file(tmp_path, addrs)
    code, out, _ = run(capsys, "chain", *RAW(blob), "--spec", str(spec),
                       "--simulate")
    assert code == 0
    assert "outcome        reached" in out
    assert "stealth        yes" in out
    assert "dispatch rounds 4" in out


def test_chain_validation_failure(capsys, tmp_path, adg_blob):
    blob, addrs = adg_blob
    spec = tmp_path / "bad.txt"
    spec.write_text(CHAIN_TEXT.format(
        loop=addrs["loop"], init=addrs["init"], table=TABLE_BASE,
        landing=addrs["landing"], g1=addrs["init"],     # jumps via t0
        g2=addrs["g_bump_a2"]))
    code, _, err = run(capsys, "chain", *RAW(blob), "--spec", str(spec))
    assert code == 1
    assert "TerminatorMismatch" in err


def test_chain_bad_spec_file(capsys, tmp_path, adg_blob):
    blob, _ = adg_blob
    spec = tmp_path / "nonsense.txt"
    spec.write_text("dispatcher zzz\n")
    code, _, err = run(capsys, "chain", *RAW(blob), "--spec", str(spec))
    assert code == 3 and "line 1" in err


@pytest.mark.parametrize("table", ["-0x10", hex(1 << 32)])
def test_chain_table_base_outside_xlen(capsys, tmp_path, adg_blob, table):
    """A table base no 32-bit pointer can hold is a malformed chain file."""
    blob, addrs = adg_blob
    spec = tmp_path / "chain.txt"
    spec.write_text(CHAIN_TEXT.replace("{table:#x}", table).format(
        loop=addrs["loop"], init=addrs["init"], landing=addrs["landing"],
        g1=addrs["g_li_a0"], g2=addrs["g_bump_a2"]))
    code, out, err = run(capsys, "chain", *RAW(blob), "--spec", str(spec))
    assert code == 3 and out == ""
    assert err == (f"rvjop: chain spec line 3: address {table} is outside "
                   f"the 32-bit address space\n")


# lw s0, 0(sp); lw s1, 4(sp); jr t0; then at 0xc a loop that advances s0
# before its load (pre-increment): addi s0, s0, 4; lw a5, 0(s0);
# jalr ra, a5; blt s0, s1, loop; then c.ret
PRE_INCREMENT_BLOB = bytes.fromhex(
    "0324010083244100678002001304440083270400e7800700e34a94fe8280")
# the same with the load before the advance
LOOP_BLOB = bytes.fromhex(
    "0324010083244100678002008327040013044400e7800700e34a94fe8280")


def test_chain_manifest_values_in_xlen_bits(capsys, tmp_path):
    """On RV32 every seed prints as the 32-bit value its register holds:
    a pre-increment pointer below the table and a negative seed wrap.
    The initializer jumps via t0 without loading it, which one warning
    names."""
    blob = tmp_path / "pre.bin"
    blob.write_bytes(PRE_INCREMENT_BLOB)
    spec = tmp_path / "chain.txt"
    spec.write_text("dispatcher 0x100c\ninitializer 0x1000\n"
                    "table-base 0x0\nreturn-to 0x101c\nseed a0=-100\n")
    code, out, _ = run(capsys, "chain", "--raw", str(blob), "--base",
                       "0x1000", "--spec", str(spec))
    lines = out.splitlines()
    assert code == 0
    assert "  s0    = 0xfffffffc" in lines
    assert "  a0    = 0xffffff9c" in lines
    assert "  sp+0    <- 0xfffffffc  (s0)" in lines
    assert [line for line in lines if "warning" in line] == [
        "  warning: UnseededJumpReg: initializer does not load t0, which "
        "must hold the loop entry 0x100c"]


@pytest.mark.parametrize("step,message", [
    ("0x1e", "direct jump at 0x1e before any indirect terminator"),
    ("0x1000", "0x1000 is not in an executable segment"),
])
def test_chain_step_that_is_no_gadget(capsys, tmp_path, step, message):
    """A step at an address no gadget runs from (a direct jump before any
    indirect one, or no code at all) is one error line, exit 3."""
    blob = tmp_path / "jump.bin"
    blob.write_bytes(LOOP_BLOB + assemble("jal", ("zero", -2)))
    spec = tmp_path / "chain.txt"
    spec.write_text("dispatcher 0xc\ninitializer 0x0\n"
                    f"table-base 0x40000\nreturn-to 0x1c\nstep {step}\n")
    code, out, err = run(capsys, "chain", "--raw", str(blob), "--spec",
                         str(spec))
    assert (code, out, err) == (3, "", f"rvjop: {message}\n")


@pytest.mark.parametrize("terminator,message", [
    (("ret",), "initializer at 0x0 jumps through ra"),
    (("jalr", "ra", "t0", 0), "initializer at 0x0 calls through t0"),
])
def test_chain_initializer_that_returns_or_calls(capsys, tmp_path,
                                                 terminator, message):
    """An initializer ending in a return or a call is one error line,
    exit 3, naming the jump it ends in."""
    blob = tmp_path / "init.bin"
    blob.write_bytes(LOOP_BLOB[:8] + assemble(terminator[0], terminator[1:])
                     + LOOP_BLOB[12:])
    spec = tmp_path / "chain.txt"
    spec.write_text("dispatcher 0xc\ninitializer 0x0\n"
                    "table-base 0x40000\nreturn-to 0x1c\n")
    code, out, err = run(capsys, "chain", "--raw", str(blob), "--spec",
                         str(spec))
    assert (code, out, err) == (3, "", f"rvjop: {message}\n")


@pytest.mark.parametrize("steps", [0, 2])
def test_chain_payload_past_xlen(capsys, tmp_path, steps):
    """A table base in range whose payload or loop bound runs past 2^32
    is refused with one error line."""
    blob = tmp_path / "loop.bin"
    blob.write_bytes(LOOP_BLOB)
    spec = tmp_path / "chain.txt"
    spec.write_text("dispatcher 0xc\ninitializer 0x0\n"
                    "table-base 0xffffffff\nreturn-to 0x1c\n"
                    + "step 0x1c\n" * steps)
    code, out, err = run(capsys, "chain", "--raw", str(blob), "--spec",
                         str(spec))
    assert code == 3 and out == ""
    end = 0xffffffff + 4 * (steps + 1)
    assert err == (f"rvjop: payload [0xffffffff, {end:#x}) runs past the "
                   f"32-bit address space\n")


def test_chain_huge_repeat_is_refused_before_expansion(capsys, tmp_path,
                                                      monkeypatch):
    """A repeat too big for the address space is refused from the size
    alone: no table is written."""
    def refuse(spec):
        raise AssertionError("wrote the dispatch table")

    monkeypatch.setattr(rvjop.chain, "_buffer", refuse)
    blob = tmp_path / "loop.bin"
    blob.write_bytes(LOOP_BLOB)
    spec = tmp_path / "chain.txt"
    spec.write_text("dispatcher 0xc\ninitializer 0x0\n"
                    "table-base 0xfff00000\nreturn-to 0x1c\n"
                    "step 0x1c 1000000000\n")
    code, out, err = run(capsys, "chain", "--raw", str(blob), "--spec",
                         str(spec))
    assert code == 3 and out == ""
    end = 0xfff00000 + 4 * (10**9 + 1)
    assert err == (f"rvjop: payload [0xfff00000, {end:#x}) runs past the "
                   f"32-bit address space\n")


def test_chain_long_run_memory_follows_the_payload(capsys, tmp_path):
    """A step repeated 4,000,000 times is a 16 MB payload, laid out in
    memory of the same order: no Python object per repeat."""
    blob = tmp_path / "loop.bin"
    blob.write_bytes(LOOP_BLOB)
    spec = tmp_path / "chain.txt"
    spec.write_text("dispatcher 0xc\ninitializer 0x0\n"
                    "table-base 0x100000\nreturn-to 0x1c\n"
                    "step 0x1c 4000000\n")
    payload = tmp_path / "payload.bin"
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "chain", "--raw", str(blob), "--spec",
                             str(spec), "--out", str(payload))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert "table-base   0x00100000  entries=4000001  element=4" in out
    assert "payload size 16000004 bytes" in out.splitlines()
    assert payload.read_bytes() == ((0x1c).to_bytes(4, "little") * 4000001)
    assert peak < 64 << 20


def test_chain_spec_not_utf8(capsys, tmp_path):
    """A chain file that is not UTF-8 text is one error line, exit 3."""
    blob = tmp_path / "loop.bin"
    blob.write_bytes(LOOP_BLOB)
    spec = tmp_path / "chain.txt"
    spec.write_bytes(b"\xff\xfe\x00dispatcher 0xc\n")
    code, out, err = run(capsys, "chain", "--raw", str(blob), "--spec",
                         str(spec))
    assert code == 3 and out == ""
    assert err.startswith(f"rvjop: chain spec {spec}: not UTF-8 text")
    assert err.count("\n") == 1


def _adg_chain(tmp_path, adg_blob, table_base):
    """The adg chain (blt s0, s1; three steps) with its table elsewhere."""
    blob, addrs = adg_blob
    spec = tmp_path / "chain.txt"
    spec.write_text(CHAIN_TEXT.format(
        loop=addrs["loop"], init=addrs["init"], table=table_base,
        landing=addrs["landing"], g1=addrs["g_li_a0"],
        g2=addrs["g_bump_a2"]))
    return ["chain", *RAW(blob), "--spec", str(spec)]


def test_chain_signed_bound_across_the_sign_bit(capsys, tmp_path, adg_blob):
    """The pointer passes 0x80000000: blt reads it as negative, so the
    bound is the highest signed value and the chain runs all its rounds."""
    code, out, err = run(capsys, *_adg_chain(tmp_path, adg_blob, 0x7ffffff8),
                         "--simulate", "--stack-top", "0x200000")
    assert code == 0, err
    lines = out.splitlines()
    assert "  s1    = 0x7fffffff" in lines
    assert "outcome        reached" in lines
    assert "dispatch rounds 4" in lines


def test_chain_without_a_loop_bound(capsys, tmp_path, adg_blob):
    """A pointer that reaches the highest signed value leaves blt no
    bound: one error line, exit 3."""
    code, out, err = run(capsys, *_adg_chain(tmp_path, adg_blob, 0x7ffffff3))
    assert code == 3 and out == ""
    assert err == ("rvjop: no signed 32-bit loop bound keeps s0 lt s1 for "
                   "every round: the table pointer reaches 0x7fffffff\n")


def test_chain_step_on_undecodable_word(capsys, tmp_path, adg_blob):
    blob, addrs = adg_blob
    junk = BASE + len(blob.read_bytes())
    image = tmp_path / "adg_junk.bin"
    image.write_bytes(blob.read_bytes() + b"\xff\xff\xff\xff")
    spec = tmp_path / "junk.txt"
    spec.write_text(CHAIN_TEXT.format(
        loop=addrs["loop"], init=addrs["init"], table=TABLE_BASE,
        landing=addrs["landing"], g1=junk, g2=addrs["g_bump_a2"]))
    code, _, err = run(capsys, "chain", *RAW(image), "--spec", str(spec))
    assert code == 3
    assert f"invalid encoding 0xffff at 0x{junk:x}" in err


# --- sim --------------------------------------------------------------------

def test_sim_runs_to_return(capsys, tmp_path):
    b = CodeBuilder()
    b.label("f")
    b.emit("addi", "a0", "a0", 1)
    b.emit("jr", "t1")
    b.label("end")
    b.emit("ebreak")
    path = tmp_path / "f.bin"
    path.write_bytes(b.blob())
    code, out, _ = run(capsys, "sim", *RAW(path),
                       "--entry", hex(b.labels["f"]),
                       "--return-to", hex(b.labels["end"]),
                       "--poke", "t1=" + hex(b.labels["end"]),
                       "--poke", "a0=41")
    assert code == 0
    assert "outcome        reached" in out


def test_sim_fault_is_unsuccessful(capsys, tmp_path):
    b = CodeBuilder()
    b.emit("ebreak")
    path = tmp_path / "f.bin"
    path.write_bytes(b.blob())
    code, out, _ = run(capsys, "sim", *RAW(path),
                       "--entry", hex(BASE), "--return-to", "0xdead0000")
    assert code == 1
    assert "outcome        fault" in out and "breakpoint" in out


def test_sim_payload_mapping(capsys, tmp_path):
    b = CodeBuilder()
    b.label("f")
    b.emit("lw", "a0", "t0", 0)
    b.emit("jr", "t1")
    b.label("end")
    b.emit("ebreak")
    code_path = tmp_path / "f.bin"
    code_path.write_bytes(b.blob())
    pay = tmp_path / "p.bin"
    pay.write_bytes((0x11223344).to_bytes(4, "little"))
    code, out, _ = run(capsys, "sim", *RAW(code_path),
                       "--entry", hex(b.labels["f"]),
                       "--return-to", hex(b.labels["end"]),
                       "--payload", str(pay), "--buffer-base", hex(TABLE_BASE),
                       "--poke", f"t0={TABLE_BASE:#x}",
                       "--poke", "t1=" + hex(b.labels["end"]))
    assert code == 0 and "reached" in out


def test_sim_poke_validation(capsys, tmp_path, adg_blob):
    blob, addrs = adg_blob
    code, _, err = run(capsys, "sim", *RAW(blob),
                       "--entry", hex(addrs["loop"]), "--return-to", "0x0",
                       "--poke", "a0")
    assert code == 2 and "REG=VALUE" in err

    code, _, err = run(capsys, "sim", *RAW(blob),
                       "--entry", hex(addrs["loop"]), "--return-to", "0x0",
                       "--poke", "qq=1")
    assert code == 2

    code, _, err = run(capsys, "sim", *RAW(blob),
                       "--entry", hex(addrs["loop"]), "--return-to", "0x0",
                       "--payload", str(blob))
    assert code == 2 and "--buffer-base" in err


# --- pinned output ----------------------------------------------------------

PINNED_RECORDS = """\
0x00010000 natural a5 load,call,dispatcher-autonomous a5,ra
0x00010004 natural a5 call ra
0x00010014 natural t0 load,initializer s0,s1,t0
0x00010016 shifted t0 load,initializer s1,t0
0x00010018 natural t0 load,initializer s1,t0
0x0001001a shifted t0 load,initializer t0
0x0001001c natural t0 load,initializer t0
0x0001001e shifted t0 arith ra
0x00010020 natural t0 unclassified -
0x00010022 shifted ra arith a0
0x00010024 natural ra arith a0
0x00010028 natural ra unclassified -
0x0001002c natural ra arith a2
0x0001002e shifted ra unclassified -
0x00010030 natural ra unclassified -
0x00010034 natural ra arith a1
0x00010036 shifted ra arith s0
0x00010038 natural ra unclassified -
"""

PINNED_DISPATCHERS = """\
0x00010000 dispatcher-autonomous table=s0 stride=+4 target=a5 while s0 lt s1
1 candidate
"""

PINNED_INITIALIZERS = """\
0x00010014 via t0: t0<-stack+8 s0<-stack+0 s1<-stack+4
1 candidate
"""

PINNED_CHAIN = """\
dispatcher   dispatcher-autonomous entry=0x00010000 table=s0 stride=+4 target=a5
initializer  0x00010014 jumps via t0
table-base   0x00040000  entries=4  element=4
return-to    0x0001003c
payload size 16 bytes

register seeds (loaded by the initializer):
  t0    = 0x10000
  s0    = 0x40000
  s1    = 0x40010
stack slots to prepare (relative to entry sp):
  sp+8    <- 0x10000  (t0)
  sp+0    <- 0x40000  (s0)
  sp+4    <- 0x40010  (s1)
stack ledger:
  initializer  sp+0 -> +0
  step 0       sp+0 -> +0
  step 1       sp+0 -> +0
diagnostics:
  info: MustHold: dispatcher keeps looping only while s0 lt s1 holds at each round
"""


def test_pinned_stdout_on_adg(capsys, tmp_path, adg_blob):
    # the complete text of the reporting commands; any change to it is a
    # change to the CLI's output format and should be deliberate
    blob, addrs = adg_blob
    spec = chain_file(tmp_path, addrs)
    for argv, want in [
            (["scan", *RAW(blob), "--format", "records"], PINNED_RECORDS),
            (["dispatchers", *RAW(blob)], PINNED_DISPATCHERS),
            (["initializers", *RAW(blob), "--dispatcher", hex(addrs["loop"])],
             PINNED_INITIALIZERS),
            (["chain", *RAW(blob), "--spec", str(spec)], PINNED_CHAIN)]:
        assert run(capsys, *argv)[:2] == (0, want), argv[0]


def test_cli_import_loads_no_assembler_and_keeps_submodules():
    # A fresh interpreter: the package must not load the assembler for the
    # CLI, nor hide a submodule behind a re-exported function.
    code = ("import sys, rvjop.cli\n"
            "assert 'rvjop.assembler' not in sys.modules\n"
            "assert sys.modules['rvjop'].classify is "
            "sys.modules['rvjop.classify']\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_importtime_times_the_decoder_on_its_own_line():
    # `python -X importtime` gives a module a line of its own only when it
    # loads through a plain import, not through a package's from-list;
    # the CLI imports a name from the decoder, so the decoder's start-up
    # is not counted as rvjop.cli's, and the decoder loads before the
    # layers that decode.  The dataflow layer loads with the first
    # summary, not with the CLI.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import rvjop.cli"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    timed = [line.rsplit("|", 1)[-1].strip()
             for line in proc.stderr.splitlines()
             if line.startswith("import time:")]
    assert "rvjop.decoder" in timed
    first = timed.index("rvjop.decoder")
    for layer in ("rvjop.scanner", "rvjop.classify"):
        assert timed.index(layer) > first, layer
    assert "rvjop.dataflow" not in timed


# --- the parser: the command table, and argparse for the rest -------------

COMMANDS = ["scan", "query", "dispatchers", "initializers", "stats", "chain",
            "sim"]
# what each subcommand requires, so that an extra argument is the error
REQUIRED = {"initializers": ["--dispatcher", "0"], "chain": ["--spec", "x"],
            "sim": ["--entry", "0", "--return-to", "0"]}
PARSER_CASES = [
    ["--help"], *([c, "--help"] for c in COMMANDS),
    [], ["bogus"], ["--raw", "x"],
    *([c, *REQUIRED.get(c, []), "--bogus"] for c in COMMANDS),
    ["query", "--role", "dispatcher-clasic"], ["scan", "--max", "x"],
    ["initializers", "--dispatcher", "zero"], ["chain", "--raw", "x"],
]


def _parse(capsys, parser, argv):
    """(exit code or None, stdout, stderr) of parsing `argv`."""
    try:
        parser.parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_one_subcommand_parser_prints_as_the_full_one(capsys, argv):
    # Help and usage errors are argparse's: the table parse of the one
    # subcommand argv names declines them, and main prints what the
    # full parser prints.
    assert rvjop.cli._table_parse(argv) is None
    want = _parse(capsys, rvjop.cli._build_parser(), argv)
    assert want[0] in (0, 2)
    assert run(capsys, *argv) == want


@pytest.mark.parametrize("argv", [
    ["-h"], ["scan", "-h"], ["scan", "--raw", "x", "--"],
    ["query", "--raw", "x", "--imm", "-16"],        # argparse: a number
    ["query", "--raw", "x", "--pres=s0"],           # argparse: --preserve
    ["scan", "--raw", "-"],                         # argparse: the path "-"
    ["scan", "--raw", "x", "--unique=yes"],
    ["scan", "--raw=--"],                           # argparse < 3.13: []
    ["chain", "--raw", "x"], ["sim", "--entry", "0", "--return-to"],
    ["scan", "--xlen", "33"], ["query", "--rr", "q9"],
    ["scan", "--raw", "x", "--op=li"], ["scan", "x"],
], ids=" ".join)
def test_table_parse_leaves_the_rest_to_argparse(argv):
    assert rvjop.cli._table_parse(argv) is None


@pytest.mark.parametrize("argv", [
    ["scan", "--raw", "x", "--raw=y", "--max", "0", "--max=2"],
    ["query", "--raw=", "--imm=-0x10", "--preserve", "s0,s1",
     "--preserve=ra", "--role=call", "--all", "--all"],
    ["query", "--op", "li=x", "--rr=x5", "--max=0x20"],
    ["chain", "--spec=x", "--simulate", "--stack-top", "0x1000",
     "--fuel=1_000"],
    ["sim", "--entry", "0x10", "--return-to=16", "--poke", "a0=1",
     "--poke=a1=-2", "--xlen", "64"],
    ["initializers", "--dispatcher=0", "--binary", "a b"],
    ["dispatchers"], ["stats", "--top", " 3"],
], ids=" ".join)
def test_table_parse_reads_as_argparse(argv):
    args = rvjop.cli._table_parse(argv)
    assert args is not None
    assert vars(args) == vars(rvjop.cli._build_parser().parse_args(argv))


def _value_flags():
    """(command, flag) for every flag of the table that takes a value."""
    for command, (_, _, flags) in rvjop.cli._COMMANDS.items():
        for name, keywords in flags:
            if keywords.get("action") != "store_true":
                yield command, name


@pytest.mark.parametrize("command,flag", list(_value_flags()),
                         ids=[" ".join(cf) for cf in _value_flags()])
def test_a_flag_spelled_with_dash_dash_is_a_usage_error(capsys, adg_blob,
                                                        command, flag):
    """`--flag=--`, which argparse before 3.13 stores as [] without
    reading it through the flag's type or choices, exits 2 before the
    command runs, with no output and no traceback."""
    blob, _ = adg_blob
    required = {"query": ["--all"],
                "initializers": ["--dispatcher", "0x0"],
                "chain": ["--spec", str(blob)],
                "sim": ["--entry", "0x0", "--return-to", "0x0"]}
    argv = [command, *RAW(blob), *required.get(command, []), f"{flag}=--"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"argument {flag}" in err and "Traceback" not in err


def _table_flags(command):
    return [name for name, _ in rvjop.cli._COMMANDS[command][2]]


ALL_FLAGS = sorted({f for c in COMMANDS for f in _table_flags(c)})


def test_random_argv_parse_as_argparse_does(capsys, monkeypatch, tmp_path,
                                            adg_blob):
    """`main` on argument lists drawn from the table's vocabulary returns
    an exit code and raises nothing, and the table parse gives argparse's
    namespace or declines.  Each list is a subcommand, flags the table
    parse takes, then noise: abbreviations, `=` forms, repeats, other
    subcommands' flags, negative and non-decimal numbers, and junk."""
    blob, addrs = adg_blob
    spec = chain_file(tmp_path, addrs)
    files = {blob: blob.read_bytes(), spec: spec.read_bytes()}
    monkeypatch.chdir(tmp_path)            # --out and --manifest land here
    # a random entry point may spin: keep its run, and every --fuel in
    # the pool, to a few thousand steps
    monkeypatch.setattr(rvjop.sim, "DEFAULT_FUEL", 2000)
    pool = ["0", "1", "4", "32", "64", "-1", "-16", "-0x10", "0x10", "0b101",
            "0o7", "1_0", " 4", "4.0", "0x", *map(hex, addrs.values()),
            str(blob), str(spec), "", "x", "li", "ra", "s0", "a0,s1", "q9",
            "a0=5", "text", "records", "call", "dispatcher-classic", "-",
            "--", "a b"]
    values = st.sampled_from(pool)
    required = {"initializers": ["--dispatcher", hex(addrs["loop"])],
                "chain": ["--spec", str(spec)],
                "sim": ["--entry", hex(addrs["init"]),
                        "--return-to", hex(addrs["landing"])]}

    def taken(command):
        """Every one-flag argument the table parse takes after `command`."""
        parts = [[name] for name in _table_flags(command)]
        parts += [form for name in _table_flags(command) for v in pool
                  for form in ([name, v], [f"{name}={v}"])]
        return [part for part in parts if rvjop.cli._table_parse(
            [command, *required.get(command, []), *part]) is not None]

    clean = {c: st.sampled_from(taken(c)) for c in COMMANDS}
    tally = {"table": 0, "argparse": 0}

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def check(data):
        command = data.draw(st.sampled_from(COMMANDS + ["bogus", "--help"]))
        own = _table_flags(command) if command in COMMANDS else ALL_FLAGS
        flag = st.one_of(
            st.sampled_from(own), st.sampled_from(ALL_FLAGS),
            st.sampled_from(own).flatmap(
                lambda f: st.integers(3, len(f) - 1).map(lambda k: f[:k])),
            st.sampled_from(["-h", "--help", "--", "-x"]))
        word = st.tuples(flag, values)
        noise = st.one_of(
            word.map(list), word.map(lambda fv: ["=".join(fv)]),
            flag.map(lambda f: [f]), values.map(lambda v: [v]),
            # junk as an argv holds it: bytes but NUL, decoded as Python
            # decodes its arguments (surrogates for what is not UTF-8)
            st.binary(max_size=4).map(
                lambda j: [os.fsdecode(j.replace(b"\x00", b""))]))
        argv = [command]
        if command in COMMANDS:
            argv += data.draw(st.sampled_from([RAW(blob), []]))
            if data.draw(st.booleans()):
                argv += required.get(command, [])
            for part in data.draw(st.lists(clean[command], max_size=4)):
                argv += part
        for part in data.draw(st.lists(noise, max_size=3)):
            argv += part
        for path, content in files.items():
            if path.read_bytes() != content:    # --out wrote over it
                path.write_bytes(content)
        args = rvjop.cli._table_parse(argv)
        if args is not None:
            assert vars(args) == vars(
                rvjop.cli._build_parser().parse_args(argv))
        tally["table" if args is not None else "argparse"] += 1
        assert main(argv) in (0, 1, 2, 3)
        capsys.readouterr()

    # stderr with a process's error handler: argparse echoes an argument
    # that is not UTF-8 in its usage error, and a process's stderr
    # writes it backslash-escaped where the captured one would raise
    sys.stderr.reconfigure(errors="backslashreplace")
    check()
    assert tally["table"] and tally["argparse"], tally


@pytest.mark.parametrize("workload",
                         ["scan-dense-rv32", "scan-clean-rv64", "chain-long"])
def test_benchmark_argv_take_the_table_path(tmp_path, workload):
    benchmark_corpus()                      # puts benchmarks/ on sys.path
    import session
    prep = session.prepare(tmp_path, workload, 1)
    for cmd in [*prep.commands, prep.records_check]:
        args = rvjop.cli._table_parse(list(cmd.argv))
        assert args is not None, cmd.argv
        assert vars(args) == vars(rvjop.cli._build_parser().parse_args(
            cmd.argv))


# --- start-up: each subcommand imports only its layers ----------------------

def _fresh_python(script, *args):
    """Run `script` in a fresh interpreter that imports rvjop from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True)


LAZY = ("rvjop.query", "rvjop.chain", "rvjop.sim")
# what only help and usage errors load: argparse and, through it, gettext
# and locale
PARSER = ("argparse", "gettext", "locale")

# (argv, modules it must not load, modules it must load) per subcommand
SUBCOMMAND_IMPORTS = [
    (["dispatchers"], LAZY + PARSER, ("rvjop.dataflow",)),
    (["initializers", "--dispatcher", "{loop}"], LAZY + PARSER,
     ("rvjop.dataflow",)),
    (["stats"], ("rvjop.dataflow", *LAZY, *PARSER), ()),
    (["scan"], ("rvjop.dataflow", "rvjop.chain", "rvjop.sim", *PARSER),
     ("rvjop.query",)),
    (["query", "--op=li"],
     ("rvjop.dataflow", "rvjop.chain", "rvjop.sim", *PARSER),
     ("rvjop.query",)),
    (["chain", "--spec", "{spec}"], ("rvjop.sim", "rvjop.query", *PARSER),
     ("rvjop.chain", "rvjop.dataflow")),
    (["chain", "--spec", "{spec}", "--simulate"], ("rvjop.query", *PARSER),
     ("rvjop.chain", "rvjop.dataflow", "rvjop.sim")),
    (["sim", "--entry", "{landing}", "--return-to", "{landing}"],
     ("rvjop.dataflow", "rvjop.chain", "rvjop.query", *PARSER),
     ("rvjop.sim",)),
]
SUBCOMMAND_IDS = ["dispatchers", "initializers", "stats", "scan", "query",
                  "chain", "chain-simulate", "sim"]


def _fill(argv, addrs, spec, blob):
    """`argv` with its placeholders filled and the raw image flags added."""
    argv = [a.format(loop=hex(addrs["loop"]), landing=hex(addrs["landing"]),
                     spec=spec) for a in argv]
    argv[1:1] = RAW(blob)
    return argv


@pytest.mark.parametrize("argv,absent,present", SUBCOMMAND_IMPORTS,
                         ids=SUBCOMMAND_IDS)
def test_subcommand_loads_only_its_layers(tmp_path, adg_blob, argv, absent,
                                          present):
    # A fresh interpreter per command: what it imports is what it pays for.
    blob, addrs = adg_blob
    argv = _fill(argv, addrs, chain_file(tmp_path, addrs), blob)
    proc = _fresh_python(
        "import json, sys, rvjop.cli\n"
        "code = rvjop.cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, sorted(sys.modules)]), file=sys.stderr)\n",
        json.dumps(argv))
    code, loaded = json.loads(proc.stderr.splitlines()[-1])
    assert code == 0, proc.stderr
    assert not set(absent) & set(loaded)
    assert set(present) <= set(loaded)


@pytest.mark.parametrize("argv", [row[0] for row in SUBCOMMAND_IMPORTS],
                         ids=SUBCOMMAND_IDS)
def test_subcommand_start_up_skips_dataclasses(tmp_path, adg_blob, argv):
    # Building dataclasses compiles their methods at import time, and the
    # module itself pulls in inspect: records are namedtuples instead.
    blob, addrs = adg_blob
    argv = _fill(argv, addrs, chain_file(tmp_path, addrs), blob)
    proc = _fresh_python(
        "import json, sys, rvjop.cli\n"
        "code = rvjop.cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, 'dataclasses' in sys.modules]),"
        " file=sys.stderr)\n",
        json.dumps(argv))
    assert json.loads(proc.stderr.splitlines()[-1]) == [0, False], proc.stderr


@pytest.mark.parametrize("cache", ["no bytecode cache", "bytecode cache"])
def test_start_up_compiles_only_rvjop_sources(tmp_path, cache):
    # Importing the layers compiles their own sources (none with a
    # bytecode cache) and nothing else: `typing.NamedTuple` records would
    # compile a forward reference for every annotated field.  The package
    # is copied, so its bytecode cache, if any, starts empty.
    shutil.copytree(Path(__file__).resolve().parents[1] / "src" / "rvjop",
                    tmp_path / "rvjop",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if cache == "no bytecode cache":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    script = (
        "import builtins, json, sys\n"
        "names, compile_ = [], builtins.compile\n"
        "def spy(source, filename, *args, **kwargs):\n"
        "    names.append(str(filename))\n"
        "    return compile_(source, filename, *args, **kwargs)\n"
        "builtins.compile = spy\n"
        "import rvjop.cli, rvjop.chain, rvjop.sim, rvjop.query\n"
        "print(json.dumps(names), file=sys.stderr)\n")
    sources = {str(p) for p in (tmp_path / "rvjop").glob("*.py")}
    for run_ in ("first", "second"):        # the second reads any cache
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        names = json.loads(proc.stderr.splitlines()[-1])
        assert set(names) <= sources, (run_, proc.stderr)
    assert (names == []) == (cache == "bytecode cache")


def test_image_load_skips_dataclasses(adg_blob, adg_elf):
    # The benchmark's setup job: import the package and load an image.
    blob, _ = adg_blob
    elf, _ = adg_elf
    for load in (f"rvjop.load_raw({str(blob)!r}, {BASE}, 32)",
                 f"rvjop.load_elf({str(elf)!r})"):
        proc = _fresh_python(f"import sys, rvjop\n{load}\n"
                             "assert 'dataclasses' not in sys.modules\n")
        assert proc.returncode == 0, proc.stderr


def test_image_load_skips_the_decoder(adg_blob, adg_elf):
    # Loading decodes nothing; the first decode table loads the decoder.
    blob, _ = adg_blob
    elf, _ = adg_elf
    for load in (f"rvjop.load_raw({str(blob)!r}, {BASE}, 32)",
                 f"rvjop.load_elf({str(elf)!r})"):
        proc = _fresh_python(
            f"import sys, rvjop\nimage = {load}\n"
            "assert sorted(m for m in sys.modules if m.startswith('rvjop'))"
            " == ['rvjop', 'rvjop.errors', 'rvjop.image']\n"
            "table = image.decode_table\n"
            "assert 'rvjop.decoder' in sys.modules\n"
            "segment = next(iter(table.values()))\n"
            "assert segment.at(segment.segment.vaddr) is not None\n")
        assert proc.returncode == 0, proc.stderr


def test_package_loads_a_submodule_on_first_use():
    proc = _fresh_python("import sys, rvjop.cli\n"
                         "assert 'rvjop.sim' not in sys.modules\n"
                         "assert rvjop.sim is sys.modules['rvjop.sim']\n"
                         "assert not hasattr(rvjop, 'nonesuch')\n")
    assert proc.returncode == 0, proc.stderr


# --- lazy roles: a listing never searches for dispatchers -------------------

def test_text_listings_skip_dispatcher_search(capsys, monkeypatch, adg_blob):
    blob, _ = adg_blob
    commands = [["scan", *RAW(blob)], ["query", *RAW(blob), "--op", "li"],
                ["query", *RAW(blob), "--all", "--preserve=a2"]]
    want = [run(capsys, *argv) for argv in commands]

    def refuse(image):
        raise AssertionError("find_dispatchers called for a listing")

    def refuse_sweep(table, address):
        raise AssertionError("alignment read for a listing")

    monkeypatch.setattr(rvjop.query, "find_dispatchers", refuse)
    monkeypatch.setattr(rvjop.image.DecodedSegment, "natural", refuse_sweep)
    assert [run(capsys, *argv) for argv in commands] == want


E2E_CHAIN = """\
dispatcher {loop:#x}
initializer {init:#x}
table-base {table:#x}
return-to {landing:#x}
step {g_dirfd:#x}
step {g_alloc:#x}
step {g_count:#x} 3
step {g_release:#x}
"""


def test_chain_and_initializers_read_only_around_the_dispatcher(
        capsys, monkeypatch, tmp_path):
    img, addrs = build_e2e_fixture()
    blob = tmp_path / "e2e.bin"
    blob.write_bytes(img.segments[0].data)
    spec = tmp_path / "chain.txt"
    spec.write_text(E2E_CHAIN.format(table=TABLE_BASE, **addrs))
    chain = ["chain", *RAW(blob), "--spec", str(spec)]
    inits = ["initializers", *RAW(blob), "--dispatcher", hex(addrs["loop"])]
    want = [run(capsys, *argv) for argv in (chain, chain + ["--simulate"])]
    want_inits = run(capsys, *inits)
    assert want[0][0] == want[1][0] == want_inits[0] == 0
    assert "outcome        reached" in want[1][1]
    assert f"0x{addrs['init']:08x} via t0" in want_inits[1]

    # No gadget's alignment is printed here, so no command runs the sweep.
    def refuse_sweep(table, address):
        raise AssertionError("alignment read")

    monkeypatch.setattr(rvjop.image.DecodedSegment, "natural", refuse_sweep)
    refuse_calls(monkeypatch, "find_dispatchers")
    assert run(capsys, *inits) == want_inits
    refuse_calls(monkeypatch, "extract_gadgets")
    assert [run(capsys, *argv)
            for argv in (chain, chain + ["--simulate"])] == want


def test_chain_decodes_less_than_the_image(capsys, monkeypatch, tmp_path):
    c = benchmark_corpus().build("scan-dense-rv32", 1, scale=16)  # 64 KiB
    image = tmp_path / "image.elf"
    image.write_bytes(c.file_bytes)
    spec = tmp_path / "chain.txt"
    spec.write_text(c.chain_text())
    decoded = []
    real = rvjop.decoder.decode_one

    def counted(data, address, xlen):
        decoded.append(address)
        return real(data, address, xlen)

    monkeypatch.setattr(rvjop.decoder, "decode_one", counted)
    code, out, _ = run(capsys, "chain", *c.image_args(image),
                       "--spec", str(spec))
    assert code == 0 and "dispatcher-autonomous" in out
    # Bounded by what the chain names, not by how far into the image its
    # gadgets lie: 31 halfwords of 32,770.
    assert len(set(decoded)) == len(decoded) < 100


@pytest.mark.parametrize("argv", [
    ["scan", "--format", "records"],
    ["query", "--all", "--format", "records"],
    ["query", "--all", "--role", "unclassified"],
    ["query", "--op=li", "--role", "dispatcher-autonomous"],
])
def test_roles_search_dispatchers_once_per_run(capsys, monkeypatch, adg_blob,
                                               argv):
    blob, _ = adg_blob
    calls = []
    real = rvjop.query.find_dispatchers

    def counted(image):
        calls.append(image)
        return real(image)

    monkeypatch.setattr(rvjop.query, "find_dispatchers", counted)
    argv = [argv[0], *RAW(blob), *argv[1:]]
    run(capsys, *argv)
    assert len(calls) == 1
    run(capsys, *argv)
    assert len(calls) == 2


@pytest.mark.parametrize("role", ["arith", "load", "store", "call", "syscall",
                                  "initializer"])
def test_a_role_read_from_the_gadget_alone_searches_no_dispatchers(
        capsys, monkeypatch, adg_blob, role):
    blob, _ = adg_blob
    refuse_calls(monkeypatch, "find_dispatchers")
    code, _, err = run(capsys, "query", *RAW(blob), "--all", "--role", role)
    assert code in (0, 1) and err == ""


@pytest.mark.parametrize("argv", [
    ["scan", "--format", "records"],
    ["query", "--role=dispatcher-classic"],
    ["initializers", "--dispatcher", "{classic:#x}"],     # not autonomous
])
def test_commands_grow_each_gadget_once(capsys, monkeypatch, tmp_path, argv):
    """A command that reads roles or pairs initializers probes the decode
    table as often as one wide growth (six interior instructions,
    branches included) plus the same command on an image whose growth is
    already that wide: each terminator's tree is grown once."""
    c = benchmark_corpus().build("scan-dense-rv32", 1)
    path = tmp_path / "image.elf"
    path.write_bytes(c.file_bytes)
    argv = [argv[0], *c.image_args(path),
            *(a.format(**c.labels) for a in argv[1:])]
    probes = 0
    real = rvjop.image.DecodedSegment.at

    def counted(table, address):
        nonlocal probes
        probes += 1
        return real(table, address)

    monkeypatch.setattr(rvjop.image.DecodedSegment, "at", counted)
    want = run(capsys, *argv)
    total, probes = probes, 0
    assert want[0] == 0
    grown = rvjop.image.parse_elf(c.file_bytes)
    extract_gadgets(grown, 6, branches=True)
    wide, probes = probes, 0
    monkeypatch.setattr(rvjop.cli, "_load_image", lambda args: grown)
    assert run(capsys, *argv) == want
    assert wide > 0 and total == wide + probes


# --- interpreter limits: --fuel and --stack-top -----------------------------

@pytest.fixture(scope="module")
def sp_blob(tmp_path_factory):
    """`f` reports sp in the first argument of an ecall and returns through
    t1; `spin` jumps to itself forever."""
    b = CodeBuilder()
    b.label("f")
    b.emit("mv", "a0", "sp")
    b.emit("ecall")
    b.emit("jr", "t1")
    b.label("spin")
    b.emit("j", 0)
    b.label("end")
    b.emit("ebreak")
    path = tmp_path_factory.mktemp("cli") / "sp.bin"
    path.write_bytes(b.blob())
    return path, dict(b.labels)


def _sim(capsys, sp_blob, entry, *flags):
    path, labels = sp_blob
    return run(capsys, "sim", *RAW(path), "--entry", hex(labels[entry]),
               "--return-to", hex(labels["end"]),
               "--poke", f"t1={labels['end']:#x}", *flags)


def test_sim_fuel_given_and_omitted(capsys, monkeypatch, sp_blob):
    code, out, _ = _sim(capsys, sp_blob, "spin", "--fuel", "10")
    assert code == 1
    assert "outcome        fuel-exhausted" in out and "steps          10\n" in out
    # omitted: the interpreter's own default, read when the command runs
    monkeypatch.setattr(rvjop.sim, "DEFAULT_FUEL", 7)
    code, out, _ = _sim(capsys, sp_blob, "spin")
    assert code == 1
    assert "outcome        fuel-exhausted" in out and "steps          7\n" in out


def test_sim_stack_top_given_and_omitted(capsys, sp_blob):
    code, out, _ = _sim(capsys, sp_blob, "f", "--stack-top", "0x20000000")
    assert code == 0 and "(0x20000000, " in out
    code, out, _ = _sim(capsys, sp_blob, "f")
    assert code == 0 and f"(0x{rvjop.sim.DEFAULT_STACK_TOP:x}, " in out


def test_chain_simulate_fuel_given_and_omitted(capsys, monkeypatch, tmp_path,
                                               adg_blob):
    blob, addrs = adg_blob
    argv = ["chain", *RAW(blob), "--spec", str(chain_file(tmp_path, addrs)),
            "--simulate"]
    code, out, _ = run(capsys, *argv, "--fuel", "5")
    assert code == 1
    assert "outcome        fuel-exhausted" in out and "steps          5\n" in out
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "outcome        reached" in out
    monkeypatch.setattr(rvjop.sim, "DEFAULT_FUEL", 6)
    code, out, _ = run(capsys, *argv)
    assert code == 1 and "steps          6\n" in out


def test_chain_simulate_stack_top_given_and_omitted(capsys, monkeypatch,
                                                    tmp_path, adg_blob):
    # A stack whose slack collides with the image cannot be mapped, and
    # the error names where the run put it.
    blob, addrs = adg_blob
    argv = ["chain", *RAW(blob), "--spec", str(chain_file(tmp_path, addrs)),
            "--simulate"]
    code, out, _ = run(capsys, *argv, "--stack-top", "0x20000000")
    assert code == 0 and "outcome        reached" in out
    top = BASE + 0x100
    clash = f"region [{top - rvjop.sim.STACK_SLACK:#x}, "
    code, _, err = run(capsys, *argv, "--stack-top", hex(top))
    assert code == 3 and clash in err
    monkeypatch.setattr(rvjop.sim, "DEFAULT_STACK_TOP", top)
    code, _, err = run(capsys, *argv)
    assert code == 3 and clash in err


@pytest.mark.parametrize("flags, last_line", [
    (["--fuel", "-1"], "argument --fuel: -1 is below 0"),
    (["--stack-top", "-1"], "argument --stack-top: -1 is below 0"),
    (["--buffer-base=-0x1000"], "argument --buffer-base: -4096 is below 0"),
    (["--stack-top", "0x100000000"],
     "rvjop: --stack-top 0x100000000 is past the 32-bit address space"),
    (["--buffer-base", "0x100000000"],
     "rvjop: --buffer-base 0x100000000 is past the 32-bit address space"),
])
@pytest.mark.parametrize("command", ["sim", "chain"])
def test_sim_limits_out_of_range_are_usage_errors(capsys, tmp_path, sp_blob,
                                                  adg_blob, command, flags,
                                                  last_line):
    """A negative count or address, or an address no RV32 pc can hold,
    is bad usage before anything runs, on `sim` and `chain --simulate`."""
    if command == "sim":
        code, out, err = _sim(capsys, sp_blob, "f", *flags)
    else:
        blob, addrs = adg_blob
        code, out, err = run(capsys, "chain", *RAW(blob), "--spec",
                             str(chain_file(tmp_path, addrs)), "--simulate",
                             *flags)
    assert code == 2 and "Traceback" not in err
    assert err.splitlines()[-1].endswith(last_line)
    if last_line.startswith("rvjop: "):
        assert err == last_line + "\n"


@pytest.mark.parametrize("flags, last_line", [
    (["--entry", "-4"], "argument --entry: -4 is below 0"),
    (["--return-to=-0x10"], "argument --return-to: -16 is below 0"),
    (["--loop-entry", "-1"], "argument --loop-entry: -1 is below 0"),
    (["--entry", "0x100000000"],
     "rvjop: --entry 0x100000000 is past the 32-bit address space"),
    (["--return-to", "0x100000010"],
     "rvjop: --return-to 0x100000010 is past the 32-bit address space"),
    (["--loop-entry", "0x100000000"],
     "rvjop: --loop-entry 0x100000000 is past the 32-bit address space"),
])
def test_sim_addresses_out_of_range_are_usage_errors(capsys, sp_blob, flags,
                                                     last_line):
    """A pc no RV32 core can hold is bad usage before anything runs."""
    code, out, err = _sim(capsys, sp_blob, "f", *flags)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.splitlines()[-1].endswith(last_line)
    if last_line.startswith("rvjop: "):
        assert err == last_line + "\n"


@pytest.mark.parametrize("flags, last_line", [
    (["--dispatcher", "-4"], "argument --dispatcher: -4 is below 0"),
    (["--dispatcher=-0x10"], "argument --dispatcher: -16 is below 0"),
    (["--dispatcher", "0x100000000"],
     "rvjop: --dispatcher 0x100000000 is past the 32-bit address space"),
    (["--dispatcher", "0x10000000000000000", "--xlen", "64"],
     "rvjop: --dispatcher 0x10000000000000000 is past the 64-bit "
     "address space"),
])
def test_dispatcher_out_of_range_is_a_usage_error(capsys, adg_blob, flags,
                                                  last_line):
    blob, _ = adg_blob
    code, out, err = run(capsys, "initializers", *RAW(blob), *flags)
    assert code == 2 and out == "" and "Traceback" not in err
    assert err.splitlines()[-1].endswith(last_line)
    if last_line.startswith("rvjop: "):
        assert err == last_line + "\n"


@pytest.fixture(scope="module")
def far_stack_chain(tmp_path_factory):
    """A classic chain whose initializer first raises sp by 4064, so its
    loads read sp+6064 and beyond, well past the scratch stack's 4 KiB of
    slack; one release step lowers sp again."""
    b = CodeBuilder()
    b.label("init")
    b.emit("addi", "sp", "sp", 2032)
    b.emit("addi", "sp", "sp", 2032)
    b.emit("lw", "s0", "sp", 2000)
    b.emit("lw", "t0", "sp", 2004)
    b.emit("lw", "t1", "sp", 2008)
    b.emit("jr", "t0")
    b.label("loop")
    b.emit("lw", "a5", "s0", 0)
    b.emit("addi", "s0", "s0", 4)
    b.emit("jr", "a5")
    b.label("release")
    b.emit("addi", "sp", "sp", -2032)
    b.emit("addi", "sp", "sp", -2032)
    b.emit("jr", "t1")
    b.label("end")
    b.emit("ebreak")
    where = tmp_path_factory.mktemp("cli")
    (where / "far.bin").write_bytes(b.blob())
    labels = b.labels
    (where / "chain.txt").write_text(
        f"dispatcher {labels['loop']:#x}\n"
        f"initializer {labels['init']:#x}\n"
        f"table-base {TABLE_BASE:#x}\n"
        f"return-to {labels['end']:#x}\n"
        f"dispatch-reg t1\n"
        f"step {labels['release']:#x}\n")
    return ["chain", *RAW(where / "far.bin"),
            "--spec", str(where / "chain.txt"), "--simulate"]


def test_chain_simulate_maps_far_stack_writes(capsys, far_stack_chain):
    code, out, err = run(capsys, *far_stack_chain)
    assert "sp+6064 <- " in out
    assert code == 0 and "outcome        reached" in out, err
    assert "sp delta       +0" in out


def test_chain_simulate_far_stack_overlap_and_wrap(capsys, far_stack_chain):
    # The stretched stack region still may not overlap the image ...
    code, _, err = run(capsys, *far_stack_chain, "--stack-top", "0xf000")
    assert code == 3 and "collides with [0x10000, " in err
    # ... and a stack write that wraps past 2^32 is an error, not a crash.
    code, _, err = run(capsys, *far_stack_chain, "--stack-top", "0xfffff000")
    assert code == 3 and "stack write at sp+" in err


def test_sim_stack_top_keeps_its_slack_addressable(capsys, tmp_path):
    # addi sp, sp, -16; sw ra, 0(sp); addi sp, sp, 16; ret
    path = tmp_path / "push.bin"
    path.write_bytes(bytes.fromhex("130101ff232011001301010167800000"))
    argv = ["sim", *RAW(path), "--entry", hex(BASE), "--return-to",
            hex(BASE + 12), "--stack-top"]
    code, out, _ = run(capsys, *argv, "0x8000")
    assert code == 0 and "steps          3\n" in out
    # A slack that leaves the address space is bad usage, as a stack top
    # past it is (`sim.new_machine` raises for library callers).
    code, out, err = run(capsys, *argv, "0x8")
    assert (code, out) == (2, "")
    assert err == ("rvjop: --stack-top 0x8: its 4096-byte slack runs "
                   "outside the 32-bit address space\n")


@pytest.mark.parametrize("xlen", [32, 64])
@pytest.mark.parametrize("command", ["sim", "chain"])
def test_stack_top_slack_outside_the_address_space_is_bad_usage(
        capsys, tmp_path, sp_blob, adg_blob, command, xlen):
    """Both ends, on RV32 and RV64: the stack tops whose slack just fits
    run, and one byte further either way is bad usage, as a stack top
    past the address space is."""
    if command == "sim":
        path, labels = sp_blob
        argv = ["sim", *RAW(path), "--xlen", str(xlen),
                "--entry", hex(labels["f"]), "--return-to",
                hex(labels["end"]), "--poke", f"t1={labels['end']:#x}"]
    elif xlen == 32:
        blob, addrs = adg_blob
        argv = ["chain", *RAW(blob), "--spec",
                str(chain_file(tmp_path, addrs)), "--simulate"]
    else:
        c, image, spec = _clean_corpus(tmp_path, 1)
        argv = ["chain", *c.image_args(image), "--spec", str(spec),
                "--simulate"]
    slack, end = rvjop.sim.STACK_SLACK, 1 << xlen
    for top in (slack, end - slack):
        code, _, err = run(capsys, *argv, "--stack-top", hex(top))
        assert code == 0, err
    for top in (0, 8, slack - 1, end - slack + 1, end - 1):
        code, _, err = run(capsys, *argv, "--stack-top", hex(top))
        assert code == 2 and err == (
            f"rvjop: --stack-top {top:#x}: its {slack}-byte slack runs "
            f"outside the {xlen}-bit address space\n")


@pytest.mark.parametrize("flag", ["--stack-top=0x8",
                                  "--buffer-base=0x1_0000_0000"])
def test_chain_simulate_usage_error_writes_nothing(capsys, tmp_path, adg_blob,
                                                   flag):
    # the limits are bad usage, so neither the manifest (stdout or
    # --manifest) nor the payload is written
    blob, addrs = adg_blob
    out, manifest = tmp_path / "payload.bin", tmp_path / "manifest.txt"
    argv = ["chain", *RAW(blob), "--spec", str(chain_file(tmp_path, addrs)),
            "--simulate", flag, "--out", str(out)]
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "") and err.startswith("rvjop: ")
    code, stdout, _ = run(capsys, *argv, "--manifest", str(manifest))
    assert (code, stdout) == (2, "")
    assert not out.exists() and not manifest.exists()


# --- the process entry: run() keeps the cyclic collector off ----------------

def _clean_corpus(tmp_path, scale, repeat=None):
    """The benchmark's clean RV64 image (4 KiB at scale 1) and its chain
    file, written under `tmp_path`; `repeat` overrides the counter step's."""
    c = benchmark_corpus().build("scan-clean-rv64", 1, scale=scale)
    if repeat is not None:
        c = dataclasses.replace(c, repeat=repeat)
    image = tmp_path / f"clean{scale}.elf"
    image.write_bytes(c.file_bytes)
    spec = tmp_path / f"clean{scale}-{c.repeat}.chain"
    spec.write_text(c.chain_text())
    return c, image, spec


WHOLE_IMAGE = [
    ["scan"], ["scan", "--format", "records"], ["query", "--all"],
    ["query", "--role=call"], ["dispatchers"],
    ["initializers", "--dispatcher", "{loop:#x}"], ["stats"],
    ["chain", "--spec", "{spec}"], ["chain", "--spec", "{spec}", "--simulate"],
]


def _cyclic_garbage(capsys, argv):
    """(exit code, objects the collector frees) for `main(argv)` run with
    the collector off, as `run()` runs it."""
    gc.collect()
    gc.disable()
    try:
        code = main(argv)
    finally:
        freed = gc.collect()
        gc.enable()
    capsys.readouterr()
    return code, freed


@pytest.mark.parametrize("argv", WHOLE_IMAGE, ids=" ".join)
def test_cyclic_garbage_does_not_grow_with_the_image(capsys, tmp_path, argv):
    # What `run()` leaves uncollected is the same at 4 KiB and 64 KiB:
    # the analysis itself is freed by reference counting.
    counts = []
    for scale in (1, 16):
        c, image, spec = _clean_corpus(tmp_path, scale)
        counts.append(_cyclic_garbage(capsys, [
            argv[0], *c.image_args(image),
            *(a.format(spec=spec, **c.labels) for a in argv[1:])]))
    assert counts[0][0] == 0
    assert counts[0] == counts[1]


def test_cyclic_garbage_does_not_grow_with_the_chain(capsys, tmp_path):
    # chain --simulate: the interpreter's cyclic garbage is bounded by the
    # distinct pcs it runs, not by how many steps it takes.
    counts = []
    for repeat in (1, 16, 400):
        c, image, spec = _clean_corpus(tmp_path, 1, repeat)
        counts.append(_cyclic_garbage(capsys, [
            "chain", *c.image_args(image), "--spec", str(spec),
            "--simulate"]))
    assert counts[0][0] == 0
    assert counts[0] == counts[1] == counts[2]


def test_main_leaves_the_collector_alone(adg_blob):
    blob, _ = adg_blob
    proc = _fresh_python(
        "import gc, json, sys\n"
        "frozen = gc.get_freeze_count()\n"
        "import rvjop.cli\n"
        "code = rvjop.cli.main(json.loads(sys.argv[1]))\n"
        "print(json.dumps([code, gc.isenabled(),"
        " gc.get_freeze_count() - frozen]), file=sys.stderr)\n",
        json.dumps(["dispatchers", *RAW(blob)]))
    assert json.loads(proc.stderr.splitlines()[-1]) == [0, True, 0], \
        proc.stderr


def test_run_disables_the_collector_and_exits_with_mains_code(monkeypatch):
    # run() never returns: with os._exit faked, main runs with the
    # collector off, then stdout and stderr are flushed, then the process
    # ends with main's code.
    events = []

    class Stream:
        buffer = io.BytesIO()           # buffered: run() keeps the stream

        def __init__(self, name):
            self.name = name

        def flush(self):
            events.append(f"flush {self.name}")

    def fake_main(argv=None):
        events.append(f"main, collector {'on' if gc.isenabled() else 'off'}")
        return 7

    monkeypatch.setattr(rvjop.cli, "main", fake_main)
    monkeypatch.setattr(os, "_exit",
                        lambda code: events.append(f"exit {code}"))
    monkeypatch.setattr(sys, "stdout", Stream("stdout"))
    monkeypatch.setattr(sys, "stderr", Stream("stderr"))
    try:
        rvjop.cli.run()
    finally:
        gc.enable()
    assert events == ["main, collector off", "flush stdout", "flush stderr",
                      "exit 7"]


def test_module_entry_imports_with_the_collector_off(adg_blob):
    # `python -m rvjop.cli` turns the collector off at the module's first
    # statement: a collection may run while the package loads and the
    # module compiles, but none once the layers start loading.
    blob, _ = adg_blob
    proc = _fresh_python(
        "import gc, json, os, runpy, sys, rvjop\n"
        "seen, real_exit = [], os._exit\n"
        "def spy(phase, info):\n"
        "    if phase == 'start':\n"
        "        seen.append(sorted(m for m in sys.modules if 'rvjop' in m))\n"
        "def exit_(code):\n"
        "    print(json.dumps([code, gc.isenabled(), seen]), file=sys.stderr)\n"
        "    sys.stderr.flush()\n"
        "    real_exit(code)\n"
        "gc.callbacks.append(spy)\n"
        "os._exit = exit_\n"
        "sys.argv[1:] = json.loads(sys.argv[1])\n"
        "runpy.run_module('rvjop.cli', run_name='__main__')\n",
        json.dumps(["dispatchers", *RAW(blob)]))
    code, enabled, seen = json.loads(proc.stderr.splitlines()[-1])
    assert (code, enabled) == (0, False), proc.stderr
    assert all(m == ["rvjop", "rvjop.errors", "rvjop.image"] for m in seen)


@pytest.mark.parametrize("case", ["found", "empty", "usage", "bad-image"])
def test_module_entry_matches_main(capsys, tmp_path, adg_blob, case):
    # `python -m rvjop.cli` goes through run(): the same exit code, stdout
    # and stderr as main() in process.
    blob, _ = adg_blob
    empty = tmp_path / "ret.bin"
    empty.write_bytes(bytes.fromhex("8280"))                    # c.ret
    junk = tmp_path / "junk.elf"
    junk.write_bytes(b"MZ not an elf at all")
    argv, want_code = {
        "found": (["dispatchers", *RAW(blob)], 0),
        "empty": (["dispatchers", "--raw", str(empty)], 1),
        "usage": (["dispatchers"], 2),                 # no image given
        "bad-image": (["scan", "--binary", str(junk)], 3),
    }[case]
    want = run(capsys, *argv)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-m", "rvjop.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert want[0] == want_code
    assert (proc.returncode, proc.stdout, proc.stderr) == want


def test_module_entry_writes_the_same_chain_files(capsys, tmp_path, adg_blob):
    # os._exit skips finalization: the payload and manifest are complete
    # because each file is closed by its `with` block, and the simulation
    # report is flushed before the exit.
    blob, addrs = adg_blob
    spec = chain_file(tmp_path, addrs)

    def argv(tag):
        return ["chain", *RAW(blob), "--spec", str(spec), "--simulate",
                "--out", str(tmp_path / f"{tag}.bin"),
                "--manifest", str(tmp_path / f"{tag}.txt")]
    want = run(capsys, *argv("main"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-m", "rvjop.cli", *argv("entry")],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert want[0] == 0 and "outcome        reached" in want[1]
    assert (proc.returncode, proc.stdout, proc.stderr) == want
    for name in ("bin", "txt"):
        assert ((tmp_path / f"entry.{name}").read_bytes()
                == (tmp_path / f"main.{name}").read_bytes())


def _many_dispatchers(count):
    """`count` distinct classic dispatchers, `lw rd, 0(s0); addi s0, s0,
    stride; jr rd`, for the target and stride pairs in turn."""
    targets = [r for r in range(5, 32) if r != 8]
    code = bytearray()
    for k in range(count):
        rd, stride = targets[k // 511 % len(targets)], 4 * (k % 511 + 1)
        for word in (0x42003 | rd << 7, stride << 20 | 0x40413,
                     rd << 15 | 0x67):
            code += word.to_bytes(4, "little")
    return bytes(code)


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["scan", "dispatchers"])
def test_closed_stdout_exits_1_without_a_message(tmp_path, command,
                                                  buffering):
    # The reader takes 10 bytes and goes, as `| head -c 10` does.  The
    # output is megabytes, more than a pipe holds, so the command is still
    # writing: the write that finds the pipe closed ends it with exit 1
    # and no message, with or without PYTHONUNBUFFERED.
    blob = tmp_path / "dispatchers.bin"
    blob.write_bytes(_many_dispatchers(3000))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "rvjop.cli", command, "--raw", str(blob)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(os.read(proc.stdout.fileno(), 10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"")
