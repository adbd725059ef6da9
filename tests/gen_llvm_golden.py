"""Golden encodings for the assembler and golden decodes for the decoder,
taken from llvm-mc.

Runs `llvm-mc-14 --show-encoding -M no-aliases` over seeded valid operand
tuples for every mnemonic the assembler supports, on RV32 and RV64, and
writes `assembler_llvm_golden.txt` next to this file.  The tier-1 test
`test_assembler.py::test_llvm_golden` compares `assemble()` with that
file and needs no llvm, so only regenerating it needs the tool:

    PYTHONPATH=src python tests/gen_llvm_golden.py

In its decoder mode it runs `llvm-mc-14 --disassemble -M no-aliases`
(`-mattr=+m,+a`) over 32-bit words on RV32 and RV64 and writes
`decoder_llvm_golden.txt.gz`, which `test_decoder.py::test_llvm_golden`
reads the same way:

    PYTHONPATH=src python tests/gen_llvm_golden.py decoder

The words are every opcode x funct3 x funct7 with the register fields
(rd, rs1, rs2) at (0, 0, 0), (0, 0, 1) and (31, 31, 31), then seeded
random words.  They depend on nothing in rvjop, so the file is the same
whichever tree writes it.

Its compressed mode does the same for every halfword whose low two bits
are not 11 (49,152 patterns), with `-mattr=+m,+a,+c`, and writes
`decoder_llvm_golden16.txt.gz` for `test_decoder.py::test_llvm_golden16`:

    PYTHONPATH=src python tests/gen_llvm_golden.py compressed

The 32-bit forms assemble with `-mattr=+m,+a` and no `+c`, because with
`+c` llvm compresses `addi a0, a0, 1` to `c.addi`.  The `c.*` forms
assemble with `-mattr=+c`.  `SHAPES` names each mnemonic's operand kinds
in the assembler's operand order and the llvm spelling of its operands;
`test_assembler_digest` draws its sweep from the same table.
"""

from __future__ import annotations

import gzip
import random
import re
import subprocess
import sys
from pathlib import Path

from rvjop.assembler import supported_mnemonics
from rvjop.isa import REGISTERS

GOLDEN = Path(__file__).with_name("assembler_llvm_golden.txt")
DECODER_GOLDEN = Path(__file__).with_name("decoder_llvm_golden.txt.gz")
COMPRESSED_GOLDEN = Path(__file__).with_name("decoder_llvm_golden16.txt.gz")
LLVM_MC = "llvm-mc-14"
SEED = 20261018
PER_FORM = 6                       # tuples per (mnemonic, XLEN)
SEEDED_WORDS = 16384               # random words after the corner sweep

# Register kinds: the indices a field accepts.
REG_KINDS = {
    "r": tuple(range(32)),
    "rnz": tuple(range(1, 32)),                            # no x0
    "rp": tuple(range(8, 16)),                             # 3-bit field
    "rlui": tuple(i for i in range(32) if i not in (0, 2)),
}

# Immediate kinds: (lo, hi, multiple, nonzero).  "sh" and "csh" are
# XLEN-dependent and filled in by `imm_kind`.
IMM_KINDS = {
    "i12": (-2048, 2047, 1, False),
    "u20": (0, 0xFFFFF, 1, False),
    "b13": (-4096, 4094, 2, False),
    "j21": (-(1 << 20), (1 << 20) - 2, 2, False),
    "csr": (0, 4095, 1, False),
    "u5": (0, 31, 1, False),
    "set": (1, 15, 1, False),      # fence set; llvm has no empty-set spelling
    "ci6": (-32, 31, 1, False),
    "ci6nz": (-32, 31, 1, True),
    "clui": (-32, 31, 1, True),
    "c16sp": (-512, 496, 16, True),
    "c4spn": (4, 1020, 4, False),
    "clw": (0, 124, 4, False),
    "cld": (0, 248, 8, False),
    "clwsp": (0, 252, 4, False),
    "cldsp": (0, 504, 8, False),
    "cj": (-2048, 2046, 2, False),
    "cb": (-256, 254, 2, False),
}


def imm_kind(kind: str, xlen: int) -> tuple[int, int, int, bool]:
    if kind == "sh":
        return 0, xlen - 1, 1, False
    if kind == "csh":
        return 1, xlen - 1, 1, False
    return IMM_KINDS[kind]


BOTH, RV64, RV32 = (32, 64), (64,), (32,)

# mnemonic -> (operand kinds, llvm operand template, XLENs)
SHAPES: dict[str, tuple[tuple[str, ...], str, tuple[int, ...]]] = {}


def _shape(names, kinds, template, xlens=BOTH):
    for name in names.split():
        SHAPES[name] = (tuple(kinds.split()), template, xlens)


_R3, _MEM = "{0}, {1}, {2}", "{0}, {2}({1})"
_shape("add sub sll slt sltu xor srl sra or and "
       "mul mulh mulhsu mulhu div divu rem remu", "r r r", _R3)
_shape("addw subw sllw srlw sraw mulw divw divuw remw remuw", "r r r", _R3,
       RV64)
_shape("addi slti sltiu xori ori andi", "r r i12", _R3)
_shape("addiw", "r r i12", _R3, RV64)
_shape("jalr", "r r i12", _MEM)
_shape("slli srli srai", "r r sh", _R3)
_shape("slliw srliw sraiw", "r r u5", _R3, RV64)
_shape("lb lh lw lbu lhu sb sh sw", "r r i12", _MEM)
_shape("lwu ld sd", "r r i12", _MEM, RV64)
_shape("lui auipc", "r u20", "{0}, {1}")
_shape("jal", "r j21", "{0}, {1}")
_shape("beq bne blt bge bltu bgeu", "r r b13", _R3)
_shape("fence", "set set", "{0}, {1}")
_shape("fence.i ecall ebreak c.nop c.ebreak ret nop", "", "")
_shape("csrrw csrrs csrrc", "r csr r", _R3)
_shape("csrrwi csrrsi csrrci", "r csr u5", _R3)
for _base in ("amoswap amoadd amoxor amoand amoor amomin amomax amominu "
              "amomaxu sc lr").split():
    for _order in ("", ".aq", ".rl", ".aqrl"):
        _kinds, _tpl = (("r r", "{0}, ({1})") if _base == "lr"
                        else ("r r r", "{0}, {1}, ({2})"))
        _shape(f"{_base}.w{_order}", _kinds, _tpl)
        _shape(f"{_base}.d{_order}", _kinds, _tpl, RV64)
_shape("c.addi", "rnz ci6nz", "{0}, {1}")
_shape("c.addiw", "rnz ci6", "{0}, {1}", RV64)
_shape("c.li", "rnz ci6", "{0}, {1}")
_shape("c.addi16sp", "c16sp", "sp, {0}")
_shape("c.lui", "rlui clui", "{0}, {1}")
_shape("c.addi4spn", "rp c4spn", "{0}, sp, {1}")
_shape("c.lw c.sw", "rp rp clw", _MEM)
_shape("c.ld c.sd", "rp rp cld", _MEM, RV64)
_shape("c.lwsp", "rnz clwsp", "{0}, {1}(sp)")
_shape("c.swsp", "r clwsp", "{0}, {1}(sp)")
_shape("c.ldsp", "rnz cldsp", "{0}, {1}(sp)", RV64)
_shape("c.sdsp", "r cldsp", "{0}, {1}(sp)", RV64)
_shape("c.j", "cj", "{0}")
_shape("c.jal", "cj", "{0}", RV32)
_shape("c.beqz c.bnez", "rp cb", "{0}, {1}")
_shape("c.srli c.srai", "rp csh", "{0}, {1}")
_shape("c.slli", "rnz csh", "{0}, {1}")
_shape("c.andi", "rp ci6", "{0}, {1}")
_shape("c.sub c.xor c.or c.and", "rp rp", "{0}, {1}")
_shape("c.subw c.addw", "rp rp", "{0}, {1}", RV64)
_shape("c.jr c.jalr", "rnz", "{0}")
_shape("c.mv c.add", "rnz rnz", "{0}, {1}")
_shape("li", "r i12", "{0}, {1}")
_shape("mv", "r r", "{0}, {1}")
_shape("jr", "r", "{0}")
_shape("j", "j21", "{0}")

# Cases llvm cannot spell; test_assembler.LLVM_DIVERGENCES says why.
EXTRA = [(32, "fence", (0, 0)), (64, "fence", (0, 15))]


def sample(kind: str, xlen: int, rng: random.Random):
    """One valid operand of `kind`: a field edge or a random value."""
    if kind in REG_KINDS:
        return REGISTERS[rng.choice(REG_KINDS[kind])].name
    lo, hi, step, nonzero = imm_kind(kind, xlen)
    if rng.random() < 0.4:
        return rng.choice([v for v in (lo, hi, step, -step)
                           if lo <= v <= hi and (v or not nonzero)])
    while True:
        v = rng.randrange(lo, hi + 1, step)
        if v or not nonzero:
            return v


def llvm_operand(kind: str, value) -> str:
    if kind == "set":
        return "".join(c for c, bit in zip("iorw", (8, 4, 2, 1))
                       if value & bit) or "0"
    if kind == "clui" and value < 0:
        return str(value & 0xFFFFF)        # llvm writes c.lui's top as 20 bits
    return str(value)


def cases(rng: random.Random):
    """(xlen, mnemonic, operands) for every mnemonic, in a fixed order."""
    for m in supported_mnemonics():
        kinds, _, xlens = SHAPES[m]
        for xlen in xlens:
            for _ in range(PER_FORM):
                yield xlen, m, tuple(sample(k, xlen, rng) for k in kinds)
    yield from EXTRA


def llvm_line(m: str, ops) -> str:
    kinds, template, _ = SHAPES[m]
    return f"{m} {template.format(*map(llvm_operand, kinds, ops))}".rstrip()


def run_llvm(xlen: int, compressed: bool, lines: list[str]) -> list[str | None]:
    """Each line's encoding as hex, or None where llvm reports an error."""
    attrs = "+c" if compressed else "+m,+a"
    proc = subprocess.run(
        [LLVM_MC, "--show-encoding", "-M", "no-aliases",
         f"-triple=riscv{xlen}", f"-mattr={attrs}"],
        input="\n".join(lines) + "\n", capture_output=True, text=True)
    bad = {int(n) - 1 for n in re.findall(r"^<stdin>:(\d+):", proc.stderr,
                                          re.MULTILINE)}
    encodings = iter(re.findall(r"encoding: \[([^\]]*)\]", proc.stdout))
    out = []
    for i in range(len(lines)):
        if i in bad:
            out.append(None)
        else:
            out.append(bytes(int(b, 16) for b in next(encodings).split(","))
                       .hex())
    if next(encodings, None) is not None:
        raise RuntimeError("llvm-mc printed more encodings than expected")
    return out


def format_ops(ops) -> str:
    return ",".join(map(str, ops)) or "-"


def decoder_words() -> list[int]:
    """The words the decoder golden holds, in its order."""
    corners = [f7 << 25 | rs2 << 20 | rs1 << 15 | f3 << 12 | rd << 7 | op
               for op in range(3, 128, 4) for f3 in range(8)
               for f7 in range(128)
               for rd, rs1, rs2 in ((0, 0, 0), (0, 0, 1), (31, 31, 31))]
    rng = random.Random(SEED)
    return corners + [rng.getrandbits(32) | 3 for _ in range(SEEDED_WORDS)]


def compressed_words() -> list[int]:
    """Every halfword the compressed golden holds, in its order."""
    return [hw for hw in range(1 << 16) if hw & 3 != 3]


def disassemble(xlen: int, words: list[int], width: int,
                attrs: str) -> list[str | None]:
    """llvm's text for each `width`-byte word (mnemonic, one space,
    operands), or None where llvm reports an invalid encoding."""
    lines = [" ".join(f"0x{b:02x}" for b in w.to_bytes(width, "little"))
             for w in words]
    proc = subprocess.run(
        [LLVM_MC, "--disassemble", "-M", "no-aliases",
         f"-triple=riscv{xlen}", f"-mattr={attrs}"],
        input="\n".join(lines) + "\n", capture_output=True, text=True)
    found = re.findall(r"^<stdin>:(\d+):\d+: warning: invalid instruction "
                       r"encoding", proc.stderr, re.MULTILINE)
    bad = {int(n) - 1 for n in found}
    texts = iter(" ".join(line.split("\t")[1:]).strip()
                 for line in proc.stdout.splitlines()
                 if line.startswith("\t") and line.strip() != ".text")
    if len(bad) != len(found):
        raise RuntimeError("llvm-mc reported one word invalid twice")
    out = [None if i in bad else next(texts) for i in range(len(words))]
    if next(texts, None) is not None:
        raise RuntimeError("llvm-mc printed more instructions than expected")
    return out


def write_decoder_golden(path: Path, words: list[int], width: int,
                         attrs: str, mode: str) -> int:
    """Disassemble `words` on RV32 and RV64 and write them to `path`."""
    rv32 = disassemble(32, words, width, attrs)
    rv64 = disassemble(64, words, width, attrs)
    text = (f"# {LLVM_MC} --disassemble -M no-aliases -mattr={attrs}; "
            f"written by tests/gen_llvm_golden.py {mode} (seed {SEED})\n"
            "# word rv32-text|rv64-text ('-' invalid, '=' as on RV32)\n")
    text += "".join(f"{w:0{2 * width}x} {a or '-'}|{'=' if a == b else b or '-'}\n"
                    for w, a, b in zip(words, rv32, rv64))
    # mtime 0: the same words give the same bytes
    path.write_bytes(gzip.compress(text.encode("ascii"), mtime=0))
    print(f"{len(words)} words, {rv32.count(None)} invalid on RV32 and "
          f"{rv64.count(None)} on RV64 -> {path.name}")
    return 0


def main() -> int:
    if sys.argv[1:] == ["decoder"]:
        return write_decoder_golden(DECODER_GOLDEN, decoder_words(), 4,
                                    "+m,+a", "decoder")
    if sys.argv[1:] == ["compressed"]:
        return write_decoder_golden(COMPRESSED_GOLDEN, compressed_words(), 2,
                                    "+m,+a,+c", "compressed")
    all_cases = list(cases(random.Random(SEED)))
    groups: dict[tuple[int, bool], list[int]] = {}
    for i, (xlen, m, _) in enumerate(all_cases):
        groups.setdefault((xlen, m.startswith("c.")), []).append(i)
    results: list[str | None] = [None] * len(all_cases)
    for (xlen, compressed), idx in sorted(groups.items()):
        lines = [llvm_line(all_cases[i][1], all_cases[i][2]) for i in idx]
        for i, enc in zip(idx, run_llvm(xlen, compressed, lines)):
            results[i] = enc
    with GOLDEN.open("w", encoding="ascii") as fh:
        fh.write(f"# {LLVM_MC} --show-encoding -M no-aliases; "
                 f"written by tests/gen_llvm_golden.py (seed {SEED})\n")
        fh.write("# xlen mnemonic operands bytes-or-error\n")
        for (xlen, m, ops), enc in zip(all_cases, results):
            fh.write(f"{xlen} {m} {format_ops(ops)} {enc or 'error'}\n")
    print(f"{len(all_cases)} cases, "
          f"{results.count(None)} rejected by llvm -> {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
