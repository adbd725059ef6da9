"""Reference one-step semantics for the interpreter, written from the
RISC-V unprivileged ISA (RV32I/RV64I, M and A) and sharing no code with
`rvjop.sim` or `rvjop.isa`.  Deliberately plain: every rule is spelled
out per mnemonic, on Python ints, the way the spec's prose states it.

Register values go in and come out as unsigned XLEN-bit ints.
"""

from __future__ import annotations


def _bits(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


def _signed(value: int, width: int) -> int:
    value = _bits(value, width)
    return value - (1 << width) if value >> (width - 1) else value


def _div_trunc(a: int, b: int) -> int:
    """Quotient rounded toward zero (the spec's division)."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _div(a: int, b: int, width: int) -> int:
    # by zero: all ones; most negative / -1 overflows to itself
    if b == 0:
        return -1
    if a == -(1 << (width - 1)) and b == -1:
        return a
    return _div_trunc(a, b)


def _rem(a: int, b: int, width: int) -> int:
    # by zero: the dividend; overflow: zero; else the sign of the dividend
    if b == 0:
        return a
    if a == -(1 << (width - 1)) and b == -1:
        return 0
    return a - _div_trunc(a, b) * b


def _full(name: str, a: int, b: int, xlen: int) -> int:
    """XLEN-wide ALU ops; `b` is rs2's value or the sign-extended
    immediate."""
    sa, sb = _signed(a, xlen), _signed(b, xlen)
    ua, ub = _bits(a, xlen), _bits(b, xlen)
    shamt = ub & (xlen - 1)
    table = {
        "add": lambda: ua + ub, "sub": lambda: ua - ub,
        "and": lambda: ua & ub, "or": lambda: ua | ub,
        "xor": lambda: ua ^ ub,
        "slt": lambda: int(sa < sb), "sltu": lambda: int(ua < ub),
        "sll": lambda: ua << shamt, "srl": lambda: ua >> shamt,
        "sra": lambda: sa >> shamt,
        "mul": lambda: sa * sb,
        "mulh": lambda: (sa * sb) >> xlen,
        "mulhsu": lambda: (sa * ub) >> xlen,
        "mulhu": lambda: (ua * ub) >> xlen,
        "div": lambda: _div(sa, sb, xlen),
        "divu": lambda: -1 if ub == 0 else ua // ub,
        "rem": lambda: _rem(sa, sb, xlen),
        "remu": lambda: ua if ub == 0 else ua % ub,
    }
    return _bits(table[name](), xlen)


def _word(name: str, a: int, b: int) -> int:
    """RV64 `.w` ops: operate on the low 32 bits, sign-extend the 32-bit
    result to 64."""
    sa, sb = _signed(a, 32), _signed(b, 32)
    ua, ub = _bits(a, 32), _bits(b, 32)
    shamt = ub & 31
    table = {
        "addw": lambda: ua + ub, "subw": lambda: ua - ub,
        "sllw": lambda: ua << shamt, "srlw": lambda: ua >> shamt,
        "sraw": lambda: sa >> shamt,
        "mulw": lambda: ua * ub,
        "divw": lambda: _div(sa, sb, 32),
        "divuw": lambda: -1 if ub == 0 else ua // ub,
        "remw": lambda: _rem(sa, sb, 32),
        "remuw": lambda: ua if ub == 0 else ua % ub,
    }
    return _bits(_signed(table[name](), 32), 64)


# Register-immediate forms and the register-register op they share.
IMMEDIATE_OF = {"addi": "add", "andi": "and", "ori": "or", "xori": "xor",
                "slti": "slt", "sltiu": "sltu", "slli": "sll", "srli": "srl",
                "srai": "sra", "addiw": "addw", "slliw": "sllw",
                "srliw": "srlw", "sraiw": "sraw"}

REGISTER_OPS = ("add", "sub", "and", "or", "xor", "slt", "sltu", "sll",
                "srl", "sra", "mul", "mulh", "mulhsu", "mulhu", "div",
                "divu", "rem", "remu")
WORD_OPS = ("addw", "subw", "sllw", "srlw", "sraw", "mulw", "divw",
            "divuw", "remw", "remuw")


def alu(name: str, a: int, b: int, xlen: int) -> int:
    """rd after `name rd, rs1, rs2` (or `rs1, imm`) with rs1 = a and
    rs2 = b (or imm = b, sign-extended, which for sltiu is then compared
    unsigned)."""
    name = IMMEDIATE_OF.get(name, name)
    if name.endswith("w"):
        return _word(name, a, b)
    return _full(name, a, b, xlen)


# Load mnemonic -> (bytes read, sign-extends).
LOADS = {"lb": (1, True), "lh": (2, True), "lw": (4, True), "ld": (8, True),
         "lbu": (1, False), "lhu": (2, False), "lwu": (4, False)}
STORES = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}


def load(name: str, memory: int, xlen: int) -> int:
    """rd after loading from little-endian memory whose bytes, read as one
    integer from the address up, are `memory`."""
    size, signed = LOADS[name]
    value = _bits(memory, 8 * size)
    return _bits(_signed(value, 8 * size) if signed else value, xlen)


AMO_OPS = ("amoswap", "amoadd", "amoxor", "amoand", "amoor", "amomin",
           "amomax", "amominu", "amomaxu")


def amo(name: str, memory: int, src: int, xlen: int) -> tuple[int, int]:
    """(rd, memory after) for `name rd, rs2, (rs1)` with rs2 = src.

    The operation runs at the access width: a `.w` op on RV64 compares
    and computes on the low 32 bits of rs2, and rd gets the loaded word
    sign-extended."""
    op, suffix = name.split(".")[:2]
    width = 32 if suffix == "w" else 64
    old_u, src_u = _bits(memory, width), _bits(src, width)
    old_s, src_s = _signed(memory, width), _signed(src, width)
    new = {"amoswap": src_u, "amoadd": old_u + src_u,
           "amoxor": old_u ^ src_u, "amoand": old_u & src_u,
           "amoor": old_u | src_u,
           "amomin": min(old_s, src_s), "amomax": max(old_s, src_s),
           "amominu": min(old_u, src_u),
           "amomaxu": max(old_u, src_u)}[op]
    return _bits(old_s, xlen), _bits(new, width)


def upper(name: str, imm20: int, pc: int, xlen: int) -> int:
    """rd after `lui`/`auipc rd, imm20`: the 20 bits go to bits 31:12 and
    the 32-bit result is sign-extended; auipc adds the pc."""
    value = _signed(imm20 << 12, 32)
    if name == "auipc":
        value += pc
    return _bits(value, xlen)


def branch_taken(name: str, a: int, b: int, xlen: int) -> bool:
    """Whether `name rs1, rs2, offset` branches with rs1 = a, rs2 = b."""
    sa, sb = _signed(a, xlen), _signed(b, xlen)
    ua, ub = _bits(a, xlen), _bits(b, xlen)
    return {"beq": ua == ub, "bne": ua != ub, "blt": sa < sb,
            "bge": sa >= sb, "bltu": ua < ub, "bgeu": ua >= ub}[name]


# The compressed jumps: the 32-bit jump each stands for and the rd it
# writes, x1 when it links.  c.jr and c.jalr have no offset: it is 0.
COMPRESSED_JUMPS = {"c.j": ("jal", 0), "c.jal": ("jal", 1),
                    "c.jr": ("jalr", 0), "c.jalr": ("jalr", 1)}


def jump(name: str, pc: int, base: int, offset: int,
         xlen: int) -> tuple[int, int]:
    """(pc after, rd after) for `jal rd, offset` at `pc`, or for `jalr rd,
    offset(rs1)` at `pc` with rs1 = base, when rd is not x0, or for one
    of `COMPRESSED_JUMPS`.

    jal jumps to pc + offset; jalr to base + offset with bit 0 cleared,
    rs1 read before rd is written.  Both wrap at 2^XLEN, and rd gets the
    address of the next instruction: pc + 4, or pc + 2 after a
    compressed jump."""
    size = 4
    if name in COMPRESSED_JUMPS:
        name, size = COMPRESSED_JUMPS[name][0], 2
    target = pc + offset if name == "jal" else (base + offset) & ~1
    return _bits(target, xlen), _bits(pc + size, xlen)


def shadow(name: str, rd: int, rs1: int, offset: int, stack: list[int],
           target: int, link: int) -> tuple[list[int], bool]:
    """(shadow stack after, whether it is a violation) for the jump `name`
    writing x`rd` (for a compressed jump, the rd it implies) through
    x`rs1` plus `offset` (a jal's rs1 is 0), from `stack`, to `target`
    with return address `link`.

    The shadow stack follows the return-address convention of the ISA's
    calls and returns: a jump that writes x1 pushes its return address,
    and `jalr x0, 0(x1)`, the jump that `ret` and `c.jr x1` stand for,
    pops.  A top equal to the target pops; an empty stack or another top
    is a violation.  Every other jump leaves the stack as it was."""
    name = COMPRESSED_JUMPS.get(name, (name,))[0]
    if name == "jalr" and rd == 0 and rs1 == 1 and offset == 0:
        if not stack or stack[-1] != target:
            return stack, True
        return stack[:-1], False
    if rd == 1:
        return stack + [link], False
    return stack, False
