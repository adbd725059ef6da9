"""Register file description and small numeric helpers."""

from __future__ import annotations


class Register:
    """One of the 32 singletons in `REGISTERS`; identity is equality."""

    __slots__ = ("index", "name")

    def __init__(self, index: int, name: str):
        self.index = index
        self.name = name      # canonical ABI name ("zero", "ra", "a5", ...)

    def __repr__(self) -> str:
        return self.name


def _build_registers() -> tuple[Register, ...]:
    names = ["zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1"]
    names += [f"a{i}" for i in range(8)]        # x10..x17
    names += [f"s{i}" for i in range(2, 12)]    # x18..x27
    names += [f"t{i}" for i in range(3, 7)]     # x28..x31
    return tuple(Register(i, name) for i, name in enumerate(names))


REGISTERS: tuple[Register, ...] = _build_registers()

_BY_NAME: dict[str, Register] = {r.name: r for r in REGISTERS}
_BY_NAME["fp"] = REGISTERS[8]
_BY_NAME.update({f"x{i}": REGISTERS[i] for i in range(32)})


def reg(key: int | str | Register) -> Register:
    """Look up a register by index, ABI name, or xN name."""
    if isinstance(key, Register):
        return key
    if isinstance(key, int):
        if not 0 <= key < 32:
            raise ValueError(f"register index out of range: {key}")
        return REGISTERS[key]
    try:
        return _BY_NAME[key]
    except KeyError:
        raise ValueError(f"unknown register name: {key!r}") from None


def is_register_name(name: str) -> bool:
    return name in _BY_NAME


ZERO = REGISTERS[0]
RA = REGISTERS[1]
SP = REGISTERS[2]
GP = REGISTERS[3]
TP = REGISTERS[4]
T0 = REGISTERS[5]
T1 = REGISTERS[6]
T2 = REGISTERS[7]
S0 = REGISTERS[8]
S1 = REGISTERS[9]
A0 = REGISTERS[10]
A1 = REGISTERS[11]
A2 = REGISTERS[12]
A3 = REGISTERS[13]
A4 = REGISTERS[14]
A5 = REGISTERS[15]
A6 = REGISTERS[16]
A7 = REGISTERS[17]

ARG_REGS = tuple(REGISTERS[10:18])


# --- bit fiddling -----------------------------------------------------------

def sext(value: int, width: int) -> int:
    """Sign-extend a width-bit value to a Python int."""
    sign = 1 << (width - 1)
    return (value & (sign - 1)) - (value & sign)


def mask(xlen: int) -> int:
    return (1 << xlen) - 1


def to_signed(value: int, xlen: int) -> int:
    return sext(value & mask(xlen), xlen)
