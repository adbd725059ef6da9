"""Exception types shared across the toolkit.

Every error raised by this package derives from ToolError so callers can
catch the whole family at an API boundary (the CLI maps them to exit codes).
"""

from __future__ import annotations


class ToolError(Exception):
    """Base class for all errors raised by this package."""


# --- instruction decoding / encoding ---------------------------------------

class InvalidEncoding(ToolError):
    """The byte pattern is not a supported instruction.

    `subcode` distinguishes why: "undefined" for patterns outside the
    supported sets, "fp" for float opcodes, "vector" for vector opcodes.
    """

    def __init__(self, address: int, word: int, subcode: str = "undefined"):
        self.address = address
        self.word = word
        self.subcode = subcode
        super().__init__(f"invalid encoding 0x{word:x} at 0x{address:x} ({subcode})")


class Truncated(ToolError):
    """Fewer bytes available than the instruction width requires."""

    def __init__(self, address: int, needed: int, got: int):
        self.address = address
        self.needed = needed
        self.got = got
        super().__init__(f"truncated fetch at 0x{address:x}: need {needed} bytes, have {got}")


class UnsupportedInstruction(ToolError):
    """The assembler does not know the requested mnemonic."""


class OperandOutOfRange(ToolError):
    """An operand does not fit its encoding field or violates a constraint."""


# --- binary loading ---------------------------------------------------------

class NotElf(ToolError):
    """File does not start with the ELF magic."""


class WrongMachine(ToolError):
    """ELF file is for a different architecture."""


class MalformedImage(ToolError):
    """Structurally broken ELF (bad headers, overlap, unsupported byte order)."""


# --- query / chain ----------------------------------------------------------

class UsageError(ToolError):
    """Bad query or command-line input; names the offending flag."""


class Diverges(ToolError):
    """Repetition count can never reach the target with this stride sign."""


class AddressTooWide(ToolError):
    """A table entry or the payload buffer does not fit the XLEN-bit
    address space."""


class Overlap(ToolError):
    """Payload regions collide with each other or with loaded segments."""
