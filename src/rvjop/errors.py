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
    The fields are the exception's `args`, so it pickles and copies, and
    the message is formatted only when it is read: most invalid encodings
    a sweep meets are dropped unread.
    """

    def __init__(self, address: int, word: int, subcode: str = "undefined"):
        super().__init__(address, word, subcode)
        self.address = address
        self.word = word
        self.subcode = subcode

    def __str__(self) -> str:
        return (f"invalid encoding 0x{self.word:x} at 0x{self.address:x} "
                f"({self.subcode})")


class Truncated(ToolError):
    """Fewer bytes available than the instruction width requires."""

    def __init__(self, address: int, needed: int, got: int):
        super().__init__(address, needed, got)
        self.address = address
        self.needed = needed
        self.got = got

    def __str__(self) -> str:
        return (f"truncated fetch at 0x{self.address:x}: need {self.needed} "
                f"bytes, have {self.got}")


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
