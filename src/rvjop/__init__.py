"""Jump-oriented gadget tooling for RISC-V images.

The pieces, bottom up: an RV32/RV64 IMAC decoder and a matching
assembler, ELF and flat image loading, a gadget scanner keyed on
indirect jumps, per-gadget dataflow summaries, role classification
including dispatcher and initializer discovery, chain building with
payload layout, and a shadow-stack interpreter for verdicts.  Each lives
in its own submodule (`rvjop.decoder`, `rvjop.scanner`, ...); the package
itself exports only the two image loaders.
"""

from .image import load_elf, load_raw

__version__ = "0.1.0"

__all__ = ["load_elf", "load_raw"]
