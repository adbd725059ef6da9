"""Jump-oriented gadget tooling for RISC-V images.

The pieces, bottom up: an RV32/RV64 IMAC decoder and a matching
assembler, ELF and flat image loading, a gadget scanner keyed on
indirect jumps, per-gadget dataflow summaries, role classification
including dispatcher and initializer discovery, chain building with
payload layout, and a shadow-stack interpreter for verdicts.  Each lives
in its own submodule (`rvjop.decoder`, `rvjop.scanner`, ...); the package
itself exports only the two image loaders.  A submodule that nothing has
imported yet loads on first attribute access, so `rvjop.sim` works after
`import rvjop` without the package importing every layer up front.
Loading an image decodes nothing, so `import rvjop` and a load import
only `rvjop.image` and `rvjop.errors`: the decoder loads with an image's
first decode table, where every analysis starts.
"""

from .image import load_elf, load_raw

__version__ = "0.1.0"

__all__ = ["load_elf", "load_raw"]


def __getattr__(name: str):
    import importlib
    module = f"{__name__}.{name}"
    try:
        return importlib.import_module(module)
    except ModuleNotFoundError as exc:
        if exc.name != module:
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
