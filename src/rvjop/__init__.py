"""Jump-oriented gadget tooling for RISC-V images.

The pieces, bottom up: an RV32/RV64 IMAC decoder and a matching
assembler, ELF and flat image loading, a gadget scanner keyed on
indirect jumps, per-gadget dataflow summaries, role classification
including dispatcher and initializer discovery, chain building with
payload layout, and a shadow-stack interpreter for verdicts.
"""

from .assembler import assemble, supported_mnemonics
from .chain import (ChainSpec, ChainStep, Diagnostic, DispatchTable,
                    PayloadLayout, build_dispatch_table, has_errors,
                    layout_payload, make_initializer, parse_chain_text,
                    render_manifest, repetitions_for, validate_chain)
from .classify import (DispatcherCandidate, GadgetRole, InitializerCandidate,
                       availability_stats, classify, find_dispatchers,
                       find_initializers, render_stats_table)
from .dataflow import (DataflowSummary, Source, loaded_sources,
                       summarize_dataflow)
from .decoder import (CondBranch, DecodedInstruction, DirectJump,
                      IndirectJump, Trap, decode_one, jalr_target)
from .errors import (InvalidEncoding, OperandOutOfRange, ToolError,
                     Truncated, UsageError)
from .image import (ExecutableImage, Segment, from_bytes, load_elf,
                    load_raw, parse_elf)
from .isa import REGISTERS, Register, reg
from .query import (Query, QueryHit, Record, emit_records, parse_query,
                    parse_records, query_to_argv, render_listing, run_query)
from .scanner import (Gadget, ScanConfig, dedupe, extract_gadgets,
                      gadget_at, sweep_addresses)
from .sim import Machine, SimReport, new_machine, run_chain

__version__ = "0.1.0"

__all__ = [
    "assemble", "supported_mnemonics",
    "ChainSpec", "ChainStep", "Diagnostic", "DispatchTable", "PayloadLayout",
    "build_dispatch_table", "has_errors", "layout_payload",
    "make_initializer", "parse_chain_text", "render_manifest",
    "repetitions_for", "validate_chain",
    "DispatcherCandidate", "GadgetRole", "InitializerCandidate",
    "availability_stats", "classify", "find_dispatchers",
    "find_initializers", "render_stats_table",
    "DataflowSummary", "Source", "loaded_sources", "summarize_dataflow",
    "CondBranch", "DecodedInstruction", "DirectJump", "IndirectJump",
    "Trap", "decode_one", "jalr_target",
    "InvalidEncoding", "OperandOutOfRange", "ToolError", "Truncated",
    "UsageError",
    "ExecutableImage", "Segment", "from_bytes", "load_elf", "load_raw",
    "parse_elf",
    "REGISTERS", "Register", "reg",
    "Query", "QueryHit", "Record", "emit_records", "parse_query",
    "parse_records", "query_to_argv", "render_listing", "run_query",
    "Gadget", "ScanConfig", "dedupe", "extract_gadgets", "gadget_at",
    "sweep_addresses",
    "Machine", "SimReport", "new_machine", "run_chain",
]
