"""Span tracer that times rvjop's layers from outside the package.

`install` replaces every public function of the traced modules, at every
rvjop module attribute that refers to it, with a wrapper that records one
span per call: name, start, end, parent span, command id, and whether the
call raised.  Nothing under `src/` changes; `uninstall` puts the original
functions back.  Spans live in flat arrays while the run goes on and are
written out once, when it ends.

A span's self time is its duration minus the part of it covered by its
child spans, so the self times of all spans under a command's root span
add up to the root span's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array
from collections import Counter

# Layers, by module name, in pipeline order.
LAYERS = ("cli", "image", "decoder", "scanner", "dataflow", "classify",
          "query", "chain", "sim")


def _kind_counts(found) -> dict[str, int]:
    kinds = Counter(c.kind for c in found)
    return {"classic": kinds["dispatcher-classic"],
            "two_stage": kinds["dispatcher-two-stage"],
            "autonomous": kinds["dispatcher-autonomous"]}


# Counters read from the results of a few calls.
MEASURES = {
    "scanner.extract_gadgets": lambda r: {"gadgets": len(r)},
    "classify.find_dispatchers": _kind_counts,
    "query.run_query": lambda r: {"hits": len(r)},
    "sim.run_chain": lambda r: {"steps": r.steps,
                                "rounds": r.dispatch_rounds},
}


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}           # name -> index in names
        self.name = array("H")
        self.parent = array("i")
        self.command = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.counts: dict[int, dict[str, int]] = {}
        self.current_command = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, name: str, fn):
        """`fn` wrapped so that each call records a span named `name`."""
        nid = self.name_id(name)
        measure = MEASURES.get(name)
        stack, counts = self._stack, self.counts
        starts, ends, raised = self.start, self.end, self.raised
        add_name, add_parent = self.name.append, self.parent.append
        add_command = self.command.append
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_command(tracer.current_command)
            starts.append(0.0)
            ends.append(0.0)
            raised.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if measure is not None:
                counts[idx] = measure(result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of `package`.

        The wrapper replaces the function wherever a module of the
        package looks it up, e.g. `decode_one` in `scanner`, `classify`
        and `sim` as well as in `decoder` itself.
        """
        prefix = package.__name__ + "."
        modules = [package] + [
            importlib.import_module(prefix + m.name)
            for m in pkgutil.iter_modules(package.__path__)]
        layer_of = {prefix + layer: layer for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = layer_of.get(value.__module__)
                if layer is None or value.__name__.startswith("_"):
                    continue
                if id(value) not in wrapped:
                    wrapped[id(value)] = self.wrap(
                        f"{layer}.{value.__name__}", value)
                self._patched.append((mod, attr, value))
                setattr(mod, attr, wrapped[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path) -> None:
        """One JSON header line, then the span arrays' raw bytes."""
        fields = ("name", "parent", "command", "start", "end", "raised")
        header = {"names": self.names, "count": len(self),
                  "fields": [[f, getattr(self, f).typecode] for f in fields],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)


def read_spans(path) -> tuple[list[str], dict[str, array]]:
    """Inverse of `Tracer.write`: span names and the column arrays."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for name, code in header["fields"]:
            col = array(code)
            col.fromfile(fh, header["count"])
            columns[name] = col
    return header["names"], columns


def self_times(start, end, parent) -> array:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    n = len(start)
    order = range(n)
    if any(start[i] > start[i + 1] for i in range(n - 1)):
        order = sorted(order, key=start.__getitem__)
    covered = array("d", bytes(8 * n))
    reach = array("d", start)            # end of the children's union so far
    for i in order:
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("d", (end[i] - start[i] - covered[i] for i in range(n)))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, selfs, lo: int, hi: int, halfwords: int,
                  commands: int) -> dict[str, float]:
    """Per-layer metrics over spans [lo, hi), the spans of one session
    pass of `commands` commands on an image of `halfwords` halfwords.

    Times are totals over the pass.  Candidate counts are per image (the
    largest any find_dispatchers call in the pass returned).  Decodes per
    halfword leave out the interpreter's decodes, which sim.decodes_per_step
    counts instead.
    """
    n_names = len(tr.names)
    calls = [0] * n_names
    incl = [0.0] * n_names
    own = [0.0] * n_names
    failed = [0] * n_names
    ids = tr.ids
    sim_id = ids.get("sim.run_chain", -1)
    decode_id = ids.get("decoder.decode_one", -1)
    in_sim = bytearray(hi - lo)
    decodes_in_sim = 0
    name, parent = tr.name, tr.parent
    start, end, raised = tr.start, tr.end, tr.raised
    for i in range(lo, hi):
        k = name[i]
        calls[k] += 1
        incl[k] += end[i] - start[i]
        own[k] += selfs[i]
        failed[k] += raised[i]
        p = parent[i]
        if k == sim_id or (p >= lo and in_sim[p - lo]):
            in_sim[i - lo] = 1
            decodes_in_sim += k == decode_id

    totals: Counter = Counter()
    candidates: Counter = Counter()
    for i, found in tr.counts.items():
        if lo <= i < hi:
            if tr.names[name[i]] == "classify.find_dispatchers":
                for kind, v in found.items():
                    candidates[kind] = max(candidates[kind], v)
            else:
                totals.update(found)

    def count(n):
        return calls[ids[n]] if n in ids else 0

    def inclusive(*ns):
        return sum(incl[ids[n]] for n in ns if n in ids)

    layer_self = Counter()
    for n, i in ids.items():
        layer_self[n.split(".")[0]] += own[i]

    decodes = count("decoder.decode_one")
    gadgets = totals["gadgets"]
    sim_s = inclusive("sim.run_chain")
    return {
        "decoder.calls": decodes,
        "decoder.calls_per_halfword": _ratio(decodes - decodes_in_sim,
                                             halfwords * commands),
        "decoder.invalid_ratio": _ratio(failed[decode_id], decodes)
        if decode_id >= 0 else 0.0,
        "decoder.self_s": layer_self["decoder"],
        "image.load_s": inclusive("image.load_elf", "image.load_raw"),
        "scanner.sweeps": count("scanner.sweep_addresses"),
        "scanner.extract_calls": count("scanner.extract_gadgets"),
        "scanner.gadget_at_calls": count("scanner.gadget_at"),
        "scanner.gadgets": gadgets,
        "scanner.gadgets_per_s": _ratio(gadgets,
                                        inclusive("scanner.extract_gadgets")),
        "scanner.self_s": layer_self["scanner"],
        "dataflow.summaries_per_gadget": _ratio(
            count("dataflow.summarize_dataflow"), gadgets),
        "dataflow.self_s": layer_self["dataflow"],
        "classify.find_dispatchers_s": inclusive("classify.find_dispatchers"),
        "classify.candidates.classic": candidates["classic"],
        "classify.candidates.two_stage": candidates["two_stage"],
        "classify.candidates.autonomous": candidates["autonomous"],
        "classify.classify_calls": count("classify.classify"),
        "classify.self_s": layer_self["classify"],
        "query.run_query_self_s": own[ids["query.run_query"]]
        if "query.run_query" in ids else 0.0,
        "query.render_s": inclusive("query.render_listing",
                                    "query.emit_records"),
        "query.hits": totals["hits"],
        "chain.parse_s": inclusive("chain.parse_chain_text"),
        "chain.validate_s": inclusive("chain.validate_chain"),
        "chain.layout_s": inclusive("chain.layout_payload"),
        "sim.steps": totals["steps"],
        "sim.steps_per_s": _ratio(totals["steps"], sim_s),
        "sim.decodes_per_step": _ratio(decodes_in_sim, totals["steps"]),
        "sim.dispatch_rounds": totals["rounds"],
        "sim.run_s": sim_s,
        "cli.self_s": layer_self["cli"],
    }
