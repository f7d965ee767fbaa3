"""In-process tracer for one CLI command, patched in from outside ``src/``.

Run as a script, it stands in for ``python -m repro``::

    python perfbench/tracer.py SPANS.json RUN_ID -- infer corpus.ndjson

It imports ``repro.cli`` and the layer modules, wraps the public calls
listed in :data:`SPANS` and :data:`AGGREGATES`, runs
``repro.cli.main(argv)``, and writes the recorded spans to ``SPANS.json``
when the command ends.  Nothing in ``src/`` changes.

- A *span* call opens one node per call: name, start, end, parent, run id.
- An *aggregate* call (per-document or per-batch work) adds to one
  count-and-total node per (parent, name) instead.
- A call made while the same name is already open (recursion) is timed
  by the outer call only.
- Worker processes are not traced: the parent's wait on the pool is the
  span of the parallel call.

:func:`command_metrics` turns one command's spans into the per-layer
metrics; self time is a node's total minus the time its children cover,
and the ``cli`` layer also absorbs the interpreter start and exit the
benchmark measured outside the child.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

perf_counter = time.perf_counter

# name -> (module, attribute[, method]); the name's prefix is its layer.
SPANS = {
    "datasets.open_corpus": ("repro.datasets.ndjson", "open_corpus"),
    "inference.plan_schedule": ("repro.inference.distributed", "plan_schedule"),
    "inference.plan_compressed_schedule": (
        "repro.inference.distributed", "plan_compressed_schedule"),
    "inference.infer_distributed_text": (
        "repro.inference.distributed", "infer_distributed_text"),
    "inference.infer_compressed_parallel": (
        "repro.inference.distributed", "infer_compressed_parallel"),
    "inference.infer_subtree_text": ("repro.inference.distributed", "infer_subtree_text"),
    "inference.RangeFolder.finish": ("repro.inference.engine", "RangeFolder", "finish"),
    "inference.build_skeleton": ("repro.inference.skeleton", "build_skeleton"),
    "inference.document_coverage": ("repro.inference.skeleton", "document_coverage"),
    "inference.path_coverage": ("repro.inference.skeleton", "path_coverage"),
    "translation.translate_report_path": (
        "repro.translation.translate", "translate_report_path"),
    "translation.resolve_interned": ("repro.translation.translate", "resolve_interned"),
    "translation.compiled_parquet": ("repro.translation.translate", "compiled_parquet"),
    "translation.compiled_avro": ("repro.translation.translate", "compiled_avro"),
    "translation.StreamTranslator": (
        "repro.translation.stream", "StreamTranslator", "__init__"),
    "translation.Shredder.finish": ("repro.translation.parquet", "Shredder", "finish"),
    "translation.column_store_json": ("repro.translation.translate", "column_store_json"),
    "jsonschema.compile_schema": ("repro.jsonschema.validator", "compile_schema"),
}
AGGREGATES = {
    "inference.RangeFolder.feed": ("repro.inference.engine", "RangeFolder", "feed"),
    "types.encode_lines": ("repro.types.build", "EventTypeEncoder", "encode_lines"),
    "types.add_type": ("repro.inference.engine", "TypeAccumulator", "add_type"),
    "translation.translate_range": (
        "repro.translation.stream", "StreamTranslator", "translate_range"),
    "jsonvalue.parse": ("repro.jsonvalue.parser", "parse"),
    "jsonschema.validate": ("repro.jsonschema.validator", "JsonSchema", "validate"),
}
# A generator: the time spent inside each next() is aggregated.
BLOCKS = "datasets.iter_line_blocks"
BLOCKS_TARGET = ("repro.datasets.compressed", "iter_line_blocks")

LAYERS = ("cli", "datasets", "inference", "types", "translation",
          "jsonvalue", "jsonschema")


class Node:
    __slots__ = ("id", "name", "parent", "start", "end", "count", "total",
                 "child", "aggregates")

    def __init__(self, node_id: int, name: str, parent) -> None:
        self.id = node_id
        self.name = name
        self.parent = parent
        self.start = None
        self.end = None
        self.count = 0
        self.total = 0.0
        self.child = 0.0  # time covered by direct children
        self.aggregates: dict = {}


class Tracer:
    """Spans and counters of one command, kept in memory until it ends."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.nodes: list = []
        self.root = self._node("cli.command", None)
        self.root.start = perf_counter()
        self._stack = [self.root]
        self._open: set = set()
        self.counters: dict = {}
        self.plans: list = []
        self.translators: list = []

    def _node(self, name: str, parent) -> Node:
        node = Node(len(self.nodes), name, parent)
        self.nodes.append(node)
        return node

    def count(self, name: str, amount) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, aggregate: bool, fn, args, kwargs):
        if name in self._open:
            return fn(*args, **kwargs)
        parent = self._stack[-1]
        if aggregate:
            node = parent.aggregates.get(name)
            if node is None:
                node = parent.aggregates[name] = self._node(name, parent)
        else:
            node = self._node(name, parent)
        self._open.add(name)
        self._stack.append(node)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self._open.discard(name)
            if node.start is None:
                node.start = start
            node.end = end
            node.count += 1
            node.total += end - start
            parent.child += end - start

    def span(self, name: str, fn, *args, **kwargs):
        return self.call(name, False, fn, args, kwargs)

    def finish(self) -> None:
        root = self.root
        root.end = perf_counter()
        root.count = 1
        root.total = root.end - root.start

    def record(self) -> dict:
        return {
            "run_id": self.run_id,
            "nodes": [
                {
                    "id": n.id,
                    "name": n.name,
                    "parent": None if n.parent is None else n.parent.id,
                    "start": n.start,
                    "end": n.end,
                    "count": n.count,
                    "total": n.total,
                    "self": n.total - n.child,
                }
                for n in self.nodes
            ],
            "counters": self.counters,
            "plans": self.plans,
        }


# -- patching --------------------------------------------------------------


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every ``repro`` module attribute that is ``original``, so
    names copied by ``from x import f`` see the wrapper too."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _hook(tracer: Tracer, name: str, args, result) -> None:
    """Counters read from a traced call's arguments or return value."""
    if name == "datasets.open_corpus":
        tracer.count("datasets.lines", len(result))
    elif name in ("inference.plan_schedule", "inference.plan_compressed_schedule"):
        tracer.plans.append({
            "mode": result.mode,
            "jobs": result.jobs,
            "reason": result.reason,
            "calibration_source": result.calibration_source,
        })
    elif name == "translation.StreamTranslator":
        tracer.translators.append(args[0])
    elif name == "translation.translate_report_path":
        report = result.translation
        columns = report.columnar.columns.values()
        tracer.count("translation.columns", len(columns))
        tracer.count("translation.fallback_columns", report.fallback_count)
        tracer.count("translation.column_entries",
                     sum(len(c.definition_levels) for c in columns))
        tracer.count("translation.rows_bytes", report.avro_bytes)
        tracer.count("translation.columns_bytes", report.columnar_bytes)


HOOKED = {"datasets.open_corpus", "inference.plan_schedule",
          "inference.plan_compressed_schedule", "translation.StreamTranslator",
          "translation.translate_report_path"}


def _wrap(tracer: Tracer, name: str, fn, aggregate: bool):
    call = tracer.call
    if name == "types.encode_lines":
        def wrapper(self, *args, **kwargs):
            attempts, hits, _ = self.line_cache_stats
            result = call(name, True, fn, (self,) + args, kwargs)
            after_attempts, after_hits, _ = self.line_cache_stats
            tracer.count("types.line_cache_attempts", after_attempts - attempts)
            tracer.count("types.line_cache_hits", after_hits - hits)
            return result
    elif name in HOOKED:
        def wrapper(*args, **kwargs):
            result = call(name, aggregate, fn, args, kwargs)
            _hook(tracer, name, args, result)
            return result
    else:
        def wrapper(*args, **kwargs):
            return call(name, aggregate, fn, args, kwargs)
    # Same name and module, so pickle still finds module-level functions.
    return functools.wraps(fn)(wrapper)


def _wrap_blocks(tracer: Tracer, fn):
    @functools.wraps(fn)
    def iter_line_blocks(*args, **kwargs):
        blocks = fn(*args, **kwargs)
        try:
            while True:
                try:
                    block = tracer.call(BLOCKS, True, next, (blocks,), {})
                except StopIteration:
                    return
                tracer.count("datasets.decompressed_bytes", len(block))
                yield block
        finally:
            blocks.close()

    return iter_line_blocks


def install(tracer: Tracer) -> None:
    """Wrap every traced public call (the modules must be imported)."""
    for table, aggregate in ((SPANS, False), (AGGREGATES, True)):
        for name, target in table.items():
            owner = sys.modules[target[0]]
            if len(target) == 3:
                cls = getattr(owner, target[1])
                setattr(cls, target[2],
                        _wrap(tracer, name, getattr(cls, target[2]), aggregate))
            else:
                original = getattr(owner, target[1])
                _replace_everywhere(original, _wrap(tracer, name, original, aggregate))
    owner = sys.modules[BLOCKS_TARGET[0]]
    original = getattr(owner, BLOCKS_TARGET[1])
    _replace_everywhere(original, _wrap_blocks(tracer, original))


MODULES = sorted({t[0] for t in (*SPANS.values(), *AGGREGATES.values(), BLOCKS_TARGET)}
                 | {"repro.cli", "repro.inference", "repro.translation",
                    "repro.jsonschema", "repro.types.intern"})


def run(spans_path: str, run_id: str, argv: list) -> int:
    tracer = Tracer(run_id)
    tracer.span("cli.import", lambda: [importlib.import_module(m) for m in MODULES])
    from repro.cli import main
    from repro.types.intern import intern_stats

    install(tracer)
    before = intern_stats()
    try:
        code = main(argv)
    finally:
        after = intern_stats()
        tracer.count("types.intern_nodes_added", after["nodes"] - before["nodes"])
        tracer.count("types.intern_hits", after["hits"] - before["hits"])
        tracer.count("types.intern_misses", after["misses"] - before["misses"])
        tracer.count("translation.delegated_docs",
                     sum(t.delegated for t in tracer.translators))
        sys.stdout.flush()
        tracer.finish()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.record(), handle)
    return code


# -- metrics ---------------------------------------------------------------


def _totals(record: dict) -> dict:
    totals: dict = {}
    for node in record["nodes"]:
        entry = totals.setdefault(node["name"], [0, 0.0])
        entry[0] += node["count"]
        entry[1] += node["total"]
    return totals


def command_metrics(record: dict, wall: float) -> dict:
    """Per-layer metrics of one traced command; ``wall`` is the command's
    wall time measured by the benchmark around the child process."""
    totals = _totals(record)
    counters = record["counters"]

    def total(*names):
        return sum(totals.get(n, (0, 0.0))[1] for n in names)

    def count(name):
        return totals.get(name, (0, 0.0))[0]

    layer_self = dict.fromkeys(LAYERS, 0.0)
    root_total = 0.0
    for node in record["nodes"]:
        layer_self[node["name"].split(".", 1)[0]] += node["self"]
        if node["parent"] is None:
            root_total = node["total"]
    # The interpreter's start and exit happen outside the root span.
    layer_self["cli"] += wall - root_total

    plans = record["plans"]
    metrics = {
        "cli.import_s": total("cli.import"),
        "cli.self_s": layer_self["cli"],
        "datasets.open_s": total("datasets.open_corpus"),
        "datasets.lines": counters.get("datasets.lines", 0),
        "datasets.decompress_s": total(BLOCKS),
        "datasets.blocks": count(BLOCKS),
        "datasets.decompressed_mb": counters.get("datasets.decompressed_bytes", 0) / 1e6,
        "inference.schedule_s": total("inference.plan_schedule",
                                      "inference.plan_compressed_schedule"),
        "inference.mode_serial": sum(p["mode"] == "serial" for p in plans),
        "inference.mode_parallel": sum(p["mode"] == "parallel" for p in plans),
        "inference.mode_subtree": sum(p["mode"] == "subtree" for p in plans),
        "inference.fold_s": total("inference.RangeFolder.feed",
                                  "inference.RangeFolder.finish"),
        "inference.docs": count("types.add_type"),
        "inference.parallel_s": total("inference.infer_distributed_text",
                                      "inference.infer_compressed_parallel",
                                      "inference.infer_subtree_text"),
        "inference.skeleton_s": total("inference.build_skeleton"),
        "inference.coverage_s": total("inference.document_coverage",
                                      "inference.path_coverage"),
        "types.encode_s": total("types.encode_lines"),
        "types.line_cache_attempts": counters.get("types.line_cache_attempts", 0),
        "types.line_cache_hits": counters.get("types.line_cache_hits", 0),
        "types.merge_s": total("types.add_type"),
        "types.intern_nodes_added": counters.get("types.intern_nodes_added", 0),
        "types.intern_hits": counters.get("types.intern_hits", 0),
        "types.intern_misses": counters.get("types.intern_misses", 0),
        "translation.resolve_s": total("translation.resolve_interned"),
        "translation.compile_s": total("translation.compiled_parquet",
                                       "translation.compiled_avro",
                                       "translation.StreamTranslator"),
        "translation.stream_s": total("translation.translate_range"),
        "translation.stream_docs": count("translation.translate_range"),
        "translation.delegated_docs": counters.get("translation.delegated_docs", 0),
        "translation.finish_s": total("translation.Shredder.finish"),
        "translation.render_s": total("translation.column_store_json"),
        "translation.pass_self_s": sum(
            n["self"] for n in record["nodes"]
            if n["name"] == "translation.translate_report_path"),
        "translation.columns": counters.get("translation.columns", 0),
        "translation.fallback_columns": counters.get("translation.fallback_columns", 0),
        "translation.column_entries": counters.get("translation.column_entries", 0),
        "translation.rows_mb": counters.get("translation.rows_bytes", 0) / 1e6,
        "translation.columns_mb": counters.get("translation.columns_bytes", 0) / 1e6,
        "jsonvalue.parse_s": total("jsonvalue.parse"),
        "jsonvalue.parse_docs": count("jsonvalue.parse"),
        "jsonschema.compile_s": total("jsonschema.compile_schema"),
        "jsonschema.validate_s": total("jsonschema.validate"),
        "jsonschema.validate_docs": count("jsonschema.validate"),
    }
    return {"metrics": metrics, "self_s": layer_self, "plans": plans}


def cycle_metrics(sums: dict) -> dict:
    """The reported per-layer metrics from metrics summed over commands:
    ratios are taken of the summed counts, so they weigh every command
    by its work."""
    attempts = sums["types.line_cache_attempts"]
    intern_hits = sums.pop("types.intern_hits")
    lookups = intern_hits + sums.pop("types.intern_misses")
    docs = sums["translation.stream_docs"]
    hits = sums["types.line_cache_hits"]
    sums["types.line_cache_hit_ratio"] = hits / attempts if attempts else 0.0
    sums["types.intern_hit_ratio"] = intern_hits / lookups if lookups else 0.0
    sums["translation.delegated_ratio"] = (
        sums["translation.delegated_docs"] / docs if docs else 0.0)
    return sums


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: tracer.py SPANS.json RUN_ID -- <repro arguments>")
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[4:]))
