"""Streaming schema inference: types straight from text, zero DOM.

The tutorial emphasises streaming operation twice — mongodb-schema
"processes them in a streaming fashion", and the parametric inference is
built for "massive JSON datasets" where materialising documents is the
wrong plan.  This module runs the *fully fused* text→type pipeline of
:class:`repro.types.build.EventTypeEncoder`: the lexer's tokens (or a
SAX-style event stream) drive the intern table's shape caches directly,
so the map phase of inference goes from bytes to a canonical interned
type with no ``JSONValue`` DOM, no per-document frame objects, and
memory proportional to nesting depth:

- :func:`type_from_events` — one type per top-level document in an
  event stream;
- :func:`type_of_text` — the canonical type of one JSON text in a
  single lexer pass (identical by object identity to
  ``intern(type_of(parse(text)))``, with the parser's exact error
  behaviour on malformed input);
- :func:`infer_type_streaming` / :func:`infer_report_streaming` — full
  parametric inference over NDJSON lines.

Equivalence with the DOM path is pinned by the cross-path conformance
matrix (``tests/test_conformance_matrix.py``) and the fuzz differential
(``tests/test_streaming_fuzz.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Optional

from repro.errors import InferenceError
from repro.inference.engine import accumulate_lines
from repro.inference.parametric import InferenceReport
from repro.jsonvalue.events import JsonEvent
from repro.types import Equivalence, Type
from repro.types.build import EventTypeEncoder
from repro.types.intern import InternTable, global_table

_DEFAULT_ENCODER: Optional[EventTypeEncoder] = None


def _shared_encoder(
    table: Optional[InternTable], encoder: Optional[EventTypeEncoder]
) -> EventTypeEncoder:
    """Resolve the encoder to use: explicit > per-table > shared global.

    The process-wide default encoder is bound to the global intern table
    (mirroring :func:`repro.types.build.type_of_interned`); pass a
    ``table`` to keep workloads isolated, or hold an
    :class:`~repro.types.build.EventTypeEncoder` yourself for batch work
    so its shape caches persist across calls.

    Only safe for :meth:`~repro.types.build.EventTypeEncoder.encode_text`
    callers: that path keeps its parse state in locals, so concurrent or
    interleaved texts cannot corrupt each other through the shared
    instance.  The event feed keeps *cross-call* state (its frame
    stack), so :func:`type_from_events` never shares implicitly.
    """
    global _DEFAULT_ENCODER
    if encoder is not None:
        return encoder
    if table is None or table is global_table():
        enc = _DEFAULT_ENCODER
        if enc is None:
            enc = _DEFAULT_ENCODER = EventTypeEncoder(global_table())
        return enc
    return EventTypeEncoder(table)


def type_from_events(
    events: Iterable[JsonEvent],
    *,
    table: Optional[InternTable] = None,
    encoder: Optional[EventTypeEncoder] = None,
) -> Iterator[Type]:
    """Yield the canonical type of each top-level document in an event
    stream.

    Equivalent to ``intern(type_of(value))`` for the values the events
    describe, but without materialising them: events feed the fused
    encoder's shape caches directly.  Raises
    :class:`~repro.errors.InferenceError` on ill-formed or truncated
    streams.

    With no explicit ``encoder`` a fresh one is built per call, so
    concurrent or interleaved streams can never share a frame stack.
    Callers that pass their own encoder (to amortize its shape caches)
    must not interleave two streams through it.
    """
    enc = encoder if encoder is not None else EventTypeEncoder(table)
    if enc.depth:
        enc.reset()  # discard state a previously failed stream left behind
    feed_event = enc.feed_event
    try:
        for event in events:
            done = feed_event(event)
            if done is not None:
                yield done
        if enc.depth:
            raise InferenceError("event stream ended inside an unclosed container")
    finally:
        # A raising event source (or an abandoned generator) must not
        # leak half-built frames into a caller-held encoder.
        if enc.depth:
            enc.reset()


def type_of_text(
    text: str,
    *,
    table: Optional[InternTable] = None,
    encoder: Optional[EventTypeEncoder] = None,
    max_depth: int = 512,
) -> Type:
    """The canonical interned type of one JSON text, in one lexer pass.

    Identical (by object identity against the backing table) to
    ``table.intern(type_of(parse(text)))``; malformed input raises the
    same error class/message/offset as the DOM parser.
    """
    return _shared_encoder(table, encoder).encode_text(text, max_depth=max_depth)


def infer_report_corpus(
    corpus, equivalence: Equivalence = Equivalence.KIND
) -> InferenceReport:
    """Inference over an :class:`~repro.datasets.ndjson.MmapCorpus` via
    the bytes-native fold: the mapped file's line ranges go straight to
    canonical interned types through the batched line-shape cache, and
    only cache misses decode and scan.  Interned-identical to every other
    route."""
    from repro.inference.engine import accumulate_ranges

    accumulator = accumulate_ranges(corpus.buffer(), corpus.spans, equivalence)
    if accumulator.is_empty():
        raise InferenceError("cannot infer a schema from an empty stream")
    return InferenceReport(
        inferred=accumulator.result(),
        equivalence=equivalence,
        document_count=accumulator.document_count,
    )


def fold_compressed(
    source,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    table: Optional[InternTable] = None,
    format: Optional[str] = None,
    block_bytes: Optional[int] = None,
):
    """Fold a compressed NDJSON corpus through the bytes pipeline.

    The serial compressed route: the chunked decompression reader
    (:func:`repro.datasets.compressed.iter_line_blocks`) yields
    line-aligned decompressed blocks which feed one persistent
    :class:`~repro.inference.engine.RangeFolder` — the same batched
    line-shape-cache fold an uncompressed mmap corpus runs, so the
    result is interned-identical to the plain-file fold of the
    decompressed bytes.  No decompressed corpus is ever
    materialised: memory is one block plus the longest line.

    This path **owns error ordering**: JSON/decode errors of earlier
    lines surface before a later decompression failure, exactly as a
    plain serial fold would order them.
    """
    from repro.datasets.compressed import (
        DEFAULT_BLOCK_BYTES,
        CompressedCorpusError,
        iter_block_line_spans,
        iter_line_blocks,
    )
    from repro.inference.engine import RangeFolder, TypeAccumulator

    accumulator = TypeAccumulator(equivalence, table=table)
    folder = RangeFolder(accumulator)
    blocks = iter_line_blocks(
        source,
        format=format,
        block_bytes=block_bytes if block_bytes is not None else DEFAULT_BLOCK_BYTES,
    )
    while True:
        try:
            block = next(blocks)
        except StopIteration:
            break
        except CompressedCorpusError:
            # Lines already read but still batched are *earlier* in the
            # corpus than this stream failure: flush them first so their
            # errors win, serial-ordering style.
            folder.finish()
            raise
        folder.feed(block, iter_block_line_spans(block))
    folder.finish()
    return accumulator


def infer_report_compressed(
    source,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    jobs: Optional[int] = 1,
    format: Optional[str] = None,
) -> InferenceReport:
    """Inference over a gzip/zstd NDJSON file — the compressed entry point.

    With ``jobs=1`` the serial chunked fold (:func:`fold_compressed`)
    runs directly.  Otherwise the compressed scheduler
    (:func:`repro.inference.distributed.plan_compressed_schedule`)
    decides whether independent members/frames justify the worker pool;
    a parallel attempt that fails *for any reason* (false member
    candidates, a worker error, damaged bytes) silently falls back to
    the serial fold, which owns all error ordering — the subtree
    splitter's contract.
    """
    from repro.datasets.compressed import detect_compression

    fmt = format or detect_compression(source)
    if fmt is None:
        raise InferenceError(
            f"{source!s} is not a gzip/zstd compressed corpus"
        )
    if jobs != 1:
        from repro.inference.distributed import (
            infer_compressed_parallel,
            plan_compressed_schedule,
        )

        plan = plan_compressed_schedule(source, format=fmt, jobs=jobs)
        if plan.parallel:
            run = infer_compressed_parallel(
                source, equivalence, processes=plan.jobs, format=fmt
            )
            if run is not None:
                return InferenceReport(
                    inferred=run.result,
                    equivalence=equivalence,
                    document_count=run.document_count,
                )
    accumulator = fold_compressed(source, equivalence, format=fmt)
    if accumulator.is_empty():
        raise InferenceError("cannot infer a schema from an empty stream")
    return InferenceReport(
        inferred=accumulator.result(),
        equivalence=equivalence,
        document_count=accumulator.document_count,
    )


def infer_type_streaming(
    lines: Iterable[str], equivalence: Equivalence = Equivalence.KIND
) -> Type:
    """Parametric inference over NDJSON lines without building DOMs.

    Each line runs through the fused text→type pipeline
    (:meth:`~repro.inference.engine.TypeAccumulator.add_text`) and merges
    incrementally: per-accumulator state is O(equivalence classes) plus a
    bounded memo, and only one document's type is in flight at a time.
    (The backing intern table additionally caches one canonical node per
    *distinct* structure seen — see the memory-model note in
    :mod:`repro.types.intern`.)  Blank lines are skipped.
    """
    accumulator = accumulate_lines(lines, equivalence)
    if accumulator.is_empty():
        raise InferenceError("cannot infer a schema from an empty stream")
    return accumulator.result()


def infer_report_streaming(
    lines: Iterable[str], equivalence: Equivalence = Equivalence.KIND
) -> InferenceReport:
    """Streaming inference plus the report the papers' tables need
    (type, size, document count) — the CLI's zero-materialization path."""
    accumulator = accumulate_lines(lines, equivalence)
    if accumulator.is_empty():
        raise InferenceError("cannot infer a schema from an empty stream")
    return InferenceReport(
        inferred=accumulator.result(),
        equivalence=equivalence,
        document_count=accumulator.document_count,
    )


def _is_corpus_file(source) -> bool:
    """Whether ``source`` names an on-disk corpus file (not ``"-"``).

    Only regular files can be mapped or decompressed in blocks; FIFOs,
    ``/dev/stdin`` and other special files stream as lines instead.
    """
    import os

    return (
        isinstance(source, (str, os.PathLike))
        and str(source) != "-"
        and os.path.isfile(source)
    )


def infer_report_path(
    source,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    jobs: Optional[int] = 1,
    shared_memory="auto",
) -> InferenceReport:
    """One-stop inference over an NDJSON source — the CLI's entry point.

    ``source`` is a file path, ``"-"`` for stdin, or any line iterable.
    A corpus file is opened and folded by :func:`report_with_spans` —
    the one place that routes a file: gzip/zstd through the chunked
    decompression fold (member-parallel when ``jobs`` allows), a plain
    file as a zero-copy :class:`~repro.datasets.ndjson.MmapCorpus`
    through the bytes fold or the adaptive scheduler.  Other sources
    stream serially in O(nesting) memory with ``jobs=1``; otherwise
    their lines go to the adaptive scheduler
    (:func:`repro.inference.distributed.infer_adaptive_text`):
    ``jobs=None`` sizes the worker pool from CPU affinity, ``jobs=N``
    caps it at N, and either way the scheduler falls back to a serial
    fold when its timed-sample cost model says workers would lose.

    ``shared_memory`` is ``True``, ``False``, or ``"auto"`` (default):
    auto lets the scheduler pick the corpus transport from corpus size
    and worker count (see
    :func:`repro.inference.distributed.choose_shared_memory`).
    """
    if _is_corpus_file(source):
        with report_with_spans(
            source, equivalence, jobs=jobs, shared_memory=shared_memory
        ) as (report, _):
            return report

    from repro.datasets.ndjson import iter_ndjson_lines

    return _infer_lines(
        iter_ndjson_lines(source), equivalence, jobs, shared_memory
    )


def _infer_lines(lines, equivalence, jobs, shared_memory) -> InferenceReport:
    """Inference over the lines of a non-file source: streamed serially
    with ``jobs=1``, otherwise through the adaptive scheduler."""
    if jobs == 1:
        return infer_report_streaming(lines, equivalence)
    return _adaptive_report(list(lines), equivalence, jobs, shared_memory)


def _adaptive_report(
    lines, equivalence, jobs, shared_memory
) -> InferenceReport:
    """Inference over a corpus or line list through the adaptive scheduler."""
    from repro.inference.distributed import infer_adaptive_text

    run = infer_adaptive_text(
        lines, equivalence, jobs=jobs, shared_memory=shared_memory
    )
    return InferenceReport(
        inferred=run.result,
        equivalence=equivalence,
        document_count=run.document_count,
    )


def _line_section(lines) -> tuple:
    """``lines`` as one UTF-8 buffer joined by ``\n``, with one span per
    line — the byte view a line source lacks.  A line holding a raw line
    break keeps it inside its one span."""
    parts = [line.encode("utf-8") for line in lines]
    spans = []
    pos = 0
    for part in parts:
        end = pos + len(part)
        spans.append((pos, end))
        pos = end + 1
    return b"\n".join(parts), spans


@contextmanager
def report_with_spans(
    source,
    equivalence: Equivalence = Equivalence.KIND,
    *,
    jobs: Optional[int] = 1,
    shared_memory="auto",
):
    """Infer over ``source``, then hand back its raw line spans.

    A context manager yielding ``(report, sections)``: the
    :class:`InferenceReport` of the corpus plus an iterable of
    ``(buffer, spans)`` pairs for a second pass over the documents as
    byte slices (the DOM-free translate machine).  The corpus is opened
    **once**:

    - a gzip/zstd file infers through :func:`infer_report_compressed`
      and is re-streamed through the chunked reader, one pair per
      decompressed line-aligned block (peak memory stays one block);
    - a plain file is mapped as an
      :class:`~repro.datasets.ndjson.MmapCorpus`, folded serially
      (``jobs=1``) or through the adaptive scheduler, and stays mapped
      for the one pair covering the whole corpus;
    - stdin or a line iterable is read into a list, inferred serially
      (``jobs=1``) or through the adaptive scheduler, and becomes one
      UTF-8 buffer with one span per line.

    Blank spans ride along exactly as blank lines do — consumers skip
    them with the folds' whitespace rule.
    """
    if not _is_corpus_file(source):
        from repro.datasets.ndjson import iter_ndjson_lines

        lines = list(iter_ndjson_lines(source))
        report = _infer_lines(lines, equivalence, jobs, shared_memory)
        section = _line_section(lines)
        del lines
        yield report, (section,)
        return

    from repro.datasets.compressed import (
        detect_compression,
        iter_block_line_spans,
        iter_line_blocks,
    )
    from repro.datasets.ndjson import open_corpus

    fmt = detect_compression(source)
    if fmt is not None:
        report = infer_report_compressed(
            source, equivalence, jobs=jobs, format=fmt
        )

        def _sections():
            for block in iter_line_blocks(source, format=fmt):
                yield block, iter_block_line_spans(block)

        yield report, _sections()
        return
    with open_corpus(source) as corpus:
        if jobs == 1:
            report = infer_report_corpus(corpus, equivalence)
        else:
            report = _adaptive_report(corpus, equivalence, jobs, shared_memory)
        yield report, ((corpus.buffer(), corpus.spans),)
