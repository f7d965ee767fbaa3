"""Shared drivers for the translation tiers."""

from __future__ import annotations

from repro.jsonvalue.serializer import dumps
from repro.translation import (
    Shredder,
    StreamTranslator,
    avro,
    resolve_interned,
    translate_report_path,
)
from repro.translation.translate import compiled_avro, compiled_parquet
from repro.types import Equivalence


def stream_translate(docs, inferred):
    """Translate ``docs`` through the stream machine against a given
    schema; returns ``(rows, column store, translator)``.

    Each document is serialized with ``dumps`` and walked from its byte
    span, so anything the machine declines (unknown fields, type
    mismatches) takes its DOM delegation path.
    """
    resolution = resolve_interned(inferred)
    shredder = Shredder(compiled_parquet(resolution.resolved))
    encoder = avro.RowEncoder(compiled_avro(resolution.resolved))
    translator = StreamTranslator(resolution, shredder, encoder)
    rows = []
    for doc in docs:
        line = dumps(doc).encode("utf-8")
        rows.append(translator.translate_range(line, 0, len(line)))
    return rows, shredder.finish(), translator


def translate_lines(docs, equivalence=Equivalence.KIND):
    """The stream pipeline over an in-memory line source of ``docs``."""
    lines = [dumps(d) for d in docs]
    return translate_report_path(lines, equivalence).translation
