"""Schema-aware data translation (tutorial §5).

- :mod:`repro.translation.avro` — Avro-like schemas and binary row codec
  (batch ``encode``/``encode_rows`` plus the fused :class:`~repro.
  translation.avro.RowEncoder`);
- :mod:`repro.translation.parquet` — Parquet-like columnar shredding with
  definition/repetition levels (Dremel), batch ``shred`` plus the
  streaming :class:`~repro.translation.parquet.Shredder`;
- :mod:`repro.translation.translate` — schema-aware vs schema-oblivious
  translation pipelines (experiment E9): the DOM reference path and the
  single-pass infer→translate→write flow (experiment E21);
- :mod:`repro.translation.stream` — the DOM-free translate machine
  (experiment E22): a fused column program compiled from the resolution
  + Parquet + Avro trees drives the shredder and row encoder straight
  from each document's byte span.
"""

from repro.translation import avro
from repro.translation.parquet import (
    Column,
    ColumnStore,
    PLeaf,
    PList,
    PRecord,
    Shredder,
    assemble,
    compile_schema,
    shred,
)
from repro.translation.stream import StreamTranslator, compile_column_program
from repro.translation.translate import (
    ObliviousReport,
    Resolution,
    TextifyPlan,
    TranslationReport,
    TranslationRun,
    column_store_json,
    resolve_interned,
    resolve_type,
    schema_aware_translate,
    schema_oblivious_translate,
    textify,
    translate_report_path,
    write_artifacts,
)

__all__ = [
    "avro",
    "Column",
    "ColumnStore",
    "PLeaf",
    "PList",
    "PRecord",
    "Shredder",
    "assemble",
    "compile_schema",
    "shred",
    "StreamTranslator",
    "compile_column_program",
    "ObliviousReport",
    "Resolution",
    "TextifyPlan",
    "TranslationReport",
    "TranslationRun",
    "column_store_json",
    "resolve_interned",
    "resolve_type",
    "schema_aware_translate",
    "schema_oblivious_translate",
    "textify",
    "translate_report_path",
    "write_artifacts",
]
