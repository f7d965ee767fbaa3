"""E22 — DOM-free translation: the stream engine vs the seed DOM path.

Artifact reconstructed: tutorial §5's schema-aware translation, now
driven straight from each document's byte span.  PR 9 compiles the
resolution, Parquet tree and Avro schema into one fused *column
program*; the stream machine walks the raw bytes with the lexer's fused
scan patterns and emits Parquet column entries (rep/def levels) and
Avro row bytes directly — no DOM, no textify pass, no per-document
Python values on clean subtrees.

One section, recorded in ``BENCH_stream_translate.json``: the seed path
(parse to DOMs, per-document ``type_of`` + merge, batch DOM
translation) and the stream engine on the two E21 corpus shapes — the
constant-structure "flat" telemetry shape and the "nested" shape
(arrays, numeric drift, nullable record).  The DOM-based interned flow
this engine superseded recorded the nested shape at only ~1.2x over
seed: the DOM decode dominated.  The stream engine removes the DOM
entirely, so nested is asserted ≥2x over seed end-to-end.

Identity gates always run: the stream engine must produce byte-identical
Avro rows and identical canonical column-store renderings to the seed
reference.  Timing floors are asserted only under
``REPRO_BENCH_ASSERT=1``; ``REPRO_BENCH_FULL=1`` grows the corpus.
"""

from __future__ import annotations

import json
import os
import random
import time

from repro.jsonvalue.parser import parse
from repro.jsonvalue.serializer import dumps
from repro.translation import (
    column_store_json,
    schema_aware_translate,
    translate_report_path,
)
from repro.types import Equivalence, merge_all, type_of

from helpers import RESULTS_DIR, emit, table

FULL = bool(os.environ.get("REPRO_BENCH_FULL"))
ASSERT_TIMING = bool(os.environ.get("REPRO_BENCH_ASSERT"))

DOCS = 500_000 if FULL else 50_000

# Speedups over the seed DOM that the superseded interned engine
# recorded on these shapes (2-CPU container, 50k documents).  The
# stream engine must stay within 15% of them: 0.85 x 5.63 = 4.8x on
# flat, 0.85 x 1.20 = 1.0x on nested (where the 2.0x floor binds).
_INTERNED_SPEEDUP = {"flat": 5.63, "nested": 1.20}


def _flat_corpus_lines(n: int) -> list[str]:
    """Constant-structure records (telemetry/log shape) — E21's rng and
    shape, so the speedups compare across benchmark files."""
    rng = random.Random(21)
    return [
        dumps(
            {
                "id": i,
                "user": {
                    "name": f"user-{rng.randint(0, 10**6)}",
                    "verified": bool(i % 7),
                },
                "score": rng.random() * 100,
                "geo": {"lat": rng.random() * 90, "lon": rng.random() * 180},
                "level": rng.randint(0, 5),
            }
        )
        for i in range(n)
    ]


def _nested_corpus_lines(n: int) -> list[str]:
    """Variable-structure records: arrays (never speculable), numeric
    drift (int|flt) and a nullable record — the shape E21 could only
    push to ~1.2x because every line still paid a generic DOM parse."""
    rng = random.Random(22)
    lines = []
    for i in range(n):
        doc = {
            "id": i,
            "user": {"name": f"user-{rng.randint(0, 10**6)}", "verified": bool(i % 7)},
            "score": rng.random() * 100 if i % 3 else rng.randint(0, 100),
            "geo": {"lat": rng.random() * 90, "lon": rng.random() * 180}
            if i % 5
            else None,
            "tags": ["a", "b", "c"][: rng.randint(0, 3)],
        }
        lines.append(dumps(doc))
    return lines


def _timed(fn, repeat=2):
    best, best_result = None, None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best, best_result = elapsed, result
    return best, best_result


def _seed_translate(path: str):
    """The seed pipeline: parse the file to DOMs, infer by per-document
    ``type_of`` + merge, then run the batch DOM translation."""
    with open(path, "r", encoding="utf-8") as handle:
        docs = [parse(line) for line in handle if line.strip()]
    inferred = merge_all((type_of(d) for d in docs), Equivalence.KIND)
    return schema_aware_translate(docs, inferred)


def _bench_shape(rows, records, tmp_dir, shape, lines, floor):
    path = os.path.join(tmp_dir, f"corpus-{shape}.ndjson")
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")

    seed_seconds, seed_report = _timed(lambda: _seed_translate(path))
    stream_seconds, stream_run = _timed(lambda: translate_report_path(path))

    # Identity gates: the stream engine reproduces the seed reference.
    assert stream_run.translation.avro_rows == seed_report.avro_rows
    assert column_store_json(
        stream_run.translation.columnar
    ) == column_store_json(seed_report.columnar)
    assert stream_run.translation.document_count == len(lines)

    record = {
        "corpus_shape": shape,
        "documents": len(lines),
        "input_megabytes": round(os.path.getsize(path) / 1e6, 1),
        "docs_per_sec_seed_dom": round(len(lines) / seed_seconds),
        "docs_per_sec_stream": round(len(lines) / stream_seconds),
        "speedup_stream": round(seed_seconds / stream_seconds, 2),
        "avro_bytes": stream_run.translation.avro_bytes,
        "columnar_bytes": stream_run.translation.columnar_bytes,
    }
    records.append(record)
    rows.append(
        [
            shape,
            len(lines),
            f"{record['input_megabytes']}MB",
            record["docs_per_sec_seed_dom"],
            record["docs_per_sec_stream"],
            f"{record['speedup_stream']:5.2f}x",
        ]
    )
    os.unlink(path)
    if ASSERT_TIMING:
        # The DOM-free machine must clear 2x over the seed on *both*
        # shapes — the nested corpus is the one E21 left at ~1.2x.
        assert record["speedup_stream"] >= floor, shape
        # And it must stay competitive with the engine it superseded,
        # restated against the seed DOM through that engine's recorded
        # speedups (a 15% band absorbs run noise).
        assert (
            record["speedup_stream"] >= _INTERNED_SPEEDUP[shape] * 0.85
        ), shape


def test_e22_stream_translate(tmp_path):
    rows: list[list] = []
    records: list[dict] = []
    _bench_shape(rows, records, str(tmp_path), "flat", _flat_corpus_lines(DOCS), 2.0)
    _bench_shape(
        rows, records, str(tmp_path), "nested", _nested_corpus_lines(DOCS), 2.0
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_stream_translate.json").write_text(
        json.dumps(
            {
                "experiment": "e22-stream-translate",
                "pipeline_rows": records,
            },
            indent=2,
        )
        + "\n"
    )
    emit(
        "E22-stream-translate",
        table(
            [
                "corpus",
                "docs",
                "input",
                "seed DOM docs/s",
                "stream docs/s",
                "stream speedup",
            ],
            rows,
        ),
    )
