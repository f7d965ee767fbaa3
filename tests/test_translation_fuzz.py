"""Translation fuzz tier: generated corpora through both pipelines.

The conformance tier pins the benchmark corpora; this tier turns
hypothesis loose on the same contracts:

- the stream pipeline over an in-memory line source is byte-identical to
  the DOM reference on arbitrary generated document collections (rows
  and columns);
- the fused :class:`~repro.translation.avro.RowEncoder` produces exactly
  the bytes of the reference ``encode_rows``, and those bytes decode
  back to the encoded documents;
- feeding documents to a schema inferred from a *subset* (so unseen
  fields appear) fails with :class:`TranslationError`, never a leaked
  ``KeyError`` — through the DOM reference and through the stream
  machine;
- translating documents against an arbitrary unrelated schema — the
  adversarial case — raises nothing outside the :class:`ReproError`
  hierarchy, through either.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, TranslationError
from repro.translation import (
    avro,
    column_store_json,
    resolve_type,
    schema_aware_translate,
)
from repro.types import Equivalence, merge_all, type_of
from tests.strategies import json_documents, json_objects
from tests.translate_helpers import stream_translate, translate_lines


@given(json_documents(), st.sampled_from([Equivalence.KIND, Equivalence.LABEL]))
@settings(max_examples=60, deadline=None)
def test_stream_pipeline_matches_dom_reference(docs, equivalence):
    dom = schema_aware_translate(docs, equivalence=equivalence)
    stream = translate_lines(docs, equivalence)
    assert stream.avro_rows == dom.avro_rows
    assert column_store_json(stream.columnar) == column_store_json(
        dom.columnar
    )
    assert stream.fallback_count == dom.fallback_count
    assert stream.typed_leaf_columns == dom.typed_leaf_columns


def _widened_equal(a, b):
    """Structural equality up to int→float widening (never bool↔number)."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return float(a) == float(b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_widened_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _widened_equal(a[k], b[k]) for k in a
        )
    return type(a) is type(b) and a == b


@given(json_documents())
@settings(max_examples=60, deadline=None)
def test_row_encoder_matches_reference_and_round_trips(docs):
    inferred = merge_all((type_of(d) for d in docs), Equivalence.KIND)
    resolved, fallbacks = resolve_type(inferred)
    assume(not fallbacks)
    schema = avro.from_algebra(resolved)
    encoder = avro.RowEncoder(schema)
    rows = [encoder.encode_row(d) for d in docs]
    assert rows == avro.encode_rows(schema, docs)
    for doc, row in zip(docs, rows):
        # The wire format cannot tell an absent optional field from an
        # explicit null, so decode returns the null-filled document; a
        # leaf the resolver widened to num travels as a double, so
        # integers may come back float-typed (but value-equal).
        expected = avro._fill_missing(schema, doc)
        decoded = avro.decode(schema, row)
        assert _widened_equal(expected, decoded)


@given(json_documents(min_size=2))
@settings(max_examples=60, deadline=None)
def test_unseen_fields_raise_translation_error(docs):
    # Infer from a strict subset, then translate the full collection:
    # any field the subset never exhibited must surface as a
    # TranslationError (naming the path), not a KeyError.
    subset = docs[: len(docs) // 2]
    inferred = merge_all((type_of(d) for d in subset), Equivalence.KIND)
    subset_fields = set()
    for d in subset:
        subset_fields.update(d)
    assume(any(set(d) - subset_fields for d in docs))
    for pipeline in (schema_aware_translate, stream_translate):
        try:
            pipeline(docs, inferred)
        except TranslationError:
            pass


@given(json_documents(max_size=4), json_objects(max_leaves=8))
@settings(max_examples=60, deadline=None)
def test_mismatched_schema_never_leaks_internal_errors(docs, other):
    # The fully adversarial pairing: documents translated against the
    # schema of an unrelated document.  Any failure must stay inside the
    # ReproError hierarchy — no KeyError, no AssertionError.
    inferred = type_of(other)
    for pipeline in (schema_aware_translate, stream_translate):
        try:
            pipeline(docs, inferred)
        except ReproError:
            pass
