"""Expected outputs of every benchmarked command, from the seed references.

The oracles are computed once per workload and seed, before any timed
command runs, with the reference implementations the tree keeps as its
correctness oracle: the DOM parser, ``type_of`` + ``merge_all``,
``schema_aware_translate`` + ``write_artifacts`` and ``build_skeleton``.
A command whose exit code or output differs from its oracle counts as a
failed operation; nothing is skipped.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.inference import build_skeleton, document_coverage, path_coverage
from repro.jsonvalue.parser import parse
from repro.jsonvalue.serializer import dumps
from repro.translation import (
    TranslationRun,
    resolve_interned,
    schema_aware_translate,
    write_artifacts,
)
from repro.types import Equivalence, merge_all, type_of, type_to_string
from repro.types.to_jsonschema import type_to_jsonschema

ARTIFACTS = ("rows.avro", "columns.json", "schema.txt")
SKELETON_K = 5  # the CLI's default --k


def translate_artifacts(docs: list, inferred, out_dir: Path) -> dict:
    """``rows.avro``, ``columns.json`` and ``schema.txt`` of the DOM
    reference translation, as name -> bytes."""
    report = schema_aware_translate(docs, inferred)
    run = TranslationRun(
        translation=report,
        inferred=inferred,
        resolved=resolve_interned(inferred).resolved,
        equivalence=Equivalence.KIND,
    )
    write_artifacts(run, out_dir)
    artifacts = {name: (out_dir / name).read_bytes() for name in ARTIFACTS}
    shutil.rmtree(out_dir)
    return artifacts


def skeleton_report(docs: list, k: int = SKELETON_K) -> str:
    """The ``repro skeleton`` report of ``docs``, rendered from the seed
    skeleton miner."""
    skeleton = build_skeleton(docs, k)
    lines = [
        f"# skeleton of order {skeleton.order} over {skeleton.document_count} documents",
        f"# document coverage {document_coverage(skeleton, docs):6.1%}, "
        f"path coverage {path_coverage(skeleton, docs):6.1%}",
    ]
    for i, structure in enumerate(skeleton.structures):
        paths = ", ".join(".".join(p) for p in sorted(structure.paths)[:6])
        more = len(structure.paths) - 6
        suffix = f" (+{more} paths)" if more > 0 else ""
        lines.append(f"structure #{i}: {structure.count} docs — {paths}{suffix}")
    return "\n".join(lines) + "\n"


class Oracle:
    """Expected outputs for one corpus (and its one-document prefix)."""

    def __init__(self, lines: list, schema_path: Path, scratch: Path) -> None:
        docs = [parse(line) for line in lines]
        inferred = merge_all((type_of(d) for d in docs), Equivalence.KIND)
        self.documents = len(docs)
        self.infer_stdout = (
            f"# {len(docs)} documents, schema size {inferred.size()}\n"
            f"{type_to_string(inferred)}\n"
        )
        schema_path.write_text(dumps(type_to_jsonschema(inferred)), encoding="utf-8")
        self.validate_tail = f"# {len(docs)}/{len(docs)} valid"
        self.artifacts = translate_artifacts(docs, inferred, scratch / "oracle-out")
        self.skeleton_stdout = skeleton_report(docs)
        first = docs[:1]
        self.first_artifacts = translate_artifacts(
            first, merge_all([type_of(first[0])], Equivalence.KIND), scratch / "oracle-first"
        )

    def check(self, command: str, returncode: int, stdout: str, out_dir: Path) -> bool:
        """Whether one command's exit code and output match the oracle."""
        if returncode != 0:
            return False
        if command in ("infer", "infer_auto"):
            return stdout == self.infer_stdout
        if command == "validate":
            return stdout.rstrip("\n").endswith(self.validate_tail)
        if command == "skeleton":
            return stdout == self.skeleton_stdout
        if command == "setup":
            return _same_artifacts(out_dir, self.first_artifacts, stdout, 1)
        if command in ("translate", "translate_auto"):
            return _same_artifacts(out_dir, self.artifacts, stdout, self.documents)
        raise ValueError(f"no oracle for command {command!r}")


def _same_artifacts(out_dir: Path, expected: dict, stdout: str, documents: int) -> bool:
    if not stdout.startswith(f"documents:        {documents}\n"):
        return False
    for name, data in expected.items():
        path = out_dir / name
        if not path.is_file() or path.read_bytes() != data:
            return False
    return True
