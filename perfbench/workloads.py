"""Seeded corpus generators for the pipeline benchmark.

Each workload is a pure function of the benchmark's ``--seed``: the same
seed writes byte-identical files.  The program under test only ever sees
the generated files.

- ``flat``: constant-structure telemetry records (the E22 "flat" shape).
  Every line has the same skeleton, so the line-shape cache answers
  almost every line; no unions, no arrays, no compression.
- ``tweets``: :func:`repro.datasets.tweets` -- wide, deep records with
  optional members, nested retweets, delete notices and arrays of
  records.  The line-shape cache misses on about 30% of lines (against
  well under 1% on the other two), the intern table grows the most, and
  the DOM commands (validate, skeleton) are slowest per document here.
- ``nested-gz``: the E22 "nested" shape (arrays, int|flt drift, a
  nullable record) written as a multi-member gzip, so inference and the
  translate pass both run through the compressed transport.  The only
  workload that exercises decompression.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# The repro imports are local to the functions, so the benchmark can
# name the workloads before it puts the sources on its path.

# Document counts, about 0.9 MB of NDJSON each.  A full command cycle
# (7 CLI invocations, about 4 s) has to fit several times into one
# measured run, and validate/skeleton cost about 0.2 ms (flat) to 0.9 ms
# (tweets) per document, so the DOM commands bound the corpus size.
DOCUMENTS = {"flat": 6_000, "tweets": 1_500, "nested-gz": 6_000}
# Ten gzip members: enough for member-parallel inference on any CPU count
# the scheduler would use, as in the E20/E22 multi-member corpora.
GZIP_MEMBERS = 10


@dataclass(frozen=True)
class Corpus:
    """A generated workload corpus on disk."""

    name: str
    path: Path  # the file the CLI reads (gzip for nested-gz)
    lines: list  # the uncompressed NDJSON lines, for the oracles
    raw_bytes: int  # uncompressed NDJSON bytes ("MB" in every MB/s metric)
    file_bytes: int  # bytes on disk
    members: int  # gzip members (0 for plain files)

    @property
    def documents(self) -> int:
        return len(self.lines)


def flat_lines(n: int, seed: int) -> list:
    """Constant-structure records (telemetry/log shape)."""
    from repro.jsonvalue.serializer import dumps

    rng = random.Random(seed)
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


def nested_lines(n: int, seed: int) -> list:
    """Variable-structure records: arrays, numeric drift (int|flt) and a
    nullable record."""
    from repro.jsonvalue.serializer import dumps

    rng = random.Random(seed)
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


def tweet_lines(n: int, seed: int) -> list:
    from repro.datasets import tweets
    from repro.jsonvalue.serializer import dumps

    return [dumps(doc) for doc in tweets(n, seed=seed)]


WORKLOADS = ("flat", "tweets", "nested-gz")


def generate(name: str, seed: int, directory: Path, documents: int = 0) -> Corpus:
    """Write workload ``name`` for ``seed`` under ``directory``.

    ``documents`` overrides the workload's default size (the benchmark's
    own tests use tiny corpora).
    """
    n = documents or DOCUMENTS[name]
    if name == "flat":
        lines = flat_lines(n, seed)
    elif name == "tweets":
        lines = tweet_lines(n, seed)
    elif name == "nested-gz":
        lines = nested_lines(n, seed)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    text = "".join(line + "\n" for line in lines).encode("utf-8")
    members = 0
    if name == "nested-gz":
        from repro.datasets import compress_corpus

        path = directory / f"{name}.ndjson.gz"
        members = compress_corpus(
            path, lines, member_lines=-(-n // GZIP_MEMBERS)
        )
    else:
        path = directory / f"{name}.ndjson"
        path.write_bytes(text)
    return Corpus(
        name=name,
        path=path,
        lines=lines,
        raw_bytes=len(text),
        file_bytes=path.stat().st_size,
        members=members,
    )


def first_document(corpus: Corpus, directory: Path) -> Path:
    """A one-line plain corpus holding the workload's first document."""
    path = directory / f"{corpus.name}-first.ndjson"
    path.write_text(corpus.lines[0] + "\n", encoding="utf-8")
    return path


def line_cache_share(lines: list, batch: int = 4096) -> float:
    """Share of lines the line-shape cache resolves when the corpus is
    encoded in batches by one encoder, as the serial bytes fold does."""
    from repro.types.build import EventTypeEncoder

    encoder = EventTypeEncoder()
    raw = [line.encode("utf-8") for line in lines]
    for i in range(0, len(raw), batch):
        encoder.encode_lines(raw[i : i + batch])
    attempts, hits, _ = encoder.line_cache_stats
    return hits / attempts if attempts else 0.0
