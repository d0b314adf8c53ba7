"""Corpus I/O walkthrough: write shards, ingest them back, sample, slice.

Run: python demos/01_corpus_io.py
"""

import tempfile
from pathlib import Path

from docprune.corpus import (
    Document,
    RunSummary,
    extract_snippet,
    ingest_shards,
    reservoir_sample,
    write_shards,
)

with tempfile.TemporaryDirectory(prefix="docprune-demo-") as tmp:
    workdir = Path(tmp)
    print(f"working in {workdir} (removed at exit)\n")

    # A tiny corpus: 25 documents of varying length, one with provenance metadata.
    docs = [
        Document(
            id=f"doc-{i:03d}",
            text=f"Document number {i}. " * (5 + 7 * (i % 4)),
            meta={"origin": "demo", "bucket": str(i % 3)},
        )
        for i in range(25)
    ]

    # Write 10 records per shard; the gzip flag would compress each shard.
    shard_set = write_shards(docs, workdir / "corpus", records_per_shard=10)
    print("shards written:", [s.path.name for s in shard_set.shards])

    # Ingestion streams documents in shard order, then record order, and counts
    # what it yields and skips into a RunSummary: the one record that `sample`,
    # `score` and `filter` each write of their pass over the shards.
    summary = RunSummary()
    round_tripped = list(ingest_shards(shard_set, summary=summary))
    print(f"read back {summary.input_documents} documents from {summary.shards} shards "
          f"({summary.empty_text} empty-text and {summary.malformed} malformed records skipped)")
    assert [(d.id, d.text, d.meta) for d in round_tripped] == [
        (d.id, d.text, d.meta) for d in docs
    ]

    # Reservoir sampling gives every document the same inclusion probability and
    # is reproducible for a fixed seed.
    sample = reservoir_sample(ingest_shards(shard_set), n=5, seed=123)
    print("seeded sample:", [d.id for d in sample])
    again = reservoir_sample(ingest_shards(shard_set), n=5, seed=123)
    assert [d.id for d in sample] == [d.id for d in again]

    # A snippet is the middle 6,000-character window (~1500 tokens at ~4
    # chars per token). Short documents pass through whole.
    long_doc = Document(id="long", text="x" * 12_000)
    snip = extract_snippet(long_doc)
    print(f"snippet of 12,000-char doc: chars [{snip.char_start}, {snip.char_end}) "
          f"-> {len(snip.text)} chars")

    short = extract_snippet(docs[0])
    print(f"short doc keeps everything: [{short.char_start}, {short.char_end})")
