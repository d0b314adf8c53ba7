"""Corpus-scale scoring, cutoff selection, and filtering with a manifest.

Scoring and filtering run one shard per worker; outputs are byte-identical
for any worker count because each shard's output depends only on that shard.
Cutoff selection is a single reduction over the completed score set.
"""

from __future__ import annotations

import datetime
import itertools
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

# `score` is the one-snippet form of the batched path below; it stays
# importable here for callers that look it up on this module.
from .classifier import QualityClassifier, featurize_chunks, score, score_batch  # noqa: F401
from .corpus import (
    CorpusError,
    Document,
    Shard,
    ShardSet,
    extract_snippet,
    ingest_shards,
    read_records,
    write_json,
    write_jsonl,
    write_shard_file,
)

SCORES_FORMAT_VERSION = 1


class TieDegeneracyWarning(UserWarning):
    """Ties at the cutoff forced fewer documents than the target ratio."""


class DuplicateIdError(ValueError):
    """A document id occurs more than once in a score set."""


@dataclass
class SelectionDecision:
    """A cutoff realizing a target keep-ratio over a score set."""

    cutoff: float
    target_ratio: float
    achieved_ratio: float
    kept: int
    dropped: int
    classifier_id: str = ""
    tie_rule: str = "keep documents scoring strictly above the cutoff; ties at the cutoff drop"


@dataclass
class ShardScoreStats:
    shard: str
    records: int
    skipped: int
    seconds: float


@dataclass
class ScoringReport:
    per_shard: list[ShardScoreStats] = field(default_factory=list)
    total_records: int = 0
    total_skipped: int = 0
    seconds: float = 0.0
    docs_per_second: float = 0.0


@dataclass(frozen=True)
class ScoreHeader:
    """First record of a score shard; {doc_id, score} rows follow."""

    classifier_id: str
    format_version: int
    source_shard: str


@dataclass
class _ScoreRow:
    doc_id: str
    score: float


def _read_score_shard(path: Path) -> tuple[ScoreHeader, Iterator[_ScoreRow]]:
    """A score shard's header and a lazy iterator over its rows."""
    records = read_records(path, _ScoreRow, header=ScoreHeader)
    header = next(records, None)
    if header is None or header.format_version != SCORES_FORMAT_VERSION:
        raise CorpusError(f"{path}:1: expected a score header of format_version "
                          f"{SCORES_FORMAT_VERSION}, found {header or 'an empty file'}")
    return header, records


@dataclass
class ScoreSet:
    """Handle on a directory of sharded score records.

    Each score shard starts with a ScoreHeader record {classifier_id,
    format_version, source_shard} followed by {doc_id, score} records.
    `source_shards` holds the headers' corpus shard names, in shard order.
    """

    directory: Path
    shard_paths: list[Path]
    classifier_id: str
    source_shards: list[str]
    report: ScoringReport | None = None

    @classmethod
    def open(cls, directory: str | Path) -> "ScoreSet":
        directory = Path(directory)
        if not directory.is_dir():
            raise CorpusError(f"score directory not found: {directory}")
        paths = sorted(directory.glob("scores-*.jsonl"), key=str)
        if not paths:
            raise CorpusError(f"no score shards in {directory}")
        headers = [_read_score_shard(p)[0] for p in paths]
        classifier_ids = {h.classifier_id for h in headers}
        if len(classifier_ids) != 1:
            raise CorpusError(
                f"score shards in {directory} mix classifier ids: {sorted(classifier_ids)}"
            )
        return cls(directory, paths, classifier_ids.pop(), [h.source_shard for h in headers])

    def iter_records(self) -> Iterator[tuple[str, float, str]]:
        """(doc_id, score, source_shard) per row, in shard order."""
        for path in self.shard_paths:
            header, rows = _read_score_shard(path)
            for row in rows:
                yield row.doc_id, row.score, header.source_shard

    def load_scores(self) -> dict[str, float]:
        """doc_id -> score; a repeated id raises DuplicateIdError naming the id
        and its shards, which a second pass over the rows finds."""
        scores: dict[str, float] = {}
        for n, (doc_id, score, _) in enumerate(self.iter_records(), 1):
            scores[doc_id] = score
            if len(scores) < n:
                shards = [shard for i, _, shard in self.iter_records() if i == doc_id]
                raise DuplicateIdError(
                    f"document id {doc_id!r} is scored {len(shards)} times, in shards "
                    f"{', '.join(shards)}; document ids must be unique across the corpus"
                )
        return scores


def score_documents(
    docs: Iterable[Document],
    classifier: QualityClassifier,
    token_budget: int = 1500,
    chars_per_token: int = 4,
) -> tuple[list[str], np.ndarray, int]:
    """Score documents in memory; returns (ids, float64 scores in the same
    order, skipped_empty_count).

    Snippets are featurized and scored in `featurize_chunks` batches, so
    memory stays bounded for any number of documents. A document's score
    does not depend on its batch.
    """
    ids: list[str] = []
    chunks: list[np.ndarray] = []
    skipped = 0

    def snippets() -> Iterator[str]:
        nonlocal skipped
        for doc in docs:
            if not doc.text:
                skipped += 1
                continue
            ids.append(doc.id)
            yield extract_snippet(doc, token_budget, chars_per_token).text

    for batch in featurize_chunks(snippets(), classifier.featurizer):
        chunks.append(score_batch(classifier, batch))
        del batch  # freed before the next batch is built
    return ids, np.concatenate(chunks) if chunks else np.empty(0), skipped


def score_corpus(
    shard_set: ShardSet,
    classifier: QualityClassifier,
    workers: int = 1,
    *,
    out_dir: str | Path,
    token_budget: int = 1500,
    chars_per_token: int = 4,
) -> ScoreSet:
    """Score every document, one output score shard per input shard.

    Empty-text documents are skipped and counted. The written score set is
    identical for any worker count. A doc id that occurs twice, explicit or
    synthesized ("<shard>#<index>"), raises DuplicateIdError once every shard
    is written.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    classifier_id = classifier.fingerprint()

    def score_one(shard: Shard) -> tuple[Path, ShardScoreStats, list[str]]:
        t0 = time.monotonic()
        ids, scores, skipped = score_documents(
            ingest_shards(ShardSet(shards=[shard])), classifier, token_budget, chars_per_token
        )
        stem = shard.path.name.removesuffix(".gz").removesuffix(".jsonl")
        path = out_dir / f"scores-{stem}.jsonl"
        header = ScoreHeader(classifier_id, SCORES_FORMAT_VERSION, shard.path.name)
        rows = ({"doc_id": i, "score": s} for i, s in zip(ids, scores.tolist()))
        write_jsonl(path, itertools.chain([header], rows))
        stats = ShardScoreStats(
            shard=shard.path.name,
            records=len(ids),
            skipped=skipped,
            seconds=time.monotonic() - t0,
        )
        return path, stats, ids

    t0 = time.monotonic()
    report = ScoringReport()
    paths: list[Path] = []
    doc_ids: list[str] = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for path, stats, shard_ids in pool.map(score_one, shard_set.shards):
            paths.append(path)
            report.per_shard.append(stats)
            report.total_records += stats.records
            report.total_skipped += stats.skipped
            doc_ids.extend(shard_ids)
    report.seconds = time.monotonic() - t0
    report.docs_per_second = report.total_records / report.seconds if report.seconds else 0.0
    sources = [stats.shard for stats in report.per_shard]
    score_set = ScoreSet(out_dir, paths, classifier_id, sources, report)
    if len(set(doc_ids)) < len(doc_ids):
        score_set.load_scores()  # raises DuplicateIdError naming the id and its shards
    return score_set


def select_cutoff(
    scores: Mapping[str, float], target_ratio: float, classifier_id: str = ""
) -> SelectionDecision:
    """Pick the cutoff over a doc_id -> score map whose strictly-above set
    best realizes the target ratio.

    The kept count is the largest feasible count <= floor(target_ratio * N)
    under the strict-comparison rule; equal-score ties at the cutoff are
    reported, never silently resolved.
    """
    if not scores:
        raise ValueError("empty score set")
    if not 0 < target_ratio <= 1:
        raise ValueError("target_ratio must be in (0, 1]")
    n = len(scores)
    values = np.fromiter(scores.values(), dtype=np.float64, count=n)
    keep_target = int(math.floor(target_ratio * n + 1e-9))
    # The exact (1 - ratio) quantile; 0.0 lies below every score in (0, 1).
    rank = n - keep_target - 1
    cutoff = float(np.partition(values, rank)[rank]) if rank >= 0 else 0.0
    kept = int((values > cutoff).sum())
    tie_rule = "keep documents scoring strictly above the cutoff; ties at the cutoff drop"
    if kept < keep_target:
        warnings.warn(
            f"tie degeneracy: {keep_target - kept} candidate documents share the "
            f"cutoff score {cutoff!r} and are dropped by the strict rule",
            TieDegeneracyWarning,
            stacklevel=2,
        )
        tie_rule += f"; {keep_target - kept} tied documents dropped at this cutoff"
    return SelectionDecision(
        cutoff=cutoff,
        target_ratio=target_ratio,
        achieved_ratio=kept / n,
        kept=kept,
        dropped=n - kept,
        classifier_id=classifier_id,
        tie_rule=tie_rule,
    )


@dataclass
class Manifest:
    """Audit record of one filtering run."""

    cutoff: float
    target_ratio: float
    achieved_ratio: float
    kept: int
    dropped: int
    classifier_id: str
    per_shard: list[dict]
    input_documents: int
    output_documents: int
    started_at: str
    finished_at: str


def filter_corpus(
    shard_set: ShardSet,
    scores: Mapping[str, float],
    decision: SelectionDecision,
    out_dir: str | Path,
    workers: int = 1,
) -> tuple[ShardSet, Manifest]:
    """Materialize the kept documents, preserving shard boundaries and order.

    Every corpus document with text must have a score in the doc_id -> score
    map (fail-fast join); empty-text documents, which `score_corpus` skips,
    are dropped. Output shards reuse the input shard file names; a shard may
    shrink or empty.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()

    def filter_one(shard: Shard) -> tuple[Shard, dict]:
        read = 0
        kept_docs: list[Document] = []
        for doc in ingest_shards(ShardSet(shards=[shard])):
            read += 1
            if not doc.text:
                continue
            if doc.id not in scores:
                raise CorpusError(
                    f"join integrity: document {doc.id!r} in {shard.path.name} has no score"
                )
            if scores[doc.id] > decision.cutoff:
                kept_docs.append(doc)
        out_shard = write_shard_file(
            kept_docs, out_dir / shard.path.name, compress=shard.compressed
        )
        counts = {
            "shard": shard.path.name,
            "read": read,
            "kept": len(kept_docs),
            "dropped": read - len(kept_docs),
        }
        return out_shard, counts

    out_shards: list[Shard] = []
    per_shard: list[dict] = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for out_shard, counts in pool.map(filter_one, shard_set.shards):
            out_shards.append(out_shard)
            per_shard.append(counts)

    total_read = sum(c["read"] for c in per_shard)
    total_kept = sum(c["kept"] for c in per_shard)
    if total_kept != decision.kept:
        raise CorpusError(
            f"decision/corpus mismatch: decision says keep {decision.kept}, "
            f"filter kept {total_kept} (was the decision computed on this score set?)"
        )
    manifest = Manifest(
        cutoff=decision.cutoff,
        target_ratio=decision.target_ratio,
        achieved_ratio=decision.achieved_ratio,
        kept=decision.kept,
        dropped=decision.dropped,
        classifier_id=decision.classifier_id,
        per_shard=per_shard,
        input_documents=total_read,
        output_documents=total_kept,
        started_at=started,
        finished_at=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
    write_json(out_dir / "filter-manifest.json", manifest)
    return ShardSet(shards=out_shards), manifest
