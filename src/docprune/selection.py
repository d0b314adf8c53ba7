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
from typing import Callable, Iterable, Iterator, Sequence

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


@dataclass(frozen=True)
class ScoreRecord:
    doc_id: str
    score: float
    shard: str = ""


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
    """

    directory: Path
    shard_paths: list[Path]
    classifier_id: str
    report: ScoringReport | None = None

    @classmethod
    def open(cls, directory: str | Path) -> "ScoreSet":
        directory = Path(directory)
        if not directory.is_dir():
            raise CorpusError(f"score directory not found: {directory}")
        paths = sorted(directory.glob("scores-*.jsonl"), key=str)
        if not paths:
            raise CorpusError(f"no score shards in {directory}")
        classifier_ids = {_read_score_shard(p)[0].classifier_id for p in paths}
        if len(classifier_ids) != 1:
            raise CorpusError(
                f"score shards in {directory} mix classifier ids: {sorted(classifier_ids)}"
            )
        return cls(directory=directory, shard_paths=paths, classifier_id=classifier_ids.pop())

    def iter_records(self) -> Iterator[ScoreRecord]:
        for path in self.shard_paths:
            header, rows = _read_score_shard(path)
            for row in rows:
                yield ScoreRecord(doc_id=row.doc_id, score=row.score, shard=header.source_shard)

    def load_scores(self) -> dict[str, float]:
        return _scores_by_id(self.iter_records(), self.iter_records)


def _scores_by_id(
    records: Iterable[ScoreRecord], reread: Callable[[], Iterable[ScoreRecord]]
) -> dict[str, float]:
    """doc_id -> score; a repeated id raises DuplicateIdError naming the id and
    its shards, which `reread` (a second pass over the records) finds."""
    scores: dict[str, float] = {}
    for n, rec in enumerate(records, 1):
        scores[rec.doc_id] = rec.score
        if len(scores) < n:
            shards = [r.shard for r in reread() if r.doc_id == rec.doc_id]
            raise DuplicateIdError(
                f"document id {rec.doc_id!r} is scored {len(shards)} times, in shards "
                f"{', '.join(shards)}; document ids must be unique across the corpus"
            )
    return scores


def score_documents(
    docs: Iterable[Document],
    classifier: QualityClassifier,
    token_budget: int = 1500,
    chars_per_token: int = 4,
) -> tuple[list[ScoreRecord], int]:
    """Score documents in memory; returns (records, skipped_empty_count).

    Snippets are featurized and scored in `featurize_chunks` batches, so
    memory stays bounded for any number of documents. A document's score
    does not depend on its batch.
    """
    records: list[ScoreRecord] = []
    skipped = 0
    unscored: list[tuple[str, str]] = []  # (id, shard) of each snippet read, in order

    def snippets() -> Iterator[str]:
        nonlocal skipped
        for doc in docs:
            if not doc.text:
                skipped += 1
                continue
            unscored.append((doc.id, doc.source_shard))
            yield extract_snippet(doc, token_budget, chars_per_token).text

    for batch in featurize_chunks(snippets(), classifier.featurizer):
        scores = score_batch(classifier, batch).tolist()
        del batch  # freed before the next batch is built
        records.extend(
            ScoreRecord(doc_id=doc_id, score=s, shard=shard)
            for (doc_id, shard), s in zip(unscored, scores)
        )
        unscored.clear()
    return records, skipped


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
        records, skipped = score_documents(
            ingest_shards(ShardSet(shards=[shard])), classifier, token_budget, chars_per_token
        )
        stem = shard.path.name.removesuffix(".gz").removesuffix(".jsonl")
        path = out_dir / f"scores-{stem}.jsonl"
        header = ScoreHeader(classifier_id, SCORES_FORMAT_VERSION, shard.path.name)
        rows = ({"doc_id": rec.doc_id, "score": rec.score} for rec in records)
        write_jsonl(path, itertools.chain([header], rows))
        stats = ShardScoreStats(
            shard=shard.path.name,
            records=len(records),
            skipped=skipped,
            seconds=time.monotonic() - t0,
        )
        return path, stats, [rec.doc_id for rec in records]

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
    score_set = ScoreSet(
        directory=out_dir,
        shard_paths=paths,
        classifier_id=classifier_id,
        report=report,
    )
    if len(set(doc_ids)) < len(doc_ids):
        score_set.load_scores()  # raises DuplicateIdError naming the id and its shards
    return score_set


def exact_cutoff(scores: np.ndarray, keep: int) -> float:
    """Exact (1 - ratio) quantile by full sort."""
    if keep >= scores.shape[0]:
        return 0.0  # below every score: scores live in (0, 1)
    ordered = np.sort(scores)
    return float(ordered[scores.shape[0] - keep - 1])


def select_cutoff(
    score_set: ScoreSet | Sequence[ScoreRecord],
    target_ratio: float,
    classifier_id: str | None = None,
) -> SelectionDecision:
    """Pick the cutoff whose strictly-above set best realizes the target ratio.

    The kept count is the largest feasible count <= floor(target_ratio * N)
    under the strict-comparison rule; equal-score ties at the cutoff are
    reported, never silently resolved. A repeated doc id raises
    DuplicateIdError.
    """
    if isinstance(score_set, ScoreSet):
        scores_by_id = score_set.load_scores()
        if classifier_id is None:
            classifier_id = score_set.classifier_id
    else:
        scores_by_id = _scores_by_id(score_set, lambda: score_set)
    if not scores_by_id:
        raise ValueError("empty score set")
    if not 0 < target_ratio <= 1:
        raise ValueError("target_ratio must be in (0, 1]")
    scores = np.fromiter(scores_by_id.values(), dtype=np.float64, count=len(scores_by_id))
    n = scores.shape[0]
    keep_target = int(math.floor(target_ratio * n + 1e-9))
    cutoff = exact_cutoff(scores, keep_target)
    kept = int((scores > cutoff).sum())
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
        classifier_id=classifier_id or "",
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
    score_set: ScoreSet | dict[str, float],
    decision: SelectionDecision,
    out_dir: str | Path,
    workers: int = 1,
) -> tuple[ShardSet, Manifest]:
    """Materialize the kept documents, preserving shard boundaries and order.

    Every corpus document must have a score (fail-fast join by doc_id). Output
    shards reuse the input shard file names; a shard may shrink or empty.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scores = score_set if isinstance(score_set, dict) else score_set.load_scores()
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()

    def filter_one(shard: Shard) -> tuple[Shard, dict]:
        read = 0
        kept_docs: list[Document] = []
        for doc in ingest_shards(ShardSet(shards=[shard])):
            read += 1
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
