"""Corpus-scale scoring, cutoff selection, and filtering.

Scoring runs one shard per forked worker process; its output is
byte-identical for any worker count because each shard's output depends only
on that shard. Filtering runs its shards in order. Cutoff selection is a
single reduction over the completed score set.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import math
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

# `score` is the one-snippet form of the batched path below; it stays
# importable here only because the benchmark tracer (`perfbench/tracer.py`)
# wraps it on this module. ROADMAP item 1 deletes this re-export.
from .classifier import QualityClassifier, featurize_chunks, score, score_batch  # noqa: F401
from .classifier import DegenerateLabelsError
from .corpus import (
    CorpusError,
    Document,
    DuplicateIdError,
    RunSummary,
    Shard,
    ShardSet,
    extract_snippet,
    ingest_shards,
    read_records,
    write_jsonl,
    write_shard_file,
)

SCORES_FORMAT_VERSION = 2
TIE_RULE = "keep documents scoring strictly above the cutoff; ties at the cutoff drop"


class TieDegeneracyWarning(UserWarning):
    """Ties at the cutoff forced fewer documents than the target ratio."""


@dataclass
class SelectionDecision:
    """A cutoff realizing a target keep-ratio over a score set."""

    cutoff: float
    target_ratio: float
    achieved_ratio: float
    kept: int
    dropped: int
    classifier_id: str = ""
    tie_rule: str = TIE_RULE

    def keeps(self, score: float) -> bool:
        """Whether a document with this score is kept: the one keep rule."""
        return score > self.cutoff


@dataclass(frozen=True)
class ScoreHeader:
    """First record of a score shard; `rows` {doc_id, score} rows follow."""

    classifier_id: str
    format_version: int
    source_shard: str
    rows: int = -1  # absent only from format_version 1 headers

    def __post_init__(self):
        if self.format_version != SCORES_FORMAT_VERSION or self.rows < 0:
            raise ValueError(
                f"not a format_version {SCORES_FORMAT_VERSION} score header with a row count "
                f"(format_version {self.format_version}); re-run `docprune score`"
            )


@dataclass
class _ScoreRow:
    doc_id: str
    score: float

    def __post_init__(self):
        if not 0.0 < self.score < 1.0:  # NaN fails this too
            raise ValueError(f"score {self.score!r} is not in (0, 1)")


def _read_score_shard(path: Path) -> tuple[ScoreHeader, Iterator[_ScoreRow]]:
    """A score shard's header and a lazy iterator over its rows."""
    records = read_records(path, _ScoreRow, header=ScoreHeader)
    header = next(records, None)
    if header is None:
        raise CorpusError(f"{path}:1: expected a score header, found an empty file")
    return header, records


@dataclass
class ScoreSet:
    """Handle on a directory of sharded score records.

    Each score shard starts with a ScoreHeader record {classifier_id,
    format_version, source_shard, rows} followed by `rows` {doc_id, score}
    records. `source_shards` holds the headers' corpus shard names, in shard
    order.
    """

    shard_paths: list[Path]
    classifier_id: str
    source_shards: list[str]

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
        return cls(paths, classifier_ids.pop(), [h.source_shard for h in headers])

    def iter_records(self) -> Iterator[tuple[str, float, str]]:
        """(doc_id, score, source_shard) per row, in shard order. A shard
        whose row count differs from its header's raises CorpusError at its end."""
        for path in self.shard_paths:
            header, rows = _read_score_shard(path)
            count = 0
            for count, row in enumerate(rows, 1):
                yield row.doc_id, row.score, header.source_shard
            if count != header.rows:
                raise CorpusError(
                    f"{path}: the header gives {header.rows} rows, the file holds {count}; "
                    f"the shard was cut or edited, re-run `docprune score`"
                )

    def load_scores(self) -> dict[str, float]:
        """doc_id -> score; a repeated id raises DuplicateIdError naming the id
        and its shards, which a second pass over the rows finds."""
        scores: dict[str, float] = {}
        for n, (doc_id, score, _) in enumerate(self.iter_records(), 1):
            scores[doc_id] = score
            if len(scores) < n:
                raise _repeated_id(doc_id, [s for i, _, s in self.iter_records() if i == doc_id])
        return scores


def _repeated_id(doc_id: str, shards: list[str]) -> DuplicateIdError:
    return DuplicateIdError(
        f"document id {doc_id!r} is scored {len(shards)} times, in shards "
        f"{', '.join(shards)}; document ids must be unique across the corpus"
    )


def score_documents(
    docs: Iterable[Document],
    classifier: QualityClassifier,
) -> tuple[list[str], list[float]]:
    """Score documents in memory; returns (ids, scores in the same order).

    Snippets are featurized and scored in `featurize_chunks` batches, so
    memory stays bounded for any number of documents. A document's score
    does not depend on its batch. An empty text raises ValueError
    (`extract_snippet`); `ingest_shards` yields none.
    """
    ids: list[str] = []
    scores: list[float] = []

    def snippets() -> Iterator[str]:
        for doc in docs:
            ids.append(doc.id)
            yield extract_snippet(doc).text

    for batch in featurize_chunks(snippets(), classifier.featurizer):
        scores.extend(score_batch(classifier, batch).tolist())
        del batch  # freed before the next batch is built
    return ids, scores


def score_shard_names(shard_set: ShardSet) -> dict[str, str]:
    """Corpus shard name -> the score shard it is scored into,
    `scores-<stem>.jsonl`; two corpus shards with one stem (`a.jsonl` and
    `a.jsonl.gz`) raise CorpusError."""
    owner: dict[str, str] = {}  # score shard -> corpus shard
    for shard in shard_set.shards:
        name = f"scores-{shard.path.name.removesuffix('.gz').removesuffix('.jsonl')}.jsonl"
        if name in owner:
            raise CorpusError(
                f"corpus shards {owner[name]} and {shard.path.name} would both be scored "
                f"into {name}; rename one of them"
            )
        owner[name] = shard.path.name
    return {corpus: score for score, corpus in owner.items()}


# A forked worker's per-shard call, set by the pool's initializer. Fork hands
# it to the worker as is, so neither it nor the model it closes over is pickled.
_shard_call = None


def _set_shard_call(call) -> None:
    global _shard_call
    _shard_call = call


def _call_shard(shard: Shard):
    return _shard_call(shard)


def _map_shards(fn, shard_set: ShardSet, total: RunSummary, workers: int, strict: bool) -> Iterator:
    """Yields fn(shard, its documents, its RunSummary) for every shard, in shard
    order. Once `fn` has read every document, the shard's summary counts its
    documents and skipped records, and `fn` sets its `output_documents`; the
    call's wall and CPU seconds are timed here. As each result is yielded, its
    shard's summary is added to `total`, whose `seconds` is the pass's wall time
    once the last result is taken. `strict` makes a malformed record a
    CorpusError. One worker or one shard runs each shard in this process as its
    result is taken; more run on min(workers, shards) forked processes, and
    fn's results must pickle. An error, or closing the generator, cancels the
    shards not started; every worker has stopped before an error propagates."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
    start = time.monotonic()

    def one(shard: Shard):
        summary = RunSummary()
        docs = ingest_shards(ShardSet(shards=[shard]), strict=strict, summary=summary)
        # Thread CPU time: in a forked worker that is the whole process; in this
        # process it leaves out numpy's idle BLAS threads, which process time counts.
        t0, cpu0 = time.monotonic(), time.thread_time()
        result = fn(shard, docs, summary)
        summary.seconds, summary.cpu_seconds = time.monotonic() - t0, time.thread_time() - cpu0
        return result, summary

    shards, pool = shard_set.shards, None
    results = map(one, shards)
    try:
        if workers > 1 and len(shards) > 1:
            # Imported only where a pool forks: at module level these imports
            # would lengthen the start-up of every stage process.
            import multiprocessing
            from concurrent.futures.process import ProcessPoolExecutor

            pool = ProcessPoolExecutor(
                min(workers, len(shards)), mp_context=multiprocessing.get_context("fork"),
                initializer=_set_shard_call, initargs=(one,),
            )
            results = pool.map(_call_shard, shards)
        for shard, (result, summary) in zip(shards, results):
            total.add(shard.path.name, summary)
            yield result
        total.seconds = time.monotonic() - start
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def score_corpus(
    shard_set: ShardSet,
    classifier: QualityClassifier,
    workers: int = 1,
    *,
    out_dir: str | Path,
    strict: bool = False,
) -> RunSummary:
    """Score every document, one output score shard per input shard, into
    `out_dir`, which `ScoreSet.open` reads; returns the run's RunSummary, whose
    `output_documents` are the rows written.

    Shards run on `workers` forked processes (see `_map_shards`). Records
    that ingest skips (empty text, or malformed unless `strict`) are counted
    in the summary. The written score set is identical for any worker count. A
    shard that fails (unreadable, or a malformed record under `strict`) or a
    worker that dies raises; the score shards already written stay, and
    `docprune score` discards them with its staging dir. A doc id that occurs
    twice, explicit or synthesized ("<shard>#<index>"), raises
    DuplicateIdError once the first shard that repeats it is scored; the
    shards not yet started are cancelled.
    """
    names = score_shard_names(shard_set)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    classifier_id = classifier.fingerprint()

    def score_one(shard: Shard, docs: Iterator[Document], summary: RunSummary):
        ids, scores = score_documents(docs, classifier)
        header = ScoreHeader(classifier_id, SCORES_FORMAT_VERSION, shard.path.name, len(ids))
        rows = ({"doc_id": i, "score": s} for i, s in zip(ids, scores))
        write_jsonl(out_dir / names[shard.path.name], itertools.chain([header], rows))
        summary.output_documents = len(ids)
        return shard.path.name, ids

    total, shard_of = RunSummary(), {}  # shard_of: doc id -> its shard
    with contextlib.closing(_map_shards(score_one, shard_set, total, workers, strict)) as results:
        for name, ids in results:
            for doc_id in ids:
                if doc_id in shard_of:
                    raise _repeated_id(doc_id, [shard_of[doc_id], name])
                shard_of[doc_id] = name
    return total


def check_keep_ratio(ratio: float) -> None:
    """The keep-ratio rule: the share of the documents kept is in (0, 1]."""
    if not 0 < ratio <= 1:
        raise ValueError(f"target_ratio must be in (0, 1], not {ratio!r}")


def select_cutoff(
    scores: Mapping[str, float], target_ratio: float, classifier_id: str = ""
) -> SelectionDecision:
    """Pick the cutoff over a doc_id -> score map whose strictly-above set
    best realizes the target ratio.

    The kept count is the largest feasible count <= floor(target_ratio * N)
    under the strict-comparison rule; equal-score ties at the cutoff are
    reported, never silently resolved.
    """
    if not scores:  # e.g. every document had empty text
        raise DegenerateLabelsError("empty score set: no document was scored")
    check_keep_ratio(target_ratio)
    n = len(scores)
    values = sorted(scores.values())
    keep_target = int(math.floor(target_ratio * n + 1e-9))
    # The exact (1 - ratio) quantile; 0.0 lies below every score in (0, 1).
    rank = n - keep_target - 1
    cutoff = values[rank] if rank >= 0 else 0.0
    kept = n - bisect.bisect_right(values, cutoff)  # scores above it, as `keeps` counts
    tie_rule = TIE_RULE
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


def filter_corpus(
    shard_set: ShardSet,
    scores: Mapping[str, float],
    decision: SelectionDecision,
    out_dir: str | Path,
    *,
    strict: bool = False,
) -> tuple[ShardSet, RunSummary]:
    """Materialize the kept documents, preserving shard boundaries and order;
    returns the kept shards and the run's RunSummary, which `docprune filter`
    writes beside them with the decision it applied.

    Every document ingest yields must have a score in the doc_id -> score
    map (fail-fast join), and ingest must yield as many documents as the map
    holds scores; either mismatch raises CorpusError. The records ingest
    skips (empty text, or malformed unless `strict`) are counted and not
    written. Output shards reuse the input shard file names; a shard may
    shrink or empty, and its kept documents stream into its file. Shards run
    one after another in this process: per shard, filtering costs less than
    starting a worker process. A failed run leaves the kept shards it wrote;
    `docprune filter` discards them with its staging dir.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def filter_one(shard: Shard, docs: Iterator[Document], summary: RunSummary):
        def kept() -> Iterator[Document]:
            for doc in docs:
                if doc.id not in scores:
                    raise CorpusError(
                        f"join integrity: document {doc.id!r} in {shard.path.name} has no score"
                    )
                if decision.keeps(scores[doc.id]):
                    yield doc

        out_shard = write_shard_file(kept(), out_dir / shard.path.name, compress=shard.compressed)
        summary.output_documents = out_shard.record_count
        return out_shard

    total = RunSummary()
    out_shards = list(_map_shards(filter_one, shard_set, total, 1, strict))
    if total.input_documents != len(scores):
        raise CorpusError(
            f"score set/corpus mismatch: the corpus holds {total.input_documents} "
            f"documents, the score set {len(scores)} scores (a document was removed, "
            f"blanked or repeated after scoring?); re-run `docprune score` on this corpus"
        )
    if total.output_documents != decision.kept:
        raise CorpusError(
            f"decision/corpus mismatch: decision says keep {decision.kept}, filter kept "
            f"{total.output_documents} (was the decision computed on this score set?)"
        )
    return ShardSet(shards=out_shards), total
