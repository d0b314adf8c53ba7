"""Sharded document corpus I/O, and the stage-file layer: every file a stage
writes goes through `atomic_open` into the staging dir of `staged_output`,
which publishes a command's outputs only when it finishes, and stage files are
read back through `read_records`/`read_json`, which name the file:line of a
bad record.

A corpus is a directory of newline-delimited JSON shards. Every record needs
a "text" field; "id" and "meta" are optional. A ".gz" suffix marks a
gzip-compressed shard. Shards are always processed in lexicographic path
order so that every seeded operation downstream sees one canonical stream.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import os
import random
import shutil
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, TypeVar

T = TypeVar("T")

FORMAT_VERSION = 1


class CorpusError(Exception):
    """Unrecoverable corpus failure: unreadable shard, or a bad record in strict mode."""


class DuplicateIdError(ValueError):
    """A document id occurs more than once in a score set or a snippets file."""


@dataclass
class Document:
    """One corpus record."""

    id: str
    text: str
    meta: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Shard:
    """Descriptor for a single shard file."""

    path: Path
    compressed: bool
    record_count: int | None = None


@dataclass
class ShardSet:
    """An ordered collection of shard files (lexicographic by path)."""

    shards: list[Shard]

    @classmethod
    def from_dir(cls, root: str | Path) -> "ShardSet":
        root = Path(root)
        if not root.is_dir():
            raise CorpusError(f"corpus directory not found: {root}")
        paths = sorted([*root.glob("*.jsonl"), *root.glob("*.jsonl.gz")], key=str)
        if not paths:
            raise CorpusError(f"no corpus shards (*.jsonl or *.jsonl.gz) in {root}")
        return cls(shards=[Shard(path=p, compressed=p.suffix == ".gz") for p in paths])


@dataclass
class RunSummary:
    """The record of one pass over corpus shards, which `sample`, `score` and
    `filter` write: the documents ingest yielded, the records it skipped, the
    documents the stage wrote, and its wall and CPU seconds. A stage total
    lists each shard's own record in `per_shard` (see `add`), and its
    `cpu_seconds` is their sum, so `cpu_seconds / seconds` is its parallelism."""

    input_documents: int = 0
    empty_text: int = 0  # well-formed records whose text is ""
    malformed: int = 0
    output_documents: int = 0
    shards: int = 0
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    per_shard: list[dict] = field(default_factory=list)

    def add(self, shard: str, part: "RunSummary") -> None:
        """Sum the record of one shard, named `shard`, into this total and list
        it in `per_shard`; the total's `seconds` stays the stage's own."""
        entry = {"shard": shard, "seconds": part.seconds}
        for name in ("input_documents", "empty_text", "malformed", "output_documents",
                     "cpu_seconds"):
            entry[name] = getattr(part, name)
            setattr(self, name, getattr(self, name) + entry[name])
        self.shards += 1
        self.per_shard.append(entry)


@dataclass(frozen=True)
class Snippet:
    """A contiguous character-boundary window of one document's text."""

    doc_id: str
    text: str
    char_start: int
    char_end: int
    approx_token_budget: int

    def __post_init__(self):
        if not self.text:
            raise ValueError(f"empty snippet: {self.doc_id!r}")


def unique_snippets(snippets: Iterable[Snippet]) -> Iterator[Snippet]:
    """The snippets, in order; a doc id that occurs twice raises DuplicateIdError."""
    seen: set[str] = set()
    for snippet in snippets:
        if snippet.doc_id in seen:
            raise DuplicateIdError(
                f"snippet id {snippet.doc_id!r} occurs more than once; "
                f"document ids must be unique in the snippets file"
            )
        seen.add(snippet.doc_id)
        yield snippet


def _open_shard(shard: Shard) -> IO[bytes]:
    if shard.compressed:
        return gzip.open(shard.path, "rb")
    return open(shard.path, "rb")


def _parse_record(raw: bytes, shard_name: str, index: int) -> Document:
    line = raw.decode("utf-8")  # strict: bad UTF-8 rejects the record outright
    rec = json.loads(line)
    if not isinstance(rec, dict):
        raise ValueError("record is not an object")
    text = rec.get("text")
    if not isinstance(text, str):
        raise ValueError('record has no "text" string')
    doc_id = rec.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        doc_id = f"{shard_name}#{index}"
    meta = rec.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError('record "meta" is not an object')
    meta = {str(k): str(v) for k, v in meta.items()}
    for value in (text, doc_id, *meta, *meta.values()):
        if not value.isascii():  # a lone surrogate ("\ud800") could not be written back
            value.encode("utf-8")
    return Document(id=doc_id, text=text, meta=meta)


def ingest_shards(
    shard_set: ShardSet,
    *,
    strict: bool = False,
    summary: RunSummary | None = None,
) -> Iterator[Document]:
    """Yield Documents in shard order, then record order within each shard.

    This decides which records every stage sees as documents. Calling again
    on the same ShardSet yields an identical sequence. Records that fail
    UTF-8 decoding or JSON parsing, that lack a "text" string, or whose
    text, id or meta holds a lone surrogate (not UTF-8 encodable), are
    skipped and counted in `summary` as malformed (promoted to CorpusError
    when strict=True); records whose text is empty are skipped and counted
    as empty_text. Missing ids are synthesized as "<shard-name>#<record-index>".
    """
    if summary is None:
        summary = RunSummary()
    summary.shards = len(shard_set.shards)
    for shard in shard_set.shards:
        name = shard.path.name
        try:  # a failed open or read, or a cut gzip stream
            with _open_shard(shard) as fh:
                for index, raw in enumerate(raw for raw in fh if raw.strip()):
                    try:
                        doc = _parse_record(raw, name, index)
                    except (UnicodeDecodeError, ValueError) as exc:
                        summary.malformed += 1
                        if strict:
                            raise CorpusError(f"malformed record {name}#{index}: {exc}") from exc
                        continue
                    if not doc.text:
                        summary.empty_text += 1
                        continue
                    summary.input_documents += 1
                    yield doc
        except (OSError, EOFError) as exc:
            raise CorpusError(f"unreadable shard {shard.path}: {exc}") from exc


def reservoir_sample(docs: Iterable[Document], n: int, seed: int) -> list[Document]:
    """Uniform sample of up to n items from a stream (Algorithm R).

    Every stream element has inclusion probability n/N; a fixed seed gives a
    fixed sample.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    rng = random.Random(seed)
    sample: list[Document] = []
    for i, doc in enumerate(docs):
        if i < n:
            sample.append(doc)
        else:
            j = rng.randint(0, i)
            if j < n:
                sample[j] = doc
    return sample


# Every snippet is the middle window of this many characters of its document:
# ~1500 tokens at ~4 characters per token, the paper's labeled snippet.
SNIPPET_TOKENS = 1500
SNIPPET_CHARS = 4 * SNIPPET_TOKENS


def extract_snippet(doc: Document) -> Snippet:
    """The middle SNIPPET_CHARS characters of the text (all of a shorter
    text). `sample` and `score` both slice this window, so a model scores the
    window it was trained on. Python string indices are code points, so the
    slice can never land inside a character.
    """
    window = min(len(doc.text), SNIPPET_CHARS)
    start = (len(doc.text) - window) // 2
    end = start + window
    return Snippet(
        doc_id=doc.id,
        text=doc.text[start:end],
        char_start=start,
        char_end=end,
        approx_token_budget=SNIPPET_TOKENS,
    )


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "w", compress: bool = False) -> Iterator[IO]:
    """Open `path` for writing ("w" text, "wb" binary; compress gzips binary)
    through the temp file ".<name>.<random>.tmp" beside it, which no shard or
    score glob matches. On success `os.replace` moves it into place; on any
    exception it is removed and `path` keeps its old bytes. No fsync: a crash
    leaves no partial file, but power-loss durability is not promised."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    text = "b" not in mode
    try:
        with open(tmp, "x" if text else "xb", encoding="utf-8" if text else None) as fh:
            if compress:  # the gzip header names `path`, not the temp file, and no time
                with gzip.GzipFile(filename=str(path), mode="wb", fileobj=fh, mtime=0) as gz:
                    yield gz
            else:
                yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextlib.contextmanager
def staged_output(out: str | Path) -> Iterator[Path]:
    """The one place a command's outputs are published or discarded. The block
    writes into the hidden staging dir ".<name>.<random>.tmp", inside `out` if
    it exists, else in its nearest existing ancestor (one filesystem for the
    renames; no shard, score or benchmark glob matches it). When the block
    finishes, each staged file is renamed into `out`; when it raises, the dir
    is removed and `out` is as it was. A killed run leaves only the dir."""
    out = Path(out)
    home = next(p for p in (out, *out.parents) if p.exists())
    if not home.is_dir():  # `out` is or lies under a file: refuse before the block runs
        raise CorpusError(f"output dir {out} cannot be created: {home} is not a directory")
    stage = home / f".{out.name}.{os.urandom(4).hex()}.tmp"
    stage.mkdir()
    try:
        yield stage
        out.mkdir(parents=True, exist_ok=True)
        for path in stage.iterdir():
            os.replace(path, out / path.name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


_JSONL = json.JSONEncoder(ensure_ascii=False, sort_keys=True)  # built once, not per line


def _plain(record) -> dict:
    return asdict(record) if is_dataclass(record) else record


def write_jsonl(path: str | Path, records: Iterable, compress: bool = False) -> int:
    """Atomically write dicts or dataclasses, one JSON object per line (UTF-8,
    sorted keys); returns the record count."""
    count = 0
    with atomic_open(path, "wb", compress=compress) as fh:
        for count, rec in enumerate(records, 1):
            fh.write(_JSONL.encode(_plain(rec)).encode())
            fh.write(b"\n")
    return count


def write_json(path: str | Path, obj) -> None:
    """Atomically write one dict or dataclass as indented JSON with sorted keys."""
    with atomic_open(path, "w") as fh:
        fh.write(json.dumps(_plain(obj), indent=2, sort_keys=True))


def _parse(raw: bytes, path: Path, line: int) -> dict:
    """The JSON object in `raw`, which starts at `line` of `path`."""
    try:
        rec = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line += raw.count(b"\n", 0, exc.start)
        raise CorpusError(f"{path}:{line}: bad UTF-8: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}:{line + exc.lineno - 1}: bad JSON: {exc.msg}") from exc
    if not isinstance(rec, dict):
        raise CorpusError(f"{path}:{line}: record is not a JSON object")
    return rec


_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool}


@functools.lru_cache(maxsize=None)
def _schema(cls: type) -> tuple[frozenset, frozenset, tuple]:
    """(field names, required names, (name, JSON type) checks) of a dataclass."""
    fs = fields(cls)
    required = {f.name for f in fs if f.default is MISSING and f.default_factory is MISSING}
    checks = tuple((f.name, _JSON_TYPES[f.type]) for f in fs if f.type in _JSON_TYPES)
    return frozenset(f.name for f in fs), frozenset(required), checks


def _as_record(cls: type[T], rec: dict, path: Path, line: int) -> T:
    names, required, checks = _schema(cls)
    if not required <= rec.keys() <= names:
        raise CorpusError(
            f"{path}:{line}: not a {cls.__name__} record (missing fields "
            f"{sorted(required - rec.keys())}, unexpected fields {sorted(rec.keys() - names)})"
        )
    for name, kind in checks:
        if name in rec and not isinstance(rec[name], kind):
            raise CorpusError(f"{path}:{line}: {cls.__name__} field {name!r} has the wrong type")
    try:
        return cls(**rec)
    except (TypeError, ValueError) as exc:
        raise CorpusError(f"{path}:{line}: {exc}") from exc


def read_records(path: str | Path, cls: type[T], header: type | None = None) -> Iterator:
    """Lazily read a JSONL file as `cls` dataclasses, skipping blank lines. A
    line that is not UTF-8 JSON of an object, a missing or unexpected field,
    or a value `cls` rejects raises CorpusError naming the file and line.
    With `header`, the first record is read (and yielded) as that dataclass
    instead."""
    path = Path(path)
    with open(path, "rb") as fh:
        for n, raw in enumerate(fh, 1):
            if raw.strip():
                yield _as_record(header or cls, _parse(raw, path, n), path, n)
                header = None


def read_json(path: str | Path, cls: type[T]) -> T:
    """Read a JSON file written by `write_json` back as `cls`, validated as
    `read_records` validates a record."""
    path = Path(path)
    return _as_record(cls, _parse(path.read_bytes(), path, 1), path, 1)


def write_shard_file(docs: Iterable[Document], path: str | Path, *, compress: bool = False) -> Shard:
    """Write one shard file (used by write_shards and by corpus filtering)."""
    records = ({"id": d.id, "text": d.text, "meta": d.meta} for d in docs)
    count = write_jsonl(path, records, compress)
    return Shard(path=Path(path), compressed=compress, record_count=count)


def write_shards(
    docs: Iterable[Document],
    out_dir: str | Path,
    records_per_shard: int,
    *,
    compress: bool = False,
) -> ShardSet:
    """Write a document stream into fixed-size shards plus a manifest.

    Round-trip property: ingest_shards(write_shards(S)) reproduces every
    (id, text, meta) whose text is not empty. An empty stream yields a valid
    empty ShardSet.
    """
    if records_per_shard < 1:
        raise ValueError("records_per_shard must be at least 1")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    shards: list[Shard] = []
    buffer: list[Document] = []
    suffix = ".jsonl.gz" if compress else ".jsonl"

    def flush() -> None:
        path = out_dir / f"shard-{len(shards):05d}{suffix}"
        try:
            shards.append(write_shard_file(buffer, path, compress=compress))
        except OSError as exc:
            note = {
                "status": "failed",
                "error": str(exc),
                "partial_shards": [s.path.name for s in shards],
                "note": "partial output; clean up before reuse",
            }
            with contextlib.suppress(OSError):
                write_json(out_dir / "manifest.json", note)
            raise CorpusError(f"write failed for {path}: {exc}") from exc
        buffer.clear()

    for doc in docs:
        buffer.append(doc)
        if len(buffer) == records_per_shard:
            flush()
    if buffer:
        flush()

    write_json(out_dir / "manifest.json", {
        "status": "complete",
        "format_version": FORMAT_VERSION,
        "total_records": sum(s.record_count or 0 for s in shards),
        "shards": [
            {"path": s.path.name, "records": s.record_count, "compressed": s.compressed}
            for s in shards
        ],
    })
    return ShardSet(shards=shards)
