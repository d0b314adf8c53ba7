"""Hashed n-gram logistic classifier: featurize, train, evaluate, serialize.

This is the cheap distillation target that stands in for a fine-tuned
language-model scorer behind the same contract: scores are sigmoid outputs in
(0, 1) and the feature dimension (2**hash_bits) is the capacity knob. The
model file format is versioned and byte-stable across save/load. Feature
batches store 8 bytes per feature (int32 index, float32 count) while weights
and every sum stay float64; counts are small integers, exact in float32, so
products and sums are the same bits as in float64. Each process hashes a
token once while its vocabulary fits a bounded table. numpy is imported
inside the functions that use it, so stages that never featurize (sample,
label, select, filter) start without its ~0.1 s import.

Training reads its features from a `FeatureStore`, an unnamed file in the
temp dir, one row block at a time, and keeps its best epoch's weights there
too, so its memory does not grow with the number of labeled examples.
"""

from __future__ import annotations

import array
import hashlib
import itertools
import json
import os
import random
import re
import struct
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .corpus import CorpusError, Snippet, atomic_open, unique_snippets
from .labeling import YES, QualityLabel

if TYPE_CHECKING:
    import numpy as np

EPS = 1e-7
MODEL_MAGIC = "docprune-model"
MODEL_FORMAT_VERSION = 3
# Longest model header line `load_model` reads (a real one is ~0.5 KB), so a
# file without a newline is rejected after this many bytes, not read whole.
MODEL_HEADER_MAX_BYTES = 1 << 16

# The token hash of a text without word tokens: that of the key "\x00no-tokens".
_EMPTY_TEXT_HASH = int.from_bytes(hashlib.blake2b(b"\x00no-tokens", digest_size=8).digest(), "big")
# Texts are featurized in batches of about this many characters (~11k tokens
# at 6 chars per token), for scoring and training alike; larger batches
# raise peak RSS.
FEATURIZE_BATCH_CHARS = 1 << 16
# Most tokens the process-wide token-hash table holds (~4 MB at this size;
# 2**16 tokens measured 7.8 MB with tracemalloc). A vocabulary that fits is
# hashed once per process.
_TOKEN_HASH_CAP = 1 << 15
# Rows per block in the forward pass and the SGD step, which bounds their temporaries.
ROW_BLOCK = 16
# The one distillation recipe (the paper varies the labeler and the
# featurizer's capacity, not this): hold out a stratified VAL_FRACTION of the
# examples, then run mini-batch SGD for at most EPOCHS epochs, stopping once
# PATIENCE epochs pass without a better validation F1.
VAL_FRACTION = 0.1
EPOCHS = 20
LEARNING_RATE = 0.5
BATCH_SIZE = 64
PATIENCE = 3
_TOKEN_HASHES: dict[str, bytes] = {}
_TOKEN_HASH_LOCK = threading.Lock()


class ModelFormatError(Exception):
    """Model file is corrupt, truncated, or of an unsupported version."""


class DegenerateLabelsError(ValueError):
    """Data too degenerate to use: training data of a single class or too
    small to validate, a from-labels keep-ratio from a degenerate labeler, an
    empty score set, or a corpus without a document to sample."""


@dataclass(frozen=True)
class FeaturizerConfig:
    """Hashed bag-of-n-grams settings. dim = 2**hash_bits."""

    ngram_orders: tuple[int, ...] = (1, 2, 3)
    hash_bits: int = 18

    def __post_init__(self):
        if not (8 <= self.hash_bits <= 26):
            raise ValueError("hash_bits must be in [8, 26]")
        if not self.ngram_orders or any(type(n) is not int or n < 1 for n in self.ngram_orders):
            raise ValueError("ngram_orders must be positive integers")
        if len(set(self.ngram_orders)) < len(self.ngram_orders):
            raise ValueError(f"ngram_orders repeats an order: {list(self.ngram_orders)}")
        object.__setattr__(self, "ngram_orders", tuple(self.ngram_orders))

    @property
    def dim(self) -> int:
        return 1 << self.hash_bits


_TOKEN_RE = re.compile(r"\w+")


def tokenize(text: str) -> list[str]:
    """The word tokens of a text, lowercased."""
    return _TOKEN_RE.findall(text.lower())


def _token_hashes(tokens: Sequence[str]) -> np.ndarray:
    """64-bit hash of each token: its 8-byte blake2b digest, big-endian.

    Digests are kept in `_TOKEN_HASHES`. When this call's new tokens would
    take it past `_TOKEN_HASH_CAP`, it is emptied and then holds only this
    call's tokens (none, if they alone pass the cap). The lock keeps the cap
    under concurrent calls.
    """
    import numpy as np

    with _TOKEN_HASH_LOCK:
        table = _TOKEN_HASHES
        # New tokens in first-occurrence order, the order their strings were
        # allocated in: with mostly new tokens, set order featurized ~5% slower.
        new = dict.fromkeys(itertools.filterfalse(table.__contains__, tokens))
        if len(table) + len(new) > _TOKEN_HASH_CAP:
            table.clear()
            new = dict.fromkeys(tokens)
            if len(new) > _TOKEN_HASH_CAP:
                table = {}
        table.update(zip(new, [hashlib.blake2b(t.encode("utf-8"), digest_size=8).digest() for t in new]))
        digests = b"".join(map(table.__getitem__, tokens))
    return np.frombuffer(digests, dtype=">u8").astype(np.uint64)


def _fmix64(h: np.ndarray) -> np.ndarray:
    """murmur3 finalizer, in place. Without it the low (masked) bits of an
    n-gram hash depend only on the low bits of its token hashes, so tokens
    sharing a unigram bucket would share a bucket in every n-gram they
    appear in."""
    import numpy as np

    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xC4CEB9FE1A85EC53)
    h ^= h >> np.uint64(33)
    return h


def _ngram_hashes(texts: Sequence[str], config: FeaturizerConfig) -> tuple[np.ndarray, np.ndarray]:
    """(row, 64-bit hash) of every n-gram occurrence in a batch of texts.

    Token hashes come from the process-wide table (`_token_hashes`); an
    order-n gram mixes its token hashes as h = h*M ^ tok, starting from
    h = n so that each order has its own seed, then goes through fmix64.
    A text without word tokens yields one fallback hash.
    """
    import numpy as np

    token_lists = [tokenize(text) for text in texts]
    lengths = np.fromiter(map(len, token_lists), dtype=np.int64, count=len(token_lists))
    tok = _token_hashes(list(itertools.chain.from_iterable(token_lists)))
    n_tokens = tok.shape[0]
    row_of_token = np.repeat(np.arange(len(texts), dtype=np.int64), lengths)
    # Tokens from each position to the end of its text, that position included.
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(n_tokens)

    rows = [np.flatnonzero(lengths == 0)]
    hashes = [np.full(rows[0].shape[0], _EMPTY_TEXT_HASH, dtype=np.uint64)]
    for order in config.ngram_orders:
        span = max(n_tokens - order + 1, 0)  # windows of the flat token array
        h = np.full(span, order, dtype=np.uint64)
        for k in range(order):
            h *= np.uint64(0x9E3779B97F4A7C15)
            h ^= tok[k : k + span]
        inside = left[:span] >= order  # windows that stay within one text
        rows.append(row_of_token[:span][inside])
        hashes.append(h[inside])
    return np.concatenate(rows), _fmix64(np.concatenate(hashes))


@dataclass(frozen=True)
class FeatureBatch:
    """CSR batch of hashed n-gram counts: row i is
    indices[offsets[i]:offsets[i+1]] (ascending) with their counts in values."""

    indices: np.ndarray  # int32: hash_bits <= 26
    values: np.ndarray  # float32: integer counts, exact below 2**24
    offsets: np.ndarray  # int64, len(rows) + 1

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    @property
    def lengths(self) -> np.ndarray:
        return self.offsets[1:] - self.offsets[:-1]

    def row(self, i: int) -> dict[int, int]:
        s, e = self.offsets[i], self.offsets[i + 1]
        return dict(zip(self.indices[s:e].tolist(), self.values[s:e].astype("int64").tolist()))

    def row_blocks(self) -> Iterator["FeatureBatch"]:
        """Every ROW_BLOCK rows, in order, as batches that view this one's arrays."""
        for s in range(0, len(self), ROW_BLOCK):
            offsets = self.offsets[s : s + ROW_BLOCK + 1]
            lo, hi = offsets[0], offsets[-1]
            yield FeatureBatch(self.indices[lo:hi], self.values[lo:hi], offsets - lo)


def featurize_batch(texts: Sequence[str], config: FeaturizerConfig) -> FeatureBatch:
    """Hashed bag of word n-grams for each text, as one CSR batch; collisions
    add counts."""
    import numpy as np

    rows, hashes = _ngram_hashes(texts, config)
    hashes &= np.uint64(config.dim - 1)
    cells = hashes.view(np.int64)  # masked hashes fit: the feature index
    rows *= config.dim
    cells += rows  # row-major cell id: row * dim + index
    del rows  # freed before np.unique copies the cells
    cells, counts = np.unique(cells, return_counts=True)
    offsets = np.searchsorted(cells, np.arange(len(texts) + 1) * config.dim)
    cells %= config.dim
    return FeatureBatch(
        indices=cells.astype(np.int32), values=counts.astype(np.float32), offsets=offsets
    )


def featurize_chunks(texts: Iterable[str], config: FeaturizerConfig) -> Iterator[FeatureBatch]:
    """featurize_batch over consecutive runs of about FEATURIZE_BATCH_CHARS
    characters, so memory stays bounded for any number of texts. Texts are
    read lazily: when a batch is yielded, exactly its texts have been read.
    A text's row does not depend on its batch."""
    chunk: list[str] = []
    chars = 0
    for text in texts:
        chunk.append(text)
        chars += len(text)
        if chars >= FEATURIZE_BATCH_CHARS:
            yield featurize_batch(chunk, config)
            chunk, chars = [], 0
    if chunk:
        yield featurize_batch(chunk, config)


def hash_counts(text: str, config: FeaturizerConfig) -> dict[int, int]:
    """Full 64-bit hashed n-gram counts of one text, before the mask;
    `project_counts` masks them into feature indices. One-text views of the
    batched path, like `featurize_text`: training and scoring use
    `featurize_chunks`, and only the benchmark tracer (`perfbench/tracer.py`)
    looks these up by name. ROADMAP item 1 deletes them."""
    import numpy as np

    _, hashes = _ngram_hashes([text], config)
    uniq, counts = np.unique(hashes, return_counts=True)
    return dict(zip(uniq.tolist(), counts.tolist()))


def project_counts(counts64: dict[int, int], hash_bits: int) -> dict[int, int]:
    mask = (1 << hash_bits) - 1
    feats: dict[int, int] = {}
    for h, c in counts64.items():
        idx = h & mask
        feats[idx] = feats.get(idx, 0) + c
    return feats


def featurize_text(text: str, config: FeaturizerConfig) -> dict[int, int]:
    return featurize_batch([text], config).row(0)


class FeatureStore:
    """Featurized rows, in the order they were added, in one temp file.

    Row r is its int32 indices followed by its float32 values, at byte
    8 * offsets[r]; only the int64 offsets stay in memory. Rows are read back
    with `os.preadv` a block at a time, so the features take page cache
    rather than the process's memory (a tmpfs temp dir still uses RAM). The
    file is created unlinked in `tempfile`'s dir (TMPDIR), so nothing is left
    behind however the process ends. Training also keeps its best epoch's
    weights in it, past the last row.
    """

    def __init__(self, featurizer: FeaturizerConfig):
        import tempfile  # only `train` and `ablate` build a store

        self.featurizer = featurizer
        self._file = tempfile.TemporaryFile()
        self._offsets = array.array("q", [0])

    def __enter__(self) -> "FeatureStore":
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def extend(self, texts: Iterable[str]) -> range:
        """Featurize the texts (`featurize_chunks`) and append their rows;
        returns the new rows' numbers."""
        start = len(self)
        for batch in featurize_chunks(texts, self.featurizer):
            bounds = batch.offsets.tolist()
            for s, e in zip(bounds, bounds[1:]):
                self._file.write(batch.indices[s:e])
                self._file.write(batch.values[s:e])
                self._offsets.append(self._offsets[-1] + e - s)
        self._file.flush()
        return range(start, len(self))

    def add(self, labels: Iterable[QualityLabel], snippets: Iterable[Snippet]) -> "Examples":
        """Join labels to their snippets: one example per label, in label
        order, with target 1 for Yes and 0 for No.

        Only the labeled snippets are featurized and appended, as the
        snippets stream by; only the labels' ids and targets are held, never
        a snippet's text. A snippet id that occurs twice raises
        DuplicateIdError and a label without a snippet CorpusError. A label
        that occurs twice is two examples of one stored row.
        """
        ids, targets = [], []
        for label in labels:
            ids.append(label.doc_id)
            targets.append(1 if label.label == YES else 0)
        row_of: dict[str, int | None] = dict.fromkeys(ids)
        rows = itertools.count(len(self))

        def texts() -> Iterator[str]:
            for snippet in unique_snippets(snippets):
                if snippet.doc_id in row_of:
                    row_of[snippet.doc_id] = next(rows)
                    yield snippet.text

        self.extend(texts())
        missing = next((i for i, row in row_of.items() if row is None), None)
        if missing is not None:
            raise CorpusError(f"label {missing!r} has no matching snippet")
        return Examples(self, [row_of[i] for i in ids], targets)

    def row_blocks(self, rows: Sequence[int]) -> Iterator[FeatureBatch]:
        """The given rows, in order, ROW_BLOCK at a time, each block read into
        new arrays, so that only one block's features are in memory at once."""
        import numpy as np

        at = self._offsets
        for start in range(0, len(rows), ROW_BLOCK):
            block = rows[start : start + ROW_BLOCK]
            offsets = np.cumsum([0] + [at[r + 1] - at[r] for r in block])
            indices = np.empty(offsets[-1], dtype=np.int32)
            values = np.empty(offsets[-1], dtype=np.float32)
            for r, s, e in zip(block, offsets.tolist(), offsets[1:].tolist()):
                self._read([indices[s:e], values[s:e]], 8 * at[r])
            yield FeatureBatch(indices, values, offsets)

    def put_weights(self, w: np.ndarray) -> None:
        """Write a weight vector past the last row, over the one put before."""
        view, pos = memoryview(w).cast("B"), 8 * self._offsets[-1]
        while view:
            n = os.pwrite(self._file.fileno(), view, pos)
            view, pos = view[n:], pos + n

    def get_weights(self, w: np.ndarray) -> None:
        """Read the weights last put into w."""
        self._read([w], 8 * self._offsets[-1])

    def _read(self, buffers: list, pos: int) -> None:
        want = sum(memoryview(b).nbytes for b in buffers)
        if want and os.preadv(self._file.fileno(), buffers, pos) != want:
            raise OSError(f"short read from the feature store at byte {pos}")

@dataclass(frozen=True)
class Examples:
    """Labeled rows of a FeatureStore, in order; a row may occur more than once."""

    store: FeatureStore
    rows: Sequence[int]
    targets: Sequence[int]  # 0/1, one per row

    def __len__(self) -> int:
        return len(self.rows)

    def take(self, positions: Iterable[int]) -> "Examples":
        positions = list(positions)
        return Examples(
            self.store, [self.rows[i] for i in positions], [self.targets[i] for i in positions]
        )

    def row_blocks(self) -> Iterator[FeatureBatch]:
        return self.store.row_blocks(self.rows)


def split_train_val(
    examples: Examples,
    val_fraction: float = VAL_FRACTION,
    seed: int = 0,
) -> tuple[Examples, Examples]:
    """Disjoint, exhaustive, seed-deterministic stratified split, each part in
    the examples' order. It reads only the targets."""
    if len(examples) < 10:
        raise DegenerateLabelsError(f"need at least 10 examples to split, got {len(examples)}")
    rng = random.Random(f"split:{seed}")
    val_idx: set[int] = set()
    for cls in (0, 1):
        idxs = [i for i, t in enumerate(examples.targets) if t == cls]
        rng.shuffle(idxs)
        k = int(round(val_fraction * len(idxs)))
        k = min(k, max(len(idxs) - 1, 0))
        val_idx.update(idxs[:k])
    everything = range(len(examples))
    return (
        examples.take(i for i in everything if i not in val_idx),
        examples.take(i for i in everything if i in val_idx),
    )


def f1(preds: Sequence[int], gold: Sequence[int]) -> float:
    """Positive-class F1; 0.0 by convention when precision + recall is 0."""
    if len(preds) != len(gold):
        raise ValueError(f"length mismatch: {len(preds)} vs {len(gold)}")
    if not preds:
        raise ValueError("empty prediction list")
    tp = sum(1 for p, g in zip(preds, gold) if p == 1 and g == 1)
    fp = sum(1 for p, g in zip(preds, gold) if p == 1 and g == 0)
    fn = sum(1 for p, g in zip(preds, gold) if p == 0 and g == 1)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _forward(batch: FeatureBatch | Examples, w: np.ndarray, b: float) -> tuple[np.ndarray, ...]:
    """Per row, the logit z = w . x + b and sigmoid(z) with z clipped to [-60, 60].
    Rows are summed a block at a time, each over its own products alone, so
    the block size changes no bit."""
    import numpy as np

    z = np.zeros(len(batch), dtype=np.float64)
    for s, block in zip(itertools.count(0, ROW_BLOCK), batch.row_blocks()):
        nonempty = block.lengths > 0
        prods = w[block.indices]
        prods *= block.values
        z[s : s + len(block)][nonempty] = np.add.reduceat(prods, block.offsets[:-1][nonempty])
        del block, prods  # freed before the next block is gathered
    z += b
    return z, 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


@dataclass
class QualityClassifier:
    """Trained quality scorer: sigmoid(w . features + bias), clamped into (0, 1)."""

    featurizer: FeaturizerConfig
    weights: np.ndarray
    bias: float
    training_meta: dict

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(asdict(self.featurizer), sort_keys=True).encode())
        h.update(self.weights.astype("<f8", copy=False))  # hashed in place, no copy
        h.update(struct.pack("<d", self.bias))
        return h.hexdigest()[:16]


def class_weight_map(targets: Iterable[int]) -> dict[int, float]:
    """Inverse-frequency class weights (each class contributes half the loss mass)."""
    targets = list(targets)
    n_pos = sum(targets)
    n_neg = len(targets) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("degenerate label distribution: one class only")
    n = len(targets)
    return {0: n / (2.0 * n_neg), 1: n / (2.0 * n_pos)}


def loss_and_grad(
    batch: FeatureBatch | Examples,
    targets: np.ndarray,
    sample_weights: np.ndarray,
    w: np.ndarray,
    b: float,
) -> tuple[float, np.ndarray, float]:
    """Mean weighted logistic loss of a batch, and its gradient.

    The weight gradient is sum_i g[i] * x_i over the batch's rows x_i: the
    middle item is g, one coefficient per row (a feature index may occur in
    several rows); the last item is the bias gradient.
    """
    import numpy as np

    z, p = _forward(batch, w, b)
    # log(1 + e^z) - y*z, computed stably
    loss = float(np.mean(sample_weights * (np.logaddexp(0.0, z) - targets * z)))
    g = sample_weights * (p - targets) / len(batch)
    return loss, g, float(g.sum())


def train_classifier(examples: Examples, seed: int = 0) -> QualityClassifier:
    """Split the examples at VAL_FRACTION and `seed` (`split_train_val`), then
    minimize logistic loss by seeded mini-batch SGD; early-stop on val F1.
    The model's featurizer is the one the examples' `FeatureStore` used.

    Each minibatch's rows, and the validation rows, are read from the
    examples' `FeatureStore` a block at a time. The weights of the best epoch
    so far are kept in the store's file, and read back into the one weight
    vector at the end. Deterministic for a fixed seed (single worker). The
    returned model carries the best-epoch weights; F1 ties resolve toward the
    earlier epoch.
    """
    import numpy as np

    train, val = split_train_val(examples, VAL_FRACTION, seed)
    if set(train.targets) != {0, 1}:
        raise DegenerateLabelsError("degenerate label distribution: one class only")
    if not val:  # e.g. 5 Yes and 5 No: each class's 0.5 validation share rounds to 0
        yes = sum(train.targets)
        raise DegenerateLabelsError(
            f"too few labels to validate: {yes} Yes and {len(train) - yes} No labels "
            f"leave no validation example; label more documents"
        )

    cw = class_weight_map(train.targets)
    y = np.array(train.targets, dtype=np.float64)
    sample_weights = np.array([cw[t] for t in train.targets], dtype=np.float64)
    gold_val = list(val.targets)

    featurizer = examples.store.featurizer
    w = np.zeros(featurizer.dim, dtype=np.float64)
    b = 0.0
    rng = random.Random(f"train:{seed}")
    order = list(range(len(train)))

    best_f1 = -1.0
    best_epoch = -1
    best_b = b
    epochs_run = 0

    for epoch in range(EPOCHS):
        rng.shuffle(order)
        for start in range(0, len(order), BATCH_SIZE):
            rows = order[start : start + BATCH_SIZE]
            batch = train.take(rows)
            _, g, grad_b = loss_and_grad(batch, y[rows], sample_weights[rows], w, b)
            # w -= lr * g[i] * x_i once every logit is taken, in feature order
            for s, block in zip(itertools.count(0, ROW_BLOCK), batch.row_blocks()):
                step = np.repeat(g[s : s + len(block)], block.lengths)
                step *= block.values
                step *= LEARNING_RATE
                np.subtract.at(w, block.indices, step)
                del block, step
            b -= LEARNING_RATE * grad_b
        epochs_run += 1
        preds = (_forward(val, w, b)[1] > 0.5).astype(int).tolist()
        val_f1 = f1(preds, gold_val)
        if val_f1 > best_f1:
            best_f1 = val_f1
            best_epoch = epoch
            train.store.put_weights(w)
            best_b = b
        elif epoch - best_epoch >= PATIENCE:
            break
    train.store.get_weights(w)

    meta = {
        "seed": seed,
        "epochs": epochs_run,
        "best_epoch": best_epoch + 1,
        "learning_rate": LEARNING_RATE,
        "batch_size": BATCH_SIZE,
        "class_weights": {"0": cw[0], "1": cw[1]},
        "train_size": len(train),
        "val_size": len(val),
        "val_f1": best_f1,
    }
    return QualityClassifier(featurizer=featurizer, weights=w, bias=best_b, training_meta=meta)


def score_batch(classifier: QualityClassifier, batch: FeatureBatch) -> np.ndarray:
    """Quality score in (0, 1) per row: sigmoid of the sparse dot product,
    clamped to [EPS, 1 - EPS] so the open interval holds in float arithmetic."""
    _, p = _forward(batch, classifier.weights, classifier.bias)
    return p.clip(EPS, 1.0 - EPS)


def score(classifier: QualityClassifier, snippet: Snippet) -> float:
    """Score of one snippet: a one-row score_batch."""
    batch = featurize_batch([snippet.text], classifier.featurizer)
    return float(score_batch(classifier, batch)[0])


def save_model(classifier: QualityClassifier, path: str | Path) -> None:
    """Write the versioned model container: one JSON header line + raw weights.

    The byte layout is fully deterministic, so save(load(save(m))) is
    byte-identical. The weights are hashed and written in place.
    """
    weights = classifier.weights.astype("<f8", copy=False)
    header = {
        "magic": MODEL_MAGIC,
        "format_version": MODEL_FORMAT_VERSION,
        "featurizer": asdict(classifier.featurizer),
        "bias": classifier.bias,
        "training_meta": classifier.training_meta,
        "weights_len": int(classifier.weights.shape[0]),
        "weights_dtype": "<f8",
        "weights_sha256": hashlib.sha256(weights).hexdigest(),
    }
    with atomic_open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(memoryview(weights).cast("B"))


def load_model(path: str | Path) -> QualityClassifier:
    """Load a model container; reject unknown versions and corrupt files."""
    import numpy as np

    path = Path(path)
    with open(path, "rb") as fh:
        header_line = fh.readline(MODEL_HEADER_MAX_BYTES + 1)
        if len(header_line) > MODEL_HEADER_MAX_BYTES:
            raise ModelFormatError(
                f"not a model file: {path} (no header line within {MODEL_HEADER_MAX_BYTES} bytes)"
            )
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelFormatError(f"not a model file: {path}") from exc
        if not isinstance(header, dict) or header.get("magic") != MODEL_MAGIC:
            raise ModelFormatError(f"not a model file: {path}")
        version = header.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ModelFormatError(
                f"unsupported model format_version {version!r} in {path}: this build "
                f"reads only format_version {MODEL_FORMAT_VERSION} (version 1 hashed "
                f"features differently, version 2 has another featurizer header); "
                f"retrain the model with `docprune train`"
            )
        try:
            featurizer = FeaturizerConfig(**header["featurizer"])
            if header["weights_len"] != featurizer.dim:
                raise ValueError(f"weights_len {header['weights_len']!r} is not 2**hash_bits")
            checksum, meta = header["weights_sha256"], header["training_meta"]
            bias = float(header["bias"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed model header in {path}: {exc!r}") from exc
        weights = np.empty(featurizer.dim, dtype="<f8")
        if fh.readinto(weights) < weights.nbytes or fh.read(1):
            raise ModelFormatError(f"weight block is not {weights.nbytes} bytes: truncated or padded")
    if hashlib.sha256(weights).hexdigest() != checksum:
        raise ModelFormatError("weight checksum mismatch: file is corrupt")
    return QualityClassifier(
        featurizer=featurizer,
        weights=weights,
        bias=bias,
        training_meta=meta,
    )
