"""Hashed n-gram logistic classifier: featurize, train, evaluate, serialize.

This is the cheap distillation target that stands in for a fine-tuned
language-model scorer behind the same contract: scores are sigmoid outputs in
(0, 1) and the feature dimension (2**hash_bits) is the capacity knob. The
model file format is versioned and byte-stable across save/load.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import re
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Snippet, atomic_open

EPS = 1e-7
MODEL_MAGIC = "docprune-model"
MODEL_FORMAT_VERSION = 2

_EMPTY_TEXT_KEY = "\x00no-tokens"
# Texts are featurized in batches of about this many characters (~11k tokens
# at 6 chars per token), for scoring and training alike. Each batch hashes
# its distinct tokens anew, so larger batches hash less but raise peak RSS.
FEATURIZE_BATCH_CHARS = 1 << 16


class ModelFormatError(Exception):
    """Model file is corrupt, truncated, or of an unsupported version."""


class DegenerateLabelsError(ValueError):
    """Labels too one-sided to use: training data of a single class, or a
    from-labels keep-ratio from a degenerate labeler."""


@dataclass(frozen=True)
class FeaturizerConfig:
    """Hashed bag-of-n-grams settings. dim = 2**hash_bits."""

    ngram_orders: tuple[int, ...] = (1, 2, 3)
    hash_bits: int = 18
    lowercase: bool = True
    token_pattern: str = r"\w+"

    def __post_init__(self):
        if not (8 <= self.hash_bits <= 26):
            raise ValueError("hash_bits must be in [8, 26]")
        if not self.ngram_orders or any(n < 1 for n in self.ngram_orders):
            raise ValueError("ngram_orders must be positive integers")
        object.__setattr__(self, "ngram_orders", tuple(self.ngram_orders))

    @property
    def dim(self) -> int:
        return 1 << self.hash_bits


@dataclass
class LabeledText:
    """A training instance: a snippet's text and its 0/1 target."""

    doc_id: str
    text: str
    target: int


_TOKEN_RE_CACHE: dict[str, re.Pattern] = {}


def tokenize(text: str, config: FeaturizerConfig) -> list[str]:
    pattern = _TOKEN_RE_CACHE.get(config.token_pattern)
    if pattern is None:
        pattern = re.compile(config.token_pattern)
        _TOKEN_RE_CACHE[config.token_pattern] = pattern
    if config.lowercase:
        text = text.lower()
    return pattern.findall(text)


def _token_hashes(tokens: Sequence[str]) -> np.ndarray:
    """64-bit hash of each token: its 8-byte blake2b digest, big-endian."""
    digests = b"".join(hashlib.blake2b(t.encode("utf-8"), digest_size=8).digest() for t in tokens)
    return np.frombuffer(digests, dtype=">u8").astype(np.uint64)


_MIX = np.uint64(0x9E3779B97F4A7C15)
_FMIX_C1 = np.uint64(0xFF51AFD7ED558CCD)
_FMIX_C2 = np.uint64(0xC4CEB9FE1A85EC53)
_SHIFT33 = np.uint64(33)
_EMPTY_TEXT_HASH = _token_hashes([_EMPTY_TEXT_KEY])[0]


def _fmix64(h: np.ndarray) -> np.ndarray:
    """murmur3 finalizer, in place. Without it the low (masked) bits of an
    n-gram hash depend only on the low bits of its token hashes, so tokens
    sharing a unigram bucket would share a bucket in every n-gram they
    appear in."""
    h ^= h >> _SHIFT33
    h *= _FMIX_C1
    h ^= h >> _SHIFT33
    h *= _FMIX_C2
    h ^= h >> _SHIFT33
    return h


def _ngram_hashes(texts: Sequence[str], config: FeaturizerConfig) -> tuple[np.ndarray, np.ndarray]:
    """(row, 64-bit hash) of every n-gram occurrence in a batch of texts.

    Each distinct token of the batch is hashed once (`_token_hashes`); an
    order-n gram mixes its token hashes as h = h*M ^ tok, starting from
    h = n so that each order has its own seed, then goes through fmix64.
    A text without word tokens yields one fallback hash.
    """
    token_lists = [tokenize(text, config) for text in texts]
    lengths = np.fromiter(map(len, token_lists), dtype=np.int64, count=len(token_lists))
    flat = list(itertools.chain.from_iterable(token_lists))
    distinct = {t: i for i, t in enumerate(dict.fromkeys(flat))}
    positions = np.fromiter(map(distinct.__getitem__, flat), dtype=np.int64, count=len(flat))
    tok = _token_hashes(list(distinct))[positions]
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
            h *= _MIX
            h ^= tok[k : k + span]
        inside = left[:span] >= order  # windows that stay within one text
        rows.append(row_of_token[:span][inside])
        hashes.append(h[inside])
    return np.concatenate(rows), _fmix64(np.concatenate(hashes))


@dataclass(frozen=True)
class FeatureBatch:
    """CSR batch of hashed n-gram counts: row i is
    indices[offsets[i]:offsets[i+1]] (ascending) with their counts in values."""

    indices: np.ndarray  # int64
    values: np.ndarray  # float64
    offsets: np.ndarray  # int64, len(rows) + 1

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def row(self, i: int) -> dict[int, int]:
        s, e = self.offsets[i], self.offsets[i + 1]
        return dict(zip(self.indices[s:e].tolist(), self.values[s:e].astype(np.int64).tolist()))

    def take(self, rows: np.ndarray) -> "FeatureBatch":
        """The sub-batch of the given rows, in the given order."""
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        offsets = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        gather = np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])
        return FeatureBatch(self.indices[gather], self.values[gather], offsets)

    @staticmethod
    def concat(batches: Sequence["FeatureBatch"]) -> "FeatureBatch":
        """The rows of every batch, in order, as one batch."""
        starts = np.cumsum([0] + [b.offsets[-1] for b in batches[:-1]])
        return FeatureBatch(
            np.concatenate([b.indices for b in batches]),
            np.concatenate([b.values for b in batches]),
            np.concatenate([[0]] + [b.offsets[1:] + s for b, s in zip(batches, starts)]),
        )


def featurize_batch(texts: Sequence[str], config: FeaturizerConfig) -> FeatureBatch:
    """Hashed bag of word n-grams for each text, as one CSR batch; collisions
    add counts."""
    rows, hashes = _ngram_hashes(texts, config)
    hashes &= np.uint64(config.dim - 1)
    cells = hashes.view(np.int64)  # masked hashes fit: the feature index
    rows *= config.dim
    cells += rows  # row-major cell id: row * dim + index
    del rows  # freed before np.unique copies the cells
    cells, counts = np.unique(cells, return_counts=True)
    offsets = np.searchsorted(cells, np.arange(len(texts) + 1) * config.dim)
    cells %= config.dim
    return FeatureBatch(indices=cells, values=counts.astype(np.float64), offsets=offsets)


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
    batched path, like `featurize_text`, kept for callers that look them up
    by name; training and scoring use `featurize_chunks`."""
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


def split_train_val(
    examples: Sequence[LabeledText],
    val_fraction: float = 0.1,
    seed: int = 0,
) -> tuple[list[LabeledText], list[LabeledText]]:
    """Disjoint, exhaustive, seed-deterministic stratified split."""
    if not 0 < val_fraction < 1:
        raise ValueError("val_fraction must be in (0, 1)")
    if len(examples) < 10:
        raise ValueError("need at least 10 examples to split")
    rng = random.Random(f"split:{seed}")
    val_idx: set[int] = set()
    for cls in (0, 1):
        idxs = [i for i, e in enumerate(examples) if e.target == cls]
        rng.shuffle(idxs)
        k = int(round(val_fraction * len(idxs)))
        k = min(k, max(len(idxs) - 1, 0))
        val_idx.update(idxs[:k])
    train = [e for i, e in enumerate(examples) if i not in val_idx]
    val = [e for i, e in enumerate(examples) if i in val_idx]
    return train, val


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


def _forward(batch: FeatureBatch, w: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the logit z = w . x + b and sigmoid(z) with z clipped to [-60, 60]."""
    z = np.zeros(len(batch), dtype=np.float64)
    nonempty = batch.lengths > 0
    if nonempty.any():
        prods = w[batch.indices] * batch.values
        z[nonempty] = np.add.reduceat(prods, batch.offsets[:-1][nonempty])
    z += b
    return z, 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


@dataclass
class TrainConfig:
    """Mini-batch SGD settings; single-worker by contract for determinism."""

    featurizer: FeaturizerConfig = field(default_factory=FeaturizerConfig)
    epochs: int = 20
    learning_rate: float = 0.5
    batch_size: int = 64
    seed: int = 0
    class_weighting: bool = True
    patience: int = 3


@dataclass
class QualityClassifier:
    """Trained quality scorer: sigmoid(w . features + bias), clamped into (0, 1)."""

    featurizer: FeaturizerConfig
    weights: np.ndarray
    bias: float
    training_meta: dict
    format_version: int = MODEL_FORMAT_VERSION

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(json.dumps(asdict(self.featurizer), sort_keys=True).encode())
        h.update(np.ascontiguousarray(self.weights, dtype="<f8").tobytes())
        h.update(struct.pack("<d", self.bias))
        return h.hexdigest()[:16]


def class_weight_map(targets: Iterable[int], enabled: bool = True) -> dict[int, float]:
    """Inverse-frequency class weights (each class contributes half the loss mass)."""
    targets = list(targets)
    n_pos = sum(targets)
    n_neg = len(targets) - n_pos
    if not enabled:
        return {0: 1.0, 1: 1.0}
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabelsError("degenerate label distribution: one class only")
    n = len(targets)
    return {0: n / (2.0 * n_neg), 1: n / (2.0 * n_pos)}


def loss_and_grad(
    batch: FeatureBatch,
    targets: np.ndarray,
    sample_weights: np.ndarray,
    w: np.ndarray,
    b: float,
) -> tuple[float, np.ndarray, float]:
    """Mean weighted logistic loss of a batch, and its gradient.

    The weight gradient is in the batch's sparse layout, one value per stored
    feature (a feature index may repeat across rows); the last item is the
    bias gradient.
    """
    z, p = _forward(batch, w, b)
    # log(1 + e^z) - y*z, computed stably
    loss = float(np.mean(sample_weights * (np.logaddexp(0.0, z) - targets * z)))
    g = sample_weights * (p - targets) / len(batch)
    return loss, np.repeat(g, batch.lengths) * batch.values, float(g.sum())


def train_classifier(
    train: Sequence[LabeledText],
    val: Sequence[LabeledText],
    config: TrainConfig,
) -> QualityClassifier:
    """Minimize logistic loss by seeded mini-batch SGD; early-stop on val F1.

    Texts are featurized as scoring does (`featurize_chunks`). Deterministic
    for a fixed seed (single worker). The returned model carries the
    best-epoch weights; F1 ties resolve toward the earlier epoch.
    """
    if not train:
        raise DegenerateLabelsError("degenerate label distribution: empty training set")
    targets = {e.target for e in train}
    if targets != {0, 1}:
        raise DegenerateLabelsError("degenerate label distribution: one class only")
    if not val:
        raise ValueError("validation set is empty")

    def featurized(examples: Sequence[LabeledText]) -> FeatureBatch:
        texts = (e.text for e in examples)
        return FeatureBatch.concat(list(featurize_chunks(texts, config.featurizer)))

    cw = class_weight_map([e.target for e in train], config.class_weighting)
    features, val_features = featurized(train), featurized(val)
    y = np.array([e.target for e in train], dtype=np.float64)
    sample_weights = np.array([cw[e.target] for e in train], dtype=np.float64)
    gold_val = [e.target for e in val]

    w = np.zeros(config.featurizer.dim, dtype=np.float64)
    b = 0.0
    rng = random.Random(f"train:{config.seed}")
    order = list(range(len(train)))
    lr = config.learning_rate

    best_f1 = -1.0
    best_epoch = -1
    best_w = w.copy()
    best_b = b
    epochs_run = 0

    for epoch in range(config.epochs):
        rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            rows = np.array(order[start : start + config.batch_size], dtype=np.int64)
            batch = features.take(rows)
            _, grad_w, grad_b = loss_and_grad(batch, y[rows], sample_weights[rows], w, b)
            np.subtract.at(w, batch.indices, lr * grad_w)
            b -= lr * grad_b
        epochs_run += 1
        preds = (_forward(val_features, w, b)[1] > 0.5).astype(int).tolist()
        val_f1 = f1(preds, gold_val)
        if val_f1 > best_f1:
            best_f1 = val_f1
            best_epoch = epoch
            best_w = w.copy()
            best_b = b
        elif epoch - best_epoch >= config.patience:
            break

    meta = {
        "seed": config.seed,
        "epochs": epochs_run,
        "best_epoch": best_epoch + 1,
        "learning_rate": config.learning_rate,
        "batch_size": config.batch_size,
        "class_weights": {"0": cw[0], "1": cw[1]},
        "train_size": len(train),
        "val_size": len(val),
        "val_f1": best_f1,
    }
    return QualityClassifier(
        featurizer=config.featurizer, weights=best_w, bias=best_b, training_meta=meta
    )


def score_batch(classifier: QualityClassifier, batch: FeatureBatch) -> np.ndarray:
    """Quality score in (0, 1) per row: sigmoid of the sparse dot product,
    clamped to [EPS, 1 - EPS] so the open interval holds in float arithmetic."""
    _, p = _forward(batch, classifier.weights, classifier.bias)
    return np.clip(p, EPS, 1.0 - EPS)


def score(classifier: QualityClassifier, snippet: Snippet) -> float:
    """Score of one snippet: a one-row score_batch."""
    if not snippet.text:
        raise ValueError("empty snippet")
    batch = featurize_batch([snippet.text], classifier.featurizer)
    return float(score_batch(classifier, batch)[0])


def save_model(classifier: QualityClassifier, path: str | Path) -> None:
    """Write the versioned model container: one JSON header line + raw weights.

    The byte layout is fully deterministic, so save(load(save(m))) is
    byte-identical.
    """
    blob = np.ascontiguousarray(classifier.weights, dtype="<f8").tobytes()
    header = {
        "magic": MODEL_MAGIC,
        "format_version": classifier.format_version,
        "featurizer": asdict(classifier.featurizer),
        "bias": classifier.bias,
        "training_meta": classifier.training_meta,
        "weights_len": int(classifier.weights.shape[0]),
        "weights_dtype": "<f8",
        "weights_sha256": hashlib.sha256(blob).hexdigest(),
    }
    with atomic_open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(blob)


def load_model(path: str | Path) -> QualityClassifier:
    """Load a model container; reject unknown versions and corrupt files."""
    path = Path(path)
    with open(path, "rb") as fh:
        header_line = fh.readline()
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
                f"reads only format_version {MODEL_FORMAT_VERSION}, whose feature hashing "
                f"differs; retrain the model with `docprune train`"
            )
        blob = fh.read()
    expected_len = header["weights_len"] * 8
    if len(blob) != expected_len:
        raise ModelFormatError(
            f"weight block is {len(blob)} bytes, expected {expected_len} (truncated?)"
        )
    if hashlib.sha256(blob).hexdigest() != header["weights_sha256"]:
        raise ModelFormatError("weight checksum mismatch: file is corrupt")
    weights = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    return QualityClassifier(
        featurizer=FeaturizerConfig(**header["featurizer"]),
        weights=weights,
        bias=float(header["bias"]),
        training_meta=header["training_meta"],
        format_version=version,
    )

