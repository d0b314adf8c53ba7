"""Synthetic corpora with a planted quality stratum.

Documents are runs of filler tokens plus a few planted marker features whose
polarity follows the document's hidden stratum at a configurable signal
strength (1.0 = lexically separable, 0.0 = indistinguishable). The stratum is
recorded only in Document.meta["stratum"], so filtering quality can be
measured against known ground truth without leaking it into any feature.

Two marker styles:
  "few"  - a handful of distinct high/low unigram markers; learnable at any
           classifier capacity.
  "many" - hundreds of distinct marker *phrases* (token pairs) built from a
           shared token pool whose unigrams are class-neutral; only bigram
           features carry signal, and the sheer feature count makes hashed
           capacity matter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .corpus import Document
from .labeling import NO, YES

HIGH_MARKERS = tuple(f"hqmark{i}" for i in range(8))
LOW_MARKERS = tuple(f"lqmark{i}" for i in range(8))

_PHRASE_POOL = tuple(f"pw{i:03d}" for i in range(240))
_N_PHRASES = 300


def _build_phrases() -> tuple[tuple[tuple[str, str], ...], tuple[tuple[str, str], ...]]:
    # Fixed internal seed: the mock labeler must recognize phrases without
    # knowing which corpus seed produced a document.
    rng = random.Random("planted-phrases")
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    while len(pairs) < 2 * _N_PHRASES:
        pair = (rng.choice(_PHRASE_POOL), rng.choice(_PHRASE_POOL))
        if pair[0] != pair[1] and pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    return tuple(pairs[:_N_PHRASES]), tuple(pairs[_N_PHRASES:])


HIGH_PHRASES, LOW_PHRASES = _build_phrases()

_HIGH_UNI = frozenset(HIGH_MARKERS)
_LOW_UNI = frozenset(LOW_MARKERS)
_HIGH_BI = frozenset(HIGH_PHRASES)
_LOW_BI = frozenset(LOW_PHRASES)


def marker_truth(text: str) -> str | None:
    """Yes/No by majority of planted markers in the text; None when unmarked."""
    tokens = text.split()
    high = sum(1 for t in tokens if t in _HIGH_UNI)
    low = sum(1 for t in tokens if t in _LOW_UNI)
    for pair in zip(tokens, tokens[1:]):
        if pair in _HIGH_BI:
            high += 1
        elif pair in _LOW_BI:
            low += 1
    if high > low:
        return YES
    if low > high:
        return NO
    return None


@dataclass
class SyntheticCorpusSpec:
    """Shape of a generated corpus; every field participates in determinism."""

    n_docs: int
    high_quality_fraction: float = 0.25
    signal_strength: float = 1.0
    seed: int = 0
    vocab_seed: int = 0
    vocab_size: int = 2000
    marker_style: str = "few"  # "few" | "many"
    markers_per_doc: int = 3
    doc_tokens_min: int = 60
    doc_tokens_max: int = 140

    def __post_init__(self):
        if self.n_docs < 100:
            raise ValueError("n_docs must be at least 100")
        if not 0 < self.high_quality_fraction < 1:
            raise ValueError("high_quality_fraction must be in (0, 1)")
        if not 0 <= self.signal_strength <= 1:
            raise ValueError("signal_strength must be in [0, 1]")
        if self.marker_style not in ("few", "many"):
            raise ValueError('marker_style must be "few" or "many"')


def _strata(spec: SyntheticCorpusSpec) -> list[bool]:
    n_high = round(spec.high_quality_fraction * spec.n_docs)
    flags = [True] * n_high + [False] * (spec.n_docs - n_high)
    random.Random(f"strata:{spec.seed}").shuffle(flags)
    return flags


def _make_doc(spec: SyntheticCorpusSpec, index: int, is_high: bool) -> Document:
    rng = random.Random(f"doc:{spec.seed}:{index}")
    length = rng.randint(spec.doc_tokens_min, spec.doc_tokens_max)
    tokens = [
        f"v{spec.vocab_seed}t{rng.randrange(spec.vocab_size):04d}" for _ in range(length)
    ]
    p_own = (1.0 + spec.signal_strength) / 2.0
    for _ in range(spec.markers_per_doc):
        own = rng.random() < p_own
        wants_high = is_high if own else not is_high
        pos = rng.randint(0, len(tokens))
        if spec.marker_style == "few":
            pool = HIGH_MARKERS if wants_high else LOW_MARKERS
            tokens[pos:pos] = [rng.choice(pool)]
        else:
            phrases = HIGH_PHRASES if wants_high else LOW_PHRASES
            tokens[pos:pos] = list(rng.choice(phrases))
    return Document(
        id=f"syn{spec.seed}-{index:06d}",
        text=" ".join(tokens),
        meta={"stratum": "high" if is_high else "low"},
    )


def generate_documents(spec: SyntheticCorpusSpec) -> list[Document]:
    """Deterministic corpus with hidden ground truth in meta["stratum"]."""
    flags = _strata(spec)
    return [_make_doc(spec, i, flag) for i, flag in enumerate(flags)]


def stratum_of(doc: Document) -> bool:
    """Ground-truth lookup for evaluation; never feed this to a featurizer."""
    return doc.meta.get("stratum") == "high"


def truth_by_doc(docs: Iterable[Document]) -> dict[str, str]:
    """doc_id -> Yes/No ground-truth labels from the hidden stratum."""
    return {doc.id: (YES if stratum_of(doc) else NO) for doc in docs}
