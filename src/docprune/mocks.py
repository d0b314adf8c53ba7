"""Deterministic offline labelers with the endpoint transport's surface.

Every mock answers by parsing the rendered prompt itself with
`labeling.parse_prompt` (query snippet, shot count, instruction version), so
the offline path exercises the same prompt-build/response-parse loop as a
hosted model. All randomness is content hashing: identical input always
yields the identical answer, across processes.
"""

from __future__ import annotations

import hashlib

from .corpus import Snippet
from .labeling import ICL_SHOTS, NO, YES, parse_prompt
from .synthetic import marker_truth


def hash01(key: str) -> float:
    """Deterministic uniform draw in [0, 1) from a string key."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


def query_snippet(prompt: str) -> str:
    """The query document text of a rendered prompt."""
    return parse_prompt(prompt)[2]


def lexical_richness(text: str) -> float:
    """Share of long tokens: the fixed lexical stand-in score for real text."""
    tokens = text.split()
    if not tokens:
        return 0.0
    return sum(1 for t in tokens if len(t) >= 7) / len(tokens)


def mock_label(snippet: Snippet) -> str:
    """Deterministic Yes/No: planted-marker majority, else the lexical rule."""
    if not snippet.text:
        raise ValueError("empty snippet")
    return _label_text(snippet.text)


def _label_text(text: str) -> str:
    verdict = marker_truth(text)
    if verdict is not None:
        return verdict
    return YES if lexical_richness(text) >= 0.2 else NO


def _flip(label: str) -> str:
    return NO if label == YES else YES


class MockQualityTransport:
    """Offline stand-in for the hosted labeler: marker/lexical verdicts."""

    def complete(self, prompt: str) -> str:
        return _label_text(query_snippet(prompt))


class DegenerateMockTransport:
    """Answers Yes at a fixed rate (default 98%) regardless of content.

    Simulates a labeler too weak to discriminate, for the degeneracy
    diagnostic.
    """

    def __init__(self, yes_rate: float = 0.98):
        self.yes_rate = yes_rate

    def complete(self, prompt: str) -> str:
        return YES if hash01(f"degenerate|{query_snippet(prompt)}") < self.yes_rate else NO


class FidelityMockTransport:
    """Agreement with ground truth is a dial, and rises with demonstration shots.

    The truth is the planted-marker rule with the lexical fallback; the
    answer agrees with it with probability fidelity_by_shots[shots].
    """

    def __init__(self, fidelity_by_shots: dict[int, float] | None = None):
        self.fidelity_by_shots = fidelity_by_shots or {0: 0.60, ICL_SHOTS: 0.75}

    def complete(self, prompt: str) -> str:
        _, shots, text = parse_prompt(prompt)
        if shots not in self.fidelity_by_shots:
            raise ValueError(f"no fidelity configured for {shots}-shot prompts")
        truth = _label_text(text)
        agree = hash01(f"fidelity|{shots}|{text}") < self.fidelity_by_shots[shots]
        return truth if agree else _flip(truth)


class VersionFlipTransport:
    """Flips the base verdict at a fixed rate for prompt versions other than V1.

    Models a labeler whose judgments drift between semantically equivalent
    instructions; flip_rate 0 makes it version-independent.
    """

    def __init__(self, flip_rate: float = 0.05):
        self.flip_rate = flip_rate

    def complete(self, prompt: str) -> str:
        version, _, text = parse_prompt(prompt)
        verdict = _label_text(text)
        if version != "V1" and hash01(f"prompt-flip|{version}|{text}") < self.flip_rate:
            verdict = _flip(verdict)
        return verdict
