"""Deterministic offline labeler with the endpoint transport's surface.

The mock answers by parsing the rendered prompt itself with
`labeling.parse_prompt` (query snippet, shot count, instruction version), so
the offline path exercises the same prompt-build/response-parse loop as a
hosted model. All randomness is content hashing: identical input always
yields the identical answer, across processes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping

from .corpus import Snippet
from .labeling import NO, YES, parse_prompt
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
    return _label_text(snippet.text)


def _label_text(text: str) -> str:
    verdict = marker_truth(text)
    if verdict is not None:
        return verdict
    return YES if lexical_richness(text) >= 0.2 else NO


@dataclass(frozen=True)
class MockQualityTransport:
    """Offline stand-in for the hosted labeler: the marker/lexical verdict,
    kept with probability fidelity_by_shots[shots] at the prompt's shot count
    when that dial is given (a shot count it lacks raises ValueError), then
    flipped at `flip_rate` for prompt versions other than V1."""

    fidelity_by_shots: Mapping[int, float] | None = None
    flip_rate: float = 0.0

    def complete(self, prompt: str) -> str:
        version, shots, text = parse_prompt(prompt)
        agree = True
        if self.fidelity_by_shots is not None:
            if shots not in self.fidelity_by_shots:
                raise ValueError(f"no fidelity configured for {shots}-shot prompts")
            agree = hash01(f"fidelity|{shots}|{text}") < self.fidelity_by_shots[shots]
        if self.flip_rate > 0 and version != "V1":
            agree ^= hash01(f"prompt-flip|{version}|{text}") < self.flip_rate
        verdict = _label_text(text)
        return verdict if agree else (NO if verdict == YES else YES)
