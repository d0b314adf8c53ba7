"""Prompt construction, Yes/No parsing, and the concurrent labeling loop.

The endpoint client speaks the common chat-completion JSON shape over HTTP
POST. Deterministic offline stand-ins with the same `complete(prompt)`
surface live in docprune.mocks.
"""

from __future__ import annotations

import os
import re
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Protocol

from .corpus import Snippet, read_records, write_jsonl

if TYPE_CHECKING:
    import requests

YES = "Yes"
NO = "No"
AMBIGUOUS = "Ambiguous"

PROMPT_VERSIONS = ("V1", "V2", "V3")

# A labeler whose yes-fraction falls outside this range is degenerate.
YES_FRACTION_RANGE = (0.05, 0.95)

# Instruction texts are part of the external contract and must not be edited.
INSTRUCTIONS = {
    "V1": (
        "In the above we provide a document snippet. The start and end of the "
        "snippet may contain only a partial word, as we sliced at the character "
        "level. Is the document snippet educational and engaging for a college "
        "student studying a STEM subject or the humanities? Answer with \"Yes\" "
        "or \"No\" without any additional comments."
    ),
    "V2": (
        "In the above we provide a document snippet. The start and end of the "
        "snippet may contain only a partial word, as we sliced at the character "
        "level. Does the document look like it would be helpful for a STEM or "
        "Humanities student who is struggling with their course? Answer with "
        "\"Yes\" or \"No\" without any additional comments."
    ),
    "V3": (
        "In the above we provide a document snippet. The start and end of the "
        "snippet may contain only a partial word, as we sliced at the character "
        "level. Does the document look like it would be educational and helpful "
        "for a STEM or Humanities student to help understanding material from "
        "their course? Answer with \"Yes\" or \"No\" without any additional "
        "comments."
    ),
}

DEFAULT_PREAMBLE = "[Document]\n\n<{snippet}>\n\n[Instruction] "


class TransportError(Exception):
    """The labeling endpoint could not produce a response."""


class DegenerateLabelerWarning(UserWarning):
    """The labeler assigns almost everything to one class."""


class LabelRunAborted(Exception):
    """Too many transport failures; carries the partial results."""

    def __init__(self, message: str, labels: list["QualityLabel"], stats: "LabelRunStats"):
        super().__init__(message)
        self.labels = labels
        self.stats = stats


@dataclass(frozen=True)
class PromptTemplate:
    """One of the fixed instruction variants plus the document framing."""

    version: str
    instruction_text: str
    preamble_format: str = DEFAULT_PREAMBLE

    def __post_init__(self):
        if "{snippet}" not in self.preamble_format:
            raise ValueError("preamble_format needs a {snippet} placeholder")

    @classmethod
    def for_version(cls, version: str) -> "PromptTemplate":
        v = version.strip().upper()
        if v not in INSTRUCTIONS:
            raise ValueError(f"unknown prompt version {version!r}; expected one of {PROMPT_VERSIONS}")
        return cls(version=v, instruction_text=INSTRUCTIONS[v])

    def render(self, snippet_text: str) -> str:
        # Placeholder substitution by split, not str.format: document text may
        # contain braces.
        pre, _, post = self.preamble_format.partition("{snippet}")
        return pre + snippet_text + post + self.instruction_text


@dataclass(frozen=True)
class IclDemonstration:
    """An answered example prepended to the prompt for in-context learning."""

    snippet_text: str
    label: str
    source_labeler: str = ""

    def __post_init__(self):
        if self.label not in (YES, NO):
            raise ValueError(f"demonstration label must be {YES!r} or {NO!r}")


@dataclass
class LabelerConfig:
    """Endpoint and run-shape settings for a labeling pass."""

    endpoint_url: str = ""
    model_name: str = ""
    temperature: float = 0.2
    max_output_tokens: int = 16
    max_concurrent_requests: int = 4
    max_retries: int = 3
    backoff_base: float = 0.5
    request_timeout: float = 30.0
    failure_ceiling: float = 0.05
    api_key_env: str = "DOCPRUNE_API_KEY"

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_concurrent_requests < 1:
            raise ValueError("max_concurrent_requests must be >= 1")


@dataclass
class QualityLabel:
    """A Yes/No judgment for one document, with provenance."""

    doc_id: str
    label: str
    prompt_version: str
    labeler_id: str
    raw_response: str
    icl_shots: int = 0


@dataclass
class LabelRunStats:
    requested: int = 0
    labeled: int = 0
    ambiguous_dropped: int = 0
    transport_failures: int = 0
    yes_fraction: float = 0.0


class Transport(Protocol):
    def complete(self, prompt: str) -> str: ...


def build_prompt(
    snippet: Snippet,
    template: PromptTemplate,
    demos: Iterable[IclDemonstration] = (),
) -> str:
    """Render the labeling prompt; 0 or 5 answered demonstrations may precede the query.

    Each demonstration is the full document/instruction block followed by its
    answer, so the trailing query block looks exactly like the zero-shot prompt.
    """
    demos = list(demos)
    if len(demos) not in (0, 5):
        raise ValueError(f"demonstrations must number 0 or 5, got {len(demos)}")
    if not snippet.text:
        raise ValueError("empty snippet")
    blocks = [template.render(d.snippet_text) + "\n\n" + d.label for d in demos]
    blocks.append(template.render(snippet.text))
    return "\n\n".join(blocks)


_FIRST_ALPHA = re.compile(r"[A-Za-z]+")


def parse_label(raw_response: str) -> str:
    """Map a raw response to Yes/No by its first alphabetic token, else Ambiguous."""
    match = _FIRST_ALPHA.search(raw_response or "")
    if not match:
        return AMBIGUOUS
    word = match.group(0).lower()
    if word == "yes":
        return YES
    if word == "no":
        return NO
    return AMBIGUOUS


def yes_share(labels: list[QualityLabel]) -> float:
    """Fraction of Yes labels, without yes_fraction's degenerate-labeler warning."""
    if not labels:
        raise ValueError("no labels")
    return sum(1 for lbl in labels if lbl.label == YES) / len(labels)


def yes_fraction(labels: list[QualityLabel]) -> float:
    """Fraction of Yes labels; warns when the labeler looks degenerate."""
    frac = yes_share(labels)
    lo, hi = YES_FRACTION_RANGE
    if not lo <= frac <= hi:
        warnings.warn(
            f"degenerate labeler: yes-fraction {frac:.3f} outside [{lo}, {hi}]",
            DegenerateLabelerWarning,
            stacklevel=2,
        )
    return frac


class HttpChatTransport:
    """Chat-completion endpoint client with bounded retries and backoff.

    Request body: {model, messages:[{role:"user", content:prompt}], temperature,
    max_tokens}. The first choice's message content is the raw response.
    Credentials come from the environment variable named in the config.
    """

    def __init__(self, config: LabelerConfig, session: requests.Session | None = None):
        # Imported here, not at module level: only this transport needs it,
        # and the import costs every stage process ~0.1 s.
        import requests

        if not config.endpoint_url:
            raise ValueError("endpoint_url is required for the HTTP transport")
        self.config = config
        self.session = session or requests.Session()

    def complete(self, prompt: str) -> str:
        import requests

        cfg = self.config
        body = {
            "model": cfg.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_output_tokens,
        }
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(cfg.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        last_error = "no attempt made"
        for attempt in range(cfg.max_retries + 1):
            if attempt:
                time.sleep(cfg.backoff_base * 2 ** (attempt - 1))
            try:
                resp = self.session.post(
                    cfg.endpoint_url, json=body, headers=headers, timeout=cfg.request_timeout
                )
            except requests.RequestException as exc:
                last_error = f"transport: {exc}"
                continue
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = f"HTTP {resp.status_code}"
                continue
            if resp.status_code != 200:
                raise TransportError(f"HTTP {resp.status_code}: {resp.text[:200]}")
            try:
                return resp.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise TransportError(f"malformed endpoint response: {exc}") from exc
        raise TransportError(
            f"gave up after {cfg.max_retries + 1} attempts: {last_error}"
        )


def label_documents(
    snippets: Iterable[Snippet],
    config: LabelerConfig,
    template: PromptTemplate,
    demos: Iterable[IclDemonstration] = (),
    transport: Transport | None = None,
) -> tuple[list[QualityLabel], LabelRunStats]:
    """Label snippets concurrently; ambiguous responses retry once, then drop.

    At most config.max_concurrent_requests requests are in flight at any
    instant; results are assembled in input order regardless of completion
    order. The run aborts (LabelRunAborted, carrying partial labels) as soon
    as transport failures exceed failure_ceiling * total requested.
    """
    if transport is None:
        transport = HttpChatTransport(config)
    demos = list(demos)
    labeler_id = config.model_name or type(transport).__name__
    shots = len(demos)
    snippets = list(snippets)
    stats = LabelRunStats(requested=len(snippets))

    def call(snippet: Snippet) -> tuple[str, str]:
        prompt = build_prompt(snippet, template, demos)
        raw = transport.complete(prompt)
        verdict = parse_label(raw)
        if verdict == AMBIGUOUS:
            raw = transport.complete(prompt)  # one retry with identical input
            verdict = parse_label(raw)
        return verdict, raw

    labels: list[QualityLabel] = []
    max_failures = config.failure_ceiling * stats.requested
    with ThreadPoolExecutor(max_workers=config.max_concurrent_requests) as pool:
        futures = [pool.submit(call, s) for s in snippets]
        for snippet, future in zip(snippets, futures):
            try:
                verdict, raw = future.result()
            except TransportError:
                stats.transport_failures += 1
                if stats.transport_failures > max_failures:
                    for f in futures:
                        f.cancel()
                    stats.labeled = len(labels)
                    stats.yes_fraction = yes_share(labels) if labels else 0.0
                    raise LabelRunAborted(
                        f"{stats.transport_failures} transport failures exceeded "
                        f"ceiling {config.failure_ceiling:.0%} of {stats.requested}",
                        labels,
                        stats,
                    )
                continue
            if verdict == AMBIGUOUS:
                stats.ambiguous_dropped += 1
                continue
            labels.append(
                QualityLabel(
                    doc_id=snippet.doc_id,
                    label=verdict,
                    prompt_version=template.version,
                    labeler_id=labeler_id,
                    raw_response=raw,
                    icl_shots=shots,
                )
            )
    stats.labeled = len(labels)
    if labels:
        stats.yes_fraction = yes_fraction(labels)
    return labels, stats


def write_labels(labels: Iterable[QualityLabel], path: str | Path) -> int:
    """Write labels as newline-delimited JSON records; returns the count."""
    return write_jsonl(path, labels)


def read_labels(path: str | Path) -> list[QualityLabel]:
    return list(read_records(path, QualityLabel))


def read_demonstrations(path: str | Path) -> list[IclDemonstration]:
    """Read ICL demonstrations from newline-delimited JSON."""
    return list(read_records(path, IclDemonstration))


def write_demonstrations(demos: Iterable[IclDemonstration], path: str | Path) -> int:
    return write_jsonl(path, demos)


def build_demonstrations(
    labels: Iterable[QualityLabel],
    snippet_texts: dict[str, str],
    k: int = 5,
) -> list[IclDemonstration]:
    """Pick k demonstrations from a stronger labeler's output, class-balanced
    when possible (3 Yes / 2 No for k=5)."""
    labels = list(labels)
    want_yes = (k + 1) // 2
    chosen: list[QualityLabel] = []
    for target, quota in ((YES, want_yes), (NO, k - want_yes)):
        picked = [l for l in labels if l.label == target and l.doc_id in snippet_texts]
        chosen.extend(picked[:quota])
    if len(chosen) < k:  # one-class labeler: fall back to the first k usable
        seen = {l.doc_id for l in chosen}
        for l in labels:
            if len(chosen) >= k:
                break
            if l.doc_id in snippet_texts and l.doc_id not in seen:
                chosen.append(l)
                seen.add(l.doc_id)
    if len(chosen) < k:
        raise ValueError(f"not enough labeled snippets to build {k} demonstrations")
    return [
        IclDemonstration(
            snippet_text=snippet_texts[l.doc_id],
            label=l.label,
            source_labeler=l.labeler_id,
        )
        for l in chosen[:k]
    ]
