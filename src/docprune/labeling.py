"""Prompt construction, Yes/No parsing, and the concurrent labeling loop.

The endpoint client speaks the common chat-completion JSON shape over HTTP
POST. Deterministic offline stand-ins with the same `complete(prompt)`
surface live in docprune.mocks.
"""

from __future__ import annotations

import json
import os
import re
import time
import warnings
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol
from urllib.parse import unquote, urlsplit, urlunsplit

from .corpus import Snippet, read_records, write_jsonl

YES = "Yes"
NO = "No"
AMBIGUOUS = "Ambiguous"

PROMPT_VERSIONS = ("V1", "V2", "V3")

# A prompt carries no demonstrations (0-shot) or this many answered ones.
ICL_SHOTS = 5

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

# A prompt block is _DOC_OPEN + snippet + _DOC_CLOSE + instruction text.
_DOC_OPEN = "[Document]\n\n<"
_DOC_CLOSE = ">\n\n[Instruction] "


class TransportError(Exception):
    """The labeling endpoint could not produce a response."""


class DegenerateLabelerWarning(UserWarning):
    """The labeler assigns almost everything to one class."""


def canonical_version(version: str) -> str:
    """The name (V1-V3) of a prompt version given in any case."""
    v = version.strip().upper()
    if v not in INSTRUCTIONS:
        raise ValueError(f"unknown prompt version {version!r}; expected one of {PROMPT_VERSIONS}")
    return v


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
    """Endpoint and run-shape settings for a labeling pass: the [labeler]
    section. Only the `label` command reads the last three."""

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
    prompt_version: str = "v1"
    icl_demos: str = ""  # demonstrations file, or "" for 0-shot prompts
    mock: bool = False  # label with the offline MockQualityTransport

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_concurrent_requests < 1:
            raise ValueError("max_concurrent_requests must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be > 0")
        canonical_version(self.prompt_version)  # rejects an unknown version


@dataclass
class QualityLabel:
    """A Yes/No judgment for one document, with provenance."""

    doc_id: str
    label: str
    prompt_version: str
    labeler_id: str
    raw_response: str
    icl_shots: int = 0

    def __post_init__(self):
        if self.label not in (YES, NO):
            raise ValueError(f"label {self.label!r} of {self.doc_id!r} is not {YES!r} or {NO!r}")


@dataclass
class LabelRunStats:
    requested: int = 0
    labeled: int = 0
    ambiguous_dropped: int = 0
    transport_failures: int = 0
    yes_fraction: float = 0.0
    aborted: str = ""  # why the run stopped early, or "" for a run that finished


class Transport(Protocol):
    def complete(self, prompt: str) -> str: ...


def build_prompt(
    snippet: Snippet,
    version: str,
    demos: Iterable[IclDemonstration] = (),
) -> str:
    """Render the labeling prompt of a version (V1-V3, any case); 0 or
    ICL_SHOTS answered demonstrations may precede the query.

    Each demonstration is the full document/instruction block followed by its
    answer, so the trailing query block looks exactly like the zero-shot prompt.
    """
    demos = list(demos)
    if len(demos) not in (0, ICL_SHOTS):
        raise ValueError(f"demonstrations must number 0 or {ICL_SHOTS}, got {len(demos)}")
    closing = _DOC_CLOSE + INSTRUCTIONS[canonical_version(version)]
    blocks = [_DOC_OPEN + d.snippet_text + closing + "\n\n" + d.label for d in demos]
    blocks.append(_DOC_OPEN + snippet.text + closing)
    return "\n\n".join(blocks)


def parse_prompt(prompt: str) -> tuple[str, int, str]:
    """(instruction version, demonstration count, query snippet text) of a
    prompt that `build_prompt` rendered.

    Each block ends with _DOC_CLOSE plus the whole instruction text, so the
    blocks are found by that closing; snippet texts may hold any other text,
    the framing markers included.
    """
    for version, text in INSTRUCTIONS.items():
        closing = _DOC_CLOSE + text
        if prompt.endswith(closing):
            # The first part is the first block's opening and snippet; every
            # later part is "\n\n<answer>\n\n" + the next block's.
            parts = prompt[: -len(closing)].split(closing)
            return version, len(parts) - 1, parts[-1].partition(_DOC_OPEN)[2]
    raise ValueError("prompt carries no known instruction text")


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


def yes_share(labels: Iterable[QualityLabel]) -> float:
    """Fraction of Yes labels, without yes_fraction's degenerate-labeler
    warning; counted in one pass, so a stream of labels is never held."""
    yes = total = 0
    for total, lbl in enumerate(labels, 1):
        yes += lbl.label == YES
    if not total:
        raise ValueError("no labels")
    return yes / total


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

    Each call takes an idle keep-alive connection, or opens one when none is
    idle, and puts it back once the response is read, so no more connections
    are open than calls in flight. `http_proxy`/`https_proxy` and `no_proxy`
    are read from the environment once, here: an http endpoint is asked for
    through the proxy by absolute URI, an https one through a CONNECT tunnel.
    TLS uses the default context (the system CA store, or SSL_CERT_FILE).
    """

    def __init__(self, config: LabelerConfig):
        # Imported here, not at module level: only this transport needs them,
        # and they cost every stage process ~30 ms.
        from http.client import HTTPConnection, HTTPSConnection
        from urllib.request import getproxies, proxy_bypass

        if not config.endpoint_url:
            raise ValueError("endpoint_url is required for the HTTP transport")
        url = urlsplit(config.endpoint_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(
                f"endpoint_url must be http(s)://host..., got {config.endpoint_url!r}"
            )
        self.config = config
        self._connection = HTTPSConnection if url.scheme == "https" else HTTPConnection
        self._address = (url.hostname, url.port)
        self._target = urlunsplit(("", "", url.path or "/", url.query, ""))
        self._tunnel = None
        self._headers = {"Content-Type": "application/json"}
        proxy = getproxies().get(url.scheme)
        if proxy and not proxy_bypass(url.hostname):
            proxy = urlsplit(proxy if "://" in proxy else "http://" + proxy)
            auth = {}
            if proxy.username:
                from base64 import b64encode

                creds = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
                auth["Proxy-Authorization"] = "Basic " + b64encode(creds.encode()).decode()
            if url.scheme == "https":
                self._tunnel = (*self._address, auth)
            else:
                self._target = config.endpoint_url
                self._headers.update(auth)
            self._address = (proxy.hostname, proxy.port or 80)
        self._idle: deque = deque()  # append and pop are thread-safe

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        while self._idle:
            self._idle.pop().close()

    def _connect(self):
        conn = self._connection(*self._address, timeout=self.config.request_timeout)
        if self._tunnel:
            conn.set_tunnel(*self._tunnel)
        return conn

    def _post(self, body: bytes, headers: dict) -> tuple[int, bytes]:
        """One attempt: (status, response body). A reused connection that the
        server closed while it sat idle fails before any response byte; it is
        reopened and the request resent once, within the same attempt."""
        try:
            conn, reused = self._idle.pop(), True
        except IndexError:
            conn, reused = self._connect(), False
        try:
            try:
                conn.request("POST", self._target, body, headers)
                resp = conn.getresponse()
            except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected is one
                if not reused:
                    raise
                conn.close()
                conn = self._connect()
                conn.request("POST", self._target, body, headers)
                resp = conn.getresponse()
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            self._idle.append(conn)
        return resp.status, data

    def complete(self, prompt: str) -> str:
        from http.client import HTTPException

        cfg = self.config
        body = json.dumps({
            "model": cfg.model_name,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_output_tokens,
        }).encode()
        headers = dict(self._headers)
        api_key = os.environ.get(cfg.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        last_error = "no attempt made"
        for attempt in range(cfg.max_retries + 1):
            if attempt:
                time.sleep(cfg.backoff_base * 2 ** (attempt - 1))
            try:
                status, data = self._post(body, headers)
            except (OSError, HTTPException) as exc:
                last_error = f"transport: {exc}"
                continue
            if status == 429 or status >= 500:
                last_error = f"HTTP {status}"
                continue
            if status != 200:
                raise TransportError(f"HTTP {status}: {data.decode('utf-8', 'replace')[:200]}")
            try:
                return json.loads(data)["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise TransportError(f"malformed endpoint response: {exc}") from exc
        raise TransportError(
            f"gave up after {cfg.max_retries + 1} attempts: {last_error}"
        )


def label_documents(
    snippets: Iterable[Snippet],
    config: LabelerConfig,
    demos: Iterable[IclDemonstration] = (),
    *,
    transport: Transport,
) -> tuple[list[QualityLabel], LabelRunStats]:
    """Label snippets concurrently with the prompt of config.prompt_version;
    ambiguous responses retry once, then drop.

    At most config.max_concurrent_requests requests are in flight at any
    instant; results are assembled in input order regardless of completion
    order. As soon as transport failures exceed failure_ceiling * total
    requested, the run cancels the pending requests and returns the labels so
    far, with `stats.aborted` saying why.
    """
    version = canonical_version(config.prompt_version)
    demos = list(demos)
    labeler_id = config.model_name or type(transport).__name__
    shots = len(demos)
    snippets = list(snippets)
    stats = LabelRunStats(requested=len(snippets))

    def call(snippet: Snippet) -> tuple[str, str]:
        prompt = build_prompt(snippet, version, demos)
        raw = transport.complete(prompt)
        verdict = parse_label(raw)
        if verdict == AMBIGUOUS:
            raw = transport.complete(prompt)  # one retry with identical input
            verdict = parse_label(raw)
        return verdict, raw

    from concurrent.futures import ThreadPoolExecutor  # only `label` and `ablate` label

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
                    stats.aborted = (
                        f"{stats.transport_failures} transport failures exceeded "
                        f"ceiling {config.failure_ceiling:.0%} of {stats.requested}"
                    )
                    break
                continue
            if verdict == AMBIGUOUS:
                stats.ambiguous_dropped += 1
                continue
            labels.append(
                QualityLabel(
                    doc_id=snippet.doc_id,
                    label=verdict,
                    prompt_version=version,
                    labeler_id=labeler_id,
                    raw_response=raw,
                    icl_shots=shots,
                )
            )
    stats.labeled = len(labels)
    if labels:
        stats.yes_fraction = yes_share(labels) if stats.aborted else yes_fraction(labels)
    return labels, stats


def read_demonstrations(path: str | Path) -> list[IclDemonstration]:
    """Read ICL demonstrations from newline-delimited JSON; a file that does
    not hold exactly ICL_SHOTS raises ValueError."""
    demos = list(read_records(path, IclDemonstration))
    if len(demos) != ICL_SHOTS:
        raise ValueError(
            f"{path} holds {len(demos)} demonstrations; exactly {ICL_SHOTS} are required"
        )
    return demos


def write_demonstrations(demos: Iterable[IclDemonstration], path: str | Path) -> int:
    return write_jsonl(path, demos)

