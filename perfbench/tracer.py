"""Traced run of one docprune stage, and the per-layer metrics its spans give.

    PYTHONPATH=src python3 perfbench/tracer.py --stage score --spans spans.json -- score --model ...

runs `docprune.cli.main(argv)` in this process after wrapping the public
functions of corpus, classifier, selection and labeling at the names their
callers resolve. Each wrapped call records a span (name, start, end, parent
span, thread, thread CPU time); generators such as `ingest_shards` get one
span per `next()`. Spans and counters stay in memory and are written to
`--spans`, one file per stage, when the stage ends. `layer_metrics` turns the
span files of one chain into the per-layer metrics the benchmark prints.

docprune itself is not modified: the spans sit at its module boundaries.
"""

from __future__ import annotations

import argparse
import collections
import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time


class Tracer:
    """In-memory span and counter store for one stage process."""

    def __init__(self, stage: str):
        self.stage = stage
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread, cpu_s)
        self.counters: collections.Counter = collections.Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> tuple:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool thread's work was caused by whatever the stage's main
            # thread is blocked in (score_corpus, filter_corpus, label_documents).
            main = self._main_stack
            parent = main[-1] if main else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, stack, time.thread_time(), time.perf_counter()

    def end(self, name: str, token) -> None:
        end = time.perf_counter()
        span_id, parent, stack, cpu0, start = token
        cpu_s = time.thread_time() - cpu0
        stack.pop()
        self.spans.append((span_id, name, start, end, parent, threading.get_ident(), cpu_s))

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def dump(self, path: str) -> None:
        payload = {
            "stage": self.stage,
            "counters": dict(self.counters),
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _wrap(tracer: Tracer, owner, attr: str, name: str, after=None) -> None:
    """Replace owner.attr with a spanned call; `after(args, result)` counts."""
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        token = tracer.begin()
        try:
            result = orig(*args, **kwargs)
        finally:
            tracer.end(name, token)
        if after is not None:
            after(args, result)
        return result

    setattr(owner, attr, wrapper)


def _wrap_iter(tracer: Tracer, owner, attr: str, name: str, before=None, each=None) -> None:
    """Replace a generator function with one that spans every next()."""
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        it = orig(*args, **kwargs)
        while True:
            token = tracer.begin()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.end(name, token)
            if each is not None:
                each(item)
            yield item

    setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap docprune's public functions where the CLI and its callees look them up."""
    import requests

    from docprune import classifier, cli, labeling, mocks, selection

    count = tracer.count

    def ingest_bytes(args):
        count("corpus.ingest.bytes", _file_bytes(s.path for s in args[0].shards))

    for mod in (cli, selection):
        _wrap_iter(tracer, mod, "ingest_shards", "corpus.ingest", before=ingest_bytes,
                   each=lambda doc: count("corpus.ingest.docs"))
        _wrap(tracer, mod, "extract_snippet", "corpus.snippet")
        _wrap(tracer, mod, "write_shard_file", "corpus.write",
              after=lambda a, shard: count("corpus.write.docs", shard.record_count))
    _wrap(tracer, cli, "reservoir_sample", "corpus.sample")

    _wrap(tracer, classifier, "tokenize", "classifier.tokenize")

    def hashed(args, counts):
        count("classifier.hash.docs")
        count("classifier.hash.ngrams", sum(counts.values()))

    _wrap(tracer, classifier, "hash_counts", "classifier.hash", after=hashed)
    _wrap(tracer, classifier, "project_counts", "classifier.project")
    for mod in (cli, classifier):
        _wrap(tracer, mod, "featurize_text", "classifier.featurize")

    def trained(args, model):
        count("classifier.train.examples", len(args[0]))
        count("classifier.train.epochs", model.training_meta["epochs"])

    _wrap(tracer, cli, "train_classifier", "classifier.train", after=trained)
    _wrap(tracer, selection, "score", "classifier.score",
          after=lambda a, r: count("classifier.score.calls"))
    _wrap(tracer, cli, "save_model", "classifier.model_io")
    _wrap(tracer, cli, "load_model", "classifier.model_io")

    _wrap(tracer, cli, "score_corpus", "selection.score_corpus")
    _wrap(tracer, selection, "score_documents", "selection.score_documents")
    _wrap(tracer, selection.ScoreSet, "load_scores", "selection.score_set.load")
    _wrap_iter(tracer, selection.ScoreSet, "iter_records", "selection.score_set.read",
               before=lambda a: count("selection.score_set.bytes", _file_bytes(a[0].shard_paths)),
               each=lambda rec: count("selection.score_set.records"))
    _wrap(tracer, cli, "select_cutoff", "selection.select")

    def filtered(args, result):
        shards, manifest = result
        count("selection.filter.docs_read", manifest.input_documents)
        count("selection.filter.docs_kept", manifest.output_documents)
        count("selection.filter.bytes_written", _file_bytes(s.path for s in shards.shards))

    _wrap(tracer, cli, "filter_corpus", "selection.filter", after=filtered)

    def labeled(args, result):
        stats = result[1]
        count("labeling.snippets", stats.requested)
        count("labeling.labels", stats.labeled)
        count("labeling.ambiguous_dropped", stats.ambiguous_dropped)
        count("labeling.transport_failures", stats.transport_failures)

    _wrap(tracer, cli, "label_documents", "labeling.label_documents", after=labeled)
    _wrap(tracer, labeling, "build_prompt", "labeling.prompt",
          after=lambda a, prompt: count("labeling.prompt.bytes", len(prompt.encode("utf-8"))))
    _wrap(tracer, labeling.HttpChatTransport, "complete", "labeling.complete")
    _wrap(tracer, mocks.MockQualityTransport, "complete", "labeling.complete")
    _wrap(tracer, requests.Session, "post", "labeling.http_request")


def run_stage(stage: str, spans_path: str, argv: list[str]) -> int:
    tracer = Tracer(stage)
    install(tracer)
    from docprune import cli

    token = tracer.begin()
    try:
        return cli.main(argv)
    finally:
        tracer.end("cli." + stage, token)
        tracer.dump(spans_path)


# ---------------------------------------------------------------- analysis


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def layer_metrics(stage_payloads: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced chain; layers the chain skips read 0.

    Busy times are thread CPU time inside a span; with two worker threads a
    span's wall time would also count the wait for the GIL. Self time is a
    span's CPU time minus that of its child spans on the same thread.
    """
    wall = collections.defaultdict(float)
    busy = collections.defaultdict(float)
    self_busy = collections.defaultdict(float)
    durations = collections.defaultdict(list)
    counters = collections.Counter()
    for payload in stage_payloads:  # span ids are unique within one stage
        counters.update(payload["counters"])
        thread_of = {span[0]: span[5] for span in payload["spans"]}
        child_cpu = collections.defaultdict(float)
        for _, _, _, _, parent, thread, cpu_s in payload["spans"]:
            if parent is not None and thread_of.get(parent) == thread:
                child_cpu[parent] += cpu_s
        for span_id, name, start, end, _, _, cpu_s in payload["spans"]:
            wall[name] += end - start
            busy[name] += cpu_s
            self_busy[name] += cpu_s - child_cpu[span_id]
            durations[name].append(end - start)

    m: dict[str, float] = {}
    m["corpus.ingest.docs"] = counters["corpus.ingest.docs"]
    m["corpus.ingest.bytes"] = counters["corpus.ingest.bytes"]
    m["corpus.ingest.busy_s"] = busy["corpus.ingest"]
    m["corpus.sample.busy_s"] = self_busy["corpus.sample"]
    m["corpus.snippet.busy_s"] = busy["corpus.snippet"]
    m["corpus.write.docs"] = counters["corpus.write.docs"]
    m["corpus.write.busy_s"] = busy["corpus.write"]

    m["classifier.tokenize.busy_s"] = busy["classifier.tokenize"]
    m["classifier.hash.docs"] = counters["classifier.hash.docs"]
    m["classifier.hash.ngrams"] = counters["classifier.hash.ngrams"]
    m["classifier.hash.busy_s"] = self_busy["classifier.hash"]
    m["classifier.project.busy_s"] = busy["classifier.project"]
    m["classifier.featurize.busy_s"] = busy["classifier.featurize"]
    m["classifier.train.examples"] = counters["classifier.train.examples"]
    m["classifier.train.epochs"] = counters["classifier.train.epochs"]
    m["classifier.train.busy_s"] = self_busy["classifier.train"]
    m["classifier.score.calls"] = counters["classifier.score.calls"]
    m["classifier.score.busy_s"] = self_busy["classifier.score"]
    m["classifier.model_io.busy_s"] = busy["classifier.model_io"]

    shard_s = durations["selection.score_documents"]
    m["selection.score_documents.busy_s"] = busy["selection.score_documents"]
    m["selection.score_corpus.shard_s.p50"] = statistics.median(shard_s) if shard_s else 0.0
    m["selection.score_corpus.shard_s.max"] = max(shard_s, default=0.0)
    # Shard CPU time over stage wall: about 1.0 while the GIL serializes shards.
    stage_wall = wall["selection.score_corpus"]
    shard_cpu = busy["selection.score_documents"]
    m["selection.score_corpus.parallelism"] = shard_cpu / stage_wall if stage_wall else 0.0
    m["selection.score_set.records"] = counters["selection.score_set.records"]
    m["selection.score_set.bytes"] = counters["selection.score_set.bytes"]
    m["selection.score_set.read_s"] = (
        busy["selection.score_set.read"] + self_busy["selection.score_set.load"]
    )
    m["selection.select.busy_s"] = busy["selection.select"]
    for key in ("docs_read", "docs_kept", "bytes_written"):
        m[f"selection.filter.{key}"] = counters[f"selection.filter.{key}"]
    m["selection.filter.busy_s"] = wall["selection.filter"]

    # Requests are HTTP posts when an endpoint is used; the offline mock has
    # no wire, so each complete() call is one request.
    request_spans = durations["labeling.http_request"] or durations["labeling.complete"]
    requests = len(request_spans)
    labels = counters["labeling.labels"]
    label_busy = wall["labeling.label_documents"]
    m["labeling.requests"] = requests
    m["labeling.retries"] = requests - counters["labeling.snippets"]
    m["labeling.useful_ratio"] = labels / requests if requests else 0.0
    m["labeling.ambiguous_dropped"] = counters["labeling.ambiguous_dropped"]
    m["labeling.transport_failures"] = counters["labeling.transport_failures"]
    m["labeling.prompt.bytes"] = counters["labeling.prompt.bytes"]
    m["labeling.prompt.busy_s"] = busy["labeling.prompt"]
    m["labeling.request_ms.p50"] = 1000.0 * _percentile(request_spans, 0.50)
    m["labeling.request_ms.p99"] = 1000.0 * _percentile(request_spans, 0.99)
    m["labeling.in_flight_mean"] = sum(request_spans) / label_busy if label_busy else 0.0
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one docprune stage with tracing.")
    parser.add_argument("--stage", required=True)
    parser.add_argument("--spans", required=True, help="where to write the span file")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv
    return run_stage(args.stage, args.spans, cli_argv)


if __name__ == "__main__":
    sys.exit(main())
