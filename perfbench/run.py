"""docprune benchmark: seeded synthetic corpora through the CLI stages.

    python3 perfbench/run.py --workload pipeline-paper --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Set-up generates the workload's corpus
from `--seed` (plus, per workload, a trained model or a loopback chat
endpoint) several times and reports the median as `setup_s`. The measured
chain runs each stage as its own `python -m docprune.cli <stage>` process, as
a user would, and repeats on the same inputs until `--seconds` have passed;
chain time and throughput are means over the chains, the other end-to-end
metrics medians. Every chain's outputs are checked, and each stage exit and
each check is one operation.

With `--trace 1` the untraced chains give the per-stage wall times, and one
more chain runs every stage through perfbench/tracer.py, which spans the
public functions of each layer; the per-layer metrics come from its spans.

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics": {name: {"value", "unit"}}}. Exit code 0 when every operation
succeeded, 1 when one failed, 2 when the checkout has no docprune source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"

# Set-up repeats at least SETUP_REPEATS[0] and at most SETUP_REPEATS[1] times,
# until SETUP_SECONDS have passed, so that a quick set-up has a steady median.
SETUP_REPEATS = (3, 9)
SETUP_SECONDS = 4.0
STARTUP_REPEATS = 5
WORKERS = 2  # `[selector] workers`, as a user of a 2-core machine would set it


@dataclass(frozen=True)
class Workload:
    """Corpus shape plus the stage chain that is timed."""

    stages: tuple[str, ...]
    n_docs: int
    doc_tokens: tuple[int, int]
    markers_per_doc: int
    n_shards: int
    sample_size: int = 0  # `sample --n` in the chain, or for training in set-up
    target_ratio: str = "from-labels"
    endpoint: bool = False  # label through the loopback stub with 5-shot demos
    model_in_setup: bool = False


PAPER_TOKENS = (800, 1600)  # every snippet is the full 6,000-char window
SHORT_TOKENS = (60, 140)

WORKLOADS = {
    # The run a user makes; featurizing dominates train and score. The whole
    # corpus is labeled so that the from-labels ratio is the planted share and
    # kept precision/recall measure the classifier, not sampling luck.
    "pipeline-paper": Workload(
        stages=("sample", "label", "train", "score", "select", "filter"),
        n_docs=240, doc_tokens=PAPER_TOKENS, markers_per_doc=10, n_shards=8,
        sample_size=240,
    ),
    # 7x more records per second: per-record costs outside hashing show.
    "corpus-short": Workload(
        stages=("score", "select", "filter"),
        n_docs=4000, doc_tokens=SHORT_TOKENS, markers_per_doc=3, n_shards=16,
        sample_size=300, target_ratio="0.25", model_in_setup=True,
    ),
    # Labeling against a remote model: requests in flight and wasted calls.
    "label-endpoint": Workload(
        stages=("sample", "label"),
        n_docs=500, doc_tokens=PAPER_TOKENS, markers_per_doc=10, n_shards=4,
        sample_size=400, endpoint=True,
    ),
}

TINY = {
    "pipeline-paper": dict(n_docs=120, sample_size=120),
    "corpus-short": dict(n_docs=200, sample_size=100),
    "label-endpoint": dict(n_docs=100, sample_size=60),
}

ALL_STAGES = ("sample", "label", "train", "score", "select", "filter")


# ------------------------------------------------------------- processes


def _env() -> dict[str, str]:
    env = dict(os.environ)
    # The stub is on loopback; never route to it through a configured proxy.
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class StageRun:
    stage: str
    exit_code: int
    wall_s: float
    maxrss_mb: float


def run_process(argv: list[str], cwd: Path, log_path: Path, stage: str) -> StageRun:
    """Run one child to completion; wall time and peak RSS from wait4."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(stage, proc.returncode, wall, usage.ru_maxrss / 1024.0)


class Stub:
    """The loopback chat endpoint process (perfbench/stub.py)."""

    def __init__(self, seed: int, cwd: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), "--fault-seed", str(seed)],
            cwd=cwd, env=_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        )
        line = self.proc.stdout.readline()
        if not line.strip():
            self.stop()
            raise RuntimeError("stub endpoint did not start")
        self.base = f"http://127.0.0.1:{int(line)}"

    _opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with self._opener.open(self.base + path, data=data, timeout=30) as resp:
            return json.loads(resp.read())

    def reset(self) -> None:
        self._call("/reset", b"{}")

    def stats(self) -> dict:
        return self._call("/stats")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ------------------------------------------------------------------ set-up


@dataclass
class Inputs:
    """Everything set-up produced for the chains."""

    dir: Path
    corpus: Path
    config: Path
    order: list[str]  # corpus doc ids in shard order
    high: set[str]  # ids planted in the high-quality stratum
    model: Path | None = None
    demos: Path | None = None
    setup_labels: Path | None = None
    stub: Stub | None = None


def write_config(path: Path, wl: Workload, seed: int, corpus: Path, work: Path,
                 endpoint: str = "") -> None:
    lines = [
        "[run]", f"seed = {seed}", f"output_root = {work / 'runs'}", "",
        "[corpus]", f"input_dir = {corpus}", f"sample_size = {wl.sample_size}", "",
        "[labeler]", "max_concurrent_requests = 2", "backoff_base = 0.01",
    ]
    if endpoint:
        lines += [f"endpoint_url = {endpoint}/v1/chat/completions", "model_name = stub-chat"]
    lines += ["", "[distiller]", "hash_bits = 18", "",
              "[selector]", f"workers = {WORKERS}", ""]
    path.write_text("\n".join(lines))


def setup(wl: Workload, seed: int, work: Path) -> Inputs:
    from docprune.corpus import write_shards
    from docprune.labeling import IclDemonstration, NO, YES, write_demonstrations
    from docprune.synthetic import SyntheticCorpusSpec, generate_documents, stratum_of

    work.mkdir(parents=True)
    spec = SyntheticCorpusSpec(
        n_docs=wl.n_docs, seed=seed, markers_per_doc=wl.markers_per_doc,
        doc_tokens_min=wl.doc_tokens[0], doc_tokens_max=wl.doc_tokens[1],
    )
    docs = generate_documents(spec)
    corpus = work / "corpus"
    write_shards(docs, corpus, -(-len(docs) // wl.n_shards))
    inputs = Inputs(
        dir=work, corpus=corpus, config=work / "run.ini",
        order=[d.id for d in docs], high={d.id for d in docs if stratum_of(d)},
    )
    if wl.endpoint:
        # Five answered paper-length demonstrations from a disjoint corpus.
        demo_docs = generate_documents(replace(spec, n_docs=100, seed=seed + 1_000_003))
        demos = [IclDemonstration(d.text[:6000], YES if stratum_of(d) else NO, "planted")
                 for d in demo_docs[:5]]
        inputs.demos = work / "demos.jsonl"
        write_demonstrations(demos, inputs.demos)
        inputs.stub = Stub(seed, work)
    write_config(inputs.config, wl, seed, corpus, work, inputs.stub.base if inputs.stub else "")
    if wl.model_in_setup:
        pre = work / "setup-run"
        argvs = [
            ["sample", "--n", str(wl.sample_size), "--out", str(pre / "sample")],
            ["label", "--mock", "--snippets", str(pre / "sample/snippets.jsonl"),
             "--out", str(pre / "label")],
            ["train", "--snippets", str(pre / "sample/snippets.jsonl"),
             "--labels", str(pre / "label/labels.jsonl"), "--out", str(pre / "train")],
        ]
        for argv in argvs:
            run = run_process(cli_argv(argv[0], argv[1:], inputs.config), work,
                              work / "setup.log", argv[0])
            if run.exit_code != 0:
                raise RuntimeError(f"set-up stage {argv[0]} exited {run.exit_code}")
        inputs.model = pre / "train/model.bin"
        inputs.setup_labels = pre / "label/labels.jsonl"
    return inputs


# ------------------------------------------------------------------ chains


def cli_argv(stage: str, args: list[str], config: Path) -> list[str]:
    return [sys.executable, "-m", "docprune.cli", stage, "--config", str(config), *args]


def stage_args(stage: str, wl: Workload, inputs: Inputs, out: Path, seed: int) -> list[str]:
    snippets = str(out / "sample/snippets.jsonl")
    labels = str(out / "label/labels.jsonl")
    model = str(inputs.model or out / "train/model.bin")
    corpus = str(inputs.corpus)
    args = {
        "sample": ["--input", corpus, "--n", str(wl.sample_size), "--seed", str(seed)],
        "label": ["--snippets", snippets]
        + (["--icl-demos", str(inputs.demos)] if wl.endpoint else ["--mock"]),
        "train": ["--snippets", snippets, "--labels", labels],
        "score": ["--input", corpus, "--model", model],
        "select": ["--scores", str(out / "score"), "--target-ratio", wl.target_ratio]
        + (["--labels", labels] if wl.target_ratio == "from-labels" else []),
        "filter": ["--input", corpus, "--scores", str(out / "score"),
                   "--decision", str(out / "select/decision.json")],
    }[stage]
    return args + ["--out", str(out / stage)]


@dataclass
class Chain:
    stages: list[StageRun]
    wall_s: float
    attempted: int
    failed: int
    quality: dict[str, float]
    spans: list[dict] | None = None
    stub_delta: dict | None = None


def run_chain(wl: Workload, inputs: Inputs, out: Path, seed: int, traced: bool) -> Chain:
    out.mkdir(parents=True)
    if inputs.stub:
        inputs.stub.reset()
        stub_before = inputs.stub.stats()
    runs: list[StageRun] = []
    t0 = time.perf_counter()
    for stage in wl.stages:
        args = stage_args(stage, wl, inputs, out, seed)
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), "--stage", stage,
                    "--spans", str(out / f"spans-{stage}.json"), "--", stage,
                    "--config", str(inputs.config), *args]
        else:
            argv = cli_argv(stage, args, inputs.config)
        runs.append(run_process(argv, inputs.dir, out / "stages.log", stage))
        if runs[-1].exit_code != 0:
            break
    wall = time.perf_counter() - t0
    chain = Chain(stages=runs, wall_s=wall, attempted=0, failed=0, quality={})
    if inputs.stub:
        after = inputs.stub.stats()
        chain.stub_delta = {k: after[k] - stub_before[k] for k in after}
    failed_stages = sum(1 for r in runs if r.exit_code != 0)
    chain.attempted = len(wl.stages)
    chain.failed = failed_stages + (len(wl.stages) - len(runs))
    if not chain.failed:
        try:
            ok, total = check_outputs(wl, inputs, out, chain.quality)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"check failed: unreadable stage output: {exc!r}", file=sys.stderr)
            ok, total = 0, 1
        chain.attempted += total
        chain.failed += total - ok
    if traced:
        chain.spans = [json.loads((out / f"spans-{s}.json").read_text())
                       for s in wl.stages if (out / f"spans-{s}.json").exists()]
    if chain.failed:
        sys.stderr.write((out / "stages.log").read_text(errors="replace")[-4000:])
    return chain


# ------------------------------------------------------------------ checks


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def check_outputs(wl: Workload, inputs: Inputs, out: Path, quality: dict) -> tuple[int, int]:
    """Verify a finished chain's files; returns (checks passed, checks made).

    Fills `quality` with kept-set precision/recall and label agreement.
    """
    from docprune.corpus import Snippet
    from docprune.labeling import YES
    from docprune.mocks import mock_label

    checks: list[bool] = []

    def check(ok: bool, what: str) -> None:
        checks.append(bool(ok))
        if not ok:
            print(f"check failed: {what}", file=sys.stderr)

    def agreement(labels: list[dict]) -> float:
        right = sum(1 for lb in labels if (lb["label"] == YES) == (lb["doc_id"] in inputs.high))
        return _ratio(right, len(labels))

    def precision_recall(kept: list[str], scope: set[str]) -> None:
        hits = sum(1 for d in kept if d in inputs.high)
        quality["kept_precision"] = _ratio(hits, len(kept))
        quality["kept_recall"] = _ratio(hits, len(scope & inputs.high))

    if "label" in wl.stages:
        snippets = _read_jsonl(out / "sample/snippets.jsonl")
        labels = _read_jsonl(out / "label/labels.jsonl")
        stats = json.loads((out / "label/label-stats.json").read_text())
        check(stats["labeled"] + stats["ambiguous_dropped"] + stats["transport_failures"]
              == stats["requested"] == len(snippets) and stats["labeled"] == len(labels),
              "labels + ambiguous + failures = snippets")
        by_id = {lb["doc_id"]: lb["label"] for lb in labels}
        verdicts = [by_id.get(s["doc_id"]) == mock_label(Snippet(**s)) for s in snippets]
        if wl.endpoint:
            # Each snippet is an operation: a missing or wrong label fails it.
            for i, ok in enumerate(verdicts):
                check(ok, f"label of snippet {snippets[i]['doc_id']} equals the mock verdict")
            yes = [lb["doc_id"] for lb in labels if lb["label"] == YES]
            precision_recall(yes, {s["doc_id"] for s in snippets})
        else:
            check(all(verdicts), "every label equals the mock verdict")
        quality["label_agreement"] = agreement(labels)
    elif inputs.setup_labels:
        quality["label_agreement"] = agreement(_read_jsonl(inputs.setup_labels))

    if "score" in wl.stages:
        rows = []
        for path in sorted((out / "score").glob("scores-*.jsonl")):
            rows.extend(_read_jsonl(path)[1:])
        ids = [r["doc_id"] for r in rows]
        check(sorted(ids) == sorted(inputs.order) and len(set(ids)) == len(ids),
              "score set has one row per corpus doc")
        check(all(0.0 < r["score"] < 1.0 for r in rows), "every score in (0, 1)")

    if "filter" in wl.stages:
        decision = json.loads((out / "select/decision.json").read_text())
        kept: list[str] = []
        for path in sorted((out / "filter").glob("*.jsonl"), key=str):
            kept.extend(r["id"] for r in _read_jsonl(path))
        check(decision["kept"] == len(kept), "decision.kept equals the filtered count")
        kept_set = set(kept)
        check(kept == [d for d in inputs.order if d in kept_set], "filtered docs keep input order")
        precision_recall(kept, set(inputs.order))
    return sum(checks), len(checks)


# ------------------------------------------------------------------ metrics


def provenance(args, wl: Workload) -> dict:
    import numpy
    from stub import DELAY_MS

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "stub_delay_ms": DELAY_MS if wl.endpoint else None,
        "workers": WORKERS,
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    # The ceiling keeps git from looking for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def startup_seconds(work: Path) -> float:
    argv = [sys.executable, "-c", "import docprune.cli"]
    times = [run_process(argv, work, work / "startup.log", "startup").wall_s
             for _ in range(STARTUP_REPEATS)]
    return statistics.median(times)


def mean_wall(chains: list[Chain]) -> float:
    # The run's total chain time over its chain count. Machine speed on a
    # shared host wanders over seconds, and the mean over a whole run evens
    # that out better than the median of its few chains.
    return statistics.fmean(c.wall_s for c in chains)


def end_to_end(wl: Workload, setup_times: list[float], chains: list[Chain]) -> dict[str, float]:
    done = [c for c in chains if not c.failed] or chains
    docs = wl.sample_size if wl.endpoint else wl.n_docs
    attempted = sum(c.attempted for c in chains)
    failed = sum(c.failed for c in chains)
    m = {
        "setup_s": statistics.median(setup_times),
        "wall_s": mean_wall(done),
        "docs_per_s": docs / mean_wall(done),
        "peak_rss_mb": statistics.median(max(r.maxrss_mb for r in c.stages) for c in done),
        "ok_ops_ratio": _ratio(attempted - failed, attempted),
    }
    for key in ("kept_precision", "kept_recall", "label_agreement"):
        m[key] = statistics.median(c.quality.get(key, 0.0) for c in done)
    return m


def per_layer(chains: list[Chain], traced: Chain, startup_s: float) -> dict[str, float]:
    from tracer import layer_metrics

    done = [c for c in chains if not c.failed] or chains
    m: dict[str, float] = {}
    for stage in ALL_STAGES:
        walls = [r.wall_s for c in done for r in c.stages if r.stage == stage]
        m[f"cli.{stage}.wall_s"] = statistics.median(walls) if walls else 0.0
    m["cli.startup_s"] = startup_s
    m.update(layer_metrics(traced.spans or []))
    delta = traced.stub_delta or {"requests": 0, "busy_s": 0.0}
    m["stub.requests"] = delta["requests"]
    m["stub.busy_s"] = delta["busy_s"]
    m["trace.overhead_s"] = traced.wall_s - mean_wall(done)
    return m


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="docprune benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every corpus for a quick smoke run")
    args = parser.parse_args(argv)

    if not (SRC / "docprune" / "cli.py").is_file():
        print(f"error: no docprune source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    if args.size == "tiny":
        wl = replace(wl, **TINY[args.workload])

    scratch = ROOT / ".perfbench-work"
    work = scratch / f"{args.workload}-{os.getpid()}"
    inputs_list: list[Inputs] = []
    try:
        setup_times: list[float] = []
        least, most = (1, 1) if args.trace else SETUP_REPEATS
        while len(setup_times) < least or (
                len(setup_times) < most and sum(setup_times) < SETUP_SECONDS):
            if inputs_list:
                if inputs_list[-1].stub:
                    inputs_list[-1].stub.stop()
                shutil.rmtree(inputs_list[-1].dir)
            t0 = time.perf_counter()
            inputs_list.append(setup(wl, args.seed, work / f"setup-{len(setup_times)}"))
            setup_times.append(time.perf_counter() - t0)
        print("set-up: " + " ".join(f"{t:.3f}" for t in setup_times) + " s", file=sys.stderr)
        inputs = inputs_list[-1]

        chains: list[Chain] = []
        t_start = time.perf_counter()
        # Start a chain only if a typical one still ends within --seconds.
        while not chains or (time.perf_counter() - t_start
                             + statistics.median(c.wall_s for c in chains) <= args.seconds):
            out = work / f"chain-{len(chains)}"
            chains.append(run_chain(wl, inputs, out, args.seed, traced=False))
            print(f"chain {len(chains)}: {chains[-1].wall_s:.3f} s ("
                  + " ".join(f"{r.stage}={r.wall_s:.3f}" for r in chains[-1].stages) + ")",
                  file=sys.stderr)
            shutil.rmtree(out)

        if args.trace:
            traced = run_chain(wl, inputs, work / "traced", args.seed, traced=True)
            metrics = per_layer(chains, traced, startup_seconds(work))
            all_chains = chains + [traced]
        else:
            metrics = end_to_end(wl, setup_times, chains)
            all_chains = chains
    finally:
        for inp in inputs_list:
            if inp.stub:
                inp.stub.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    attempted = sum(c.attempted for c in all_chains)
    failed = sum(c.failed for c in all_chains)
    # Names, order and units are those BENCHMARK.json declares.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    print("provenance " + json.dumps(provenance(args, wl), sort_keys=True))
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
