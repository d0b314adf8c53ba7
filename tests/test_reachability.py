"""src/ holds only what a command runs.

`probe` runs every docprune command, through `cli.main`, in one fresh
interpreter on a small world: plain and gzip shards, one document with no
planted marker, a corpus that repeats an id, and a loopback chat endpoint and
an always-500 one, which the test serves. Its profiler is installed before
`import docprune`, on this thread and on every thread started later, so
import-time calls and the labeling threads count. A function of src/ (by `module:qualname`, from the
source's syntax tree) that no run reaches fails the test, unless ALLOWLIST
names it with the reason it stays.

Run the probe alone with `python tests/test_reachability.py WORLD OUT
CHAT_URL FAILING_URL` on a world that `make_world(WORLD)` wrote; it writes
the reached names to OUT.
"""

import ast
import gzip
import inspect
import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "docprune"

# A function no run reaches, and why it stays. A (file, text) reason is a pin
# of the benchmark harness: the text must appear in perfbench/<file>, and the
# entry goes when the benchmark stops using the name.
ALLOWLIST = {
    # perfbench/tracer.py wraps the one-text featurizer views by name; ROADMAP
    # item 1 re-spans the tracer and deletes them.
    "classifier:hash_counts": ("tracer.py", '"hash_counts"'),
    "classifier:project_counts": ("tracer.py", '"project_counts"'),
    "classifier:featurize_text": ("tracer.py", '"featurize_text"'),
    # featurize_text's dict view of a row; goes with featurize_text.
    "classifier:FeatureBatch.row": ("tracer.py", '"featurize_text"'),
    # The one-snippet score; the tracer wraps it as selection.score.
    "classifier:score": ("tracer.py", 'selection, "score"'),
    # perfbench/run.py writes its corpora and demonstrations with these, and
    # takes its ground-truth labels from mock_label.
    "corpus:write_shards": ("run.py", "import write_shards"),
    "labeling:write_demonstrations": ("run.py", "write_demonstrations"),
    "mocks:mock_label": ("run.py", "import mock_label"),
    # perfbench/stub.py keys its injected faults by a prompt's query text.
    "mocks:query_snippet": ("stub.py", "query_snippet"),
    # Run only inside `score`'s forked workers, whose calls this process's
    # profiler cannot see.
    "selection:_set_shard_call": "forked-worker initializer",
    "selection:_call_shard": "forked-worker callable",
    # A Protocol method: a type's declaration; its body never runs.
    "labeling:Transport.complete": "Protocol stub",
}


def src_functions() -> set[str]:
    """`module:qualname` of every function and method defined in src/docprune;
    a function nested in a function is `outer.<locals>.inner`, as Python
    names its code."""
    names = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(f"{module}:{prefix}{child.name}")
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return names


# ------------------------------------------------------------------ the world

HIGH = "hqmark1 theory proof"
LOW = "lqmark2 click here"
UNMARKED = "theoretical frameworks underpinning quantitative analysis"


def _doc(i: int) -> dict:
    marker = UNMARKED if i == 0 else HIGH if i % 2 else LOW
    return {"id": f"d{i:02d}", "text": f"{marker} document {i} " + "filler words " * (i % 5)}


def make_world(world: Path) -> None:
    """Corpus (one plain and one gzip shard), a corpus that repeats an id,
    five demonstrations and the config every run reads."""
    (world / "corpus").mkdir(parents=True)
    lines = [json.dumps(_doc(i)) + "\n" for i in range(40)]
    (world / "corpus" / "a.jsonl").write_text("".join(lines[:20]))
    with gzip.open(world / "corpus" / "b.jsonl.gz", "wt") as fh:
        fh.write("".join(lines[20:]))
    (world / "dup").mkdir()
    for name in ("a.jsonl", "b.jsonl"):
        (world / "dup" / name).write_text(json.dumps({"id": "same", "text": "text"}) + "\n")
    demos = [{"snippet_text": f"{HIGH if i % 2 else LOW} demo {i}", "label": "Yes" if i % 2
              else "No", "source_labeler": "strong"} for i in range(5)]
    (world / "demos.jsonl").write_text("".join(json.dumps(d) + "\n" for d in demos))
    (world / "probe.ini").write_text(
        "[corpus]\nstrict = true\n"
        "[labeler]\nmax_retries = 0\n"
        "[distiller]\nhash_bits = 12\n"
    )


class _Chat(BaseHTTPRequestHandler):
    """Answers Yes to a prompt whose query holds a high marker, else No."""

    protocol_version = "HTTP/1.1"
    status = 200

    def do_POST(self):
        prompt = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        query = prompt["messages"][0]["content"].rpartition("[Document]")[2]
        answer = "Yes" if "hqmark" in query else "No"
        data = json.dumps({"choices": [{"message": {"content": answer}}]}).encode()
        self.send_response(self.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _Failing(_Chat):
    status = 500


# ------------------------------------------------------------------ the probe

# (argv, expected exit code); paths are relative to the world, outputs land in it.
RUNS = [
    (["sample", "--input", "corpus", "--out", "sample"], 0),
    (["label", "--snippets", "sample/snippets.jsonl", "--mock", "--out", "label"], 0),
    (["label", "--snippets", "sample/snippets.jsonl", "--icl-demos", "demos.jsonl",
      "--endpoint-url", "{chat}", "--model-name", "chat", "--out", "label-http"], 0),
    (["train", "--snippets", "sample/snippets.jsonl", "--labels", "label/labels.jsonl",
      "--out", "train"], 0),
    (["score", "--input", "corpus", "--model", "train/model.bin", "--workers", "1",
      "--out", "score"], 0),
    (["score", "--input", "corpus", "--model", "train/model.bin", "--workers", "2",
      "--out", "score-2"], 0),
    (["select", "--scores", "score", "--target-ratio", "0.25", "--out", "select"], 0),
    (["select", "--scores", "score", "--target-ratio", "from-labels",
      "--labels", "label/labels.jsonl", "--out", "select-labels"], 0),
    (["filter", "--input", "corpus", "--scores", "score", "--decision",
      "select/decision.json", "--out", "filter"], 0),
    *((["ablate", "--sweep", sweep, "--out", f"ablate-{sweep}"], 0)
      for sweep in ("ratio", "capacity", "prompt", "icl")),
    (["label", "--snippets", "sample/snippets.jsonl", "--endpoint-url", "{failing}",
      "--model-name", "chat", "--out", "label-500"], 4),
    (["score", "--input", "dup", "--model", "train/model.bin", "--out", "score-dup"], 5),
]


def probe(world: Path, out: Path, urls: dict[str, str]) -> None:
    """Run RUNS on `world` through `cli.main`, with the endpoints `urls`;
    write the reached `src/` functions and each run's exit code to `out` as
    JSON."""
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    from docprune import ablation, cli

    # The sweeps' world, shrunk: the probe needs their code paths, not their sizes.
    sizes = {"N_DOCS": 1000, "SAMPLE_SIZE": 100, "SEEDS": (0,), "HASH_BITS_LIST": (8, 10)}
    for name, value in sizes.items():
        setattr(ablation, name, value)
    os.chdir(world)
    exits = [cli.main([a.format(**urls) for a in argv + ["--config", "probe.ini"]])
             for argv, _ in RUNS]
    sys.setprofile(None)
    threading.setprofile(None)
    src = str(SRC.resolve())
    # Module and class bodies (no CO_NEWLOCALS), comprehensions and lambdas
    # (`<genexpr>`, ...) are not functions of the syntax tree.
    names = {f"{Path(c.co_filename).stem}:{c.co_qualname}" for c in reached
             if os.path.dirname(os.path.realpath(c.co_filename)) == src
             and c.co_flags & inspect.CO_NEWLOCALS
             and not c.co_qualname.rpartition(".")[2].startswith("<")}
    out.write_text(json.dumps({"exits": exits, "reached": sorted(names)}))


def test_every_src_function_is_reached_by_a_command(tmp_path):
    world = tmp_path / "world"
    make_world(world)
    result_path = tmp_path / "reached.json"
    env = {k: v for k, v in os.environ.items() if k.lower() not in ("http_proxy", "https_proxy")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # Served from this process, so that the probe has no thread of its own
    # alive when `score` forks its workers.
    servers = [ThreadingHTTPServer(("127.0.0.1", 0), handler) for handler in (_Chat, _Failing)]
    for server in servers:
        threading.Thread(target=server.serve_forever, daemon=True).start()
    urls = [f"http://127.0.0.1:{s.server_address[1]}/v1/chat/completions" for s in servers]
    try:
        proc = subprocess.run([sys.executable, __file__, str(world), str(result_path), *urls],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(result_path.read_text())
    assert result["exits"] == [code for _, code in RUNS], proc.stderr[-3000:]

    defined, reached = src_functions(), set(result["reached"])
    assert reached <= defined, f"names the syntax tree does not give: {reached - defined}"
    # An allowlisted function's nested functions stay with it.
    unreached = sorted(n for n in defined - reached if n.split(".<locals>.")[0] not in ALLOWLIST)
    assert not unreached, (
        f"src/ functions no command reaches: {unreached}; delete them, move them into "
        f"tests/, or give each an ALLOWLIST line saying why it stays"
    )
    assert not reached & ALLOWLIST.keys(), (
        f"allowlisted but reached: {sorted(reached & ALLOWLIST.keys())}; drop their lines"
    )
    assert ALLOWLIST.keys() <= defined, f"allowlisted but gone: {ALLOWLIST.keys() - defined}"


def test_allowlist_pins_name_what_the_benchmark_uses():
    assert len(ALLOWLIST) <= 12
    for name, reason in ALLOWLIST.items():
        if isinstance(reason, tuple):
            file, text = reason
            assert text in (ROOT / "perfbench" / file).read_text(encoding="utf-8"), (
                f"{name}: perfbench/{file} no longer holds {text!r}; drop the ALLOWLIST line"
            )


if __name__ == "__main__":
    probe(Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve(),
          {"chat": sys.argv[3], "failing": sys.argv[4]})
