"""Stages that never featurize start without numpy, stages that never
fork start without the process pool, the labeler never loads `requests`, and
only the commands that use the sweeps or the mock labelers load them.

Only `docprune.classifier` uses numpy, and only inside the functions that
featurize, train, score or save and load a model. Only `score` with more
than one worker and more than one shard imports `multiprocessing`. The
endpoint labeler speaks HTTP through the standard library. `import docprune`
loads no submodule, `docprune.ablation` is loaded only by `ablate`, and
`docprune.mocks` and the planted-corpus generator `docprune.synthetic` only by
`ablate` and `label --mock`. Each case runs in a fresh interpreter, since this
test process has these modules loaded already.
"""

import itertools
import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import docprune
from docprune.cli import main
from docprune.corpus import write_shards
from docprune.synthetic import SyntheticCorpusSpec, generate_documents

SRC = Path(docprune.__file__).resolve().parent.parent
POOL = ("multiprocessing", "concurrent.futures.process")
HTTP_LIBRARIES = ("requests", "urllib3")
# The sweeps, the mock labelers, and the planted-corpus generator that both import.
SWEEPS_AND_MOCKS = {"docprune.ablation", "docprune.mocks", "docprune.synthetic"}

# Imports the module named first, runs `main` on any further arguments, then
# prints which of numpy, the process pool's modules and the third-party HTTP
# libraries are loaded, and every docprune submodule that is.
PROBE = """
import importlib, json, sys
module = importlib.import_module(sys.argv[1])
if len(sys.argv) > 2:
    code = module.main(sys.argv[2:])
    assert code == 0, code
names = ("numpy", "multiprocessing", "concurrent.futures.process", "requests", "urllib3")
print(json.dumps([name for name in sys.modules
                  if name in names or name.startswith("docprune.")]))
"""


def loaded(cwd, module, *argv):
    """The names among numpy, POOL, HTTP_LIBRARIES and the docprune
    submodules loaded after the run."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, module, *map(str, argv)],
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def numpy_loaded(cwd, module, *argv):
    return "numpy" in loaded(cwd, module, *argv)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A 200-doc corpus and the stage files of one mock run over it."""
    tmp = tmp_path_factory.mktemp("startup")
    write_shards(generate_documents(SyntheticCorpusSpec(n_docs=200, seed=3)), tmp / "corpus", 50)

    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    run("sample", "--input", tmp / "corpus", "--n", 100, "--out", tmp / "sample")
    run("label", "--mock", "--snippets", tmp / "sample" / "snippets.jsonl", "--out", tmp / "label")
    run("train", "--snippets", tmp / "sample" / "snippets.jsonl",
        "--labels", tmp / "label" / "labels.jsonl", "--hash-bits", 10, "--out", tmp / "train")
    run("score", "--input", tmp / "corpus", "--model", tmp / "train" / "model.bin",
        "--out", tmp / "score")
    run("select", "--scores", tmp / "score", "--target-ratio", 0.25, "--out", tmp / "select")
    return tmp


@pytest.mark.parametrize("module", ["docprune", "docprune.cli"])
def test_import_leaves_numpy_unloaded(tmp_path, module):
    assert not numpy_loaded(tmp_path, module)


def test_import_docprune_loads_no_submodule(tmp_path):
    assert not {name for name in loaded(tmp_path, "docprune") if name.startswith("docprune.")}


def stage_argv(world, stage):
    return {
        "sample": ["sample", "--input", world / "corpus", "--n", 50],
        "label": ["label", "--mock", "--snippets", world / "sample" / "snippets.jsonl"],
        "train": ["train", "--snippets", world / "sample" / "snippets.jsonl",
                  "--labels", world / "label" / "labels.jsonl", "--hash-bits", 10],
        "select-numeric": ["select", "--scores", world / "score", "--target-ratio", 0.3],
        "select-from-labels": ["select", "--scores", world / "score",
                               "--target-ratio", "from-labels",
                               "--labels", world / "label" / "labels.jsonl"],
        "filter": ["filter", "--input", world / "corpus", "--scores", world / "score",
                   "--decision", world / "select" / "decision.json"],
        "score-1-worker": ["score", "--input", world / "corpus",
                           "--model", world / "train" / "model.bin", "--workers", 1],
        "score-2-workers": ["score", "--input", world / "corpus",
                            "--model", world / "train" / "model.bin", "--workers", 2],
    }[stage]


@pytest.mark.parametrize("stage", [
    "sample", "label", "select-numeric", "select-from-labels", "filter",
])
def test_stage_leaves_numpy_unloaded(world, tmp_path, stage):
    argv = stage_argv(world, stage)
    assert not numpy_loaded(tmp_path, "docprune.cli", *argv, "--out", tmp_path / "out")


def test_import_leaves_the_process_pool_unloaded(tmp_path):
    assert not loaded(tmp_path, "docprune.cli") & set(POOL)


@pytest.mark.parametrize("stage", [
    "sample", "label", "select-numeric", "filter", "score-1-worker",
])
def test_serial_stage_leaves_the_process_pool_unloaded(world, tmp_path, stage):
    argv = stage_argv(world, stage)
    assert not loaded(tmp_path, "docprune.cli", *argv, "--out", tmp_path / "out") & set(POOL)


def test_score_with_two_workers_loads_the_process_pool(world, tmp_path):
    """The positive control: a corpus of several shards forks its workers."""
    assert len(list((world / "corpus").glob("*.jsonl"))) >= 2
    argv = stage_argv(world, "score-2-workers")
    assert set(POOL) <= loaded(tmp_path, "docprune.cli", *argv, "--out", tmp_path / "out")


@pytest.mark.parametrize("stage", [
    "sample", "train", "score-1-worker", "select-numeric", "filter",
])
def test_stage_leaves_the_sweeps_and_mocks_unloaded(world, tmp_path, stage):
    argv = stage_argv(world, stage)
    assert not loaded(tmp_path, "docprune.cli", *argv, "--out", tmp_path / "out") & (
        SWEEPS_AND_MOCKS)


def test_mock_label_loads_the_mocks_but_not_the_sweeps(world, tmp_path):
    """The positive control: the probe sees a docprune module a stage loads."""
    argv = stage_argv(world, "label")
    names = loaded(tmp_path, "docprune.cli", *argv, "--out", tmp_path / "out")
    assert {"docprune.mocks", "docprune.synthetic"} <= names
    assert "docprune.ablation" not in names


def test_score_loads_numpy(world, tmp_path):
    """The positive control: the probe sees numpy when a stage does load it."""
    assert numpy_loaded(tmp_path, "docprune.cli", "score", "--input", world / "corpus",
                        "--model", world / "train" / "model.bin", "--out", tmp_path / "out")


class _Chat(BaseHTTPRequestHandler):
    """A keep-alive chat-completion endpoint that answers Yes and No in turn."""

    protocol_version = "HTTP/1.1"
    answers = itertools.cycle(["Yes", "No"])

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        data = json.dumps({"choices": [{"message": {"content": next(self.answers)}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_endpoint():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Chat)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()
    server.server_close()


def test_endpoint_label_leaves_requests_unloaded(world, tmp_path, chat_endpoint):
    """It leaves the sweeps and the mocks unloaded too."""
    argv = ["label", "--snippets", world / "sample" / "snippets.jsonl",
            "--endpoint-url", chat_endpoint, "--model-name", "chat"]
    names = loaded(tmp_path, "docprune.cli", *argv, "--out", tmp_path / "out")
    assert not names & set(HTTP_LIBRARIES)
    assert not names & SWEEPS_AND_MOCKS
    stats = json.loads((tmp_path / "out" / "label-stats.json").read_text())
    assert stats["labeled"] == stats["requested"] > 0  # every snippet went over HTTP
