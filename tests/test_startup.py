"""Stages that never featurize start without numpy, and stages that never
fork start without the process pool.

Only `docprune.classifier` uses numpy, and only inside the functions that
featurize, train, score or save and load a model. Only `score` with more
than one worker and more than one shard imports `multiprocessing`. Each case
runs in a fresh interpreter, since this test process has these modules
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import docprune
from docprune.cli import main
from docprune.synthetic import SyntheticCorpusSpec, generate_synthetic_corpus

SRC = Path(docprune.__file__).resolve().parent.parent
POOL = ("multiprocessing", "concurrent.futures.process")

# Imports the module named first, runs `main` on any further arguments, then
# prints which of numpy and the process pool's modules are loaded.
PROBE = """
import importlib, json, sys
module = importlib.import_module(sys.argv[1])
if len(sys.argv) > 2:
    code = module.main(sys.argv[2:])
    assert code == 0, code
names = ("numpy", "multiprocessing", "concurrent.futures.process")
print(json.dumps([name for name in names if name in sys.modules]))
"""


def loaded(cwd, module, *argv):
    """The names among numpy and POOL that are loaded after the run."""
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
    generate_synthetic_corpus(SyntheticCorpusSpec(n_docs=200, seed=3), tmp / "corpus")

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


def stage_argv(world, stage):
    return {
        "sample": ["sample", "--input", world / "corpus", "--n", 50],
        "label": ["label", "--mock", "--snippets", world / "sample" / "snippets.jsonl"],
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


def test_score_loads_numpy(world, tmp_path):
    """The positive control: the probe sees numpy when a stage does load it."""
    assert numpy_loaded(tmp_path, "docprune.cli", "score", "--input", world / "corpus",
                        "--model", world / "train" / "model.bin", "--out", tmp_path / "out")
