"""Stages that never featurize start without numpy.

Only `docprune.classifier` uses numpy, and only inside the functions that
featurize, train, score or save and load a model. Each case runs in a fresh
interpreter, since this test process has numpy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import docprune
from docprune.cli import main
from docprune.synthetic import SyntheticCorpusSpec, generate_synthetic_corpus

SRC = Path(docprune.__file__).resolve().parent.parent

# Imports the module named first, runs `main` on any further arguments, then
# prints whether numpy is loaded.
PROBE = """
import importlib, sys
module = importlib.import_module(sys.argv[1])
if len(sys.argv) > 2:
    code = module.main(sys.argv[2:])
    assert code == 0, code
print("numpy" in sys.modules)
"""


def numpy_loaded(cwd, module, *argv):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, module, *map(str, argv)],
        cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip().splitlines()[-1] == "True"


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


@pytest.mark.parametrize("stage", [
    "sample", "label", "select-numeric", "select-from-labels", "filter",
])
def test_stage_leaves_numpy_unloaded(world, tmp_path, stage):
    argv = {
        "sample": ["sample", "--input", world / "corpus", "--n", 50],
        "label": ["label", "--mock", "--snippets", world / "sample" / "snippets.jsonl"],
        "select-numeric": ["select", "--scores", world / "score", "--target-ratio", 0.3],
        "select-from-labels": ["select", "--scores", world / "score",
                               "--target-ratio", "from-labels",
                               "--labels", world / "label" / "labels.jsonl"],
        "filter": ["filter", "--input", world / "corpus", "--scores", world / "score",
                   "--decision", world / "select" / "decision.json"],
    }[stage]
    assert not numpy_loaded(tmp_path, "docprune.cli", *argv, "--out", tmp_path / "out")


def test_score_loads_numpy(world, tmp_path):
    """The positive control: the probe sees numpy when a stage does load it."""
    assert numpy_loaded(tmp_path, "docprune.cli", "score", "--input", world / "corpus",
                        "--model", world / "train" / "model.bin", "--out", tmp_path / "out")
