import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from docprune.config import load_config

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["pipeline-paper", "corpus-short", "label-endpoint"])
def test_benchmark_config_loads(workload, tmp_path, monkeypatch):
    """perfbench/run.py writes each workload's INI config; a key it sets that
    the config no longer knows must fail here, not only in a benchmark run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run

    wl = run.WORKLOADS[workload]
    endpoint = "http://127.0.0.1:8123" if wl.endpoint else ""
    path = tmp_path / "run.ini"
    run.write_config(path, wl, 1, tmp_path / "corpus", tmp_path, endpoint)
    config = load_config(path)
    assert config.selector.workers == 2
    assert config.distiller.featurizer.hash_bits == 18
    assert config.corpus.sample_size == wl.sample_size
    assert config.labeler.endpoint_url == (endpoint and endpoint + "/v1/chat/completions")


def test_traced_benchmark_run_passes_its_output_checks():
    """A tiny traced pipeline-paper run executes the tracer's hooks, which
    read the stage report objects, and run.py's checks of every stage
    output; a reshaped report or stage file must fail here, not only in a
    benchmark run."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline-paper", "--seed", "5",
         "--seconds", "0", "--trace", "1", "--size", "tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-4000:]
    outcome = json.loads(result.stdout.strip().splitlines()[-1])
    assert outcome["correct"] is True and outcome["failed"] == 0, outcome
    assert not (ROOT / ".perfbench-work").exists()
