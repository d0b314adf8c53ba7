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
