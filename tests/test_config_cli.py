import configparser
import gzip
import json
import logging
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from docprune import selection
from docprune.classifier import (
    FeaturizerConfig, QualityClassifier, TrainConfig, load_model, save_model,
)
from docprune.cli import COMMANDS, COMMON, main
from docprune.config import SWEEPS, ConfigError, load_config, write_resolved_config
from docprune.labeling import LabelerConfig
from docprune.corpus import (
    Shard, ShardSet, Snippet, ingest_shards, read_json, read_records, write_shards,
)
from docprune.labeling import DegenerateLabelerWarning, QualityLabel
from docprune.selection import Manifest, ScoreSet, SelectionDecision
from docprune.synthetic import SyntheticCorpusSpec, generate_documents, stratum_of


class TestConfigFile:
    def test_defaults_without_file(self):
        config = load_config(None)
        assert config.run.seed == 0
        assert config.labeler.temperature == 0.2
        assert config.distiller.featurizer.ngram_orders == (1, 2, 3)
        assert config.selector.target_ratio == 0.25

    def test_file_values_parsed(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[run]\nseed = 11\n\n"
            "[labeler]\ntemperature = 0.7\nmock = true\n\n"
            "[distiller]\nhash_bits = 12\nngram_orders = 1, 2\n\n"
            "[selector]\ntarget_ratio = from-labels\n"
        )
        config = load_config(cfg)
        assert config.run.seed == 11
        assert config.labeler.temperature == 0.7
        assert config.labeler.mock is True
        assert config.distiller.featurizer.hash_bits == 12
        assert config.distiller.featurizer.ngram_orders == (1, 2)
        assert config.selector.target_ratio == "from-labels"

    def test_readme_config_loads(self, tmp_path):
        """The README's minimal config must keep loading as the keys change."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (tmp_path / "run.ini").write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        config = load_config(tmp_path / "run.ini")
        assert config.labeler.model_name == "my-chat-model"
        assert config.distiller.featurizer.hash_bits == 18
        assert (config.selector.target_ratio, config.selector.workers) == ("from-labels", 4)

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[labeler]\nnot_a_key = 1\n")
        with pytest.raises(ConfigError, match="not_a_key"):
            load_config(cfg)

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            load_config(cfg)

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nseed = banana\n")
        with pytest.raises(ConfigError, match="seed"):
            load_config(cfg)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_resolved_snapshot_roundtrips(self, tmp_path):
        config = load_config(None)
        config.run.seed = 42
        config.distiller.featurizer = replace(config.distiller.featurizer, ngram_orders=(1, 2))
        out = tmp_path / "resolved.ini"
        write_resolved_config(config, out)
        back = load_config(out)
        assert back.run.seed == 42
        assert back == config

    def test_sections_are_the_stage_configs(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[labeler]\nmodel_name = m\n\n[distiller]\nhash_bits = 12\nepochs = 4\n")
        config = load_config(cfg, {("distiller", "val_fraction"): "0.2"})
        assert config.labeler == LabelerConfig(model_name="m")
        assert config.distiller == TrainConfig(
            featurizer=FeaturizerConfig(hash_bits=12), val_fraction=0.2, epochs=4
        )

    @pytest.mark.parametrize("key, value, section", [
        (("selector", "target_ratio"), "1.5", "selector"),
        (("selector", "target_ratio"), "0", "selector"),
        (("labeler", "prompt_version"), "v9", "labeler"),
        (("distiller", "hash_bits"), "30", "distiller"),
        (("distiller", "batch_size"), "0", "distiller"),
        (("corpus", "chars_per_token"), "0", "corpus"),
    ])
    def test_bad_override_names_its_section(self, key, value, section):
        with pytest.raises(ConfigError, match=rf"\[{section}\]"):
            load_config(None, {key: value})


def table_flags(command):
    return [*COMMON, *COMMANDS[command].flags]


class TestCommandTable:
    """`cli.COMMANDS` declares each flag once; these checks run for every
    flag of every command, not only when someone passes one."""

    def test_override_dests_are_config_keys(self, tmp_path):
        write_resolved_config(load_config(), tmp_path / "defaults.ini")
        defaults = configparser.ConfigParser(interpolation=None)
        defaults.read(tmp_path / "defaults.ini", encoding="utf-8")
        dests = {keywords.get("dest", "") for command in COMMANDS
                 for _, keywords in table_flags(command)}
        overrides = sorted(dest for dest in dests if "." in dest)
        assert len(overrides) == 11
        for dest in overrides:
            section, key = dest.split(".")
            assert defaults.has_option(section, key), dest
            load_config(None, {(section, key): defaults[section][key]})

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_lists_the_command_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exited:
            main([command, "--help"])
        assert exited.value.code == 0
        text = capsys.readouterr().out
        for flag, _ in table_flags(command):
            assert re.search(rf"^ +{flag}(?=[ ,\n])", text, re.M), flag


class TestSectionsMatchLibrary:
    def test_bad_temperature_exits_2(self, tmp_path):
        snippets = tmp_path / "snippets.jsonl"
        snippets.write_text("")
        cfg = tmp_path / "run.ini"
        cfg.write_text("[labeler]\ntemperature = -1\nmock = true\n")
        assert run_cli("label", "--config", cfg, "--snippets", snippets,
                       "--out", tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting", [
        "max_retries = -1", "backoff_base = -0.5", "request_timeout = 0",
    ])
    def test_bad_retry_setting_exits_2(self, tmp_path, capsys, setting):
        snippets = tmp_path / "snippets.jsonl"
        snippets.write_text("")
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[labeler]\n{setting}\nmock = true\n")
        assert run_cli("label", "--config", cfg, "--snippets", snippets,
                       "--out", tmp_path / "out") == 2
        assert setting.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def pipeline_world(tmp_path_factory):
    """A synthetic corpus on disk plus a config file pointing at it."""
    tmp = tmp_path_factory.mktemp("cli")
    corpus = tmp / "corpus"
    write_shards(
        generate_documents(SyntheticCorpusSpec(n_docs=1000, high_quality_fraction=0.25, seed=31)),
        corpus,
        250,
    )
    cfg = tmp / "run.ini"
    cfg.write_text(
        f"[run]\nseed = 7\noutput_root = {tmp / 'runs'}\n\n"
        f"[corpus]\ninput_dir = {corpus}\nsample_size = 600\n\n"
        "[labeler]\nmock = true\n\n"
        "[distiller]\nhash_bits = 14\n"
    )
    return tmp, corpus, cfg


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestCliPipeline:
    def test_full_pipeline(self, pipeline_world):
        tmp, corpus, cfg = pipeline_world
        sample_dir = tmp / "out-sample"
        assert run_cli("sample", "--config", cfg, "--out", sample_dir) == 0
        assert (sample_dir / "sampled-docs.jsonl").exists()
        assert (sample_dir / "snippets.jsonl").exists()
        assert (sample_dir / "resolved-config.ini").exists()
        summary = json.loads((sample_dir / "run-summary.json").read_text())
        assert summary["input_documents"] == 1000
        assert summary["shards"] == 4

        label_dir = tmp / "out-label"
        assert run_cli(
            "label", "--config", cfg, "--snippets", sample_dir / "snippets.jsonl",
            "--out", label_dir,
        ) == 0
        labels = list(read_records(label_dir / "labels.jsonl", QualityLabel))
        assert len(labels) == 600
        stats = json.loads((label_dir / "label-stats.json").read_text())
        assert abs(stats["yes_fraction"] - 0.25) < 0.06

        train_dir = tmp / "out-train"
        assert run_cli(
            "train", "--config", cfg,
            "--snippets", sample_dir / "snippets.jsonl",
            "--labels", label_dir / "labels.jsonl",
            "--out", train_dir,
        ) == 0
        report = json.loads((train_dir / "training-report.json").read_text())
        assert report["val_f1"] >= 0.95
        assert report["train_size"] + report["val_size"] == 600

        score_dir = tmp / "out-score"
        assert run_cli(
            "score", "--config", cfg, "--model", train_dir / "model.bin",
            "--workers", 2, "--out", score_dir,
        ) == 0
        assert len(list(score_dir.glob("scores-*.jsonl"))) == 4

        select_dir = tmp / "out-select"
        assert run_cli(
            "select", "--config", cfg, "--scores", score_dir,
            "--target-ratio", "from-labels", "--labels", label_dir / "labels.jsonl",
            "--out", select_dir,
        ) == 0
        decision = json.loads((select_dir / "decision.json").read_text())
        assert decision["target_ratio"] == stats["yes_fraction"]

        filter_dir = tmp / "out-filter"
        assert run_cli(
            "filter", "--config", cfg, "--scores", score_dir,
            "--decision", select_dir / "decision.json", "--out", filter_dir,
        ) == 0
        manifest = read_json(filter_dir / "filter-manifest.json", Manifest)
        kept_docs = list(ingest_shards(ShardSet.from_dir(filter_dir)))
        assert len(kept_docs) == manifest.output_documents == decision["kept"]
        precision = sum(1 for d in kept_docs if stratum_of(d)) / len(kept_docs)
        assert precision >= 0.9

    def test_sample_rerun_identical(self, pipeline_world):
        tmp, corpus, cfg = pipeline_world
        a, b = tmp / "rs-a", tmp / "rs-b"
        assert run_cli("sample", "--config", cfg, "--out", a) == 0
        assert run_cli("sample", "--config", cfg, "--out", b) == 0
        assert (a / "snippets.jsonl").read_bytes() == (b / "snippets.jsonl").read_bytes()
        assert (a / "sampled-docs.jsonl").read_bytes() == (b / "sampled-docs.jsonl").read_bytes()

    def test_prompt_version_tagging(self, pipeline_world):
        tmp, corpus, cfg = pipeline_world
        sample_dir = tmp / "pv-sample"
        run_cli("sample", "--config", cfg, "--out", sample_dir, "--n", 50)
        label_dir = tmp / "pv-label"
        assert run_cli(
            "label", "--config", cfg, "--snippets", sample_dir / "snippets.jsonl",
            "--prompt-version", "v2", "--out", label_dir,
        ) == 0
        labels = list(read_records(label_dir / "labels.jsonl", QualityLabel))
        assert {l.prompt_version for l in labels} == {"V2"}

    def test_clamped_sample_size(self, pipeline_world):
        tmp, corpus, cfg = pipeline_world
        out = tmp / "clamp"
        assert run_cli("sample", "--config", cfg, "--out", out, "--n", 5000) == 0
        docs = (out / "sampled-docs.jsonl").read_text().splitlines()
        assert len(docs) == 1000

    def test_single_class_labels_exit_degenerate(self, pipeline_world, tmp_path):
        tmp, corpus, cfg = pipeline_world
        sample_dir = tmp / "deg-sample"
        run_cli("sample", "--config", cfg, "--out", sample_dir, "--n", 60)
        snippets_file = sample_dir / "snippets.jsonl"
        labels_file = tmp_path / "labels.jsonl"
        with open(labels_file, "w") as fh:
            for line in open(snippets_file):
                doc_id = json.loads(line)["doc_id"]
                fh.write(json.dumps({
                    "doc_id": doc_id, "label": "Yes", "prompt_version": "V1",
                    "labeler_id": "m", "raw_response": "Yes", "icl_shots": 0,
                }) + "\n")
        code = run_cli(
            "train", "--config", cfg, "--snippets", snippets_file,
            "--labels", labels_file, "--out", tmp_path / "train",
        )
        assert code == 5

    def test_endpoint_down_exits_4_with_partial_labels(self, pipeline_world, tmp_path):
        tmp, corpus, cfg = pipeline_world
        sample_dir = tmp / "down-sample"
        run_cli("sample", "--config", cfg, "--out", sample_dir, "--n", 30)
        bad_cfg = tmp_path / "down.ini"
        bad_cfg.write_text(
            f"[corpus]\ninput_dir = {corpus}\n\n"
            "[labeler]\nendpoint_url = http://127.0.0.1:9\nmax_retries = 0\n"
            "request_timeout = 0.3\nbackoff_base = 0.01\n"
        )
        out = tmp_path / "label"
        code = run_cli(
            "label", "--config", bad_cfg, "--snippets", sample_dir / "snippets.jsonl",
            "--out", out,
        )
        assert code == 4
        assert (out / "labels.jsonl").exists() and (out / "label-stats.json").exists()

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[labeler]\nbogus = 1\n")
        assert run_cli("sample", "--config", cfg) == 2

    def test_missing_corpus_exits_3(self, tmp_path):
        assert run_cli("sample", "--input", tmp_path / "nope") == 3

    def test_failed_input_validation_writes_no_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("sample", "--input", tmp_path / "nope") == 3
        assert not (tmp_path / "runs").exists()

    def test_failed_train_and_label_write_no_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        snippets = tmp_path / "snippets.jsonl"
        snippets.write_text(json.dumps({
            "doc_id": "a", "text": "some text", "char_start": 0, "char_end": 9,
            "approx_token_budget": 1500,
        }) + "\n")
        labels = tmp_path / "labels.jsonl"
        labels.write_text(json.dumps({
            "doc_id": "b", "label": "Yes", "prompt_version": "V1",
            "labeler_id": "x", "raw_response": "Yes",
        }) + "\n")
        # A label without a matching snippet, and HTTP labeling without an endpoint.
        assert run_cli("train", "--snippets", snippets, "--labels", labels) == 3
        assert run_cli("label", "--snippets", snippets) == 2
        assert not (tmp_path / "runs").exists()

    def test_repeated_doc_id_exits_5(self, tmp_path, capsys):
        from conftest import corpus_dir

        corpus = corpus_dir(tmp_path, {
            "s0.jsonl": [{"id": "a", "text": "one text"}, {"id": "dup", "text": "two"}],
            "s1.jsonl": [{"id": "dup", "text": "three"}, {"id": "b", "text": "four"}],
        }).shards[0].path.parent
        config = FeaturizerConfig(hash_bits=8)
        weights = np.random.default_rng(0).normal(0, 1, config.dim)
        save_model(QualityClassifier(config, weights, 0.0, {}), tmp_path / "model.bin")
        scores = tmp_path / "scores"
        assert run_cli("score", "--input", corpus, "--model", tmp_path / "model.bin",
                       "--out", scores) == 5
        assert "'dup' is scored 2 times, in shards s0.jsonl, s1.jsonl" in capsys.readouterr().err
        # `score` published nothing, so the repeated-id score set is written by hand.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "model.bin"]
        scores.mkdir()
        for name, ids in (("s0", ["a", "dup"]), ("s1", ["dup", "b"])):
            jsonl(scores / f"scores-{name}.jsonl",
                  [{**HEADER, "source_shard": f"{name}.jsonl", "rows": 2}]
                  + [{"doc_id": doc_id, "score": 0.5} for doc_id in ids])
        assert run_cli("select", "--scores", scores, "--target-ratio", 0.5,
                       "--out", tmp_path / "select") == 5
        assert "'dup' is scored 2 times, in shards s0.jsonl, s1.jsonl" in capsys.readouterr().err
        assert not (tmp_path / "select").exists()
        decision = tmp_path / "decision.json"
        decision.write_text(json.dumps({
            "cutoff": 0.5, "target_ratio": 0.5, "achieved_ratio": 0.5, "kept": 2,
            "dropped": 2,
        }))
        assert run_cli("filter", "--input", corpus, "--scores", scores,
                       "--decision", decision, "--out", tmp_path / "filter") == 5
        assert "'dup'" in capsys.readouterr().err
        assert not (tmp_path / "filter").exists()

    def test_empty_text_document_is_dropped_by_filter(self, tmp_path):
        corpus = tmp_path / "corpus"
        write_shards(
            generate_documents(SyntheticCorpusSpec(n_docs=400, high_quality_fraction=0.25, seed=5)),
            corpus,
            100,
        )
        with open(corpus / "shard-00000.jsonl", "a") as fh:
            fh.write(json.dumps({"id": "empty-1", "text": ""}) + "\n")
        out = tmp_path / "runs"
        assert run_cli("sample", "--input", corpus, "--out", out / "sample") == 0
        snippets = out / "sample" / "snippets.jsonl"
        assert run_cli("label", "--mock", "--snippets", snippets, "--out", out / "label") == 0
        labels = out / "label" / "labels.jsonl"
        assert run_cli("train", "--snippets", snippets, "--labels", labels,
                       "--hash-bits", 12, "--out", out / "train") == 0
        assert run_cli("score", "--input", corpus, "--model", out / "train" / "model.bin",
                       "--out", out / "score") == 0
        report = json.loads((out / "score" / "scoring-report.json").read_text())
        assert report["empty_text"] == 1
        assert run_cli("select", "--scores", out / "score", "--target-ratio", 0.25,
                       "--out", out / "select") == 0
        assert run_cli("filter", "--input", corpus, "--scores", out / "score",
                       "--decision", out / "select" / "decision.json",
                       "--out", out / "filter") == 0
        kept = {d.id for d in ingest_shards(ShardSet.from_dir(out / "filter"))}
        assert kept and "empty-1" not in kept
        manifest = read_json(out / "filter" / "filter-manifest.json", Manifest)
        assert (manifest.input_documents, manifest.empty_text) == (400, 1)
        first = manifest.per_shard[0]
        assert (first["input_documents"], first["empty_text"]) == (100, 1)

    def test_sample_draws_only_documents_with_text(self, tmp_path):
        from conftest import corpus_dir

        corpus_dir(tmp_path, {"s.jsonl": [
            {"id": f"d{i}", "text": "" if i % 2 else f"document {i}"} for i in range(10)
        ]})
        out = tmp_path / "sample"
        assert run_cli("sample", "--input", tmp_path / "corpus", "--n", 5, "--out", out) == 0
        snippets = list(read_records(out / "snippets.jsonl", Snippet))
        assert sorted(s.doc_id for s in snippets) == ["d0", "d2", "d4", "d6", "d8"]
        sampled = ingest_shards(ShardSet(shards=[Shard(out / "sampled-docs.jsonl", False)]))
        assert [d.id for d in sampled] == [s.doc_id for s in snippets]
        summary = json.loads((out / "run-summary.json").read_text())
        assert (summary["input_documents"], summary["empty_text"]) == (5, 5)

    def test_score_workers_equivalent(self, pipeline_world):
        tmp, corpus, cfg = pipeline_world
        sample_dir, label_dir, train_dir = tmp / "w-s", tmp / "w-l", tmp / "w-t"
        run_cli("sample", "--config", cfg, "--out", sample_dir, "--n", 200)
        run_cli("label", "--config", cfg, "--snippets", sample_dir / "snippets.jsonl",
                "--out", label_dir)
        run_cli("train", "--config", cfg, "--snippets", sample_dir / "snippets.jsonl",
                "--labels", label_dir / "labels.jsonl", "--out", train_dir)
        s1, s4 = tmp / "w-score1", tmp / "w-score4"
        run_cli("score", "--config", cfg, "--model", train_dir / "model.bin",
                "--workers", 1, "--out", s1)
        run_cli("score", "--config", cfg, "--model", train_dir / "model.bin",
                "--workers", 4, "--out", s4)
        for p1 in sorted(s1.glob("scores-*.jsonl")):
            p4 = s4 / p1.name
            assert p1.read_bytes() == p4.read_bytes()

    def test_train_rerun_identical_model(self, pipeline_world):
        tmp, corpus, cfg = pipeline_world
        sample_dir, label_dir = tmp / "d-s", tmp / "d-l"
        run_cli("sample", "--config", cfg, "--out", sample_dir, "--n", 200)
        run_cli("label", "--config", cfg, "--snippets", sample_dir / "snippets.jsonl",
                "--out", label_dir)
        t1, t2 = tmp / "d-t1", tmp / "d-t2"
        for t in (t1, t2):
            run_cli("train", "--config", cfg, "--snippets", sample_dir / "snippets.jsonl",
                    "--labels", label_dir / "labels.jsonl", "--out", t)
        assert (t1 / "model.bin").read_bytes() == (t2 / "model.bin").read_bytes()


@pytest.fixture
def sweep_world(monkeypatch):
    """Sets `ablation`'s world and axis constants (N_DOCS, SAMPLE_SIZE, ...)
    for one test; `ablate` reads them when it runs."""
    from docprune import ablation

    def set_constants(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(ablation, name, value)

    return set_constants


class TestCliAblate:
    def test_ratio_sweep_files(self, tmp_path, sweep_world):
        sweep_world(N_DOCS=600, SAMPLE_SIZE=300)
        out = tmp_path / "out"
        assert run_cli("ablate", "--sweep", "ratio", "--out", out) == 0
        jsonls = list(out.glob("ratio-*.jsonl"))
        texts = list(out.glob("ratio-*.txt"))
        assert len(jsonls) == 1 and len(texts) == 1
        records = [json.loads(l) for l in jsonls[0].read_text().splitlines()]
        points = [r for r in records if r["record"] == "point"]
        assert [p["ratio"] for p in points] == [0.2, 0.25, 0.3, 0.4, 0.5, 1.0]

    def test_capacity_sweep_files(self, tmp_path, sweep_world):
        sweep_world(N_DOCS=1200, HIGH_QUALITY_FRACTION=0.5, MARKER_STYLE="many",
                    HASH_BITS_LIST=(10, 14))
        out = tmp_path / "out"
        assert run_cli("ablate", "--sweep", "capacity", "--out", out) == 0
        records = [
            json.loads(l)
            for l in next(iter(out.glob("capacity-*.jsonl"))).read_text().splitlines()
        ]
        header = records[0]
        assert "monotone_nondecreasing" in header
        assert len([r for r in records if r["record"] == "point"]) == 2

    def test_capacity_sweep_trains_with_the_distiller_section(self, tmp_path, sweep_world):
        sweep_world(N_DOCS=1200, HIGH_QUALITY_FRACTION=0.5, MARKER_STYLE="many",
                    HASH_BITS_LIST=(10, 14), SEEDS=(0,))
        medians = []
        for distiller in ("", "[distiller]\nngram_orders = 1\n"):
            cfg = tmp_path / "ablate.ini"
            cfg.write_text("[run]\nseed = 3\n\n" + distiller)
            out = tmp_path / f"out{len(medians)}"
            assert run_cli("ablate", "--config", cfg, "--sweep", "capacity", "--out", out) == 0
            records = map(json.loads, next(out.glob("capacity-*.jsonl")).read_text().splitlines())
            medians.append([r["median_f1"] for r in records if r["record"] == "point"])
        assert len(medians[0]) == 2 and medians[1] != medians[0]

    def test_prompt_sweep_has_aggregate(self, tmp_path, sweep_world):
        sweep_world(N_DOCS=500, SAMPLE_SIZE=400)
        out = tmp_path / "out"
        assert run_cli("ablate", "--sweep", "prompt", "--out", out) == 0
        records = [
            json.loads(l)
            for l in next(iter(out.glob("prompt-*.jsonl"))).read_text().splitlines()
        ]
        aggregate = [r for r in records if r["record"] == "aggregate"]
        assert len(aggregate) == 1
        assert "yes_fraction" in aggregate[0]
        text = next(iter(out.glob("prompt-*.txt"))).read_text()
        assert "Avg. (Std)" in text

    def test_icl_sweep_improves(self, tmp_path, sweep_world):
        sweep_world(N_DOCS=800, SAMPLE_SIZE=600)
        out = tmp_path / "out"
        assert run_cli("ablate", "--sweep", "icl", "--out", out) == 0
        records = [
            json.loads(l)
            for l in next(iter(out.glob("icl-*.jsonl"))).read_text().splitlines()
        ]
        header = records[0]
        assert header["agreement_gain"] > 0


    @pytest.mark.parametrize("sweep", SWEEPS)
    def test_rerun_writes_identical_reports(self, tmp_path, sweep_world, sweep):
        """`ablate` is deterministic per seed: two runs write the same report
        contents, under names that differ only in their timestamp."""
        sweep_world(N_DOCS=1000, SAMPLE_SIZE=300, HASH_BITS_LIST=(10, 12), SEEDS=(0, 1))
        cfg = tmp_path / "ablate.ini"
        cfg.write_text("[run]\nseed = 4\n[distiller]\nhash_bits = 12\n")
        runs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            assert run_cli("ablate", "--config", cfg, "--sweep", sweep, "--out", out) == 0
            runs.append({re.sub(r"-\d{8}T\d{6}\.", "-T.", p.name): p.read_bytes()
                         for p in out.glob(f"{sweep}-*")})
        assert sorted(runs[0]) == [f"{sweep}-seed4-T.jsonl", f"{sweep}-seed4-T.txt"]
        assert runs[0] == runs[1]


class TestCliIclDemos:
    def test_label_with_demonstrations_file(self, pipeline_world, tmp_path):
        from docprune.labeling import IclDemonstration, write_demonstrations

        tmp, corpus, cfg = pipeline_world
        sample_dir = tmp / "icl-sample"
        run_cli("sample", "--config", cfg, "--out", sample_dir, "--n", 40)
        demos = [
            IclDemonstration(f"hqmark{i} sample text", "Yes", "strong") for i in range(5)
        ]
        demo_file = tmp_path / "demos.jsonl"
        write_demonstrations(demos, demo_file)
        out = tmp_path / "label"
        assert run_cli(
            "label", "--config", cfg, "--snippets", sample_dir / "snippets.jsonl",
            "--icl-demos", demo_file, "--out", out,
        ) == 0
        labels = list(read_records(out / "labels.jsonl", QualityLabel))
        assert {l.icl_shots for l in labels} == {5}

    def test_demonstrations_file_without_5_records_exits_2(self, tmp_path, capsys):
        from docprune.labeling import IclDemonstration, write_demonstrations

        demo_file = tmp_path / "demos.jsonl"
        write_demonstrations([IclDemonstration("a text", "Yes", "strong")] * 3, demo_file)
        snippets = jsonl(tmp_path / "snippets.jsonl", [SNIPPET])
        assert run_cli("label", "--mock", "--snippets", snippets, "--icl-demos", demo_file,
                       "--out", tmp_path / "out") == 2
        assert "holds 3 demonstrations; exactly 5 are required" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def jsonl(path, records, cut: int = 0):
    """Write records one per line; `cut` drops that many trailing characters."""
    text = "".join(json.dumps(r) + "\n" for r in records)
    path.write_text(text[: len(text) - cut])
    return path


SNIPPET = {"doc_id": "a", "text": "some text", "char_start": 0, "char_end": 9,
           "approx_token_budget": 1500}
LABEL = {"doc_id": "a", "label": "Yes", "prompt_version": "V1", "labeler_id": "m",
         "raw_response": "Yes", "icl_shots": 0}
HEADER = {"classifier_id": "c", "format_version": 2, "source_shard": "s0.jsonl", "rows": 1}


class TestMalformedStageFiles:
    """Each stage file a command reads fails with exit 3 naming file:line."""

    def scores(self, tmp_path, records):
        directory = tmp_path / "scores"
        directory.mkdir()
        jsonl(directory / "scores-s0.jsonl", records)
        return directory

    def assert_exit_3(self, capsys, argv, where):
        assert run_cli(*argv) == 3
        err = capsys.readouterr().err
        assert f"{where}:" in err and "Traceback" not in err, err

    def test_snippets_cut_mid_line(self, tmp_path, capsys):
        snippets = jsonl(tmp_path / "snippets.jsonl", [SNIPPET, SNIPPET], cut=5)
        self.assert_exit_3(capsys, ["label", "--mock", "--snippets", snippets,
                                    "--out", tmp_path / "out"], f"{snippets}:2")
        assert not (tmp_path / "out").exists()

    def test_labels_cut_mid_line(self, tmp_path, capsys):
        snippets = jsonl(tmp_path / "snippets.jsonl", [SNIPPET])
        labels = jsonl(tmp_path / "labels.jsonl", [LABEL, {**LABEL, "doc_id": "b"}], cut=9)
        self.assert_exit_3(capsys, ["train", "--snippets", snippets, "--labels", labels,
                                    "--out", tmp_path / "out"], f"{labels}:2")

    @pytest.mark.parametrize("command", ["train", "select"])
    @pytest.mark.parametrize("answers, line", [(["yes", "no"], 1), (["Yes", "no"], 2)],
                             ids=["lower-case", "mixed-case"])
    def test_label_other_than_yes_or_no(self, small_run, tmp_path, capsys, command, answers,
                                        line):
        """A label is "Yes" or "No"; any other value would read as No."""
        snippets = small_run["train"][2]
        ids = [s.doc_id for s in read_records(snippets, Snippet)][:40]
        labels = jsonl(tmp_path / "labels.jsonl", [
            {**LABEL, "doc_id": i, "label": answers[n % 2]} for n, i in enumerate(ids)
        ])
        argv = {"train": ["train", "--snippets", snippets, "--labels", labels],
                "select": ["select", "--scores", small_run["select"][2], "--target-ratio",
                           "from-labels", "--labels", labels]}[command]
        self.assert_exit_3(capsys, [*argv, "--out", tmp_path / "out"], f"{labels}:{line}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["label", "train"])
    def test_snippet_with_empty_text(self, tmp_path, capsys, command):
        texts = [f"{'good' if i % 2 else 'bad'} text {i}" for i in range(12)]
        texts.insert(1, "")
        snippets = jsonl(tmp_path / "snippets.jsonl", [
            {**SNIPPET, "doc_id": f"d{i}", "text": t, "char_end": len(t)}
            for i, t in enumerate(texts)
        ])
        labels = jsonl(tmp_path / "labels.jsonl", [
            {**LABEL, "doc_id": f"d{i}", "label": "Yes" if i % 2 else "No"}
            for i in range(len(texts))
        ])
        argv = {"label": ["label", "--mock", "--snippets", snippets],
                "train": ["train", "--snippets", snippets, "--labels", labels]}[command]
        self.assert_exit_3(capsys, [*argv, "--out", tmp_path / "out"], f"{snippets}:2")
        assert not (tmp_path / "out").exists()

    def test_label_missing_a_field(self, tmp_path, capsys):
        snippets = jsonl(tmp_path / "snippets.jsonl", [SNIPPET])
        label = {k: v for k, v in LABEL.items() if k != "label"}
        labels = jsonl(tmp_path / "labels.jsonl", [label])
        self.assert_exit_3(capsys, ["train", "--snippets", snippets, "--labels", labels,
                                    "--out", tmp_path / "out"], f"{labels}:1")

    def test_decision_with_unknown_key(self, tmp_path, capsys):
        from conftest import corpus_dir

        corpus = corpus_dir(tmp_path, {"s0.jsonl": [{"id": "a", "text": "x"}]})
        scores = self.scores(tmp_path, [HEADER, {"doc_id": "a", "score": 0.5}])
        decision = tmp_path / "decision.json"
        decision.write_text(json.dumps({
            "cutoff": 0.1, "target_ratio": 1.0, "achieved_ratio": 1.0, "kept": 1,
            "dropped": 0, "keep_everything": True,
        }, indent=2))
        self.assert_exit_3(capsys, ["filter", "--input", corpus.shards[0].path.parent,
                                    "--scores", scores, "--decision", decision,
                                    "--out", tmp_path / "out"], f"{decision}:1")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("records, line", [
        ([], 1),                                                   # empty shard
        ([HEADER, {"doc_id": "a", "score": 0.5}, {"doc_id": "b"}], 3),   # row without score
        ([{"classifier_id": "c", "format_version": 1, "source_shard": "s0.jsonl"},
          {"doc_id": "a", "score": 0.5}], 1),                     # format_version 1
        ([HEADER, {"doc_id": "a", "score": 0.5}, {"doc_id": "b", "score": float("nan")}],
         3),                                                      # NaN score
        ([HEADER, {"doc_id": "a", "score": 1.5}], 2),             # score outside (0, 1)
    ])
    def test_bad_score_shard(self, tmp_path, capsys, records, line):
        scores = self.scores(tmp_path, records)
        self.assert_exit_3(capsys, ["select", "--scores", scores, "--target-ratio", 0.5,
                                    "--out", tmp_path / "out"],
                           f"{scores / 'scores-s0.jsonl'}:{line}")
        assert not (tmp_path / "out").exists()


class TestScoreSetCoverage:
    """`filter` needs a score set made over exactly the corpus's shards."""

    def world(self, tmp_path, low_shard_scores):
        """Four corpus shards of 100 docs, their score set, and a decision
        keeping 25% of the 400 scores: shard s3's docs, or with
        `low_shard_scores` shard s2's, while s3's all score below the cutoff."""
        from conftest import corpus_dir

        corpus = corpus_dir(tmp_path, {
            f"s{k}.jsonl": [{"id": f"s{k}-{i}", "text": f"doc {i}"} for i in range(100)]
            for k in range(4)
        }).shards[0].path.parent
        scores = tmp_path / "scores"
        scores.mkdir()
        for k in range(4):
            rows = [{"doc_id": f"s{k}-{i}", "score": 0.001 * (i + 1) + 0.2 * k}
                    for i in range(100)]
            if k == 3 and low_shard_scores:
                rows = [{**row, "score": 0.0001} for row in rows]
            jsonl(scores / f"scores-s{k}.jsonl",
                  [{**HEADER, "source_shard": f"s{k}.jsonl", "rows": 100}] + rows)
        assert run_cli("select", "--scores", scores, "--target-ratio", 0.25,
                       "--out", tmp_path / "select") == 0
        return corpus, scores, tmp_path / "select" / "decision.json"

    @pytest.mark.parametrize("low_shard_scores", [False, True])
    def test_score_set_with_a_shard_the_corpus_lacks_exits_3(self, tmp_path, capsys,
                                                               low_shard_scores):
        corpus, scores, decision = self.world(tmp_path, low_shard_scores)
        (corpus / "s3.jsonl").unlink()
        assert run_cli("filter", "--input", corpus, "--scores", scores,
                       "--decision", decision, "--out", tmp_path / "filter") == 3
        assert "s3.jsonl" in capsys.readouterr().err
        assert not (tmp_path / "filter").exists()

    def test_corpus_shard_without_scores_exits_3(self, tmp_path, capsys):
        corpus, scores, decision = self.world(tmp_path, False)
        jsonl(corpus / "s4.jsonl", [{"id": "s4-0", "text": "doc 0"}])
        assert run_cli("filter", "--input", corpus, "--scores", scores,
                       "--decision", decision, "--out", tmp_path / "filter") == 3
        assert "s4.jsonl" in capsys.readouterr().err
        assert not (tmp_path / "filter").exists()

    def test_covering_score_set_filters(self, tmp_path):
        corpus, scores, decision = self.world(tmp_path, True)
        assert run_cli("filter", "--input", corpus, "--scores", scores,
                       "--decision", decision, "--out", tmp_path / "filter") == 0
        manifest = read_json(tmp_path / "filter" / "filter-manifest.json", Manifest)
        assert (manifest.output_documents, manifest.input_documents) == (100, 400)


class TestScoreTimeChecks:
    def test_synthesized_id_colliding_with_explicit_id_exits_5(self, tmp_path, capsys):
        from conftest import corpus_dir

        corpus = corpus_dir(tmp_path, {
            "s0.jsonl": [{"text": "no id here"}],
            "s1.jsonl": [{"id": "s0.jsonl#0", "text": "an explicit id"}],
        }).shards[0].path.parent
        config = FeaturizerConfig(hash_bits=8)
        save_model(QualityClassifier(config, np.zeros(config.dim), 0.0, {}),
                   tmp_path / "model.bin")
        assert run_cli("score", "--input", corpus, "--model", tmp_path / "model.bin",
                       "--out", tmp_path / "scores") == 5
        assert "'s0.jsonl#0' is scored 2 times, in shards s0.jsonl, s1.jsonl" in (
            capsys.readouterr().err
        )

    @staticmethod
    def first_two_shards_share_an_id(tmp_path, n_shards):
        """A corpus of one-document shards, the first two sharing the id
        `dup`, and a model to score it with."""
        from conftest import corpus_dir

        ids = ["dup", "dup", *(f"d{i}" for i in range(2, n_shards))]
        corpus = corpus_dir(tmp_path, {
            f"s{i:02d}.jsonl": [{"id": doc_id, "text": f"text {i}"}] for i, doc_id in enumerate(ids)
        }).shards[0].path.parent
        config = FeaturizerConfig(hash_bits=8)
        save_model(QualityClassifier(config, np.zeros(config.dim), 0.0, {}),
                   tmp_path / "model.bin")
        return ["score", "--input", corpus, "--model", tmp_path / "model.bin",
                "--out", tmp_path / "scores"]

    def test_repeated_id_stops_score_at_the_first_shard_that_repeats_it(
        self, tmp_path, capsys, monkeypatch
    ):
        argv = self.first_two_shards_share_an_id(tmp_path, 4)
        calls, real = [], selection.score_documents
        monkeypatch.setattr(selection, "score_documents",
                            lambda *args: calls.append(args) or real(*args))
        assert run_cli(*argv, "--workers", 1) == 5
        assert "'dup' is scored 2 times, in shards s00.jsonl, s01.jsonl" in (
            capsys.readouterr().err
        )
        assert len(calls) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "model.bin"]

    def test_repeated_id_stops_forked_workers_before_exit_5(self, tmp_path, capsys, monkeypatch):
        """The workers still scoring when the repeat is found stop before the
        staging dir is removed, and the shards not started are cancelled; the
        patch is inherited through fork and logs each call to a file."""
        argv = self.first_two_shards_share_an_id(tmp_path, 12)
        calls, real = tmp_path / "calls.log", selection.score_documents

        def slow(*args):
            with open(calls, "a") as fh:
                fh.write("call\n")
            time.sleep(0.1)
            return real(*args)

        monkeypatch.setattr(selection, "score_documents", slow)
        assert run_cli(*argv, "--workers", 2) == 5
        assert "'dup' is scored 2 times, in shards s00.jsonl, s01.jsonl" in (
            capsys.readouterr().err
        )
        assert len(calls.read_text().split()) < 12
        assert sorted(p.name for p in tmp_path.iterdir()) == ["calls.log", "corpus", "model.bin"]

    @pytest.mark.parametrize("yes, code", [(98, 5), (2, 5), (25, 0)])
    def test_from_labels_with_degenerate_yes_fraction_exits_5(self, tmp_path, capsys, recwarn,
                                                               yes, code):
        scores = tmp_path / "scores"
        scores.mkdir()
        jsonl(scores / "scores-s0.jsonl",
              [{**HEADER, "rows": 100}]
              + [{"doc_id": f"d{i}", "score": i / 200 + 0.1} for i in range(100)])
        labels = jsonl(tmp_path / "labels.jsonl", [
            {**LABEL, "doc_id": f"d{i}", "label": "Yes" if i < yes else "No"}
            for i in range(100)
        ])
        argv = ["select", "--scores", scores, "--labels", labels, "--out", tmp_path / "out"]
        assert run_cli(*argv, "--target-ratio", "from-labels") == code
        # The exit-5 message says it once; no DegenerateLabelerWarning repeats it.
        assert not [w for w in recwarn if issubclass(w.category, DegenerateLabelerWarning)]
        if code == 5:
            err = capsys.readouterr().err
            assert f"yes-fraction {yes / 100:.3f}" in err and "--target-ratio" in err
            assert not (tmp_path / "out").exists()
            # A numeric ratio is the override.
            assert run_cli(*argv, "--target-ratio", 0.5) == 0

    def test_from_labels_streams_its_labels(self, tmp_path):
        """The Yes share is counted as the labels are read: on one small score
        set, 20,000 labels peak no higher than 1.5x 2,000 labels."""
        from conftest import traced_peak

        scores = tmp_path / "scores"
        scores.mkdir()
        jsonl(scores / "scores-s0.jsonl",
              [{**HEADER, "rows": 100}]
              + [{"doc_id": f"d{i}", "score": i / 200 + 0.1} for i in range(100)])

        def peak(n: int) -> int:
            labels = jsonl(tmp_path / f"labels-{n}.jsonl", [
                {**LABEL, "doc_id": f"d{i}", "label": "Yes" if i % 4 == 0 else "No"}
                for i in range(n)
            ])
            argv = ["select", "--scores", scores, "--labels", labels,
                    "--target-ratio", "from-labels", "--out", tmp_path / f"select-{n}"]
            assert run_cli(*argv) == 0  # warm up
            return traced_peak(lambda: run_cli(*argv))

        assert peak(20_000) < 1.5 * peak(2_000)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A 400-doc corpus in 4 shards and every stage file of one run over it."""
    tmp = tmp_path_factory.mktemp("small-run")
    corpus = tmp / "corpus"
    write_shards(generate_documents(SyntheticCorpusSpec(n_docs=400, seed=5)), corpus, 100)
    snippets, labels = tmp / "sample" / "snippets.jsonl", tmp / "label" / "labels.jsonl"
    model, scores = tmp / "train" / "model.bin", tmp / "score"
    assert run_cli("sample", "--input", corpus, "--out", tmp / "sample") == 0
    assert run_cli("label", "--mock", "--snippets", snippets, "--out", tmp / "label") == 0
    assert run_cli("train", "--snippets", snippets, "--labels", labels, "--hash-bits", 12,
                   "--out", tmp / "train") == 0
    assert run_cli("score", "--input", corpus, "--model", model, "--out", scores) == 0
    assert run_cli("select", "--scores", scores, "--target-ratio", 0.25,
                   "--out", tmp / "select") == 0
    return {
        "sample": ["sample", "--input", corpus],
        "train": ["train", "--snippets", snippets, "--labels", labels],
        "score": ["score", "--input", corpus, "--model", model],
        "select": ["select", "--scores", scores, "--target-ratio", 0.25],
        "filter": ["filter", "--input", corpus, "--scores", scores,
                   "--decision", tmp / "select" / "decision.json"],
        "ablate": ["ablate", "--sweep", "capacity"],
    }


class TestLoadTimeChecks:
    """A bad value, from a flag or from the file, exits 2 naming its section
    before the command creates its output dir."""

    @pytest.mark.parametrize("command, flags, ini, section", [
        ("score", ["--workers", 0], "", "selector"),
        ("score", [], "[selector]\nworkers = 0\n", "selector"),
        ("filter", [], "[selector]\nworkers = 0\n", "selector"),
        ("sample", ["--n", 0], "", "corpus"),
        ("sample", [], "[corpus]\nsample_size = 0\n", "corpus"),
        ("sample", [], "[corpus]\ntoken_budget = 0\n", "corpus"),
        ("train", [], "[distiller]\nepochs = 0\n", "distiller"),
        ("sample", [], "[run]\nlog_level = LOUD\n", "run"),
        ("sample", [], "[distiller]\nval_fraction = 1.5\n", "distiller"),
        ("sample", [], "[distiller]\nval_fraction = 0\n", "distiller"),
        ("sample", [], "[distiller]\nval_fraction = 1\n", "distiller"),
        ("sample", [], "[distiller]\nlearning_rate = 0\n", "distiller"),
        ("sample", [], "[distiller]\nlearning_rate = inf\n", "distiller"),
        ("sample", [], "[labeler]\ntemperature = nan\n", "labeler"),
        ("sample", [], "[labeler]\ntemperature = inf\n", "labeler"),
        ("sample", [], "[labeler]\nbackoff_base = nan\n", "labeler"),
        ("sample", [], "[labeler]\nbackoff_base = inf\n", "labeler"),
        ("sample", [], "[labeler]\nrequest_timeout = nan\n", "labeler"),
        ("sample", [], "[labeler]\nrequest_timeout = inf\n", "labeler"),
        ("sample", [], "[labeler]\nfailure_ceiling = -1\n", "labeler"),
        ("sample", [], "[labeler]\nmax_output_tokens = 0\n", "labeler"),
        # [ablation] is gone: any value in it, bad or not, exits 2 as an unknown section
        ("ablate", [], "[ablation]\nn_docs = 50\n", "ablation"),
        ("sample", [], "[ablation]\nsample_size = 0\n", "ablation"),
        ("sample", [], "[ablation]\nratios = 0, 2\n", "ablation"),
        ("sample", [], "[ablation]\nhash_bits_list = 4\n", "ablation"),
        ("sample", [], "[ablation]\nseeds =\n", "ablation"),
        ("sample", [], "[ablation]\nratios =\n", "ablation"),
        ("sample", [], "[ablation]\nhash_bits_list =\n", "ablation"),
    ], ids=["score-flag", "score-file", "filter-file", "sample-flag",
            "sample_size", "token_budget", "epochs", "log_level",
            "val_fraction", "val_fraction-0", "val_fraction-1", "learning_rate",
            "learning_rate-inf", "temperature-nan", "temperature-inf", "backoff_base-nan",
            "backoff_base-inf", "request_timeout-nan", "request_timeout-inf",
            "failure_ceiling", "max_output_tokens",
            "n_docs", "ablation-sample_size", "ratios", "hash_bits_list", "empty-seeds",
            "empty-ratios", "empty-hash_bits_list"])
    def test_bad_value_exits_2_without_output(self, small_run, tmp_path, capsys,
                                              command, flags, ini, section):
        argv = small_run[command] + flags + ["--out", tmp_path / "out"]
        if ini:
            (tmp_path / "run.ini").write_text(ini)
            argv += ["--config", tmp_path / "run.ini"]
        assert run_cli(*argv) == 2
        assert f"[{section}]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    def test_failed_sweep_writes_no_output_dir(self, tmp_path, capsys, sweep_world):
        sweep_world(N_DOCS=500)  # the capacity sweep needs 1,000 labels
        assert run_cli("ablate", "--sweep", "capacity", "--out", tmp_path / "out") == 2
        assert "1,000 labeled examples" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_icl_sweep_with_one_snippet_to_label_runs(self, tmp_path, sweep_world):
        """The sample's first 5 snippets are the demonstrations."""
        sweep_world(N_DOCS=500, SAMPLE_SIZE=6)
        with pytest.warns(DegenerateLabelerWarning):  # one label's yes-fraction is 0 or 1
            assert run_cli("ablate", "--sweep", "icl", "--out", tmp_path / "out") == 0
        assert (tmp_path / "out").is_dir()


REMAINING_KEYS = {
    "run": {"seed", "output_root", "log_level"},
    "corpus": {"input_dir", "sample_size", "strict"},
    "labeler": {"endpoint_url", "model_name", "temperature", "max_output_tokens",
                "max_concurrent_requests", "max_retries", "backoff_base", "request_timeout",
                "failure_ceiling", "api_key_env", "prompt_version", "icl_demos", "mock"},
    "distiller": {"ngram_orders", "hash_bits", "val_fraction", "epochs", "learning_rate",
                  "batch_size", "patience"},
    "selector": {"target_ratio", "workers"},
}


class TestRemovedKeys:
    """Keys that only ever held their default are constants now: a config
    that sets one, even to that default, exits 2 before any output dir. So is
    each key of [ablation], whose section is gone with them."""

    @pytest.mark.parametrize("section, key, value", [
        ("corpus", "token_budget", "1500"),
        ("corpus", "chars_per_token", "4"),
        ("distiller", "class_weighting", "true"),
        ("distiller", "lowercase", "true"),
        ("distiller", "token_pattern", r"\w+"),
        ("ablation", "signal_strength", "1.0"),
        ("ablation", "flip_rate", "0.05"),
        ("ablation", "fidelity_0shot", "0.60"),
        ("ablation", "fidelity_5shot", "0.75"),
    ])
    def test_removed_key_exits_2_without_output(self, small_run, tmp_path, capsys,
                                                 section, key, value):
        (tmp_path / "run.ini").write_text(f"[{section}]\n{key} = {value}\n")
        assert run_cli(*small_run["sample"], "--config", tmp_path / "run.ini",
                       "--out", tmp_path / "out") == 2
        expected = (f"unknown config section [{section}]" if section == "ablation"
                    else f"unknown key {key!r} in section [{section}]")
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_removed_section_exits_2_without_output(self, small_run, tmp_path, capsys):
        """[ablation]'s corpus shape and axes are `ablation`'s constants now."""
        (tmp_path / "run.ini").write_text(
            "[ablation]\nn_docs = 2000\nhigh_quality_fraction = 0.25\nmarker_style = few\n"
            "sample_size = 1000\nseeds = 0, 1, 2\nhash_bits_list = 10, 14, 18\n"
            "ratios = 0.2, 0.25, 0.3, 0.4, 0.5, 1.0\n"
        )
        assert run_cli(*small_run["ablate"], "--config", tmp_path / "run.ini",
                       "--out", tmp_path / "out") == 2
        assert "unknown config section [ablation]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_resolved_config_lists_the_remaining_keys(self, small_run):
        import configparser

        parser = configparser.ConfigParser(interpolation=None)
        parser.read(small_run["train"][2].parent / "resolved-config.ini")
        assert {name: set(parser[name]) for name in parser.sections()} == REMAINING_KEYS
        assert sum(map(len, REMAINING_KEYS.values())) == 28


class TestDegenerateLabelSets:
    """Label sets too small to train on or to take a keep-ratio from, a
    snippets file with nothing to label, and a score set with no rows to
    select from, exit 5."""

    def test_label_on_empty_snippets_exits_5(self, tmp_path, capsys):
        snippets = jsonl(tmp_path / "snippets.jsonl", [])
        assert run_cli("label", "--mock", "--snippets", snippets, "--out", tmp_path / "out") == 5
        assert f"{snippets} holds no snippets: nothing to label" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_labels", [0, 5])
    def test_train_on_too_few_labels_exits_5(self, small_run, tmp_path, capsys, n_labels):
        snippets = small_run["train"][2]
        ids = [s.doc_id for s in read_records(snippets, Snippet)][:n_labels]
        labels = jsonl(tmp_path / "labels.jsonl", [
            {**LABEL, "doc_id": i, "label": "Yes" if n % 2 else "No"} for n, i in enumerate(ids)
        ])
        assert run_cli("train", "--snippets", snippets, "--labels", labels,
                       "--out", tmp_path / "out") == 5
        assert "at least 10 examples" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ten_balanced_labels_exit_5(self, small_run, tmp_path, capsys):
        """Each class's validation share, 0.5, rounds to 0 (half to even): no
        validation example is left."""
        snippets = small_run["train"][2]
        ids = [s.doc_id for s in read_records(snippets, Snippet)][:10]
        labels = jsonl(tmp_path / "labels.jsonl", [
            {**LABEL, "doc_id": i, "label": "Yes" if n % 2 else "No"} for n, i in enumerate(ids)
        ])
        assert run_cli("train", "--snippets", snippets, "--labels", labels,
                       "--out", tmp_path / "out") == 5
        assert "5 Yes and 5 No labels leave no validation example" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_select_from_empty_labels_exits_5(self, small_run, tmp_path, capsys):
        labels = jsonl(tmp_path / "labels.jsonl", [])
        assert run_cli("select", "--scores", small_run["select"][2], "--target-ratio",
                       "from-labels", "--labels", labels, "--out", tmp_path / "out") == 5
        assert "no labels" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_select_on_empty_score_set_exits_5(self, tmp_path, capsys):
        config = FeaturizerConfig(hash_bits=8)
        model = tmp_path / "model.bin"
        save_model(QualityClassifier(config, np.zeros(config.dim), 0.0, {}), model)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        jsonl(corpus / "s0.jsonl", [{"id": "a", "text": ""}])  # nothing to score
        assert run_cli("score", "--input", corpus, "--model", model,
                       "--out", tmp_path / "scores") == 0
        assert run_cli("select", "--scores", tmp_path / "scores", "--target-ratio", 0.5,
                       "--out", tmp_path / "out") == 5
        err = capsys.readouterr().err
        assert "degenerate data: empty score set" in err, err
        assert not (tmp_path / "out").exists()


class TestScoreRowCount:
    """Each score shard's header carries its row count, so a cut shard fails
    `select` and `filter` before they create their output dir."""

    def test_headers_count_their_rows(self, small_run):
        scores = small_run["select"][2]
        for path in sorted(scores.glob("scores-*.jsonl")):
            lines = path.read_text().splitlines()
            assert json.loads(lines[0])["rows"] == len(lines) - 1 == 100

    @pytest.mark.parametrize("command", ["select", "filter"])
    def test_shard_cut_at_a_record_boundary_exits_3(self, small_run, tmp_path, capsys,
                                                    command):
        scores = shutil.copytree(small_run["select"][2], tmp_path / "scores")
        shard = scores / "scores-shard-00001.jsonl"
        shard.write_text("".join(shard.read_text().splitlines(keepends=True)[:-1]))
        argv = [scores if a == small_run["select"][2] else a for a in small_run[command]]
        assert run_cli(*argv, "--out", tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert f"{shard}: the header gives 100 rows, the file holds 99" in err, err
        assert not (tmp_path / "out").exists()

    def test_version_1_score_set_asks_to_rescore(self, tmp_path, capsys):
        scores = tmp_path / "scores"
        scores.mkdir()
        jsonl(scores / "scores-s0.jsonl", [
            {"classifier_id": "c", "format_version": 1, "source_shard": "s0.jsonl"},
            {"doc_id": "a", "score": 0.5},
        ])
        assert run_cli("select", "--scores", scores, "--target-ratio", 0.5,
                       "--out", tmp_path / "out") == 3
        assert "re-run `docprune score`" in capsys.readouterr().err


class TestCorpusAndScoreSetChecks:
    """`[corpus] strict` holds in `score` and `filter`; a failed `score`
    leaves no score shards; `filter` takes only a decision selected on its
    score set; `score` rejects two corpus shards with one score shard name."""

    STRICT = "[corpus]\nstrict = true\n"

    def corpus_copy(self, small_run, tmp_path):
        return shutil.copytree(small_run["score"][2], tmp_path / "corpus")

    def run_with(self, small_run, command, tmp_path, corpus, ini="", *flags):
        argv = [corpus if a == small_run["score"][2] else a for a in small_run[command]]
        (tmp_path / "run.ini").write_text(ini)
        return run_cli(*argv, *flags, "--config", tmp_path / "run.ini",
                       "--out", tmp_path / command)

    def assert_no_score_set(self, small_run, tmp_path, capsys):
        assert not (tmp_path / "score").exists()
        capsys.readouterr()
        assert run_cli("select", "--scores", tmp_path / "score", "--target-ratio", 0.25,
                       "--out", tmp_path / "select") == 3
        assert "score directory not found" in capsys.readouterr().err
        assert not (tmp_path / "select").exists()

    def append_malformed(self, corpus):
        with open(corpus / "shard-00001.jsonl", "a", encoding="utf-8") as fh:
            fh.write("{not json\n[1, 2]\n")

    @pytest.mark.parametrize("command", ["sample", "score", "filter"])
    def test_corpus_dir_without_a_shard_exits_3(self, small_run, tmp_path, capsys, command):
        """Not a 0-document run: `score` would publish a score dir that
        `select` refuses."""
        empty = tmp_path / "corpus"
        empty.mkdir()
        assert self.run_with(small_run, command, tmp_path, empty) == 3
        assert f"no corpus shards (*.jsonl or *.jsonl.gz) in {empty}" in capsys.readouterr().err
        assert not (tmp_path / command).exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_strict_score_exits_3_and_leaves_no_score_shards(self, small_run, tmp_path,
                                                             capsys, workers):
        corpus = self.corpus_copy(small_run, tmp_path)
        self.append_malformed(corpus)
        assert self.run_with(small_run, "score", tmp_path, corpus, self.STRICT,
                             "--workers", workers) == 3
        assert "malformed record shard-00001.jsonl#100" in capsys.readouterr().err
        self.assert_no_score_set(small_run, tmp_path, capsys)

    def test_dead_scoring_worker_exits_3(self, small_run, tmp_path, capfd, monkeypatch):
        """A worker killed mid-run (here: it exits at once, through the patch
        that fork passes on) is an I/O error, reported without a traceback."""
        corpus = self.corpus_copy(small_run, tmp_path)
        assert len(list(corpus.glob("*.jsonl"))) >= 2
        monkeypatch.setattr(selection, "score_documents", lambda *args: os._exit(1))
        assert self.run_with(small_run, "score", tmp_path, corpus, "", "--workers", 2) == 3
        err = capfd.readouterr().err
        assert "I/O error: a scoring worker process died" in err, err
        assert "Traceback" not in err
        assert not list((tmp_path / "score").glob("scores-*.jsonl"))

    def test_strict_filter_exits_3(self, small_run, tmp_path, capsys):
        corpus = self.corpus_copy(small_run, tmp_path)
        self.append_malformed(corpus)
        assert self.run_with(small_run, "filter", tmp_path, corpus, self.STRICT) == 3
        assert "malformed record shard-00001.jsonl#100" in capsys.readouterr().err
        assert not (tmp_path / "filter").exists()

    def test_malformed_records_are_counted_by_score_and_filter(self, small_run, tmp_path):
        corpus = self.corpus_copy(small_run, tmp_path)
        self.append_malformed(corpus)
        assert self.run_with(small_run, "score", tmp_path, corpus) == 0
        report = json.loads((tmp_path / "score" / "scoring-report.json").read_text())
        assert report["malformed"] == 2
        assert [s["malformed"] for s in report["per_shard"]] == [0, 2, 0, 0]
        assert self.run_with(small_run, "filter", tmp_path, corpus) == 0
        manifest = read_json(tmp_path / "filter" / "filter-manifest.json", Manifest)
        assert manifest.malformed == 2
        assert [s["malformed"] for s in manifest.per_shard] == [0, 2, 0, 0]
        assert manifest.input_documents == 400

    def test_stage_reports_give_ingest_counts_under_one_set_of_keys(self, small_run,
                                                                     tmp_path):
        corpus = self.corpus_copy(small_run, tmp_path)
        with open(corpus / "shard-00001.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"id": "empty-1", "text": ""}\n{not json\n')
        for command in ("sample", "score", "filter"):
            assert self.run_with(small_run, command, tmp_path, corpus) == 0
        summary = json.loads((tmp_path / "sample" / "run-summary.json").read_text())
        report = json.loads((tmp_path / "score" / "scoring-report.json").read_text())
        manifest = json.loads((tmp_path / "filter" / "filter-manifest.json").read_text())
        total = {"input_documents": 400, "empty_text": 1, "malformed": 1}
        shard = {"input_documents": 100, "empty_text": 1, "malformed": 1}
        for record in (summary, report, manifest):
            assert {key: record[key] for key in total} == total
        for record in (report, manifest):
            assert {key: record["per_shard"][1][key] for key in shard} == shard

    def test_cut_gzip_shard_exits_3_and_leaves_no_score_shards(self, small_run, tmp_path,
                                                              capsys):
        corpus = self.corpus_copy(small_run, tmp_path)
        shard = corpus / "shard-00001.jsonl"
        data = gzip.compress(shard.read_bytes())
        (corpus / "shard-00001.jsonl.gz").write_bytes(data[: len(data) // 2])
        shard.unlink()
        assert self.run_with(small_run, "score", tmp_path, corpus) == 3
        assert "shard-00001.jsonl.gz" in capsys.readouterr().err
        self.assert_no_score_set(small_run, tmp_path, capsys)

    @pytest.mark.parametrize("edit", ["blank", "remove"])
    def test_scored_document_gone_from_the_corpus_exits_3(self, small_run, tmp_path, capsys,
                                                          edit):
        """A dropped document whose text is blanked, or whose line is removed,
        after `score`: filter keeps what the decision says, but the corpus no
        longer holds every scored document."""
        corpus = self.corpus_copy(small_run, tmp_path)
        scores = ScoreSet.open(small_run["filter"][4]).load_scores()
        cutoff = read_json(small_run["filter"][6], SelectionDecision).cutoff
        shard = corpus / "shard-00001.jsonl"
        lines = shard.read_text(encoding="utf-8").splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if scores[json.loads(line)["id"]] <= cutoff)
        blanked = json.dumps({**json.loads(lines[i]), "text": ""}) + "\n"
        lines[i] = blanked if edit == "blank" else ""
        shard.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert self.run_with(small_run, "filter", tmp_path, corpus) == 3
        err = capsys.readouterr().err
        assert "399 documents" in err and "400 scores" in err, err
        assert "re-run `docprune score`" in err
        # The check fails after every kept shard was staged; none was published.
        assert not (tmp_path / "filter").exists()

    @pytest.mark.parametrize("ratio", [0.25, 1])
    def test_decision_from_another_score_set_exits_3(self, small_run, tmp_path, capsys,
                                                     ratio):
        """A decision selected on one model's scores, filtered with another's."""
        train = small_run["train"] + ["--hash-bits", 12, "--seed", 9]
        assert run_cli(*train, "--out", tmp_path / "train") == 0
        score = small_run["score"][:4] + [tmp_path / "train" / "model.bin"]
        assert run_cli(*score, "--out", tmp_path / "scores") == 0
        assert run_cli(*small_run["select"][:3], "--target-ratio", ratio,
                       "--out", tmp_path / "select") == 0
        decision = read_json(tmp_path / "select" / "decision.json", SelectionDecision)
        other = ScoreSet.open(tmp_path / "scores").classifier_id
        assert other != decision.classifier_id
        capsys.readouterr()
        assert run_cli("filter", "--input", small_run["score"][2], "--scores",
                       tmp_path / "scores", "--decision", tmp_path / "select" / "decision.json",
                       "--out", tmp_path / "filter") == 3
        err = capsys.readouterr().err
        assert decision.classifier_id in err and other in err, err
        assert not (tmp_path / "filter").exists()

    def test_two_shards_with_one_score_shard_name_exit_3(self, small_run, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        docs = [json.dumps({"id": f"d{i}", "text": f"doc {i}"}) for i in range(200)]
        (corpus / "part.jsonl").write_text("\n".join(docs[:100]) + "\n")
        (corpus / "part.jsonl.gz").write_bytes(gzip.compress(
            ("\n".join(docs[100:]) + "\n").encode()))
        argv = [corpus if a == small_run["score"][2] else a for a in small_run["score"]]
        assert run_cli(*argv, "--workers", 2, "--out", tmp_path / "score") == 3
        assert ("corpus shards part.jsonl and part.jsonl.gz would both be scored into "
                "scores-part.jsonl") in capsys.readouterr().err
        assert not (tmp_path / "score").exists()


class TestTrainInputs:
    """`train` joins labels to snippets as it streams the snippets into its
    feature store, a file in the temp dir that leaves nothing behind."""

    def files(self, tmp_path, texts, targets, label_ids=None):
        """A snippets file of (doc_id, text) pairs and a labels file of the
        given ids (default: every snippet's) with their 0/1 targets."""
        snippets = jsonl(tmp_path / "snippets.jsonl", [
            {**SNIPPET, "doc_id": doc_id, "text": text, "char_end": len(text)}
            for doc_id, text in texts
        ])
        ids = label_ids if label_ids is not None else [doc_id for doc_id, _ in texts]
        labels = jsonl(tmp_path / "labels.jsonl", [
            {**LABEL, "doc_id": i, "label": "Yes" if t else "No"} for i, t in zip(ids, targets)
        ])
        return snippets, labels

    def train(self, snippets, labels, out):
        return run_cli("train", "--snippets", snippets, "--labels", labels, "--hash-bits", 10,
                       "--seed", 0, "--out", out)

    def test_repeated_snippet_id_exits_5(self, tmp_path, capsys):
        texts = [(f"d{i}", f"{'good' if i % 2 else 'bad'} text {i}") for i in range(12)]
        texts.append(("d3", "another text for d3"))
        snippets, labels = self.files(tmp_path, texts[:12], [i % 2 for i in range(12)])
        jsonl(snippets, [{**SNIPPET, "doc_id": i, "text": t} for i, t in texts])
        assert self.train(snippets, labels, tmp_path / "train") == 5
        assert "snippet id 'd3' occurs more than once" in capsys.readouterr().err
        assert not (tmp_path / "train").exists()

    def test_repeated_label_is_one_more_example(self, tmp_path):
        texts = [(f"d{i}", f"{'good' if i % 2 else 'bad'} text {i}") for i in range(12)]
        ids = [doc_id for doc_id, _ in texts] + ["d1", "d1"]
        snippets, labels = self.files(tmp_path, texts, [i % 2 for i in range(12)] + [1, 1], ids)
        assert self.train(snippets, labels, tmp_path / "train") == 0
        report = json.loads((tmp_path / "train" / "training-report.json").read_text())
        assert report["train_size"] + report["val_size"] == 14

    def test_zero_val_f1_warns_and_exits_0(self, tmp_path, caplog):
        # Validation positives read like training negatives, so the best
        # epoch marks no validation positive.
        from docprune.classifier import Examples, FeatureStore, split_train_val

        targets = [i % 2 for i in range(40)]
        with FeatureStore(FeaturizerConfig(hash_bits=10)) as store:
            val = split_train_val(Examples(store, range(40), targets), 0.1, seed=0)[1]
        texts = [
            (f"d{i}", f"{'good' if t and i not in val.rows else 'bad'} words {i}")
            for i, t in enumerate(targets)
        ]
        snippets, labels = self.files(tmp_path, texts, targets)
        caplog.set_level(logging.WARNING, logger="docprune")
        assert self.train(snippets, labels, tmp_path / "train") == 0
        report = json.loads((tmp_path / "train" / "training-report.json").read_text())
        assert report["val_f1"] == 0.0
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "val F1 is 0.0" in caplog.records[0].getMessage()

    def test_feature_store_leaves_nothing_in_the_temp_dir(self, tmp_path, monkeypatch):
        import tempfile

        tmpdir = tmp_path / "tmp"
        tmpdir.mkdir()
        monkeypatch.setenv("TMPDIR", str(tmpdir))
        monkeypatch.setattr(tempfile, "tempdir", None)  # gettempdir() reads TMPDIR again
        texts = [(f"d{i}", f"{'good' if i % 2 else 'bad'} text {i}") for i in range(20)]
        snippets, labels = self.files(tmp_path, texts, [i % 2 for i in range(20)])
        assert self.train(snippets, labels, tmp_path / "ok") == 0
        assert tempfile.gettempdir() == str(tmpdir)
        assert list(tmpdir.iterdir()) == []
        one_class = jsonl(tmp_path / "yes.jsonl", [{**LABEL, "doc_id": i} for i, _ in texts])
        assert self.train(snippets, one_class, tmp_path / "single") == 5
        assert list(tmpdir.iterdir()) == []
        _, unmatched = self.files(tmp_path, texts, [i % 2 for i in range(21)],
                                  [i for i, _ in texts] + ["missing"])
        assert self.train(snippets, unmatched, tmp_path / "unmatched") == 3
        assert list(tmpdir.iterdir()) == []
        assert not (tmp_path / "single").exists() and not (tmp_path / "unmatched").exists()


def test_label_refuses_a_repeated_snippet_id_before_any_request(tmp_path, capsys, monkeypatch):
    """Each repeat would be a request whose label `train` refuses."""
    from docprune.mocks import MockQualityTransport

    prompts = []
    monkeypatch.setattr(MockQualityTransport, "complete", lambda self, p: prompts.append(p))
    texts = [(f"d{i}", f"text of d{i}") for i in range(13)] + [("d3", "another text for d3")]
    snippets = jsonl(tmp_path / "snippets.jsonl", [
        {**SNIPPET, "doc_id": doc_id, "text": text, "char_end": len(text)} for doc_id, text in texts
    ])
    assert run_cli("label", "--mock", "--snippets", snippets, "--out", tmp_path / "label") == 5
    assert "snippet id 'd3' occurs more than once" in capsys.readouterr().err
    assert prompts == []
    assert not (tmp_path / "label").exists()


def test_sample_of_a_corpus_without_documents_exits_5(tmp_path, capsys):
    from conftest import corpus_dir

    corpus_dir(tmp_path, {"s.jsonl": [{"id": "a", "text": ""}, {"id": "b", "text": ""}]})
    out = tmp_path / "sample"
    assert run_cli("sample", "--input", tmp_path / "corpus", "--out", out) == 5
    assert "no document with text" in capsys.readouterr().err
    assert not out.exists()


# Runs `docprune <argv[3:]>` after wrapping `selection.<argv[1]>` so that the
# process sends itself SIGKILL on call number argv[2], as a crash or the OOM
# killer would end it.
KILLED = """
import os, signal, sys
from docprune import cli, selection
name, at, calls = sys.argv[1], int(sys.argv[2]), []
real = getattr(selection, name)
def dying(*args, **kwargs):
    calls.append(name)
    if len(calls) == at:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(*args, **kwargs)
setattr(selection, name, dying)
sys.exit(cli.main(sys.argv[3:]))
"""


def run_killed(function, call, *argv):
    src = Path(selection.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", KILLED, function, str(call), *map(str, argv)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr


def files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestStagedOutputs:
    """A command's outputs appear in `--out` only when it finishes: a run
    that raises or is killed publishes nothing, and leaves a previous run's
    files as they were."""

    def test_killed_score_publishes_no_score_shard(self, small_run, tmp_path, capsys):
        out = tmp_path / "score"
        run_killed("score_documents", 3, *small_run["score"], "--workers", 1, "--out", out)
        assert not list(tmp_path.glob("score/scores-*.jsonl"))
        # What the run wrote stays in its hidden staging dir, which nothing reads.
        assert len(list(tmp_path.glob(".score.*.tmp/scores-*.jsonl"))) == 2
        assert run_cli("select", "--scores", out, "--target-ratio", 0.25,
                       "--out", tmp_path / "select") == 3
        assert "score directory not found" in capsys.readouterr().err

    def test_killed_filter_publishes_no_kept_shard(self, small_run, tmp_path):
        run_killed("write_shard_file", 2, *small_run["filter"], "--out", tmp_path / "filter")
        assert not list(tmp_path.glob("filter/shard-*.jsonl"))
        assert len(list(tmp_path.glob(".filter.*.tmp/shard-*.jsonl"))) == 1

    def test_dead_worker_after_its_first_shard_publishes_no_score_shard(
        self, small_run, tmp_path, capfd, monkeypatch
    ):
        """Each worker scores its first shard and exits in its second; the
        patch is inherited through fork, and each worker counts its own calls."""
        calls, real = [], selection.score_documents

        def dies_in_second_shard(*args):
            calls.append(args)
            if len(calls) > 1:
                os._exit(1)
            return real(*args)

        monkeypatch.setattr(selection, "score_documents", dies_in_second_shard)
        assert run_cli(*small_run["score"], "--workers", 2, "--out", tmp_path / "score") == 3
        assert "a scoring worker process died" in capfd.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_rerun_keeps_the_previous_outputs(self, small_run, tmp_path, capsys):
        corpus = shutil.copytree(small_run["score"][2], tmp_path / "corpus")
        argv = [corpus if a == small_run["score"][2] else a for a in small_run["score"]]
        out = tmp_path / "score"
        assert run_cli(*argv, "--out", out) == 0
        before = files(out)
        assert "scores-shard-00001.jsonl" in before and "resolved-config.ini" in before
        with open(corpus / "shard-00001.jsonl", "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        (tmp_path / "strict.ini").write_text("[corpus]\nstrict = true\n")
        assert run_cli(*argv, "--config", tmp_path / "strict.ini", "--out", out) == 3
        assert "malformed record shard-00001.jsonl#100" in capsys.readouterr().err
        assert files(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "score", "strict.ini"]

    def test_strict_filter_opens_each_corpus_shard_once(self, small_run, tmp_path,
                                                          monkeypatch):
        from docprune import corpus

        opened, real = [], corpus._open_shard
        monkeypatch.setattr(corpus, "_open_shard",
                            lambda shard: opened.append(shard.path.name) or real(shard))
        (tmp_path / "strict.ini").write_text("[corpus]\nstrict = true\n")
        assert run_cli(*small_run["filter"], "--config", tmp_path / "strict.ini",
                       "--out", tmp_path / "filter") == 0
        assert opened == sorted(p.name for p in small_run["score"][2].glob("*.jsonl"))

    @pytest.mark.parametrize("command", ["sample", "score", "filter"])
    def test_out_into_the_corpus_dir_exits_3(self, small_run, tmp_path, capsys, command):
        """Later stages would ingest outputs written into the corpus dir as
        corpus shards, and filter's kept shards would replace their inputs."""
        corpus = shutil.copytree(small_run["score"][2], tmp_path / "corpus")
        before = files(corpus)
        argv = [corpus if a == small_run["score"][2] else a for a in small_run[command]]
        assert run_cli(*argv, "--out", corpus / ".." / "corpus") == 3
        assert f"{command} output dir {corpus / '..' / 'corpus'} is the corpus dir" in (
            capsys.readouterr().err
        )
        assert files(corpus) == before
        assert not (corpus / "resolved-config.ini").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus"]

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_under_a_file_exits_3_before_the_run(self, small_run, tmp_path, monkeypatch,
                                                     capsys, out):
        """Found before `sample` reads its corpus, not when it publishes."""
        (tmp_path / "file").write_text("kept\n")
        monkeypatch.setattr("docprune.cli.ingest_shards", None)  # not reached
        assert run_cli(*small_run["sample"], "--out", tmp_path / out) == 3
        assert (f"output dir {tmp_path / out} cannot be created: {tmp_path / 'file'} is not a "
                "directory") in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_label_into_the_working_dir_exits_0(self, small_run, tmp_path, monkeypatch):
        """`label` reads no corpus, so the default empty [corpus] input_dir,
        which resolves to the working dir, does not stop `--out .`."""
        monkeypatch.chdir(tmp_path)
        assert run_cli("label", "--mock", "--snippets", small_run["train"][2], "--out", ".") == 0
        assert {"labels.jsonl", "label-stats.json", "resolved-config.ini"} <= set(files(tmp_path))

    @pytest.mark.parametrize("command", ["sample", "score", "filter"])
    def test_empty_input_dir_exits_2(self, small_run, tmp_path, monkeypatch, capsys, command):
        """Without --input or [corpus] input_dir, a command that reads a
        corpus would read the working dir, here a snippets file whose records
        hold a "text" field, as its corpus."""
        monkeypatch.chdir(tmp_path)
        shutil.copy(small_run["train"][2], tmp_path / "snippets.jsonl")
        before = files(tmp_path)
        argv = [small_run[command][0], *small_run[command][3:]]  # without --input
        assert run_cli(*argv, "--out", "out") == 2
        assert "pass --input or set [corpus] input_dir" in capsys.readouterr().err
        assert files(tmp_path) == before

    def filter_by_hand(self, tmp_path, shards, scored, kept):
        """`filter` on a corpus of `shards` (name -> doc ids), a score set
        holding the `scored` doc id -> score rows, and a cutoff-0.5 decision
        over them that claims `kept` documents."""
        from conftest import corpus_dir

        corpus = corpus_dir(tmp_path, {
            f"{name}.jsonl": [{"id": i, "text": "x"} for i in ids] for name, ids in shards.items()
        }).shards[0].path.parent
        scores = tmp_path / "scores"
        scores.mkdir()
        for name, ids in shards.items():
            rows = [{"doc_id": i, "score": scored[i]} for i in ids if i in scored]
            jsonl(scores / f"scores-{name}.jsonl",
                  [{**HEADER, "source_shard": f"{name}.jsonl", "rows": len(rows)}] + rows)
        decision = tmp_path / "decision.json"
        decision.write_text(json.dumps({
            "cutoff": 0.5, "target_ratio": 0.5, "achieved_ratio": 0.5, "kept": kept,
            "dropped": len(scored) - kept, "classifier_id": HEADER["classifier_id"],
        }))
        return run_cli("filter", "--input", corpus, "--scores", scores,
                       "--decision", decision, "--out", tmp_path / "filter")

    def test_missing_score_publishes_no_kept_shard(self, tmp_path, capsys):
        """The second shard's unscored document fails the run after the first
        shard's kept document was staged."""
        assert self.filter_by_hand(tmp_path, {"s0": ["a"], "s1": ["b"]}, {"a": 0.9}, 1) == 3
        assert "join integrity: document 'b' in s1.jsonl has no score" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "filter").exists()

    def test_decision_mismatch_publishes_no_kept_shard(self, tmp_path, capsys):
        """A decision over the score set's one score that claims to keep none
        of it, while its cutoff keeps the document."""
        assert self.filter_by_hand(tmp_path, {"s": ["a"]}, {"a": 0.9}, 0) == 3
        assert "decision/corpus mismatch" in capsys.readouterr().err
        assert not (tmp_path / "filter").exists()


class TestStageRecords:
    """Each stage's function returns its record, and its command writes it."""

    def test_label_over_the_failure_ceiling_records_why_and_exits_4(self, small_run, tmp_path,
                                                                      caplog):
        snippets, labels = small_run["train"][2], small_run["train"][4]
        assert json.loads((labels.parent / "label-stats.json").read_text())["aborted"] == ""
        with socket.socket() as closed:  # bound but not listening: every connect is refused
            closed.bind(("127.0.0.1", 0))
            (tmp_path / "down.ini").write_text(
                f"[labeler]\nendpoint_url = http://127.0.0.1:{closed.getsockname()[1]}\n"
                "max_retries = 0\n"
            )
            out = tmp_path / "label"
            assert run_cli("label", "--config", tmp_path / "down.ini", "--snippets", snippets,
                           "--out", out) == 4
        assert {"labels.jsonl", "label-stats.json", "resolved-config.ini"} == set(files(out))
        stats = json.loads((out / "label-stats.json").read_text())
        failures = int(0.05 * stats["requested"]) + 1
        assert (stats["labeled"], stats["transport_failures"]) == (0, failures)
        assert stats["aborted"] == (
            f"{failures} transport failures exceeded ceiling 5% of {stats['requested']}"
        )
        assert (f"labeling aborted: {stats['aborted']} (partial labels preserved)"
                in caplog.text)

    def test_training_report_is_the_models_training_meta(self, small_run):
        model = small_run["score"][4]
        report = json.loads((model.parent / "training-report.json").read_text())
        assert report == load_model(model).training_meta

    def test_filter_publishes_its_manifest_beside_the_kept_shards(self, small_run, tmp_path):
        out = tmp_path / "filter"
        assert run_cli(*small_run["filter"], "--out", out) == 0
        shards = sorted(p.name for p in small_run["score"][2].glob("*.jsonl"))
        assert sorted(files(out)) == sorted([*shards, "filter-manifest.json",
                                             "resolved-config.ini"])
        manifest = read_json(out / "filter-manifest.json", Manifest)
        kept = sum(1 for _ in ingest_shards(ShardSet.from_dir(out)))
        assert manifest.output_documents == kept
