import json
from dataclasses import MISSING, fields

import numpy as np
import pytest

from docprune.classifier import FeaturizerConfig, QualityClassifier, TrainConfig, save_model
from docprune.cli import main
from docprune.config import (
    ConfigError,
    DistillerSection,
    LabelerSection,
    load_config,
    write_resolved_config,
)
from docprune.labeling import LabelerConfig
from docprune.corpus import ShardSet, ingest_shards, read_json
from docprune.labeling import DegenerateLabelerWarning, read_labels
from docprune.selection import Manifest
from docprune.synthetic import SyntheticCorpusSpec, generate_synthetic_corpus, stratum_of


class TestConfigFile:
    def test_defaults_without_file(self):
        config = load_config(None)
        assert config.run.seed == 0
        assert config.labeler.temperature == 0.2
        assert config.distiller.ngram_orders == (1, 2, 3)
        assert config.ablation.ratios == (0.20, 0.25, 0.30, 0.40, 0.50, 1.00)

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
        assert config.distiller.hash_bits == 12
        assert config.distiller.ngram_orders == (1, 2)
        assert config.selector.target_ratio == "from-labels"

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
        config.distiller.ngram_orders = (1, 2)
        out = tmp_path / "resolved.ini"
        write_resolved_config(config, out)
        back = load_config(out)
        assert back.run.seed == 42
        assert back.distiller.ngram_orders == (1, 2)


class TestSectionsMatchLibrary:
    @pytest.mark.parametrize("section, library", [
        (LabelerSection, LabelerConfig),
        (DistillerSection, FeaturizerConfig),
        (DistillerSection, TrainConfig),
    ])
    def test_section_defaults_equal_library_defaults(self, section, library):
        section_defaults = {f.name: f.default for f in fields(section)}
        shared = [f for f in fields(library) if f.name in section_defaults]
        assert shared
        for f in shared:
            assert f.default is not MISSING, f.name
            assert section_defaults[f.name] == f.default, f.name

    def test_sections_build_every_library_field(self):
        labeler = LabelerSection(model_name="m", temperature=0.7).to_labeler_config()
        assert labeler == LabelerConfig(model_name="m", temperature=0.7)
        train = DistillerSection(hash_bits=12, epochs=4).to_train_config(seed=9)
        assert train == TrainConfig(featurizer=FeaturizerConfig(hash_bits=12), epochs=4, seed=9)

    def test_bad_temperature_exits_2(self, tmp_path):
        snippets = tmp_path / "snippets.jsonl"
        snippets.write_text("")
        cfg = tmp_path / "run.ini"
        cfg.write_text("[labeler]\ntemperature = -1\nmock = true\n")
        assert run_cli("label", "--config", cfg, "--snippets", snippets,
                       "--out", tmp_path / "out") == 2
        assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def pipeline_world(tmp_path_factory):
    """A synthetic corpus on disk plus a config file pointing at it."""
    tmp = tmp_path_factory.mktemp("cli")
    corpus = tmp / "corpus"
    generate_synthetic_corpus(
        SyntheticCorpusSpec(n_docs=1000, high_quality_fraction=0.25, seed=31),
        corpus,
        n_shards=4,
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
        assert summary["records_read"] == 1000
        assert summary["shards"] == 4

        label_dir = tmp / "out-label"
        assert run_cli(
            "label", "--config", cfg, "--snippets", sample_dir / "snippets.jsonl",
            "--out", label_dir,
        ) == 0
        labels = read_labels(label_dir / "labels.jsonl")
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
        labels = read_labels(label_dir / "labels.jsonl")
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
        assert (out / "labels.jsonl").exists()

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
        generate_synthetic_corpus(
            SyntheticCorpusSpec(n_docs=400, high_quality_fraction=0.25, seed=5), corpus
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
        assert report["total_skipped"] == 1
        assert run_cli("select", "--scores", out / "score", "--target-ratio", 0.25,
                       "--out", out / "select") == 0
        assert run_cli("filter", "--input", corpus, "--scores", out / "score",
                       "--decision", out / "select" / "decision.json",
                       "--out", out / "filter") == 0
        kept = {d.id for d in ingest_shards(ShardSet.from_dir(out / "filter"))}
        assert kept and "empty-1" not in kept
        manifest = read_json(out / "filter" / "filter-manifest.json", Manifest)
        assert manifest.input_documents == 401
        first = manifest.per_shard[0]
        assert first["read"] == 101 and first["dropped"] == first["read"] - first["kept"]

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


class TestCliAblate:
    def make_config(self, tmp_path, **ablation_keys):
        cfg = tmp_path / "ablate.ini"
        lines = ["[ablation]"]
        lines += [f"{k} = {v}" for k, v in ablation_keys.items()]
        cfg.write_text("\n".join(lines) + "\n")
        return cfg

    def test_ratio_sweep_files(self, tmp_path):
        cfg = self.make_config(tmp_path, n_docs=600, sample_size=300)
        out = tmp_path / "out"
        assert run_cli("ablate", "--config", cfg, "--sweep", "ratio", "--out", out) == 0
        jsonls = list(out.glob("ratio-*.jsonl"))
        texts = list(out.glob("ratio-*.txt"))
        assert len(jsonls) == 1 and len(texts) == 1
        records = [json.loads(l) for l in jsonls[0].read_text().splitlines()]
        points = [r for r in records if r["record"] == "point"]
        assert [p["ratio"] for p in points] == [0.2, 0.25, 0.3, 0.4, 0.5, 1.0]

    def test_capacity_sweep_files(self, tmp_path):
        cfg = self.make_config(
            tmp_path, n_docs=1200, high_quality_fraction=0.5, marker_style="many",
            hash_bits_list="10, 14",
        )
        out = tmp_path / "out"
        assert run_cli("ablate", "--config", cfg, "--sweep", "capacity", "--out", out) == 0
        records = [
            json.loads(l)
            for l in next(iter(out.glob("capacity-*.jsonl"))).read_text().splitlines()
        ]
        header = records[0]
        assert "monotone_nondecreasing" in header
        assert len([r for r in records if r["record"] == "point"]) == 2

    def test_prompt_sweep_has_aggregate(self, tmp_path):
        cfg = self.make_config(tmp_path, n_docs=500, sample_size=400)
        out = tmp_path / "out"
        assert run_cli("ablate", "--config", cfg, "--sweep", "prompt", "--out", out) == 0
        records = [
            json.loads(l)
            for l in next(iter(out.glob("prompt-*.jsonl"))).read_text().splitlines()
        ]
        aggregate = [r for r in records if r["record"] == "aggregate"]
        assert len(aggregate) == 1
        assert "yes_fraction" in aggregate[0]
        text = next(iter(out.glob("prompt-*.txt"))).read_text()
        assert "Avg. (Std)" in text

    def test_icl_sweep_improves(self, tmp_path):
        cfg = self.make_config(tmp_path, n_docs=800, sample_size=600)
        out = tmp_path / "out"
        assert run_cli("ablate", "--config", cfg, "--sweep", "icl", "--out", out) == 0
        records = [
            json.loads(l)
            for l in next(iter(out.glob("icl-*.jsonl"))).read_text().splitlines()
        ]
        header = records[0]
        assert header["agreement_gain"] > 0


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
        labels = read_labels(out / "labels.jsonl")
        assert {l.icl_shots for l in labels} == {5}


def jsonl(path, records, cut: int = 0):
    """Write records one per line; `cut` drops that many trailing characters."""
    text = "".join(json.dumps(r) + "\n" for r in records)
    path.write_text(text[: len(text) - cut])
    return path


SNIPPET = {"doc_id": "a", "text": "some text", "char_start": 0, "char_end": 9,
           "approx_token_budget": 1500}
LABEL = {"doc_id": "a", "label": "Yes", "prompt_version": "V1", "labeler_id": "m",
         "raw_response": "Yes", "icl_shots": 0}
HEADER = {"classifier_id": "c", "format_version": 1, "source_shard": "s0.jsonl"}


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
        ([{**HEADER, "format_version": 2}, {"doc_id": "a", "score": 0.5}], 1),
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
                  [{**HEADER, "source_shard": f"s{k}.jsonl"}] + rows)
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

    @pytest.mark.parametrize("yes, code", [(98, 5), (2, 5), (25, 0)])
    def test_from_labels_with_degenerate_yes_fraction_exits_5(self, tmp_path, capsys, recwarn,
                                                               yes, code):
        scores = tmp_path / "scores"
        scores.mkdir()
        jsonl(scores / "scores-s0.jsonl",
              [HEADER] + [{"doc_id": f"d{i}", "score": i / 200 + 0.1} for i in range(100)])
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
