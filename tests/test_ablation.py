import json
import math
import random
from dataclasses import replace

import pytest

from docprune.ablation import (
    run_capacity_sweep,
    run_icl_comparison,
    run_prompt_robustness,
    run_ratio_sweep,
    run_sweep,
    snippets_of,
)
from docprune.classifier import (
    FeatureStore,
    FeaturizerConfig,
    TrainConfig,
    f1,
    score_batch,
    split_train_val,
    train_classifier,
)
from docprune.config import RunConfig
from docprune.corpus import Document, DuplicateIdError, extract_snippet
from docprune.labeling import (
    NO,
    YES,
    IclDemonstration,
    LabelerConfig,
    QualityLabel,
    label_documents,
)
from docprune.mocks import MockQualityTransport
from docprune.synthetic import SyntheticCorpusSpec, generate_documents, truth_by_doc

CONFIG = LabelerConfig(model_name="mock", max_concurrent_requests=8)


def _mock_labeled(docs):
    """The docs' snippets and their mock labels, as (labels, snippets)."""
    snips = snippets_of(docs)
    labels, _ = label_documents(snips, CONFIG, transport=MockQualityTransport())
    return labels, snips


def _trained_classifier(docs, hash_bits=14, seed=0):
    config = FeaturizerConfig(hash_bits=hash_bits)
    with FeatureStore(config) as store:
        return train_classifier(store.add(*_mock_labeled(docs)), TrainConfig(featurizer=config),
                                seed=seed)


def _scores(clf, examples):
    """The classifier's score of each example, read from its feature store."""
    return [s for block in examples.row_blocks() for s in score_batch(clf, block).tolist()]


@pytest.fixture(scope="module")
def planted_world():
    docs = generate_documents(SyntheticCorpusSpec(n_docs=2000, seed=21))
    clf = _trained_classifier(docs[:800])
    return docs, clf


@pytest.fixture(scope="module")
def many_task():
    docs = generate_documents(
        SyntheticCorpusSpec(
            n_docs=1500, high_quality_fraction=0.5, seed=22, marker_style="many"
        )
    )
    return _mock_labeled(docs)


@pytest.fixture(scope="module")
def prompt_sample():
    docs = generate_documents(SyntheticCorpusSpec(n_docs=10_000, seed=25))
    return snippets_of(docs)


@pytest.fixture(scope="module")
def icl_world():
    docs = generate_documents(SyntheticCorpusSpec(n_docs=3000, seed=26))
    snips = snippets_of(docs)
    strong = truth_by_doc(docs)
    demos = [
        IclDemonstration(s.text, strong[s.doc_id], "strong-reference")
        for s in snips[:5]
    ]
    return snips[5:], strong, demos


class TestRatioSweep:
    def test_six_rows_and_baseline_precision(self, planted_world):
        docs, clf = planted_world
        report = run_ratio_sweep(docs, clf)
        assert [p["ratio"] for p in report.points] == [0.2, 0.25, 0.3, 0.4, 0.5, 1.0]
        full = report.points[-1]
        assert full["achieved_ratio"] == 1.0
        assert full["precision"] == pytest.approx(0.25, abs=1e-9)
        assert full["recall"] == 1.0

    def test_quarter_ratio_high_precision(self, planted_world):
        docs, clf = planted_world
        report = run_ratio_sweep(docs, clf)
        quarter = next(p for p in report.points if p["ratio"] == 0.25)
        assert quarter["precision"] >= 0.9

    def test_kept_counts_nested(self, planted_world):
        docs, clf = planted_world
        report = run_ratio_sweep(docs, clf)
        kept = [p["kept"] for p in report.points]
        assert kept == sorted(kept)

    def test_header_states_proxy_substitution(self, planted_world):
        docs, clf = planted_world
        report = run_ratio_sweep(docs, clf)
        assert "proxy" in report.metadata["proxy_note"].lower()
        assert "context" in report.metadata


class TestCapacitySweep:
    def test_monotone_on_many_ngram_task(self, many_task):
        report = run_capacity_sweep(*many_task, hash_bits_list=(10, 14, 18))
        medians = [p["median_f1"] for p in report.points]
        assert len(medians) == 3
        assert medians == sorted(medians)
        assert report.metadata["monotone_nondecreasing"] is True
        assert report.metadata["saturated"] is False

    def test_unigram_task_saturates_all_capacities(self):
        # Unigram markers featurized with unigrams only: every capacity is
        # enough, the ordering degenerates to ties, and the report flags it.
        docs = generate_documents(
            SyntheticCorpusSpec(n_docs=1200, high_quality_fraction=0.5, seed=23)
        )
        labels, snips = _mock_labeled(docs)
        report = run_capacity_sweep(
            labels,
            snips,
            hash_bits_list=(10, 14, 18),
            config=TrainConfig(featurizer=FeaturizerConfig(ngram_orders=(1,))),
        )
        assert all(p["median_f1"] >= 0.95 for p in report.points)
        assert report.metadata["saturated"] is True

    def test_shuffled_labels_learn_nothing_at_any_capacity(self):
        # With shuffled balanced labels no capacity can beat chance: at the
        # prior-matched operating point (predict positive at the gold base
        # rate) chance F1 is 0.5, and the 3-seed median stays within +-0.05.
        docs = generate_documents(
            SyntheticCorpusSpec(n_docs=2400, high_quality_fraction=0.5, seed=24)
        )
        labels, snips = _mock_labeled(docs)
        rng = random.Random(0)
        answers = [l.label for l in labels]
        rng.shuffle(answers)
        shuffled = [replace(l, label=a) for l, a in zip(labels, answers)]
        for bits in (10, 14, 18):
            config = FeaturizerConfig(hash_bits=bits)
            chances = []
            with FeatureStore(config) as store:
                stored = store.add(shuffled, snips)
                for seed in (0, 1, 2):
                    clf = train_classifier(
                        stored, TrainConfig(featurizer=config, val_fraction=0.25), seed=seed
                    )
                    val = split_train_val(stored, 0.25, seed=seed)[1]  # the part clf held out
                    scored = list(zip(_scores(clf, val), val.targets))
                    scored.sort(key=lambda t: -t[0])
                    k = sum(t for _, t in scored)
                    preds = [1] * k + [0] * (len(scored) - k)
                    gold = [t for _, t in scored]
                    chances.append(f1(preds, gold))
            median = sorted(chances)[1]
            assert abs(median - 0.5) <= 0.05, f"hash_bits={bits}: {median}"
        # the sweep itself also runs on shuffled input without raising
        report = run_capacity_sweep(shuffled, snips, hash_bits_list=(10, 14))
        assert all(p["median_f1"] < 0.7 for p in report.points)

    @staticmethod
    def labeled(n):
        snips = [extract_snippet(Document(str(i), f"text {i}")) for i in range(n)]
        labels = [QualityLabel(str(i), YES if i % 2 else NO, "V1", "test", "") for i in range(n)]
        return labels, snips

    def test_too_few_examples_rejected(self):
        with pytest.raises(ValueError, match="1,000"):
            run_capacity_sweep(*self.labeled(999))

    def test_repeated_snippet_id_rejected(self):
        labels, snips = self.labeled(1000)
        snips.append(extract_snippet(Document("7", "a second text for 7")))
        with pytest.raises(DuplicateIdError, match="'7' occurs more than once"):
            run_capacity_sweep(labels, snips, hash_bits_list=(10,), seeds=(0,))


class TestPromptRobustness:
    def test_version_independent_mock_agrees_fully(self, prompt_sample):
        report = run_prompt_robustness(prompt_sample[:2000], CONFIG, MockQualityTransport())
        assert all(r == 1.0 for r in report.metadata["pairwise_agreement"].values())
        assert report.aggregate["yes_fraction"]["std"] == 0.0

    def test_flip_rate_agreement_binomial_oracle(self, prompt_sample):
        # V2/V3 each flip 5% of V1's labels independently, so
        # agreement(V1,Vk) ~= 0.95 and agreement(V2,V3) ~= 0.95^2 + 0.05^2.
        transport = MockQualityTransport(flip_rate=0.05)
        report = run_prompt_robustness(prompt_sample, CONFIG, transport)
        agreement = report.metadata["pairwise_agreement"]
        n = len(prompt_sample)
        tol_direct = 4 * math.sqrt(0.95 * 0.05 / n)
        expected_cross = 0.95**2 + 0.05**2
        tol_cross = 4 * math.sqrt(expected_cross * (1 - expected_cross) / n)
        assert abs(agreement["V1-V2"] - 0.95) <= max(tol_direct, 0.01)
        assert abs(agreement["V1-V3"] - 0.95) <= max(tol_direct, 0.01)
        assert abs(agreement["V2-V3"] - expected_cross) <= max(tol_cross, 0.01)

    def test_avg_std_aggregate_shape(self, prompt_sample):
        report = run_prompt_robustness(prompt_sample[:1000], CONFIG, MockQualityTransport(flip_rate=0.05))
        assert len(report.points) == 3
        assert set(report.aggregate["yes_fraction"]) == {"mean", "std"}
        rendered = report.render_text()
        assert "Avg. (Std)" in rendered


class TestIclComparison:
    def test_fidelity_dial_measured(self, icl_world):
        snips, strong, demos = icl_world
        weak = MockQualityTransport({0: 0.60, 5: 0.75})
        report = run_icl_comparison(snips, CONFIG, weak, demos, strong)
        zero, five = report.points
        n = len(snips)
        tol = 4 * math.sqrt(0.6 * 0.4 / n)
        assert abs(zero["agreement_with_strong"] - 0.60) <= max(tol, 0.02)
        assert abs(five["agreement_with_strong"] - 0.75) <= max(tol, 0.02)
        assert five["agreement_with_strong"] >= zero["agreement_with_strong"]
        assert report.metadata["agreement_gain"] > 0

    def test_shot_invariant_labeler_has_equal_agreement(self, icl_world):
        snips, strong, demos = icl_world
        transport = MockQualityTransport()  # ignores demonstrations entirely
        report = run_icl_comparison(snips[:800], CONFIG, transport, demos, strong)
        zero, five = report.points
        assert zero["agreement_with_strong"] == five["agreement_with_strong"]

    def test_exactly_five_demos_required(self, icl_world):
        snips, strong, demos = icl_world
        prompts = []

        class Counting(MockQualityTransport):
            def complete(self, prompt):
                prompts.append(prompt)
                return super().complete(prompt)

        with pytest.raises(ValueError, match="5"):
            run_icl_comparison(snips[:10], CONFIG, Counting(), demos[:3], strong)
        assert prompts == []  # rejected before the transport labels any snippet


class TestReportFiles:
    def test_jsonl_and_text_agree(self, tmp_path, planted_world):
        docs, clf = planted_world
        report = run_ratio_sweep(docs[:500], clf, ratios=(0.25, 0.5, 1.0))
        jsonl_path, text_path = report.save(tmp_path, seed=0, timestamp="20260101T000000")
        assert jsonl_path.name == "ratio-seed0-20260101T000000.jsonl"
        records = [json.loads(l) for l in jsonl_path.read_text().splitlines()]
        points = [r for r in records if r["record"] == "point"]
        text = text_path.read_text()
        for point in points:
            for key in ("precision", "recall", "achieved_ratio"):
                assert f"{point[key]:.6f}" in text

    def test_report_content_deterministic(self, tmp_path, planted_world):
        docs, clf = planted_world
        a = run_ratio_sweep(docs[:500], clf, ratios=(0.25, 1.0))
        b = run_ratio_sweep(docs[:500], clf, ratios=(0.25, 1.0))
        pa = a.save(tmp_path / "a", timestamp="t")[0]
        pb = b.save(tmp_path / "b", timestamp="t")[0]
        assert pa.read_bytes() == pb.read_bytes()

    def test_ratio_sweep_fingerprints_the_classifier_once(self, planted_world, monkeypatch):
        docs, clf = planted_world
        fingerprint, calls = type(clf).fingerprint, []
        monkeypatch.setattr(type(clf), "fingerprint",
                            lambda self: calls.append(self) or fingerprint(self))
        report = run_ratio_sweep(docs[:500], clf, ratios=(0.25, 0.5, 1.0))
        assert calls == [clf]
        assert report.metadata["classifier_id"] == fingerprint(clf)

    def test_header_record_first(self, tmp_path, planted_world):
        docs, clf = planted_world
        report = run_ratio_sweep(docs[:500], clf, ratios=(1.0,))
        jsonl_path, _ = report.save(tmp_path, timestamp="t")
        first = json.loads(jsonl_path.read_text().splitlines()[0])
        assert first["record"] == "header"
        assert first["axis"] == "ratio"


def test_run_sweep_rejects_an_unknown_sweep_before_any_work(monkeypatch):
    import docprune.ablation

    monkeypatch.setattr(docprune.ablation, "generate_documents", None)  # not reached
    with pytest.raises(ValueError, match="unknown sweep 'size'; expected one of ratio, "):
        run_sweep("size", RunConfig())


class TestZeroStrengthChance:
    def test_indistinguishable_strata_give_chance_f1(self):
        # At signal strength 0 the text carries no stratum information, so any
        # classifier's F1 against the hidden stratum sits at the closed-form
        # chance level (0.5 for balanced strata at the prior-matched operating
        # point), within +-0.05 on the 3-seed median.
        from docprune.synthetic import stratum_of

        docs = generate_documents(
            SyntheticCorpusSpec(
                n_docs=2400, high_quality_fraction=0.5, signal_strength=0.0, seed=30
            )
        )
        labels, snips = _mock_labeled(docs)
        stratum = {d.id: 1 if stratum_of(d) else 0 for d in docs}
        config = FeaturizerConfig(hash_bits=14)
        chances = []
        with FeatureStore(config) as store:
            stored = store.add(labels, snips)
            doc_of_row = {r: label.doc_id for r, label in zip(stored.rows, labels)}
            for seed in (0, 1, 2):
                clf = train_classifier(
                    stored, TrainConfig(featurizer=config, val_fraction=0.25), seed=seed
                )
                val = split_train_val(stored, 0.25, seed=seed)[1]  # the part clf held out
                scored = [
                    (s, stratum[doc_of_row[r]]) for s, r in zip(_scores(clf, val), val.rows)
                ]
                scored.sort(key=lambda t: -t[0])
                k = sum(g for _, g in scored)
                preds = [1] * k + [0] * (len(scored) - k)
                gold = [g for _, g in scored]
                chances.append(f1(preds, gold))
        median = sorted(chances)[1]
        assert abs(median - 0.5) <= 0.05, f"chance-level F1 median {median}"
