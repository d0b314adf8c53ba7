"""Acceptance suite: one test per criterion, at the stated tolerances.

The conftest terminal-summary hook prints one PASS/FAIL line per criterion at
the end of the run.
"""

import itertools
import random
import time

import numpy as np
import pytest

import docprune.classifier as classifier
from docprune.ablation import run_capacity_sweep, run_icl_comparison, snippets_of
from docprune.classifier import (
    Examples,
    FeatureStore,
    FeaturizerConfig,
    class_weight_map,
    f1,
    score,
    split_train_val,
    train_classifier,
)
from docprune.cli import main
from docprune.corpus import Document, ShardSet, extract_snippet, ingest_shards, reservoir_sample, write_shards
from docprune.labeling import (
    INSTRUCTIONS,
    NO,
    YES,
    DegenerateLabelerWarning,
    IclDemonstration,
    LabelerConfig,
    QualityLabel,
    build_prompt,
    label_documents,
    yes_fraction,
)
from docprune.mocks import MockQualityTransport, hash01, query_snippet
from docprune.selection import (
    ScoreSet,
    filter_corpus,
    score_corpus,
    select_cutoff,
)
from docprune.synthetic import SyntheticCorpusSpec, generate_documents, stratum_of, truth_by_doc

from test_classifier import check_gradient_against_finite_differences, feature_batch
from test_labeling import FROZEN_INSTRUCTIONS, SAMPLE_PROMPT

MOCK_CONFIG = LabelerConfig(model_name="mock", max_concurrent_requests=8)


class DegenerateMockTransport:
    """Answers Yes at a fixed rate regardless of content: a labeler too weak
    to discriminate, for the degeneracy diagnostic."""

    def __init__(self, yes_rate: float):
        self.yes_rate = yes_rate

    def complete(self, prompt: str) -> str:
        return YES if hash01(f"degenerate|{query_snippet(prompt)}") < self.yes_rate else NO


@pytest.fixture(scope="module")
def planted_corpus_10k(tmp_path_factory):
    """The acceptance corpus: 10,000 docs, 25% planted high quality, strength 1.0."""
    root = tmp_path_factory.mktemp("acceptance-corpus")
    spec = SyntheticCorpusSpec(
        n_docs=10_000, high_quality_fraction=0.25, signal_strength=1.0, seed=42
    )
    shard_set = write_shards(generate_documents(spec), root / "corpus", 2_500)
    return root, shard_set


def test_criterion_1_end_to_end_pipeline(planted_corpus_10k, tmp_path):
    """sample(2,000) -> mock-label -> train -> score -> select(0.25) -> filter:
    precision >= 0.90, recall >= 0.85, wall time < 2 minutes."""
    root, shard_set = planted_corpus_10k
    corpus_dir = root / "corpus"
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        f"[run]\nseed = 0\noutput_root = {tmp_path / 'runs'}\n\n"
        f"[corpus]\ninput_dir = {corpus_dir}\nsample_size = 2000\n\n"
        "[labeler]\nmock = true\n\n"
        "[distiller]\nhash_bits = 18\n\n"
        "[selector]\nworkers = 2\n"
    )
    t0 = time.monotonic()
    sample_dir = tmp_path / "sample"
    label_dir = tmp_path / "label"
    train_dir = tmp_path / "train"
    score_dir = tmp_path / "score"
    select_dir = tmp_path / "select"
    filter_dir = tmp_path / "filtered"

    assert main(["sample", "--config", str(cfg), "--out", str(sample_dir)]) == 0
    assert main([
        "label", "--config", str(cfg), "--snippets", str(sample_dir / "snippets.jsonl"),
        "--out", str(label_dir),
    ]) == 0
    assert main([
        "train", "--config", str(cfg), "--snippets", str(sample_dir / "snippets.jsonl"),
        "--labels", str(label_dir / "labels.jsonl"), "--out", str(train_dir),
    ]) == 0
    assert main([
        "score", "--config", str(cfg), "--model", str(train_dir / "model.bin"),
        "--out", str(score_dir),
    ]) == 0
    assert main([
        "select", "--config", str(cfg), "--scores", str(score_dir),
        "--target-ratio", "0.25", "--out", str(select_dir),
    ]) == 0
    assert main([
        "filter", "--config", str(cfg), "--scores", str(score_dir),
        "--decision", str(select_dir / "decision.json"), "--out", str(filter_dir),
    ]) == 0
    elapsed = time.monotonic() - t0

    kept = list(ingest_shards(ShardSet.from_dir(filter_dir)))
    total_high = sum(1 for d in ingest_shards(shard_set) if stratum_of(d))
    kept_high = sum(1 for d in kept if stratum_of(d))
    precision = kept_high / len(kept)
    recall = kept_high / total_high
    assert precision >= 0.90, f"kept-set precision {precision:.4f}"
    assert recall >= 0.85, f"kept-set recall {recall:.4f}"
    assert elapsed < 120, f"pipeline took {elapsed:.1f}s"


def test_criterion_2_ratio_fidelity():
    """|achieved - target| <= 1/N for each ratio on distinct scores; kept sets
    nested across the ratio grid."""
    rng = np.random.default_rng(7)
    n = 10_000
    scores = rng.permutation(np.linspace(0.0001, 0.9999, n))
    records = {f"d{i}": float(s) for i, s in enumerate(scores)}
    previous = set()
    for ratio in (0.20, 0.25, 0.30, 0.40, 0.50, 1.00):
        decision = select_cutoff(records, ratio)
        assert abs(decision.achieved_ratio - ratio) <= 1.0 / n + 1e-12, (
            f"ratio {ratio}: achieved {decision.achieved_ratio}"
        )
        kept = {doc_id for doc_id, s in records.items() if s > decision.cutoff}
        assert previous <= kept, f"kept sets not nested at ratio {ratio}"
        previous = kept


def test_criterion_3_drop_rule_consistency():
    """from-labels with 25% Yes reproduces the drop-three-quarters rule:
    achieved drop fraction 0.75 +- 0.01 at N = 10,000."""
    labels = [
        QualityLabel(f"y{i}", YES, "V1", "m", YES) for i in range(2_500)
    ] + [QualityLabel(f"n{i}", NO, "V1", "m", NO) for i in range(7_500)]
    ratio = yes_fraction(labels)
    assert ratio == 0.25

    rng = np.random.default_rng(11)
    scores = rng.permutation(np.linspace(0.0001, 0.9999, 10_000))
    records = {f"d{i}": float(s) for i, s in enumerate(scores)}
    decision = select_cutoff(records, ratio)
    drop_fraction = decision.dropped / (decision.kept + decision.dropped)
    assert abs(drop_fraction - 0.75) <= 0.01, f"drop fraction {drop_fraction}"


def test_criterion_4_capacity_ordering():
    """Median validation F1 over 3 seeds is non-decreasing across hash_bits
    {10, 14, 18} on the many-phrase synthetic task (ordering only)."""
    docs = generate_documents(
        SyntheticCorpusSpec(
            n_docs=2_500, high_quality_fraction=0.5, seed=11, marker_style="many"
        )
    )
    snips = snippets_of(docs)
    labels, _ = label_documents(snips, MOCK_CONFIG, transport=MockQualityTransport())
    report = run_capacity_sweep(labels, snips, hash_bits_list=(10, 14, 18), seeds=(0, 1, 2))
    medians = [p["median_f1"] for p in report.points]
    assert report.metadata["monotone_nondecreasing"], f"medians {medians}"
    assert medians == sorted(medians)


class TestCriterion5ClassifierCorrectness:
    def test_gradient_matches_finite_differences(self):
        # The gradient the trainer applies (`loss_and_grad`), not a copy of it.
        rng = random.Random(5)
        np_rng = np.random.default_rng(5)
        config = FeaturizerConfig(hash_bits=8)
        rows = [{rng.randrange(config.dim): rng.randint(1, 4) for _ in range(10)} for _ in range(10)]
        targets = np.array([i % 2 for i in range(10)], dtype=np.float64)
        cw = class_weight_map([i % 2 for i in range(10)])
        sample_weights = np.array([cw[i % 2] for i in range(10)])
        weights = np_rng.normal(0, 0.7, config.dim)
        check_gradient_against_finite_differences(
            feature_batch(rows), targets, sample_weights, weights, -0.2,
            sorted({k for r in rows for k in r}),
        )

    def test_f1_matches_brute_force_exactly(self):
        def brute(preds, gold):
            tp = sum(1 for p, g in zip(preds, gold) if p == 1 and g == 1)
            fp = sum(1 for p, g in zip(preds, gold) if p == 1 and g == 0)
            fn = sum(1 for p, g in zip(preds, gold) if p == 0 and g == 1)
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            return 2 * p * r / (p + r) if p + r else 0.0

        for preds in itertools.product((0, 1), repeat=4):
            for gold in itertools.product((0, 1), repeat=4):
                assert f1(list(preds), list(gold)) == brute(preds, gold)

    def test_separable_data_reaches_f1(self):
        docs = generate_documents(SyntheticCorpusSpec(n_docs=2_000, seed=15))
        config = FeaturizerConfig(hash_bits=18)
        targets = [1 if stratum_of(doc) else 0 for doc in docs]
        with FeatureStore(config) as store:
            examples = Examples(store, store.extend(d.text for d in docs), targets)
            clf = train_classifier(examples, seed=0)
        assert clf.training_meta["val_f1"] >= 0.95

    def test_shuffled_labels_fall_to_chance(self, monkeypatch):
        # Balanced gold, so chance F1 at the prior-matched operating point is
        # 0.5; the 3-seed median must land within +-0.05.
        monkeypatch.setattr(classifier, "VAL_FRACTION", 0.25)
        docs = generate_documents(
            SyntheticCorpusSpec(n_docs=4_000, high_quality_fraction=0.5, seed=7)
        )
        config = FeaturizerConfig(hash_bits=14)
        targets = [1 if stratum_of(d) else 0 for d in docs]
        rng = random.Random(0)
        rng.shuffle(targets)
        chances = []
        with FeatureStore(config) as store:
            stored = Examples(store, store.extend(d.text for d in docs), targets)
            for seed in (0, 1, 2):
                clf = train_classifier(stored, seed=seed)
                # the part clf held out
                val = split_train_val(stored, classifier.VAL_FRACTION, seed=seed)[1]
                scored = [
                    (score(clf, extract_snippet(Document("", docs[r].text))), t) for r, t in zip(val.rows, val.targets)
                ]
                scored.sort(key=lambda t: -t[0])
                k = sum(t for _, t in scored)
                preds = [1] * k + [0] * (len(scored) - k)
                gold = [t for _, t in scored]
                chances.append(f1(preds, gold))
        median = sorted(chances)[1]
        assert abs(median - 0.5) <= 0.05, f"chance-level F1 median {median}"


class TestCriterion6PromptFidelity:
    def test_v1_prompt_byte_equal_for_sample_snippet(self):
        rendered = build_prompt(extract_snippet(Document("sample", "I am a document.")), "V1")
        assert rendered == SAMPLE_PROMPT

    @pytest.mark.parametrize("version", ["V1", "V2", "V3"])
    def test_instructions_byte_match(self, version):
        assert INSTRUCTIONS[version] == FROZEN_INSTRUCTIONS[version]


class TestCriterion7DeterminismAndParallelSafety:
    def test_scoring_and_filtering_worker_independent(self, planted_corpus_10k, tmp_path):
        root, shard_set = planted_corpus_10k
        docs = list(ingest_shards(shard_set))
        sample = reservoir_sample(iter(docs), 1_000, seed=3)
        config = FeaturizerConfig(hash_bits=14)
        targets = [1 if stratum_of(d) else 0 for d in sample]
        with FeatureStore(config) as store:
            examples = Examples(store, store.extend(d.text for d in sample), targets)
            clf = train_classifier(examples, seed=0)

        sets = {}
        for workers in (1, 4):
            score_corpus(shard_set, clf, workers=workers, out_dir=tmp_path / f"scores-w{workers}")
            sets[workers] = ScoreSet.open(tmp_path / f"scores-w{workers}")
        for p1, p4 in zip(sets[1].shard_paths, sets[4].shard_paths):
            assert p1.read_bytes() == p4.read_bytes()

        decision = select_cutoff(sets[1].load_scores(), 0.25)
        outs = {}
        for workers in (1, 4):
            outs[workers], _ = filter_corpus(
                shard_set, sets[workers].load_scores(), decision,
                tmp_path / f"filtered-w{workers}",
            )
        for s1, s4 in zip(outs[1].shards, outs[4].shards):
            assert s1.path.read_bytes() == s4.path.read_bytes()

    def test_seeded_stages_rerun_identical(self, planted_corpus_10k):
        root, shard_set = planted_corpus_10k
        spec = SyntheticCorpusSpec(n_docs=500, seed=9)
        assert [
            (d.id, d.text) for d in generate_documents(spec)
        ] == [(d.id, d.text) for d in generate_documents(spec)]

        docs = list(ingest_shards(shard_set))
        a = reservoir_sample(iter(docs), 500, seed=5)
        b = reservoir_sample(iter(docs), 500, seed=5)
        assert [d.id for d in a] == [d.id for d in b]

        config = FeaturizerConfig(hash_bits=12)
        targets = [1 if stratum_of(d) else 0 for d in a]
        with FeatureStore(config) as store:
            examples = Examples(store, store.extend(d.text for d in a), targets)
            m1 = train_classifier(examples, seed=1)
            m2 = train_classifier(examples, seed=1)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.bias == m2.bias


def test_criterion_8_degenerate_labeler_detection():
    """A ~98%-yes mock triggers the diagnostic warning and the default ratio
    rule surfaces 0.98."""
    docs = generate_documents(SyntheticCorpusSpec(n_docs=10_000, seed=17))
    snips = snippets_of(docs)
    with pytest.warns(DegenerateLabelerWarning):
        labels, stats = label_documents(
            snips, MOCK_CONFIG, transport=DegenerateMockTransport(yes_rate=0.98)
        )
    assert abs(stats.yes_fraction - 0.98) <= 0.005
    with pytest.warns(DegenerateLabelerWarning):
        ratio = yes_fraction(labels)
    assert abs(ratio - 0.98) <= 0.005

    # exact-count variant: 98 Yes + 2 No surfaces exactly 0.98
    exact = [QualityLabel(f"y{i}", YES, "V1", "m", YES) for i in range(98)]
    exact += [QualityLabel(f"n{i}", NO, "V1", "m", NO) for i in range(2)]
    with pytest.warns(DegenerateLabelerWarning):
        assert yes_fraction(exact) == 0.98


def test_criterion_9_icl_proxy():
    """Fidelity-dial mock: measured agreement 0.60 -> 0.75 within +-0.02 at
    N = 10,000; 5-shot agreement >= 0-shot."""
    docs = generate_documents(SyntheticCorpusSpec(n_docs=10_005, seed=5))
    snips = snippets_of(docs)
    strong = truth_by_doc(docs)
    demos = [
        IclDemonstration(s.text, strong[s.doc_id], "strong-reference")
        for s in snips[:5]
    ]
    weak = MockQualityTransport({0: 0.60, 5: 0.75})
    report = run_icl_comparison(snips[5:], MOCK_CONFIG, weak, demos, strong)
    zero, five = report.points
    assert abs(zero["agreement_with_strong"] - 0.60) <= 0.02
    assert abs(five["agreement_with_strong"] - 0.75) <= 0.02
    assert five["agreement_with_strong"] >= zero["agreement_with_strong"]
