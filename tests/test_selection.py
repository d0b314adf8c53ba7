import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docprune.classifier import FeaturizerConfig, LabeledText, TrainConfig, split_train_val, train_classifier
from docprune.corpus import CorpusError, ingest_shards
from docprune.labeling import NO, YES, DegenerateLabelerWarning, QualityLabel, yes_fraction
from docprune.mocks import mock_label
from docprune.selection import (
    DuplicateIdError,
    ScoreSet,
    SelectionDecision,
    TieDegeneracyWarning,
    filter_corpus,
    score_corpus,
    select_cutoff,
)
from docprune.synthetic import SyntheticCorpusSpec, generate_synthetic_corpus, stratum_of
from docprune.corpus import extract_snippet


def records(scores):
    return {f"d{i}": s for i, s in enumerate(scores)}


class TestSelectCutoff:
    def test_sort_oracle_case(self):
        # scores 0.1..1.0, target 0.30 -> keep exactly {0.8, 0.9, 1.0}
        recs = records([round(0.1 * i, 1) for i in range(1, 11)])
        decision = select_cutoff(recs, 0.30)
        assert 0.7 <= decision.cutoff < 0.8
        kept = {doc_id for doc_id, s in recs.items() if s > decision.cutoff}
        assert kept == {"d7", "d8", "d9"}
        assert decision.kept == 3
        assert decision.achieved_ratio == pytest.approx(0.3)

    def test_target_one_keeps_everything(self):
        recs = records([round(0.1 * i, 1) for i in range(1, 11)])
        decision = select_cutoff(recs, 1.0)
        assert decision.kept == 10
        assert decision.achieved_ratio == 1.0
        assert decision.cutoff < min(recs.values())

    def test_all_equal_scores_tie_degeneracy(self):
        recs = records([0.6] * 12)
        with pytest.warns(TieDegeneracyWarning):
            decision = select_cutoff(recs, 0.5)
        assert decision.kept == 0
        assert decision.achieved_ratio == 0.0
        assert "tied" in decision.tie_rule

    def test_ratio_accuracy_on_distinct_scores(self):
        rng = np.random.default_rng(0)
        for n in (10, 97, 1000):
            scores = rng.permutation(np.linspace(0.01, 0.99, n))
            recs = records(list(scores))
            for ratio in (0.2, 0.25, 0.3, 0.4, 0.5, 1.0):
                decision = select_cutoff(recs, ratio)
                assert abs(decision.achieved_ratio - ratio) <= 1.0 / n + 1e-12
                assert decision.kept + decision.dropped == n

    def test_nested_kept_sets(self):
        rng = np.random.default_rng(1)
        recs = records(list(rng.permutation(np.linspace(0.01, 0.99, 400))))
        previous = set()
        for ratio in (0.2, 0.25, 0.3, 0.4, 0.5, 1.0):
            decision = select_cutoff(recs, ratio)
            kept = {doc_id for doc_id, s in recs.items() if s > decision.cutoff}
            assert previous <= kept
            previous = kept

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            select_cutoff({}, 0.5)

    def test_ratio_bounds(self):
        recs = records([0.5])
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                select_cutoff(recs, bad)

    @pytest.mark.filterwarnings("ignore::docprune.selection.TieDegeneracyWarning")
    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(
            st.one_of(st.sampled_from([0.2, 0.5, 0.7]), st.floats(1e-7, 1 - 1e-7)),
            min_size=1, max_size=40,
        ),
        data=st.data(),
    )
    def test_kept_is_largest_strict_count_within_target(self, scores, data):
        keep_target = data.draw(st.integers(1, len(scores)))
        decision = select_cutoff(records(scores), keep_target / len(scores))
        # Counts a strict cutoff can keep: above each score, or everything.
        feasible = {sum(s > c for s in scores) for c in scores} | {len(scores)}
        assert decision.kept == sum(s > decision.cutoff for s in scores)
        assert decision.kept == max(k for k in feasible if k <= keep_target)
        assert decision.kept + decision.dropped == len(scores)

    def test_repeated_id_rejected_naming_its_shards(self, tmp_path):
        for i, rows in enumerate([[("a", 0.1), ("b", 0.5)], [("a", 0.9)]]):
            with open(tmp_path / f"scores-s{i}.jsonl", "w") as fh:
                header = {"classifier_id": "c", "format_version": 1, "source_shard": f"s{i}"}
                fh.write(json.dumps(header) + "\n")
                for doc_id, score in rows:
                    fh.write(json.dumps({"doc_id": doc_id, "score": score}) + "\n")
        with pytest.raises(DuplicateIdError, match=r"'a'.*2 times.*s0, s1"):
            ScoreSet.open(tmp_path).load_scores()


class TestDefaultRatio:
    def make_labels(self, yes, no):
        labels = [QualityLabel(f"y{i}", YES, "V1", "m", YES) for i in range(yes)]
        labels += [QualityLabel(f"n{i}", NO, "V1", "m", NO) for i in range(no)]
        return labels

    def test_quarter_yes(self):
        assert yes_fraction(self.make_labels(25, 75)) == 0.25

    def test_500_of_2000(self):
        assert yes_fraction(self.make_labels(500, 1500)) == 0.25

    def test_all_yes_warns(self):
        with pytest.warns(DegenerateLabelerWarning):
            assert yes_fraction(self.make_labels(10, 0)) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            yes_fraction([])


@pytest.fixture(scope="module")
def small_world(tmp_path_factory):
    """A small planted corpus plus a classifier trained on mock labels."""
    tmp = tmp_path_factory.mktemp("world")
    spec = SyntheticCorpusSpec(n_docs=2000, high_quality_fraction=0.25, seed=13)
    shard_set = generate_synthetic_corpus(spec, tmp / "corpus", n_shards=4)
    docs = list(ingest_shards(shard_set))
    config = FeaturizerConfig(hash_bits=14)
    examples = []
    for doc in docs[:800]:
        snip = extract_snippet(doc)
        target = 1 if mock_label(snip) == YES else 0
        examples.append(LabeledText(doc.id, snip.text, target))
    train, val = split_train_val(examples, 0.1, seed=0)
    clf = train_classifier(train, val, TrainConfig(featurizer=config, seed=0))
    return tmp, shard_set, docs, clf


class TestScoreCorpus:
    def test_one_record_per_document(self, small_world):
        tmp, shard_set, docs, clf = small_world
        score_set = score_corpus(shard_set, clf, workers=1, out_dir=tmp / "scores1")
        scores = score_set.load_scores()
        assert len(scores) == len(docs)
        assert set(scores) == {d.id for d in docs}
        assert all(0 < s < 1 for s in scores.values())

    def test_worker_count_does_not_change_bytes(self, small_world):
        tmp, shard_set, docs, clf = small_world
        a = score_corpus(shard_set, clf, workers=1, out_dir=tmp / "scores_w1")
        b = score_corpus(shard_set, clf, workers=4, out_dir=tmp / "scores_w4")
        for pa, pb in zip(a.shard_paths, b.shard_paths):
            assert pa.read_bytes() == pb.read_bytes()

    def test_rescoring_identical(self, small_world):
        tmp, shard_set, docs, clf = small_world
        a = score_corpus(shard_set, clf, workers=2, out_dir=tmp / "scores_r1")
        b = score_corpus(shard_set, clf, workers=2, out_dir=tmp / "scores_r2")
        for pa, pb in zip(a.shard_paths, b.shard_paths):
            assert pa.read_bytes() == pb.read_bytes()

    def test_high_stratum_scores_higher(self, small_world):
        tmp, shard_set, docs, clf = small_world
        score_set = ScoreSet.open(tmp / "scores1")
        scores = score_set.load_scores()
        high = [scores[d.id] for d in docs if stratum_of(d)]
        low = [scores[d.id] for d in docs if not stratum_of(d)]
        assert np.mean(high) > np.mean(low)

    def test_empty_text_documents_skipped(self, tmp_path, small_world):
        _, _, _, clf = small_world
        from conftest import corpus_dir

        shard_set = corpus_dir(
            tmp_path,
            {"s.jsonl": [{"id": "a", "text": "alpha beta"}, {"id": "b", "text": ""}]},
        )
        score_set = score_corpus(shard_set, clf, out_dir=tmp_path / "scores")
        assert set(score_set.load_scores()) == {"a"}
        assert score_set.report.total_skipped == 1

    def test_report_carries_timing(self, small_world):
        tmp, shard_set, docs, clf = small_world
        score_set = ScoreSet.open(tmp / "scores1")
        # report only exists on freshly scored sets
        fresh = score_corpus(shard_set, clf, workers=2, out_dir=tmp / "scores_t")
        assert fresh.report.total_records == len(docs)
        assert len(fresh.report.per_shard) == len(shard_set.shards)
        assert fresh.report.seconds > 0

    def test_mixed_classifier_ids_rejected(self, tmp_path, small_world):
        _, _, _, clf = small_world
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        for i, cid in enumerate(["aaa", "bbb"]):
            with open(scores_dir / f"scores-{i}.jsonl", "w") as fh:
                fh.write(json.dumps({"classifier_id": cid, "format_version": 1}) + "\n")
                fh.write(json.dumps({"doc_id": f"d{i}", "score": 0.5}) + "\n")
        with pytest.raises(CorpusError, match="mix"):
            ScoreSet.open(scores_dir)


class TestFilterCorpus:
    def test_sort_oracle_end_to_end(self, tmp_path):
        from conftest import corpus_dir

        shard_set = corpus_dir(
            tmp_path,
            {"s.jsonl": [{"id": f"d{i}", "text": f"doc {i}"} for i in range(10)]},
        )
        scores = {f"d{i}": round(0.1 * (i + 1), 1) for i in range(10)}
        decision = select_cutoff(scores, 0.30)
        out_set, manifest = filter_corpus(shard_set, scores, decision, tmp_path / "out")
        kept = [d.id for d in ingest_shards(out_set)]
        assert kept == ["d7", "d8", "d9"]
        assert manifest.output_documents == 3
        assert manifest.per_shard[0]["kept"] == 3
        assert manifest.per_shard[0]["dropped"] == 7

    def test_identity_filter_at_ratio_one(self, tmp_path, small_world):
        _, shard_set, docs, clf = small_world
        score_dir = tmp_path / "scores"
        score_set = score_corpus(shard_set, clf, out_dir=score_dir)
        scores = score_set.load_scores()
        decision = select_cutoff(scores, 1.0)
        out_set, manifest = filter_corpus(shard_set, scores, decision, tmp_path / "out")
        out_docs = list(ingest_shards(out_set))
        assert [(d.id, d.text, d.meta) for d in out_docs] == [
            (d.id, d.text, d.meta) for d in docs
        ]

    def test_missing_score_is_fatal(self, tmp_path):
        from conftest import corpus_dir

        shard_set = corpus_dir(
            tmp_path, {"s.jsonl": [{"id": "a", "text": "x"}, {"id": "b", "text": "y"}]}
        )
        decision = SelectionDecision(
            cutoff=0.5, target_ratio=0.5, achieved_ratio=0.5, kept=1, dropped=1
        )
        with pytest.raises(CorpusError, match="join integrity"):
            filter_corpus(shard_set, {"a": 0.9}, decision, tmp_path / "out")

    def test_decision_mismatch_is_fatal(self, tmp_path):
        from conftest import corpus_dir

        shard_set = corpus_dir(tmp_path, {"s.jsonl": [{"id": "a", "text": "x"}]})
        decision = SelectionDecision(
            cutoff=0.5, target_ratio=0.5, achieved_ratio=0.5, kept=5, dropped=5
        )
        with pytest.raises(CorpusError, match="mismatch"):
            filter_corpus(shard_set, {"a": 0.9}, decision, tmp_path / "out")

    def test_worker_independence(self, tmp_path, small_world):
        _, shard_set, docs, clf = small_world
        score_set = score_corpus(shard_set, clf, out_dir=tmp_path / "scores")
        scores = score_set.load_scores()
        decision = select_cutoff(scores, 0.25)
        out1, _ = filter_corpus(shard_set, scores, decision, tmp_path / "f1", workers=1)
        out4, _ = filter_corpus(shard_set, scores, decision, tmp_path / "f4", workers=4)
        for s1, s4 in zip(out1.shards, out4.shards):
            assert s1.path.read_bytes() == s4.path.read_bytes()

    def test_shard_boundaries_preserved(self, tmp_path, small_world):
        _, shard_set, docs, clf = small_world
        score_set = score_corpus(shard_set, clf, out_dir=tmp_path / "scores")
        scores = score_set.load_scores()
        decision = select_cutoff(scores, 0.25)
        out_set, manifest = filter_corpus(shard_set, scores, decision, tmp_path / "out")
        assert [s.path.name for s in out_set.shards] == [
            s.path.name for s in shard_set.shards
        ]
        assert len(manifest.per_shard) == len(shard_set.shards)

    def test_planted_precision_after_training(self, tmp_path, small_world):
        _, shard_set, docs, clf = small_world
        score_set = score_corpus(shard_set, clf, out_dir=tmp_path / "scores")
        scores = score_set.load_scores()
        decision = select_cutoff(scores, 0.25)
        out_set, _ = filter_corpus(shard_set, scores, decision, tmp_path / "out")
        kept_docs = list(ingest_shards(out_set))
        precision = sum(1 for d in kept_docs if stratum_of(d)) / len(kept_docs)
        assert precision >= 0.9

    def test_manifest_roundtrip(self, tmp_path):
        from conftest import corpus_dir
        from docprune.corpus import read_json
        from docprune.selection import Manifest

        shard_set = corpus_dir(tmp_path, {"s.jsonl": [{"id": "a", "text": "x"}]})
        decision = SelectionDecision(
            cutoff=0.1, target_ratio=1.0, achieved_ratio=1.0, kept=1, dropped=0
        )
        _, manifest = filter_corpus(shard_set, {"a": 0.9}, decision, tmp_path / "out")
        loaded = read_json(tmp_path / "out" / "filter-manifest.json", Manifest)
        assert loaded == manifest
