import json
import math
import os
import tempfile
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from docprune.classifier import (
    Examples,
    FeatureStore,
    FeaturizerConfig,
    TrainConfig,
    split_train_val,
    train_classifier,
)
from docprune.corpus import CorpusError, DuplicateIdError, ingest_shards, write_shards
from docprune import selection
from docprune.labeling import NO, YES, DegenerateLabelerWarning, QualityLabel, yes_fraction
from docprune.mocks import mock_label
from docprune.selection import (
    ScoreSet,
    SelectionDecision,
    TieDegeneracyWarning,
    filter_corpus,
    score_corpus,
    score_documents,
    select_cutoff,
)
from docprune.synthetic import SyntheticCorpusSpec, generate_documents, stratum_of
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

    @pytest.mark.filterwarnings("ignore::docprune.selection.TieDegeneracyWarning")
    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]), min_size=1, max_size=60),
        data=st.data(),
    )
    def test_keep_rule_keeps_the_decided_count_under_ties(self, scores, data):
        scores = records(scores)
        decision = select_cutoff(scores, data.draw(st.floats(1 / len(scores), 1.0)))
        assert sum(map(decision.keeps, scores.values())) == decision.kept

    @settings(max_examples=300, deadline=None)
    @given(
        scores=st.lists(
            st.one_of(st.integers(1, 4).map(lambda k: k / 5), st.floats(1e-7, 1 - 1e-7)),
            min_size=1, max_size=60,
        ),
        data=st.data(),
    )
    def test_cutoff_contract_under_heavy_ties(self, scores, data):
        n = len(scores)
        ratio = data.draw(st.floats(1 / n, 1.0))
        # The 1e-9 absorbs float error in ratio * n, as in 0.29 * 100.
        target = math.floor(ratio * n + 1e-9)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            decision = select_cutoff(records(scores), ratio)
        kept = decision.kept
        assert kept == sum(s > decision.cutoff for s in scores)
        assert kept <= target
        # No strict cutoff at a distinct score keeps more than `kept` within the target.
        assert not [v for v in set(scores) if kept < sum(s > v for s in scores) <= target]
        tie_warnings = [w for w in caught if issubclass(w.category, TieDegeneracyWarning)]
        assert len(tie_warnings) == (kept < target)

    def test_repeated_id_rejected_naming_its_shards(self, tmp_path):
        for i, rows in enumerate([[("a", 0.1), ("b", 0.5)], [("a", 0.9)]]):
            with open(tmp_path / f"scores-s{i}.jsonl", "w") as fh:
                header = {"classifier_id": "c", "format_version": 2, "source_shard": f"s{i}",
                          "rows": len(rows)}
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
    shard_set = write_shards(generate_documents(spec), tmp / "corpus", 500)
    docs = list(ingest_shards(shard_set))
    config = FeaturizerConfig(hash_bits=14)
    snips = [extract_snippet(doc) for doc in docs[:800]]
    targets = [1 if mock_label(snip) == YES else 0 for snip in snips]
    with FeatureStore(config) as store:
        examples = Examples(store, store.extend(s.text for s in snips), targets)
        train, val = split_train_val(examples, 0.1, seed=0)
        clf = train_classifier(train, val, TrainConfig(featurizer=config), seed=0)
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
        assert score_set.report.empty_text == 1

    def test_report_carries_timing(self, small_world):
        tmp, shard_set, docs, clf = small_world
        score_set = ScoreSet.open(tmp / "scores1")
        # report only exists on freshly scored sets
        fresh = score_corpus(shard_set, clf, workers=2, out_dir=tmp / "scores_t")
        assert fresh.report.input_documents == len(docs)
        assert len(fresh.report.per_shard) == len(shard_set.shards)
        assert fresh.report.seconds > 0

    def test_mixed_classifier_ids_rejected(self, tmp_path, small_world):
        _, _, _, clf = small_world
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        for i, cid in enumerate(["aaa", "bbb"]):
            with open(scores_dir / f"scores-{i}.jsonl", "w") as fh:
                fh.write(json.dumps({"classifier_id": cid, "format_version": 2,
                                     "source_shard": f"{i}.jsonl", "rows": 1}) + "\n")
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
        assert manifest.per_shard[0]["output_documents"] == 3
        assert manifest.per_shard[0]["input_documents"] == 10

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
        """The second shard's unscored document fails the run after the first
        shard's kept documents were written (`docprune filter` discards them:
        tests/test_config_cli.py::TestStagedOutputs)."""
        from conftest import corpus_dir

        shard_set = corpus_dir(tmp_path, {
            "s0.jsonl": [{"id": "a", "text": "x"}], "s1.jsonl": [{"id": "b", "text": "y"}],
        })
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
        out1, _ = filter_corpus(shard_set, scores, decision, tmp_path / "f1")
        out4, _ = filter_corpus(shard_set, scores, decision, tmp_path / "f4")
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

    def test_memory_does_not_grow_with_kept_documents(self, tmp_path):
        """A shard's kept documents stream into its file: keeping 2,000 holds
        no more memory than keeping 200."""
        from conftest import corpus_dir, traced_peak

        def peak(kept: int) -> int:
            n = 2_000
            shard_set = corpus_dir(tmp_path / str(kept), {"s.jsonl": [
                {"id": f"d{i}", "text": f"document {i} " + "x" * 2_000} for i in range(n)
            ]})
            scores = {f"d{i}": 0.9 if i < kept else 0.1 for i in range(n)}
            decision = SelectionDecision(0.5, kept / n, kept / n, kept, n - kept)
            out = tmp_path / str(kept) / "out"
            filter_corpus(shard_set, scores, decision, out)  # warm up
            return traced_peak(lambda: filter_corpus(shard_set, scores, decision, out))

        assert peak(2_000) < 1.5 * peak(200)

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


# A shard is a list of document texts; "" is an empty-text document.
SHARD_TEXTS = st.lists(
    st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]), max_size=6).map(" ".join),
    max_size=5,
)


class TestScoringProcesses:
    """`score_corpus` on forked worker processes: the bytes of one worker,
    the CPU time of each shard, and the error a dead worker raises."""

    @settings(max_examples=8, deadline=None)  # every example forks
    @given(workers=st.integers(1, 4), shards=st.lists(SHARD_TEXTS, min_size=1, max_size=6))
    @example(workers=4, shards=[[], ["", "alpha beta"]])  # more workers than shards
    @example(workers=3, shards=[["alpha"], [], ["", ""], ["beta gamma", "delta"]])
    def test_any_worker_count_writes_the_bytes_of_one(self, small_world, workers, shards):
        from conftest import corpus_dir

        clf = small_world[3]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            shard_set = corpus_dir(tmp, {
                f"s{i}.jsonl": [{"id": f"s{i}-{j}", "text": t} for j, t in enumerate(texts)]
                for i, texts in enumerate(shards)
            })
            one = score_corpus(shard_set, clf, workers=1, out_dir=tmp / "w1")
            many = score_corpus(shard_set, clf, workers=workers, out_dir=tmp / "wn")
            assert [p.name for p in one.shard_paths] == [p.name for p in many.shard_paths]
            for p1, pn in zip(one.shard_paths, many.shard_paths):
                assert p1.read_bytes() == pn.read_bytes()
            assert many.report.empty_text == sum(t == "" for ts in shards for t in ts)
            assert len(many.report.per_shard) == len(shards)
            assert all(s.cpu_seconds >= 0 for s in many.report.per_shard)

            scores = one.load_scores()
            if not scores:
                return
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TieDegeneracyWarning)
                decision = select_cutoff(scores, 0.5)
            outs = [
                filter_corpus(shard_set, score_set.load_scores(), decision, tmp / name)
                for score_set, name in ((one, "f1"), (many, "fn"))
            ]
            assert outs[0][1].per_shard == outs[1][1].per_shard
            for s1, sn in zip(outs[0][0].shards, outs[1][0].shards):
                assert s1.path.read_bytes() == sn.path.read_bytes()

    def test_two_workers_report_their_cpu_time(self, tmp_path, small_world):
        _, shard_set, _, clf = small_world
        report = score_corpus(shard_set, clf, workers=2, out_dir=tmp_path / "scores").report
        assert all(s.cpu_seconds > 0 for s in report.per_shard)
        assert report.total_cpu_seconds == pytest.approx(
            sum(s.cpu_seconds for s in report.per_shard))

    def test_dead_worker_raises_broken_process_pool(self, tmp_path, small_world, monkeypatch):
        """Each worker writes its first shard and exits in its second; the
        patch is inherited through fork, and each worker counts its own calls.
        `docprune score` discards the shards written (tests/test_config_cli.py)."""
        _, shard_set, _, clf = small_world
        assert len(shard_set.shards) > 2
        calls = []

        def dies_in_second_shard(*args):
            calls.append(args)
            if len(calls) > 1:
                os._exit(1)
            return score_documents(*args)

        monkeypatch.setattr(selection, "score_documents", dies_in_second_shard)
        with pytest.raises(BrokenProcessPool):
            score_corpus(shard_set, clf, workers=2, out_dir=tmp_path / "scores")
