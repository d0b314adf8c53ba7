import pytest

from docprune.classifier import FeaturizerConfig, featurize_text
from docprune.corpus import extract_snippet, ingest_shards, write_shards
from docprune.labeling import NO, YES
from docprune.mocks import mock_label
from docprune.synthetic import (
    HIGH_PHRASES,
    LOW_PHRASES,
    SyntheticCorpusSpec,
    generate_documents,
    marker_truth,
    stratum_of,
)


class TestSpecValidation:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            SyntheticCorpusSpec(n_docs=99)

    def test_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                SyntheticCorpusSpec(n_docs=200, high_quality_fraction=bad)

    def test_strength_bounds(self):
        with pytest.raises(ValueError):
            SyntheticCorpusSpec(n_docs=200, signal_strength=1.5)

    def test_marker_style_checked(self):
        with pytest.raises(ValueError):
            SyntheticCorpusSpec(n_docs=200, marker_style="weird")


class TestGeneration:
    def test_deterministic(self):
        spec = SyntheticCorpusSpec(n_docs=300, seed=9)
        a = generate_documents(spec)
        b = generate_documents(spec)
        assert [(d.id, d.text, d.meta) for d in a] == [(d.id, d.text, d.meta) for d in b]

    def test_stratum_fraction_exact(self):
        docs = generate_documents(SyntheticCorpusSpec(n_docs=10_000, seed=2))
        n_high = sum(1 for d in docs if stratum_of(d))
        assert abs(n_high - 2500) <= 100  # exact-count construction: equality
        assert n_high == 2500

    def test_full_strength_is_separable_by_markers(self):
        docs = generate_documents(
            SyntheticCorpusSpec(n_docs=500, signal_strength=1.0, seed=3)
        )
        for doc in docs:
            expected = YES if stratum_of(doc) else NO
            assert marker_truth(doc.text) == expected

    def test_zero_strength_has_balanced_marker_majorities(self):
        docs = generate_documents(
            SyntheticCorpusSpec(n_docs=4000, signal_strength=0.0, seed=4)
        )
        # marker majorities are coin flips regardless of stratum
        yes_high = [d for d in docs if stratum_of(d) and marker_truth(d.text) == YES]
        high = [d for d in docs if stratum_of(d)]
        assert abs(len(yes_high) / len(high) - 0.5) < 0.05

    def test_many_style_plants_phrases(self):
        docs = generate_documents(
            SyntheticCorpusSpec(n_docs=200, seed=5, marker_style="many")
        )
        phrase_sets = (set(HIGH_PHRASES), set(LOW_PHRASES))
        hits = 0
        for doc in docs:
            tokens = doc.text.split()
            pairs = set(zip(tokens, tokens[1:]))
            if pairs & (phrase_sets[0] | phrase_sets[1]):
                hits += 1
        assert hits == len(docs)

    def test_markers_survive_default_snippet_window(self):
        docs = generate_documents(SyntheticCorpusSpec(n_docs=200, seed=6))
        for doc in docs[:50]:
            snip = extract_snippet(doc)
            assert marker_truth(snip.text) == marker_truth(doc.text)

    def test_mock_label_matches_stratum_at_full_strength(self):
        docs = generate_documents(SyntheticCorpusSpec(n_docs=1000, seed=7))
        agree = sum(
            1
            for d in docs
            if (mock_label(extract_snippet(d)) == YES) == stratum_of(d)
        )
        assert agree == len(docs)

    def test_corpus_write_and_reingest(self, tmp_path):
        spec = SyntheticCorpusSpec(n_docs=250, seed=8)
        shard_set = write_shards(generate_documents(spec), tmp_path / "c", 84)
        docs = list(ingest_shards(shard_set))
        assert len(docs) == 250
        assert len(shard_set.shards) == 3
        assert all(d.meta["stratum"] in ("high", "low") for d in docs)


class TestGroundTruthFirewall:
    def test_features_ignore_stratum_metadata(self):
        # Permuting the hidden stratum field must leave every feature vector
        # unchanged: features are a function of text alone.
        docs = generate_documents(SyntheticCorpusSpec(n_docs=200, seed=10))
        config = FeaturizerConfig(hash_bits=12)
        before = [featurize_text(d.text, config) for d in docs]
        for i, doc in enumerate(docs):
            doc.meta["stratum"] = "low" if i % 2 else "high"
        after = [featurize_text(d.text, config) for d in docs]
        assert before == after


class TestMockYesFractionAtScale:
    def test_tracks_planted_fraction_on_large_sample(self):
        # 10,000 docs at strength 1.0: the mock's yes-fraction equals the
        # planted high-quality fraction (tolerance +-0.02).
        from docprune.ablation import snippets_of
        from docprune.labeling import LabelerConfig, label_documents
        from docprune.mocks import MockQualityTransport

        docs = generate_documents(SyntheticCorpusSpec(n_docs=10_000, seed=18))
        _, stats = label_documents(
            snippets_of(docs),
            LabelerConfig(model_name="mock", max_concurrent_requests=8),
            transport=MockQualityTransport(),
        )
        assert abs(stats.yes_fraction - 0.25) <= 0.02
