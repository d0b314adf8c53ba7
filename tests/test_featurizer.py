"""The batched featurizer and scorer, and the one-row views built on them."""

import hashlib
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docprune.classifier import (
    FeaturizerConfig,
    ModelFormatError,
    QualityClassifier,
    featurize_batch,
    featurize_text,
    hash_counts,
    load_model,
    project_counts,
    save_model,
    score,
    score_batch,
)
from docprune.cli import main
from docprune.corpus import Document, snippet_of
from docprune.selection import score_documents

# Words, no-word-token runs (punctuation, blanks) and a few repeats, so
# texts are often empty of tokens or shorter than the largest n-gram order.
_pieces = st.sampled_from(["a", "b", "Ab", "ccc", "d1", "é", "!!", "?", " ", "\n", "--"])
_texts = st.lists(_pieces, max_size=12).map(" ".join)


class TestBatchRowsMatchSingleText:
    @settings(max_examples=150, deadline=None)
    @given(texts=st.lists(_texts, min_size=1, max_size=8),
           orders=st.sampled_from([(1,), (2,), (1, 2, 3), (3, 5)]))
    def test_row_equals_featurize_text(self, texts, orders):
        config = FeaturizerConfig(ngram_orders=orders, hash_bits=10)
        batch = featurize_batch(texts, config)
        assert len(batch) == len(texts)
        for i, text in enumerate(texts):
            assert batch.row(i) == featurize_text(text, config)

    def test_csr_layout(self):
        config = FeaturizerConfig(hash_bits=12)
        batch = featurize_batch(["one two three", "!!!", "one", "x y"], config)
        assert batch.indices.dtype == np.int64
        assert batch.values.dtype == np.float64
        assert batch.offsets.dtype == np.int64
        assert batch.offsets[0] == 0 and batch.offsets[-1] == batch.indices.shape[0]
        for i in range(len(batch)):
            row = batch.indices[batch.offsets[i]:batch.offsets[i + 1]]
            assert np.all(np.diff(row) > 0)  # ascending, one entry per index

    def test_text_shorter_than_every_order_has_no_features(self):
        config = FeaturizerConfig(ngram_orders=(3,), hash_bits=10)
        assert featurize_text("two words", config) == {}
        batch = featurize_batch(["two words", "now three words"], config)
        assert batch.row(0) == {} and sum(batch.row(1).values()) == 1

    def test_take_selects_rows_in_order(self):
        config = FeaturizerConfig(hash_bits=10)
        texts = ["alpha beta", "gamma", "!!", "delta epsilon zeta"]
        batch = featurize_batch(texts, config)
        sub = batch.take(np.array([3, 0, 3], dtype=np.int64))
        assert [sub.row(i) for i in range(3)] == [batch.row(3), batch.row(0), batch.row(3)]


class TestProjection:
    @pytest.mark.parametrize("hash_bits", [8, 11, 16, 18, 26])
    def test_projected_64bit_counts_equal_featurize_text(self, hash_bits):
        rng = random.Random(hash_bits)
        config = FeaturizerConfig(hash_bits=hash_bits)
        for _ in range(20):
            text = " ".join(f"w{rng.randrange(40)}" for _ in range(rng.randint(0, 25)))
            assert project_counts(hash_counts(text, config), hash_bits) == featurize_text(
                text, config
            )

    def test_hash_counts_is_a_dict_of_occurrences(self):
        config = FeaturizerConfig(ngram_orders=(1, 2))
        counts = hash_counts("a b a b", config)
        assert isinstance(counts, dict)
        assert sum(counts.values()) == 4 + 3
        assert sorted(counts.values()) == [1, 2, 2, 2]  # "b a" once; a, b, "a b" twice


class TestPinnedHashes:
    """Saved format-2 models are valid only while the hashing stays bit-exact,
    so these values are literals: blake2b per token, h = h*M ^ tok from
    h = n, fmix64, mask."""

    CONFIG = FeaturizerConfig(ngram_orders=(1, 2), hash_bits=12)
    TEXT = "The cat sat; the cat!"

    def test_hash_counts_literal(self):
        assert hash_counts(self.TEXT, self.CONFIG) == {
            7749939372784848752: 1,    # sat
            8488215002220849844: 1,    # sat the
            12532833506845578251: 1,   # cat sat
            13166780544984171432: 2,   # cat
            14000450838502040949: 2,   # the
            17066827606666571477: 2,   # the cat
        }
        assert hash_counts("!!", self.CONFIG) == {1888564376210761559: 1}

    def test_featurize_text_literal(self):
        assert featurize_text(self.TEXT, self.CONFIG) == {
            936: 2, 1035: 1, 1397: 2, 2740: 1, 3797: 2, 3952: 1,
        }

    def test_matches_reference_scheme(self):
        u64 = (1 << 64) - 1

        def fmix64(h):
            h ^= h >> 33
            h = (h * 0xFF51AFD7ED558CCD) & u64
            h ^= h >> 33
            h = (h * 0xC4CEB9FE1A85EC53) & u64
            return h ^ (h >> 33)

        tokens = [
            int.from_bytes(hashlib.blake2b(t.encode(), digest_size=8).digest(), "big")
            for t in ["the", "cat", "sat", "the", "cat"]
        ]
        expected: dict[int, int] = {}
        for n in self.CONFIG.ngram_orders:
            for i in range(len(tokens) - n + 1):
                h = n
                for tok in tokens[i:i + n]:
                    h = ((h * 0x9E3779B97F4A7C15) & u64) ^ tok
                h = fmix64(h)
                expected[h] = expected.get(h, 0) + 1
        assert hash_counts(self.TEXT, self.CONFIG) == expected


class TestBucketIndependence:
    def test_shared_unigram_bucket_does_not_force_shared_bigram_buckets(self):
        # Tokens that land in one unigram bucket must spread their bigrams
        # over the buckets like any other pair does. Without a finalizer after
        # the multiply-xor mixing, the masked bits of every n-gram hash depend
        # only on the masked bits of its token hashes, and all such bigram
        # pairs collide.
        bits = 10
        unigram = FeaturizerConfig(ngram_orders=(1,), hash_bits=bits)
        bigram = FeaturizerConfig(ngram_orders=(2,), hash_bits=bits)
        vocab = [f"tok{i}" for i in range(3000)]
        bucket_of = {t: next(iter(featurize_text(t, unigram))) for t in vocab}
        by_bucket: dict[int, list[str]] = {}
        for t in vocab:
            by_bucket.setdefault(bucket_of[t], []).append(t)
        pairs = [
            (a, b)
            for group in by_bucket.values()
            for a, b in itertools.combinations(group[:4], 2)
        ]
        contexts = [f"ctx{i}" for i in range(10)]
        assert len(pairs) * len(contexts) > 5000
        collisions = sum(
            featurize_text(f"{a} {c}", bigram) == featurize_text(f"{b} {c}", bigram)
            for a, b in pairs
            for c in contexts
        )
        trials = len(pairs) * len(contexts)
        # Chance is trials / 2**bits (~30 here); forced sharing gives `trials`.
        assert collisions < 5 * trials / 2**bits


def _classifier(hash_bits=10, seed=0):
    config = FeaturizerConfig(hash_bits=hash_bits)
    rng = np.random.default_rng(seed)
    return QualityClassifier(config, rng.normal(0, 1, config.dim), 0.3, {})


class TestScoreBatch:
    def test_scalar_score_equals_batch_row(self):
        clf = _classifier()
        texts = ["alpha beta gamma", "!!", "a", "the quick brown fox " * 20, "x y"]
        batch_scores = score_batch(clf, featurize_batch(texts, clf.featurizer))
        for text, s in zip(texts, batch_scores):
            assert score(clf, snippet_of(text)) == s

    def test_scores_clamped_into_open_interval(self):
        config = FeaturizerConfig(ngram_orders=(3,), hash_bits=8)
        hot = QualityClassifier(config, np.full(config.dim, 1e9), 1e9, {})
        cold = QualityClassifier(config, np.full(config.dim, -1e9), -1e9, {})
        texts = ["one two three", "too short"]  # the second has no features
        batch = featurize_batch(texts, config)
        assert score_batch(hot, batch).tolist() == [1 - 1e-7, 1 - 1e-7]
        assert score_batch(cold, batch).tolist() == [1e-7, 1e-7]

    def test_score_documents_batching_does_not_change_scores(self, monkeypatch):
        import docprune.classifier as classifier

        clf = _classifier()
        docs = [
            Document(id=f"d{i}", text=("" if i % 7 == 0 else f"w{i % 5} body {i} text"))
            for i in range(40)
        ]
        ids, whole, skipped = score_documents(docs, clf)
        monkeypatch.setattr(classifier, "FEATURIZE_BATCH_CHARS", 50)
        ids_chunked, chunked, skipped_chunked = score_documents(docs, clf)
        assert skipped == skipped_chunked == 6
        assert ids == ids_chunked == [d.id for d in docs if d.text]
        assert whole.dtype == np.float64 and whole.tolist() == chunked.tolist()
        assert whole.tolist() == [score(clf, snippet_of(d.text)) for d in docs if d.text]


def _v1_model_file(path):
    clf = _classifier()
    clf.format_version = 1
    save_model(clf, path)
    with open(path, "rb") as fh:
        assert json.loads(fh.readline())["format_version"] == 1
    return path


class TestModelFormatVersion:
    def test_version_1_model_rejected(self, tmp_path):
        path = _v1_model_file(tmp_path / "v1.bin")
        with pytest.raises(ModelFormatError, match="format_version 1"):
            load_model(path)

    def test_score_with_version_1_model_exits_3(self, tmp_path, capsys):
        from conftest import corpus_dir, make_docs

        corpus = corpus_dir(tmp_path, {"s0.jsonl": [
            {"id": d.id, "text": d.text} for d in make_docs(5)
        ]})
        model = _v1_model_file(tmp_path / "v1.bin")
        out = tmp_path / "scores"
        code = main(["score", "--input", str(corpus.shards[0].path.parent),
                     "--model", str(model), "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "format_version 1" in err and "retrain" in err
        assert not out.exists()
