"""The batched featurizer and scorer, and the one-row views built on them."""

import hashlib
import itertools
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docprune.classifier import (
    MODEL_HEADER_MAX_BYTES,
    FeaturizerConfig,
    ModelFormatError,
    Examples,
    FeatureStore,
    QualityClassifier,
    featurize_batch,
    featurize_chunks,
    featurize_text,
    hash_counts,
    load_model,
    project_counts,
    save_model,
    score,
    score_batch,
)
from docprune.cli import main
from docprune.corpus import Document, extract_snippet
from docprune.selection import ScoreSet, score_corpus, score_documents

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
        assert batch.indices.dtype == np.int32
        assert batch.values.dtype == np.float32
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

    def test_minibatch_gathers_rows_in_order(self, monkeypatch):
        import docprune.classifier as classifier

        config = FeaturizerConfig(hash_bits=10)
        texts = ["alpha beta", "gamma", "!!", "delta epsilon zeta"]
        batch = featurize_batch(texts, config)
        with FeatureStore(config) as store:
            assert store.extend(texts) == range(4)
            [sub] = store.row_blocks([3, 0, 3])
        assert [sub.row(i) for i in range(3)] == [batch.row(3), batch.row(0), batch.row(3)]
        # The same rows stored from chunks of one or two texts each, and read
        # back in blocks of two rows.
        monkeypatch.setattr(classifier, "FEATURIZE_BATCH_CHARS", 6)
        monkeypatch.setattr(classifier, "ROW_BLOCK", 2)
        assert len(list(featurize_chunks(texts, config))) == 3
        with FeatureStore(config) as store:
            stored = Examples(store, store.extend(texts), [1, 0, 0, 1])
            minibatch = stored.take([3, 0, 3])
            blocks = list(minibatch.row_blocks())
        assert minibatch.targets == [1, 1, 1]
        assert [len(b) for b in blocks] == [2, 1]
        rows = [b.row(i) for b in blocks for i in range(len(b))]
        assert rows == [batch.row(3), batch.row(0), batch.row(3)]
        for b in blocks:
            assert b.offsets.dtype == np.int64 and b.offsets[-1] == b.indices.shape[0]

    def test_store_keeps_rows_without_features_and_weights_past_them(self):
        config = FeaturizerConfig(ngram_orders=(3,), hash_bits=10)
        texts = ["two words", "now three words", "one"]
        batch = featurize_batch(texts, config)
        with FeatureStore(config) as store:
            store.extend(texts)
            for w in (np.arange(config.dim, dtype=np.float64), np.full(config.dim, -0.5)):
                store.put_weights(w)
            got = np.empty(config.dim)
            store.get_weights(got)
            [block] = store.row_blocks([0, 1, 2, 1])
        assert np.array_equal(got, np.full(config.dim, -0.5))
        assert [block.row(i) for i in range(4)] == [{}, batch.row(1), {}, batch.row(1)]


class TestTokenHashTable:
    """The process-wide token-hash table changes no hash, whatever it holds."""

    TEXTS = ["The cat sat; the cat!", "!!", "", "a b c d e f a b", "é ccc d1 ccc"]

    def test_cold_and_warm_table_give_identical_batches(self, monkeypatch):
        import docprune.classifier as classifier

        config = FeaturizerConfig(hash_bits=12)
        monkeypatch.setattr(classifier, "_TOKEN_HASHES", {})
        cold = featurize_batch(self.TEXTS, config)
        assert classifier._TOKEN_HASHES  # the cold call filled the table
        warm = featurize_batch(self.TEXTS, config)
        for field in ("indices", "values", "offsets"):
            a, b = getattr(cold, field), getattr(warm, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field

    def test_table_stays_within_cap_and_hashes_stay_exact(self, monkeypatch):
        import docprune.classifier as classifier

        cap = 16
        monkeypatch.setattr(classifier, "_TOKEN_HASH_CAP", cap)
        monkeypatch.setattr(classifier, "_TOKEN_HASHES", {})
        w = [f"w{i}" for i in range(16)]
        steps = [
            (w[:10] * 2, set(w[:10])),
            (w[5:], set(w)),  # 6 new: at the cap
            (w[:12] + ["n0"], set(w[:12]) | {"n0"}),  # 1 new, 12 found: starts over
            (w[:12] * 3 + [f"y{i}" for i in range(10)], set()),  # 22 > cap: none kept
            (["w0"] + [f"x{i}" for i in range(6)], {"w0"} | {f"x{i}" for i in range(6)}),
            (["w0", "x1", "w0"], {"w0"} | {f"x{i}" for i in range(6)}),  # all found
        ]
        for tokens, table in steps:
            hashes = classifier._token_hashes(tokens)
            assert hashes.dtype == np.uint64
            assert hashes.tolist() == [_blake(t) for t in tokens]
            assert set(classifier._TOKEN_HASHES) == table
            assert all(
                int.from_bytes(d, "big") == _blake(t) for t, d in classifier._TOKEN_HASHES.items()
            )

    def test_concurrent_calls_get_every_hash(self, monkeypatch):
        # Threads that keep overflowing a small table must each still find
        # every token they asked for, and the table must stay within its cap.
        import sys
        import threading

        import docprune.classifier as classifier

        monkeypatch.setattr(classifier, "_TOKEN_HASH_CAP", 64)
        monkeypatch.setattr(classifier, "_TOKEN_HASHES", {})
        core = [f"c{i}" for i in range(20)]
        errors: list[BaseException] = []

        def work(k):
            try:
                for r in range(1500):
                    tokens = core + [f"v{(r * 7 + k * 50 + i) % 200}" for i in range(20)]
                    assert classifier._token_hashes(tokens).tolist() == list(map(_blake, tokens))
            except BaseException as exc:  # handed to the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]
        assert len(classifier._TOKEN_HASHES) <= 64


def _blake(token: str) -> int:
    return int.from_bytes(hashlib.blake2b(token.encode(), digest_size=8).digest(), "big")


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
            assert score(clf, extract_snippet(Document("", text))) == s

    def test_scores_clamped_into_open_interval(self):
        config = FeaturizerConfig(ngram_orders=(3,), hash_bits=8)
        hot = QualityClassifier(config, np.full(config.dim, 1e9), 1e9, {})
        cold = QualityClassifier(config, np.full(config.dim, -1e9), -1e9, {})
        texts = ["one two three", "too short"]  # the second has no features
        batch = featurize_batch(texts, config)
        assert score_batch(hot, batch).tolist() == [1 - 1e-7, 1 - 1e-7]
        assert score_batch(cold, batch).tolist() == [1e-7, 1e-7]

    def test_score_documents_batching_does_not_change_scores(self, monkeypatch, tmp_path):
        import docprune.classifier as classifier
        from conftest import corpus_dir

        clf = _classifier()
        texts = ["" if i % 7 == 0 else f"w{i % 5} body {i} text" for i in range(40)]
        docs = [Document(id=f"d{i}", text=t) for i, t in enumerate(texts) if t]
        ids, whole = score_documents(docs, clf)
        monkeypatch.setattr(classifier, "FEATURIZE_BATCH_CHARS", 50)
        ids_chunked, chunked = score_documents(docs, clf)
        assert ids == ids_chunked == [d.id for d in docs]
        assert all(type(s) is float for s in whole) and whole == chunked
        assert whole == [score(clf, extract_snippet(Document("", d.text))) for d in docs]
        # The corpus form: ingest skips and counts the empty texts.
        shard_set = corpus_dir(tmp_path, {"s.jsonl": [
            {"id": f"d{i}", "text": t} for i, t in enumerate(texts)
        ]})
        report = score_corpus(shard_set, clf, out_dir=tmp_path / "scores")
        assert report.empty_text == 6
        assert ScoreSet.open(tmp_path / "scores").load_scores() == dict(zip(ids, whole))


def _model_file(path, edit):
    """A saved `_classifier()` whose JSON header `edit(header)` has changed."""
    save_model(_classifier(), path)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        blob = fh.read()
    edit(header)
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + blob)
    return path


def _old_model_file(path, version):
    """A model file of an earlier format, with format 2's featurizer header."""
    def edit(header):
        header["format_version"] = version
        header["featurizer"].update(lowercase=True, token_pattern=r"\w+")
    return _model_file(path, edit)


def _score(tmp_path, model):
    """Exit code and output dir of `docprune score` with `model` on a 5-doc corpus."""
    from conftest import corpus_dir, make_docs

    corpus = corpus_dir(tmp_path, {"s0.jsonl": [
        {"id": d.id, "text": d.text} for d in make_docs(5)
    ]})
    out = tmp_path / "scores"
    code = main(["score", "--input", str(corpus.shards[0].path.parent),
                 "--model", str(model), "--out", str(out)])
    return code, out


class TestModelFormatVersion:
    def test_version_1_model_rejected(self, tmp_path):
        path = _old_model_file(tmp_path / "v1.bin", 1)
        with pytest.raises(ModelFormatError, match="format_version 1"):
            load_model(path)

    def test_version_2_model_rejected(self, tmp_path):
        path = _old_model_file(tmp_path / "v2.bin", 2)
        with pytest.raises(ModelFormatError, match="format_version 2"):
            load_model(path)

    def assert_score_exits_3(self, tmp_path, capsys, version):
        code, out = _score(tmp_path, _old_model_file(tmp_path / "old.bin", version))
        assert code == 3
        err = capsys.readouterr().err
        assert f"format_version {version}" in err and "retrain" in err
        assert not out.exists()

    def test_score_with_version_1_model_exits_3(self, tmp_path, capsys):
        self.assert_score_exits_3(tmp_path, capsys, 1)

    def test_score_with_version_2_model_exits_3(self, tmp_path, capsys):
        self.assert_score_exits_3(tmp_path, capsys, 2)


class TestMalformedModelHeader:
    """A header with the magic and the current version whose fields are
    missing, unknown or out of range exits 3, before `score` writes anything."""

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("weights_len"),
        lambda h: h["featurizer"].update(stemmer="porter"),
        lambda h: h.update(featurizer=None),
        lambda h: h["featurizer"].update(hash_bits=40),
        lambda h: h["featurizer"].update(hash_bits=12),  # 2**10 weights follow
        lambda h: h["featurizer"].update(ngram_orders=[1.5]),
        lambda h: h["featurizer"].update(ngram_orders=[1, 2, 2]),
    ], ids=["no-weights_len", "unknown-featurizer-key", "null-featurizer", "hash_bits-40",
            "hash_bits-not-weights_len", "fractional-ngram-order", "repeated-ngram-order"])
    def test_score_exits_3(self, tmp_path, capsys, edit):
        code, out = _score(tmp_path, _model_file(tmp_path / "model.bin", edit))
        assert code == 3
        err = capsys.readouterr().err
        assert "malformed model header" in err and "Traceback" not in err, err
        assert not out.exists()


class TestWeightBlockLength:
    """A weight block one byte short or one byte long exits 3, before `score`
    writes anything."""

    @pytest.mark.parametrize("resize", [lambda data: data[:-1], lambda data: data + b"\x00"],
                             ids=["one-byte-short", "one-byte-long"])
    def test_score_exits_3(self, tmp_path, capsys, resize):
        message = "weight block is not 8192 bytes: truncated or padded"
        path = _model_file(tmp_path / "model.bin", lambda header: None)
        path.write_bytes(resize(path.read_bytes()))
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)
        code, out = _score(tmp_path, path)
        assert code == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err, err
        assert not out.exists()


class TestHeaderLength:
    def test_file_without_a_header_line_is_rejected_after_the_bound(self, tmp_path, capsys):
        """An 8 MiB file without a newline is rejected having read at most
        MODEL_HEADER_MAX_BYTES + 1 bytes of it, not the whole file."""
        import tracemalloc

        path = tmp_path / "model.bin"
        path.write_bytes(b"\x01" * (8 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError, match="not a model file"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak
        code, out = _score(tmp_path, path)
        assert code == 3
        err = capsys.readouterr().err
        assert "not a model file" in err and "Traceback" not in err, err
        assert not out.exists()

    @pytest.mark.parametrize("over", [0, 1], ids=["at-the-bound", "one-byte-over"])
    def test_header_line_length(self, tmp_path, over):
        """A header line of MODEL_HEADER_MAX_BYTES bytes, newline included,
        loads; one byte longer is rejected."""
        def pad(header):
            header["training_meta"]["pad"] = ""
            length = len(json.dumps(header, sort_keys=True)) + 1
            header["training_meta"]["pad"] = "x" * (MODEL_HEADER_MAX_BYTES - length + over)

        path = _model_file(tmp_path / "model.bin", pad)
        assert path.read_bytes().index(b"\n") + 1 == MODEL_HEADER_MAX_BYTES + over
        if over:
            with pytest.raises(ModelFormatError, match="no header line within"):
                load_model(path)
        else:
            assert load_model(path).training_meta["pad"]
