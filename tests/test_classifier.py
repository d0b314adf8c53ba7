import itertools
import random

import numpy as np
import pytest

from docprune.classifier import (
    DegenerateLabelsError,
    Examples,
    FeatureBatch,
    FeatureStore,
    FeaturizerConfig,
    ModelFormatError,
    QualityClassifier,
    TrainConfig,
    _forward,
    class_weight_map,
    f1,
    featurize_batch,
    featurize_chunks,
    featurize_text,
    load_model,
    loss_and_grad,
    save_model,
    score,
    score_batch,
    split_train_val,
    train_classifier,
)
from docprune.corpus import CorpusError, Document, DuplicateIdError, extract_snippet
from docprune.labeling import NO, YES, QualityLabel

from conftest import traced_peak


class TestFeaturize:
    def test_repeated_token_single_index(self):
        config = FeaturizerConfig(ngram_orders=(1,), hash_bits=10)
        feats = featurize_text("a a a", config)
        assert len(feats) == 1
        assert list(feats.values()) == [3]

    def test_deterministic(self):
        config = FeaturizerConfig()
        text = "The quick brown fox jumps over the lazy dog"
        assert featurize_text(text, config) == featurize_text(text, config)

    def test_one_token_change_bounds_differences(self):
        # For a 5-token text, changing token i alters at most n old + n new
        # n-grams per order n.
        config = FeaturizerConfig(ngram_orders=(1, 2, 3), hash_bits=20)
        base = "t0 t1 t2 t3 t4"
        changed = "t0 t1 XX t3 t4"
        for order in (1, 2, 3):
            cfg = FeaturizerConfig(ngram_orders=(order,), hash_bits=20)
            a = featurize_text(base, cfg)
            b = featurize_text(changed, cfg)
            differing = {
                k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0)
            }
            assert len(differing) <= 2 * order

    def test_no_word_tokens_fallback_feature(self):
        config = FeaturizerConfig()
        feats = featurize_text("!!! ???", config)
        assert len(feats) == 1

    def test_indices_within_dimension(self):
        rng = random.Random(3)
        config = FeaturizerConfig(hash_bits=8)
        for _ in range(50):
            text = " ".join(
                "".join(rng.choice("abcdial") for _ in range(rng.randint(1, 8)))
                for _ in range(rng.randint(1, 30))
            )
            feats = featurize_text(text, config)
            assert all(0 <= k < 256 for k in feats)

    def test_hash_bits_bounds(self):
        with pytest.raises(ValueError):
            FeaturizerConfig(hash_bits=7)
        with pytest.raises(ValueError):
            FeaturizerConfig(hash_bits=27)
        FeaturizerConfig(hash_bits=8)
        FeaturizerConfig(hash_bits=26)

    def test_lowercase_folding(self):
        config = FeaturizerConfig(ngram_orders=(1,), hash_bits=12)
        assert featurize_text("Hello HELLO hello", config) == featurize_text(
            "hello hello hello", config
        )


def _examples(n_pos, n_neg, seed=0, hash_bits=10):
    """Separable toy set, as (texts, targets): positives carry 'good',
    negatives carry 'bad'."""
    rng = random.Random(seed)
    config = FeaturizerConfig(ngram_orders=(1,), hash_bits=hash_bits)
    out = []
    for i in range(n_pos + n_neg):
        pos = i < n_pos
        filler = " ".join(f"w{rng.randrange(50)}" for _ in range(10))
        marker = "good" if pos else "bad"
        out.append((f"{filler} {marker}", int(pos)))
    rng.shuffle(out)
    return ([t for t, _ in out], [y for _, y in out]), config


def _stored(store, examples):
    """The (texts, targets) examples appended to a feature store: example i is row i
    of an empty store."""
    texts, targets = examples
    return Examples(store, store.extend(texts), targets)


def _split(examples, config, val_fraction, seed):
    """split_train_val over the examples stored in a feature store: each part
    as the numbers of its examples."""
    with FeatureStore(config) as store:
        parts = split_train_val(_stored(store, examples), val_fraction, seed=seed)
    return tuple(list(part.rows) for part in parts)


def _fit(examples, config, val_fraction=0.2, seed=0, split_seed=0):
    """A classifier trained on the examples through a feature store."""
    with FeatureStore(config) as store:
        train, val = split_train_val(_stored(store, examples), val_fraction, seed=split_seed)
        return train_classifier(train, val, TrainConfig(featurizer=config), seed=seed)


class TestSplitTrainVal:
    def test_stratified_counts(self):
        examples, config = _examples(25, 75)
        train, val = _split(examples, config, 0.1, seed=0)
        assert len(val) == 10
        assert len(train) == 90
        positives = sum(examples[1][i] for i in val)
        assert positives in (2, 3)

    def test_deterministic(self):
        examples, config = _examples(30, 70)
        a = _split(examples, config, 0.2, seed=5)
        b = _split(examples, config, 0.2, seed=5)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_partition_is_exhaustive_and_disjoint(self):
        examples, config = _examples(40, 60)
        train, val = _split(examples, config, 0.15, seed=1)
        assert not set(train) & set(val)
        assert sorted(train + val) == list(range(100))

    def test_too_few_examples_rejected(self):
        examples, config = _examples(4, 5)
        with pytest.raises(ValueError):
            _split(examples, config, 0.1, seed=0)

    def test_fraction_bounds(self):
        examples, config = _examples(10, 10)
        with pytest.raises(ValueError):
            _split(examples, config, 0.0, seed=0)
        with pytest.raises(ValueError):
            _split(examples, config, 1.0, seed=0)


def _label(doc_id, label):
    return QualityLabel(doc_id, label, "V1", "test", label)


class TestFeatureStoreAdd:
    """`FeatureStore.add` is the one join of labels with their snippets."""

    SNIPPETS = [extract_snippet(Document(f"d{i}", f"text {i} of d{i}")) for i in range(6)]

    def test_examples_in_label_order_with_their_rows(self):
        labels = [_label("d4", YES), _label("d1", NO), _label("d2", YES)]
        config = FeaturizerConfig(hash_bits=10)
        with FeatureStore(config) as store:
            stored = store.add(labels, self.SNIPPETS)
            assert stored.targets == [1, 0, 1]
            [block] = stored.row_blocks()
        want = featurize_batch([self.SNIPPETS[i].text for i in (4, 1, 2)], config)
        assert [block.row(i) for i in range(3)] == [want.row(i) for i in range(3)]

    def test_only_labeled_snippets_are_stored(self):
        labels = [_label("d5", NO), _label("d0", YES), _label("d5", NO)]
        with FeatureStore(FeaturizerConfig(hash_bits=10)) as store:
            store.add(labels, self.SNIPPETS)
            assert len(store) == 2

    def test_repeated_label_is_two_examples_of_one_row(self):
        labels = [_label("d3", YES), _label("d0", NO), _label("d3", YES)]
        with FeatureStore(FeaturizerConfig(hash_bits=10)) as store:
            stored = store.add(labels, self.SNIPPETS)
        assert len(stored) == 3
        assert stored.rows[0] == stored.rows[2] != stored.rows[1]
        assert stored.targets == [1, 0, 1]

    def test_repeated_snippet_id_raises(self):
        snippets = self.SNIPPETS + [extract_snippet(Document("d2", "another text"))]
        with FeatureStore(FeaturizerConfig(hash_bits=10)) as store:
            with pytest.raises(DuplicateIdError, match="'d2' occurs more than once"):
                store.add([_label("d0", YES)], snippets)

    def test_label_without_a_snippet_raises(self):
        labels = [_label("d0", YES), _label("gone", NO), _label("also-gone", NO)]
        with FeatureStore(FeaturizerConfig(hash_bits=10)) as store:
            with pytest.raises(CorpusError, match="'gone' has no matching snippet"):
                store.add(labels, self.SNIPPETS)


def _brute_force_f1(preds, gold):
    tp = fp = fn = 0
    for p, g in zip(preds, gold):
        if p == 1 and g == 1:
            tp += 1
        elif p == 1 and g == 0:
            fp += 1
        elif p == 0 and g == 1:
            fn += 1
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


class TestF1:
    def test_hand_computed_case(self):
        # TP=2, FP=1, FN=1 -> P = R = 2/3 -> F1 = 2/3
        preds = [1, 1, 1, 0, 0]
        gold = [1, 1, 0, 1, 0]
        assert f1(preds, gold) == pytest.approx(2 / 3)

    def test_perfect_prediction(self):
        assert f1([1, 0, 1], [1, 0, 1]) == 1.0

    def test_no_positives_anywhere_is_zero(self):
        assert f1([0, 0], [0, 0]) == 0.0

    def test_matches_brute_force_on_all_length4_combinations(self):
        for preds in itertools.product((0, 1), repeat=4):
            for gold in itertools.product((0, 1), repeat=4):
                assert f1(list(preds), list(gold)) == pytest.approx(
                    _brute_force_f1(preds, gold)
                ), (preds, gold)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            f1([1], [1, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            f1([], [])


def feature_batch(rows: list[dict[int, int]]) -> FeatureBatch:
    """A hand-built CSR batch; each row's indices ascending."""
    items = [sorted(r.items()) for r in rows]
    return FeatureBatch(
        indices=np.array([k for row in items for k, _ in row], dtype=np.int64),
        values=np.array([v for row in items for _, v in row], dtype=np.float64),
        offsets=np.cumsum([0] + [len(row) for row in items]).astype(np.int64),
    )


def check_gradient_against_finite_differences(batch, targets, sample_weights, w, b, checked):
    """loss_and_grad's gradient, sum_i g[i] * x_i over its per-row
    coefficients g, against central differences of its own loss, at every
    checked index and at the bias."""
    _, g, grad_b = loss_and_grad(batch, targets, sample_weights, w, b)
    grad_w = np.zeros_like(w)
    np.add.at(grad_w, batch.indices, np.repeat(g, batch.lengths) * batch.values)

    def loss(w_, b_):
        return loss_and_grad(batch, targets, sample_weights, w_, b_)[0]

    h = 1e-6
    for k in checked:
        w_plus, w_minus = w.copy(), w.copy()
        w_plus[k] += h
        w_minus[k] -= h
        fd = (loss(w_plus, b) - loss(w_minus, b)) / (2 * h)
        denom = max(abs(fd), abs(grad_w[k]), 1e-8)
        assert abs(fd - grad_w[k]) / denom <= 1e-4, f"index {k}"
    fd_b = (loss(w, b + h) - loss(w, b - h)) / (2 * h)
    assert abs(fd_b - grad_b) / max(abs(fd_b), 1e-8) <= 1e-4


class TestGradient:
    def test_analytic_gradient_matches_finite_differences(self):
        rng = random.Random(9)
        np_rng = np.random.default_rng(9)
        dim = FeaturizerConfig(hash_bits=8).dim
        rows = [{rng.randrange(dim): rng.randint(1, 3) for _ in range(10)} for _ in range(12)]
        targets = np.array([rng.randint(0, 1) for _ in rows], dtype=np.float64)
        # both classes present for the weighted variant
        targets[0], targets[1] = 0, 1
        cw = class_weight_map(targets.astype(int).tolist())
        sample_weights = np.array([cw[int(t)] for t in targets])
        weights = np_rng.normal(0, 0.5, size=dim)
        active = sorted({k for r in rows for k in r})
        checked = active[:40] + [d for d in range(5) if d not in active]
        check_gradient_against_finite_differences(
            feature_batch(rows), targets, sample_weights, weights, 0.3, checked
        )


class TestNarrowBatchArithmetic:
    def test_int32_float32_batch_is_bit_equal_to_int64_float64(self):
        # Stored counts are small integers, exact in float32, so a batch as
        # featurize_batch stores it gives the same float64 bits as its
        # widened copy in the forward pass and in the gradient.
        rng = np.random.default_rng(4)
        config = FeaturizerConfig(hash_bits=10)
        texts = ["alpha beta alpha gamma " * 30, "!!", "delta", "beta beta beta epsilon"]
        narrow = featurize_batch(texts, config)
        assert (narrow.indices.dtype, narrow.values.dtype) == (np.int32, np.float32)
        wide = FeatureBatch(
            narrow.indices.astype(np.int64), narrow.values.astype(np.float64), narrow.offsets
        )
        w = rng.normal(0, 1, config.dim)
        targets = np.array([1.0, 0.0, 1.0, 0.0])
        sample_weights = np.array([0.7, 1.3, 0.7, 1.3])
        for got, want in zip(_forward(narrow, w, 0.3), _forward(wide, w, 0.3)):
            assert got.dtype == np.float64 and np.array_equal(got, want)
        loss_n, grad_n, b_n = loss_and_grad(narrow, targets, sample_weights, w, 0.3)
        loss_w, grad_w, b_w = loss_and_grad(wide, targets, sample_weights, w, 0.3)
        assert (loss_n, b_n) == (loss_w, b_w)
        assert grad_n.dtype == np.float64 and np.array_equal(grad_n, grad_w)


class TestTraining:
    def test_separable_data_high_f1(self):
        examples, config = _examples(150, 450, seed=2)
        clf = _fit(examples, config)
        assert clf.training_meta["val_f1"] >= 0.95

    def test_deterministic_weights(self):
        examples, config = _examples(100, 100, seed=4)
        with FeatureStore(config) as store:
            train, val = split_train_val(_stored(store, examples), 0.2, seed=0)
            a = train_classifier(train, val, TrainConfig(featurizer=config), seed=3)
            b = train_classifier(train, val, TrainConfig(featurizer=config), seed=3)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias
        assert a.training_meta == b.training_meta

    def test_featurize_batch_size_does_not_change_model(self, monkeypatch):
        import docprune.classifier as classifier

        examples, config = _examples(60, 60, seed=5)
        whole = _fit(examples, config, seed=2)
        # ~45-character texts: batches of one or two texts each
        monkeypatch.setattr(classifier, "FEATURIZE_BATCH_CHARS", 50)
        chunked = _fit(examples, config, seed=2)
        assert np.array_equal(whole.weights, chunked.weights)
        assert whole.bias == chunked.bias
        assert whole.training_meta == chunked.training_meta

    @pytest.mark.parametrize("row_block", [1, 3, 1000])
    def test_row_block_size_does_not_change_model_or_scores(self, monkeypatch, row_block):
        import docprune.classifier as classifier

        (texts, targets), config = _examples(60, 60, seed=5)
        examples = (texts + ["!"] * 4, targets + [i % 2 for i in range(4)])  # "!": no features
        texts = examples[0]
        default = _fit(examples, config, seed=2)
        want = score_batch(default, featurize_batch(texts, config))
        monkeypatch.setattr(classifier, "ROW_BLOCK", row_block)
        blocked = _fit(examples, config, seed=2)
        assert np.array_equal(default.weights, blocked.weights)
        assert default.bias == blocked.bias
        assert default.training_meta == blocked.training_meta
        assert np.array_equal(score_batch(blocked, featurize_batch(texts, config)), want)

    def test_single_class_rejected(self):
        (texts, targets), config = _examples(20, 20)
        one_class = ([t for t, y in zip(texts, targets) if y == 1], [1] * 20)
        with FeatureStore(config) as store:
            stored = _stored(store, one_class)
            with pytest.raises(DegenerateLabelsError, match="degenerate label distribution"):
                train_classifier(stored, stored.take(range(2)), TrainConfig(featurizer=config))

    def test_examples_of_another_featurizer_rejected(self):
        examples, config = _examples(20, 20)
        other = TrainConfig(featurizer=FeaturizerConfig(ngram_orders=(1,), hash_bits=11))
        with FeatureStore(config) as store:
            train, val = split_train_val(_stored(store, examples), 0.2, seed=0)
            with pytest.raises(ValueError, match="another featurizer"):
                train_classifier(train, val, other)

    def test_training_meta_recorded(self):
        examples, config = _examples(80, 120, seed=6)
        train, val = _split(examples, config, 0.1, seed=0)
        clf = _fit(examples, config, val_fraction=0.1, seed=1)
        meta = clf.training_meta
        assert meta["train_size"] == len(train)
        assert meta["val_size"] == len(val)
        assert meta["seed"] == 1
        assert 0 <= meta["val_f1"] <= 1
        assert meta["class_weights"]["1"] == pytest.approx(200 / (2 * 80))

    def test_shuffled_labels_fall_to_chance(self):
        # Gold is balanced, so chance F1 at the prior-matched operating point
        # (predict positive for the top half by score) is 0.5.
        rng = random.Random(11)
        config = FeaturizerConfig(hash_bits=12)
        texts = [
            " ".join(f"w{rng.randrange(2000)}" for _ in range(30)) for _ in range(1200)
        ]
        targets = [i % 2 for i in range(1200)]
        rng.shuffle(targets)
        clf = _fit((texts, targets), config, val_fraction=0.25)
        _, val = _split((texts, targets), config, 0.25, seed=0)
        val_scores = np.array([score(clf, extract_snippet(Document("", texts[i]))) for i in val])
        gold = [targets[i] for i in val]
        k = sum(gold)
        preds = [0] * len(gold)
        for i in np.argsort(-val_scores, kind="stable")[:k]:
            preds[i] = 1
        assert abs(f1(preds, gold) - 0.5) <= 0.05


class TestScore:
    def test_zero_model_scores_half(self):
        config = FeaturizerConfig(hash_bits=10)
        clf = QualityClassifier(config, np.zeros(config.dim), 0.0, {})
        assert score(clf, extract_snippet(Document("", "anything at all"))) == 0.5

    def test_scores_clamped_and_finite(self):
        config = FeaturizerConfig(ngram_orders=(1,), hash_bits=8)
        clf = QualityClassifier(config, np.full(config.dim, 1e9), 1e9, {})
        s = score(clf, extract_snippet(Document("", "huge logit")))
        assert s == 1 - 1e-7
        clf_neg = QualityClassifier(config, np.full(config.dim, -1e9), -1e9, {})
        assert score(clf_neg, extract_snippet(Document("", "huge negative"))) == 1e-7

    def test_positive_scaling_preserves_decision(self):
        rng = np.random.default_rng(0)
        config = FeaturizerConfig(hash_bits=8)
        weights = rng.normal(0, 1, config.dim)
        for c in (0.5, 2.0, 7.0):
            a = QualityClassifier(config, weights, 0.0, {})
            b = QualityClassifier(config, c * weights, 0.0, {})
            for text in ("alpha beta", "gamma delta epsilon", "zeta"):
                sa = score(a, extract_snippet(Document("", text))) - 0.5
                sb = score(b, extract_snippet(Document("", text))) - 0.5
                assert (sa >= 0) == (sb >= 0)

    def test_empty_snippet_rejected(self):
        config = FeaturizerConfig(hash_bits=8)
        clf = QualityClassifier(config, np.zeros(config.dim), 0.0, {})
        with pytest.raises(ValueError):
            score(clf, extract_snippet(Document("", "")))


class TestModelIO:
    def make_classifier(self, seed=0):
        examples, config = _examples(60, 60, seed=seed)
        return _fit(examples, config)

    def test_roundtrip_scores_identical(self, tmp_path):
        clf = self.make_classifier()
        path = tmp_path / "model.bin"
        save_model(clf, path)
        loaded = load_model(path)
        rng = random.Random(1)
        for _ in range(100):
            text = " ".join(f"w{rng.randrange(60)}" for _ in range(12))
            assert score(loaded, extract_snippet(Document("", text))) == score(clf, extract_snippet(Document("", text)))

    def test_save_is_byte_stable(self, tmp_path):
        clf = self.make_classifier()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(clf, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        clf = self.make_classifier()
        path = tmp_path / "model.bin"
        save_model(clf, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)

    def test_unknown_version_rejected(self, tmp_path):
        import json

        clf = self.make_classifier()
        path = tmp_path / "model.bin"
        save_model(clf, path)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            blob = fh.read()
        header["format_version"] = 99
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            fh.write(blob)
        with pytest.raises(ModelFormatError, match="format_version"):
            load_model(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00\x01\x02 not a model at all\n more bytes")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_corrupted_weights_rejected(self, tmp_path):
        clf = self.make_classifier()
        path = tmp_path / "model.bin"
        save_model(clf, path)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(path)

    def test_fingerprint_tracks_weights(self):
        a = self.make_classifier(seed=0)
        b = self.make_classifier(seed=1)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == self.make_classifier(seed=0).fingerprint()


class TestHeldOutSeparation:
    def test_planted_high_docs_score_above_half(self):
        # After training on mock labels, at least 95% of 1,000 held-out
        # planted-high documents score above 0.5.
        from docprune.corpus import extract_snippet
        from docprune.mocks import mock_label
        from docprune.synthetic import SyntheticCorpusSpec, generate_documents, stratum_of

        docs = generate_documents(
            SyntheticCorpusSpec(n_docs=6000, high_quality_fraction=0.25, seed=19)
        )
        train_docs, held = docs[:1000], docs[1000:]
        config = FeaturizerConfig(hash_bits=16)
        snips = [extract_snippet(doc) for doc in train_docs]
        targets = [1 if mock_label(snip) == "Yes" else 0 for snip in snips]
        clf = _fit(([s.text for s in snips], targets), config, val_fraction=0.1)
        held_high = [d for d in held if stratum_of(d)][:1000]
        assert len(held_high) == 1000
        above = sum(1 for d in held_high if score(clf, extract_snippet(d)) > 0.5)
        assert above >= 950, f"{above}/1000 held-out high docs above 0.5"


class TestMemory:
    """Each large array exists once: the weights are written, hashed and read
    in place, and training keeps its features and its best weights in the
    feature store's file, not in memory."""

    def weights_2_20(self):
        config = FeaturizerConfig(hash_bits=20)
        rng = np.random.default_rng(0)
        return QualityClassifier(config, rng.normal(0, 1, config.dim), 0.1, {})

    def test_save_and_fingerprint_copy_no_weights(self, tmp_path):
        clf = self.weights_2_20()
        assert traced_peak(lambda: save_model(clf, tmp_path / "m.bin")) < 0.1 * clf.weights.nbytes
        assert traced_peak(clf.fingerprint) < 0.1 * clf.weights.nbytes

    def test_load_holds_one_copy_of_the_weights(self, tmp_path):
        clf = self.weights_2_20()
        save_model(clf, tmp_path / "m.bin")
        loaded = []
        assert traced_peak(lambda: loaded.append(load_model(tmp_path / "m.bin"))) < (
            1.1 * clf.weights.nbytes
        )
        assert np.array_equal(loaded[0].weights, clf.weights)

    @staticmethod
    def paper_examples(n):
        from docprune.corpus import extract_snippet
        from docprune.synthetic import SyntheticCorpusSpec, generate_documents, stratum_of

        docs = generate_documents(SyntheticCorpusSpec(
            n_docs=n, seed=7, doc_tokens_min=800, doc_tokens_max=1600, markers_per_doc=10
        ))
        return [extract_snippet(d).text for d in docs], [int(stratum_of(d)) for d in docs]

    @staticmethod
    def train_peak(examples, config):
        """traced_peak of featurizing the examples into a store and training on them."""

        def train():
            with FeatureStore(config.featurizer) as store:
                train, val = split_train_val(_stored(store, examples), 0.1, seed=0)
                train_classifier(train, val, config, seed=0)

        list(featurize_chunks(examples[0], config.featurizer))  # warm token table
        return traced_peak(train)

    def test_training_holds_its_features_once(self):
        examples = self.paper_examples(400)
        config = TrainConfig(featurizer=FeaturizerConfig(hash_bits=12))
        stored = sum(
            b.indices.nbytes + b.values.nbytes + b.offsets.nbytes
            for b in featurize_chunks(examples[0], config.featurizer)
        )
        assert stored > 4_000_000  # paper-length snippets: ~1,500 tokens each
        assert self.train_peak(examples, config) < 1.6 * stored

    def test_training_memory_does_not_grow_with_labels(self):
        # The features are in the store's file, so 4x the labels holds no
        # more memory than featurizing one batch and training on one block.
        texts, targets = self.paper_examples(400)
        config = TrainConfig(featurizer=FeaturizerConfig(hash_bits=12))
        small = self.train_peak((texts[:100], targets[:100]), config)
        assert self.train_peak((texts, targets), config) <= 1.1 * small
