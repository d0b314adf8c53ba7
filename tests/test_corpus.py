import gzip
import json
import math
import random

import pytest

from docprune.corpus import (
    CorpusError,
    Document,
    RunSummary,
    ShardSet,
    extract_snippet,
    ingest_shards,
    reservoir_sample,
    write_shards,
)

from conftest import corpus_dir, make_docs, write_jsonl_shard


class TestIngest:
    def test_order_across_shards(self, tmp_path):
        shard_set = corpus_dir(
            tmp_path,
            {
                "a.jsonl": [{"id": f"a{i}", "text": "x"} for i in range(3)],
                "b.jsonl": [{"id": f"b{i}", "text": "x"} for i in range(3)],
            },
        )
        ids = [d.id for d in ingest_shards(shard_set)]
        assert ids == ["a0", "a1", "a2", "b0", "b1", "b2"]

    def test_missing_text_skipped_and_counted(self, tmp_path):
        shard_set = corpus_dir(
            tmp_path,
            {"s.jsonl": [{"id": "ok", "text": "x"}, {"id": "broken"}, {"id": "ok2", "text": "y"}]},
        )
        summary = RunSummary()
        docs = list(ingest_shards(shard_set, summary=summary))
        assert [d.id for d in docs] == ["ok", "ok2"]
        assert summary.records_skipped == 1
        assert summary.records_read == 2
        assert summary.shards == 1

    def test_strict_mode_promotes_to_fatal(self, tmp_path):
        shard_set = corpus_dir(tmp_path, {"s.jsonl": [{"id": "broken"}]})
        with pytest.raises(CorpusError, match="s.jsonl#0"):
            list(ingest_shards(shard_set, strict=True))

    def test_malformed_json_skipped(self, tmp_path):
        shard_set = corpus_dir(
            tmp_path, {"s.jsonl": ['{"id": "a", "text": "x"}', "{nope"]}
        )
        summary = RunSummary()
        docs = list(ingest_shards(shard_set, summary=summary))
        assert len(docs) == 1
        assert summary.records_skipped == 1

    def test_missing_id_synthesized(self, tmp_path):
        shard_set = corpus_dir(tmp_path, {"web.jsonl": [{"text": "a"}, {"text": "b"}]})
        ids = [d.id for d in ingest_shards(shard_set)]
        assert ids == ["web.jsonl#0", "web.jsonl#1"]

    def test_gzip_autodetected(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        with gzip.open(root / "z.jsonl.gz", "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "g0", "text": "zipped"}) + "\n")
        docs = list(ingest_shards(ShardSet.from_dir(root)))
        assert docs[0].id == "g0"
        assert docs[0].text == "zipped"

    def test_invalid_utf8_rejected_not_truncated(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        with open(root / "s.jsonl", "wb") as fh:
            fh.write(b'{"id": "bad", "text": "\xff\xfe"}\n')
            fh.write(json.dumps({"id": "good", "text": "ok"}).encode() + b"\n")
        summary = RunSummary()
        docs = list(ingest_shards(ShardSet.from_dir(root), summary=summary))
        assert [d.id for d in docs] == ["good"]
        assert summary.records_skipped == 1

    def test_unreadable_shard_is_fatal(self, tmp_path):
        shard_set = ShardSet.from_paths([tmp_path / "missing.jsonl"])
        with pytest.raises(CorpusError, match="missing.jsonl"):
            list(ingest_shards(shard_set))

    def test_two_ingests_identical(self, tmp_path):
        docs = make_docs(50)
        shard_set = write_shards(docs, tmp_path / "c", records_per_shard=7)
        first = [(d.id, d.text) for d in ingest_shards(shard_set)]
        second = [(d.id, d.text) for d in ingest_shards(shard_set)]
        assert first == second

    def test_meta_values_coerced_to_strings(self, tmp_path):
        shard_set = corpus_dir(
            tmp_path, {"s.jsonl": [{"id": "a", "text": "x", "meta": {"n": 3}}]}
        )
        doc = next(ingest_shards(shard_set))
        assert doc.meta == {"n": "3"}

    def test_from_dir_lexicographic_order(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        for name in ("b.jsonl", "a.jsonl", "c.jsonl"):
            write_jsonl_shard(root / name, [{"id": name, "text": "x"}])
        shard_set = ShardSet.from_dir(root)
        assert [s.path.name for s in shard_set.shards] == ["a.jsonl", "b.jsonl", "c.jsonl"]


class TestReservoirSample:
    def test_sample_larger_than_stream(self):
        docs = make_docs(5)
        assert reservoir_sample(iter(docs), 10, seed=0) == docs

    def test_deterministic(self):
        docs = make_docs(100)
        a = reservoir_sample(iter(docs), 10, seed=7)
        b = reservoir_sample(iter(docs), 10, seed=7)
        assert [d.id for d in a] == [d.id for d in b]
        c = reservoir_sample(iter(docs), 10, seed=8)
        assert [d.id for d in a] != [d.id for d in c]

    def test_zero_sample_size_rejected(self):
        with pytest.raises(ValueError):
            reservoir_sample(iter(make_docs(3)), 0, seed=0)

    def test_uniform_inclusion_frequency(self):
        # Monte-Carlo uniformity: N=10,000, n=1,000, 200 seeded runs. A correct
        # uniform sampler puts ~0.3% of elements outside 3 sigma, so the
        # per-element bound uses a Bonferroni-adjusted 4.75 sigma; at least 99%
        # of elements must sit within 3 sigma and the grand mean within 3 sigma
        # of n/N.
        n_items, n_sample, n_runs = 10_000, 1_000, 200
        counts = [0] * n_items
        for seed in range(n_runs):
            for item in reservoir_sample(range(n_items), n_sample, seed=seed):
                counts[item] += 1
        p = n_sample / n_items
        sigma = math.sqrt(p * (1 - p) / n_runs)
        freqs = [c / n_runs for c in counts]
        worst = max(abs(f - p) for f in freqs)
        assert worst < 4.75 * sigma, f"worst deviation {worst:.4f} vs bound {4.75 * sigma:.4f}"
        within3 = sum(1 for f in freqs if abs(f - p) < 3 * sigma)
        assert within3 >= 0.99 * n_items
        grand_mean = sum(freqs) / n_items
        assert abs(grand_mean - p) < 3 * sigma / math.sqrt(n_items)


class TestExtractSnippet:
    def test_text_shorter_than_window(self):
        doc = Document(id="d", text="x" * 100)
        snip = extract_snippet(doc, token_budget=1500, chars_per_token=4)
        assert (snip.char_start, snip.char_end) == (0, 100)
        assert snip.text == doc.text

    def test_long_text_centered_window(self):
        doc = Document(id="d", text="x" * 12_000)
        snip = extract_snippet(doc, token_budget=1500, chars_per_token=4)
        assert (snip.char_start, snip.char_end) == (3_000, 9_000)
        assert len(snip.text) == 6_000

    def test_small_budget_middle_slice(self):
        doc = Document(id="d", text="a" * 20)
        snip = extract_snippet(doc, token_budget=2, chars_per_token=4)
        assert (snip.char_start, snip.char_end) == (6, 14)
        assert len(snip.text) == 8

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError, match="empty document"):
            extract_snippet(Document(id="d", text=""))

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            extract_snippet(Document(id="d", text="x"), token_budget=0)

    def test_containment_on_unicode_texts(self):
        # Snippet text is always the exact [start, end) slice, including for
        # multi-byte and astral characters.
        rng = random.Random(0)
        alphabet = "abc é世\U0001f600́"
        for _ in range(50):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 400)))
            doc = Document(id="d", text=text)
            snip = extract_snippet(doc, token_budget=rng.randint(1, 30), chars_per_token=3)
            assert 0 <= snip.char_start <= snip.char_end <= len(text)
            assert snip.text == text[snip.char_start:snip.char_end]


class TestWriteShards:
    def test_shard_sizes(self, tmp_path):
        shard_set = write_shards(make_docs(10), tmp_path / "out", records_per_shard=4)
        assert [s.record_count for s in shard_set.shards] == [4, 4, 2]
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_empty_stream(self, tmp_path):
        shard_set = write_shards([], tmp_path / "out", records_per_shard=4)
        assert shard_set.shards == []
        assert list(ingest_shards(shard_set)) == []

    @pytest.mark.parametrize("compress", [False, True])
    def test_roundtrip_content_identity(self, tmp_path, compress):
        rng = random.Random(1)
        alphabet = "abcdef ü中\U0001f40d\n\t{}\""
        docs = [
            Document(
                id=f"r{i}",
                text="".join(rng.choice(alphabet) for _ in range(rng.randint(1, 200))),
                meta={"src": f"gen{i % 7}"},
            )
            for i in range(1000)
        ]
        shard_set = write_shards(docs, tmp_path / "out", records_per_shard=128, compress=compress)
        back = list(ingest_shards(shard_set))
        assert [(d.id, d.text, d.meta) for d in back] == [
            (d.id, d.text, d.meta) for d in docs
        ]

    def test_records_per_shard_validated(self, tmp_path):
        with pytest.raises(ValueError):
            write_shards(make_docs(3), tmp_path / "out", records_per_shard=0)


class TestWriteFailure:
    def test_partial_output_noted_in_manifest(self, tmp_path, monkeypatch):
        import docprune.corpus as corpus_mod

        real = corpus_mod.write_jsonl
        calls = {"n": 0}

        def flaky(path, records, compress=False):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError("disk full")
            return real(path, records, compress)

        monkeypatch.setattr(corpus_mod, "write_jsonl", flaky)
        with pytest.raises(CorpusError, match="write failed"):
            write_shards(make_docs(10), tmp_path / "out", records_per_shard=4)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["partial_shards"] == ["shard-00000.jsonl"]
