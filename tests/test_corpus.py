import gzip
import json
import math
import random

import pytest

from docprune.corpus import (
    CorpusError,
    Document,
    RunSummary,
    Shard,
    ShardSet,
    atomic_open,
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
        assert summary.malformed == 1
        assert summary.input_documents == 2
        assert summary.shards == 1

    @pytest.mark.parametrize("strict", [False, True])
    def test_empty_text_skipped_and_counted(self, tmp_path, strict):
        shard_set = corpus_dir(tmp_path, {"s.jsonl": [
            {"id": "a", "text": "x"}, {"id": "empty", "text": ""}, {"text": ""}, {"text": "y"},
        ]})
        summary = RunSummary()
        docs = list(ingest_shards(shard_set, strict=strict, summary=summary))
        assert [d.id for d in docs] == ["a", "s.jsonl#3"]
        assert (summary.input_documents, summary.empty_text, summary.malformed) == (2, 2, 0)

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
        assert summary.malformed == 1

    def test_missing_id_synthesized(self, tmp_path):
        shard_set = corpus_dir(tmp_path, {"web.jsonl": [{"text": "a"}, {"text": "b"}]})
        ids = [d.id for d in ingest_shards(shard_set)]
        assert ids == ["web.jsonl#0", "web.jsonl#1"]

    @pytest.mark.parametrize("name", ["s.jsonl", "s.jsonl.gz"])
    def test_index_numbers_malformed_and_empty_records_not_blank_lines(self, tmp_path, name):
        lines = [{"text": "first"}, "", "{nope", {"text": ""}, {"text": "last"}]
        data = "".join((r if isinstance(r, str) else json.dumps(r)) + "\n" for r in lines)
        root = tmp_path / "corpus"
        root.mkdir()
        (root / name).write_bytes(gzip.compress(data.encode()) if name.endswith(".gz")
                                  else data.encode())
        shard_set = ShardSet.from_dir(root)
        summary = RunSummary()
        assert [d.id for d in ingest_shards(shard_set, summary=summary)] == [
            f"{name}#0", f"{name}#3"]
        assert (summary.input_documents, summary.malformed, summary.empty_text) == (2, 1, 1)
        with pytest.raises(CorpusError, match=f"^malformed record {name}#1: "):
            list(ingest_shards(shard_set, strict=True))

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
        assert summary.malformed == 1

    @pytest.mark.parametrize("record", [
        '{"id": "a", "text": "half \\ud800 a pair"}',
        '{"id": "\\udc00", "text": "x"}',
        '{"id": "a", "text": "x", "meta": {"\\ud800": "v"}}',
        '{"id": "a", "text": "x", "meta": {"k": "\\ud800"}}',
    ], ids=["text", "id", "meta-key", "meta-value"])
    def test_lone_surrogate_rejected(self, tmp_path, record):
        """Valid JSON, but a lone surrogate could not be written back as UTF-8;
        an escaped surrogate pair is one character and stays."""
        shard_set = corpus_dir(tmp_path, {"s.jsonl": ['{"id": "ok", "text": "\\ud83d\\udc0d"}',
                                                      record]})
        summary = RunSummary()
        assert [d.text for d in ingest_shards(shard_set, summary=summary)] == ["\U0001f40d"]
        assert (summary.input_documents, summary.malformed) == (1, 1)
        with pytest.raises(CorpusError, match="^malformed record s.jsonl#1: .*surrogates"):
            list(ingest_shards(shard_set, strict=True))

    def test_unreadable_shard_is_fatal(self, tmp_path):
        shard_set = ShardSet(shards=[Shard(tmp_path / "missing.jsonl", False)])
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

    def test_from_dir_takes_only_jsonl_and_jsonl_gz(self, tmp_path):
        """A backup such as `a.jsonl.bak.gz` beside `a.jsonl` is not a second shard."""
        root = tmp_path / "corpus"
        root.mkdir()
        for name in ("a.jsonl", "b.jsonl.gz", "a.jsonl.bak.gz", "a.jsonl.orig", "notes.txt"):
            (root / name).write_bytes(b"")
        shards = ShardSet.from_dir(root).shards
        assert [(s.path.name, s.compressed) for s in shards] == [
            ("a.jsonl", False), ("b.jsonl.gz", True)
        ]


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
    """Every snippet is the middle 6,000 characters (~1500 tokens) of its text."""

    def test_text_shorter_than_window(self):
        doc = Document(id="d", text="x" * 100)
        snip = extract_snippet(doc)
        assert (snip.char_start, snip.char_end) == (0, 100)
        assert snip.text == doc.text
        assert snip.approx_token_budget == 1500

    def test_long_text_centered_window(self):
        doc = Document(id="d", text="x" * 12_000)
        snip = extract_snippet(doc)
        assert (snip.char_start, snip.char_end) == (3_000, 9_000)
        assert len(snip.text) == 6_000

    def test_random_lengths_take_the_middle_window(self):
        rng = random.Random(0)
        for n in [0, 1, 5_999, 6_000, 6_001, 12_000] + [rng.randint(0, 12_000) for _ in range(50)]:
            doc = Document(id="d", text="".join(rng.choice("ab") for _ in range(n)))
            if n == 0:
                with pytest.raises(ValueError, match="empty snippet"):
                    extract_snippet(doc)
                continue
            snip = extract_snippet(doc)
            assert snip.char_end - snip.char_start == min(n, 6_000)
            # Centered: an odd remainder goes after the window.
            assert 0 <= (n - snip.char_end) - snip.char_start <= 1
            assert snip.text == doc.text[snip.char_start:snip.char_end]
            assert snip.approx_token_budget == 1500

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError, match="empty snippet"):
            extract_snippet(Document(id="d", text=""))

    def test_containment_on_unicode_texts(self):
        # Snippet text is always the exact [start, end) slice, including for
        # multi-byte and astral characters.
        rng = random.Random(0)
        alphabet = "abc é世\U0001f600́"
        for _ in range(20):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12_000)))
            doc = Document(id="d", text=text)
            snip = extract_snippet(doc)
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

    def test_gzip_bytes_do_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        import time

        written = []
        for now in (1e9, 2e9):
            monkeypatch.setattr(time, "time", lambda: now)
            path = tmp_path / str(int(now)) / "s.jsonl.gz"
            with atomic_open(path, "wb", compress=True) as fh:
                fh.write(b'{"id": "a", "text": "x"}\n')
            written.append(path.read_bytes())
        assert written[0] == written[1]

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
