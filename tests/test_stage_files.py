"""The stage-file layer in docprune.corpus: atomic writes, validating reads,
round trips, and a guard that keeps every writer in src/ on atomic_open."""

import ast
import gzip
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docprune.corpus import (
    CorpusError,
    Document,
    ShardSet,
    Snippet,
    atomic_open,
    ingest_shards,
    read_json,
    read_jsonl,
    read_records,
    write_json,
    write_jsonl,
    write_shards,
)
from docprune.labeling import NO, YES, IclDemonstration, QualityLabel
from docprune.selection import ScoreSet

SRC = Path(__file__).resolve().parent.parent / "src" / "docprune"

# Pieces that have broken hand-rolled JSONL and prompt handling: braces,
# quotes, escapes, line breaks, the query block's ">" framing, NUL, U+2028,
# non-ASCII and astral characters.
TRICKY = ["{", "}", "{snippet}", '"', "\\", "\n", "\r\n", ">", ">\n\n[Instruction] ",
          "\t", "\x00", "\u2028", "é", "日本", "\U0001F600", "\U00010348"]
texts = st.lists(st.sampled_from(TRICKY) | st.text(max_size=6), max_size=10).map("".join)
ints = st.integers(min_value=0, max_value=10**6)


class TestAtomicWrites:
    def test_interrupted_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        write_jsonl(path, [{"n": 0}, {"n": 1}])
        before = path.read_bytes()

        def records():
            yield {"n": 2}
            raise RuntimeError("labeler crashed")

        with pytest.raises(RuntimeError, match="labeler crashed"):
            write_jsonl(path, records())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["labels.jsonl"]

    def test_temp_file_is_hidden_from_shard_and_score_globs(self, tmp_path):
        write_shards([Document("a", "x")], tmp_path, records_per_shard=1)
        with atomic_open(tmp_path / "shard-00001.jsonl", "wb") as fh:
            fh.write(b'{"id": "b", "text": "y"}\n')
            with atomic_open(tmp_path / "scores-shard-00000.jsonl", "wb"):
                temps = sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".tmp")
                assert [t.split(".")[1] for t in temps] == ["scores-shard-00000", "shard-00001"]
                assert all(t.startswith(".") for t in temps)
                assert [s.path.name for s in ShardSet.from_dir(tmp_path).shards] == [
                    "shard-00000.jsonl"
                ]
                with pytest.raises(CorpusError, match="no score shards"):
                    ScoreSet.open(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.json", "scores-shard-00000.jsonl", "shard-00000.jsonl",
            "shard-00001.jsonl",
        ]

    def test_gzip_header_names_the_final_file(self, tmp_path):
        write_jsonl(tmp_path / "s.jsonl.gz", [{"id": "a"}], compress=True)
        raw = (tmp_path / "s.jsonl.gz").read_bytes()
        assert raw[10:raw.index(b"\0", 10)] == b"s.jsonl"  # FNAME, ".gz" dropped
        assert gzip.decompress(raw) == b'{"id": "a"}\n'

    def test_one_encoding_per_format(self, tmp_path):
        write_jsonl(tmp_path / "a.jsonl", [{"b": "é", "a": 1}])
        write_json(tmp_path / "a.json", {"b": "é", "a": 1})
        assert (tmp_path / "a.jsonl").read_bytes() == '{"a": 1, "b": "é"}\n'.encode()
        assert (tmp_path / "a.json").read_text() == '{\n  "a": 1,\n  "b": "\\u00e9"\n}'


class TestValidatingReads:
    def write(self, tmp_path, content: bytes) -> Path:
        path = tmp_path / "x.jsonl"
        path.write_bytes(content)
        return path

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, b'{"a": 1}\n\n{"a": 2}\n')
        assert list(read_jsonl(path)) == [{"a": 1}, {"a": 2}]

    @pytest.mark.parametrize("content, where, what", [
        (b'{"a": 1}\n{"a": 2', "x.jsonl:2", "bad JSON"),
        (b'{"a": 1}\n\n{"a": "\xff"}\n', "x.jsonl:3", "bad UTF-8"),
        (b"[1, 2]\n", "x.jsonl:1", "record is not a JSON object"),
    ])
    def test_malformed_line_named(self, tmp_path, content, where, what):
        with pytest.raises(CorpusError, match=f"{where}: {what}"):
            list(read_jsonl(self.write(tmp_path, content)))

    def test_reading_is_lazy(self, tmp_path):
        records = read_jsonl(self.write(tmp_path, b'{"a": 1}\nnot json\n'))
        assert next(records) == {"a": 1}
        with pytest.raises(CorpusError, match="x.jsonl:2"):
            next(records)

    @pytest.mark.parametrize("record, what", [
        ({"doc_id": "a", "label": YES, "prompt_version": "V1", "labeler_id": "m"},
         r"missing fields \['raw_response'\]"),
        ({"doc_id": "a", "label": YES, "prompt_version": "V1", "labeler_id": "m",
          "raw_response": YES, "extra": 1}, r"unexpected fields \['extra'\]"),
        ({"doc_id": 5, "label": YES, "prompt_version": "V1", "labeler_id": "m",
          "raw_response": YES}, "QualityLabel field 'doc_id' has the wrong type"),
    ])
    def test_record_fields_checked(self, tmp_path, record, what):
        path = self.write(tmp_path, json.dumps(record).encode() + b"\n")
        with pytest.raises(CorpusError, match=f"x.jsonl:1: .*{what}"):
            list(read_records(path, QualityLabel))

    def test_defaulted_field_may_be_absent(self, tmp_path):
        path = self.write(tmp_path, b'{"doc_id": "a", "label": "No", "prompt_version": "V1", '
                                    b'"labeler_id": "m", "raw_response": "No"}\n')
        assert list(read_records(path, QualityLabel)) == [QualityLabel("a", NO, "V1", "m", NO)]

    def test_value_rejected_by_the_class_named(self, tmp_path):
        path = self.write(tmp_path, b'{"snippet_text": "t", "label": "Maybe"}\n')
        with pytest.raises(CorpusError, match="x.jsonl:1: demonstration label"):
            list(read_records(path, IclDemonstration))

    def test_read_json_names_the_line(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{\n  "a": 1,\n  "b": \n')
        with pytest.raises(CorpusError, match="d.json:4: bad JSON"):
            read_json(path, QualityLabel)


def roundtrip(records, cls):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        assert write_jsonl(path, records) == len(records)
        return list(read_records(path, cls))


class TestRoundTrips:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.builds(Snippet, texts, texts, ints, ints, ints), max_size=5))
    def test_snippets(self, snippets):
        assert roundtrip(snippets, Snippet) == snippets

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.builds(QualityLabel, texts, st.sampled_from([YES, NO]), texts, texts,
                              texts, ints), max_size=5))
    def test_labels(self, labels):
        assert roundtrip(labels, QualityLabel) == labels

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.builds(IclDemonstration, texts, st.sampled_from([YES, NO]), texts),
                    max_size=5))
    def test_demonstrations(self, demos):
        assert roundtrip(demos, IclDemonstration) == demos

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(texts.filter(bool), texts, st.dictionaries(texts, texts, max_size=3)),
                 max_size=8),
        st.integers(min_value=1, max_value=4),
        st.booleans(),
    )
    def test_shards_write_then_ingest(self, rows, per_shard, compress):
        docs = [Document(id=i, text=t, meta=m) for i, t, m in rows]
        with tempfile.TemporaryDirectory() as tmp:
            shard_set = write_shards(docs, tmp, per_shard, compress=compress)
            back = [(d.id, d.text, d.meta) for d in ingest_shards(shard_set, strict=True)]
        assert back == [(d.id, d.text, d.meta) for d in docs]


# ------------------------------------------------------------------ the guard


def _mode(call: ast.Call) -> ast.expr | None:
    """The mode argument of an open-like call, or None when it is defaulted."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    func = call.func
    if isinstance(func, ast.Name) or (
        isinstance(func.value, ast.Name) and func.value.id in ("gzip", "io", "builtins")
    ):  # open(path, mode), gzip.open(path, mode)
        return call.args[1] if len(call.args) > 1 else None
    # A method: Path.open takes the mode first, while other methods named open
    # (ScoreSet.open(directory)) take none, so only a literal counts as a mode.
    first = call.args[0] if call.args else None
    return first if isinstance(first, ast.Constant) else None


def writes_outside_atomic_open(source: str) -> list[int]:
    """Line numbers of calls that open a file for writing outside atomic_open."""
    found = []

    def visit(node: ast.AST, inside: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside or node.name == "atomic_open"
        if isinstance(node, ast.Call) and not inside:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name in ("write_text", "write_bytes"):
                found.append(node.lineno)
            elif name in ("open", "GzipFile"):
                mode = _mode(node)
                if mode is None:
                    writing = name == "GzipFile"  # its mode follows the file object's
                elif isinstance(mode, ast.Constant) and isinstance(mode.value, str):
                    writing = bool(set(mode.value) & set("wax+"))
                else:
                    writing = True  # a computed mode might write
                if writing:
                    found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


class TestWritesGoThroughAtomicOpen:
    def test_guard_flags_direct_writes(self):
        source = (
            "def f(p, m):\n"
            "    open(p)\n"
            "    open(p, 'rb')\n"
            "    gzip.open(p, mode='rt')\n"
            "    open(p, 'w')\n"
            "    gzip.open(p, 'ab')\n"
            "    p.open('x')\n"
            "    open(p, m)\n"
            "    p.write_text('')\n"
            "    p.write_bytes(b'')\n"
            "def atomic_open(p):\n"
            "    open(p, 'xb')\n"
        )
        assert writes_outside_atomic_open(source) == [5, 6, 7, 8, 9, 10]

    @pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
    def test_module_writes_only_through_atomic_open(self, module):
        assert writes_outside_atomic_open((SRC / module).read_text()) == []
