import json
import shutil
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis.configuration import set_hypothesis_home_dir

from docprune.corpus import Document, ShardSet

# Hypothesis keeps its example database and caches in a temp dir, not in
# `.hypothesis/` under the working dir; the session removes it at its end.
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="docprune-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)


def write_jsonl_shard(path: Path, records: list) -> Path:
    """Write raw records (dicts or pre-encoded strings) as one shard file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec if isinstance(rec, str) else json.dumps(rec, ensure_ascii=False))
            fh.write("\n")
    return path


def make_docs(n: int, prefix: str = "d") -> list[Document]:
    return [
        Document(id=f"{prefix}{i:04d}", text=f"text of document {i} " * 3, meta={"k": str(i)})
        for i in range(n)
    ]


def corpus_dir(tmp_path: Path, shards: dict[str, list]) -> ShardSet:
    root = tmp_path / "corpus"
    root.mkdir(parents=True, exist_ok=True)
    for name, records in shards.items():
        write_jsonl_shard(root / name, records)
    return ShardSet.from_dir(root)


def traced_peak(fn) -> int:
    """Bytes allocated at the peak of fn(), above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


_ACCEPTANCE_PREFIX = "tests/test_acceptance.py"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if _ACCEPTANCE_PREFIX in nodeid or nodeid.startswith("test_acceptance"):
                name = nodeid.split("::")[-1]
                status = "PASS" if outcome == "passed" else "FAIL"
                lines.append(f"{status}  {name}")
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in sorted(set(lines)):
            terminalreporter.write_line(line)
