"""Command-line pipeline: sample, label, train, score, select, filter, ablate.

Stages communicate only through files (snippets, labels, model, score set,
decision), so each can run at its own scale and cadence. `COMMANDS` gives each
command's handler, help and flags, each flag declared once, and `main` runs
them all: a command that reads a corpus refuses an `--out` that is the corpus
dir, and a command's outputs, its resolved configuration among them, appear
only when it finishes. Exit codes: 0 success, 2 config error, 3 I/O error or
malformed stage file, 4 endpoint failure, 5 degenerate data.
"""

from __future__ import annotations

import argparse
import logging
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path
from typing import Callable, NamedTuple

# `featurize_text` is the one-text view of the batched featurizer that
# training and scoring use; it stays importable here only because the
# benchmark tracer (`perfbench/tracer.py`) wraps it on this module. ROADMAP
# item 1 deletes it.
from .classifier import (  # noqa: F401
    DegenerateLabelsError,
    FeatureStore,
    ModelFormatError,
    featurize_text,
    load_model,
    save_model,
    train_classifier,
)
from .config import SWEEPS, ConfigError, RunConfig, load_config, write_resolved_config
from .corpus import (
    CorpusError,
    DuplicateIdError,
    RunSummary,
    ShardSet,
    Snippet,
    extract_snippet,
    ingest_shards,
    read_json,
    read_records,
    reservoir_sample,
    staged_output,
    unique_snippets,
    write_json,
    write_jsonl,
    write_shard_file,
)
from .labeling import (
    PROMPT_VERSIONS,
    YES_FRACTION_RANGE,
    HttpChatTransport,
    QualityLabel,
    TransportError,
    label_documents,
    read_demonstrations,
    yes_share,
)
from .selection import (
    ScoreSet,
    SelectionDecision,
    filter_corpus,
    score_corpus,
    select_cutoff,
)

log = logging.getLogger("docprune")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ENDPOINT = 4
EXIT_DEGENERATE = 5


def cmd_sample(config: RunConfig, out: Path) -> int:
    shard_set = ShardSet.from_dir(config.corpus.input_dir)
    summary = RunSummary()
    docs = ingest_shards(shard_set, strict=config.corpus.strict, summary=summary)
    sample = reservoir_sample(docs, config.corpus.sample_size, config.run.seed)
    if not sample:
        raise DegenerateLabelsError(
            f"no document with text in {config.corpus.input_dir} ({summary.empty_text} "
            f"empty-text and {summary.malformed} malformed records): nothing to sample"
        )
    write_shard_file(sample, out / "sampled-docs.jsonl")
    write_jsonl(out / "snippets.jsonl", (extract_snippet(doc) for doc in sample))
    write_json(out / "run-summary.json", summary)
    log.info("sampled %d of %d documents", len(sample), summary.input_documents)
    return EXIT_OK


def cmd_label(config: RunConfig, out: Path, snippets: str) -> int:
    records = list(unique_snippets(read_records(snippets, Snippet)))
    if not records:
        raise DegenerateLabelsError(f"{snippets} holds no snippets: nothing to label")
    labeler = config.labeler
    demos = read_demonstrations(labeler.icl_demos) if labeler.icl_demos else []
    if labeler.mock:
        from .mocks import MockQualityTransport

        transport = MockQualityTransport()
    else:
        transport = HttpChatTransport(labeler)  # checks endpoint_url
    try:
        labels, stats = label_documents(records, labeler, demos, transport=transport)
    finally:
        if isinstance(transport, HttpChatTransport):
            transport.close()
    write_jsonl(out / "labels.jsonl", labels)
    write_json(out / "label-stats.json", stats)
    if stats.aborted:  # its partial outputs are published with the exit code
        log.error("labeling aborted: %s (partial labels preserved)", stats.aborted)
        return EXIT_ENDPOINT
    log.info(
        "labeled %d/%d snippets, yes-fraction %.3f",
        stats.labeled, stats.requested, stats.yes_fraction,
    )
    return EXIT_OK


def cmd_train(config: RunConfig, out: Path, snippets: str, labels: str) -> int:
    with FeatureStore(config.distiller.featurizer) as store:
        examples = store.add(read_records(labels, QualityLabel), read_records(snippets, Snippet))
        classifier = train_classifier(examples, config.distiller, config.run.seed)
    save_model(classifier, out / "model.bin")
    meta = classifier.training_meta
    write_json(out / "training-report.json", meta)
    if meta["val_f1"] == 0.0:
        log.warning(
            "the best epoch's val F1 is 0.0: the classifier marks no validation "
            "positive; check the labels before scoring with it"
        )
    log.info("trained classifier: val F1 %.4f", meta["val_f1"])
    return EXIT_OK


def cmd_score(config: RunConfig, out: Path, model: str) -> int:
    classifier = load_model(Path(model))
    shard_set = ShardSet.from_dir(config.corpus.input_dir)
    report = score_corpus(
        shard_set,
        classifier,
        workers=config.selector.workers,
        out_dir=out,
        strict=config.corpus.strict,
    )
    write_json(out / "scoring-report.json", report)
    log.info(
        "scored %d documents across %d shards (%.0f docs/s)",
        report.input_documents, len(report.per_shard), report.docs_per_second,
    )
    return EXIT_OK


def cmd_select(config: RunConfig, out: Path, scores: str, labels: str | None) -> int:
    score_set = ScoreSet.open(scores)
    ratio = config.selector.target_ratio
    if ratio == "from-labels":
        if not labels:
            raise ConfigError("--target-ratio from-labels requires --labels")
        try:  # the labeler's keep-ratio, counted as the labels stream past
            ratio = yes_share(read_records(labels, QualityLabel))
        except ValueError:
            raise DegenerateLabelsError(f"from-labels: {labels} holds no labels") from None
        lo, hi = YES_FRACTION_RANGE
        if not lo <= ratio <= hi:
            raise DegenerateLabelsError(
                f"from-labels: the labels' yes-fraction {ratio:.3f} is outside "
                f"[{lo}, {hi}]; pass a numeric --target-ratio instead"
            )
    decision = select_cutoff(score_set.load_scores(), float(ratio), score_set.classifier_id)
    write_json(out / "decision.json", decision)
    log.info(
        "cutoff %.6f keeps %d/%d documents (achieved ratio %.4f, target %.4f)",
        decision.cutoff, decision.kept, decision.kept + decision.dropped,
        decision.achieved_ratio, decision.target_ratio,
    )
    return EXIT_OK


def cmd_filter(config: RunConfig, out: Path, scores: str, decision: str) -> int:
    shard_set = ShardSet.from_dir(config.corpus.input_dir)
    score_set = ScoreSet.open(scores)
    selected = read_json(decision, SelectionDecision)
    corpus_shards = {s.path.name for s in shard_set.shards}
    scored_shards = set(score_set.source_shards)
    if corpus_shards != scored_shards:
        raise CorpusError(
            f"score set {scores} does not cover the corpus: corpus shards without "
            f"scores {sorted(corpus_shards - scored_shards)}, scored shards not in the "
            f"corpus {sorted(scored_shards - corpus_shards)}"
        )
    score_map = score_set.load_scores()
    selected_on = (selected.classifier_id, selected.kept + selected.dropped)
    if selected_on != (score_set.classifier_id, len(score_map)):
        raise CorpusError(
            f"decision {decision} was selected over {selected_on[1]} scores of classifier "
            f"{selected_on[0]!r}, but score set {scores} holds {len(score_map)} scores of "
            f"classifier {score_set.classifier_id!r}; re-run `docprune select` on this score set"
        )
    _, manifest = filter_corpus(shard_set, score_map, selected, out, strict=config.corpus.strict)
    write_json(out / "filter-manifest.json", manifest)
    log.info(
        "filtered corpus: kept %d of %d documents",
        manifest.output_documents, manifest.input_documents,
    )
    return EXIT_OK


def cmd_ablate(config: RunConfig, out: Path, sweep: str) -> int:
    from .ablation import run_sweep  # here: no other command loads the sweeps or mocks

    report = run_sweep(sweep, config)
    jsonl_path, text_path = report.save(out, seed=config.run.seed)
    log.info("wrote %s and %s", jsonl_path.name, text_path.name)
    print(report.render_text())
    return EXIT_OK


# A flag is (its name, its argparse keywords). A dest of "section.key" overrides that
# config key; any other dest is an input the handler takes by name. Every command takes COMMON.
INPUT = "--input", dict(dest="corpus.input_dir", help="corpus directory of .jsonl[.gz] shards")
SNIPPETS = "--snippets", dict(required=True, help="snippets.jsonl from `sample`")
LABELS = "--labels", dict(help="labels.jsonl from `label`")
SCORES = "--scores", dict(required=True, help="score-set directory from `score`")
COMMON = [("--config", dict(help="INI config file")), ("--out", dict(help="output directory")),
          ("--seed", dict(dest="run.seed", help="override [run] seed"))]


class Command(NamedTuple):
    handler: Callable[..., int]  # handler(config, staging dir, **inputs) -> exit code
    help: str
    flags: list[tuple[str, dict]]


COMMANDS = {
    "sample": Command(cmd_sample, "reservoir-sample documents and slice snippets", [
        INPUT, ("--n", dict(dest="corpus.sample_size", help="sample size"))]),
    "label": Command(cmd_label, "label snippets via endpoint or mock", [
        SNIPPETS,
        ("--prompt-version", dict(dest="labeler.prompt_version", choices=[
            *map(str.lower, PROMPT_VERSIONS), *PROMPT_VERSIONS])),
        ("--icl-demos", dict(dest="labeler.icl_demos",
                             help="demonstrations file (exactly 5 records)")),
        ("--mock", dict(dest="labeler.mock", action="store_true", default=None,
                        help="use the offline mock labeler")),
        ("--endpoint-url", dict(dest="labeler.endpoint_url")),
        ("--model-name", dict(dest="labeler.model_name"))]),
    "train": Command(cmd_train, "distill labels into the quality classifier", [
        SNIPPETS, (LABELS[0], dict(LABELS[1], required=True)),
        ("--hash-bits", dict(dest="distiller.hash_bits"))]),
    "score": Command(cmd_score, "score a whole corpus shard-parallel", [
        INPUT, ("--model", dict(required=True, help="model file from `train`")),
        ("--workers", dict(dest="selector.workers",
                           help="override [selector] workers: forked scoring processes"))]),
    "select": Command(cmd_select, "choose the cutoff for a target keep-ratio", [
        SCORES,
        ("--target-ratio", dict(dest="selector.target_ratio",
                                help='keep ratio in (0,1], or "from-labels"')),
        LABELS]),
    "filter": Command(cmd_filter, "materialize the kept documents", [
        INPUT, SCORES, ("--decision", dict(required=True, help="decision.json from `select`"))]),
    "ablate": Command(cmd_ablate, "run a desk-scale sweep on synthetic data", [
        ("--sweep", dict(required=True, choices=SWEEPS))]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docprune",
        description="Corpus pruning: label a sample, distill a classifier, "
        "score and filter the corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag, keywords in [*COMMON, *command.flags]:
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    values = vars(build_parser().parse_args(argv))
    name, config_path, out = values.pop("command"), values.pop("config"), values.pop("out")
    command = COMMANDS[name]
    overrides = {tuple(dest.split(".")): str(value) for dest, value in values.items()
                 if "." in dest and value not in (None, "")}
    inputs = {dest: value for dest, value in values.items() if "." not in dest}
    try:
        config = load_config(config_path, overrides)
        logging.basicConfig(
            level=config.run.log_level.upper(),
            format="%(levelname)s %(name)s: %(message)s",
        )
        out = Path(out or Path(config.run.output_root) / name)
        if INPUT in command.flags:
            if not config.corpus.input_dir:  # Path("") would read the working dir
                raise ConfigError("pass --input or set [corpus] input_dir")
            # Later stages would ingest outputs written into the corpus dir as its
            # shards, and filter's kept shards would replace their inputs by name.
            if out.resolve() == Path(config.corpus.input_dir).resolve():
                raise CorpusError(f"{name} output dir {out} is the corpus dir; choose another")
        with staged_output(out) as staged:  # published only if the handler returns
            write_resolved_config(config, staged / "resolved-config.ini")
            return command.handler(config, staged, **inputs)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateLabelsError, DuplicateIdError) as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except TransportError as exc:
        print(f"endpoint failure: {exc}", file=sys.stderr)
        return EXIT_ENDPOINT
    except (CorpusError, ModelFormatError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BrokenExecutor:
        print(
            "I/O error: a scoring worker process died (killed by a signal or out of memory)",
            file=sys.stderr,
        )
        return EXIT_IO
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
