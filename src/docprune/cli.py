"""Command-line pipeline: sample, label, train, score, select, filter, ablate.

Stages communicate only through files (snippets, labels, model, score set,
decision), so each can run at its own scale and cadence. Every command writes
its resolved configuration next to its outputs. Exit codes: 0 success, 2 config
error, 3 I/O error or malformed stage file, 4 endpoint failure, 5 degenerate data.
"""

from __future__ import annotations

import argparse
import logging
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

# `featurize_text` is the one-text view of the batched featurizer that
# training and scoring use; it stays importable here only because the
# benchmark tracer (`perfbench/tracer.py`) wraps it on this module. ROADMAP
# item 1 deletes it.
from .classifier import (  # noqa: F401
    DegenerateLabelsError,
    FeatureStore,
    ModelFormatError,
    QualityClassifier,
    featurize_text,
    load_model,
    save_model,
    split_train_val,
    train_classifier,
)
from .config import ConfigError, RunConfig, load_config, write_resolved_config
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
    write_json,
    write_jsonl,
    write_shard_file,
)
from .labeling import (
    YES_FRACTION_RANGE,
    HttpChatTransport,
    IclDemonstration,
    LabelRunAborted,
    QualityLabel,
    TransportError,
    label_documents,
    read_demonstrations,
    read_labels,
    write_labels,
    yes_share,
)
from .selection import (
    ScoreSet,
    SelectionDecision,
    filter_corpus,
    score_corpus,
    score_shard_names,
    select_cutoff,
)

log = logging.getLogger("docprune")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ENDPOINT = 4
EXIT_DEGENERATE = 5


def _out_dir(config: RunConfig, args, command: str) -> Path:
    """Create the output dir and write the resolved config into it.

    `load_config` has checked every config value before a command runs, and
    commands call this only after the checks they can make up front (a
    sample drawn, inputs read, labels joined to snippets, transport built,
    model trained, cutoff selected, score set checked against the corpus, a
    strict corpus read through, sweep run), so a run that fails on bad input
    leaves no output directory behind. A later failure leaves the directory
    with its `resolved-config.ini`: `score` and `filter` remove the shards they
    wrote, and an aborted `label` keeps its partial labels.
    """
    out = Path(args.out) if args.out else Path(config.run.output_root) / command
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(config, out / "resolved-config.ini")
    return out


def cmd_sample(config: RunConfig, args) -> int:
    shard_set = ShardSet.from_dir(config.corpus.input_dir)
    summary = RunSummary()
    docs = ingest_shards(shard_set, strict=config.corpus.strict, summary=summary)
    sample = reservoir_sample(docs, config.corpus.sample_size, config.run.seed)
    if not sample:
        raise DegenerateLabelsError(
            f"no document with text in {config.corpus.input_dir} ({summary.empty_text} "
            f"empty-text and {summary.malformed} malformed records): nothing to sample"
        )
    out = _out_dir(config, args, "sample")
    write_shard_file(sample, out / "sampled-docs.jsonl")
    write_jsonl(out / "snippets.jsonl", (extract_snippet(doc) for doc in sample))
    write_json(out / "run-summary.json", summary)
    log.info("sampled %d of %d documents", len(sample), summary.input_documents)
    return EXIT_OK


def cmd_label(config: RunConfig, args) -> int:
    snippets = list(read_records(args.snippets, Snippet))
    labeler = config.labeler
    demos = read_demonstrations(labeler.icl_demos) if labeler.icl_demos else []
    if labeler.icl_demos and len(demos) != 5:
        raise ConfigError(
            f"[labeler] icl_demos {labeler.icl_demos} holds {len(demos)} demonstrations; "
            f"exactly 5 are required"
        )
    if labeler.mock:
        from .mocks import MockQualityTransport

        transport = MockQualityTransport()
        labeler = replace(labeler, model_name=labeler.model_name or "mock-quality")
    else:
        transport = HttpChatTransport(labeler)  # checks endpoint_url
    out = _out_dir(config, args, "label")
    try:
        labels, stats = label_documents(snippets, labeler, demos, transport=transport)
    except LabelRunAborted as exc:
        write_labels(exc.labels, out / "labels.jsonl")
        write_json(out / "label-stats.json", exc.stats)
        log.error("labeling aborted: %s (partial labels preserved)", exc)
        return EXIT_ENDPOINT
    finally:
        if isinstance(transport, HttpChatTransport):
            transport.close()
    write_labels(labels, out / "labels.jsonl")
    write_json(out / "label-stats.json", stats)
    log.info(
        "labeled %d/%d snippets, yes-fraction %.3f",
        stats.labeled, stats.requested, stats.yes_fraction,
    )
    return EXIT_OK


def _train(
    config: RunConfig, labels: Iterable[QualityLabel], snippets: Iterable[Snippet]
) -> tuple[QualityClassifier, Sequence[int]]:
    """Join the labels to their snippets in a FeatureStore (`FeatureStore.add`),
    split them and train with the [distiller] settings; returns the model and
    its training targets."""
    with FeatureStore(config.distiller.featurizer) as store:
        examples = store.add(labels, snippets)
        train, val = split_train_val(examples, config.distiller.val_fraction, config.run.seed)
        classifier = train_classifier(train, val, config.distiller, seed=config.run.seed)
    return classifier, train.targets


def cmd_train(config: RunConfig, args) -> int:
    classifier, train_targets = _train(
        config, read_records(args.labels, QualityLabel), read_records(args.snippets, Snippet)
    )
    out = _out_dir(config, args, "train")
    save_model(classifier, out / "model.bin")
    meta = classifier.training_meta
    write_json(
        out / "training-report.json",
        {
            "train_size": meta["train_size"],
            "val_size": meta["val_size"],
            "val_f1": meta["val_f1"],
            "epochs_run": meta["epochs"],
            "yes_fraction_train": sum(train_targets) / len(train_targets),
        },
    )
    if meta["val_f1"] == 0.0:
        log.warning(
            "the best epoch's val F1 is 0.0: the classifier marks no validation "
            "positive; check the labels before scoring with it"
        )
    log.info("trained classifier: val F1 %.4f", meta["val_f1"])
    return EXIT_OK


def cmd_score(config: RunConfig, args) -> int:
    classifier = load_model(Path(args.model))
    shard_set = ShardSet.from_dir(config.corpus.input_dir)
    score_shard_names(shard_set)  # two corpus shards with one score shard exit 3
    out = _out_dir(config, args, "score")
    score_set = score_corpus(
        shard_set,
        classifier,
        workers=config.selector.workers,
        out_dir=out,
        strict=config.corpus.strict,
    )
    write_json(out / "scoring-report.json", score_set.report)
    log.info(
        "scored %d documents across %d shards (%.0f docs/s)",
        score_set.report.input_documents,
        len(score_set.shard_paths),
        score_set.report.docs_per_second,
    )
    return EXIT_OK


def cmd_select(config: RunConfig, args) -> int:
    score_set = ScoreSet.open(args.scores)
    ratio = config.selector.target_ratio
    if ratio == "from-labels":
        if not args.labels:
            raise ConfigError("--target-ratio from-labels requires --labels")
        labels = read_labels(args.labels)
        if not labels:
            raise DegenerateLabelsError(f"from-labels: {args.labels} holds no labels")
        ratio = yes_share(labels)  # the labeler's keep-ratio
        lo, hi = YES_FRACTION_RANGE
        if not lo <= ratio <= hi:
            raise DegenerateLabelsError(
                f"from-labels: the labels' yes-fraction {ratio:.3f} is outside "
                f"[{lo}, {hi}]; pass a numeric --target-ratio instead"
            )
    decision = select_cutoff(score_set.load_scores(), float(ratio), score_set.classifier_id)
    out = _out_dir(config, args, "select")
    write_json(out / "decision.json", decision)
    log.info(
        "cutoff %.6f keeps %d/%d documents (achieved ratio %.4f, target %.4f)",
        decision.cutoff, decision.kept, decision.kept + decision.dropped,
        decision.achieved_ratio, decision.target_ratio,
    )
    return EXIT_OK


def cmd_filter(config: RunConfig, args) -> int:
    shard_set = ShardSet.from_dir(config.corpus.input_dir)
    score_set = ScoreSet.open(args.scores)
    decision = read_json(args.decision, SelectionDecision)
    corpus_shards = {s.path.name for s in shard_set.shards}
    scored_shards = set(score_set.source_shards)
    if corpus_shards != scored_shards:
        raise CorpusError(
            f"score set {args.scores} does not cover the corpus: corpus shards without "
            f"scores {sorted(corpus_shards - scored_shards)}, scored shards not in the "
            f"corpus {sorted(scored_shards - corpus_shards)}"
        )
    scores = score_set.load_scores()
    selected_on = (decision.classifier_id, decision.kept + decision.dropped)
    if selected_on != (score_set.classifier_id, len(scores)):
        raise CorpusError(
            f"decision {args.decision} was selected over {selected_on[1]} scores of classifier "
            f"{selected_on[0]!r}, but score set {args.scores} holds {len(scores)} scores of "
            f"classifier {score_set.classifier_id!r}; re-run `docprune select` on this score set"
        )
    if config.corpus.strict:  # a malformed record exits 3 before the output dir exists
        for _ in ingest_shards(shard_set, strict=True):
            pass
    out = _out_dir(config, args, "filter")
    _, manifest = filter_corpus(shard_set, scores, decision, out, strict=config.corpus.strict)
    log.info(
        "filtered corpus: kept %d of %d documents",
        manifest.output_documents, manifest.input_documents,
    )
    return EXIT_OK


def cmd_ablate(config: RunConfig, args) -> int:
    # Imported here, so that no other stage loads the sweeps or the mocks.
    from . import ablation
    from .mocks import FidelityMockTransport, MockQualityTransport, VersionFlipTransport
    from .synthetic import generate_documents, truth_by_doc

    ab = config.ablation
    docs = generate_documents(ab.corpus_spec(config.run.seed))
    sample = reservoir_sample(iter(docs), min(ab.sample_size, len(docs)), config.run.seed)

    def mock_labels(snippets):
        return label_documents(snippets, config.labeler, transport=MockQualityTransport())[0]

    if args.sweep == "ratio":
        snippets = ablation.snippets_of(sample)
        classifier = _train(config, mock_labels(snippets), snippets)[0]
        report = ablation.run_ratio_sweep(docs, classifier, ab.ratios)
    elif args.sweep == "capacity":
        snippets = ablation.snippets_of(docs)
        report = ablation.run_capacity_sweep(
            mock_labels(snippets), snippets, config.distiller, ab.hash_bits_list, ab.seeds
        )
    elif args.sweep == "prompt":
        report = ablation.run_prompt_robustness(
            ablation.snippets_of(sample), config.labeler, VersionFlipTransport()
        )
    elif args.sweep == "icl":
        snippets = ablation.snippets_of(sample)
        strong_by_doc = truth_by_doc(sample)
        demos = [
            IclDemonstration(s.text, strong_by_doc[s.doc_id], "strong-reference")
            for s in snippets[:5]
        ]
        report = ablation.run_icl_comparison(
            snippets[5:], config.labeler, FidelityMockTransport(), demos, strong_by_doc
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown sweep {args.sweep!r}")

    out = _out_dir(config, args, "ablate")
    jsonl_path, text_path = report.save(out, seed=config.run.seed)
    log.info("wrote %s and %s", jsonl_path, text_path)
    print(report.render_text())
    return EXIT_OK


# Flags that override a config key: argument -> (section, key).
_OVERRIDES = {
    "seed": ("run", "seed"), "input": ("corpus", "input_dir"), "n": ("corpus", "sample_size"),
    "prompt_version": ("labeler", "prompt_version"), "icl_demos": ("labeler", "icl_demos"),
    "mock": ("labeler", "mock"), "endpoint_url": ("labeler", "endpoint_url"),
    "model_name": ("labeler", "model_name"), "hash_bits": ("distiller", "hash_bits"),
    "workers": ("selector", "workers"), "target_ratio": ("selector", "target_ratio"),
}


def _overrides(args) -> dict[tuple[str, str], str]:
    """The flags given, as (section, key) -> value string for load_config."""
    given = {key: getattr(args, arg, None) for arg, key in _OVERRIDES.items()}
    return {key: str(value) for key, value in given.items() if value not in (None, "")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docprune",
        description="Corpus pruning: label a sample, distill a classifier, "
        "score and filter the corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", help="override [run] seed")

    p = sub.add_parser("sample", help="reservoir-sample documents and slice snippets")
    common(p)
    p.add_argument("--input", help="corpus directory of .jsonl[.gz] shards")
    p.add_argument("--n", help="sample size")
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("label", help="label snippets via endpoint or mock")
    common(p)
    p.add_argument("--snippets", required=True, help="snippets.jsonl from `sample`")
    p.add_argument("--prompt-version", choices=["v1", "v2", "v3", "V1", "V2", "V3"])
    p.add_argument("--icl-demos", help="demonstrations file (exactly 5 records)")
    p.add_argument("--mock", action="store_true", default=None,
                   help="use the offline mock labeler")
    p.add_argument("--endpoint-url")
    p.add_argument("--model-name")
    p.set_defaults(handler=cmd_label)

    p = sub.add_parser("train", help="distill labels into the quality classifier")
    common(p)
    p.add_argument("--snippets", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--hash-bits")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("score", help="score a whole corpus shard-parallel")
    common(p)
    p.add_argument("--input", help="corpus directory")
    p.add_argument("--model", required=True, help="model file from `train`")
    p.add_argument("--workers", help="override [selector] workers: forked scoring processes")
    p.set_defaults(handler=cmd_score)

    p = sub.add_parser("select", help="choose the cutoff for a target keep-ratio")
    common(p)
    p.add_argument("--scores", required=True, help="score-set directory from `score`")
    p.add_argument("--target-ratio", help='keep ratio in (0,1], or "from-labels"')
    p.add_argument("--labels", help="labels file (required for from-labels)")
    p.set_defaults(handler=cmd_select)

    p = sub.add_parser("filter", help="materialize the kept documents")
    common(p)
    p.add_argument("--input", help="corpus directory")
    p.add_argument("--scores", required=True)
    p.add_argument("--decision", required=True, help="decision.json from `select`")
    p.set_defaults(handler=cmd_filter)

    p = sub.add_parser("ablate", help="run a desk-scale sweep on synthetic data")
    common(p)
    p.add_argument("--sweep", required=True, choices=["ratio", "capacity", "prompt", "icl"])
    p.set_defaults(handler=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, _overrides(args))
        logging.basicConfig(
            level=config.run.log_level.upper(),
            format="%(levelname)s %(name)s: %(message)s",
        )
        return args.handler(config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateLabelsError, DuplicateIdError) as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (TransportError, LabelRunAborted) as exc:
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
