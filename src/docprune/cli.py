"""Command-line pipeline: sample, label, train, score, select, filter, ablate.

Stages communicate only through files (snippets, labels, model, score set,
decision), so each can run at its own scale and cadence. Every command writes
its resolved configuration next to its outputs. Exit codes: 0 success,
2 config error, 3 I/O error, 4 endpoint failure, 5 degenerate data.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import ablation
# `featurize_text` is the one-text view of the batched featurizer that
# training and scoring use; it stays importable here for callers that look
# it up on this module.
from .classifier import (  # noqa: F401
    DegenerateLabelsError,
    LabeledText,
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
    RunSummary,
    ShardSet,
    Snippet,
    extract_snippet,
    ingest_shards,
    reservoir_sample,
    write_shard_file,
)
from .labeling import (
    HttpChatTransport,
    IclDemonstration,
    LabelRunAborted,
    PromptTemplate,
    TransportError,
    label_documents,
    read_demonstrations,
    read_labels,
    write_labels,
)
from .mocks import FidelityMockTransport, MockQualityTransport, VersionFlipTransport
from .selection import (
    DuplicateIdError,
    ScoreSet,
    SelectionDecision,
    default_ratio_from_labels,
    filter_corpus,
    score_corpus,
    select_cutoff,
)
from .synthetic import SyntheticCorpusSpec, generate_documents, truth_by_doc

log = logging.getLogger("docprune")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_ENDPOINT = 4
EXIT_DEGENERATE = 5


def _out_dir(config: RunConfig, args, command: str) -> Path:
    """Create the output dir and write the resolved config into it.

    Commands call this only after the checks they can make up front (inputs
    read, labels joined to snippets, transport built, model trained, cutoff
    selected), so a run that fails on bad input leaves no output directory
    behind. `filter` checks its score join while it streams, after this.
    """
    out = Path(args.out) if args.out else Path(config.run.output_root) / command
    out.mkdir(parents=True, exist_ok=True)
    write_resolved_config(config, out / "resolved-config.ini")
    return out


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


def _write_snippets(snippets, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in snippets:
            fh.write(json.dumps(asdict(s), ensure_ascii=False, sort_keys=True) + "\n")


def _read_snippets(path: Path) -> list[Snippet]:
    snippets = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                snippets.append(Snippet(**json.loads(line)))
    return snippets


def cmd_sample(config: RunConfig, args) -> int:
    shard_set = ShardSet.from_dir(config.corpus.input_dir)
    out = _out_dir(config, args, "sample")
    summary = RunSummary()
    docs = ingest_shards(shard_set, strict=config.corpus.strict, summary=summary)
    sample = reservoir_sample(docs, config.corpus.sample_size, config.run.seed)
    snippets = []
    empties = 0
    for doc in sample:
        if not doc.text:
            empties += 1
            continue
        snippets.append(
            extract_snippet(doc, config.corpus.token_budget, config.corpus.chars_per_token)
        )
    write_shard_file(sample, out / "sampled-docs.jsonl")
    _write_snippets(snippets, out / "snippets.jsonl")
    _write_json(out / "run-summary.json", {**summary.as_dict(), "empty_documents": empties})
    log.info(
        "sampled %d documents (%d snippets) from %d records",
        len(sample), len(snippets), summary.records_read,
    )
    return EXIT_OK


def cmd_label(config: RunConfig, args) -> int:
    snippets = _read_snippets(Path(args.snippets))
    template = PromptTemplate.for_version(config.labeler.prompt_version)
    demos = (
        read_demonstrations(config.labeler.icl_demos) if config.labeler.icl_demos else []
    )
    labeler_config = config.labeler.to_labeler_config()
    if config.labeler.mock:
        transport = MockQualityTransport()
        if not labeler_config.model_name:
            labeler_config.model_name = "mock-quality"
    else:
        transport = HttpChatTransport(labeler_config)  # checks endpoint_url
    out = _out_dir(config, args, "label")
    try:
        labels, stats = label_documents(
            snippets, labeler_config, template, demos=demos, transport=transport
        )
    except LabelRunAborted as exc:
        write_labels(exc.labels, out / "labels.jsonl")
        _write_json(out / "label-stats.json", exc.stats.as_dict())
        log.error("labeling aborted: %s (partial labels preserved)", exc)
        return EXIT_ENDPOINT
    write_labels(labels, out / "labels.jsonl")
    _write_json(out / "label-stats.json", stats.as_dict())
    log.info(
        "labeled %d/%d snippets, yes-fraction %.3f",
        stats.labeled, stats.requested, stats.yes_fraction,
    )
    return EXIT_OK


def _train(
    config: RunConfig, labels, snippets
) -> tuple[QualityClassifier, list[LabeledText]]:
    """Join labels to their snippets (a label without one is a CorpusError),
    split, and train with the [distiller] settings; returns the model and
    its training split."""
    examples = ablation.labeled_texts(labels, {s.doc_id: s.text for s in snippets})
    train, val = split_train_val(examples, config.distiller.val_fraction, config.run.seed)
    return train_classifier(train, val, config.distiller.to_train_config(config.run.seed)), train


def cmd_train(config: RunConfig, args) -> int:
    classifier, train = _train(
        config, read_labels(Path(args.labels)), _read_snippets(Path(args.snippets))
    )
    out = _out_dir(config, args, "train")
    save_model(classifier, out / "model.bin")
    meta = classifier.training_meta
    _write_json(
        out / "training-report.json",
        {
            "train_size": meta["train_size"],
            "val_size": meta["val_size"],
            "val_f1": meta["val_f1"],
            "epochs_run": meta["epochs"],
            "yes_fraction_train": sum(e.target for e in train) / len(train),
        },
    )
    log.info("trained classifier: val F1 %.4f", meta["val_f1"])
    return EXIT_OK


def cmd_score(config: RunConfig, args) -> int:
    classifier = load_model(Path(args.model))
    shard_set = ShardSet.from_dir(config.corpus.input_dir)
    out = _out_dir(config, args, "score")
    score_set = score_corpus(
        shard_set,
        classifier,
        workers=config.selector.workers,
        out_dir=out,
        token_budget=config.corpus.token_budget,
        chars_per_token=config.corpus.chars_per_token,
    )
    _write_json(out / "scoring-report.json", score_set.report.as_dict())
    log.info(
        "scored %d documents across %d shards (%.0f docs/s)",
        score_set.report.total_records,
        len(score_set.shard_paths),
        score_set.report.docs_per_second,
    )
    return EXIT_OK


def cmd_select(config: RunConfig, args) -> int:
    score_set = ScoreSet.open(Path(args.scores))
    ratio = config.selector.target_ratio
    if ratio == "from-labels":
        if not args.labels:
            raise ConfigError("--target-ratio from-labels requires --labels")
        ratio = default_ratio_from_labels(read_labels(Path(args.labels)))
    decision = select_cutoff(score_set, float(ratio))
    out = _out_dir(config, args, "select")
    _write_json(out / "decision.json", decision.as_dict())
    log.info(
        "cutoff %.6f keeps %d/%d documents (achieved ratio %.4f, target %.4f)",
        decision.cutoff, decision.kept, decision.kept + decision.dropped,
        decision.achieved_ratio, decision.target_ratio,
    )
    return EXIT_OK


def cmd_filter(config: RunConfig, args) -> int:
    shard_set = ShardSet.from_dir(config.corpus.input_dir)
    score_set = ScoreSet.open(Path(args.scores))
    decision = SelectionDecision.from_dict(json.loads(Path(args.decision).read_text()))
    out = _out_dir(config, args, "filter")
    _, manifest = filter_corpus(
        shard_set, score_set, decision, out, workers=config.selector.workers
    )
    log.info(
        "filtered corpus: kept %d of %d documents",
        manifest.output_documents, manifest.input_documents,
    )
    return EXIT_OK


def _ablate_classifier(config: RunConfig, docs):
    """Mini-pipeline for sweeps that need a trained classifier."""
    ab = config.ablation
    sample = reservoir_sample(iter(docs), min(ab.sample_size, len(docs)), config.run.seed)
    snippets = ablation.snippets_of(
        sample, config.corpus.token_budget, config.corpus.chars_per_token
    )
    labels, _ = label_documents(
        snippets,
        config.labeler.to_labeler_config(),
        PromptTemplate.for_version(config.labeler.prompt_version),
        transport=MockQualityTransport(),
    )
    return _train(config, labels, snippets)[0]


def cmd_ablate(config: RunConfig, args) -> int:
    out = _out_dir(config, args, "ablate")
    ab = config.ablation
    spec = SyntheticCorpusSpec(
        n_docs=ab.n_docs,
        high_quality_fraction=ab.high_quality_fraction,
        signal_strength=ab.signal_strength,
        seed=config.run.seed,
        marker_style=ab.marker_style,
    )
    docs = generate_documents(spec)
    labeler_config = config.labeler.to_labeler_config()
    timestamp = time.strftime("%Y%m%dT%H%M%S")

    if args.sweep == "ratio":
        classifier = _ablate_classifier(config, docs)
        report = ablation.run_ratio_sweep(
            docs, classifier, ab.ratios,
            config.corpus.token_budget, config.corpus.chars_per_token,
        )
    elif args.sweep == "capacity":
        snippets = ablation.snippets_of(
            docs, config.corpus.token_budget, config.corpus.chars_per_token
        )
        labels, _ = label_documents(
            snippets, labeler_config,
            PromptTemplate.for_version(config.labeler.prompt_version),
            transport=MockQualityTransport(),
        )
        texts = {s.doc_id: s.text for s in snippets}
        report = ablation.run_capacity_sweep(
            ablation.labeled_texts(labels, texts),
            hash_bits_list=ab.hash_bits_list,
            seeds=ab.seeds,
            val_fraction=config.distiller.val_fraction,
            epochs=config.distiller.epochs,
            learning_rate=config.distiller.learning_rate,
        )
    elif args.sweep == "prompt":
        sample = reservoir_sample(iter(docs), min(ab.sample_size, len(docs)), config.run.seed)
        snippets = ablation.snippets_of(
            sample, config.corpus.token_budget, config.corpus.chars_per_token
        )
        transport = VersionFlipTransport(flip_rate=ab.flip_rate)
        report = ablation.run_prompt_robustness(
            snippets, labeler_config, {v: transport for v in ("V1", "V2", "V3")}
        )
    elif args.sweep == "icl":
        sample = reservoir_sample(iter(docs), min(ab.sample_size, len(docs)), config.run.seed)
        snippets = ablation.snippets_of(
            sample, config.corpus.token_budget, config.corpus.chars_per_token
        )
        strong_by_doc = truth_by_doc(sample)
        demo_snips = snippets[:5]
        demos = [
            IclDemonstration(s.text, strong_by_doc[s.doc_id], "strong-reference")
            for s in demo_snips
        ]
        weak = FidelityMockTransport({0: ab.fidelity_0shot, 5: ab.fidelity_5shot})
        report = ablation.run_icl_comparison(
            snippets[5:], labeler_config, weak, demos, strong_by_doc
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown sweep {args.sweep!r}")

    jsonl_path, text_path = report.save(out, seed=config.run.seed, timestamp=timestamp)
    log.info("wrote %s and %s", jsonl_path, text_path)
    print(report.render_text())
    return EXIT_OK


def _apply_overrides(config: RunConfig, args) -> None:
    if getattr(args, "seed", None) is not None:
        config.run.seed = args.seed
    if getattr(args, "input", None):
        config.corpus.input_dir = args.input
    if getattr(args, "n", None) is not None:
        config.corpus.sample_size = args.n
    if getattr(args, "prompt_version", None):
        config.labeler.prompt_version = args.prompt_version
    if getattr(args, "icl_demos", None):
        config.labeler.icl_demos = args.icl_demos
    if getattr(args, "mock", False):
        config.labeler.mock = True
    if getattr(args, "endpoint_url", None):
        config.labeler.endpoint_url = args.endpoint_url
    if getattr(args, "model_name", None):
        config.labeler.model_name = args.model_name
    if getattr(args, "hash_bits", None) is not None:
        config.distiller.hash_bits = args.hash_bits
    if getattr(args, "workers", None) is not None:
        config.selector.workers = args.workers
    if getattr(args, "target_ratio", None) is not None:
        raw = args.target_ratio
        config.selector.target_ratio = raw if raw == "from-labels" else float(raw)


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
        p.add_argument("--seed", type=int, help="override [run] seed")

    p = sub.add_parser("sample", help="reservoir-sample documents and slice snippets")
    common(p)
    p.add_argument("--input", help="corpus directory of .jsonl[.gz] shards")
    p.add_argument("--n", type=int, help="sample size")
    p.set_defaults(handler=cmd_sample)

    p = sub.add_parser("label", help="label snippets via endpoint or mock")
    common(p)
    p.add_argument("--snippets", required=True, help="snippets.jsonl from `sample`")
    p.add_argument("--prompt-version", choices=["v1", "v2", "v3", "V1", "V2", "V3"])
    p.add_argument("--icl-demos", help="demonstrations file (exactly 5 records)")
    p.add_argument("--mock", action="store_true", help="use the offline mock labeler")
    p.add_argument("--endpoint-url")
    p.add_argument("--model-name")
    p.set_defaults(handler=cmd_label)

    p = sub.add_parser("train", help="distill labels into the quality classifier")
    common(p)
    p.add_argument("--snippets", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--hash-bits", type=int)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("score", help="score a whole corpus shard-parallel")
    common(p)
    p.add_argument("--input", help="corpus directory")
    p.add_argument("--model", required=True, help="model file from `train`")
    p.add_argument("--workers", type=int)
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
    p.add_argument("--workers", type=int)
    p.set_defaults(handler=cmd_filter)

    p = sub.add_parser("ablate", help="run a desk-scale sweep on synthetic data")
    common(p)
    p.add_argument("--sweep", required=True, choices=["ratio", "capacity", "prompt", "icl"])
    p.set_defaults(handler=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        _apply_overrides(config, args)
        logging.basicConfig(
            level=getattr(logging, config.run.log_level.upper(), logging.INFO),
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
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
