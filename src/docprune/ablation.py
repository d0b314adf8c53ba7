"""Desk-scale experiment harness: sweeps over synthetic corpora with reports.

Every report states up front that downstream-model accuracy is replaced by
label-level and kept-set-level proxies; full-scale reference numbers appear
only as context prose, never as assertions.
"""

from __future__ import annotations

import itertools
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .classifier import (
    FeaturizerConfig,
    LabeledText,
    QualityClassifier,
    TrainConfig,
    split_train_val,
    train_classifier,
)
from .corpus import CorpusError, Document, Snippet, atomic_open, extract_snippet, write_jsonl
from .labeling import (
    IclDemonstration,
    LabelerConfig,
    PromptTemplate,
    QualityLabel,
    Transport,
    YES,
    label_documents,
)
from .selection import select_cutoff, score_documents
from .synthetic import stratum_of

PROXY_NOTE = (
    "Proxy metrics: downstream-model accuracy is replaced by label-level and "
    "kept-set-level measurements (validation F1, label agreement, kept-set "
    "precision/recall against planted truth)."
)

RATIO_CONTEXT = (
    "Context from full-scale runs (not asserted here): quality improves as the "
    "keep ratio shrinks toward the labeler's yes-fraction (~25%), while overly "
    "aggressive pruning below that point starts to hurt."
)

CAPACITY_CONTEXT = (
    "Reference ordering from full-scale classifiers (context only, values not "
    "comparable): 0.78 < 0.81 < 0.84 validation F1 across small/medium/large; "
    "reproduced here as an ordering on the hashed-capacity stand-in."
)

ICL_CONTEXT = (
    "Reference context from full-scale runs (not reproducible here): a weak "
    "labeler improved downstream accuracy 48.13 -> 48.80 with 5-shot "
    "demonstrations from the strongest labeler, still below that labeler's "
    "51.41."
)

DEFAULT_RATIOS = (0.20, 0.25, 0.30, 0.40, 0.50, 1.00)
DEFAULT_HASH_BITS = (10, 14, 18)
DEFAULT_SEEDS = (0, 1, 2)


def _r(x: float) -> float:
    """One rounding for both the structured and the text rendering."""
    return round(float(x), 6)


@dataclass
class SweepReport:
    """One sweep: settings on one axis, metrics per point, optional aggregate."""

    axis: str
    points: list[dict]
    aggregate: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def to_records(self) -> list[dict]:
        records: list[dict] = [{"record": "header", "axis": self.axis, **self.metadata}]
        records.extend({"record": "point", **p} for p in self.points)
        if self.aggregate:
            records.append({"record": "aggregate", **self.aggregate})
        return records

    def render_text(self) -> str:
        lines = [f"sweep: {self.axis}"]
        for key, value in self.metadata.items():
            lines.append(f"# {key}: {value}")
        if not self.points:
            return "\n".join(lines) + "\n"
        columns = list(self.points[0].keys())
        rows = [[_fmt(p.get(c, "")) for c in columns] for p in self.points]
        if self.aggregate:
            agg_row = {c: "" for c in columns}
            agg_row[columns[0]] = "Avg. (Std)"
            for key, value in self.aggregate.items():
                if isinstance(value, dict) and key in columns:
                    agg_row[key] = f"{_fmt(value['mean'])} ({_fmt(value['std'])})"
            rows.append([agg_row[c] for c in columns])
        widths = [
            max(len(str(c)), *(len(r[i]) for r in rows)) for i, c in enumerate(columns)
        ]
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(columns, widths)))
        for r in rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        return "\n".join(lines) + "\n"

    def save(self, out_dir: str | Path, seed: int | None = None,
             timestamp: str | None = None) -> tuple[Path, Path]:
        """Write the structured records and the text table; returns both paths.

        File names encode sweep, seed, and timestamp; the contents are
        deterministic for fixed inputs.
        """
        out_dir = Path(out_dir)
        if timestamp is None:
            timestamp = time.strftime("%Y%m%dT%H%M%S")
        seed_part = f"-seed{seed}" if seed is not None else ""
        stem = f"{self.axis}{seed_part}-{timestamp}"
        jsonl_path = out_dir / f"{stem}.jsonl"
        text_path = out_dir / f"{stem}.txt"
        write_jsonl(jsonl_path, self.to_records())
        with atomic_open(text_path, "w") as fh:
            fh.write(self.render_text())
        return jsonl_path, text_path


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _mean_std(values: Sequence[float]) -> dict:
    arr = np.array(values, dtype=np.float64)
    return {"mean": _r(arr.mean()), "std": _r(arr.std())}


def run_ratio_sweep(
    docs: Sequence[Document],
    classifier: QualityClassifier,
    ratios: Sequence[float] = DEFAULT_RATIOS,
    token_budget: int = 1500,
    chars_per_token: int = 4,
) -> SweepReport:
    """Kept-set precision/recall against planted truth across keep ratios."""
    ids, scores, _ = score_documents(docs, classifier, token_budget, chars_per_token)
    by_id = dict(zip(ids, scores.tolist()))
    high_ids = {doc.id for doc in docs if stratum_of(doc)}
    points = []
    for ratio in ratios:
        decision = select_cutoff(by_id, ratio, classifier_id=classifier.fingerprint())
        kept_ids = {i for i, s in by_id.items() if s > decision.cutoff}
        kept_high = len(kept_ids & high_ids)
        precision = kept_high / len(kept_ids) if kept_ids else 0.0
        recall = kept_high / len(high_ids) if high_ids else 0.0
        points.append(
            {
                "ratio": _r(ratio),
                "achieved_ratio": _r(decision.achieved_ratio),
                "cutoff": _r(decision.cutoff),
                "kept": decision.kept,
                "precision": _r(precision),
                "recall": _r(recall),
            }
        )
    return SweepReport(
        axis="ratio",
        points=points,
        metadata={
            "proxy_note": PROXY_NOTE,
            "context": RATIO_CONTEXT,
            "n_docs": len(by_id),
            "classifier_id": classifier.fingerprint(),
        },
    )


def run_capacity_sweep(
    examples: Sequence[LabeledText],
    hash_bits_list: Sequence[int] = DEFAULT_HASH_BITS,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    base_featurizer: FeaturizerConfig | None = None,
    val_fraction: float = 0.1,
    epochs: int = 20,
    learning_rate: float = 0.5,
) -> SweepReport:
    """Validation F1 per hashed capacity, median over seeds.

    Does not raise on a non-monotone ordering (chance-level inputs are a
    legitimate use); the report carries `monotone_nondecreasing` instead.
    """
    if len(examples) < 1000:
        raise ValueError("capacity sweep needs at least 1,000 labeled examples")
    base = base_featurizer or FeaturizerConfig()
    points = []
    medians = []
    for bits in hash_bits_list:
        feat = replace(base, hash_bits=bits)
        f1_runs = []
        for seed in seeds:
            train, val = split_train_val(examples, val_fraction, seed=seed)
            clf = train_classifier(
                train,
                val,
                TrainConfig(
                    featurizer=feat,
                    epochs=epochs,
                    learning_rate=learning_rate,
                    seed=seed,
                ),
            )
            f1_runs.append(clf.training_meta["val_f1"])
        median = statistics.median(f1_runs)
        medians.append(median)
        point = {"hash_bits": bits, "median_f1": _r(median)}
        point.update({f"f1_seed{s}": _r(v) for s, v in zip(seeds, f1_runs)})
        points.append(point)
    monotone = all(b >= a - 1e-12 for a, b in zip(medians, medians[1:]))
    saturated = all(m >= 0.95 for m in medians)
    return SweepReport(
        axis="capacity",
        points=points,
        aggregate={"median_f1": _mean_std(medians)},
        metadata={
            "proxy_note": PROXY_NOTE,
            "context": CAPACITY_CONTEXT,
            "n_examples": len(examples),
            "seeds": list(seeds),
            "monotone_nondecreasing": monotone,
            "saturated": saturated,
        },
    )


def run_prompt_robustness(
    snippets: Sequence[Snippet],
    config: LabelerConfig,
    transports: dict[str, Transport],
    versions: Sequence[str] = ("V1", "V2", "V3"),
) -> SweepReport:
    """Per-version yes-fractions and pairwise label agreement, Avg. (Std) layout.

    Full-scale prompt robustness is measured on downstream accuracy; at desk
    scale that is replaced by label-level agreement (stated in the report).
    """
    labels_by_version: dict[str, dict[str, str]] = {}
    yes_fracs: dict[str, float] = {}
    points = []
    for version in versions:
        template = PromptTemplate.for_version(version)
        labels, stats = label_documents(
            snippets, config, template, transport=transports[version]
        )
        labels_by_version[version] = {l.doc_id: l.label for l in labels}
        yes_fracs[version] = stats.yes_fraction
        points.append(
            {
                "version": version,
                "yes_fraction": _r(stats.yes_fraction),
                "labeled": stats.labeled,
            }
        )
    agreements = {}
    for a, b in itertools.combinations(versions, 2):
        common = labels_by_version[a].keys() & labels_by_version[b].keys()
        same = sum(1 for d in common if labels_by_version[a][d] == labels_by_version[b][d])
        agreements[f"{a}-{b}"] = _r(same / len(common)) if common else 0.0
    return SweepReport(
        axis="prompt",
        points=points,
        aggregate={
            "yes_fraction": _mean_std([yes_fracs[v] for v in versions]),
            "agreement": _mean_std(list(agreements.values())),
        },
        metadata={
            "proxy_note": PROXY_NOTE,
            "substitution": (
                "label-level agreement replaces downstream-accuracy agreement "
                "at desk scale"
            ),
            "pairwise_agreement": agreements,
            "n_snippets": len(snippets),
        },
    )


def run_icl_comparison(
    snippets: Sequence[Snippet],
    config: LabelerConfig,
    weak_transport: Transport,
    demos: Sequence[IclDemonstration],
    strong_by_doc: dict[str, str],
    version: str = "V1",
) -> SweepReport:
    """Weak labeler at 0-shot vs 5-shot: yes-fraction and agreement with the
    strong labeler's judgments."""
    demos = list(demos)
    if len(demos) != 5:
        raise ValueError(f"exactly 5 demonstrations required, got {len(demos)}")
    template = PromptTemplate.for_version(version)
    points = []
    agreements = []
    for shots, demo_list in ((0, []), (5, demos)):
        labels, stats = label_documents(
            snippets, config, template, demos=demo_list, transport=weak_transport
        )
        scored = [l for l in labels if l.doc_id in strong_by_doc]
        same = sum(1 for l in scored if l.label == strong_by_doc[l.doc_id])
        agreement = same / len(scored) if scored else 0.0
        agreements.append(agreement)
        points.append(
            {
                "shots": shots,
                "yes_fraction": _r(stats.yes_fraction),
                "agreement_with_strong": _r(agreement),
                "labeled": stats.labeled,
            }
        )
    return SweepReport(
        axis="icl",
        points=points,
        metadata={
            "proxy_note": PROXY_NOTE,
            "context": ICL_CONTEXT,
            "agreement_gain": _r(agreements[1] - agreements[0]),
            "n_snippets": len(snippets),
        },
    )


def labeled_texts(
    labels: Iterable[QualityLabel], texts_by_id: dict[str, str]
) -> list[LabeledText]:
    """Join labels with their snippet texts into training-ready pairs; a label
    without a snippet raises CorpusError."""
    out = []
    for lbl in labels:
        text = texts_by_id.get(lbl.doc_id)
        if text is None:
            raise CorpusError(f"label {lbl.doc_id!r} has no matching snippet")
        out.append(LabeledText(lbl.doc_id, text, 1 if lbl.label == YES else 0))
    return out


def snippets_of(docs: Iterable[Document], token_budget: int = 1500,
                chars_per_token: int = 4) -> list[Snippet]:
    return [extract_snippet(d, token_budget, chars_per_token) for d in docs if d.text]
