"""Selection walkthrough: score a corpus, derive cutoffs, filter with a manifest.

Run: python demos/04_selection.py
"""

import tempfile
from pathlib import Path

from docprune import (
    FeaturizerConfig,
    TrainConfig,
    filter_corpus,
    ingest_shards,
    score_corpus,
    select_cutoff,
    split_train_val,
    train_classifier,
    yes_fraction,
)
from docprune.ablation import labeled_texts, snippets_of
from docprune.labeling import LabelerConfig, PromptTemplate, label_documents
from docprune.mocks import MockQualityTransport
from docprune.synthetic import SyntheticCorpusSpec, generate_synthetic_corpus, stratum_of

with tempfile.TemporaryDirectory(prefix="docprune-demo-") as tmp:
    workdir = Path(tmp)

    # A 5,000-document corpus with a hidden 25% high-quality stratum.
    shard_set = generate_synthetic_corpus(
        SyntheticCorpusSpec(n_docs=5000, high_quality_fraction=0.25, seed=4),
        workdir / "corpus",
        n_shards=4,
    )

    # Train a classifier on mock labels for 1,000 sampled documents.
    docs = list(ingest_shards(shard_set))
    snippets = snippets_of(docs[:1000])
    labels, stats = label_documents(
        snippets, LabelerConfig(model_name="mock"), PromptTemplate.for_version("V1"),
        transport=MockQualityTransport(),
    )
    featurizer = FeaturizerConfig(hash_bits=16)
    examples = labeled_texts(labels, {s.doc_id: s.text for s in snippets})
    train, val = split_train_val(examples, 0.1, seed=0)
    classifier = train_classifier(train, val, TrainConfig(featurizer=featurizer, seed=0))

    # Shard-parallel scoring: output is byte-identical for any worker count.
    score_set = score_corpus(shard_set, classifier, workers=4, out_dir=workdir / "scores")
    print(f"scored {score_set.report.total_records} docs "
          f"at {score_set.report.docs_per_second:,.0f} docs/s")

    # The labeler's yes-fraction is the rule-of-thumb keep ratio.
    suggested = yes_fraction(labels)
    print(f"suggested keep ratio from labels: {suggested:.3f}")

    # Cutoffs are exact quantiles over one doc_id -> score map; documents
    # scoring strictly above are kept.
    scores = score_set.load_scores()
    for ratio in (0.20, suggested, 0.50, 1.00):
        decision = select_cutoff(scores, ratio)
        print(f"  target {ratio:.3f}: cutoff {decision.cutoff:.6f} "
              f"keeps {decision.kept} (achieved {decision.achieved_ratio:.3f})")

    decision = select_cutoff(scores, suggested, score_set.classifier_id)
    filtered_set, manifest = filter_corpus(shard_set, scores, decision, workdir / "filtered")
    kept = list(ingest_shards(filtered_set))
    precision = sum(1 for d in kept if stratum_of(d)) / len(kept)
    print(f"filtered corpus: {manifest.output_documents}/{manifest.input_documents} kept, "
          f"precision vs planted truth {precision:.3f}")
    manifest_path = workdir / "filtered" / "filter-manifest.json"
    print(f"manifest: {manifest_path.name}, {manifest_path.stat().st_size:,} bytes")
