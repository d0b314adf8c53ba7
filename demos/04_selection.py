"""Selection walkthrough: score a corpus, derive cutoffs, filter with a manifest.

Run: python demos/04_selection.py
"""

import tempfile
from dataclasses import asdict
from pathlib import Path

from docprune.ablation import snippets_of
from docprune.classifier import FeatureStore, FeaturizerConfig, train_classifier
from docprune.corpus import ingest_shards, write_json, write_shards
from docprune.labeling import LabelerConfig, label_documents, yes_fraction
from docprune.mocks import MockQualityTransport
from docprune.selection import ScoreSet, filter_corpus, score_corpus, select_cutoff
from docprune.synthetic import SyntheticCorpusSpec, generate_documents, stratum_of

with tempfile.TemporaryDirectory(prefix="docprune-demo-") as tmp:
    workdir = Path(tmp)

    # A 5,000-document corpus with a hidden 25% high-quality stratum.
    docs = generate_documents(SyntheticCorpusSpec(n_docs=5000, high_quality_fraction=0.25, seed=4))
    shard_set = write_shards(docs, workdir / "corpus", records_per_shard=1250)

    # Train a classifier on mock labels for 1,000 sampled documents.
    snippets = snippets_of(docs[:1000])
    labels, stats = label_documents(
        snippets, LabelerConfig(model_name="mock"), transport=MockQualityTransport()
    )
    with FeatureStore(FeaturizerConfig(hash_bits=16)) as store:
        classifier = train_classifier(store.add(labels, snippets), seed=0)

    # Shard-parallel scoring: output is byte-identical for any worker count.
    # score_corpus writes the score set and returns its RunSummary; ScoreSet.open
    # reads the set back, as `docprune select` and `filter` do. The summary's
    # cpu_seconds sums its shards', so cpu_seconds / seconds is the parallelism.
    summary = score_corpus(shard_set, classifier, workers=4, out_dir=workdir / "scores")
    print(f"scored {summary.input_documents} docs in {summary.shards} shards at "
          f"{summary.input_documents / summary.seconds:,.0f} docs/s, "
          f"parallelism {summary.cpu_seconds / summary.seconds:.2f}")
    score_set = ScoreSet.open(workdir / "scores")

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
    filtered_set, summary = filter_corpus(shard_set, scores, decision, workdir / "filtered")
    kept = list(ingest_shards(filtered_set))
    precision = sum(1 for d in kept if stratum_of(d)) / len(kept)
    print(f"filtered corpus: {summary.output_documents}/{summary.input_documents} kept, "
          f"precision vs planted truth {precision:.3f}")
    # filter_corpus returns its RunSummary; `docprune filter` writes it beside the
    # shards as the manifest, with the decision it applied.
    manifest_path = workdir / "filtered" / "filter-manifest.json"
    write_json(manifest_path, {**asdict(summary), "decision": asdict(decision)})
    print(f"manifest: {manifest_path.name}, {manifest_path.stat().st_size:,} bytes")
