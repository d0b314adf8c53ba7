"""Ablation walkthrough: the four desk-scale sweeps with rendered tables.

Run: python demos/05_ablations.py
"""

import tempfile

from docprune import (
    FeatureStore,
    FeaturizerConfig,
    IclDemonstration,
    LabelerConfig,
    TrainConfig,
    label_documents,
    run_capacity_sweep,
    run_icl_comparison,
    run_prompt_robustness,
    run_ratio_sweep,
    split_train_val,
    train_classifier,
)
from docprune.ablation import snippets_of
from docprune.mocks import FidelityMockTransport, MockQualityTransport, VersionFlipTransport
from docprune.synthetic import SyntheticCorpusSpec, generate_documents, truth_by_doc

config = LabelerConfig(model_name="mock", max_concurrent_requests=8)


def mock_labeled(docs):
    snips = snippets_of(docs)
    labels, _ = label_documents(snips, config, transport=MockQualityTransport())
    return labels, snips


# --- ratio sweep: kept-set precision/recall across keep ratios --------------
docs = generate_documents(SyntheticCorpusSpec(n_docs=3000, high_quality_fraction=0.25, seed=1))
labels, snips = mock_labeled(docs[:1000])
featurizer = FeaturizerConfig(hash_bits=16)
with FeatureStore(featurizer) as store:
    train, val = split_train_val(store.add(labels, snips), 0.1, seed=0)
    classifier = train_classifier(train, val, TrainConfig(featurizer=featurizer), seed=0)

ratio_report = run_ratio_sweep(docs, classifier)
print(ratio_report.render_text())

# --- capacity sweep: hashed capacity vs validation F1 -----------------------
# The many-phrase task needs bigram features and plenty of buckets, so small
# capacities visibly underperform.
many_docs = generate_documents(
    SyntheticCorpusSpec(n_docs=2000, high_quality_fraction=0.5, seed=2, marker_style="many")
)
many_labels, many_snips = mock_labeled(many_docs)
capacity_report = run_capacity_sweep(
    many_labels, many_snips, hash_bits_list=(10, 14, 18), seeds=(0, 1, 2)
)
print(capacity_report.render_text())

# --- prompt robustness: label agreement across instruction variants ---------
sample = snippets_of(docs[:2000])
drifting_labeler = VersionFlipTransport(flip_rate=0.05)
prompt_report = run_prompt_robustness(sample, config, drifting_labeler)
print(prompt_report.render_text())

# --- in-context learning: a weak labeler with and without demonstrations ----
strong = truth_by_doc(docs)
demos = [IclDemonstration(s.text, strong[s.doc_id], "strong-reference") for s in sample[:5]]
weak = FidelityMockTransport({0: 0.60, 5: 0.75})
icl_report = run_icl_comparison(sample[5:], config, weak, demos, strong)
print(icl_report.render_text())

# Each report saves as structured records plus the text table above.
with tempfile.TemporaryDirectory(prefix="docprune-demo-") as workdir:
    for report, seed in ((ratio_report, 1), (capacity_report, 2), (prompt_report, 1),
                         (icl_report, 1)):
        jsonl_path, text_path = report.save(workdir, seed=seed)
        print(f"wrote {jsonl_path.name} and {text_path.name}")
