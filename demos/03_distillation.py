"""Distillation walkthrough: train, evaluate, serialize.

Run: python demos/03_distillation.py
"""

import tempfile
from pathlib import Path

from docprune.ablation import snippets_of
from docprune.classifier import (
    FeatureStore,
    FeaturizerConfig,
    TrainConfig,
    load_model,
    save_model,
    score,
    split_train_val,
    train_classifier,
)
from docprune.corpus import Document, extract_snippet
from docprune.labeling import LabelerConfig, label_documents
from docprune.mocks import MockQualityTransport
from docprune.synthetic import SyntheticCorpusSpec, generate_documents

# Mock-label a planted corpus: one Yes/No label per snippet.
docs = generate_documents(SyntheticCorpusSpec(n_docs=2000, high_quality_fraction=0.25, seed=3))
snippets = snippets_of(docs)
labels, stats = label_documents(
    snippets, LabelerConfig(model_name="mock"), transport=MockQualityTransport()
)
print(f"training pairs: {stats.labeled}, yes-fraction {stats.yes_fraction:.3f}")

# Features are hashed bags of word 1/2/3-grams; 2**hash_bits is the capacity
# knob of the cheap classifier. `add` joins the labels to their snippets and
# featurizes the labeled texts into a feature store (an unnamed temp file) in
# the same batches that scoring uses; training reads their rows back a block
# at a time.
featurizer = FeaturizerConfig(ngram_orders=(1, 2, 3), hash_bits=16)

with FeatureStore(featurizer) as store:
    examples = store.add(labels, snippets)
    train, val = split_train_val(examples, val_fraction=0.1, seed=0)
    classifier = train_classifier(train, val, TrainConfig(featurizer=featurizer), seed=0)
print("training meta:", classifier.training_meta)

# Scores are sigmoid outputs clamped into the open interval (0, 1).
high = score(classifier, extract_snippet(Document("", "hqmark1 is present in this text")))
low = score(classifier, extract_snippet(Document("", "lqmark4 is present in this text")))
print(f"scores: planted-high {high:.4f}, planted-low {low:.4f}")

# The model file is a one-line JSON header plus raw weights; save/load is
# byte-stable and version-checked.
with tempfile.TemporaryDirectory(prefix="docprune-demo-") as workdir:
    model_path = Path(workdir) / "model.bin"
    save_model(classifier, model_path)
    reloaded = load_model(model_path)
    probe = extract_snippet(Document("probe", "any text"))
    assert score(reloaded, probe) == score(classifier, probe)
    print(f"model file: {model_path.stat().st_size:,} bytes, "
          f"fingerprint {classifier.fingerprint()}")
