"""Ablation walkthrough: the four desk-scale sweeps of `docprune ablate`, with
their rendered tables. Three run through the same recipe (`run_sweep`); the
capacity sweep runs on a many-phrase corpus that the demo builds itself.

Run: python demos/05_ablations.py
"""

import tempfile

from docprune.ablation import N_DOCS, run_capacity_sweep, run_sweep, snippets_of
from docprune.config import SWEEPS, RunConfig
from docprune.labeling import label_documents
from docprune.mocks import MockQualityTransport
from docprune.synthetic import SyntheticCorpusSpec, generate_documents

config = RunConfig()  # every default, as `docprune ablate` without --config

# The many-phrase task needs bigram features and plenty of buckets, so small
# capacities visibly underperform; its corpus is balanced between the strata.
many = generate_documents(SyntheticCorpusSpec(
    N_DOCS, high_quality_fraction=0.5, seed=config.run.seed, marker_style="many"))
snippets = snippets_of(many)
labels = label_documents(snippets, config.labeler, transport=MockQualityTransport())[0]

# Each report saves as structured records plus the text table it prints.
with tempfile.TemporaryDirectory(prefix="docprune-demo-") as workdir:
    for sweep in SWEEPS:
        if sweep == "capacity":
            report = run_capacity_sweep(labels, snippets, config.distiller)
        else:
            report = run_sweep(sweep, config)
        print(report.render_text())
        jsonl_path, text_path = report.save(workdir, seed=config.run.seed)
        print(f"wrote {jsonl_path.name} and {text_path.name}")
