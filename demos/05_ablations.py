"""Ablation walkthrough: the four desk-scale sweeps of `docprune ablate`, run
through the same recipe (`run_sweep`), with their rendered tables.

Run: python demos/05_ablations.py
"""

import tempfile
from dataclasses import replace

from docprune.ablation import run_sweep
from docprune.config import SWEEPS, AblationSection, RunConfig

config = RunConfig()  # every default, as `docprune ablate` without --config
# The many-phrase task needs bigram features and plenty of buckets, so small
# capacities visibly underperform.
many = replace(config, ablation=AblationSection(marker_style="many", high_quality_fraction=0.5))

# Each report saves as structured records plus the text table it prints.
with tempfile.TemporaryDirectory(prefix="docprune-demo-") as workdir:
    for sweep in SWEEPS:
        report = run_sweep(sweep, many if sweep == "capacity" else config)
        print(report.render_text())
        jsonl_path, text_path = report.save(workdir, seed=config.run.seed)
        print(f"wrote {jsonl_path.name} and {text_path.name}")
