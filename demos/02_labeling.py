"""Labeling walkthrough: prompt rendering, answer parsing, a mock labeling run.

Run: python demos/02_labeling.py
"""

from docprune.ablation import snippets_of
from docprune.corpus import Document, extract_snippet
from docprune.labeling import (
    IclDemonstration,
    LabelerConfig,
    build_prompt,
    label_documents,
    parse_label,
)
from docprune.mocks import MockQualityTransport
from docprune.synthetic import SyntheticCorpusSpec, generate_documents

# Three fixed instruction variants, V1-V3; [labeler] prompt_version picks
# one, and V1 is the default.
prompt = build_prompt(extract_snippet(Document("", "I am a document.")), "V1")
print("--- zero-shot prompt ---")
print(prompt)
print()

# Five answered demonstrations (from a stronger labeler) can precede the
# query; the trailing block stays identical to the zero-shot prompt.
demos = [
    IclDemonstration("An excellent lecture on thermodynamics.", "Yes", "strong"),
    IclDemonstration("buy cheap pills online now", "No", "strong"),
    IclDemonstration("Proof sketch for the spectral theorem.", "Yes", "strong"),
    IclDemonstration("click here click here click here", "No", "strong"),
    IclDemonstration("A study guide for organic chemistry.", "Yes", "strong"),
]
five_shot = build_prompt(extract_snippet(Document("", "I am a document.")), "V1", demos)
print(f"five-shot prompt has {five_shot.count('[Document]')} document blocks")
print()

# Responses map to Yes/No by their first alphabetic token; everything else is
# Ambiguous (retried once, then dropped).
for raw in ("Yes", "  no.", "As an AI model, it depends..."):
    print(f"parse_label({raw!r}) = {parse_label(raw)}")
print()

# A deterministic mock labeler stands in for the hosted endpoint; it answers
# by planted quality markers (synthetic corpora) or a lexical fallback.
docs = generate_documents(SyntheticCorpusSpec(n_docs=1000, high_quality_fraction=0.25, seed=1))
snippets = snippets_of(docs)
labels, stats = label_documents(
    snippets,
    LabelerConfig(model_name="mock-quality"),
    transport=MockQualityTransport(),
)
print(f"labeled {stats.labeled}/{stats.requested} snippets")
print(f"yes-fraction {stats.yes_fraction:.3f} (planted high-quality fraction was 0.25)")
print(f"ambiguous dropped: {stats.ambiguous_dropped}, transport failures: {stats.transport_failures}")

# The same call reaches a real chat-completion endpoint when given a
# LabelerConfig with endpoint_url/model_name and
# transport=HttpChatTransport(config); credentials come from the
# DOCPRUNE_API_KEY environment variable.
