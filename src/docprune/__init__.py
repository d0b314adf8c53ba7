"""docprune: corpus pruning by distilled quality labels.

Pipeline: sample a corpus, label the sample with a prompted chat model (or a
deterministic mock), distill the Yes/No labels into a cheap hashed n-gram
classifier, score the full corpus, and keep only documents above a
ratio-derived cutoff.
"""
