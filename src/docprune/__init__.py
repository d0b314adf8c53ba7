"""docprune: corpus pruning by distilled quality labels.

Pipeline: sample a corpus, label the sample with a prompted chat model (or a
deterministic mock), distill the Yes/No labels into a cheap hashed n-gram
classifier, score the full corpus, and keep only documents above a
ratio-derived cutoff.
"""

from .ablation import (
    SweepReport,
    run_capacity_sweep,
    run_icl_comparison,
    run_prompt_robustness,
    run_ratio_sweep,
)
from .classifier import (
    DegenerateLabelsError,
    FeaturizerConfig,
    LabeledText,
    ModelFormatError,
    QualityClassifier,
    TrainConfig,
    f1,
    load_model,
    save_model,
    score,
    split_train_val,
    train_classifier,
)
from .corpus import (
    CorpusError,
    Document,
    RunSummary,
    Shard,
    ShardSet,
    Snippet,
    extract_snippet,
    ingest_shards,
    reservoir_sample,
    write_shards,
)
from .labeling import (
    AMBIGUOUS,
    NO,
    YES,
    DegenerateLabelerWarning,
    HttpChatTransport,
    IclDemonstration,
    LabelRunAborted,
    LabelRunStats,
    LabelerConfig,
    PromptTemplate,
    QualityLabel,
    TransportError,
    build_prompt,
    label_documents,
    parse_label,
    yes_fraction,
)
from .mocks import (
    DegenerateMockTransport,
    FidelityMockTransport,
    MockQualityTransport,
    VersionFlipTransport,
    mock_label,
)
from .selection import (
    Manifest,
    ScoreSet,
    SelectionDecision,
    TieDegeneracyWarning,
    filter_corpus,
    score_corpus,
    select_cutoff,
)
from .synthetic import (
    SyntheticCorpusSpec,
    generate_documents,
    generate_synthetic_corpus,
    marker_truth,
)

__version__ = "0.1.0"
