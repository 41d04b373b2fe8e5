"""Mine per-user comment activity logs and flag forum comment spammers.

The pipeline: ingest comment records (files or a paged feed), group them
into per-user activity logs, compute four usage-based indicators (ATDC,
PCHF, CRR/COMOVP, VIDOVP, plus the combined CRAV), and apply a configurable
threshold rule to produce explainable per-user verdicts. A seeded synthetic
corpus generator and figure/summary reporting support evaluation.
"""

from .classifier import BatchResult, classify, classify_batch
from .features import (
    MODE_CANONICAL,
    MODE_RAW_BYTES,
    atdc,
    crav,
    crr,
    feature_vector,
    normalize_text,
    pchf,
    vidovp,
)
from .ingest import (
    FeedPage,
    FetchResult,
    IngestReport,
    cache_get,
    cache_put,
    fetch_user_log,
    group_by_user,
    parse_csv,
    parse_jsonl,
)
from .model import (
    CommentRecord,
    FeatureVector,
    Indicator,
    Label,
    RuleConfig,
    UserActivityLog,
    Verdict,
    build_log,
)
from .report import FigureDataset, figure_dataset, summarize, svg_scatter
from .synth import LabeledCorpus, PersonaKind, PersonaSpec, benchmark_specs, generate

__version__ = "0.1.0"

__all__ = [
    "BatchResult",
    "CommentRecord",
    "FeatureVector",
    "FeedPage",
    "FetchResult",
    "FigureDataset",
    "Indicator",
    "IngestReport",
    "Label",
    "LabeledCorpus",
    "MODE_CANONICAL",
    "MODE_RAW_BYTES",
    "PersonaKind",
    "PersonaSpec",
    "RuleConfig",
    "UserActivityLog",
    "Verdict",
    "atdc",
    "benchmark_specs",
    "build_log",
    "cache_get",
    "cache_put",
    "classify",
    "classify_batch",
    "crav",
    "crr",
    "feature_vector",
    "fetch_user_log",
    "figure_dataset",
    "generate",
    "group_by_user",
    "normalize_text",
    "parse_csv",
    "parse_jsonl",
    "pchf",
    "summarize",
    "svg_scatter",
    "vidovp",
]
