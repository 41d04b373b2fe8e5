"""Mine per-user comment activity logs and flag forum comment spammers.

The pipeline: ingest comment records (files or a paged feed), group them
into per-user activity logs, compute four usage-based indicators (ATDC,
PCHF, CRR/COMOVP, VIDOVP, plus the combined CRAV), and apply a configurable
threshold rule to produce explainable per-user verdicts. A seeded synthetic
corpus generator and figure/summary reporting support evaluation.

The package root exports that pipeline and the values flowing through it;
everything else is imported from its own module (spamminer.ingest,
spamminer.report, spamminer.synth, ...).
"""

from .classifier import classify_batch
from .features import feature_vector
from .ingest import group_by_user, parse_jsonl
from .model import (
    CommentRecord,
    FeatureVector,
    Indicator,
    Label,
    RuleConfig,
    UserActivityLog,
    Verdict,
)

__version__ = "0.1.0"

__all__ = [
    "CommentRecord",
    "FeatureVector",
    "Indicator",
    "Label",
    "RuleConfig",
    "UserActivityLog",
    "Verdict",
    "classify_batch",
    "feature_vector",
    "group_by_user",
    "parse_jsonl",
]
