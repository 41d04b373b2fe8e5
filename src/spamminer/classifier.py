"""Threshold rule turning a feature vector into an explainable verdict.

A user with more than min_comments comments is a spammer when ANY clause
of model.CLAUSES fires (OR combination), every comparison strict; an absent
ATDC never fires. `spamminer --help` prints the rule with its defaults.

Users at or below the comment gate get the distinct Insufficient label:
they are excluded from the analysis, not cleared. The verdict records every
clause that fired, not just the first, so results stay explainable.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import CLAUSES, FeatureVector, Label, RuleConfig, Verdict


def classify(fv: FeatureVector, cfg: RuleConfig = RuleConfig()) -> Verdict:
    """Apply the threshold rule to one feature vector."""
    if fv.n_comments <= cfg.min_comments:
        return Verdict(fv.user_id, Label.INSUFFICIENT, frozenset(), fv)
    triggered = frozenset(clause.indicator for clause in CLAUSES if clause.fires(fv, cfg))
    label = Label.SPAMMER if triggered else Label.LEGIT
    return Verdict(fv.user_id, label, triggered, fv)


class BatchResult(NamedTuple):
    """Element-wise verdicts, input order preserved.

    Label counts are report.summarize(list(verdicts))["labels"].
    """

    verdicts: tuple[Verdict, ...]


def classify_batch(
    fvs: list[FeatureVector], cfg: RuleConfig = RuleConfig()
) -> BatchResult:
    """Classify a batch of feature vectors."""
    return BatchResult(verdicts=tuple(classify(fv, cfg) for fv in fvs))
