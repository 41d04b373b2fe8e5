"""Threshold rule turning a feature vector into an explainable verdict, and the corpus scorer.

A user with more than min_comments comments is a spammer when ANY clause
of model.CLAUSES fires (OR combination), every comparison strict; an absent
ATDC never fires. `spamminer --help` prints the rule with its defaults.

Users at or below the comment gate get the distinct Insufficient label:
they are excluded from the analysis, not cleared. The verdict records every
clause that fired, not just the first, so results stay explainable.

score_corpus is the one path from a corpus file to verdicts, `score`'s and `report`'s too.
"""

from __future__ import annotations

import os
from array import array
from itertools import groupby
from operator import attrgetter
from typing import Iterator, NamedTuple

from . import features, ingest
from .model import CLAUSES, FeatureVector, Label, RuleConfig, UserActivityLog, Verdict, share_ids


def classify(fv: FeatureVector, cfg: RuleConfig = RuleConfig()) -> Verdict:
    """Apply the threshold rule to one feature vector."""
    if fv.n_comments <= cfg.min_comments:
        return Verdict(fv.user_id, Label.INSUFFICIENT, frozenset(), fv)
    triggered = frozenset([clause.indicator for clause in CLAUSES if clause.fires(fv, cfg)])
    label = Label.SPAMMER if triggered else Label.LEGIT
    return Verdict(fv.user_id, label, triggered, fv)


class BatchResult(NamedTuple):
    """Element-wise verdicts, input order preserved.

    Label counts are report.summarize(verdicts)["labels"].
    """

    verdicts: tuple[Verdict, ...]


def classify_batch(
    fvs: list[FeatureVector], cfg: RuleConfig = RuleConfig()
) -> BatchResult:
    """Classify a batch of feature vectors."""
    return BatchResult(verdicts=tuple(classify(fv, cfg) for fv in fvs))


def score_corpus(
    path: str | os.PathLike, *, format: str = "jsonl", config: RuleConfig = RuleConfig()
) -> tuple[ingest.IngestReport, Iterator[Verdict]]:
    """Score the corpus file at path: (its IngestReport, its verdicts in user_id order).

    format is "jsonl" or "csv"; any other is a ValueError raised before the
    file is opened. The file is parsed, and AllLinesRejected or
    MissingHeader raised, before this returns; each verdict is classified as
    it is drawn. Each run of one user_id is scored as it ends, into one row
    of six numbers per user: the FeatureVector fields after user_id, with 0.0
    for an absent atdc_s. Each log is ordered by published_at; records of one
    second keep their input order. At the first user_id that comes back, the
    file is read again, whole and stably sorted by user_id (a pipe at once),
    which keeps each user's records in input order; only that read keeps its
    records, so only it passes them through share_ids.
    """
    if format not in ("jsonl", "csv"):
        raise ValueError(f"unknown format: {format!r}")
    records_of = ingest.iter_jsonl if format == "jsonl" else ingest.iter_csv
    user_id_of = attrgetter("user_id")
    with open(path, "rb") as fh:
        for whole in (False, True) if fh.seekable() else (True,):
            rows: dict[str, int] = {}  # user_id -> row number in table
            table = array("d")
            report = ingest.IngestReport()
            records = records_of(fh, report)
            if whole:
                records = share_ids(records)
                records.sort(key=user_id_of)  # in place: sorted() would hold a second list
            for user_id, run in groupby(records, key=user_id_of):
                if user_id in rows:  # the first repeat: this user's row is incomplete
                    fh.seek(0)
                    break
                values = features._feature_values(UserActivityLog(user_id, run))
                rows[user_id] = len(rows)
                table.extend(values if values[1] is not None else (values[0], 0.0, *values[2:]))
            else:  # every run read: no user_id came back
                break
    return report, _verdicts(rows, table, config)


def _verdicts(rows: dict[str, int], table: array, cfg: RuleConfig) -> Iterator[Verdict]:
    """The verdict on each row of score_corpus' table, in user_id order."""
    for user_id in sorted(rows):
        start = 6 * rows[user_id]
        n_comments, atdc_s, pchf_pct, crr, vidovp, crav = table[start:start + 6]
        n_comments = int(n_comments)
        yield classify(FeatureVector(user_id, n_comments, atdc_s if n_comments >= 2 else None,
                                     pchf_pct, crr, vidovp, crav), cfg)
