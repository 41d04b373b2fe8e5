"""Threshold rule behavior (gate, strict comparisons, triggered sets) and the corpus scorer."""

from __future__ import annotations

import csv

import pytest

from spamminer.classifier import classify, classify_batch, score_corpus
from spamminer.features import feature_vector
from spamminer.ingest import CSV_REQUIRED_COLUMNS, AllLinesRejected, MissingHeader, group_by_user
from spamminer.model import (
    FeatureVector,
    Indicator,
    Label,
    RuleConfig,
    format_rfc3339,
    record_to_json,
)
from spamminer.report import summarize

from helpers import make_record


def fv(n=10, atdc=3600.0, pchf=0.0, crr=0.0, vidovp=0.0, crav=0.0, user="u1"):
    return FeatureVector(
        user_id=user, n_comments=n, atdc_s=atdc if n >= 2 else None,
        pchf_pct=pchf, crr=crr, vidovp=vidovp, crav=crav,
    )


class TestClassify:
    def test_pchf_exemplar(self):
        verdict = classify(fv(n=35, pchf=80.0, atdc=3600.0, crr=0.2, vidovp=0.2))
        assert verdict.label is Label.SPAMMER
        assert verdict.triggered == {Indicator.PCHF}

    def test_gate_is_strict(self):
        verdict = classify(fv(n=5, pchf=100.0, atdc=1.0, crr=1.0, vidovp=1.0, crav=1.0))
        assert verdict.label is Label.INSUFFICIENT
        assert verdict.triggered == frozenset()

    def test_just_above_gate(self):
        assert classify(fv(n=6, pchf=100.0)).label is Label.SPAMMER

    def test_legit(self):
        verdict = classify(fv(n=10, pchf=0.0, atdc=86400.0, crr=0.0, vidovp=0.5))
        assert verdict.label is Label.LEGIT
        assert verdict.triggered == frozenset()

    def test_multiple_triggers_all_listed(self):
        verdict = classify(fv(n=10, pchf=0.0, atdc=100.0, crr=0.7, vidovp=0.9, crav=0.7))
        assert verdict.label is Label.SPAMMER
        assert verdict.triggered == {Indicator.ATDC, Indicator.COMOVP, Indicator.VIDOVP}

    def test_boundary_values_do_not_fire(self):
        verdict = classify(fv(n=10, pchf=70.0, atdc=150.0, crr=0.60, vidovp=0.60, crav=0.60))
        assert verdict.label is Label.LEGIT
        assert verdict.triggered == frozenset()

    def test_just_past_boundaries_fire(self):
        verdict = classify(
            fv(n=10, pchf=70.000001, atdc=149.999999, crr=0.600001, vidovp=0.600001,
               crav=0.600001)
        )
        assert verdict.triggered == set(Indicator)

    def test_absent_atdc_never_fires(self):
        single = FeatureVector("u1", 1, None, 0.0, 0.0, 0.0, 0.0)
        verdict = classify(single, RuleConfig(min_comments=1))
        # n=1 equals the gate, so this user is insufficient either way
        assert verdict.label is Label.INSUFFICIENT
        two = FeatureVector("u1", 2, 10.0, 0.0, 0.0, 0.0, 0.0)
        assert classify(two, RuleConfig(min_comments=1)).triggered == {Indicator.ATDC}

    def test_custom_thresholds(self):
        cfg = RuleConfig(pchf_gt=10.0, atdc_lt_s=10.0)
        verdict = classify(fv(n=10, pchf=20.0, atdc=5.0), cfg)
        assert verdict.triggered == {Indicator.PCHF, Indicator.ATDC}

    def test_determinism(self):
        vector = fv(n=12, pchf=90.0, crr=0.8, vidovp=0.4, crav=0.1)
        assert classify(vector) == classify(vector)

    def test_monotone_under_or(self):
        base = fv(n=10, pchf=75.0)
        assert classify(base).label is Label.SPAMMER
        for bumped_pchf in (80.0, 90.0, 100.0):
            bumped = classify(fv(n=10, pchf=bumped_pchf))
            assert bumped.label is Label.SPAMMER
            assert Indicator.PCHF in bumped.triggered


class TestClassifyBatch:
    def test_order_preserved_and_counts(self):
        vectors = [
            fv(n=10, pchf=90.0, user="a"),
            fv(n=3, user="b"),
            fv(n=10, user="c"),
        ]
        batch = classify_batch(vectors)
        assert [v.user_id for v in batch.verdicts] == ["a", "b", "c"]
        assert summarize(list(batch.verdicts))["labels"] == {
            "spammer": 1, "legit": 1, "insufficient": 1}

    def test_empty(self):
        batch = classify_batch([])
        assert batch.verdicts == ()
        assert summarize(list(batch.verdicts))["labels"] == {
            "spammer": 0, "legit": 0, "insufficient": 0}

    def test_counts_sum_to_input_length(self):
        vectors = [fv(n=n, pchf=p, user=f"u{i}")
                   for i, (n, p) in enumerate([(2, 0), (8, 90), (5, 100), (9, 0)])]
        batch = classify_batch(vectors)
        assert sum(summarize(list(batch.verdicts))["labels"].values()) == len(vectors)

    def test_all_gated_users_classified(self):
        vectors = [fv(n=6 + i, user=f"u{i:03d}") for i in range(119)]
        batch = classify_batch(vectors)
        assert summarize(list(batch.verdicts))["labels"]["insufficient"] == 0
        assert len(batch.verdicts) == 119


class TestScoreCorpus:
    @pytest.mark.parametrize("late_repeat", [False, True])
    def test_report_is_final_before_the_first_verdict(self, tmp_path, late_repeat):
        records = [make_record(user=user, ts=k, text=f"t{k % 3}", cid=f"c{k}")
                   for user in ("a", "b") for k in range(7)]
        if late_repeat:  # "a" comes back after "b", so the file is read a second time
            records = records[1:] + records[:1]
        lines = [record_to_json(rec) for rec in records]
        lines.insert(3, "not json")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

        report, verdicts = score_corpus(corpus)
        assert (report.accepted, report.rejects) == (14, [(4, "ParseError")])
        assert list(verdicts) == [classify(feature_vector(log)) for log in group_by_user(records)]
        assert (report.accepted, report.rejects) == (14, [(4, "ParseError")])

    def test_atdc_is_absent_below_two_comments_only(self, tmp_path):
        # The scorer's table holds 0.0 for an absent atdc_s; the comment count tells them apart.
        records = [make_record(user="one", ts=5, cid="c0"), make_record(user="two", ts=0, cid="c1"),
                   make_record(user="two", ts=10, cid="c2")]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(record_to_json(rec) + "\n" for rec in records), encoding="utf-8")
        verdicts = list(score_corpus(corpus)[1])
        assert [(v.user_id, v.features.n_comments, v.features.atdc_s) for v in verdicts] == [
            ("one", 1, None), ("two", 2, 10.0)]

    def test_keywords_reach_the_parser_the_features_and_the_rule(self, tmp_path):
        # Seven comments an hour apart on one video, whose texts match once whitespace is
        # normalized, so COMOVP fires.
        records = [make_record(ts=3600 * k, text="hi" + " " * k, cid=f"c{k}") for k in range(7)]
        jsonl = tmp_path / "corpus.jsonl"
        jsonl.write_text("".join(record_to_json(rec) + "\n" for rec in records), encoding="utf-8")
        csv_path = tmp_path / "corpus.csv"
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow((*CSV_REQUIRED_COLUMNS, "comment_id"))
            for rec in records:
                writer.writerow((rec.user_id, rec.video_id, format_rfc3339(rec.timestamp_s),
                                 rec.text, "false", rec.comment_id))

        def labels(path, **keywords):
            return [verdict.label for verdict in score_corpus(path, **keywords)[1]]

        assert labels(jsonl) == labels(str(csv_path), format="csv") == [Label.SPAMMER]
        assert labels(jsonl, config=RuleConfig(min_comments=7)) == [Label.INSUFFICIENT]

    @pytest.mark.parametrize("fmt, content, error", [
        ("jsonl", b"not json\nstill not json\n", AllLinesRejected),
        ("csv", b"user_id,video_id,published_at,text\nu1,v1,2011-01-01T00:00:00Z,hi\n",
         MissingHeader),
        ("xml", b"", ValueError),
    ], ids=["all-lines-rejected", "missing-header", "unknown-format"])
    def test_input_errors_are_raised_by_the_call(self, tmp_path, fmt, content, error):
        corpus = tmp_path / "corpus"
        corpus.write_bytes(content)
        with pytest.raises(error):
            score_corpus(corpus, format=fmt)  # no verdict is drawn

    def test_unknown_keyword_value_is_raised_before_the_file_is_opened(self, tmp_path):
        one = tmp_path / "one.jsonl"
        one.write_text(record_to_json(make_record()) + "\n", encoding="utf-8")
        for path in (one, tmp_path / "missing.jsonl"):
            with pytest.raises(ValueError, match="unknown format.*'bogus'"):
                score_corpus(path, format="bogus")
