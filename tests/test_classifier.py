"""Threshold rule behavior: gate, strict comparisons, triggered sets."""

from __future__ import annotations

from spamminer.classifier import classify, classify_batch
from spamminer.model import FeatureVector, Indicator, Label, RuleConfig
from spamminer.report import summarize


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
