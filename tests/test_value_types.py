"""The behaviour callers rely on in the value and result types.

Construction (positional and keyword, with defaults), immutability, equality
and hashing by value, repr, and copy and pickle round-trips, for the model's
value types and the small result holders of ingest, classifier and report.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from spamminer.classifier import BatchResult
from spamminer.ingest import FetchResult, IngestReport
from spamminer.model import FeatureVector, Indicator, Label, RuleConfig, UserActivityLog, Verdict
from spamminer.report import FigureDataset

from helpers import make_record


def _log() -> UserActivityLog:
    return UserActivityLog("u1", (make_record(ts=1, cid="c1"), make_record(ts=2, cid="c2")))


def _fv(n: int = 6, pchf: float = 80.0) -> FeatureVector:
    return FeatureVector("u1", n, 10.0, pchf, 0.5, 0.25, 0.125)


def _verdict() -> Verdict:
    return Verdict("u1", Label.SPAMMER, frozenset({Indicator.PCHF}), _fv())


def _batch() -> BatchResult:
    return BatchResult((_verdict(),))


def _fetch() -> FetchResult:
    return FetchResult(_log(), True, ((3, "ParseError"),))


def _dataset() -> FigureDataset:
    return FigureDataset("fig2", ("n_comments", "pchf_pct"), ((6, 80.0),))


# Each maker returns equal, distinct objects on every call; one field of each type.
FIELDS = {_log: "user_id", _fv: "crr", _verdict: "label", RuleConfig: "pchf_gt",
          _batch: "verdicts", _fetch: "truncated", _dataset: "rows"}
IDS = ["UserActivityLog", "FeatureVector", "Verdict", "RuleConfig",
       "BatchResult", "FetchResult", "FigureDataset"]


@pytest.mark.parametrize("make", FIELDS, ids=IDS)
class TestFrozenValue:
    def test_assignment_raises(self, make):
        with pytest.raises(AttributeError):
            setattr(make(), FIELDS[make], None)

    def test_equal_and_hashed_by_value(self, make):
        a, b = make(), make()
        assert a is not b
        assert a == b
        assert not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_unequal_across_types(self, make):
        obj = make()
        for other in FIELDS:
            if other is not make:
                assert obj != other()

    def test_copy_and_pickle_round_trip(self, make):
        obj = make()
        for clone in (copy.copy(obj), copy.deepcopy(obj),
                      *(pickle.loads(pickle.dumps(obj, protocol))
                        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1))):
            assert type(clone) is type(obj)
            assert clone == obj
            assert repr(clone) == repr(obj)


class TestModelValues:
    def test_keyword_construction(self):
        log = _log()
        assert UserActivityLog(user_id="u1", records=log.records) == log
        assert FeatureVector(user_id="u1", n_comments=6, atdc_s=10.0, pchf_pct=80.0,
                             crr=0.5, vidovp=0.25, crav=0.125) == _fv()
        assert Verdict(user_id="u1", label=Label.SPAMMER, triggered=frozenset({Indicator.PCHF}),
                       features=_fv()) == _verdict()

    def test_fields_read_back(self):
        fv = _fv()
        assert (fv.user_id, fv.n_comments, fv.atdc_s, fv.pchf_pct, fv.crr, fv.vidovp,
                fv.crav) == ("u1", 6, 10.0, 80.0, 0.5, 0.25, 0.125)
        verdict = _verdict()
        assert verdict.features == fv
        assert verdict.triggered == frozenset({Indicator.PCHF})

    def test_unequal_on_any_field(self):
        assert _fv(n=6) != _fv(n=7)
        assert hash(_fv(pchf=80.0)) != hash(_fv(pchf=81.0))
        assert Verdict("u1", Label.LEGIT, frozenset(), _fv()) != Verdict(
            "u1", Label.LEGIT, frozenset(), _fv(pchf=1.0))

    def test_repr(self):
        rec = make_record(ts=1, cid="c1")
        assert repr(UserActivityLog("u1", (rec,))) == (
            f"UserActivityLog(user_id='u1', records=({rec!r},))")
        assert repr(FeatureVector("u1", 1, None, 0.0, 0.0, 0.0, 0.0)) == (
            "FeatureVector(user_id='u1', n_comments=1, atdc_s=None, pchf_pct=0.0, "
            "crr=0.0, vidovp=0.0, crav=0.0)")

    def test_verdict_repr_hides_features(self):
        verdict = Verdict("u1", Label.LEGIT, frozenset(), _fv())
        assert repr(verdict) == (
            "Verdict(user_id='u1', label=<Label.LEGIT: 'legit'>, triggered=frozenset())")

    def test_rule_config_defaults_and_keywords(self):
        cfg = RuleConfig()
        assert (cfg.min_comments, cfg.pchf_gt, cfg.atdc_lt_s, cfg.comovp_gt, cfg.vidovp_gt) == (
            5, 70.0, 150.0, 0.60, 0.60)
        assert repr(cfg) == ("RuleConfig(min_comments=5, pchf_gt=70.0, atdc_lt_s=150.0, "
                             "comovp_gt=0.6, vidovp_gt=0.6)")
        assert RuleConfig(3, 50.0) == RuleConfig(min_comments=3, pchf_gt=50.0)
        assert RuleConfig(vidovp_gt=0.9).vidovp_gt == 0.9
        assert RuleConfig(vidovp_gt=0.9) != cfg


class TestResultHolders:
    def test_keyword_construction_and_defaults(self):
        log = _log()
        assert FetchResult(log=log) == FetchResult(log, False, ())
        assert FetchResult(log=log, truncated=True, rejects=((3, "ParseError"),)) == _fetch()
        assert BatchResult(verdicts=(_verdict(),)) == _batch()
        assert FigureDataset(figure_id="fig2", columns=("n_comments", "pchf_pct"),
                             rows=((6, 80.0),)) == _dataset()

    def test_repr(self):
        assert repr(_dataset()) == (
            "FigureDataset(figure_id='fig2', columns=('n_comments', 'pchf_pct'), "
            "rows=((6, 80.0),))")
        assert repr(_batch()) == f"BatchResult(verdicts=({_verdict()!r},))"
        assert repr(FetchResult(_log())) == (
            f"FetchResult(log={_log()!r}, truncated=False, rejects=())")


class TestIngestReport:
    def test_defaults_and_keywords(self):
        report = IngestReport()
        assert (report.accepted, report.rejected, report.rejects) == (0, 0, [])
        assert IngestReport(accepted=2, rejected=1, rejects=[(1, "ParseError")]).rejected == 1

    def test_each_report_has_its_own_rejects(self):
        first, second = IngestReport(), IngestReport()
        first.reject(4, "ParseError")
        assert first.rejects == [(4, "ParseError")]
        assert second.rejects == []
        assert (first.accepted, first.rejected) == (0, 1)

    def test_mutable_equal_by_value_and_unhashable(self):
        first, second = IngestReport(), IngestReport()
        assert first == second
        first.accepted += 1
        assert first != second
        second.accepted = 1
        assert first == second
        with pytest.raises(TypeError):
            hash(first)

    def test_repr(self):
        report = IngestReport()
        report.reject(2, "LoneSurrogate")
        assert repr(report) == (
            "IngestReport(accepted=0, rejected=1, rejects=[(2, 'LoneSurrogate')])")

    def test_copy_and_pickle_round_trip(self):
        report = IngestReport(accepted=3)
        report.reject(2, "ParseError")
        for clone in (copy.copy(report), copy.deepcopy(report),
                      pickle.loads(pickle.dumps(report))):
            assert type(clone) is IngestReport
            assert clone == report
        deep = copy.deepcopy(report)
        deep.reject(5, "ParseError")
        assert report.rejects == [(2, "ParseError")]
