"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values marked as derived were computed with the brute-force
pair-enumeration oracles in helpers.py, which stay independent of the
library's counting-formula implementations.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import contextmanager

import pytest

from spamminer.classifier import classify, classify_batch
from spamminer.features import atdc, crav, crr, feature_vector, normalize_text, pchf, vidovp
from spamminer.ingest import (
    MalformedPage,
    fetch_user_log,
    group_by_user,
    parse_jsonl,
)
from spamminer.model import (
    FeatureVector,
    Indicator,
    Label,
    RuleConfig,
    build_log,
    record_to_json,
)
from spamminer.report import FIGURE_IDS, figure_csv, figure_dataset, summarize, svg_scatter
from spamminer.synth import benchmark_specs, generate, write_corpus
from spamminer import cli

from helpers import (
    FeedServer,
    MockFeed,
    MockUser,
    brute_atdc,
    brute_pair_counts,
    feed_page_records,
    make_record,
    random_log_suite,
)

DEFAULTS = RuleConfig()


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    else:
        print(f"[PASS] {name}")


def _vector(user="u", n=10, atdc_s=3600.0, pchf_pct=0.0, crr_v=0.0, vidovp_v=0.0,
            crav_v=0.0):
    return FeatureVector(
        user_id=user, n_comments=n, atdc_s=atdc_s if n >= 2 else None,
        pchf_pct=pchf_pct, crr=crr_v, vidovp=vidovp_v, crav=crav_v,
    )


def test_criterion_1_rule_fidelity():
    with criterion("criterion 1: rule fidelity (exemplar user + strict gate)"):
        exemplar = _vector(user="A", n=35, pchf_pct=80.0, atdc_s=3600.0,
                           crr_v=0.2, vidovp_v=0.2)
        verdict = classify(exemplar, DEFAULTS)
        assert verdict.label is Label.SPAMMER
        assert verdict.triggered == frozenset({Indicator.PCHF})

        at_gate = _vector(n=5, pchf_pct=100.0, atdc_s=1.0, crr_v=1.0,
                          vidovp_v=1.0, crav_v=1.0)
        gated = classify(at_gate, DEFAULTS)
        assert gated.label is Label.INSUFFICIENT
        assert gated.triggered == frozenset()


def test_criterion_2_boundary_strictness():
    with criterion("criterion 2: boundary strictness (all comparisons strict)"):
        at_thresholds = _vector(n=10, pchf_pct=70.0, atdc_s=150.0,
                                crr_v=0.60, vidovp_v=0.60, crav_v=0.60)
        verdict = classify(at_thresholds, DEFAULTS)
        assert verdict.label is Label.LEGIT
        assert verdict.triggered == frozenset()


SUITE_SEED = 20260811
SUITE = random_log_suite(SUITE_SEED, count=1000, n_max=50)


def test_criterion_3_oracle_equivalence():
    with criterion("criterion 3: oracle equivalence on 1000 random logs"):
        started = time.monotonic()
        for log in SUITE:
            texts = [normalize_text(rec.text) for rec in log.records]
            videos = [rec.video_id for rec in log.records]
            times = [rec.timestamp_s for rec in log.records]

            hits, total = brute_pair_counts(texts, lambda a, b: a == b)
            assert crr(log) == (hits / total if total else 0.0)

            hits, total = brute_pair_counts(videos, lambda a, b: a != b)
            assert vidovp(log) == (hits / total if total else 0.0)

            pairs = list(zip(texts, videos))
            hits, total = brute_pair_counts(
                pairs, lambda a, b: a[0] == b[0] and a[1] != b[1]
            )
            assert crav(log) == (hits / total if total else 0.0)

            expected = brute_atdc(times)
            got = atdc(log)
            if expected is None:
                assert got is None
            elif expected == 0.0:
                assert got == 0.0
            else:
                assert abs(got - expected) <= 1e-9 * abs(expected)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_4_metric_invariants():
    with criterion("criterion 4: metric invariants on the same random-log suite"):
        import random as _random

        shuffler = _random.Random(99)
        for log in SUITE:
            fv = feature_vector(log)

            # bounds
            assert 0.0 <= fv.crr <= 1.0
            assert 0.0 <= fv.vidovp <= 1.0
            assert 0.0 <= fv.crav <= 1.0
            assert 0.0 <= fv.pchf_pct <= 100.0
            if fv.atdc_s is not None:
                assert fv.atdc_s >= 0.0

            # dominance
            assert fv.crav <= fv.crr
            assert fv.crav <= fv.vidovp

            # permutation invariance
            shuffled = list(log.records)
            shuffler.shuffle(shuffled)
            assert feature_vector(build_log(log.user_id, shuffled)) == fv

            # timestamp translation invariance
            shifted = build_log(
                log.user_id,
                [
                    make_record(user=rec.user_id, video=rec.video_id,
                                ts=rec.timestamp_s + 123_456, text=rec.text,
                                hint=rec.has_spam_hint, cid=rec.comment_id)
                    for rec in log.records
                ],
            )
            assert atdc(shifted) == fv.atdc_s

            # monotone response to one flag flip
            unflagged = [i for i, rec in enumerate(log.records) if not rec.has_spam_hint]
            if unflagged:
                flip_at = unflagged[0]
                flipped = build_log(
                    log.user_id,
                    [
                        make_record(user=rec.user_id, video=rec.video_id,
                                    ts=rec.timestamp_s, text=rec.text,
                                    hint=True if i == flip_at else rec.has_spam_hint,
                                    cid=rec.comment_id)
                        for i, rec in enumerate(log.records)
                    ],
                )
                n = len(log.records)
                delta = pchf(flipped) - fv.pchf_pct
                assert delta > 0.0
                assert abs(delta - 100 / n) <= 1e-9 * (100 / n)


def test_criterion_5_synthetic_benchmark(tmp_path):
    with criterion("criterion 5: synthetic benchmark precision=1.0 recall=1.0"):
        started = time.monotonic()
        corpus_path, truth_path = write_corpus(
            generate(benchmark_specs(), 42), tmp_path / "bench.jsonl"
        )
        with open(corpus_path, "rb") as fh:
            records, report = parse_jsonl(fh)
        assert report.rejected == 0
        logs = group_by_user(records)
        assert len(logs) == 200
        fvs = [feature_vector(log) for log in logs]
        batch = classify_batch(fvs, DEFAULTS)
        assert summarize(list(batch.verdicts))["labels"]["insufficient"] == 0

        truth = json.loads(truth_path.read_text(encoding="utf-8"))
        predicted = {v.user_id for v in batch.verdicts if v.label is Label.SPAMMER}
        actual = {uid for uid, label in truth.items() if label == "spammer"}
        assert len(actual) == 100
        tp = len(predicted & actual)
        precision = tp / len(predicted) if predicted else 0.0
        recall = tp / len(actual)
        assert precision == 1.0, f"false positives: {sorted(predicted - actual)[:5]}"
        assert recall == 1.0, f"missed spammers: {sorted(actual - predicted)[:5]}"
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"benchmark took {elapsed:.1f}s"


def test_criterion_6_round_trip_and_robustness(tmp_path):
    with criterion("criterion 6: round-trip identity and skip-and-report robustness"):
        # serialize -> parse -> build_log is the identity on 100 random logs
        for log in random_log_suite(4242, count=100, n_max=30):
            payload = "".join(record_to_json(rec) + "\n" for rec in log.records)
            records, report = parse_jsonl(io.BytesIO(payload.encode("utf-8")))
            assert report.rejected == 0
            assert build_log(log.user_id, records) == log

        # 10% malformed corpus: the other 90% ingests, line numbers exact
        corpus = generate([s for s in benchmark_specs() if s.count == 100], 6)
        lines = [record_to_json(rec) for rec in corpus.records[:200]]
        assert len(lines) == 200
        malformed_at = [line_no for line_no in range(10, 201, 10)]
        for line_no in malformed_at:
            lines[line_no - 1] = "{malformed line"
        records, report = parse_jsonl(io.BytesIO(("\n".join(lines) + "\n").encode()))
        assert len(records) == 180
        assert report.accepted == 180
        assert [line_no for line_no, _ in report.rejects] == malformed_at
        assert report.accepted + report.rejected == 200

        # exit code 3 only on 100%-rejected input
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text("\n".join(lines) + "\n")
        assert cli.main(["score", "--input", str(mixed),
                         "--output", str(tmp_path / "v1.jsonl")]) == cli.EXIT_OK
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("junk\nmore junk\n")
        assert cli.main(["score", "--input", str(garbage),
                         "--output", str(tmp_path / "v2.jsonl")]) == cli.EXIT_REJECTED


def test_criterion_7_figure_analogues():
    with criterion("criterion 7: figure datasets gate correctly and emit byte-stable"):
        def build_outputs():
            corpus = generate(benchmark_specs(), 42)
            logs = group_by_user(list(corpus.records))
            fvs = [feature_vector(log) for log in logs]
            csvs = {fid: figure_csv(figure_dataset(fvs, fid, DEFAULTS))
                    for fid in FIGURE_IDS}
            svgs = {fid: svg_scatter(figure_dataset(fvs, fid, DEFAULTS))
                    for fid in FIGURE_IDS if fid != "fig6"}
            return fvs, csvs, svgs

        fvs, csvs, svgs = build_outputs()
        gated = [fv for fv in fvs if fv.n_comments > DEFAULTS.min_comments]
        with_atdc = [fv for fv in gated if fv.atdc_s is not None and fv.atdc_s > 0]
        assert len(gated) == 200
        for fid in FIGURE_IDS:
            expected_rows = len(with_atdc) if fid in ("fig5", "fig6") else len(gated)
            got_rows = len(csvs[fid].splitlines()) - 1  # header
            assert got_rows == expected_rows, (fid, got_rows, expected_rows)
        for fid, svg in svgs.items():
            expected_rows = len(with_atdc) if fid == "fig5" else len(gated)
            assert svg.count("<circle") == expected_rows

        # sub-gate users are excluded, mirroring the gate proportionally
        low = [_vector(user=f"low-{i}", n=3, atdc_s=50.0) for i in range(10)]
        padded = figure_dataset(fvs + low, "fig2", DEFAULTS)
        assert len(padded.rows) == len(gated)

        # repeated end-to-end runs are byte-identical
        _, csvs2, svgs2 = build_outputs()
        assert csvs == csvs2
        assert svgs == svgs2


def test_criterion_8_paged_fetch():
    with criterion("criterion 8: paged fetch, malformed page, retry with backoff"):
        feed = MockFeed(users={
            "paged": MockUser(pages=[
                feed_page_records("paged", 0, 40),
                feed_page_records("paged", 40, 40),
                feed_page_records("paged", 80, 20),
            ]),
            "broken": MockUser(
                pages=[feed_page_records("broken", 0, 10),
                       feed_page_records("broken", 10, 10),
                       feed_page_records("broken", 20, 10)],
                malformed_pages={1},
            ),
            "flaky": MockUser(pages=[feed_page_records("flaky", 0, 5)], fail_first=2),
        })
        with FeedServer(feed) as server:
            result = fetch_user_log(server.base_url, "paged", backoff_s=(0, 0, 0))
            assert len(result.log) == 100
            assert result.truncated is False
            assert feed.request_count("paged") == 3  # one request per page

            with pytest.raises(MalformedPage) as excinfo:
                fetch_user_log(server.base_url, "broken", backoff_s=(0, 0, 0))
            assert excinfo.value.page_token == "p1"

            started = time.monotonic()
            result = fetch_user_log(server.base_url, "flaky")  # default backoff
            elapsed = time.monotonic() - started
            assert len(result.log) == 5
            assert feed.request_count("flaky") == 3  # two 500s, success on attempt 3
            assert elapsed >= 1.4  # 0.5s + 1s backoff actually waited
