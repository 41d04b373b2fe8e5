"""Indicator math, checked against brute-force pair enumeration.

Frozen expected values below were computed by explicit enumeration of the
unordered pairs (the brute_* oracles in helpers); the library computes the
same statistics through per-class counting, so equality must be exact.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from spamminer.features import (
    MODE_CANONICAL,
    atdc,
    crav,
    crr,
    feature_vector,
    normalize_text,
    pchf,
    vidovp,
)
from spamminer.model import UserActivityLog

from helpers import brute_atdc, brute_pair_fraction, make_log, make_record


class TestNormalizeText:
    def test_trim(self):
        assert normalize_text("  Check out my channel ") == "Check out my channel"

    def test_collapse_internal_runs(self):
        assert normalize_text("a\t\tb") == "a b"
        assert normalize_text("a  \n b") == "a b"

    def test_identity_on_clean_text(self):
        assert normalize_text("abc") == "abc"

    def test_case_sensitive(self):
        assert normalize_text("ABC") != normalize_text("abc")

    def test_nfc(self):
        composed = "é"          # é
        decomposed = "é"       # e + combining acute
        assert normalize_text(decomposed) == composed

    def test_unknown_mode(self):
        log = make_log(rows=[(0, "a  b"), (1, "a b")])
        assert feature_vector(log, MODE_CANONICAL) == feature_vector(log)
        for mode in ("fuzzy", "raw-bytes", "Canonical", "", None):
            with pytest.raises(ValueError, match="unknown normalization mode"):
                feature_vector(log, mode)

    @given(st.text(max_size=50))
    def test_idempotent(self, raw):
        once = normalize_text(raw)
        assert normalize_text(once) == once


class TestAtdc:
    def test_single_pair(self):
        assert atdc(make_log(rows=[(0,), (10,)])) == 10.0

    def test_three_comments(self):
        # pairs: |0-10|=10, |0-20|=20, |10-20|=10 -> mean 40/3
        log = make_log(rows=[(0,), (10,), (20,)])
        assert atdc(log) == 40 / 3
        assert atdc(log) == brute_atdc([0, 10, 20])

    def test_single_comment_absent(self):
        assert atdc(make_log(rows=[(100,)])) is None

    def test_empty_absent(self):
        assert atdc(make_log()) is None

    def test_equal_timestamps(self):
        assert atdc(make_log(rows=[(5,), (5,), (5,)])) == 0.0


class TestPchf:
    def test_two_of_five(self):
        log = make_log(rows=[(i, f"t{i}", "v1", flag) for i, flag in
                             enumerate([True, True, False, False, False])])
        assert pchf(log) == 40.0

    def test_twenty_eight_of_thirty_five(self):
        log = make_log(rows=[(i, f"t{i}", "v1", i < 28) for i in range(35)])
        assert pchf(log) == 80.0

    def test_all_flagged(self):
        log = make_log(rows=[(i, f"t{i}", "v1", True) for i in range(4)])
        assert pchf(log) == 100.0

    def test_empty(self):
        assert pchf(make_log()) == 0.0


class TestCrr:
    def test_one_matching_pair_of_three(self):
        # texts a,a,b -> pairs: match, miss, miss -> 1/3
        log = make_log(rows=[(0, "a"), (1, "a"), (2, "b")])
        assert crr(log) == 1 / 3

    def test_all_identical(self):
        log = make_log(rows=[(i, "same") for i in range(5)])
        assert crr(log) == 1.0

    def test_all_distinct(self):
        log = make_log(rows=[(i, f"t{i}") for i in range(5)])
        assert crr(log) == 0.0

    def test_below_two_comments(self):
        assert crr(make_log(rows=[(0, "a")])) == 0.0
        assert crr(make_log()) == 0.0

    def test_whitespace_variants_match(self):
        log = make_log(rows=[(0, "a  b"), (1, "a b")])
        assert crr(log) == 1.0


class TestVidovp:
    def test_two_of_three_pairs_differ(self):
        # videos v1,v1,v2 -> pairs: same, diff, diff -> 2/3
        log = make_log(rows=[(0, "a", "v1"), (1, "b", "v1"), (2, "c", "v2")])
        assert vidovp(log) == 2 / 3

    def test_single_video(self):
        log = make_log(rows=[(i, f"t{i}", "v1") for i in range(5)])
        assert vidovp(log) == 0.0

    def test_all_distinct_videos(self):
        log = make_log(rows=[(i, f"t{i}", f"v{i}") for i in range(5)])
        assert vidovp(log) == 1.0


class TestCrav:
    def test_same_text_across_distinct_videos(self):
        log = make_log(rows=[(0, "a", "v1"), (1, "a", "v2"), (2, "a", "v3")])
        assert crav(log) == 1.0

    def test_same_text_same_video(self):
        log = make_log(rows=[(0, "a", "v1"), (1, "a", "v1")])
        assert crav(log) == 0.0

    def test_mixed_census(self):
        # texts a,a,b on videos v1,v2,v2: only the (1,2) pair is same-text
        # AND cross-video -> 1/3
        log = make_log(rows=[(0, "a", "v1"), (1, "a", "v2"), (2, "b", "v2")])
        assert crav(log) == 1 / 3


class TestFeatureVectorAssembly:
    def test_empty_log_degenerate(self):
        fv = feature_vector(make_log())
        assert fv.n_comments == 0
        assert fv.atdc_s is None
        assert fv.pchf_pct == 0.0
        assert fv.crr == fv.vidovp == fv.crav == 0.0

    def test_composite_example(self):
        log = make_log(rows=[(0, "a", "v1"), (10, "a", "v1"), (20, "b", "v2")])
        fv = feature_vector(log)
        assert fv.n_comments == 3
        assert fv.atdc_s == 40 / 3
        assert fv.crr == 1 / 3
        assert fv.vidovp == 2 / 3
        assert fv.crav == 0.0  # the only same-text pair shares its video

    def test_heavy_repeater(self):
        # 118 identical, all-hinted comments on one video
        log = make_log(rows=[(i * 3600, "same promo", "v1", True) for i in range(118)])
        fv = feature_vector(log)
        assert fv.pchf_pct == 100.0
        assert fv.crr == 1.0
        assert fv.vidovp == 0.0


# --- property tests over random logs ----------------------------------------

log_strategy = st.builds(
    lambda rows: UserActivityLog(
        "u1",
        [
            make_record(user="u1", video=video, ts=ts, text=text, hint=hint)
            for ts, text, video, hint in rows
        ],
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1_000_000),
            st.sampled_from(["a", "b", "c", "d", "e"]),
            st.sampled_from(["v1", "v2", "v3", "v4"]),
            st.booleans(),
        ),
        max_size=50,
    ),
)


@given(log_strategy)
def test_counting_formula_matches_brute_force(log):
    texts = [normalize_text(rec.text) for rec in log.records]
    videos = [rec.video_id for rec in log.records]
    pairs = list(zip(texts, videos))
    assert crr(log) == brute_pair_fraction(texts, lambda a, b: a == b)
    assert vidovp(log) == brute_pair_fraction(videos, lambda a, b: a != b)
    assert crav(log) == brute_pair_fraction(
        pairs, lambda a, b: a[0] == b[0] and a[1] != b[1]
    )
    times = [rec.timestamp_s for rec in log.records]
    expected_atdc = brute_atdc(times)
    got = atdc(log)
    if expected_atdc is None:
        assert got is None
    else:
        assert got == pytest.approx(expected_atdc, rel=1e-12)


@given(st.lists(st.tuples(st.text("ab ", max_size=3), st.sampled_from(["v1", "v2", "v3"])),
                max_size=12))
def test_census_matches_brute_force_with_mostly_distinct_texts(rows):
    """Logs with no, one or few matching texts, where the census takes its short cuts."""
    log = UserActivityLog("u1", [make_record(ts=i, text=text, video=video)
                                 for i, (text, video) in enumerate(rows)])
    pairs = [(normalize_text(text), video) for text, video in rows]
    assert crr(log) == brute_pair_fraction(pairs, lambda a, b: a[0] == b[0])
    assert vidovp(log) == brute_pair_fraction(pairs, lambda a, b: a[1] != b[1])
    assert crav(log) == brute_pair_fraction(
        pairs, lambda a, b: a[0] == b[0] and a[1] != b[1]
    )


@given(log_strategy, st.randoms(use_true_random=False))
def test_permutation_invariance(log, rnd):
    fv = feature_vector(log)
    shuffled = list(log.records)
    rnd.shuffle(shuffled)
    fv_shuffled = feature_vector(UserActivityLog("u1", shuffled))
    assert fv == fv_shuffled


@given(log_strategy)
def test_bounds_and_dominance(log):
    fv = feature_vector(log)
    assert 0.0 <= fv.crr <= 1.0
    assert 0.0 <= fv.vidovp <= 1.0
    assert 0.0 <= fv.crav <= 1.0
    assert 0.0 <= fv.pchf_pct <= 100.0
    assert fv.crav <= fv.crr
    assert fv.crav <= fv.vidovp
    if fv.atdc_s is not None:
        assert fv.atdc_s >= 0.0


@given(log_strategy, st.integers(min_value=0, max_value=1_000_000))
def test_atdc_translation_invariance(log, shift):
    shifted = UserActivityLog(
        "u1",
        [
            make_record(
                user="u1", video=rec.video_id, ts=rec.timestamp_s + shift,
                text=rec.text, hint=rec.has_spam_hint,
            )
            for rec in log.records
        ],
    )
    assert atdc(shifted) == atdc(log)


@settings(max_examples=60)
@given(log_strategy, st.integers(min_value=0, max_value=49))
def test_pchf_single_flag_flip(log, pick):
    unflagged = [i for i, rec in enumerate(log.records) if not rec.has_spam_hint]
    if not unflagged:
        return
    flip_at = unflagged[pick % len(unflagged)]
    n = len(log.records)
    flipped = UserActivityLog(
        "u1",
        [
            make_record(
                user="u1", video=rec.video_id, ts=rec.timestamp_s, text=rec.text,
                hint=True if i == flip_at else rec.has_spam_hint,
            )
            for i, rec in enumerate(log.records)
        ],
    )
    before, after = pchf(log), pchf(flipped)
    assert after > before
    assert after - before == pytest.approx(100 / n, rel=1e-9)
