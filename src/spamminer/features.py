"""Usage-based spam indicators computed from one user's activity log.

Four indicators, each a statistic over the unordered pairs of comments in
the log:

  atdc    average time difference between comments: the mean of
          |t_i - t_j| over every unordered pair, in seconds. Spam robots
          post so fast that this collapses toward zero.
  pchf    percentage of comments the community/moderators tagged with the
          spam-hint flag.
  crr     comment repetition and redundancy: the fraction of pairs whose
          normalized texts match exactly. High values mean the same message
          posted again and again. The same number serves as the
          comment-overlap (COMOVP) indicator in the classification rule.
  vidovp  video overlap: the fraction of pairs posted on *different*
          videos. Grows with the diversity of videos a user touches.
  crav    comment repeatability across videos: the fraction of pairs that
          match in text AND differ in video, the signature of pasting one
          promotional message across many unrelated videos. By definition
          crav <= min(crr, vidovp).

All pair metrics are computed with exact integer counting over equivalence
classes (sum of c*(c-1)/2 within each class) and a single final division,
so results are identical to brute-force pair enumeration, permutation
invariant, and cheap even for long logs. Logs with fewer than two comments
have no pairs: pair metrics are 0 and atdc is absent.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from operator import mul

from .model import FeatureVector, UserActivityLog

MODE_CANONICAL = "canonical"


def normalize_text(raw: str) -> str:
    """Comment text as compared for exact match: NFC, trimmed, whitespace runs made one space.

    Matching stays case-sensitive, and normalizing twice changes nothing.
    """
    return " ".join(unicodedata.normalize("NFC", raw).split())


def _pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _same_class_pairs(items: list) -> int:
    """Unordered pairs of equal items: the sum of c*(c-1)/2 over class sizes c.

    Computed as (sum of c^2 - n) / 2, and 0 at once when all items differ.
    """
    n = len(items)
    if len(set(items)) == n:
        return 0
    sizes = Counter(items).values()
    return (sum(map(mul, sizes, sizes)) - n) // 2


def atdc(log: UserActivityLog) -> float | None:
    """Mean absolute timestamp difference over all unordered pairs, seconds.

    Absent (None) when the log has fewer than two comments. Uses the sorted
    order already guaranteed by the log: the sum of |t_i - t_j| over all
    pairs equals sum_k t_k * (2k - n + 1) for ascending t_0..t_{n-1},
    computed in exact integer arithmetic before the single division.
    """
    n = len(log.records)
    if n < 2:
        return None
    total = 0
    for k, rec in enumerate(log.records):
        total += rec.timestamp_s * (2 * k - n + 1)
    return total / _pair_count(n)


def pchf(log: UserActivityLog) -> float:
    """Percentage of comments carrying the spam-hint flag (0 for empty logs)."""
    n = len(log.records)
    if n == 0:
        return 0.0
    flagged = sum(1 for rec in log.records if rec.has_spam_hint)
    return 100 * flagged / n


def _pair_census(log: UserActivityLog) -> tuple[float, float, float]:
    """(crr, vidovp, crav) from one count of the text, video and (text, video) classes.

    Each text is normalized once. vidovp is the complement of the same-video
    pair count; crav is same-text pairs minus same-text-same-video pairs.
    """
    n = len(log.records)
    if n < 2:
        return 0.0, 0.0, 0.0
    texts = [normalize_text(rec.text) for rec in log.records]
    videos = [rec.video_id for rec in log.records]
    pairs = _pair_count(n)
    same_text = _same_class_pairs(texts)
    same_video = _same_class_pairs(videos)
    # A same-text-same-video pair is a same-text pair: none when no texts match.
    same_text_and_video = _same_class_pairs(list(zip(texts, videos))) if same_text else 0
    return (
        same_text / pairs,
        (pairs - same_video) / pairs,
        (same_text - same_text_and_video) / pairs,
    )


def crr(log: UserActivityLog) -> float:
    """Fraction of unordered pairs with exactly matching normalized text."""
    return _pair_census(log)[0]


def vidovp(log: UserActivityLog) -> float:
    """Fraction of unordered pairs posted on different videos (0 when all share one)."""
    return _pair_census(log)[1]


def crav(log: UserActivityLog) -> float:
    """Fraction of pairs matching in text AND posted on different videos."""
    return _pair_census(log)[2]


def _feature_values(log: UserActivityLog) -> tuple[int, float | None, float, float, float, float]:
    """A FeatureVector's fields after user_id: n_comments, atdc_s, pchf_pct, crr, vidovp, crav."""
    return (len(log.records), atdc(log), pchf(log), *_pair_census(log))


def feature_vector(log: UserActivityLog, mode: str = MODE_CANONICAL) -> FeatureVector:
    """Assemble all indicators plus the comment count for one user.

    mode is here only for bench/traced_cli.py; any but MODE_CANONICAL is a ValueError.
    """
    if mode != MODE_CANONICAL:
        raise ValueError(f"unknown normalization mode: {mode!r}")
    return FeatureVector(log.user_id, *_feature_values(log))
