"""Shared domain types, validation, and canonical serialization.

Everything downstream (ingest, features, classifier, report) works on the
types defined here. All types are immutable value objects: once constructed
they can be shared freely across threads or workers.

The canonical wire format for a comment record is one JSON object per line:

    {"user_id": str, "comment_id": str?, "video_id": str,
     "published_at": RFC3339 string, "text": str, "has_spam_hint": bool}

Timestamps travel as RFC3339 strings (human-auditable fixtures) and live
internally as integer Unix epoch seconds (unambiguous arithmetic).
Sub-second precision in input is truncated.
"""

from __future__ import annotations

import json
import math
import operator
import re
import sys
import time
from datetime import datetime
from enum import Enum
from json.encoder import encode_basestring as _quote
from typing import NamedTuple


class ValidationError(ValueError):
    """A raw record violates a domain invariant."""


class EmptyUserId(ValidationError):
    pass


class EmptyVideoId(ValidationError):
    pass


class NegativeTimestamp(ValidationError):
    pass


class LoneSurrogate(ValidationError):
    """A string field holds a lone UTF-16 surrogate, which UTF-8 cannot encode."""


class MixedUsers(ValueError):
    """A record with a foreign user_id was passed to another user's log."""


class ConfigError(ValueError):
    """A rule configuration file is malformed or carries unknown keys."""


class _CommentRecordFields(NamedTuple):
    """The fields of CommentRecord, in order; build records through CommentRecord."""

    user_id: str
    video_id: str
    timestamp_s: int
    text: str = ""
    has_spam_hint: bool = False
    comment_id: str | None = None


class CommentRecord(_CommentRecordFields):
    """One comment event: who commented on what, when, and what they wrote.

    user_id and video_id are trimmed on construction and must be non-empty;
    they are interned, so all records of one user (or one video) share one
    string object.
    timestamp_s is integer seconds since the Unix epoch (UTC), never negative.
    comment_id is optional; when present it is expected to be unique within
    one user's log (build_log enforces this by deduplication).

    A tuple underneath: immutable, hashable, equal by value, and validated
    once, here, however it is built (_replace goes through _make).
    """

    __slots__ = ()

    def __new__(
        cls,
        user_id: str,
        video_id: str,
        timestamp_s: int,
        text: str = "",
        has_spam_hint: bool = False,
        comment_id: str | None = None,
    ) -> CommentRecord:
        user_id = sys.intern(user_id.strip())
        video_id = sys.intern(video_id.strip())
        timestamp_s = int(timestamp_s)
        if not user_id:
            raise EmptyUserId("user_id is empty")
        if not video_id:
            raise EmptyVideoId("video_id is empty")
        if timestamp_s < 0:
            raise NegativeTimestamp(f"timestamp_s is negative: {timestamp_s}")
        return tuple.__new__(cls, (user_id, video_id, timestamp_s, text, has_spam_hint, comment_id))

    @classmethod
    def _make(cls, iterable) -> CommentRecord:
        return cls(*iterable)


class _Value:
    """Base of the value types: a slot per field, equal by value within one type only.

    repr is Type(field=value, ...); copy and pickle rebuild an object through
    __init__, so its checks run again.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


_set_field = object.__setattr__


class _Frozen(_Value):
    """A hashable _Value: __init__ sets each field once, with _set_field; none can change."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


class UserActivityLog(_Frozen):
    """One user's recent comment records, ascending by timestamp.

    Construct via build_log, which sorts, deduplicates, and checks ownership.
    """

    __slots__ = ("user_id", "records")

    def __init__(self, user_id: str, records: tuple[CommentRecord, ...]) -> None:
        _set_field(self, "user_id", user_id)
        _set_field(self, "records", records)
        seen_ids: set[str] = set()
        times: list[int] = []
        for uid, _, ts, _, _, cid in records:
            if uid != user_id:
                raise MixedUsers(f"record for {uid!r} in log of {user_id!r}")
            if cid is not None:
                if cid in seen_ids:
                    raise ValueError(f"duplicate comment_id {cid!r}")
                seen_ids.add(cid)
            times.append(ts)
        if times != sorted(times):
            raise ValueError("records are not sorted by timestamp_s")

    def __len__(self) -> int:
        return len(self.records)


def build_log(user_id: str, records: list[CommentRecord]) -> UserActivityLog:
    """Assemble a UserActivityLog from unordered records.

    Records are sorted ascending by timestamp, ties broken by comment_id then
    input order. Duplicate comment_id values are collapsed keeping the first
    occurrence (in input order); records without a comment_id are never
    deduplicated. Raises MixedUsers if any record belongs to another user.
    """
    seen_ids: set[str] = set()
    deduped: list[CommentRecord] = []
    for rec in records:
        if rec.comment_id is not None:
            if rec.comment_id in seen_ids:
                continue
            seen_ids.add(rec.comment_id)
        deduped.append(rec)
    deduped.sort(key=lambda rec: (rec.timestamp_s, rec.comment_id or ""))
    return UserActivityLog(user_id=user_id, records=tuple(deduped))


class FeatureVector(_Frozen):
    """Per-user values of the usage-based spam indicators.

    atdc_s    mean absolute time difference over all unordered comment pairs,
              in seconds; absent (None) when the log has fewer than 2 comments.
    pchf_pct  percentage of comments carrying the spam-hint flag, 0..100.
    crr       fraction of unordered pairs with exactly matching text, 0..1.
              This value doubles as the comment-overlap (COMOVP) indicator.
    vidovp    fraction of unordered pairs posted on different videos, 0..1.
    crav      fraction of unordered pairs that match in text AND differ in
              video, 0..1. Always <= min(crr, vidovp).
    """

    __slots__ = ("user_id", "n_comments", "atdc_s", "pchf_pct", "crr", "vidovp", "crav")

    def __init__(self, user_id: str, n_comments: int, atdc_s: float | None, pchf_pct: float,
                 crr: float, vidovp: float, crav: float) -> None:
        _set_field(self, "user_id", user_id)
        _set_field(self, "n_comments", n_comments)
        _set_field(self, "atdc_s", atdc_s)
        _set_field(self, "pchf_pct", pchf_pct)
        _set_field(self, "crr", crr)
        _set_field(self, "vidovp", vidovp)
        _set_field(self, "crav", crav)
        if self.n_comments < 0:
            raise ValueError("n_comments is negative")
        if (self.atdc_s is not None) != (self.n_comments >= 2):
            raise ValueError("atdc_s must be present exactly when n_comments >= 2")
        if self.atdc_s is not None and not 0 <= self.atdc_s < math.inf:
            raise ValueError(f"atdc_s must be finite and non-negative: {self.atdc_s}")
        if not 0.0 <= self.pchf_pct <= 100.0:
            raise ValueError(f"pchf_pct out of range: {self.pchf_pct}")
        for name in ("crr", "vidovp", "crav"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} out of range: {value}")
        if self.crav > self.crr or self.crav > self.vidovp:
            raise ValueError("crav exceeds crr or vidovp")


class Label(str, Enum):
    """User-level classification outcome."""

    SPAMMER = "spammer"
    LEGIT = "legit"
    INSUFFICIENT = "insufficient"


class Indicator(str, Enum):
    """The four rule clauses, in rule order."""

    PCHF = "PCHF"
    ATDC = "ATDC"
    COMOVP = "COMOVP"
    VIDOVP = "VIDOVP"


_COMPARE = {">": operator.gt, "<": operator.lt}


class Clause(NamedTuple):
    """One clause of the spammer rule: `feature op threshold`, strictly.

    feature names a FeatureVector field and threshold a RuleConfig field;
    fields ending in _s hold seconds.
    """

    indicator: Indicator
    feature: str
    op: str
    threshold: str

    @property
    def unit(self) -> str:
        return "s" if self.threshold.endswith("_s") else ""

    def fires(self, fv: FeatureVector, cfg: RuleConfig) -> bool:
        """Whether this clause holds for fv; an absent feature never fires."""
        value = getattr(fv, self.feature)
        return value is not None and _COMPARE[self.op](value, getattr(cfg, self.threshold))


# The spammer rule: a user is a spammer when any clause fires. Rule order.
CLAUSES = (
    Clause(Indicator.PCHF, "pchf_pct", ">", "pchf_gt"),
    Clause(Indicator.ATDC, "atdc_s", "<", "atdc_lt_s"),
    Clause(Indicator.COMOVP, "crr", ">", "comovp_gt"),
    Clause(Indicator.VIDOVP, "vidovp", ">", "vidovp_gt"),
)


class RuleConfig(_Frozen):
    """Thresholds for the spammer rule (the OR of CLAUSES).

    The rule applies only to users with strictly more than min_comments
    comments; all four threshold comparisons are strict. Defaults are the
    empirically derived values; they are configuration, not constants.
    """

    __slots__ = ("min_comments", "pchf_gt", "atdc_lt_s", "comovp_gt", "vidovp_gt")

    def __init__(self, min_comments: int = 5, pchf_gt: float = 70.0, atdc_lt_s: float = 150.0,
                 comovp_gt: float = 0.60, vidovp_gt: float = 0.60) -> None:
        _set_field(self, "min_comments", min_comments)
        _set_field(self, "pchf_gt", pchf_gt)
        _set_field(self, "atdc_lt_s", atdc_lt_s)
        _set_field(self, "comovp_gt", comovp_gt)
        _set_field(self, "vidovp_gt", vidovp_gt)
        if self.min_comments < 1:
            raise ConfigError(f"min_comments must be positive: {self.min_comments}")
        for clause in CLAUSES:
            value = getattr(self, clause.threshold)
            if not math.isfinite(value):
                raise ConfigError(f"{clause.threshold} must be finite: {value}")
        if not 0.0 <= self.pchf_gt <= 100.0:
            raise ConfigError(f"pchf_gt out of range [0, 100]: {self.pchf_gt}")
        for name in ("comovp_gt", "vidovp_gt"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} out of range [0, 1]: {value}")


class Verdict(_Frozen):
    """Classification of one user, with the indicators that fired; repr omits the features."""

    __slots__ = ("user_id", "label", "triggered", "features")

    def __init__(self, user_id: str, label: Label, triggered: frozenset[Indicator],
                 features: FeatureVector) -> None:
        _set_field(self, "user_id", user_id)
        _set_field(self, "label", label)
        _set_field(self, "triggered", triggered)
        _set_field(self, "features", features)
        if (label is Label.SPAMMER) != bool(triggered):
            raise ValueError("label spammer iff triggered is non-empty")

    def __repr__(self) -> str:
        return (f"Verdict(user_id={self.user_id!r}, label={self.label!r}, "
                f"triggered={self.triggered!r})")


# --- timestamp wire format -------------------------------------------------

# YYYY-MM-DD(T|t)HH:MM:SS[.digits][Z|z|±HH:MM], ASCII digits only; groups are
# the date, the time and the numeric offset.
_RFC3339 = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2})[Tt]([0-9]{2}:[0-9]{2}:[0-9]{2})(?:\.[0-9]+)?"
    r"(?:[Zz]|([+-][0-9]{2}:[0-5][0-9]))?"
)


# 9999-12-31T23:59:59Z, the last instant format_rfc3339 can write.
_MAX_TIMESTAMP_S = 253402300799


def parse_rfc3339(value: str) -> int:
    """Parse an RFC3339 timestamp into epoch seconds, truncating sub-seconds.

    A missing UTC offset is taken as UTC. Anything but the layout above
    raises ValueError, as does an out-of-range field or an offset of 24h or
    more (datetime checks those), or an instant after 9999-12-31T23:59:59Z
    (a local year-9999 time with a negative offset), which could not be
    written back.
    """
    match = _RFC3339.fullmatch(value)
    if match is None:
        raise ValueError(f"not an RFC3339 timestamp: {value!r}")
    date, clock, offset = match.groups()
    timestamp_s = int(datetime.fromisoformat(f"{date}T{clock}{offset or '+00:00'}").timestamp())
    if timestamp_s > _MAX_TIMESTAMP_S:
        raise ValueError(f"timestamp after 9999-12-31T23:59:59Z: {value!r}")
    return timestamp_s


def format_rfc3339(timestamp_s: int) -> str:
    """Render epoch seconds as a canonical RFC3339 string (Z-suffixed).

    Raises ValueError for an instant before the epoch or after
    9999-12-31T23:59:59Z, which parse_rfc3339 would not read back.
    """
    if not 0 <= timestamp_s <= _MAX_TIMESTAMP_S:
        raise ValueError(f"timestamp_s out of range: {timestamp_s}")
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(timestamp_s))


# --- canonical JSON --------------------------------------------------------

# Each line below is exactly json.dumps(obj, ensure_ascii=False) of the
# canonical object (tests/helpers.py keeps those objects as the oracle),
# built without the dict and the encoder walk: strings go through the JSON
# string encoder, numbers through repr, as json.dumps writes finite ones.

def record_to_json(rec: CommentRecord) -> str:
    """Canonical JSON line for one record (no newline); comment_id omitted when absent.

    Keys in order: user_id, comment_id, video_id, published_at, text,
    has_spam_hint.
    """
    user_id, video_id, timestamp_s, text, has_spam_hint, comment_id = rec
    cid = "" if comment_id is None else f'"comment_id": {_quote(comment_id)}, '
    return (
        f'{{"user_id": {_quote(user_id)}, {cid}"video_id": {_quote(video_id)}, '
        f'"published_at": "{format_rfc3339(timestamp_s)}", "text": {_quote(text)}, '
        f'"has_spam_hint": {"true" if has_spam_hint else "false"}}}'
    )


def decode_record(obj: dict) -> CommentRecord:
    """Build a validated record from a canonical JSON object.

    A missing has_spam_hint defaults to False (absence of a tag is not
    evidence of spam); a missing text defaults to the empty string.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"expected JSON object, got {type(obj).__name__}")
    user_id = _required_str(obj, "user_id")
    video_id = _required_str(obj, "video_id")
    published_at = _required_str(obj, "published_at")
    comment_id = obj.get("comment_id")
    if comment_id is not None and not isinstance(comment_id, str):
        raise ValidationError("comment_id must be a string")
    hint = obj.get("has_spam_hint", False)
    if not isinstance(hint, bool):
        raise ValidationError("has_spam_hint must be a boolean")
    text = obj.get("text", "")
    if not isinstance(text, str):
        raise ValidationError("text must be a string")
    return CommentRecord(user_id, video_id, parse_rfc3339(published_at), text, hint, comment_id)


def _required_str(obj: dict, key: str) -> str:
    value = obj.get(key)
    if isinstance(value, str):
        return value
    if value is None and key not in obj:
        raise ValidationError(f"missing field {key!r}")
    raise ValidationError(f"{key} must be a string")


_SURROGATE = re.compile("[\ud800-\udfff]")


def check_no_surrogates(rec: CommentRecord) -> CommentRecord:
    """rec itself; raises LoneSurrogate when a string field holds a surrogate code point.

    JSON's \\u escapes can spell a lone UTF-16 surrogate, which no UTF-8
    text can carry, so such a record could never be written back.
    """
    for value in (rec.user_id, rec.video_id, rec.text, rec.comment_id or ""):
        if _SURROGATE.search(value):
            raise LoneSurrogate(f"lone surrogate in {value!r}")
    return rec


def verdict_to_json(verdict: Verdict) -> str:
    """Canonical JSON line for one verdict (no newline), its features nested.

    triggered lists the indicators in rule order; the features omit atdc_s
    when it is absent.
    """
    fv = verdict.features
    triggered = ", ".join(f'"{ind.value}"' for ind in Indicator if ind in verdict.triggered)
    atdc = "" if fv.atdc_s is None else f'"atdc_s": {fv.atdc_s!r}, '
    return (
        f'{{"user_id": {_quote(verdict.user_id)}, "label": "{verdict.label.value}", '
        f'"triggered": [{triggered}], "features": {{"user_id": {_quote(fv.user_id)}, '
        f'"n_comments": {fv.n_comments!r}, {atdc}"pchf_pct": {fv.pchf_pct!r}, '
        f'"crr": {fv.crr!r}, "vidovp": {fv.vidovp!r}, "crav": {fv.crav!r}}}}}'
    )


def rule_config_from_obj(obj: dict) -> RuleConfig:
    """Build a RuleConfig from a JSON object, rejecting unknown keys.

    Unknown keys are an error rather than ignored: a typo in a threshold
    name would otherwise silently fall back to the default. The optional
    "combine" key names the only combination there is, "or", in any case.
    """
    if not isinstance(obj, dict):
        raise ConfigError("rule config must be a JSON object")
    unknown = sorted(set(obj) - set(RuleConfig.__slots__) - {"combine"})
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]!r}")
    combine = obj.get("combine", "or")
    if not isinstance(combine, str) or combine.lower() != "or":
        raise ConfigError(f"unsupported combine mode: {combine!r}")
    kwargs: dict = {}
    if "min_comments" in obj:
        if not isinstance(obj["min_comments"], int) or isinstance(obj["min_comments"], bool):
            raise ConfigError("min_comments must be an integer")
        kwargs["min_comments"] = obj["min_comments"]
    for clause in CLAUSES:
        if clause.threshold in obj:
            value = obj[clause.threshold]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{clause.threshold} must be a number")
            kwargs[clause.threshold] = float(value)
    return RuleConfig(**kwargs)


def load_rule_config(path: str) -> RuleConfig:
    """Load a RuleConfig from a UTF-8 JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return rule_config_from_obj(obj)
