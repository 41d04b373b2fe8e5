"""Shared domain types, validation, and canonical serialization.

Everything downstream (ingest, features, classifier, report) works on the
types defined here. All types are immutable value objects: once constructed
they can be shared freely across threads or workers. Each validated type
(CommentRecord, UserActivityLog, FeatureVector, RuleConfig, Verdict) is a
named tuple on _Value whose __new__ checks every field.

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
from collections import namedtuple
from datetime import datetime, timedelta, timezone
from enum import Enum
from json.encoder import encode_basestring as _quote
from typing import Iterable, NamedTuple


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


class _Value:
    """Base of the validated value types, each a named tuple whose __new__ checks every field.

    A tuple underneath: immutable, hashable, equal by value (to a plain tuple
    of its fields too), and validated once, in __new__, however it is built:
    _replace goes through _make, and copy and pickle call __new__ again.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):  # every pickle protocol, 0 and 1 too, calls __new__
        return type(self), tuple(self)


class CommentRecord(_Value, namedtuple(
        "CommentRecord", "user_id video_id timestamp_s text has_spam_hint comment_id")):
    """One comment event: who commented on what, when, and what they wrote.

    user_id and video_id are trimmed on construction and must be non-empty.
    No process-wide table holds them: a parse that keeps its records passes
    them through share_ids, whose table of one string per distinct id is
    freed when it returns.
    timestamp_s is integer seconds since the Unix epoch (UTC), never negative.
    comment_id is optional: trimmed, absent (None) when blank, and unique in
    one user's log (UserActivityLog keeps the first record of each).
    A field of the wrong type (a bool is no int) is a ValidationError naming it.

    No string field may hold a lone UTF-16 surrogate (LoneSurrogate): JSON's
    \\u escapes can spell one, but no UTF-8 text can carry it, so such a
    record could never be written back.
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
        if comment_id is not None and not isinstance(comment_id, str):
            raise ValidationError("comment_id must be a string")
        if not isinstance(has_spam_hint, bool):
            raise ValidationError("has_spam_hint must be a boolean")
        if not isinstance(text, str):
            raise ValidationError("text must be a string")
        if isinstance(timestamp_s, bool) or not isinstance(timestamp_s, int):
            raise ValidationError("timestamp_s must be an integer")
        if not isinstance(video_id, str):
            raise ValidationError("video_id must be a string")
        if not isinstance(user_id, str):
            raise ValidationError("user_id must be a string")
        user_id = user_id.strip()
        video_id = video_id.strip()
        comment_id = (comment_id.strip() or None) if comment_id else None
        if not user_id:
            raise EmptyUserId("user_id is empty")
        if not video_id:
            raise EmptyVideoId("video_id is empty")
        if timestamp_s < 0:
            raise NegativeTimestamp(f"timestamp_s is negative: {timestamp_s}")
        # A string that holds a surrogate is never ASCII, and isascii() only reads a flag.
        # Strict UTF-8 encoding fails on a surrogate and on nothing else.
        if not (user_id.isascii() and video_id.isascii() and text.isascii()
                and (comment_id is None or comment_id.isascii())):
            for value in (user_id, video_id, text, comment_id or ""):
                if not value.isascii():
                    try:
                        value.encode("utf-8")
                    except UnicodeEncodeError:
                        raise LoneSurrogate(f"lone surrogate in {value!r}") from None
        return tuple.__new__(cls, (user_id, video_id, timestamp_s, text, has_spam_hint, comment_id))


_TIMESTAMP = operator.attrgetter("timestamp_s")  # UserActivityLog's sort key


class UserActivityLog(_Value, namedtuple("UserActivityLog", "user_id records")):
    """One user's recent comment records, ascending by timestamp.

    The constructor takes the records in any order, from any iterable. It
    raises MixedUsers at the first record of another user, keeps the first
    record of each comment_id (records without one are never deduplicated),
    and sorts stably by published_at: records of one second keep their
    input order. A log built from a log's own records is that log again.
    """

    __slots__ = ()

    def __new__(cls, user_id: str, records: Iterable[CommentRecord]) -> UserActivityLog:
        seen_ids: set[str] = set()
        kept: list[CommentRecord] = []
        for rec in records:
            if rec.user_id != user_id:
                raise MixedUsers(f"record for {rec.user_id!r} in log of {user_id!r}")
            cid = rec.comment_id
            if cid is not None:
                if cid in seen_ids:
                    continue
                seen_ids.add(cid)
            kept.append(rec)
        kept.sort(key=_TIMESTAMP)
        return tuple.__new__(cls, (user_id, tuple(kept)))

    def __len__(self) -> int:
        return len(self.records)


class FeatureVector(_Value, namedtuple(
        "FeatureVector", "user_id n_comments atdc_s pchf_pct crr vidovp crav")):
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

    __slots__ = ()

    def __new__(cls, user_id: str, n_comments: int, atdc_s: float | None, pchf_pct: float,
                crr: float, vidovp: float, crav: float) -> FeatureVector:
        if n_comments < 0:
            raise ValueError("n_comments is negative")
        if (atdc_s is not None) != (n_comments >= 2):
            raise ValueError("atdc_s must be present exactly when n_comments >= 2")
        if atdc_s is not None and not 0 <= atdc_s < math.inf:
            raise ValueError(f"atdc_s must be finite and non-negative: {atdc_s}")
        if not 0.0 <= pchf_pct <= 100.0:
            raise ValueError(f"pchf_pct out of range: {pchf_pct}")
        if not (0.0 <= crr <= 1.0 and 0.0 <= vidovp <= 1.0 and 0.0 <= crav <= 1.0):
            for name, value in (("crr", crr), ("vidovp", vidovp), ("crav", crav)):
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"{name} out of range: {value}")
        if crav > crr or crav > vidovp:
            raise ValueError("crav exceeds crr or vidovp")
        return tuple.__new__(cls, (user_id, n_comments, atdc_s, pchf_pct, crr, vidovp, crav))


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


def _check_number(name: str, value, error: type[ConfigError] = ConfigError):
    """value, if it is an int or a float (a bool is neither); else error naming name."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{name} must be a number")
    return value


class RuleConfig(_Value, namedtuple(
        "RuleConfig", "min_comments pchf_gt atdc_lt_s comovp_gt vidovp_gt")):
    """Thresholds for the spammer rule (the OR of CLAUSES).

    The rule applies only to users with strictly more than min_comments
    comments; all four threshold comparisons are strict. Defaults are the
    empirically derived values; they are configuration, not constants.
    min_comments is a positive int and each threshold a finite number, stored
    as a float (a bool is neither); types are checked first, then ranges.
    """

    __slots__ = ()

    def __new__(cls, min_comments: int = 5, pchf_gt: float = 70.0, atdc_lt_s: float = 150.0,
                comovp_gt: float = 0.60, vidovp_gt: float = 0.60) -> RuleConfig:
        if isinstance(min_comments, bool) or not isinstance(min_comments, int):
            raise ConfigError("min_comments must be an integer")
        thresholds = (pchf_gt, atdc_lt_s, comovp_gt, vidovp_gt)  # CLAUSES order
        for clause, value in zip(CLAUSES, thresholds):
            _check_number(clause.threshold, value)
        if min_comments < 1:
            raise ConfigError(f"min_comments must be positive: {min_comments}")
        for clause, value in zip(CLAUSES, thresholds):
            if not -sys.float_info.max <= value <= sys.float_info.max:  # or an int no float holds
                raise ConfigError(f"{clause.threshold} must be finite: {value}")
        pchf_gt, atdc_lt_s, comovp_gt, vidovp_gt = map(float, thresholds)
        if not 0.0 <= pchf_gt <= 100.0:
            raise ConfigError(f"pchf_gt out of range [0, 100]: {pchf_gt}")
        for name, value in (("comovp_gt", comovp_gt), ("vidovp_gt", vidovp_gt)):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} out of range [0, 1]: {value}")
        return tuple.__new__(cls, (min_comments, pchf_gt, atdc_lt_s, comovp_gt, vidovp_gt))


class Verdict(_Value, namedtuple("Verdict", "user_id label triggered features")):
    """Classification of one user, with the indicators that fired; repr omits the features."""

    __slots__ = ()

    def __new__(cls, user_id: str, label: Label, triggered: frozenset[Indicator],
                features: FeatureVector) -> Verdict:
        if (label is Label.SPAMMER) != bool(triggered):
            raise ValueError("label spammer iff triggered is non-empty")
        return tuple.__new__(cls, (user_id, label, triggered, features))

    def __repr__(self) -> str:
        return (f"Verdict(user_id={self.user_id!r}, label={self.label!r}, "
                f"triggered={self.triggered!r})")


# --- timestamp wire format -------------------------------------------------

# YYYY-MM-DD(T|t)HH:MM:SS[.digits][Z|z|±HH:MM], ASCII digits only; the one
# group is the numeric offset. Each optional part is an alternative with an
# empty branch, `(?:...|)`, which the re engine matches faster than `(?:...)?`.
_RFC3339 = re.compile(
    r"\d{4}-\d\d-\d\d[Tt]\d\d:\d\d:\d\d(?:\.\d+|)(?:[Zz]|([+-]\d\d:[0-5]\d)|)", re.ASCII
)

_EPOCH = datetime(1970, 1, 1)

# 9999-12-31T23:59:59Z, the last instant format_rfc3339 can write.
_MAX_TIMESTAMP_S = 253402300799


def parse_rfc3339(value: str) -> int:
    """Parse an RFC3339 timestamp into epoch seconds, truncating sub-seconds.

    A missing UTC offset is taken as UTC. Anything but the layout above
    raises ValueError, as does an out-of-range field or an offset of 24h or
    more (datetime checks those), or an instant after 9999-12-31T23:59:59Z
    (a local year-9999 time with a negative offset), which could not be
    written back.

    datetime.fromisoformat reads the first 19 characters, the local date
    and time, as a naive datetime, and the numeric offset, if any, is
    subtracted from its seconds since the epoch. The offset is checked
    first, so a value with a bad offset and a bad field gets the offset's
    error, as fromisoformat raises it.
    """
    match = _RFC3339.fullmatch(value)
    if match is None:
        raise ValueError(f"not an RFC3339 timestamp: {value!r}")
    offset = match[1]
    if offset is None:
        offset_s = 0
    else:
        offset_s = int(offset[:3]) * 3600 + int(offset[0] + offset[4:]) * 60
        if not -86400 < offset_s < 86400:
            timezone(timedelta(seconds=offset_s))  # raises datetime's own ValueError
    elapsed = datetime.fromisoformat(value[:19]) - _EPOCH
    timestamp_s = elapsed.days * 86400 + elapsed.seconds - offset_s
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


def share_ids(records: Iterable[CommentRecord]) -> list[CommentRecord]:
    """records as a list whose equal user_id and video_id strings are one object each.

    One table per call serves both fields. Equal strings pass the same checks,
    so each record is rebuilt with tuple.__new__, not CommentRecord.__new__.
    """
    new, shared = tuple.__new__, {}.setdefault  # shared(s, s): the first string equal to s
    return [new(CommentRecord, (shared(uid, uid), shared(vid, vid), ts, text, hint, cid))
            for uid, vid, ts, text, hint, cid in records]


def decode_record(obj: dict) -> CommentRecord:
    """Build a validated record from a canonical JSON object.

    Only the wire format is checked here (string ids and an RFC3339
    published_at, else ValueError); CommentRecord checks the rest. A missing
    has_spam_hint is False (a missing tag is no evidence of spam) and a
    missing text is empty. A caller that keeps many records shares their id
    strings with share_ids.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"expected JSON object, got {type(obj).__name__}")
    get = obj.get
    user_id, video_id, published_at = get("user_id"), get("video_id"), get("published_at")
    if not (isinstance(user_id, str) and isinstance(video_id, str)
            and isinstance(published_at, str)):  # name the first bad field, in this order
        user_id = _required_str(obj, "user_id")
        video_id = _required_str(obj, "video_id")
        published_at = _required_str(obj, "published_at")
    return CommentRecord(user_id, video_id, parse_rfc3339(published_at), get("text", ""),
                         get("has_spam_hint", False), get("comment_id"))


def _required_str(obj: dict, key: str) -> str:
    value = obj.get(key)
    if isinstance(value, str):
        return value
    if value is None and key not in obj:
        raise ValidationError(f"missing field {key!r}")
    raise ValidationError(f"{key} must be a string")


# Each indicator with its JSON string, in rule order, and each label's JSON string.
_INDICATOR_JSON = tuple((ind, f'"{ind.value}"') for ind in Indicator)
_LABEL_JSON = {label: f'"{label.value}"' for label in Label}


def verdict_to_json(verdict: Verdict) -> str:
    """Canonical JSON line for one verdict (no newline), its features nested.

    triggered lists the indicators in rule order; the features omit atdc_s
    when it is absent.
    """
    fv = verdict.features
    fired = verdict.triggered
    triggered = ", ".join([text for ind, text in _INDICATOR_JSON if ind in fired]) if fired else ""
    atdc = "" if fv.atdc_s is None else f'"atdc_s": {fv.atdc_s!r}, '
    return (
        f'{{"user_id": {_quote(verdict.user_id)}, "label": {_LABEL_JSON[verdict.label]}, '
        f'"triggered": [{triggered}], "features": {{"user_id": {_quote(fv.user_id)}, '
        f'"n_comments": {fv.n_comments!r}, {atdc}"pchf_pct": {fv.pchf_pct!r}, '
        f'"crr": {fv.crr!r}, "vidovp": {fv.vidovp!r}, "crav": {fv.crav!r}}}}}'
    )


def rule_config_from_obj(obj: dict) -> RuleConfig:
    """Build a RuleConfig from a JSON object, rejecting unknown keys.

    Unknown keys are an error rather than ignored: a typo in a threshold
    name would otherwise silently fall back to the default. The optional
    "combine" key names the only combination there is, "or", in any case;
    RuleConfig checks the other values.
    """
    if not isinstance(obj, dict):
        raise ConfigError("rule config must be a JSON object")
    unknown = sorted(set(obj) - set(RuleConfig._fields) - {"combine"})
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]!r}")
    combine = obj.get("combine", "or")
    if not isinstance(combine, str) or combine.lower() != "or":
        raise ConfigError(f"unsupported combine mode: {combine!r}")
    return RuleConfig(**{key: value for key, value in obj.items() if key != "combine"})


class DuplicateKey(ValueError):
    """A JSON object names one key twice."""


def reject_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    """json object_pairs_hook: the object as a dict, or DuplicateKey naming a repeated key.

    Plain json keeps the last of two equal keys without a word, so a config
    that sets a threshold twice would silently drop one setting.
    """
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise DuplicateKey(key)
        obj[key] = value
    return obj


def load_json_file(path: str, error: type[ConfigError] = ConfigError) -> object:
    """The JSON value in a UTF-8 file; error, naming the file, if it has none or repeats a key."""
    with open(path, encoding="utf-8-sig") as fh:  # drops one leading byte order mark
        try:
            return json.load(fh, object_pairs_hook=reject_duplicate_keys)
        except DuplicateKey as exc:
            raise error(f"duplicate key {exc.args[0]!r} in {path}") from exc
        except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise error(f"invalid JSON in {path}: {exc}") from exc


def load_rule_config(path: str) -> RuleConfig:
    """Load a RuleConfig from a UTF-8 JSON file; a key given twice is a ConfigError."""
    return rule_config_from_obj(load_json_file(path))
