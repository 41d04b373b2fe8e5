"""Domain type validation, log building, and canonical serialization."""

from __future__ import annotations

import json
import pickle
import re
import subprocess
import sys
import tracemalloc
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from spamminer.model import (
    CommentRecord,
    ConfigError,
    EmptyUserId,
    EmptyVideoId,
    FeatureVector,
    Indicator,
    Label,
    LoneSurrogate,
    MixedUsers,
    NegativeTimestamp,
    RuleConfig,
    UserActivityLog,
    ValidationError,
    Verdict,
    decode_record,
    format_rfc3339,
    parse_rfc3339,
    record_to_json,
    rule_config_from_obj,
    share_ids,
    verdict_to_json,
)

from helpers import (
    encode_record,
    encode_verdict,
    make_record,
    reference_format_rfc3339,
    reference_log_records,
    reference_parse_rfc3339,
)


class TestValidateRecord:
    def test_well_formed(self):
        rec = CommentRecord("u1", "v1", 100, text="hi", has_spam_hint=False)
        assert rec.user_id == "u1"
        assert rec.video_id == "v1"
        assert rec.timestamp_s == 100
        assert rec.text == "hi"
        assert rec.has_spam_hint is False
        assert rec.comment_id is None

    def test_trims_identifiers(self):
        rec = CommentRecord("  u1 ", " v1\t", 0)
        assert rec.user_id == "u1"
        assert rec.video_id == "v1"

    def test_empty_user_id(self):
        with pytest.raises(EmptyUserId):
            CommentRecord("", "v1", 100)

    def test_whitespace_user_id(self):
        with pytest.raises(EmptyUserId):
            CommentRecord("   ", "v1", 100)

    def test_empty_video_id(self):
        with pytest.raises(EmptyVideoId):
            CommentRecord("u1", "", 100)

    def test_negative_timestamp(self):
        with pytest.raises(NegativeTimestamp):
            CommentRecord("u1", "v1", -5)

    def test_zero_timestamp_allowed(self):
        assert CommentRecord("u1", "v1", 0).timestamp_s == 0

    def test_immutable_and_hashable_by_value(self):
        rec = CommentRecord("u1", "v1", 100, text="hi", comment_id="c1")
        with pytest.raises(AttributeError):
            rec.user_id = "u2"
        assert len({rec, CommentRecord(" u1", "v1 ", 100, text="hi", comment_id="c1")}) == 1

    def test_replace_validates(self):
        with pytest.raises(EmptyVideoId):
            CommentRecord("u1", "v1", 100)._replace(video_id=" ")

    @pytest.mark.parametrize("field", ["user_id", "video_id", "text", "comment_id"])
    @pytest.mark.parametrize("build", ["direct", "_replace", "_make"])
    @pytest.mark.parametrize("value", ["\ud800", "x\udfff y"])
    def test_lone_surrogate_rejected(self, field, build, value):
        fields = {"user_id": "u1", "video_id": "v1", "timestamp_s": 100, "text": "hi",
                  "has_spam_hint": False, "comment_id": "c1"}  # in CommentRecord._fields order
        bad = {**fields, field: value}
        with pytest.raises(LoneSurrogate, match=re.escape(f"lone surrogate in {value!r}")):
            if build == "direct":
                CommentRecord(**bad)
            elif build == "_replace":
                CommentRecord(**fields)._replace(**{field: value})
            else:
                CommentRecord._make(bad.values())

    @pytest.mark.parametrize("value", ["\u00e9", "\U0001F600", "\ud7ff\ue000"])
    def test_non_ascii_accepted(self, value):
        rec = CommentRecord(value, value, 0, value, comment_id=value)
        assert tuple(rec) == (value, value, 0, value, False, value)

    @pytest.mark.parametrize("args, message", [
        (("u", "v", 0, 5), "text must be a string"),
        (("u", "v", 0, "x", "yes"), "has_spam_hint must be a boolean"),
        (("u", "v", 0, "x", False, 7), "comment_id must be a string"),
        (("u", "v", "5"), "timestamp_s must be an integer"),
        (("u", "v", 5.9), "timestamp_s must be an integer"),
        (("u", "v", True), "timestamp_s must be an integer"),
        ((5, "v", 0), "user_id must be a string"),
        ((b"u", "v", 0), "user_id must be a string"),
        (("u", None, 0), "video_id must be a string"),
        (("u", b"v", 0), "video_id must be a string"),
    ])
    @pytest.mark.parametrize("build", ["direct", "_replace"])
    def test_mistyped_field_rejected(self, args, message, build):
        field = message.split()[0]
        with pytest.raises(ValidationError, match=f"^{message}$"):
            if build == "direct":
                CommentRecord(*args)
            else:
                value = args[CommentRecord._fields.index(field)]
                CommentRecord("u", "v", 0)._replace(**{field: value})

    def test_types_checked_first(self):
        with pytest.raises(ValidationError, match="^text must be a string$"):
            CommentRecord(" ", "v", -1, None)
        with pytest.raises(ValidationError, match="^comment_id must be a string$"):
            CommentRecord("u", "v", 0, 5, "yes", 7)

    @pytest.mark.parametrize("cid, expected", [
        (None, None), ("", None), (" \t", None), (" c1 ", "c1"), ("c1", "c1")])
    def test_comment_id_trimmed_and_blank_is_absent(self, cid, expected):
        assert CommentRecord("u", "v", 0, comment_id=cid).comment_id == expected
        assert CommentRecord("u", "v", 0)._replace(comment_id=cid).comment_id == expected

    def test_first_fault_reported(self):
        with pytest.raises(EmptyVideoId):
            CommentRecord("u", " ", 0, "\ud800")
        with pytest.raises(NegativeTimestamp):
            CommentRecord("\ud800", "v", -1)
        with pytest.raises(LoneSurrogate, match="'v\\\\ud800'"):
            CommentRecord("u", "v\ud800", 0, "\udfff", comment_id="\ud800")


class TestBuildLog:
    def test_sorts_by_timestamp(self):
        records = [make_record(ts=t) for t in (30, 10, 20)]
        log = UserActivityLog("u1", records)
        assert [rec.timestamp_s for rec in log.records] == [10, 20, 30]

    def test_tie_break_by_comment_id(self):
        records = [make_record(ts=5, cid="b"), make_record(ts=5, cid="a")]
        log = UserActivityLog("u1", records)
        assert [rec.comment_id for rec in log.records] == ["a", "b"]

    def test_dedup_keeps_first_occurrence(self):
        first = make_record(ts=10, cid="c1", text="first")
        second = make_record(ts=20, cid="c1", text="second")
        log = UserActivityLog("u1", [first, second])
        assert len(log) == 1
        assert log.records[0].text == "first"

    def test_missing_comment_id_never_deduplicated(self):
        records = [make_record(ts=1), make_record(ts=1), make_record(ts=1)]
        assert len(UserActivityLog("u1", records)) == 3

    def test_mixed_users_rejected(self):
        with pytest.raises(MixedUsers):
            UserActivityLog("u1", [make_record(user="u2")])

    def test_equal_timestamps_are_legal(self):
        log = UserActivityLog("u1", [make_record(ts=7, cid="a"), make_record(ts=7, cid="b")])
        assert len(log) == 2

    def test_direct_construction_checks_owner(self):
        records = (make_record(ts=1), make_record(user="u2", ts=2), make_record(user="u3", ts=3))
        with pytest.raises(MixedUsers, match="'u2' in log of 'u1'"):
            UserActivityLog("u1", records)

    def test_foreign_record_repeating_a_comment_id_rejected(self):
        # Ownership is checked before deduplication: a record of another user
        # is no duplicate of the user's own record, whatever its comment_id.
        records = [make_record(ts=3, cid="c1"), make_record(ts=1, cid="c1"),
                   make_record(user="u2", ts=2, cid="c1")]
        with pytest.raises(MixedUsers, match="'u2' in log of 'u1'"):
            UserActivityLog("u1", records)
        with pytest.raises(MixedUsers, match="'u2' in log of 'u1'"):
            UserActivityLog("u1", records[::2])

    def test_records_from_any_iterable(self):
        records = [make_record(ts=t, cid=f"c{t}") for t in (3, 1, 2)]
        log = UserActivityLog("u1", iter(records))
        assert log == UserActivityLog("u1", records)
        assert [rec.timestamp_s for rec in log.records] == [1, 2, 3]
        assert type(log.records) is tuple

    def test_all_ids_tied_timestamps_sort_by_comment_id(self):
        # Every record has a comment_id: tied timestamps order by it, whatever the input order.
        records = [make_record(ts=ts, cid=cid)
                   for ts, cid in ((5, "c4"), (5, "c3"), (1, "c2"), (5, "c1"), (1, "c0"))]
        log = UserActivityLog("u1", records)
        assert log.records == reference_log_records(records)
        assert [rec.comment_id for rec in log.records] == ["c0", "c2", "c1", "c3", "c4"]

    def test_record_without_id_sorts_first_among_tied_timestamps(self):
        # One record has no comment_id: it sorts as "", before the ids its timestamp ties with.
        records = [make_record(ts=5, cid="b"), make_record(ts=1, cid="z"),
                   make_record(ts=5, text="no id"), make_record(ts=5, cid="a")]
        log = UserActivityLog("u1", records)
        assert log.records == reference_log_records(records)
        assert [rec.comment_id for rec in log.records] == ["z", None, "a", "b"]

    def test_value_types_have_no_instance_dict(self):
        log = UserActivityLog("u1", [make_record(ts=1)])
        fv = FeatureVector("u1", 1, None, 0.0, 0.0, 0.0, 0.0)
        verdict = Verdict("u1", Label.LEGIT, frozenset(), fv)
        for obj in (log, fv, verdict):
            assert not hasattr(obj, "__dict__"), type(obj).__name__


# (timestamp_s, text, comment_id): few values, so ties and repeated comment_ids are common.
record_row = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["a", "b", "c"]),
    st.one_of(st.none(), st.sampled_from(["c1", "c2", "c3", "c4", "c5"])),
)
record_rows = st.lists(record_row, max_size=20)


def _records(rows, user="u1") -> list[CommentRecord]:
    return [make_record(user=user, ts=ts, text=text, cid=cid) for ts, text, cid in rows]


@given(record_rows, st.randoms(use_true_random=False))
def test_log_equals_reference_in_any_input_order(rows, rng):
    records = _records(rows)
    rng.shuffle(records)
    assert UserActivityLog("u1", records) == ("u1", reference_log_records(records))


@given(record_rows)
def test_log_of_its_own_records_is_the_same_log(rows):
    once = UserActivityLog("u1", _records(rows))
    assert UserActivityLog("u1", once.records) == once


@given(record_rows)
def test_pickle_and_replace_give_the_same_log(rows):
    log = UserActivityLog("u1", _records(rows))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(log, protocol)) == log
    assert log._replace(records=log.records) == log


@given(record_rows, record_row, st.data())
def test_one_foreign_record_at_any_position_rejected(rows, foreign, data):
    records = _records(rows)
    position = data.draw(st.integers(min_value=0, max_value=len(records)), label="position")
    records[position:position] = _records([foreign], user="u2")
    with pytest.raises(MixedUsers, match="'u2' in log of 'u1'"):
        UserActivityLog("u1", records)


# Per-position alphabets of YYYY-MM-DDTHH:MM:SSZ. The leading digit of each
# field runs past its range (month 19, day 39, hour 29, minute and second 69).
_CANONICAL_SHAPE = (
    "0129", *["0123456789"] * 3, "-/", "012", "0123456789", "-", "0123", "0123456789",
    "Tt ", "012", "0123456789", ":", "0123456", "0123456789", ":", "0123456",
    "0123456789", "Zz",
)


def _outcome(parse, value):
    """parse(value), or ValueError if it raises one."""
    try:
        return parse(value)
    except ValueError:
        return ValueError


class TestTimestamps:
    def test_parse_z_suffix(self):
        assert parse_rfc3339("1970-01-01T00:01:40Z") == 100

    def test_parse_offset(self):
        assert parse_rfc3339("1970-01-01T01:01:40+01:00") == 100

    def test_parse_truncates_subseconds(self):
        assert parse_rfc3339("1970-01-01T00:01:40.999Z") == 100

    def test_naive_input_is_utc(self):
        assert parse_rfc3339("1970-01-01T00:01:40") == 100

    def test_format(self):
        assert format_rfc3339(100) == "1970-01-01T00:01:40Z"

    def test_last_writable_instant(self):
        last = "9999-12-31T23:59:59Z"
        assert format_rfc3339(parse_rfc3339(last)) == last
        assert parse_rfc3339("9999-12-31T23:59:59.999+00:00") == parse_rfc3339(last)

    @given(st.integers(min_value=0, max_value=4_000_000_000))
    def test_round_trip(self, ts):
        assert parse_rfc3339(format_rfc3339(ts)) == ts

    @given(st.integers(min_value=0, max_value=253402300799))
    def test_format_matches_reference(self, ts):
        assert format_rfc3339(ts) == reference_format_rfc3339(ts)

    @pytest.mark.parametrize("ts", [-1, 253402300800])
    def test_format_rejects_unwritable_instants(self, ts):
        with pytest.raises(ValueError):
            format_rfc3339(ts)

    @pytest.mark.parametrize("value", [
        "2021-06-01",  # date only
        "2021-W22-2",  # ISO week date
        "20210601T120000",  # basic format
        "2021-06-01 12:00:00Z",  # space separator
        "2021-06-01T12Z",  # hour only
    ])
    def test_rejects_non_rfc3339_layouts(self, value):
        with pytest.raises(ValueError):
            parse_rfc3339(value)

    @pytest.mark.parametrize("value", [
        "2021-06-01T24:00:00Z",
        "2021-06-01T12:60:00Z",
        "2021-06-01T12:00:60Z",
        "2021-02-29T12:00:00Z",
        "1900-02-29T00:00:00Z",
        "2021-13-01T12:00:00Z",
        "0000-01-01T00:00:00Z",
        "2021-06-01T12:00:00+24:00",
        "2021-06-01T12:00:00-24:00",
        "2021-06-01T12:00:00+01:60",
        "\u0662021-06-01T12:00:00Z",  # a non-ASCII digit
        "2021-06-01T12:00:00Zjunk",
        "9999-12-31T23:59:59-00:01",  # after the last instant format_rfc3339 can write
    ])
    def test_rejects_out_of_range_or_trailing(self, value):
        with pytest.raises(ValueError):
            parse_rfc3339(value)

    @given(
        st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)),
        st.text("0123456789", max_size=9),
        st.one_of(st.sampled_from(["", "Z", "z"]),
                  st.builds("{}{:02d}:{:02d}".format, st.sampled_from("+-"),
                            st.integers(0, 23), st.integers(0, 59))),
        st.sampled_from("Tt"),
    )
    @example(datetime(1, 1, 1), "", "Z", "T")  # -62135596800
    @example(datetime(9999, 12, 31, 23, 59, 59), "", "z", "t")  # 253402300799
    @example(datetime(9999, 12, 31, 23, 59, 59), "", "-00:01", "T")  # one minute too late
    @example(datetime(2000, 2, 29), "", "Z", "T")
    def test_matches_reference_parser(self, local, fraction, offset, sep):
        date, time = local.isoformat(timespec="seconds").split("T")
        value = f"{date}{sep}{time}{'.' + fraction if fraction else ''}{offset}"
        # The same instant in a spelling the reference accepts on every version.
        canonical = (f"{date}T{time}{'.' + fraction.ljust(6, '0')[:6] if fraction else ''}"
                     f"{offset.upper()}")
        expected = reference_parse_rfc3339(canonical)
        if expected > 253402300799:  # 9999-12-31T23:59:59Z
            with pytest.raises(ValueError, match="^timestamp after 9999-12-31T23:59:59Z: "):
                parse_rfc3339(value)
        else:
            assert parse_rfc3339(value) == expected

    @given(
        st.tuples(*(st.sampled_from(chars) for chars in _CANONICAL_SHAPE)),
        st.lists(st.tuples(st.integers(0, len(_CANONICAL_SHAPE) - 2),
                           st.sampled_from("٠²/ TtZz0")), max_size=2),
    )
    def test_canonical_shape_parses_as_its_offset_spelling(self, chars, edits):
        # Z or z and +00:00 name the same offset, so each shape, valid or not, must
        # read the same in both spellings.
        chars = list(chars)
        for position, char in edits:
            chars[position] = char
        value = "".join(chars)
        assert _outcome(parse_rfc3339, value) == _outcome(parse_rfc3339,
                                                          value[:-1] + "+00:00")


def _modules_loaded_by_cli_import(names: tuple[str, ...]) -> list[str]:
    """Which of names a fresh interpreter holds after `import spamminer.cli`.

    -B keeps the child from writing bytecode caches into the source tree.
    """
    src = Path(__import__("spamminer").__file__).parents[1]
    code = f"import sys, spamminer.cli; print(*[m for m in {names!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-B", "-c", code], env={"PYTHONPATH": str(src)},
                         capture_output=True, encoding="utf-8", check=True).stdout
    return out.split()


HTTP_CLIENT_MODULES = ("requests", "urllib.request", "http.client")


def test_cli_import_leaves_http_client_unloaded():
    assert _modules_loaded_by_cli_import(HTTP_CLIENT_MODULES) == []


def test_cli_import_loads_only_what_score_and_fetch_run():
    unneeded = (*HTTP_CLIENT_MODULES, "dataclasses", "spamminer.synth", "spamminer.report")
    assert _modules_loaded_by_cli_import(unneeded) == []


class TestRecordWireFormat:
    def test_encode_key_order(self):
        rec = make_record(ts=100, text="hi", cid="c1")
        assert list(encode_record(rec)) == [
            "user_id", "comment_id", "video_id", "published_at", "text", "has_spam_hint",
        ]

    def test_comment_id_omitted_when_absent(self):
        assert "comment_id" not in encode_record(make_record())

    def test_round_trip(self):
        rec = make_record(ts=1234, text="héllo  world", hint=True, cid="c9")
        assert decode_record(json.loads(record_to_json(rec))) == rec

    def test_decode_defaults(self):
        obj = {"user_id": "u1", "video_id": "v1", "published_at": "1970-01-01T00:00:00Z"}
        rec = decode_record(obj)
        assert rec.text == ""
        assert rec.has_spam_hint is False

    @pytest.mark.parametrize("user_id", ["user-1", " user-1 "])
    def test_decoded_records_share_id_strings(self, user_id):
        line = json.dumps({"user_id": user_id, "video_id": "video-9",
                           "published_at": "1970-01-01T00:00:00Z"})
        swapped = json.dumps({"user_id": "video-9", "video_id": user_id,
                              "published_at": "1970-01-01T00:00:00Z"})
        decoded = [decode_record(json.loads(text)) for text in (line, line, swapped)]
        assert decoded[0].video_id is not decoded[1].video_id  # each decode makes its own
        first, second, third = share_ids(decoded)
        assert [first, second, third] == decoded
        assert first.user_id == "user-1"
        assert first.user_id is second.user_id
        assert first.video_id is second.video_id
        # One table serves both fields: an id equal to an id of the other field is one object.
        assert third.user_id is first.video_id
        assert third.video_id is first.user_id

    def test_decode_without_a_table_keeps_no_ids(self):
        # No process-wide table: once its records are dropped, decoding has kept
        # nothing of their ids, though the strings themselves are still alive.
        objs = [{"user_id": f"user-{i}", "video_id": f"video-{i}",
                 "published_at": "2021-01-01T00:00:00Z"} for i in range(50_000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for obj in objs:
                decode_record(obj)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 64 * 1024

    def test_decode_missing_field(self):
        with pytest.raises(ValueError):
            decode_record({"user_id": "u1", "video_id": "v1"})

    @pytest.mark.parametrize("obj, message", [
        ({"user_id": 5}, "user_id must be a string"),
        ({"user_id": "u"}, "missing field 'video_id'"),
        ({"user_id": "u", "video_id": None, "published_at": 5}, "video_id must be a string"),
        ({"user_id": "u", "video_id": "v"}, "missing field 'published_at'"),
    ], ids=["bad-user_id", "missing-video_id", "null-video_id", "missing-published_at"])
    def test_decode_names_the_first_bad_field(self, obj, message):
        # Fields are checked in the order user_id, video_id, published_at.
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            decode_record(obj)

    def test_decode_bad_hint_type(self):
        with pytest.raises(ValueError):
            decode_record({
                "user_id": "u1", "video_id": "v1",
                "published_at": "1970-01-01T00:00:00Z", "has_spam_hint": "yes",
            })


# Strings a JSON encoder must escape or may pass through: quotes, backslashes,
# control characters, U+2028/U+2029, DEL, and characters beyond ASCII and the BMP.
# No lone surrogates: UTF-8 cannot carry one, and CommentRecord rejects it.
wire_text = st.text(st.one_of(
    st.sampled_from('"\\/\n\r\t\x00\x1f\x7f\u2028\u2029é中😀 '),
    st.characters(codec="utf-8"),
))
wire_id = wire_text.filter(str.strip)

wire_records = st.builds(
    CommentRecord,
    user_id=wire_id,
    video_id=wire_id,
    timestamp_s=st.integers(min_value=0, max_value=253402300799),
    text=wire_text,
    has_spam_hint=st.booleans(),
    comment_id=st.none() | wire_text,
)


@st.composite
def wire_verdicts(draw):
    n = draw(st.integers(min_value=0, max_value=10_000))
    unit = st.floats(min_value=0.0, max_value=1.0)
    crr, vidovp = draw(unit), draw(unit)
    fv = FeatureVector(
        user_id=draw(wire_text),
        n_comments=n,
        atdc_s=draw(st.floats(min_value=0.0, allow_infinity=False)) if n >= 2 else None,
        pchf_pct=draw(st.floats(min_value=0.0, max_value=100.0)),
        crr=crr,
        vidovp=vidovp,
        crav=draw(st.floats(min_value=0.0, max_value=min(crr, vidovp))),
    )
    triggered = draw(st.frozensets(st.sampled_from(Indicator)))
    label = Label.SPAMMER if triggered else draw(st.sampled_from([Label.LEGIT, Label.INSUFFICIENT]))
    return Verdict(fv.user_id, label, triggered, fv)


# A few ids, padded ones among them so that equal ids are distinct objects on input.
shareable_id = st.sampled_from(["u1", " u1", "u1 ", "v1", " v1", "v1 "]) | wire_id


@given(st.lists(st.builds(CommentRecord, user_id=shareable_id, video_id=shareable_id,
                          timestamp_s=st.integers(min_value=0, max_value=10_000),
                          text=wire_text, comment_id=st.none() | wire_text), max_size=20))
def test_share_ids_keeps_records_and_shares_each_id(records):
    shared = share_ids(iter(records))
    assert shared == records
    assert all(type(rec) is CommentRecord for rec in shared)
    ids = [value for rec in shared for value in (rec.user_id, rec.video_id)]
    assert len({id(value) for value in ids}) == len(set(ids))


class TestLineEncoders:
    """The line encoders write exactly json.dumps of the canonical objects."""

    @given(wire_records)
    def test_record_line_is_json_dumps(self, rec):
        assert record_to_json(rec) == json.dumps(encode_record(rec), ensure_ascii=False)

    @given(wire_verdicts())
    def test_verdict_line_is_json_dumps(self, verdict):
        assert verdict_to_json(verdict) == json.dumps(encode_verdict(verdict), ensure_ascii=False)


_TRIGGERED_SETS = [frozenset(ind for i, ind in enumerate(Indicator) if mask >> i & 1)
                   for mask in range(2 ** len(Indicator))]


@pytest.mark.parametrize("label, triggered", [
    (label, triggered) for triggered in _TRIGGERED_SETS
    for label in ([Label.SPAMMER] if triggered else [Label.LEGIT, Label.INSUFFICIENT])
] + [(Label.SPAMMER, {Indicator.VIDOVP, Indicator.PCHF})],
    ids=lambda value: value.value if isinstance(value, Label)
    else type(value).__name__ + ":" + "+".join(ind.value for ind in Indicator if ind in value))
def test_verdict_line_for_every_triggered_set(label, triggered):
    fv = FeatureVector("u1", 9, 12.5, 80.0, 0.75, 0.5, 0.25)
    verdict = Verdict("u1", label, triggered, fv)
    assert verdict_to_json(verdict) == json.dumps(encode_verdict(verdict), ensure_ascii=False)


class TestFeatureVectorInvariants:
    def test_atdc_required_for_two_comments(self):
        with pytest.raises(ValueError):
            FeatureVector("u1", 2, None, 0.0, 0.0, 0.0, 0.0)

    def test_atdc_forbidden_for_one_comment(self):
        with pytest.raises(ValueError):
            FeatureVector("u1", 1, 5.0, 0.0, 0.0, 0.0, 0.0)

    def test_crav_bounded_by_crr_and_vidovp(self):
        with pytest.raises(ValueError):
            FeatureVector("u1", 3, 1.0, 0.0, crr=0.2, vidovp=0.9, crav=0.5)

    def test_pchf_range(self):
        with pytest.raises(ValueError):
            FeatureVector("u1", 3, 1.0, 101.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("atdc_s", [float("nan"), float("inf"), -1.0])
    def test_atdc_finite_and_non_negative(self, atdc_s):
        with pytest.raises(ValueError):
            FeatureVector("u1", 3, atdc_s, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("fields, message", [
        ({"n_comments": -1, "atdc_s": None}, "n_comments is negative"),
        ({"crr": 1.5}, "crr out of range: 1.5"),
        ({"vidovp": -0.5}, "vidovp out of range: -0.5"),
        ({"crav": float("nan")}, "crav out of range: nan"),
        ({"crr": 1.5, "crav": float("nan")}, "crr out of range: 1.5"),
    ], ids=["n_comments", "crr", "vidovp", "crav", "crr-before-crav"])
    def test_count_and_fractions_in_range(self, fields, message):
        valid = {"user_id": "u1", "n_comments": 3, "atdc_s": 1.0, "pchf_pct": 0.0,
                 "crr": 0.0, "vidovp": 0.0, "crav": 0.0}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FeatureVector(**{**valid, **fields})


class TestRuleConfig:
    def test_defaults(self):
        cfg = RuleConfig()
        assert cfg.min_comments == 5
        assert cfg.pchf_gt == 70.0
        assert cfg.atdc_lt_s == 150.0
        assert cfg.comovp_gt == 0.60
        assert cfg.vidovp_gt == 0.60

    def test_from_obj(self):
        cfg = rule_config_from_obj({"min_comments": 3, "pchf_gt": 50})
        assert cfg.min_comments == 3
        assert cfg.pchf_gt == 50.0
        assert cfg.atdc_lt_s == 150.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="pchf_gte"):
            rule_config_from_obj({"pchf_gte": 70})

    def test_bad_ranges(self):
        with pytest.raises(ConfigError):
            RuleConfig(comovp_gt=1.5)
        with pytest.raises(ConfigError):
            RuleConfig(pchf_gt=-1)
        with pytest.raises(ConfigError):
            RuleConfig(min_comments=0)
        with pytest.raises(ConfigError, match=f"^atdc_lt_s must be finite: -{'9' * 400}$"):
            RuleConfig(atdc_lt_s=-int("9" * 400))  # exact: no float holds it

    @pytest.mark.parametrize("kwargs, message", [
        ({"min_comments": True}, "min_comments must be an integer"),
        ({"min_comments": 5.5}, "min_comments must be an integer"),
        ({"pchf_gt": "70"}, "pchf_gt must be a number"),
        ({"vidovp_gt": False}, "vidovp_gt must be a number"),
        # Every type is checked before any range.
        ({"min_comments": 0, "pchf_gt": 500, "comovp_gt": None}, "comovp_gt must be a number"),
    ])
    @pytest.mark.parametrize("build", [RuleConfig, lambda **kwargs: rule_config_from_obj(kwargs)],
                             ids=["direct", "from_obj"])
    def test_mistyped_field_rejected(self, kwargs, message, build):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            build(**kwargs)

    def test_thresholds_stored_as_floats(self):
        cfg = RuleConfig(pchf_gt=70, atdc_lt_s=150, comovp_gt=0, vidovp_gt=1)
        values = (cfg.pchf_gt, cfg.atdc_lt_s, cfg.comovp_gt, cfg.vidovp_gt)
        assert [(type(v), v) for v in values] == [(float, 70.0), (float, 150.0),
                                                   (float, 0.0), (float, 1.0)]
        assert cfg == RuleConfig(pchf_gt=70.0, atdc_lt_s=150.0, comovp_gt=0.0, vidovp_gt=1.0)

    def test_bad_combine(self):
        with pytest.raises(ConfigError):
            rule_config_from_obj({"combine": "and"})
        assert rule_config_from_obj({"combine": "OR"}) == RuleConfig()


class TestVerdictInvariants:
    def _fv(self):
        return FeatureVector("u1", 10, 1000.0, 0.0, 0.0, 0.0, 0.0)

    def test_spammer_requires_triggered(self):
        with pytest.raises(ValueError):
            Verdict("u1", Label.SPAMMER, frozenset(), self._fv())

    def test_legit_forbids_triggered(self):
        with pytest.raises(ValueError):
            Verdict("u1", Label.LEGIT, frozenset({Indicator.PCHF}), self._fv())
