"""Domain type validation, log building, and canonical serialization."""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from spamminer.model import (
    CommentRecord,
    ConfigError,
    EmptyUserId,
    EmptyVideoId,
    FeatureVector,
    Indicator,
    Label,
    MixedUsers,
    NegativeTimestamp,
    RuleConfig,
    UserActivityLog,
    Verdict,
    build_log,
    decode_record,
    format_rfc3339,
    parse_rfc3339,
    record_to_json,
    rule_config_from_obj,
    verdict_to_json,
)

from helpers import (
    encode_record,
    encode_verdict,
    make_record,
    reference_format_rfc3339,
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


class TestBuildLog:
    def test_sorts_by_timestamp(self):
        records = [make_record(ts=t) for t in (30, 10, 20)]
        log = build_log("u1", records)
        assert [rec.timestamp_s for rec in log.records] == [10, 20, 30]

    def test_tie_break_by_comment_id(self):
        records = [make_record(ts=5, cid="b"), make_record(ts=5, cid="a")]
        log = build_log("u1", records)
        assert [rec.comment_id for rec in log.records] == ["a", "b"]

    def test_dedup_keeps_first_occurrence(self):
        first = make_record(ts=10, cid="c1", text="first")
        second = make_record(ts=20, cid="c1", text="second")
        log = build_log("u1", [first, second])
        assert len(log) == 1
        assert log.records[0].text == "first"

    def test_missing_comment_id_never_deduplicated(self):
        records = [make_record(ts=1), make_record(ts=1), make_record(ts=1)]
        assert len(build_log("u1", records)) == 3

    def test_mixed_users_rejected(self):
        with pytest.raises(MixedUsers):
            build_log("u1", [make_record(user="u2")])

    def test_equal_timestamps_are_legal(self):
        log = build_log("u1", [make_record(ts=7, cid="a"), make_record(ts=7, cid="b")])
        assert len(log) == 2

    def test_direct_construction_checks_order(self):
        with pytest.raises(ValueError):
            UserActivityLog("u1", (make_record(ts=10), make_record(ts=5)))

    def test_direct_construction_checks_duplicates(self):
        with pytest.raises(ValueError, match="duplicate comment_id 'c7'"):
            UserActivityLog("u1", (make_record(ts=1, cid="c7"), make_record(ts=2, cid="c7")))

    def test_direct_construction_checks_owner(self):
        records = (make_record(ts=1), make_record(user="u2", ts=2), make_record(user="u3", ts=3))
        with pytest.raises(MixedUsers, match="'u2' in log of 'u1'"):
            UserActivityLog("u1", records)

    def test_direct_construction_names_first_fault(self):
        dup_first = (make_record(ts=1, cid="c1"), make_record(ts=2, cid="c1"),
                     make_record(user="u2", ts=3))
        with pytest.raises(ValueError, match="duplicate comment_id 'c1'") as excinfo:
            UserActivityLog("u1", dup_first)
        assert not isinstance(excinfo.value, MixedUsers)
        foreign_first = (make_record(ts=1, cid="c1"), make_record(user="u2", ts=2),
                         make_record(ts=3, cid="c1"))
        with pytest.raises(MixedUsers):
            UserActivityLog("u1", foreign_first)

    def test_value_types_have_no_instance_dict(self):
        log = build_log("u1", [make_record(ts=1)])
        fv = FeatureVector("u1", 1, None, 0.0, 0.0, 0.0, 0.0)
        verdict = Verdict("u1", Label.LEGIT, frozenset(), fv)
        for obj in (log, fv, verdict):
            assert not hasattr(obj, "__dict__"), type(obj).__name__


record_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["a", "b", "c"]),
        st.one_of(st.none(), st.sampled_from(["c1", "c2", "c3", "c4", "c5"])),
    ),
    max_size=20,
)


@given(record_rows)
def test_build_log_idempotent(rows):
    records = [make_record(ts=ts, text=text, cid=cid) for ts, text, cid in rows]
    once = build_log("u1", records)
    twice = build_log("u1", list(once.records))
    assert once == twice


@given(record_rows)
def test_build_log_output_is_permutation_of_deduped_input(rows):
    records = [make_record(ts=ts, text=text, cid=cid) for ts, text, cid in rows]
    seen: set[str] = set()
    expected = []
    for rec in records:
        if rec.comment_id is not None:
            if rec.comment_id in seen:
                continue
            seen.add(rec.comment_id)
        expected.append(rec)
    log = build_log("u1", records)
    assert Counter(log.records) == Counter(expected)
    assert [r.timestamp_s for r in log.records] == sorted(
        r.timestamp_s for r in log.records
    )


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
        "2021-06-01T12:00:60Z",
        "2021-02-29T12:00:00Z",
        "2021-13-01T12:00:00Z",
        "2021-06-01T12:00:00+24:00",
        "2021-06-01T12:00:00+01:60",
        "\u0662021-06-01T12:00:00Z",  # a non-ASCII digit
        "2021-06-01T12:00:00Zjunk",
        "9999-12-31T23:59:59-00:01",  # after the last instant format_rfc3339 can write
    ])
    def test_rejects_out_of_range_or_trailing(self, value):
        with pytest.raises(ValueError):
            parse_rfc3339(value)

    @given(
        st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30)),
        st.text("0123456789", max_size=9),
        st.one_of(st.sampled_from(["", "Z", "z"]),
                  st.builds("{}{:02d}:{:02d}".format, st.sampled_from("+-"),
                            st.integers(0, 23), st.integers(0, 59))),
        st.sampled_from("Tt"),
    )
    def test_matches_reference_parser(self, local, fraction, offset, sep):
        date, time = local.isoformat(timespec="seconds").split("T")
        value = f"{date}{sep}{time}{'.' + fraction if fraction else ''}{offset}"
        # The same instant in a spelling the reference accepts on every version.
        canonical = (f"{date}T{time}{'.' + fraction.ljust(6, '0')[:6] if fraction else ''}"
                     f"{offset.upper()}")
        assert parse_rfc3339(value) == reference_parse_rfc3339(canonical)


def _modules_loaded_by_cli_import(names: tuple[str, ...]) -> list[str]:
    """Which of names a fresh interpreter holds after `import spamminer.cli`.

    -B keeps the child from writing bytecode caches into the source tree.
    """
    src = Path(__import__("spamminer").__file__).parents[1]
    code = f"import sys, spamminer.cli; print(*[m for m in {names!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-B", "-c", code], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    return out.split()


def test_cli_import_leaves_http_client_unloaded():
    assert _modules_loaded_by_cli_import(("requests",)) == []


def test_cli_import_loads_only_what_score_and_fetch_run():
    unneeded = ("requests", "dataclasses", "spamminer.synth", "spamminer.report")
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
        first, second = decode_record(json.loads(line)), decode_record(json.loads(line))
        assert first.user_id == "user-1"
        assert first.user_id is second.user_id
        assert first.video_id is second.video_id

    def test_decode_missing_field(self):
        with pytest.raises(ValueError):
            decode_record({"user_id": "u1", "video_id": "v1"})

    def test_decode_bad_hint_type(self):
        with pytest.raises(ValueError):
            decode_record({
                "user_id": "u1", "video_id": "v1",
                "published_at": "1970-01-01T00:00:00Z", "has_spam_hint": "yes",
            })


# Strings a JSON encoder must escape or may pass through: quotes, backslashes,
# control characters, U+2028/U+2029, DEL, and characters beyond ASCII and the BMP.
wire_text = st.text(st.one_of(
    st.sampled_from('"\\/\n\r\t\x00\x1f\x7f\u2028\u2029é中😀 '),
    st.characters(),
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


class TestLineEncoders:
    """The line encoders write exactly json.dumps of the canonical objects."""

    @given(wire_records)
    def test_record_line_is_json_dumps(self, rec):
        assert record_to_json(rec) == json.dumps(encode_record(rec), ensure_ascii=False)

    @given(wire_verdicts())
    def test_verdict_line_is_json_dumps(self, verdict):
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
