"""Parsers, per-user grouping, cache round-trips, and the paged feed client."""

from __future__ import annotations

import csv
import errno
import io
import json
import os
import random
import time

import pytest
from hypothesis import given, strategies as st

from spamminer import ingest
from spamminer.ingest import (
    AllLinesRejected,
    EndpointUnreachable,
    IngestReport,
    MalformedPage,
    MissingHeader,
    UserNotFound,
    _decode_page,
    cache_get,
    cache_put,
    fetch_user_log,
    group_by_user,
    iter_csv,
    iter_jsonl,
    parse_csv,
    parse_jsonl,
    user_file,
)
from spamminer.model import UserActivityLog, record_to_json

from helpers import (
    FeedServer,
    MockFeed,
    MockUser,
    feed_page_records,
    make_record,
    random_log,
    reference_parse_csv,
    reference_parse_jsonl,
)

NO_BACKOFF = (0.0, 0.0, 0.0)


def _jsonl(lines: list[str]) -> io.BytesIO:
    return io.BytesIO(("\n".join(lines) + "\n").encode("utf-8"))


VALID_LINE = json.dumps({
    "user_id": "u1", "video_id": "v1",
    "published_at": "2021-01-01T00:00:00Z", "text": "hi", "has_spam_hint": False,
})


# One minute after 9999-12-31T23:59:59Z, the last instant format_rfc3339 can write.
AFTER_YEAR_9999 = "9999-12-31T23:59:59-00:01"

# A JSON array nested far deeper than the interpreter's recursion limit.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def _with_text(escaped_text: str) -> str:
    """VALID_LINE with its text replaced by a raw JSON string body."""
    return VALID_LINE.replace('"text": "hi"', f'"text": "{escaped_text}"')


class TestParseJsonl:
    def test_all_valid(self):
        records, report = parse_jsonl(_jsonl([VALID_LINE] * 3))
        assert len(records) == 3
        assert report.accepted == 3
        assert report.rejected == 0

    def test_skip_and_report(self):
        records, report = parse_jsonl(_jsonl([VALID_LINE, VALID_LINE, "{garbage"]))
        assert len(records) == 2
        assert report.rejects == [(3, "ParseError")]

    def test_empty_input(self):
        records, report = parse_jsonl(io.BytesIO(b""))
        assert records == []
        assert report.accepted == report.rejected == 0

    def test_blank_lines_skipped(self):
        records, report = parse_jsonl(_jsonl([VALID_LINE, "", VALID_LINE]))
        assert len(records) == 2
        assert report.rejected == 0

    def test_all_rejected_raises(self):
        with pytest.raises(AllLinesRejected) as excinfo:
            parse_jsonl(_jsonl(["not json", "also not"]))
        assert excinfo.value.report.rejected == 2

    def test_validation_error_names(self):
        bad = json.dumps({
            "user_id": " ", "video_id": "v1",
            "published_at": "2021-01-01T00:00:00Z", "text": "", "has_spam_hint": False,
        })
        _, report = parse_jsonl(_jsonl([VALID_LINE, bad]))
        assert report.rejects == [(2, "EmptyUserId")]

    def test_non_string_ids_rejected(self):
        base = json.loads(VALID_LINE)
        null_user = json.dumps({**base, "user_id": None})
        int_video = json.dumps({**base, "video_id": 7})
        records, report = parse_jsonl(_jsonl([VALID_LINE, null_user, VALID_LINE, int_video,
                                              VALID_LINE]))
        assert len(records) == 3
        assert report.accepted == 3
        assert report.rejects == [(2, "ValidationError"), (4, "ValidationError")]

    def test_neighbor_damage_isolation(self):
        lines = [VALID_LINE, "junk", VALID_LINE, "junk", VALID_LINE]
        records, report = parse_jsonl(_jsonl(lines))
        assert len(records) == 3
        assert [line_no for line_no, _ in report.rejects] == [2, 4]

    def test_text_mode_stream(self):
        """Every reader takes bytes lines; a text stream is a TypeError before any record."""
        jsonl = VALID_LINE + "\n" + VALID_LINE + "\n"
        csv_text = CSV_HEADER + "\nu1,c1,v1,2021-01-01T00:00:00Z,x,false\n"
        for read, text in [(parse_jsonl, jsonl), (parse_csv, csv_text),
                           (lambda s: next(iter_jsonl(s, IngestReport())), jsonl),
                           (lambda s: next(iter_csv(s, IngestReport())), csv_text)]:
            with pytest.raises(TypeError):
                read(io.StringIO(text))

    def test_non_utf8_line_rejected_in_place(self):
        good = (VALID_LINE + "\n").encode("utf-8")
        stream = io.BytesIO(good + b'{"user_id": "u\xff"}\n' + good)
        records, report = parse_jsonl(stream)
        assert len(records) == 2
        assert report.rejects == [(2, "ParseError")]

    def test_instant_after_year_9999_rejected(self):
        late = json.dumps({**json.loads(VALID_LINE), "published_at": AFTER_YEAR_9999})
        records, report = parse_jsonl(_jsonl([VALID_LINE, late, VALID_LINE]))
        assert len(records) == 2
        assert report.rejects == [(2, "ParseError")]

    def test_deeply_nested_line_rejected(self):
        records, report = parse_jsonl(_jsonl([VALID_LINE, DEEP_JSON, VALID_LINE]))
        assert len(records) == 2
        assert report.rejects == [(2, "ParseError")]

    @pytest.mark.parametrize("field", ["user_id", "video_id", "text", "comment_id"])
    def test_lone_surrogate_rejected(self, field):
        bad = json.loads(VALID_LINE)
        bad[field] = "x\ud800"
        records, report = parse_jsonl(_jsonl([VALID_LINE, json.dumps(bad), VALID_LINE]))
        assert len(records) == 2
        assert report.rejects == [(2, "LoneSurrogate")]

    def test_byte_order_mark_dropped(self):
        # Some editors begin a UTF-8 file with U+FEFF.
        data = "\ufeff" + VALID_LINE + "\n" + VALID_LINE + "\n"
        records, report = parse_jsonl(io.BytesIO(data.encode("utf-8")))
        assert len(records) == 2
        assert report.rejects == []

    @pytest.mark.parametrize("data, line_no", [
        ("\ufeff\ufeff" + VALID_LINE + "\n" + VALID_LINE + "\n", 1),
        (VALID_LINE + "\n\ufeff" + VALID_LINE + "\n", 2),
    ])
    def test_other_byte_order_marks_rejected(self, data, line_no):
        records, report = parse_jsonl(io.BytesIO(data.encode("utf-8")))
        assert len(records) == 1
        assert report.rejects == [(line_no, "ParseError")]

    def test_escaped_surrogate_pair_accepted(self):
        records, _ = parse_jsonl(_jsonl([_with_text("\\ud83d\\ude00 \\u00e9")]))
        assert records[0].text == "\U0001F600 \u00e9"

    @pytest.mark.parametrize("user_id", ["user-1", " user-1 "])
    def test_records_share_id_strings(self, user_id):
        lines = [json.dumps({
            "user_id": user_id, "video_id": "video-9", "comment_id": f"c{i}",
            "published_at": "2021-01-01T00:00:00Z",
        }) for i in range(2)]
        (first, second), _ = parse_jsonl(_jsonl(lines))
        assert first.user_id == "user-1"
        assert first.user_id is second.user_id
        assert first.video_id is second.video_id


class TestRoundTrip:
    def test_serialize_parse_build_identity(self):
        rng = random.Random(7)
        for _ in range(20):
            log = random_log(rng, rng.randint(0, 30))
            payload = "".join(record_to_json(rec) + "\n" for rec in log.records)
            records, report = parse_jsonl(io.BytesIO(payload.encode("utf-8")))
            assert report.rejected == 0
            assert UserActivityLog(log.user_id, records) == log


CSV_HEADER = "user_id,comment_id,video_id,published_at,text,has_spam_hint"
QUOTED_CSV_HEADER = ",".join(f'"{name}"' for name in CSV_HEADER.split(","))


# Lines of JSONL input: valid and invalid records (lone surrogates among
# them, escaped or raw), bare or padded with JSON and non-JSON whitespace
# or followed by extra data, and blank lines.
jsonl_records = st.fixed_dictionaries(
    {"user_id": st.sampled_from(["u1", "u2", " ", ""]),
     "video_id": st.sampled_from(["v1", "v2"]),
     "published_at": st.sampled_from(["2021-01-01T00:00:00Z", "1970-01-01T00:00:00+01:00",
                                      "yesterday"])},
    optional={"text": st.one_of(st.text(max_size=5), st.sampled_from(["\ud800", "x\udfff"])),
              "comment_id": st.sampled_from(["c1", "c2", 7]),
              "has_spam_hint": st.sampled_from([True, False, "yes"])},
)
jsonl_objects = st.builds(json.dumps, jsonl_records, ensure_ascii=st.booleans())
jsonl_padding = st.text(" \t\r\x0c\x0b\u3000", max_size=3)
jsonl_lines = st.one_of(
    jsonl_objects,
    st.tuples(jsonl_padding, jsonl_objects, jsonl_padding,
              st.sampled_from(["", "x", " 1 2", "{}"])).map("".join),
    jsonl_padding,
    st.sampled_from(["1 2", "[]", "null", "{", '"text"']),
)


class TestJsonlScanMatchesDecoder:
    """iter_jsonl's one-scan reader accepts and rejects what JSONDecoder.decode does."""

    @given(st.lists(jsonl_lines, max_size=8))
    def test_same_records_and_rejects(self, lines):
        # A raw lone surrogate becomes bytes that are not UTF-8.
        stream = [(line + "\n").encode("utf-8", "surrogatepass") for line in lines]
        report = IngestReport()
        try:
            records = list(iter_jsonl(stream, report))
        except AllLinesRejected:
            records = []
        assert (records, report.rejects) == reference_parse_jsonl(stream)


def _csv(lines: list[str]) -> io.BytesIO:
    return io.BytesIO(("\n".join(lines) + "\n").encode("utf-8"))


class TestParseCsv:
    def test_two_rows(self):
        stream = _csv([
            CSV_HEADER,
            "u1,c1,v1,2021-01-01T00:00:00Z,hello,true",
            "u2,c2,v2,2021-01-01T00:01:00Z,bye,false",
        ])
        records, report = parse_csv(stream)
        assert len(records) == 2
        assert records[0].has_spam_hint is True
        assert records[1].has_spam_hint is False
        assert report.accepted == 2

    def test_missing_required_column(self):
        with pytest.raises(MissingHeader, match="video_id"):
            parse_csv(_csv(["user_id,published_at,text,has_spam_hint", "u1,t,x,1"]))

    @pytest.mark.parametrize("extra", ["user_id", " text ", "comment_id"])
    def test_column_named_twice_rejected(self, extra):
        # Which of two user_id cells to read would be a guess, so neither is.
        stream = _csv([f"{CSV_HEADER},{extra}", "u1,c1,v1,2021-01-01T00:00:00Z,x,false,other"])
        with pytest.raises(MissingHeader, match=f"duplicate column: {extra.strip()!r}"):
            parse_csv(stream)

    def test_unread_column_may_repeat(self):
        stream = _csv([f"{CSV_HEADER},note,note", "u1,c1,v1,2021-01-01T00:00:00Z,x,false,a,b"])
        records, _ = parse_csv(stream)
        assert [rec.user_id for rec in records] == ["u1"]

    def test_byte_order_mark_dropped(self):
        # A spreadsheet's "CSV UTF-8" export begins with U+FEFF, and may quote every cell.
        for header in (CSV_HEADER, QUOTED_CSV_HEADER):
            data = "\ufeff" + header + "\nu1,c1,v1,2021-01-01T00:00:00Z,x,false\n"
            records, report = parse_csv(io.BytesIO(data.encode("utf-8")))
            assert [rec.user_id for rec in records] == ["u1"]
            assert report.accepted == 1

    def test_only_one_byte_order_mark_dropped(self):
        for header in (CSV_HEADER, QUOTED_CSV_HEADER):
            data = "\ufeff\ufeff" + header + "\n"
            with pytest.raises(MissingHeader, match="missing column: 'user_id'"):
                parse_csv(io.BytesIO(data.encode("utf-8")))

    def test_non_utf8_header_rejected(self):
        stream = io.BytesIO(CSV_HEADER.encode("utf-8") + b",note\xff\n"
                            b"u1,c1,v1,2021-01-01T00:00:00Z,x,false,n\n")
        with pytest.raises(MissingHeader, match="UTF-8"):
            parse_csv(stream)

    def test_header_that_is_not_csv_rejected(self):
        # The csv module cannot read a bare carriage return in an unquoted cell.
        data = "user_id,comment_id\r,video_id,published_at,text,has_spam_hint\n" + (
            "u1,c1,v1,2021-01-01T00:00:00Z,x,false\n")
        with pytest.raises(MissingHeader, match="^header line is not CSV: ") as info:
            parse_csv(io.BytesIO(data.encode("utf-8")))
        assert isinstance(info.value.__cause__, csv.Error)

    @pytest.mark.parametrize("raw,expected", [
        ("true", True), ("false", False), ("1", True), ("0", False),
        ("TRUE", True), ("False", False),
    ])
    def test_flag_coercions(self, raw, expected):
        stream = _csv([CSV_HEADER, f"u1,c1,v1,2021-01-01T00:00:00Z,x,{raw}"])
        records, _ = parse_csv(stream)
        assert records[0].has_spam_hint is expected

    def test_bad_flag_rejected(self):
        stream = _csv([
            CSV_HEADER,
            "u1,c1,v1,2021-01-01T00:00:00Z,x,maybe",
            "u1,c2,v1,2021-01-01T00:00:00Z,x,true",
        ])
        records, report = parse_csv(stream)
        assert len(records) == 1
        assert report.rejects == [(2, "ParseError")]

    def test_quoted_comma_and_newline(self):
        stream = _csv([
            CSV_HEADER,
            'u1,c1,v1,2021-01-01T00:00:00Z,"hello, there",false',
            'u1,c2,v1,2021-01-01T00:00:00Z,"line one\nline two",false',
        ])
        records, report = parse_csv(stream)
        assert report.accepted == 2
        assert records[0].text == "hello, there"
        assert records[1].text == "line one\nline two"

    def test_bad_timestamp_rejected(self):
        stream = _csv([CSV_HEADER, "u1,c1,v1,yesterday,x,false"])
        with pytest.raises(AllLinesRejected):
            parse_csv(stream)

    def test_instant_after_year_9999_rejected(self):
        stream = _csv([
            CSV_HEADER,
            f"u1,c1,v1,{AFTER_YEAR_9999},x,false",
            "u1,c2,v1,2021-01-01T00:00:00Z,x,false",
        ])
        records, report = parse_csv(stream)
        assert len(records) == 1
        assert report.rejects == [(2, "ParseError")]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl", "feed page"])
    def test_empty_comment_id_is_absent(self, fmt):
        """A blank comment_id is absent, and a padded one trimmed, in every format."""
        cids = ["", " \t", " c1 "]
        if fmt == "csv":
            records, _ = parse_csv(_csv(
                [CSV_HEADER] + [f"u1,{cid},v1,2021-01-01T00:00:00Z,x,false" for cid in cids]))
        else:
            objs = [{**json.loads(VALID_LINE), "comment_id": cid} for cid in cids]
            if fmt == "jsonl":
                records, _ = parse_jsonl(_jsonl([json.dumps(obj) for obj in objs]))
            else:
                records, _ = _decode_page(json.dumps({"comments": objs}).encode("utf-8"), None)
        assert [rec.comment_id for rec in records] == [None, None, "c1"]

    def test_header_only(self):
        records, report = parse_csv(_csv([CSV_HEADER]))
        assert records == []
        assert report.accepted == 0

    def test_non_utf8_lines_rejected_in_place(self):
        stream = io.BytesIO(
            (CSV_HEADER + "\nu1,c1,v1,2021-01-01T00:00:00Z,x,false\n").encode("utf-8")
            + b"u1,c2,v1,2021-01-01T00:00:00Z,\xff,false\n"
            + b'u1,c3,v1,2021-01-01T00:00:00Z,"two\nlines \xff",false\n'
            + b"u1,c4,v1,2021-01-01T00:00:00Z,y,false\n"
        )
        records, report = parse_csv(stream)
        assert [rec.comment_id for rec in records] == ["c1", "c4"]
        assert report.rejects == [(3, "ParseError"), (4, "ParseError")]

    @pytest.mark.parametrize("column", [4, 6])  # text, which is read, and note, which is not
    def test_not_utf8_in_any_column_rejected(self, column):
        """A row with bytes that are not UTF-8 is rejected whether its column is read or not,
        an encoded surrogate among them; a header with such bytes rejects the input."""
        def row(k, extra=b""):
            cells = f"u1,c{k},v1,2021-01-01T00:00:0{k}Z,x,false,n".encode().split(b",")
            cells[column] += extra
            return b",".join(cells) + b"\n"

        header = (CSV_HEADER + ",note\n").encode()
        stream = io.BytesIO(header + row(1) + row(2, b"\xff") + row(3, b"\xed\xa0\x80") + row(4))
        records, report = parse_csv(stream)
        assert [rec.comment_id for rec in records] == ["c1", "c4"]
        assert report.rejects == [(3, "ParseError"), (4, "ParseError")]
        with pytest.raises(MissingHeader, match="header line is not UTF-8"):
            parse_csv(io.BytesIO(header[:-1] + b"\xff\n" + row(1)))

    def test_short_row_rejected(self):
        stream = _csv([
            CSV_HEADER,
            "u1,c1,v1,2021-01-01T00:00:00Z,x",
            "u1,c2,v1,2021-01-01T00:00:00Z,x,false",
        ])
        records, report = parse_csv(stream)
        assert [rec.comment_id for rec in records] == ["c2"]
        assert report.rejects == [(2, "ParseError")]

    def test_long_row_rejected(self):
        """A row with more cells than the header, as an unquoted comma in its text or a
        trailing comma makes, is rejected, not cut to the header's width."""
        stream = _csv([
            "user_id,comment_id,video_id,published_at,has_spam_hint,text",
            "u1,c1,v1,2021-01-01T00:00:00Z,false,hello, world",
            "u1,c2,v1,2021-01-01T00:00:00Z,false,hello",
            "u1,c3,v1,2021-01-01T00:00:00Z,false,bye,",
        ])
        records, report = parse_csv(stream)
        assert [rec.comment_id for rec in records] == ["c2"]
        assert report.rejects == [(2, "ParseError"), (4, "ParseError")]

    def test_csv_error_rejected_at_its_line(self):
        # A bare \r in an unquoted cell is an error of the CSV reader itself.
        stream = io.BytesIO((CSV_HEADER + "\nu1,c1,v1,2021-01-01T00:00:00Z,x\ry,false\n"
                             "u1,c2,v1,2021-01-01T00:00:00Z,x,false\n").encode("utf-8"))
        records, report = parse_csv(stream)
        assert [rec.comment_id for rec in records] == ["c2"]
        assert report.rejects == [(2, "ParseError")]

    def test_empty_input(self):
        assert parse_csv(io.BytesIO(b"")) == ([], IngestReport())

    def test_cell_larger_than_the_default_field_limit(self):
        """A quoted cell over csv's default 131,072 characters is one field, however large."""
        inner_row = "u9,c9,v9,2021-01-01T00:00:00Z,injected,true"
        text = "x" * 140_000 + "\n" + inner_row + "\n"
        text += "y" * (200_000 - len(text))
        stream = io.BytesIO("\n".join([
            CSV_HEADER,
            f'u1,c1,v1,2021-01-01T00:00:00Z,"{text}",false',
            "u2,c2,v2,2021-01-01T00:00:00Z,x,false",
            "u3,c3,v3,2021-01-01T00:00:00Z,x,false",
        ]).encode("utf-8") + b"\n")
        records, report = parse_csv(stream)
        assert [rec.user_id for rec in records] == ["u1", "u2", "u3"]
        assert records[0].text == text
        assert report.rejects == []

    @pytest.mark.parametrize("user_id", ["user-1", " user-1 "])
    def test_records_share_id_strings(self, user_id):
        stream = _csv([
            CSV_HEADER,
            f"{user_id},c1,video-9,2021-01-01T00:00:00Z,hello,false",
            f"{user_id},c2,video-9,2021-01-01T00:01:00Z,bye,false",
        ])
        (first, second), _ = parse_csv(stream)
        assert first.user_id == "user-1"
        assert first.user_id is second.user_id
        assert first.video_id is second.video_id


blank_cells = st.lists(st.text(" \t\r\n\x0b\x0c\u00a0\u3000", max_size=3), max_size=7)


class TestCsvBlankRows:
    @given(st.lists(st.one_of(blank_cells, st.just(None)), max_size=6))
    def test_rows_of_blank_cells_are_skipped(self, rows):
        """A row whose cells are all whitespace is skipped; every record row is attempted."""
        buf = io.StringIO()
        writer = csv.writer(buf)  # CRLF rows: a cell holding \r or \n is quoted
        writer.writerow(CSV_HEADER.split(","))
        good = "u1,c1,v1,2021-01-01T00:00:00Z,hi,false".split(",")
        for row in rows:
            writer.writerow(good if row is None else row)
        records, report = parse_csv(io.BytesIO(buf.getvalue().encode("utf-8")))
        assert len(records) == report.accepted == rows.count(None)
        assert report.rejected == 0


# Byte pieces that matter to the CSV reader or to UTF-8: delimiters, quotes and line ends;
# a byte that never starts a character and one cut short; a two-byte character; an encoded
# surrogate; a byte order mark; NUL; and cells that parse.
csv_pieces = st.lists(st.sampled_from([
    b",", b'"', b"\r", b"\n", b"\r\n", b"\xff", b"\xc3", b"\xc3\xa9", b"\xed\xa0\x80",
    b"\xef\xbb\xbf", b"\x00", b" ", b"x", b"u1", b"true", b"2021-01-01T00:00:00Z",
]), max_size=10).map(b"".join)
csv_byte_headers = st.one_of(
    st.sampled_from([CSV_HEADER, QUOTED_CSV_HEADER, "\ufeff" + CSV_HEADER]).map(str.encode),
    csv_pieces.map(lambda extra: CSV_HEADER.encode() + b"," + extra),
    csv_pieces,
)
csv_byte_rows = st.one_of(
    st.just(b"u1,c1,v1,2021-01-01T00:00:00Z,hi,false\n"),
    csv_pieces.map(lambda text: b'u2,c2,v2,2021-01-01T00:00:00Z,"' + text + b'",true\n'),
    csv_pieces.map(lambda text: b"u3,c3,v3,2021-01-01T00:00:00Z," + text + b",false\n"),
    csv_pieces,
)


def _csv_outcome(read, lines):
    """(records, rejects) of read over lines, or the type and message of what it raised."""
    try:
        return read(lines)
    except MissingHeader as exc:
        return type(exc), str(exc)
    except csv.Error as exc:  # only the reference lets one out, and only from its header
        return MissingHeader, f"header line is not CSV: {exc}"


def _iter_csv_whole(lines):
    report = IngestReport()
    try:
        records = list(iter_csv(lines, report))
    except AllLinesRejected:
        records = []
    return records, report.rejects


class TestCsvMatchesReference:
    """iter_csv, which lets the codec mark bytes that are not UTF-8, reads bytes as the
    earlier reader did, which kept the number of each line that was not."""

    @given(csv_byte_headers, st.lists(csv_byte_rows, max_size=6))
    def test_same_records_rejects_and_errors(self, header, rows):
        lines = io.BytesIO(header + b"\n" + b"".join(rows)).readlines()
        assert _csv_outcome(_iter_csv_whole, lines) == _csv_outcome(reference_parse_csv, lines)


class TestGroupByUser:
    def test_groups_and_sorts(self):
        records = (
            [make_record(user="u2", ts=t) for t in (5, 6)]
            + [make_record(user="u1", ts=t) for t in (3, 1, 2)]
        )
        logs = group_by_user(records)
        assert [log.user_id for log in logs] == ["u1", "u2"]
        assert [len(log) for log in logs] == [3, 2]

    def test_empty(self):
        assert group_by_user([]) == []

    def test_record_count_preserved(self):
        rng = random.Random(11)
        records = [
            make_record(user=f"u{rng.randint(1, 9)}", ts=rng.randrange(1000), cid=None)
            for _ in range(200)
        ]
        logs = group_by_user(records)
        assert sum(len(log) for log in logs) == 200


class TestIterRecords:
    def test_jsonl_yields_before_reading_on(self):
        lines_read = []

        def stream():
            for i, line in enumerate([VALID_LINE, "{garbage", VALID_LINE], start=1):
                lines_read.append(i)
                yield line.encode("utf-8")

        report = IngestReport()
        records = iter_jsonl(stream(), report)
        next(records)
        assert lines_read == [1]
        assert len(list(records)) == 1
        assert lines_read == [1, 2, 3]
        assert (report.accepted, report.rejects) == (2, [(2, "ParseError")])


class TestCache:
    def test_round_trip(self, tmp_path):
        log = random_log(random.Random(3), 12, user="user-a")
        cache_put(tmp_path, log)
        assert cache_get(tmp_path, "user-a") == log

    def test_absent_user(self, tmp_path):
        assert cache_get(tmp_path, "ghost") is None

    def test_put_twice_replaces(self, tmp_path):
        log1 = UserActivityLog("u1", [make_record(ts=1, text="old")])
        log2 = UserActivityLog("u1", [make_record(ts=2, text="new"), make_record(ts=3)])
        cache_put(tmp_path, log1)
        cache_put(tmp_path, log2)
        assert cache_get(tmp_path, "u1") == log2
        # no temp droppings left behind
        assert sorted(p.name for p in tmp_path.iterdir()) == ["u1.jsonl"]

    @pytest.mark.parametrize("user_id", ["../escape", "a/b", "50%/x", "é", "a b", ".."])
    def test_user_id_stays_inside_directory(self, tmp_path, user_id):
        cache_dir = tmp_path / "cache"
        log = UserActivityLog(user_id, [make_record(user=user_id, ts=1, cid="c1")])
        path = cache_put(cache_dir, log)
        assert path.parent == cache_dir
        assert [p.name for p in tmp_path.iterdir()] == ["cache"]
        assert [p.name for p in cache_dir.iterdir()] == [path.name]
        assert cache_get(cache_dir, user_id) == log
        name = user_file(cache_dir, user_id)
        assert type(name) is str and name == str(path)
        assert fetch_user_log(cache_dir, user_id).log == log

    def test_corrupt_entry_raises(self, tmp_path):
        cache_put(tmp_path, UserActivityLog("u1", [make_record(ts=1)]))
        (tmp_path / "u1.jsonl").write_text("not json\n{\"user_id\": null}\n", encoding="utf-8")
        with pytest.raises(AllLinesRejected):
            cache_get(tmp_path, "u1")

    def test_write_error_names_the_user_file(self, tmp_path, monkeypatch):
        def disk_full(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), src, None, dst)

        monkeypatch.setattr(os, "replace", disk_full)
        with pytest.raises(OSError) as info:
            cache_put(tmp_path, UserActivityLog("u1", [make_record(ts=1)]))
        assert (info.value.errno, info.value.filename, info.value.filename2) == (
            errno.ENOSPC, os.path.join(tmp_path, "u1.jsonl"), None)
        assert ".tmp-" in info.value.__cause__.filename
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def interrupt(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            cache_put(tmp_path, UserActivityLog("u1", [make_record(ts=1)]))
        assert list(tmp_path.iterdir()) == []

    def test_failed_temp_file_removal_is_swallowed(self, tmp_path, monkeypatch):
        def disk_full(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), src, None, dst)

        def unlink(path):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        monkeypatch.setattr(os, "replace", disk_full)
        monkeypatch.setattr(os, "unlink", unlink)
        with pytest.raises(OSError) as info:
            cache_put(tmp_path, UserActivityLog("u1", [make_record(ts=1)]))
        assert (info.value.errno, info.value.filename) == (
            errno.ENOSPC, os.path.join(tmp_path, "u1.jsonl"))

    def test_temp_file_error_names_the_directory(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("", encoding="utf-8")
        with pytest.raises(NotADirectoryError) as info:
            cache_put(not_a_dir, UserActivityLog("u1", [make_record(ts=1)]))
        assert info.value.filename == not_a_dir


class TestFetchFromDirectory:
    def test_reads_user_file(self, tmp_path):
        log = random_log(random.Random(5), 8, user="dir-user")
        cache_put(tmp_path, log)
        result = fetch_user_log(tmp_path, "dir-user")
        assert result.log == log
        assert result.truncated is False

    def test_missing_user(self, tmp_path):
        with pytest.raises(UserNotFound):
            fetch_user_log(tmp_path, "nobody")

    def test_partial_rejects_reported(self, tmp_path):
        (tmp_path / "u1.jsonl").write_text(VALID_LINE + "\n{bad\n", encoding="utf-8")
        result = fetch_user_log(tmp_path, "u1")
        assert len(result.log) == 1
        assert result.rejects == ((2, "ParseError"),)

    @pytest.mark.parametrize("error, raised", [
        *((OSError(code, os.strerror(code)), UserNotFound)
          for code in (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP)),
        (ValueError("embedded null byte"), UserNotFound),
        (OSError(errno.EACCES, os.strerror(errno.EACCES)), PermissionError),
        (OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG)), OSError),
    ])
    def test_stat_errors_as_path_is_file_reads_them(self, tmp_path, monkeypatch, error, raised):
        (tmp_path / "u1.jsonl").write_text(VALID_LINE + "\n", encoding="utf-8")
        real_stat = os.stat

        def stat(path, *args, **kwargs):
            if os.fspath(path).endswith("u1.jsonl"):
                raise error
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", stat)
        with pytest.raises(raised) as excinfo:
            fetch_user_log(tmp_path, "u1")
        assert excinfo.type is raised


class TestDecodePage:
    def test_non_utf8_body_is_malformed(self):
        with pytest.raises(MalformedPage, match="page token 'p3'") as excinfo:
            _decode_page(b'{"comments": [], "x": "\xff"}', "p3")
        assert excinfo.value.page_token == "p3"

    def test_instant_after_year_9999_is_malformed(self):
        comment = {**json.loads(VALID_LINE), "published_at": AFTER_YEAR_9999}
        with pytest.raises(MalformedPage, match="bad record"):
            _decode_page(json.dumps({"comments": [comment]}).encode("utf-8"), None)

    def test_deeply_nested_body_is_malformed(self):
        with pytest.raises(MalformedPage, match="invalid JSON"):
            _decode_page(DEEP_JSON.encode(), None)
        with pytest.raises(MalformedPage, match="invalid JSON"):
            _decode_page(b'{"comments": ' + DEEP_JSON.encode() + b"}", "p1")

    @pytest.mark.parametrize("text", [b"\\ud800", b"\xed\xa0\x80"])
    def test_lone_surrogate_is_malformed(self, text):
        """A surrogate spelled as a JSON escape is a bad record; encoded in the bytes, not UTF-8."""
        comment = _with_text(text.decode("utf-8", "surrogatepass")).encode("utf-8", "surrogatepass")
        expected = "bad record: lone surrogate" if text.isascii() else "invalid JSON"
        with pytest.raises(MalformedPage, match=expected):
            _decode_page(b'{"comments": [' + comment + b"]}", None)

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-16-le", "utf-16-be", "utf-32",
                                          "utf-32-le"])
    def test_utf16_and_utf32_bodies_are_malformed(self, encoding):
        body = json.dumps({"comments": [json.loads(VALID_LINE)]}).encode(encoding)
        with pytest.raises(MalformedPage, match="invalid JSON"):
            _decode_page(body, None)

    def test_one_byte_order_mark_allowed(self):
        body = json.dumps({"comments": [json.loads(VALID_LINE)]}).encode("utf-8")
        comments, token = _decode_page(b"\xef\xbb\xbf" + body, None)
        assert [rec.user_id for rec in comments] == ["u1"]
        assert token is None
        with pytest.raises(MalformedPage, match="invalid JSON"):
            _decode_page(b"\xef\xbb\xbf" * 2 + body, None)

    @pytest.mark.parametrize("body", [b"[]", b'"page"', b"{}", b'{"comments": {}}'])
    def test_body_that_is_not_a_page_object_is_malformed(self, body):
        with pytest.raises(MalformedPage, match="page token 'p1': body is not a feed page object"):
            _decode_page(body, "p1")

    @pytest.mark.parametrize("token", ["5", "[]", '{"t": "p2"}'])
    def test_next_page_token_that_is_not_a_string_is_malformed(self, token):
        body = b'{"comments": [], "next_page_token": ' + token.encode() + b"}"
        with pytest.raises(MalformedPage, match="next_page_token must be a string"):
            _decode_page(body, None)


class TestFetchHttp:
    def test_two_pages_concatenated(self):
        feed = MockFeed(users={"u1": MockUser(pages=[
            feed_page_records("u1", 0, 50),
            feed_page_records("u1", 50, 50),
        ])})
        with FeedServer(feed) as server:
            result = fetch_user_log(server.base_url, "u1", backoff_s=NO_BACKOFF)
        assert len(result.log) == 100
        assert len({id(rec.user_id) for rec in result.log.records}) == 1  # shared across pages
        assert result.truncated is False
        assert feed.requests == [("u1", None), ("u1", "p1")]

    def test_user_not_found(self):
        feed = MockFeed()
        with FeedServer(feed) as server:
            with pytest.raises(UserNotFound):
                fetch_user_log(server.base_url, "ghost", backoff_s=NO_BACKOFF)

    def test_malformed_second_page_names_token(self):
        feed = MockFeed(users={"u1": MockUser(
            pages=[feed_page_records("u1", 0, 5), feed_page_records("u1", 5, 5)],
            malformed_pages={1},
        )})
        with FeedServer(feed) as server:
            with pytest.raises(MalformedPage) as excinfo:
                fetch_user_log(server.base_url, "u1", backoff_s=NO_BACKOFF)
        assert excinfo.value.page_token == "p1"
        assert "p1" in str(excinfo.value)

    def test_retry_then_success(self):
        feed = MockFeed(users={"u1": MockUser(
            pages=[feed_page_records("u1", 0, 3)], fail_first=2,
        )})
        with FeedServer(feed) as server:
            result = fetch_user_log(server.base_url, "u1", backoff_s=NO_BACKOFF)
        assert len(result.log) == 3
        assert feed.request_count("u1") == 3  # two 500s, then success

    def test_retries_exhausted(self):
        feed = MockFeed(users={"u1": MockUser(
            pages=[feed_page_records("u1", 0, 3)], fail_first=99,
        )})
        with FeedServer(feed) as server:
            with pytest.raises(EndpointUnreachable):
                fetch_user_log(server.base_url, "u1", backoff_s=NO_BACKOFF)
        assert feed.request_count("u1") == 4  # initial attempt + 3 retries

    def test_unreachable_endpoint(self):
        with pytest.raises(EndpointUnreachable):
            fetch_user_log("http://127.0.0.1:9", "u1", backoff_s=NO_BACKOFF)

    @pytest.mark.parametrize("base_url", [
        "http://127.0.0.1:abc",  # a port that is not a number
        "http://127.0.0.1:9/a b",  # a space in the base path
        "http://[::1",  # an unclosed IPv6 address
    ])
    def test_url_that_cannot_be_parsed_is_not_retried(self, monkeypatch, base_url):
        # The URL fails the same way every time: a retry would only sleep.
        sleeps = []
        monkeypatch.setattr(ingest.time, "sleep", sleeps.append)
        with pytest.raises(EndpointUnreachable) as excinfo:
            fetch_user_log(base_url, "u1")
        assert sleeps == []
        assert f"{base_url}/users/u1/comments" in str(excinfo.value)

    @pytest.mark.parametrize("status", [403, 201])
    def test_other_status_not_retried(self, status):
        # A 201 carries a valid page, yet only a 200 is read as one.
        feed = MockFeed(users={"u1": MockUser(
            pages=[feed_page_records("u1", 0, 3)], status_pages={0: status},
        )})
        with FeedServer(feed) as server:
            with pytest.raises(EndpointUnreachable, match=f"HTTP {status} from "):
                fetch_user_log(server.base_url, "u1", backoff_s=NO_BACKOFF)
        assert feed.request_count("u1") == 1

    def test_redirect_followed(self):
        feed = MockFeed(users={
            "u1": MockUser(pages=[[]], redirect_pages={0: "/users/u1-moved/comments"}),
            "u1-moved": MockUser(pages=[feed_page_records("u1", 0, 3)]),
        })
        with FeedServer(feed) as server:
            result = fetch_user_log(server.base_url, "u1", backoff_s=NO_BACKOFF)
        assert [rec.comment_id for rec in result.log.records] == ["u1-c0000", "u1-c0001",
                                                                   "u1-c0002"]
        assert feed.requests == [("u1", None), ("u1-moved", None)]

    def test_body_cut_short_retried(self):
        feed = MockFeed(users={"u1": MockUser(
            pages=[feed_page_records("u1", 0, 3)], short_pages={0},
        )})
        with FeedServer(feed) as server:
            with pytest.raises(EndpointUnreachable, match="giving up on "):
                fetch_user_log(server.base_url, "u1", backoff_s=NO_BACKOFF)
        assert feed.request_count("u1") == 4

    def test_timeout_retried(self):
        feed = MockFeed(users={"u1": MockUser(pages=[feed_page_records("u1", 0, 3)],
                                              stall_s=1.0)})
        with FeedServer(feed) as server:
            start = time.monotonic()
            with pytest.raises(EndpointUnreachable, match="giving up on "):
                fetch_user_log(server.base_url, "u1", backoff_s=NO_BACKOFF, timeout_s=0.2)
            elapsed = time.monotonic() - start
        assert feed.request_count("u1") == 4
        assert elapsed < 3.0  # four 0.2 s timeouts, not four 1 s stalls

    @pytest.mark.parametrize("user_id", ["a/b", "a b", "é", "a?b", "50%"])
    def test_percent_encoded_user_id(self, user_id):
        feed = MockFeed(users={user_id: MockUser(pages=[
            feed_page_records(user_id, 0, 2),
            feed_page_records(user_id, 2, 2),
        ])})
        with FeedServer(feed) as server:
            result = fetch_user_log(server.base_url, user_id, backoff_s=NO_BACKOFF)
        assert result.log.user_id == user_id
        assert len(result.log) == 4
        assert feed.requests == [(user_id, None), (user_id, "p1")]

    def test_page_limit_truncates(self):
        feed = MockFeed(users={"u1": MockUser(pages=[
            feed_page_records("u1", 0, 10),
            feed_page_records("u1", 10, 10),
            feed_page_records("u1", 20, 10),
        ])})
        with FeedServer(feed) as server:
            result = fetch_user_log(server.base_url, "u1", page_limit=2,
                                    backoff_s=NO_BACKOFF)
        assert len(result.log) == 20
        assert result.truncated is True

    def test_bad_page_limit(self):
        with pytest.raises(ValueError):
            fetch_user_log("http://example.invalid", "u1", page_limit=0)

    @pytest.mark.parametrize("scheme", ["http", "HTTP", "hTTps"])
    def test_credentials_in_endpoint_rejected(self, scheme):
        feed = MockFeed(users={"u1": MockUser(pages=[feed_page_records("u1", 0, 3)])})
        with FeedServer(feed) as server:
            endpoint = server.base_url.replace("http://", f"{scheme}://user:s3cret@")
            with pytest.raises(ValueError, match="credentials") as excinfo:
                fetch_user_log(endpoint, "u1", backoff_s=NO_BACKOFF)
        assert "s3cret" not in str(excinfo.value)
        assert feed.requests == []

    def test_at_sign_after_the_host_is_not_a_credential(self):
        with FeedServer(MockFeed()) as server:
            with pytest.raises(UserNotFound):  # the feed was asked, and answered 404
                fetch_user_log(server.base_url + "/feeds/@me", "u1@x", backoff_s=NO_BACKOFF)
