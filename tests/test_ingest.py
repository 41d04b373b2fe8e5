"""Parsers, per-user grouping, cache round-trips, and the paged feed client."""

from __future__ import annotations

import csv
import io
import json
import random

import pytest
from hypothesis import given, strategies as st

from spamminer.ingest import (
    AllLinesRejected,
    EndpointUnreachable,
    IngestReport,
    MalformedPage,
    MissingHeader,
    NotGrouped,
    UserNotFound,
    _decode_page,
    cache_get,
    cache_put,
    fetch_user_log,
    group_by_user,
    iter_jsonl,
    parse_csv,
    parse_jsonl,
    user_runs,
)
from spamminer.model import build_log, record_to_json

from helpers import (
    FeedServer,
    MockFeed,
    MockUser,
    feed_page_records,
    make_record,
    random_log,
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
        records, _ = parse_jsonl(io.StringIO(VALID_LINE + "\n"))
        assert len(records) == 1

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

    def test_lone_surrogate_in_text_mode_line_rejected(self):
        line = json.dumps({**json.loads(VALID_LINE), "text": "\udfff"}, ensure_ascii=False)
        records, report = parse_jsonl(io.StringIO(VALID_LINE + "\n" + line + "\n"))
        assert len(records) == 1
        assert report.rejects == [(2, "LoneSurrogate")]

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
            assert build_log(log.user_id, records) == log


CSV_HEADER = "user_id,comment_id,video_id,published_at,text,has_spam_hint"


# Lines of JSONL input: valid and invalid records, padded with JSON and
# non-JSON whitespace or followed by extra data, and blank lines.
jsonl_records = st.fixed_dictionaries(
    {"user_id": st.sampled_from(["u1", "u2", " ", ""]),
     "video_id": st.sampled_from(["v1", "v2"]),
     "published_at": st.sampled_from(["2021-01-01T00:00:00Z", "1970-01-01T00:00:00+01:00",
                                      "yesterday"])},
    optional={"text": st.text(max_size=5), "comment_id": st.sampled_from(["c1", "c2", 7]),
              "has_spam_hint": st.sampled_from([True, False, "yes"])},
)
jsonl_padding = st.text(" \t\r\x0c\x0b\u3000", max_size=3)
jsonl_lines = st.one_of(
    st.tuples(jsonl_padding, jsonl_records.map(json.dumps), jsonl_padding,
              st.sampled_from(["", "x", " 1 2", "{}"])).map("".join),
    jsonl_padding,
    st.sampled_from(["1 2", "[]", "null", "{", '"text"']),
)


class TestJsonlScanMatchesDecoder:
    """iter_jsonl's one-scan reader accepts and rejects what JSONDecoder.decode does."""

    @given(st.lists(jsonl_lines, max_size=8), st.booleans())
    def test_same_records_and_rejects(self, lines, as_bytes):
        stream = [line + "\n" for line in lines]
        if as_bytes:
            stream = [line.encode("utf-8") for line in stream]
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

    def test_non_utf8_header_rejected(self):
        stream = io.BytesIO(CSV_HEADER.encode("utf-8") + b",note\xff\n"
                            b"u1,c1,v1,2021-01-01T00:00:00Z,x,false,n\n")
        with pytest.raises(MissingHeader, match="UTF-8"):
            parse_csv(stream)

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

    def test_empty_comment_id_is_absent(self):
        stream = _csv([CSV_HEADER, "u1,,v1,2021-01-01T00:00:00Z,x,false"])
        records, _ = parse_csv(stream)
        assert records[0].comment_id is None

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

    @pytest.mark.parametrize("cell", [0, 1, 2, 4])  # user_id, comment_id, video_id, text
    def test_lone_surrogate_in_text_mode_row_rejected(self, tmp_path, cell):
        good = "u1,c1,v1,2021-01-01T00:00:00Z,x,false".split(",")
        bad = "u1,c2,v1,2021-01-01T00:00:01Z,y,false".split(",")
        bad[cell] += "\ud800"
        multi_line = 'u1,c3,v1,2021-01-01T00:00:02Z,"two\nlines \udfff",false'
        stream = io.StringIO("\n".join([CSV_HEADER, ",".join(good), ",".join(bad), multi_line,
                                        "u1,c4,v1,2021-01-01T00:00:03Z,é,false"]) + "\n")
        records, report = parse_csv(stream)
        assert [rec.comment_id for rec in records] == ["c1", "c4"]
        assert report.rejects == [(3, "LoneSurrogate"), (4, "LoneSurrogate")]
        cache_put(tmp_path, build_log("u1", records))  # every accepted record can be written

    def test_surrogate_in_an_unused_column_is_ignored(self):
        stream = io.StringIO(CSV_HEADER + ",note\nu1,c1,v1,2021-01-01T00:00:00Z,x,false,\ud800\n")
        records, report = parse_csv(stream)
        assert report.accepted == 1
        assert records[0].text == "x"

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
                yield line

        report = IngestReport()
        records = iter_jsonl(stream(), report)
        next(records)
        assert lines_read == [1]
        assert len(list(records)) == 1
        assert lines_read == [1, 2, 3]
        assert (report.accepted, report.rejects) == (2, [(2, "ParseError")])


class TestUserRuns:
    def test_one_run_per_user_in_input_order(self):
        records = (
            [make_record(user="u2", ts=t) for t in (5, 6)]
            + [make_record(user="u1", ts=t) for t in (3, 1, 2)]
        )
        runs = list(user_runs(records))
        assert runs == [("u2", records[:2]), ("u1", records[2:])]

    def test_empty(self):
        assert list(user_runs([])) == []

    def test_run_yielded_when_next_user_starts(self):
        pulled = []

        def records():
            for user in ("a", "a", "b", "c"):
                pulled.append(user)
                yield make_record(user=user)

        runs = user_runs(records())
        assert next(runs)[0] == "a"
        assert pulled == ["a", "a", "b"]

    def test_reappearing_user_raises(self):
        records = [make_record(user=u) for u in ("a", "b", "b", "a")]
        runs = user_runs(records)
        assert [next(runs)[0], next(runs)[0]] == ["a", "b"]
        with pytest.raises(NotGrouped, match="'a'"):
            next(runs)


class TestCache:
    def test_round_trip(self, tmp_path):
        log = random_log(random.Random(3), 12, user="user-a")
        cache_put(tmp_path, log)
        assert cache_get(tmp_path, "user-a") == log

    def test_absent_user(self, tmp_path):
        assert cache_get(tmp_path, "ghost") is None

    def test_put_twice_replaces(self, tmp_path):
        log1 = build_log("u1", [make_record(ts=1, text="old")])
        log2 = build_log("u1", [make_record(ts=2, text="new"), make_record(ts=3)])
        cache_put(tmp_path, log1)
        cache_put(tmp_path, log2)
        assert cache_get(tmp_path, "u1") == log2
        # no temp droppings left behind
        assert sorted(p.name for p in tmp_path.iterdir()) == ["u1.jsonl"]

    @pytest.mark.parametrize("user_id", ["../escape", "a/b", "50%/x"])
    def test_user_id_stays_inside_directory(self, tmp_path, user_id):
        cache_dir = tmp_path / "cache"
        log = build_log(user_id, [make_record(user=user_id, ts=1, cid="c1")])
        path = cache_put(cache_dir, log)
        assert path.parent == cache_dir
        assert [p.name for p in tmp_path.iterdir()] == ["cache"]
        assert [p.name for p in cache_dir.iterdir()] == [path.name]
        assert cache_get(cache_dir, user_id) == log

    def test_corrupt_entry_raises(self, tmp_path):
        cache_put(tmp_path, build_log("u1", [make_record(ts=1)]))
        (tmp_path / "u1.jsonl").write_text("not json\n{\"user_id\": null}\n")
        with pytest.raises(AllLinesRejected):
            cache_get(tmp_path, "u1")


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
        (tmp_path / "u1.jsonl").write_text(VALID_LINE + "\n{bad\n")
        result = fetch_user_log(tmp_path, "u1")
        assert len(result.log) == 1
        assert result.rejects == ((2, "ParseError"),)


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
        """A surrogate spelled as a JSON escape, or encoded in the UTF-8 bytes."""
        comment = _with_text(text.decode("utf-8", "surrogatepass")).encode("utf-8", "surrogatepass")
        with pytest.raises(MalformedPage, match="bad record: lone surrogate"):
            _decode_page(b'{"comments": [' + comment + b"]}", None)


class TestFetchHttp:
    def test_two_pages_concatenated(self):
        feed = MockFeed(users={"u1": MockUser(pages=[
            feed_page_records("u1", 0, 50),
            feed_page_records("u1", 50, 50),
        ])})
        with FeedServer(feed) as server:
            result = fetch_user_log(server.base_url, "u1", backoff_s=NO_BACKOFF)
        assert len(result.log) == 100
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
