"""Comment-log ingestion: file parsers, paged feed client, on-disk cache.

File parsing is skip-and-report, not fail-fast: crawled logs are dirty, and
one malformed line must never cost the well-formed lines around it. Hard
failure (AllLinesRejected) is reserved for input where nothing at all
parsed.

The feed protocol is deliberately minimal so a mock server or a plain
directory of files can stand in for a real comment-activity API:

    GET {base}/users/{user_id}/comments[?page_token=T]
        -> 200 {"comments": [<canonical record>...], "next_page_token": str?}
        -> 404 when the user is unknown

next_page_token is absent on the final page. A directory endpoint serves
one JSONL file per user instead, in the cache layout (see user_file).
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
import time
from collections import defaultdict
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple
from urllib.parse import quote, urlencode

from .model import (
    CommentRecord,
    UserActivityLog,
    ValidationError,
    _Value,
    build_log,
    check_no_surrogates,
    decode_record,
    parse_rfc3339,
    record_to_json,
)


class ParseError(ValueError):
    """A line or row could not be decoded into a record."""


class MissingHeader(ValueError):
    """A CSV input lacks one or more required header columns, or its header is not UTF-8."""


class AllLinesRejected(ValueError):
    """Non-empty input produced zero valid records."""

    def __init__(self, report: "IngestReport") -> None:
        super().__init__(f"all {report.rejected} input lines rejected")
        self.report = report


class EndpointUnreachable(IOError):
    """The feed endpoint could not be reached after retries."""


class MalformedPage(ValueError):
    """A feed page body was not a valid page of the feed protocol."""

    def __init__(self, message: str, page_token: str | None = None) -> None:
        token_desc = "initial page" if page_token is None else f"page token {page_token!r}"
        super().__init__(f"{token_desc}: {message}")
        self.page_token = page_token


class UserNotFound(LookupError):
    """The endpoint has no log for the requested user."""


class IngestReport(_Value):
    """Tally of accepted vs rejected input lines.

    rejects holds (line number, error name) for every rejected line, in
    input order. accepted + rejected equals the number of lines attempted
    (blank lines and the CSV header are not attempted). Mutable, so unhashable.
    """

    __slots__ = ("accepted", "rejected", "rejects")

    def __init__(self, accepted: int = 0, rejected: int = 0,
                 rejects: list[tuple[int, str]] | None = None) -> None:
        self.accepted = accepted
        self.rejected = rejected
        self.rejects = [] if rejects is None else rejects

    def reject(self, line_no: int, error_name: str) -> None:
        self.rejected += 1
        self.rejects.append((line_no, error_name))


# The C scanner under json.JSONDecoder.decode, called directly: a line is
# accepted when, stripped of JSON whitespace, it scans to its end.
_scan_json = json.JSONDecoder().scan_once
_JSON_WHITESPACE = " \t\n\r"


def parse_jsonl(stream: IO | Iterable) -> tuple[list[CommentRecord], IngestReport]:
    """Parse canonical JSON-Lines input, one record attempted per non-empty line.

    Malformed lines are recorded in the report and skipped; they never abort
    the stream. Raises AllLinesRejected when the input had lines but none
    parsed.
    """
    report = IngestReport()
    return list(iter_jsonl(stream, report)), report


def iter_jsonl(stream: IO | Iterable, report: IngestReport) -> Iterator[CommentRecord]:
    """parse_jsonl, one record at a time: yield each record, tally every line in report.

    Raises AllLinesRejected when the stream is exhausted with lines but no
    record.
    """
    for line_no, line in enumerate(stream, start=1):
        try:
            if isinstance(line, bytes):
                text = line.decode("utf-8").strip(_JSON_WHITESPACE)
                # Decoded UTF-8 holds no surrogate: only a \u escape can spell one.
                maybe_surrogate = "\\u" in text
            else:
                text = line.strip(_JSON_WHITESPACE)
                maybe_surrogate = "\\u" in text or not text.isascii()
            try:
                obj, end = _scan_json(text, 0)
            except StopIteration:  # no JSON value: a blank line is skipped
                if not text.strip():
                    continue
                raise ParseError("expecting a JSON value") from None
            if end != len(text):
                raise ParseError(f"extra data after column {end}")
            rec = decode_record(obj)
            if maybe_surrogate:
                check_no_surrogates(rec)
        except ValidationError as exc:
            report.reject(line_no, type(exc).__name__)
        except (ValueError, RecursionError):  # not UTF-8, not JSON, too deep, or a bad published_at
            report.reject(line_no, "ParseError")
        else:
            report.accepted += 1
            yield rec
    if report.rejected and not report.accepted:
        raise AllLinesRejected(report)


CSV_REQUIRED_COLUMNS = ("user_id", "video_id", "published_at", "text", "has_spam_hint")
_FLAG_VALUES = {"true": True, "1": True, "false": False, "0": False, "": False}


def parse_csv(stream: IO | Iterable) -> tuple[list[CommentRecord], IngestReport]:
    """Parse CSV input with the same skip-and-report contract as parse_jsonl.

    The first row must be a header containing at least user_id, video_id,
    published_at, text, and has_spam_hint (comment_id is optional); quoted
    fields may contain commas and newlines. Raises MissingHeader when a
    required column is absent or the header is not UTF-8. Reject line
    numbers refer to physical lines in the file, as with JSONL.
    """
    report = IngestReport()
    return list(iter_csv(stream, report)), report


def iter_csv(stream: IO | Iterable, report: IngestReport) -> Iterator[CommentRecord]:
    """parse_csv, one record at a time, as iter_jsonl is to parse_jsonl.

    MissingHeader is raised when the first record is asked for.
    """
    not_utf8: list[int] = []
    non_ascii_text: list[int] = []
    reader = csv.reader(_csv_lines(stream, not_utf8, non_ascii_text))
    try:
        header = next(reader)
    except StopIteration:
        return
    if not_utf8:
        raise MissingHeader("header line is not UTF-8")
    columns = [name.strip() for name in header]
    missing = [name for name in CSV_REQUIRED_COLUMNS if name not in columns]
    if missing:
        raise MissingHeader(f"missing column: {missing[0]!r}")
    user_col, video_col, published_col, text_col, hint_col = (
        columns.index(name) for name in CSV_REQUIRED_COLUMNS)
    comment_id_col = columns.index("comment_id") if "comment_id" in columns else None
    width = len(columns)

    while True:
        line_no = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error:
            report.reject(line_no, "ParseError")
            continue
        if not "".join(row).strip():  # no cells, or only blank ones
            continue
        try:
            # The reader reads no line past the row, so a non-UTF-8 line
            # numbered line_no or later lies inside it.
            if not_utf8 and not_utf8[-1] >= line_no:
                raise ParseError(f"line {not_utf8[-1]} is not UTF-8")
            if len(row) < width:
                raise ParseError(f"row has {len(row)} fields, expected {width}")
            hint = _FLAG_VALUES.get(row[hint_col].strip().lower())
            if hint is None:
                raise ParseError(f"bad has_spam_hint value: {row[hint_col]!r}")
            comment_id = row[comment_id_col].strip() if comment_id_col is not None else ""
            rec = CommentRecord(row[user_col], row[video_col],
                                parse_rfc3339(row[published_col].strip()),
                                row[text_col], hint, comment_id or None)
            # Decoded UTF-8 holds no surrogate; a text-mode line may, if it is not ASCII.
            if non_ascii_text and non_ascii_text[-1] >= line_no:
                check_no_surrogates(rec)
        except ValidationError as exc:
            report.reject(line_no, type(exc).__name__)
        except ValueError:  # a ParseError, or a bad published_at
            report.reject(line_no, "ParseError")
        else:
            report.accepted += 1
            yield rec
    if report.rejected and not report.accepted:
        raise AllLinesRejected(report)


def _csv_lines(
    stream: IO | Iterable, not_utf8: list[int], non_ascii_text: list[int]
) -> Iterator[str]:
    """Yield each physical line as text; append the number of each non-UTF-8 line to not_utf8.

    Such a line is yielded with replacement characters, so the CSV reader
    keeps its place, and parse_csv rejects the row that spans it. The number
    of each line that came as text, not bytes, and is not ASCII goes to
    non_ascii_text: only such a line can hold a lone surrogate.
    """
    for line_no, line in enumerate(stream, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                not_utf8.append(line_no)
                line = line.decode("utf-8", "replace")
        elif not line.isascii():
            non_ascii_text.append(line_no)
        yield line


def group_by_user(records: Iterable[CommentRecord]) -> list[UserActivityLog]:
    """Group records into one built log per distinct user, sorted by user_id."""
    by_user: dict[str, list[CommentRecord]] = defaultdict(list)
    for rec in records:
        by_user[rec.user_id].append(rec)
    return [build_log(user_id, recs) for user_id, recs in sorted(by_user.items())]


class NotGrouped(ValueError):
    """A user_id reappeared after the run of its records had ended."""


def user_runs(records: Iterable[CommentRecord]) -> Iterator[tuple[str, list[CommentRecord]]]:
    """Yield (user_id, records) for each contiguous run of one user's records.

    A run is complete, and yielded, once the next user_id starts, so only one
    user's records are held at a time. Raises NotGrouped when a user_id
    whose run has ended appears again; the runs yielded so far are then
    incomplete, and the input has to be grouped whole (group_by_user).
    """
    finished: set[str] = set()
    for user_id, run in groupby(records, key=attrgetter("user_id")):
        if user_id in finished:
            raise NotGrouped(f"records of {user_id!r} are not contiguous")
        finished.add(user_id)
        yield user_id, list(run)


# --- paged feed client -----------------------------------------------------

DEFAULT_PAGE_LIMIT = 20
RETRY_BACKOFF_S = (0.5, 1.0, 2.0)


class FetchResult(NamedTuple):
    """A fetched log plus whether the page limit truncated it.

    rejects holds (line number, error name) for every line of a directory
    endpoint's file that did not parse, as in IngestReport.rejects.
    """

    log: UserActivityLog
    truncated: bool = False
    rejects: tuple[tuple[int, str], ...] = ()


def _decode_page(
    body: bytes, page_token: str | None
) -> tuple[tuple[CommentRecord, ...], str | None]:
    """(comments, next_page_token) of one feed page body."""
    try:
        obj = json.loads(body)
    except (ValueError, RecursionError) as exc:  # not JSON, not Unicode, or nested too deep
        raise MalformedPage(f"invalid JSON: {exc}", page_token) from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("comments"), list):
        raise MalformedPage("body is not a feed page object", page_token)
    token = obj.get("next_page_token")
    if token is not None and not isinstance(token, str):
        raise MalformedPage("next_page_token must be a string", page_token)
    try:
        # json.loads lets a UTF-8-encoded surrogate through, so every record is checked.
        comments = tuple(check_no_surrogates(decode_record(item)) for item in obj["comments"])
    except ValueError as exc:
        raise MalformedPage(f"bad record: {exc}", page_token) from exc
    return comments, token


def _get_page(
    base_url: str,
    user_id: str,
    page_token: str | None,
    backoff_s: tuple[float, ...],
    timeout_s: float,
) -> tuple[tuple[CommentRecord, ...], str | None]:
    url = f"{base_url.rstrip('/')}/users/{quote(user_id, safe='')}/comments"
    if page_token is not None:
        url += "?" + urlencode({"page_token": page_token})
    import requests  # imported here: only the HTTP feed needs it, and it is slow to import

    # One initial attempt plus one retry per backoff step; 404 is definitive
    # and never retried, transport errors and 5xx are.
    last_error: Exception | None = None
    for attempt in range(len(backoff_s) + 1):
        if attempt:
            time.sleep(backoff_s[attempt - 1])
        try:
            response = requests.get(url, timeout=timeout_s)
        except requests.RequestException as exc:
            last_error = exc
            continue
        if response.status_code == 404:
            raise UserNotFound(f"user {user_id!r} not found at {base_url}")
        if response.status_code >= 500:
            last_error = IOError(f"HTTP {response.status_code} from {url}")
            continue
        if response.status_code != 200:
            raise EndpointUnreachable(f"HTTP {response.status_code} from {url}")
        return _decode_page(response.content, page_token)
    raise EndpointUnreachable(f"giving up on {url}: {last_error}")


def fetch_user_log(
    endpoint: str | os.PathLike,
    user_id: str,
    page_limit: int = DEFAULT_PAGE_LIMIT,
    *,
    backoff_s: tuple[float, ...] = RETRY_BACKOFF_S,
    timeout_s: float = 10.0,
) -> FetchResult:
    """Fetch one user's activity log from a feed endpoint.

    The endpoint is either an HTTP(S) base URL speaking the paged feed
    protocol, or a directory in the cache layout, where a user without a
    file raises UserNotFound. HTTP pages are followed via next_page_token
    until the final page or page_limit pages, whichever comes first; hitting
    the limit returns the partial log with truncated=True. Failed page
    fetches are retried once per backoff step (0.5s, 1s, 2s by default)
    before EndpointUnreachable is raised. A record of another user, in a
    file or on a page, raises MixedUsers.
    """
    if page_limit < 1:
        raise ValueError(f"page_limit must be positive: {page_limit}")
    endpoint_str = os.fspath(endpoint)
    if not endpoint_str.startswith(("http://", "https://")):
        loaded = _read_user_file(endpoint_str, user_id)
        if loaded is None:
            raise UserNotFound(f"no log file for user {user_id!r} in {endpoint_str}")
        log, report = loaded
        return FetchResult(log=log, rejects=tuple(report.rejects))

    records: list[CommentRecord] = []
    token: str | None = None
    truncated = False
    for page_no in range(page_limit):
        comments, token = _get_page(endpoint_str, user_id, token, tuple(backoff_s), timeout_s)
        records.extend(comments)
        if token is None:
            break
        if page_no == page_limit - 1:
            truncated = True
    return FetchResult(log=build_log(user_id, records), truncated=truncated)


# --- on-disk cache ---------------------------------------------------------

def user_file(directory: str | os.PathLike, user_id: str) -> Path:
    """{directory}/{percent-encoded user_id}.jsonl: always a direct child of directory."""
    return Path(directory) / (quote(user_id, safe="") + ".jsonl")


def cache_put(directory: str | os.PathLike, log: UserActivityLog) -> Path:
    """Store a log as one JSONL file per user, atomically (temp file + rename).

    Concurrent writers for distinct users touch distinct files; a repeat put
    for the same user replaces the previous file in one rename.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    target = user_file(directory, log.user_id)
    payload = "".join(record_to_json(rec) + "\n" for rec in log.records).encode("utf-8")
    fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".jsonl")
    try:
        with open(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def cache_get(directory: str | os.PathLike, user_id: str) -> UserActivityLog | None:
    """Load a user's log from the cache layout, or None when it has no file.

    Raises AllLinesRejected when the file has lines but none of them parse,
    so a corrupt entry is never mistaken for an empty log.
    """
    loaded = _read_user_file(directory, user_id)
    return None if loaded is None else loaded[0]


def _read_user_file(
    directory: str | os.PathLike, user_id: str
) -> tuple[UserActivityLog, IngestReport] | None:
    """cache_get, plus the IngestReport of the file's lines."""
    path = user_file(directory, user_id)
    if not path.is_file():
        return None
    with open(path, "rb") as fh:
        records, report = parse_jsonl(fh)
    return build_log(user_id, records), report
