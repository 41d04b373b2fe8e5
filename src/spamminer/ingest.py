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
one JSONL file per user instead, named as user_file names a cache file.
"""

from __future__ import annotations

import codecs
import csv
import errno
import json
import os
import re
import stat
import tempfile
import time
from collections import defaultdict
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple
from urllib.parse import quote, urlencode

from .model import (
    CommentRecord,
    UserActivityLog,
    ValidationError,
    decode_record,
    parse_rfc3339,
    record_to_json,
    share_ids,
)


class ParseError(ValueError):
    """A line or row could not be decoded into a record."""


class MissingHeader(ValueError):
    """A CSV header lacks a required column, names a column twice, or is not UTF-8 or CSV."""


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


class IngestReport:
    """Tally of accepted vs rejected input lines.

    rejects holds (line number, error name) for every rejected line, in input
    order; rejected is its length. accepted + rejected is the number of lines
    attempted (blank lines and the CSV header are not). Mutable, so unhashable;
    equal by value to another IngestReport only.
    """

    __slots__ = ("accepted", "rejects")

    def __init__(self, accepted: int = 0, rejects: list[tuple[int, str]] | None = None) -> None:
        self.accepted = accepted
        self.rejects = [] if rejects is None else rejects

    def __eq__(self, other):
        if type(other) is not IngestReport:
            return NotImplemented
        return (self.accepted, self.rejects) == (other.accepted, other.rejects)

    def __repr__(self) -> str:
        return f"IngestReport(accepted={self.accepted!r}, rejects={self.rejects!r})"

    def __reduce__(self):
        return IngestReport, (self.accepted, self.rejects)

    @property
    def rejected(self) -> int:
        return len(self.rejects)

    def reject(self, line_no: int, error_name: str) -> None:
        self.rejects.append((line_no, error_name))


# The C scanner under json.JSONDecoder.decode, called directly: a line is
# accepted when, stripped of JSON whitespace, it scans to its end.
_scan_json = json.JSONDecoder().scan_once
_JSON_WHITESPACE = " \t\n\r"


def _without_bom(stream: Iterable[bytes]) -> Iterator[bytes]:
    """The lines of stream, with one leading byte order mark dropped, as an editor may write it."""
    lines = iter(stream)
    first = next(lines, None)
    if first is None:
        return lines
    return chain((first.removeprefix(codecs.BOM_UTF8),), lines)


def parse_jsonl(stream: Iterable[bytes]) -> tuple[list[CommentRecord], IngestReport]:
    """Parse canonical JSON-Lines input, one record attempted per non-empty line.

    stream yields bytes lines, as a file opened "rb" does (a text stream
    raises TypeError), each decoded as strict UTF-8. Malformed lines, not
    UTF-8 among them, are recorded in the report and skipped; they never
    abort the stream. One byte order mark at the start of line 1 is dropped.
    The records share one string per distinct user_id and video_id (share_ids).
    Raises AllLinesRejected when the input had lines but none parsed.
    """
    report = IngestReport()
    return share_ids(iter_jsonl(stream, report)), report


def iter_jsonl(stream: Iterable[bytes], report: IngestReport) -> Iterator[CommentRecord]:
    """parse_jsonl, one record at a time: yield each record, tally every line in report.

    Each record holds its own id strings; a caller that keeps the records
    shares them with share_ids. Raises AllLinesRejected when the stream is
    exhausted with lines but no record.
    """
    for line_no, line in enumerate(_without_bom(stream), start=1):
        try:
            text = line.decode("utf-8").strip(_JSON_WHITESPACE)
            try:
                obj, end = _scan_json(text, 0)
            except StopIteration:  # no JSON value: a blank line is skipped
                if not text.strip():
                    continue
                raise ParseError("expecting a JSON value") from None
            if end != len(text):
                raise ParseError(f"extra data after column {end}")
            rec = decode_record(obj)
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
# What the surrogateescape error handler makes of bytes that are not UTF-8.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")
# The largest limit csv.field_size_limit takes where a C long has 32 bits.
_CSV_FIELD_SIZE_LIMIT = 2**31 - 1


def parse_csv(stream: Iterable[bytes]) -> tuple[list[CommentRecord], IngestReport]:
    """Parse CSV with the same contract as parse_jsonl: bytes lines in, skip and report.

    The first row must be a header containing at least user_id, video_id,
    published_at, text, and has_spam_hint (comment_id is optional); quoted
    fields may contain commas and newlines. A row with more or fewer cells
    than the header is a ParseError reject. One leading byte order mark is
    dropped. Raises MissingHeader when a required column is absent, a column
    it reads is named twice, or the header is not UTF-8 or not CSV (the csv
    module cannot read it, say for a bare carriage return). Reject line numbers
    refer to physical lines in the file, as with JSONL.
    """
    report = IngestReport()
    return share_ids(iter_csv(stream, report)), report


def iter_csv(stream: Iterable[bytes], report: IngestReport) -> Iterator[CommentRecord]:
    """parse_csv, one record at a time, as iter_jsonl is to parse_jsonl (id strings too).

    Each line is decoded with surrogateescape, which makes each byte that is
    not UTF-8 one of U+DC80-U+DCFF and keeps the CSV reader in its place. A
    header holding one of those characters is MissingHeader, and a row
    holding one, in any column, is a ParseError reject at its first line.
    Cells of any size are read: this raises the csv module's field size
    limit, which is process-wide. MissingHeader is raised when the first
    record is asked for.
    """
    csv.field_size_limit(_CSV_FIELD_SIZE_LIMIT)
    reader = csv.reader(line.decode("utf-8", "surrogateescape") for line in _without_bom(stream))
    try:
        header = next(reader)
    except StopIteration:
        return
    except csv.Error as exc:
        raise MissingHeader(f"header line is not CSV: {exc}") from exc
    if _NOT_UTF8.search("".join(header)):
        raise MissingHeader("header line is not UTF-8")
    columns = [name.strip() for name in header]
    missing = [name for name in CSV_REQUIRED_COLUMNS if name not in columns]
    if missing:
        raise MissingHeader(f"missing column: {missing[0]!r}")
    repeated = [name for name in (*CSV_REQUIRED_COLUMNS, "comment_id") if columns.count(name) > 1]
    if repeated:  # which of the two to read would be a guess
        raise MissingHeader(f"duplicate column: {repeated[0]!r}")
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
        joined = "".join(row)
        if not joined.strip():  # no cells, or only blank ones
            continue
        try:
            if not joined.isascii() and _NOT_UTF8.search(joined):
                raise ParseError("row is not UTF-8")
            if len(row) != width:
                raise ParseError(f"row has {len(row)} fields, expected {width}")
            hint = _FLAG_VALUES.get(row[hint_col].strip().lower())
            if hint is None:
                raise ParseError(f"bad has_spam_hint value: {row[hint_col]!r}")
            rec = CommentRecord(row[user_col], row[video_col],
                                parse_rfc3339(row[published_col].strip()), row[text_col], hint,
                                None if comment_id_col is None else row[comment_id_col])
        except ValidationError as exc:
            report.reject(line_no, type(exc).__name__)
        except ValueError:  # a ParseError, or a bad published_at
            report.reject(line_no, "ParseError")
        else:
            report.accepted += 1
            yield rec
    if report.rejected and not report.accepted:
        raise AllLinesRejected(report)


def group_by_user(records: Iterable[CommentRecord]) -> list[UserActivityLog]:
    """Group records into one log per distinct user, sorted by user_id."""
    by_user: dict[str, list[CommentRecord]] = defaultdict(list)
    for rec in records:
        by_user[rec.user_id].append(rec)
    return [UserActivityLog(user_id, recs) for user_id, recs in sorted(by_user.items())]


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
    try:  # UTF-8 only, with one optional byte order mark: json.loads would sniff UTF-16 and -32
        obj = json.loads(body.decode("utf-8-sig"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise MalformedPage(f"invalid JSON: {exc}", page_token) from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("comments"), list):
        raise MalformedPage("body is not a feed page object", page_token)
    token = obj.get("next_page_token")
    if token is not None and not isinstance(token, str):
        raise MalformedPage("next_page_token must be a string", page_token)
    try:
        comments = tuple(decode_record(item) for item in obj["comments"])
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
    # Imported here: only the HTTP feed needs them.
    import http.client
    import urllib.error
    import urllib.request

    # One initial attempt plus one retry per backoff step; 404 is definitive and never
    # retried, transport errors and 5xx are. A URL that cannot be parsed (InvalidURL,
    # ValueError) fails the same way every time, so it is raised at once.
    last_error: Exception | None = None
    for attempt in range(len(backoff_s) + 1):
        if attempt:
            time.sleep(backoff_s[attempt - 1])
        try:
            with urllib.request.urlopen(url, timeout=timeout_s) as response:
                status, body = response.status, response.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            status = exc.code
        except (http.client.InvalidURL, ValueError) as exc:
            raise EndpointUnreachable(f"cannot request {url}: {exc}") from exc
        except (OSError, http.client.HTTPException) as exc:
            last_error = exc
            continue
        if status == 404:
            raise UserNotFound(f"user {user_id!r} not found at {base_url}")
        if status >= 500:
            last_error = IOError(f"HTTP {status} from {url}")
            continue
        if status != 200:
            raise EndpointUnreachable(f"HTTP {status} from {url}")
        return _decode_page(body, page_token)
    raise EndpointUnreachable(f"giving up on {url}: {last_error}")


# An HTTP(S) endpoint, its scheme in any case, and its authority: up to the
# first "/", "?" or "#", as urllib.parse.urlsplit reads it.
_HTTP_ENDPOINT = re.compile(r"https?://([^/?#]*)", re.IGNORECASE)


def _is_http(endpoint: str) -> bool:
    """Whether endpoint is an HTTP(S) URL rather than a directory.

    A URL with credentials (user:password@) is a ValueError whose message does
    not repeat them: http.client would look the whole authority up as a host.
    """
    match = _HTTP_ENDPOINT.match(endpoint)
    if match is not None and "@" in match[1]:
        raise ValueError("credentials in the endpoint URL are not supported (user:password@)")
    return match is not None


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
    protocol (its scheme in any case, and no user:password@, which raises
    ValueError), or a directory in the cache layout, where a user without a
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
    if not _is_http(endpoint_str):
        loaded = _read_user_file(endpoint_str, user_id)
        if loaded is None:
            raise UserNotFound(f"no log file for user {user_id!r} in {endpoint_str}")
        log, report = loaded
        return FetchResult(log=log, rejects=tuple(report.rejects))

    records: list[CommentRecord] = []
    token: str | None = None
    for _ in range(page_limit):
        comments, token = _get_page(endpoint_str, user_id, token, tuple(backoff_s), timeout_s)
        records.extend(comments)
        if token is None:
            break
    return FetchResult(UserActivityLog(user_id, share_ids(records)), truncated=token is not None)


# --- on-disk cache ---------------------------------------------------------

def user_file(directory: str | os.PathLike, user_id: str) -> str:
    """{directory}/{percent-encoded user_id}.jsonl, always a direct child of directory.

    A str, not a Path: pathlib passes every name it parses through sys.intern.
    """
    return os.path.join(directory, quote(user_id, safe="") + ".jsonl")


def cache_put(directory: str | os.PathLike, log: UserActivityLog) -> Path:
    """Store a log as one JSONL file per user, atomically (temp file + rename).

    Concurrent writers for distinct users touch distinct files; a repeat put
    for the same user replaces the previous file in one rename. Returns the
    file's Path, for library callers.
    """
    return Path(_write_user_file(directory, log))


def _write_user_file(directory: str | os.PathLike, log: UserActivityLog) -> str:
    """cache_put, returning the file's name as a string.

    An OSError names the user's file, or directory when no temp file could
    be made there; never the temp file, whose name is random.
    """
    target = user_file(directory, log.user_id)
    payload = "".join(record_to_json(rec) + "\n" for rec in log.records).encode("utf-8")
    try:
        try:
            fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".jsonl")
        except FileNotFoundError:  # the first put into a directory not made yet
            os.makedirs(directory, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".jsonl")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, directory) from exc
    try:
        with open(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp_name, target)
    except BaseException as exc:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, target) from exc
        raise
    return target


def cache_get(directory: str | os.PathLike, user_id: str) -> UserActivityLog | None:
    """Load a user's log from the cache layout, or None when it has no file.

    Raises AllLinesRejected when the file has lines but none of them parse,
    so a corrupt entry is never mistaken for an empty log, and MixedUsers
    when a record in it belongs to another user.
    """
    loaded = _read_user_file(directory, user_id)
    return None if loaded is None else loaded[0]


def _read_user_file(
    directory: str | os.PathLike, user_id: str
) -> tuple[UserActivityLog, IngestReport] | None:
    """cache_get, plus the IngestReport of the file's lines."""
    path = user_file(directory, user_id)
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):  # a directory, or a FIFO that open blocks on
            return None
    except OSError as exc:  # what Path.is_file reads as no file; EACCES and the like are raised
        if exc.errno not in (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP):
            raise
        return None
    except ValueError:  # a NUL in the directory's name
        return None
    with open(path, "rb") as fh:
        records, report = parse_jsonl(fh)
    return UserActivityLog(user_id, records), report
