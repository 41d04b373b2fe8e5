"""Shared test helpers: record builders, oracles, mock feed server.

The pair oracles here enumerate every unordered pair explicitly. They must
stay independent of the library's counting-formula implementations: they are
the ground truth those implementations are checked against. The reference
codecs (JSON objects, RFC3339, the JSONL and CSV readers) are the earlier, plainer
implementations, against which the fast paths are checked.
"""

from __future__ import annotations

import csv
import itertools
import json
import random
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlparse

from spamminer.model import (
    CommentRecord,
    FeatureVector,
    Indicator,
    UserActivityLog,
    ValidationError,
    Verdict,
    decode_record,
    parse_rfc3339,
)
from spamminer.ingest import CSV_REQUIRED_COLUMNS, MissingHeader


def make_record(user="u1", video="v1", ts=0, text="", hint=False, cid=None) -> CommentRecord:
    return CommentRecord(
        user_id=user, video_id=video, timestamp_s=ts,
        text=text, has_spam_hint=hint, comment_id=cid,
    )


def make_log(user="u1", rows=()) -> UserActivityLog:
    """Build a log from (ts, text, video, hint) tuples; shorter tuples get defaults."""
    records = []
    for i, row in enumerate(rows):
        ts = row[0]
        text = row[1] if len(row) > 1 else f"t{i}"
        video = row[2] if len(row) > 2 else "v1"
        hint = row[3] if len(row) > 3 else False
        records.append(make_record(user=user, video=video, ts=ts, text=text, hint=hint))
    return UserActivityLog(user, records)


def reference_log_records(records: list[CommentRecord]) -> tuple[CommentRecord, ...]:
    """The records a log of these holds, found the plain way, as an oracle for UserActivityLog.

    First drop every record whose comment_id an earlier record holds, then
    order the rest by timestamp, comment_id (absent as "") and input
    position. It does not check whose records they are.
    """
    kept = [rec for i, rec in enumerate(records)
            if rec.comment_id is None
            or all(other.comment_id != rec.comment_id for other in records[:i])]
    order = sorted(range(len(kept)),
                   key=lambda i: (kept[i].timestamp_s, kept[i].comment_id or "", i))
    return tuple(kept[i] for i in order)


# --- brute-force oracles ----------------------------------------------------

def brute_atdc(timestamps) -> float | None:
    diffs = [abs(a - b) for a, b in itertools.combinations(timestamps, 2)]
    if not diffs:
        return None
    return sum(diffs) / len(diffs)


def brute_pair_counts(items, predicate) -> tuple[int, int]:
    """(qualifying pairs, total pairs) by explicit enumeration."""
    hits = 0
    total = 0
    for a, b in itertools.combinations(items, 2):
        total += 1
        if predicate(a, b):
            hits += 1
    return hits, total


def brute_pair_fraction(items, predicate) -> float:
    hits, total = brute_pair_counts(items, predicate)
    return hits / total if total else 0.0


# --- reference timestamp parser --------------------------------------------

def reference_parse_rfc3339(value: str) -> int:
    """The earlier datetime.fromisoformat-based parser, kept as an oracle.

    It accepts more than RFC3339 and what it accepts depends on the Python
    version, so compare against it only on spellings both versions accept:
    `T`, `Z` or a numeric offset, and 3 or 6 fraction digits.
    """
    dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.replace(microsecond=0).timestamp())


def reference_format_rfc3339(timestamp_s: int) -> str:
    """The earlier datetime-based formatter, kept as an oracle for format_rfc3339."""
    return datetime.fromtimestamp(timestamp_s, tz=timezone.utc).isoformat().replace("+00:00", "Z")


# --- canonical JSON objects (oracles for the line encoders) -----------------

def encode_record(rec: CommentRecord) -> dict:
    """Canonical JSON object for one record; comment_id omitted when absent.

    json.dumps(encode_record(rec), ensure_ascii=False) is the line that
    record_to_json must write.
    """
    obj: dict = {"user_id": rec.user_id}
    if rec.comment_id is not None:
        obj["comment_id"] = rec.comment_id
    obj["video_id"] = rec.video_id
    obj["published_at"] = reference_format_rfc3339(rec.timestamp_s)
    obj["text"] = rec.text
    obj["has_spam_hint"] = rec.has_spam_hint
    return obj


def encode_features(fv: FeatureVector) -> dict:
    """JSON object for a feature vector; atdc_s omitted when absent."""
    obj: dict = {"user_id": fv.user_id, "n_comments": fv.n_comments}
    if fv.atdc_s is not None:
        obj["atdc_s"] = fv.atdc_s
    obj["pchf_pct"] = fv.pchf_pct
    obj["crr"] = fv.crr
    obj["vidovp"] = fv.vidovp
    obj["crav"] = fv.crav
    return obj


def encode_verdict(verdict: Verdict) -> dict:
    """JSON object for a verdict, whose json.dumps verdict_to_json must write."""
    triggered = [ind.value for ind in Indicator if ind in verdict.triggered]
    return {
        "user_id": verdict.user_id,
        "label": verdict.label.value,
        "triggered": triggered,
        "features": encode_features(verdict.features),
    }


# --- reference JSONL reader --------------------------------------------------

def reference_parse_jsonl(lines) -> tuple[list[CommentRecord], list[tuple[int, str]]]:
    """(records, rejects) of JSONL bytes lines, each decoded whole by JSONDecoder.decode.

    The earlier reader, kept as an oracle for ingest.iter_jsonl: a line that
    is not UTF-8 is rejected as ParseError, a line blank under str.strip() is
    skipped, and a line is rejected by the name of its ValidationError, or as
    ParseError.
    """
    decode = json.JSONDecoder().decode
    records: list[CommentRecord] = []
    rejects: list[tuple[int, str]] = []
    for line_no, line in enumerate(lines, start=1):
        try:
            line = line.decode("utf-8")
            if not line.strip():
                continue
            rec = decode_record(decode(line))
        except ValidationError as exc:
            rejects.append((line_no, type(exc).__name__))
        except ValueError:
            rejects.append((line_no, "ParseError"))
        else:
            records.append(rec)
    return records, rejects


# --- reference CSV reader ----------------------------------------------------

def reference_parse_csv(lines) -> tuple[list[CommentRecord], list[tuple[int, str]]]:
    """(records, rejects) of CSV bytes lines, with each line that is not UTF-8 found by its number.

    The earlier reader, kept as an oracle for ingest.iter_csv. A line that is
    not UTF-8 is decoded with replacement characters and its number
    kept; a header read by then is MissingHeader, and a row is a ParseError
    reject when the last such number is at or after the row's first line,
    since the CSV reader reads no line past the row. Raises MissingHeader as
    iter_csv does, but returns no records, rather than raising
    AllLinesRejected, when no row parsed.
    """
    not_utf8: list[int] = []

    def text_lines():
        for line_no, line in enumerate(lines, start=1):
            if line_no == 1:
                line = line.removeprefix("\ufeff".encode("utf-8"))
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                not_utf8.append(line_no)
                line = line.decode("utf-8", "replace")
            yield line

    reader = csv.reader(text_lines())
    header = next(reader, None)
    if header is None:
        return [], []
    if not_utf8:
        raise MissingHeader("header line is not UTF-8")
    columns = [name.strip() for name in header]
    for name in CSV_REQUIRED_COLUMNS:
        if name not in columns:
            raise MissingHeader(f"missing column: {name!r}")
    for name in (*CSV_REQUIRED_COLUMNS, "comment_id"):
        if columns.count(name) > 1:
            raise MissingHeader(f"duplicate column: {name!r}")
    flags = {"true": True, "1": True, "false": False, "0": False, "": False}
    records: list[CommentRecord] = []
    rejects: list[tuple[int, str]] = []
    while True:
        line_no = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error:
            rejects.append((line_no, "ParseError"))
            continue
        if not "".join(row).strip():
            continue
        try:
            if not_utf8 and not_utf8[-1] >= line_no:
                raise ValueError(f"line {not_utf8[-1]} is not UTF-8")
            if len(row) != len(columns):
                raise ValueError("short or long row")
            cell = dict(zip(columns, row))  # each column read is named once
            hint = flags.get(cell["has_spam_hint"].strip().lower())
            if hint is None:
                raise ValueError("bad has_spam_hint")
            rec = CommentRecord(cell["user_id"], cell["video_id"],
                                parse_rfc3339(cell["published_at"].strip()), cell["text"], hint,
                                cell.get("comment_id"))
        except ValidationError as exc:
            rejects.append((line_no, type(exc).__name__))
        except ValueError:
            rejects.append((line_no, "ParseError"))
        else:
            records.append(rec)
    return records, rejects


# --- random log suite -------------------------------------------------------

TEXT_ALPHABET = ("a", "b", "c", "d", "e")
VIDEO_IDS = ("v1", "v2", "v3", "v4")


def random_log(rng: random.Random, n: int, user="u1") -> UserActivityLog:
    records = [
        make_record(
            user=user,
            video=rng.choice(VIDEO_IDS),
            ts=rng.randrange(0, 1_000_000),
            text=rng.choice(TEXT_ALPHABET),
            hint=rng.random() < 0.3,
            cid=f"c{i:03d}",
        )
        for i in range(n)
    ]
    return UserActivityLog(user, records)


def random_log_suite(seed: int, count: int, n_max: int = 50) -> list[UserActivityLog]:
    rng = random.Random(seed)
    return [random_log(rng, rng.randint(0, n_max)) for _ in range(count)]


# --- mock paged feed server --------------------------------------------------

@dataclass
class MockUser:
    pages: list[list[dict]]
    malformed_pages: set[int] = field(default_factory=set)
    raw_pages: dict[int, bytes] = field(default_factory=dict)  # bodies served as-is
    fail_first: int = 0  # number of HTTP 500s to serve before succeeding
    status_pages: dict[int, int] = field(default_factory=dict)  # page served with this status
    redirect_pages: dict[int, str] = field(default_factory=dict)  # page answered by a 302 here
    short_pages: set[int] = field(default_factory=set)  # body cut short of its Content-Length
    stall_s: float = 0.0  # hold each request this long, then close without an answer


@dataclass
class MockFeed:
    users: dict[str, MockUser] = field(default_factory=dict)
    requests: list[tuple[str, str | None]] = field(default_factory=list)
    _failures_served: dict[str, int] = field(default_factory=dict)

    def request_count(self, user_id: str) -> int:
        return sum(1 for uid, _ in self.requests if uid == user_id)


class _FeedHandler(BaseHTTPRequestHandler):
    feed: MockFeed  # set per server

    def log_message(self, *args) -> None:  # keep test output quiet
        pass

    def do_GET(self) -> None:
        parsed = urlparse(self.path)
        parts = parsed.path.strip("/").split("/")
        if len(parts) != 3 or parts[0] != "users" or parts[2] != "comments":
            self.send_error(404)
            return
        user_id = unquote(parts[1])
        query = parse_qs(parsed.query)
        token = query.get("page_token", [None])[0]
        self.feed.requests.append((user_id, token))

        user = self.feed.users.get(user_id)
        if user is None:
            self.send_error(404)
            return
        if user.stall_s:
            time.sleep(user.stall_s)
            return
        served = self.feed._failures_served.get(user_id, 0)
        if served < user.fail_first:
            self.feed._failures_served[user_id] = served + 1
            self.send_error(500)
            return

        page_idx = 0 if token is None else int(token.removeprefix("p"))
        if page_idx in user.redirect_pages:
            self.send_response(302)
            self.send_header("Location", user.redirect_pages[page_idx])
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        if page_idx in user.malformed_pages:
            body = b"{this is not a feed page"
        elif page_idx in user.raw_pages:
            body = user.raw_pages[page_idx]
        else:
            page_obj: dict = {"comments": user.pages[page_idx]}
            if page_idx + 1 < len(user.pages):
                page_obj["next_page_token"] = f"p{page_idx + 1}"
            body = json.dumps(page_obj).encode("utf-8")
        self.send_response(user.status_pages.get(page_idx, 200))
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body[:-1] if page_idx in user.short_pages else body)


class FeedServer:
    """A live mock feed on localhost; use as a context manager."""

    def __init__(self, feed: MockFeed) -> None:
        self.feed = feed
        handler = type("Handler", (_FeedHandler,), {"feed": feed})
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        self.base_url = f"http://127.0.0.1:{self._server.server_port}"
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    def __enter__(self) -> "FeedServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()


def feed_page_records(user_id: str, start: int, count: int) -> list[dict]:
    """Canonical record objects for one feed page."""
    return [
        encode_record(
            make_record(
                user=user_id,
                video=f"v{(start + i) % 7}",
                ts=1_600_000_000 + (start + i) * 60,
                text=f"comment {start + i}",
                cid=f"{user_id}-c{start + i:04d}",
            )
        )
        for i in range(count)
    ]
