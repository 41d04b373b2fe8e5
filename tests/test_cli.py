"""End-to-end CLI behavior: exit codes, outputs, composition with the library."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import random
import threading

import pytest

from spamminer import classifier, cli, features, ingest
from spamminer.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_USAGE,
    main,
)
from spamminer.model import format_rfc3339, record_to_json, verdict_to_json
from spamminer.synth import PersonaKind, PersonaSpec, generate, write_corpus

from helpers import FeedServer, MockFeed, MockUser, feed_page_records, make_record


@pytest.fixture
def corpus_path(tmp_path):
    specs = [
        PersonaSpec(PersonaKind.LEGIT, 5),
        PersonaSpec(PersonaKind.FLAGGED, 3),
        PersonaSpec(PersonaKind.BOT, 2),
    ]
    corpus = generate(specs, 11)
    path, _ = write_corpus(corpus, tmp_path / "corpus.jsonl")
    return path


# A JSON array nested far deeper than the interpreter's recursion limit.
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000


# Inputs of which nothing parses: garbage-only JSONL, and CSV whose header is not UTF-8.
REJECTED_INPUTS = [
    ("jsonl", b"not json\nstill not json\n"),
    ("csv", b"user_id,comment_id,video_id,published_at,text,has_spam_hint\xff\n"
            b"u1,c1,v1,2021-01-01T00:00:00Z,hi,false\n"),
]


class TestScore:
    def test_score_ok(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "verdicts.jsonl"
        code = main(["score", "--input", str(corpus_path), "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 10  # one verdict per user
        verdicts = [json.loads(line) for line in lines]
        assert [v["user_id"] for v in verdicts] == sorted(v["user_id"] for v in verdicts)
        by_user = {v["user_id"]: v for v in verdicts}
        assert by_user["flagged-0000"]["label"] == "spammer"
        assert "PCHF" in by_user["flagged-0000"]["triggered"]
        assert by_user["legit-0000"]["label"] == "legit"

    def test_explain_goes_to_stderr(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "verdicts.jsonl"
        code = main(["score", "--input", str(corpus_path), "--output", str(out),
                     "--explain"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bot-0000: spammer" in captured.err
        assert "ATDC" in captured.err

    def test_explain_lists_clauses_in_rule_order(self, tmp_path, capsys):
        # Flagged robot-speed posting on one video: PCHF and ATDC fire, nothing else.
        records = [make_record(user="u1", ts=i, text=f"t{i}", hint=True, cid=f"c{i}")
                   for i in range(8)]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(record_to_json(rec) + "\n" for rec in records))
        code = main(["score", "--input", str(corpus), "--output",
                     str(tmp_path / "verdicts.jsonl"), "--explain"])
        assert code == EXIT_OK
        assert "u1: spammer [PCHF 100 > 70; ATDC 3s < 150s]" in capsys.readouterr().err

    def test_matches_library_composition(self, corpus_path, tmp_path):
        out = tmp_path / "verdicts.jsonl"
        assert main(["score", "--input", str(corpus_path), "--output", str(out)]) == EXIT_OK
        with open(corpus_path, "rb") as fh:
            records, _ = ingest.parse_jsonl(fh)
        logs = ingest.group_by_user(records)
        fvs = [features.feature_vector(log) for log in logs]
        batch = classifier.classify_batch(fvs)
        expected = "".join(verdict_to_json(v) + "\n" for v in batch.verdicts)
        assert out.read_bytes() == expected.encode("utf-8")

    def test_custom_config(self, corpus_path, tmp_path):
        cfg_path = tmp_path / "rule.json"
        cfg_path.write_text(json.dumps({"min_comments": 1000}))
        out = tmp_path / "verdicts.jsonl"
        code = main(["score", "--input", str(corpus_path), "--config", str(cfg_path),
                     "--output", str(out)])
        assert code == EXIT_OK
        labels = {json.loads(line)["label"] for line in out.read_text().splitlines()}
        assert labels == {"insufficient"}

    def test_unknown_config_key(self, corpus_path, tmp_path, capsys):
        cfg_path = tmp_path / "rule.json"
        cfg_path.write_text(json.dumps({"min_commentz": 5}))
        out = tmp_path / "verdicts.jsonl"
        code = main(["score", "--input", str(corpus_path), "--config", str(cfg_path),
                     "--output", str(out)])
        assert code == EXIT_CONFIG
        assert "min_commentz" in capsys.readouterr().err

    def test_non_utf8_config_is_config_error(self, corpus_path, tmp_path, capsys):
        cfg_path = tmp_path / "rule.json"
        cfg_path.write_bytes(b'{"min_comments": 5, "note": "\xff"}')
        code = main(["score", "--input", str(corpus_path), "--config", str(cfg_path),
                     "--output", str(tmp_path / "verdicts.jsonl")])
        assert code == EXIT_CONFIG
        assert f"config error: invalid JSON in {cfg_path}" in capsys.readouterr().err

    def test_pure_garbage_input(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\nstill not json\n")
        code = main(["score", "--input", str(bad), "--output", str(tmp_path / "o.jsonl")])
        assert code == EXIT_REJECTED

    @pytest.mark.parametrize("fmt, content", REJECTED_INPUTS)
    def test_rejected_input_writes_no_output(self, tmp_path, fmt, content):
        bad = tmp_path / f"bad.{fmt}"
        bad.write_bytes(content)
        out = tmp_path / "out" / "verdicts.jsonl"
        code = main(["score", "--input", str(bad), "--format", fmt, "--output", str(out)])
        assert code == EXIT_REJECTED
        assert not out.exists()
        assert not out.parent.exists()

    def test_partial_garbage_is_warning(self, corpus_path, tmp_path, capsys):
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text(corpus_path.read_text() + "garbage line\n")
        out = tmp_path / "verdicts.jsonl"
        code = main(["score", "--input", str(mixed), "--output", str(out)])
        assert code == EXIT_OK
        assert "rejected" in capsys.readouterr().err

    def test_non_utf8_line_is_warning(self, corpus_path, tmp_path, capsys):
        lines = corpus_path.read_bytes().splitlines(keepends=True)
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_bytes(lines[0] + b"\xff\n" + b"".join(lines[1:]))
        code = main(["score", "--input", str(mixed), "--output", str(tmp_path / "o.jsonl")])
        assert code == EXIT_OK
        assert f"{mixed}:2: rejected line (ParseError)" in capsys.readouterr().err

    def test_deeply_nested_line_is_warning(self, corpus_path, tmp_path, capsys):
        lines = corpus_path.read_bytes().splitlines(keepends=True)
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_bytes(lines[0] + DEEP_JSON + b"\n" + b"".join(lines[1:]))
        out = tmp_path / "o.jsonl"
        code = main(["score", "--input", str(mixed), "--output", str(out)])
        assert code == EXIT_OK
        assert f"{mixed}:2: rejected line (ParseError)" in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 10

    def test_deeply_nested_config_is_config_error(self, corpus_path, tmp_path, capsys):
        cfg_path = tmp_path / "deep.json"
        cfg_path.write_bytes(DEEP_JSON)
        code = main(["score", "--input", str(corpus_path), "--config", str(cfg_path),
                     "--output", str(tmp_path / "verdicts.jsonl")])
        assert code == EXIT_CONFIG
        assert f"config error: invalid JSON in {cfg_path}" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path):
        code = main(["score", "--input", str(tmp_path / "absent.jsonl"),
                     "--output", str(tmp_path / "o.jsonl")])
        assert code == EXIT_IO

    def test_csv_format(self, tmp_path):
        csv_path = tmp_path / "corpus.csv"
        csv_path.write_text(
            "user_id,comment_id,video_id,published_at,text,has_spam_hint\n"
            + "".join(
                f"u1,c{i},v1,2021-01-01T00:0{i}:00Z,hello,false\n" for i in range(8)
            )
        )
        out = tmp_path / "verdicts.jsonl"
        code = main(["score", "--input", str(csv_path), "--format", "csv",
                     "--output", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text().splitlines()[0])["features"]["n_comments"] == 8


class TestGoldenOutputs:
    """Byte-identical outputs on the default benchmark mix, seed 2011."""

    def test_score_and_report_digests(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        assert main(["synth", "--seed", "2011", "--out", str(corpus)]) == EXIT_OK
        verdicts = tmp_path / "verdicts.jsonl"
        assert main(["score", "--input", str(corpus), "--output", str(verdicts)]) == EXIT_OK
        figs = tmp_path / "figs"
        assert main(["report", "--input", str(corpus), "--svg",
                     "--outdir", str(figs)]) == EXIT_OK
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (verdicts, figs / "summary.json", figs / "fig6.csv")}
        assert digests == {
            "verdicts.jsonl": "6031e5610f6ddfa3f1a63a56957fa1b3f2c049d53b17648e2d214cd9013099c7",
            "summary.json": "ab143be61403f0cc6e5f2c5fc66246b72023a42903dc570fd00516593dc772bf",
            "fig6.csv": "2f866ebb63724ab1e5078de8ec2b74028b12ce5683b4b4b840000a6069a88f68",
        }


class TestFetch:
    def test_directory_endpoint(self, tmp_path, capsys):
        feed_dir = tmp_path / "feed"
        cache_dir = tmp_path / "cache"
        for uid in ("alice", "bob"):
            records = [make_record(user=uid, ts=i, cid=f"{uid}-{i}") for i in range(3)]
            ingest.cache_put(feed_dir, ingest.group_by_user(records)[0])
        users = tmp_path / "users.txt"
        users.write_text("alice\nbob\nmissing\n")
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(cache_dir)])
        assert code == EXIT_OK  # partial failure tolerated
        assert sorted(p.name for p in cache_dir.iterdir()) == ["alice.jsonl", "bob.jsonl"]
        assert "missing" in capsys.readouterr().err

    def test_directory_endpoint_partial_rejects(self, tmp_path, capsys):
        feed_dir = tmp_path / "feed"
        feed_dir.mkdir()
        good = record_to_json(make_record(user="alice", ts=1, cid="c1"))
        (feed_dir / "alice.jsonl").write_text(good + "\n{bad\n")
        users = tmp_path / "users.txt"
        users.write_text("alice\n")
        cache_dir = tmp_path / "cache"
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(cache_dir)])
        assert code == EXIT_OK
        assert len(ingest.cache_get(cache_dir, "alice")) == 1
        err = capsys.readouterr().err
        assert f"{feed_dir / 'alice.jsonl'}:2: rejected line (ParseError)" in err

    def test_directory_file_instant_after_year_9999(self, tmp_path, capsys):
        feed_dir = tmp_path / "feed"
        feed_dir.mkdir()
        good = record_to_json(make_record(user="alice", ts=1, cid="c1"))
        late = good.replace(format_rfc3339(1), "9999-12-31T23:59:59-00:01")
        (feed_dir / "alice.jsonl").write_text(good + "\n" + late + "\n")
        (feed_dir / "bob.jsonl").write_text(
            record_to_json(make_record(user="bob", ts=1, cid="b1")) + "\n")
        users = tmp_path / "users.txt"
        users.write_text("alice\nbob\n")
        cache_dir = tmp_path / "cache"
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(cache_dir)])
        assert code == EXIT_OK
        assert len(ingest.cache_get(cache_dir, "alice")) == 1
        assert len(ingest.cache_get(cache_dir, "bob")) == 1
        err = capsys.readouterr().err
        assert f"{feed_dir / 'alice.jsonl'}:2: rejected line (ParseError)" in err
        assert "fetched 2/2 users" in err

    def test_non_utf8_users_file_is_usage_error(self, tmp_path, capsys):
        feed_dir = tmp_path / "feed"
        feed_dir.mkdir()
        users = tmp_path / "users.txt"
        users.write_bytes(b"alice\n\xff\n")
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(tmp_path / "cache")])
        assert code == EXIT_USAGE
        assert f"usage error: users file {users} is not UTF-8" in capsys.readouterr().err

    def test_non_utf8_feed_page_is_a_warning(self, tmp_path, capsys):
        feed = MockFeed(users={
            "alice": MockUser(pages=[feed_page_records("alice", 0, 3)]),
            "bob": MockUser(pages=[[]], raw_pages={0: b'{"comments": [], "x": "\xff"}'}),
        })
        users = tmp_path / "users.txt"
        users.write_text("alice\nbob\n")
        cache_dir = tmp_path / "cache"
        with FeedServer(feed) as server:
            code = main(["fetch", "--endpoint", server.base_url, "--users", str(users),
                         "--cache", str(cache_dir)])
        assert code == EXIT_OK  # one failed user is a warning
        assert sorted(p.name for p in cache_dir.iterdir()) == ["alice.jsonl"]
        err = capsys.readouterr().err
        assert "fetch failed for 'bob': initial page: invalid JSON" in err
        assert "fetched 1/2 users" in err

    def test_foreign_record_in_directory_file(self, tmp_path, capsys):
        feed_dir = tmp_path / "feed"
        feed_dir.mkdir()
        records = {"bob": [make_record(user="bob", ts=1, cid="b1"),
                           make_record(user="alice", ts=2, cid="a1")],
                   "carol": [make_record(user="carol", ts=1, cid="c1")]}
        for uid, recs in records.items():
            (feed_dir / f"{uid}.jsonl").write_text(
                "".join(record_to_json(rec) + "\n" for rec in recs))
        users = tmp_path / "users.txt"
        users.write_text("bob\ncarol\n")
        cache_dir = tmp_path / "cache"
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(cache_dir)])
        assert code == EXIT_OK
        assert sorted(p.name for p in cache_dir.iterdir()) == ["carol.jsonl"]
        err = capsys.readouterr().err
        assert "fetch failed for 'bob': record for 'alice' in log of 'bob'" in err
        assert "fetched 1/2 users" in err

        users.write_text("bob\n")
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(tmp_path / "cache2")])
        assert code == EXIT_IO

    def test_foreign_record_on_feed_page(self, tmp_path, capsys):
        feed = MockFeed(users={
            "bob": MockUser(pages=[feed_page_records("bob", 0, 2),
                                   feed_page_records("alice", 2, 1)]),
            "carol": MockUser(pages=[feed_page_records("carol", 0, 3)]),
        })
        users = tmp_path / "users.txt"
        users.write_text("bob\ncarol\n")
        cache_dir = tmp_path / "cache"
        with FeedServer(feed) as server:
            code = main(["fetch", "--endpoint", server.base_url, "--users", str(users),
                         "--cache", str(cache_dir)])
        assert code == EXIT_OK
        assert sorted(p.name for p in cache_dir.iterdir()) == ["carol.jsonl"]
        err = capsys.readouterr().err
        assert "fetch failed for 'bob': record for 'alice' in log of 'bob'" in err
        assert "fetched 1/2 users" in err

    def test_lone_surrogate_in_directory_file(self, tmp_path, capsys):
        feed_dir = tmp_path / "feed"
        feed_dir.mkdir()
        good = record_to_json(make_record(user="alice", ts=1, cid="c1"))
        lone = record_to_json(make_record(user="alice", ts=2, cid="c2", text="hi")).replace(
            '"text": "hi"', '"text": "\\ud800"')
        (feed_dir / "alice.jsonl").write_text(good + "\n" + lone + "\n")
        users = tmp_path / "users.txt"
        users.write_text("alice\n")
        cache_dir = tmp_path / "cache"
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(cache_dir)])
        assert code == EXIT_OK
        assert len(ingest.cache_get(cache_dir, "alice")) == 1
        err = capsys.readouterr().err
        assert f"{feed_dir / 'alice.jsonl'}:2: rejected line (LoneSurrogate)" in err
        assert "fetched 1/1 users" in err

    def test_lone_surrogate_on_feed_page(self, tmp_path, capsys):
        lone = [{**feed_page_records("bob", 0, 1)[0], "text": "\ud800"}]
        feed = MockFeed(users={
            "bob": MockUser(pages=[lone]),
            "carol": MockUser(pages=[feed_page_records("carol", 0, 3)]),
        })
        users = tmp_path / "users.txt"
        users.write_text("bob\ncarol\n")
        cache_dir = tmp_path / "cache"
        with FeedServer(feed) as server:
            code = main(["fetch", "--endpoint", server.base_url, "--users", str(users),
                         "--cache", str(cache_dir)])
        assert code == EXIT_OK
        assert sorted(p.name for p in cache_dir.iterdir()) == ["carol.jsonl"]
        err = capsys.readouterr().err
        assert "fetch failed for 'bob': initial page: bad record: lone surrogate" in err
        assert "fetched 1/2 users" in err

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_page_limit_below_one_is_usage_error(self, tmp_path, capsys, limit):
        feed_dir = tmp_path / "feed"
        feed_dir.mkdir()
        users = tmp_path / "users.txt"
        users.write_text("alice\n")
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(tmp_path / "cache"), "--page-limit", limit])
        assert code == EXIT_USAGE
        assert f"usage error: --page-limit must be at least 1: {limit}" in capsys.readouterr().err

    def test_all_users_fail(self, tmp_path):
        feed_dir = tmp_path / "feed"
        feed_dir.mkdir()
        users = tmp_path / "users.txt"
        users.write_text("ghost\n")
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(tmp_path / "cache")])
        assert code == EXIT_IO


GARBAGE = object()  # stands for a line that does not parse, in either format
CSV_HEADER = "user_id,comment_id,video_id,published_at,text,has_spam_hint\n"


def _render(items, fmt: str) -> bytes:
    """Records (and GARBAGE) as JSONL or CSV, one physical line each."""
    if fmt == "jsonl":
        return "".join("{garbage\n" if rec is GARBAGE else record_to_json(rec) + "\n"
                       for rec in items).encode("utf-8")
    buf = io.StringIO()
    buf.write(CSV_HEADER)
    writer = csv.writer(buf, lineterminator="\n")
    for rec in items:
        if rec is GARBAGE:
            buf.write("u1,c1,v1,not-a-time,hi,false\n")
        else:
            writer.writerow([rec.user_id, rec.comment_id, rec.video_id,
                             format_rfc3339(rec.timestamp_s), rec.text,
                             str(rec.has_spam_hint).lower()])
    return buf.getvalue().encode("utf-8")


def _contiguous_records():
    """A small synth corpus: each user's records in one run, users not sorted by user_id."""
    specs = [PersonaSpec(kind, 3) for kind in PersonaKind]
    return list(generate(specs, 17).records)


def _run_end(records, start: int) -> int:
    """Index one past the run of records[start].user_id that starts at start."""
    end = start
    while end < len(records) and records[end].user_id == records[start].user_id:
        end += 1
    return end


def _dup_in_run(records):
    # A later record of the first user repeats its second record's comment_id.
    end = _run_end(records, 0)
    dup = records[1]._replace(timestamp_s=records[1].timestamp_s + 1, text="dup")
    return records[:end] + [dup] + records[end:]


def _dup_across_runs(records):
    # The same duplicate, but in a second run of the first user, after the next user.
    end = _run_end(records, _run_end(records, 0))
    dup = records[1]._replace(timestamp_s=records[1].timestamp_s + 1, text="dup")
    return records[:end] + [dup] + records[end:]


# name -> (transform of the contiguous records, whether the input is grouped)
ORDER_CASES = {
    "contiguous": (lambda recs: recs, True),
    "shuffled": (lambda recs: random.Random(7).sample(recs, len(recs)), False),
    "late_repeat": (lambda recs: recs[1:] + recs[:1], False),
    "dup_in_run": (_dup_in_run, True),
    "dup_across_runs": (_dup_across_runs, False),
    "rejected_in_run": (lambda recs: recs[:2] + [GARBAGE] + recs[2:], True),
    "rejected_then_late_repeat": (lambda recs: recs[1:2] + [GARBAGE] + recs[2:] + recs[:1],
                                  False),
}


def _grouped_features(args):
    """The whole-corpus path, parse -> group_by_user -> feature_vector: the oracle."""
    parse = ingest.parse_jsonl if args.format == "jsonl" else ingest.parse_csv
    with open(args.input, "rb") as fh:
        records, rep = parse(fh)
    for line_no, error_name in rep.rejects:
        cli._warn(f"{args.input}:{line_no}: rejected line ({error_name})")
    if rep.rejected:
        cli._warn(f"{args.input}: {rep.accepted} accepted, {rep.rejected} rejected")
    return [features.feature_vector(log, args.normalization)
            for log in ingest.group_by_user(records)]


def _score_and_report(corpus, fmt: str, outdir, capsys) -> dict[str, bytes]:
    """Every output file of `score --explain` and `report --svg`, plus their stderr."""
    capsys.readouterr()
    assert main(["score", "--input", str(corpus), "--format", fmt, "--explain",
                 "--output", str(outdir / "verdicts.jsonl")]) == EXIT_OK
    assert main(["report", "--input", str(corpus), "--format", fmt, "--svg",
                 "--outdir", str(outdir / "figs")]) == EXIT_OK
    outputs = {path.relative_to(outdir).as_posix(): path.read_bytes()
               for path in sorted(outdir.rglob("*")) if path.is_file()}
    outputs["stderr"] = capsys.readouterr().err.replace(str(outdir), "OUT").encode()
    return outputs


class TestInputOrder:
    """Scoring run by run gives exactly the outputs of grouping the whole corpus."""

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("case", sorted(ORDER_CASES))
    def test_same_outputs_as_grouped_path(self, tmp_path, monkeypatch, capsys, case, fmt):
        transform, grouped = ORDER_CASES[case]
        items = transform(_contiguous_records())
        corpus = tmp_path / f"corpus.{fmt}"
        corpus.write_bytes(_render(items, fmt))

        group_calls = []
        group_by_user = ingest.group_by_user
        monkeypatch.setattr(ingest, "group_by_user",
                            lambda recs: group_calls.append(1) or group_by_user(recs))
        streamed = _score_and_report(corpus, fmt, tmp_path / "streamed", capsys)
        assert bool(group_calls) is not grouped  # the fallback ran only on ungrouped input

        monkeypatch.setattr(cli, "_corpus_features", _grouped_features)
        expected = _score_and_report(corpus, fmt, tmp_path / "grouped", capsys)
        assert streamed == expected
        rejected = expected["stderr"].decode().count("rejected line")
        assert rejected == 2 * sum(item is GARBAGE for item in items)  # score, then report

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_grouped_whole(self, tmp_path):
        # A pipe cannot be read a second time, so ungrouped records must still score.
        records = _contiguous_records()
        data = _render(records[1:] + records[:1], "jsonl")
        (tmp_path / "corpus.jsonl").write_bytes(data)
        fifo = tmp_path / "pipe.jsonl"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,))
        writer.start()
        code = main(["score", "--input", str(fifo), "--output", str(tmp_path / "piped.jsonl")])
        writer.join()
        assert code == EXIT_OK
        assert main(["score", "--input", str(tmp_path / "corpus.jsonl"),
                     "--output", str(tmp_path / "filed.jsonl")]) == EXIT_OK
        assert (tmp_path / "piped.jsonl").read_bytes() == (tmp_path / "filed.jsonl").read_bytes()

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_at_most_one_user_buffered(self, tmp_path, monkeypatch, fmt):
        records = _contiguous_records()
        corpus = tmp_path / f"corpus.{fmt}"
        corpus.write_bytes(_render(records, fmt))
        # Physical line number of each user's first record (CSV line 1 is the header).
        first_line: dict[str, int] = {}
        for line_no, rec in enumerate(records, start=2 if fmt == "csv" else 1):
            first_line.setdefault(rec.user_id, line_no)
        users = list(first_line)
        total_lines = len(records) + (fmt == "csv")

        lines_read = 0
        iter_records = getattr(ingest, f"iter_{fmt}")

        def counting_iter(stream, report):
            def lines():
                nonlocal lines_read
                for line in stream:
                    lines_read += 1
                    yield line
            return iter_records(lines(), report)

        read_at_vector: dict[str, int] = {}
        feature_vector = features.feature_vector

        def recording_feature_vector(log, *args):
            read_at_vector[log.user_id] = lines_read
            return feature_vector(log, *args)

        monkeypatch.setattr(ingest, f"iter_{fmt}", counting_iter)
        monkeypatch.setattr(features, "feature_vector", recording_feature_vector)
        assert main(["score", "--input", str(corpus), "--format", fmt,
                     "--output", str(tmp_path / "verdicts.jsonl")]) == EXIT_OK

        assert list(read_at_vector) == users
        for k, user in enumerate(users):
            limit = first_line[users[k + 2]] if k + 2 < len(users) else total_lines + 1
            assert read_at_vector[user] < limit
        assert lines_read == total_lines


class TestSynth:
    def test_deterministic_output_files(self, tmp_path):
        args = lambda out: ["synth", "--seed", "42", "--out", str(out)]  # noqa: E731
        assert main(args(tmp_path / "a.jsonl")) == EXIT_OK
        assert main(args(tmp_path / "b.jsonl")) == EXIT_OK
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        assert (tmp_path / "a.truth.json").read_bytes() == (tmp_path / "b.truth.json").read_bytes()

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "personas.json"
        spec.write_text(json.dumps([{"kind": "bot", "count": 2}]))
        out = tmp_path / "c.jsonl"
        assert main(["synth", "--spec", str(spec), "--seed", "1", "--out", str(out)]) == EXIT_OK
        truth = json.loads((tmp_path / "c.truth.json").read_text())
        assert sorted(truth) == ["bot-0000", "bot-0001"]

    def test_invalid_spec_is_config_error(self, tmp_path, capsys):
        spec = tmp_path / "personas.json"
        spec.write_text(json.dumps([{"kind": "bot", "count": -2}]))
        code = main(["synth", "--spec", str(spec), "--seed", "1",
                     "--out", str(tmp_path / "c.jsonl")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "spamminer: config error: count must be >= 0: -2\n"

    def test_non_utf8_spec_is_config_error(self, tmp_path, capsys):
        spec = tmp_path / "personas.json"
        spec.write_bytes(b'[{"kind": "bot", "count": 2, "note": "\xff"}]')
        code = main(["synth", "--spec", str(spec), "--seed", "1",
                     "--out", str(tmp_path / "c.jsonl")])
        assert code == EXIT_CONFIG
        assert f"config error: invalid JSON in {spec}" in capsys.readouterr().err


    def test_deeply_nested_spec_is_config_error(self, tmp_path, capsys):
        spec = tmp_path / "deep.json"
        spec.write_bytes(DEEP_JSON)
        code = main(["synth", "--spec", str(spec), "--seed", "1",
                     "--out", str(tmp_path / "c.jsonl")])
        assert code == EXIT_CONFIG
        assert f"config error: invalid JSON in {spec}" in capsys.readouterr().err


class TestReport:
    def test_selected_figures(self, corpus_path, tmp_path):
        outdir = tmp_path / "figs"
        code = main(["report", "--input", str(corpus_path), "--figures", "fig2,fig5",
                     "--outdir", str(outdir), "--svg"])
        assert code == EXIT_OK
        names = sorted(p.name for p in outdir.iterdir())
        assert names == ["fig2.csv", "fig2.svg", "fig5.csv", "fig5.svg", "summary.json"]

    def test_all_figures_fig6_csv_only(self, corpus_path, tmp_path):
        outdir = tmp_path / "figs"
        code = main(["report", "--input", str(corpus_path), "--outdir", str(outdir),
                     "--svg"])
        assert code == EXIT_OK
        names = {p.name for p in outdir.iterdir()}
        assert "fig6.csv" in names
        assert "fig6.svg" not in names
        assert "fig3.svg" in names

    def test_unknown_figure_is_usage_error(self, corpus_path, tmp_path, capsys):
        code = main(["report", "--input", str(corpus_path), "--figures", "fig9",
                     "--outdir", str(tmp_path / "figs")])
        assert code == EXIT_USAGE
        assert "fig9" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt, content", REJECTED_INPUTS)
    def test_rejected_input_writes_no_output(self, tmp_path, fmt, content):
        bad = tmp_path / f"bad.{fmt}"
        bad.write_bytes(content)
        outdir = tmp_path / "figs"
        code = main(["report", "--input", str(bad), "--format", fmt, "--svg",
                     "--outdir", str(outdir)])
        assert code == EXIT_REJECTED
        assert not outdir.exists()

    def test_summary_content(self, corpus_path, tmp_path):
        outdir = tmp_path / "figs"
        assert main(["report", "--input", str(corpus_path), "--figures", "fig2",
                     "--outdir", str(outdir)]) == EXIT_OK
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["users"] == 10
        assert summary["labels"]["spammer"] == 5


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert main(["score", "--nope"]) == EXIT_USAGE

    def test_missing_required(self, capsys):
        assert main(["score", "--input", "x"]) == EXIT_USAGE
