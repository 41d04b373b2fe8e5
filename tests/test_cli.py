"""End-to-end CLI behavior: exit codes, outputs, composition with the library."""

from __future__ import annotations

import csv
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import threading
from itertools import groupby, product
from operator import attrgetter
from pathlib import Path

import pytest

from spamminer import classifier, cli, features, ingest, report
from spamminer.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_USAGE,
    main,
)
from spamminer.model import UserActivityLog, format_rfc3339, record_to_json, verdict_to_json
from spamminer.synth import PersonaKind, PersonaSpec, generate, write_corpus

from helpers import (
    FeedServer, MockFeed, MockUser, encode_record, feed_page_records, make_log, make_record,
)


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


# Inputs of which nothing parses: garbage-only JSONL, CSV whose header is not UTF-8,
# and CSV whose header the csv module cannot read (a bare carriage return in a cell).
REJECTED_INPUTS = [
    ("jsonl", b"not json\nstill not json\n"),
    ("csv", b"user_id,comment_id,video_id,published_at,text,has_spam_hint\xff\n"
            b"u1,c1,v1,2021-01-01T00:00:00Z,hi,false\n"),
    ("csv", b"user_id,comment_id\r,video_id,published_at,text,has_spam_hint\n"
            b"u1,c1,v1,2021-01-01T00:00:00Z,hi,false\n"),
    # An unquoted comma in the text makes a seventh cell, which is not dropped.
    ("csv", b"user_id,comment_id,video_id,published_at,has_spam_hint,text\n"
            b"u1,c1,v1,2021-01-01T00:00:00Z,false,hello, world\n"),
]


class TestScore:
    def test_score_ok(self, corpus_path, tmp_path, capsys):
        out = tmp_path / "verdicts.jsonl"
        code = main(["score", "--input", str(corpus_path), "--output", str(out)])
        assert code == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 10  # one verdict per user
        verdicts = [json.loads(line) for line in lines]
        assert [v["user_id"] for v in verdicts] == sorted(v["user_id"] for v in verdicts)
        by_user = {v["user_id"]: v for v in verdicts}
        assert by_user["flagged-0000"]["label"] == "spammer"
        assert "PCHF" in by_user["flagged-0000"]["triggered"]
        assert by_user["legit-0000"]["label"] == "legit"

    @pytest.mark.parametrize("link", ["same", "symlink", "link"])
    def test_output_that_is_the_input_is_a_usage_error(self, corpus_path, tmp_path, capsys,
                                                        link):
        corpus = corpus_path.read_bytes()
        out = corpus_path if link == "same" else tmp_path / "verdicts.jsonl"
        if link != "same":
            getattr(os, link)(corpus_path, out)  # a symlink or a hard link to the corpus
        code = main(["score", "--input", str(corpus_path), "--output", str(out)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"spamminer: usage error: --output is the --input file: {out}\n")
        assert corpus_path.read_bytes() == corpus
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["corpus.jsonl", "corpus.truth.json"] + ([] if link == "same" else [out.name]))

    def test_output_that_is_the_config_is_a_usage_error(self, corpus_path, tmp_path, capsys):
        cfg_path = tmp_path / "rule.json"
        cfg_path.write_text(json.dumps({"min_comments": 1000}), encoding="utf-8")
        code = main(["score", "--input", str(corpus_path), "--config", str(cfg_path),
                     "--output", str(cfg_path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"spamminer: usage error: --output is the --config file: {cfg_path}\n")
        assert json.loads(cfg_path.read_text(encoding="utf-8")) == {"min_comments": 1000}

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
        corpus.write_text("".join(record_to_json(rec) + "\n" for rec in records), encoding="utf-8")
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

    @pytest.mark.parametrize("case", ["contiguous", "late_repeat"])
    def test_each_verdict_is_the_library_verdict(self, tmp_path, case):
        # Rows of (ts, text, video, hint). A 1-comment user has no atdc_s, a 2-comment user
        # at one instant has atdc_s 0.0, and the others have indicators that are not round.
        rows = {
            "thirds": [(0, "a", "v1", True), (7, "a", "v2"), (19, "b", "v2")],
            "one": [(5, "a", "v1", True)],
            "same-second": [(9, "a", "v1"), (9, "b", "v2")],
            "sevenths": [(3 ** k, "ab"[k % 2], f"v{k % 3}", k % 4 == 0) for k in range(7)],
            "epoch-scale": [(1_700_000_000 + 37 * k * k, "xy"[k % 3 == 0], f"v{k % 2}")
                            for k in range(9)],
        }
        logs = {user: make_log(user, user_rows) for user, user_rows in rows.items()}
        transform, _ = ORDER_CASES[case]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(_render(transform([rec for log in logs.values() for rec in log.records]),
                                   "jsonl"))
        out = tmp_path / "verdicts.jsonl"
        assert main(["score", "--input", str(corpus), "--output", str(out)]) == EXIT_OK
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines == [verdict_to_json(classifier.classify(features.feature_vector(logs[user])))
                         for user in sorted(logs)]
        assert '"atdc_s"' not in lines[1] and '"atdc_s": 0.0,' in lines[2]  # one, same-second

    def test_custom_config(self, corpus_path, tmp_path):
        cfg_path = tmp_path / "rule.json"
        cfg_path.write_text(json.dumps({"min_comments": 1000}), encoding="utf-8")
        out = tmp_path / "verdicts.jsonl"
        code = main(["score", "--input", str(corpus_path), "--config", str(cfg_path),
                     "--output", str(out)])
        assert code == EXIT_OK
        labels = {json.loads(line)["label"]
                  for line in out.read_text(encoding="utf-8").splitlines()}
        assert labels == {"insufficient"}

    def test_config_byte_order_mark_dropped(self, corpus_path, tmp_path, capsys):
        cfg_path = tmp_path / "rule.json"
        cfg_path.write_text("\ufeff" + json.dumps({"min_comments": 1000}), encoding="utf-8")
        out = tmp_path / "verdicts.jsonl"
        code = main(["score", "--input", str(corpus_path), "--config", str(cfg_path),
                     "--output", str(out)])
        assert code == EXIT_OK, capsys.readouterr().err
        labels = {json.loads(line)["label"]
                  for line in out.read_text(encoding="utf-8").splitlines()}
        assert labels == {"insufficient"}

    def test_unknown_config_key(self, corpus_path, tmp_path, capsys):
        cfg_path = tmp_path / "rule.json"
        cfg_path.write_text(json.dumps({"min_commentz": 5}), encoding="utf-8")
        out = tmp_path / "verdicts.jsonl"
        code = main(["score", "--input", str(corpus_path), "--config", str(cfg_path),
                     "--output", str(out)])
        assert code == EXIT_CONFIG
        assert "min_commentz" in capsys.readouterr().err

    def test_config_that_is_not_an_object_is_config_error(self, corpus_path, tmp_path, capsys):
        cfg_path = tmp_path / "rule.json"
        cfg_path.write_text("[]", encoding="utf-8")
        code = main(["score", "--input", str(corpus_path), "--config", str(cfg_path),
                     "--output", str(tmp_path / "verdicts.jsonl")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "spamminer: config error: rule config must be a JSON object\n")

    def test_non_utf8_config_is_config_error(self, corpus_path, tmp_path, capsys):
        cfg_path = tmp_path / "rule.json"
        cfg_path.write_bytes(b'{"min_comments": 5, "note": "\xff"}')
        code = main(["score", "--input", str(corpus_path), "--config", str(cfg_path),
                     "--output", str(tmp_path / "verdicts.jsonl")])
        assert code == EXIT_CONFIG
        assert f"config error: invalid JSON in {cfg_path}" in capsys.readouterr().err

    def test_config_key_given_twice_is_config_error(self, corpus_path, tmp_path, capsys):
        cfg_path = tmp_path / "rule.json"
        cfg_path.write_text('{"pchf_gt": 10, "pchf_gt": 90}', encoding="utf-8")
        code = main(["score", "--input", str(corpus_path), "--config", str(cfg_path),
                     "--output", str(tmp_path / "verdicts.jsonl")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"spamminer: config error: duplicate key 'pchf_gt' in {cfg_path}\n")

    def test_threshold_too_large_for_a_float_is_config_error(self, corpus_path, tmp_path,
                                                              capsys):
        huge = "9" * 401
        cfg_path = tmp_path / "rule.json"
        cfg_path.write_text(f'{{"atdc_lt_s": {huge}}}', encoding="utf-8")
        code = main(["score", "--input", str(corpus_path), "--config", str(cfg_path),
                     "--output", str(tmp_path / "verdicts.jsonl")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"spamminer: config error: atdc_lt_s must be finite: {huge}\n")

    @pytest.mark.parametrize("cid, n_comments", [
        (lambda i: "", 10),  # a blank comment_id is absent: nothing is deduplicated
        (lambda i: f" c{i // 2} " if i % 2 else f"c{i // 2}", 5),  # " c1 " is "c1"
    ], ids=["blank", "padded"])
    def test_comment_id_read_alike_from_jsonl_and_csv(self, tmp_path, cid, n_comments):
        rows = [{"user_id": f"u{u}", "comment_id": cid(i), "video_id": f"v{i}",
                 "published_at": format_rfc3339(1_600_000_000 + 60 * i), "text": "buy now",
                 "has_spam_hint": False} for u in range(3) for i in range(10)]
        jsonl, csv_path = tmp_path / "c.jsonl", tmp_path / "c.csv"
        jsonl.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows({**row, "has_spam_hint": "false"} for row in rows)
        outputs = []
        for path, fmt in ((jsonl, "jsonl"), (csv_path, "csv")):
            out = tmp_path / f"{fmt}.verdicts.jsonl"
            assert main(["score", "--input", str(path), "--format", fmt,
                         "--output", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        verdicts = [json.loads(line) for line in outputs[0].splitlines()]
        assert [v["features"]["n_comments"] for v in verdicts] == [n_comments] * 3

    def test_pure_garbage_input(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\nstill not json\n", encoding="utf-8")
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
        mixed.write_text(corpus_path.read_text(encoding="utf-8") + "garbage line\n",
                         encoding="utf-8")
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
        assert len(out.read_text(encoding="utf-8").splitlines()) == 10

    def test_deeply_nested_config_is_config_error(self, corpus_path, tmp_path, capsys):
        cfg_path = tmp_path / "deep.json"
        cfg_path.write_bytes(DEEP_JSON)
        code = main(["score", "--input", str(corpus_path), "--config", str(cfg_path),
                     "--output", str(tmp_path / "verdicts.jsonl")])
        assert code == EXIT_CONFIG
        assert f"config error: invalid JSON in {cfg_path}" in capsys.readouterr().err

    def test_jsonl_byte_order_mark_dropped(self, tmp_path, capsys):
        corpus = tmp_path / "bom.jsonl"
        corpus.write_text("\ufeff" + "".join(
            record_to_json(make_record(user="u1", ts=i, cid=f"c{i}")) + "\n" for i in (1, 2)),
            encoding="utf-8")
        out = tmp_path / "verdicts.jsonl"
        assert main(["score", "--input", str(corpus), "--output", str(out)]) == EXIT_OK
        assert "rejected" not in capsys.readouterr().err
        assert json.loads(out.read_text(encoding="utf-8"))["features"]["n_comments"] == 2

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
            ),
            encoding="utf-8",
        )
        out = tmp_path / "verdicts.jsonl"
        code = main(["score", "--input", str(csv_path), "--format", "csv",
                     "--output", str(out)])
        assert code == EXIT_OK
        first = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
        assert first["features"]["n_comments"] == 8

    def test_empty_csv_scores_no_users(self, tmp_path, capsys):
        csv_path = tmp_path / "corpus.csv"
        csv_path.write_bytes(b"")
        out = tmp_path / "verdicts.jsonl"
        code = main(["score", "--input", str(csv_path), "--format", "csv",
                     "--output", str(out)])
        assert code == EXIT_OK
        assert out.read_bytes() == b""
        assert capsys.readouterr().err == (
            "spamminer: scored 0 users: {'spammer': 0, 'legit': 0, 'insufficient': 0}\n")

    def test_csv_column_named_twice_is_rejected_input(self, tmp_path, capsys):
        csv_path = tmp_path / "corpus.csv"
        csv_path.write_text(CSV_HEADER.rstrip("\n") + ",user_id\n"
                            "u1,c1,v1,2021-01-01T00:00:00Z,hi,false,u2\n", encoding="utf-8")
        out = tmp_path / "verdicts.jsonl"
        code = main(["score", "--input", str(csv_path), "--format", "csv",
                     "--output", str(out)])
        assert code == EXIT_REJECTED
        assert capsys.readouterr().err == (
            "spamminer: input rejected: duplicate column: 'user_id'\n")
        assert not out.exists()


# synth, score --explain and report --svg, run in the working directory of a child process.
_SYNTH_SCORE_REPORT = """
import sys
from spamminer.cli import main
for argv in (["synth", "--seed", "2011", "--out", "corpus.jsonl"],
             ["score", "--input", "corpus.jsonl", "--explain", "--output", "verdicts.jsonl"],
             ["report", "--input", "corpus.jsonl", "--svg", "--outdir", "figs"]):
    if main(argv):
        sys.exit(1)
"""

# A warm-up score, then the peak bytes that a score of 2,000 and of 4,000 users allocates.
_SCORE_PEAKS = """
import tracemalloc
from spamminer.cli import main
assert main(["score", "--input", "warm-up.jsonl", "--output", "verdicts.jsonl"]) == 0
tracemalloc.start()
for n_users in (2000, 4000):
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    assert main(["score", "--input", f"{n_users}.jsonl", "--output", "verdicts.jsonl"]) == 0
    print(tracemalloc.get_traced_memory()[1] - before)
"""

# A warm-up fetch, then the bytes that a fetch of the users in users.txt leaves allocated.
_FETCH_KEPT = """
import gc, tracemalloc
from spamminer.cli import main
assert main(["fetch", "--endpoint", "feed", "--users", "warm-up.txt", "--cache", "cache-0"]) == 0
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
assert main(["fetch", "--endpoint", "feed", "--users", "users.txt", "--cache", "cache"]) == 0
gc.collect()
print(tracemalloc.get_traced_memory()[0] - before)
"""


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

    def test_outputs_do_not_depend_on_hash_seed(self, tmp_path):
        # One process cannot see iteration order that follows the hash seed; two can.
        src = Path(cli.__file__).parents[1]
        runs = []
        for hash_seed in ("1", "2"):
            cwd = tmp_path / f"hashseed-{hash_seed}"
            cwd.mkdir()
            child = subprocess.run([sys.executable, "-B", "-c", _SYNTH_SCORE_REPORT], cwd=cwd,
                                   env={"PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed},
                                   capture_output=True, check=True)
            outputs = {path.relative_to(cwd).as_posix(): path.read_bytes()
                       for path in sorted(cwd.rglob("*")) if path.is_file()}
            outputs["stderr"] = child.stderr
            runs.append(outputs)
        assert {"verdicts.jsonl", "figs/summary.json", "figs/fig2.svg"} <= set(runs[0])
        assert b"bot-0000: spammer [" in runs[0]["stderr"]
        assert runs[0] == runs[1]


class TestFetch:
    def test_directory_endpoint(self, tmp_path, capsys):
        feed_dir = tmp_path / "feed"
        cache_dir = tmp_path / "cache"
        for uid in ("alice", "bob"):
            records = [make_record(user=uid, ts=i, cid=f"{uid}-{i}") for i in range(3)]
            ingest.cache_put(feed_dir, ingest.group_by_user(records)[0])
        users = tmp_path / "users.txt"
        users.write_text("alice\nbob\nmissing\n", encoding="utf-8")
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(cache_dir)])
        assert code == EXIT_OK  # partial failure tolerated
        assert sorted(p.name for p in cache_dir.iterdir()) == ["alice.jsonl", "bob.jsonl"]
        assert "missing" in capsys.readouterr().err

    @pytest.mark.parametrize("link", ["same", "symlink"])
    def test_cache_that_is_the_endpoint_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                         link):
        feed_dir = tmp_path / "feed"
        feed_dir.mkdir()
        record = json.loads(record_to_json(make_record(user="u1", ts=1, cid="c1")))
        feed = (json.dumps({**record, "extra": 1}) + "\nnot json\n").encode("utf-8")
        (feed_dir / "u1.jsonl").write_bytes(feed)
        cache_dir = feed_dir if link == "same" else tmp_path / "cache"
        if link == "symlink":
            os.symlink(feed_dir, cache_dir)
        users = tmp_path / "users.txt"
        users.write_text("u1\n", encoding="utf-8")
        reads = []
        fetch_user_log = ingest.fetch_user_log
        monkeypatch.setattr(ingest, "fetch_user_log",
                            lambda *args: reads.append(args) or fetch_user_log(*args))
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(cache_dir)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"spamminer: usage error: --cache is the --endpoint directory: {cache_dir}\n")
        assert reads == []
        assert [p.name for p in feed_dir.iterdir()] == ["u1.jsonl"]
        assert (feed_dir / "u1.jsonl").read_bytes() == feed

    @pytest.mark.parametrize("link", ["same", "symlink"])
    def test_users_file_in_the_cache_is_a_usage_error(self, tmp_path, capsys, monkeypatch, link):
        # alice's cache file is the --users file: fetching her would replace the list.
        feed_dir = tmp_path / "feed"
        feed_dir.mkdir()
        for user_id in ("bob", "alice"):
            (feed_dir / f"{user_id}.jsonl").write_text(
                record_to_json(make_record(user=user_id, ts=1)) + "\n", encoding="utf-8")
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        listed = cache_dir / "alice.jsonl"
        listed.write_text("bob\nalice\n", encoding="utf-8")
        users = listed if link == "same" else tmp_path / "users.txt"
        if link == "symlink":
            os.symlink(listed, users)
        reads = []
        fetch_user_log = ingest.fetch_user_log
        monkeypatch.setattr(ingest, "fetch_user_log",
                            lambda *args: reads.append(args) or fetch_user_log(*args))
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(cache_dir)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"spamminer: usage error: a file in --cache is the --users file: {listed}\n")
        assert reads == []
        assert [p.name for p in cache_dir.iterdir()] == ["alice.jsonl"]
        assert listed.read_text(encoding="utf-8") == "bob\nalice\n"

    def test_directory_endpoint_partial_rejects(self, tmp_path, capsys):
        feed_dir = tmp_path / "feed"
        feed_dir.mkdir()
        good = record_to_json(make_record(user="alice", ts=1, cid="c1"))
        (feed_dir / "alice.jsonl").write_text(good + "\n{bad\n", encoding="utf-8")
        users = tmp_path / "users.txt"
        users.write_text("alice\n", encoding="utf-8")
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
        (feed_dir / "alice.jsonl").write_text(good + "\n" + late + "\n", encoding="utf-8")
        (feed_dir / "bob.jsonl").write_text(
            record_to_json(make_record(user="bob", ts=1, cid="b1")) + "\n", encoding="utf-8")
        users = tmp_path / "users.txt"
        users.write_text("alice\nbob\n", encoding="utf-8")
        cache_dir = tmp_path / "cache"
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(cache_dir)])
        assert code == EXIT_OK
        assert len(ingest.cache_get(cache_dir, "alice")) == 1
        assert len(ingest.cache_get(cache_dir, "bob")) == 1
        err = capsys.readouterr().err
        assert f"{feed_dir / 'alice.jsonl'}:2: rejected line (ParseError)" in err
        assert "fetched 2/2 users" in err

    def test_directory_file_byte_order_mark_dropped(self, tmp_path, capsys):
        feed_dir = tmp_path / "feed"
        feed_dir.mkdir()
        (feed_dir / "alice.jsonl").write_text(
            "\ufeff" + record_to_json(make_record(user="alice", ts=1, cid="c1")) + "\n",
            encoding="utf-8")
        users = tmp_path / "users.txt"
        users.write_text("alice\n", encoding="utf-8")
        cache_dir = tmp_path / "cache"
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(cache_dir)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == f"spamminer: fetched 1/1 users into {cache_dir}\n"
        assert len(ingest.cache_get(cache_dir, "alice")) == 1

    def test_users_file_byte_order_mark_dropped(self, tmp_path, capsys):
        feed_dir = tmp_path / "feed"
        ingest.cache_put(feed_dir, ingest.group_by_user([make_record(user="alice", ts=1)])[0])
        users = tmp_path / "users.txt"
        users.write_text("\ufeffalice\n", encoding="utf-8")
        cache_dir = tmp_path / "cache"
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(cache_dir)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == f"spamminer: fetched 1/1 users into {cache_dir}\n"
        assert [p.name for p in cache_dir.iterdir()] == ["alice.jsonl"]

    def test_repeated_user_fetched_once(self, tmp_path, capsys, monkeypatch):
        feed_dir = tmp_path / "feed"
        for uid in ("alice", "bob"):
            ingest.cache_put(feed_dir, ingest.group_by_user([make_record(user=uid, ts=1)])[0])
        users = tmp_path / "users.txt"
        users.write_text("bob\nalice\n bob \nalice\nbob\n", encoding="utf-8")
        fetched = []
        fetch_user_log = ingest.fetch_user_log
        monkeypatch.setattr(ingest, "fetch_user_log",
                            lambda endpoint, user_id, *args: fetched.append(user_id)
                            or fetch_user_log(endpoint, user_id, *args))
        cache_dir = tmp_path / "cache"
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(cache_dir)])
        assert code == EXIT_OK
        assert fetched == ["bob", "alice"]
        assert capsys.readouterr().err == f"spamminer: fetched 2/2 users into {cache_dir}\n"

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
        users.write_text("alice\nbob\n", encoding="utf-8")
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
                "".join(record_to_json(rec) + "\n" for rec in recs), encoding="utf-8")
        users = tmp_path / "users.txt"
        users.write_text("bob\ncarol\n", encoding="utf-8")
        cache_dir = tmp_path / "cache"
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(cache_dir)])
        assert code == EXIT_OK
        assert sorted(p.name for p in cache_dir.iterdir()) == ["carol.jsonl"]
        err = capsys.readouterr().err
        assert "fetch failed for 'bob': record for 'alice' in log of 'bob'" in err
        assert "fetched 1/2 users" in err

        users.write_text("bob\n", encoding="utf-8")
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
        users.write_text("bob\ncarol\n", encoding="utf-8")
        cache_dir = tmp_path / "cache"
        with FeedServer(feed) as server:
            code = main(["fetch", "--endpoint", server.base_url, "--users", str(users),
                         "--cache", str(cache_dir)])
        assert code == EXIT_OK
        assert sorted(p.name for p in cache_dir.iterdir()) == ["carol.jsonl"]
        err = capsys.readouterr().err
        assert "fetch failed for 'bob': record for 'alice' in log of 'bob'" in err
        assert "fetched 1/2 users" in err

    def test_foreign_record_repeating_a_comment_id_in_directory_file(self, tmp_path, capsys):
        # The foreign record holds the comment_id of the user's own record before it:
        # it is another user's record, not a duplicate to drop.
        feed_dir = tmp_path / "feed"
        feed_dir.mkdir()
        (feed_dir / "u1.jsonl").write_text(
            record_to_json(make_record(user="u1", ts=1, cid="c1")) + "\n"
            + record_to_json(make_record(user="u2", ts=2, cid="c1")) + "\n", encoding="utf-8")
        users = tmp_path / "users.txt"
        users.write_text("u1\n", encoding="utf-8")
        cache_dir = tmp_path / "cache"
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(cache_dir)])
        assert code == EXIT_IO
        assert not (cache_dir / "u1.jsonl").exists()
        assert "fetch failed for 'u1': record for 'u2' in log of 'u1'" in capsys.readouterr().err

    def test_foreign_record_repeating_a_comment_id_on_feed_page(self, tmp_path, capsys):
        page = [encode_record(make_record(user=user, ts=ts, cid="c1"))
                for user, ts in (("bob", 1), ("alice", 2))]
        feed = MockFeed(users={"bob": MockUser(pages=[page]),
                               "carol": MockUser(pages=[feed_page_records("carol", 0, 3)])})
        users = tmp_path / "users.txt"
        users.write_text("bob\ncarol\n", encoding="utf-8")
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
        (feed_dir / "alice.jsonl").write_text(good + "\n" + lone + "\n", encoding="utf-8")
        users = tmp_path / "users.txt"
        users.write_text("alice\n", encoding="utf-8")
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
        users.write_text("bob\ncarol\n", encoding="utf-8")
        cache_dir = tmp_path / "cache"
        with FeedServer(feed) as server:
            code = main(["fetch", "--endpoint", server.base_url, "--users", str(users),
                         "--cache", str(cache_dir)])
        assert code == EXIT_OK
        assert sorted(p.name for p in cache_dir.iterdir()) == ["carol.jsonl"]
        err = capsys.readouterr().err
        assert "fetch failed for 'bob': initial page: bad record: lone surrogate" in err
        assert "fetched 1/2 users" in err

    def test_mistyped_field_on_feed_page(self, tmp_path, capsys):
        mistyped = [{**feed_page_records("bob", 0, 1)[0], "text": 5}]
        feed = MockFeed(users={
            "bob": MockUser(pages=[mistyped]),
            "carol": MockUser(pages=[feed_page_records("carol", 0, 3)]),
        })
        users = tmp_path / "users.txt"
        users.write_text("bob\ncarol\n", encoding="utf-8")
        with FeedServer(feed) as server:
            code = main(["fetch", "--endpoint", server.base_url, "--users", str(users),
                         "--cache", str(tmp_path / "cache")])
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "fetch failed for 'bob': initial page: bad record: text must be a string\n" in err
        assert "fetched 1/2 users" in err

    def test_page_limit_keeps_the_partial_log(self, tmp_path, capsys):
        first_page = feed_page_records("u", 0, 3)
        feed = MockFeed(users={"u": MockUser(pages=[first_page, feed_page_records("u", 3, 2)])})
        users = tmp_path / "users.txt"
        users.write_text("u\n", encoding="utf-8")
        cache_dir = tmp_path / "cache"
        with FeedServer(feed) as server:
            code = main(["fetch", "--endpoint", server.base_url, "--users", str(users),
                         "--cache", str(cache_dir), "--page-limit", "1"])
        assert code == EXIT_OK
        assert feed.requests == [("u", None)]
        cached = ingest.cache_get(cache_dir, "u")
        assert sorted(rec.comment_id for rec in cached.records) == [
            obj["comment_id"] for obj in first_page]
        err = capsys.readouterr().err
        assert "spamminer: log for 'u' truncated at 1 pages\n" in err
        assert "fetched 1/1 users" in err

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_page_limit_below_one_is_usage_error(self, tmp_path, capsys, limit):
        feed_dir = tmp_path / "feed"
        feed_dir.mkdir()
        users = tmp_path / "users.txt"
        users.write_text("alice\n", encoding="utf-8")
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(tmp_path / "cache"), "--page-limit", limit])
        assert code == EXIT_USAGE
        assert f"usage error: --page-limit must be at least 1: {limit}" in capsys.readouterr().err

    def test_all_users_fail(self, tmp_path):
        feed_dir = tmp_path / "feed"
        feed_dir.mkdir()
        users = tmp_path / "users.txt"
        users.write_text("ghost\n", encoding="utf-8")
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(tmp_path / "cache")])
        assert code == EXIT_IO

    def test_users_file_split_only_at_newline(self, tmp_path, capsys):
        feed_dir = tmp_path / "feed"
        user = "a\u2028b"
        ingest.cache_put(feed_dir, UserActivityLog(user, [make_record(user=user, ts=1)]))
        assert [p.name for p in feed_dir.iterdir()] == ["a%E2%80%A8b.jsonl"]
        users = tmp_path / "users.txt"
        users.write_text("a\u2028b\r\n", encoding="utf-8")
        cache_dir = tmp_path / "cache"
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(cache_dir)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == f"spamminer: fetched 1/1 users into {cache_dir}\n"
        assert [p.name for p in cache_dir.iterdir()] == ["a%E2%80%A8b.jsonl"]

    @pytest.mark.parametrize("kind", ["directory", "fifo", "symlink_loop"])
    def test_directory_entry_not_a_file(self, tmp_path, capsys, kind):
        feed_dir = tmp_path / "feed"
        feed_dir.mkdir()
        entry = feed_dir / "u1.jsonl"
        if kind == "directory":
            entry.mkdir()
        elif kind == "fifo":
            os.mkfifo(entry)
        else:
            entry.symlink_to("u1.jsonl")
        users = tmp_path / "users.txt"
        users.write_text("u1\n", encoding="utf-8")
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(tmp_path / "cache")])
        assert code == EXIT_IO
        assert capsys.readouterr().err == (
            f"spamminer: fetch failed for 'u1': no log file for user 'u1' in {feed_dir}\n"
            f"spamminer: fetched 0/1 users into {tmp_path / 'cache'}\n")

    def test_directory_file_name_too_long(self, tmp_path, capsys):
        feed_dir = tmp_path / "feed"
        for uid in ("alice", "bob"):
            ingest.cache_put(feed_dir, UserActivityLog(uid, [make_record(user=uid, ts=1)]))
        long_id = "\u00e9" * 50  # 300 bytes once percent-encoded
        users = tmp_path / "users.txt"
        users.write_text(f"alice\n{long_id}\nbob\n", encoding="utf-8")
        cache_dir = tmp_path / "cache"
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(cache_dir)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == (
            f"spamminer: fetch failed for {long_id!r}: [Errno {errno.ENAMETOOLONG}] "
            f"{os.strerror(errno.ENAMETOOLONG)}: '{feed_dir}/{'%C3%A9' * 50}.jsonl'\n"
            f"spamminer: fetched 2/3 users into {cache_dir}\n")

    def test_rejected_line_names_file_as_path_does(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "feed").mkdir()
        good = record_to_json(make_record(user="u1", ts=1, cid="c1"))
        (tmp_path / "feed" / "u1.jsonl").write_text(good + "\n{bad\n", encoding="utf-8")
        (tmp_path / "users.txt").write_text("u1\n", encoding="utf-8")
        code = main(["fetch", "--endpoint", "./feed/", "--users", "users.txt",
                     "--cache", "cache"])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ("spamminer: feed/u1.jsonl:2: rejected line (ParseError)\n"
                                           "spamminer: fetched 1/1 users into cache\n")

    @staticmethod
    def _stub_fetch(monkeypatch):
        def fetch_user_log(endpoint, user_id, page_limit):
            return ingest.FetchResult(UserActivityLog(user_id, [make_record(user=user_id, ts=1)]))

        monkeypatch.setattr(ingest, "fetch_user_log", fetch_user_log)

    def test_cache_file_name_too_long_skips_user(self, tmp_path, capsys, monkeypatch):
        self._stub_fetch(monkeypatch)
        long_id = "\u00e9" * 50
        users = tmp_path / "users.txt"
        users.write_text(f"alice\n{long_id}\nbob\n", encoding="utf-8")
        cache_dir = tmp_path / "cache"
        code = main(["fetch", "--endpoint", "unused", "--users", str(users),
                     "--cache", str(cache_dir)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == (
            f"spamminer: fetch failed for {long_id!r}: [Errno {errno.ENAMETOOLONG}] "
            f"{os.strerror(errno.ENAMETOOLONG)}: '{cache_dir}/{'%C3%A9' * 50}.jsonl'\n"
            f"spamminer: fetched 2/3 users into {cache_dir}\n")
        assert sorted(p.name for p in cache_dir.iterdir()) == ["alice.jsonl", "bob.jsonl"]

    def test_other_cache_write_error_aborts(self, tmp_path, capsys, monkeypatch):
        self._stub_fetch(monkeypatch)

        def disk_full(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), src, None, dst)

        monkeypatch.setattr(os, "replace", disk_full)
        users = tmp_path / "users.txt"
        users.write_text("alice\nbob\n", encoding="utf-8")
        cache_dir = tmp_path / "cache"
        code = main(["fetch", "--endpoint", "unused", "--users", str(users),
                     "--cache", str(cache_dir)])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"spamminer: io error: [Errno {errno.ENOSPC}] ")
        assert "fetched" not in err
        assert list(cache_dir.iterdir()) == []  # the temp file is removed

    def test_cache_write_error_names_the_cache_file(self, tmp_path, capsys, monkeypatch):
        self._stub_fetch(monkeypatch)

        def disk_full(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), src, None, dst)

        monkeypatch.setattr(os, "replace", disk_full)
        users = tmp_path / "users.txt"
        users.write_text("alice\nbob\n", encoding="utf-8")
        cache_dir = tmp_path / "cache"
        for _ in range(2):  # the same stderr each time, with no random temp name in it
            code = main(["fetch", "--endpoint", "unused", "--users", str(users),
                         "--cache", str(cache_dir)])
            assert code == EXIT_IO
            assert capsys.readouterr().err == (
                f"spamminer: io error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: "
                f"'{cache_dir}/alice.jsonl'\n")

    def test_cache_directory_name_too_long_aborts(self, tmp_path, capsys, monkeypatch):
        self._stub_fetch(monkeypatch)
        users = tmp_path / "users.txt"
        users.write_text("alice\nbob\n", encoding="utf-8")
        cache_dir = tmp_path / ("c" * 300)
        code = main(["fetch", "--endpoint", "unused", "--users", str(users),
                     "--cache", str(cache_dir)])
        assert code == EXIT_IO
        assert capsys.readouterr().err == (
            f"spamminer: io error: [Errno {errno.ENAMETOOLONG}] "
            f"{os.strerror(errno.ENAMETOOLONG)}: '{cache_dir}'\n")

    def test_fetch_keeps_no_name_per_user(self, tmp_path):
        # A fresh process: how much a name table keeps depends on what was interned before.
        os.mkdir(os.path.join(tmp_path, "feed"))
        user_ids = [f"user-{i:035d}" for i in range(2_001)]  # 40 characters each
        for user_id in user_ids:
            with open(os.path.join(tmp_path, "feed", user_id + ".jsonl"), "w",
                      encoding="utf-8") as fh:
                fh.write(record_to_json(make_record(user=user_id, ts=1)) + "\n")
        with open(os.path.join(tmp_path, "warm-up.txt"), "w", encoding="utf-8") as fh:
            fh.write(user_ids[0] + "\n")
        with open(os.path.join(tmp_path, "users.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(user_ids[1:]) + "\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        child = subprocess.run([sys.executable, "-B", "-c", _FETCH_KEPT], cwd=tmp_path,
                               env={"PYTHONPATH": src}, capture_output=True, check=True)
        assert child.stderr.endswith(b"fetched 2000/2000 users into cache\n")
        assert int(child.stdout) < 64 * 1024

    @pytest.mark.parametrize("userinfo", ["user:s3cret@", "s3cret@", ":s3cret@"])
    def test_credentials_in_endpoint_are_a_usage_error(self, tmp_path, capsys, userinfo):
        feed = MockFeed(users={"alice": MockUser(pages=[feed_page_records("alice", 0, 2)])})
        users = tmp_path / "users.txt"
        users.write_text("alice\n", encoding="utf-8")
        with FeedServer(feed) as server:
            endpoint = server.base_url.replace("http://", "http://" + userinfo)
            code = main(["fetch", "--endpoint", endpoint, "--users", str(users),
                         "--cache", str(tmp_path / "cache")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == ("spamminer: usage error: credentials in the endpoint URL are not "
                       "supported (user:password@)\n")
        assert "s3cret" not in err
        assert feed.requests == []
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("scheme", ["HTTP", "Http"])
    def test_endpoint_scheme_in_any_case(self, tmp_path, capsys, scheme):
        feed = MockFeed(users={"alice": MockUser(pages=[feed_page_records("alice", 0, 2),
                                                        feed_page_records("alice", 2, 1)])})
        users = tmp_path / "users.txt"
        users.write_text("alice\n", encoding="utf-8")
        cache_dir = tmp_path / "cache"
        with FeedServer(feed) as server:
            endpoint = scheme + server.base_url.removeprefix("http")
            code = main(["fetch", "--endpoint", endpoint, "--users", str(users),
                         "--cache", str(cache_dir)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == f"spamminer: fetched 1/1 users into {cache_dir}\n"
        assert feed.requests == [("alice", None), ("alice", "p1")]
        assert len(ingest.cache_get(cache_dir, "alice")) == 3


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


def _shuffled(records):
    return random.Random(7).sample(records, len(records))


def _rejected_in_shuffled(records):
    shuffled = _shuffled(records)
    return shuffled[:5] + [GARBAGE] + shuffled[5:]


# name -> (transform of the contiguous records, whether the input is grouped)
ORDER_CASES = {
    "contiguous": (lambda recs: recs, True),
    "shuffled": (_shuffled, False),
    "rejected_in_shuffled": (_rejected_in_shuffled, False),
    "late_repeat": (lambda recs: recs[1:] + recs[:1], False),
    "dup_in_run": (_dup_in_run, True),
    "dup_across_runs": (_dup_across_runs, False),
    "rejected_in_run": (lambda recs: recs[:2] + [GARBAGE] + recs[2:], True),
    "rejected_then_late_repeat": (lambda recs: recs[1:2] + [GARBAGE] + recs[2:] + recs[:1],
                                  False),
}


def _grouped_score_corpus(path, *, format, config):
    """Parse whole -> group_by_user -> feature_vector -> classify: the oracle for score_corpus."""
    parse = ingest.parse_jsonl if format == "jsonl" else ingest.parse_csv
    with open(path, "rb") as fh:
        records, rep = parse(fh)
    return rep, [classifier.classify(features.feature_vector(log), config)
                 for log in ingest.group_by_user(records)]


def _count_lines_read(monkeypatch, fmt: str) -> list[int]:
    """Make ingest.iter_{fmt} count each line it reads into the one item of the list returned."""
    lines_read = [0]
    iter_records = getattr(ingest, f"iter_{fmt}")

    def counting_iter(stream, report):
        def lines():
            for line in stream:
                lines_read[0] += 1
                yield line
        return iter_records(lines(), report)

    monkeypatch.setattr(ingest, f"iter_{fmt}", counting_iter)
    return lines_read


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

        lines_read = _count_lines_read(monkeypatch, fmt)
        streamed = _score_and_report(corpus, fmt, tmp_path / "streamed", capsys)
        total_lines = len(items) + (fmt == "csv")
        # Score, then report, each read the file once, and once more only on ungrouped input.
        assert (lines_read[0] == 2 * total_lines) is grouped

        monkeypatch.setattr(classifier, "score_corpus", _grouped_score_corpus)
        expected = _score_and_report(corpus, fmt, tmp_path / "grouped", capsys)
        assert streamed == expected
        rejected = expected["stderr"].decode().count("rejected line")
        assert rejected == 2 * sum(item is GARBAGE for item in items)  # score, then report

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_grouped_whole(self, tmp_path, capsys):
        # A pipe cannot be read a second time, so ungrouped records must score from one read.
        for fmt, case in product(["jsonl", "csv"], ["late_repeat", "rejected_in_shuffled"]):
            transform, _ = ORDER_CASES[case]
            data = _render(transform(_contiguous_records()), fmt)
            fifo, corpus = tmp_path / f"{case}.{fmt}.pipe", tmp_path / f"{case}.{fmt}"
            os.mkfifo(fifo)
            with pytest.MonkeyPatch.context() as monkeypatch:
                lines_read = _count_lines_read(monkeypatch, fmt)
                writer = threading.Thread(target=fifo.write_bytes, args=(data,))
                writer.start()
                code = main(["score", "--input", str(fifo), "--format", fmt,
                             "--output", str(tmp_path / "piped.jsonl")])
                writer.join()
                assert code == EXIT_OK
                assert lines_read[0] == data.count(b"\n")
                piped_err = capsys.readouterr().err.replace(str(fifo), "IN")

                corpus.write_bytes(data)
                monkeypatch.setattr(classifier, "score_corpus", _grouped_score_corpus)
                assert main(["score", "--input", str(corpus), "--format", fmt,
                             "--output", str(tmp_path / "filed.jsonl")]) == EXIT_OK
            piped = (tmp_path / "piped.jsonl").read_bytes()
            assert piped == (tmp_path / "filed.jsonl").read_bytes()
            assert piped_err == capsys.readouterr().err.replace(str(corpus), "IN")
            assert piped_err.count("rejected line") == (case == "rejected_in_shuffled")

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

        lines_read = _count_lines_read(monkeypatch, fmt)
        read_at_vector: dict[str, int] = {}
        feature_values = features._feature_values

        def recording_feature_values(log, *args):
            read_at_vector[log.user_id] = lines_read[0]
            return feature_values(log, *args)

        monkeypatch.setattr(features, "_feature_values", recording_feature_values)
        assert main(["score", "--input", str(corpus), "--format", fmt,
                     "--output", str(tmp_path / "verdicts.jsonl")]) == EXIT_OK

        assert list(read_at_vector) == users
        for k, user in enumerate(users):
            limit = first_line[users[k + 2]] if k + 2 < len(users) else total_lines + 1
            assert read_at_vector[user] < limit
        assert lines_read[0] == total_lines

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_restart_at_first_repeat(self, tmp_path, monkeypatch, fmt):
        # Shuffled input is read up to its first repeated user_id, then once whole:
        # reading the first pass to its end would read the file twice.
        transform, _ = ORDER_CASES["shuffled"]
        records = transform(_contiguous_records())
        corpus = tmp_path / f"corpus.{fmt}"
        corpus.write_bytes(_render(records, fmt))
        header = fmt == "csv"
        first_repeat_line = 1 + header
        seen: set[str] = set()
        for user_id, run in groupby(records, key=attrgetter("user_id")):
            if user_id in seen:
                break
            seen.add(user_id)
            first_repeat_line += len(list(run))
        total_lines = len(records) + header

        lines_read = _count_lines_read(monkeypatch, fmt)
        assert main(["score", "--input", str(corpus), "--format", fmt,
                     "--output", str(tmp_path / "verdicts.jsonl")]) == EXIT_OK
        assert first_repeat_line < total_lines // 2
        assert lines_read[0] == first_repeat_line + total_lines

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("case", ["late_repeat", "shuffled"])
    def test_grouped_whole_logs_share_id_strings(self, tmp_path, monkeypatch, case, fmt):
        # The whole read keeps every record: one string per user and per
        # video, across users too (each video_id here is shared by several users).
        transform, _ = ORDER_CASES[case]
        records = transform([rec._replace(video_id=rec.video_id[-3:])
                             for rec in _contiguous_records()])
        corpus = tmp_path / f"corpus.{fmt}"
        corpus.write_bytes(_render(records, fmt))
        logs = {}  # user_id -> the last log score_corpus built for it: the whole read's

        def keeping_log(user_id, recs):
            logs[user_id] = log = UserActivityLog(user_id, recs)
            return log

        monkeypatch.setattr(classifier, "UserActivityLog", keeping_log)
        assert main(["score", "--input", str(corpus), "--format", fmt,
                     "--output", str(tmp_path / "verdicts.jsonl")]) == EXIT_OK

        kept = [rec for log in logs.values() for rec in log.records]
        assert len(kept) == len(records)
        videos = {rec.video_id for rec in kept}
        assert len(videos) < len({(rec.user_id, rec.video_id) for rec in kept})
        assert len({id(rec.user_id) for rec in kept}) == len(logs)
        assert len({id(rec.video_id) for rec in kept}) == len(videos)

    def test_score_keeps_one_row_per_user(self, tmp_path):
        # Until the input ends, score keeps each user's six numbers and user_id, and no
        # FeatureVector or float objects: its peak grows by well under 250 B per user.
        for name, n_users in (("warm-up", 10), ("2000", 2_000), ("4000", 4_000)):
            with open(tmp_path / f"{name}.jsonl", "w", encoding="utf-8") as fh:
                for i in range(n_users):
                    for k in range(3):  # features that are not round: thirds, 18.67 s
                        fh.write(record_to_json(make_record(
                            user=f"user-{i:05d}", video=f"v{k % 2}", ts=1000 * i + 7 * k * k,
                            text=f"t{k % 2}", hint=k == 0, cid=f"c{k}")) + "\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        child = subprocess.run([sys.executable, "-B", "-c", _SCORE_PEAKS], cwd=tmp_path,
                               env={"PYTHONPATH": src}, capture_output=True, check=True)
        assert child.stderr.endswith(b"scored 4000 users: "
                                     b"{'spammer': 0, 'legit': 0, 'insufficient': 4000}\n")
        peak_2000, peak_4000 = map(int, child.stdout.split())
        assert (peak_4000 - peak_2000) / 2_000 < 250

    @pytest.mark.parametrize("case", ["contiguous", "shuffled"])
    def test_one_verdict_at_a_time(self, tmp_path, monkeypatch, case):
        # Each user's verdict is encoded before the next user is classified.
        transform, _ = ORDER_CASES[case]
        records = transform(_contiguous_records())
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(_render(records, "jsonl"))
        events = []
        classify, encode = classifier.classify, cli.verdict_to_json

        def logged_classify(fv, *args):
            events.append(("classify", fv.user_id))
            return classify(fv, *args)

        def logged_encode(verdict):
            events.append(("encode", verdict.user_id))
            return encode(verdict)

        monkeypatch.setattr(classifier, "classify", logged_classify)
        monkeypatch.setattr(cli, "verdict_to_json", logged_encode)
        assert main(["score", "--input", str(corpus), "--explain",
                     "--output", str(tmp_path / "verdicts.jsonl")]) == EXIT_OK
        users = sorted({rec.user_id for rec in records})
        assert events == [(step, user) for user in users for step in ("classify", "encode")]


class TestSynth:
    def test_deterministic_output_files(self, tmp_path):
        args = lambda out: ["synth", "--seed", "42", "--out", str(out)]  # noqa: E731
        assert main(args(tmp_path / "a.jsonl")) == EXIT_OK
        assert main(args(tmp_path / "b.jsonl")) == EXIT_OK
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        assert (tmp_path / "a.truth.json").read_bytes() == (tmp_path / "b.truth.json").read_bytes()

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "personas.json"
        spec.write_text(json.dumps([{"kind": "bot", "count": 2}]), encoding="utf-8")
        out = tmp_path / "c.jsonl"
        assert main(["synth", "--spec", str(spec), "--seed", "1", "--out", str(out)]) == EXIT_OK
        truth = json.loads((tmp_path / "c.truth.json").read_text(encoding="utf-8"))
        assert sorted(truth) == ["bot-0000", "bot-0001"]

    def test_spec_byte_order_mark_dropped(self, tmp_path, capsys):
        spec = tmp_path / "personas.json"
        spec.write_text("\ufeff" + json.dumps([{"kind": "bot", "count": 2}]), encoding="utf-8")
        out = tmp_path / "c.jsonl"
        code = main(["synth", "--spec", str(spec), "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK, capsys.readouterr().err
        truth = json.loads((tmp_path / "c.truth.json").read_text(encoding="utf-8"))
        assert sorted(truth) == ["bot-0000", "bot-0001"]

    def test_invalid_spec_is_config_error(self, tmp_path, capsys):
        spec = tmp_path / "personas.json"
        spec.write_text(json.dumps([{"kind": "bot", "count": -2}]), encoding="utf-8")
        code = main(["synth", "--spec", str(spec), "--seed", "1",
                     "--out", str(tmp_path / "c.jsonl")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "spamminer: config error: count must be >= 0: -2\n"

    def test_fraction_too_large_for_a_float_is_config_error(self, tmp_path, capsys):
        huge = "1" * 401
        spec = tmp_path / "personas.json"
        spec.write_text(f'[{{"kind": "legit", "count": 1, "hint_fraction": {huge}}}]',
                        encoding="utf-8")
        code = main(["synth", "--spec", str(spec), "--seed", "1",
                     "--out", str(tmp_path / "c.jsonl")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"spamminer: config error: hint_fraction must be in [0, 1]: {huge}\n")

    def test_spec_key_given_twice_is_config_error(self, tmp_path, capsys):
        spec = tmp_path / "personas.json"
        spec.write_text('[{"kind": "bot", "count": 2, "count": 3}]', encoding="utf-8")
        code = main(["synth", "--spec", str(spec), "--seed", "1",
                     "--out", str(tmp_path / "c.jsonl")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"spamminer: config error: duplicate key 'count' in {spec}\n")

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

    @pytest.mark.parametrize("spec_name, out_name, written", [
        ("s.json", "s.json", "--out"),
        ("k.truth.json", "k.jsonl", "--out's truth file"),
    ], ids=["corpus", "truth"])
    def test_out_that_is_the_spec_is_a_usage_error(self, tmp_path, capsys, spec_name,
                                                   out_name, written):
        spec = tmp_path / spec_name
        spec_text = json.dumps([{"kind": "bot", "count": 2}])
        spec.write_text(spec_text, encoding="utf-8")
        code = main(["synth", "--spec", str(spec), "--seed", "1",
                     "--out", str(tmp_path / out_name)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"spamminer: usage error: {written} is the --spec file: {spec}\n")
        assert spec.read_text(encoding="utf-8") == spec_text
        assert [p.name for p in tmp_path.iterdir()] == [spec_name]


class TestReport:
    @pytest.mark.parametrize("svg", [False, True])
    def test_outdir_file_that_is_the_input_is_a_usage_error(self, corpus_path, tmp_path,
                                                            capsys, svg):
        outdir = tmp_path / "figs"
        outdir.mkdir()
        corpus = outdir / ("fig2.svg" if svg else "summary.json")
        corpus.write_bytes(corpus_path.read_bytes())
        code = main(["report", "--input", str(corpus), "--outdir", str(outdir)]
                    + ["--svg"] * svg)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"spamminer: usage error: a file in --outdir is the --input file: {corpus}\n")
        assert corpus.read_bytes() == corpus_path.read_bytes()
        assert [p.name for p in outdir.iterdir()] == [corpus.name]

    @pytest.mark.parametrize("name, svg", [("fig2.svg", False), ("fig6.svg", True),
                                           ("fig3.csv", False)])
    def test_input_in_outdir_that_is_not_written_is_read(self, corpus_path, tmp_path, name, svg):
        outdir = tmp_path / "figs"
        outdir.mkdir()
        corpus = outdir / name
        corpus.write_bytes(corpus_path.read_bytes())
        code = main(["report", "--input", str(corpus), "--figures", "fig2,fig6",
                     "--outdir", str(outdir)] + ["--svg"] * svg)
        assert code == EXIT_OK
        assert corpus.read_bytes() == corpus_path.read_bytes()

    def test_selected_figures(self, corpus_path, tmp_path):
        outdir = tmp_path / "figs"
        code = main(["report", "--input", str(corpus_path), "--figures", "fig2,fig5",
                     "--outdir", str(outdir), "--svg"])
        assert code == EXIT_OK
        names = sorted(p.name for p in outdir.iterdir())
        assert names == ["fig2.csv", "fig2.svg", "fig5.csv", "fig5.svg", "summary.json"]

    def test_repeated_figure_written_once(self, corpus_path, tmp_path, capsys, monkeypatch):
        written = []
        write_figure_csv = report.write_figure_csv
        monkeypatch.setattr(report, "write_figure_csv",
                            lambda ds, outdir: written.append(ds.figure_id)
                            or write_figure_csv(ds, outdir))
        outdir = tmp_path / "figs"
        code = main(["report", "--input", str(corpus_path), "--figures", "fig5,fig2, fig5,fig2",
                     "--outdir", str(outdir)])
        assert code == EXIT_OK
        assert written == ["fig5", "fig2"]
        assert f"wrote 2 figure dataset(s) and summary.json to {outdir}" in capsys.readouterr().err

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
        summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
        assert summary["users"] == 10
        assert summary["labels"]["spammer"] == 5


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert main(["score", "--nope"]) == EXIT_USAGE

    def test_missing_required(self, capsys):
        assert main(["score", "--input", "x"]) == EXIT_USAGE
