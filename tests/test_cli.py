"""End-to-end CLI behavior: exit codes, outputs, composition with the library."""

from __future__ import annotations

import hashlib
import json

import pytest

from spamminer import classifier, features, ingest
from spamminer.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_USAGE,
    main,
)
from spamminer.model import record_to_json, verdict_to_json
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

    def test_pure_garbage_input(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\nstill not json\n")
        code = main(["score", "--input", str(bad), "--output", str(tmp_path / "o.jsonl")])
        assert code == EXIT_REJECTED

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

    def test_all_users_fail(self, tmp_path):
        feed_dir = tmp_path / "feed"
        feed_dir.mkdir()
        users = tmp_path / "users.txt"
        users.write_text("ghost\n")
        code = main(["fetch", "--endpoint", str(feed_dir), "--users", str(users),
                     "--cache", str(tmp_path / "cache")])
        assert code == EXIT_IO


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

    def test_invalid_spec_is_config_error(self, tmp_path):
        spec = tmp_path / "personas.json"
        spec.write_text(json.dumps([{"kind": "bot", "count": -2}]))
        code = main(["synth", "--spec", str(spec), "--seed", "1",
                     "--out", str(tmp_path / "c.jsonl")])
        assert code == EXIT_CONFIG


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
