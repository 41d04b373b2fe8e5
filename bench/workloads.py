"""The benchmark's three workloads: seeded corpora, CLI argv and output checks.

Each workload is one `spamminer` subcommand run on a corpus generated here
with `synth.generate` from explicit persona specs and the run's seed. The
corpus files are written by this module in the wire format README.md
documents, so the bytes the program reads do not depend on its own encoder.
Corpora are stored under `bench/.work/corpora/<key>/`, keyed by the persona
specs, the layout and the seed, and reused by every repetition and by later
runs with the same key.

The checks read only what the program wrote (for `fetch`, the cache, through
`ingest.cache_get`) and return the users whose output is missing or wrong.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

from spamminer import ingest, synth
from spamminer.synth import PersonaKind, PersonaSpec

# Bump when the on-disk corpus format written below changes.
CORPUS_FORMAT = 1
# Corpora kept in the store; the least recently used beyond this are deleted.
CORPORA_KEPT = 4

# The rule's default comment gate (README): only users with more than this
# many comments get a spammer/legit label and a figure row.
GATE = 5
# Figure columns, as README.md documents them.
FIGURES = {
    "fig2": ("n_comments", "pchf_pct"),
    "fig3": ("crr", "pchf_pct"),
    "fig4": ("vidovp", "crr"),
    "fig5": ("n_comments", "log10_atdc"),
    "fig6": ("log10_atdc", "n_comments", "pchf_pct"),
}
CSV_HEADER = ("user_id", "comment_id", "video_id", "published_at", "text", "has_spam_hint")
# One unit of the persona mix: README's 200-user benchmark proportions.
MIX_UNIT = (
    (PersonaKind.LEGIT, 100),
    (PersonaKind.BOT, 25),
    (PersonaKind.PROMOTER, 25),
    (PersonaKind.REPEATER, 25),
    (PersonaKind.FLAGGED, 25),
)


@dataclass(frozen=True)
class Workload:
    name: str
    mix: int                           # multiplier on MIX_UNIT
    comments_per_user: tuple[int, int]
    layout: str                        # "jsonl", "csv" or "dir"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("score-many-users", 25, (8, 20), "jsonl"),
        Workload("report-long-logs-csv", 1, (200, 400), "csv"),
        Workload("fetch-dir-cache", 5, (8, 20), "dir"),
    )
}


@dataclass(frozen=True)
class Corpus:
    workload: Workload
    dir: Path
    shape: dict        # key, users, records, bytes, sha256
    truth: dict        # user_id -> "spammer" | "legit"
    counts: dict       # user_id -> records generated for that user

    @property
    def attempted(self) -> int:
        return len(self.truth)


def persona_specs(workload: Workload, mix: int) -> list[PersonaSpec]:
    return [PersonaSpec(kind, n * mix, workload.comments_per_user) for kind, n in MIX_UNIT]


# --- corpus generation and store -------------------------------------------

def _rfc3339(ts: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts))


def _wire_fields(rec) -> tuple:
    """A record as the wire format's six fields, in CSV_HEADER order."""
    return (rec.user_id, rec.comment_id, rec.video_id, _rfc3339(rec.timestamp_s),
            rec.text, rec.has_spam_hint)


def _write_jsonl(path: Path, rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(dict(zip(CSV_HEADER, row)), ensure_ascii=False) + "\n")


def _write_csv(path: Path, rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(row[:5] + ("true" if row[5] else "false",) for row in rows)


def _build(workload: Workload, specs: list[PersonaSpec], seed: int, out: Path) -> None:
    generated = synth.generate(specs, seed)
    truth = dict(generated.truth)
    rows = [_wire_fields(rec) for rec in generated.records]
    del generated
    counts = Counter(row[0] for row in rows)
    out.mkdir(parents=True)
    if workload.layout == "jsonl":
        files = [out / "corpus.jsonl"]
        _write_jsonl(files[0], rows)
    elif workload.layout == "csv":
        files = [out / "corpus.csv"]
        _write_csv(files[0], rows)
    else:
        by_user: dict[str, list[tuple]] = {}
        for row in rows:
            by_user.setdefault(row[0], []).append(row)
        (out / "endpoint").mkdir()
        files = []
        for user_id, user_rows in by_user.items():
            files.append(out / "endpoint" / f"{user_id}.jsonl")
            _write_jsonl(files[-1], user_rows)
        (out / "users.txt").write_text("".join(u + "\n" for u in by_user), encoding="utf-8")
    # {stem}.truth.json, as `spamminer synth` names it.
    (out / "corpus.truth.json").write_text(
        json.dumps(truth, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    h = hashlib.sha256()
    size = 0
    for path in sorted(files):
        data = path.read_bytes()
        size += len(data)
        h.update(path.relative_to(out).as_posix().encode() + b"\0" + data)
    shape = {"users": len(truth), "records": len(rows), "bytes": size,
             "sha256": h.hexdigest()}
    (out / "counts.json").write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    # Written last: its presence marks a complete corpus.
    (out / "shape.json").write_text(json.dumps(shape, sort_keys=True), encoding="utf-8")


def corpus(workload: Workload, seed: int, mix: int, store: Path) -> Corpus:
    """The corpus for (workload, mix, seed), built into the store if absent."""
    specs = persona_specs(workload, mix)
    key_src = json.dumps({"format": CORPUS_FORMAT, "layout": workload.layout, "seed": seed,
                          "specs": [asdict(s) for s in specs]}, sort_keys=True, default=str)
    key = hashlib.sha256(key_src.encode()).hexdigest()[:16]
    cdir = store / key
    if not (cdir / "shape.json").is_file():
        shutil.rmtree(cdir, ignore_errors=True)
        for partial in store.glob(".tmp-*"):
            shutil.rmtree(partial, ignore_errors=True)
        tmp = store / f".tmp-{key}"
        _build(workload, specs, seed, tmp)
        os.replace(tmp, cdir)
    os.utime(cdir)
    stale = sorted((p for p in store.iterdir() if p.is_dir() and not p.name.startswith(".")),
                   key=lambda p: p.stat().st_mtime, reverse=True)[CORPORA_KEPT:]
    for path in stale:
        shutil.rmtree(path, ignore_errors=True)
    shape = {"key": key, **json.loads((cdir / "shape.json").read_text(encoding="utf-8"))}
    return Corpus(
        workload=workload,
        dir=cdir,
        shape=shape,
        truth=json.loads((cdir / "corpus.truth.json").read_text(encoding="utf-8")),
        counts=json.loads((cdir / "counts.json").read_text(encoding="utf-8")),
    )


# --- CLI invocation ---------------------------------------------------------

def cli_argv(c: Corpus, out: Path) -> list[str]:
    """Arguments of the `spamminer` invocation; its outputs go under `out`."""
    layout = c.workload.layout
    if layout == "jsonl":
        return ["score", "--input", str(c.dir / "corpus.jsonl"),
                "--output", str(out / "verdicts.jsonl")]
    if layout == "csv":
        return ["report", "--input", str(c.dir / "corpus.csv"), "--format", "csv",
                "--figures", "all", "--svg", "--outdir", str(out / "figs")]
    return ["fetch", "--endpoint", str(c.dir / "endpoint"),
            "--users", str(c.dir / "users.txt"), "--cache", str(out / "cache")]


def reset_output(c: Corpus, out: Path) -> None:
    """Empty `out`; `fetch` gets a fresh, empty cache directory."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if c.workload.layout == "dir":
        (out / "cache").mkdir()


# --- output checks ----------------------------------------------------------

class Checker:
    """Checks one invocation's outputs against the corpus's ground truth."""

    def __init__(self, c: Corpus) -> None:
        self.c = c
        self.gated = sorted(uid for uid, n in c.counts.items() if n > GATE)
        self.expected_records: dict[str, list[tuple]] = {}
        if c.workload.layout == "dir":
            for path in sorted((c.dir / "endpoint").iterdir()):
                with open(path, encoding="utf-8") as fh:
                    rows = [self._row(json.loads(line)) for line in fh if line.strip()]
                self.expected_records[path.name[: -len(".jsonl")]] = sorted(rows)

    @staticmethod
    def _row(obj: dict) -> tuple:
        return tuple(obj[name] for name in CSV_HEADER)

    def failed_users(self, out: Path, exit_code: int) -> set[str]:
        """Users whose output is missing or wrong; all of them on a non-zero exit."""
        if exit_code != 0:
            return set(self.c.truth)
        check = {"jsonl": self._score, "csv": self._report, "dir": self._fetch}
        try:
            return check[self.c.workload.layout](out)
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            return set(self.c.truth)

    def _score(self, out: Path) -> set[str]:
        truth, counts = self.c.truth, self.c.counts
        seen: Counter = Counter()
        failed = set()
        with open(out / "verdicts.jsonl", encoding="utf-8") as fh:
            for line in fh:
                verdict = json.loads(line)
                uid = verdict["user_id"]
                seen[uid] += 1
                if (verdict["label"] != truth.get(uid)
                        or verdict["features"]["n_comments"] != counts.get(uid)):
                    failed.add(uid)
        failed.update(uid for uid in truth if seen[uid] != 1)
        return failed

    def _report(self, out: Path) -> set[str]:
        figs = out / "figs"
        failed = set()
        for fig_id, columns in FIGURES.items():
            with open(figs / f"{fig_id}.csv", encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            if tuple(rows[0]) != columns or len(rows) - 1 != len(self.gated):
                failed.update(self.gated)
                continue
            # Rows come in user_id order: row i belongs to the i-th gated user.
            if "n_comments" in columns:
                col = columns.index("n_comments")
                failed.update(uid for uid, row in zip(self.gated, rows[1:])
                              if int(row[col]) != self.c.counts[uid])
            if len(columns) == 2:
                svg = (figs / f"{fig_id}.svg").read_text(encoding="utf-8")
                if svg.count("<circle ") != len(self.gated):
                    failed.update(self.gated)
        summary = json.loads((figs / "summary.json").read_text(encoding="utf-8"))
        gated = set(self.gated)
        expected = Counter(self.c.truth[uid] if uid in gated else "insufficient"
                           for uid in self.c.truth)
        if (summary["users"] != len(self.c.truth)
                or summary["comments"] != sum(self.c.counts.values())):
            return set(self.c.truth)
        # The summary counts labels without naming users: a shortfall in a
        # label is that many users labelled wrongly.
        wrong = sum(max(0, n - summary["labels"].get(label, 0)) for label, n in expected.items())
        if wrong:
            failed.update(sorted(set(self.c.truth) - failed)[:wrong])
        return failed

    def _fetch(self, out: Path) -> set[str]:
        failed = set()
        for uid, expected in self.expected_records.items():
            log = ingest.cache_get(out / "cache", uid)
            if log is None or sorted(_wire_fields(rec) for rec in log.records) != expected:
                failed.add(uid)
        return failed
