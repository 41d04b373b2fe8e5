"""Command-line surface: score, fetch, synth, and report.

Verdicts and figure files go to their output paths; diagnostics go to
stderr, so stdout stays pipeline-safe. Exit codes:

    0  success (partial ingest rejects are warnings, not failures)
    1  usage error
    2  config error (rule config or persona spec)
    3  input fully rejected
    4  endpoint or IO failure

score and report warn about the rejected lines of classifier.score_corpus,
the one corpus scorer, then draw its verdicts.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from itertools import product
from pathlib import Path
from typing import Iterable, Iterator

from . import classifier, ingest
from .model import (
    CLAUSES,
    ConfigError,
    Label,
    MixedUsers,
    RuleConfig,
    Verdict,
    load_rule_config,
    verdict_to_json,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_REJECTED = 3
EXIT_IO = 4

_RULE_DEFAULTS = RuleConfig()
_EPILOG = (
    "default rule: spammer iff "
    + " OR ".join(f"{c.indicator.value} {c.op} {getattr(_RULE_DEFAULTS, c.threshold):g}{c.unit}"
                  for c in CLAUSES)
    + f", applied to users with more than {_RULE_DEFAULTS.min_comments} comments"
)


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; that code is reserved for config
    # errors here, so surface usage problems as exceptions instead.
    def error(self, message: str) -> None:
        raise UsageError(message)


def _warn(message: str) -> None:
    print(f"spamminer: {message}", file=sys.stderr)


def _warn_rejects(source: str | Path, rejects: Iterable[tuple[int, str]]) -> None:
    """Warn once per rejected line of source, given (line number, error name) pairs."""
    for line_no, error_name in rejects:
        _warn(f"{source}:{line_no}: rejected line ({error_name})")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="spamminer", description=__doc__.splitlines()[0],
                             epilog=_EPILOG)
    sub = parser.add_subparsers(dest="command", required=True)
    score = sub.add_parser("score", help="score a comment corpus and write verdicts",
                           epilog=_EPILOG)
    fetch = sub.add_parser("fetch", help="fetch user logs from a feed into a cache")
    synth_p = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    rep = sub.add_parser("report", help="emit figure CSV/SVG and a summary")
    for command, run in ((score, cmd_score), (fetch, cmd_fetch), (synth_p, cmd_synth),
                         (rep, cmd_report)):
        command.set_defaults(run=run)

    for command in (score, rep):  # the inputs of classifier.score_corpus
        command.add_argument("--input", required=True, help="corpus file (JSONL or CSV)")
        command.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
        command.add_argument("--config", help="rule config JSON (defaults when absent)")

    score.add_argument("--output", required=True, help="verdicts JSONL path")
    score.add_argument("--explain", action="store_true",
                       help="print per-user triggered clauses to stderr")

    fetch.add_argument("--endpoint", required=True,
                       help="feed base URL or a directory of "
                            "{percent-encoded user_id}.jsonl files")
    fetch.add_argument("--users", required=True, help="file with one user_id per line")
    fetch.add_argument("--cache", required=True, help="cache directory")
    fetch.add_argument("--page-limit", type=int, default=ingest.DEFAULT_PAGE_LIMIT)

    synth_p.add_argument("--spec", help="persona spec JSON (default: benchmark mix "
                                        "of 100 legit + 25 of each spam kind)")
    synth_p.add_argument("--seed", type=int, required=True)
    synth_p.add_argument("--out", required=True, help="corpus JSONL path "
                                                      "(truth goes to {stem}.truth.json)")

    rep.add_argument("--figures", default="all",
                     help="comma-separated figure ids (fig2..fig6) or 'all'")
    rep.add_argument("--outdir", required=True)
    rep.add_argument("--svg", action="store_true",
                     help="also emit SVG scatter plots (fig2-fig5)")
    return parser


def _score(args: argparse.Namespace) -> tuple[RuleConfig, Iterator[Verdict]]:
    """--config, and score_corpus' verdicts on --input, its rejects warned about first."""
    cfg = load_rule_config(args.config) if args.config else RuleConfig()
    ingested, verdicts = classifier.score_corpus(args.input, format=args.format, config=cfg)
    _warn_rejects(args.input, ingested.rejects)
    if ingested.rejected:
        _warn(f"{args.input}: {ingested.accepted} accepted, {ingested.rejected} rejected")
    return cfg, verdicts


def _same_file(path: str | Path, other: str) -> bool:
    """Whether path exists and is other, directly or through a symlink or hard link."""
    try:
        return os.path.samefile(path, other)
    except (OSError, ValueError):  # either is missing or not a valid path
        return False


def _refuse_overwrite(args: argparse.Namespace, written: Iterable[tuple[str, str | Path]]) -> None:
    """Raise UsageError if a (name, path) the command writes is a file it reads."""
    for (name, path), flag in product(written, ("input", "config", "spec", "users")):
        source = getattr(args, flag, None)
        if source and os.path.isfile(path) and _same_file(path, source):
            raise UsageError(f"{name} is the --{flag} file: {path}")


def _explain(verdict, cfg: RuleConfig) -> str:
    fv = verdict.features
    clauses = [
        f"{c.indicator.value} {getattr(fv, c.feature):g}{c.unit} {c.op} "
        f"{getattr(cfg, c.threshold):g}{c.unit}"
        for c in CLAUSES if c.indicator in verdict.triggered
    ]
    detail = f" [{'; '.join(clauses)}]" if clauses else ""
    return f"{verdict.user_id}: {verdict.label.value}{detail}"


def cmd_score(args: argparse.Namespace) -> int:
    # A missing --input is reported when score_corpus opens it.
    _refuse_overwrite(args, [("--output", args.output)])
    cfg, verdicts = _score(args)
    out_path = Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    labels = dict.fromkeys(Label, 0)
    # Each verdict is written as it is made, so only one is alive at a time.
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        for verdict in verdicts:
            fh.write(verdict_to_json(verdict) + "\n")
            if args.explain:
                _warn(_explain(verdict, cfg))
            labels[verdict.label] += 1
    counts = {label.value: count for label, count in labels.items()}
    _warn(f"scored {sum(counts.values())} users: {counts}")
    return EXIT_OK


def cmd_fetch(args: argparse.Namespace) -> int:
    if args.page_limit < 1:
        raise UsageError(f"--page-limit must be at least 1: {args.page_limit}")
    try:
        ingest._is_http(args.endpoint)
    except ValueError as exc:  # credentials in the URL; the message does not repeat them
        raise UsageError(str(exc)) from None
    # Each user's file would be read from and replaced in the one directory.
    if os.path.isdir(args.cache) and _same_file(args.cache, args.endpoint):
        raise UsageError(f"--cache is the --endpoint directory: {args.cache}")
    try:
        text = Path(args.users).read_text(encoding="utf-8-sig")  # drops one leading BOM
    except UnicodeDecodeError as exc:
        raise UsageError(f"users file {args.users} is not UTF-8: {exc}") from None
    # Only \n ends a line: read_text has turned \r\n and \r into it, and an id may hold U+2028.
    users = list(dict.fromkeys(line.strip() for line in text.split("\n") if line.strip()))
    _refuse_overwrite(args, [("a file in --cache", ingest.user_file(args.cache, user_id))
                             for user_id in users])
    fetched = 0
    for user_id in users:
        try:
            result = ingest.fetch_user_log(args.endpoint, user_id, args.page_limit)
        except (ingest.UserNotFound, ingest.MalformedPage, ingest.AllLinesRejected, MixedUsers,
                OSError) as exc:  # an EndpointUnreachable is an OSError
            _warn(f"fetch failed for {user_id!r}: {exc}")
            continue
        if result.rejects:  # a Path renders the name feed/u1.jsonl for ./feed/
            _warn_rejects(Path(ingest.user_file(args.endpoint, user_id)), result.rejects)
        if result.truncated:
            _warn(f"log for {user_id!r} truncated at {args.page_limit} pages")
        try:
            ingest._write_user_file(args.cache, result.log)
        except OSError as exc:
            # A name too long is this user's when the error names the user's file; when it
            # names the cache directory, every user would fail the same way.
            if exc.errno != errno.ENAMETOOLONG or exc.filename == args.cache:
                raise
            _warn(f"fetch failed for {user_id!r}: {exc}")
            continue
        fetched += 1
    _warn(f"fetched {fetched}/{len(users)} users into {args.cache}")
    if users and not fetched:
        return EXIT_IO
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    from . import synth  # imported here: only synth needs it, so other commands start faster

    _refuse_overwrite(args, [("--out", args.out),
                             ("--out's truth file", synth.truth_path_for(args.out))])
    specs = synth.load_persona_specs(args.spec) if args.spec else synth.benchmark_specs()
    corpus = synth.generate(specs, args.seed)
    corpus_path, truth_path = synth.write_corpus(corpus, args.out)
    _warn(f"wrote {len(corpus.records)} records for {len(corpus.truth)} users "
          f"to {corpus_path} (truth: {truth_path})")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    from . import report  # imported here: only report needs it, so other commands start faster

    if args.figures.strip().lower() == "all":
        figure_ids = list(report.FIGURE_IDS)
    else:
        figure_ids = list(dict.fromkeys(filter(None, map(str.strip, args.figures.split(",")))))
        unknown = [name for name in figure_ids if name not in report.FIGURE_COLUMNS]
        if unknown:
            raise UsageError(f"unknown figure id: {unknown[0]!r}")
    svg_ids = [i for i in figure_ids if args.svg and len(report.FIGURE_COLUMNS[i]) == 2]
    written = [f"{i}.csv" for i in figure_ids] + [f"{i}.svg" for i in svg_ids] + ["summary.json"]
    _refuse_overwrite(args, [("a file in --outdir", os.path.join(args.outdir, name))
                             for name in written])
    cfg, verdicts = _score(args)
    verdicts = list(verdicts)
    fvs = [verdict.features for verdict in verdicts]
    for figure_id in figure_ids:
        ds = report.figure_dataset(fvs, figure_id, cfg)
        report.write_figure_csv(ds, args.outdir)
        if figure_id in svg_ids:
            report.write_figure_svg(ds, args.outdir)
    report.write_summary(report.summarize(verdicts), args.outdir)
    _warn(f"wrote {len(figure_ids)} figure dataset(s) and summary.json to {args.outdir}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        _warn(f"usage error: {exc}")
        return EXIT_USAGE
    except ConfigError as exc:  # a bad rule config, or a bad persona spec (synth.InvalidSpec)
        _warn(f"config error: {exc}")
        return EXIT_CONFIG
    except (ingest.AllLinesRejected, ingest.MissingHeader) as exc:
        _warn(f"input rejected: {exc}")
        return EXIT_REJECTED
    except OSError as exc:  # ingest.EndpointUnreachable too
        _warn(f"io error: {exc}")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
