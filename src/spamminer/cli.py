"""Command-line surface: score, fetch, synth, and report.

Verdicts and figure files go to their output paths; diagnostics go to
stderr, so stdout stays pipeline-safe. Exit codes:

    0  success (partial ingest rejects are warnings, not failures)
    1  usage error
    2  config error (rule config or persona spec)
    3  input fully rejected
    4  endpoint or IO failure
"""

from __future__ import annotations

import argparse
import sys
from operator import attrgetter
from pathlib import Path
from typing import Iterable

from . import classifier, features, ingest
from .model import (
    CLAUSES,
    ConfigError,
    FeatureVector,
    Label,
    MixedUsers,
    RuleConfig,
    build_log,
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
    score.add_argument("--input", required=True, help="corpus file (JSONL or CSV)")
    score.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    score.add_argument("--config", help="rule config JSON (defaults when absent)")
    score.add_argument("--output", required=True, help="verdicts JSONL path")
    score.add_argument("--explain", action="store_true",
                       help="print per-user triggered clauses to stderr")
    score.add_argument("--normalization", choices=features.NORMALIZATION_MODES,
                       default=features.MODE_CANONICAL)

    fetch = sub.add_parser("fetch", help="fetch user logs from a feed into a cache")
    fetch.add_argument("--endpoint", required=True,
                       help="feed base URL or a directory of "
                            "{percent-encoded user_id}.jsonl files")
    fetch.add_argument("--users", required=True, help="file with one user_id per line")
    fetch.add_argument("--cache", required=True, help="cache directory")
    fetch.add_argument("--page-limit", type=int, default=ingest.DEFAULT_PAGE_LIMIT)

    synth_p = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    synth_p.add_argument("--spec", help="persona spec JSON (default: benchmark mix "
                                        "of 100 legit + 25 of each spam kind)")
    synth_p.add_argument("--seed", type=int, required=True)
    synth_p.add_argument("--out", required=True, help="corpus JSONL path "
                                                      "(truth goes to {stem}.truth.json)")

    rep = sub.add_parser("report", help="emit figure CSV/SVG and a summary")
    rep.add_argument("--input", required=True, help="corpus file (JSONL or CSV)")
    rep.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    rep.add_argument("--figures", default="all",
                     help="comma-separated figure ids (fig2..fig6) or 'all'")
    rep.add_argument("--outdir", required=True)
    rep.add_argument("--svg", action="store_true",
                     help="also emit SVG scatter plots (fig2-fig5)")
    rep.add_argument("--config", help="rule config JSON for the gate and summary")
    rep.add_argument("--normalization", choices=features.NORMALIZATION_MODES,
                     default=features.MODE_CANONICAL)
    return parser


def _load_config(path: str | None) -> RuleConfig:
    return load_rule_config(path) if path else RuleConfig()


def _corpus_features(args: argparse.Namespace) -> list[FeatureVector]:
    """Parse --input and compute each user's feature vector, sorted by user_id.

    A file that keeps each user's records in one contiguous run is scored one
    user at a time, as each run ends; only the feature vectors are kept.
    Another file is read a second time and grouped whole. A pipe cannot be
    read twice, so it is grouped whole at once.
    """
    records_of = ingest.iter_jsonl if args.format == "jsonl" else ingest.iter_csv
    with open(args.input, "rb") as fh:
        rep = ingest.IngestReport()
        fvs = None
        if fh.seekable():
            try:
                fvs = [features.feature_vector(build_log(user_id, run), args.normalization)
                       for user_id, run in ingest.user_runs(records_of(fh, rep))]
                fvs.sort(key=attrgetter("user_id"))
            except ingest.NotGrouped:
                fh.seek(0)
                rep = ingest.IngestReport()
        if fvs is None:
            fvs = [features.feature_vector(log, args.normalization)
                   for log in ingest.group_by_user(records_of(fh, rep))]
    _warn_rejects(args.input, rep.rejects)
    if rep.rejected:
        _warn(f"{args.input}: {rep.accepted} accepted, {rep.rejected} rejected")
    return fvs


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
    cfg = _load_config(args.config)
    batch = classifier.classify_batch(_corpus_features(args), cfg)
    out_path = Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        for verdict in batch.verdicts:
            fh.write(verdict_to_json(verdict) + "\n")
    if args.explain:
        for verdict in batch.verdicts:
            _warn(_explain(verdict, cfg))
    labels = {label.value: 0 for label in Label}
    for verdict in batch.verdicts:
        labels[verdict.label.value] += 1
    _warn(f"scored {len(batch.verdicts)} users: {labels}")
    return EXIT_OK


def cmd_fetch(args: argparse.Namespace) -> int:
    if args.page_limit < 1:
        raise UsageError(f"--page-limit must be at least 1: {args.page_limit}")
    try:
        text = Path(args.users).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"users file {args.users} is not UTF-8: {exc}") from None
    users = [line.strip() for line in text.splitlines() if line.strip()]
    fetched = 0
    for user_id in users:
        try:
            result = ingest.fetch_user_log(args.endpoint, user_id, args.page_limit)
        except (ingest.UserNotFound, ingest.MalformedPage, ingest.EndpointUnreachable,
                ingest.AllLinesRejected, MixedUsers, OSError) as exc:
            _warn(f"fetch failed for {user_id!r}: {exc}")
            continue
        if result.rejects:
            _warn_rejects(ingest.user_file(args.endpoint, user_id), result.rejects)
        if result.truncated:
            _warn(f"log for {user_id!r} truncated at {args.page_limit} pages")
        ingest.cache_put(args.cache, result.log)
        fetched += 1
    _warn(f"fetched {fetched}/{len(users)} users into {args.cache}")
    if users and not fetched:
        return EXIT_IO
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    from . import synth  # imported here: only synth needs it, so other commands start faster

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
        figure_ids = [name.strip() for name in args.figures.split(",") if name.strip()]
        unknown = [name for name in figure_ids if name not in report.FIGURE_COLUMNS]
        if unknown:
            raise UsageError(f"unknown figure id: {unknown[0]!r}")
    cfg = _load_config(args.config)
    fvs = _corpus_features(args)
    for figure_id in figure_ids:
        ds = report.figure_dataset(fvs, figure_id, cfg)
        report.write_figure_csv(ds, args.outdir)
        if args.svg and len(ds.columns) == 2:
            report.write_figure_svg(ds, args.outdir)
    batch = classifier.classify_batch(fvs, cfg)
    report.write_summary(report.summarize(list(batch.verdicts)), args.outdir)
    _warn(f"wrote {len(figure_ids)} figure dataset(s) and summary.json to {args.outdir}")
    return EXIT_OK


_COMMANDS = {
    "score": cmd_score,
    "fetch": cmd_fetch,
    "synth": cmd_synth,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _warn(f"usage error: {exc}")
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        _warn(f"usage error: {exc}")
        return EXIT_USAGE
    except ConfigError as exc:  # a bad rule config, or a bad persona spec (synth.InvalidSpec)
        _warn(f"config error: {exc}")
        return EXIT_CONFIG
    except (ingest.AllLinesRejected, ingest.MissingHeader) as exc:
        _warn(f"input rejected: {exc}")
        return EXIT_REJECTED
    except (ingest.EndpointUnreachable, ingest.UserNotFound, ingest.MalformedPage,
            OSError) as exc:
        _warn(f"io error: {exc}")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
