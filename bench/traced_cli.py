"""Traced in-process replica of `spamminer score`, `report` and `fetch`.

Makes the same public calls, in the same order, as `cli.cmd_score`,
`cmd_report` and `cmd_fetch`, with a span around each call into a layer and
counters taken at the same boundaries. Spans stay in memory and are written,
with the counters, as one JSON file when the command ends:

    python bench/traced_cli.py RESULT.json TRACE_ID score --input C.jsonl --output V.jsonl

A span is [name, parent index (-1 for the root), start, end], times from
`time.perf_counter`. `bench/run.py` starts this as a child process, so its
RSS readings are the command's own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from spamminer import classifier, features, ingest, report
from spamminer.model import RuleConfig, verdict_to_json


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, t._open[-1] if t._open else -1, time.perf_counter(), None])
        t._open.append(self.index)

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index][3] = time.perf_counter()
        self.tracer._open.pop()


def _rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        resident_pages = int(fh.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _parse(tracer: Tracer, counters: dict, path: str, fmt: str) -> list:
    parse = ingest.parse_jsonl if fmt == "jsonl" else ingest.parse_csv
    with tracer.span("ingest.parse"):
        with open(path, "rb") as fh:
            records, rep = parse(fh)
    counters["records_accepted"] = rep.accepted
    counters["records_rejected"] = rep.rejected
    counters["rss_after_parse_mb"] = _rss_mb()
    return records


def _group_and_features(tracer: Tracer, counters: dict, records: list) -> list:
    with tracer.span("ingest.group"):
        logs = ingest.group_by_user(records)
    counters["rss_after_group_mb"] = _rss_mb()
    counters["users"] = len(logs)
    counters["dedup_dropped"] = counters["records_accepted"] - sum(len(log.records) for log in logs)
    with tracer.span("features.feature_vector"):
        fvs = [features.feature_vector(log, features.MODE_CANONICAL) for log in logs]
    counters["vectors"] = len(fvs)
    counters["pairs"] = sum(fv.n_comments * (fv.n_comments - 1) // 2 for fv in fvs)
    return fvs


def _classify(tracer: Tracer, counters: dict, fvs: list, cfg: RuleConfig):
    with tracer.span("classifier.classify"):
        batch = classifier.classify_batch(fvs, cfg)
    for verdict in batch.verdicts:
        key = "users_" + verdict.label.value
        counters[key] = counters.get(key, 0) + 1
    counters["clauses_fired"] = sum(len(v.triggered) for v in batch.verdicts)
    return batch


def trace_score(tracer: Tracer, counters: dict, args: argparse.Namespace) -> None:
    cfg = RuleConfig()
    records = _parse(tracer, counters, args.input, args.format)
    fvs = _group_and_features(tracer, counters, records)
    batch = _classify(tracer, counters, fvs, cfg)
    out_path = Path(args.output)
    with tracer.span("model.encode"):
        out_path.parent.mkdir(parents=True, exist_ok=True)
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            for verdict in batch.verdicts:
                fh.write(verdict_to_json(verdict) + "\n")
    counters["verdict_bytes"] = out_path.stat().st_size


def trace_report(tracer: Tracer, counters: dict, args: argparse.Namespace) -> None:
    figure_ids = list(report.FIGURE_IDS)
    cfg = RuleConfig()
    records = _parse(tracer, counters, args.input, args.format)
    fvs = _group_and_features(tracer, counters, records)
    rows = 0
    with tracer.span("report.figures"):
        for figure_id in figure_ids:
            ds = report.figure_dataset(fvs, figure_id, cfg)
            report.write_figure_csv(ds, args.outdir)
            if args.svg and len(ds.columns) == 2:
                report.write_figure_svg(ds, args.outdir)
            rows += len(ds.rows)
    counters["figure_rows"] = rows
    batch = _classify(tracer, counters, fvs, cfg)
    with tracer.span("report.summary"):
        report.write_summary(report.summarize(list(batch.verdicts)), args.outdir)


def trace_fetch(tracer: Tracer, counters: dict, args: argparse.Namespace) -> None:
    users = [line.strip() for line in Path(args.users).read_text(encoding="utf-8").splitlines()
             if line.strip()]
    # fetch_user_log parses each file through ingest.parse_jsonl; wrapping the
    # module attribute gives that call its own span inside each fetch span.
    parse_jsonl = ingest.parse_jsonl

    def traced_parse_jsonl(stream):
        with tracer.span("ingest.parse"):
            records, rep = parse_jsonl(stream)
        counters["records_accepted"] = counters.get("records_accepted", 0) + rep.accepted
        counters["records_rejected"] = counters.get("records_rejected", 0) + rep.rejected
        return records, rep

    ingest.parse_jsonl = traced_parse_jsonl
    counters["fetch_failed"] = 0
    counters["cache_bytes"] = 0
    logged = 0
    try:
        for user_id in users:
            try:
                with tracer.span("ingest.fetch"):
                    result = ingest.fetch_user_log(args.endpoint, user_id, args.page_limit)
            except (ingest.UserNotFound, ingest.MalformedPage, ingest.EndpointUnreachable,
                    ingest.AllLinesRejected, OSError):
                counters["fetch_failed"] += 1
                continue
            with tracer.span("ingest.cache_put"):
                path = ingest.cache_put(args.cache, result.log)
            counters["cache_bytes"] += path.stat().st_size
            logged += len(result.log.records)
    finally:
        ingest.parse_jsonl = parse_jsonl
    counters["dedup_dropped"] = counters.get("records_accepted", 0) - logged


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result")
    parser.add_argument("trace_id")
    sub = parser.add_subparsers(dest="command", required=True)
    score = sub.add_parser("score")
    score.add_argument("--input", required=True)
    score.add_argument("--format", default="jsonl")
    score.add_argument("--output", required=True)
    rep = sub.add_parser("report")
    rep.add_argument("--input", required=True)
    rep.add_argument("--format", default="jsonl")
    rep.add_argument("--figures", default="all")
    rep.add_argument("--svg", action="store_true")
    rep.add_argument("--outdir", required=True)
    fetch = sub.add_parser("fetch")
    fetch.add_argument("--endpoint", required=True)
    fetch.add_argument("--users", required=True)
    fetch.add_argument("--cache", required=True)
    fetch.add_argument("--page-limit", type=int, default=ingest.DEFAULT_PAGE_LIMIT)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "report" and args.figures != "all":
        raise SystemExit("traced_cli: report traces --figures all only")
    command = {"score": trace_score, "report": trace_report, "fetch": trace_fetch}[args.command]
    tracer = Tracer()
    counters: dict = {}
    with tracer.span("cli." + args.command):
        command(tracer, counters, args)
    Path(args.result).write_text(
        json.dumps({"trace_id": args.trace_id, "spans": tracer.spans, "counters": counters}),
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
