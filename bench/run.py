"""End-to-end and per-layer benchmark of the spamminer CLI.

    python3 bench/run.py --workload score-many-users --seed 1 --seconds 30 --trace 0

One run builds (or reuses) the seeded corpus of one workload, times the
interpreter start plus `import spamminer.cli` in processes of their own, then
runs the real CLI (`python -m spamminer.cli ...`) as one child process at a
time, closed loop, until `--seconds` have passed, checking every output.

With `--trace 0` it reports the end-to-end metrics: medians of wall time,
records/s, the child's user+sys CPU time and peak RSS, and setup time. With
`--trace 1` each repetition also runs `traced_cli.py`, the traced
in-process replica of the command, and reports the per-layer metrics. Every
metric is printed as a table line with its unit and sample count; the last
line of stdout is one JSON object: correct, attempted, failed and metrics.
Attempted counts users in the truth set (or listed for fetch) per
invocation; a user fails when its output is missing or wrong, or when the
invocation exits non-zero. error_rate, failed / attempted, is printed in the
table.

Inputs and outputs live under bench/.work/ (see workloads.py). The program
is imported from src/ next to this directory; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

END_TO_END = {
    "wall_s": "s",
    "records_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "ingest.parse_s": "s",
    "ingest.parse_records_per_s": "1/s",
    "ingest.records_accepted": "count",
    "ingest.records_rejected": "count",
    "ingest.group_s": "s",
    "ingest.users": "count",
    "ingest.rss_after_parse_mb": "MB",
    "ingest.rss_after_group_mb": "MB",
    "ingest.fetch_s": "s",
    "ingest.fetch_failed": "count",
    "ingest.cache_put_s": "s",
    "ingest.cache_bytes": "bytes",
    "model.dedup_dropped": "count",
    "model.encode_s": "s",
    "model.verdict_bytes": "bytes",
    "features.feature_vector_s": "s",
    "features.vectors": "count",
    "features.pairs": "count",
    "classifier.classify_s": "s",
    "classifier.users_spammer": "count",
    "classifier.users_legit": "count",
    "classifier.users_insufficient": "count",
    "classifier.clauses_fired": "count",
    "report.figures_s": "s",
    "report.figure_rows": "count",
    "report.summary_s": "s",
    "trace.total_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}
# Span name -> per-layer metric holding the spans' summed duration.
SPAN_METRICS = {
    "ingest.parse": "ingest.parse_s",
    "ingest.group": "ingest.group_s",
    "ingest.fetch": "ingest.fetch_s",
    "ingest.cache_put": "ingest.cache_put_s",
    "model.encode": "model.encode_s",
    "features.feature_vector": "features.feature_vector_s",
    "classifier.classify": "classifier.classify_s",
    "report.figures": "report.figures_s",
    "report.summary": "report.summary_s",
}
# Setup is sampled before the first repetition and again after every second
# one, so its median covers the same stretch of time as the CLI samples.
SETUP_SAMPLES_FIRST = 3
MIN_REPETITIONS = 2
CHILD_TIMEOUT_S = 160  # above launcher.TIMEOUT_S


def _load_workloads():
    """Import workloads.py, which imports the program from SRC."""
    if not (SRC / "spamminer" / "cli.py").is_file():
        raise SystemExit(f"bench: no spamminer sources in {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import spamminer
    import workloads

    if Path(spamminer.__file__).resolve().parent != SRC / "spamminer":
        raise SystemExit(f"bench: imported spamminer from {spamminer.__file__}, not {SRC}")
    return workloads


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """The small process that starts every timed child (see launcher.py)."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")], cwd=ROOT,
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, argv: list[str], log_path: Path) -> tuple[float, float, float, int]:
        """Run one child to exit: (wall s, user+sys CPU s, peak RSS MB, exit code)."""
        self.proc.stdin.write(json.dumps([argv, str(log_path)]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("bench: the launcher process exited")
        wall, cpu, rss, code = json.loads(line)
        return wall, cpu, rss, code

    def setup_seconds(self, log_path: Path) -> float:
        """Interpreter start plus `import spamminer.cli`, in a process of its own."""
        wall, _, _, code = self.run([sys.executable, "-c", "import spamminer.cli"], log_path)
        if code != 0:
            raise RuntimeError(f"bench: importing spamminer.cli failed; see {log_path}")
        return wall

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def layer_metrics(result: dict) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, and {span name: [total s, self s, count]}."""
    spans, counters = result["spans"], result["counters"]
    self_s = [end - start for _, _, start, end in spans]
    by_name: dict = defaultdict(lambda: [0.0, 0.0, 0])
    for name, parent, start, end in spans:
        by_name[name][0] += end - start
        by_name[name][2] += 1
        if parent >= 0:
            self_s[parent] -= end - start
    for (name, *_), s in zip(spans, self_s):
        by_name[name][1] += s
    root_name, _, root_start, root_end = spans[0]
    total = root_end - root_start
    if abs(sum(self_s) - total) > 1e-6 or any(parent < 0 for _, parent, _, _ in spans[1:]):
        raise RuntimeError("span self times do not add up to the traced total")

    metrics = {name: 0.0 for name in PER_LAYER}
    for span_name, metric in SPAN_METRICS.items():
        metrics[metric] = by_name[span_name][0] if span_name in by_name else 0.0
    for name in PER_LAYER:
        counter = name.split(".", 1)[1]
        if counter in counters:
            metrics[name] = counters[counter]
    if metrics["ingest.parse_s"]:
        metrics["ingest.parse_records_per_s"] = (
            metrics["ingest.records_accepted"] / metrics["ingest.parse_s"])
    metrics["trace.total_s"] = total
    metrics["trace.unattributed_s"] = by_name[root_name][1]
    return metrics, dict(by_name)


def _spread(values: list[float]) -> dict:
    ordered = sorted(values)
    return {"n": len(values), "median": statistics.median(values),
            "min": ordered[0], "max": ordered[-1]}


def measure(workload_name: str, seed: int, seconds: float, trace: bool,
            mix: int | None = None) -> dict:
    """One benchmark run; returns the full record (metrics, samples, corpus, env)."""
    wl = _load_workloads()
    workload = wl.WORKLOADS[workload_name]
    env_info = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
                "loadavg_1m": os.getloadavg()[0]}
    WORK.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    corpus = wl.corpus(workload, seed, mix or workload.mix, WORK / "corpora")
    corpus_s = time.perf_counter() - t0
    checker = wl.Checker(corpus)
    out = WORK / "out"
    trace_result = WORK / f"trace-{workload.name}-seed{seed}.json"
    argv = wl.cli_argv(corpus, out)
    walls, cpus, rsss, layers = [], [], [], []
    span_table: dict = {}
    attempted = failed = 0
    exits_ok = True

    def check(exit_code: int) -> None:
        nonlocal attempted, failed, exits_ok
        attempted += corpus.attempted
        failed += min(len(checker.failed_users(out, exit_code)), corpus.attempted)
        exits_ok &= exit_code == 0

    with Launcher(_child_env()) as launch:
        # The first import writes the bytecode cache, which users do not pay per run.
        launch.setup_seconds(WORK / "setup.log")
        setup = [launch.setup_seconds(WORK / "setup.log") for _ in range(SETUP_SAMPLES_FIRST)]
        deadline = time.perf_counter() + seconds
        while True:
            t_rep = time.perf_counter()
            wl.reset_output(corpus, out)
            wall, cpu, rss, code = launch.run([sys.executable, "-m", "spamminer.cli", *argv],
                                              WORK / "cli.log")
            walls.append(wall)
            cpus.append(cpu)
            rsss.append(rss)
            check(code)
            if trace:
                wl.reset_output(corpus, out)
                trace_id = f"{workload.name}-{seed}-{len(walls)}"
                *_, code = launch.run([sys.executable, str(HERE / "traced_cli.py"),
                                       str(trace_result), trace_id, *argv], WORK / "trace.log")
                check(code)
                if code == 0:
                    metrics, span_table = layer_metrics(json.loads(trace_result.read_text()))
                    layers.append(metrics)
            if len(walls) % 2 == 0:
                setup.append(launch.setup_seconds(WORK / "setup.log"))
            now = time.perf_counter()
            if len(walls) >= MIN_REPETITIONS and now + (now - t_rep) > deadline:
                break
    if trace and not layers:
        raise SystemExit(f"bench: every traced run failed; see {WORK / 'trace.log'}")

    wall = statistics.median(walls)
    end_to_end = {
        "wall_s": wall,
        "records_per_s": corpus.shape["records"] / wall,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rsss),
        "setup_s": statistics.median(setup),
        "error_rate": failed / attempted,
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": env_info,
        "corpus": {**corpus.shape, "build_or_load_s": corpus_s},
        "samples": {"wall_s": _spread(walls), "cpu_s": _spread(cpus),
                    "peak_rss_mb": _spread(rsss), "setup_s": _spread(setup)},
        "end_to_end": end_to_end,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and exits_ok,
    }
    if trace:
        per_layer = {name: statistics.median(m[name] for m in layers) for name in PER_LAYER}
        per_layer["trace.overhead_s"] = (
            per_layer["trace.total_s"] - (end_to_end["wall_s"] - end_to_end["setup_s"]))
        record["per_layer"] = per_layer
        record["traced_runs"] = len(layers)
        record["spans_last_run"] = {name: {"total_s": v[0], "self_s": v[1], "count": v[2]}
                                    for name, v in span_table.items()}
    return record


def print_record(record: dict) -> None:
    """Human-readable table of every metric, with units and sample counts."""
    c, e = record["corpus"], record["env"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(f"corpus   users={c['users']} records={c['records']} bytes={c['bytes']} "
          f"sha256={c['sha256']} ({c['build_or_load_s']:.1f} s to build or load)")
    print(f"env      python={e['python']} nproc={e['nproc']} loadavg_1m={e['loadavg_1m']:.2f}")
    n = record["samples"]["wall_s"]["n"]
    counts = {"setup_s": record["samples"]["setup_s"]["n"]}
    for name, unit in END_TO_END.items():
        s = record["samples"].get(name)
        extra = f"  [min {s['min']:.4g}, max {s['max']:.4g}]" if s else ""
        print(f"  {name:<30} {record['end_to_end'][name]:>16.6g} {unit:<6} "
              f"median of n={counts.get(name, n)}{extra}")
    print(f"  {'error_rate':<30} {record['end_to_end']['error_rate']:>16.6g} {'ratio':<6} "
          f"failed {record['failed']} of {record['attempted']} attempted")
    if "per_layer" in record:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<30} {record['per_layer'][name]:>16.6g} {unit:<6} "
                  f"median of n={record['traced_runs']}")
        print("  spans of the last traced run (total s, self s, count):")
        for name, s in record["spans_last_run"].items():
            print(f"    {name:<28} {s['total_s']:>10.4f} {s['self_s']:>10.4f} {s['count']:>7}")


def result_line(record: dict) -> str:
    """The final stdout line: correct, attempted, failed and the metrics."""
    if record["trace"]:
        values, units = record["per_layer"], PER_LAYER
    else:
        values, units = record["end_to_end"], END_TO_END
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("score-many-users", "report-long-logs-csv", "fetch-dir-cache"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mix", type=int,
                        help="persona-mix multiplier (default: the workload's own; "
                             "small values make a quick smoke run)")
    args = parser.parse_args(argv)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.mix)
    print_record(record)
    print(result_line(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
