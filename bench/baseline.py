"""Run every workload, untraced and traced, and write bench/baseline.json.

    python3 bench/baseline.py [--seed 1] [--seconds 30] [--out bench/baseline.json]

Prints each run's table (bench/run.py) and then one summary table of the
six end-to-end metrics, error_rate included, for all workloads. The JSON
file holds every run's full record: metrics, samples, corpus shape and
environment, plus a sha256 over the program's sources under src/, so a
baseline names the program it measured. --seconds defaults to run_seconds
in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import run


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((run.SRC / "spamminer").rglob("*.py")):
        h.update(path.relative_to(run.SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=run.HERE / "baseline.json")
    args = parser.parse_args(argv)

    records = []
    for workload in spec["workloads"]:
        for trace in (False, True):
            record = run.measure(workload["name"], args.seed, args.seconds, trace)
            run.print_record(record)
            print(flush=True)
            records.append(record)

    names = [*run.END_TO_END, "error_rate"]
    units = {**run.END_TO_END, "error_rate": "ratio"}
    print(f"{'workload':<22}" + "".join(f"{f'{n} ({units[n]})':>22}" for n in names))
    for record in records:
        if not record["trace"]:
            print(f"{record['workload']:<22}"
                  + "".join(f"{record['end_to_end'][n]:>22.6g}" for n in names))
    args.out.write_text(json.dumps({
        "program_sha256": source_sha256(),
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": records,
    }, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
