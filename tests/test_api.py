"""The package root's public names, and README's library example run as written."""

from __future__ import annotations

import json
import re
from pathlib import Path

import spamminer
from spamminer.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"

ROOT_API = [
    "CommentRecord",
    "FeatureVector",
    "Indicator",
    "Label",
    "RuleConfig",
    "UserActivityLog",
    "Verdict",
    "classify_batch",
    "feature_vector",
    "group_by_user",
    "parse_jsonl",
]


def test_root_exports_the_pipeline_and_its_values():
    assert spamminer.__all__ == ROOT_API
    for name in ROOT_API:
        assert getattr(spamminer, name) is not None


def _library_snippet() -> str:
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", library, re.DOTALL)
    assert match is not None, "README has no python example under ## Library"
    return match.group(1)


def test_readme_library_example_matches_score(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--seed", "5", "--out", "corpus.jsonl"]) == EXIT_OK
    assert main(["score", "--input", "corpus.jsonl", "--output", "verdicts.jsonl"]) == EXIT_OK
    capsys.readouterr()

    exec(_library_snippet(), {})

    printed = capsys.readouterr().out.splitlines()
    verdicts = [json.loads(line) for line in Path("verdicts.jsonl").read_text().splitlines()]
    assert len(printed) == 200
    assert printed == [f"{v['user_id']} {v['label']} {sorted(v['triggered'])}" for v in verdicts]
