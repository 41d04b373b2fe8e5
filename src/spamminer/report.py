"""Figure datasets, corpus summaries, and CSV/SVG emission.

Five standard scatter datasets over the per-user feature vectors, one per
figure id. Only users above the comment gate appear; fig5 and fig6 need
the time-difference axis on a log scale, so users whose ATDC is absent or
zero are excluded from those two (log10 is undefined there).

    fig2  n_comments  x  pchf_pct
    fig3  crr         x  pchf_pct
    fig4  vidovp      x  crr
    fig5  n_comments  x  log10_atdc
    fig6  log10_atdc  x  n_comments x pchf_pct   (CSV only, 3-D)

Emission is deterministic: the same input produces byte-identical CSV and
SVG. CSV cells and SVG axis labels use up to six fractional digits with
trailing zeros trimmed, and a value that rounds to zero is written 0, never
-0 (fig5 and fig6 keep an ATDC just under one second, whose log10 is such a
value).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, NamedTuple

from .model import FeatureVector, Indicator, Label, RuleConfig, Verdict

FIGURE_COLUMNS: dict[str, tuple[str, ...]] = {
    "fig2": ("n_comments", "pchf_pct"),
    "fig3": ("crr", "pchf_pct"),
    "fig4": ("vidovp", "crr"),
    "fig5": ("n_comments", "log10_atdc"),
    "fig6": ("log10_atdc", "n_comments", "pchf_pct"),
}
FIGURE_IDS = tuple(FIGURE_COLUMNS)


class UnsupportedFigure(ValueError):
    """Raised when an operation does not apply to the given figure."""


class FigureDataset(NamedTuple):
    """Projected axis values for one figure, one row per gated user."""

    figure_id: str
    columns: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]


def _column_value(fv: FeatureVector, column: str) -> float:
    if column == "log10_atdc":
        return math.log10(fv.atdc_s)
    return getattr(fv, column)


def figure_dataset(
    fvs: list[FeatureVector], figure_id: str, cfg: RuleConfig = RuleConfig()
) -> FigureDataset:
    """Project gated users onto one figure's axes, rows ordered by user_id."""
    if figure_id not in FIGURE_COLUMNS:
        raise UnsupportedFigure(f"unknown figure id: {figure_id!r}")
    columns = FIGURE_COLUMNS[figure_id]
    needs_atdc = "log10_atdc" in columns
    rows = []
    for fv in sorted(fvs, key=lambda fv: fv.user_id):
        if fv.n_comments <= cfg.min_comments:
            continue
        if needs_atdc and (fv.atdc_s is None or fv.atdc_s <= 0):
            continue
        rows.append(tuple(_column_value(fv, col) for col in columns))
    return FigureDataset(figure_id=figure_id, columns=columns, rows=tuple(rows))


def _fmt(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    text = format(value, ".6f").rstrip("0").rstrip(".")
    return "0" if text == "-0" else text  # a negative value that rounds to zero


def figure_csv(ds: FigureDataset) -> str:
    """Render a dataset as CSV text with LF line endings."""
    lines = [",".join(ds.columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in ds.rows)
    return "\n".join(lines) + "\n"


def summarize(verdicts: Iterable[Verdict]) -> dict:
    """Counts by label and by triggered indicator, plus corpus totals, in one pass."""
    labels = {label.value: 0 for label in Label}
    triggered = {ind.value: 0 for ind in Indicator}
    total_comments = 0
    users = set()
    for verdict in verdicts:
        labels[verdict.label.value] += 1
        for ind in verdict.triggered:
            triggered[ind.value] += 1
        total_comments += verdict.features.n_comments
        users.add(verdict.user_id)
    return {
        "users": len(users),
        "comments": total_comments,
        "labels": labels,
        "triggered": triggered,
    }


# --- SVG scatter -----------------------------------------------------------

_SVG_W, _SVG_H = 800, 600
_X0, _X1 = 70, 775  # plot area, px
_Y0, _Y1 = 20, 545


def _axis_range(values: list[float]) -> tuple[float, float]:
    if not values:
        return 0.0, 1.0
    lo, hi = min(values), max(values)
    if lo == hi:
        return lo - 0.5, hi + 0.5
    return lo, hi


def _scale(v: float, lo: float, hi: float, out0: float, out1: float) -> float:
    return out0 + (v - lo) / (hi - lo) * (out1 - out0)


def svg_scatter(ds: FigureDataset) -> str:
    """Render a 2-D dataset as a standalone SVG scatter plot.

    800x600 viewBox, linear axes labeled with their min/max, one 3px circle
    per row, axis titles taken from the column names. Three-column datasets
    (fig6) are unsupported.
    """
    if len(ds.columns) != 2:
        raise UnsupportedFigure(
            f"{ds.figure_id} has {len(ds.columns)} columns; scatter SVG needs 2"
        )
    xs = [row[0] for row in ds.rows]
    ys = [row[1] for row in ds.rows]
    x_lo, x_hi = _axis_range(xs)
    y_lo, y_hi = _axis_range(ys)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_X0}" y1="{_Y1}" x2="{_X1}" y2="{_Y1}" stroke="black"/>',
        f'<line x1="{_X0}" y1="{_Y0}" x2="{_X0}" y2="{_Y1}" stroke="black"/>',
        f'<text x="{_X0}" y="{_Y1 + 18}" font-size="12" text-anchor="middle">{_fmt(x_lo)}</text>',
        f'<text x="{_X1}" y="{_Y1 + 18}" font-size="12" text-anchor="middle">{_fmt(x_hi)}</text>',
        f'<text x="{_X0 - 6}" y="{_Y1 + 4}" font-size="12" text-anchor="end">{_fmt(y_lo)}</text>',
        f'<text x="{_X0 - 6}" y="{_Y0 + 4}" font-size="12" text-anchor="end">{_fmt(y_hi)}</text>',
        f'<text x="{(_X0 + _X1) / 2:.0f}" y="{_SVG_H - 15}" font-size="14" '
        f'text-anchor="middle">{ds.columns[0]}</text>',
        f'<text x="18" y="{(_Y0 + _Y1) / 2:.0f}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 18 {(_Y0 + _Y1) / 2:.0f})">{ds.columns[1]}</text>',
    ]
    for x, y in zip(xs, ys):
        cx = _scale(x, x_lo, x_hi, _X0, _X1)
        cy = _scale(y, y_lo, y_hi, _Y1, _Y0)  # SVG y grows downward
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="steelblue"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --- file emission ---------------------------------------------------------

def _write(outdir: str | Path, name: str, text: str) -> Path:
    """Write text to outdir/name as UTF-8 with LF line endings, creating outdir."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def write_figure_csv(ds: FigureDataset, outdir: str | Path) -> Path:
    return _write(outdir, f"{ds.figure_id}.csv", figure_csv(ds))


def write_figure_svg(ds: FigureDataset, outdir: str | Path) -> Path:
    return _write(outdir, f"{ds.figure_id}.svg", svg_scatter(ds))


def write_summary(summary: dict, outdir: str | Path) -> Path:
    return _write(outdir, "summary.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
