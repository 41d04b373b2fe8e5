"""Figure datasets, CSV/SVG emission, and verdict summaries."""

from __future__ import annotations

import math

import pytest

from spamminer.classifier import classify_batch
from spamminer.model import FeatureVector, RuleConfig
from spamminer.report import (
    FIGURE_IDS,
    UnsupportedFigure,
    _fmt,
    figure_csv,
    figure_dataset,
    summarize,
    svg_scatter,
    write_figure_csv,
    write_figure_svg,
)


def fv(user, n=10, atdc=1000.0, pchf=0.0, crr=0.0, vidovp=0.0, crav=0.0):
    return FeatureVector(
        user_id=user, n_comments=n, atdc_s=atdc if n >= 2 else None,
        pchf_pct=pchf, crr=crr, vidovp=vidovp, crav=crav,
    )


class TestFigureDataset:
    def test_gate_applied(self):
        vectors = [fv("keep", n=6), fv("drop", n=5), fv("drop2", n=3)]
        ds = figure_dataset(vectors, "fig2")
        assert len(ds.rows) == 1
        assert ds.columns == ("n_comments", "pchf_pct")

    def test_log10_projection(self):
        ds = figure_dataset([fv("u1", n=8, atdc=1000.0)], "fig5")
        assert ds.rows == ((8, 3.0),)

    def test_rows_sorted_by_user_id(self):
        vectors = [fv("zz", pchf=1.0), fv("aa", pchf=2.0)]
        ds = figure_dataset(vectors, "fig2")
        assert [row[1] for row in ds.rows] == [2.0, 1.0]

    def test_zero_atdc_excluded_from_log_figures(self):
        # six comments in the same second: ATDC is 0, log10 undefined
        vectors = [fv("burst", n=6, atdc=0.0), fv("ok", n=6, atdc=10.0)]
        assert len(figure_dataset(vectors, "fig5").rows) == 1
        assert len(figure_dataset(vectors, "fig6").rows) == 1
        assert len(figure_dataset(vectors, "fig2").rows) == 2

    def test_fig6_three_columns(self):
        ds = figure_dataset([fv("u1", n=7, atdc=100.0, pchf=50.0)], "fig6")
        assert ds.columns == ("log10_atdc", "n_comments", "pchf_pct")
        assert ds.rows == ((math.log10(100.0), 7, 50.0),)

    def test_unknown_figure(self):
        with pytest.raises(UnsupportedFigure):
            figure_dataset([], "fig9")

    def test_custom_gate(self):
        vectors = [fv("u1", n=3)]
        assert len(figure_dataset(vectors, "fig2", RuleConfig(min_comments=2)).rows) == 1


class TestCsv:
    def test_header_and_rows(self):
        vectors = [fv("a", n=8, pchf=12.5), fv("b", n=9, pchf=40.0)]
        text = figure_csv(figure_dataset(vectors, "fig2"))
        assert text == "n_comments,pchf_pct\n8,12.5\n9,40\n"

    def test_six_digit_trim(self):
        vectors = [fv("a", n=8, crr=1 / 3)]
        text = figure_csv(figure_dataset(vectors, "fig3"))
        assert text == "crr,pchf_pct\n0.333333,0\n"

    @pytest.mark.parametrize("value", [-1e-7, -0.0, math.log10(1 - 1 / 900000)])
    def test_value_rounding_to_zero_is_written_without_sign(self, value):
        assert _fmt(value) == "0"

    def test_atdc_just_under_a_second_is_log10_zero(self):
        text = figure_csv(figure_dataset([fv("a", n=8, atdc=1 - 1e-7)], "fig5"))
        assert text == "n_comments,log10_atdc\n8,0\n"

    def test_byte_stable(self):
        vectors = [fv(f"u{i}", n=6 + i, pchf=float(i)) for i in range(20)]
        first = figure_csv(figure_dataset(vectors, "fig2"))
        second = figure_csv(figure_dataset(list(reversed(vectors)), "fig2"))
        assert first == second

    def test_lf_endings(self, tmp_path):
        path = write_figure_csv(figure_dataset([fv("a")], "fig2"), tmp_path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestSvg:
    def test_circle_per_row(self):
        vectors = [fv(f"u{i:03d}", n=6, pchf=float(i % 100)) for i in range(119)]
        svg = svg_scatter(figure_dataset(vectors, "fig2"))
        assert svg.count("<circle") == 119
        assert 'viewBox="0 0 800 600"' in svg
        assert 'r="3"' in svg

    def test_axis_titles_from_columns(self):
        svg = svg_scatter(figure_dataset([fv("a", n=8, vidovp=0.4, crr=0.2)], "fig4"))
        assert ">vidovp</text>" in svg
        assert ">crr</text>" in svg

    def test_empty_dataset_valid(self):
        svg = svg_scatter(figure_dataset([], "fig2"))
        assert svg.count("<circle") == 0
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")

    def test_min_max_labels(self):
        vectors = [fv("a", n=6, pchf=10.0), fv("b", n=20, pchf=90.0)]
        svg = svg_scatter(figure_dataset(vectors, "fig2"))
        assert ">6</text>" in svg
        assert ">20</text>" in svg
        assert ">10</text>" in svg
        assert ">90</text>" in svg

    def test_fig6_unsupported(self):
        with pytest.raises(UnsupportedFigure):
            svg_scatter(figure_dataset([], "fig6"))

    def test_deterministic(self, tmp_path):
        vectors = [fv(f"u{i}", n=6, pchf=float(i % 7)) for i in range(30)]
        ds = figure_dataset(vectors, "fig2")
        first = write_figure_svg(ds, tmp_path / "a").read_bytes()
        second = write_figure_svg(ds, tmp_path / "b").read_bytes()
        assert first == second


class TestSummarize:
    def test_all_legit(self):
        batch = classify_batch([fv(f"u{i}", n=10) for i in range(4)])
        summary = summarize(list(batch.verdicts))
        assert summary["labels"] == {"spammer": 0, "legit": 4, "insufficient": 0}
        assert summary["users"] == 4
        assert summary["comments"] == 40

    def test_empty(self):
        summary = summarize([])
        assert summary["users"] == 0
        assert summary["comments"] == 0
        assert set(summary["triggered"]) == {"PCHF", "ATDC", "COMOVP", "VIDOVP"}

    def test_triggered_counts(self):
        batch = classify_batch([
            fv("a", n=10, pchf=90.0),
            fv("b", n=10, pchf=95.0, atdc=10.0),
            fv("c", n=2),
        ])
        summary = summarize(list(batch.verdicts))
        assert summary["triggered"]["PCHF"] == 2
        assert summary["triggered"]["ATDC"] == 1
        assert summary["labels"]["insufficient"] == 1


def test_every_figure_id_projects():
    vectors = [fv("u1", n=8, atdc=500.0, pchf=10.0, crr=0.3, vidovp=0.5, crav=0.2)]
    for figure_id in FIGURE_IDS:
        ds = figure_dataset(vectors, figure_id)
        assert ds.figure_id == figure_id
        assert len(ds.rows) == 1
        assert all(len(row) == len(ds.columns) for row in ds.rows)
