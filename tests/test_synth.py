"""Corpus generator: determinism, persona indicator guarantees, spec files."""

from __future__ import annotations

import hashlib
import json
import re

import pytest
from hypothesis import given, strategies as st

from spamminer.classifier import classify
from spamminer.features import atdc, crav, crr, feature_vector, pchf, vidovp
from spamminer.ingest import group_by_user
from spamminer.model import Label, RuleConfig, record_to_json
from spamminer.synth import (
    InvalidSpec,
    LabeledCorpus,
    PersonaKind,
    PersonaSpec,
    benchmark_specs,
    generate,
    load_persona_specs,
    persona_spec_from_obj,
    write_corpus,
)

DEFAULTS = RuleConfig()


def corpus_bytes(corpus: LabeledCorpus) -> bytes:
    return "".join(record_to_json(rec) + "\n" for rec in corpus.records).encode()


class TestDeterminism:
    def test_same_seed_same_corpus(self):
        specs = benchmark_specs()
        assert corpus_bytes(generate(specs, 42)) == corpus_bytes(generate(specs, 42))
        assert generate(specs, 42).truth == generate(specs, 42).truth

    def test_different_seed_different_corpus(self):
        specs = benchmark_specs()
        assert corpus_bytes(generate(specs, 1)) != corpus_bytes(generate(specs, 2))


FLAGGED, LEGIT, PROMOTER, REPEATER = (
    PersonaKind.FLAGGED, PersonaKind.LEGIT, PersonaKind.PROMOTER, PersonaKind.REPEATER)
# Every kind at the smallest sizes, where the small-log rules bend; long logs;
# gap_s on every kind (0-90 s gaps reach the bot span cap); both ends of
# video_count; every fraction knob at 0, 0.5 and 1.
PIN_SPECS = [
    *(PersonaSpec(kind, 2, (n, n)) for kind in PersonaKind for n in (1, 2, 3, 4)),
    *(PersonaSpec(kind, 1, (200, 400)) for kind in PersonaKind),
    *(PersonaSpec(kind, 2, gap_s=(0, 90)) for kind in PersonaKind),
    PersonaSpec(PROMOTER, 2, video_count=(1, 3)),
    PersonaSpec(PROMOTER, 2, video_count=(30, 30)),
    *(PersonaSpec(REPEATER, 2, duplicate_fraction=f) for f in (0, 0.5, 1)),
    *(PersonaSpec(kind, 2, hint_fraction=f) for kind in (FLAGGED, LEGIT) for f in (0, 0.5, 1)),
]
PIN_SHA256 = "3e2e1e412a7866fed3319532a962ad11771e71d3f343602359d212af01da7664"


def test_corpus_bytes_pinned():
    """Every record and label that generate draws, for three seeds, is pinned by hash.

    The pinned digest was taken from the five-function emitter that came
    before the single one, so a change to any draw, its order or a record
    field shows here, on every supported Python.
    """
    h = hashlib.sha256()
    for seed in (0, 7, 1234):
        corpus = generate(PIN_SPECS, seed)
        h.update(corpus_bytes(corpus))
        h.update(json.dumps(sorted(corpus.truth.items())).encode() + b"\n")
    assert h.hexdigest() == PIN_SHA256


class TestCounts:
    def test_benchmark_shape(self):
        corpus = generate(benchmark_specs(), 42)
        assert len(corpus.truth) == 200
        spammers = [uid for uid, label in corpus.truth.items() if label == "spammer"]
        assert len(spammers) == 100
        assert all(not uid.startswith("legit-") for uid in spammers)

    def test_user_ids_encode_persona(self):
        corpus = generate([PersonaSpec(PersonaKind.BOT, 3)], 0)
        assert sorted(corpus.truth) == ["bot-0000", "bot-0001", "bot-0002"]

    def test_every_record_user_in_truth(self):
        corpus = generate(benchmark_specs(), 7)
        assert {rec.user_id for rec in corpus.records} == set(corpus.truth)

    def test_zero_count(self):
        corpus = generate([PersonaSpec(PersonaKind.LEGIT, 0)], 0)
        assert corpus.records == ()
        assert corpus.truth == {}


@pytest.mark.parametrize("seed", [0, 42, 1234])
class TestPersonaGuarantees:
    def _logs(self, kind: PersonaKind, seed: int, count=15):
        corpus = generate([PersonaSpec(kind, count)], seed)
        return group_by_user(list(corpus.records))

    def test_bot_atdc_under_threshold(self, seed):
        for log in self._logs(PersonaKind.BOT, seed):
            assert atdc(log) < DEFAULTS.atdc_lt_s

    def test_flagged_pchf_over_threshold(self, seed):
        for log in self._logs(PersonaKind.FLAGGED, seed):
            assert pchf(log) > DEFAULTS.pchf_gt

    def test_repeater_crr_over_threshold(self, seed):
        for log in self._logs(PersonaKind.REPEATER, seed):
            assert crr(log) > DEFAULTS.comovp_gt

    def test_promoter_crav_over_060(self, seed):
        for log in self._logs(PersonaKind.PROMOTER, seed):
            assert crav(log) > 0.60
            assert crr(log) > 0.60
            assert vidovp(log) > 0.60

    def test_legit_fires_nothing(self, seed):
        for log in self._logs(PersonaKind.LEGIT, seed, count=40):
            verdict = classify(feature_vector(log), DEFAULTS)
            assert verdict.label is Label.LEGIT
            assert verdict.triggered == frozenset()


class TestSmallLogGuarantees:
    # tight comment ranges stress the threshold margins
    @pytest.mark.parametrize("n", range(2, 9))
    def test_repeater_any_size(self, n):
        corpus = generate(
            [PersonaSpec(PersonaKind.REPEATER, 5, comments_per_user=(n, n))], 3
        )
        for log in group_by_user(list(corpus.records)):
            assert crr(log) > 0.60

    @pytest.mark.parametrize("n", range(2, 9))
    def test_promoter_any_size(self, n):
        corpus = generate(
            [PersonaSpec(PersonaKind.PROMOTER, 5, comments_per_user=(n, n))], 3
        )
        for log in group_by_user(list(corpus.records)):
            assert crav(log) > 0.60

    @pytest.mark.parametrize("n", range(1, 9))
    def test_legit_any_size_never_fires(self, n):
        corpus = generate(
            [PersonaSpec(PersonaKind.LEGIT, 5, comments_per_user=(n, n))], 3
        )
        gate_zero = RuleConfig(min_comments=1)
        for log in group_by_user(list(corpus.records)):
            fv = feature_vector(log)
            if fv.n_comments <= 1:
                continue
            verdict = classify(fv, gate_zero)
            assert verdict.triggered == frozenset(), fv


class TestSpecValidation:
    def test_negative_count(self):
        with pytest.raises(InvalidSpec, match="count"):
            PersonaSpec(PersonaKind.BOT, -1)

    def test_empty_comment_range(self):
        with pytest.raises(InvalidSpec, match="comments_per_user"):
            PersonaSpec(PersonaKind.BOT, 1, comments_per_user=(9, 3))

    def test_fraction_out_of_range(self):
        with pytest.raises(InvalidSpec, match="hint_fraction"):
            PersonaSpec(PersonaKind.FLAGGED, 1, hint_fraction=1.5)

    @pytest.mark.parametrize("kwargs, message", [
        ({"comments_per_user": (0, 3)}, "comments_per_user must be >= 1: (0, 3)"),
        ({"gap_s": (-1, 5)}, "gap_s must be >= 0: (-1, 5)"),
    ], ids=["comments_per_user", "gap_s"])
    def test_range_below_its_minimum(self, kwargs, message):
        with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
            PersonaSpec(PersonaKind.BOT, 1, **kwargs)

    def test_from_obj_not_an_object(self):
        with pytest.raises(InvalidSpec, match="^persona spec must be a JSON object$"):
            persona_spec_from_obj(["bot", 1])

    def test_knob_applicability(self):
        with pytest.raises(InvalidSpec, match="video_count"):
            PersonaSpec(PersonaKind.LEGIT, 1, video_count=(2, 3))
        with pytest.raises(InvalidSpec, match="duplicate_fraction"):
            PersonaSpec(PersonaKind.BOT, 1, duplicate_fraction=0.9)

    def test_from_obj_unknown_key(self):
        with pytest.raises(InvalidSpec, match="gaps"):
            persona_spec_from_obj({"kind": "bot", "count": 1, "gaps": [1, 2]})

    def test_from_obj_unknown_kind(self):
        with pytest.raises(InvalidSpec, match="lurker"):
            persona_spec_from_obj({"kind": "lurker", "count": 1})


class TestSpecFieldTypes:
    @pytest.mark.parametrize("kwargs, field", [
        ({"kind": PersonaKind.BOT, "count": "3"}, "count"),
        ({"kind": "bot", "count": 1}, "kind"),
        ({"kind": PersonaKind.BOT, "count": True}, "count"),
        ({"kind": PersonaKind.BOT, "count": 1, "comments_per_user": (1.5, 3)},
         "comments_per_user"),
        ({"kind": PersonaKind.BOT, "count": 1, "gap_s": [1, 5]}, "gap_s"),
        ({"kind": PersonaKind.FLAGGED, "count": 1, "hint_fraction": "0.5"}, "hint_fraction"),
        ({"kind": PersonaKind.REPEATER, "count": 1, "duplicate_fraction": True},
         "duplicate_fraction"),
    ], ids=["count-str", "kind-str", "count-bool", "range-float", "range-list",
            "fraction-str", "fraction-bool"])
    def test_wrong_type_names_field(self, kwargs, field):
        with pytest.raises(InvalidSpec, match=f"^{field} must be "):
            PersonaSpec(**kwargs)

    def test_bool_range_bound_in_file(self, tmp_path):
        spec_path = tmp_path / "personas.json"
        spec_path.write_text('[{"kind": "bot", "count": 1, "gap_s": [true, 5]}]',
                             encoding="utf-8")
        with pytest.raises(InvalidSpec, match="^gap_s must be a two-integer range$"):
            load_persona_specs(str(spec_path))

    def test_missing_count_in_file(self):
        with pytest.raises(InvalidSpec, match="^count must be an integer$"):
            persona_spec_from_obj({"kind": "bot"})


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=5,
)
_RANGE_VALUES = st.lists(st.integers(-1, 9) | st.booleans(), min_size=2, max_size=2)
_FRACTION_VALUES = st.floats(-0.5, 1.5) | st.integers(-1, 2) | st.booleans() | st.text(max_size=2)
_KNOB_VALUES = {
    "comments_per_user": _RANGE_VALUES,
    "gap_s": _RANGE_VALUES,
    "video_count": _RANGE_VALUES,
    "duplicate_fraction": _FRACTION_VALUES,
    "hint_fraction": _FRACTION_VALUES,
}
# Near-valid objects, whose knobs may be absent, out of range or mistyped; and
# objects with any of the seven keys, each holding any JSON value.
_SPEC_OBJECTS = st.fixed_dictionaries(
    {"kind": st.sampled_from([kind.value for kind in PersonaKind]), "count": st.integers(-1, 3)},
    optional=_KNOB_VALUES,
) | st.dictionaries(st.sampled_from(["kind", "count", *_KNOB_VALUES]), _JSON_VALUES)


@given(_SPEC_OBJECTS)
def test_from_obj_returns_checked_spec_or_invalid_spec(obj):
    """Any JSON object over the seven keys loads to a well-typed spec, or is InvalidSpec."""
    try:
        spec = persona_spec_from_obj(obj)
    except InvalidSpec:
        return
    assert isinstance(spec.kind, PersonaKind)
    assert type(spec.count) is int
    for pair in (spec.comments_per_user, spec.gap_s, spec.video_count):
        assert pair is None or (type(pair) is tuple and all(type(v) is int for v in pair))


class TestFiles:
    def test_write_corpus_and_truth(self, tmp_path):
        corpus = generate([PersonaSpec(PersonaKind.BOT, 2)], 9)
        out, truth_path = write_corpus(corpus, tmp_path / "corpus.jsonl")
        assert out.name == "corpus.jsonl"
        assert truth_path.name == "corpus.truth.json"
        truth = json.loads(truth_path.read_text(encoding="utf-8"))
        assert truth == {"bot-0000": "spammer", "bot-0001": "spammer"}
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(corpus.records)

    def test_load_persona_specs(self, tmp_path):
        spec_path = tmp_path / "personas.json"
        spec_path.write_text(json.dumps([
            {"kind": "legit", "count": 4, "comments_per_user": [6, 10]},
            {"kind": "repeater", "count": 2, "duplicate_fraction": 0.9},
        ]), encoding="utf-8")
        specs = load_persona_specs(str(spec_path))
        assert specs[0] == PersonaSpec(PersonaKind.LEGIT, 4, comments_per_user=(6, 10))
        assert specs[1].duplicate_fraction == 0.9

    def test_load_rejects_non_array(self, tmp_path):
        spec_path = tmp_path / "personas.json"
        spec_path.write_text('{"kind": "bot"}', encoding="utf-8")
        with pytest.raises(InvalidSpec):
            load_persona_specs(str(spec_path))
