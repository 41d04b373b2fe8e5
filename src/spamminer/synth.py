"""Deterministic synthetic comment corpora with ground-truth labels.

Real spam crawls are hard to come by and impossible to redistribute, so
evaluation runs on generated corpora instead. Each persona is built to make
exactly one behavior unmistakable, with parameter defaults chosen so the
target indicator clears (spam kinds) or stays clear of (legit) the default
rule thresholds by construction:

  bot       posts its whole session inside a 149-second window, so the
            all-pairs mean time difference is under the 150s threshold.
            Consecutive short gaps alone would NOT guarantee that: twenty
            comments 30s apart span 570s and the all-pairs mean blows past
            150. The span cap is what makes the guarantee hold.
  promoter  pastes one promotional template across >= 8 distinct videos:
            every pair matches in text, and round-robin video assignment
            keeps the same-video pair fraction at or below 1/8, so the
            cross-video repeat rate is at least 7/8.
  repeater  posts one template for >= 80% of its comments on at most two
            videos; the duplicate count is bumped until the matching-pair
            fraction strictly exceeds 0.60 even for tiny logs.
  flagged   has >= 80% of its comments carrying the spam-hint tag.
  legit     unique texts, hour-to-days gaps, at most two videos with a 2:1
            skew (single video below 4 comments, where any 2-video split
            would push the different-video pair rate over 0.60).

Generation is a single seeded stream: the same (specs, seed) pair yields a
byte-identical corpus, with no dependence on wall clock or hash order.
User ids encode the persona (bot-0007) for auditability.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

from .model import CommentRecord, ConfigError, _check_number, load_json_file, record_to_json


class InvalidSpec(ConfigError):
    """A persona spec field is out of range or does not apply to the kind."""


class PersonaKind(str, Enum):
    BOT = "bot"
    PROMOTER = "promoter"
    REPEATER = "repeater"
    FLAGGED = "flagged"
    LEGIT = "legit"


# Promotional fixture strings used as spam templates.
SPAM_TEMPLATES = (
    "Check out my channel",
    "CHECK OUT MY VIDS AND COMMENT",
    "PLZ SUBSCRIBE AND COMMENT TO MY CHANNEL",
    "watch my vids and subscribe!!!",
    "FreeMovieChannels.example.com",
    "view the exclusive battle of the week on my page",
)

BOT_GAP_S = (1, 30)
BOT_SPAN_CAP_S = 149  # keeps every pairwise diff under the 150s rule default
SLOW_GAP_S = (3600, 86400)  # non-bot spam personas post at a human-ish pace
LEGIT_GAP_S = (3600, 3 * 86400)
PROMOTER_VIDEOS = (8, 20)
REPEATER_DUP_FRACTION = 0.85
FLAGGED_HINT_FRACTION = 0.85
LEGIT_HINT_FRACTION = 0.02
DEFAULT_COMMENTS_PER_USER = (8, 20)

_EPOCH_BASE_S = 1609459200  # 2021-01-01T00:00:00Z
_START_SPREAD_S = 365 * 86400


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Each knob field: the smallest bound of its range (None for a fraction in
# [0, 1]) and the kinds it applies to. Only comments_per_user is required.
_KNOBS = {
    "comments_per_user": (1, tuple(PersonaKind)),
    "gap_s": (0, tuple(PersonaKind)),
    "video_count": (1, (PersonaKind.PROMOTER,)),
    "duplicate_fraction": (None, (PersonaKind.REPEATER,)),
    "hint_fraction": (None, (PersonaKind.FLAGGED, PersonaKind.LEGIT)),
}


@dataclass(frozen=True)
class PersonaSpec:
    """How many users of one persona to generate, and their knobs.

    Knobs not applying to the kind must stay None: gap_s tunes comment
    spacing for any kind, video_count applies to promoter, duplicate_fraction
    to repeater, hint_fraction to flagged and legit. count and every range
    bound are ints (a bool is not one), a range is a tuple of two, and a
    fraction is a number; every type is checked first, then the ranges.
    """

    kind: PersonaKind
    count: int
    comments_per_user: tuple[int, int] = DEFAULT_COMMENTS_PER_USER
    gap_s: tuple[int, int] | None = None
    video_count: tuple[int, int] | None = None
    duplicate_fraction: float | None = None
    hint_fraction: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, PersonaKind):
            raise InvalidSpec(f"kind must be a PersonaKind: {self.kind!r}")
        if not _is_int(self.count):
            raise InvalidSpec("count must be an integer")
        knobs = [(name, getattr(self, name), minimum, kinds)
                 for name, (minimum, kinds) in _KNOBS.items()
                 if getattr(self, name) is not None or name == "comments_per_user"]
        for name, value, minimum, _ in knobs:
            if minimum is None:
                _check_number(name, value, InvalidSpec)
            elif not (isinstance(value, tuple) and len(value) == 2 and all(map(_is_int, value))):
                raise InvalidSpec(f"{name} must be a two-integer range")
        if self.count < 0:
            raise InvalidSpec(f"count must be >= 0: {self.count}")
        for name, value, minimum, kinds in knobs:
            if self.kind not in kinds:
                raise InvalidSpec(f"{name} does not apply to kind {self.kind.value}")
            if minimum is None:
                if not 0.0 <= value <= 1.0:  # no float(): an int too large for one overflows
                    raise InvalidSpec(f"{name} must be in [0, 1]: {value}")
            elif value[0] > value[1]:
                raise InvalidSpec(f"{name} range is empty: {value}")
            elif value[0] < minimum:
                raise InvalidSpec(f"{name} must be >= {minimum}: {value}")


@dataclass(frozen=True)
class LabeledCorpus:
    """Generated records plus the ground-truth label for every user."""

    records: tuple[CommentRecord, ...]
    truth: dict[str, str]  # user_id -> "spammer" | "legit"


def benchmark_specs() -> list[PersonaSpec]:
    """The standard 200-user evaluation mix: 100 legit, 25 of each spam kind."""
    return [
        PersonaSpec(PersonaKind.LEGIT, 100),
        PersonaSpec(PersonaKind.BOT, 25),
        PersonaSpec(PersonaKind.PROMOTER, 25),
        PersonaSpec(PersonaKind.REPEATER, 25),
        PersonaSpec(PersonaKind.FLAGGED, 25),
    ]


def generate(specs: list[PersonaSpec], seed: int) -> LabeledCorpus:
    """Generate a corpus from persona specs, deterministically for (specs, seed)."""
    rng = random.Random(seed)
    records: list[CommentRecord] = []
    truth: dict[str, str] = {}
    counters = {kind: 0 for kind in PersonaKind}
    for spec in specs:
        for _ in range(spec.count):
            uid = f"{spec.kind.value}-{counters[spec.kind]:04d}"
            counters[spec.kind] += 1
            records.extend(_emit_user(rng, spec, uid))
            truth[uid] = "legit" if spec.kind is PersonaKind.LEGIT else "spammer"
    return LabeledCorpus(records=tuple(records), truth=truth)


# Each kind's default gap range between comments, the prefix of its numbered
# texts (a promoter posts its template every time), and the default share of
# its comments that carry the spam-hint tag (None: no comment does).
_KIND_DEFAULTS = {
    PersonaKind.BOT: (BOT_GAP_S, "scripted burst", None),
    PersonaKind.PROMOTER: (SLOW_GAP_S, None, None),
    PersonaKind.REPEATER: (SLOW_GAP_S, "filler", None),
    PersonaKind.FLAGGED: (SLOW_GAP_S, "flagged note", FLAGGED_HINT_FRACTION),
    PersonaKind.LEGIT: (LEGIT_GAP_S, "thoughts", LEGIT_HINT_FRACTION),
}


def _emit_user(rng: random.Random, spec: PersonaSpec, uid: str) -> list[CommentRecord]:
    """One user's records.

    Every kind draws n, then the start, then its own draws, then the gaps;
    every corpus depends on that order.
    """
    kind = spec.kind
    gap_s, prefix, hint_fraction = _KIND_DEFAULTS[kind]
    lo, hi = spec.comments_per_user
    n = rng.randint(lo, hi)
    start = _EPOCH_BASE_S + rng.randrange(_START_SPREAD_S)
    if kind is PersonaKind.PROMOTER:
        texts = [rng.choice(SPAM_TEMPLATES)] * n
        k_lo, k_hi = spec.video_count or PROMOTER_VIDEOS
        k = rng.randint(k_lo, k_hi)
        names = [f"{uid}-v{j:02d}" for j in range(k)]  # one string per video, as a parse shares
        videos = [names[i % k] for i in range(n)]
    else:
        texts = [f"{prefix} {i:03d} from {uid}" for i in range(n)]
        # A bot posts on one video. The others use at most two: one below 4
        # comments, then a 2:1 skew. Any two-way split of 3 comments puts 2/3
        # of the pairs across videos, over the 0.60 threshold; from 4 comments
        # up the ceil(2n/3) skew keeps the cross-video pair fraction at 8/15 or
        # below.
        first = n if n < 4 or kind is PersonaKind.BOT else (2 * n + 2) // 3
        videos = [f"{uid}-v00"] * first + [f"{uid}-v01"] * (n - first)
    hinted: set[int] = set()
    if kind is PersonaKind.REPEATER:
        template = rng.choice(SPAM_TEMPLATES)
        fraction = spec.duplicate_fraction
        dup_count = math.ceil((REPEATER_DUP_FRACTION if fraction is None else fraction) * n)
        # Bump until matching pairs strictly clear 0.60 of all pairs; tiny logs
        # would otherwise land exactly on the threshold, which never fires.
        while dup_count < n and 10 * dup_count * (dup_count - 1) <= 6 * n * (n - 1):
            dup_count += 1
        for i in rng.sample(range(n), dup_count):
            texts[i] = template
    elif hint_fraction is not None:
        fraction = hint_fraction if spec.hint_fraction is None else spec.hint_fraction
        # flagged rounds up, to clear the hint threshold; legit down, to stay clear of it
        rounding = math.ceil if kind is PersonaKind.FLAGGED else math.floor
        hinted = set(rng.sample(range(n), rounding(fraction * n)))
    gap_lo, gap_hi = spec.gap_s or gap_s
    offsets = [0]
    for _ in range(n - 1):
        offsets.append(offsets[-1] + rng.randint(gap_lo, gap_hi))
    span = offsets[-1]
    if kind is PersonaKind.BOT and span > BOT_SPAN_CAP_S:
        offsets = [off * BOT_SPAN_CAP_S // span for off in offsets]
    return [
        CommentRecord(user_id=uid, video_id=videos[i], timestamp_s=start + off, text=texts[i],
                      has_spam_hint=i in hinted, comment_id=f"{uid}-c{i:03d}")
        for i, off in enumerate(offsets)
    ]


# --- persona spec files and corpus output ----------------------------------

_SPEC_KEYS = frozenset(field.name for field in fields(PersonaSpec))


def persona_spec_from_obj(obj: dict) -> PersonaSpec:
    """Decode one spec object; PersonaSpec checks every field.

    Unknown keys are rejected, kind is mapped to a PersonaKind, and each JSON
    array becomes a tuple.
    """
    if not isinstance(obj, dict):
        raise InvalidSpec("persona spec must be a JSON object")
    unknown = sorted(set(obj) - _SPEC_KEYS)
    if unknown:
        raise InvalidSpec(f"unknown spec key: {unknown[0]!r}")
    try:
        kind = PersonaKind(obj.get("kind"))
    except ValueError:
        raise InvalidSpec(f"unknown persona kind: {obj.get('kind')!r}") from None
    values = {name: tuple(value) if isinstance(value, list) else value
              for name, value in obj.items()}
    return PersonaSpec(**{**values, "kind": kind, "count": obj.get("count")})


def load_persona_specs(path: str) -> list[PersonaSpec]:
    """Load a JSON array of persona specs from a UTF-8 file; a key given twice is InvalidSpec."""
    data = load_json_file(path, InvalidSpec)
    if not isinstance(data, list):
        raise InvalidSpec("persona spec file must be a JSON array")
    return [persona_spec_from_obj(item) for item in data]


def write_corpus(corpus: LabeledCorpus, out_path: str | Path) -> tuple[Path, Path]:
    """Write the corpus as canonical JSONL plus a {stem}.truth.json label map."""
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in corpus.records:
            fh.write(record_to_json(rec) + "\n")
    truth_path = out_path.with_suffix(".truth.json")
    with open(truth_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(corpus.truth, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_path, truth_path
