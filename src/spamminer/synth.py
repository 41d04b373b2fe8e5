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
from dataclasses import dataclass
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


def _check_range(name: str, rng_pair, minimum: int) -> tuple[int, int]:
    lo, hi = rng_pair
    if lo > hi:
        raise InvalidSpec(f"{name} range is empty: ({lo}, {hi})")
    if lo < minimum:
        raise InvalidSpec(f"{name} must be >= {minimum}: ({lo}, {hi})")
    return int(lo), int(hi)


def _check_fraction(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise InvalidSpec(f"{name} must be in [0, 1]: {value}")
    return float(value)


@dataclass(frozen=True)
class PersonaSpec:
    """How many users of one persona to generate, and their knobs.

    Knobs not applying to the kind must stay None: gap_s tunes comment
    spacing for any kind, video_count applies to promoter, duplicate_fraction
    to repeater, hint_fraction to flagged and legit.
    """

    kind: PersonaKind
    count: int
    comments_per_user: tuple[int, int] = DEFAULT_COMMENTS_PER_USER
    gap_s: tuple[int, int] | None = None
    video_count: tuple[int, int] | None = None
    duplicate_fraction: float | None = None
    hint_fraction: float | None = None

    def __post_init__(self) -> None:
        if self.count < 0:
            raise InvalidSpec(f"count must be >= 0: {self.count}")
        _check_range("comments_per_user", self.comments_per_user, 1)
        if self.gap_s is not None:
            _check_range("gap_s", self.gap_s, 0)
        if self.video_count is not None:
            if self.kind is not PersonaKind.PROMOTER:
                raise InvalidSpec(f"video_count does not apply to kind {self.kind.value}")
            _check_range("video_count", self.video_count, 1)
        if self.duplicate_fraction is not None:
            if self.kind is not PersonaKind.REPEATER:
                raise InvalidSpec(
                    f"duplicate_fraction does not apply to kind {self.kind.value}"
                )
            _check_fraction("duplicate_fraction", self.duplicate_fraction)
        if self.hint_fraction is not None:
            if self.kind not in (PersonaKind.FLAGGED, PersonaKind.LEGIT):
                raise InvalidSpec(f"hint_fraction does not apply to kind {self.kind.value}")
            _check_fraction("hint_fraction", self.hint_fraction)


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


def _emit_user(rng: random.Random, spec: PersonaSpec, uid: str) -> list[CommentRecord]:
    lo, hi = spec.comments_per_user
    n = rng.randint(lo, hi)
    start = _EPOCH_BASE_S + rng.randrange(_START_SPREAD_S)
    emit = {
        PersonaKind.BOT: _emit_bot,
        PersonaKind.PROMOTER: _emit_promoter,
        PersonaKind.REPEATER: _emit_repeater,
        PersonaKind.FLAGGED: _emit_flagged,
        PersonaKind.LEGIT: _emit_legit,
    }[spec.kind]
    return emit(rng, spec, uid, n, start)


def _offsets(rng: random.Random, n: int, gap_range: tuple[int, int]) -> list[int]:
    offsets = [0]
    for _ in range(n - 1):
        offsets.append(offsets[-1] + rng.randint(*gap_range))
    return offsets


def _record(uid: str, idx: int, video: str, ts: int, text: str, hint: bool) -> CommentRecord:
    return CommentRecord(
        user_id=uid,
        video_id=video,
        timestamp_s=ts,
        text=text,
        has_spam_hint=hint,
        comment_id=f"{uid}-c{idx:03d}",
    )


def _skewed_videos(uid: str, n: int) -> list[str]:
    """At most two videos: one video below 4 comments, then a 2:1 skew.

    Any two-way split of 3 comments puts 2/3 of the pairs across videos,
    over the 0.60 threshold; from 4 comments up the ceil(2n/3) skew keeps
    the cross-video pair fraction at 8/15 or below.
    """
    if n < 4:
        return [f"{uid}-v00"] * n
    first = (2 * n + 2) // 3
    return [f"{uid}-v00"] * first + [f"{uid}-v01"] * (n - first)


def _emit_bot(rng, spec, uid, n, start):
    gap_range = spec.gap_s or BOT_GAP_S
    offsets = _offsets(rng, n, gap_range)
    span = offsets[-1]
    if span > BOT_SPAN_CAP_S:
        offsets = [off * BOT_SPAN_CAP_S // span for off in offsets]
    video = f"{uid}-v00"
    return [
        _record(uid, i, video, start + off, f"scripted burst {i:03d} from {uid}", False)
        for i, off in enumerate(offsets)
    ]


def _emit_promoter(rng, spec, uid, n, start):
    template = rng.choice(SPAM_TEMPLATES)
    k_lo, k_hi = spec.video_count or PROMOTER_VIDEOS
    k = rng.randint(k_lo, k_hi)
    videos = [f"{uid}-v{j:02d}" for j in range(k)]  # one string per video, as a parse shares
    offsets = _offsets(rng, n, spec.gap_s or SLOW_GAP_S)
    return [
        _record(uid, i, videos[i % k], start + off, template, False)
        for i, off in enumerate(offsets)
    ]


def _emit_repeater(rng, spec, uid, n, start):
    template = rng.choice(SPAM_TEMPLATES)
    fraction = spec.duplicate_fraction if spec.duplicate_fraction is not None else REPEATER_DUP_FRACTION
    dup_count = min(n, math.ceil(fraction * n))
    # Bump until matching pairs strictly clear 0.60 of all pairs; tiny logs
    # would otherwise land exactly on the threshold, which never fires.
    while dup_count < n and 10 * dup_count * (dup_count - 1) <= 6 * n * (n - 1):
        dup_count += 1
    dup_positions = set(rng.sample(range(n), dup_count)) if n else set()
    videos = _skewed_videos(uid, n)
    offsets = _offsets(rng, n, spec.gap_s or SLOW_GAP_S)
    return [
        _record(
            uid, i, videos[i], start + off,
            template if i in dup_positions else f"filler {i:03d} from {uid}",
            False,
        )
        for i, off in enumerate(offsets)
    ]


def _emit_flagged(rng, spec, uid, n, start):
    fraction = spec.hint_fraction if spec.hint_fraction is not None else FLAGGED_HINT_FRACTION
    hint_count = min(n, math.ceil(fraction * n))
    hint_positions = set(rng.sample(range(n), hint_count)) if n else set()
    videos = _skewed_videos(uid, n)
    offsets = _offsets(rng, n, spec.gap_s or SLOW_GAP_S)
    return [
        _record(
            uid, i, videos[i], start + off,
            f"flagged note {i:03d} from {uid}", i in hint_positions,
        )
        for i, off in enumerate(offsets)
    ]


def _emit_legit(rng, spec, uid, n, start):
    fraction = spec.hint_fraction if spec.hint_fraction is not None else LEGIT_HINT_FRACTION
    hint_count = int(fraction * n)
    hint_positions = set(rng.sample(range(n), hint_count)) if hint_count else set()
    videos = _skewed_videos(uid, n)
    offsets = _offsets(rng, n, spec.gap_s or LEGIT_GAP_S)
    return [
        _record(
            uid, i, videos[i], start + off,
            f"thoughts {i:03d} from {uid}", i in hint_positions,
        )
        for i, off in enumerate(offsets)
    ]


# --- persona spec files and corpus output ----------------------------------

_SPEC_KEYS = frozenset(
    ("kind", "count", "comments_per_user", "gap_s", "video_count",
     "duplicate_fraction", "hint_fraction")
)


def persona_spec_from_obj(obj: dict) -> PersonaSpec:
    if not isinstance(obj, dict):
        raise InvalidSpec("persona spec must be a JSON object")
    unknown = sorted(set(obj) - _SPEC_KEYS)
    if unknown:
        raise InvalidSpec(f"unknown spec key: {unknown[0]!r}")
    try:
        kind = PersonaKind(obj.get("kind"))
    except ValueError:
        raise InvalidSpec(f"unknown persona kind: {obj.get('kind')!r}") from None
    if "count" not in obj or not isinstance(obj["count"], int) or isinstance(obj["count"], bool):
        raise InvalidSpec("count must be an integer")
    kwargs: dict = {"kind": kind, "count": obj["count"]}
    for name in ("comments_per_user", "gap_s", "video_count"):
        if name in obj:
            pair = obj[name]
            if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                    or not all(isinstance(v, int) for v in pair)):
                raise InvalidSpec(f"{name} must be a two-integer range")
            kwargs[name] = (pair[0], pair[1])
    for name in ("duplicate_fraction", "hint_fraction"):
        if name in obj:  # the range first: float() of an int too large for one overflows
            kwargs[name] = _check_fraction(name, _check_number(name, obj[name], InvalidSpec))
    return PersonaSpec(**kwargs)


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
