"""Deterministic episode generation.

Every episode is a pure function of (config, task family, seed). A per-class
planner scripts the referent objects frame by frame (flipping balance coins
for the intended answers) while the driver fills in distractors that never
match any referent descriptor of the question. Answers always come from the
oracle afterwards, never from the planner's intent, and the driver verifies
that widening the look-back window to the whole episode would not change
them; construction is retried a bounded number of times when a constraint
cannot be met, then reported as a generation error.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .oracle import _frame_answer, _relation_holds, oracle_answer
from .programs import (
    ANSWER_INDEX,
    ANSWERS,
    EXIST_OF_SCOPE,
    QuestionProgram,
    RELATIONS,
    TAGS,
    TASK_CLASSES,
    VOCABULARY,
    _SIGNATURES,
    encode_tokens,
    matches,
)
from .scenes import (
    COLOR_INDEX,
    COLORS,
    FAMILIES,
    FeatureFamily,
    SHAPE_INDEX,
    SHAPES,
    SceneGraph,
    SceneObject,
    render_symbolic,
)

GENERATOR_VERSION = "minicog-1"

_MAX_ATTEMPTS = 64

# balance/ presence coins shared by the planners
_P_EXIST = 0.5
_P_REF = 0.85
_P_PAST = 0.7


class GenerationError(RuntimeError):
    pass


class EpisodeConfigError(ValueError):
    """A setting no episode can have; `name` is its `EpisodeConfig` field."""

    def __init__(self, name: str, problem: str):
        super().__init__(f"{name} {problem}")
        self.name, self.problem = name, problem


class CorpusError(ValueError):
    """A corpus file that is malformed, truncated or built on other tables."""


class _PlanFailure(Exception):
    pass


@dataclass(frozen=True)
class EpisodeConfig:
    height: int = 5
    width: int = 5
    frames: int = 4
    history: int = 3
    distractors: int = 1
    max_objects: int = 6
    family_name: str = "any"

    def __post_init__(self):
        for name, low in (("height", 1), ("width", 1), ("frames", 1),
                          ("history", 0), ("distractors", 0), ("max_objects", 1)):
            value = getattr(self, name)
            if type(value) is not int:  # bool is an int subclass; refuse it too
                raise EpisodeConfigError(name, f"must be an int, got {value!r}")
            if value < low:
                raise EpisodeConfigError(name, f"must be >= {low}, got {value}")
        if self.history > self.frames - 1:
            raise EpisodeConfigError(
                "history", f"{self.history} outside [0, frames-1={self.frames - 1}]")
        if self.family_name not in FAMILIES:
            raise EpisodeConfigError(
                "family_name", f"must be one of {sorted(FAMILIES)}, "
                f"got {self.family_name!r}")

    @property
    def family(self) -> FeatureFamily:
        return FeatureFamily.by_name(self.family_name)

    def to_dict(self) -> dict:
        return {
            "height": self.height, "width": self.width, "frames": self.frames,
            "history": self.history, "distractors": self.distractors,
            "max_objects": self.max_objects, "family_name": self.family_name,
        }

    @staticmethod
    def from_dict(d: dict) -> "EpisodeConfig":
        return EpisodeConfig(**d)


@dataclass(frozen=True)
class Episode:
    config: EpisodeConfig
    seed: int
    program: QuestionProgram
    scenes: tuple[SceneGraph, ...]
    answers: tuple[str, ...]
    tokens: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        if len(self.answers) != len(self.scenes):
            raise ValueError("one answer per frame required")
        object.__setattr__(self, "tokens", tuple(self.program.tokens()))

    @property
    def token_ids(self) -> list[int]:
        return encode_tokens(self.tokens)

    @property
    def answer_ids(self) -> list[int]:
        return [ANSWER_INDEX[a] for a in self.answers]

    def frames_symbolic(self) -> np.ndarray:
        return np.stack([render_symbolic(s) for s in self.scenes])


class _PairTable:
    """A family's legal (color, shape) pairs in `pairs()` order and, for each
    descriptor (color|None, shape|None), the bitmask of the pairs it
    matches: bit i is set when `matches(*pairs[i], desc)`."""

    def __init__(self, family: FeatureFamily):
        self.pairs = tuple(family.pairs())
        self.masks = {
            desc: sum(1 << i for i, pair in enumerate(self.pairs)
                      if matches(*pair, desc))
            for desc in itertools.product((None,) + COLORS, (None,) + SHAPES)
        }

    def mask_of(self, descs) -> int:
        """The pairs matching any of `descs`."""
        mask = 0
        for desc in descs:
            mask |= self.masks[desc]
        return mask

    def pick(self, rng, mask: int) -> tuple[str, str]:
        """The pair `_pick` draws from the pairs `mask` selects, listed in
        `pairs()` order, found without listing them."""
        if not mask:
            raise _PlanFailure("empty choice pool")
        for _ in range(int(rng.integers(mask.bit_count()))):
            mask &= mask - 1  # drop the lowest selected pair
        return self.pairs[(mask & -mask).bit_length() - 1]


# fixed size: one table per family, one mask per descriptor
_PAIR_TABLES = {name: _PairTable(family) for name, family in FAMILIES.items()}


class _Cell(NamedTuple):
    """A grid cell; it equals, and hashes as, its (row, col) tuple."""

    row: int
    col: int


@functools.lru_cache(maxsize=16)
def _grid(height: int, width: int) -> tuple[_Cell, ...]:
    """A grid's cells in row-major order, listed once per grid shape."""
    return tuple(_Cell(r, c) for r in range(height) for c in range(width))


def _pick(rng, items):
    if not items:
        raise _PlanFailure("empty choice pool")
    return items[int(rng.integers(len(items)))]


def _coin(rng, p) -> bool:
    return rng.random() < p


@dataclass
class _FramePlan:
    planned: list  # SceneObject
    forbidden: list  # descriptors (color|None, shape|None); None,None matches all
    # (reference object, relation, descriptor): no distractor that stands in
    # the relation to the reference may match the descriptor
    region_rules: list = field(default_factory=list)


class _Planner:
    """Base class: script referents per frame, observe the completed scene."""

    def __init__(self, rng, cfg: EpisodeConfig, program: QuestionProgram):
        self.rng = rng
        self.cfg = cfg
        self.family = cfg.family
        self.table = _PAIR_TABLES[cfg.family_name]
        self.program = program

    def plan(self, k: int) -> _FramePlan:
        raise NotImplementedError

    def observe(self, k: int, scene: SceneGraph) -> None:
        pass

    # -- shared helpers -------------------------------------------------
    def free_cell(self, taken, region=None):
        """A cell drawn from the free ones in row-major order; with `region`
        = (reference object, relation), from those in that relation to it."""
        pool = [cell for cell in _grid(self.cfg.height, self.cfg.width)
                if cell not in taken]
        if region is not None:
            pool = [cell for cell in pool if _relation_holds(cell, *region)]
        return _pick(self.rng, pool)

    def legal_pair(self, desc=(None, None), exclude=()):
        """A legal (color, shape) fitting `desc`, not in `exclude`."""
        table = self.table
        return table.pick(self.rng,
                          table.masks[desc] & ~table.mask_of(exclude))

    def place(self, objs, taken, color, shape, region=None):
        row, col = self.free_cell(taken, region=region)
        obj = SceneObject(row, col, color, shape)
        objs.append(obj)
        taken.add((row, col))
        return obj

    # -- attribute classes: referents keyed by one attribute, read the other
    def values_for(self, key):
        """Values of the read attribute a legal object keyed `key` carries."""
        if self.program.attribute == "color":
            return list(self.family.colors_for(key))
        return list(self.family.shapes_for(key))

    def keys_for(self, value):
        """Referent keys a legal object carrying `value` can have."""
        if self.program.attribute == "color":
            return list(self.family.shapes_for(value))
        return list(self.family.colors_for(value))


class _ExistPlanner(_Planner):
    """Exist / ExistColor / ExistShape with a temporal tag.

    Window scopes say "true" as soon as any scoped frame matches, which
    inflates the true rate; an episode-level empty variant (no matching
    object in any frame) rebalances last/latest questions toward 50/50.
    """

    def __init__(self, rng, cfg, program):
        super().__init__(rng, cfg, program)
        empty_prob = {"now": 0.0, "latest": 0.4, "last": 0.3}[program.tag]
        self.empty_episode = _coin(rng, empty_prob)

    def plan(self, k):
        query = self.program.query
        objs, taken = [], set()
        if not self.empty_episode and _coin(self.rng, _P_EXIST):
            self.place(objs, taken, *self.legal_pair(query))
        # no distractor may satisfy the question
        return _FramePlan(objs, [query])


class _GetPlanner(_Planner):
    """GetColor(shape) / GetShape(color) with a temporal tag."""

    def plan(self, k):
        key = self.program.keys[0]
        objs, taken = [], set()
        if _coin(self.rng, _P_REF):
            value = _pick(self.rng, self.values_for(key))
            self.place(objs, taken, *self.program.keyed(key, value))
        return _FramePlan(objs, [self.program.keyed(key)])


class _SimpleComparePlanner(_Planner):
    """Within-frame attribute comparison of referent pairs."""

    def plan(self, k):
        p = self.program
        objs, taken = [], set()
        for key1, key2 in p.key_pairs():
            have1 = _coin(self.rng, 0.9)
            have2 = _coin(self.rng, 0.9)
            values = self._choose_values(key1, key2)
            if have1:
                self.place(objs, taken, *p.keyed(key1, values[0]))
            if have2:
                self.place(objs, taken, *p.keyed(key2, values[1]))
        forbidden = [p.keyed(key) for pair in p.key_pairs() for key in pair]
        return _FramePlan(objs, forbidden)

    def _choose_values(self, key1, key2):
        pool1 = self.values_for(key1)
        pool2 = self.values_for(key2)
        shared = [v for v in pool1 if v in pool2]
        if _coin(self.rng, 0.5) and shared:
            v = _pick(self.rng, shared)
            return v, v
        v1 = _pick(self.rng, pool1)
        rest = [v for v in pool2 if v != v1]
        return v1, _pick(self.rng, rest) if rest else v1


class _ComparePlanner(_Planner):
    """Now-vs-last attribute comparison; referent state tracked per pair."""

    def __init__(self, rng, cfg, program):
        super().__init__(rng, cfg, program)
        self.pairs = self.program.key_pairs()
        # most recent past value per pair, as (frame_index, value)
        self.past: list[tuple[int, str] | None] = [None] * len(self.pairs)

    def plan(self, k):
        objs, taken = [], set()
        for idx, (key_now, key_last) in enumerate(self.pairs):
            visible = self.past[idx]
            if visible is not None and visible[0] < k - self.cfg.history:
                visible = None
            if _coin(self.rng, _P_REF):
                pool = self.values_for(key_now)
                if visible is not None and _coin(self.rng, 0.5) and visible[1] in pool:
                    value = visible[1]
                else:
                    rest = [v for v in pool if visible is None or v != visible[1]]
                    value = _pick(self.rng, rest or pool)
                self.place(objs, taken, *self.program.keyed(key_now, value))
            if _coin(self.rng, _P_PAST):
                value = _pick(self.rng, self.values_for(key_last))
                self.place(objs, taken, *self.program.keyed(key_last, value))
                self.past[idx] = (k, value)
        forbidden = [
            self.program.keyed(key) for pair in self.pairs for key in pair
        ]
        return _FramePlan(objs, forbidden)


class _ExistOfPlanner(_Planner):
    """ExistColorOf / ExistShapeOf: another object sharing the latest
    referent's attribute, and the strictly-past Cognitive variants."""

    def __init__(self, rng, cfg, program):
        super().__init__(rng, cfg, program)
        self.strict_past = EXIST_OF_SCOPE[program.task_class] == "last"
        self.key = program.keys[0]
        self.latest: tuple[int, str] | None = None  # (frame, attribute value)

    def _witness(self, objs, taken, value, avoid=False, frame_forbidden=None):
        # a non-referent object carrying (or avoiding) the referent's value
        if avoid:
            frame_forbidden.append(self.program.keyed(None, value))
            return
        keys = [key for key in self.keys_for(value) if key != self.key]
        if keys:
            key = _pick(self.rng, keys)
            self.place(objs, taken, *self.program.keyed(key, value))

    def plan(self, k):
        objs, taken = [], set()
        frame_forbidden = [self.program.keyed(self.key)]
        visible = self.latest
        if visible is not None and visible[0] < k - self.cfg.history:
            visible = None
        ref_value = None
        place_ref = _coin(self.rng, _P_REF)
        want_true = _coin(self.rng, _P_EXIST)
        if self.strict_past:
            ref_value = visible[1] if visible is not None else None
        if place_ref:
            pool = self.values_for(self.key)
            if self.strict_past and ref_value is not None and not want_true:
                pool = [v for v in pool if v != ref_value] or pool
            new_value = _pick(self.rng, pool)
            self.place(objs, taken, *self.program.keyed(self.key, new_value))
            self.latest = (k, new_value)
            if not self.strict_past:
                ref_value = new_value
        elif not self.strict_past:
            ref_value = visible[1] if visible is not None else None
        if ref_value is not None:
            self._witness(objs, taken, ref_value, avoid=not want_true,
                          frame_forbidden=frame_forbidden)
        return _FramePlan(objs, frame_forbidden)


class _SameObjectPlanner(_Planner):
    """ExistLastObjectSameObject: did anything from the previous frame reappear."""

    def __init__(self, rng, cfg, program):
        super().__init__(rng, cfg, program)
        self.prev_pairs: set[tuple[str, str]] = set()

    def plan(self, k):
        objs, taken = [], set()
        frame_forbidden = []
        if k == 0 or not self.prev_pairs:
            color, shape = self.legal_pair()
            self.place(objs, taken, color, shape)
        elif _coin(self.rng, _P_EXIST):
            color, shape = _pick(self.rng, sorted(self.prev_pairs))
            self.place(objs, taken, color, shape)
        else:
            color, shape = self.legal_pair(exclude=self.prev_pairs)
            self.place(objs, taken, color, shape)
            frame_forbidden = [pair for pair in sorted(self.prev_pairs)]
        return _FramePlan(objs, frame_forbidden)

    def observe(self, k, scene):
        self.prev_pairs = {(o.color, o.shape) for o in scene.objects}


class _SpatialPlanner(_Planner):
    """Single-frame relations against a uniquely described reference object."""

    def __init__(self, rng, cfg, program):
        super().__init__(rng, cfg, program)
        self.ref_pair = program.reference
        self.relation = program.relation

    def plan(self, k):
        objs, taken = [], set()
        forbidden = [self.ref_pair]
        rules = []
        if not _coin(self.rng, _P_REF):
            return _FramePlan(objs, forbidden)
        want_true = _coin(self.rng, _P_EXIST)
        cells = _grid(self.cfg.height, self.cfg.width)
        if want_true:
            # a region is a half-plane of the grid: it holds some cell when
            # it holds one of the grid's two opposite corners
            corners = (cells[0], cells[-1])
            cells = [cell for cell in cells if any(
                _relation_holds(c, cell, self.relation) for c in corners)]
            if not cells:
                raise _PlanFailure(
                    f"no reference cell admits relation {self.relation!r}"
                )
        row, col = _pick(self.rng, cells)
        ref = SceneObject(row, col, *self.ref_pair)
        objs.append(ref)
        taken.add((row, col))
        query = self.program.query
        if want_true:
            pair = self.legal_pair(query, exclude=(self.ref_pair,))
            self.place(objs, taken, *pair, region=(ref, self.relation))
        # Distractors in the region must not match the query: for Get*Space
        # that leaves at most one object there. Only a true ExistSpace
        # answer holds whatever else the region contains.
        if not want_true or self.program.task_class != "ExistSpace":
            rules.append((ref, self.relation, query))
        return _FramePlan(objs, forbidden, rules)


_PLANNERS = {
    "Exist": _ExistPlanner, "ExistColor": _ExistPlanner,
    "ExistShape": _ExistPlanner,
    "GetColor": _GetPlanner, "GetShape": _GetPlanner,
    "SimpleCompareColor": _SimpleComparePlanner,
    "SimpleCompareShape": _SimpleComparePlanner,
    "AndSimpleCompareColor": _SimpleComparePlanner,
    "AndSimpleCompareShape": _SimpleComparePlanner,
    "CompareColor": _ComparePlanner, "CompareShape": _ComparePlanner,
    "AndCompareColor": _ComparePlanner, "AndCompareShape": _ComparePlanner,
    "ExistColorOf": _ExistOfPlanner, "ExistShapeOf": _ExistOfPlanner,
    "ExistLastColorSameShape": _ExistOfPlanner,
    "ExistLastShapeSameColor": _ExistOfPlanner,
    "ExistSpace": _SpatialPlanner, "ExistColorSpace": _SpatialPlanner,
    "ExistShapeSpace": _SpatialPlanner,
    "GetColorSpace": _SpatialPlanner, "GetShapeSpace": _SpatialPlanner,
    "ExistLastObjectSameObject": _SameObjectPlanner,
}


def _class_draw(task_family) -> tuple[list[str], np.ndarray]:
    """The sorted classes of a task family and their normalised weights."""
    classes = sorted(task_family)
    unknown = [c for c in classes if c not in TASK_CLASSES]
    if unknown:
        raise ValueError(f"unknown task classes {unknown}")
    weights = np.array([task_family[c] for c in classes], dtype=np.float64)
    if weights.min() < 0 or weights.sum() <= 0:
        raise ValueError("task family weights must be non-negative, sum > 0")
    return classes, weights / weights.sum()


def _sample_program(rng, cfg: EpisodeConfig, draw) -> QuestionProgram:
    classes, p = draw
    cls = classes[int(rng.choice(len(classes), p=p))]

    def color():
        return COLORS[int(rng.integers(len(COLORS)))]

    def shape():
        return SHAPES[int(rng.integers(len(SHAPES)))]

    def distinct(pool_fn, n):
        out = []
        while len(out) < n:
            v = pool_fn()
            if v not in out:
                out.append(v)
        return tuple(out)

    tag = TAGS[int(rng.integers(len(TAGS)))]
    rel = RELATIONS[int(rng.integers(len(RELATIONS)))]
    sig = _SIGNATURES[cls]
    if sig.uses_relation:
        # reference descriptor must be realizable under the family constraint;
        # query arguments come before it
        ref_c, ref_s = _pick(rng, _PAIR_TABLES[cfg.family_name].pairs)
        colors = tuple(color() for _ in range(sig.n_colors - 1)) + (ref_c,)
        shapes = tuple(shape() for _ in range(sig.n_shapes - 1)) + (ref_s,)
    else:
        shapes = distinct(shape, sig.n_shapes)
        colors = distinct(color, sig.n_colors)
    return QuestionProgram(cls, colors=colors, shapes=shapes,
                           relation=rel if sig.uses_relation else None,
                           tag=tag if sig.uses_tag else None)


def _fill_distractors(rng, cfg: EpisodeConfig, table: _PairTable,
                      plan: _FramePlan):
    objs = list(plan.planned)
    if len(objs) > cfg.max_objects:
        raise _PlanFailure(
            f"{len(objs)} scripted objects exceed max_objects={cfg.max_objects}"
        )
    taken = {(o.row, o.col) for o in objs}
    budget = min(cfg.distractors, cfg.max_objects - len(objs))
    legal = table.masks[None, None] & ~table.mask_of(plan.forbidden)
    # row-major: each distractor shuffles a copy, so the draws see the
    # same list as a fresh row-major scan of the free cells would give
    free = [cell for cell in _grid(cfg.height, cfg.width) if cell not in taken]
    for _ in range(budget):
        cells = free.copy()
        rng.shuffle(cells)
        for cell in cells:
            options = legal
            for ref, relation, desc in plan.region_rules:
                if _relation_holds(cell, ref, relation):
                    options &= ~table.masks[desc]
            if options:
                objs.append(SceneObject(*cell, *table.pick(rng, options)))
                free.remove(cell)
                break
        else:
            break  # constraints leave no room; fewer distractors, not an error
    objs.sort(key=lambda o: (o.row, o.col))
    return SceneGraph(cfg.height, cfg.width, tuple(objs))


def gen_episode(cfg: EpisodeConfig, task_family, seed) -> Episode:
    """Generate one episode, deterministic in (cfg, task_family, seed)."""
    return _gen_episode(cfg, _class_draw(task_family), seed)


def _gen_episode(cfg: EpisodeConfig, draw, seed) -> Episode:
    rng = np.random.default_rng(seed)
    table = _PAIR_TABLES[cfg.family_name]
    last_failure = "construction failed"
    for _ in range(_MAX_ATTEMPTS):
        try:
            program = _sample_program(rng, cfg, draw)
            planner = _PLANNERS[program.task_class](rng, cfg, program)
            scenes = []
            for k in range(cfg.frames):
                plan = planner.plan(k)
                scene = _fill_distractors(rng, cfg, table, plan)
                planner.observe(k, scene)
                scenes.append(scene)
            answers = oracle_answer(program, scenes, cfg.history)
            # a frame k <= history already looks back to frame 0
            if any(_frame_answer(program, scenes, k, cfg.frames - 1) != answers[k]
                   for k in range(cfg.history + 1, cfg.frames)):
                last_failure = "answers depend on frames beyond the history window"
                continue
        except _PlanFailure as exc:
            last_failure = str(exc)
            continue
        seed_int = int(np.asarray(seed).reshape(-1)[-1]) if not isinstance(seed, int) else seed
        return Episode(cfg, seed_int, program, tuple(scenes), tuple(answers))
    raise GenerationError(
        f"could not generate an episode for {cfg} after {_MAX_ATTEMPTS} attempts: "
        f"{last_failure}"
    )


def episode_stream(cfg: EpisodeConfig, task_family, seed: int):
    """Infinite deterministic stream; episode i uses sub-seed (seed, i)."""
    draw = _class_draw(task_family)
    i = 0
    while True:
        yield _gen_episode(cfg, draw, [seed, i])
        i += 1


def generate_corpus(cfg: EpisodeConfig, task_family, count: int, seed: int):
    if count < 0:
        raise ValueError(f"episode count must be >= 0, got {count}")
    stream = episode_stream(cfg, task_family, seed)
    return [next(stream) for _ in range(count)]


def write_corpus(path, episodes, cfg: EpisodeConfig, task_family, seed: int) -> None:
    """Line-delimited corpus with a self-describing header record."""
    header = {
        "format": "episode-corpus",
        "version": GENERATOR_VERSION,
        "config": cfg.to_dict(),
        "task_family": {k: task_family[k] for k in sorted(task_family)},
        "seed": seed,
        "count": len(episodes),
        "vocabulary": list(VOCABULARY),
        "answers": list(ANSWERS),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for ep in episodes:
            record = {
                "seed": ep.seed,
                "program": ep.program.to_dict(),
                "token_ids": ep.token_ids,
                "scenes": [
                    [[o.row, o.col, COLOR_INDEX[o.color], SHAPE_INDEX[o.shape]]
                     for o in scene.objects]
                    for scene in ep.scenes
                ],
                "answer_ids": ep.answer_ids,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _stored(table, index, what):
    """table[index] for an id read from a corpus; rejects out-of-range ids."""
    if not isinstance(index, int) or not 0 <= index < len(table):
        raise ValueError(f"{what} id {index!r} outside [0, {len(table)})")
    return table[index]


def read_corpus(path):
    """Load a corpus; returns (episodes, header). Raises CorpusError on a
    line that does not parse, an out-of-range color, shape or answer id,
    stored token ids unlike the program's tokens, a header vocabulary or
    answer table unlike this module's, a header config EpisodeConfig
    rejects, or a record count unlike the header's."""
    # binary lines, decoded one by one, so a bad byte names its own line
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:
            raise CorpusError(f"{path}:1: unreadable header ({exc})") from exc
        if not isinstance(header, dict) or header.get("format") != "episode-corpus":
            raise CorpusError(f"{path} is not an episode corpus")
        for key, table in (("vocabulary", VOCABULARY), ("answers", ANSWERS)):
            if header.get(key) != list(table):
                raise CorpusError(
                    f"{path}: header {key} differs from this generator's"
                )
        try:
            cfg = EpisodeConfig.from_dict(header["config"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"{path}:1: bad header config ({exc!r})") from exc
        episodes = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line.decode("utf-8"))
                scenes = tuple(
                    SceneGraph(cfg.height, cfg.width, tuple(
                        SceneObject(r, c, _stored(COLORS, ci, "color"),
                                    _stored(SHAPES, si, "shape"))
                        for r, c, ci, si in scene
                    ))
                    for scene in rec["scenes"]
                )
                answers = tuple(_stored(ANSWERS, i, "answer")
                                for i in rec["answer_ids"])
                episode = Episode(
                    cfg, rec["seed"], QuestionProgram.from_dict(rec["program"]),
                    scenes, answers,
                )
                if rec["token_ids"] != episode.token_ids:
                    raise ValueError("stored token_ids differ from the program's tokens")
                episodes.append(episode)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise CorpusError(
                    f"{path}:{lineno}: unreadable record ({exc!r})"
                ) from exc
    if len(episodes) != header.get("count"):
        raise CorpusError(
            f"{path}: header counts {header.get('count')} episodes, "
            f"found {len(episodes)}"
        )
    return episodes, header
