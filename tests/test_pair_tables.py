"""The generator's per-family pair tables against the list filters they
replaced.

`_PairTable` answers "which legal (color, shape) pairs fit or avoid these
descriptors" with bitmasks. The reference filters below are the list
comprehensions over `family.pairs()` and `programs.matches` that the
generator ran before the tables; draws from a table must equal draws from
those lists under the same random state. A region rule's cells are built as
the sets the spatial planner listed before it used the oracle's relation
predicate.
"""

import itertools

import numpy as np
import pytest

from samnet.minicog import (
    COLORS,
    SHAPES,
    TASK_CLASSES,
    EpisodeConfig,
    FeatureFamily,
    SceneGraph,
    SceneObject,
    generate_corpus,
)
from samnet.minicog.generator import (
    _FramePlan,
    _PAIR_TABLES,
    _PlanFailure,
    _fill_distractors,
    _pick,
)
from samnet.minicog.programs import RELATIONS, matches
from samnet.minicog.scenes import FAMILIES

DESCRIPTORS = list(itertools.product((None,) + COLORS, (None,) + SHAPES))


def selected(table, mask):
    return [pair for i, pair in enumerate(table.pairs) if mask >> i & 1]


def reference_legal(family, forbidden, region_descs=()):
    """The old filter: legal pairs matching no forbidden descriptor, then
    narrowed by each region rule whose region holds the cell."""
    legal = [
        pair for pair in family.pairs()
        if not any(matches(*pair, desc) for desc in forbidden)
    ]
    for desc in region_descs:
        legal = [pair for pair in legal if not matches(*pair, desc)]
    return legal


def region_cells(cfg, ref, relation):
    """The cells in `relation` to the reference object, as a set."""
    h, w, row, col = cfg.height, cfg.width, ref.row, ref.col
    if relation == "left":
        return {(r, c) for r in range(h) for c in range(col)}
    if relation == "right":
        return {(r, c) for r in range(h) for c in range(col + 1, w)}
    if relation == "above":
        return {(r, c) for r in range(row) for c in range(w)}
    return {(r, c) for r in range(row + 1, h) for c in range(w)}


def reference_fill(rng, cfg, family, plan):
    """`_fill_distractors` as it was before the pair tables."""
    objs = list(plan.planned)
    taken = {(o.row, o.col) for o in objs}
    budget = min(cfg.distractors, cfg.max_objects - len(objs))
    legal = reference_legal(family, plan.forbidden)
    for _ in range(budget):
        cells = [
            (r, c) for r in range(cfg.height) for c in range(cfg.width)
            if (r, c) not in taken
        ]
        rng.shuffle(cells)
        placed = False
        for row, col in cells:
            options = legal
            for ref, relation, desc in plan.region_rules:
                if (row, col) in region_cells(cfg, ref, relation):
                    options = [
                        pair for pair in options if not matches(*pair, desc)
                    ]
            if options:
                color, shp = options[int(rng.integers(len(options)))]
                objs.append(SceneObject(row, col, color, shp))
                taken.add((row, col))
                placed = True
                break
        if not placed:
            break
    objs.sort(key=lambda o: (o.row, o.col))
    return SceneGraph(cfg.height, cfg.width, tuple(objs))


def random_descriptors(rng, n):
    return [DESCRIPTORS[int(i)] for i in rng.integers(len(DESCRIPTORS), size=n)]


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_masks_select_what_matches_selects(name):
    family = FeatureFamily.by_name(name)
    table = _PAIR_TABLES[name]
    assert table.pairs == tuple(family.pairs())
    assert len(DESCRIPTORS) == 63 and set(table.masks) == set(DESCRIPTORS)
    for desc in DESCRIPTORS:
        assert selected(table, table.masks[desc]) == [
            pair for pair in family.pairs() if matches(*pair, desc)
        ], desc


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_legal_pools_equal_the_list_filter(name):
    family, table = FeatureFamily.by_name(name), _PAIR_TABLES[name]
    rng = np.random.default_rng(7)
    for _ in range(500):
        forbidden = random_descriptors(rng, int(rng.integers(0, 5)))
        region_descs = random_descriptors(rng, int(rng.integers(0, 3)))
        mask = table.masks[None, None] & ~table.mask_of(forbidden)
        for desc in region_descs:
            mask &= ~table.masks[desc]
        pool = reference_legal(family, forbidden, region_descs)
        assert selected(table, mask) == pool
        # a draw from the mask is the draw `_pick` makes from the list
        seed = int(rng.integers(1 << 30))
        if pool:
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert table.pick(a, mask) == _pick(b, pool)
            assert a.random() == b.random()
        else:
            with pytest.raises(_PlanFailure):
                table.pick(np.random.default_rng(seed), mask)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_fill_distractors_equals_the_list_filter(name):
    family, table = FeatureFamily.by_name(name), _PAIR_TABLES[name]
    rng = np.random.default_rng(11)
    for _ in range(300):
        h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        cfg = EpisodeConfig(height=h, width=w, frames=1, history=0,
                            distractors=int(rng.integers(0, 6)),
                            max_objects=int(rng.integers(1, 9)),
                            family_name=name)
        cells = [(r, c) for r in range(h) for c in range(w)]
        order = rng.permutation(len(cells))
        n_planned = int(rng.integers(0, min(len(cells), cfg.max_objects) + 1))
        planned = [
            SceneObject(*cells[int(i)], *_pick(rng, table.pairs))
            for i in order[:n_planned]
        ]
        rules = [
            (SceneObject(*cells[int(rng.integers(len(cells)))], *table.pairs[0]),
             RELATIONS[int(rng.integers(len(RELATIONS)))], desc)
            for desc in random_descriptors(rng, int(rng.integers(0, 3)))
        ]
        forbidden = random_descriptors(rng, int(rng.integers(0, 4)))
        plan = _FramePlan(planned, forbidden, rules)
        seed = int(rng.integers(1 << 30))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (_fill_distractors(a, cfg, table, plan)
                == reference_fill(b, cfg, family, plan))
        assert a.random() == b.random()


def test_tables_stay_at_their_fixed_size():
    all_classes = {c: 1.0 for c in TASK_CLASSES}
    for name in sorted(FAMILIES):
        cfg = EpisodeConfig(family_name=name)
        assert cfg.family is FeatureFamily.by_name(name) is FAMILIES[name]
        generate_corpus(cfg, all_classes, 2000, seed=3)
    assert sorted(_PAIR_TABLES) == ["A", "B", "any"]
    for table in _PAIR_TABLES.values():
        assert len(table.masks) == 63
