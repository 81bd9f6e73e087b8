"""Oracle correctness: spec'd point cases, totality, and cross-checks against
the independent reference answerer on seeded samples of small scenes."""

import itertools
import zlib

import numpy as np
import pytest

from samnet.minicog import (
    ANSWERS,
    COLORS,
    QuestionProgram,
    SHAPES,
    SceneGraph,
    SceneObject,
    TASK_CLASSES,
    enumerate_programs,
    oracle_answer,
)

from reference_oracle import brute_force_answers


def scene(h, w, *objs):
    return SceneGraph(h, w, tuple(SceneObject(*o) for o in objs))


class TestPointCases:
    def test_exist_true_on_any_object(self):
        scenes = [scene(3, 3, (0, 0, "red", "circle"))]
        p = QuestionProgram("Exist", tag="now")
        assert oracle_answer(p, scenes, 0) == ["true"]

    def test_exist_false_on_empty_frame(self):
        p = QuestionProgram("Exist", tag="now")
        assert oracle_answer(p, [scene(3, 3)], 0) == ["false"]

    def test_get_color_invalid_before_referent_appears(self):
        scenes = [scene(3, 3), scene(3, 3, (1, 1, "blue", "star"))]
        p = QuestionProgram("GetColor", shapes=("star",), tag="latest")
        assert oracle_answer(p, scenes, 1) == ["invalid", "blue"]

    def test_last_tag_is_invalid_on_first_frame(self):
        scenes = [scene(3, 3, (0, 0, "red", "circle"))] * 3
        p = QuestionProgram("ExistColor", colors=("red",), tag="last")
        assert oracle_answer(p, scenes, 2) == ["invalid", "true", "true"]

    def test_latest_referent_prefers_recent_frame(self):
        scenes = [
            scene(3, 3, (0, 0, "red", "star")),
            scene(3, 3, (2, 2, "green", "star")),
            scene(3, 3),
        ]
        p = QuestionProgram("GetColor", shapes=("star",), tag="latest")
        assert oracle_answer(p, scenes, 2) == ["red", "green", "green"]

    def test_history_window_limits_lookback(self):
        scenes = [
            scene(3, 3, (0, 0, "red", "star")),
            scene(3, 3),
            scene(3, 3),
        ]
        p = QuestionProgram("GetColor", shapes=("star",), tag="latest")
        assert oracle_answer(p, scenes, 1) == ["red", "red", "invalid"]

    def test_spatial_relations(self):
        sc = scene(
            3, 3,
            (1, 1, "red", "circle"),
            (1, 0, "blue", "square"),   # left of the circle
            (0, 1, "green", "star"),    # above the circle
        )
        for rel, expected in (("left", "true"), ("right", "false"),
                              ("above", "true"), ("below", "false")):
            p = QuestionProgram("ExistSpace", colors=("red",),
                                shapes=("circle",), relation=rel)
            assert oracle_answer(p, [sc], 0) == [expected], rel

    def test_get_color_space_picks_nearest(self):
        sc = scene(
            3, 4,
            (1, 3, "red", "circle"),
            (1, 2, "blue", "square"),
            (0, 0, "green", "star"),
        )
        p = QuestionProgram("GetColorSpace", colors=("red",),
                            shapes=("circle",), relation="left")
        assert oracle_answer(p, [sc], 0) == ["blue"]

    def test_same_object_reappearance(self):
        scenes = [
            scene(3, 3, (0, 0, "red", "circle")),
            scene(3, 3, (2, 2, "red", "circle")),
            scene(3, 3, (1, 1, "blue", "star")),
        ]
        p = QuestionProgram("ExistLastObjectSameObject")
        assert oracle_answer(p, scenes, 2) == ["invalid", "true", "false"]

    def test_compare_color_across_frames(self):
        scenes = [
            scene(3, 3, (0, 0, "red", "star")),
            scene(3, 3, (1, 1, "red", "cross")),
            scene(3, 3, (2, 2, "blue", "cross")),
        ]
        p = QuestionProgram("CompareColor", shapes=("cross", "star"))
        # frame 1: now-cross red vs last star red; frame 2: blue vs red
        assert oracle_answer(p, scenes, 2) == ["invalid", "true", "false"]


def _enumerate_scenes(h, w, colors, shapes):
    """All scenes over an h*w grid with each cell empty or one (color, shape)."""
    options = [None] + [(c, s) for c in colors for s in shapes]
    cells = [(r, c) for r in range(h) for c in range(w)]
    for fill in itertools.product(options, repeat=len(cells)):
        objs = tuple(
            SceneObject(r, c, *attrs)
            for (r, c), attrs in zip(cells, fill) if attrs is not None
        )
        yield SceneGraph(h, w, objs)


class TestAgainstReference:
    @pytest.mark.parametrize("task_class", TASK_CLASSES)
    def test_matches_reference_on_sampled_scene_pairs(self, task_class):
        colors, shapes = COLORS[:2], SHAPES[:2]
        programs = enumerate_programs(task_class, colors, shapes)
        # crc32, not hash(): string hashing is salted per process
        rng = np.random.default_rng(zlib.crc32(task_class.encode()))
        for geometry in ((1, 3), (3, 1)):
            pool = list(_enumerate_scenes(*geometry, colors, shapes))
            for _ in range(120):
                a = pool[int(rng.integers(len(pool)))]
                b = pool[int(rng.integers(len(pool)))]
                p = programs[int(rng.integers(len(programs)))]
                ours = oracle_answer(p, [a, b], 1)
                ref = brute_force_answers(p, [a, b], 1)
                assert ours == ref, (p, a.objects, b.objects)

    def test_totality_on_random_inputs(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            scenes = []
            for _ in range(int(rng.integers(1, 5))):
                cells = [(r, c) for r in range(h) for c in range(w)]
                rng.shuffle(cells)
                n = int(rng.integers(0, len(cells) + 1))
                scenes.append(SceneGraph(h, w, tuple(
                    SceneObject(r, c, COLORS[int(rng.integers(8))],
                                SHAPES[int(rng.integers(6))])
                    for r, c in cells[:n]
                )))
            cls = TASK_CLASSES[int(rng.integers(len(TASK_CLASSES)))]
            programs = enumerate_programs(cls, COLORS[:3], SHAPES[:3])
            p = programs[int(rng.integers(len(programs)))]
            history = int(rng.integers(0, len(scenes)))
            answers = oracle_answer(p, scenes, history)
            assert len(answers) == len(scenes)
            assert all(a in ANSWERS for a in answers)
