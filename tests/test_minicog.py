import ast
import collections
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import samnet.minicog
from samnet.minicog import (
    ANSWERS,
    COLORS,
    CONSTRAINED_SHAPES,
    CorpusError,
    EpisodeConfig,
    FeatureFamily,
    GRID_CHANNELS,
    GROUP_OF,
    GenerationError,
    SHAPES,
    SceneGraph,
    SceneObject,
    TASK_CLASSES,
    TASK_GROUPS,
    VOCABULARY,
    episode_stream,
    gen_episode,
    generate_corpus,
    read_corpus,
    render_symbolic,
    write_corpus,
)

ALL_CLASSES = {c: 1.0 for c in TASK_CLASSES}


def canonical_cfg(**kw):
    return EpisodeConfig(**kw)


def _within_data_layer(name: str) -> bool:
    """True for an import a minicog module may make: a sibling module,
    samnet.minicog itself, numpy or the standard library."""
    if name.startswith("."):
        return not name.startswith("..")
    if name == "samnet.minicog" or name.startswith("samnet.minicog."):
        return True
    return name.split(".")[0] in sys.stdlib_module_names | {"numpy"}


def test_minicog_imports_nothing_from_the_model_layer():
    package = Path(samnet.minicog.__file__).parent
    foreign = []
    for module in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["." * node.level + (node.module or "")]
            else:
                continue
            foreign += [f"{module.name}:{node.lineno}: {name}"
                        for name in names if not _within_data_layer(name)]
    assert not foreign, foreign


class TestSceneGraph:
    def test_rejects_two_objects_in_one_cell(self):
        with pytest.raises(ValueError):
            SceneGraph(3, 3, (
                SceneObject(1, 1, "red", "circle"),
                SceneObject(1, 1, "blue", "square"),
            ))

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            SceneGraph(2, 2, (SceneObject(2, 0, "red", "circle"),))


def decode_grid(grid):
    """Read a scene back from a render_symbolic grid, asserting on the way
    that it is one-hot: binary entries, no attribute on an empty cell, and
    exactly one color and one shape on an occupied cell."""
    h, w, _ = grid.shape
    assert grid.shape == (h, w, GRID_CHANNELS) and grid.dtype == np.float32
    assert np.isin(grid, (0, 1)).all()
    occupied = grid[:, :, 0] == 1
    colors = grid[:, :, 1:1 + len(COLORS)]
    shapes = grid[:, :, 1 + len(COLORS):]
    assert not colors[~occupied].any() and not shapes[~occupied].any()
    assert (colors[occupied].sum(axis=1) == 1).all()
    assert (shapes[occupied].sum(axis=1) == 1).all()
    objects = tuple(
        SceneObject(int(r), int(c), COLORS[int(np.argmax(colors[r, c]))],
                    SHAPES[int(np.argmax(shapes[r, c]))])
        for r, c in np.argwhere(occupied)
    )
    return SceneGraph(h, w, objects)


class TestRendering:
    def test_empty_scene_is_all_zero(self):
        grid = render_symbolic(SceneGraph(4, 4, ()))
        assert grid.shape == (4, 4, GRID_CHANNELS)
        assert np.count_nonzero(grid) == 0

    def test_single_object_occupies_one_cell(self):
        scene = SceneGraph(4, 4, (SceneObject(2, 1, "red", "star"),))
        grid = render_symbolic(scene)
        assert grid[2, 1, 0] == 1
        assert grid[:, :, 0].sum() == 1
        assert grid[2, 1].sum() == 3  # occupancy + one color + one shape

    def test_round_trip_over_random_scenes(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            h, w = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            cells = [(r, c) for r in range(h) for c in range(w)]
            rng.shuffle(cells)
            n = int(rng.integers(0, min(len(cells), 5) + 1))
            objs = tuple(
                SceneObject(r, c, COLORS[int(rng.integers(8))],
                            SHAPES[int(rng.integers(6))])
                for r, c in cells[:n]
            )
            scene = SceneGraph(h, w, tuple(sorted(objs)))
            assert decode_grid(render_symbolic(scene)) == scene


class TestFeatureFamily:
    def test_variants_swap_constrained_shapes(self):
        fam_a, fam_b = FeatureFamily.variant_a(), FeatureFamily.variant_b()
        s1, s2 = CONSTRAINED_SHAPES
        assert set(fam_a.colors_for(s1)) == set(fam_b.colors_for(s2))
        assert set(fam_a.colors_for(s2)) == set(fam_b.colors_for(s1))
        assert not set(fam_a.colors_for(s1)) & set(fam_a.colors_for(s2))
        for s in SHAPES:
            if s not in CONSTRAINED_SHAPES:
                assert fam_a.colors_for(s) == COLORS

    def test_families_partition_colors(self):
        fam = FeatureFamily.variant_a()
        s1, s2 = CONSTRAINED_SHAPES
        union = set(fam.colors_for(s1)) | set(fam.colors_for(s2))
        assert union == set(COLORS)
        assert len(fam.colors_for(s1)) == len(fam.colors_for(s2)) == 4


class TestGeneration:
    def test_canonical_analog_has_four_frames_and_answers(self):
        cfg = canonical_cfg(frames=4, history=3, distractors=1)
        ep = gen_episode(cfg, ALL_CLASSES, 42)
        assert len(ep.scenes) == 4
        assert len(ep.answers) == 4

    def test_deterministic_in_config_and_seed(self):
        cfg = canonical_cfg()
        for seed in (0, 7, [3, 5]):
            a = gen_episode(cfg, ALL_CLASSES, seed)
            b = gen_episode(cfg, ALL_CLASSES, seed)
            assert a.program == b.program
            assert a.scenes == b.scenes
            assert a.answers == b.answers

    def test_every_class_generates_and_has_one_group(self):
        cfg = canonical_cfg()
        for cls in TASK_CLASSES:
            ep = gen_episode(cfg, {cls: 1.0}, 11)
            assert ep.program.task_class == cls
            groups = [g for g, members in TASK_GROUPS.items() if cls in members]
            assert len(groups) == 1
            assert GROUP_OF[cls] == groups[0]
        assert set(TASK_GROUPS) == {"Basic", "Obj-Attr", "Compare", "Spatial",
                                    "Cognitive"}

    def test_family_constraint_never_violated(self):
        cfg = canonical_cfg(family_name="A")
        fam = FeatureFamily.variant_a()
        stream = episode_stream(cfg, ALL_CLASSES, 99)
        for _ in range(1000):
            ep = next(stream)
            for scene in ep.scenes:
                for o in scene.objects:
                    assert o.color in fam.colors_for(o.shape), (ep.program, o)

    def test_distractors_never_satisfy_referent_descriptors(self):
        # for GetColor(shape) episodes, at most one object per frame has the
        # referent shape (the scripted referent itself)
        cfg = canonical_cfg(distractors=3, max_objects=8)
        stream = episode_stream(cfg, {"GetColor": 1.0}, 17)
        for _ in range(300):
            ep = next(stream)
            shape = ep.program.shapes[0]
            for scene in ep.scenes:
                assert sum(o.shape == shape for o in scene.objects) <= 1

    def test_answer_balance_exist_family(self):
        cfg = canonical_cfg()
        fam = {"Exist": 1.0, "ExistColor": 1.0, "ExistShape": 1.0}
        counts = collections.Counter()
        stream = episode_stream(cfg, fam, 123)
        for _ in range(10_000):
            counts.update(next(stream).answers)
        total = sum(counts.values())
        for label in ("true", "false"):
            assert 0.35 <= counts[label] / total <= 0.65, counts

    @pytest.mark.parametrize("task_class", ["GetColorSpace", "GetShapeSpace"])
    def test_region_holds_at_most_one_related_object(self, task_class):
        # the planner's region rule leaves the nearest-object query one
        # candidate: in frames with the reference, at most one other object
        # stands in the relation to it
        holds = {
            "left": lambda o, ref: o.col < ref.col,
            "right": lambda o, ref: o.col > ref.col,
            "above": lambda o, ref: o.row < ref.row,
            "below": lambda o, ref: o.row > ref.row,
        }
        cfg = canonical_cfg(distractors=4, max_objects=8)
        stream = episode_stream(cfg, {task_class: 1.0}, 41)
        frames_with_ref = 0
        for _ in range(300):
            ep = next(stream)
            rel = holds[ep.program.relation]
            for scene in ep.scenes:
                refs = [o for o in scene.objects
                        if (o.color, o.shape) == ep.program.reference]
                assert len(refs) <= 1
                if refs:
                    frames_with_ref += 1
                    related = [o for o in scene.objects
                               if o != refs[0] and rel(o, refs[0])]
                    assert len(related) <= 1, (ep.program, scene)
        assert frames_with_ref > 500

    def test_history_sufficiency_with_short_window(self):
        from samnet.minicog import oracle_answer
        cfg = canonical_cfg(frames=4, history=1)
        stream = episode_stream(cfg, ALL_CLASSES, 31)
        for _ in range(300):
            ep = next(stream)
            short = oracle_answer(ep.program, ep.scenes, cfg.history)
            full = oracle_answer(ep.program, ep.scenes, cfg.frames - 1)
            assert tuple(short) == ep.answers == tuple(full)

    def test_unsatisfiable_config_reports_constraint(self):
        cfg = canonical_cfg(height=2, width=2, max_objects=1)
        with pytest.raises(GenerationError, match="max_objects"):
            gen_episode(cfg, {"AndCompareColor": 1.0}, 3)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            EpisodeConfig(frames=4, history=4)
        with pytest.raises(ValueError):
            EpisodeConfig(frames=0)
        with pytest.raises(ValueError):
            EpisodeConfig(family_name="Z")

    @pytest.mark.parametrize("field", ["height", "width", "frames", "history",
                                       "distractors", "max_objects"])
    @pytest.mark.parametrize("value", [1.0, True], ids=["float", "bool"])
    def test_non_int_extent_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            EpisodeConfig(**{field: value})

    def test_answers_always_in_answer_set(self):
        cfg = canonical_cfg()
        stream = episode_stream(cfg, ALL_CLASSES, 77)
        for _ in range(500):
            ep = next(stream)
            assert all(a in ANSWERS for a in ep.answers)

    def test_symbolic_frames_shape(self):
        cfg = canonical_cfg()
        ep = gen_episode(cfg, ALL_CLASSES, 5)
        frames = ep.frames_symbolic()
        assert frames.shape == (4, 5, 5, 15)


class TestCorpusFile:
    def test_round_trip(self, tmp_path):
        cfg = canonical_cfg()
        episodes = generate_corpus(cfg, ALL_CLASSES, 50, seed=13)
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, episodes, cfg, ALL_CLASSES, seed=13)
        loaded, header = read_corpus(path)
        assert header["version"]
        assert header["seed"] == 13
        assert len(loaded) == 50
        for a, b in zip(episodes, loaded):
            assert a.program == b.program
            assert a.scenes == b.scenes
            assert a.answers == b.answers
            assert a.token_ids == b.token_ids

    def test_bit_exact_regeneration(self, tmp_path):
        cfg = canonical_cfg()
        episodes = generate_corpus(cfg, ALL_CLASSES, 20, seed=8)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(p1, episodes, cfg, ALL_CLASSES, seed=8)
        write_corpus(p2, generate_corpus(cfg, ALL_CLASSES, 20, seed=8),
                     cfg, ALL_CLASSES, seed=8)
        assert p1.read_bytes() == p2.read_bytes()

    def _write(self, tmp_path, count=5):
        cfg = canonical_cfg()
        episodes = generate_corpus(cfg, ALL_CLASSES, count, seed=21)
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, episodes, cfg, ALL_CLASSES, seed=21)
        return path, path.read_text().splitlines(keepends=True)

    def test_truncated_corpus_rejected(self, tmp_path):
        path, lines = self._write(tmp_path)
        path.write_text("".join(lines[:3]))  # header and 2 of 5 records
        with pytest.raises(CorpusError, match="counts 5 episodes, found 2"):
            read_corpus(path)

    @pytest.mark.parametrize("table", ["vocabulary", "answers"])
    def test_foreign_header_table_rejected(self, tmp_path, table):
        path, lines = self._write(tmp_path)
        header = json.loads(lines[0])
        header[table] = header[table][::-1]
        path.write_text(json.dumps(header, sort_keys=True) + "\n"
                        + "".join(lines[1:]))
        with pytest.raises(CorpusError, match=f"header {table}"):
            read_corpus(path)

    def test_invalid_record_names_its_line(self, tmp_path):
        path, lines = self._write(tmp_path)
        lines[2] = lines[2][: len(lines[2]) // 2] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(CorpusError, match=r"corpus\.jsonl:3: "):
            read_corpus(path)

    def _edit_record(self, path, lines, index, edit):
        rec = json.loads(lines[index])
        edit(rec)
        lines[index] = json.dumps(rec, sort_keys=True) + "\n"
        path.write_text("".join(lines))

    def test_out_of_range_answer_id_names_its_line(self, tmp_path):
        # a negative id must not load as another answer (-1 is the last one)
        path, lines = self._write(tmp_path)
        self._edit_record(path, lines, 2,
                          lambda rec: rec["answer_ids"].__setitem__(0, -1))
        with pytest.raises(CorpusError, match=r"corpus\.jsonl:3: .*answer id -1"):
            read_corpus(path)

    def test_out_of_range_shape_id_names_its_line(self, tmp_path):
        path, lines = self._write(tmp_path)

        def edit(rec):
            scene = next(s for s in rec["scenes"] if s)
            scene[0][3] = 99

        self._edit_record(path, lines, 3, edit)
        with pytest.raises(CorpusError, match=r"corpus\.jsonl:4: .*shape id 99"):
            read_corpus(path)

    def test_edited_token_ids_name_their_line(self, tmp_path):
        path, lines = self._write(tmp_path)

        def edit(rec):
            rec["token_ids"][0] = (rec["token_ids"][0] + 1) % len(VOCABULARY)

        self._edit_record(path, lines, 1, edit)
        with pytest.raises(CorpusError, match=r"corpus\.jsonl:2: .*token_ids"):
            read_corpus(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("config"),
        lambda h: h.__setitem__("config", [5, 5, 4]),
        lambda h: h["config"].__setitem__("colour_count", 8),
        lambda h: h["config"].__setitem__("frames", 0),
        lambda h: h["config"].__setitem__("height", 5.0),
        lambda h: h["config"].__setitem__("height", True),
    ], ids=["missing", "not-a-mapping", "unknown-key", "zero-frames",
            "float-height", "bool-height"])
    def test_bad_header_config_rejected(self, tmp_path, edit):
        path, lines = self._write(tmp_path)
        header = json.loads(lines[0])
        edit(header)
        path.write_text(json.dumps(header, sort_keys=True) + "\n"
                        + "".join(lines[1:]))
        with pytest.raises(CorpusError, match=r"corpus\.jsonl:1: bad header config"):
            read_corpus(path)

    def test_undecodable_byte_names_its_line(self, tmp_path):
        path, lines = self._write(tmp_path)
        raw = [line.encode("utf-8") for line in lines]
        raw[1] = raw[1][:10] + b"\xff" + raw[1][10:]
        path.write_bytes(b"".join(raw))
        with pytest.raises(CorpusError, match=r"corpus\.jsonl:2: unreadable record"):
            read_corpus(path)
