import json

import pytest

from samnet.minicog import (
    COLORS,
    EpisodeConfig,
    FeatureFamily,
    TASK_CLASSES,
    TASK_GROUPS,
)
from samnet.training import TrainConfig
from samnet.transfer import (
    Complexity,
    SplitValidationError,
    TaskFamily,
    build_feature_split,
    build_reasoning_split,
    build_temporal_split,
    label_space_report,
    run_protocol,
)


def small_base_cfg(out_dir, **kw):
    base = dict(
        d=16, reasoning_steps=2, mem_slots=3,
        grid_height=3, grid_width=3, frames=2, history=1, distractors=1,
        max_objects=4, task_family="Basic",
        learning_rate=3e-4, batch_size=4, max_steps=3, eval_every=3,
        val_episodes=10, out_dir=str(out_dir),
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTaskFamily:
    def test_normalizes_weights(self):
        fam = TaskFamily.of({"Exist": 2.0, "GetColor": 2.0})
        assert dict(fam.weights) == {"Exist": 0.5, "GetColor": 0.5}

    def test_rejects_bad_weights(self):
        with pytest.raises(SplitValidationError):
            TaskFamily.of({"Exist": -1.0})
        with pytest.raises(SplitValidationError):
            TaskFamily.of({"Nope": 1.0})

    def test_answer_labels(self):
        fam = TaskFamily.of({"Exist": 1.0})
        assert fam.answer_labels() == frozenset({"true", "false", "invalid"})
        fam = TaskFamily.of({"GetColor": 1.0})
        assert fam.answer_labels() == frozenset(COLORS) | {"invalid"}


class TestFeatureSplit:
    def test_complementary_families_validate(self):
        split = build_feature_split(FeatureFamily.variant_a(),
                                    FeatureFamily.variant_b())
        assert split.kind == "feature"
        assert split.source_domain.episode_config.family_name == "A"
        assert split.target_domain.episode_config.family_name == "B"
        # everything except the attribute constraint is shared
        src = split.source_domain.episode_config.to_dict()
        tgt = split.target_domain.episode_config.to_dict()
        src.pop("family_name"), tgt.pop("family_name")
        assert src == tgt
        assert split.source_family == split.target_family

    def test_identical_families_rejected(self):
        with pytest.raises(SplitValidationError, match="identical"):
            build_feature_split(FeatureFamily.variant_a(),
                                FeatureFamily.variant_a())

    def test_non_complementary_rejected(self):
        fam_a = FeatureFamily.variant_a()
        broken = FeatureFamily("X", dict(FeatureFamily.variant_a().allowed))
        broken.allowed["square"] = COLORS[:2]
        with pytest.raises(SplitValidationError, match="complementary"):
            build_feature_split(fam_a, broken)

    def test_target_scenes_respect_swapped_constraint(self):
        from samnet.minicog import episode_stream
        split = build_feature_split(
            FeatureFamily.variant_a(), FeatureFamily.variant_b(),
            base_config=EpisodeConfig(),
        )
        target_cfg = split.target_domain.episode_config
        fam_b = FeatureFamily.variant_b()
        fam_a = FeatureFamily.variant_a()
        stream = episode_stream(target_cfg, {"Exist": 1.0, "GetColor": 1.0,
                                             "SimpleCompareColor": 1.0}, 21)
        constrained_seen = 0
        for _ in range(1000):
            ep = next(stream)
            for scene in ep.scenes:
                for o in scene.objects:
                    assert o.color in fam_b.colors_for(o.shape)
                    if o.shape in ("square", "triangle"):
                        constrained_seen += 1
                        # source-legal combos never appear in the target
                        assert o.color not in fam_a.colors_for(o.shape)
        assert constrained_seen > 0


class TestTemporalSplit:
    def test_canonical_to_hard_analog(self):
        split = build_temporal_split(Complexity(3, 4), Complexity(12, 8),
                                     base_config=EpisodeConfig(
                                         height=6, width=6, max_objects=3))
        src = split.source_domain.episode_config
        tgt = split.target_domain.episode_config
        assert (src.max_objects, src.frames) == (3, 4)
        assert (tgt.max_objects, tgt.frames) == (12, 8)
        assert src.history == 3 and tgt.history == 7
        assert tgt.distractors > src.distractors

    def test_equal_complexity_rejected(self):
        with pytest.raises(SplitValidationError, match="strict"):
            build_temporal_split(Complexity(3, 4), Complexity(3, 4))

    def test_decreasing_frames_rejected(self):
        with pytest.raises(SplitValidationError, match="m_target"):
            build_temporal_split(Complexity(3, 8), Complexity(3, 4))

    def test_decreasing_objects_rejected(self):
        with pytest.raises(SplitValidationError, match="n_target"):
            build_temporal_split(Complexity(5, 4), Complexity(4, 4))

    def test_oversized_objects_rejected(self):
        with pytest.raises(SplitValidationError, match="grid"):
            build_temporal_split(Complexity(3, 4), Complexity(30, 8),
                                 base_config=EpisodeConfig())


class TestReasoningSplit:
    def test_all_but_t_excludes_target_classes(self):
        split = build_reasoning_split("all_but_t", "Compare")
        source = set(split.source_family.classes())
        target = set(split.target_family.classes())
        assert target == set(TASK_GROUPS["Compare"])
        assert not source & target
        assert source | target == set(TASK_CLASSES)

    def test_only_t_uses_same_family_twice(self):
        split = build_reasoning_split("only_t", "Basic")
        assert split.source_family == split.target_family
        assert set(split.source_family.classes()) == set(TASK_GROUPS["Basic"])

    def test_train_all_keeps_everything(self):
        split = build_reasoning_split("train_all", "Spatial")
        assert set(split.source_family.classes()) == set(TASK_CLASSES)
        assert set(split.target_family.classes()) == set(TASK_GROUPS["Spatial"])

    def test_group_mode_maps_hierarchy(self):
        split = build_reasoning_split("group", "A", group_target="Compare")
        expect = (set(TASK_GROUPS["Basic"]) | set(TASK_GROUPS["Obj-Attr"])
                  | set(TASK_GROUPS["Compare"]))
        assert set(split.source_family.classes()) == expect
        split_b = build_reasoning_split("group", "B", group_target="Cognitive")
        expect_b = set(TASK_GROUPS["Spatial"]) | set(TASK_GROUPS["Cognitive"])
        assert set(split_b.source_family.classes()) == expect_b

    def test_group_mode_validates_leaf(self):
        with pytest.raises(SplitValidationError, match="target leaf"):
            build_reasoning_split("group", "A", group_target="Spatial")

    def test_unknown_group_rejected(self):
        with pytest.raises(SplitValidationError, match="unknown task group"):
            build_reasoning_split("all_but_t", "Numbers")
        with pytest.raises(SplitValidationError, match="unknown"):
            build_reasoning_split("bogus_mode", "Basic")

    def test_explicit_class_list(self):
        t = ("GetColor", "GetShape", "GetColorSpace", "GetShapeSpace")
        split = build_reasoning_split("all_but_t", t)
        report = label_space_report(split)
        assert report["disjoint_excluding_invalid"] is True
        assert set(report["target_only_labels"]) >= set(COLORS)

    def test_shared_domain(self):
        split = build_reasoning_split("all_but_t", "Cognitive")
        assert split.source_domain == split.target_domain


class TestRunProtocol:
    @pytest.mark.parametrize("kw", [{"target_mem_slots": 0},
                                    {"target_mem_slots": -1},
                                    {"eval_episodes": 0}])
    def test_bad_evaluation_settings_rejected_before_training(
            self, tmp_path, monkeypatch, kw):
        from samnet import transfer

        def train(*args, **kwargs):
            raise AssertionError("run_protocol trained before rejecting")

        monkeypatch.setattr(transfer, "train", train)
        split = build_reasoning_split("only_t", "Basic")
        with pytest.raises(ValueError, match=next(iter(kw))):
            run_protocol(split, small_base_cfg(tmp_path / "w"),
                         out_dir=str(tmp_path / "w"), **kw)
        assert not (tmp_path / "w").exists()

    def test_zero_shot_report_structure(self, tmp_path):
        split = build_reasoning_split(
            "all_but_t", "Cognitive",
            base_config=EpisodeConfig(height=3, width=3, frames=2, history=1,
                                      max_objects=4),
        )
        report = run_protocol(split, small_base_cfg(tmp_path / "w"),
                              out_dir=str(tmp_path / "w"), eval_episodes=12)
        for key in ("split_kind", "source_cfg", "target_cfg", "protocol",
                    "per_class_accuracy", "aggregate_accuracy", "seeds",
                    "model_manifest_hash", "underfit", "evaluations"):
            assert key in report, key
        assert report["split_kind"] == "reasoning"
        assert set(report["evaluations"]) == {"source_test", "target_zero_shot"}
        assert (tmp_path / "w" / "report.json").exists()

    def test_reports_reproducible(self, tmp_path):
        split = build_reasoning_split(
            "only_t", "Basic",
            base_config=EpisodeConfig(height=3, width=3, frames=2, history=1,
                                      max_objects=4),
        )
        r1 = run_protocol(split, small_base_cfg(tmp_path / "p1"),
                          out_dir=str(tmp_path / "p1"), eval_episodes=10,
                          deterministic=True)
        r2 = run_protocol(split, small_base_cfg(tmp_path / "p2"),
                          out_dir=str(tmp_path / "p2"), eval_episodes=10,
                          deterministic=True)
        a = json.dumps({k: v for k, v in r1.items()}, sort_keys=True)
        b = json.dumps({k: v for k, v in r2.items()}, sort_keys=True)
        assert a == b

    def test_finetune_zero_samples_equals_zero_shot(self, tmp_path):
        base_cfg = EpisodeConfig(height=3, width=3, frames=2, history=1,
                                 max_objects=4)
        zs = build_reasoning_split("only_t", "Basic", base_config=base_cfg,
                                   protocol="zero_shot")
        ft = build_reasoning_split("only_t", "Basic", base_config=base_cfg,
                                   protocol="finetune", finetune_episodes=0)
        r_zs = run_protocol(zs, small_base_cfg(tmp_path / "zs"),
                            out_dir=str(tmp_path / "zs"), eval_episodes=10,
                            deterministic=True)
        r_ft = run_protocol(ft, small_base_cfg(tmp_path / "ft"),
                            out_dir=str(tmp_path / "ft"), eval_episodes=10,
                            deterministic=True)
        assert (r_ft["evaluations"]["target_finetuned"]
                == r_ft["evaluations"]["target_zero_shot"]
                == r_zs["evaluations"]["target_zero_shot"])
        assert r_ft["evaluations"]["source_after_finetune"] \
            == r_zs["evaluations"]["source_test"]

    def test_finetune_evaluates_both_domains(self, tmp_path):
        split = build_temporal_split(
            Complexity(3, 2), Complexity(4, 3),
            base_config=EpisodeConfig(height=3, width=3, frames=2, history=1,
                                      max_objects=3),
            task_family={"Exist": 1.0},
            protocol="finetune", finetune_episodes=8,
        )
        report = run_protocol(split, small_base_cfg(tmp_path / "t"),
                              out_dir=str(tmp_path / "t"), eval_episodes=8,
                              target_mem_slots=6)
        assert set(report["evaluations"]) == {
            "source_test", "target_zero_shot", "target_finetuned",
            "source_after_finetune",
        }
