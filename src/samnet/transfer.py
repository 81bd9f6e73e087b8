"""Transfer-learning splits and protocols.

Three split kinds connect a source and a target setting: feature splits swap
the allowed attribute combinations between two complementary families,
temporal splits strictly increase the visual complexity (max objects per
frame, frame count), reasoning splits change only the distribution over
question classes. Each builder validates its kind's defining constraint at
construction. `run_protocol` trains on the source, then either tests on the
target immediately (zero-shot) or after a brief fine-tuning pass, reporting
per-class accuracies for every evaluated corpus.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace

from .checkpoint import manifest_hash
from .minicog import (
    COLORS,
    EpisodeConfig,
    FeatureFamily,
    TASK_CLASSES,
    TASK_GROUPS,
    GROUP_TREE,
    answer_set,
    generate_corpus,
)
from .training import EPISODE_KEYS, TrainConfig, evaluate_episodes, load_model, train


class SplitValidationError(ValueError):
    pass


@dataclass(frozen=True)
class Domain:
    """Feature-space descriptor plus marginal-distribution spec: everything
    the generator needs."""

    episode_config: EpisodeConfig


@dataclass(frozen=True)
class Complexity:
    """Visual-input complexity: (max objects per image, frames per video)."""

    max_objects: int
    frames: int

    def __post_init__(self):
        if self.max_objects < 1 or self.frames < 1:
            raise SplitValidationError("complexity components must be >= 1")


@dataclass(frozen=True)
class TaskFamily:
    """Probability distribution over question classes."""

    weights: tuple[tuple[str, float], ...]

    @staticmethod
    def of(weights: dict[str, float]) -> "TaskFamily":
        unknown = sorted(set(weights) - set(TASK_CLASSES))
        if unknown:
            raise SplitValidationError(f"unknown task classes {unknown}")
        total = sum(weights.values())
        if total <= 0 or any(w < 0 for w in weights.values()):
            raise SplitValidationError(
                "task family weights must be non-negative and sum to > 0"
            )
        items = tuple(
            (cls, weights[cls] / total) for cls in sorted(weights)
            if weights[cls] > 0
        )
        return TaskFamily(items)

    def as_dict(self) -> dict[str, float]:
        return dict(self.weights)

    def classes(self) -> tuple[str, ...]:
        return tuple(cls for cls, _ in self.weights)

    def answer_labels(self) -> frozenset:
        out: frozenset = frozenset()
        for cls in self.classes():
            out = out | answer_set(cls)
        return out


@dataclass(frozen=True)
class TransferSplit:
    kind: str  # feature | temporal | reasoning
    source_domain: Domain
    source_family: TaskFamily
    target_domain: Domain
    target_family: TaskFamily
    protocol: str = "zero_shot"  # zero_shot | finetune
    finetune_episodes: int = 5000
    finetune_epochs: int = 1

    def __post_init__(self):
        if self.kind not in ("feature", "temporal", "reasoning"):
            raise SplitValidationError(f"unknown split kind {self.kind!r}")
        if self.protocol not in ("zero_shot", "finetune"):
            raise SplitValidationError(f"unknown protocol {self.protocol!r}")


def _constrained(map_: FeatureFamily) -> dict[str, frozenset]:
    return {
        s: frozenset(map_.colors_for(s))
        for s in map_.allowed
        if frozenset(map_.colors_for(s)) != frozenset(COLORS)
    }


def build_feature_split(family_a: FeatureFamily, family_b: FeatureFamily,
                        base_config: EpisodeConfig | None = None,
                        task_family: dict[str, float] | None = None,
                        protocol: str = "zero_shot",
                        **protocol_kw) -> TransferSplit:
    """Source and target differ only in allowed attribute combinations.

    The two families must be complementary: the same constrained shapes,
    with each shape's color family swapped for its complement, and the two
    families within one variant partitioning the color set.
    """
    ca, cb = _constrained(family_a), _constrained(family_b)
    if ca == cb:
        raise SplitValidationError(
            "feature split requires different marginal distributions "
            "(families are identical)"
        )
    if set(ca) != set(cb):
        raise SplitValidationError(
            f"constrained shapes differ: {sorted(ca)} vs {sorted(cb)}"
        )
    all_colors = frozenset(COLORS)
    for shape, colors_a in ca.items():
        if cb[shape] != all_colors - colors_a:
            raise SplitValidationError(
                f"families are not complementary for shape {shape!r}"
            )
    halves = list(ca.values())
    if len(halves) == 2 and (halves[0] | halves[1]) != all_colors:
        raise SplitValidationError(
            "constrained color families must partition the color set"
        )
    base = base_config or EpisodeConfig(frames=1, history=0)
    family = TaskFamily.of(task_family or {c: 1.0 for c in TASK_CLASSES})
    return TransferSplit(
        kind="feature",
        source_domain=Domain(replace(base, family_name=family_a.name)),
        source_family=family,
        target_domain=Domain(replace(base, family_name=family_b.name)),
        target_family=family,
        protocol=protocol, **protocol_kw,
    )


def build_temporal_split(source: Complexity, target: Complexity,
                         base_config: EpisodeConfig | None = None,
                         task_family: dict[str, float] | None = None,
                         protocol: str = "zero_shot",
                         **protocol_kw) -> TransferSplit:
    """Target complexity must dominate the source with a strict increase.

    Derived knobs: history = frames - 1, and the object headroom beyond the
    source budget becomes extra distractors.
    """
    if target.max_objects < source.max_objects:
        raise SplitValidationError(
            f"temporal split requires n_target >= n_source "
            f"({target.max_objects} < {source.max_objects})"
        )
    if target.frames < source.frames:
        raise SplitValidationError(
            f"temporal split requires m_target >= m_source "
            f"({target.frames} < {source.frames})"
        )
    if target == source:
        raise SplitValidationError(
            "temporal split requires a strict increase in at least one of "
            "(max objects, frames)"
        )
    base = base_config or EpisodeConfig()
    family = TaskFamily.of(task_family or {c: 1.0 for c in TASK_CLASSES})

    def apply(cfg: EpisodeConfig, c: Complexity, extra_distractors: int):
        if c.max_objects > cfg.height * cfg.width - 2:
            raise SplitValidationError(
                f"{c.max_objects} objects cannot fit a "
                f"{cfg.height}x{cfg.width} grid"
            )
        return replace(
            cfg, frames=c.frames, history=c.frames - 1,
            max_objects=c.max_objects,
            distractors=cfg.distractors + extra_distractors,
        )

    extra = target.max_objects - source.max_objects
    return TransferSplit(
        kind="temporal",
        source_domain=Domain(apply(base, source, 0)),
        source_family=family,
        target_domain=Domain(apply(base, target, extra)),
        target_family=family,
        protocol=protocol, **protocol_kw,
    )


def _classes_of(t) -> tuple[str, ...]:
    if isinstance(t, str):
        if t not in TASK_GROUPS:
            raise SplitValidationError(
                f"unknown task group {t!r} (have {sorted(TASK_GROUPS)})"
            )
        return TASK_GROUPS[t]
    classes = tuple(t)
    unknown = sorted(set(classes) - set(TASK_CLASSES))
    if unknown:
        raise SplitValidationError(f"unknown task classes {unknown}")
    if not classes:
        raise SplitValidationError("empty class selection")
    return classes


def build_reasoning_split(mode: str, t, group_target=None,
                          base_config: EpisodeConfig | None = None,
                          protocol: str = "zero_shot",
                          **protocol_kw) -> TransferSplit:
    """Source and target share the domain; only the class distribution moves.

    Modes: train_all (source = everything), only_t (source = target = t),
    all_but_t (source = complement of t, target = t), group (source = one of
    the two top-level groups, target = a leaf inside it). `t` is a leaf
    group name or an explicit collection of task classes.
    """
    base = base_config or EpisodeConfig()
    domain = Domain(base)
    if mode == "group":
        if t not in GROUP_TREE:
            raise SplitValidationError(
                f"unknown top-level group {t!r} (have {sorted(GROUP_TREE)})"
            )
        leaves = GROUP_TREE[t]
        if group_target is None or group_target not in leaves:
            raise SplitValidationError(
                f"group mode needs a target leaf among {leaves}"
            )
        source_classes = tuple(
            cls for leaf in leaves for cls in TASK_GROUPS[leaf]
        )
        target_classes = TASK_GROUPS[group_target]
    else:
        target_classes = _classes_of(t)
        if mode == "train_all":
            source_classes = TASK_CLASSES
        elif mode == "only_t":
            source_classes = target_classes
        elif mode == "all_but_t":
            source_classes = tuple(
                c for c in TASK_CLASSES if c not in set(target_classes)
            )
            if not source_classes:
                raise SplitValidationError("all_but_t leaves no source classes")
        else:
            raise SplitValidationError(f"unknown reasoning mode {mode!r}")
    return TransferSplit(
        kind="reasoning",
        source_domain=domain,
        source_family=TaskFamily.of({c: 1.0 for c in source_classes}),
        target_domain=domain,
        target_family=TaskFamily.of({c: 1.0 for c in target_classes}),
        protocol=protocol, **protocol_kw,
    )


def label_space_report(split: TransferSplit) -> dict:
    """Answer-label overlap between source and target families."""
    source = split.source_family.answer_labels()
    target = split.target_family.answer_labels()
    return {
        "source_labels": sorted(source),
        "target_labels": sorted(target),
        "shared_labels": sorted(source & target),
        "target_only_labels": sorted(target - source),
        "disjoint_excluding_invalid": not (
            (source - {"invalid"}) & (target - {"invalid"})
        ),
    }


def _domain_summary(domain: Domain, family: TaskFamily) -> dict:
    return {
        "episode_config": domain.episode_config.to_dict(),
        "task_family": family.as_dict(),
    }


def _eval_summary(result) -> dict:
    return {
        "aggregate_accuracy": round(result.accuracy, 6),
        "per_class_accuracy": {
            cls: round(acc, 6) for cls, acc in result.per_class_sorted().items()
        },
        "loss": round(result.loss, 6),
    }


def _plateaued(history, tolerance=0.002) -> bool:
    accs = [acc for _, acc, _ in history]
    return any(
        accs[i] - accs[i - 3] < tolerance for i in range(3, len(accs))
    )


def run_protocol(split: TransferSplit, base: TrainConfig, out_dir: str,
                 eval_episodes: int = 2000, target_mem_slots: int | None = None,
                 log=None, deterministic: bool = False) -> dict:
    """Train on the source, evaluate per the split's protocol, emit a report.

    Zero-shot evaluates the source model on the target immediately;
    fine-tuning continues training on the target and then evaluates both
    target and source (measuring degradation on the source domain).
    """
    if eval_episodes < 1:
        raise ValueError(f"eval_episodes must be >= 1, got {eval_episodes}")
    if target_mem_slots is not None and target_mem_slots < 1:
        raise ValueError(f"target_mem_slots must be >= 1, got {target_mem_slots}")
    os.makedirs(out_dir, exist_ok=True)
    source_cfg = replace(
        base,
        out_dir=os.path.join(out_dir, "source"),
        task_family=_family_spec(split.source_family),
        **_episode_kv(split.source_domain.episode_config),
    )
    result = train(source_cfg, log=log, deterministic=deterministic)
    ckpt = result.final_checkpoint
    model, _ = load_model(ckpt)

    eval_seed = base.val_seed + 7919
    source_eval = generate_corpus(
        split.source_domain.episode_config, split.source_family.as_dict(),
        eval_episodes, seed=eval_seed,
    )
    target_eval = generate_corpus(
        split.target_domain.episode_config, split.target_family.as_dict(),
        eval_episodes, seed=eval_seed + 1,
    )

    evaluations = {}
    evaluations["source_test"] = _eval_summary(
        evaluate_episodes(model, source_eval)
    )
    zero_shot = evaluate_episodes(model, target_eval, n_slots=target_mem_slots)
    evaluations["target_zero_shot"] = _eval_summary(zero_shot)
    headline = zero_shot

    if split.protocol == "finetune":
        if split.finetune_episodes > 0:
            steps = max(1, math.ceil(
                split.finetune_episodes * split.finetune_epochs
                / base.batch_size
            ))
            finetune_cfg = replace(
                base,
                out_dir=os.path.join(out_dir, "finetune"),
                task_family=_family_spec(split.target_family),
                max_steps=steps,
                data_seed=base.data_seed + 104729,
                eval_every=0,
                **_episode_kv(split.target_domain.episode_config),
            )
            ft = train(finetune_cfg, log=log, deterministic=deterministic,
                       init_from=ckpt)
            model, _ = load_model(ft.final_checkpoint)
            ckpt = ft.final_checkpoint
        finetuned = evaluate_episodes(model, target_eval,
                                      n_slots=target_mem_slots)
        evaluations["target_finetuned"] = _eval_summary(finetuned)
        evaluations["source_after_finetune"] = _eval_summary(
            evaluate_episodes(model, source_eval)
        )
        headline = finetuned

    report = {
        "split_kind": split.kind,
        "source_cfg": _domain_summary(split.source_domain, split.source_family),
        "target_cfg": _domain_summary(split.target_domain, split.target_family),
        "protocol": {
            "kind": split.protocol,
            "finetune_episodes": split.finetune_episodes,
            "finetune_epochs": split.finetune_epochs,
        },
        "per_class_accuracy": _eval_summary(headline)["per_class_accuracy"],
        "aggregate_accuracy": round(headline.accuracy, 6),
        "seeds": {
            "init_seed": base.init_seed, "data_seed": base.data_seed,
            "val_seed": base.val_seed, "eval_seed": eval_seed,
        },
        "model_manifest_hash": manifest_hash(ckpt),
        "underfit": not _plateaued(result.history),
        "label_spaces": label_space_report(split),
        "evaluations": evaluations,
    }
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return report


def _episode_kv(cfg: EpisodeConfig) -> dict:
    return {key: getattr(cfg, name) for name, key in EPISODE_KEYS.items()}


def _family_spec(family: TaskFamily) -> str:
    return ",".join(f"{cls}:{w}" for cls, w in family.weights)
