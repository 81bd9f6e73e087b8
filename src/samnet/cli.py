"""Command-line surface: corpus generation, training, evaluation, transfer
protocols, and the gradient-check suite."""

from __future__ import annotations

import argparse
import json
import sys

from .minicog import CorpusError, generate_corpus, write_corpus
from .training import (
    config_from_kv,
    evaluate_episodes,
    load_eval_data,
    load_model,
    read_kv_file,
    train,
)

TEMPORAL_KEYS = ("source_objects", "source_frames",
                 "target_objects", "target_frames")
TRANSFER_KEYS = (
    "family_a", "family_b", *TEMPORAL_KEYS,
    "reasoning_mode", "reasoning_t", "group_target",
    "finetune_episodes", "finetune_epochs", "eval_episodes",
    "target_mem_slots",
)


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(
            f"expected an int >= {low}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _parsed_config(args, extra_keys=()):
    """The TrainConfig of `--config` and the values of its `extra_keys`; a
    bad value or an unreadable file is a usage error naming it (exit 2)."""
    try:
        return config_from_kv(read_kv_file(args.config), extra_keys)
    except (OSError, ValueError) as exc:
        args.parser.error(f"{args.config}: {exc}")


def _cmd_gen(args) -> int:
    cfg, _ = _parsed_config(args)
    episode_cfg = cfg.episode_config()
    family = cfg.task_family_weights()
    episodes = generate_corpus(episode_cfg, family, args.count, seed=args.seed)
    write_corpus(args.out, episodes, episode_cfg, family, seed=args.seed)
    print(f"wrote {len(episodes)} episodes to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg, _ = _parsed_config(args)
    result = train(cfg, log=print, deterministic=args.deterministic)
    print(f"final checkpoint: {result.final_checkpoint}")
    print(f"best checkpoint:  {result.best_checkpoint} "
          f"(val accuracy {result.best_accuracy:.4f})")
    print(f"metrics: {result.metrics_path}")
    return 0


def _cmd_eval(args) -> int:
    # a file that cannot be read, or a data config with a bad value, is a
    # usage error naming it; a malformed corpus or checkpoint stays typed.
    # The checkpoint is opened first: a data config generates its corpus.
    try:
        model, _ = load_model(args.ckpt)
    except OSError as exc:
        args.parser.error(f"{args.ckpt}: {exc}")
    try:
        episodes = load_eval_data(args.data)
    except CorpusError:
        raise
    except (OSError, ValueError) as exc:
        args.parser.error(f"{args.data}: {exc}")
    overrides = {"h_r": 0.0, "h_a": 0.0} if args.ablate_writes else None
    result = evaluate_episodes(model, episodes, n_slots=args.mem_slots,
                               gate_overrides=overrides)
    print(json.dumps({
        "loss": round(result.loss, 6),
        "accuracy": round(result.accuracy, 6),
        "per_class_accuracy": {
            cls: round(acc, 6)
            for cls, acc in result.per_class_sorted().items()
        },
        "episodes": len(episodes),
    }, sort_keys=True, indent=2))
    return 0


def _build_split(args, extras: dict, episode_cfg):
    from .minicog import FeatureFamily
    from .transfer import (
        Complexity,
        build_feature_split,
        build_reasoning_split,
        build_temporal_split,
    )

    kind = args.split
    protocol_kw = {"protocol": args.mode}
    # zero finetune episodes is the zero-shot protocol run as a finetune
    for key, low in (("finetune_episodes", 0), ("finetune_epochs", 1)):
        if key in extras:
            protocol_kw[key] = _config_count(args, extras, key, None, low)

    if kind == "feature":
        fam_a = FeatureFamily.by_name(extras.get("family_a", "A"))
        fam_b = FeatureFamily.by_name(extras.get("family_b", "B"))
        return build_feature_split(fam_a, fam_b, base_config=episode_cfg,
                                   **protocol_kw)
    if kind == "temporal":
        missing = [key for key in TEMPORAL_KEYS if key not in extras]
        if missing:
            args.parser.error(f"{args.config}: the temporal split needs "
                              f"{', '.join(missing)}")
        source_objects, source_frames, target_objects, target_frames = (
            _config_count(args, extras, key, None) for key in TEMPORAL_KEYS)
        source = Complexity(source_objects, source_frames)
        target = Complexity(target_objects, target_frames)
        return build_temporal_split(source, target, base_config=episode_cfg,
                                    **protocol_kw)
    reasoning_t = extras.get("reasoning_t", "Basic")
    if "," in reasoning_t:
        reasoning_t = tuple(part.strip() for part in reasoning_t.split(","))
    return build_reasoning_split(
        extras.get("reasoning_mode", "all_but_t"), reasoning_t,
        group_target=extras.get("group_target"), base_config=episode_cfg,
        **protocol_kw,
    )


def _config_count(args, extras: dict, key: str, default, low: int = 1):
    """A config count, an int >= `low`; a usage error naming the key if bad."""
    if key not in extras:
        return default
    try:
        return _int_at_least(extras[key], low)
    except argparse.ArgumentTypeError as exc:
        args.parser.error(f"{args.config}: {key}: {exc}")


def _cmd_transfer(args) -> int:
    from .transfer import run_protocol

    cfg, extras = _parsed_config(args, TRANSFER_KEYS)
    eval_episodes = _config_count(args, extras, "eval_episodes", 2000)
    target_mem_slots = _config_count(args, extras, "target_mem_slots", None)
    split = _build_split(args, extras, cfg.episode_config())
    report = run_protocol(
        split, cfg, out_dir=cfg.out_dir, eval_episodes=eval_episodes,
        target_mem_slots=target_mem_slots,
        log=print, deterministic=args.deterministic,
    )
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def _cmd_gradcheck(args) -> int:
    from .gradsuite import run_gradient_suite

    results = run_gradient_suite(use_float64=args.f64, log=print)
    return 0 if all(r.passed for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="samnet",
        description="Selective-attention memory network: synthetic video QA, "
                    "training, and transfer protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an episode corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen, parser=p)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--deterministic", action="store_true",
                   help="byte-identical reruns (zeroes wall-clock metrics)")
    p.set_defaults(fn=_cmd_train, parser=p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a corpus/config")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True,
                   help="corpus file or data config file")
    p.add_argument("--mem-slots", type=_positive_int, default=None,
                   help="override the number of memory slots at test time")
    p.add_argument("--ablate-writes", action="store_true",
                   help="force the memory write gates to zero")
    p.set_defaults(fn=_cmd_eval, parser=p)

    p = sub.add_parser("transfer", help="run a full transfer protocol")
    p.add_argument("--split", required=True,
                   choices=("feature", "temporal", "reasoning"))
    p.add_argument("--mode", required=True, choices=("zero_shot", "finetune"))
    p.add_argument("--config", required=True)
    p.add_argument("--deterministic", action="store_true")
    p.set_defaults(fn=_cmd_transfer, parser=p)

    p = sub.add_parser("gradcheck", help="run the gradient-check suite")
    p.add_argument("--f64", action="store_true",
                   help="64-bit mode with the tight 1e-5 threshold")
    p.set_defaults(fn=_cmd_gradcheck)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
