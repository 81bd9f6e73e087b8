"""Training loop, evaluation, and metrics emission.

Training is single-threaded and fully seeded: episodes stream from the
generator, and an Adam step with global-norm clipping updates the
parameters once per batch. A step forwards and back-propagates its batch
in chunks of consecutive episodes, each chunk on one tape; a tape budget in
frame-feature elements (`_TAPE_BUDGET`) sets the chunk size from the
episodes' frame count, grid and width, so a tape's memory stays about the
same whatever the episode size. A chunk gives every parameter gradient, bit
for bit, that a loop of one-episode tapes gives (see the batch-axis note in
`tensor`), so the chunk size changes speed and memory only. Identical
configs and seeds therefore produce byte-identical checkpoints and metrics
files.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import tensor as T
from .cell import ModelConfig, SAMNet
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .minicog import (
    ANSWERS,
    EpisodeConfig,
    EpisodeConfigError,
    GRID_CHANNELS,
    VOCABULARY,
    episode_stream,
    generate_corpus,
    parse_task_family,
    read_corpus,
)

METRIC_BASE_COLUMNS = ("step", "split", "loss", "accuracy", "seconds")


class NonFiniteLossError(RuntimeError):
    pass


_BOOLS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}

# the TrainConfig key of each EpisodeConfig field
EPISODE_KEYS = {"height": "grid_height", "width": "grid_width", "frames": "frames",
                "history": "history", "distractors": "distractors",
                "max_objects": "max_objects", "family_name": "family"}


@dataclass
class TrainConfig:
    # model
    d: int = 128
    reasoning_steps: int = 8
    mem_slots: int = 8
    gate_hidden: int = 0
    memory_enabled: bool = True
    # optimizer
    learning_rate: float = 1e-4
    batch_size: int = 32
    max_steps: int = 1000
    grad_clip: float = 10.0
    # data
    grid_height: int = 5
    grid_width: int = 5
    frames: int = 4
    history: int = 3
    distractors: int = 1
    max_objects: int = 6
    family: str = "any"
    task_family: str = "all"
    # evaluation
    eval_every: int = 200
    val_episodes: int = 500
    # seeds
    init_seed: int = 0
    data_seed: int = 1
    val_seed: int = 2
    # output
    out_dir: str = "runs/default"

    def __post_init__(self):
        """Reject counts the model or the loop cannot run and task families
        the generator does not know, naming the key."""
        for key, low in (("d", 2), ("reasoning_steps", 1), ("mem_slots", 1),
                         ("batch_size", 1), ("max_steps", 0), ("val_episodes", 1)):
            value = getattr(self, key)
            if value < low:
                raise ValueError(f"{key}: must be >= {low}, got {value}")
        if self.d % 2:  # the question Bi-LSTM gives each direction d/2
            raise ValueError(f"d: must be even, got {self.d}")
        try:
            self.episode_config()
        except EpisodeConfigError as exc:
            raise ValueError(f"{EPISODE_KEYS[exc.name]}: {exc.problem}") from None
        try:
            self.task_family_weights()
        except ValueError as exc:
            raise ValueError(f"task_family: {exc}") from None

    def episode_config(self) -> EpisodeConfig:
        return EpisodeConfig(**{name: getattr(self, key)
                                for name, key in EPISODE_KEYS.items()})

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            vocab_size=len(VOCABULARY), num_answers=len(ANSWERS),
            in_channels=GRID_CHANNELS, d=self.d, steps=self.reasoning_steps,
            mem_slots=self.mem_slots, gate_hidden=self.gate_hidden,
            memory_enabled=self.memory_enabled,
        )

    def task_family_weights(self) -> dict[str, float]:
        return parse_task_family(self.task_family)

    def to_kv(self) -> dict[str, str]:
        return {f.name: str(getattr(self, f.name)) for f in fields(self)}

    @staticmethod
    def from_kv(kv: dict[str, str]) -> "TrainConfig":
        cfg = TrainConfig()
        out = {}
        for f in fields(TrainConfig):
            if f.name not in kv:
                continue
            raw = kv[f.name]
            if f.type == "bool":
                if raw.strip().lower() not in _BOOLS:
                    raise ValueError(f"{f.name}: expected one of "
                                     f"1/0/true/false/yes/no, got {raw!r}")
                out[f.name] = _BOOLS[raw.strip().lower()]
            elif f.type in ("int", "float"):
                try:
                    out[f.name] = int(raw) if f.type == "int" else float(raw)
                except ValueError:
                    raise ValueError(
                        f"{f.name}: expected {f.type}, got {raw!r}") from None
            else:
                out[f.name] = raw
        return replace(cfg, **out)


PRESETS: dict[str, dict[str, str]] = {
    # canonical-variant analog at desk scale: 4 frames / history 3 / 1 distractor
    "toy-canonical": {
        "d": "64", "reasoning_steps": "4", "mem_slots": "4",
        "grid_height": "5", "grid_width": "5", "frames": "4", "history": "3",
        "distractors": "1", "max_objects": "6",
        "learning_rate": "0.0006", "batch_size": "32", "max_steps": "1200",
        "eval_every": "150", "val_episodes": "500",
    },
    # hard-variant analog: 8 frames / history 7 / more distractors, bigger grid
    "toy-hard": {
        "d": "64", "reasoning_steps": "4", "mem_slots": "8",
        "grid_height": "6", "grid_width": "6", "frames": "8", "history": "7",
        "distractors": "4", "max_objects": "10",
        "learning_rate": "0.0006", "batch_size": "32", "max_steps": "2400",
        "eval_every": "300", "val_episodes": "500",
    },
}


def read_kv_file(path) -> dict[str, str]:
    """Key-value text file: `key = value` lines, '#' comments."""
    kv: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            kv[key.strip()] = value.strip()
    return kv


def config_from_kv(kv: dict[str, str], extra_keys=()) -> tuple[TrainConfig, dict]:
    """Build a TrainConfig from raw key-values; preset keys expand first.

    Keys listed in `extra_keys` are split off and returned separately;
    anything else unknown is an error.
    """
    kv = dict(kv)
    extras = {k: kv.pop(k) for k in list(kv) if k in set(extra_keys)}
    merged: dict[str, str] = {}
    preset = kv.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r} (have {sorted(PRESETS)})")
        merged.update(PRESETS[preset])
    known = {f.name for f in fields(TrainConfig)}
    unknown = sorted(set(kv) - known)
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    merged.update(kv)
    return TrainConfig.from_kv(merged), extras


def parse_config_file(path) -> TrainConfig:
    """Strict TrainConfig from a key-value file, with optional preset line."""
    cfg, _ = config_from_kv(read_kv_file(path))
    return cfg


def config_from_preset(name: str, **overrides) -> TrainConfig:
    cfg = TrainConfig.from_kv(PRESETS[name])
    return replace(cfg, **overrides) if overrides else cfg


class Adam:
    """Adaptive moment estimation with bias correction."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * (g * g)
            m_hat = self.m[i] / bias1
            v_hat = self.v[i] / bias2
            p.value.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_global_norm(grads, max_norm: float):
    total = float(sum(float((g * g).sum()) for g in grads))
    norm = total ** 0.5
    if norm > max_norm > 0:
        scale = max_norm / norm
        grads = [g * scale for g in grads]
    return grads, norm


@dataclass
class EvalResult:
    loss: float
    accuracy: float
    per_class: dict[str, float]
    seconds: float

    def per_class_sorted(self):
        return dict(sorted(self.per_class.items()))


# Episodes per batched evaluation forward. Per episode a batch holds its
# frame features, rendered frames, one frame's keys and values, its memory
# and its contextual words: about 0.15 MB at toy-hard with 16 slots.
# Measured on 256 toy-hard episodes at 16 slots (one thread), peak RSS was
# 39.7 MB at a cap of 1 and 43.9 MB at 32, so about 0.13 MB per episode. The
# frame CNN runs one episode at a time, so its im2col buffers and its first
# layer's output do not grow.
_EVAL_BATCH = 32


# Frame-feature elements (episodes x frames x grid cells x d) per training
# tape, which sets how many episodes share a tape. `Tensor.backward` frees
# each inner value once it is swept, and a tape's peak holds about 0.32 MB
# per toy-canonical episode (6,400 elements), 0.84 MB per toy-hard one
# (18,432) and 0.47 MB per six-frame toy-canonical one (9,600), about 0.05 KB
# per element at all three. This budget gives toy-canonical 16 episodes per
# tape, toy-hard 5 and six-frame videos 10. On train-canonical (batch 32),
# two tapes of 16 raised peak RSS by 2.2% over three of 11 without the
# release (median of 10 runs); one tape of 32 raised it by 12.7% (two runs),
# against a 10% bound.
_TAPE_BUDGET = 102_400


def _train_chunk_size(cfg: TrainConfig) -> int:
    """Episodes per training tape at most, from the tape budget and an
    episode's frame-feature size."""
    per_episode = cfg.frames * cfg.grid_height * cfg.grid_width * cfg.d
    return max(1, _TAPE_BUDGET // per_episode)


def _train_chunks(cfg: TrainConfig) -> list[int]:
    """Sizes of the consecutive chunks a step's batch is trained in, one
    tape each: as few as `_train_chunk_size` allows, equal give or take one."""
    n = -(-cfg.batch_size // _train_chunk_size(cfg))
    return [cfg.batch_size // n + (i < cfg.batch_size % n) for i in range(n)]


def _first_non_finite(model: SAMNet, episodes) -> int:
    """Index of the first episode whose own loss meets a non-finite value:
    the episode a loop of one-episode tapes stops at."""
    with T.no_grad():
        for i, ep in enumerate(episodes):
            try:
                model.episode_loss(ep.token_ids, ep.frames_symbolic(),
                                   ep.answer_ids)
            except T.NonFiniteError:
                return i
    return len(episodes) - 1


def _train_chunk(model: SAMNet, episodes) -> list[float]:
    """Forward and back-propagate episodes on one tape, adding their
    gradients to the parameters'; returns the per-episode losses."""
    with T.episode_batch():
        loss = model.episode_loss(
            [ep.token_ids for ep in episodes],
            np.stack([ep.frames_symbolic() for ep in episodes]),
            [ep.answer_ids for ep in episodes],
        )
    loss.backward()
    return [float(x) for x in loss.data]


def _eval_logits(model: SAMNet, episodes, n_slots, gate_overrides):
    """Per-episode logits (K, num_answers) and losses, forwarded in batches
    of episodes with equal frame shape; no padding, so each is bit-identical
    to the episode's own forward and loss."""
    groups: dict[tuple, list[int]] = {}
    for i, ep in enumerate(episodes):
        key = (len(ep.scenes), ep.config.height, ep.config.width)
        groups.setdefault(key, []).append(i)
    logits = [None] * len(episodes)
    losses = [None] * len(episodes)
    with T.no_grad(), T.episode_batch():
        for members in groups.values():
            # by question length, so that each batch spans few length groups
            members.sort(key=lambda i: len(episodes[i].token_ids))
            for start in range(0, len(members), _EVAL_BATCH):
                chunk = members[start:start + _EVAL_BATCH]
                out = model.episode_forward(
                    [episodes[i].token_ids for i in chunk],
                    np.stack([episodes[i].frames_symbolic() for i in chunk]),
                    n_slots=n_slots, gate_overrides=gate_overrides,
                )
                loss = T.cross_entropy_logits(
                    out, np.array([episodes[i].answer_ids for i in chunk]))
                for i, row, row_loss in zip(chunk, out.data, loss.data):
                    logits[i], losses[i] = row, row_loss
    return logits, losses


def evaluate_episodes(model: SAMNet, episodes, n_slots=None,
                      gate_overrides=None) -> EvalResult:
    """Frame-level accuracy and mean loss over a fixed episode list."""
    if not episodes:
        raise ValueError("evaluation needs at least one episode")
    t0 = time.perf_counter()
    total_loss = 0.0
    correct = 0
    frames = 0
    per_class_hit: dict[str, int] = {}
    per_class_n: dict[str, int] = {}
    all_logits, losses = _eval_logits(model, episodes, n_slots, gate_overrides)
    for ep, logits, loss in zip(episodes, all_logits, losses):
        answers = np.asarray(ep.answer_ids)
        total_loss += float(loss)
        pred = logits.argmax(axis=1)
        hits = int((pred == answers).sum())
        correct += hits
        frames += len(answers)
        cls = ep.program.task_class
        per_class_hit[cls] = per_class_hit.get(cls, 0) + hits
        per_class_n[cls] = per_class_n.get(cls, 0) + len(answers)
    per_class = {
        cls: per_class_hit[cls] / per_class_n[cls] for cls in per_class_n
    }
    return EvalResult(
        loss=total_loss / len(episodes),
        accuracy=correct / frames,
        per_class=per_class,
        seconds=time.perf_counter() - t0,
    )


def majority_class_rate(episodes) -> float:
    """Frequency of the most common frame answer; the trivial baseline."""
    counts: dict[int, int] = {}
    total = 0
    for ep in episodes:
        for a in ep.answer_ids:
            counts[a] = counts.get(a, 0) + 1
            total += 1
    return max(counts.values()) / total if total else 0.0


class MetricsWriter:
    """Append-only CSV, one row per evaluation, step-monotone."""

    def __init__(self, path, task_classes):
        self.path = path
        self.classes = sorted(task_classes)
        self.last_step = -1
        with open(path, "w", encoding="utf-8") as fh:
            cols = list(METRIC_BASE_COLUMNS) + [f"acc_{c}" for c in self.classes]
            fh.write(",".join(cols) + "\n")

    def append(self, step: int, split: str, result: EvalResult) -> None:
        if step < self.last_step:
            raise ValueError(f"metrics step going backwards: {step}")
        self.last_step = step
        row = [str(step), split, f"{result.loss:.6f}", f"{result.accuracy:.6f}",
               f"{result.seconds:.3f}"]
        row += [
            f"{result.per_class[c]:.6f}" if c in result.per_class else ""
            for c in self.classes
        ]
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(",".join(row) + "\n")


def _checkpoint_hypers(model: SAMNet, cfg: TrainConfig, step: int) -> dict[str, str]:
    hypers = model.hyper_manifest()
    for key, value in cfg.to_kv().items():
        hypers[f"cfg.{key}"] = value
    hypers["trained_steps"] = str(step)
    return hypers


def save_model(path, model: SAMNet, cfg: TrainConfig, step: int) -> None:
    save_checkpoint(path, model.store.state_arrays(),
                    _checkpoint_hypers(model, cfg, step))


def load_model(path):
    """Rebuild a model from a checkpoint; returns (model, hypers). Raises
    CheckpointError, naming the path, when the header's architecture is
    malformed or does not fit the stored parameters."""
    arrays, hypers, _ = load_checkpoint(path)
    try:
        model = SAMNet(SAMNet.config_from_hypers(hypers), init_seed=0)
        model.store.load_arrays(arrays)
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad model header: {exc!r}") from exc
    return model, hypers


@dataclass
class TrainResult:
    final_checkpoint: str
    best_checkpoint: str
    metrics_path: str
    steps: int
    best_accuracy: float
    history: list = field(default_factory=list)


def train(cfg: TrainConfig, log=None, deterministic: bool = False,
          init_from: str | None = None) -> TrainResult:
    """Train per config; writes final/best checkpoints and a metrics CSV.

    Training is always sequential and seeded; `deterministic` additionally
    zeroes the wall-clock column of the metrics file so two identical runs
    produce byte-identical outputs. `init_from` warm-starts from an existing
    checkpoint with the same architecture (used for fine-tuning).
    """
    episode_cfg = cfg.episode_config()
    family = cfg.task_family_weights()
    os.makedirs(cfg.out_dir, exist_ok=True)
    model = SAMNet(cfg.model_config(), init_seed=cfg.init_seed)
    if init_from is not None:
        arrays, _, _ = load_checkpoint(init_from)
        model.store.load_arrays(arrays)
    optimizer = Adam(model.store.parameters(), lr=cfg.learning_rate)
    params = optimizer.params

    val_episodes = generate_corpus(episode_cfg, family, cfg.val_episodes,
                                   seed=cfg.val_seed)
    metrics = MetricsWriter(os.path.join(cfg.out_dir, "metrics.csv"), family)
    final_path = os.path.join(cfg.out_dir, "final.ckpt")
    best_path = os.path.join(cfg.out_dir, "best.ckpt")

    save_model(final_path, model, cfg, 0)
    save_model(best_path, model, cfg, 0)
    best_accuracy = -1.0
    history = []
    stream = episode_stream(episode_cfg, family, cfg.data_seed)
    episode_index = 0

    def run_eval(step):
        nonlocal best_accuracy
        result = evaluate_episodes(model, val_episodes)
        if deterministic:
            result.seconds = 0.0
        metrics.append(step, "val", result)
        save_model(final_path, model, cfg, step)
        if result.accuracy > best_accuracy:
            best_accuracy = result.accuracy
            save_model(best_path, model, cfg, step)
        history.append((step, result.accuracy, result.loss))
        if log:
            log(f"step {step}: val loss {result.loss:.4f} "
                f"acc {result.accuracy:.4f}")
        return result

    chunk_sizes = _train_chunks(cfg)
    for step in range(1, cfg.max_steps + 1):
        model.store.zero_grad()
        batch_first = episode_index
        batch_loss = 0.0
        for size in chunk_sizes:
            chunk = [next(stream) for _ in range(size)]
            try:
                for loss in _train_chunk(model, chunk):
                    batch_loss += loss
            except T.NonFiniteError:
                episode_index += _first_non_finite(model, chunk) + 1
                batch_loss = float("nan")
                break
            episode_index += len(chunk)
        if not np.isfinite(batch_loss):
            raise NonFiniteLossError(
                f"non-finite loss at step {step}; batch episode seeds "
                f"[{cfg.data_seed}, {batch_first}..{episode_index - 1}]; "
                f"last good checkpoint kept at {final_path}"
            )
        grads = [
            (p.grad if p.grad is not None else np.zeros_like(p.data))
            / cfg.batch_size
            for p in params
        ]
        grads, _ = clip_global_norm(grads, cfg.grad_clip)
        optimizer.step(grads)
        if cfg.eval_every and step % cfg.eval_every == 0:
            try:
                run_eval(step)
            except T.NonFiniteError as exc:
                raise NonFiniteLossError(
                    f"non-finite values after step {step}; batch episode "
                    f"seeds [{cfg.data_seed}, {batch_first}..{episode_index - 1}]; "
                    f"last good checkpoint kept at {final_path}"
                ) from exc

    last_evaluated = cfg.eval_every and cfg.max_steps % cfg.eval_every == 0
    if cfg.max_steps > 0 and not last_evaluated:
        run_eval(cfg.max_steps)
    return TrainResult(
        final_checkpoint=final_path, best_checkpoint=best_path,
        metrics_path=metrics.path, steps=cfg.max_steps,
        best_accuracy=best_accuracy, history=history,
    )


def load_eval_data(spec_path):
    """Evaluation data: a corpus file, or a config file describing one."""
    with open(spec_path, encoding="utf-8") as fh:
        first = fh.readline().strip()
    if first.startswith("{"):
        episodes, _ = read_corpus(spec_path)
        return episodes
    cfg = parse_config_file(spec_path)
    return generate_corpus(cfg.episode_config(), cfg.task_family_weights(),
                           cfg.val_episodes, seed=cfg.val_seed)


def evaluate_checkpoint(ckpt_path, episodes, n_slots=None,
                        gate_overrides=None):
    model, hypers = load_model(ckpt_path)
    result = evaluate_episodes(model, episodes, n_slots=n_slots,
                               gate_overrides=gate_overrides)
    return result, hypers
