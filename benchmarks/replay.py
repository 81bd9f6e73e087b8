"""Traced replay of samnet's public call paths.

The traced run does not probe inside the program. It calls the same public
components, in the same order, as `SAMNet.episode_forward`,
`SAMNet.episode_loss`, `training.train`, `training.evaluate_episodes` and
`transfer.run_protocol`, and records a span around each call. Because the
op sequence is unchanged, a replay reproduces the untraced call's losses,
accuracies and weights bit for bit; the caller compares the two and fails
loudly when the program has drifted from what this file mirrors.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace
from time import perf_counter

import numpy as np

from samnet import tensor as T
from samnet import training, transfer
from samnet.cell import (
    CellState, MemoryState, SAMNet, memory_update, write_head_update,
)
from samnet.checkpoint import load_checkpoint
from samnet.minicog import episode_stream


class ReplayMismatch(RuntimeError):
    """The program no longer matches the call sequence this replay mirrors."""


class Tracer:
    """In-memory span recorder: [name, start, end, parent index, episode id].

    Spans stay in `spans` until the run ends. `counts` holds exact counters
    recorded at the same boundaries.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.episode = -1
        self._next_episode = 0
        self.counts = {
            "forward_episodes": 0, "trained_episodes": 0, "cell_steps": 0,
            "optimizer_steps": 0, "tape_nodes": 0, "tape_episodes": 0,
        }
        # tape walks cost time; the caller turns counting off after set-up
        self.count_tape = True
        self.checkpoint_bytes = 0

    def __call__(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.episode])
        self._stack.append(len(self.spans) - 1)
        return self

    def __enter__(self):
        self.spans[self._stack[-1]][1] = perf_counter()

    def __exit__(self, *exc):
        self.spans[self._stack.pop()][2] = perf_counter()

    def new_episode(self) -> None:
        self.episode = self._next_episode
        self._next_episode += 1

    def total(self, name) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def durations(self, name) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]


def tape_nodes(root) -> int:
    """Nodes that `Tensor.backward` visits from `root`: the same DFS walk."""
    visited = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append(p)
    return len(visited)


def episode_forward(model, token_ids, frames, tr: Tracer, n_slots=None):
    """`SAMNet.episode_forward` (no gate overrides) with a span per layer."""
    cfg = model.config
    if not cfg.memory_enabled or T.DEBUG_CHECKS:
        raise ReplayMismatch("replay covers memory-enabled models without debug checks")
    frames = np.asarray(frames, dtype=T.default_dtype())
    n = n_slots or cfg.mem_slots
    cell = model.cell
    tr.counts["forward_episodes"] += 1
    with tr("encoders.question"):
        enc = model.question_encoder.encode(token_ids)
    with tr("encoders.frame"):
        features = model.frame_encoder.encode(frames)
    mem = MemoryState.initial(n, cfg.d)
    frame_logits = []
    for k in range(frames.shape[0]):
        with tr("cell.visual"):
            keys, values = cell.visual.project(features[k])
        state = cell.initial_state()
        for t in range(1, cfg.steps + 1):
            tr.counts["cell_steps"] += 1
            with tr("cell.controller"):
                c_t, _ = cell.controller.step(enc.q, enc.cw, state.c, t)
            with tr("cell.temporal"):
                tau = cell.temporal.classify(c_t)
            with tr("cell.visual"):
                vo, va = cell.visual.retrieve(keys, values, c_t)
            with tr("cell.memread"):
                mo, rh = cell.memread.retrieve(mem.m, c_t)
            with tr("cell.gates"):
                vs = T.attention_aggregate(va)
                rs = T.attention_aggregate(rh)
                gates = cell.gate_net.gates(vs, rs, tau)
            with tr("cell.memory_write"):
                m_t, _ = memory_update(mem.m, mem.wh, rh, vo, gates.h_r, gates.h_a)
                wh_t = write_head_update(mem.wh, gates.h_a)
            with tr("cell.summary"):
                so_t, _ = cell.summary.update(vo, mo, gates.g_v, gates.g_m, state.so)
            state, mem = CellState(c=c_t, so=so_t), MemoryState(m=m_t, wh=wh_t)
        with tr("cell.answer"):
            frame_logits.append(model.answer_head.logits(state.so, enc.q))
    with tr("cell.answer"):
        return T.stack(frame_logits)


def episode_loss(model, ep, tr: Tracer):
    """`SAMNet.episode_loss`: forward, then the per-frame cross-entropy mean."""
    with tr("minicog.render"):
        frames = ep.frames_symbolic()
    logits = episode_forward(model, ep.token_ids, frames, tr)
    with tr("tensor.loss"):
        answer_ids = np.asarray(ep.answer_ids, dtype=np.int64)
        terms = [
            T.cross_entropy_logits(logits[k], int(answer_ids[k]))
            for k in range(answer_ids.size)
        ]
        total = terms[0]
        for term in terms[1:]:
            total = T.add(total, term)
        return T.div(total, float(len(terms)))


def generate(cfg, family, count, seed, tr: Tracer):
    """`generate_corpus`, one span per generated episode."""
    stream = episode_stream(cfg, family, seed)
    out = []
    for _ in range(count):
        with tr("minicog.gen"):
            out.append(next(stream))
    return out


def evaluate(model, episodes, tr: Tracer, n_slots=None):
    """`evaluate_episodes` without gate overrides; returns an EvalResult."""
    total_loss = 0.0
    correct = 0
    frames = 0
    hit: dict[str, int] = {}
    seen: dict[str, int] = {}
    with tr("training.eval"):
        for ep in episodes:
            tr.new_episode()
            with tr("training.eval_episode"):
                with tr("minicog.render"):
                    grids = ep.frames_symbolic()
                answers = np.asarray(ep.answer_ids)
                with T.no_grad():
                    logits = episode_forward(model, ep.token_ids, grids, tr,
                                             n_slots=n_slots).data
                shifted = logits - logits.max(axis=1, keepdims=True)
                logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
                total_loss += float(-logp[np.arange(len(answers)), answers].mean())
                hits = int((logits.argmax(axis=1) == answers).sum())
            correct += hits
            frames += len(answers)
            cls = ep.program.task_class
            hit[cls] = hit.get(cls, 0) + hits
            seen[cls] = seen.get(cls, 0) + len(answers)
    return training.EvalResult(
        loss=total_loss / max(1, len(episodes)),
        accuracy=correct / max(1, frames),
        per_class={cls: hit[cls] / seen[cls] for cls in seen},
        seconds=0.0,
    )


def save_model(path, model, cfg, step, tr: Tracer):
    with tr("checkpoint.save"):
        training.save_model(path, model, cfg, step)
    if not tr.checkpoint_bytes:
        tr.checkpoint_bytes = os.path.getsize(path)


def load_model(path, tr: Tracer):
    with tr("checkpoint.load"):
        model, _ = training.load_model(path)
    return model


def train(cfg, tr: Tracer, init_from=None):
    """`training.train` for a run that does not hit non-finite values.

    Writes the same checkpoints and returns the validation history.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    episode_cfg = cfg.episode_config()
    family = cfg.task_family_weights()
    model = SAMNet(cfg.model_config(), init_seed=cfg.init_seed)
    if init_from is not None:
        with tr("checkpoint.load"):
            arrays, _, _ = load_checkpoint(init_from)
        model.store.load_arrays(arrays)
    optimizer = training.Adam(model.store.parameters(), lr=cfg.learning_rate)
    params = optimizer.params
    val_episodes = generate(episode_cfg, family, cfg.val_episodes, cfg.val_seed, tr)
    final_path = os.path.join(cfg.out_dir, "final.ckpt")
    best_path = os.path.join(cfg.out_dir, "best.ckpt")
    save_model(final_path, model, cfg, 0, tr)
    save_model(best_path, model, cfg, 0, tr)
    best_accuracy = -1.0
    history = []
    stream = episode_stream(episode_cfg, family, cfg.data_seed)

    def run_eval(step):
        nonlocal best_accuracy
        result = evaluate(model, val_episodes, tr)
        save_model(final_path, model, cfg, step, tr)
        if result.accuracy > best_accuracy:
            best_accuracy = result.accuracy
            save_model(best_path, model, cfg, step, tr)
        history.append((step, result.accuracy, result.loss))

    for step in range(1, cfg.max_steps + 1):
        model.store.zero_grad()
        batch_loss = 0.0
        for _ in range(cfg.batch_size):
            tr.new_episode()
            with tr("minicog.gen"):
                ep = next(stream)
            with tr("training.episode"):
                loss = episode_loss(model, ep, tr)
                batch_loss += loss.item()
                with tr("tensor.backward"):
                    loss.backward()
            tr.counts["trained_episodes"] += 1
            if tr.count_tape:
                tr.counts["tape_nodes"] += tape_nodes(loss)
                tr.counts["tape_episodes"] += 1
        if not np.isfinite(batch_loss):
            raise ReplayMismatch(f"non-finite loss at step {step}")
        tr.episode = -1
        grads = [
            (p.grad if p.grad is not None else np.zeros_like(p.data))
            / cfg.batch_size
            for p in params
        ]
        with tr("training.clip"):
            grads, _ = training.clip_global_norm(grads, cfg.grad_clip)
        with tr("training.adam"):
            optimizer.step(grads)
        tr.counts["optimizer_steps"] += 1
        if cfg.eval_every and step % cfg.eval_every == 0:
            run_eval(step)

    last_evaluated = cfg.eval_every and cfg.max_steps % cfg.eval_every == 0
    if cfg.max_steps > 0 and not last_evaluated:
        run_eval(cfg.max_steps)
    return history


def run_protocol(split, base, out_dir, eval_episodes, target_mem_slots, tr: Tracer):
    """`transfer.run_protocol` for a finetune split; returns its evaluations."""
    if split.protocol != "finetune" or split.finetune_episodes <= 0:
        raise ReplayMismatch("replay covers the finetune protocol only")
    os.makedirs(out_dir, exist_ok=True)
    source_cfg = replace(
        base, out_dir=os.path.join(out_dir, "source"),
        task_family=transfer._family_spec(split.source_family),
        **transfer._episode_kv(split.source_domain.episode_config),
    )
    with tr("transfer.source_train"):
        train(source_cfg, tr)
    ckpt = os.path.join(source_cfg.out_dir, "final.ckpt")
    model = load_model(ckpt, tr)
    eval_seed = base.val_seed + 7919
    with tr("transfer.corpus_gen"):
        source_eval = generate(split.source_domain.episode_config,
                               split.source_family.as_dict(), eval_episodes,
                               eval_seed, tr)
        target_eval = generate(split.target_domain.episode_config,
                               split.target_family.as_dict(), eval_episodes,
                               eval_seed + 1, tr)
    evaluations = {}
    with tr("transfer.eval"):
        evaluations["source_test"] = transfer._eval_summary(
            evaluate(model, source_eval, tr))
        evaluations["target_zero_shot"] = transfer._eval_summary(
            evaluate(model, target_eval, tr, n_slots=target_mem_slots))
    steps = max(1, math.ceil(
        split.finetune_episodes * split.finetune_epochs / base.batch_size))
    finetune_cfg = replace(
        base, out_dir=os.path.join(out_dir, "finetune"),
        task_family=transfer._family_spec(split.target_family),
        max_steps=steps, data_seed=base.data_seed + 104729, eval_every=0,
        **transfer._episode_kv(split.target_domain.episode_config),
    )
    with tr("transfer.finetune"):
        train(finetune_cfg, tr, init_from=ckpt)
    model = load_model(os.path.join(finetune_cfg.out_dir, "final.ckpt"), tr)
    with tr("transfer.eval"):
        finetuned = evaluate(model, target_eval, tr, n_slots=target_mem_slots)
        evaluations["target_finetuned"] = transfer._eval_summary(finetuned)
        evaluations["source_after_finetune"] = transfer._eval_summary(
            evaluate(model, source_eval, tr))
    return evaluations
