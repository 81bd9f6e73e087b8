"""Batched evaluation against the per-episode evaluation it replaced.

`training.evaluate_episodes` forwards episodes in batches of equal frame
shape, whatever their question lengths. `reference_evaluate` is the former
loop, one `episode_forward` per episode; every per-episode logit must match
it bit for bit and every `EvalResult` field but `seconds` must be equal.
"""

import time

import numpy as np
import pytest

from samnet import tensor as T
from samnet import training
from samnet.cell import SAMNet
from samnet.minicog import generate_corpus
from samnet.training import EvalResult, config_from_preset, evaluate_episodes


def reference_logits(model, episodes, n_slots=None, gate_overrides=None):
    out = []
    with T.no_grad():
        for ep in episodes:
            out.append(model.episode_forward(
                ep.token_ids, ep.frames_symbolic(), n_slots=n_slots,
                gate_overrides=gate_overrides,
            ).data)
    return out


def reference_evaluate(model, episodes, n_slots=None,
                       gate_overrides=None) -> EvalResult:
    """The per-episode `evaluate_episodes` loop."""
    t0 = time.perf_counter()
    total_loss = 0.0
    correct = 0
    frames = 0
    per_class_hit: dict[str, int] = {}
    per_class_n: dict[str, int] = {}
    for ep in episodes:
        grids = ep.frames_symbolic()
        answers = np.asarray(ep.answer_ids)
        with T.no_grad():
            logits = model.episode_forward(
                ep.token_ids, grids, n_slots=n_slots,
                gate_overrides=gate_overrides,
            ).data
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        total_loss += float(-logp[np.arange(len(answers)), answers].mean())
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


def model_and_episodes(preset, count, seed=3, **model_kw):
    cfg = config_from_preset(preset, task_family="all", **model_kw)
    model = SAMNet(cfg.model_config(), init_seed=seed)
    episodes = generate_corpus(cfg.episode_config(), cfg.task_family_weights(),
                               count, seed=seed + 100)
    return model, episodes


def assert_matches_reference(model, episodes, n_slots=None, gate_overrides=None):
    expected = reference_logits(model, episodes, n_slots, gate_overrides)
    got, _ = training._eval_logits(model, episodes, n_slots, gate_overrides)
    assert len(got) == len(expected)
    for i, (a, b) in enumerate(zip(got, expected)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b), f"episode {i} logits differ"
    batched = evaluate_episodes(model, episodes, n_slots=n_slots,
                                gate_overrides=gate_overrides)
    reference = reference_evaluate(model, episodes, n_slots=n_slots,
                                   gate_overrides=gate_overrides)
    assert batched.loss == reference.loss
    assert batched.accuracy == reference.accuracy
    assert list(batched.per_class.items()) == list(reference.per_class.items())


def record_batches(model, monkeypatch) -> list:
    """Question lengths of each batched `episode_forward` call, in order."""
    calls = []
    forward = model.episode_forward

    def spy(token_ids, frames, **kw):
        if np.ndim(token_ids[0]) == 1:
            calls.append([len(ids) for ids in token_ids])
        return forward(token_ids, frames, **kw)

    monkeypatch.setattr(model, "episode_forward", spy)
    return calls


@pytest.mark.parametrize("preset", ["toy-canonical", "toy-hard"])
@pytest.mark.parametrize("cap", [32, 3])
def test_mixed_question_lengths(preset, cap, monkeypatch):
    monkeypatch.setattr(training, "_EVAL_BATCH", cap)
    model, episodes = model_and_episodes(preset, 24)
    lengths = [len(ep.tokens) for ep in episodes]
    assert len(set(lengths)) > 2
    assert max(lengths.count(n) for n in lengths) > 3  # cap 3 splits a group
    calls = record_batches(model, monkeypatch)
    training._eval_logits(model, episodes, None, None)
    # shortest questions first, then cut into batches of at most `cap`
    ordered = sorted(lengths)
    assert calls == [ordered[i:i + cap] for i in range(0, len(ordered), cap)]
    assert any(len(set(batch)) > 1 for batch in calls)
    assert_matches_reference(model, episodes)


@pytest.mark.parametrize("preset", ["toy-canonical", "toy-hard"])
def test_every_length_distinct(preset, monkeypatch):
    model, pool = model_and_episodes(preset, 48)
    by_length = {}
    for ep in pool:
        by_length.setdefault(len(ep.tokens), ep)
    episodes = list(by_length.values())
    assert len(episodes) > 5
    calls = record_batches(model, monkeypatch)
    assert_matches_reference(model, episodes)
    assert calls[0] == sorted(len(ep.tokens) for ep in episodes)


@pytest.mark.parametrize("n_slots", [2, 16])
def test_slot_count_other_than_trained(n_slots):
    for preset in ("toy-canonical", "toy-hard"):
        model, episodes = model_and_episodes(preset, 12)
        assert model.config.mem_slots != n_slots
        assert_matches_reference(model, episodes, n_slots=n_slots)


def test_write_ablation_overrides():
    model, episodes = model_and_episodes("toy-canonical", 16)
    assert_matches_reference(model, episodes, n_slots=6,
                             gate_overrides={"h_r": 0.0, "h_a": 0.0})
    assert_matches_reference(model, episodes, gate_overrides={"g_v": 1.0})
    for preset in ("toy-canonical", "toy-hard"):
        model, episodes = model_and_episodes(preset, 16)
        assert_matches_reference(model, episodes, n_slots=16,
                                 gate_overrides={"h_r": 0.0, "h_a": 0.0})


def test_memory_disabled():
    for preset in ("toy-canonical", "toy-hard"):
        model, episodes = model_and_episodes(preset, 16, memory_enabled=False)
        assert not model.config.memory_enabled
        assert_matches_reference(model, episodes)


def test_two_frame_counts_in_one_list():
    model, short = model_and_episodes("toy-canonical", 10)
    cfg = config_from_preset("toy-canonical", task_family="all",
                             frames=6, history=5)
    long = generate_corpus(cfg.episode_config(), cfg.task_family_weights(),
                           10, seed=7)
    mixed = [ep for pair in zip(short, long) for ep in pair]
    assert {len(ep.scenes) for ep in mixed} == {4, 6}
    assert_matches_reference(model, mixed)


def test_one_episode(monkeypatch):
    for preset in ("toy-canonical", "toy-hard"):
        model, episodes = model_and_episodes(preset, 1)
        calls = record_batches(model, monkeypatch)
        assert_matches_reference(model, episodes)
        assert calls[0] == [len(episodes[0].tokens)]


def parameter_grads(model):
    return {p.name: p.grad for p in model.store.parameters()}


def test_batched_forward_records_and_matches():
    model, episodes = model_and_episodes("toy-canonical", 12)
    n = len(episodes[0].tokens)
    same = [ep for ep in episodes if len(ep.tokens) == n][:2]
    mixed = [episodes[0]] + [ep for ep in episodes if len(ep.tokens) != n][:2]
    assert len(same) == 2 and len({len(ep.tokens) for ep in mixed}) > 1
    for batch, ids in ((same, np.array([ep.token_ids for ep in same])),
                       (mixed, [ep.token_ids for ep in mixed])):
        frames = np.stack([ep.frames_symbolic() for ep in batch])
        with T.episode_batch():
            recorded = model.episode_forward(ids, frames)
        assert recorded.requires_grad
        assert recorded.shape == (len(batch), 4, model.config.num_answers)
        for a, b in zip(recorded.data, reference_logits(model, batch)):
            assert np.array_equal(a, b)
        # one tape for the batch against one tape per episode
        model.store.zero_grad()
        for ep in batch:
            model.episode_loss(ep.token_ids, ep.frames_symbolic(),
                               ep.answer_ids).backward()
        expected = parameter_grads(model)
        model.store.zero_grad()
        with T.episode_batch():
            loss = model.episode_loss(ids, frames, [ep.answer_ids for ep in batch])
        loss.backward()
        for name, g in parameter_grads(model).items():
            assert np.array_equal(g, expected[name]), name
