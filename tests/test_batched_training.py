"""Chunked training tapes against the per-episode loop they replaced.

`training.train` forwards and back-propagates each step's batch in chunks
of consecutive episodes (`training._train_chunks`: as many per tape as
`_TAPE_BUDGET` frame-feature elements allow), each chunk on one tape.
`reference_backward` is the former loop, one tape and one `backward()` per
episode; after each, every parameter gradient and every loss must match it
bit for bit.
"""

import numpy as np
import pytest

from samnet import tensor as T
from samnet import training
from samnet.cell import SAMNet
from samnet.checkpoint import load_checkpoint
from samnet.minicog import generate_corpus
from samnet.training import NonFiniteLossError, config_from_preset, train


def model_and_episodes(preset, count, seed=5, **model_kw):
    cfg = config_from_preset(preset, task_family="all", **model_kw)
    model = SAMNet(cfg.model_config(), init_seed=seed)
    episodes = generate_corpus(cfg.episode_config(), cfg.task_family_weights(),
                               count, seed=seed + 200)
    return model, episodes


def reference_backward(model, episodes):
    """The former training loop: one tape per episode."""
    model.store.zero_grad()
    losses = []
    for ep in episodes:
        loss = model.episode_loss(ep.token_ids, ep.frames_symbolic(),
                                  ep.answer_ids)
        losses.append(loss.item())
        loss.backward()
    return losses, gradients(model)


def chunked_backward(model, episodes, sizes):
    model.store.zero_grad()
    losses = []
    start = 0
    for size in sizes:
        losses += training._train_chunk(model, episodes[start:start + size])
        start += size
    assert start == len(episodes)
    return losses, gradients(model)


def gradients(model):
    return {p.name: None if p.grad is None else p.grad.copy()
            for p in model.store.parameters()}


def assert_same_gradients(model, episodes, sizes):
    ref_losses, ref = reference_backward(model, episodes)
    losses, got = chunked_backward(model, episodes, sizes)
    assert losses == ref_losses
    assert got.keys() == ref.keys()
    for name, g in ref.items():
        assert g is not None, name
        assert got[name] is not None, name
        assert got[name].dtype == g.dtype and got[name].shape == g.shape, name
        assert np.array_equal(got[name], g), f"{name} gradient differs"


def distinct_lengths(episodes, count):
    by_length = {}
    for ep in episodes:
        by_length.setdefault(len(ep.tokens), ep)
    assert len(by_length) >= count
    return list(by_length.values())[:count]


@pytest.mark.parametrize("preset", ["toy-canonical", "toy-hard"])
def test_chunks_of_one_to_four_and_a_remainder(preset):
    model, episodes = model_and_episodes(preset, 13)
    lengths = [len(ep.tokens) for ep in episodes]
    assert len(set(lengths)) > 2 and len(set(lengths)) < len(lengths)
    assert_same_gradients(model, episodes, [1, 2, 3, 4, 3])


@pytest.mark.parametrize("preset", ["toy-canonical", "toy-hard"])
def test_every_question_length_distinct(preset):
    model, pool = model_and_episodes(preset, 60)
    episodes = distinct_lengths(pool, 8)
    assert_same_gradients(model, episodes, [4, 4])


@pytest.mark.parametrize("preset", ["toy-canonical", "toy-hard"])
def test_memory_disabled(preset):
    model, episodes = model_and_episodes(preset, 7, memory_enabled=False)
    assert not model.config.memory_enabled
    assert_same_gradients(model, episodes, [4, 3])


@pytest.mark.parametrize("preset,count", [("toy-canonical", 24), ("toy-hard", 8)])
def test_chunks_of_the_rule_size(preset, count):
    model, episodes = model_and_episodes(preset, count)
    cfg = config_from_preset(preset, batch_size=count)
    sizes = training._train_chunks(cfg)
    assert sizes == [count // 2] * 2
    assert_same_gradients(model, episodes, sizes)


def test_equal_question_lengths_are_one_group():
    model, pool = model_and_episodes("toy-canonical", 40)
    n = len(pool[0].tokens)
    episodes = [ep for ep in pool if len(ep.tokens) == n][:4]
    assert len(episodes) == 4
    assert_same_gradients(model, episodes, [4])


def test_chunk_loss_is_the_per_episode_loss():
    model, episodes = model_and_episodes("toy-hard", 3)
    losses = [model.episode_loss(ep.token_ids, ep.frames_symbolic(),
                                 ep.answer_ids).data for ep in episodes]
    with T.episode_batch():
        batch = model.episode_loss([ep.token_ids for ep in episodes],
                                   np.stack([ep.frames_symbolic() for ep in episodes]),
                                   [ep.answer_ids for ep in episodes])
    assert batch.shape == (3,)
    assert [float(x) for x in batch.data] == [float(x) for x in losses]
    with pytest.raises(ValueError, match="one class index per frame"), \
            T.episode_batch():
        model.episode_loss([ep.token_ids for ep in episodes],
                           np.stack([ep.frames_symbolic() for ep in episodes]),
                           [ep.answer_ids[:-1] for ep in episodes])


def tiny_cfg(out_dir, **kw):
    base = dict(task_family="all", batch_size=6, max_steps=3, eval_every=2,
                val_episodes=12, out_dir=str(out_dir))
    base.update(kw)
    return config_from_preset("toy-canonical", **base)


@pytest.mark.parametrize("preset,overrides,most", [
    ("toy-canonical", {}, 16),               # 4 frames of 5x5 cells, d 64
    ("toy-canonical", {"frames": 6}, 10),    # the transfer target's videos
    ("toy-hard", {}, 5),                     # 8 frames of 6x6 cells
    ("toy-canonical", {"grid_height": 64, "grid_width": 64, "d": 256}, 1),
])
def test_chunk_rule(preset, overrides, most):
    cfg = config_from_preset(preset, batch_size=48, **overrides)
    assert training._train_chunk_size(cfg) == most
    sizes = training._train_chunks(cfg)
    assert sum(sizes) == 48 and max(sizes) == most


@pytest.mark.parametrize("batch,sizes", [
    (32, [16, 16]), (16, [16]), (12, [12]), (17, [9, 8]), (33, [11, 11, 11]),
    (1, [1]),
])
def test_chunks_are_as_few_and_as_equal_as_the_budget_allows(batch, sizes):
    cfg = config_from_preset("toy-canonical", batch_size=batch)
    assert training._train_chunks(cfg) == sizes


def test_chunk_size_changes_no_checkpoint_byte(tmp_path, monkeypatch):
    outputs = {}
    budgets = {"one per tape": 1, "the rule": training._TAPE_BUDGET,
               "whole batch": 10 ** 9}
    for name, budget in budgets.items():
        monkeypatch.setattr(training, "_TAPE_BUDGET", budget)
        cfg = tiny_cfg(tmp_path / name.replace(" ", "-"), batch_size=20)
        outputs[name] = training._train_chunks(cfg), train(cfg, deterministic=True)
    assert [sizes for sizes, _ in outputs.values()] == [[1] * 20, [10, 10], [20]]
    results = [result for _, result in outputs.values()]
    reference = results[0]
    for result in results[1:]:
        assert (open(result.metrics_path, "rb").read()
                == open(reference.metrics_path, "rb").read())
        for path in ("final_checkpoint", "best_checkpoint"):
            got = load_checkpoint(getattr(result, path))[0]
            want = load_checkpoint(getattr(reference, path))[0]
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[k], want[k]) for k in want)


class Poisoned:
    """An episode whose frames hold a NaN."""

    def __init__(self, episode):
        self._episode = episode

    def __getattr__(self, name):
        return getattr(self._episode, name)

    def frames_symbolic(self):
        frames = self._episode.frames_symbolic().copy()
        frames[0, 0, 0, 0] = np.nan
        return frames


@pytest.mark.parametrize("poisoned,message", [
    (2, "[1, 0..2]"),    # the third episode of the first chunk
    (9, "[1, 6..9]"),    # the fourth episode of the second step's tape
])
def test_non_finite_episode_is_named(tmp_path, monkeypatch, poisoned, message):
    real_stream = training.episode_stream

    def stream(*args):
        for i, ep in enumerate(real_stream(*args)):
            yield Poisoned(ep) if i == poisoned else ep

    monkeypatch.setattr(training, "episode_stream", stream)
    cfg = tiny_cfg(tmp_path / "run", data_seed=1)
    with pytest.raises(NonFiniteLossError) as exc:
        with np.errstate(all="ignore"):
            train(cfg)
    assert f"batch episode seeds {message};" in str(exc.value)


def test_non_finite_logits_name_the_first_episode(tmp_path):
    # no forward op screens the logits: only each episode's loss meets the
    # inf, and a loop of one-episode tapes stops at the first episode
    cfg = tiny_cfg(tmp_path / "run", batch_size=8, data_seed=1)
    model = SAMNet(cfg.model_config(), init_seed=cfg.init_seed)
    model.store["answer.b2"].data[0] = np.inf
    ckpt = str(tmp_path / "inf.ckpt")
    training.save_model(ckpt, model, cfg, 0)
    with pytest.raises(NonFiniteLossError) as exc:
        with np.errstate(all="ignore"):
            train(cfg, init_from=ckpt)
    assert "batch episode seeds [1, 0..0];" in str(exc.value)


def test_vector_root_is_the_sum_of_its_episodes():
    model, episodes = model_and_episodes("toy-canonical", 2)
    args = ([ep.token_ids for ep in episodes],
            np.stack([ep.frames_symbolic() for ep in episodes]),
            [ep.answer_ids for ep in episodes])
    with T.precision("float64"):
        model = SAMNet(model.config, init_seed=5)
        model.store.zero_grad()
        with T.episode_batch():
            loss = model.episode_loss(*args)
        loss.backward()
        vector = gradients(model)
        model.store.zero_grad()
        with T.episode_batch():
            loss = model.episode_loss(*args)
        T.matmul(T.Tensor(np.ones(2)), loss).backward()
        summed = gradients(model)
    for name, g in vector.items():
        np.testing.assert_allclose(g, summed[name], rtol=1e-12, atol=1e-15)
