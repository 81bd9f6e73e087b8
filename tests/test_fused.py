"""The loss and the question path against the references they replaced.

The op table's tests (`test_ops.py`) check each op against its reference
chain; the tests here keep what those cannot hold: the episode loss
against evaluation's former numpy loss and, bit for bit in float32,
training's former per-frame chain; the word attention's weights against
the chain's; the question encoder against the per-token chain; and a
forward under `no_grad` against a recorded one.
"""

from contextlib import nullcontext

import numpy as np
import numpy.testing as npt
import pytest

from reference_ops import CHAINS, lstm_chain, softmax_folded, total
from samnet import tensor as T
from samnet.cell import SAMNet
from samnet.encoders import QuestionEncoder
from samnet.gradsuite import OPS
from samnet.minicog import generate_corpus
from samnet.params import ParameterStore
from samnet.training import config_from_preset


def chain_cross_entropy_forward(logits: np.ndarray, target: int) -> np.ndarray:
    """The former log_softmax op and the negated pick, in numpy."""
    shifted = logits - logits.max()
    out = shifted - np.log(np.exp(shifted).sum())
    return -np.asarray(out[target])


def numpy_episode_loss(logits: np.ndarray, answers) -> np.float32:
    """Evaluation's former per-episode loss, in numpy."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -logp[np.arange(len(answers)), answers].mean()


@pytest.mark.parametrize("seed", range(3))
def test_cross_entropy_equals_log_softmax_chain(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=29).astype(np.float32) * 4
    for target in (0, 7, 28):
        out = T.cross_entropy_logits(T.Tensor(logits), target).data
        assert out.dtype == np.float32
        assert np.array_equal(out, chain_cross_entropy_forward(logits, target))


def test_cross_entropy_gradient_is_softmax_minus_one_hot():
    with T.precision("float64"):
        logits = T.Tensor(np.random.default_rng(4).normal(size=6), requires_grad=True)
        T.cross_entropy_logits(logits, 2).backward()
        expected = T.softmax(T.Tensor(logits.data)).data - np.eye(6)[2]
        npt.assert_allclose(logits.grad, expected, rtol=1e-12, atol=1e-15)


def episode_logits(rng, *shape):
    logits = (rng.normal(size=shape + (17,)) * 4).astype(np.float32)
    return logits, rng.integers(0, 17, size=shape)


@pytest.mark.parametrize("frames", [4, 6, 8])
def test_episode_loss_equals_numpy_frame_mean(frames):
    rng = np.random.default_rng(frames)
    for _ in range(20):
        logits, answers = episode_logits(rng, frames)
        out = T.cross_entropy_logits(logits, answers).data
        assert out.dtype == np.float32
        assert np.array_equal(out, numpy_episode_loss(logits, answers))
        logits, answers = episode_logits(rng, 5, frames)
        with T.episode_batch():
            out = T.cross_entropy_logits(logits, answers).data
        assert out.shape == (5,)
        for got, episode in zip(out, zip(logits, answers)):
            assert np.array_equal(got, numpy_episode_loss(*episode))


@pytest.mark.parametrize("frames", [4, 6, 8])
def test_episode_loss_gradient_equals_per_frame_chain(frames):
    rng = np.random.default_rng(10 + frames)
    for batch in (None, 3):
        shape = (frames,) if batch is None else (batch, frames)
        data, answers = episode_logits(rng, *shape)
        grads = []
        for loss in (T.cross_entropy_logits, CHAINS["cross_entropy_logits"]):
            logits = T.Tensor(data, requires_grad=True)
            with nullcontext() if batch is None else T.episode_batch():
                loss(logits, answers).backward()
            grads.append(logits.grad)
        assert np.array_equal(*grads)


@pytest.mark.parametrize("preset", ["toy-canonical", "toy-hard"])  # K = 4, 8
def test_ragged_batch_loss_equals_both_references(preset):
    cfg = config_from_preset(preset, task_family="all")
    model = SAMNet(cfg.model_config(), init_seed=4)
    episodes = generate_corpus(cfg.episode_config(), cfg.task_family_weights(),
                               4, seed=21)
    assert len({len(ep.tokens) for ep in episodes}) > 1
    ids = [ep.token_ids for ep in episodes]
    frames = np.stack([ep.frames_symbolic() for ep in episodes])
    answers = np.array([ep.answer_ids for ep in episodes])
    grads = []
    for loss in (T.cross_entropy_logits, CHAINS["cross_entropy_logits"]):
        model.store.zero_grad()
        with T.episode_batch():
            logits = model.episode_forward(ids, frames)
        # backward() releases the logits, so the references read them first
        want = [numpy_episode_loss(*episode)
                for episode in zip(logits.data, answers)]
        with T.episode_batch():
            out = loss(logits, answers)
        out.backward()
        grads.append([p.grad for p in model.store.parameters()])
        if loss is T.cross_entropy_logits:
            for got, expected in zip(out.data, want):
                assert np.array_equal(got, expected)
    for fused, chain in zip(*grads):
        assert np.array_equal(fused, chain)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_word_attention_weights_equal_the_chain(dtype):
    with T.precision(dtype):
        query, words = OPS["word_attention"].draw(np.random.default_rng(13))
        weights = T.word_attention(query, words)[1]
        chain_weights = softmax_folded(total(T.mul(words, query), -1)).data
    assert np.array_equal(weights, chain_weights)


def test_question_encoder_equals_per_token_chain():
    enc = QuestionEncoder(ParameterStore(np.random.default_rng(7)), vocab_size=9, d=8)
    ids = np.array([3, 1, 4, 1, 5])
    out = enc.encode(ids)
    embeds = T.take_rows(enc.embed, ids)
    fwd = lstm_chain(embeds, *enc.dir_params["fwd"])
    bwd = lstm_chain(embeds, *enc.dir_params["bwd"], reverse=True)
    both = T.stack([T.concat([fwd[i], bwd[i]]) for i in range(ids.size)])
    cw = CHAINS["linear_per_row"](both, enc.cw_w, enc.cw_b)
    q = CHAINS["linear_rank1"](T.concat([fwd[ids.size - 1], bwd[0]]), enc.q_w, enc.q_b)
    assert np.array_equal(out.cw.data, cw.data)
    assert np.array_equal(out.q.data, q.data)


def test_no_grad_forward_equals_recorded_forward():
    cfg = config_from_preset("toy-canonical")
    model = SAMNet(cfg.model_config(), init_seed=9)
    rng = np.random.default_rng(9)
    frames = (rng.random((4, 5, 5, 15)) < 0.2).astype(np.float32)
    tokens = [3, 8, 2, 11, 5]
    recorded = model.episode_forward(tokens, frames).data
    with T.no_grad():
        plain = model.episode_forward(tokens, frames).data
    assert np.array_equal(recorded, plain)
