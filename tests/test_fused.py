"""The loss and the reasoning step against the references they replaced.

The op table's tests (`test_ops.py`) check each op against its reference
chain; the tests here keep what those cannot hold: the episode loss
against evaluation's former numpy loss and, bit for bit in float32,
training's former per-frame chain; the word attention's weights against
the chain's; and the model as it runs the fused ops: the question encoder
against the per-token chain, and the step's fused layers, for one episode
and a batch, from the shared learned initial state and with forced gates,
whose logits and parameter gradients equal the former step's bit for bit.
"""

from contextlib import nullcontext

import numpy as np
import numpy.testing as npt
import pytest

from reference_ops import (CHAINS, lstm_chain, memory_blend, mul,
                           softmax_folded, total, weighted_sum)
from samnet import tensor as T
from samnet.cell import CellState, MemoryState, ModelConfig, SAMNet, _override_gate
from samnet.encoders import QuestionEncoder
from samnet.gradsuite import OPS, _readout_from
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
        chain_weights = softmax_folded(total(mul(words, query), -1)).data
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


def chain_cell_step(cell, question, keys, values, state, mem, t, overrides):
    """`SAMCell.step` as it was before its layers were fused: a gate was a
    `select` of `gate_mlp`'s output. The word attention was one node."""
    ctrl, clf, gate_net = cell.controller, cell.temporal, cell.gate_net
    w, b = ctrl.q_step[t - 1]
    uq = CHAINS["control_query"](question.q, state.c, w, b, ctrl.merge_w,
                                 ctrl.merge_b, ctrl.attn_u)
    c_t, _ = T.word_attention(uq, question.cw, question.lengths)
    tau = CHAINS["elu_mlp_softmax"](c_t, clf.w1, clf.b1, clf.w2, clf.b2)
    scale = 1.0 / np.sqrt(cell.config.d)
    attend = CHAINS["attention_weights_projected"]
    va = attend(c_t, keys, scale, cell.visual.query_w, cell.visual.query_b)
    rh = attend(c_t, mem.m, scale, cell.memread.query_w, cell.memread.query_b)
    vo, mo = T.matmul(va, values), T.matmul(rh, mem.m)
    out = T.gate_mlp(T.attention_aggregate(va), T.attention_aggregate(rh), tau,
                     gate_net.w1, gate_net.b1, gate_net.w2, gate_net.b2,
                     gate_net.obj_w, gate_net.obj_b, gate_net.write_w,
                     gate_net.write_b)
    g_v, g_m, h_r, h_a = (_override_gate(out[..., i], overrides.get(name))
                          for i, name in enumerate(("g_v", "g_m", "h_r", "h_a")))
    m_t = memory_blend(mem.m, weighted_sum(h_r, rh, h_a, mem.wh), vo)
    wh_t = T.write_head_shift(mem.wh, h_a)
    so_t = T.linear(T.concat([weighted_sum(g_v, vo, g_m, mo), state.so], axis=-1),
                    cell.summary.w, cell.summary.b)
    return CellState(c=c_t, so=so_t), MemoryState(m=m_t, wh=wh_t)


def cell_steps_loss(net, tokens, features, answers, step, head):
    """Three reasoning steps over one frame from the learned initial state
    (t = 1 reads the shared `cell.c0` and `cell.so0`), then the answer head:
    the fused model's or the chain's, by `step` and `head`."""
    cell = net.cell
    enc = net.question_encoder.encode(tokens)
    keys, values = cell.visual.project(features)
    state = cell.initial_state()
    batch = len(tokens) if T.in_episode_batch() else None
    mem = MemoryState.initial(3, cell.config.d, batch)
    for t in range(1, cell.config.steps + 1):
        state, mem = step(enc, keys, values, state, mem, t)
    logits = head(state.so, enc.q)
    return logits, T.cross_entropy_logits(logits, answers)


@pytest.mark.parametrize("overrides", [
    {}, {"h_r": 0.0, "h_a": 0.0}, {"g_v": 1.0},
    {"g_m": 0.0, "h_r": 0.0, "h_a": 0.0},  # a model without memory
])
@pytest.mark.parametrize("batched", [False, True])
def test_fused_cell_steps_equal_the_former_chains(batched, overrides):
    # float32: logits and every parameter gradient bit for bit; float64:
    # gradients within 1e-10. The batch has two question lengths.
    cfg = ModelConfig(vocab_size=9, num_answers=5, in_channels=4, d=8, steps=3,
                      mem_slots=3)
    for dtype in ("float32", "float64"):
        with T.precision(dtype):
            net = SAMNet(cfg, init_seed=17)
            rng = np.random.default_rng(18)
            tokens = [[1, 4, 2, 7], [3, 5], [6, 0, 2, 8]]
            features = T.Tensor(rng.normal(size=(3, 6, 8)))
            answers = np.array([0, 3, 4])
            if not batched:
                tokens, features, answers = tokens[0], features.data[0], answers[0]

            def fused_step(*args):
                return net.cell.step(*args, gate_overrides=overrides)

            def chain_step(*args):
                return chain_cell_step(net.cell, *args, overrides)

            def chain_head(so, q):
                head = net.answer_head
                return CHAINS["elu_mlp_two_parts"](so, q, head.w1, head.b1,
                                                   head.w2, head.b2)

            results = []
            for step, head in ((fused_step, net.answer_head.logits),
                               (chain_step, chain_head)):
                net.store.zero_grad()
                with T.episode_batch() if batched else nullcontext():
                    logits, loss = cell_steps_loss(net, tokens, features,
                                                   answers, step, head)
                    value = logits.data.copy()
                loss.backward()
                results.append((value, [np.zeros(0) if p.grad is None else p.grad
                                        for p in net.store.parameters()]))
            (got, got_grads), (want, want_grads) = results
            assert np.array_equal(got, want)
            for p, a, b in zip(net.store.parameters(), got_grads, want_grads):
                if dtype == "float32":
                    assert np.array_equal(a, b), p.name
                else:
                    npt.assert_allclose(a, b, rtol=1e-10, atol=1e-13, err_msg=p.name)

