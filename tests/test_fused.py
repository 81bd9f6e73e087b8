"""Fused tape ops against the chains of primitive ops they replace.

Each fused op in `samnet.tensor` must give the same forward values, bit for
bit in float32, as the primitive chain that the model used before it was
fused, and the same gradients up to float64 rounding. The chains here are
those reference graphs; the per-token LSTM loop is the question encoder's
former `_run_direction`. The primitive ops that only these chains use
(the elementwise ops and the unfused convolution) come from `reference_ops`.
The episode loss has two references: evaluation's former numpy loss for
its value, and training's former per-frame chain for its gradient.
"""

from contextlib import nullcontext

import numpy as np
import numpy.testing as npt
import pytest

from reference_ops import conv2d_same3, sigmoid, sub, tanh
from samnet import tensor as T
from samnet.cell import GateNetwork, SAMNet
from samnet.encoders import QuestionEncoder
from samnet.gradsuite import _readout_from
from samnet.minicog import generate_corpus
from samnet.params import ParameterStore
from samnet.training import config_from_preset


def chain_linear(x, w, b):
    return T.add(T.matmul(x, w), b)


def chain_lstm_direction(x, wx, wh, b, reverse=False):
    """Per-token LSTM graph: about twenty tape nodes per token."""
    hh = wh.shape[0]
    xproj = T.matmul(x, wx)
    h = T.zeros(hh)
    c = T.zeros(hh)
    length = x.shape[0]
    states = [None] * length
    order = range(length - 1, -1, -1) if reverse else range(length)
    for i in order:
        z = T.add(T.add(xproj[i], T.matmul(h, wh)), b)
        i_g = sigmoid(z[0:hh])
        f_g = sigmoid(z[hh:2 * hh])
        g = tanh(z[2 * hh:3 * hh])
        o_g = sigmoid(z[3 * hh:4 * hh])
        c = T.add(T.mul(f_g, c), T.mul(i_g, g))
        h = T.mul(o_g, tanh(c))
        states[i] = h
    return T.stack(states)


def chain_attention_weights(query, keys, scale):
    return T.softmax(T.mul(T.matmul(keys, query), scale))


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


def chain_episode_loss(logits, answers):
    """Training's former episode loss: per frame a select and a one-frame
    cross-entropy, then an add chain and a div."""
    terms = [T.cross_entropy_logits(logits[..., k, :], answers[..., k])
             for k in range(answers.shape[-1])]
    total = terms[0]
    for term in terms[1:]:
        total = T.add(total, term)
    return T.div(total, float(len(terms)))


def chain_weighted_sum(a, x, b, y):
    return T.add(T.mul(a, x), T.mul(b, y))


def chain_memory_blend(m, w, v):
    n = m.shape[0]
    w_col = T.reshape(w, (n, 1))
    keep = T.mul(m, sub(1.0, w_col))
    return T.add(keep, T.matmul(w_col, T.reshape(v, (1, v.shape[0]))))


def chain_write_head_shift(wh, h_a):
    # a gather by the rotated index is the former one-step roll op
    shifted = T.select(wh, np.roll(np.arange(wh.shape[0]), 1))
    return T.add(T.mul(h_a, shifted), T.mul(sub(1.0, h_a), wh))


def chain_conv_elu(x, *layers):
    """The frame encoder's former graph: a convolution node, then an ELU
    node, per layer."""
    for w, b in layers:
        x = T.elu(conv2d_same3(x, w, b))
    return x


def chain_gate_mlp(net: GateNetwork, vs, rs, tau):
    x = T.concat([T.reshape(vs, (1,)), T.reshape(rs, (1,)), tau])
    h = T.elu(chain_linear(x, net.w1, net.b1))
    h = T.elu(chain_linear(h, net.w2, net.b2))
    obj = sigmoid(chain_linear(h, net.obj_w, net.obj_b))
    write = T.softmax(chain_linear(h, net.write_w, net.write_b))
    return T.concat([T.reshape(g, (1,)) for g in (
        obj[0], obj[1], write[0], write[1], write[2])])


def leaves(rng, *shapes):
    dtype = T.default_dtype()
    return [T.Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
            for s in shapes]


def probability(rng, n):
    return T.Tensor(rng.dirichlet(np.ones(n)).astype(T.default_dtype()),
                    requires_grad=True)


def scalar(rng):
    return T.Tensor(np.asarray(rng.uniform(), dtype=T.default_dtype()),
                    requires_grad=True)


def cases(rng):
    """(name, fused builder, chain builder, inputs) for every fused op."""
    x1, x2, w, b = leaves(rng, (6,), (5, 6), (6, 7), (7,))
    xs, wx, wh, lb = leaves(rng, (5, 6), (6, 12), (3, 12), (12,))
    query, keys = leaves(rng, (6,), (9, 6))
    m, vo, vec_x, vec_y = leaves(rng, (4, 6), (6,), (4,), (4,))
    w_mix, rh = probability(rng, 4), probability(rng, 4)
    h_r, h_a = scalar(rng), scalar(rng)
    grids, w1, b1, w2, b2 = leaves(rng, (2, 4, 3, 3), (3, 3, 3, 5), (5,),
                                   (3, 3, 5, 4), (4,))
    return [
        ("linear_rank1", lambda: T.linear(x1, w, b),
         lambda: chain_linear(x1, w, b), [x1, w, b]),
        ("linear_rank2", lambda: T.linear(x2, w, b),
         lambda: chain_linear(x2, w, b), [x2, w, b]),
        ("lstm_forward", lambda: T.lstm_direction(xs, wx, wh, lb),
         lambda: chain_lstm_direction(xs, wx, wh, lb), [xs, wx, wh, lb]),
        ("lstm_reverse", lambda: T.lstm_direction(xs, wx, wh, lb, reverse=True),
         lambda: chain_lstm_direction(xs, wx, wh, lb, reverse=True),
         [xs, wx, wh, lb]),
        ("attention_weights", lambda: T.attention_weights(query, keys, 0.125),
         lambda: chain_attention_weights(query, keys, 0.125), [query, keys]),
        ("weighted_sum", lambda: T.weighted_sum(h_r, vec_x, h_a, vec_y),
         lambda: chain_weighted_sum(h_r, vec_x, h_a, vec_y),
         [h_r, vec_x, h_a, vec_y]),
        ("memory_blend", lambda: T.memory_blend(m, w_mix, vo),
         lambda: chain_memory_blend(m, w_mix, vo), [m, w_mix, vo]),
        ("write_head_shift", lambda: T.write_head_shift(rh, h_a),
         lambda: chain_write_head_shift(rh, h_a), [rh, h_a]),
        ("conv_elu_one_layer", lambda: T.conv2d_same3_elu(grids, (w1, b1)),
         lambda: chain_conv_elu(grids, (w1, b1)), [grids, w1, b1]),
        ("conv_elu_two_layers",
         lambda: T.conv2d_same3_elu(grids, (w1, b1), (w2, b2)),
         lambda: chain_conv_elu(grids, (w1, b1), (w2, b2)),
         [grids, w1, b1, w2, b2]),
    ]


def gradients(build, inputs, readout):
    for t in inputs:
        t.grad = None
    out = build()
    _readout_from(readout, out).backward()
    return [np.zeros_like(t.data) if t.grad is None else t.grad for t in inputs]


@pytest.mark.parametrize("seed", range(3))
def test_fused_forward_equals_primitive_chain_float32(seed):
    rng = np.random.default_rng(seed)
    for name, fused, chain, _ in cases(rng):
        a, b = fused().data, chain().data
        assert a.dtype == b.dtype == np.float32, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("seed", range(3))
def test_fused_backward_matches_primitive_chain_float64(seed):
    with T.precision("float64"):
        rng = np.random.default_rng(100 + seed)
        for name, fused, chain, inputs in cases(rng):
            readout = rng.normal(size=fused().shape)
            for ga, gb in zip(gradients(fused, inputs, readout),
                              gradients(chain, inputs, readout)):
                npt.assert_allclose(ga, gb, rtol=1e-10, atol=1e-13, err_msg=name)


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
        for loss in (T.cross_entropy_logits, chain_episode_loss):
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
    for loss in (T.cross_entropy_logits, chain_episode_loss):
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


def test_gate_mlp_equals_primitive_chain():
    rng = np.random.default_rng(5)
    for dtype in ("float32", "float64"):
        with T.precision(dtype):
            net = GateNetwork(ParameterStore(np.random.default_rng(6)), hidden=8)
            for p in (net.obj_w, net.write_w):
                p.data = rng.normal(size=p.shape).astype(dtype)
            vs, rs = scalar(rng), scalar(rng)
            tau = probability(rng, 4)
            inputs = [vs, rs, tau, net.w1, net.b1, net.w2, net.b2, net.obj_w,
                      net.obj_b, net.write_w, net.write_b]

            def fused():
                return T.gate_mlp(*inputs)

            def chain():
                return chain_gate_mlp(net, vs, rs, tau)

            assert np.array_equal(fused().data, chain().data)
            if dtype == "float64":
                readout = rng.normal(size=5)
                for ga, gb in zip(gradients(fused, inputs, readout),
                                  gradients(chain, inputs, readout)):
                    npt.assert_allclose(ga, gb, rtol=1e-10, atol=1e-13)


def test_conv_elu_batch_equals_each_episode():
    # a batch of episodes: each episode's output, input gradient and
    # parameter contributions are those of its own one-episode node
    rng = np.random.default_rng(12)
    grids = rng.normal(size=(3, 2, 4, 3, 3)).astype(np.float32)
    params = leaves(rng, (3, 3, 3, 5), (5,), (3, 3, 5, 4), (4,))
    layers = (params[:2], params[2:])
    readout = rng.normal(size=(3, 2, 4, 3, 4))
    each, expected = [], []
    for e in range(3):
        x = T.Tensor(grids[e], requires_grad=True)
        out = T.conv2d_same3_elu(x, *layers)
        each.append(out.data)
        _readout_from(readout[e], out).backward()
        expected.append(x.grad)
    expected += [p.grad for p in params]
    for p in params:
        p.grad = None
    x = T.Tensor(grids, requires_grad=True)
    with T.episode_batch():
        out = T.conv2d_same3_elu(x, *layers)
        assert np.array_equal(out.data, np.stack(each))
        # a vector root: each episode's own readout, as the training loss gives
        r = T.Tensor((readout / np.sqrt(readout[0].size)).reshape(3, -1))
        root = T.matmul(r, T.reshape(out, (3, -1, 1)))[:, 0]
    root.backward()
    got = list(x.grad) + [p.grad for p in params]
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


def chain_grouped_attention_read(query, groups):
    """Per length group, `attention_weights` then `matmul` on the group's
    query rows; `merge_rows` joins the reads."""
    reads, weights = [], []
    for rows, words in groups:
        with T.episode_batch(rows):
            qa = T.attention_weights(query[rows], words)
            reads.append(T.matmul(qa, words))
        weights.append(qa.data)
    rows = [rows for rows, _ in groups]
    return T.merge_rows(reads, rows, query.shape[0]), weights


def test_grouped_attention_read_equals_per_group_chain():
    lengths = [3, 5, 3, 1, 5, 3]  # three groups, their rows interleaved
    for dtype in ("float32", "float64"):
        with T.precision(dtype):
            rng = np.random.default_rng(13)
            [query] = leaves(rng, (len(lengths), 6))
            groups = []
            for n in dict.fromkeys(lengths):
                rows = np.flatnonzero(np.array(lengths) == n)
                groups += [(rows, *leaves(rng, (rows.size, n, 6)))]
            out, weights = T.grouped_attention_read(query, groups)
            chain, chain_weights = chain_grouped_attention_read(query, groups)
            assert np.array_equal(out.data, chain.data)
            for a, b in zip(weights, chain_weights):
                assert np.array_equal(a, b)
            if dtype == "float64":
                inputs = [query] + [words for _, words in groups]
                readout = rng.normal(size=query.shape)
                fused = gradients(
                    lambda: T.grouped_attention_read(query, groups)[0],
                    inputs, readout)
                reference = gradients(
                    lambda: chain_grouped_attention_read(query, groups)[0],
                    inputs, readout)
                for ga, gb in zip(fused, reference):
                    npt.assert_allclose(ga, gb, rtol=1e-10, atol=1e-13)


def test_merge_rows_equals_row_assignment():
    rng = np.random.default_rng(14)
    rows = [np.array([0, 3]), np.array([4]), np.array([1, 2])]
    parts = leaves(rng, (2, 3, 4), (1, 3, 4), (2, 3, 4))
    out = T.merge_rows(parts, rows, 5)
    want = np.empty((5, 3, 4), dtype=np.float32)
    for part, r in zip(parts, rows):
        want[r] = part.data
    assert np.array_equal(out.data, want)
    readout = rng.normal(size=(5, 3, 4))
    grads = gradients(lambda: T.merge_rows(parts, rows, 5), parts, readout)
    # _readout_from's gradient is the scaled readout itself
    g = (readout / np.sqrt(readout.size)).astype(np.float32)
    for grad, r in zip(grads, rows):
        assert np.array_equal(grad, g[r])


def test_question_encoder_equals_per_token_chain():
    enc = QuestionEncoder(ParameterStore(np.random.default_rng(7)), vocab_size=9, d=8)
    ids = np.array([3, 1, 4, 1, 5])
    out = enc.encode(ids)
    embeds = T.take_rows(enc.embed, ids)
    fwd = chain_lstm_direction(embeds, *enc.dir_params["fwd"])
    bwd = chain_lstm_direction(embeds, *enc.dir_params["bwd"], reverse=True)
    both = T.stack([T.concat([fwd[i], bwd[i]]) for i in range(ids.size)])
    cw = chain_linear(both, enc.cw_w, enc.cw_b)
    q = chain_linear(T.concat([fwd[ids.size - 1], bwd[0]]), enc.q_w, enc.q_b)
    assert np.array_equal(out.cw.data, cw.data)
    assert np.array_equal(out.q.data, q.data)


def test_fused_ops_record_nothing_under_no_grad():
    rng = np.random.default_rng(8)
    with T.no_grad():
        for name, fused, _, _ in cases(rng):
            out = fused()
            assert not out.requires_grad and out._backward is None, name


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
