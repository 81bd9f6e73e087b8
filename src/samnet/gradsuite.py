"""The full gradient-verification suite: every sub-unit, a whole episode,
and a ragged batch of episodes on one tape.

Each check builds a small seeded instance of one component, reduces its
output to a scalar through one fixed random readout ``<out, R>``
(`_readout_from`), and compares tape gradients against central
differences. Thresholds depend on scalar precision: float64 runs must stay
below 1e-5, float32 runs below 1e-3 (finite differences themselves carry
~1e-4 noise at that precision).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .cell import (
    GateNetwork,
    MemoryRetrieval,
    MemoryState,
    ModelConfig,
    QuestionDrivenController,
    SAMNet,
    SummaryUpdate,
    TemporalClassifier,
    VisualRetrieval,
    memory_update,
    write_head_update,
)
from .encoders import FrameEncoder, QuestionEncoder
from .gradcheck import grad_check
from .params import ParameterStore


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.threshold


def _store(seed):
    return ParameterStore(np.random.default_rng(seed))


def _readout_from(weights, out):
    """<out, R> for an output of any rank, R = weights / sqrt(weights.size).

    The scaling keeps the scalar O(1) however large the output, so float32
    finite differences stay well inside their threshold.
    """
    r = np.reshape(weights, -1) / np.sqrt(np.size(weights))
    return T.matmul(T.Tensor(r), T.reshape(out, (-1,)))


def _random_params(store, rng, specs):
    """One parameter per (name, shape) or (name, shape, scale) spec, drawn
    in order as scale * N(0, 1) in the suite's dtype."""
    out = []
    for name, shape, *scale in specs:
        p = store.new(name, shape, fan_in=1)
        draw = rng.normal(size=shape) * (scale[0] if scale else 1.0)
        p.data = np.asarray(draw, dtype=T.default_dtype())
        out.append(p)
    return out


def _check_softmax_and_ce(rng, eps):
    store = _store(1)
    logits, = _random_params(store, rng, [("logits", (6,))])

    def f():
        probs = T.softmax(logits)
        return T.add(T.cross_entropy_logits(logits, 2),
                     T.attention_aggregate(probs))

    return grad_check(f, store.parameters(), eps=eps)


def _check_dot_attention(rng, eps):
    store = _store(2)
    keys, values, query = _random_params(
        store, rng, [("keys", (3, 4)), ("values", (3, 4)), ("query", (4,))])
    readout = rng.normal(size=4)

    def f():
        weights = T.attention_weights(query, keys, 0.5)  # 1/sqrt(4)
        summary = T.matmul(weights, values)
        return T.add(_readout_from(readout, summary),
                     T.attention_aggregate(weights))

    return grad_check(f, store.parameters(), eps=eps)


def _check_elu(rng, eps):
    store = _store(3)
    x, = _random_params(store, rng, [("x", (5,))])
    readout = rng.normal(size=5)

    def f():
        return _readout_from(readout, T.elu(x))

    return grad_check(f, store.parameters(), eps=eps)


def _check_conv_elu(rng, eps):
    store = _store(4)
    specs = [("img", (2, 3, 3, 2))]
    for i, (cin, cout) in enumerate(((2, 3), (3, 2))):
        specs += [(f"kern{i}", (3, 3, cin, cout), 0.5), (f"bias{i}", (cout,), 0.1)]
    img, kern0, bias0, kern1, bias1 = _random_params(store, rng, specs)
    readout = rng.normal(size=(2, 3, 3, 2))

    def f():
        return _readout_from(readout, T.conv2d_same3_elu(
            img, (kern0, bias0), (kern1, bias1)))

    return grad_check(f, store.parameters(), eps=eps)


def _check_linear(rng, eps):
    store = _store(16)
    x, w, b, rows = _random_params(
        store, rng, [("x", (3,)), ("w", (3, 4)), ("b", (4,)), ("rows", (2, 3))])
    readout = rng.normal(size=(3, 4))

    def f():
        return T.add(_readout_from(readout[0], T.linear(x, w, b)),
                     _readout_from(readout[1:], T.linear(rows, w, b)))

    return grad_check(f, store.parameters(), eps=eps)


def _check_lstm_direction(rng, eps):
    store = _store(17)
    x, wx, wh, b = _random_params(
        store, rng, [("x", (3, 2)), ("wx", (2, 8)), ("wh", (2, 8)), ("b", (8,))])
    readout = rng.normal(size=(2, 3, 2))

    def f():
        fwd = T.lstm_direction(x, wx, wh, b)
        bwd = T.lstm_direction(x, wx, wh, b, reverse=True)
        return T.add(_readout_from(readout[0], fwd), _readout_from(readout[1], bwd))

    return grad_check(f, store.parameters(), eps=eps)


def _check_attention_weights(rng, eps):
    store = _store(18)
    query, keys, w, b = _random_params(
        store, rng, [("query", (4,)), ("keys", (3, 4)), ("w", (4, 4)), ("b", (4,))])
    readout = rng.normal(size=(2, 3))

    def f():
        return T.add(
            _readout_from(readout[0], T.attention_weights(query, keys, 0.7)),
            _readout_from(readout[1], T.attention_weights(
                query, keys, 0.7, project=(w, b))))

    return grad_check(f, store.parameters(), eps=eps)


def _check_control_query(rng, eps):
    store = _store(19)
    params = _random_params(store, rng, [
        ("q", (3,)), ("c_prev", (2,)), ("w", (3, 4)), ("b", (4,)),
        ("merge_w", (6, 4)), ("merge_b", (4,)), ("u", (4,)),
    ])
    readout = rng.normal(size=4)

    def f():
        return _readout_from(readout, T.control_query(*params))

    return grad_check(f, store.parameters(), eps=eps)


def _check_elu_mlp(rng, eps):
    store = _store(20)
    x, y, w1, b1, w2, b2, w0 = _random_params(store, rng, [
        ("x", (3,)), ("y", (2,)), ("w1", (5, 4)), ("b1", (4,)),
        ("w2", (4, 3)), ("b2", (3,)), ("w0", (3, 4))])
    readout = rng.normal(size=(2, 3))

    def f():  # two parts, as the answer head; one part and a softmax
        return T.add(
            _readout_from(readout[0], T.elu_mlp([x, y], w1, b1, w2, b2)),
            _readout_from(readout[1], T.elu_mlp([x], w0, b1, w2, b2, softmax=True)))

    return grad_check(f, store.parameters(), eps=eps)


def _check_mixed_linear(rng, eps):
    # the weights are gate columns, as the summary update reads them
    store = _store(23)
    raw, x, y, z, w, b = _random_params(store, rng, [
        ("raw", (5,)), ("x", (3,)), ("y", (3,)), ("z", (2,)), ("w", (5, 4)),
        ("b", (4,))])
    readout = rng.normal(size=4)

    def f():
        gates = T.softmax(raw)
        out, _ = T.mixed_linear(T.column(gates, 0), x, T.column(gates, 1), y,
                                z, w, b)
        return _readout_from(readout, out)

    return grad_check(f, store.parameters(), eps=eps)


def _check_memory_write(rng, eps):
    store = _store(24)
    m, raw, wh, rh, v = _random_params(store, rng, [
        ("m", (3, 4)), ("raw", (3,)), ("wh", (3,)), ("rh", (3,)), ("v", (4,))])
    readout = rng.normal(size=(3, 4))

    def f():
        write = T.softmax(raw)  # (h_r, h_a, h_none), as the gate network gives
        out, _ = T.memory_write(m, wh, rh, v, T.column(write, 0),
                                T.column(write, 1))
        return _readout_from(readout, out)

    return grad_check(f, store.parameters(), eps=eps)


def _check_write_head_shift(rng, eps):
    store = _store(21)
    wh, h_a = _random_params(store, rng, [("wh", (4,)), ("h_a", ())])
    readout = rng.normal(size=4)

    def f():
        return _readout_from(readout, T.write_head_shift(wh, h_a))

    return grad_check(f, store.parameters(), eps=eps)


def _check_gate_mlp(rng, eps):
    store = _store(22)
    params = _random_params(store, rng, [
        ("vs", ()), ("rs", ()), ("tau", (4,)),
        ("w1", (6, 3)), ("b1", (3,)), ("w2", (3, 3)), ("b2", (3,)),
        ("obj_w", (3, 2)), ("obj_b", (2,)), ("write_w", (3, 3)), ("write_b", (3,)),
    ])
    readout = rng.normal(size=5)

    def f():
        return _readout_from(readout, T.gate_mlp(*params))

    return grad_check(f, store.parameters(), eps=eps)


def _check_question_encoder(rng, eps):
    store = _store(5)
    enc = QuestionEncoder(store, vocab_size=5, d=8)
    readout = rng.normal(size=(5, 8))

    def f():
        out = enc.encode([0, 3, 1, 4])
        return T.add(_readout_from(readout[0], out.q),
                     _readout_from(readout[1:], out.cw))

    return grad_check(f, store.parameters(), eps=eps)


def _check_frame_encoder(rng, eps):
    store = _store(6)
    enc = FrameEncoder(store, in_channels=3, d=8)
    frame = rng.normal(size=(2, 3, 3, 3))
    readout = rng.normal(size=(2, 9, 8))

    def f():
        return _readout_from(readout, enc.encode(frame))

    return grad_check(f, store.parameters(), eps=eps)


def _check_controller(rng, eps):
    store = _store(7)
    ctrl = QuestionDrivenController(store, d=8, steps=2)
    q = T.Tensor(rng.normal(size=8))
    cw = T.Tensor(rng.normal(size=(4, 8)))
    c_prev = T.Tensor(rng.normal(size=8))
    readout = rng.normal(size=8)

    def f():
        c_t, qa = ctrl.step(q, cw, c_prev, 2)
        return T.add(_readout_from(readout, c_t), T.attention_aggregate(qa))

    return grad_check(f, store.parameters(), eps=eps)


def _check_temporal(rng, eps):
    store = _store(8)
    clf = TemporalClassifier(store, d=8)
    c_t = T.Tensor(rng.normal(size=8))
    readout = rng.normal(size=4)

    def f():
        return _readout_from(readout, clf.classify(c_t))

    return grad_check(f, store.parameters(), eps=eps)


def _check_visual(rng, eps):
    store = _store(9)
    vis = VisualRetrieval(store, d=8)
    rows = T.Tensor(rng.normal(size=(9, 8)))
    c_t = T.Tensor(rng.normal(size=8))
    readout = rng.normal(size=8)

    def f():
        keys, values = vis.project(rows)
        vo, va = vis.retrieve(keys, values, c_t)
        return T.add(_readout_from(readout, vo), T.attention_aggregate(va))

    return grad_check(f, store.parameters(), eps=eps)


def _check_memory_read(rng, eps):
    store = _store(10)
    mem = MemoryRetrieval(store, d=8)
    m, = _random_params(store, rng, [("m", (3, 8))])
    c_t = T.Tensor(rng.normal(size=8))
    readout = rng.normal(size=8)

    def f():
        mo, rh = mem.retrieve(m, c_t)
        return T.add(_readout_from(readout, mo), T.attention_aggregate(rh))

    return grad_check(f, store.parameters(), eps=eps)


def _check_gates(rng, eps):
    store = _store(11)
    net = GateNetwork(store, hidden=16)
    tau = T.Tensor(np.random.default_rng(0).dirichlet(np.ones(4)))
    readout = rng.normal(size=5)

    def f():
        g = net.gates(T.Tensor(0.4), T.Tensor(0.6), tau)
        return _readout_from(readout, T.stack([g.g_v, g.g_m, g.h_r, g.h_a, g.h_none]))

    return grad_check(f, store.parameters(), eps=eps)


def _check_memory_update(rng, eps):
    store = _store(12)
    m, vo, raw = _random_params(
        store, rng, [("m", (3, 4)), ("vo", (4,)), ("raw", (3,))])
    wh_prev = T.Tensor(np.random.default_rng(1).dirichlet(np.ones(3)))
    rh = T.Tensor(np.random.default_rng(2).dirichlet(np.ones(3)))
    readout = rng.normal(size=(3, 4))
    head_readout = rng.normal(size=3)

    def f():
        write = T.softmax(raw)  # (h_r, h_a, h_none), as the gate network gives
        gates = T.column(write, 0), T.column(write, 1)
        m_t, _ = memory_update(m, wh_prev, rh, vo, *gates)
        wh_t = write_head_update(wh_prev, gates[1])
        return T.add(_readout_from(readout, m_t), _readout_from(head_readout, wh_t))

    return grad_check(f, store.parameters(), eps=eps)


def _check_summary(rng, eps):
    store = _store(13)
    su = SummaryUpdate(store, d=8)
    vo = T.Tensor(rng.normal(size=8))
    mo = T.Tensor(rng.normal(size=8))
    so_prev = T.Tensor(rng.normal(size=8))
    readout = rng.normal(size=8)

    def f():
        so, _ = su.update(vo, mo, T.Tensor(0.7), T.Tensor(0.3), so_prev)
        return _readout_from(readout, so)

    return grad_check(f, store.parameters(), eps=eps)


def _check_cell_step(rng, eps):
    cfg = ModelConfig(vocab_size=8, num_answers=5, in_channels=6, d=8,
                      steps=2, mem_slots=3)
    net = SAMNet(cfg, init_seed=14)
    rows = rng.normal(size=(9, 8))
    tokens = [0, 3, 5, 1]
    readout = rng.normal(size=8)

    def f():
        enc = net.question_encoder.encode(tokens)
        state = net.cell.initial_state()
        mem = MemoryState.initial(3, 8)
        keys, values = net.cell.visual.project(T.Tensor(rows))
        for t in (1, 2):
            state, mem = net.cell.step(enc.q, enc.cw, keys, values, state, mem, t)
        return _readout_from(readout, state.so)

    return grad_check(f, net.store.subset("question.", "cell."), eps=eps)


def _check_full_episode(rng, eps):
    # 2 frames, 2 reasoning steps, d=8, N=3, L=4 tokens, 3x3 grid (9 cells)
    cfg = ModelConfig(vocab_size=8, num_answers=5, in_channels=6, d=8,
                      steps=2, mem_slots=3)
    net = SAMNet(cfg, init_seed=15)
    frames = (rng.random((2, 3, 3, 6)) < 0.25).astype(np.float64)
    tokens = [1, 4, 2, 7]
    answers = [0, 3]

    def f():
        return net.episode_loss(tokens, frames, answers)

    return grad_check(f, net.store.parameters(), eps=eps)


def _check_full_episode_batch(rng, eps):
    # the batched training tape: 3 episodes on one tape, question lengths
    # 4, 2 and 4 (two length groups), each episode's loss read out; d=4
    # keeps the finite differences to about as many forwards as one episode
    cfg = ModelConfig(vocab_size=8, num_answers=5, in_channels=6, d=4,
                      steps=2, mem_slots=3)
    net = SAMNet(cfg, init_seed=16)
    frames = (rng.random((3, 2, 3, 3, 6)) < 0.25).astype(np.float64)
    tokens = [[1, 4, 2, 7], [3, 5], [6, 0, 2, 1]]
    answers = [[0, 3], [2, 2], [4, 1]]
    readout = rng.normal(size=3)

    def f():
        with T.episode_batch():
            loss = net.episode_loss(tokens, frames, answers)
        return _readout_from(readout, loss)

    return grad_check(f, net.store.parameters(), eps=eps)


_CHECKS = [
    ("softmax_cross_entropy", _check_softmax_and_ce),
    ("dot_attention", _check_dot_attention),
    ("elu", _check_elu),
    ("conv2d_same3_elu", _check_conv_elu),
    ("linear", _check_linear),
    ("lstm_direction", _check_lstm_direction),
    ("attention_weights", _check_attention_weights),
    ("control_query", _check_control_query),
    ("elu_mlp", _check_elu_mlp),
    ("mixed_linear", _check_mixed_linear),
    ("memory_write", _check_memory_write),
    ("write_head_shift", _check_write_head_shift),
    ("gate_mlp", _check_gate_mlp),
    ("question_encoder", _check_question_encoder),
    ("frame_encoder", _check_frame_encoder),
    ("controller_step", _check_controller),
    ("temporal_classifier", _check_temporal),
    ("visual_retrieval", _check_visual),
    ("memory_retrieval", _check_memory_read),
    ("gate_network", _check_gates),
    ("memory_update", _check_memory_update),
    ("summary_update", _check_summary),
    ("cell_two_steps", _check_cell_step),
    ("full_episode_2frames", _check_full_episode),
    ("full_episode_batch3", _check_full_episode_batch),
]

def run_gradient_suite(use_float64: bool = True, log=None) -> list[CheckResult]:
    """Run every check; returns per-check results with mode thresholds."""
    threshold = 1e-5 if use_float64 else 1e-3
    eps = 1e-6 if use_float64 else 5e-3
    results = []
    with T.precision("float64" if use_float64 else "float32"):
        for name, fn in _CHECKS:
            rng = np.random.default_rng(zlib.crc32(name.encode()))
            err = fn(rng, eps)
            result = CheckResult(name, err, threshold)
            results.append(result)
            if log:
                status = "PASS" if result.passed else "FAIL"
                log(f"{status} {name}: max rel err {err:.3e} "
                    f"(threshold {threshold:.0e})")
    return results
