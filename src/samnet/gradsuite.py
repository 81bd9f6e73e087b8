"""The full gradient-verification suite: every tape op from one table, then
every model component, a whole episode, and a ragged batch of episodes on
one tape.

`OPS` declares each variant of each public differentiable op of
`samnet.tensor` once, and so each chain of them that a reasoning step of
`samnet.cell` runs: how to draw its operands over named sizes, which of
them carry the batch axis inside `episode_batch`, and the call. The suite's
op checks are generated from it, and so are the op tests in
``tests/test_ops.py``, with the reference chains of
``tests/reference_ops.py``. The component and model checks build modules,
so each is written out.

Each check reduces its output to a scalar through one fixed random readout
``<out, R>`` (`_readout_from`), and compares tape gradients against central
differences. Thresholds depend on scalar precision: float64 runs must stay
below 1e-5, float32 runs below 1e-3 (finite differences themselves carry
~1e-4 noise at that precision).
"""

from __future__ import annotations

import inspect
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable

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
    control_query,
    elu_mlp,
    memory_update,
    mixed_linear,
    projected_attention,
    write_head_update,
)
from .encoders import FrameEncoder, QuestionEncoder
from .gradcheck import grad_check
from .params import Parameter, ParameterStore


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


class Draw:
    """Draws operands from one generator: a tensor is a leaf `Parameter`
    holding scale * N(0, 1) + shift in the suite's dtype."""

    def __init__(self, rng):
        self.rng = rng
        self.count = 0

    def __call__(self, *shape, scale=1.0, shift=0.0) -> Parameter:
        self.count += 1
        return Parameter(f"x{self.count}",
                         self.rng.normal(size=shape) * scale + shift)

    def ints(self, high, *shape):
        """Integers in [0, high): class indices, token ids, an index."""
        return self.rng.integers(high, size=shape)


@dataclass(frozen=True)
class Op:
    """One variant of a tape op.

    `operands(draw, **sizes)` draws one episode's operands; its keyword
    arguments are the named sizes, each drawn from 1-5. `call(op,
    *operands)` runs `op` on them and returns its tensor (default
    ``op(*operands)``). Inside `episode_batch` the operands at the indices
    `per_episode` carry a leading batch axis and the others are shared; an
    op with none has no batch form. `ragged`: the indices of the
    per-episode operands whose first axis is the size `length`, a
    question's words; a batch pads them to its longest and the call takes
    their `lengths`. `rank_checked`: outside `episode_batch` an extra
    leading axis raises `ShapeError`. `chainless`: the op is its own
    primitive, with no reference chain.
    """

    op: Callable
    operands: Callable
    call: Callable | None = None
    per_episode: tuple = ()
    ragged: tuple = ()
    rank_checked: bool = False
    chainless: bool = False

    def sizes(self, rng) -> dict:
        names = list(inspect.signature(self.operands).parameters)[1:]
        return {name: int(rng.integers(1, 6)) for name in names}

    def draw(self, rng, sizes=None) -> list:
        """One episode's operands, at `sizes` or at sizes drawn from rng."""
        return self.operands(Draw(rng), **(sizes or self.sizes(rng)))

    def run(self, operands, lengths=None):
        """The op's tensor; a ragged batch's call takes `lengths`."""
        kw = {} if lengths is None else {"lengths": lengths}
        if self.call is None:
            return self.op(*operands, **kw)
        return self.call(self.op, *operands, **kw)


def _lstm_operands(draw, length, n, h):
    return [draw(length, n), draw(n, 4 * h), draw(h, 4 * h), draw(4 * h)]


# Every variant of every public differentiable op of `samnet.tensor`, then
# the reasoning step's chains of them. `mixed_linear` and `memory_update`
# read their gates as selections of a drawn gate network output (g_v, g_m,
# h_r, h_a, h_none), as the step does.
OPS = {
    "add": Op(T.add, lambda draw, n, m: [draw(n, m), draw(m)], chainless=True),
    "mul": Op(  # the first operand shared, as the controller's is
        T.mul, lambda draw, n: [draw(n), draw(n)], per_episode=(1,),
        chainless=True),
    "div": Op(T.div, lambda draw, n: [draw(n), draw(n, shift=3.0)],
              chainless=True),
    "matmul": Op(T.matmul, lambda draw, n, m: [draw(n), draw(n, m)],
                 per_episode=(0, 1), rank_checked=True, chainless=True),
    "elu": Op(T.elu, lambda draw, n, m: [draw(n, m)], chainless=True),
    "softmax": Op(T.softmax, lambda draw, n: [draw(n)], per_episode=(0,),
                  rank_checked=True, chainless=True),
    "cross_entropy_logits": Op(
        T.cross_entropy_logits,
        lambda draw, k, a: [draw(k, a, scale=4.0), draw.ints(a, k)],
        per_episode=(0, 1), rank_checked=True),
    "concat": Op(  # the second part shared, as a learned initial state is
        T.concat, lambda draw, n, m: [draw(n), draw(m)],
        lambda op, x, y: op([x, y], axis=-1),
        per_episode=(0,), rank_checked=True, chainless=True),
    "stack": Op(T.stack, lambda draw, n: [draw(n), draw(n)],
                lambda op, x, y: op([x, y], axis=-2), per_episode=(0, 1),
                chainless=True),
    "select": Op(T.select, lambda draw, n, m: [draw(n, m), int(draw.ints(n))],
                 lambda op, x, i: op(x, (..., i, slice(None))),
                 per_episode=(0,), chainless=True),
    "take_rows": Op(T.take_rows, lambda draw, v, n, length: [
        draw(v, n), draw.ints(v, length)], per_episode=(1,), chainless=True),
    "reshape": Op(T.reshape, lambda draw, n, m: [draw(n, m)],
                  lambda op, x: op(x, x.shape[:-2] + (-1,)), per_episode=(0,),
                  chainless=True),
    "attention_aggregate": Op(T.attention_aggregate, lambda draw, n: [draw(n)],
                              per_episode=(0,), rank_checked=True,
                              chainless=True),
    "linear_rank1": Op(T.linear, lambda draw, n, m: [
        draw(n), draw(n, m), draw(m)], per_episode=(0,)),
    "linear_rank2": Op(T.linear, lambda draw, length, n, m: [
        draw(length, n), draw(n, m), draw(m)], per_episode=(0,),
        rank_checked=True),
    "linear_per_row": Op(
        T.linear, lambda draw, length, n, m: [
            draw(length, n), draw(n, m), draw(m)],
        lambda op, x, w, b: op(x, w, b, per_row=True), per_episode=(0,),
        rank_checked=True),
    "lstm_direction_forward": Op(T.lstm_direction, _lstm_operands,
                                 per_episode=(0,), ragged=(0,),
                                 rank_checked=True),
    "lstm_direction_reverse": Op(
        T.lstm_direction, _lstm_operands,
        lambda op, *operands, **kw: op(*operands, reverse=True, **kw),
        per_episode=(0,), ragged=(0,), rank_checked=True),
    "word_attention": Op(
        T.word_attention, lambda draw, length, d: [draw(d), draw(length, d)],
        lambda op, q, words, **kw: op(q, words, **kw)[0],
        per_episode=(0, 1), ragged=(1,), rank_checked=True),
    "attention_weights": Op(
        T.attention_weights, lambda draw, length, d: [
            draw(d), draw(length, d), 0.5],
        per_episode=(0, 1), rank_checked=True),
    "weighted_sum": Op(
        T.weighted_sum, lambda draw, n: [draw(), draw(n), draw(), draw(n)],
        per_episode=(0, 1, 2, 3), rank_checked=True, chainless=True),
    "memory_blend": Op(
        T.memory_blend, lambda draw, s, d: [draw(s, d), draw(s), draw(d)],
        per_episode=(0, 1, 2), rank_checked=True),
    "write_head_shift": Op(T.write_head_shift, lambda draw, s: [draw(s), draw()],
                           per_episode=(0, 1), rank_checked=True),
    "gate_mlp": Op(
        T.gate_mlp, lambda draw, t, h, k: [
            draw(), draw(), draw(t), draw(2 + t, h), draw(h), draw(h, k),
            draw(k), draw(k, 2), draw(2), draw(k, 3), draw(3)],
        per_episode=(0, 1, 2), rank_checked=True),
    "conv2d_same3_elu_one_layer": Op(
        T.conv2d_same3_elu, lambda draw, k, h, w, c, o: [
            draw(k, h, w, c), draw(3, 3, c, o, scale=0.5), draw(o, scale=0.1)],
        lambda op, x, *layer: op(x, layer), per_episode=(0,),
        rank_checked=True),
    "conv2d_same3_elu_two_layers": Op(
        T.conv2d_same3_elu, lambda draw, k, h, w, c, o, p: [
            draw(k, h, w, c), draw(3, 3, c, o, scale=0.5), draw(o, scale=0.1),
            draw(3, 3, o, p, scale=0.5), draw(p, scale=0.1)],
        lambda op, x, *layers: op(x, layers[:2], layers[2:]), per_episode=(0,),
        rank_checked=True),
    "attention_weights_projected": Op(
        projected_attention, lambda draw, length, n, d: [
            draw(n), draw(length, d), 0.7, draw(n, d), draw(d)],
        per_episode=(0, 1), rank_checked=True),
    "control_query": Op(  # c_prev shared, as the learned initial state is
        control_query, lambda draw, n, c, d: [
            draw(n), draw(c), draw(n, d), draw(d), draw(d + c, d), draw(d),
            draw(d)],
        per_episode=(0,), rank_checked=True),
    "elu_mlp_softmax": Op(
        elu_mlp, lambda draw, n, h, m: [
            draw(n), draw(n, h), draw(h), draw(h, m), draw(m)],
        lambda op, x, *weights: op([x], *weights, softmax=True),
        per_episode=(0,), rank_checked=True),
    "elu_mlp_two_parts": Op(  # rows of parts are rows of the output
        elu_mlp, lambda draw, n, k, h, m: [
            draw(n), draw(k), draw(n + k, h), draw(h), draw(h, m), draw(m)],
        lambda op, x, y, *weights: op([x, y], *weights),
        per_episode=(0, 1)),
    "mixed_linear": Op(
        mixed_linear, lambda draw, n, k, m: [
            draw(5), draw(n), draw(n), draw(k), draw(n + k, m), draw(m)],
        lambda op, gates, x, y, z, w, b: op(
            T.select(gates, (..., 0)), x, T.select(gates, (..., 1)), y, z,
            w, b)[0],
        per_episode=(0, 1, 2, 3), rank_checked=True),
    "memory_write": Op(
        memory_update, lambda draw, s, d: [
            draw(s, d), draw(s), draw(s), draw(d), draw(5)],
        lambda op, m, wh, rh, v, gates: op(
            m, wh, rh, v, T.select(gates, (..., 2)),
            T.select(gates, (..., 3)))[0],
        per_episode=(0, 1, 2, 3, 4), rank_checked=True),
}


def check_op(entry: Op, rng, eps):
    """Central differences on every leaf operand of one op, at sizes and
    operands drawn from rng."""
    operands = entry.draw(rng)
    with T.no_grad():
        readout = rng.normal(size=entry.run(operands).shape)
    leaves = [t for t in operands if isinstance(t, Parameter)]
    return grad_check(lambda: _readout_from(readout, entry.run(operands)),
                      leaves, eps=eps)


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
        c_t, _ = ctrl.step(q, cw, c_prev, 2)
        return _readout_from(readout, c_t)

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
    m = Draw(rng)(3, 8)
    c_t = T.Tensor(rng.normal(size=8))
    readout = rng.normal(size=8)

    def f():
        mo, rh = mem.retrieve(m, c_t)
        return T.add(_readout_from(readout, mo), T.attention_aggregate(rh))

    return grad_check(f, store.parameters() + [m], eps=eps)


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
    draw = Draw(rng)
    m, vo, raw = draw(3, 4), draw(4), draw(3)
    wh_prev = T.Tensor(np.random.default_rng(1).dirichlet(np.ones(3)))
    rh = T.Tensor(np.random.default_rng(2).dirichlet(np.ones(3)))
    readout = rng.normal(size=(3, 4))
    head_readout = rng.normal(size=3)

    def f():
        write = T.softmax(raw)  # (h_r, h_a, h_none), as the gate network gives
        gates = write[0], write[1]
        m_t, _ = memory_update(m, wh_prev, rh, vo, *gates)
        wh_t = write_head_update(wh_prev, gates[1])
        return T.add(_readout_from(readout, m_t), _readout_from(head_readout, wh_t))

    return grad_check(f, [m, vo, raw], eps=eps)


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
            state, mem = net.cell.step(enc, keys, values, state, mem, t)
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
    # 4, 2 and 4 (one padded), each episode's loss read out; d=4
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


_CHECKS = [(name, partial(check_op, entry)) for name, entry in OPS.items()] + [
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
