"""The selective-attention memory cell and the full recurrent model.

Each frame is processed by T unrolled reasoning steps. A step attends over
the question to pick a control state, classifies its temporal context,
retrieves candidate objects from the frame and from the external slot
memory, turns the attention localization scores into gating decisions, and
then applies gated memory writes and a summary-object update. Information
crosses frame boundaries only through the slot memory and its write head.

Every component also runs a batch of episodes, forward and backward, by one
rule: inside `T.episode_batch`, which the callers that batch open, each
per-episode tensor has a leading batch axis (a control state (B, d) rather
than (d,)); outside it, a component runs one episode. A component that
differs for a batch asks `T.in_episode_batch()`, never its inputs' shape.
Parameters, and the learned initial state, are shared by the episodes.
Questions in a batch may differ in length: their contextual words are
padded to the longest, and the controller's attention gives a pad weight 0
(see `encoders.QuestionEncoding`). Each batched
node keeps the parents, in order, of the node it stands for in one
episode's graph, so each episode's values and gradients are bit-identical
to its own pass; see the batch-axis note in `tensor`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoders import FrameEncoder, QuestionEncoder
from .params import ParameterStore
from .tensor import Tensor

TEMPORAL_CLASSES = ("last", "latest", "now", "none")


@dataclass
class ModelConfig:
    vocab_size: int
    num_answers: int
    in_channels: int
    d: int = 128
    steps: int = 8
    mem_slots: int = 8
    memory_enabled: bool = True

    def __post_init__(self):
        for name in ("d", "steps", "mem_slots"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class MemoryState:
    """Slot matrix plus the write head pointing at the next free slot."""

    m: Tensor  # (N, d)
    wh: Tensor  # (N,) distribution

    @classmethod
    def initial(cls, n_slots: int, d: int, batch: int | None = None) -> "MemoryState":
        """Empty memory with the head on slot 0; one copy per episode when
        `batch` is given."""
        lead = () if batch is None else (batch,)
        wh = np.zeros(lead + (n_slots,), dtype=T.default_dtype())
        wh[..., 0] = 1.0
        return cls(m=T.zeros(lead + (n_slots, d)), wh=Tensor(wh))


@dataclass
class CellState:
    c: Tensor  # (d,) control state
    so: Tensor  # (d,) summary object


@dataclass
class Gates:
    g_v: Tensor  # scalar in [0, 1]
    g_m: Tensor
    h_r: Tensor
    h_a: Tensor
    h_none: Tensor


@dataclass
class StepTrace:
    """Attention vectors and gates recorded for inspection. For a batch each
    keeps the batch axis, but qa is one array per episode, trimmed to its
    question's length."""

    qa: np.ndarray | list[np.ndarray]
    tau: np.ndarray
    va: np.ndarray
    rh: np.ndarray
    gates: dict
    w: np.ndarray
    wh: np.ndarray


def _check_distribution(data: np.ndarray, name: str) -> None:
    if not T.DEBUG_CHECKS:
        return
    if data.min() < -1e-6 or np.abs(data.sum(axis=-1) - 1.0).max() > 1e-6:
        raise AssertionError(f"{name} is not a distribution: {data}")


def memory_update(m_prev: Tensor, wh_prev: Tensor, rh: Tensor, vo: Tensor,
                  h_r: Tensor, h_a: Tensor):
    """Gated overwrite of memory rows.

    w = h_r * rh + h_a * wh_prev picks the write location softly; every row
    of the result is a convex blend (1 - w_i) * old_row + w_i * vo. A zero w
    leaves memory untouched.
    """
    w = T.weighted_sum(h_r, rh, h_a, wh_prev)
    return T.memory_blend(m_prev, w, vo), w


def write_head_update(wh_prev: Tensor, h_a: Tensor) -> Tensor:
    """Advance the write head by a soft circular right-shift when appending."""
    return T.write_head_shift(wh_prev, h_a)


def control_query(q: Tensor, c_prev: Tensor, w: Tensor, b: Tensor,
                  merge_w: Tensor, merge_b: Tensor, u: Tensor) -> Tensor:
    """u * cq for cq = linear([linear(q, w, b), c_prev], merge_w, merge_b).

    u . (cq * cw_i) == cw_i . (u * cq), so this one product gives the
    word-attention logits of every contextual word cw_i.
    """
    cq = T.linear(T.concat([T.linear(q, w, b), c_prev], axis=-1),
                  merge_w, merge_b)
    return T.mul(u, cq)


def elu_mlp(parts, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor,
            softmax: bool = False) -> Tensor:
    """linear(elu(linear(x))) of x, the parts joined; softmaxed if asked."""
    x = parts[0] if len(parts) == 1 else T.concat(parts, axis=-1)
    out = T.linear(T.elu(T.linear(x, w1, b1)), w2, b2)
    return T.softmax(out) if softmax else out


def projected_attention(x: Tensor, keys: Tensor, scale: float, w: Tensor,
                        b: Tensor) -> Tensor:
    """Attention weights over the rows of keys for the query linear(x, w, b)."""
    return T.attention_weights(T.linear(x, w, b), keys, scale)


def mixed_linear(a: Tensor, x: Tensor, b: Tensor, y: Tensor, z: Tensor,
                 w: Tensor, bias: Tensor):
    """linear([a * x + b * y, z], w, bias), and the mix a * x + b * y."""
    mix = T.weighted_sum(a, x, b, y)
    return T.linear(T.concat([mix, z], axis=-1), w, bias), mix


class QuestionDrivenController:
    """Per-step attention over contextual words producing the control state."""

    def __init__(self, store: ParameterStore, d: int, steps: int, prefix="cell.control"):
        self.d = d
        self.steps = steps
        self.q_step = [
            (
                store.new(f"{prefix}.qstep{t}.w", (d, d), fan_in=d),
                store.new(f"{prefix}.qstep{t}.b", (d,), fan_in=0),
            )
            for t in range(1, steps + 1)
        ]
        self.merge_w = store.new(f"{prefix}.merge.w", (2 * d, d), fan_in=2 * d)
        self.merge_b = store.new(f"{prefix}.merge.b", (d,), fan_in=0)
        self.attn_u = store.new(f"{prefix}.attn.u", (d,), fan_in=d)

    def step(self, q: Tensor, cw: Tensor, c_prev: Tensor, t: int, lengths=None):
        """Control state c_t and the attention qa over the question words,
        a value. Inside `T.episode_batch`, cw is padded to the longest
        question, and `lengths` are the questions' lengths (see
        `QuestionEncoding`)."""
        if not 1 <= t <= self.steps:
            raise ValueError(f"step index {t} outside [1, {self.steps}]")
        w, b = self.q_step[t - 1]
        uq = control_query(q, c_prev, w, b, self.merge_w, self.merge_b,
                           self.attn_u)
        c_t, qa = T.word_attention(uq, cw, lengths)
        _check_distribution(qa, "question attention")
        return c_t, Tensor(qa)


class TemporalClassifier:
    """Two-layer ELU network mapping the control state to 4 temporal classes."""

    def __init__(self, store: ParameterStore, d: int, prefix="cell.temporal"):
        self.w1 = store.new(f"{prefix}.w1", (d, d), fan_in=d)
        self.b1 = store.new(f"{prefix}.b1", (d,), fan_in=0)
        self.w2 = store.new(f"{prefix}.w2", (d, len(TEMPORAL_CLASSES)), fan_in=d)
        self.b2 = store.new(f"{prefix}.b2", (len(TEMPORAL_CLASSES),), fan_in=0)

    def classify(self, c_t: Tensor) -> Tensor:
        tau = elu_mlp([c_t], self.w1, self.b1, self.w2, self.b2, softmax=True)
        _check_distribution(tau.data, "temporal class weights")
        return tau


class VisualRetrieval:
    """Attention of the projected control state over projected frame features."""

    def __init__(self, store: ParameterStore, d: int, prefix="cell.visual"):
        self.d = d
        self.key_w = store.new(f"{prefix}.key.w", (d, d), fan_in=d)
        self.key_b = store.new(f"{prefix}.key.b", (d,), fan_in=0)
        self.value_w = store.new(f"{prefix}.value.w", (d, d), fan_in=d)
        self.value_b = store.new(f"{prefix}.value.b", (d,), fan_in=0)
        self.query_w = store.new(f"{prefix}.query.w", (d, d), fan_in=d)
        self.query_b = store.new(f"{prefix}.query.b", (d,), fan_in=0)

    def project(self, feature_rows: Tensor):
        keys = T.linear(feature_rows, self.key_w, self.key_b)
        values = T.linear(feature_rows, self.value_w, self.value_b)
        return keys, values

    def retrieve(self, keys: Tensor, values: Tensor, c_t: Tensor):
        va = projected_attention(c_t, keys, 1.0 / math.sqrt(self.d),
                                 self.query_w, self.query_b)
        _check_distribution(va.data, "visual attention")
        return T.matmul(va, values), va


class MemoryRetrieval:
    """Content-based addressing: the read head over raw memory rows."""

    def __init__(self, store: ParameterStore, d: int, prefix="cell.memread"):
        self.d = d
        self.query_w = store.new(f"{prefix}.query.w", (d, d), fan_in=d)
        self.query_b = store.new(f"{prefix}.query.b", (d,), fan_in=0)

    def retrieve(self, m: Tensor, c_t: Tensor):
        rh = projected_attention(c_t, m, 1.0 / math.sqrt(self.d),
                                 self.query_w, self.query_b)
        _check_distribution(rh.data, "read head")
        return T.matmul(rh, m), rh


class GateNetwork:
    """3-layer ELU classifier from (vs, rs, tau) to the gating values.

    g_v and g_m are independent sigmoids. The write gates are a 3-way
    softmax (h_r, h_a, h_none), so h_r + h_a <= 1 holds by construction.
    """

    def __init__(self, store: ParameterStore, hidden: int, prefix="cell.gates"):
        self.w1 = store.new(f"{prefix}.w1", (6, hidden), fan_in=6)
        self.b1 = store.new(f"{prefix}.b1", (hidden,), fan_in=0)
        self.w2 = store.new(f"{prefix}.w2", (hidden, hidden), fan_in=hidden)
        self.b2 = store.new(f"{prefix}.b2", (hidden,), fan_in=0)
        self.obj_w = store.new(f"{prefix}.obj.w", (hidden, 2), fan_in=hidden)
        self.obj_b = store.new(f"{prefix}.obj.b", (2,), fan_in=0)
        self.write_w = store.new(f"{prefix}.write.w", (hidden, 3), fan_in=hidden)
        self.write_b = store.new(f"{prefix}.write.b", (3,), fan_in=0)

    def gates(self, vs: Tensor, rs: Tensor, tau: Tensor) -> Gates:
        out = T.gate_mlp(vs, rs, tau, self.w1, self.b1, self.w2, self.b2,
                         self.obj_w, self.obj_b, self.write_w, self.write_b)
        return Gates(*[T.select(out, (..., i)) for i in range(5)])


class SummaryUpdate:
    """ro = g_v * vo + g_m * mo; new summary = linear([ro, so_prev])."""

    def __init__(self, store: ParameterStore, d: int, prefix="cell.summary"):
        self.w = store.new(f"{prefix}.w", (2 * d, d), fan_in=2 * d)
        self.b = store.new(f"{prefix}.b", (d,), fan_in=0)

    def update(self, vo: Tensor, mo: Tensor, g_v: Tensor, g_m: Tensor,
               so_prev: Tensor):
        return mixed_linear(g_v, vo, g_m, mo, so_prev, self.w, self.b)


class AnswerHead:
    """Per-frame classifier over the answer set from (summary object, question)."""

    def __init__(self, store: ParameterStore, d: int, num_answers: int,
                 prefix="answer"):
        self.w1 = store.new(f"{prefix}.w1", (2 * d, d), fan_in=2 * d)
        self.b1 = store.new(f"{prefix}.b1", (d,), fan_in=0)
        self.w2 = store.new(f"{prefix}.w2", (d, num_answers), fan_in=d)
        self.b2 = store.new(f"{prefix}.b2", (num_answers,), fan_in=0)

    def logits(self, so: Tensor, q: Tensor) -> Tensor:
        return elu_mlp([so, q], self.w1, self.b1, self.w2, self.b2)


def _override_gate(value: Tensor, forced) -> Tensor:
    if forced is None:
        return value
    return T.Tensor(np.full(value.shape, float(forced)))  # one per episode


class SAMCell:
    def __init__(self, store: ParameterStore, config: ModelConfig):
        self.config = config
        d = config.d
        self.controller = QuestionDrivenController(store, d, config.steps)
        self.temporal = TemporalClassifier(store, d)
        self.visual = VisualRetrieval(store, d)
        self.memread = MemoryRetrieval(store, d)
        self.gate_net = GateNetwork(store, d)
        self.summary = SummaryUpdate(store, d)
        self.c0 = store.new("cell.c0", (d,), fan_in=d)
        self.so0 = store.new("cell.so0", (d,), fan_in=d)

    def initial_state(self) -> CellState:
        """The learned initial vectors, which a batch's episodes share."""
        return CellState(c=self.c0, so=self.so0)

    def step(self, question, keys, values, state: CellState, mem: MemoryState,
             t: int, gate_overrides=None, trace=None):
        """One reasoning step over a `QuestionEncoding`, given precomputed
        frame key/value projections."""
        ov = gate_overrides or {}
        c_t, qa = self.controller.step(question.q, question.cw, state.c, t,
                                       question.lengths)
        tau = self.temporal.classify(c_t)
        vo, va = self.visual.retrieve(keys, values, c_t)
        mo, rh = self.memread.retrieve(mem.m, c_t)
        vs = T.attention_aggregate(va)
        rs = T.attention_aggregate(rh)
        gates = self.gate_net.gates(vs, rs, tau)
        g_v = _override_gate(gates.g_v, ov.get("g_v"))
        g_m = _override_gate(gates.g_m, ov.get("g_m"))
        h_r = _override_gate(gates.h_r, ov.get("h_r"))
        h_a = _override_gate(gates.h_a, ov.get("h_a"))
        m_t, w = memory_update(mem.m, mem.wh, rh, vo, h_r, h_a)
        wh_t = write_head_update(mem.wh, h_a)
        _check_distribution(wh_t.data, "write head")
        so_t, _ = self.summary.update(vo, mo, g_v, g_m, state.so)
        if trace is not None:
            qa = qa.data.copy()
            if question.lengths is not None:  # each question's own words
                qa = [a[:n] for a, n in zip(qa, question.lengths)]
            trace.append(StepTrace(
                qa=qa, tau=tau.data.copy(), va=va.data.copy(),
                rh=rh.data.copy(),
                gates={name: g.data.copy() for name, g in (
                    ("g_v", g_v), ("g_m", g_m), ("h_r", h_r), ("h_a", h_a),
                    ("h_none", gates.h_none))},
                w=w.data.copy(), wh=wh_t.data.copy(),
            ))
        return CellState(c=c_t, so=so_t), MemoryState(m=m_t, wh=wh_t)


class SAMNet:
    """Full model: encoders, the recurrent cell, and the per-frame answer head."""

    def __init__(self, config: ModelConfig, init_seed: int = 0):
        self.config = config
        self.store = ParameterStore(np.random.default_rng(init_seed))
        self.question_encoder = QuestionEncoder(self.store, config.vocab_size, config.d)
        self.frame_encoder = FrameEncoder(self.store, config.in_channels, config.d)
        self.cell = SAMCell(self.store, config)
        self.answer_head = AnswerHead(self.store, config.d, config.num_answers)

    def episode_forward(self, token_ids, frames, n_slots: int | None = None,
                        gate_overrides=None, trace=None):
        """Per-frame answer logits for one episode; returns (K, num_answers).

        Memory starts empty with the write head on slot 0 and persists across
        frames; the per-frame reasoning state resets to the learned initial
        vectors. n_slots may differ from the training-time setting: no
        parameter shape depends on it.

        Inside `T.episode_batch`, a batch of B episodes with equal frame
        shape is B token sequences of any lengths (see
        `QuestionEncoder.encode`) with frames (B, K, H, W, C), and returns
        (B, K, num_answers), each episode bit-identical to its own forward;
        so is row i of its trace (see `StepTrace`).
        """
        n = self.config.mem_slots if n_slots is None else n_slots
        if n < 1:
            raise ValueError(f"n_slots must be >= 1, got {n}")
        overrides = dict(gate_overrides or {})
        if not self.config.memory_enabled:
            overrides.setdefault("g_m", 0.0)
            overrides.setdefault("h_r", 0.0)
            overrides.setdefault("h_a", 0.0)
        enc = self.question_encoder.encode(token_ids)
        features = self.frame_encoder.encode(frames)  # ([B,] K, H*W, d)
        n_frames = features.shape[-3]
        if n_frames < 1:
            raise ValueError("episode must contain at least one frame")
        batch = len(token_ids) if T.in_episode_batch() else None
        mem = MemoryState.initial(n, self.config.d, batch)
        frame_logits = []
        for k in range(n_frames):
            # frame k's rows: a view of the features, of every episode
            keys, values = self.cell.visual.project(features[..., k, :, :])
            state = self.cell.initial_state()
            step_trace = [] if trace is not None else None
            for t in range(1, self.config.steps + 1):
                state, mem = self.cell.step(
                    enc, keys, values, state, mem, t,
                    gate_overrides=overrides, trace=step_trace,
                )
            if trace is not None:
                trace.append(step_trace)
            frame_logits.append(self.answer_head.logits(state.so, enc.q))
        return T.stack(frame_logits, axis=-2)

    def episode_loss(self, token_ids, frames, answer_ids, **kw) -> Tensor:
        """Mean softmax cross-entropy over the per-frame answers, one
        `T.cross_entropy_logits` node on the forward's logits.

        Inside `T.episode_batch`, a batch (see `episode_forward`) with
        answers (B, K) gives one loss per episode, (B,).
        """
        logits = self.episode_forward(token_ids, frames, **kw)
        return T.cross_entropy_logits(logits, np.asarray(answer_ids, dtype=np.int64))

    def hyper_manifest(self) -> dict[str, str]:
        c = self.config
        return {
            "d": str(c.d),
            "steps": str(c.steps),
            "mem_slots": str(c.mem_slots),
            "vocab_size": str(c.vocab_size),
            "num_answers": str(c.num_answers),
            "in_channels": str(c.in_channels),
            "memory_enabled": str(int(c.memory_enabled)),
        }

    @classmethod
    def config_from_hypers(cls, hypers: dict[str, str]) -> ModelConfig:
        """The config a checkpoint header describes; KeyError for a missing
        key, ValueError for a bad value. The `gate_mode softmax` line of
        older checkpoints is accepted, as the write gates have no other
        form, and so is their `gate_hidden` line when it equals `d`, the
        gate network's only width."""
        if hypers.get("gate_mode", "softmax") != "softmax":
            raise ValueError(f"unknown gate_mode {hypers['gate_mode']!r}")
        if hypers.get("gate_hidden", hypers["d"]) != hypers["d"]:
            raise ValueError(f"gate_hidden {hypers['gate_hidden']!r} is not "
                             f"d {hypers['d']!r}")
        if hypers["memory_enabled"] not in ("0", "1"):
            raise ValueError(
                f"memory_enabled must be 0 or 1, got {hypers['memory_enabled']!r}"
            )
        return ModelConfig(
            vocab_size=int(hypers["vocab_size"]),
            num_answers=int(hypers["num_answers"]),
            in_channels=int(hypers["in_channels"]),
            d=int(hypers["d"]),
            steps=int(hypers["steps"]),
            mem_slots=int(hypers["mem_slots"]),
            memory_enabled=hypers["memory_enabled"] == "1",
        )
