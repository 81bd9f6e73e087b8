import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from samnet import tensor as T
from samnet.cell import (
    Gates,
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
from samnet.gradcheck import grad_check
from samnet.params import ParameterStore


def store_with_seed(seed=0):
    return ParameterStore(np.random.default_rng(seed))


def toy_net(seed=0, **kw):
    kw.setdefault("mem_slots", 3)
    cfg = ModelConfig(vocab_size=12, num_answers=5, in_channels=4, d=8,
                      steps=2, **kw)
    return SAMNet(cfg, init_seed=seed)


def rand_distribution(rng, n):
    return rng.dirichlet(np.ones(n))


class TestController:
    def test_single_word_forces_one_hot_attention(self):
        store = store_with_seed(1)
        ctrl = QuestionDrivenController(store, d=8, steps=2)
        rng = np.random.default_rng(0)
        cw = T.Tensor(rng.normal(size=(1, 8)))
        q = T.Tensor(rng.normal(size=8))
        c_prev = T.Tensor(rng.normal(size=8))
        c_t, qa = ctrl.step(q, cw, c_prev, 1)
        npt.assert_allclose(qa.data, [1.0], atol=1e-7)
        npt.assert_allclose(c_t.data, cw.data[0], atol=1e-6)

    @pytest.mark.parametrize("seed", range(0, 100, 7))
    def test_attention_is_distribution(self, seed):
        store = store_with_seed(seed)
        ctrl = QuestionDrivenController(store, d=8, steps=3)
        rng = np.random.default_rng(seed)
        cw = T.Tensor(rng.normal(size=(5, 8)))
        q = T.Tensor(rng.normal(size=8))
        c_prev = T.Tensor(rng.normal(size=8))
        for t in (1, 2, 3):
            _, qa = ctrl.step(q, cw, c_prev, t)
            assert qa.data.min() >= 0
            assert abs(qa.data.sum() - 1.0) < 1e-6

    def test_matches_independent_recomputation(self):
        store = store_with_seed(5)
        ctrl = QuestionDrivenController(store, d=8, steps=1)
        rng = np.random.default_rng(3)
        cw = rng.normal(size=(3, 8))
        q = rng.normal(size=8)
        c_prev = rng.normal(size=8)
        c_t, qa = ctrl.step(T.Tensor(q), T.Tensor(cw), T.Tensor(c_prev), 1)
        # independent recomputation with plain numpy
        w, b = ctrl.q_step[0]
        q_t = q.astype(np.float32) @ w.data + b.data
        cq = np.concatenate([q_t, c_prev.astype(np.float32)]) @ ctrl.merge_w.data + ctrl.merge_b.data
        logits = np.array([ctrl.attn_u.data @ (cq * cw_i.astype(np.float32)) for cw_i in cw])
        e = np.exp(logits - logits.max())
        a = e / e.sum()
        expected = a @ cw.astype(np.float32)
        npt.assert_allclose(qa.data, a, atol=1e-5)
        npt.assert_allclose(c_t.data, expected, atol=1e-5)

    def test_step_index_validated(self):
        store = store_with_seed(0)
        ctrl = QuestionDrivenController(store, d=4, steps=2)
        with pytest.raises(ValueError):
            ctrl.step(T.zeros(4), T.zeros((2, 4)), T.zeros(4), 3)


class TestTemporalClassifier:
    def test_zero_weights_give_uniform(self):
        store = store_with_seed(0)
        clf = TemporalClassifier(store, d=8)
        for p in store.parameters():
            p.data[:] = 0.0
        tau = clf.classify(T.Tensor(np.random.default_rng(0).normal(size=8)))
        npt.assert_allclose(tau.data, [0.25] * 4, atol=1e-7)

    def test_output_sums_to_one(self):
        store = store_with_seed(2)
        clf = TemporalClassifier(store, d=8)
        rng = np.random.default_rng(2)
        for _ in range(20):
            tau = clf.classify(T.Tensor(rng.normal(size=8)))
            assert abs(tau.data.sum() - 1.0) < 1e-6
            assert tau.data.min() >= 0

    def test_grad_check(self):
        with T.precision("float64"):
            store = store_with_seed(3)
            clf = TemporalClassifier(store, d=6)
            x = T.Tensor(np.random.default_rng(1).normal(size=6))
            readout = np.random.default_rng(2).normal(size=4)

            def f():
                return T.matmul(T.Tensor(readout), clf.classify(x))

            err = grad_check(f, store.parameters(), eps=1e-6)
        assert err < 1e-7


class TestVisualRetrieval:
    def test_identical_rows_give_uniform_attention(self):
        store = store_with_seed(4)
        vis = VisualRetrieval(store, d=8)
        rng = np.random.default_rng(4)
        row = rng.normal(size=8)
        rows = T.Tensor(np.tile(row, (6, 1)))
        vo, va = vis.retrieve(*vis.project(rows), T.Tensor(rng.normal(size=8)))
        npt.assert_allclose(va.data, np.full(6, 1 / 6), atol=1e-6)
        expected = row.astype(np.float32) @ vis.value_w.data + vis.value_b.data
        npt.assert_allclose(vo.data, expected, atol=1e-5)

    def test_attention_is_distribution(self):
        store = store_with_seed(5)
        vis = VisualRetrieval(store, d=8)
        rng = np.random.default_rng(5)
        keys, values = vis.project(T.Tensor(rng.normal(size=(9, 8))))
        _, va = vis.retrieve(keys, values, T.Tensor(rng.normal(size=8)))
        assert abs(va.data.sum() - 1.0) < 1e-6

    def test_saturated_logits_select_single_row(self):
        store = store_with_seed(6)
        vis = VisualRetrieval(store, d=4)
        # identity key/query paths so the raw rows act as keys directly
        vis.key_w.data = np.eye(4, dtype=np.float32)
        vis.key_b.data[:] = 0
        vis.query_w.data = np.eye(4, dtype=np.float32)
        vis.query_b.data[:] = 0
        # margin of the winning logit is >= 20 * sqrt(d) before scaling
        rows = np.zeros((3, 4), dtype=np.float32)
        rows[1, 0] = 80.0
        query = np.array([1.0, 0, 0, 0], dtype=np.float32)
        vo, va = vis.retrieve(*vis.project(T.Tensor(rows)), T.Tensor(query))
        npt.assert_allclose(va.data, [0, 1, 0], atol=1e-6)
        expected = rows[1] @ vis.value_w.data + vis.value_b.data
        npt.assert_allclose(vo.data, expected, atol=1e-4)


class TestMemoryRetrieval:
    def test_zero_memory_gives_uniform_head_and_zero_object(self):
        store = store_with_seed(7)
        mem = MemoryRetrieval(store, d=8)
        m = T.zeros((5, 8))
        mo, rh = mem.retrieve(m, T.Tensor(np.random.default_rng(7).normal(size=8)))
        npt.assert_allclose(rh.data, np.full(5, 0.2), atol=1e-6)
        npt.assert_allclose(mo.data, np.zeros(8), atol=1e-7)

    def test_single_slot_is_identity(self):
        store = store_with_seed(8)
        mem = MemoryRetrieval(store, d=8)
        rng = np.random.default_rng(8)
        m = rng.normal(size=(1, 8))
        mo, rh = mem.retrieve(T.Tensor(m), T.Tensor(rng.normal(size=8)))
        npt.assert_allclose(rh.data, [1.0], atol=1e-7)
        npt.assert_allclose(mo.data, m[0], atol=1e-6)

    def test_matching_row_with_margin_wins(self):
        store = store_with_seed(9)
        mem = MemoryRetrieval(store, d=4)
        mem.query_w.data = np.eye(4, dtype=np.float32)
        mem.query_b.data[:] = 0
        m = np.zeros((3, 4), dtype=np.float32)
        m[2, 1] = 80.0
        mo, rh = mem.retrieve(T.Tensor(m), T.Tensor([0.0, 1.0, 0.0, 0.0]))
        npt.assert_allclose(rh.data, [0, 0, 1], atol=1e-6)
        npt.assert_allclose(mo.data, m[2], atol=1e-4)


class TestGateNetwork:
    def test_zero_output_weights_center_the_gates(self):
        store = store_with_seed(10)
        net = GateNetwork(store, hidden=8)
        net.obj_w.data[:] = 0
        net.obj_b.data[:] = 0
        net.write_w.data[:] = 0
        net.write_b.data[:] = 0
        gates = net.gates(T.Tensor(0.5), T.Tensor(0.5), T.Tensor([0.25] * 4))
        assert gates.g_v.item() == pytest.approx(0.5)
        assert gates.g_m.item() == pytest.approx(0.5)
        for g in (gates.h_r, gates.h_a, gates.h_none):
            assert g.item() == pytest.approx(1 / 3)

    def test_ranges(self):
        store = store_with_seed(11)
        net = GateNetwork(store, hidden=8)
        rng = np.random.default_rng(11)
        for _ in range(25):
            tau = rand_distribution(rng, 4)
            gates = net.gates(
                T.Tensor(rng.uniform()), T.Tensor(rng.uniform()), T.Tensor(tau)
            )
            for g in (gates.g_v, gates.g_m, gates.h_r, gates.h_a):
                assert 0.0 <= g.item() <= 1.0
            total = gates.h_r.item() + gates.h_a.item() + gates.h_none.item()
            assert total == pytest.approx(1.0, abs=1e-6)
            assert gates.h_r.item() + gates.h_a.item() <= 1.0 + 1e-6

    def test_grad_check_hidden_16(self):
        with T.precision("float64"):
            store = store_with_seed(12)
            net = GateNetwork(store, hidden=16)
            rng = np.random.default_rng(12)
            vs, rs = T.Tensor(0.3), T.Tensor(0.7)
            tau = T.Tensor(rand_distribution(rng, 4))
            readout = rng.normal(size=5)

            def f():
                g = net.gates(vs, rs, tau)
                parts = T.stack([
                    T.reshape(g.g_v, (1,)), T.reshape(g.g_m, (1,)),
                    T.reshape(g.h_r, (1,)), T.reshape(g.h_a, (1,)),
                    T.reshape(g.h_none, (1,)),
                ])
                return T.matmul(T.Tensor(readout), T.reshape(parts, (5,)))

            err = grad_check(f, store.parameters(), eps=1e-6)
        assert err < 1e-7


class TestMemoryUpdate:
    def test_no_op_when_gates_closed(self):
        rng = np.random.default_rng(13)
        m = T.Tensor(rng.normal(size=(4, 6)))
        wh = T.Tensor(rand_distribution(rng, 4))
        rh = T.Tensor(rand_distribution(rng, 4))
        vo = T.Tensor(rng.normal(size=6))
        m_t, w = memory_update(m, wh, rh, vo, T.Tensor(0.0), T.Tensor(0.0))
        assert np.array_equal(m_t.data, m.data)
        npt.assert_allclose(w.data, np.zeros(4), atol=0)

    def test_one_hot_replace(self):
        rng = np.random.default_rng(14)
        m = T.Tensor(rng.normal(size=(4, 6)))
        wh = T.Tensor(rand_distribution(rng, 4))
        rh = T.Tensor(np.eye(4)[2])
        vo = T.Tensor(rng.normal(size=6))
        m_t, w = memory_update(m, wh, rh, vo, T.Tensor(1.0), T.Tensor(0.0))
        npt.assert_allclose(m_t.data[2], vo.data, atol=0)
        for j in (0, 1, 3):
            npt.assert_allclose(m_t.data[j], m.data[j], atol=0)
        npt.assert_allclose(w.data, rh.data, atol=0)

    def test_half_replace_half_append_same_slot(self):
        # hand evaluation for N=3, d=2: w = 0.5*e1 + 0.5*e1 = e1
        m = T.Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        onehot = T.Tensor(np.eye(3)[1])
        vo = T.Tensor([10.0, 20.0])
        m_t, w = memory_update(m, onehot, onehot, vo, T.Tensor(0.5), T.Tensor(0.5))
        npt.assert_allclose(w.data, [0.0, 1.0, 0.0], atol=1e-7)
        npt.assert_allclose(m_t.data, [[1, 2], [10, 20], [5, 6]], atol=1e-6)

    def test_length_mismatch_raises(self):
        with pytest.raises(T.ShapeError):
            memory_update(T.zeros((3, 2)), T.Tensor(np.eye(3)[0]), T.Tensor(np.eye(4)[0]),
                          T.zeros(2), T.Tensor(0.5), T.Tensor(0.5))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_write_conservation_and_convexity(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        m = rng.normal(size=(n, d))
        wh = rand_distribution(rng, n)
        rh = rand_distribution(rng, n)
        vo = rng.normal(size=d)
        h_r, h_a = rng.uniform(size=2)
        h_r, h_a = h_r * (1 - h_a), h_a  # keep the softmax-mode bound
        m_t, w = memory_update(
            T.Tensor(m), T.Tensor(wh), T.Tensor(rh), T.Tensor(vo),
            T.Tensor(h_r), T.Tensor(h_a),
        )
        assert w.data.sum() == pytest.approx(h_r + h_a, abs=1e-5)
        # each row is a convex combination of the old row and vo
        for i in range(n):
            lo = np.minimum(m[i], vo)
            hi = np.maximum(m[i], vo)
            assert np.all(m_t.data[i] >= lo - 1e-5)
            assert np.all(m_t.data[i] <= hi + 1e-5)


class TestWriteHead:
    def test_pure_shift(self):
        wh = write_head_update(T.Tensor([1.0, 0, 0, 0]), T.Tensor(1.0))
        npt.assert_allclose(wh.data, [0, 1, 0, 0], atol=0)

    def test_no_append_keeps_head(self):
        head = np.array([0.2, 0.3, 0.5])
        wh = write_head_update(T.Tensor(head), T.Tensor(0.0))
        npt.assert_allclose(wh.data, head, atol=0)

    def test_wrap_around(self):
        wh = write_head_update(T.Tensor([0.0, 0, 0, 1.0]), T.Tensor(1.0))
        npt.assert_allclose(wh.data, [1, 0, 0, 0], atol=0)

    @given(st.integers(0, 10_000), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_full_cycle_returns_to_start(self, seed, n):
        rng = np.random.default_rng(seed)
        start = rand_distribution(rng, n)
        wh = T.Tensor(start)
        for _ in range(n):
            wh = write_head_update(wh, T.Tensor(1.0))
        npt.assert_allclose(wh.data, start, atol=1e-5)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_stays_a_distribution(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        wh = write_head_update(
            T.Tensor(rand_distribution(rng, n)), T.Tensor(rng.uniform())
        )
        assert wh.data.min() >= -1e-7
        assert wh.data.sum() == pytest.approx(1.0, abs=1e-6)


class TestSummaryUpdate:
    def test_null_object_when_gates_closed(self):
        store = store_with_seed(15)
        su = SummaryUpdate(store, d=4)
        rng = np.random.default_rng(15)
        vo, mo, so = (T.Tensor(rng.normal(size=4)) for _ in range(3))
        _, ro = su.update(vo, mo, T.Tensor(0.0), T.Tensor(0.0), so)
        npt.assert_allclose(ro.data, np.zeros(4), atol=0)

    def test_visual_gate_selects_frame_object(self):
        store = store_with_seed(16)
        su = SummaryUpdate(store, d=4)
        rng = np.random.default_rng(16)
        vo, mo, so = (T.Tensor(rng.normal(size=4)) for _ in range(3))
        _, ro = su.update(vo, mo, T.Tensor(1.0), T.Tensor(0.0), so)
        npt.assert_allclose(ro.data, vo.data, atol=0)

    def test_identity_initialized_output_passes_ro_through(self):
        store = store_with_seed(17)
        su = SummaryUpdate(store, d=4)
        su.w.data[:] = 0
        su.w.data[:4, :] = np.eye(4, dtype=np.float32)
        su.b.data[:] = 0
        rng = np.random.default_rng(17)
        vo, mo, so = (T.Tensor(rng.normal(size=4)) for _ in range(3))
        so_t, ro = su.update(vo, mo, T.Tensor(0.7), T.Tensor(0.2), so)
        npt.assert_allclose(so_t.data, ro.data, atol=1e-6)


class TestCellStep:
    def test_forced_gates_freeze_memory_and_summary_path(self):
        net = toy_net(18)
        rng = np.random.default_rng(18)
        enc = net.question_encoder.encode([1, 2, 3, 4])
        mem = MemoryState(m=T.Tensor(rng.normal(size=(3, 8))),
                          wh=T.Tensor(rand_distribution(rng, 3)))
        state = net.cell.initial_state()
        forced = {"g_v": 0.0, "g_m": 0.0, "h_r": 0.0, "h_a": 0.0}
        frames = [rng.normal(size=(9, 8)) for _ in range(2)]
        outcomes = []
        for rows in frames:
            keys, values = net.cell.visual.project(T.Tensor(rows))
            new_state, new_mem = net.cell.step(
                enc.q, enc.cw, keys, values, state, mem, 1, gate_overrides=forced
            )
            assert np.array_equal(new_mem.m.data, mem.m.data)
            npt.assert_allclose(new_mem.wh.data, mem.wh.data, atol=1e-7)
            outcomes.append(new_state.so.data)
        # with all gates closed the summary depends only on so_prev
        npt.assert_allclose(outcomes[0], outcomes[1], atol=1e-6)

    def test_state_shapes_invariant_across_steps(self):
        net = toy_net(19)
        rng = np.random.default_rng(19)
        enc = net.question_encoder.encode([5, 6])
        keys, values = net.cell.visual.project(T.Tensor(rng.normal(size=(9, 8))))
        state = net.cell.initial_state()
        mem = MemoryState.initial(3, 8)
        for t in (1, 2):
            state, mem = net.cell.step(enc.q, enc.cw, keys, values, state, mem, t)
            assert state.c.shape == (8,)
            assert state.so.shape == (8,)
            assert mem.m.shape == (3, 8)
            assert mem.wh.shape == (3,)

    def test_grad_check_two_steps(self):
        with T.precision("float64"):
            net = toy_net(20)
            rng = np.random.default_rng(20)
            tokens = [1, 2, 3, 4]
            rows = rng.normal(size=(9, 8))
            readout = rng.normal(size=8)

            def f():
                enc = net.question_encoder.encode(tokens)
                state = net.cell.initial_state()
                mem = MemoryState.initial(3, 8)
                keys, values = net.cell.visual.project(T.Tensor(rows))
                for t in (1, 2):
                    state, mem = net.cell.step(enc.q, enc.cw, keys, values,
                                               state, mem, t)
                return T.matmul(T.Tensor(readout), state.so)

            err = grad_check(f, net.store.subset("question.", "cell."), eps=1e-6)
        assert err < 1e-7


class TestEpisodeForward:
    def test_logits_shape(self):
        net = toy_net(21)
        rng = np.random.default_rng(21)
        frames = (rng.random((3, 3, 3, 4)) < 0.3).astype(np.float32)
        logits = net.episode_forward([1, 2, 3], frames)
        assert logits.shape == (3, 5)

    def test_single_frame_with_memory_bypassed(self):
        net = toy_net(22, memory_enabled=False)
        rng = np.random.default_rng(22)
        frames = (rng.random((1, 3, 3, 4)) < 0.3).astype(np.float32)
        trace = []
        logits = net.episode_forward([1, 2], frames, trace=trace)
        assert logits.shape == (1, 5)
        for step in trace[0]:
            assert step.gates["g_m"] == 0.0
            assert step.gates["h_r"] == 0.0
            assert step.gates["h_a"] == 0.0
            assert np.array_equal(step.w, np.zeros(3))

    def test_memory_slots_changeable_without_parameter_changes(self):
        net = toy_net(23)
        rng = np.random.default_rng(23)
        frames = (rng.random((2, 3, 3, 4)) < 0.3).astype(np.float32)
        names_before = net.store.names()
        out4 = net.episode_forward([1, 2, 3], frames, n_slots=4)
        out8 = net.episode_forward([1, 2, 3], frames, n_slots=8)
        assert net.store.names() == names_before
        assert out4.shape == out8.shape
        assert np.all(np.isfinite(out8.data))

    @pytest.mark.parametrize("n_slots", [0, -1])
    def test_non_positive_slot_count_rejected(self, n_slots):
        # 0 must not fall back to the trained size
        net = toy_net(23)
        frames = np.zeros((1, 3, 3, 4), dtype=np.float32)
        with pytest.raises(ValueError, match="n_slots must be >= 1"):
            net.episode_forward([1, 2, 3], frames, n_slots=n_slots)

    def test_zero_frames_rejected(self):
        net = toy_net(24)
        with pytest.raises(ValueError):
            net.episode_forward([1], np.zeros((0, 3, 3, 4)))

    def test_debug_mode_asserts_distributions(self):
        net = toy_net(25)
        rng = np.random.default_rng(25)
        frames = (rng.random((2, 3, 3, 4)) < 0.3).astype(np.float32)
        T.DEBUG_CHECKS = True
        try:
            net.episode_forward([1, 2], frames)
        finally:
            T.DEBUG_CHECKS = False

    def test_batch_trace_equals_each_episode_trace(self):
        from samnet.minicog import generate_corpus
        from samnet.training import config_from_preset

        cfg = config_from_preset("toy-hard", task_family="all")
        net = SAMNet(cfg.model_config(), init_seed=6)
        episodes = generate_corpus(cfg.episode_config(),
                                   cfg.task_family_weights(), 6, seed=31)
        assert len({len(ep.tokens) for ep in episodes}) > 1
        with T.no_grad():
            single = []
            for ep in episodes:
                trace = []
                logits = net.episode_forward(ep.token_ids, ep.frames_symbolic(),
                                             n_slots=16, trace=trace)
                single.append((logits.data, trace))
            trace = []
            with T.episode_batch():
                logits = net.episode_forward(
                    [ep.token_ids for ep in episodes],
                    np.stack([ep.frames_symbolic() for ep in episodes]),
                    n_slots=16, trace=trace)
        assert len(trace) == cfg.frames
        for i, (episode_logits, episode_trace) in enumerate(single):
            assert np.array_equal(logits.data[i], episode_logits)
            for frame, episode_frame in zip(trace, episode_trace, strict=True):
                for step, one in zip(frame, episode_frame, strict=True):
                    assert len(step.qa) == len(episodes)
                    for name in ("qa", "tau", "va", "rh", "w", "wh"):
                        assert np.array_equal(getattr(step, name)[i],
                                              getattr(one, name)), name
                    for name, value in one.gates.items():
                        assert np.array_equal(step.gates[name][i], value), name

    def test_parameter_count_independent_of_extent_knobs(self):
        base = toy_net(26)
        more_slots = toy_net(26, mem_slots=7)
        assert base.store.names() == more_slots.store.names()
        shapes = {n: base.store[n].data.shape for n in base.store.names()}
        shapes2 = {n: more_slots.store[n].data.shape for n in more_slots.store.names()}
        assert shapes == shapes2


def backward_walk_size(root) -> int:
    """Nodes that `Tensor.backward` visits from `root` (the same DFS)."""
    visited = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.extend(p for p in node._parents
                     if p.requires_grad and id(p) not in visited)
    return len(visited)


def test_canonical_episode_tape_stays_fused():
    # one fused node per layer keeps a toy-canonical episode near 600 nodes;
    # the unfused primitive chains recorded about 1,450
    from samnet.minicog import episode_stream
    from samnet.training import config_from_preset

    cfg = config_from_preset("toy-canonical")
    model = SAMNet(cfg.model_config(), init_seed=0)
    ep = next(episode_stream(cfg.episode_config(), cfg.task_family_weights(), 0))
    loss = model.episode_loss(ep.token_ids, ep.frames_symbolic(), ep.answer_ids)
    assert backward_walk_size(loss) <= 650
