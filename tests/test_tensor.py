import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_ops import sigmoid, sub, tanh
from samnet import tensor as T
from samnet.gradcheck import grad_check
from samnet.cell import SAMNet
from samnet.gradsuite import _readout_from
from samnet.minicog import generate_corpus
from samnet.params import ParameterStore
from samnet.training import config_from_preset


def make_store(seed=0):
    return ParameterStore(np.random.default_rng(seed))


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = T.softmax(T.Tensor([0.0, 0.0, 0.0, 0.0]))
        npt.assert_allclose(out.data, [0.25, 0.25, 0.25, 0.25], atol=1e-7)

    def test_saturation_uses_max_subtraction(self):
        out = T.softmax(T.Tensor([1000.0, 0.0]))
        npt.assert_allclose(out.data, [1.0, 0.0], atol=1e-6)
        assert np.all(np.isfinite(out.data))

    def test_reference_values(self):
        # independent evaluation of e^x / sum(e^x) at float64
        x = np.array([1.0, 2.0, 3.0], dtype=np.float64)
        expected = np.exp(x) / np.exp(x).sum()
        out = T.softmax(T.Tensor([1.0, 2.0, 3.0]))
        npt.assert_allclose(out.data, expected, atol=1e-6)
        npt.assert_allclose(out.data, [0.0900, 0.2447, 0.6652], atol=1e-4)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite input"):
            T.softmax(T.Tensor([np.nan, 0.0]))
        with pytest.raises(ValueError, match="non-finite input"):
            T.softmax(T.Tensor([np.inf, 0.0]))

    def test_non_finite_error_is_typed(self):
        ops = (
            T.softmax,
            lambda x: T.cross_entropy_logits(x, 0),
            lambda x: T.attention_weights(T.Tensor([1.0]), T.reshape(x, (2, 1))),
        )
        for op in ops:
            with pytest.raises(T.NonFiniteError):
                op(T.Tensor([np.nan, 0.0]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_output_is_distribution(self, logits):
        out = T.softmax(T.Tensor(logits)).data
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) < 1e-6


def attend(query, keys, values, scale):
    """Dot-product attention as the retrieval components record it: the
    weights over the keys, then their mix of the values."""
    weights = T.attention_weights(query, keys, scale)
    return weights, T.matmul(weights, values)


class TestDotAttention:
    def test_zero_keys_give_uniform_weights(self):
        rng = np.random.default_rng(1)
        keys = T.Tensor(np.zeros((5, 4)))
        values = T.Tensor(rng.normal(size=(5, 4)))
        query = T.Tensor(rng.normal(size=4))
        w, _ = attend(query, keys, values, 0.5)
        npt.assert_allclose(w.data, np.full(5, 0.2), atol=1e-6)

    def test_saturated_keys_select_one_row(self):
        keys = T.Tensor(np.eye(4) * 1000.0)
        values = T.Tensor(np.arange(16, dtype=np.float64).reshape(4, 4))
        query = T.Tensor([0.0, 0.0, 1.0, 0.0])
        w, s = attend(query, keys, values, 1.0)
        npt.assert_allclose(w.data, [0.0, 0.0, 1.0, 0.0], atol=1e-6)
        npt.assert_allclose(s.data, values.data[2], atol=1e-4)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(7)
        k = rng.normal(size=(3, 4))
        v = rng.normal(size=(3, 4))
        q = rng.normal(size=4)
        # independent float64 evaluation
        logits = 0.5 * (k @ q)
        e = np.exp(logits - logits.max())
        ew = e / e.sum()
        expected = ew @ v
        w2, s2 = attend(T.Tensor(q), T.Tensor(k), T.Tensor(v), 0.5)
        npt.assert_allclose(w2.data, ew, atol=1e-5)
        npt.assert_allclose(s2.data, expected, atol=1e-5)

    def test_shape_mismatch_raises(self):
        with pytest.raises(T.ShapeError):
            attend(T.Tensor([1.0, 2.0]), T.Tensor(np.ones((3, 2))),
                   T.Tensor(np.ones((4, 2))), 1.0)


class TestAttentionAggregate:
    def test_one_hot_is_maximal(self):
        assert T.attention_aggregate(T.Tensor([0.0, 1.0, 0.0])).item() == pytest.approx(1.0)

    def test_uniform_is_minimal(self):
        assert T.attention_aggregate(T.Tensor([0.25] * 4)).item() == pytest.approx(0.25)

    def test_half_half(self):
        assert T.attention_aggregate(T.Tensor([0.5, 0.5, 0.0, 0.0])).item() == pytest.approx(0.5)

    @given(st.integers(2, 64), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, length, seed):
        rng = np.random.default_rng(seed)
        a = rng.dirichlet(np.ones(length))
        s = T.attention_aggregate(T.Tensor(a)).item()
        assert 1.0 / length - 1e-6 <= s <= 1.0 + 1e-6


class TestGradCheck:
    def test_quadratic_is_exact(self):
        store = make_store()
        x = store.new("x", (2,))
        x.data[:] = [1.0, 2.0]

        def f():
            return T.attention_aggregate(x)  # x . x

        with T.precision("float64"):
            x.data = x.data.astype(np.float64)
            err = grad_check(f, store.parameters(), eps=1e-5)
        f().backward()
        assert err < 1e-8

    def test_softmax_cross_entropy(self):
        with T.precision("float64"):
            store = make_store(3)
            logits = store.new("logits", (3,))

            def f():
                return T.cross_entropy_logits(logits, 0)

            err = grad_check(f, store.parameters(), eps=1e-5)
        assert err < 1e-5

    def test_non_finite_perturbation_names_parameter(self):
        with T.precision("float64"):
            store = make_store(4)
            x = store.new("weird", (1,))
            x.data[:] = 1e300

            def f():
                return T.attention_aggregate(x)  # x * x overflows to inf

            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ValueError, match="weird") as info:
                    grad_check(f, store.parameters(), eps=1e-5)
        assert isinstance(info.value, T.NonFiniteError)


def _rand_params(store, rng, shapes, prefix="p"):
    out = []
    for i, shape in enumerate(shapes):
        t = store.new(f"{prefix}{i}", shape)
        t.data = rng.standard_normal(shape)
        out.append(t)
    return out


@pytest.mark.parametrize("seed", range(20))
def test_ops_grad_check_random_shapes(seed):
    """Every differentiable op passes central differences on small shapes."""
    rng = np.random.default_rng(seed)
    with T.precision("float64"):
        store = make_store(seed)
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        v, w = _rand_params(store, rng, [(n,), (n,)], prefix="vec")
        mat, mat2 = _rand_params(store, rng, [(m, n), (n, m)], prefix="mat")
        img = store.new("img", (1, 3, 3, 2))
        img.data = rng.standard_normal((1, 3, 3, 2))
        kern = store.new("kern", (3, 3, 2, 2))
        kern.data = rng.standard_normal((3, 3, 2, 2)) * 0.5
        bias = store.new("bias", (2,))
        bias.data = rng.standard_normal(2)

        readout = rng.standard_normal(m)
        hh = int(rng.integers(1, 3))
        wx, wh, lstm_b = _rand_params(
            store, rng, [(n, 4 * hh), (hh, 4 * hh), (4 * hh,)], prefix="lstm")
        (lin_b,) = _rand_params(store, rng, [(m,)], prefix="lin")
        tau, *gate_params = _rand_params(
            store, rng, [(4,), (6, 2), (2,), (2, 2), (2,), (2, 2), (2,),
                         (2, 3), (3,)], prefix="gate")

        def sumsq(t):
            return T.attention_aggregate(T.reshape(t, (-1,)))

        def f():
            a = T.softmax(v)
            b = T.elu(T.add(v, T.mul(w, 0.7)))
            c = sigmoid(sub(v, w))
            d = tanh(T.div(v, 2.0))
            e = T.matmul(mat, T.add(a, T.mul(b, c)))
            e = T.add(e, T.matmul(T.matmul(d, mat2), np.eye(m)))
            conv = T.conv2d_same3_elu(img, (kern, bias), (kern, bias))
            cs = sumsq(conv)
            agg = T.attention_aggregate(T.softmax(w))
            cat = T.concat([e, T.stack([v, w])[0][:1]])
            rolled = T.write_head_shift(T.softmax(v), sigmoid(w[0]))
            lin = T.linear(v, mat2, lin_b)
            lin2 = T.linear(mat, mat2, lin_b)
            states = T.lstm_direction(mat, wx, wh, lstm_b, reverse=seed % 3 == 0)
            att = T.attention_weights(w, mat, 0.5)
            ce = T.cross_entropy_logits(lin, seed % m)
            mix = T.weighted_sum(v[0], e, w[0], lin)
            blend = T.memory_blend(mat, att, v)
            gates = T.gate_mlp(sigmoid(v[0]), sigmoid(w[0]), T.softmax(tau),
                               *gate_params)
            fused = T.add(
                T.add(sumsq(lin2), sumsq(states)),
                T.add(T.add(T.matmul(att, T.Tensor(np.arange(m))), ce),
                      T.add(T.matmul(T.Tensor(readout), mix),
                            T.add(sumsq(blend),
                                  T.matmul(T.Tensor(np.arange(5.0)), gates)))),
            )
            return T.add(
                T.add(T.add(T.matmul(T.Tensor(readout), e), cs), fused),
                T.add(T.add(agg, _readout_from(np.ones(m + 1), cat)), sumsq(rolled)),
            )

        err = grad_check(f, store.parameters(), eps=1e-6)
    assert err < 1e-6, f"seed {seed}: max rel err {err}"


def test_evaluation_is_deterministic():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 6)).astype(np.float32)
    q = rng.standard_normal(6).astype(np.float32)

    def run():
        w, s = attend(T.Tensor(q), T.Tensor(a), T.Tensor(a), 1 / np.sqrt(6))
        return T.attention_aggregate(s).item()

    assert run() == run()


def test_backward_root_is_a_scalar_or_a_vector():
    # a vector root, one loss per episode, differentiates their sum
    with T.precision("float64"):
        v = T.Tensor([1.0, -2.0, 0.5], requires_grad=True)
        T.elu(v).backward()
        vector = v.grad
        v.grad = None
        T.matmul(T.Tensor(np.ones(3)), T.elu(v)).backward()
        npt.assert_array_equal(vector, v.grad)
    with pytest.raises(T.ShapeError):
        m = T.Tensor(np.ones((2, 2)), requires_grad=True)
        T.elu(m).backward()


def test_backward_runs_once_per_graph():
    v = T.Tensor([1.0, 2.0], requires_grad=True)
    root = T.matmul(v, T.elu(v))
    root.backward()
    with pytest.raises(RuntimeError, match="already"):
        root.backward()


def test_backward_releases_inner_values_and_keeps_root_and_leaves():
    cfg = config_from_preset("toy-canonical", task_family="all")
    model = SAMNet(cfg.model_config(), init_seed=2)
    episodes = generate_corpus(cfg.episode_config(), cfg.task_family_weights(),
                               3, seed=5)
    ids = [ep.token_ids for ep in episodes]
    logits = model.episode_forward(
        ids, np.stack([ep.frames_symbolic() for ep in episodes]))
    with T.episode_batch():
        root = T.cross_entropy_logits(
            logits, np.array([ep.answer_ids for ep in episodes]))
    tape, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node not in tape:
            tape.add(node)
            stack += [p for p in node._parents if p.requires_grad]
    inner = [n for n in tape if n is not root and n._backward is not None]
    losses = root.data.copy()
    params = {p.name: p.data.copy() for p in model.store.parameters()}
    root.backward()
    assert logits.data is None
    assert inner and all(node.data is None for node in inner)
    assert root.shape == (3,) and np.array_equal(root.data, losses)
    for p in model.store.parameters():
        assert np.array_equal(p.data, params[p.name]), p.name
        assert p.grad is not None and p.grad.shape == p.data.shape, p.name
    with pytest.raises(RuntimeError, match="already"):
        root.backward()


def test_elu_matches_definition():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    out = T.elu(T.Tensor(x)).data
    expected = np.where(x > 0, x, np.exp(x) - 1.0)
    npt.assert_allclose(out, expected, rtol=1e-6)


def _batch_of_two(*shapes):
    rng = np.random.default_rng(3)
    return [T.Tensor(rng.normal(size=s)) for s in shapes]


# each op's operands for a batch of two episodes
BATCHED_OPS = {
    "conv2d_same3_elu": lambda: T.conv2d_same3_elu(
        *_batch_of_two((2, 1, 3, 3, 2)), _batch_of_two((3, 3, 2, 3), (3,))),
    "attention_weights": lambda: T.attention_weights(
        *_batch_of_two((2, 4), (2, 3, 4))),
    "lstm_direction": lambda: T.lstm_direction(
        *_batch_of_two((2, 3, 2), (2, 8), (2, 8), (8,))),
    "gate_mlp": lambda: T.gate_mlp(*_batch_of_two(
        (2,), (2,), (2, 4), (6, 3), (3,), (3, 3), (3,), (3, 2), (2,),
        (3, 3), (3,))),
    "weighted_sum": lambda: T.weighted_sum(
        *_batch_of_two((2,), (2, 3), (2,), (2, 3))),
    "matmul": lambda: T.matmul(*_batch_of_two((2, 3), (2, 3, 4))),
    "memory_blend": lambda: T.memory_blend(
        *_batch_of_two((2, 4, 3), (2, 4), (2, 3))),
    "write_head_shift": lambda: T.write_head_shift(*_batch_of_two((2, 4), (2,))),
    "cross_entropy_logits": lambda: T.cross_entropy_logits(
        *_batch_of_two((2, 3, 5)), np.array([[0, 4, 2], [1, 1, 3]])),
}


@pytest.mark.parametrize("op", sorted(BATCHED_OPS))
def test_extra_leading_axis_needs_episode_batch(op):
    # the batch is read from the scope alone, never from operand ranks
    with pytest.raises(T.ShapeError):
        BATCHED_OPS[op]()
    with T.episode_batch():
        assert BATCHED_OPS[op]().shape[0] == 2
