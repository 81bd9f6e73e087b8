import re
from contextlib import nullcontext

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_ops import (elu_slope_where, elu_where, lstm_direction_sliced,
                           memory_blend_matmul)
from samnet import tensor as T
from samnet.gradcheck import grad_check
from samnet.cell import SAMNet, gate_mlp
from samnet.minicog import generate_corpus
from samnet.params import ParameterStore
from samnet import training
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
    with T.episode_batch():
        logits = model.episode_forward(
            ids, np.stack([ep.frames_symbolic() for ep in episodes]))
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
    assert inner and all(node.data is T._RELEASED for node in inner)
    assert logits.data is T._RELEASED
    # a released value says why it is gone, however it is read
    released = re.escape("value released by backward(); read it before backward()")
    for read in (lambda: logits.shape, lambda: np.asarray(logits.data),
                 lambda: logits.item(), lambda: np.round(logits.data, 4)):
        with pytest.raises(T.ReleasedValueError, match=released):
            read()
    assert repr(logits) == "Tensor(shape=released, requires_grad=True)"
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


KERNEL_DTYPES = (np.float32, np.float64)


def _edge_values(dtype):
    """+-0, NaN of both signs, +-inf, denormals, +-3e38 and ordinary values."""
    fi = np.finfo(dtype)
    edges = [0.0, np.nan, np.inf, fi.smallest_subnormal, fi.tiny / 3, fi.tiny,
             3e38, 1e-30, 0.5, 1.0, 2.5, 88.0]
    return np.array(edges + [-e for e in edges], dtype=dtype)


def _kernel_draws(dtype, shape, seed):
    """Seeded draws over magnitudes 1e-40 to 1e2, edge values first and last."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.choice([-40, -30, -8, -3, 0, 0, 0, 1, 2], size=shape)
    x = (rng.standard_normal(shape) * scale).astype(dtype)
    edges = _edge_values(dtype)
    x.reshape(-1)[:len(edges)] = edges
    x.reshape(-1)[-len(edges):] = edges[::-1]
    return x


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    bits = np.uint32 if got.dtype == np.float32 else np.uint64
    assert np.array_equal(got.view(bits), want.view(bits))


@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
def test_elu_and_its_slope_keep_the_masked_select_bits(dtype):
    for seed, shape in ((31, (8, 6, 6, 64)), (32, (1001,)), (33, (5, 7))):
        a = _kernel_draws(dtype, shape, seed)
        with np.errstate(all="ignore"):
            out = T._elu(a)
            _assert_same_bits(out, elu_where(a))
            slope = T._elu_slope(out)
            _assert_same_bits(slope, elu_slope_where(a, out))
            _assert_same_bits(slope, elu_slope_where(out, out))
            with T.precision(dtype):
                x = T.Tensor(a, requires_grad=True)
                y = T.elu(x)
                g = np.ones_like(a)
                [gx] = y._backward(g)
        _assert_same_bits(y.data, out)
        _assert_same_bits(gx, g * elu_slope_where(a, out))


def _blend_operands(dtype):
    """m, w and v over which w_i * v and m_ij * (1 - w_i) meet every pair
    of edge values, and so every pair of signed zeros."""
    e = _edge_values(dtype)
    k = len(e)
    w = np.repeat(e, k)  # row r: w = e[r // k], m = e[r % k]
    m = np.broadcast_to(np.tile(e, k)[:, None], (k * k, k)).copy()
    return m, w, e.copy()


@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
@pytest.mark.parametrize("batch", [None, 1, 3])
def test_memory_blend_keeps_the_gemm_bits(dtype, batch):
    m, w, v = _blend_operands(dtype)
    if batch:
        rng = np.random.default_rng(37)
        m, w, v = (np.stack([a] + [_kernel_draws(dtype, a.shape, s)
                                   for s in rng.integers(1 << 30, size=batch - 1)])
                   for a in (m, w, v))
    with np.errstate(all="ignore"), T.precision(dtype):
        _assert_same_bits(T._blend(m, w, v), memory_blend_matmul(m, w, v))


@pytest.mark.parametrize("dtype", KERNEL_DTYPES)
def test_lstm_gates_keep_the_per_slice_sigmoid_bits(dtype):
    rng = np.random.default_rng(41)
    for batch in (None, 1, 2, 7, 32):
        for hh in (4, 5, 16, 64):
            lead = () if batch is None else (batch,)
            x, wx, wh, b = (rng.standard_normal(s).astype(dtype) for s in (
                lead + (3, 6), (6, 4 * hh), (hh, 4 * hh), (4 * hh,)))
            if batch:  # edge values in one episode's input
                x[-1].reshape(-1)[:] = _edge_values(dtype)[:x[-1].size]
            with np.errstate(all="ignore"), T.precision(dtype):
                with T.episode_batch() if batch else nullcontext():
                    got = T.lstm_direction(x, wx, wh, b, reverse=hh % 2 == 1).data
                want = lstm_direction_sliced(x, wx, wh, b, reverse=hh % 2 == 1)
            _assert_same_bits(got, want)


# Weight gradients: every use of a weight queues its row blocks (x, g), and
# once the sweep has passed the weight's last user each episode adds one
# product x.T @ g of its rows joined in sweep order, episode after episode.

def _weight_graph(w, inputs, shared, lengths=None):
    """A loss per episode through four uses of the leaf w (6, 6): rank-1
    `linear`, whose output reads a question's words through
    `word_attention`, per-row `linear` over those words (padded to the
    longest, with their `lengths`, in a ragged batch) and the gate
    network's w1 and w2 (`cell.gate_mlp`). Outside `episode_batch`, one
    episode: `inputs` are that episode's."""
    x, words, vs, rs, tau = inputs
    b, gate = shared
    query = T.linear(x, w, b)
    read, _ = T.word_attention(query, T.linear(words, w, b, per_row=True),
                               lengths)
    gates = gate_mlp(vs, rs, tau, w, gate[0], w, *gate[1:])
    return T.add(T.attention_aggregate(read), T.attention_aggregate(gates))


def _queued_uses(monkeypatch, leaf):
    """Record the row blocks queued for `leaf`, one list per fold."""
    folds = []
    real = T._add_per_episode

    def recording(target, items):
        if target is leaf:
            folds.append([it.args for it in items])
        real(target, items)

    monkeypatch.setattr(T, "_add_per_episode", recording)
    return folds


def _episode_rows(fold):
    """Per episode of a fold, in episode order, its rows (x, g) joined in
    sweep order."""
    return [tuple(np.concatenate(c, axis=0) for c in zip(*blocks))
            for blocks in zip(*(zip(x, g) for x, g in fold))]


WEIGHT_MODES = ("one episode at a time", "batch", "padded")


def _weight_gradient(monkeypatch, mode, dtype, lengths=None, seed=17):
    """w's gradient over four episodes, whose questions have `lengths`
    words (a batch: 3 each, else 3, 2, 3, 2; padded with random words),
    and the row blocks its folds got."""
    lengths = lengths or ((3,) * 4 if mode == "batch" else (3, 2, 3, 2))
    rng = np.random.default_rng(seed)
    with T.precision(dtype):
        w = T.Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        shared = (T.Tensor(rng.normal(size=6)),
                  [T.Tensor(rng.normal(size=s)) for s in
                   ((6,), (6,), (6, 2), (2,), (6, 3), (3,))])
        x, vs, rs, tau = (rng.normal(size=(4,) + s) for s in ((6,), (), (), (4,)))
        words = rng.normal(size=(4, max(lengths), 6))
        folds = _queued_uses(monkeypatch, w)
        if mode == "one episode at a time":
            for e in range(4):
                _weight_graph(w, (x[e], words[e, :lengths[e]], vs[e], rs[e],
                                  tau[e]), shared).backward()
        else:
            with T.episode_batch():
                loss = _weight_graph(w, (x, words, vs, rs, tau), shared,
                                     lengths if mode == "padded" else None)
            loss.backward()
    return w.grad, folds


@pytest.mark.parametrize("mode", WEIGHT_MODES)
def test_weight_gradient_is_one_product_per_episode(monkeypatch, mode):
    got, folds = _weight_gradient(monkeypatch, mode, "float32")
    assert len(folds) == (4 if mode == "one episode at a time" else 1)
    want = None
    for fold in folds:
        rows = _episode_rows(fold)
        assert len(rows) == (1 if mode == "one episode at a time" else 4)
        for x, g in rows:
            # 1 + 3 rows of the linear uses, 2 of the gate network's; 1
            # fewer if short, unless padded with a zero-gradient row
            assert len(x) in (6, 5)
            product = np.matmul(x.T, g)
            want = product if want is None else want + product
    assert got.dtype == np.float32 and np.array_equal(got, want)


@pytest.mark.parametrize("mode", WEIGHT_MODES)
def test_weight_gradient_is_the_outer_product_sum_float64(monkeypatch, mode):
    got, folds = _weight_gradient(monkeypatch, mode, "float64")
    want = np.zeros((6, 6))
    for fold in folds:
        for x, g in _episode_rows(fold):
            for xr, gr in zip(x, g):
                want += np.multiply.outer(xr, gr)
    npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_batch_and_padded_batch_add_the_weight_gradient_of_a_loop():
    """Episode i of a batch sees the values of its own graph, and its pads
    add zero rows to its product, so batch, padded batch and one-episode
    tapes give the same bits."""
    for modes, lengths in [(("padded",), (3, 2, 3, 2)),
                           (("batch", "padded"), (3, 3, 3, 3))]:
        with pytest.MonkeyPatch.context() as mp:
            loop, _ = _weight_gradient(mp, "one episode at a time", "float32",
                                       lengths)
        for mode in modes:
            with pytest.MonkeyPatch.context() as mp:
                got, _ = _weight_gradient(mp, mode, "float32", lengths)
            assert np.array_equal(got, loop), (mode, lengths)


@pytest.mark.parametrize("fold_elements", [36, 72, 108])
def test_weight_products_fold_a_block_of_episodes_at_a_time(monkeypatch,
                                                           fold_elements):
    """w's (6, 6) products made 1, 2 or 3 episodes at a time add to the bits
    of a loop of one-episode tapes."""
    with pytest.MonkeyPatch.context() as mp:
        loop, _ = _weight_gradient(mp, "one episode at a time", "float32",
                                   (3, 3, 3, 3))
    monkeypatch.setattr(T, "_FOLD_ELEMENTS", fold_elements)
    blocks = []
    matmul = T._transposed_product
    monkeypatch.setattr(T, "_transposed_product",
                        lambda x, g: blocks.append(len(x)) or matmul(x, g))
    got, _ = _weight_gradient(monkeypatch, "batch", "float32")
    n = fold_elements // 36
    assert blocks == [n] * (4 // n) + [4 % n] * (4 % n > 0)
    assert np.array_equal(got, loop)


@pytest.mark.parametrize("width,n,h,length",
                         [(9, 26, 1, 4), (4, 25, 1, 2), (5, 1, 12, 4), (8, 1, 40, 4)])
def test_weight_product_keeps_its_bits_when_zero_rows_are_appended(width, n, h,
                                                                  length):
    """A question's pads append zero rows to its weight products. numpy
    would run these width-1 products as a gemv, whose sums such rows
    change."""
    rng = np.random.default_rng(width * n * h)
    x = rng.normal(size=(1, width, n)).astype(np.float32)
    g = np.zeros((1, width, h), dtype=np.float32)
    g[:, :length] = rng.normal(size=(1, length, h))
    assert np.array_equal(T._transposed_product(x, g),
                          T._transposed_product(x[:, :length], g[:, :length]))


def test_computed_weight_is_added_on_the_spot_but_not_shared():
    rng = np.random.default_rng(23)
    with T.precision("float64"):
        leaf = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        x1, x2, r1, r2, b = (rng.normal(size=s) for s in (4, 4, 3, 3, 3))
        w = T.reshape(leaf, (4, 3))  # not a leaf: no fold waits for it
        loss = T.add(T.matmul(T.linear(x1, w, b), r1),
                     T.matmul(T.linear(x2, w, b), r2))
        loss.backward()
        npt.assert_allclose(leaf.grad, np.outer(x1, r1) + np.outer(x2, r2),
                            rtol=1e-12, atol=1e-12)
        with T.episode_batch():
            loss = T.attention_aggregate(
                T.linear(rng.normal(size=(2, 4)), T.reshape(leaf, (4, 3)), b))
        with pytest.raises(T.ShapeError, match="only parameters can be shared"):
            loss.backward()


def test_mul_shares_only_an_operand_of_an_episodes_shape():
    # a shared (3,) operand of (2, 4, 3) episodes would queue (4, 3)
    # gradients for it; the episodes' own shape shares as the op table checks
    u = T.Tensor(np.ones(3), requires_grad=True)
    with T.episode_batch():
        with pytest.raises(T.ShapeError, match="mul shares"):
            T.mul(u, np.ones((2, 4, 3)))
        assert T.mul(np.ones((2, 3)), u).shape == (2, 3)


def test_shared_one_element_bias_folds_in_episode_order():
    # np.add.reduce sums a single column pairwise; the fold must not
    rng = np.random.default_rng(29)
    x = rng.normal(size=(40, 5)) * 10.0 ** rng.uniform(-3, 3, size=(40, 1))
    x = x.astype(np.float32)
    w = T.Tensor(rng.normal(size=(5, 1)))
    b = T.Tensor([0.5], requires_grad=True)
    for e in range(40):
        T.attention_aggregate(T.linear(x[e], w, b)[0:1]).backward()
    loop, b.grad = b.grad, None
    with T.episode_batch():
        loss = T.attention_aggregate(T.linear(x, w, b))
    loss.backward()
    assert np.array_equal(b.grad, loop)


# A chunk's float32 gradients against a float64 run of the same model and
# episodes, relative to each parameter's largest entry. Measured at most
# 1.60e-6 on toy-canonical (cell.memread.query.w) and 2.02e-6 on toy-hard
# (cell.gates.write.b). `cell.visual.key.b` is left out: its true gradient
# is exactly zero, so its computed one is rounding noise.
FLOAT64_BOUND = 5e-6


@pytest.mark.parametrize("preset,count", [("toy-canonical", 16), ("toy-hard", 5)])
def test_chunk_gradients_are_float64_gradients_within_a_bound(preset, count):
    cfg = config_from_preset(preset, task_family="all")
    episodes = generate_corpus(cfg.episode_config(), cfg.task_family_weights(),
                               count, seed=205)
    grads = {}
    for dtype in ("float32", "float64"):
        with T.precision(dtype):
            model = SAMNet(cfg.model_config(), init_seed=5)
            if dtype == "float64":  # the float32 model's values
                model.store.load_arrays(values)
            values = model.store.state_arrays()
            training._train_chunk(model, episodes)
            grads[dtype] = {p.name: p.grad for p in model.store.parameters()}
    got, want = grads.values()
    del want["cell.visual.key.b"]
    for name, g in want.items():
        assert got[name].dtype == np.float32 and g.dtype == np.float64, name
        gap = np.abs(got[name] - g).max() / np.abs(g).max()
        assert gap <= FLOAT64_BOUND, f"{name}: {gap:.2e}"
