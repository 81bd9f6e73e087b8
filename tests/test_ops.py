"""The op table's tests: one set per entry of `samnet.gradsuite.OPS`, the
tape ops and the reasoning step's chains of them.

Each entry is checked at sizes drawn from 1-5:
- its gradients against central differences in float64, over 20 seeds;
- against its reference chain (`reference_ops.CHAINS`), over 3 seeds: the
  forward bits in float32 and float64, and the float64 gradients within
  rtol 1e-10;
- for an op with a batch form, a batch of three episodes against three
  one-episode calls: each episode's forward bits and every operand's
  gradient bits, a shared operand's summed over the calls; a ragged op's
  episodes have 1 word, the batch's width and a length between, padded
  with random words that must get zero gradient and leave no trace;
  outside `episode_batch`, an extra leading axis raises `ShapeError` where
  the op checks ranks;
- under `no_grad` it records nothing and gives the recorded forward.
Adding a public op to `samnet.tensor` without an entry, or an entry without
a chain or the chainless mark, fails `test_every_public_op_has_an_entry`.
"""

import inspect

import numpy as np
import numpy.testing as npt
import pytest

from reference_ops import CHAINS
from samnet import tensor as T
from samnet.gradsuite import OPS, _readout_from, check_op

CHAINED = [name for name, entry in OPS.items() if not entry.chainless]
BATCHED = [name for name, entry in OPS.items() if entry.per_episode]
NOT_OPS = {"precision", "no_grad", "episode_batch", "in_episode_batch",
           "set_default_dtype", "default_dtype", "as_tensor", "zeros"}


def gradients(build, operands, readout):
    """Each tensor operand's gradient of <build(), readout>, zeros for none."""
    leaves = [t for t in operands if isinstance(t, T.Tensor)]
    for t in leaves:
        t.grad = None
    _readout_from(readout, build()).backward()
    return [np.zeros_like(t.data) if t.grad is None else t.grad for t in leaves]


@pytest.mark.parametrize("name", OPS)
def test_gradients_match_finite_differences_float64(name):
    with T.precision("float64"):
        for seed in range(20):
            err = check_op(OPS[name], np.random.default_rng(seed), eps=1e-6)
            assert err < 1e-6, f"seed {seed}: max rel err {err}"


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", CHAINED)
def test_forward_equals_chain(name, seed, dtype):
    entry = OPS[name]
    with T.precision(dtype):
        operands = entry.draw(np.random.default_rng(seed))
        fused, chain = entry.run(operands).data, CHAINS[name](*operands).data
    assert fused.dtype == chain.dtype == np.dtype(dtype)
    assert np.array_equal(fused, chain)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", CHAINED)
def test_gradients_match_chain_float64(name, seed):
    entry = OPS[name]
    with T.precision("float64"):
        rng = np.random.default_rng(100 + seed)
        operands = entry.draw(rng)
        readout = rng.normal(size=entry.run(operands).shape)
        for fused, chain in zip(
                gradients(lambda: entry.run(operands), operands, readout),
                gradients(lambda: CHAINS[name](*operands), operands, readout)):
            npt.assert_allclose(fused, chain, rtol=1e-10, atol=1e-13)


def episodes_and_batch(entry, rng, count=3):
    """`count` episodes' operands at one set of sizes, the shared ones the
    first episode's, and the batch's: per-episode operands stacked (a
    tensor as a fresh leaf), shared ones as they are. A ragged entry's
    episodes have lengths 1, the width (at least 2) and one between, and
    the batch pads them with random words; returns those lengths too."""
    sizes = entry.sizes(rng)
    lengths = None
    if entry.ragged:
        width = sizes["length"] = max(2, sizes["length"])
        lengths = np.array([1, width, rng.integers(1, width + 1)][:count])
        each = [entry.draw(rng, dict(sizes, length=n)) for n in lengths]
    else:
        each = [entry.draw(rng, sizes) for _ in range(count)]
    batch = []
    for i, first in enumerate(each[0]):
        if i not in entry.per_episode:
            for operands in each[1:]:
                operands[i] = first
            batch.append(first)
            continue
        parts = [np.asarray(e[i].data if isinstance(first, T.Tensor) else e[i])
                 for e in each]
        if i in entry.ragged:
            parts = [np.concatenate([p, rng.normal(
                size=(sizes["length"] - len(p),) + p.shape[1:])]).astype(p.dtype)
                for p in parts]
        stacked = np.stack(parts)
        batch.append(T.Tensor(stacked, requires_grad=True)
                     if isinstance(first, T.Tensor) else stacked)
    return each, batch, lengths


def padded(arrays, shape):
    """The arrays, each zero-padded at the end of every axis to `shape`."""
    out = np.zeros((len(arrays),) + shape, dtype=arrays[0].dtype)
    for i, a in enumerate(arrays):
        out[(i,) + tuple(slice(0, n) for n in a.shape)] = a
    return out


@pytest.mark.parametrize("name", [n for n in BATCHED if OPS[n].rank_checked])
def test_extra_leading_axis_needs_episode_batch(name):
    # the batch is read from the scope alone, never from operand ranks
    entry = OPS[name]
    _, batch, _ = episodes_and_batch(entry, np.random.default_rng(0))
    with pytest.raises(T.ShapeError):
        entry.run(batch)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", BATCHED)
def test_batch_of_three_equals_each_episode(name, seed, dtype):
    entry = OPS[name]
    with T.precision(dtype):
        rng = np.random.default_rng(seed)
        each, batch, lengths = episodes_and_batch(entry, rng)
        with T.no_grad():
            readouts = [rng.normal(size=entry.run(e).shape) for e in each]
        forwards = []
        for operands, readout in zip(each, readouts):
            one = entry.run(operands)
            forwards.append(one.data)
            _readout_from(readout, one).backward()
        with T.episode_batch():
            out = entry.run(batch, lengths)
            # each episode's forward, and zeros past a shorter one's words
            assert np.array_equal(out.data, padded(forwards, out.shape[1:]))
            # one root per episode, each read out as `_readout_from` reads
            # a one-episode output, and pads read out with weight 0
            r = padded([r / np.sqrt(r.size) for r in readouts], out.shape[1:])
            root = T.matmul(T.Tensor(r.reshape(len(each), -1)),
                            T.reshape(out, (len(each), -1, 1)))[:, 0]
    leaves = [i for i, t in enumerate(batch) if isinstance(t, T.Tensor)]
    want = {i: padded([e[i].grad for e in each], batch[i].shape[1:])
            if i in entry.per_episode else batch[i].grad for i in leaves}
    for i in leaves:
        batch[i].grad = None
    root.backward()
    for i in leaves:
        assert np.array_equal(batch[i].grad, want[i]), f"operand {i}"


@pytest.mark.parametrize("name", OPS)
def test_no_grad_records_nothing_and_keeps_the_forward(name):
    entry = OPS[name]
    operands = entry.draw(np.random.default_rng(8))
    recorded = entry.run(operands)
    assert recorded.requires_grad
    with T.no_grad():
        out = entry.run(operands)
    assert not out.requires_grad and out._backward is None and not out._parents
    assert np.array_equal(out.data, recorded.data)


def test_every_public_op_has_an_entry():
    public = {name for name, fn in inspect.getmembers(T, inspect.isfunction)
              if fn.__module__ == T.__name__ and not name.startswith("_")}
    modules = {entry.op.__module__ for entry in OPS.values()}
    assert modules == {T.__name__, "samnet.cell"}
    assert public - NOT_OPS == {entry.op.__name__ for entry in OPS.values()
                                if entry.op.__module__ == T.__name__}


def test_every_entry_has_a_chain_or_is_chainless():
    assert set(CHAINS) == set(CHAINED)
