"""Dense tensors with tape-based reverse-mode differentiation.

Every tensor op used by the model lives here. Forward values are numpy
arrays; each op that participates in differentiation records its parents
and a backward closure, and ``Tensor.backward()`` walks the recorded graph
from an explicit root. Ops are functions; ``Tensor`` has no arithmetic
operators, only indexing (``select``). Default scalar precision is float32;
switch to float64 (e.g. for tight gradient checks) with
``set_default_dtype`` or the ``precision`` context manager.

The model's heavy layers are fused ops with a hand-written backward
(``linear``, ``lstm_direction``, ``word_attention``,
``cross_entropy_logits``, ``write_head_shift``, ``conv2d_same3_elu``);
the rest of a reasoning step is chains of primitive ops (``mul``,
``elu``, ``sigmoid``, ``softmax``, ``concat``, ``select``, ``reshape``,
``attention_weights``, ``weighted_sum``, ``memory_blend``). A fused forward
evaluates the same numpy expressions in the same order as the chain of
primitive ops it replaces, so forward values are bit-identical to that
chain. Every public op here has an entry in the op table
``gradsuite.OPS``, whose tests (``tests/test_ops.py``) check it against
central differences, a fused op against its reference chain
(``tests/reference_ops.py``), a batch against its episodes, and
``no_grad``. A fused node lists its parents in the order in which the
sweep met the parents of the chain's nodes, so the sweep adds every
gradient in the chain's order and the gradients are bit-identical too.
Fused ops keep their backward caches only while a graph is being
recorded.
The elementwise kernels (ELU and its slope from the output alone, the
memory blend's w_i * v, an LSTM step's gates) avoid masked selects,
(N, 1) @ (1, d) gemms and per-slice calls, and keep the bits of the forms
they replaced, which ``tests/reference_ops.py`` keeps.

A graph is differentiated once. ``Tensor.backward()`` releases each inner
node's value as soon as the sweep has passed it, with its gradient and
backward closure, so a tape's memory falls while it is swept: read any inner
value before ``backward()``: a released value raises ``ReleasedValueError``.
The root keeps its value (a training tape's per-episode losses) and the
leaves keep their values and gradients.

Batch axis. The model's ops also take a leading batch axis, one entry per
episode, forward and backward. One rule decides whether operands carry it,
for the ops and the model alike: inside ``episode_batch`` they do, outside
it they do not. Nothing reads the batch from an operand's rank, from how
its input nests or from a flag: an op reads the scope when it runs its
forward and keeps it for its backward, a model component reads it through
``in_episode_batch``, and a fixed-rank op given an extra leading axis
outside the scope raises ``ShapeError``. The callers that batch open the
scope once: ``training._train_chunk``, ``training._eval_logits`` and the
gradient suite's ``full_episode_batch3`` check. Each op writes its forward
and its backward once, for one episode and for a batch, so every episode
runs through the same numpy kernel: ``np.matmul`` over the leading axis
with each episode's operand rank kept (``x[..., None, :] @ w`` for a vector
per episode, never one folded 2-D gemm), reductions over one episode's
axes, elementwise maths. Each episode's values and gradients are
therefore bit-identical to an unbatched pass. Questions differ in length,
so a batch pads them to its longest and the ops over words take their
``lengths`` (``lstm_direction``, ``word_attention``; ``linear`` with
``per_row``): a pad gets zero weight and zero gradient, and every kernel on
the word axis has a form whose bits for one question do not depend on the
pad width (per-row vector-matrix products, left folds over the words, and
weight products ``X.T @ G`` as gemms, which on this BLAS add zero rows
without rounding).

Parameters are shared by the episodes of a batch. An op hands a
parameter's gradient to ``Tensor.backward`` as ``PerEpisode``
contributions, which the sweep adds once it has passed the parameter's
last user, in the order of a loop of one-episode backward passes, bit for
bit. A weight's uses queue as row blocks, in one episode as in a batch:
an episode's gradient is one product ``X.T @ G`` of its rows in sweep
order, one ``np.matmul`` over the episode axis computes a block of
episodes' products (at most ``_FOLD_ELEMENTS`` elements), and
``np.add.reduce`` adds each block to the running sum, one left fold over
the episodes, as it adds the shared sums.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

_DEFAULT_DTYPE = np.float32
_GRAD_ENABLED = True

# When enabled, attention vectors and similar contracts are checked at
# runtime (see cell.py). Off by default: the checks cost time in training.
DEBUG_CHECKS = False


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class NonFiniteError(ValueError):
    """An op or a gradient check met a NaN or infinite value."""


class ReleasedValueError(RuntimeError):
    """An inner node's value was read after ``Tensor.backward`` released it."""


class _Released:
    """The value of a node that ``Tensor.backward`` has swept."""

    def __array__(self, *args, **kwargs):
        raise ReleasedValueError(
            "value released by backward(); read it before backward()")

    __float__ = __getattr__ = __array__


_RELEASED = _Released()


def set_default_dtype(dtype) -> None:
    """Set the scalar dtype used for new leaf tensors ('float32'/'float64')."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype!r}")
    _DEFAULT_DTYPE = dt.type


def default_dtype():
    return _DEFAULT_DTYPE


@contextmanager
def precision(dtype):
    """Temporarily switch the default scalar dtype."""
    old = _DEFAULT_DTYPE
    set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(old)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (pure evaluation)."""
    global _GRAD_ENABLED
    old = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = old


# Inside `episode_batch`: operands carry a leading batch axis
_IN_BATCH = False


def in_episode_batch() -> bool:
    """True inside `episode_batch`: operands carry a leading batch axis."""
    return _IN_BATCH


@contextmanager
def episode_batch():
    """Ops run inside on a batch of episodes along their leading axis;
    outside, on one episode.

    There, a part of `concat` or an operand of `mul` with one axis fewer
    than the others is shared by every episode, as parameters are (a
    learned initial state, the controller's attention vector).
    """
    global _IN_BATCH
    old = _IN_BATCH
    _IN_BATCH = True
    try:
        yield
    finally:
        _IN_BATCH = old


class PerEpisode:
    """A node's gradient for an operand that episodes share, queued for
    the sweep: each arg has one entry per episode. Entry i contributes
    ``fn(*(a[i] for a in args))`` (``args[0][i]`` when `fn` is None), but a
    weight's uses (`fn` `_transposed_product`, row blocks x (n, d) and g
    (n, h)) join an episode's blocks in sweep order into one ``x.T @ g``.
    One episode outside `episode_batch` (`batched` False) gets its leading
    axis here.
    """

    __slots__ = ("fn", "args", "batched")

    def __init__(self, fn, *args, batched=True):
        if not batched:  # one episode outside `episode_batch`
            args = tuple(a[None] for a in args)
        self.fn, self.args, self.batched = fn, args, batched


def _outer(x, g):
    """np.multiply.outer of the last axes, for one episode or stacked."""
    return x[..., :, None] * g[..., None, :]


def _transposed_product(x, g):
    """x.T @ g, for one episode or stacked: a gemm, whose sums over the rows
    keep their bits when zero rows (a question's pads) are appended. numpy
    would run a width-1 x or g as a gemv, which does not, so it gets a zero
    column."""
    n, h = x.shape[-1], g.shape[-1]
    x, g = (np.concatenate([a, np.zeros_like(a)], axis=-1) if a.shape[-1] == 1
            else a for a in (x, g))
    return np.matmul(np.swapaxes(x, -1, -2), g)[..., :n, :h]


# At most this many elements of a weight's products are made and added at once
_FOLD_ELEMENTS = 32768


def _joined_rows(uses):
    """A weight's row blocks x and g, each episode's joined in sweep order."""
    return (c[0] if len(c) == 1 else np.concatenate(c, axis=-2)
            for c in zip(*(u.args for u in uses)))


def _add_per_episode(leaf, items) -> None:
    """Add a leaf's queued contributions in the order of a loop of
    one-episode backward passes: episode after episode, each episode's in
    sweep order, but its weight uses last, as one product. The adds are
    one left fold over a leading axis, a weight's products made one block
    of episodes at a time, unless a contribution is a function of its
    episode's args: then they run one episode at a time."""
    uses = [it for it in items if it.fn is _transposed_product]
    items = [it for it in items if it.fn is not _transposed_product]
    if items and uses:
        items.append(PerEpisode(None, _transposed_product(*_joined_rows(uses))))
        uses = []
    if any(it.fn is not None for it in items):
        for j in range(len(items[0].args[0])):
            for it in items:
                part = it.fn(*(a[j] for a in it.args)) if it.fn else it.args[0][j]
                leaf.grad = part if leaf.grad is None else leaf.grad + part
        return
    if uses:  # a weight's products, one np.matmul per block of episodes
        x, g = _joined_rows(uses)
        n = max(1, _FOLD_ELEMENTS // (x.shape[-1] * g.shape[-1]))
        blocks = (_transposed_product(x[s:s + n], g[s:s + n])
                  for s in range(0, len(x), n))
    else:  # each episode's contributions in turn
        blocks = [np.stack([it.args[0] for it in items], axis=1).reshape(
            (-1,) + items[0].args[0].shape[1:])]
    for c in blocks:  # fresh arrays
        if leaf.grad is not None:
            c[0] += leaf.grad  # grad + c[0] == c[0] + grad
        # np.add.reduce sums a single column pairwise, more columns as a left fold
        leaf.grad = (np.add.reduce(c, axis=0) if c[0].size > 1
                     else np.add.accumulate(c, axis=0)[-1])
        del c  # freed before the next block is made


class Tensor:
    """A dense array plus optional participation in the gradient tape."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @classmethod
    def _from_op(cls, data, parents, backward):
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out._parents = ()
        out._backward = None
        out.requires_grad = False
        if _GRAD_ENABLED:
            for p in parents:
                if p.requires_grad:
                    out.requires_grad = True
                    out._parents = parents
                    out._backward = backward
                    break
        return out

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Reverse-mode sweep from this root to every reachable leaf.

        The root is a scalar, or a vector of per-episode losses whose sum
        is differentiated. A leaf's `PerEpisode` contributions are added,
        episode after episode, once the last node that uses the leaf is
        swept; every other gradient reaches it earlier. A computed operand's
        are added at once, and only outside `episode_batch`. The sweep
        frees each inner node's gradient, backward closure and value once
        spent, so a graph is differentiated once and an inner value must be
        read before `backward()`. The root keeps its value and every leaf
        its value and gradient.
        """
        if self._parents and self._backward is None:
            raise RuntimeError("backward() already ran on this graph")
        if self.data.ndim > 1 or self.data.size < 1:
            raise ShapeError("backward() requires a scalar or vector root")
        topo = []
        visited = set()  # Tensor defines no __eq__, so nodes hash by identity
        folds = {}  # node -> the leaves it is the last in the sweep to use
        leaves = set()  # leaves whose last user is known
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                for p in node._parents:
                    if p.requires_grad and p._backward is None and p not in leaves:
                        leaves.add(p)
                        folds.setdefault(node, []).append(p)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and p not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        queued = {}
        for node in reversed(topo):
            if node._backward is None:
                continue
            grads = node._backward(node.grad)
            # spent: the inner gradient, the closure with its caches and,
            # since every node that reads it has been swept, the value
            node.grad = node._backward = None
            if node is not self:
                node.data = _RELEASED
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if isinstance(g, PerEpisode):
                    if parent._backward is None:
                        queued.setdefault(parent, []).append(g)
                    elif g.batched:
                        raise ShapeError(
                            "a batched op shares a non-leaf operand across "
                            "episodes; only parameters can be shared")
                    else:  # a computed operand of one episode: added now
                        _add_per_episode(parent, [g])
                elif parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g
            # a leaf's contributions are all in once its last user is swept
            for leaf in folds.get(node, ()):
                if leaf in queued:
                    _add_per_episode(leaf, queued.pop(leaf))

    def __getitem__(self, idx):
        return select(self, idx)

    def __repr__(self):
        shape = "released" if self.data is _RELEASED else self.data.shape
        return f"Tensor(shape={shape}, requires_grad={self.requires_grad})"


def _recording(parents) -> bool:
    """True when an op on these parents will be put on the tape."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _vecmat(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w for one vector x (d,) or for each row of x (..., d).

    Each row is its own (1, d) product, so every row runs the same
    vector-matrix kernel as the unbatched product, however many rows there
    are; w is (d, h) or one (d, h) matrix per episode.
    """
    if x.ndim == 1:
        return x @ w
    return np.matmul(x[..., None, :], w)[..., 0, :]


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for one matrix and vector, or one pair per episode."""
    if v.ndim == 1:
        return m @ v
    return np.matmul(m, v[..., None])[..., 0]


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=_DEFAULT_DTYPE))


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == tuple(shape):
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return Tensor._from_op(out, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def backward(g):
        ga = _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None
        gb = (
            _unbroadcast(-g * out / b.data, b.data.shape)
            if b.requires_grad
            else None
        )
        return ga, gb

    return Tensor._from_op(out, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise product with broadcasting. Inside `episode_batch` an
    operand with one axis fewer than the other is one episode's operand,
    which the episodes share: it must have an episode's shape."""
    a, b = as_tensor(a), as_tensor(b)
    batched = _IN_BATCH
    shared, other = (a, b) if a.ndim < b.ndim else (b, a)
    if batched and shared.ndim < other.ndim and shared.shape != other.shape[1:]:
        raise ShapeError(f"mul shares {shared.shape} across episodes of {other.shape}")
    out = a.data * b.data

    def grad(t, other, g):
        if not t.requires_grad:
            return None
        if batched and t.ndim < other.ndim:
            return PerEpisode(None, g * other.data)
        return _unbroadcast(g * other.data, t.data.shape)

    return Tensor._from_op(out, (a, b), lambda g: (grad(a, b, g), grad(b, a, g)))


def matmul(a, b) -> Tensor:
    """Matrix/vector product for ranks (2,2), (2,1), (1,2) and (1,1).

    Inside `episode_batch`, a is one vector per episode (B, L) and b one
    matrix per episode (B, L, d); returns (B, d).
    """
    a, b = as_tensor(a), as_tensor(b)
    batched = _IN_BATCH
    if batched:
        if a.ndim != 2 or b.ndim != 3 or b.shape[:2] != a.shape:
            raise ShapeError(f"batched matmul got {a.shape} @ {b.shape}")
    elif a.ndim == 0 or b.ndim == 0 or a.ndim > 2 or b.ndim > 2:
        raise ShapeError(f"matmul undefined for shapes {a.shape} @ {b.shape}")
    elif a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = _vecmat(a.data, b.data) if batched else np.asarray(a.data @ b.data)

    def backward(g):
        ad, bd = a.data, b.data
        ga = gb = None
        if a.requires_grad:
            if batched:
                ga = _vecmat(g, np.swapaxes(bd, -1, -2))
            else:
                ga = g @ bd.T if b.ndim == 2 else np.multiply.outer(g, bd)
        if b.requires_grad:
            if batched:
                gb = _outer(ad, g)
            else:
                gb = ad.T @ g if a.ndim == 2 else np.multiply.outer(ad, g)
        return ga, gb

    return Tensor._from_op(out, (a, b), backward)


def linear(x, w, b, per_row=False) -> Tensor:
    """x @ w + b for a rank-1 or rank-2 x, as one tape node.

    Inside `episode_batch`, x has a leading episode axis: (B, d) is one
    vector per episode and (B, L, d) one matrix per episode. With
    `per_row`, each row of a rank-2 x is its own vector-matrix product,
    forward and backward, so its bits do not depend on how many rows x
    has: the questions of a batch, padded to its longest.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    xd, wd = x.data, w.data
    batched = _IN_BATCH
    rank = xd.ndim - batched
    if (rank not in (1, 2) or wd.ndim != 2 or xd.shape[-1] != wd.shape[0]
            or b.data.shape != wd.shape[1:]):
        raise ShapeError(f"linear got x {x.shape}, w {w.shape}, b {b.shape}")
    rowwise = rank == 1 or per_row
    out = (_vecmat(xd, wd) if rowwise else xd @ wd) + b.data

    def backward(g):
        gx = gw = gb = None
        if x.requires_grad:
            gx = _vecmat(g, wd.T) if rowwise else g @ wd.T
        if w.requires_grad:
            xs, gs = (xd, g) if rank == 2 else (xd[..., None, :], g[..., None, :])
            gw = PerEpisode(_transposed_product, xs, gs, batched=batched)
        if b.requires_grad:
            gb = PerEpisode(None, g if rank == 1 else g.sum(axis=-2),
                            batched=batched)
        return gx, gw, gb

    return Tensor._from_op(out, (x, w, b), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = _sigmoid(a.data)
    return Tensor._from_op(out, (a,), lambda g: (g * out * (1.0 - out),))


def _elu(a: np.ndarray) -> np.ndarray:
    return np.maximum(a, 0.0) + np.expm1(np.minimum(a, 0.0))


def _elu_slope(out: np.ndarray) -> np.ndarray:
    """ELU's slope from its output: the bits of where(out > 0, 1, out + 1)."""
    return np.minimum(out, 0.0) + 1.0


def elu(a) -> Tensor:
    a = as_tensor(a)
    out = _elu(a.data)

    def backward(g):
        return (g * _elu_slope(out),)

    return Tensor._from_op(out, (a,), backward)


def _screen_finite(x: np.ndarray) -> None:
    # cheap screen first; the exact check only runs when the sum overflows
    if not math.isfinite(float(x.sum())) and not np.all(np.isfinite(x)):
        raise NonFiniteError("non-finite input")


def _softmax(x: np.ndarray) -> np.ndarray:
    """Max-shifted softmax of a rank-1 array, or of each row of a batch,
    screened for non-finite input."""
    _screen_finite(x)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_backward(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    if g.ndim == 1:
        return (g - np.dot(g, out)) * out
    # one 1-D dot per row: (1, n) @ (n, 1) runs the same kernel as np.dot
    return (g - np.matmul(g[..., None, :], out[..., :, None])[..., 0]) * out


def softmax(a) -> Tensor:
    """Numerically stable softmax of a rank-1 tensor; inside
    `episode_batch`, of one per episode (B, n)."""
    a = as_tensor(a)
    if a.ndim != 1 + _IN_BATCH or a.size < 1:
        raise ShapeError(f"softmax expects a non-empty vector per episode, "
                         f"got {a.shape}")
    out = _softmax(a.data)
    return Tensor._from_op(out, (a,), lambda g: (_softmax_backward(g, out),))


def cross_entropy_logits(logits: Tensor, target) -> Tensor:
    """The episode loss: the mean over frames of each frame's softmax
    cross-entropy, for logits (K, A) against one class index per frame.

    One frame's logits (A,) against one index give its cross-entropy.
    Inside `episode_batch` both carry a leading batch axis, giving one loss
    per episode (B,). Each frame receives g / K of the loss gradient g.
    """
    logits = as_tensor(logits)
    target = np.asarray(target)
    rank = logits.ndim - _IN_BATCH
    if (rank not in (1, 2) or logits.shape[-1] < 1
            or target.shape != logits.shape[:-1]
            or not np.issubdtype(target.dtype, np.integer)):
        raise ShapeError(
            f"cross_entropy_logits expects logits ([B,] [K,] A) and one class "
            f"index per frame, got {logits.shape} and {target.shape}")
    if np.any((target < 0) | (target >= logits.shape[-1])):
        raise ValueError(
            f"target {target} out of range for {logits.shape[-1]} classes")
    x = logits.data
    _screen_finite(x)
    shifted = x - x.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    pick = np.indices(target.shape, sparse=True) + (target,)
    out = -log_probs[pick]
    out = np.asarray(out.mean(axis=-1) if rank == 2 else out)

    def backward(g):
        if rank == 2:  # each frame's share
            g = (g / target.shape[-1])[..., None]
        grad = np.exp(log_probs) * g[..., None]
        grad[pick] -= g
        return (grad,)

    return Tensor._from_op(out, (logits,), backward)


def concat(parts, axis=0) -> Tensor:
    """Concatenate tensors of equal rank along `axis` (negative counts
    from the last axis).

    Inside `episode_batch` a part with one axis fewer than the others is
    shared by the episodes: it is repeated along the leading batch axis,
    and its slices of the gradient are queued per episode.
    """
    parts = tuple(as_tensor(p) for p in parts)
    values = [p.data for p in parts]
    ndims = [v.ndim for v in values]
    rank = max(ndims)
    if rank == 0 or min(ndims) < rank - _IN_BATCH:
        raise ShapeError("concat expects tensors of equal, non-zero rank")
    axis %= rank
    if min(ndims) < rank:
        batch = values[ndims.index(rank)].shape[:1]
        values = [v if n == rank else np.broadcast_to(v, batch + v.shape)
                  for v, n in zip(values, ndims)]
    # numpy lays out the join of a width-1 part and a shared one column-major,
    # and np.matmul rounds such a batch's rows unlike one episode's x @ w
    out = np.ascontiguousarray(np.concatenate(values, axis=axis))
    bounds = []
    end = 0
    for v in values:
        start, end = end, end + v.shape[axis]
        bounds.append((slice(None),) * axis + (slice(start, end),))

    def backward(g):
        return tuple(PerEpisode(None, g[bd]) if n < rank else g[bd]
                     for bd, n in zip(bounds, ndims))

    return Tensor._from_op(out, parts, backward)


def stack(rows, axis=0) -> Tensor:
    """Stack tensors of equal shape along a new `axis`."""
    rows = [as_tensor(r) for r in rows]
    out = np.stack([r.data for r in rows], axis=axis)

    def backward(g):
        return tuple(np.moveaxis(g, axis, 0))

    return Tensor._from_op(out, tuple(rows), backward)


def select(a, idx) -> Tensor:
    """Index into a tensor (integers/slices/tuples); gradient scatters back."""
    a = as_tensor(a)
    out = a.data[idx]

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return Tensor._from_op(np.asarray(out), (a,), backward)


def take_rows(a, ids) -> Tensor:
    """Gather rows of a matrix by an integer index array (embedding lookup);
    inside `episode_batch`, ids (B, L) is one sequence per episode."""
    a = as_tensor(a)
    ids = np.asarray(ids, dtype=np.int64)
    out = a.data[ids]
    batched = _IN_BATCH

    def scatter(ids, g):
        full = np.zeros_like(a.data)
        np.add.at(full, ids, g)
        return full

    def backward(g):
        return (PerEpisode(scatter, ids, g, batched=batched),)

    return Tensor._from_op(out, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return Tensor._from_op(out, (a,), backward)


def _im2col(x: np.ndarray) -> np.ndarray:
    """The (K*H*W, 9*C) zero-padded 3x3 patch matrix of grids (K, H, W, C)."""
    k, h, wd, cin = x.shape
    xp = np.zeros((k, h + 2, wd + 2, cin), dtype=x.dtype)
    xp[:, 1:h + 1, 1:wd + 1] = x
    cols = np.empty((k, h, wd, 9 * cin), dtype=x.dtype)
    for di in range(3):
        for dj in range(3):
            patch = xp[:, di:di + h, dj:dj + wd, :]
            cols[..., (di * 3 + dj) * cin:(di * 3 + dj + 1) * cin] = patch
    return cols.reshape(-1, 9 * cin)


def _conv_weight_grad(x, g):
    """The kernel gradient of one episode's 3x3 convolution: grids x
    (K, H, W, C_in) and output gradient g (K, H, W, C_out)."""
    cin, cout = x.shape[-1], g.shape[-1]
    return (_im2col(x).T @ g.reshape(-1, cout)).reshape(3, 3, cin, cout)


def _conv_bias_grad(g):
    return g.reshape(-1, g.shape[-1]).sum(axis=0)


def _conv_input_grad(g, wmat):
    """The grid gradient of one episode's 3x3 convolution: output gradient
    g (K, H, W, C_out) and kernel matrix wmat (9*C_in, C_out)."""
    k, h, wd, cout = g.shape
    cin = wmat.shape[0] // 9
    gcols = (g.reshape(-1, cout) @ wmat.T).reshape(k, h, wd, 9, cin)
    gxp = np.zeros((k, h + 2, wd + 2, cin), dtype=g.dtype)
    for di in range(3):
        for dj in range(3):
            gxp[:, di:di + h, dj:dj + wd, :] += gcols[:, :, :, di * 3 + dj, :]
    return gxp[:, 1:h + 1, 1:wd + 1, :]


def conv2d_same3_elu(x, *layers) -> Tensor:
    """Layers of elu(3x3 same-padded convolution) over feature grids, as
    one tape node.

    x: (K, H, W, C_0); each layer is a pair w (3, 3, C_in, C_out), b
    (C_out,). Inside `episode_batch`, x is (B, K, H, W, C_0). Each layer runs
    an episode's frames as one im2col matmul, and a batch runs one episode
    at a time, so it holds one episode's patch matrices and inner
    activations at a time. The node keeps only x and its output: the
    backward recomputes an episode's inner activations from x, rebuilds the
    im2col matrices, and takes ELU's slope from its output.
    """
    x = as_tensor(x)
    layers = [(as_tensor(w), as_tensor(b)) for w, b in layers]
    batched = _IN_BATCH
    if x.ndim != 4 + batched or not layers:
        raise ShapeError(f"conv2d_same3_elu got x {x.shape} and {len(layers)} layers")
    k, h, wd, c = x.shape[-4:]
    if h == 0 or wd == 0:
        raise ShapeError("empty spatial grid")
    mats = []
    for w, b in layers:
        if w.ndim != 4 or w.shape[:3] != (3, 3, c) or b.shape != w.shape[3:]:
            raise ShapeError(
                f"conv2d_same3_elu got w {w.shape}, b {b.shape} for {c} channels")
        c = w.shape[3]
        mats.append(w.data.reshape(-1, c))
    xs = x.data if batched else x.data[None]

    def activations(xe, depth):
        """An episode's grids and its first `depth` layers' outputs."""
        acts = [xe]
        for (_, b), wmat in zip(layers[:depth], mats):
            a = _im2col(acts[-1]) @ wmat + b.data
            acts.append(_elu(a.reshape(k, h, wd, wmat.shape[1])))
        return acts

    out = np.empty(xs.shape[:-1] + (c,), dtype=_DEFAULT_DTYPE)
    for xe, oe in zip(xs, out):
        oe[...] = activations(xe, len(layers))[-1]

    def backward(g):
        gs = g if batched else g[None]
        # per layer, its input and its pre-activation gradient, per episode
        inputs = [xs] + [np.empty(xs.shape[:-1] + (wmat.shape[0] // 9,),
                                  dtype=out.dtype) for wmat in mats[1:]]
        gas = [np.empty(xs.shape[:-1] + (wmat.shape[1],), dtype=out.dtype)
               for wmat in mats]
        gx = np.empty_like(xs) if x.requires_grad else None
        for e, ge in enumerate(gs):
            acts = activations(xs[e], len(layers) - 1) + [out[e]]
            for i in reversed(range(len(layers))):
                gas[i][e] = ge * _elu_slope(acts[i + 1])
                if i:
                    inputs[i][e] = acts[i]
                if i or gx is not None:
                    ge = _conv_input_grad(gas[i][e], mats[i])
            if gx is not None:
                gx[e] = ge
        if not batched:
            gx = None if gx is None else gx[0]
            inputs, gas = [a[0] for a in inputs], [a[0] for a in gas]
        grads, shared = [gx], dict(batched=batched)
        for xin, ga in zip(inputs, gas):
            grads += [PerEpisode(_conv_weight_grad, xin, ga, **shared),
                      PerEpisode(_conv_bias_grad, ga, **shared)]
        return tuple(grads)

    parents = (x,) + tuple(t for layer in layers for t in layer)
    return Tensor._from_op(out if batched else out[0], parents, backward)


def attention_weights(query, keys, scale=1.0) -> Tensor:
    """softmax(scale * keys @ query) for query (d,) and keys (L, d).

    Inside `episode_batch`, query is (B, d) and keys (B, L, d).
    """
    query, keys = as_tensor(query), as_tensor(keys)
    if (query.ndim != 1 + _IN_BATCH or keys.ndim != 2 + _IN_BATCH
            or keys.shape[:-2] != query.shape[:-1]
            or keys.shape[-1] != query.shape[-1]):
        raise ShapeError(f"attention over keys {keys.shape} with query {query.shape}")
    if keys.shape[-2] < 1:
        raise ShapeError("attention needs at least one key")
    if scale <= 0:
        raise ValueError("scale must be positive")
    scale = np.asarray(scale, dtype=_DEFAULT_DTYPE)
    qd = query.data
    out = _softmax(np.matmul(keys.data, qd[..., None])[..., 0] * scale)

    def backward(g):
        gl = _softmax_backward(g, out) * scale
        gq = _matvec(keys.data.swapaxes(-1, -2), gl) if query.requires_grad else None
        gk = _outer(gl, qd) if keys.requires_grad else None
        return gq, gk

    return Tensor._from_op(out, (query, keys), backward)


def word_attention(query, words, lengths=None):
    """The controller's read of the question words as one tape node: the
    read qa @ words of the weights qa = softmax(words @ query), and qa's
    value. query is (d,) and words (L, d); inside `episode_batch`, (B, d)
    and B questions (B, L, d) padded to L words, of `lengths` (B,) (None:
    all L). A pad gets weight 0, masked after the finite screen, and
    gradient 0. The logits are sums of words * query along d, and the
    softmax normaliser and the read left folds over the words: no
    question's bits depend on the pad width.
    """
    query, words = as_tensor(query), as_tensor(words)
    batched = _IN_BATCH
    if (query.ndim != 1 + batched or words.ndim != 2 + batched
            or words.shape[:-2] != query.shape[:-1]
            or words.shape[-1] != query.shape[-1] or words.shape[-2] < 1
            or lengths is not None and not batched):
        raise ShapeError(f"word attention over words {words.shape} with query "
                         f"{query.shape} and lengths {lengths}")
    q, w = query.data[..., None, :], words.data
    logits = (w * q).sum(axis=-1)
    _screen_finite(logits)
    if lengths is not None:
        logits[np.arange(w.shape[-2]) >= np.asarray(lengths)[:, None]] = -np.inf
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    qa = e / np.add.accumulate(e, axis=-1)[..., -1:]
    out = (qa[..., None] * w).sum(axis=-2)

    def backward(g):
        g = g[..., None, :]
        g_qa = (w * g).sum(axis=-1)
        gl = (g_qa - np.add.accumulate(g_qa * qa, axis=-1)[..., -1:]) * qa
        return (gl[..., None] * w).sum(axis=-2), qa[..., None] * g + gl[..., None] * q

    return Tensor._from_op(out, (query, words), backward), qa


def attention_aggregate(a) -> Tensor:
    """Localization score of an attention distribution: sum of squares.

    Lies in [1/L, 1]; 1/L at the uniform distribution, 1 at a one-hot.
    Inside `episode_batch`, a is one distribution per episode (B, L).
    """
    a = as_tensor(a)
    if a.ndim != 1 + _IN_BATCH:
        raise ShapeError(f"attention_aggregate got {a.shape}")
    ad = a.data
    out = np.asarray(np.matmul(ad[..., None, :], ad[..., :, None])[..., 0, 0])

    def backward(g):
        return ((2.0 * g)[..., None] * ad,)

    return Tensor._from_op(out, (a,), backward)


def lstm_direction(x, wx, wh, b, reverse=False, lengths=None) -> Tensor:
    """One LSTM direction over a sequence, as one tape node.

    x: (L, d_in), wx: (d_in, 4h), wh: (h, 4h), b: (4h,), gate blocks in
    the order input, forget, cell, output. The state starts at zero; with
    `reverse` the run goes from the last position to the first. Returns
    the hidden state at every position, (L, h), in sequence order. The
    backward pass is backpropagation through time over the cached gates.
    Inside `episode_batch`, x (B, L, d_in) is B sequences padded to L, of
    `lengths` (B,) (None: all L), giving (B, L, h). A sequence runs over its
    own positions (a reverse one from its last); its pads read 0, get
    gradient 0 and hold no cache. Every kernel works a row at a time: a
    step runs one vector-matrix product per sequence still inside (a
    prefix, once sorted longest first) with wx and with wh. So one
    sequence, run as a batch of one, gets the same bits whatever the pad
    width or the batch around it.
    """
    x, wx, wh, b = (as_tensor(t) for t in (x, wx, wh, b))
    batched = _IN_BATCH
    if (x.ndim != 2 + batched or x.shape[-2] < 1 or wh.ndim != 2
            or lengths is not None and not batched):
        raise ShapeError(f"lstm_direction got x {x.shape}, wh {wh.shape}, "
                         f"lengths {lengths}")
    hh = wh.shape[0]
    if wx.shape != (x.shape[-1], 4 * hh) or wh.shape != (hh, 4 * hh) \
            or b.shape != (4 * hh,):
        raise ShapeError(
            f"lstm_direction got wx {wx.shape}, wh {wh.shape}, b {b.shape} "
            f"for input width {x.shape[-1]}"
        )
    xs = x.data if batched else x.data[None]
    count, width = xs.shape[:2]
    lens = np.full(count, width) if lengths is None else np.asarray(lengths)
    if lens.shape != (count,) or lens.min() < 1 or lens.max() > width:
        raise ShapeError(f"lstm_direction got lengths {lens} for x {x.shape}")
    # row r of the run is sequence order[r], longest first; step i of it
    # reads position pos[r, i] (a pad's pos is a pad), and active[i] rows
    # are inside at step i
    order = np.array(sorted(range(count), key=lambda r: -lens[r]))
    lens = lens[order, None]
    steps = np.arange(width)
    active = (lens > steps).sum(axis=0)
    pos = (lens - 1 - steps + width * (steps >= lens) if reverse
           else np.broadcast_to(steps, (count, width)))
    at = (order[:, None], pos)
    wxd, whd, bd = wx.data, wh.data, b.data
    record = _recording((x, wx, wh, b))
    cache = []
    out = np.zeros((count, width, hh), dtype=_DEFAULT_DTYPE)
    h = c = np.zeros((count, hh), dtype=_DEFAULT_DTYPE)
    for i, k in enumerate(active):
        z = _vecmat(xs[order[:k], pos[:k, i]], wxd) + _vecmat(h[:k], whd) + bd
        gates = _sigmoid(z)  # the cell block's tanh replaces its sigmoid
        gates[:, 2 * hh:3 * hh] = np.tanh(z[:, 2 * hh:3 * hh])
        i_g, f_g, g_g, o_g = (gates[:, j * hh:(j + 1) * hh] for j in range(4))
        c_new = f_g * c[:k] + i_g * g_g
        tc = np.tanh(c_new)
        if record:
            cache.append((gates, c[:k], tc, h[:k]))
        c, h = c_new, o_g * tc
        out[order[:k], pos[:k, i]] = h

    def backward(g):
        gin = (g if batched else g[None])[at]
        dz = np.zeros((count, width, 4 * hh), dtype=g.dtype)
        h_prev = np.zeros((count, width, hh), dtype=g.dtype)
        gx = np.zeros_like(xs)
        dh_next = np.zeros((count, hh), dtype=g.dtype)
        dc = np.zeros_like(dh_next)
        for i in reversed(range(width)):
            k = active[i]
            gates, c_prev, tc, hp = cache[i]
            i_g, f_g, g_g, o_g = (gates[:, j * hh:(j + 1) * hh] for j in range(4))
            dh = gin[:k, i] + dh_next[:k]
            dck = dc[:k] + dh * o_g * (1.0 - tc * tc)
            dz[:k, i, 0:hh] = dck * g_g * i_g * (1.0 - i_g)
            dz[:k, i, hh:2 * hh] = dck * c_prev * f_g * (1.0 - f_g)
            dz[:k, i, 2 * hh:3 * hh] = dck * i_g * (1.0 - g_g * g_g)
            dz[:k, i, 3 * hh:] = dh * tc * o_g * (1.0 - o_g)
            h_prev[:k, i] = hp
            dc[:k] = dck * f_g
            gx[order[:k], pos[:k, i]] = _vecmat(dz[:k, i], wxd.T)
            dh_next[:k] = _vecmat(dz[:k, i], whd.T)
        # each sequence's rows in step order, pads last, in batch order
        mine = np.zeros_like(order)
        mine[order] = np.arange(count)
        mine = mine if batched else 0
        return (
            (gx if batched else gx[0]) if x.requires_grad else None,
            PerEpisode(_transposed_product, xs[at][mine], dz[mine],
                       batched=batched) if wx.requires_grad else None,
            PerEpisode(_transposed_product, h_prev[mine], dz[mine],
                       batched=batched) if wh.requires_grad else None,
            PerEpisode(None, dz.sum(axis=-2)[mine], batched=batched)
            if b.requires_grad else None,
        )

    return Tensor._from_op(out if batched else out[0], (x, wx, wh, b), backward)


def weighted_sum(a, x, b, y) -> Tensor:
    """a * x + b * y for scalar weights a and b and vectors x and y; inside
    `episode_batch`, the weights are (B,) and the vectors (B, d)."""
    a, x, b, y = map(as_tensor, (a, x, b, y))
    if (a.ndim != _IN_BATCH or b.shape != a.shape or x.shape != y.shape
            or x.shape[:-1] != a.shape or x.ndim != 1 + _IN_BATCH):
        raise ShapeError(f"weighted_sum got weights {a.shape}, {b.shape} and "
                         f"vectors {x.shape}, {y.shape}")
    out = a.data[..., None] * x.data + b.data[..., None] * y.data

    def backward(g):
        return (
            np.asarray((g * x.data).sum(axis=-1)) if a.requires_grad else None,
            g * a.data[..., None] if x.requires_grad else None,
            np.asarray((g * y.data).sum(axis=-1)) if b.requires_grad else None,
            g * b.data[..., None] if y.requires_grad else None,
        )

    return Tensor._from_op(out, (a, x, b, y), backward)


def _blend(m, w, v):
    """Row i of the result is (1 - w_i) * m_i + w_i * v, for m (N, d)."""
    w_col = w[..., None]  # (N, 1) per episode
    # + 0.0 makes a -0 product +0, as the (N, 1) @ (1, d) gemm this replaces did
    return m * (1.0 - w_col) + (w_col * v[..., None, :] + 0.0)


def memory_blend(m, w, v) -> Tensor:
    """The memory write's `_blend` as a tape node, for m (N, d), w (N,) and
    v (d,); inside `episode_batch`, one of each per episode."""
    m, w, v = as_tensor(m), as_tensor(w), as_tensor(v)
    if (m.ndim != 2 + _IN_BATCH or w.shape != m.shape[:-1]
            or v.shape != m.shape[:-2] + m.shape[-1:]):
        raise ShapeError(f"memory_blend got m {m.shape}, w {w.shape}, v {v.shape}")

    def backward(g):
        return (
            g * (1.0 - w.data[..., None]) if m.requires_grad else None,
            _matvec(g, v.data) - (g * m.data).sum(axis=-1) if w.requires_grad else None,
            _vecmat(w.data, g) if v.requires_grad else None,
        )

    return Tensor._from_op(_blend(m.data, w.data, v.data), (m, w, v), backward)


def write_head_shift(wh, h_a) -> Tensor:
    """h_a * roll(wh, 1) + (1 - h_a) * wh: a soft circular right-shift.

    Inside `episode_batch`, wh is (B, N) and h_a (B,).
    """
    wh, h_a = as_tensor(wh), as_tensor(h_a)
    if wh.ndim != 1 + _IN_BATCH or h_a.shape != wh.shape[:-1]:
        raise ShapeError(f"write_head_shift got wh {wh.shape}, h_a {h_a.shape}")
    ha = h_a.data[..., None]
    # np.roll(wh, 1) over the last axis
    shifted = np.concatenate((wh.data[..., -1:], wh.data[..., :-1]), axis=-1)
    stay = 1.0 - ha
    out = ha * shifted + stay * wh.data

    def backward(g):
        gwh = gh = None
        if wh.requires_grad:
            moved = g * ha
            gwh = np.concatenate((moved[..., 1:], moved[..., :1]), axis=-1) + g * stay
        if h_a.requires_grad:
            gh = np.asarray((g * shifted).sum(axis=-1) - (g * wh.data).sum(axis=-1))
        return gwh, gh

    return Tensor._from_op(out, (wh, h_a), backward)
