"""Dense tensors with tape-based reverse-mode differentiation.

Every tensor op used by the model lives here. Forward values are numpy
arrays; each op that participates in differentiation records its parents
and a backward closure, and ``Tensor.backward()`` walks the recorded graph
from an explicit root. Ops are functions; ``Tensor`` has no arithmetic
operators, only indexing (``select``). Default scalar precision is float32;
switch to float64 (e.g. for tight gradient checks) with
``set_default_dtype`` or the ``precision`` context manager.

Per-node bookkeeping, not arithmetic, dominates at the model's sizes, so
each layer of the model is one fused op with a hand-written backward
(``linear``, ``lstm_direction``, ``attention_weights``,
``cross_entropy_logits``, ``weighted_sum``, ``memory_blend``,
``write_head_shift``, ``gate_mlp``, ``conv2d_same3_elu``). A fused forward
evaluates the same numpy expressions in the same order as the chain of
primitive ops it replaces (kept as references in ``tests/test_fused.py``),
so forward values are bit-identical to that chain. Fused ops keep their
backward caches only while a graph is being recorded.

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
therefore bit-identical to an unbatched pass. Nothing is padded: an op's
batch has one shape, so a batch of questions of several lengths runs the
ops over its words once per length group (see
``encoders.QuestionEncoding``), inside ``episode_batch(rows)``, and
``merge_rows`` joins the groups.

Parameters are shared by the episodes of a batch. A batched op does not sum
a parameter's gradient over its batch: it hands ``Tensor.backward`` a
``PerEpisode`` contribution, and the sweep adds a parameter's
contributions episode by episode once the last node that uses it is swept.
A parameter's gradient is therefore summed in the order of a loop of
one-episode backward passes, bit for bit, and its queued contributions
are freed as soon as they are added.
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


# Inside `episode_batch`: the episodes of the root batch that the leading
# axis of recorded ops holds (None: all of them, in order).
_IN_BATCH = False
_BATCH_ROWS = None


def in_episode_batch() -> bool:
    """True inside `episode_batch`: operands carry a leading batch axis."""
    return _IN_BATCH


@contextmanager
def episode_batch(rows=None):
    """Ops run inside on a batch of episodes along their leading axis;
    outside, on one episode.

    There, an operand of `mul` or a part of `concat` with one axis fewer
    than the others is shared by every episode, as parameters are. `rows`
    names the episodes of the enclosing batch that the ops' batch holds
    (None: all of them, in order); per-episode parameter gradients are
    added for those episodes.
    """
    global _IN_BATCH, _BATCH_ROWS
    old = _IN_BATCH, _BATCH_ROWS
    if rows is not None:
        rows = np.asarray(rows) if _BATCH_ROWS is None else _BATCH_ROWS[rows]
    _IN_BATCH, _BATCH_ROWS = True, rows
    try:
        yield
    finally:
        _IN_BATCH, _BATCH_ROWS = old


class PerEpisode:
    """A batched node's gradient for a parameter its episodes share.

    Row i of the node's batch contributes ``fn(*(a[i] for a in args))``,
    the expression the one-episode backward adds (``args[0][i]`` when `fn`
    is None). The functions in `_STACKABLE` also map stacked rows to stacked
    contributions. `rows[i]` is the root-batch episode of row i (None:
    episode i).
    """

    __slots__ = ("fn", "args", "rows")

    def __init__(self, fn, *args, rows=None):
        self.fn, self.args, self.rows = fn, args, rows

    def episodes(self):
        return range(len(self.args[0])) if self.rows is None else self.rows

    def of(self, arrays):
        return arrays[0] if self.fn is None else self.fn(*arrays)


def _outer(x, g):
    """np.multiply.outer of the last axes, for one episode or stacked."""
    return x[..., :, None] * g[..., None, :]


def _transposed_product(x, g):
    """x.T @ g, for one episode or stacked."""
    return np.matmul(np.swapaxes(x, -1, -2), g)


def _row_sum(g):
    """g.sum(axis=0) of one episode's rows, or stacked."""
    return g.sum(axis=-2)


# contribution functions that map stacked rows to stacked contributions
_STACKABLE = (None, _outer, _transposed_product, _row_sum)
# contributions per np.add.reduce call at most, so that one leaf's stacked
# contributions stay below 256 KB of float32
_FOLD_ELEMENTS = 1 << 16


def _add_per_episode(leaf, items) -> None:
    """Add a leaf's queued contributions episode by episode, each episode's
    in sweep order: the order of a loop of one-episode backward passes."""
    first = items[0]
    shapes = [a.shape for a in first.args]
    if first.fn in _STACKABLE and all(
            it.fn is first.fn and it.rows is None
            and [a.shape for a in it.args] == shapes for it in items):
        # np.add.reduce over stacked contributions is a left fold, bit-equal
        # to adding them in turn, and c[0] + grad == grad + c[0]
        stacks = [np.stack(column, axis=1)
                  for column in zip(*(it.args for it in items))]
        block = max(1, _FOLD_ELEMENTS // leaf.data.size)
        for e in range(len(stacks[0])):
            for lo in range(0, len(items), block):
                parts = [s[e, lo:lo + block] for s in stacks]
                if first.fn is _outer:  # the same products, fewer passes
                    c = np.einsum("ni,nj->nij", *parts)
                else:
                    c = first.of(parts)
                if leaf.grad is not None:
                    c[0] += leaf.grad
                leaf.grad = np.add.reduce(c, axis=0)
        return
    positions = [{int(e): i for i, e in enumerate(it.episodes())} for it in items]
    for e in sorted(set().union(*positions)):
        for it, pos in zip(items, positions):
            if e in pos:
                c = it.of([a[pos[e]] for a in it.args])
                leaf.grad = c if leaf.grad is None else leaf.grad + c


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
        episode by episode, once the last node that uses the leaf is swept;
        every other gradient reaches it earlier. The sweep frees each inner
        node's gradient, backward closure and value once spent, so a graph
        is differentiated once and an inner value must be read before
        `backward()`. The root keeps its value and every leaf its value and
        gradient.
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
                    if parent._backward is not None:
                        raise ShapeError(
                            "a batched op shares a non-leaf operand across "
                            "episodes; only parameters can be shared")
                    queued.setdefault(parent, []).append(g)
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


def _shared_grad(batched, rows, fn, *args):
    """The gradient for an operand that a batch's episodes share: computed
    now for one episode, handed on as `PerEpisode` for a batch."""
    if batched:
        return PerEpisode(fn, *args, rows=rows)
    return args[0] if fn is None else fn(*args)


def _vecmat(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w for one vector x (d,) or a batch of vectors (B, d).

    A batch keeps one (1, d) row per episode, so every episode runs the
    same vector-matrix kernel as the unbatched product; w is (d, h) or one
    (d, h) matrix per episode.
    """
    if x.ndim == 1:
        return x @ w
    return np.matmul(x[:, None, :], w)[:, 0]


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


def mul(a, b) -> Tensor:
    """Elementwise product with broadcasting. Inside `episode_batch` an
    operand with one axis fewer than the other is shared by the episodes."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data
    in_batch, rows = _IN_BATCH, _BATCH_ROWS

    def grad(t, other, g):
        if not t.requires_grad:
            return None
        if in_batch and t.ndim < other.ndim:
            return PerEpisode(None, g * other.data, rows=rows)
        return _unbroadcast(g * other.data, t.data.shape)

    def backward(g):
        return grad(a, b, g), grad(b, a, g)

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


def linear(x, w, b) -> Tensor:
    """x @ w + b for a rank-1 or rank-2 x, as one tape node.

    Inside `episode_batch`, x has a leading episode axis: (B, d) is one
    vector per episode and (B, L, d) one matrix per episode.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    xd, wd = x.data, w.data
    batched, rows = _IN_BATCH, _BATCH_ROWS
    rank = xd.ndim - batched
    if (rank not in (1, 2) or wd.ndim != 2 or xd.shape[-1] != wd.shape[0]
            or b.data.shape != wd.shape[1:]):
        raise ShapeError(f"linear got x {x.shape}, w {w.shape}, b {b.shape}")
    out = (_vecmat(xd, wd) if rank == 1 else xd @ wd) + b.data

    def backward(g):
        gx = gw = gb = None
        if x.requires_grad:
            gx = _vecmat(g, wd.T) if rank == 1 else g @ wd.T
        if w.requires_grad:
            gw = _shared_grad(batched, rows,
                              _outer if rank == 1 else _transposed_product, xd, g)
        if b.requires_grad:
            gb = _shared_grad(batched, rows, None if rank == 1 else _row_sum, g)
        return gx, gw, gb

    return Tensor._from_op(out, (x, w, b), backward)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _elu(a: np.ndarray) -> np.ndarray:
    return np.where(a > 0.0, a, np.expm1(np.minimum(a, 0.0))).astype(a.dtype, copy=False)


def _elu_slope(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    return np.where(a > 0.0, 1.0, out + 1.0)


def elu(a) -> Tensor:
    a = as_tensor(a)
    out = _elu(a.data)

    def backward(g):
        return (g * _elu_slope(a.data, out),)

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
    """Numerically stable softmax of a rank-1 tensor; a rank-2 tensor is a
    batch of rows."""
    a = as_tensor(a)
    if a.ndim not in (1, 2) or a.size < 1:
        raise ShapeError("softmax expects a non-empty rank-1 tensor or a batch")
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
    shared by the episodes: it is repeated along the leading batch axis.
    """
    parts = [as_tensor(p) for p in parts]
    rank = max(p.ndim for p in parts)
    shared = [p.ndim != rank for p in parts]
    if rank == 0 or (any(shared) and not _IN_BATCH) or any(
            s and p.ndim != rank - 1 for p, s in zip(parts, shared)):
        raise ShapeError("concat expects tensors of equal, non-zero rank")
    axis %= rank
    batch = next(p.shape[:1] for p, s in zip(parts, shared) if not s)
    out = np.concatenate([np.broadcast_to(p.data, batch + p.shape) if s
                          else p.data for p, s in zip(parts, shared)], axis=axis)
    bounds = []
    end = 0
    for p, s in zip(parts, shared):
        start, end = end, end + p.shape[axis - s]
        bounds.append((slice(None),) * axis + (slice(start, end),))
    rows = _BATCH_ROWS

    def backward(g):
        return tuple(PerEpisode(None, g[bd], rows=rows) if s else g[bd]
                     for bd, s in zip(bounds, shared))

    return Tensor._from_op(out, tuple(parts), backward)


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


def merge_rows(parts, rows, batch: int) -> Tensor:
    """A (batch, ...) tensor whose rows `rows[i]` are the rows of parts[i]:
    it joins the length groups of a batch of questions."""
    parts = [as_tensor(p) for p in parts]
    out = np.empty((batch,) + parts[0].shape[1:], dtype=parts[0].dtype)
    for part, r in zip(parts, rows):
        out[r] = part.data

    def backward(g):
        return tuple(g[r] for r in rows)

    return Tensor._from_op(out, tuple(parts), backward)


def take_rows(a, ids) -> Tensor:
    """Gather rows of a matrix by an integer index array (embedding lookup);
    inside `episode_batch`, ids (B, L) is one sequence per episode."""
    a = as_tensor(a)
    ids = np.asarray(ids, dtype=np.int64)
    out = a.data[ids]
    batched, rows = _IN_BATCH, _BATCH_ROWS

    def scatter(ids, g):
        full = np.zeros_like(a.data)
        np.add.at(full, ids, g)
        return full

    def backward(g):
        if batched:
            return (PerEpisode(scatter, ids, g, rows=rows),)
        return (scatter(ids, g),)

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
    im2col matrices, and takes ELU's slope as where(out > 0, 1, out + 1),
    which equals where(a > 0, 1, out + 1) for the pre-activation a.
    """
    x = as_tensor(x)
    layers = [(as_tensor(w), as_tensor(b)) for w, b in layers]
    batched, rows = _IN_BATCH, _BATCH_ROWS
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
                gas[i][e] = ge * _elu_slope(acts[i + 1], acts[i + 1])
                if i:
                    inputs[i][e] = acts[i]
                if i or gx is not None:
                    ge = _conv_input_grad(gas[i][e], mats[i])
            if gx is not None:
                gx[e] = ge
        if not batched:
            gx = None if gx is None else gx[0]
            inputs, gas = [a[0] for a in inputs], [a[0] for a in gas]
        grads = [gx]
        for xin, ga in zip(inputs, gas):
            grads += [_shared_grad(batched, rows, _conv_weight_grad, xin, ga),
                      _shared_grad(batched, rows, _conv_bias_grad, ga)]
        return tuple(grads)

    parents = (x,) + tuple(t for layer in layers for t in layer)
    return Tensor._from_op(out if batched else out[0], parents, backward)


def attention_weights(query, keys, scale=1.0) -> Tensor:
    """softmax(scale * keys @ query) for query (d,) and keys (L, d).

    Inside `episode_batch`, query is (B, d) and keys (B, L, d).
    """
    query, keys = as_tensor(query), as_tensor(keys)
    batched = _IN_BATCH
    if (query.ndim != 1 + batched or keys.ndim != 2 + batched
            or keys.shape[:-2] != query.shape[:-1]
            or keys.shape[-1] != query.shape[-1]):
        raise ShapeError(f"attention over keys {keys.shape} with query {query.shape}")
    if keys.shape[-2] < 1:
        raise ShapeError("attention needs at least one key")
    if scale <= 0:
        raise ValueError("scale must be positive")
    scale = np.asarray(scale, dtype=_DEFAULT_DTYPE)
    out = _softmax(np.matmul(keys.data, query.data[..., None])[..., 0] * scale)

    def backward(g):
        gl = _softmax_backward(g, out) * scale
        gq = gk = None
        if query.requires_grad:
            gq = _matvec(np.swapaxes(keys.data, -1, -2), gl)
        if keys.requires_grad:
            gk = _outer(gl, query.data)
        return gq, gk

    return Tensor._from_op(out, (query, keys), backward)


def grouped_attention_read(query, groups):
    """softmax(words @ query) @ words for each length group of a batch.

    query is (B, d); groups are (rows, words) pairs as in
    `encoders.QuestionEncoding`, words (B_g, L, d) for the batch rows
    `rows`. Returns the (B, d) reads as one tape node, and each group's
    attention weights as plain arrays. The node stands for one
    `attention_weights` and one `matmul` per group: it evaluates their
    expressions, and lists each group's words twice among its parents, so
    that they receive the read's gradient and then the attention's, in the
    order a one-episode sweep adds them.
    """
    query = as_tensor(query)
    scale = np.asarray(1.0, dtype=_DEFAULT_DTYPE)
    out = np.empty(query.shape, dtype=query.dtype)
    weights = []
    for rows, words in groups:
        q = query.data[rows]
        qa = _softmax(np.matmul(words.data, q[..., None])[..., 0] * scale)
        out[rows] = _vecmat(qa, words.data)
        weights.append(qa)

    def backward(g):
        gq = np.empty_like(query.data)
        grads = []
        for (rows, words), qa in zip(groups, weights):
            gr = g[rows]
            wd = words.data
            gqa = _vecmat(gr, np.swapaxes(wd, -1, -2))
            gl = _softmax_backward(gqa, qa) * scale
            gq[rows] = _matvec(np.swapaxes(wd, -1, -2), gl)
            grads += [_outer(qa, gr), _outer(gl, query.data[rows])]
        return (gq, *grads)

    parents = (query,) + tuple(w for _, words in groups for w in (words, words))
    return Tensor._from_op(out, parents, backward), weights


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


def lstm_direction(x, wx, wh, b, reverse=False) -> Tensor:
    """One LSTM direction over a sequence, as one tape node.

    x: (L, d_in), wx: (d_in, 4h), wh: (h, 4h), b: (4h,), gate blocks in
    the order input, forget, cell, output. The state starts at zero; with
    `reverse` the run goes from the last position to the first. Returns
    the hidden state at every position, (L, h), in sequence order. The
    backward pass is backpropagation through time over the cached gates.
    Inside `episode_batch`, equal-length sequences x (B, L, d_in) give
    (B, L, h).
    """
    x, wx, wh, b = (as_tensor(t) for t in (x, wx, wh, b))
    batched, rows = _IN_BATCH, _BATCH_ROWS
    if x.ndim != 2 + batched or x.shape[-2] < 1 or wh.ndim != 2:
        raise ShapeError(f"lstm_direction got x {x.shape}, wh {wh.shape}")
    hh = wh.shape[0]
    if wx.shape != (x.shape[-1], 4 * hh) or wh.shape != (hh, 4 * hh) \
            or b.shape != (4 * hh,):
        raise ShapeError(
            f"lstm_direction got wx {wx.shape}, wh {wh.shape}, b {b.shape} "
            f"for input width {x.shape[-1]}"
        )
    length = x.shape[-2]
    xproj = x.data @ wx.data  # a batch runs one (L, d_in) gemm per episode
    whd, bd = wh.data, b.data
    order = range(length - 1, -1, -1) if reverse else range(length)
    record = _recording((x, wx, wh, b))
    cache = []
    h = np.zeros(x.shape[:-2] + (hh,), dtype=_DEFAULT_DTYPE)
    c = np.zeros(x.shape[:-2] + (hh,), dtype=_DEFAULT_DTYPE)
    states = [None] * length
    for i in order:
        z = xproj[..., i, :] + _vecmat(h, whd) + bd
        i_g = _sigmoid(z[..., 0:hh])
        f_g = _sigmoid(z[..., hh:2 * hh])
        g_g = np.tanh(z[..., 2 * hh:3 * hh])
        o_g = _sigmoid(z[..., 3 * hh:4 * hh])
        c_new = f_g * c + i_g * g_g
        tc = np.tanh(c_new)
        if record:
            cache.append((i_g, f_g, g_g, o_g, c, tc, h))
        c = c_new
        h = o_g * tc
        states[i] = h
    out = np.stack(states, axis=-2)

    def backward(g):
        dz = np.empty_like(xproj)
        h_prev = np.empty(xproj.shape[:-1] + (hh,), dtype=xproj.dtype)
        dh_next = np.zeros(xproj.shape[:-2] + (hh,), dtype=xproj.dtype)
        dc = np.zeros(xproj.shape[:-2] + (hh,), dtype=xproj.dtype)
        for i, (i_g, f_g, g_g, o_g, c_prev, tc, hp) in zip(
                reversed(order), reversed(cache)):
            dh = g[..., i, :] + dh_next
            dc = dc + dh * o_g * (1.0 - tc * tc)
            dz[..., i, 0:hh] = dc * g_g * i_g * (1.0 - i_g)
            dz[..., i, hh:2 * hh] = dc * c_prev * f_g * (1.0 - f_g)
            dz[..., i, 2 * hh:3 * hh] = dc * i_g * (1.0 - g_g * g_g)
            dz[..., i, 3 * hh:] = dh * tc * o_g * (1.0 - o_g)
            h_prev[..., i, :] = hp
            dc = dc * f_g
            dh_next = _vecmat(dz[..., i, :], whd.T)
        return (
            dz @ wx.data.T if x.requires_grad else None,
            _shared_grad(batched, rows, _transposed_product, x.data, dz)
            if wx.requires_grad else None,
            _shared_grad(batched, rows, _transposed_product, h_prev, dz)
            if wh.requires_grad else None,
            _shared_grad(batched, rows, _row_sum, dz) if b.requires_grad else None,
        )

    return Tensor._from_op(out, (x, wx, wh, b), backward)


def weighted_sum(a, x, b, y) -> Tensor:
    """a * x + b * y for scalar (0-d) weights a and b and vectors x and y.

    Inside `episode_batch`, the weights are (B,) and the vectors (B, d).
    """
    a, x, b, y = (as_tensor(t) for t in (a, x, b, y))
    batched = _IN_BATCH
    if (a.ndim != batched or b.shape != a.shape or x.shape != y.shape
            or x.ndim != 1 + batched or x.shape[:batched] != a.shape):
        raise ShapeError(
            f"weighted_sum got weights {a.shape}, {b.shape} and terms "
            f"{x.shape}, {y.shape}"
        )
    out = a.data[..., None] * x.data + b.data[..., None] * y.data

    def backward(g):
        return (
            np.asarray((g * x.data).sum(axis=-1)) if a.requires_grad else None,
            g * a.data[..., None] if x.requires_grad else None,
            np.asarray((g * y.data).sum(axis=-1)) if b.requires_grad else None,
            g * b.data[..., None] if y.requires_grad else None,
        )

    return Tensor._from_op(out, (a, x, b, y), backward)


def memory_blend(m, w, v) -> Tensor:
    """Row i of the result is (1 - w_i) * m_i + w_i * v, for m (N, d).

    Inside `episode_batch`, m is (B, N, d), w (B, N) and v (B, d).
    """
    m, w, v = as_tensor(m), as_tensor(w), as_tensor(v)
    if (m.ndim != 2 + _IN_BATCH or w.shape != m.shape[:-1]
            or v.shape != m.shape[:-2] + m.shape[-1:]):
        raise ShapeError(f"memory_blend got m {m.shape}, w {w.shape}, v {v.shape}")
    w_col = w.data[..., None]  # (N, 1) per episode
    v_row = v.data[..., None, :]  # (1, d) per episode
    out = m.data * (1.0 - w_col) + w_col @ v_row

    def backward(g):
        gw = None
        if w.requires_grad:
            gw = _matvec(g, v.data) - (g * m.data).sum(axis=-1)
        return (
            g * (1.0 - w_col) if m.requires_grad else None,
            gw,
            _vecmat(w.data, g) if v.requires_grad else None,
        )

    return Tensor._from_op(out, (m, w, v), backward)


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


def gate_mlp(vs, rs, tau, w1, b1, w2, b2, obj_w, obj_b, write_w, write_b) -> Tensor:
    """The gate network as one tape node; returns (g_v, g_m, h_r, h_a, h_none).

    x = [vs, rs, tau] goes through two ELU layers to the hidden h; g_v and
    g_m are sigmoids of h @ obj_w + obj_b, and (h_r, h_a, h_none) is the
    softmax of h @ write_w + write_b. Inside `episode_batch`, vs and rs
    are (B,) and tau (B, 4), and give (B, 5).
    """
    parents = tuple(as_tensor(t) for t in (
        vs, rs, tau, w1, b1, w2, b2, obj_w, obj_b, write_w, write_b))
    vs, rs, tau, w1, b1, w2, b2, obj_w, obj_b, write_w, write_b = parents
    batched, rows = _IN_BATCH, _BATCH_ROWS
    if (vs.ndim != batched or rs.shape != vs.shape or tau.ndim != vs.ndim + 1
            or tau.shape[:-1] != vs.shape
            or w1.shape[0] != 2 + tau.shape[-1] or obj_w.shape[1] != 2
            or write_w.shape[1] != 3):
        raise ShapeError(
            f"gate_mlp got tau {tau.shape}, w1 {w1.shape}, obj_w {obj_w.shape}, "
            f"write_w {write_w.shape}"
        )
    x = np.concatenate([vs.data[..., None], rs.data[..., None], tau.data], axis=-1)
    a1 = _vecmat(x, w1.data) + b1.data
    h1 = _elu(a1)
    a2 = _vecmat(h1, w2.data) + b2.data
    h2 = _elu(a2)
    obj = _sigmoid(_vecmat(h2, obj_w.data) + obj_b.data)
    write = _softmax(_vecmat(h2, write_w.data) + write_b.data)
    out = np.concatenate([obj, write], axis=-1)
    if not _recording(parents):
        return Tensor._from_op(out, (), None)
    d1, d2 = _elu_slope(a1, h1), _elu_slope(a2, h2)

    def shared(fn, *args):
        return _shared_grad(batched, rows, fn, *args)

    def backward(g):
        d_obj = g[..., 0:2] * obj * (1.0 - obj)
        d_write = _softmax_backward(g[..., 2:5], write)
        d_a2 = (_vecmat(d_obj, obj_w.data.T) + _vecmat(d_write, write_w.data.T)) * d2
        d_a1 = _vecmat(d_a2, w2.data.T) * d1
        dx = _vecmat(d_a1, w1.data.T)
        return (
            np.asarray(dx[..., 0]), np.asarray(dx[..., 1]), dx[..., 2:],
            shared(_outer, x, d_a1), shared(None, d_a1),
            shared(_outer, h1, d_a2), shared(None, d_a2),
            shared(_outer, h2, d_obj), shared(None, d_obj),
            shared(_outer, h2, d_write), shared(None, d_write),
        )

    return Tensor._from_op(out, parents, backward)
