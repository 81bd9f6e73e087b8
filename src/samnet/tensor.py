"""Dense tensors with tape-based reverse-mode differentiation.

Every tensor op used by the model lives here. Forward values are numpy
arrays; each op that participates in differentiation records its parents
and a backward closure, and ``Tensor.backward()`` walks the recorded graph
from an explicit scalar root. Default scalar precision is float32; switch
to float64 (e.g. for tight gradient checks) with ``set_default_dtype`` or
the ``precision`` context manager.
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

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-mode sweep from this scalar to every reachable leaf."""
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar root")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is None:
                continue
            grads = node._backward(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g

    # Operator sugar; scalars and arrays are promoted to constant tensors.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return select(self, idx)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=_DEFAULT_DTYPE))


def one_hot(index: int, length: int) -> Tensor:
    v = np.zeros(length, dtype=_DEFAULT_DTYPE)
    v[index] = 1.0
    return Tensor(v)


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


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return Tensor._from_op(out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g):
        ga = _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None
        return ga, gb

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


def neg(a) -> Tensor:
    a = as_tensor(a)
    return Tensor._from_op(-a.data, (a,), lambda g: (-g,))


def matmul(a, b) -> Tensor:
    """Matrix/vector product for ranks (2,2), (2,1), (1,2) and (1,1)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim == 0 or b.ndim == 0 or a.ndim > 2 or b.ndim > 2:
        raise ShapeError(f"matmul undefined for shapes {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = np.asarray(a.data @ b.data)

    def backward(g):
        ad, bd = a.data, b.data
        return (g @ bd.T if b.ndim == 2 else np.multiply.outer(g, bd),
                ad.T @ g if a.ndim == 2 else np.multiply.outer(ad, g))

    return Tensor._from_op(out, (a, b), backward)


def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.data.shape),)

    return Tensor._from_op(np.asarray(out), (a,), backward)


def mean(a) -> Tensor:
    a = as_tensor(a)
    n = a.data.size
    out = np.asarray(a.data.mean())

    def backward(g):
        return (np.broadcast_to(g / n, a.data.shape),)

    return Tensor._from_op(out, (a,), backward)


def square(a) -> Tensor:
    a = as_tensor(a)
    out = a.data * a.data

    def backward(g):
        return (2.0 * g * a.data,)

    return Tensor._from_op(out, (a,), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def backward(g):
        return (g * out,)

    return Tensor._from_op(out, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)

    def backward(g):
        return (g / a.data,)

    return Tensor._from_op(out, (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)

    def backward(g):
        return (g * (1.0 - out * out),)

    return Tensor._from_op(out, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        return (g * out * (1.0 - out),)

    return Tensor._from_op(out, (a,), backward)


def elu(a) -> Tensor:
    a = as_tensor(a)
    neg_part = np.expm1(np.minimum(a.data, 0.0))
    out = np.where(a.data > 0.0, a.data, neg_part)

    def backward(g):
        return (g * np.where(a.data > 0.0, 1.0, neg_part + 1.0),)

    return Tensor._from_op(out.astype(a.data.dtype), (a,), backward)


def softmax(a) -> Tensor:
    """Numerically stable softmax of a rank-1 tensor."""
    a = as_tensor(a)
    if a.ndim != 1 or a.size < 1:
        raise ShapeError("softmax expects a non-empty rank-1 tensor")
    # cheap screen first; the exact check only runs when the sum overflows
    if not math.isfinite(float(a.data.sum())) and not np.all(np.isfinite(a.data)):
        raise NonFiniteError("non-finite input")
    shifted = a.data - a.data.max()
    e = np.exp(shifted)
    out = e / e.sum()

    def backward(g):
        dot = np.dot(g, out)
        return ((g - dot) * out,)

    return Tensor._from_op(out, (a,), backward)


def log_softmax(a) -> Tensor:
    a = as_tensor(a)
    if a.ndim != 1 or a.size < 1:
        raise ShapeError("log_softmax expects a non-empty rank-1 tensor")
    if not math.isfinite(float(a.data.sum())) and not np.all(np.isfinite(a.data)):
        raise NonFiniteError("non-finite input")
    shifted = a.data - a.data.max()
    lse = np.log(np.exp(shifted).sum())
    out = shifted - lse

    def backward(g):
        return (g - np.exp(out) * g.sum(),)

    return Tensor._from_op(out, (a,), backward)


def cross_entropy_logits(logits: Tensor, target: int) -> Tensor:
    """Softmax cross-entropy of a rank-1 logit vector against a class index."""
    logits = as_tensor(logits)
    if not 0 <= target < logits.size:
        raise ValueError(f"target {target} out of range for {logits.size} classes")
    lsm = log_softmax(logits)
    return neg(select(lsm, target))


def concat(parts) -> Tensor:
    """Concatenate rank-1 tensors."""
    parts = [as_tensor(p) for p in parts]
    if any(p.ndim != 1 for p in parts):
        raise ShapeError("concat expects rank-1 tensors")
    out = np.concatenate([p.data for p in parts])
    offsets = np.cumsum([0] + [p.size for p in parts])

    def backward(g):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(parts)))

    return Tensor._from_op(out, tuple(parts), backward)


def stack(rows) -> Tensor:
    """Stack rank-1 tensors of equal length into a matrix."""
    rows = [as_tensor(r) for r in rows]
    out = np.stack([r.data for r in rows])

    def backward(g):
        return tuple(g[i] for i in range(len(rows)))

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
    """Gather rows of a matrix by an integer index array (embedding lookup)."""
    a = as_tensor(a)
    ids = np.asarray(ids, dtype=np.int64)
    out = a.data[ids]

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, ids, g)
        return (full,)

    return Tensor._from_op(out, (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return Tensor._from_op(out, (a,), backward)


def roll1(a) -> Tensor:
    """Circular shift of a rank-1 tensor one position to the right."""
    a = as_tensor(a)
    if a.ndim != 1:
        raise ShapeError("roll1 expects a rank-1 tensor")
    out = np.roll(a.data, 1)

    def backward(g):
        return (np.roll(g, -1),)

    return Tensor._from_op(out, (a,), backward)


def conv2d_same3(x, w, b) -> Tensor:
    """3x3 same-padded convolution over a batch of feature grids.

    x: (K, H, W, C_in), w: (3, 3, C_in, C_out), b: (C_out,).
    Implemented as an im2col matmul so the whole frame batch is one BLAS call.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim != 4 or w.ndim != 4 or w.shape[:2] != (3, 3):
        raise ShapeError(f"conv2d_same3 got x {x.shape}, w {w.shape}")
    if x.shape[3] != w.shape[2]:
        raise ShapeError(f"channel mismatch: x {x.shape} vs w {w.shape}")
    k, h, wd, cin = x.data.shape
    if h == 0 or wd == 0:
        raise ShapeError("empty spatial grid")
    cout = w.data.shape[3]
    xp = np.pad(x.data, ((0, 0), (1, 1), (1, 1), (0, 0)))
    cols = np.empty((k, h, wd, 9 * cin), dtype=x.data.dtype)
    for di in range(3):
        for dj in range(3):
            patch = xp[:, di:di + h, dj:dj + wd, :]
            cols[..., (di * 3 + dj) * cin:(di * 3 + dj + 1) * cin] = patch
    wmat = w.data.reshape(9 * cin, cout)
    out = cols.reshape(-1, 9 * cin) @ wmat + b.data
    out = out.reshape(k, h, wd, cout)

    def backward(g):
        gflat = g.reshape(-1, cout)
        gw = (cols.reshape(-1, 9 * cin).T @ gflat).reshape(w.data.shape)
        gb = gflat.sum(axis=0)
        gcols = (gflat @ wmat.T).reshape(k, h, wd, 9, cin)
        gxp = np.zeros_like(xp)
        for di in range(3):
            for dj in range(3):
                gxp[:, di:di + h, dj:dj + wd, :] += gcols[:, :, :, di * 3 + dj, :]
        return gxp[:, 1:h + 1, 1:wd + 1, :], gw, gb

    return Tensor._from_op(out, (x, w, b), backward)


def dot_attention(query, keys, values, scale=None):
    """Dot-product attention of one query against key/value rows.

    Returns (weights, summary): weights = softmax(scale * keys @ query),
    summary = weights @ values. Default scale is 1/sqrt(d).
    """
    query, keys, values = as_tensor(query), as_tensor(keys), as_tensor(values)
    if keys.ndim != 2 or values.ndim != 2 or query.ndim != 1:
        raise ShapeError("dot_attention expects query (d,), keys/values (L, d)")
    if keys.shape[0] != values.shape[0]:
        raise ShapeError(
            f"key/value row mismatch: {keys.shape[0]} vs {values.shape[0]}"
        )
    if keys.shape[1] != query.shape[0]:
        raise ShapeError(f"query width {query.shape[0]} vs keys {keys.shape}")
    if scale is None:
        scale = 1.0 / math.sqrt(query.shape[0])
    if scale <= 0:
        raise ValueError("scale must be positive")
    logits = mul(matmul(keys, query), scale)
    weights = softmax(logits)
    summary = matmul(weights, values)
    return weights, summary


def attention_aggregate(a) -> Tensor:
    """Localization score of an attention distribution: sum of squares.

    Lies in [1/L, 1]; 1/L at the uniform distribution, 1 at a one-hot.
    """
    a = as_tensor(a)
    if a.ndim != 1:
        raise ShapeError("attention_aggregate expects a rank-1 tensor")
    out = np.asarray(a.data @ a.data)

    def backward(g):
        return (2.0 * g * a.data,)

    return Tensor._from_op(out, (a,), backward)
