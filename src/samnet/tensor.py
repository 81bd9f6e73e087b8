"""Dense tensors with tape-based reverse-mode differentiation.

Every tensor op used by the model lives here. Forward values are numpy
arrays; each op that participates in differentiation records its parents
and a backward closure, and ``Tensor.backward()`` walks the recorded graph
from an explicit scalar root. Ops are functions; ``Tensor`` has no
arithmetic operators, only indexing (``select``). Default scalar precision
is float32; switch to float64 (e.g. for tight gradient checks) with
``set_default_dtype`` or the ``precision`` context manager.

Per-node bookkeeping, not arithmetic, dominates at the model's sizes, so
each layer of the model is one fused op with a hand-written backward
(``linear``, ``lstm_direction``, ``attention_weights``,
``cross_entropy_logits``, ``weighted_sum``, ``memory_blend``,
``write_head_shift``, ``gate_mlp``). A fused forward evaluates the same
numpy expressions in the same order as the chain of primitive ops it
replaces (kept as references in ``tests/test_fused.py``), so forward
values are bit-identical to that chain. Fused ops keep their backward
caches only while a graph is being recorded.

Batch axis. For forward-only evaluation the fused ops, ``matmul`` and
``softmax`` also take a leading batch axis, one entry per episode. Ops
whose per-episode operands have a fixed rank read the batch from one
extra leading axis; ``matmul`` reads it from a rank-3 right operand, and
``linear``, whose per-episode input may be a vector or a matrix, takes
``batched=True``. Each op writes its forward once, for one episode and
for a batch, so every episode runs through the same numpy kernel:
``np.matmul`` over the leading axis with each episode's operand rank kept
(``x[..., None, :] @ w`` for a vector per episode, never one folded 2-D
gemm), reductions over the last axis, elementwise maths. Each episode's
values are therefore bit-identical to an unbatched forward. Nothing is
padded: an op's batch has one shape, so a batch of questions of several
lengths runs the ops over its words once per length group (see
``encoders.QuestionEncoding``). Batched ops have no backward: a batched op
raises ``ShapeError`` while the tape is recording.
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

    def backward(self) -> None:
        """Reverse-mode sweep from this scalar to every reachable leaf."""
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar root")
        topo = []
        visited = set()  # Tensor defines no __eq__, so nodes hash by identity
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and p not in visited:
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

    def __getitem__(self, idx):
        return select(self, idx)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _recording(parents) -> bool:
    """True when an op on these parents will be put on the tape."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _forward_only(name, parents) -> None:
    """Refuse to put a batched op on the tape: it has no backward."""
    if _recording(parents):
        raise ShapeError(
            f"{name}: a batched forward has no backward; run it under no_grad()"
        )


def _vecmat(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w for one vector x (d,) or a batch of vectors (B, d).

    A batch keeps one (1, d) row per episode, so every episode runs the
    same vector-matrix kernel as the unbatched product; w is (d, h) or one
    (d, h) matrix per episode.
    """
    if x.ndim == 1:
        return x @ w
    return np.matmul(x[:, None, :], w)[:, 0]


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


def matmul(a, b) -> Tensor:
    """Matrix/vector product for ranks (2,2), (2,1), (1,2) and (1,1).

    A rank-3 b is a batch: a is one vector per episode (B, L) and b one
    matrix per episode (B, L, d); returns (B, d). Forward only.
    """
    a, b = as_tensor(a), as_tensor(b)
    if b.ndim == 3:
        if a.ndim != 2 or b.shape[:2] != a.shape:
            raise ShapeError(f"batched matmul got {a.shape} @ {b.shape}")
        _forward_only("matmul", (a, b))
        return Tensor._from_op(_vecmat(a.data, b.data), (), None)
    if a.ndim == 0 or b.ndim == 0 or a.ndim > 2 or b.ndim > 2:
        raise ShapeError(f"matmul undefined for shapes {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = np.asarray(a.data @ b.data)

    def backward(g):
        ad, bd = a.data, b.data
        ga = gb = None
        if a.requires_grad:
            ga = g @ bd.T if b.ndim == 2 else np.multiply.outer(g, bd)
        if b.requires_grad:
            gb = ad.T @ g if a.ndim == 2 else np.multiply.outer(ad, g)
        return ga, gb

    return Tensor._from_op(out, (a, b), backward)


def linear(x, w, b, batched=False) -> Tensor:
    """x @ w + b for a rank-1 or rank-2 x, as one tape node.

    With `batched`, x has a leading episode axis: (B, d) is one vector per
    episode and (B, L, d) one matrix per episode. Forward only.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    xd, wd = x.data, w.data
    rank = xd.ndim - batched
    if (rank not in (1, 2) or wd.ndim != 2 or xd.shape[-1] != wd.shape[0]
            or b.data.shape != wd.shape[1:]):
        raise ShapeError(f"linear got x {x.shape}, w {w.shape}, b {b.shape}")
    if batched:
        _forward_only("linear", (x, w, b))
    out = (_vecmat(xd, wd) if rank == 1 else xd @ wd) + b.data

    def backward(g):
        gx = g @ wd.T if x.requires_grad else None
        gw = None
        if w.requires_grad:
            gw = np.multiply.outer(xd, g) if rank == 1 else xd.T @ g
        gb = (g if rank == 1 else g.sum(axis=0)) if b.requires_grad else None
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
    return (g - np.dot(g, out)) * out


def softmax(a) -> Tensor:
    """Numerically stable softmax of a rank-1 tensor; a rank-2 tensor is a
    batch of rows, forward only."""
    a = as_tensor(a)
    if a.ndim not in (1, 2) or a.size < 1:
        raise ShapeError("softmax expects a non-empty rank-1 tensor or a batch")
    if a.ndim == 2:
        _forward_only("softmax", (a,))
    out = _softmax(a.data)
    return Tensor._from_op(out, (a,), lambda g: (_softmax_backward(g, out),))


def cross_entropy_logits(logits: Tensor, target: int) -> Tensor:
    """Softmax cross-entropy of a rank-1 logit vector against a class index."""
    logits = as_tensor(logits)
    if logits.ndim != 1 or logits.size < 1:
        raise ShapeError("cross_entropy_logits expects a non-empty rank-1 tensor")
    if not 0 <= target < logits.size:
        raise ValueError(f"target {target} out of range for {logits.size} classes")
    x = logits.data
    _screen_finite(x)
    shifted = x - x.max()
    log_probs = shifted - np.log(np.exp(shifted).sum())
    out = np.asarray(-log_probs[target])

    def backward(g):
        grad = np.exp(log_probs) * g
        grad[target] -= g
        return (grad,)

    return Tensor._from_op(out, (logits,), backward)


def concat(parts, axis=0) -> Tensor:
    """Concatenate tensors of equal rank along `axis` (negative counts
    from the last axis)."""
    parts = [as_tensor(p) for p in parts]
    if any(p.ndim != parts[0].ndim for p in parts) or parts[0].ndim == 0:
        raise ShapeError("concat expects tensors of equal, non-zero rank")
    axis %= parts[0].ndim
    out = np.concatenate([p.data for p in parts], axis=axis)
    bounds = []
    end = 0
    for p in parts:
        start, end = end, end + p.shape[axis]
        bounds.append((slice(None),) * axis + (slice(start, end),))

    def backward(g):
        return tuple(g[b] for b in bounds)

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
        if not x.requires_grad:
            return None, gw, gb
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
    summary = weights @ values. Default scale is 1/sqrt(d). A batch is one
    query (B, d) and key/value rows (B, L, d) per episode.
    """
    query, keys, values = as_tensor(query), as_tensor(keys), as_tensor(values)
    batched = query.ndim == 2
    if keys.ndim != 2 + batched or values.ndim != 2 + batched \
            or query.ndim not in (1, 2) or keys.shape[:-2] != query.shape[:-1]:
        raise ShapeError("dot_attention expects query (d,), keys/values (L, d)")
    if keys.shape[:-1] != values.shape[:-1]:
        raise ShapeError(
            f"key/value row mismatch: {keys.shape[-2]} vs {values.shape[-2]}"
        )
    if keys.shape[-1] != query.shape[-1]:
        raise ShapeError(f"query width {query.shape[-1]} vs keys {keys.shape}")
    if scale is None:
        scale = 1.0 / math.sqrt(query.shape[-1])
    weights = attention_weights(query, keys, scale)
    summary = matmul(weights, values)
    return weights, summary


def attention_weights(query, keys, scale=1.0) -> Tensor:
    """softmax(scale * keys @ query) for query (d,) and keys (L, d).

    A batch is one query (B, d) and keys (B, L, d) per episode, forward only.
    """
    query, keys = as_tensor(query), as_tensor(keys)
    batched = query.ndim == 2
    if (query.ndim not in (1, 2) or keys.ndim != 2 + batched
            or keys.shape[:-2] != query.shape[:-1]
            or keys.shape[-1] != query.shape[-1]):
        raise ShapeError(f"attention over keys {keys.shape} with query {query.shape}")
    if keys.shape[-2] < 1:
        raise ShapeError("attention needs at least one key")
    if scale <= 0:
        raise ValueError("scale must be positive")
    scale = np.asarray(scale, dtype=_DEFAULT_DTYPE)
    if batched:
        _forward_only("attention_weights", (query, keys))
    out = _softmax(np.matmul(keys.data, query.data[..., None])[..., 0] * scale)

    def backward(g):
        gl = _softmax_backward(g, out) * scale
        gq = keys.data.T @ gl if query.requires_grad else None
        gk = np.multiply.outer(gl, query.data) if keys.requires_grad else None
        return gq, gk

    return Tensor._from_op(out, (query, keys), backward)


def attention_aggregate(a) -> Tensor:
    """Localization score of an attention distribution: sum of squares.

    Lies in [1/L, 1]; 1/L at the uniform distribution, 1 at a one-hot.
    A rank-2 tensor is a batch of distributions, forward only.
    """
    a = as_tensor(a)
    if a.ndim not in (1, 2):
        raise ShapeError("attention_aggregate expects a rank-1 tensor or a batch")
    if a.ndim == 2:
        _forward_only("attention_aggregate", (a,))
    ad = a.data
    out = np.asarray(np.matmul(ad[..., None, :], ad[..., :, None])[..., 0, 0])

    def backward(g):
        return (2.0 * g * a.data,)

    return Tensor._from_op(out, (a,), backward)


def lstm_direction(x, wx, wh, b, reverse=False) -> Tensor:
    """One LSTM direction over a sequence, as one tape node.

    x: (L, d_in), wx: (d_in, 4h), wh: (h, 4h), b: (4h,), gate blocks in
    the order input, forget, cell, output. The state starts at zero; with
    `reverse` the run goes from the last position to the first. Returns
    the hidden state at every position, (L, h), in sequence order. The
    backward pass is backpropagation through time over the cached gates.
    A batch of equal-length sequences x (B, L, d_in) gives (B, L, h),
    forward only.
    """
    x, wx, wh, b = (as_tensor(t) for t in (x, wx, wh, b))
    if x.ndim not in (2, 3) or x.shape[-2] < 1 or wh.ndim != 2:
        raise ShapeError(f"lstm_direction got x {x.shape}, wh {wh.shape}")
    hh = wh.shape[0]
    if wx.shape != (x.shape[-1], 4 * hh) or wh.shape != (hh, 4 * hh) \
            or b.shape != (4 * hh,):
        raise ShapeError(
            f"lstm_direction got wx {wx.shape}, wh {wh.shape}, b {b.shape} "
            f"for input width {x.shape[-1]}"
        )
    if x.ndim == 3:
        _forward_only("lstm_direction", (x, wx, wh, b))
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
        h_prev = np.empty((length, hh), dtype=xproj.dtype)
        dh_next = np.zeros(hh, dtype=xproj.dtype)
        dc = np.zeros(hh, dtype=xproj.dtype)
        for i, (i_g, f_g, g_g, o_g, c_prev, tc, hp) in zip(
                reversed(order), reversed(cache)):
            dh = g[i] + dh_next
            dc = dc + dh * o_g * (1.0 - tc * tc)
            dz[i, 0:hh] = dc * g_g * i_g * (1.0 - i_g)
            dz[i, hh:2 * hh] = dc * c_prev * f_g * (1.0 - f_g)
            dz[i, 2 * hh:3 * hh] = dc * i_g * (1.0 - g_g * g_g)
            dz[i, 3 * hh:] = dh * tc * o_g * (1.0 - o_g)
            h_prev[i] = hp
            dc = dc * f_g
            dh_next = dz[i] @ whd.T
        return (
            dz @ wx.data.T if x.requires_grad else None,
            x.data.T @ dz if wx.requires_grad else None,
            h_prev.T @ dz if wh.requires_grad else None,
            dz.sum(axis=0) if b.requires_grad else None,
        )

    return Tensor._from_op(out, (x, wx, wh, b), backward)


def weighted_sum(a, x, b, y) -> Tensor:
    """a * x + b * y for scalar (0-d) weights a and b.

    A batch is one weight pair (B,) and vector terms (B, d), forward only.
    """
    a, x, b, y = (as_tensor(t) for t in (a, x, b, y))
    batched = a.ndim == 1
    if (a.ndim > 1 or b.shape != a.shape or x.shape != y.shape
            or (batched and (x.ndim != 2 or x.shape[0] != a.shape[0]))):
        raise ShapeError(
            f"weighted_sum got weights {a.shape}, {b.shape} and terms "
            f"{x.shape}, {y.shape}"
        )
    if batched:
        _forward_only("weighted_sum", (a, x, b, y))
    out = a.data[..., None] * x.data + b.data[..., None] * y.data

    def backward(g):
        return (
            np.asarray((g * x.data).sum()) if a.requires_grad else None,
            g * a.data if x.requires_grad else None,
            np.asarray((g * y.data).sum()) if b.requires_grad else None,
            g * b.data if y.requires_grad else None,
        )

    return Tensor._from_op(out, (a, x, b, y), backward)


def memory_blend(m, w, v) -> Tensor:
    """Row i of the result is (1 - w_i) * m_i + w_i * v, for m (N, d).

    A batch is m (B, N, d), w (B, N) and v (B, d), forward only.
    """
    m, w, v = as_tensor(m), as_tensor(w), as_tensor(v)
    if (m.ndim not in (2, 3) or w.shape != m.shape[:-1]
            or v.shape != m.shape[:-2] + m.shape[-1:]):
        raise ShapeError(f"memory_blend got m {m.shape}, w {w.shape}, v {v.shape}")
    if m.ndim == 3:
        _forward_only("memory_blend", (m, w, v))
    w_col = w.data[..., None]  # (N, 1) per episode
    v_row = v.data[..., None, :]  # (1, d) per episode
    out = m.data * (1.0 - w_col) + w_col @ v_row

    def backward(g):
        gw = None
        if w.requires_grad:
            gw = g @ v.data - (g * m.data).sum(axis=1)
        return (
            g * (1.0 - w_col) if m.requires_grad else None,
            gw,
            w.data @ g if v.requires_grad else None,
        )

    return Tensor._from_op(out, (m, w, v), backward)


def write_head_shift(wh, h_a) -> Tensor:
    """h_a * roll(wh, 1) + (1 - h_a) * wh: a soft circular right-shift.

    A batch is wh (B, N) and h_a (B,), forward only.
    """
    wh, h_a = as_tensor(wh), as_tensor(h_a)
    if wh.ndim != 1 + h_a.ndim or wh.shape[:-1] != h_a.shape or h_a.ndim > 1:
        raise ShapeError(f"write_head_shift got wh {wh.shape}, h_a {h_a.shape}")
    if h_a.ndim == 1:
        _forward_only("write_head_shift", (wh, h_a))
    ha = h_a.data[..., None]
    # np.roll(wh, 1) over the last axis
    shifted = np.concatenate((wh.data[..., -1:], wh.data[..., :-1]), axis=-1)
    stay = 1.0 - ha
    out = ha * shifted + stay * wh.data

    def backward(g):
        gwh = gh = None
        if wh.requires_grad:
            moved = g * h_a.data
            gwh = np.concatenate((moved[1:], moved[:1])) + g * stay
        if h_a.requires_grad:
            gh = np.asarray((g * shifted).sum() - (g * wh.data).sum())
        return gwh, gh

    return Tensor._from_op(out, (wh, h_a), backward)


def gate_mlp(vs, rs, tau, w1, b1, w2, b2, obj_w, obj_b, write_w, write_b) -> Tensor:
    """The gate network as one tape node; returns (g_v, g_m, h_r, h_a, h_none).

    x = [vs, rs, tau] goes through two ELU layers to the hidden h; g_v and
    g_m are sigmoids of h @ obj_w + obj_b, and (h_r, h_a, h_none) is the
    softmax of h @ write_w + write_b. A batch is vs and rs (B,) and tau
    (B, 4) and gives (B, 5), forward only.
    """
    parents = tuple(as_tensor(t) for t in (
        vs, rs, tau, w1, b1, w2, b2, obj_w, obj_b, write_w, write_b))
    vs, rs, tau, w1, b1, w2, b2, obj_w, obj_b, write_w, write_b = parents
    if (vs.ndim > 1 or rs.shape != vs.shape or tau.ndim != vs.ndim + 1
            or tau.shape[:-1] != vs.shape
            or w1.shape[0] != 2 + tau.shape[-1] or obj_w.shape[1] != 2
            or write_w.shape[1] != 3):
        raise ShapeError(
            f"gate_mlp got tau {tau.shape}, w1 {w1.shape}, obj_w {obj_w.shape}, "
            f"write_w {write_w.shape}"
        )
    if vs.ndim == 1:
        _forward_only("gate_mlp", parents)
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

    def backward(g):
        d_obj = g[0:2] * obj * (1.0 - obj)
        d_write = _softmax_backward(g[2:5], write)
        d_a2 = (d_obj @ obj_w.data.T + d_write @ write_w.data.T) * d2
        d_a1 = (d_a2 @ w2.data.T) * d1
        dx = d_a1 @ w1.data.T
        return (
            np.asarray(dx[0]), np.asarray(dx[1]), dx[2:],
            np.multiply.outer(x, d_a1), d_a1,
            np.multiply.outer(h1, d_a2), d_a2,
            np.multiply.outer(h2, d_obj), d_obj,
            np.multiply.outer(h2, d_write), d_write,
        )

    return Tensor._from_op(out, parents, backward)
