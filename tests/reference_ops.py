"""Differentiable primitive ops that the model no longer calls, and the
former forms of kernels that `samnet.tensor` rewrote.

`samnet.tensor` keeps only the ops the model uses; the fused ops replaced
these (`mul`, `weighted_sum` and `memory_blend` were the model's until
the controller, summary and memory write were fused). The primitive
reference chains in `test_fused.py` and the op sweep in `test_tensor.py`
still build graphs from them, so they live here with the forward
expressions and backward rules the tape library had. The
kernel forms at the end are the references of `test_tensor.py`'s
bit-identity tests.
"""

import numpy as np

from samnet import tensor as T


def sub(a, b):
    a, b = T.as_tensor(a), T.as_tensor(b)

    def backward(g):
        return T._unbroadcast(g, a.data.shape), T._unbroadcast(-g, b.data.shape)

    return T.Tensor._from_op(a.data - b.data, (a, b), backward)


def tanh(a):
    a = T.as_tensor(a)
    out = np.tanh(a.data)
    return T.Tensor._from_op(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a):
    a = T.as_tensor(a)
    out = T._sigmoid(a.data)
    return T.Tensor._from_op(out, (a,), lambda g: (g * out * (1.0 - out),))


def mul(a, b):
    """Elementwise product with broadcasting. Inside `episode_batch` an
    operand with one axis fewer than the other is shared by the episodes."""
    a, b = T.as_tensor(a), T.as_tensor(b)
    out = a.data * b.data
    in_batch, rows = T.in_episode_batch(), T._BATCH_ROWS

    def grad(t, other, g):
        if not t.requires_grad:
            return None
        if in_batch and t.ndim < other.ndim:
            return T.PerEpisode(None, g * other.data, rows=rows)
        return T._unbroadcast(g * other.data, t.data.shape)

    return T.Tensor._from_op(out, (a, b), lambda g: (grad(a, b, g), grad(b, a, g)))


def weighted_sum(a, x, b, y):
    """a * x + b * y for scalar (0-d) weights a and b and vectors x and y;
    inside `episode_batch`, the weights are (B,) and the vectors (B, d)."""
    a, x, b, y = (T.as_tensor(t) for t in (a, x, b, y))
    out = a.data[..., None] * x.data + b.data[..., None] * y.data

    def backward(g):
        return (
            np.asarray((g * x.data).sum(axis=-1)) if a.requires_grad else None,
            g * a.data[..., None] if x.requires_grad else None,
            np.asarray((g * y.data).sum(axis=-1)) if b.requires_grad else None,
            g * b.data[..., None] if y.requires_grad else None,
        )

    return T.Tensor._from_op(out, (a, x, b, y), backward)


def memory_blend(m, w, v):
    """Row i of the result is (1 - w_i) * m_i + w_i * v, for m (N, d); inside
    `episode_batch`, m is (B, N, d), w (B, N) and v (B, d)."""
    m, w, v = T.as_tensor(m), T.as_tensor(w), T.as_tensor(v)
    w_col = w.data[..., None]

    def backward(g):
        gw = None
        if w.requires_grad:
            gw = T._matvec(g, v.data) - (g * m.data).sum(axis=-1)
        return (
            g * (1.0 - w_col) if m.requires_grad else None,
            gw,
            T._vecmat(w.data, g) if v.requires_grad else None,
        )

    return T.Tensor._from_op(T._blend(m.data, w.data, v.data), (m, w, v), backward)


def conv2d_same3(x, w, b):
    """3x3 same-padded convolution of grids x (K, H, W, C_in) with w
    (3, 3, C_in, C_out) and b (C_out,), as one im2col matmul."""
    x, w, b = T.as_tensor(x), T.as_tensor(w), T.as_tensor(b)
    k, h, wd, cin = x.data.shape
    cout = w.data.shape[3]
    wmat = w.data.reshape(9 * cin, cout)
    out = (T._im2col(x.data) @ wmat + b.data).reshape(k, h, wd, cout)

    def backward(g):
        gcols = (g.reshape(-1, cout) @ wmat.T).reshape(k, h, wd, 9, cin)
        gxp = np.zeros((k, h + 2, wd + 2, cin), dtype=x.data.dtype)
        for di in range(3):
            for dj in range(3):
                gxp[:, di:di + h, dj:dj + wd, :] += gcols[:, :, :, di * 3 + dj, :]
        return (gxp[:, 1:h + 1, 1:wd + 1, :],
                (T._im2col(x.data).T @ g.reshape(-1, cout)).reshape(w.data.shape),
                g.reshape(-1, cout).sum(axis=0))

    return T.Tensor._from_op(out, (x, w, b), backward)


def elu_where(a):
    """ELU as a masked select."""
    return np.where(a > 0.0, a, np.expm1(np.minimum(a, 0.0))).astype(a.dtype, copy=False)


def elu_slope_where(a, out):
    """ELU's slope from its pre-activation a (or its output) and output."""
    return np.where(a > 0.0, 1.0, out + 1.0)


def memory_blend_matmul(m, w, v):
    """`tensor._blend`'s value, w_i * v as an (N, 1) @ (1, d) gemm."""
    w_col = w[..., None]
    return m * (1.0 - w_col) + w_col @ v[..., None, :]


def lstm_direction_sliced(x, wx, wh, b, reverse=False):
    """`tensor.lstm_direction`'s value, with one sigmoid call per gate."""
    hh = wh.shape[0]
    xproj = x @ wx
    h = np.zeros(x.shape[:-2] + (hh,), dtype=x.dtype)
    c = np.zeros_like(h)
    length = x.shape[-2]
    states = [None] * length
    for i in (range(length - 1, -1, -1) if reverse else range(length)):
        z = xproj[..., i, :] + T._vecmat(h, wh) + b
        i_g = T._sigmoid(z[..., 0:hh])
        f_g = T._sigmoid(z[..., hh:2 * hh])
        g_g = np.tanh(z[..., 2 * hh:3 * hh])
        o_g = T._sigmoid(z[..., 3 * hh:4 * hh])
        c = f_g * c + i_g * g_g
        h = o_g * np.tanh(c)
        states[i] = h
    return np.stack(states, axis=-2)
