"""Differentiable primitive ops that the model no longer calls.

`samnet.tensor` keeps only the ops the model uses; the fused ops replaced
these. The primitive reference chains in `test_fused.py` and the op sweep
in `test_tensor.py` still build graphs from them, so they live here with
the forward expressions and backward rules the tape library had.
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
