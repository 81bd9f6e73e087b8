"""Differentiable elementwise ops that the model no longer calls.

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
