"""The op table's reference chains, the primitive ops that only they call,
and the former forms of kernels that `samnet.tensor` rewrote.

`CHAINS` holds, per entry of `samnet.gradsuite.OPS` that is not its own
primitive, a graph of primitive ops over the entry's operands with the
same value: for a fused op, the graph the model ran before it was fused;
for a reasoning step's chain, the same graph with `linear` as `matmul`
and `add` and `weighted_sum` as products and a sum. `test_ops.py` checks
each entry against it. The primitives `sub`, `tanh` and the unfused
`conv2d_same3` are no longer the model's, so they live here with the
forward expressions and backward rules the tape library had, and so does
`lstm_chain`, the question encoder's former per-token graph. The kernel
forms at the end are the references of `test_tensor.py`'s bit-identity
tests.
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


def _linear_chain(x, w, b):
    return T.add(T.matmul(x, w), b)


def lstm_chain(x, wx, wh, b, reverse=False):
    """The question encoder's former per-token LSTM graph: about twenty
    tape nodes per token, its input product one token at a time."""
    hh = wh.shape[0]
    h = T.zeros(hh)
    c = T.zeros(hh)
    length = x.shape[0]
    states = [None] * length
    order = range(length - 1, -1, -1) if reverse else range(length)
    for i in order:
        z = T.add(T.add(T.matmul(x[i], wx), T.matmul(h, wh)), b)
        i_g = T.sigmoid(z[0:hh])
        f_g = T.sigmoid(z[hh:2 * hh])
        g = tanh(z[2 * hh:3 * hh])
        o_g = T.sigmoid(z[3 * hh:4 * hh])
        c = T.add(T.mul(f_g, c), T.mul(i_g, g))
        h = T.mul(o_g, tanh(c))
        states[i] = h
    return T.stack(states)


def _episode_loss_chain(logits, answers):
    """Training's former episode loss: per frame a select and a one-frame
    cross-entropy, then an add chain and a div."""
    terms = [T.cross_entropy_logits(logits[..., k, :], answers[..., k])
             for k in range(answers.shape[-1])]
    total = terms[0]
    for term in terms[1:]:
        total = T.add(total, term)
    return T.div(total, float(len(terms)))


def total(a, axis):
    """The sum of a along `axis`, as numpy sums it: pairwise along the
    last axis, a left fold along another."""
    a = T.as_tensor(a)
    return T.Tensor._from_op(
        a.data.sum(axis=axis), (a,),
        lambda g: (np.repeat(np.expand_dims(g, axis), a.shape[axis], axis),))


def softmax_folded(a):
    """Softmax of a vector whose normaliser is a left fold."""
    a = T.as_tensor(a)
    e = np.exp(a.data - a.data.max())
    out = e / np.add.accumulate(e)[-1:]
    return T.Tensor._from_op(out, (a,), lambda g: (T._softmax_backward(g, out),))


def _word_attention_chain(q, words):
    """The controller's read: logits as row sums of words * q, then the
    weights' mix of the words."""
    qa = softmax_folded(total(T.mul(words, q), -1))
    return total(T.mul(T.reshape(qa, (words.shape[0], 1)), words), -2)


def _gate_mlp_chain(vs, rs, tau, w1, b1, w2, b2, obj_w, obj_b, write_w, write_b):
    """The gate network with `linear` as `matmul` and `add`, and each gate
    its own selection."""
    x = T.concat([T.reshape(vs, (1,)), T.reshape(rs, (1,)), tau])
    h = T.elu(_linear_chain(x, w1, b1))
    h = T.elu(_linear_chain(h, w2, b2))
    obj = T.sigmoid(_linear_chain(h, obj_w, obj_b))
    write = T.softmax(_linear_chain(h, write_w, write_b))
    return T.concat([T.reshape(g, (1,)) for g in (
        obj[0], obj[1], write[0], write[1], write[2])])


def _memory_blend_chain(m, w, v):
    """The blend as the model first ran it: an (N, 1) @ (1, d) product."""
    n = m.shape[0]
    w_col = T.reshape(w, (n, 1))
    keep = T.mul(m, sub(1.0, w_col))
    return T.add(keep, T.matmul(w_col, T.reshape(v, (1, v.shape[0]))))


def _elu_mlp_chain(parts, w1, b1, w2, b2):
    x = parts[0] if len(parts) == 1 else T.concat(parts, axis=-1)
    return _linear_chain(T.elu(_linear_chain(x, w1, b1)), w2, b2)


def _weighted_sum_chain(a, x, b, y):
    return T.add(T.mul(a, x), T.mul(b, y))


def _conv_elu_chain(x, *layers):
    """The frame encoder's former graph: a convolution node, then an ELU
    node, per layer."""
    for w, b in layers:
        x = T.elu(conv2d_same3(x, w, b))
    return x


CHAINS = {
    "cross_entropy_logits": _episode_loss_chain,
    "linear_rank1": _linear_chain,
    "linear_rank2": _linear_chain,
    "linear_per_row": lambda x, w, b: T.stack(
        [_linear_chain(x[i], w, b) for i in range(x.shape[0])]),
    "lstm_direction_forward": lstm_chain,
    "lstm_direction_reverse": lambda *operands: lstm_chain(*operands, reverse=True),
    "word_attention": _word_attention_chain,
    "attention_weights": lambda q, keys, scale: T.softmax(
        T.mul(T.matmul(keys, q), scale)),
    "memory_blend": _memory_blend_chain,
    # a gather by the rotated index is the former one-step roll op
    "write_head_shift": lambda wh, h_a: T.add(
        T.mul(h_a, T.select(wh, np.roll(np.arange(wh.shape[0]), 1))),
        T.mul(sub(1.0, h_a), wh)),
    "conv2d_same3_elu_one_layer": lambda x, w, b: _conv_elu_chain(x, (w, b)),
    "conv2d_same3_elu_two_layers": lambda x, w1, b1, w2, b2: _conv_elu_chain(
        x, (w1, b1), (w2, b2)),
    # the reasoning step's chains, in the ops they are built of: `linear`
    # as matmul and add, `weighted_sum` as products and a sum
    "attention_weights_projected": lambda q, keys, scale, w, b: T.softmax(
        T.mul(T.matmul(keys, _linear_chain(q, w, b)), scale)),
    "control_query": lambda q, c_prev, w, b, merge_w, merge_b, u: T.mul(
        u, _linear_chain(T.concat([_linear_chain(q, w, b), c_prev], axis=-1),
                         merge_w, merge_b)),
    "elu_mlp_softmax": lambda x, *weights: T.softmax(_elu_mlp_chain([x],
                                                                   *weights)),
    "elu_mlp_two_parts": lambda x, y, *weights: _elu_mlp_chain([x, y], *weights),
    "gate_mlp": _gate_mlp_chain,
    "mixed_linear": lambda gates, x, y, z, w, b: _linear_chain(T.concat(
        [_weighted_sum_chain(gates[0], x, gates[1], y), z], axis=-1), w, b),
    "memory_write": lambda m, wh, rh, v, gates: _memory_blend_chain(
        m, _weighted_sum_chain(gates[2], rh, gates[3], wh), v),
}


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
    """`tensor.lstm_direction`'s value for equal-length sequences, with one
    sigmoid call per gate."""
    hh = wh.shape[0]
    xproj = T._vecmat(x, wx)
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
