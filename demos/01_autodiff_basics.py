"""A tour of the tensor substrate: forward math, the gradient tape, and
finite-difference verification.

Run:  python demos/01_autodiff_basics.py
"""

import numpy as np

from samnet import tensor as T
from samnet.gradcheck import grad_check
from samnet.params import ParameterStore

print("=== tensors and ops ===")
v = T.Tensor([1.0, 2.0, 3.0])
w = T.softmax(v)
print("softmax([1,2,3])      =", np.round(w.data, 4))
print("attention aggregate   =", round(T.attention_aggregate(w).item(), 4),
      " (1/3 = diffuse, 1.0 = one-hot)")

print("\n=== dot-product attention ===")
rng = np.random.default_rng(0)
keys = T.Tensor(rng.normal(size=(4, 8)))
values = T.Tensor(rng.normal(size=(4, 8)))
query = T.Tensor(rng.normal(size=8))
weights = T.attention_weights(query, keys, 1.0 / np.sqrt(8))  # scale 1/sqrt(d)
summary = T.matmul(weights, values)
print("weights:", np.round(weights.data, 3), "sum:", round(float(weights.data.sum()), 6))
print("summary shape:", summary.shape)

print("\n=== reverse mode from a scalar root ===")
# each op is one tape node with a hand-written backward; `linear` is x @ w + b
store = ParameterStore(np.random.default_rng(1))
x = store.new("x", (3,))
x.data = np.array([1.0, -2.0, 0.5], dtype=np.float32)
w = store.new("w", (3, 4))
b = store.new("b", (4,), fan_in=0)
logits = T.linear(T.elu(x), w, b)
loss = T.cross_entropy_logits(logits, 2)
# backward() releases inner values such as the logits: read them first
print("logits:", np.round(logits.data, 4))
loss.backward()
print("loss:", round(loss.item(), 4))
print("dloss/dx:", np.round(store["x"].grad, 4))
print("dloss/db:", np.round(store["b"].grad, 4), " (softmax - one-hot)")

print("\n=== central-difference verification ===")
with T.precision("float64"):
    store = ParameterStore(np.random.default_rng(2))
    logits = store.new("logits", (5,))

    def f():
        return T.cross_entropy_logits(logits, 2)

    err = grad_check(f, store.parameters(), eps=1e-6)
print(f"cross-entropy max relative error vs finite differences: {err:.2e}")

print("\nThe full per-component suite is `samnet gradcheck [--f64]`.")
