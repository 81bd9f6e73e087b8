"""Step the reasoning cell by hand and watch the external memory.

Shows the write-location algebra on its own, then runs a full episode
through an untrained model with tracing enabled to display the attention
vectors and gate decisions each reasoning step produces.

Run:  python demos/02_memory_cell_walkthrough.py
"""

import numpy as np

from samnet import tensor as T
from samnet.cell import ModelConfig, SAMNet, memory_update, write_head_update

np.set_printoptions(precision=3, suppress=True)

print("=== memory update algebra ===")
m = T.Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
wh = T.Tensor([0, 1, 0, 0])    # write head points at slot 1
rh = T.Tensor([0, 0, 0, 1])    # read head found slot 3
vo = T.Tensor([9.0, 9.0, 9.0])

print("memory before:\n", m.data)
m2, w = memory_update(m, wh, rh, vo, h_r=T.Tensor(0.0), h_a=T.Tensor(0.0))
print("h_r = h_a = 0 keeps memory unchanged:", np.array_equal(m2.data, m.data))

m3, w = memory_update(m, wh, rh, vo, h_r=T.Tensor(1.0), h_a=T.Tensor(0.0))
print("replace via the read head rewrites slot 3:\n", m3.data)

m4, w = memory_update(m, wh, rh, vo, h_r=T.Tensor(0.0), h_a=T.Tensor(1.0))
print("append via the write head rewrites slot 1:\n", m4.data)
print("write vector sums to h_r + h_a:", float(w.data.sum()))

head = T.Tensor([0, 0, 0, 1])
print("\ncircular write-head advance from slot 3:",
      write_head_update(head, T.Tensor(1.0)).data, "(wraps to slot 0)")

print("\n=== one episode through the cell, with tracing ===")
cfg = ModelConfig(vocab_size=10, num_answers=5, in_channels=6, d=16,
                  steps=3, mem_slots=4)
net = SAMNet(cfg, init_seed=7)
rng = np.random.default_rng(3)
frames = (rng.random((2, 3, 3, 6)) < 0.2).astype(np.float32)
trace = []
logits = net.episode_forward([1, 4, 2], frames, trace=trace)
print("per-frame answer logits shape:", logits.shape)
for k, steps in enumerate(trace):
    print(f"\nframe {k}:")
    for t, s in enumerate(steps, 1):
        print(f"  step {t}: tau={s.tau}  gates="
              f"(g_v={s.gates['g_v']:.2f}, g_m={s.gates['g_m']:.2f}, "
              f"h_r={s.gates['h_r']:.2f}, h_a={s.gates['h_a']:.2f})")
        print(f"          write head after step: {s.wh}")

print("\nEvery attention vector above is a distribution; the same parameters "
      "run with any number of memory slots (try n_slots=16 in episode_forward).")
