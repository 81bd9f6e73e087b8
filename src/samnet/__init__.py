"""Selective-attention memory network over an external slot memory, with a
synthetic video-QA generator and a transfer-learning harness.

The layers, bottom to top:

- `tensor`, `params`, `gradcheck`: a numpy-backed dense-tensor substrate
  with tape-based reverse-mode differentiation.
- `encoders`: question (bidirectional LSTM) and frame (two-layer CNN) input
  encoders.
- `cell`: the recurrent reasoning cell and the full per-frame model.
- `minicog`: scene/question generator with an exact symbolic oracle.
- `transfer`: feature/temporal/reasoning split builders and protocols.
- `training`: Adam training loop, evaluation, metrics, checkpoints.
- `cli`: the `samnet` command.
"""
