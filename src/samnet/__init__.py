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

from . import tensor
from .cell import CellState, Gates, MemoryState, ModelConfig, SAMCell, SAMNet
from .checkpoint import load_checkpoint, save_checkpoint
from .encoders import FrameEncoder, QuestionEncoder
from .gradcheck import grad_check
from .params import Parameter, ParameterStore
from .training import TrainConfig, evaluate_episodes, train

__version__ = "0.1.0"

__all__ = [
    "CellState", "FrameEncoder", "Gates", "MemoryState",
    "ModelConfig", "Parameter", "ParameterStore", "QuestionEncoder",
    "SAMCell", "SAMNet", "TrainConfig", "evaluate_episodes", "grad_check",
    "load_checkpoint", "save_checkpoint", "tensor", "train",
]
