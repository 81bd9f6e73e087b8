"""Named trainable parameters.

A parameter is a leaf tensor with a unique dotted-path name; the model,
the optimizer, the checkpoint loader and the gradient checker all hold the
same object. The name order fixes a parameter's position in checkpoint
files, so registration order must be deterministic.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, default_dtype


class Parameter(Tensor):
    __slots__ = ("name",)

    def __init__(self, name: str, data: np.ndarray):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


class ParameterStore:
    """Ordered registry of uniquely named parameters."""

    def __init__(self, rng: np.random.Generator):
        self._params: dict[str, Parameter] = {}
        self._rng = rng

    def new(self, name: str, shape, fan_in: int | None = None) -> Parameter:
        """Create a parameter initialized uniform in +-1/sqrt(fan_in).

        fan_in defaults to the first extent of `shape` for matrices used as
        x @ W, and to the vector length for rank-1 shapes. Pass fan_in=0 for
        zero initialization (biases).
        """
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        shape = tuple(shape)
        if fan_in == 0:
            data = np.zeros(shape, dtype=default_dtype())
        else:
            if fan_in is None:
                fan_in = shape[0]
            bound = 1.0 / np.sqrt(fan_in)
            data = self._rng.uniform(-bound, bound, size=shape).astype(default_dtype())
        p = self._params[name] = Parameter(name, data)
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def parameters(self) -> list[Parameter]:
        return list(self._params.values())

    def subset(self, *prefixes: str) -> list[Parameter]:
        return [
            p for name, p in self._params.items() if name.startswith(prefixes)
        ]

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad = None

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self._params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Replace parameter values; names and shapes must match exactly."""
        missing = sorted(set(self._params) - set(arrays))
        unexpected = sorted(set(arrays) - set(self._params))
        if missing or unexpected:
            raise KeyError(
                f"parameter set mismatch: missing={missing}, unexpected={unexpected}"
            )
        for name, p in self._params.items():
            a = arrays[name]
            if tuple(a.shape) != tuple(p.shape):
                raise ValueError(
                    f"shape mismatch for {name}: {a.shape} vs {p.shape}"
                )
            p.data = a.astype(default_dtype())
