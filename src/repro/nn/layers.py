"""Neural-network modules built on the autograd tensor.

Parameters are :data:`PARAM_DTYPE`, cast once (layout kept) from the
float64 initializers; :meth:`Module.load_state_dict` casts what it loads.
"""

from __future__ import annotations

import numpy as np

from repro.nn.init import kaiming_uniform, orthogonal, orthogonal_layout
from repro.nn.tensor import Tensor

__all__ = ["Module", "Linear", "Conv2d", "ReLU", "Tanh", "Flatten", "Sequential"]

PARAM_DTYPE = np.float32


class Module:
    """Base class: parameter discovery, train/eval hooks, state dicts."""

    def parameters(self) -> list:
        """All trainable tensors of this module and its children."""
        params = []
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
        return params

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def state_dict(self, prefix: str = "") -> dict:
        """Name -> array snapshot of all parameters."""
        state = {}
        for name, value in self.__dict__.items():
            key = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                state[key] = value.data.copy()
            elif isinstance(value, Module):
                state.update(value.state_dict(prefix=f"{key}."))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        state.update(item.state_dict(prefix=f"{key}.{i}."))
        return state

    def load_state_dict(self, state: dict, prefix: str = "") -> None:
        """Restore parameters saved by :meth:`state_dict`."""
        for name, value in self.__dict__.items():
            key = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                if key not in state:
                    raise KeyError(f"missing parameter {key!r}")
                if state[key].shape != value.data.shape:
                    raise ValueError(
                        f"shape mismatch for {key!r}: "
                        f"{state[key].shape} vs {value.data.shape}"
                    )
                value.data[...] = state[key]
            elif isinstance(value, Module):
                value.load_state_dict(state, prefix=f"{key}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        item.load_state_dict(state, prefix=f"{key}.{i}.")

    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


class Linear(Module):
    """Fully connected layer ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Matrix shape.
    init:
        ``"orthogonal"`` (with ``gain``), ``"kaiming"``, or ``"zeros"``:
        no random draw, zeros in the orthogonal weight's memory layout
        (:func:`~repro.nn.init.orthogonal_layout`), for a layer whose
        weights are loaded next.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        gain: float = np.sqrt(2.0),
        init: str = "orthogonal",
        rng: np.random.Generator = None,
    ):
        if init == "orthogonal":
            w = orthogonal((in_features, out_features), gain=gain, rng=rng)
        elif init == "kaiming":
            w = kaiming_uniform((in_features, out_features), fan_in=in_features, rng=rng)
        elif init == "zeros":
            w = orthogonal_layout((in_features, out_features))
        else:
            raise ValueError(f"unknown init {init!r}")
        self.weight = Tensor(w.astype(PARAM_DTYPE), requires_grad=True)
        self.bias = Tensor(np.zeros(out_features, PARAM_DTYPE), requires_grad=True)
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


class Conv2d(Module):
    """2D convolution layer (stride/padding, square kernels).

    ``init`` is ``"orthogonal"`` (with ``gain``) or ``"zeros"``, as for
    :class:`Linear`.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        gain: float = np.sqrt(2.0),
        rng: np.random.Generator = None,
        init: str = "orthogonal",
    ):
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        if init == "orthogonal":
            w = orthogonal(shape, gain=gain, rng=rng)
        elif init == "zeros":
            w = orthogonal_layout(shape)
        else:
            raise ValueError(f"unknown init {init!r}")
        self.weight = Tensor(w.astype(PARAM_DTYPE), requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels, PARAM_DTYPE), requires_grad=True)
        self.stride = stride
        self.padding = padding
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size

    def forward(self, x: Tensor) -> Tensor:
        return x.conv2d(
            self.weight, self.bias, stride=self.stride, padding=self.padding
        )


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Flatten(Module):
    """(N, ...) -> (N, -1)."""

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten_batch()


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x

    def __len__(self) -> int:
        return len(self.modules)

    def __getitem__(self, index: int) -> Module:
        return self.modules[index]
