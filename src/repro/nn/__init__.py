"""Minimal reverse-mode autograd framework in pure numpy.

The paper trains its agent with PyTorch; this environment has no GPU
frameworks, so the reproduction ships its own: a :class:`Tensor` with
reverse-mode autodiff, the layers PPO/RND need (Conv2d, Linear), Adam,
and a masked categorical distribution.  The numerics match the standard
definitions; only wall-clock differs.
"""

from repro.nn.tensor import Tensor, no_grad
from repro.nn.layers import (
    PARAM_DTYPE,
    Conv2d,
    Flatten,
    Linear,
    Module,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.distributions import MaskedCategorical
from repro.nn.init import kaiming_uniform, orthogonal
from repro.nn.serialization import (
    CHECKPOINT_SCHEMA_VERSION,
    CheckpointSchemaError,
    PayloadIntegrityError,
    dumps_payload,
    load_payload,
    loads_payload,
    save_payload,
)

__all__ = [
    "Tensor",
    "no_grad",
    "PARAM_DTYPE",
    "Module",
    "Linear",
    "Conv2d",
    "Sequential",
    "ReLU",
    "Tanh",
    "Flatten",
    "Adam",
    "clip_grad_norm",
    "MaskedCategorical",
    "kaiming_uniform",
    "orthogonal",
    "save_payload",
    "load_payload",
    "dumps_payload",
    "loads_payload",
    "CHECKPOINT_SCHEMA_VERSION",
    "CheckpointSchemaError",
    "PayloadIntegrityError",
]
