"""Weight initializers.

PPO is sensitive to initialization scale; orthogonal init with the
standard gains (sqrt(2) for hidden ReLU layers, 0.01 for the policy
head, 1.0 for the value head) is the established recipe.
"""

from __future__ import annotations

import numpy as np

__all__ = ["orthogonal", "orthogonal_layout", "kaiming_uniform"]


def orthogonal(shape: tuple, gain: float = 1.0, rng: np.random.Generator = None) -> np.ndarray:
    """Orthogonal matrix init (Saxe et al.), reshaped to ``shape``.

    For >2D shapes (conv kernels) the trailing dimensions are flattened,
    matching the PyTorch convention.
    """
    rng = rng or np.random.default_rng()
    weight = orthogonal_layout(shape)
    rows = shape[0]
    cols = int(np.prod(shape[1:]))
    flat = rng.normal(size=(rows, cols))
    if rows < cols:
        flat = flat.T
    q, r = np.linalg.qr(flat)
    # Sign correction so the distribution is uniform over orthogonal mats.
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    weight[...] = (gain * q).reshape(shape)
    return weight


def orthogonal_layout(shape: tuple) -> np.ndarray:
    """Zeros in the memory layout :func:`orthogonal` returns for ``shape``.

    A wide matrix (fewer rows than flattened columns) is factored
    transposed, so its weight is a strided view of a C-ordered
    ``(cols, rows)`` buffer, not a C-ordered array.  The layout is part
    of the result: BLAS may round a product differently when an operand
    arrives transposed, so a network that loads trained weights
    reproduces the original bitwise only in the original's layout.
    """
    if len(shape) < 2:
        raise ValueError("orthogonal init needs at least 2 dimensions")
    rows = shape[0]
    cols = int(np.prod(shape[1:]))
    if rows < cols:
        return np.zeros((cols, rows)).T.reshape(shape)
    return np.zeros((rows, cols)).reshape(shape)


def kaiming_uniform(shape: tuple, fan_in: int = None, rng: np.random.Generator = None) -> np.ndarray:
    """He-uniform init, the numpy analog of PyTorch's Linear default."""
    rng = rng or np.random.default_rng()
    if fan_in is None:
        fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
    bound = np.sqrt(1.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)
