"""Weight initializers.

PPO is sensitive to initialization scale; orthogonal init with the
standard gains (sqrt(2) for hidden ReLU layers, 0.01 for the policy
head, 1.0 for the value head) is the established recipe.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

__all__ = ["orthogonal", "orthogonal_layout", "kaiming_uniform"]


def orthogonal(shape: tuple, gain: float = 1.0, rng: np.random.Generator = None) -> np.ndarray:
    """Orthogonal matrix init (Saxe et al.), reshaped to ``shape``.

    For >2D shapes (conv kernels) the trailing dimensions are flattened,
    matching the PyTorch convention.

    One normal draw ``a``, taken tall, is orthonormalized by one
    Cholesky-QR pass: ``Q = a L^-T`` with ``L L^T = a^T a``, solved in
    the weight's own buffer.  ``R = L^T`` has a positive diagonal, so
    ``Q`` is the sign-corrected Householder ``Q`` up to rounding (1e-15
    on tall layers, under 1e-10 on RND's square 256 x 256 layer).
    """
    rng = rng or np.random.default_rng()
    weight = orthogonal_layout(shape)
    rows = shape[0]
    cols = int(np.prod(shape[1:]))
    flat = weight.reshape(rows, cols)  # a view: the layout matches
    if rows < cols:
        flat[...] = rng.normal(size=(rows, cols))
        flat = flat.T
    else:
        rng.standard_normal(out=flat)  # the same stream as rng.normal
    factor = np.linalg.cholesky(flat.T @ flat)
    # L Q^T = a^T in place, 256 columns a solve: scipy's BLAS keeps the
    # scratch pages a solve touches, and forked pool workers inherit them.
    for start in range(0, len(flat), 256):
        block = flat.T[:, start : start + 256]  # F-ordered: solved in place
        solve_triangular(factor, block, lower=True, overwrite_b=True)
    weight *= gain
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
