"""Optimizers and gradient utilities."""

from __future__ import annotations

import numpy as np

__all__ = ["SGD", "Adam", "clip_grad_norm"]


def clip_grad_norm(parameters, max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for logging).
    """
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


class SGD:
    """Plain (optionally momentum) stochastic gradient descent."""

    def __init__(self, parameters, lr: float = 1e-2, momentum: float = 0.0):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.parameters = list(parameters)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            if self.momentum:
                v *= self.momentum
                v += p.grad
                p.data -= self.lr * v
            else:
                p.data -= self.lr * p.grad


class Adam:
    """Adam (Kingma & Ba 2015) with bias correction.

    :meth:`step` runs in place.  Each parameter is walked in blocks
    along axis 0 through two preallocated scratch buffers, so no
    full-size temporary is allocated.  A block along axis 0 is a view
    even of an orthogonal-layout weight, which is not C-contiguous (its
    ``reshape(-1)`` would be a copy, and updating the copy would leave
    the weight unchanged).  Per element the float operations and their
    order are those of the out-of-place expression::

        m *= b1;  m += (1-b1)*g
        v *= b2;  v += (1-b2)*g**2
        p -= (lr*(m/bias1)) / (sqrt(v/bias2) + eps)

    so the update is bitwise that of the out-of-place form, in each
    parameter's own dtype (moments and scratch blocks follow it).
    """

    # Elements per block: the two scratch blocks plus the parameter,
    # moment and gradient blocks stay cache-resident.
    BLOCK_ELEMENTS = 16384

    def __init__(
        self,
        parameters,
        lr: float = 3e-4,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0
        self._blocks = [self._row_blocks(p.data.shape) for p in self.parameters]
        scratch = max(
            (
                p.data[rows].size
                for p, blocks in zip(self.parameters, self._blocks)
                for rows in blocks
            ),
            default=0,
        )
        dtypes = {p.data.dtype for p in self.parameters}
        self._scratch = {d: (np.empty(scratch, d), np.empty(scratch, d)) for d in dtypes}

    @classmethod
    def _row_blocks(cls, shape: tuple) -> list:
        """Indices of a parameter's blocks along axis 0."""
        if not shape:
            return [Ellipsis]
        rows = max(1, cls.BLOCK_ELEMENTS // max(int(np.prod(shape[1:])), 1))
        return [slice(i, i + rows) for i in range(0, shape[0], rows)]

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        one_minus_b1 = 1.0 - self.beta1
        one_minus_b2 = 1.0 - self.beta2
        for p, m, v, blocks in zip(self.parameters, self._m, self._v, self._blocks):
            if p.grad is None:
                continue
            buf_a, buf_b = self._scratch[p.data.dtype]
            for rows in blocks:
                g, mb, vb, pb = p.grad[rows], m[rows], v[rows], p.data[rows]
                a = buf_a[: g.size].reshape(g.shape)
                b = buf_b[: g.size].reshape(g.shape)
                mb *= self.beta1
                np.multiply(g, one_minus_b1, out=a)
                mb += a
                vb *= self.beta2
                np.multiply(g, g, out=a)
                a *= one_minus_b2
                vb += a
                np.divide(mb, bias1, out=a)
                a *= self.lr
                np.divide(vb, bias2, out=b)
                np.sqrt(b, out=b)
                b += self.eps
                a /= b
                pb -= a

    def state_dict(self) -> dict:
        return {
            "t": self._t,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        self._t = state["t"]
        for target, source in zip(self._m, state["m"]):
            target[...] = source
        for target, source in zip(self._v, state["v"]):
            target[...] = source
