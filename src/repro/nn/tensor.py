"""Reverse-mode autograd tensor.

A :class:`Tensor` wraps a numpy array and records the operations applied
to it; :meth:`Tensor.backward` walks the recorded graph in reverse
topological order accumulating gradients.  The op set is exactly what
PPO + RND training needs — elementwise arithmetic, matmul, conv2d,
reductions, stable log-softmax, clipping — nothing speculative.

Broadcasting follows numpy; gradients of broadcast operands are summed
back to the operand's shape (:func:`_unbroadcast`).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = ["Tensor", "no_grad"]

# Graph recording is toggled per *thread*: a worker thread collecting
# rollouts under ``no_grad()`` must not disable recording for a trainer
# thread mid-backward (two interleaved save/restore pairs on one global
# can even leave it stuck off after both exit).
_grad_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_grad_state, "enabled", True)


@contextmanager
def no_grad():
    """Disable graph recording (inference / rollout collection).

    Thread-local: only the calling thread stops recording.
    """
    previous = _grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum along axes that were size-1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with a gradient tape.

    Parameters
    ----------
    data:
        Array-like.  A floating array keeps its dtype (the networks run
        in float32, the gradient checks in float64), anything else
        becomes float64; raw operands of an op take the tensor's dtype.
    requires_grad:
        Leaf tensors with True accumulate ``.grad`` during backward.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents = ()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def _from_op(cls, data, parents, backward) -> "Tensor":
        out = cls(data)
        if _grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------

    def backward(self, grad=None) -> None:
        """Backpropagate from this tensor (defaults to d(self)/d(self)=1)."""
        if not self.requires_grad:
            raise RuntimeError("called backward on a tensor without grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("backward without grad requires a scalar")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        # Reverse topological order over the recorded graph.
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        grads = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                # Leaf: accumulate in the leaf's own dtype.
                node_grad = node_grad.astype(node.data.dtype, copy=False)
                node.grad = node_grad if node.grad is None else node.grad + node_grad
                continue
            for parent, parent_grad in node._backward(node_grad):
                if not parent.requires_grad:
                    continue
                key = id(parent)
                grads[key] = (
                    parent_grad if key not in grads else grads[key] + parent_grad
                )

    # ------------------------------------------------------------------
    # elementwise arithmetic
    # ------------------------------------------------------------------

    def _coerce(self, value) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        return Tensor(np.asarray(value, dtype=self.data.dtype))

    def __add__(self, other):
        other = self._coerce(other)
        data = self.data + other.data

        def backward(grad):
            return (
                (self, _unbroadcast(grad, self.shape)),
                (other, _unbroadcast(grad, other.shape)),
            )

        return Tensor._from_op(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(grad):
            return ((self, -grad),)

        return Tensor._from_op(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        data = self.data * other.data

        def backward(grad):
            return (
                (self, _unbroadcast(grad * other.data, self.shape)),
                (other, _unbroadcast(grad * self.data, other.shape)),
            )

        return Tensor._from_op(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        data = self.data / other.data

        def backward(grad):
            return (
                (self, _unbroadcast(grad / other.data, self.shape)),
                (
                    other,
                    _unbroadcast(
                        -grad * self.data / (other.data**2), other.shape
                    ),
                ),
            )

        return Tensor._from_op(data, (self, other), backward)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: float):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent

        def backward(grad):
            return ((self, grad * exponent * self.data ** (exponent - 1)),)

        return Tensor._from_op(data, (self,), backward)

    # ------------------------------------------------------------------
    # nonlinearities
    # ------------------------------------------------------------------

    def relu(self):
        if not _grad_enabled():
            # Inference fast path: no mask materialization, no closure.
            return Tensor(np.maximum(self.data, 0.0))
        mask = self.data > 0

        def backward(grad):
            return ((self, grad * mask),)

        return Tensor._from_op(self.data * mask, (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(grad):
            return ((self, grad * (1.0 - out_data**2)),)

        return Tensor._from_op(out_data, (self,), backward)

    def exp(self):
        out_data = np.exp(self.data)

        def backward(grad):
            return ((self, grad * out_data),)

        return Tensor._from_op(out_data, (self,), backward)

    def log(self):
        def backward(grad):
            return ((self, grad / self.data),)

        return Tensor._from_op(np.log(self.data), (self,), backward)

    def clip(self, low: float, high: float):
        """Clamp values; gradient is zero outside [low, high] (PPO clip)."""
        inside = (self.data >= low) & (self.data <= high)

        def backward(grad):
            return ((self, grad * inside),)

        return Tensor._from_op(np.clip(self.data, low, high), (self,), backward)

    def minimum(self, other):
        """Elementwise min; the gradient follows the smaller operand."""
        other = self._coerce(other)
        take_self = self.data <= other.data
        data = np.where(take_self, self.data, other.data)

        def backward(grad):
            return (
                (self, _unbroadcast(grad * take_self, self.shape)),
                (other, _unbroadcast(grad * ~take_self, other.shape)),
            )

        return Tensor._from_op(data, (self, other), backward)

    def abs(self):
        sign = np.sign(self.data)

        def backward(grad):
            return ((self, grad * sign),)

        return Tensor._from_op(np.abs(self.data), (self,), backward)

    # ------------------------------------------------------------------
    # reductions and shaping
    # ------------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return ((self, np.broadcast_to(g, self.shape).copy()),)

        return Tensor._from_op(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(grad):
            return ((self, grad.reshape(self.shape)),)

        return Tensor._from_op(data, (self,), backward)

    def flatten_batch(self):
        """Reshape (N, ...) -> (N, -1)."""
        return self.reshape(self.shape[0], -1)

    def transpose(self, axes=None):
        data = self.data.transpose(axes)
        inverse = None if axes is None else tuple(np.argsort(axes))

        def backward(grad):
            return ((self, grad.transpose(inverse)),)

        return Tensor._from_op(data, (self,), backward)

    # ------------------------------------------------------------------
    # linear algebra
    # ------------------------------------------------------------------

    def matmul(self, other):
        other = self._coerce(other)
        data = self.data @ other.data

        def backward(grad):
            return (
                (self, grad @ other.data.swapaxes(-1, -2)),
                (other, self.data.swapaxes(-1, -2) @ grad),
            )

        return Tensor._from_op(data, (self, other), backward)

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # softmax family
    # ------------------------------------------------------------------

    def log_softmax(self, axis: int = -1):
        """Numerically stable log-softmax along ``axis``."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_norm
        softmax = np.exp(out_data)

        def backward(grad):
            return (
                (
                    self,
                    grad - softmax * grad.sum(axis=axis, keepdims=True),
                ),
            )

        return Tensor._from_op(out_data, (self,), backward)

    def softmax(self, axis: int = -1):
        return self.log_softmax(axis=axis).exp()

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------

    def gather(self, indices: np.ndarray, axis: int = -1):
        """Select one element per row along ``axis`` (log-prob of action).

        ``indices`` is an integer array with one fewer dimension than the
        tensor; gradients scatter back to the selected positions.
        """
        indices = np.asarray(indices)
        expanded = np.expand_dims(indices, axis)
        data = np.take_along_axis(self.data, expanded, axis=axis).squeeze(axis)

        def backward(grad):
            full = np.zeros_like(self.data)
            np.put_along_axis(
                full, expanded, np.expand_dims(grad, axis), axis=axis
            )
            return ((self, full),)

        return Tensor._from_op(data, (self,), backward)

    # ------------------------------------------------------------------
    # convolution (im2col)
    # ------------------------------------------------------------------

    def conv2d(self, weight: "Tensor", bias: "Tensor" = None, stride: int = 1, padding: int = 0):
        """2D convolution: input (N,C,H,W), weight (F,C,kh,kw), bias (F,).

        The backward returns the input's gradient only when the input
        requires one: for the first conv, whose input is the
        observation, neither ``w_mat.T @ grad`` nor the col2im fold is
        built.  Weight and bias gradients are the same either way.  The
        fold accumulates in ``(C, N, H, W)`` order (see :func:`_col2im`)
        with the same per-element ``+=`` sequence as an ``(N, C)`` fold.
        """
        x = self.data
        w = weight.data
        n, c, h, wdt = x.shape
        f, c2, kh, kw = w.shape
        if c != c2:
            raise ValueError(f"channel mismatch: input {c}, weight {c2}")
        out_h = (h + 2 * padding - kh) // stride + 1
        out_w = (wdt + 2 * padding - kw) // stride + 1
        if padding:
            # Zero-pad via slice assignment: np.pad's generic machinery
            # costs ~0.5 ms per call, which dominated single-row rollout
            # forwards.
            x_pad = np.zeros(
                (n, c, h + 2 * padding, wdt + 2 * padding), dtype=x.dtype
            )
            x_pad[:, :, padding:-padding, padding:-padding] = x
        else:
            x_pad = x
        cols = _im2col(x_pad, kh, kw, stride, out_h, out_w)  # (C*kh*kw, N, L)
        w_mat = w.reshape(f, -1)  # (F, C*kh*kw)
        # One identically-shaped (F,K)@(K,L) BLAS GEMM per batch row: a
        # row's result is bitwise independent of the batch size (a single
        # flattened GEMM is faster but lets BLAS pick kernels by total
        # width, which breaks the batched rollout engine's exact
        # batch-width invariance).
        out = np.empty((n, f, out_h * out_w), dtype=np.result_type(x, w))
        for row in range(n):
            np.matmul(w_mat, cols[:, row], out=out[row])
        out = out.reshape(n, f, out_h, out_w)
        if bias is not None:
            out += bias.data.reshape(1, f, 1, 1)  # ``out`` is fresh: in place

        parents = (self, weight) + ((bias,) if bias is not None else ())

        def backward(grad):
            # Flattened GEMMs (batch inside the column axis): gradients
            # only need determinism for identical inputs, not per-row
            # batch-width invariance.
            grad_mat = grad.transpose(1, 0, 2, 3).reshape(f, -1)  # (F, N*L)
            cols_flat = cols.reshape(cols.shape[0], -1)  # (K, N*L)
            grad_w = (grad_mat @ cols_flat.T).reshape(w.shape)
            results = [(weight, grad_w)]
            if bias is not None:
                results.append((bias, grad.sum(axis=(0, 2, 3))))
            # ``Tensor.backward`` would discard a no-grad input's
            # gradient, so it is not built.
            if self.requires_grad:
                grad_x_pad = _col2im(
                    w_mat.T @ grad_mat, x_pad.shape, kh, kw, stride, out_h, out_w
                )
                if padding:
                    grad_x = grad_x_pad[:, :, padding:-padding, padding:-padding]
                else:
                    grad_x = grad_x_pad
                results.append((self, grad_x))
            return tuple(results)

        return Tensor._from_op(out, parents, backward)


def _im2col(x_pad, kh, kw, stride, out_h, out_w):
    """Unfold padded input (N,C,H,W) into (C*kh*kw, N, out_h*out_w).

    The kernel axis leads so that materializing this layout walks the
    input nearly sequentially (~8x faster than the batch-major unfold
    for rollout-sized batches); each batch row is then a contiguous-
    column (K, L) GEMM operand.
    """
    n, c, _, _ = x_pad.shape
    windows = np.lib.stride_tricks.sliding_window_view(x_pad, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    # (N, C, out_h, out_w, kh, kw) -> (C*kh*kw, N, out_h*out_w)
    return np.ascontiguousarray(
        windows.transpose(1, 4, 5, 0, 2, 3).reshape(
            c * kh * kw, n, out_h * out_w
        )
    )


def _col2im(cols, x_shape, kh, kw, stride, out_h, out_w):
    """Fold (C*kh*kw, N*L) gradients back onto the padded input (N,C,H,W).

    The fold accumulates in the column buffer's own ``(C, N, H, W)``
    order, so each kernel tap ``(i, j)`` reads a contiguous block rather
    than a transposed one.  Every element still receives the same
    ``+=`` sequence onto zeros, in ``(i, j)`` order, as an
    ``(N, C)``-ordered fold.  The result is an ``(N, C, H, W)``
    transposed view of that buffer.
    """
    n, c, h, w = x_shape
    grad = np.zeros((c, n, h, w), dtype=cols.dtype)
    cols6 = cols.reshape(c, kh, kw, n, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            grad[
                :, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride
            ] += cols6[:, i, j]
    return grad.transpose(1, 0, 2, 3)
