"""Streaming mean/variance tracker (Welford / parallel-batch update).

Used to normalize RND intrinsic rewards and predictor inputs, exactly as
in Burda et al. (2018).
"""

from __future__ import annotations

import numpy as np

__all__ = ["RunningMeanStd"]


class RunningMeanStd:
    """Tracks elementwise mean and variance of a stream of batches."""

    # Pseudo-count of the prior (mean 0, var 1); keeps the first merge finite.
    EPSILON = 1e-4

    def __init__(self, shape: tuple = ()):
        self.mean = np.zeros(shape, dtype=np.float64)
        self.var = np.ones(shape, dtype=np.float64)
        self.count = float(self.EPSILON)

    def update(self, batch: np.ndarray) -> None:
        """Fold a batch (leading axis = samples) into the statistics."""
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim == 0:
            batch = batch.reshape(1)
        batch_mean = batch.mean(axis=0)
        batch_var = batch.var(axis=0)
        batch_count = batch.shape[0]
        self._merge(batch_mean, batch_var, batch_count)

    def _merge(self, batch_mean, batch_var, batch_count) -> None:
        delta = batch_mean - self.mean
        total = self.count + batch_count
        new_mean = self.mean + delta * batch_count / total
        m_self = self.var * self.count
        m_batch = batch_var * batch_count
        m_combined = m_self + m_batch + delta**2 * self.count * batch_count / total
        self.mean = new_mean
        self.var = m_combined / total
        self.count = total

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.var + 1e-12)

    def normalize(self, values: np.ndarray, center: bool = True) -> np.ndarray:
        """(x - mean) / std, or x / std when ``center`` is False."""
        values = np.asarray(values, dtype=np.float64)
        if center:
            return (values - self.mean) / self.std
        return values / self.std
