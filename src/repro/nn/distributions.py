"""Masked categorical distribution for discrete action spaces.

The environment marks infeasible placements in an action mask; the agent
"sets the probability of infeasible actions to 0" (paper Fig. 1) by
assigning them ``-inf`` logits before the softmax.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["MaskedCategorical"]

_MASK_VALUE = -1e9  # effectively -inf without NaN risk in the softmax


class MaskedCategorical:
    """Categorical over logits with a feasibility mask.

    Parameters
    ----------
    logits:
        Tensor of shape (N, A).
    mask:
        Boolean array (N, A); True = feasible.  Every row must have at
        least one feasible action.
    """

    def __init__(self, logits: Tensor, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != logits.shape:
            raise ValueError(
                f"mask shape {mask.shape} != logits shape {logits.shape}"
            )
        if not mask.any(axis=-1).all():
            raise ValueError("some rows have no feasible action")
        self.mask = mask
        # A raw operand takes the logits' dtype (``Tensor._coerce``).
        self.masked_logits = logits + np.where(mask, 0.0, _MASK_VALUE)
        self.log_probs = self.masked_logits.log_softmax(axis=-1)

    @property
    def probs(self) -> np.ndarray:
        """Probability matrix as a plain array (no graph)."""
        return np.exp(self.log_probs.data)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one action per row (Gumbel-max, vectorized)."""
        gumbel = rng.gumbel(size=self.masked_logits.shape)
        scores = self.masked_logits.data + gumbel
        scores[~self.mask] = -np.inf
        return scores.argmax(axis=-1)

    def sample_per_row(self, rngs) -> np.ndarray:
        """Draw one action per row, row ``i`` from ``rngs[i]``.

        Each row consumes exactly one ``gumbel(size=n_actions)`` draw
        from its own generator, so a rollout's action sequence depends
        only on its episode stream — never on which other episodes share
        the batch.  This is what makes lockstep batched collection
        reproducible at any batch width.
        """
        if len(rngs) != self.masked_logits.shape[0]:
            raise ValueError(
                f"need {self.masked_logits.shape[0]} generators, got {len(rngs)}"
            )
        n_actions = self.masked_logits.shape[-1]
        gumbel = np.stack([rng.gumbel(size=n_actions) for rng in rngs])
        scores = self.masked_logits.data + gumbel
        scores[~self.mask] = -np.inf
        return scores.argmax(axis=-1)

    def mode(self) -> np.ndarray:
        """Most probable feasible action per row."""
        scores = self.masked_logits.data.copy()
        scores[~self.mask] = -np.inf
        return scores.argmax(axis=-1)

    def log_prob(self, actions: np.ndarray) -> Tensor:
        """Log probability of the given actions (differentiable)."""
        actions = np.asarray(actions)
        if (~np.take_along_axis(
            self.mask, actions[:, None], axis=-1
        )).any():
            raise ValueError("log_prob of an infeasible action")
        return self.log_probs.gather(actions, axis=-1)

    def entropy(self) -> Tensor:
        """Shannon entropy per row (differentiable).

        Masked actions contribute 0 (their probability underflows to 0).
        """
        probs = self.log_probs.exp()
        # p * log p with masked entries suppressed via their ~0 probability.
        plogp = probs * self.log_probs
        return -plogp.sum(axis=-1)
