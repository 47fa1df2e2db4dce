"""Proximal policy optimization (Schulman et al., 2017).

Clipped surrogate objective with value-function clipping, entropy bonus
and global gradient-norm clipping — the configuration the paper cites.
The policy/value network is supplied by the caller and must implement
``evaluate(observations, masks) -> (MaskedCategorical, values)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import Tensor, clip_grad_norm
from repro.rl.buffer import RolloutBatch

__all__ = ["PPOConfig", "PPOUpdater"]


@dataclass(frozen=True)
class PPOConfig:
    """PPO hyperparameters (standard values)."""

    clip_ratio: float = 0.2
    update_epochs: int = 4
    minibatch_size: int = 64
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    max_grad_norm: float = 0.5
    value_clip: float = 0.2
    target_kl: float | None = 0.03

    def __post_init__(self) -> None:
        if self.clip_ratio <= 0:
            raise ValueError("clip_ratio must be positive")
        if self.update_epochs < 1 or self.minibatch_size < 1:
            raise ValueError("update_epochs and minibatch_size must be >= 1")


class PPOUpdater:
    """Runs PPO updates on a shared actor-critic network.

    Parameters
    ----------
    network:
        Module with ``evaluate(obs, masks)``.
    optimizer:
        Optimizer over the network's parameters.
    config:
        Hyperparameters.
    """

    def __init__(self, network, optimizer, config: PPOConfig | None = None):
        self.network = network
        self.optimizer = optimizer
        self.config = config or PPOConfig()

    def update(self, batch: RolloutBatch, rng: np.random.Generator) -> dict:
        """Run the configured epochs of minibatch updates.

        Returns averaged diagnostics: losses, entropy, approximate KL and
        the fraction of clipped ratios.
        """
        cfg = self.config
        stats = {
            "policy_loss": 0.0,
            "value_loss": 0.0,
            "entropy": 0.0,
            "approx_kl": 0.0,
            "clip_fraction": 0.0,
            "grad_norm": 0.0,
        }
        n_updates = 0
        early_stop = False
        for _ in range(cfg.update_epochs):
            if early_stop:
                break
            for mini in batch.minibatches(cfg.minibatch_size, rng):
                step_stats = self._update_minibatch(mini)
                for key in stats:
                    stats[key] += step_stats[key]
                n_updates += 1
                if (
                    cfg.target_kl is not None
                    and step_stats["approx_kl"] > 1.5 * cfg.target_kl
                ):
                    early_stop = True
                    break
        if n_updates:
            for key in stats:
                stats[key] /= n_updates
        stats["n_updates"] = n_updates
        stats["early_stopped"] = early_stop
        return stats

    def _update_minibatch(self, mini: RolloutBatch) -> dict:
        cfg = self.config
        dist, values = self.network.evaluate(mini.observations, mini.masks)
        # The float64 batch enters the graph in the network's dtype.
        dtype = values.data.dtype
        old_log_probs = Tensor(mini.old_log_probs.astype(dtype))
        advantages = Tensor(mini.advantages.astype(dtype))
        returns = Tensor(mini.returns.astype(dtype))
        old_values = Tensor(mini.old_values.astype(dtype))
        log_probs = dist.log_prob(mini.actions)
        ratio = (log_probs - old_log_probs).exp()

        # Clipped surrogate.
        unclipped = ratio * advantages
        clipped = ratio.clip(1.0 - cfg.clip_ratio, 1.0 + cfg.clip_ratio) * advantages
        policy_loss = -(unclipped.minimum(clipped)).mean()

        # Clipped value loss (PPO2 style).
        value_error = (values - returns) ** 2
        clipped_values = old_values + (values - old_values).clip(
            -cfg.value_clip, cfg.value_clip
        )
        clipped_error = (clipped_values - returns) ** 2
        # Maximum of the two errors = -minimum of their negatives.
        value_loss = (-((-value_error).minimum(-clipped_error))).mean()

        entropy = dist.entropy().mean()
        loss = (
            policy_loss
            + cfg.value_coef * value_loss
            - cfg.entropy_coef * entropy
        )

        self.optimizer.zero_grad()
        loss.backward()
        grad_norm = clip_grad_norm(self.network.parameters(), cfg.max_grad_norm)
        self.optimizer.step()

        ratio_np = ratio.data
        approx_kl = float(np.mean(mini.old_log_probs - log_probs.data))
        clip_fraction = float(
            np.mean(np.abs(ratio_np - 1.0) > cfg.clip_ratio)
        )
        return {
            "policy_loss": float(policy_loss.item()),
            "value_loss": float(value_loss.item()),
            "entropy": float(entropy.item()),
            "approx_kl": approx_kl,
            "clip_fraction": clip_fraction,
            "grad_norm": grad_norm,
        }
