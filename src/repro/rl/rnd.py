"""Random network distillation (Burda et al., 2018).

A fixed randomly initialized *target* network embeds observations; a
*predictor* network is trained to match it on visited states.  The
prediction error is high on novel states, so it serves as an intrinsic
exploration bonus.  Inputs and bonuses are normalized with running
statistics exactly as in the original recipe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn import PARAM_DTYPE, Adam, Linear, Module, ReLU, Sequential
from repro.nn import Tensor, no_grad
from repro.rl.running_stats import RunningMeanStd

__all__ = ["RNDConfig", "RandomNetworkDistillation"]


@dataclass(frozen=True)
class RNDConfig:
    """RND hyperparameters."""

    embed_dim: int = 64
    hidden_dim: int = 256
    learning_rate: float = 1e-4
    bonus_scale: float = 1.0
    obs_clip: float = 5.0

    def __post_init__(self) -> None:
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise ValueError("network dims must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


class _MLP(Module):
    def __init__(self, in_dim, hidden, out_dim, depth, rng):
        layers = [Linear(in_dim, hidden, rng=rng), ReLU()]
        for _ in range(depth - 1):
            layers += [Linear(hidden, hidden, rng=rng), ReLU()]
        layers.append(Linear(hidden, out_dim, gain=1.0, rng=rng))
        self.net = Sequential(*layers)

    def forward(self, x):
        return self.net(x)


class RandomNetworkDistillation:
    """Intrinsic-reward module over flattened observations.

    Parameters
    ----------
    obs_dim:
        Flattened observation size.
    config:
        Hyperparameters.
    rng:
        Source of the (frozen) target weights and predictor init.
    """

    def __init__(
        self,
        obs_dim: int,
        config: RNDConfig | None = None,
        rng: np.random.Generator = None,
    ):
        self.config = config or RNDConfig()
        rng = rng or np.random.default_rng()
        cfg = self.config
        # Target is deeper than the predictor per the original paper's
        # observation that an over-parameterized predictor cheats.
        self.target = _MLP(obs_dim, cfg.hidden_dim, cfg.embed_dim, depth=2, rng=rng)
        self.predictor = _MLP(obs_dim, cfg.hidden_dim, cfg.embed_dim, depth=1, rng=rng)
        for param in self.target.parameters():
            param.requires_grad = False
        self.optimizer = Adam(self.predictor.parameters(), lr=cfg.learning_rate)
        self.obs_stats = RunningMeanStd(shape=(obs_dim,))
        self.bonus_stats = RunningMeanStd(shape=())
        self.obs_dim = obs_dim

    # ------------------------------------------------------------------

    def _prepare(self, observations: np.ndarray, update_stats: bool) -> np.ndarray:
        flat = np.asarray(observations, dtype=np.float64).reshape(
            len(observations), -1
        )
        if flat.shape[1] != self.obs_dim:
            raise ValueError(
                f"observation dim {flat.shape[1]} != expected {self.obs_dim}"
            )
        if update_stats:
            self.obs_stats.update(flat)
        normalized = self.obs_stats.normalize(flat)
        clip = self.config.obs_clip  # statistics stay float64
        return np.clip(normalized, -clip, clip).astype(PARAM_DTYPE)

    def raw_bonus(self, observations: np.ndarray, update_stats: bool = True) -> np.ndarray:
        """Unnormalized prediction error per observation."""
        prepared = self._prepare(observations, update_stats)
        with no_grad():
            target_embed = self.target(Tensor(prepared)).data
            predicted = self.predictor(Tensor(prepared)).data
        return ((predicted - target_embed) ** 2).mean(axis=1)

    def intrinsic_reward(
        self, observations: np.ndarray, update_stats: bool = True
    ) -> np.ndarray:
        """Normalized intrinsic bonus for a batch of observations."""
        bonus = self.raw_bonus(observations, update_stats)
        if update_stats:
            self.bonus_stats.update(bonus)
        normalized = self.bonus_stats.normalize(bonus, center=False)
        return self.config.bonus_scale * normalized

    def update(self, observations: np.ndarray) -> float:
        """One predictor training step on visited observations."""
        prepared = self._prepare(observations, update_stats=False)
        target_embed = Tensor(
            self.target(Tensor(prepared)).data
        )  # constant target
        predicted = self.predictor(Tensor(prepared))
        loss = ((predicted - target_embed) ** 2).mean()
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()
        return float(loss.item())
