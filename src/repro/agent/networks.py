"""The actor-critic network (paper Section II-B).

"The policy network and the value network share the same feature
encoding CNN layers and two separate fully connected layers are used to
get the probability matrix and expected reward."

Encoder: three 3x3 conv layers (stride 1, 2, 2) over the observation
image.  Heads: one fully connected layer each — policy logits over the
action grid (masked categorical) and a scalar value.
"""

from __future__ import annotations

import numpy as np

from repro.nn import (
    Conv2d,
    Flatten,
    Linear,
    MaskedCategorical,
    Module,
    PARAM_DTYPE,
    ReLU,
    Sequential,
    Tensor,
    no_grad,
)

__all__ = ["ActorCritic"]


class ActorCritic(Module):
    """Shared CNN encoder with policy and value heads.

    Parameters
    ----------
    obs_shape:
        (channels, rows, cols) of the observation image.
    n_actions:
        Size of the flat action space (one action per grid cell).
    channels:
        Conv widths of the three encoder layers.
    rng:
        Weight-init random source.
    init:
        ``"orthogonal"`` (training from scratch) or ``"zeros"`` (no
        random draw; see :meth:`from_state_dict`).
    """

    def __init__(
        self,
        obs_shape: tuple,
        n_actions: int,
        channels: tuple = (16, 32, 32),
        rng: np.random.Generator = None,
        init: str = "orthogonal",
    ):
        rng = rng or np.random.default_rng()
        c, rows, cols = obs_shape
        c1, c2, c3 = channels
        self.encoder = Sequential(
            Conv2d(c, c1, 3, stride=1, padding=1, rng=rng, init=init),
            ReLU(),
            Conv2d(c1, c2, 3, stride=2, padding=1, rng=rng, init=init),
            ReLU(),
            Conv2d(c2, c3, 3, stride=2, padding=1, rng=rng, init=init),
            ReLU(),
            Flatten(),
        )
        feat_rows = (rows + 1) // 2
        feat_rows = (feat_rows + 1) // 2
        feat_cols = (cols + 1) // 2
        feat_cols = (feat_cols + 1) // 2
        feature_dim = c3 * feat_rows * feat_cols
        # Small-gain policy head -> near-uniform initial policy.
        self.policy_head = Linear(
            feature_dim, n_actions, gain=0.01, init=init, rng=rng
        )
        self.value_head = Linear(feature_dim, 1, gain=1.0, init=init, rng=rng)
        self.obs_shape = tuple(obs_shape)
        self.n_actions = n_actions

    @classmethod
    def from_state_dict(
        cls,
        state: dict,
        obs_shape: tuple,
        n_actions: int,
        channels: tuple,
    ) -> "ActorCritic":
        """A network holding ``state``, built without a random init.

        For replicas of a trained policy (collection workers, the serve
        registry): the orthogonal init's QR factorizations would only
        be overwritten.  The strict :meth:`load_state_dict` still
        rejects a missing parameter or a shape mismatch.
        """
        network = cls(obs_shape, n_actions, channels, init="zeros")
        network.load_state_dict(state)
        return network

    # ------------------------------------------------------------------

    def evaluate(self, observations: np.ndarray, masks: np.ndarray):
        """Differentiable forward pass for PPO updates.

        Returns (MaskedCategorical, values tensor of shape (N,)).
        """
        obs = Tensor(np.asarray(observations, dtype=PARAM_DTYPE))
        features = self.encoder(obs)
        logits = self.policy_head(features)
        values = self.value_head(features).reshape(-1)
        dist = MaskedCategorical(logits, np.asarray(masks, dtype=bool))
        return dist, values

    def act_batch(
        self,
        observations: np.ndarray,
        masks: np.ndarray,
        rngs,
        greedy: bool = False,
        static_channels=None,
        shared_rows: bool = False,
        head_rows: int = 2,
    ) -> tuple:
        """Rollout action selection for a whole lockstep batch.

        One forward pass serves every row; row ``i`` samples from
        ``rngs[i]`` so trajectories depend only on their own episode
        stream (see :meth:`MaskedCategorical.sample_per_row`).

        ``static_channels`` names observation channels the caller
        guarantees are identical for every row (lockstep batches share
        their constant channels); their first-conv contribution is then
        computed once per call instead of once per row.  ``shared_rows``
        asserts that *entire rows* are identical (true right after a
        lockstep reset): the forward runs on one row and broadcasts.
        Both guarantees must be structural, not data-dependent, and used
        consistently across calls — that is what keeps batched
        trajectories identical at every batch width.

        The conv layers run per-row shape-stable GEMMs for this and the
        value head one dot product per row (a batched GEMV rounds by row
        count).  The policy head runs products of exactly ``head_rows``
        rows (zero-padded): the BLAS picks its kernel, and so its
        rounding, by row count (GEMV for one row, small and large GEMM
        kernels above).  A row's logits are thus the same at any wave
        width or live count if a run keeps ``head_rows`` fixed
        (collection passes the batch width); the shared first-step row
        is a 1-row product at every width, as tests pin.

        Returns (actions, log_probs, values) as 1D numpy arrays.
        """
        with no_grad():
            obs = np.asarray(observations, dtype=PARAM_DTYPE)
            masks = np.asarray(masks, dtype=bool)
            n = obs.shape[0]
            rows = obs[:1] if shared_rows else obs
            features = self._encode_rollout(rows, static_channels)
            weight = self.value_head.weight.data[:, 0]
            values_data = np.array(
                [row @ weight for row in features.data], dtype=PARAM_DTYPE
            ) + self.value_head.bias.data
            if shared_rows:
                logits = self.policy_head(features).data
                values_data = np.broadcast_to(values_data, (n,))
                logits = Tensor(np.broadcast_to(logits, (n, logits.shape[1])))
            else:
                logits = self._policy_logits(features.data, head_rows)
            dist = MaskedCategorical(logits, masks)
            if greedy:
                actions = dist.mode()
            else:
                actions = dist.sample_per_row(rngs)
            log_probs = dist.log_prob(actions).data
        return (
            actions.astype(np.int64),
            np.array(log_probs, dtype=np.float64),
            np.array(values_data, dtype=np.float64),
        )

    def _policy_logits(self, features: np.ndarray, head_rows: int) -> Tensor:
        """Policy-head logits from products of exactly ``head_rows`` rows."""
        n, width = features.shape
        blocks = -(-n // head_rows)
        padded = np.zeros((blocks * head_rows, width), features.dtype)
        padded[:n] = features
        logits = [
            self.policy_head(Tensor(block)).data
            for block in np.split(padded, blocks)
        ]
        return Tensor(np.concatenate(logits)[:n])

    def _encode_rollout(self, obs: np.ndarray, static_channels) -> Tensor:
        """Encoder forward with the optional static-channel split."""
        if not static_channels:
            return self.encoder(Tensor(obs))
        static = sorted(static_channels)
        dynamic = [c for c in range(obs.shape[1]) if c not in static]
        conv0 = self.encoder[0]
        weight = conv0.weight.data
        out_dynamic = Tensor(obs[:, dynamic]).conv2d(
            Tensor(weight[:, dynamic]),
            None,
            stride=conv0.stride,
            padding=conv0.padding,
        )
        # Shared contribution (and the bias) from one representative row.
        out_static = Tensor(obs[:1, static]).conv2d(
            Tensor(weight[:, static]),
            conv0.bias,
            stride=conv0.stride,
            padding=conv0.padding,
        )
        x = (out_dynamic + out_static).relu()
        for module in self.encoder.modules[2:]:
            x = module(x)
        return x
