"""Dtype contract: the policy network runs in float32, a float64 graph
stays float64, and float64 weights load by casting into float32."""

import numpy as np
import pytest

from repro.agent import RLPlannerTrainer, TrainerConfig
from repro.agent.trainer import TRAINER_CHECKPOINT_KIND
from repro.chiplet import Placement
from repro.env import BatchedFloorplanEnv, EnvConfig
from repro.nn import Tensor, dumps_payload, loads_payload
from repro.parallel.collector import POLICY_PAYLOAD_KIND
from repro.reward import RewardCalculator, RewardConfig
from repro.rl import PPOConfig, RNDConfig


@pytest.fixture
def env(small_system, small_fast_model):
    calc = RewardCalculator(
        small_fast_model, RewardConfig(lambda_wl=1e-4, use_bump_assignment=False)
    )
    return BatchedFloorplanEnv(small_system, calc, EnvConfig(grid_size=12))


def _trainer(env, **overrides):
    config = dict(
        epochs=1,
        episodes_per_epoch=4,
        batch_size=2,
        seed=0,
        log_every=0,
        encoder_channels=(4, 8, 8),
        use_rnd=True,
        rnd=RNDConfig(embed_dim=8, hidden_dim=16),
        ppo=PPOConfig(minibatch_size=8, update_epochs=1),
    )
    config.update(overrides)
    return RLPlannerTrainer(env, TrainerConfig(**config))


def _arrays(tree):
    """Every numpy array in a nested payload."""
    if isinstance(tree, np.ndarray):
        yield tree
    elif isinstance(tree, dict):
        for value in tree.values():
            yield from _arrays(value)
    elif isinstance(tree, (list, tuple)):
        for value in tree:
            yield from _arrays(value)


class TestFloat32Learner:
    def test_parameters_gradients_and_moments(self, env):
        trainer = _trainer(env)
        trainer.train()
        # The frozen RND target has no trainable parameters to list.
        target = [
            tensor
            for layer in trainer.rnd.target.net.modules
            if hasattr(layer, "weight")
            for tensor in (layer.weight, layer.bias)
        ]
        assert target and all(t.data.dtype == np.float32 for t in target)
        trained = trainer.network.parameters()
        for param in trained + trainer.rnd.predictor.parameters():
            assert param.data.dtype == np.float32
            assert param.grad is not None
            assert param.grad.dtype == np.float32
        for optimizer in (trainer.optimizer, trainer.rnd.optimizer):
            for moment in optimizer._m + optimizer._v:
                assert moment.dtype == np.float32
            assert set(optimizer._scratch) == {np.dtype(np.float32)}

    def test_observations(self, env):
        observations, _ = env.reset(2)
        assert observations.dtype == np.float32
        builder = env.observation_builder
        placement = Placement(env.system)
        placement.place("hot", 0, 0)
        assert builder.build(placement, "warm").dtype == np.float32
        trainer = _trainer(env)
        for episode, _ in trainer.collect_episodes(2):
            for obs in episode.observations:
                assert obs.dtype == np.float32

    def test_policy_payload_and_checkpoint_arrays(self, env):
        trainer = _trainer(env)
        trainer.train()
        policy = loads_payload(trainer._policy_payload(), POLICY_PAYLOAD_KIND)
        assert policy and all(a.dtype == np.float32 for a in policy.values())
        state = loads_payload(
            dumps_payload(trainer.state_dict(), TRAINER_CHECKPOINT_KIND),
            TRAINER_CHECKPOINT_KIND,
        )
        learner = [state["network"], state["optimizer"], state["rnd"]["predictor"]]
        learner.append(state["rnd"]["optimizer"])
        assert all(a.dtype == np.float32 for a in _arrays(learner))
        # Running statistics stay float64.
        assert state["rnd"]["obs_stats"]["mean"].dtype == np.float64


class TestFloat64Loads:
    def test_float64_state_casts_into_float32_parameters(self, env):
        trainer = _trainer(env, use_rnd=False)
        rng = np.random.default_rng(3)
        state = trainer.state_dict()
        wide = {
            name: rng.normal(size=value.shape)
            for name, value in state["network"].items()
        }
        state["network"] = wide
        state["optimizer"]["m"] = [
            rng.normal(size=m.shape) for m in state["optimizer"]["m"]
        ]
        layout = [p.data for p in trainer.network.parameters()]
        strides = [a.strides for a in layout]
        trainer.load_state_dict(state)
        loaded = trainer.network.state_dict()
        for name, value in wide.items():
            assert loaded[name].dtype == np.float32
            assert np.array_equal(loaded[name], value.astype(np.float32))
        # Loaded in place: the same arrays, in the orthogonal layout.
        for param, array, stride in zip(
            trainer.network.parameters(), layout, strides
        ):
            assert param.data is array
            assert param.data.strides == stride
        for m, source in zip(trainer.optimizer._m, state["optimizer"]["m"]):
            assert m.dtype == np.float32
            assert np.array_equal(m, source.astype(np.float32))


def _graph(op, dtype):
    rng = np.random.default_rng(0)
    a, b = (
        Tensor(rng.uniform(0.5, 1.5, size=(2, 3)).astype(dtype), requires_grad=True)
        for _ in range(2)
    )
    return (a, b), op(a, b)


OPS = {
    "add": lambda a, b: a + b + 1.5,
    "radd": lambda a, b: 1.5 + a,
    "neg": lambda a, b: -a,
    "sub": lambda a, b: a - b - 0.5,
    "rsub": lambda a, b: 0.5 - a,
    "mul": lambda a, b: a * b * 2.0,
    "rmul": lambda a, b: 2.0 * a,
    "div": lambda a, b: a / b / 3.0,
    "rdiv": lambda a, b: 3.0 / a,
    "pow": lambda a, b: a**2.5,
    "relu": lambda a, b: (a - 1.0).relu(),
    "exp": lambda a, b: a.exp(),
    "log": lambda a, b: a.log(),
    "clip": lambda a, b: a.clip(0.8, 1.2),
    "minimum": lambda a, b: a.minimum(b),
    "abs": lambda a, b: (a - 1.0).abs(),
    "sum": lambda a, b: a.sum(axis=0),
    "mean": lambda a, b: a.mean(axis=1),
    "reshape": lambda a, b: a.reshape(3, 2),
    "flatten": lambda a, b: a.flatten_batch(),
    "transpose": lambda a, b: a.transpose(),
    "matmul": lambda a, b: a @ b.transpose(),
    "matmul_raw": lambda a, b: a @ np.ones((3, 2)),
    "log_softmax": lambda a, b: a.log_softmax(axis=-1),
    "softmax": lambda a, b: a.softmax(axis=-1),
    "gather": lambda a, b: a.gather(np.array([0, 2]), axis=-1),
    "conv2d": lambda a, b: a.reshape(1, 1, 2, 3).conv2d(
        b.reshape(2, 1, 1, 3), b.sum(axis=1), padding=1
    ),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", sorted(OPS))
def test_graph_keeps_its_dtype(name, dtype):
    """Python scalars and raw arrays take the tensor's dtype, so a
    float64 graph stays float64 (and a float32 one float32) through
    the op and its backward pass."""
    leaves, out = _graph(OPS[name], dtype)
    assert out.data.dtype == dtype
    out.sum().backward()
    for leaf in leaves:
        assert leaf.grad is None or leaf.grad.dtype == dtype
    assert leaves[0].grad is not None


def test_float32_leaf_accumulates_in_float32():
    """A float64 operand promotes the graph; the float32 leaf's
    gradient still accumulates in float32."""
    weight = Tensor(np.ones((3, 2), np.float32), requires_grad=True)
    x = Tensor(np.ones((2, 3)))
    (x @ weight).sum().backward()
    assert weight.grad.dtype == np.float32
    (x @ weight).sum().backward()
    assert weight.grad.dtype == np.float32
    assert np.array_equal(weight.grad, np.full((3, 2), 4.0, np.float32))
