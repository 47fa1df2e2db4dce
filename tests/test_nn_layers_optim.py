"""Tests for layers, initializers, optimizers and distributions."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Conv2d,
    Flatten,
    Linear,
    MaskedCategorical,
    Module,
    ReLU,
    SGD,
    Sequential,
    Tanh,
    Tensor,
    clip_grad_norm,
    kaiming_uniform,
    load_state_dict,
    orthogonal,
    save_state_dict,
)


class TestInit:
    def test_orthogonal_is_orthogonal(self):
        rng = np.random.default_rng(0)
        w = orthogonal((6, 6), rng=rng)
        np.testing.assert_allclose(w @ w.T, np.eye(6), atol=1e-10)

    def test_orthogonal_gain(self):
        rng = np.random.default_rng(0)
        w = orthogonal((4, 4), gain=2.0, rng=rng)
        np.testing.assert_allclose(w @ w.T, 4.0 * np.eye(4), atol=1e-10)

    def test_orthogonal_conv_shape(self):
        w = orthogonal((8, 3, 3, 3), rng=np.random.default_rng(1))
        assert w.shape == (8, 3, 3, 3)

    def test_orthogonal_needs_2d(self):
        with pytest.raises(ValueError):
            orthogonal((5,))

    def test_kaiming_bounds(self):
        w = kaiming_uniform((100, 50), rng=np.random.default_rng(2))
        bound = np.sqrt(1.0 / 50)
        assert np.all(np.abs(w) <= bound)


class TestLayers:
    def test_linear_shapes(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((2, 4))))
        assert out.shape == (2, 3)

    def test_linear_trains_toward_target(self):
        rng = np.random.default_rng(0)
        layer = Linear(3, 1, rng=rng)
        optimizer = Adam(layer.parameters(), lr=0.05)
        x = rng.normal(size=(64, 3))
        true_w = np.array([[1.0], [-2.0], [0.5]])
        y = x @ true_w
        for _ in range(300):
            optimizer.zero_grad()
            pred = layer(Tensor(x))
            loss = ((pred - Tensor(y)) ** 2).mean()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(layer.weight.data, true_w, atol=0.05)

    def test_conv_layer_shapes(self):
        layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=np.random.default_rng(0))
        out = layer(Tensor(np.zeros((2, 3, 16, 16))))
        assert out.shape == (2, 8, 8, 8)

    def test_sequential_and_flatten(self):
        rng = np.random.default_rng(0)
        model = Sequential(
            Conv2d(1, 4, 3, padding=1, rng=rng),
            ReLU(),
            Flatten(),
            Linear(4 * 8 * 8, 10, rng=rng),
            Tanh(),
        )
        out = model(Tensor(np.zeros((2, 1, 8, 8))))
        assert out.shape == (2, 10)
        assert len(model) == 5
        assert isinstance(model[1], ReLU)

    def test_parameter_discovery(self):
        rng = np.random.default_rng(0)
        model = Sequential(Linear(2, 3, rng=rng), ReLU(), Linear(3, 1, rng=rng))
        assert len(model.parameters()) == 4  # two weights + two biases
        assert model.n_parameters() == 2 * 3 + 3 + 3 * 1 + 1

    def test_zero_grad(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((1, 2)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestStateDict:
    def _model(self):
        rng = np.random.default_rng(7)
        return Sequential(Linear(3, 4, rng=rng), ReLU(), Linear(4, 2, rng=rng))

    def test_roundtrip(self, tmp_path):
        model = self._model()
        state = model.state_dict()
        path = tmp_path / "ckpt.npz"
        save_state_dict(state, path)
        loaded = load_state_dict(path)

        model2 = self._model()
        model2.modules[0].weight.data[...] = 0.0  # perturb
        model2.load_state_dict(loaded)
        x = Tensor(np.ones((1, 3)))
        np.testing.assert_allclose(model(x).data, model2(x).data)

    def test_missing_key_raises(self):
        model = self._model()
        with pytest.raises(KeyError):
            model.load_state_dict({})

    def test_shape_mismatch_raises(self):
        model = self._model()
        state = model.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_custom_module_nesting(self):
        class Custom(Module):
            def __init__(self):
                rng = np.random.default_rng(0)
                self.encoder = Linear(2, 4, rng=rng)
                self.heads = [Linear(4, 1, rng=rng), Linear(4, 1, rng=rng)]

            def forward(self, x):
                h = self.encoder(x)
                return self.heads[0](h) + self.heads[1](h)

        module = Custom()
        assert len(module.parameters()) == 6
        state = module.state_dict()
        assert any(key.startswith("heads.0.") for key in state)
        module.load_state_dict(state)


class TestOptimizers:
    def _quadratic_params(self):
        return [Tensor(np.array([5.0, -3.0]), requires_grad=True)]

    def test_sgd_descends(self):
        params = self._quadratic_params()
        optimizer = SGD(params, lr=0.1)
        for _ in range(100):
            optimizer.zero_grad()
            loss = (params[0] ** 2).sum()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(params[0].data, [0.0, 0.0], atol=1e-4)

    def test_sgd_momentum_descends(self):
        params = self._quadratic_params()
        optimizer = SGD(params, lr=0.05, momentum=0.9)
        for _ in range(300):
            optimizer.zero_grad()
            (params[0] ** 2).sum().backward()
            optimizer.step()
        np.testing.assert_allclose(params[0].data, [0.0, 0.0], atol=1e-3)

    def test_adam_descends(self):
        params = self._quadratic_params()
        optimizer = Adam(params, lr=0.2)
        for _ in range(200):
            optimizer.zero_grad()
            (params[0] ** 2).sum().backward()
            optimizer.step()
        np.testing.assert_allclose(params[0].data, [0.0, 0.0], atol=1e-3)

    def test_adam_state_roundtrip(self):
        params = self._quadratic_params()
        optimizer = Adam(params, lr=0.1)
        optimizer.zero_grad()
        (params[0] ** 2).sum().backward()
        optimizer.step()
        state = optimizer.state_dict()
        optimizer2 = Adam(params, lr=0.1)
        optimizer2.load_state_dict(state)
        assert optimizer2._t == 1

    @pytest.mark.parametrize("block_elements", [Adam.BLOCK_ELEMENTS, 100])
    def test_adam_in_place_on_orthogonal_layout_bitwise(
        self, block_elements, monkeypatch
    ):
        """An orthogonal-init conv weight is a transposed, non-contiguous
        view; Adam must update that very array, and match the textbook
        expression bitwise (also when a weight spans several blocks)."""
        monkeypatch.setattr(Adam, "BLOCK_ELEMENTS", block_elements)
        rng = np.random.default_rng(7)
        conv = Conv2d(9, 4, 3, rng=rng)
        assert not conv.weight.data.flags["C_CONTIGUOUS"]
        params = conv.parameters()
        arrays = [p.data for p in params]
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        optimizer = Adam(params, lr=lr, betas=(b1, b2), eps=eps)
        ref_p = [a.copy() for a in arrays]
        ref_m = [np.zeros_like(a) for a in arrays]
        ref_v = [np.zeros_like(a) for a in arrays]
        for t in range(1, 6):
            for p in params:
                # Gradients come in the parameter's dtype (float32).
                p.grad = rng.normal(size=p.shape).astype(p.data.dtype)
            optimizer.step()
            bias1 = 1.0 - b1**t
            bias2 = 1.0 - b2**t
            for i, p in enumerate(params):
                ref_m[i] = b1 * ref_m[i] + (1.0 - b1) * p.grad
                ref_v[i] = b2 * ref_v[i] + (1.0 - b2) * (p.grad**2)
                ref_p[i] = ref_p[i] - lr * (ref_m[i] / bias1) / (
                    np.sqrt(ref_v[i] / bias2) + eps
                )
                assert p.data is arrays[i]
                assert np.array_equal(p.data, ref_p[i]), (t, i)

    def test_adam_scalar_parameter(self):
        p = Tensor(np.array(2.0), requires_grad=True)
        optimizer = Adam([p], lr=0.1)
        p.grad = np.array(1.0)
        optimizer.step()
        assert p.data == pytest.approx(1.9)

    def test_lr_validation(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.0)
        with pytest.raises(ValueError):
            SGD([], lr=-1.0)

    def test_clip_grad_norm(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 3.0)  # norm 6
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(6.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_clip_grad_norm_noop_below_limit(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 0.1)
        clip_grad_norm([p], max_norm=10.0)
        np.testing.assert_allclose(p.grad, 0.1)


class TestMaskedCategorical:
    def _dist(self, logits=None, mask=None):
        logits = Tensor(
            logits if logits is not None else np.zeros((2, 4)),
            requires_grad=True,
        )
        if mask is None:
            mask = np.ones((2, 4), dtype=bool)
        return MaskedCategorical(logits, mask)

    def test_masked_probability_zero(self):
        mask = np.array([[True, False, True, False]] * 2)
        dist = self._dist(mask=mask)
        probs = dist.probs
        assert probs[:, 1].max() < 1e-12
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_sample_respects_mask(self):
        mask = np.array([[False, True, False, False]] * 2)
        dist = self._dist(mask=mask)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert (dist.sample(rng) == 1).all()

    def test_all_masked_rejected(self):
        with pytest.raises(ValueError, match="feasible"):
            self._dist(mask=np.zeros((2, 4), dtype=bool))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MaskedCategorical(Tensor(np.zeros((2, 4))), np.ones((2, 5), bool))

    def test_log_prob_matches_probs(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(3, 5))
        mask = np.ones((3, 5), dtype=bool)
        dist = MaskedCategorical(Tensor(logits), mask)
        actions = np.array([0, 2, 4])
        lp = dist.log_prob(actions).data
        np.testing.assert_allclose(
            np.exp(lp), dist.probs[np.arange(3), actions]
        )

    def test_log_prob_infeasible_rejected(self):
        mask = np.array([[True, False]])
        dist = MaskedCategorical(Tensor(np.zeros((1, 2))), mask)
        with pytest.raises(ValueError):
            dist.log_prob(np.array([1]))

    def test_entropy_uniform_is_log_n(self):
        dist = self._dist()
        np.testing.assert_allclose(dist.entropy().data, np.log(4.0), rtol=1e-9)

    def test_entropy_reduced_by_masking(self):
        mask = np.array([[True, True, False, False]] * 2)
        dist = self._dist(mask=mask)
        np.testing.assert_allclose(dist.entropy().data, np.log(2.0), atol=1e-6)

    def test_mode_is_argmax(self):
        logits = np.array([[0.0, 5.0, 1.0, 2.0]])
        mask = np.array([[True, False, True, True]])
        dist = MaskedCategorical(Tensor(logits), mask)
        assert dist.mode()[0] == 3  # 5.0 is masked out

    def test_gradient_flows_through_log_prob(self):
        logits = Tensor(np.zeros((1, 3)), requires_grad=True)
        dist = MaskedCategorical(logits, np.ones((1, 3), bool))
        loss = -dist.log_prob(np.array([1])).sum()
        loss.backward()
        assert logits.grad is not None
        # Increasing the chosen logit decreases the loss.
        assert logits.grad[0, 1] < 0
