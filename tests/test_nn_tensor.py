"""Autograd correctness tests, including finite-difference gradient checks."""

import numpy as np
import pytest

from repro.nn import Tensor, no_grad
from repro.nn.tensor import _col2im


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        up = fn(x)
        flat[i] = orig - eps
        down = fn(x)
        flat[i] = orig
        grad_flat[i] = (up - down) / (2 * eps)
    return grad


def check_gradient(build, x0: np.ndarray, atol=1e-6, rtol=1e-5):
    """Compare autograd gradient to finite differences for scalar output."""
    t = Tensor(x0.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    auto = t.grad

    def scalar_fn(arr):
        return build(Tensor(arr)).item()

    numeric = numeric_grad(scalar_fn, x0.copy())
    np.testing.assert_allclose(auto, numeric, atol=atol, rtol=rtol)


class TestBasicOps:
    def test_add_backward(self):
        check_gradient(lambda t: (t + 3.0).sum(), np.array([1.0, -2.0, 0.5]))

    def test_mul_backward(self):
        check_gradient(lambda t: (t * t).sum(), np.array([1.0, -2.0, 0.5]))

    def test_div_backward(self):
        check_gradient(
            lambda t: (t / 2.5 + 1.0 / (t + 10.0)).sum(), np.array([1.0, 2.0])
        )

    def test_pow_backward(self):
        check_gradient(lambda t: (t**3).sum(), np.array([1.0, 2.0, -1.5]))

    def test_sub_neg(self):
        check_gradient(lambda t: (5.0 - t - t).sum(), np.array([2.0, 3.0]))

    def test_broadcast_gradient_sums(self):
        w = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        out = (w + b).sum()
        out.backward()
        assert b.grad.shape == (3,)
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_chain_rule_accumulation(self):
        """A tensor used twice accumulates both contributions."""
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 7
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_on_non_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(1)).backward()


class TestNonlinearities:
    def test_relu(self):
        check_gradient(lambda t: t.relu().sum(), np.array([1.0, -2.0, 0.5]))

    def test_exp_log(self):
        check_gradient(lambda t: (t.exp() + (t + 5.0).log()).sum(), np.array([0.1, 1.0]))

    def test_abs(self):
        check_gradient(lambda t: t.abs().sum(), np.array([1.5, -2.5]))

    def test_clip_gradient_zero_outside(self):
        x = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        x.clip(0.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_minimum_follows_smaller(self):
        a = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        b = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        a.minimum(b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])


class TestReductionsAndShapes:
    def test_sum_axis(self):
        check_gradient(
            lambda t: (t.sum(axis=0) * np.array([1.0, 2.0])).sum(),
            np.arange(6, dtype=np.float64).reshape(3, 2),
        )

    def test_mean(self):
        check_gradient(lambda t: t.mean(), np.arange(4, dtype=np.float64))

    def test_mean_axis_keepdims(self):
        x = Tensor(np.ones((2, 4)), requires_grad=True)
        out = x.mean(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 4), 0.25))

    def test_reshape_roundtrip(self):
        check_gradient(
            lambda t: (t.reshape(3, 2) ** 2).sum(),
            np.arange(6, dtype=np.float64).reshape(2, 3),
        )

    def test_transpose(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
        (x.transpose((1, 0)) * np.ones((3, 2))).sum().backward()
        assert x.grad.shape == (2, 3)


class TestMatmul:
    def test_matmul_values(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[5.0], [6.0]]))
        np.testing.assert_allclose((a @ b).data, [[17.0], [39.0]])

    def test_matmul_gradient(self):
        rng = np.random.default_rng(0)
        a0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=(4, 2))
        b = Tensor(b0)
        check_gradient(lambda t: (t @ b).sum(), a0)
        a = Tensor(a0)
        check_gradient(lambda t: (a @ t).sum(), b0)


class TestSoftmax:
    def test_log_softmax_normalizes(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0]]))
        lp = x.log_softmax()
        np.testing.assert_allclose(np.exp(lp.data).sum(), 1.0)

    def test_log_softmax_stable_for_huge_logits(self):
        x = Tensor(np.array([[1e9, 0.0, -1e9]]))
        lp = x.log_softmax()
        assert np.isfinite(lp.data).all()

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(1)
        x0 = rng.normal(size=(2, 5))
        weights = rng.normal(size=(2, 5))
        check_gradient(
            lambda t: (t.log_softmax(axis=-1) * weights).sum(), x0
        )

    def test_softmax_matches_exp_log_softmax(self):
        x = Tensor(np.array([[0.5, -0.5, 2.0]]))
        np.testing.assert_allclose(
            x.softmax().data, np.exp(x.log_softmax().data)
        )


class TestGather:
    def test_gather_values(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
        out = x.gather(np.array([2, 0]))
        np.testing.assert_allclose(out.data, [2.0, 3.0])

    def test_gather_gradient_scatter(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        x.gather(np.array([1, 2])).sum().backward()
        expected = np.array([[0, 1, 0], [0, 0, 1.0]])
        np.testing.assert_allclose(x.grad, expected)


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 5, 5)))
        w = Tensor(np.array([[[[1.0]]]]))
        out = x.conv2d(w)
        np.testing.assert_allclose(out.data, x.data)

    def test_output_shape(self):
        x = Tensor(np.zeros((2, 3, 8, 8)))
        w = Tensor(np.zeros((4, 3, 3, 3)))
        assert x.conv2d(w, padding=1).shape == (2, 4, 8, 8)
        assert x.conv2d(w).shape == (2, 4, 6, 6)
        assert x.conv2d(w, stride=2, padding=1).shape == (2, 4, 4, 4)

    def test_channel_mismatch(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((2, 5, 3, 3)))
        with pytest.raises(ValueError):
            x.conv2d(w)

    def test_matches_manual_convolution(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 1, 4, 4))
        w = rng.normal(size=(1, 1, 2, 2))
        out = Tensor(x).conv2d(Tensor(w)).data[0, 0]
        expected = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                expected[i, j] = (x[0, 0, i : i + 2, j : j + 2] * w[0, 0]).sum()
        np.testing.assert_allclose(out, expected)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_gradients_input_weight_bias(self, stride, padding):
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(2, 2, 5, 5))
        w0 = rng.normal(size=(3, 2, 3, 3))
        b0 = rng.normal(size=3)

        w_const = Tensor(w0)
        b_const = Tensor(b0)
        check_gradient(
            lambda t: t.conv2d(w_const, b_const, stride=stride, padding=padding).sum(),
            x0,
            atol=1e-5,
        )
        x_const = Tensor(x0)
        check_gradient(
            lambda t: x_const.conv2d(t, b_const, stride=stride, padding=padding).sum(),
            w0,
            atol=1e-5,
        )
        check_gradient(
            lambda t: x_const.conv2d(w_const, t, stride=stride, padding=padding).sum(),
            b0,
            atol=1e-5,
        )


    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_no_grad_input_gets_no_gradient(self, stride, padding):
        """A conv over an input that needs no gradient (the observation)
        returns no input gradient, and its weight and bias gradients are
        bitwise those of the same conv over a requires-grad input."""
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(3, 2, 7, 7))
        w0 = rng.normal(size=(4, 2, 3, 3))
        b0 = rng.normal(size=4)
        out_shape = Tensor(x0).conv2d(Tensor(w0), stride=stride, padding=padding).shape
        upstream = rng.normal(size=out_shape)
        grads = {}
        for input_grad in (False, True):
            x = Tensor(x0.copy(), requires_grad=input_grad)
            w = Tensor(w0.copy(), requires_grad=True)
            b = Tensor(b0.copy(), requires_grad=True)
            out = x.conv2d(w, b, stride=stride, padding=padding)
            parents = [parent for parent, _ in out._backward(upstream)]
            assert any(parent is x for parent in parents) == input_grad
            (out * Tensor(upstream)).sum().backward()
            assert (x.grad is not None) == input_grad
            grads[input_grad] = (w.grad, b.grad)
        for skipped, built in zip(grads[False], grads[True]):
            assert np.array_equal(skipped, built)


def _col2im_nc_order(cols, x_shape, kh, kw, stride, out_h, out_w):
    """The ``(N, C)``-ordered fold: a strided scatter per kernel tap."""
    n, c, h, w = x_shape
    grad = np.zeros(x_shape, dtype=cols.dtype)
    cols6 = cols.reshape(c, kh, kw, n, out_h, out_w)
    for i in range(kh):
        for j in range(kw):
            grad[
                :, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride
            ] += cols6[:, i, j].transpose(1, 0, 2, 3)
    return grad


class TestCol2im:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_bitwise_equals_nc_order_fold(self, stride, padding):
        rng = np.random.default_rng(5)
        n, c, h, w, k = 3, 4, 9, 8, 3
        x_shape = (n, c, h + 2 * padding, w + 2 * padding)
        out_h = (x_shape[2] - k) // stride + 1
        out_w = (x_shape[3] - k) // stride + 1
        cols = rng.normal(size=(c * k * k, n * out_h * out_w))
        folded = _col2im(cols, x_shape, k, k, stride, out_h, out_w)
        expected = _col2im_nc_order(cols, x_shape, k, k, stride, out_h, out_w)
        assert folded.shape == expected.shape
        assert np.array_equal(folded, expected)


class TestNoGrad:
    def test_no_graph_recorded(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2).sum()
        assert not y.requires_grad

    def test_nested_restores(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            y = x * 1.0
        z = (x * 2).sum()
        assert not y.requires_grad
        assert z.requires_grad
