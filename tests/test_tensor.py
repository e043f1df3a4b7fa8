"""Tensor op semantics and gradient correctness against finite differences."""

import numpy as np
import pytest

from confadapt import tensor as T
from confadapt.tensor import ShapeError, Tensor, backward, no_grad

from util_grad import check_grads

rng = np.random.default_rng(20240517)


class TestForwardValues:
    def test_softmax_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_softmax_normalized_nonneg(self):
        x = Tensor(rng.normal(size=(4, 7)) * 5)
        out = T.softmax(x, axis=-1)
        assert (out.data >= 0).all()
        np.testing.assert_allclose(out.data.sum(-1), 1.0, atol=1e-12)

    def test_depthwise_conv_averaging_identity(self):
        # kernel summing to 1 on a constant signal reproduces the constant
        # at interior positions
        x = Tensor(np.full((1, 9, 3), 2.5))
        k = Tensor(np.full((3, 3), 1 / 3))
        out = T.depthwise_conv1d(x, k)
        np.testing.assert_allclose(out.data[0, 1:-1, :], 2.5, atol=1e-12)

    def test_matmul_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = a @ Tensor(np.eye(2))
        np.testing.assert_allclose(out.data, [[1, 2], [3, 4]])

    def test_glu_halves(self):
        x = np.array([[1.0, -2.0, 0.5, 3.0]])
        out = T.glu(Tensor(x))
        expect = x[:, :2] * (1 / (1 + np.exp(-x[:, 2:])))
        np.testing.assert_allclose(out.data, expect)

    def test_logsumexp_matches_numpy(self):
        x = rng.normal(size=(3, 5)) * 10
        out = T.logsumexp(Tensor(x), axis=-1)
        expect = np.log(np.exp(x - x.max(-1, keepdims=True)).sum(-1)) + x.max(-1)
        np.testing.assert_allclose(out.data, expect, atol=1e-12)

    def test_embedding_rows(self):
        table = Tensor(rng.normal(size=(5, 3)))
        ids = np.array([[0, 4], [2, 2]])
        out = T.embedding(table, ids)
        np.testing.assert_allclose(out.data, table.data[ids])

    def test_masked_fill(self):
        x = Tensor(np.ones((2, 3)))
        mask = np.array([[True, False, False], [False, False, True]])
        out = T.masked_fill(x, mask, -9.0)
        assert out.data[0, 0] == -9.0 and out.data[1, 2] == -9.0
        assert out.data[0, 1] == 1.0

    def test_bias_broadcast_is_leading_only(self):
        x = Tensor(np.zeros((2, 4, 3)))
        b = Tensor(np.arange(3.0))
        out = x + b
        np.testing.assert_allclose(out.data[1, 2], [0, 1, 2])
        with pytest.raises(ShapeError, match="add"):
            _ = Tensor(np.zeros((3, 2))) + Tensor(np.zeros((3,)))


class TestErrors:
    def test_matmul_shape_error_names_op_and_shapes(self):
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(4, 5\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            T.depthwise_conv1d(Tensor(np.zeros((1, 4, 2))), Tensor(np.zeros((4, 2))))

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(x * 2.0)

    def test_second_backward_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = (x * x).sum()
        backward(loss)
        with pytest.raises(RuntimeError, match="consumed"):
            backward(loss)

    def test_backward_off_tape_raises(self):
        with pytest.raises(RuntimeError, match="tape"):
            backward(Tensor(1.0))


class TestBackwardBasics:
    def test_square_gradient(self):
        x = Tensor([3.0], requires_grad=True)
        backward((x * x).sum())
        np.testing.assert_allclose(x.grad, [6.0])

    def test_disconnected_leaf_zero_grad(self):
        x = Tensor([2.0], requires_grad=True)
        y = Tensor([5.0], requires_grad=True)
        backward((x * 3.0).sum())
        np.testing.assert_allclose(y.grad, [0.0])
        np.testing.assert_allclose(x.grad, [3.0])

    def test_op_results_allocate_grad_on_first_use(self):
        x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        y = x.transpose(1, 0)
        z = y * 2.0
        assert x.grad.shape == (3, 2) and (x.grad == 0).all()
        assert y.grad is None and z.grad is None
        backward(z.sum())
        np.testing.assert_allclose(x.grad, np.full((3, 2), 2.0))
        # the buffer follows the layout of the op result, not of the incoming grad
        assert y.grad.strides == y.data.strides

    def test_slice_backward_scatters_only_into_region(self):
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        backward((x[1:3, 2:] * 2.0).sum())
        expect = np.zeros((4, 5))
        expect[1:3, 2:] = 2.0
        np.testing.assert_allclose(x.grad, expect)

    def test_strided_slice_backward(self):
        x = Tensor(rng.normal(size=(1, 8, 2)), requires_grad=True)
        backward(x[:, ::2, :].sum())
        expect = np.zeros((1, 8, 2))
        expect[:, ::2, :] = 1.0
        np.testing.assert_allclose(x.grad, expect)

    def test_reused_tensor_accumulates(self):
        x = Tensor([1.5], requires_grad=True)
        y = x * x * x  # d/dx x^3 = 3 x^2
        backward(y.sum())
        np.testing.assert_allclose(x.grad, [3 * 1.5**2])

    def test_no_grad_suppresses_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._backward is None


def _rand(*shape):
    return rng.uniform(-2.0, 2.0, size=shape)


class TestGradChecks:
    """Every forward op against the central-difference oracle."""

    def test_add(self):
        check_grads(lambda a, b: (T.add(a, b) * T.add(a, b)).sum(), [_rand(3, 4), _rand(3, 4)])

    def test_add_broadcast_bias(self):
        check_grads(lambda a, b: ((a + b) * (a + b)).sum(), [_rand(2, 3, 4), _rand(4)])

    def test_sub(self):
        check_grads(lambda a, b: ((a - b) * (a - b)).sum(), [_rand(5), _rand(5)])

    def test_mul(self):
        check_grads(lambda a, b: (a * b).sum(), [_rand(3, 4), _rand(4)])

    def test_matmul_2d(self):
        check_grads(lambda a, b: (a @ b).sum(), [_rand(3, 4), _rand(4, 2)])

    def test_matmul_batched_times_matrix(self):
        check_grads(lambda a, b: ((a @ b) * (a @ b)).sum(), [_rand(2, 3, 4), _rand(4, 2)])

    def test_matmul_batched_both(self):
        check_grads(lambda a, b: (a @ b).sum(), [_rand(2, 2, 3, 4), _rand(2, 2, 4, 2)])

    def test_slice(self):
        check_grads(lambda x: (x[1:, ::2] * x[1:, ::2]).sum(), [_rand(3, 6)])

    def test_concat(self):
        check_grads(
            lambda a, b: (T.concat([a, b], axis=1) * T.concat([a, b], axis=1)).sum(),
            [_rand(2, 3), _rand(2, 2)],
        )

    def test_transpose(self):
        check_grads(lambda x: (x.transpose(1, 0, 2) * 3.0).sum(), [_rand(2, 3, 4)])

    def test_reshape(self):
        w = Tensor(_rand(2, 3))
        check_grads(lambda x: (x.reshape(6, 2) @ w).sum(), [_rand(3, 4)])

    def test_softmax(self):
        w = Tensor(_rand(3, 5))
        check_grads(lambda x: (T.softmax(x, axis=-1) * w).sum(), [_rand(3, 5)])

    def test_log_softmax(self):
        w = Tensor(_rand(3, 5))
        check_grads(lambda x: (T.log_softmax(x, axis=-1) * w).sum(), [_rand(3, 5)])

    def test_logsumexp(self):
        check_grads(lambda x: T.logsumexp(x, axis=-1).sum(), [_rand(4, 3)])

    def test_layer_norm(self):
        w = Tensor(_rand(3, 6))
        check_grads(
            lambda x, g, b: (T.layer_norm(x, g, b) * w).sum(),
            [_rand(3, 6), _rand(6), _rand(6)],
        )

    def test_swish(self):
        check_grads(lambda x: T.swish(x).sum(), [_rand(3, 4)])

    def test_sigmoid(self):
        check_grads(lambda x: (T.sigmoid(x) * T.sigmoid(x)).sum(), [_rand(3, 4)])

    def test_glu(self):
        check_grads(lambda x: (T.glu(x) * T.glu(x)).sum(), [_rand(2, 3, 6)])

    def test_depthwise_conv1d(self):
        check_grads(
            lambda x, k, b: (T.depthwise_conv1d(x, k, b) * T.depthwise_conv1d(x, k, b)).sum(),
            [_rand(2, 7, 3), _rand(5, 3), _rand(3)],
        )

    def test_embedding(self):
        ids = np.array([0, 2, 2, 1])
        check_grads(lambda t: (T.embedding(t, ids) * T.embedding(t, ids)).sum(), [_rand(4, 3)])

    def test_masked_fill(self):
        mask = rng.random((3, 4)) < 0.4
        check_grads(lambda x: (T.masked_fill(x, mask, 5.0) * 2.0).sum(), [_rand(3, 4)])

    def test_mean(self):
        check_grads(lambda x: (x.mean(axis=1) * x.mean(axis=1)).sum(), [_rand(3, 4)])

    def test_sum_axis(self):
        check_grads(lambda x: (x.sum(axis=0) * x.sum(axis=0)).sum(), [_rand(3, 4)])
