"""Tensor op semantics and gradient correctness against finite differences."""

import inspect
import tracemalloc

import numpy as np
import pytest

from confadapt import tensor as T
from confadapt.losses import ctc_loss
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
        out = T.depthwise_conv1d(x, k, np.zeros(3))
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

    def test_repr_names_shape_and_flag(self):
        assert repr(Tensor(np.zeros((2, 3)), requires_grad=True)) == (
            "Tensor(shape=(2, 3), requires_grad=True)")

    def test_bias_broadcast_is_leading_only(self):
        x = Tensor(np.zeros((2, 4, 3)))
        b = Tensor(np.arange(3.0))
        out = x + b
        np.testing.assert_allclose(out.data[1, 2], [0, 1, 2])
        with pytest.raises(ShapeError, match="add"):
            _ = Tensor(np.zeros((3, 2))) + Tensor(np.zeros((3,)))


def _zeros(*shape):
    return Tensor(np.zeros(shape))


# each op's refusal of an input it cannot take: (call, error, message)
REFUSED = {
    "item of a non-scalar": (lambda: _zeros(2).item(), ValueError, "item"),
    "tensor/tensor division": (lambda: _zeros(2) / _zeros(2), TypeError, "division"),
    "backward of a non-Tensor": (lambda: backward(1.0), TypeError, "expects a Tensor"),
    "advanced slice key": (lambda: _zeros(3)[[0, 1]], TypeError, "basic indexing"),
    "transpose axes": (lambda: T.transpose(_zeros(2, 3), (0, 0)), ShapeError, "transpose"),
    "empty concat": (lambda: T.concat([]), ValueError, "at least one"),
    "mismatched concat": (lambda: T.concat([_zeros(2, 3), _zeros(2, 4)]), ShapeError,
                          "concat"),
    "odd glu": (lambda: T.glu(_zeros(2, 3)), ShapeError, "odd extent"),
    "layer_norm gain": (lambda: T.layer_norm(_zeros(2, 4), _zeros(3), _zeros(4)), ShapeError,
                        "layer_norm"),
    "conv rank": (lambda: T.depthwise_conv1d(_zeros(4, 2), _zeros(3, 2), _zeros(2)),
                  ShapeError, r"input \(B,T,C\)"),
    "conv width": (lambda: T.depthwise_conv1d(_zeros(1, 4, 2), _zeros(3, 5), _zeros(5)),
                   ShapeError, "do not conform"),
    "conv bias": (lambda: T.depthwise_conv1d(_zeros(1, 4, 2), _zeros(3, 2), _zeros(3)),
                  ShapeError, "bias shape"),
    "embedding table rank": (lambda: T.embedding(_zeros(3), np.array([0])), ShapeError,
                             "2-D"),
    "embedding id dtype": (lambda: T.embedding(_zeros(3, 2), np.array([0.0])), TypeError,
                           "integers"),
    "embedding id range": (lambda: T.embedding(_zeros(3, 2), np.array([3])), ValueError,
                           "out of range"),
    "linear shapes": (lambda: T.linear(_zeros(2, 4), _zeros(3, 5), _zeros(5)), ShapeError,
                      "linear: shapes"),
    "empty mix": (lambda: T.mix([], _zeros(0)), ShapeError, "mix"),
    "mix weight count": (lambda: T.mix([_zeros(2, 3)] * 2, _zeros(3, 3)), ShapeError, "mix"),
    "mix term shapes": (lambda: T.mix([_zeros(2, 3), _zeros(3, 3)], _zeros(2)), ShapeError,
                        "mix"),
    "mix weight tail": (lambda: T.mix([_zeros(2, 3)] * 2, _zeros(2, 2)), ShapeError, "mix"),
    "mix weight rank": (lambda: T.mix([_zeros(3)] * 2, _zeros(2, 2, 3)), ShapeError, "mix"),
}


class TestErrors:
    def test_matmul_shape_error_names_op_and_shapes(self):
        with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(4, 5\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            T.depthwise_conv1d(Tensor(np.zeros((1, 4, 2))), Tensor(np.zeros((4, 2))), np.zeros(2))

    def test_linear_and_attention_shape_errors(self):
        with pytest.raises(ShapeError, match=r"linear: bias shape \(3,\)"):
            T.linear(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeError, match="attention"):
            T.attention(Tensor(np.zeros((1, 3, 2, 4))), Tensor(np.zeros((1, 5, 2, 3))),
                        Tensor(np.zeros((1, 5, 2, 4))), None, 0.5)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(x * 2.0)

    def test_second_backward_raises(self):
        # reusing the loss itself, or any intermediate node of a consumed
        # graph in a new loss, raises and leaves the leaf gradient as it was
        for second in (lambda loss, y: loss, lambda loss, y: (y * 2.0).sum()):
            x = Tensor(np.ones(3), requires_grad=True)
            y = x * x
            loss = y.sum()
            backward(loss)
            grad = x.grad.copy()
            with pytest.raises(RuntimeError, match="consumed"):
                backward(second(loss, y))
            np.testing.assert_array_equal(x.grad, grad)

    def test_backward_off_tape_raises(self):
        with pytest.raises(RuntimeError, match="tape"):
            backward(Tensor(1.0))

    @pytest.mark.parametrize("case", REFUSED)
    def test_refused_input_raises(self, case):
        call, error, message = REFUSED[case]
        with pytest.raises(error, match=message):
            call()


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

    def test_backward_frees_released_nodes(self):
        # with only the loss held, each node's output and grad go back to the
        # allocator once its rule has run, so the traced peak stays a few
        # arrays wide instead of growing with the chain length
        x = Tensor(rng.normal(size=(256, 256)), requires_grad=True)
        y = x
        for _ in range(20):
            y = y * 1.01
        loss = y.sum()
        del y
        tracemalloc.start()
        try:
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * x.data.nbytes
        np.testing.assert_allclose(x.grad, np.full((256, 256), 1.01 ** 20))

    def test_no_grad_suppresses_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._backward is None


def _rand(*shape):
    return rng.uniform(-2.0, 2.0, size=shape)


class TestTapeEdges:
    """An op result keeps only its differentiable operands as graph edges."""

    def test_mask_operand_leaves_the_tape(self):
        mask = Tensor((rng.random((3, 4)) < 0.5).astype(np.float64))
        x = Tensor(_rand(3, 4), requires_grad=True)
        assert (x * mask)._parents == (x,)
        check_grads(lambda x: ((x * mask) * (x * mask)).sum(), [_rand(3, 4)])

    def test_frozen_weight_leaves_the_tape(self):
        w = Tensor(_rand(4, 2), requires_grad=True)
        w.requires_grad = False
        x = Tensor(_rand(3, 4), requires_grad=True)
        y = x @ w
        assert y._parents == (x,)
        backward((y * y).sum())
        assert (w.grad == 0).all()
        check_grads(lambda x: ((x @ w) * (x @ w)).sum(), [_rand(3, 4)])


class TestGradChecks:
    """Every forward op against the central-difference oracle."""

    def test_add(self):
        check_grads(lambda a, b: (T.add(a, b) * T.add(a, b)).sum(), [_rand(3, 4), _rand(3, 4)])

    def test_add_broadcast_bias(self):
        check_grads(lambda a, b: ((a + b) * (a + b)).sum(), [_rand(2, 3, 4), _rand(4)])

    @pytest.mark.parametrize("op", [T.add, T.mul])
    def test_short_operand_either_side(self, op):
        # a (d,) operand combines with (..., d) from the left as from the right
        short, long = _rand(4), _rand(2, 3, 4)
        w = Tensor(_rand(2, 3, 4))
        results = []
        for flip in (False, True):
            a, b = Tensor(short, requires_grad=True), Tensor(long, requires_grad=True)
            out = op(b, a) if flip else op(a, b)
            backward((out * w).sum())
            results.append((out.data, a.grad, b.grad))
        for left, right in zip(*results):
            np.testing.assert_array_equal(left, right)
        check_grads(lambda a, b: (op(a, b) * w).sum(), [short, long])

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

    def test_linear(self):
        check_grads(
            lambda x, w, b: (T.linear(x, w, b) * T.linear(x, w, b)).sum(),
            [_rand(2, 3, 4), _rand(4, 2), _rand(2)],
        )

    def test_attention_key_padding(self):
        # second row sees only its first two of four keys
        mask = _key_padding(np.array([4, 2]), 4)
        w = Tensor(_rand(2, 3, 2, 5))
        check_grads(
            lambda q, k, v: (T.attention(q, k, v, mask, 0.5) * w).sum(),
            [_rand(2, 3, 2, 4), _rand(2, 4, 2, 4), _rand(2, 4, 2, 5)],
        )

    def test_attention_causal(self):
        mask = np.triu(np.ones((4, 4), dtype=bool), k=1)
        w = Tensor(_rand(2, 4, 2, 3))
        check_grads(
            lambda q, k, v: (T.attention(q, k, v, mask, 0.5) * w).sum(),
            [_rand(2, 4, 2, 3), _rand(2, 4, 2, 3), _rand(2, 4, 2, 3)],
        )

    @pytest.mark.parametrize("tail", [(), (4,), (3, 4)], ids=str)
    def test_mix(self, tail):
        w = Tensor(_rand(2, 3, 4))
        check_grads(lambda a, b, c, m: (T.mix([a, b, c], m) * w).sum(),
                    [_rand(2, 3, 4), _rand(2, 3, 4), _rand(2, 3, 4), _rand(3, *tail)])

    def test_mix_equals_the_mul_and_add_chain(self):
        # bit for bit, in value and in every gradient
        values = [_rand(2, 3, 4), _rand(2, 3, 4), _rand(2, 4)]
        g = Tensor(_rand(2, 3, 4))
        results = []
        for fused in (True, False):
            a, b, m = (Tensor(v, requires_grad=True) for v in values)
            out = T.mix([a, b], m) if fused else a * m[0] + b * m[1]
            backward((out * g).sum())
            results.append([out.data, a.grad, b.grad, m.grad])
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()

    def test_attention_padded_keys_get_exactly_zero_gradient(self):
        q, k, v = (Tensor(_rand(*s), requires_grad=True)
                   for s in ((2, 3, 2, 4), (2, 5, 2, 4), (2, 5, 2, 3)))
        out = T.attention(q, k, v, _key_padding(np.array([5, 3]), 5), 0.5)
        backward((out * Tensor(_rand(2, 3, 2, 3))).sum())
        for t in (k, v):
            assert (t.grad[1, 3:] == 0.0).all()
            assert (t.grad[1, :3] != 0.0).all() and (t.grad[0] != 0.0).all()


def _key_padding(lens, t_k):
    """(B, 1, 1, Tk) mask, True at the keys past each row's length."""
    return (np.arange(t_k)[None, :] >= lens[:, None])[:, None, None, :]


# every differentiable op on operands it may only read: (call, operand shapes)
_CAUSAL = np.triu(np.ones((4, 4), dtype=bool), k=1)
READ_ONLY_CASES = {
    "add": (T.add, [(2, 3, 4), (4,)]),
    "mul": (T.mul, [(4,), (2, 3, 4)]),
    "matmul": (T.matmul, [(2, 3, 4), (4, 2)]),
    "matmul batched": (T.matmul, [(2, 2, 3, 4), (2, 2, 4, 2)]),
    "tensor_slice": (lambda x: T.tensor_slice(x, (slice(1, None), slice(None, None, 2))),
                     [(3, 6)]),
    "reshape": (lambda x: T.reshape(x, (6, 2)), [(3, 4)]),
    "transpose": (lambda x: T.transpose(x, (1, 0, 2)), [(2, 3, 4)]),
    "concat": (lambda a, b: T.concat([a, b], axis=1), [(2, 3), (2, 2)]),
    "tensor_sum": (lambda x: T.tensor_sum(x, axis=0), [(3, 4)]),
    "tensor_mean": (lambda x: T.tensor_mean(x, axis=1), [(3, 4)]),
    "sigmoid": (T.sigmoid, [(3, 4)]),
    "swish": (T.swish, [(3, 4)]),
    "glu": (T.glu, [(2, 3, 6)]),
    "softmax": (T.softmax, [(3, 5)]),
    "log_softmax": (T.log_softmax, [(3, 5)]),
    "logsumexp": (T.logsumexp, [(4, 3)]),
    "layer_norm": (T.layer_norm, [(2, 3, 6), (6,), (6,)]),
    "depthwise_conv1d": (T.depthwise_conv1d, [(2, 7, 3), (5, 3), (3,)]),
    "embedding": (lambda t: T.embedding(t, np.array([[0, 2], [2, 1]])), [(4, 3)]),
    "linear": (T.linear, [(2, 3, 4), (4, 2), (2,)]),
    "attention": (lambda q, k, v: T.attention(q, k, v, None, 0.5),
                  [(2, 3, 2, 4), (2, 5, 2, 4), (2, 5, 2, 3)]),
    "attention masked": (lambda q, k, v: T.attention(q, k, v, _CAUSAL, 0.5),
                         [(2, 4, 2, 3), (2, 4, 2, 3), (2, 4, 2, 3)]),
    "masked_fill": (lambda x: T.masked_fill(x, _CAUSAL, 5.0), [(4, 4)]),
    "mix": (lambda a, b, w: T.mix([a, b], w), [(2, 3, 4), (2, 3, 4), (2, 4)]),
    "mix scalar weights": (lambda a, b, w: T.mix([a, b], w), [(2, 3, 4), (2, 3, 4), (2,)]),
    "ctc_loss": (lambda x: ctc_loss(x, [6, 4, 2], [[1, 2, 2], [3], []]), [(3, 6, 5)]),
}


def _recording_ops():
    """Names of the ``tensor`` functions that record a gradient rule."""
    return {name for name, fn in vars(T).items()
            if inspect.isfunction(fn) and "_from_op" in fn.__code__.co_names}


class TestRulesOwnTheirWrites:
    """A rule writes only into arrays it allocated: never into its incoming
    gradient, an operand, the op's output or what its forward saved."""

    def test_every_recording_op_has_a_case(self):
        assert _recording_ops() <= {case.split()[0] for case in READ_ONLY_CASES}

    @pytest.mark.parametrize("case", READ_ONLY_CASES)
    def test_rule_leaves_its_inputs_and_saved_arrays_alone(self, case):
        call, shapes = READ_ONLY_CASES[case]
        operands = [Tensor(_rand(*shape), requires_grad=True) for shape in shapes]
        for t in operands:
            t.data.flags.writeable = False
        out = call(*operands)
        output = out.data.copy()
        g = rng.normal(size=out.shape)
        g.flags.writeable = False
        grads = []
        for _ in range(2):  # a rule that wrote into its saved arrays would differ the second time
            for t in operands:
                t.zero_grad()
            out._backward(g)
            grads.append([t.grad.copy() for t in operands])
        assert out.data.tobytes() == output.tobytes()
        for first, second in zip(*grads):
            assert first.tobytes() == second.tobytes()
        assert any(grad.any() for grad in grads[0])


# the out-of-place expressions of the ops that compute in place, one new
# array per step, kept as oracles: each returns the forward value and the
# gradient of every operand for an upstream gradient ``g``


def _chained_linear(x, w, b, g):
    n_in, n_out = w.shape
    data = x @ w + b
    return data, [g @ w.T, x.reshape(-1, n_in).T @ g.reshape(-1, n_out), g.sum(axis=(0, 1))]


def _chained_swish(x, g):
    s = 1.0 / (1.0 + np.exp(-x))
    data = x * s
    return data, [g * (s + data * (1.0 - s))]


def _chained_glu(x, g):
    h = x.shape[-1] // 2
    a = x[..., :h]
    s = 1.0 / (1.0 + np.exp(-x[..., h:]))
    gx = np.zeros_like(x)
    gx[..., :h] += g * s
    gx[..., h:] += g * a * s * (1.0 - s)
    return a * s, [gx]


def _chained_layer_norm(x, gain, bias, g, eps=1e-6):
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain + bias
    dxh = g * gain
    gx = (
        dxh
        - dxh.mean(axis=-1, keepdims=True)
        - xhat * (dxh * xhat).mean(axis=-1, keepdims=True)
    ) * inv
    return data, [gx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)]


def _chained_depthwise_conv1d(x, kernel, bias, g):
    k, c = kernel.shape
    b, t, _ = x.shape
    p = k // 2
    xp = np.zeros((b, t + 2 * p, c))
    xp[:, p:p + t, :] = x
    data = np.zeros((b, t, c))
    for j in range(k):
        data += xp[:, j:j + t, :] * kernel[j]
    data += bias
    gk = np.zeros_like(kernel)
    for j in range(k):
        gk[j] += (xp[:, j:j + t, :] * g).sum(axis=(0, 1))
    gp = np.zeros_like(xp)
    for j in range(k):
        gp[:, j:j + t, :] += g * kernel[j]
    return data, [gp[:, p:p + t, :], gk, g.sum(axis=(0, 1))]


def _chained_attention(q, k, v, g, mask, scale):
    qt = np.transpose(q, (0, 2, 1, 3))
    kt = np.transpose(k, (0, 2, 3, 1))
    vt = np.transpose(v, (0, 2, 1, 3))
    scores = (qt @ kt) * scale
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), scores.shape)
        scores = np.where(mask, T.NEG_FILL, scores)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    data = np.transpose(p @ vt, (0, 2, 1, 3))
    dc = np.ascontiguousarray(np.transpose(g, (0, 2, 1, 3)))
    dp = dc @ np.swapaxes(vt, -1, -2)
    ds = (dp - (dp * p).sum(axis=-1, keepdims=True)) * p
    if mask is not None:
        ds = np.where(mask, 0.0, ds)
    ds = ds * scale
    return data, [np.transpose(ds @ np.swapaxes(kt, -1, -2), (0, 2, 1, 3)),
                  np.transpose(np.swapaxes(qt, -1, -2) @ ds, (0, 3, 1, 2)),
                  np.transpose(np.swapaxes(p, -1, -2) @ dc, (0, 2, 1, 3))]


def _masked_attention(b, t):
    """Key padding on all rows but the first, plus a causal mask."""
    lens = np.maximum(t - np.arange(b), 1)
    return (_key_padding(lens, t) | np.triu(np.ones((t, t), dtype=bool), k=1)), 0.5


# op name -> (op, oracle, operand shapes for a (B, T, D) activation)
ORACLES = {
    "linear": (T.linear, _chained_linear, lambda b, t, d: [(b, t, d), (d, 2 * d), (2 * d,)]),
    "swish": (T.swish, _chained_swish, lambda b, t, d: [(b, t, d)]),
    "glu": (T.glu, _chained_glu, lambda b, t, d: [(b, t, 2 * d)]),
    "layer_norm": (T.layer_norm, _chained_layer_norm, lambda b, t, d: [(b, t, d), (d,), (d,)]),
    "depthwise_conv1d": (T.depthwise_conv1d, _chained_depthwise_conv1d,
                         lambda b, t, d: [(b, t, d), (5, d), (d,)]),
    "attention": (lambda q, k, v: T.attention(q, k, v, None, 0.35),
                  lambda q, k, v, g: _chained_attention(q, k, v, g, None, 0.35),
                  lambda b, t, d: [(b, t, 4, d // 4)] * 3),
}
ORACLE_SHAPES = [(8, 60, 32), (8, 4, 32)]


def _against_oracle(op, oracle, values, tol):
    tensors = [Tensor(v, requires_grad=True) for v in values]
    out = op(*tensors)
    g = rng.normal(size=out.shape)
    want, want_grads = oracle(*values, g)
    out._backward(g)
    for got, expect in zip([out.data] + [t.grad for t in tensors], [want] + want_grads):
        if tol is None:
            np.testing.assert_array_equal(got, expect)
        else:
            np.testing.assert_allclose(got, expect, rtol=0.0, atol=tol)


class TestAgainstOutOfPlaceExpressions:
    """The in-place ops give the out-of-place expressions' bits, except
    layer norm, whose row means as matrix-vector products move them within
    1e-12."""

    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=str)
    @pytest.mark.parametrize("name", ORACLES)
    def test_matches_oracle(self, name, shape):
        op, oracle, shapes = ORACLES[name]
        values = [rng.normal(size=s) for s in shapes(*shape)]
        _against_oracle(op, oracle, values, 1e-12 if name == "layer_norm" else None)

    def test_masked_attention_matches_oracle(self):
        mask, scale = _masked_attention(8, 60)
        values = [rng.normal(size=(8, 60, 4, 8)) for _ in range(3)]
        _against_oracle(lambda q, k, v: T.attention(q, k, v, mask, scale),
                        lambda q, k, v, g: _chained_attention(q, k, v, g, mask, scale),
                        values, None)
