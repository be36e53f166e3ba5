import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import genreclf.autograd as ag
from genreclf.autograd import Tensor, backward, no_grad
from genreclf.gradcheck import grad_check
from genreclf.rng import SeededRng


def naive_matmul(a, b):
    """Triple-loop reference product (float64, sequential accumulation)."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for kk in range(k):
                acc += a[i, kk] * b[kk, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = ag.matmul(Tensor(np.eye(2)), Tensor(a))
        assert np.array_equal(out.data, a.astype(out.dtype))

    def test_small_product_matches_reference(self):
        # expected values computed with the triple-loop oracle
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0], [6.0]])
        assert np.array_equal(naive_matmul(a, b), np.array([[17.0], [39.0]]))
        out = ag.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
        assert np.array_equal(out.data, np.array([[17.0], [39.0]]))

    def test_zero_case(self):
        out = ag.matmul(Tensor(np.zeros((3, 4))), Tensor(np.ones((4, 2))))
        assert np.array_equal(out.data, np.zeros((3, 2)))

    def test_double_precision_bit_for_bit_vs_triple_loop(self):
        # float64 is the verification dtype: ordered accumulation must match
        # the naive loop exactly on shapes up to 8x8
        rng = SeededRng(5)
        for _ in range(50):
            m, k, n = rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9)
            a = rng.normal((m, k))
            b = rng.normal((k, n))
            out = ag.matmul(Tensor(a), Tensor(b))
            assert out.dtype == np.float64
            assert np.array_equal(out.data, naive_matmul(a, b))

    def test_batched_matches_per_slice(self):
        rng = SeededRng(6)
        a = rng.normal((2, 3, 4, 5))
        b = rng.normal((2, 3, 5, 6))
        out = ag.matmul(Tensor(a), Tensor(b)).data
        for i in range(2):
            for j in range(3):
                assert np.array_equal(out[i, j], naive_matmul(a[i, j], b[i, j]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            ag.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


class TestSoftmax:
    def test_uniform_row(self):
        out = ag.softmax_rows(Tensor([[0.0, 0.0, 0.0]], dtype=np.float64))
        assert np.allclose(out.data, 1.0 / 3.0, atol=1e-12)

    def test_extreme_values_no_overflow(self):
        out = ag.softmax_rows(Tensor([[1000.0, 0.0]], dtype=np.float64))
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] > 1.0 - 1e-12
        assert out.data[0, 1] < 1e-12

    def test_direct_exponentiation_oracle(self):
        row = np.array([1.0, 2.0, 3.0])
        e = np.exp(row)                     # independent high-precision path
        expected = e / e.sum()
        out = ag.softmax_rows(Tensor([row], dtype=np.float64))
        assert np.allclose(out.data[0], expected, atol=1e-12)
        assert np.allclose(out.data[0], [0.09003, 0.24473, 0.66524], atol=5e-6)

    def test_rows_sum_to_one_and_bounded(self):
        rng = SeededRng(1)
        for _ in range(20):
            x = rng.normal((4, 7), 0.0, 5.0)
            y = ag.softmax_rows(Tensor(x, dtype=np.float32)).data
            assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-6)
            assert np.all((y >= 0) & (y <= 1))

    def test_masked_rows(self):
        x = Tensor(np.arange(8, dtype=np.float64).reshape(2, 4))
        mask = np.array([[True, False, True, False], [False, False, False, False]])
        y = ag.softmax_rows(x, mask).data
        assert y[0, 1] == 0.0 and y[0, 3] == 0.0
        assert np.isclose(y[0].sum(), 1.0)
        assert np.array_equal(y[1], np.zeros(4))    # fully masked row: zeros, not NaN

    @settings(max_examples=200, deadline=None)
    @example((np.arange(12, dtype=np.float32).reshape(2, 1, 2, 3),
              np.array([[True, True, True], [False, False, False]]).reshape(2, 1, 1, 3)))
    @example((np.full((1, 2, 3, 4), -1e30), np.zeros((1, 1, 1, 4), bool)))
    @example((np.full((1, 1, 2, 3), 88.0, np.float32), np.ones((1, 1, 1, 3), bool)))
    @given(st.tuples(st.sampled_from((np.float32, np.float64)), st.integers(1, 3), st.integers(1, 2),
                     st.integers(1, 4), st.integers(1, 7)).flatmap(
        lambda s: st.tuples(hnp.arrays(s[0], s[1:], elements=st.floats(-1e4, 1e4, width=np.dtype(s[0]).itemsize * 8)),
                            hnp.arrays(np.bool_, (s[1], 1, 1, s[4])))))
    def test_key_mask_property(self, case):
        # (B, 1, 1, T) key masks as attention passes them: any pattern,
        # all-False rows included
        x, mask = case
        y = ag.softmax_rows(Tensor(x), mask).data
        assert y.dtype == x.dtype and y.shape == x.shape
        valid = np.broadcast_to(mask, x.shape)
        assert np.all(y[~valid] == 0.0)
        has_key = valid.any(axis=-1)
        row_sums = y.sum(axis=-1)[has_key]
        assert np.allclose(row_sums, 1.0, rtol=0, atol=10 * np.finfo(x.dtype).eps * x.shape[-1])
        assert not np.isnan(y).any() and np.all(y[~has_key] == 0.0)
        all_true = ag.softmax_rows(Tensor(x), np.ones_like(mask)).data
        assert all_true.tobytes() == ag.softmax_rows(Tensor(x)).data.tobytes()


class TestLayerNorm:
    def test_constant_vector_zeroed(self):
        out = ag.layer_norm(Tensor([[5.0, 5.0, 5.0]], dtype=np.float64),
                            Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0, atol=1e-6)

    def test_two_point_hand_case(self):
        # mean 2, population std 1 -> normalized [-1, 1]
        out = ag.layer_norm(Tensor([[1.0, 3.0]], dtype=np.float64),
                            Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-6)

    def test_zero_gain_broadcasts_bias(self):
        bias = np.array([1.0, -2.0, 0.5])
        out = ag.layer_norm(Tensor(np.random.default_rng(0).normal(size=(4, 3))),
                            Tensor(np.zeros(3)), Tensor(bias))
        assert np.allclose(out.data, np.broadcast_to(bias, (4, 3)), atol=1e-6)


class TestBackward:
    def test_linear_map_gradient(self):
        # loss = sum(W @ x) -> dL/dW[i, j] = x[j]
        x = np.array([[2.0], [3.0]])
        w = Tensor(np.ones((2, 2)), requires_grad=True, dtype=np.float64)
        loss = ag.tsum(ag.matmul(w, Tensor(x, dtype=np.float64)))
        backward(loss)
        assert np.array_equal(w.grad, np.array([[2.0, 3.0], [2.0, 3.0]]))

    def test_unused_parameter_gets_no_gradient(self):
        used = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        unused = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        backward(ag.tsum(ag.mul(used, 2.0)))
        assert unused.grad is None
        assert np.array_equal(used.grad, np.full(3, 2.0))

    def test_reuse_accumulates(self):
        x = Tensor(np.array(1.5), requires_grad=True, dtype=np.float64)
        y = ag.mul(x, 1.0)
        backward(ag.add(y, y))
        assert float(x.grad) == 2.0

    def test_inputs_of_one_node_get_separate_gradients(self):
        # add hands both inputs views of one upstream gradient; a is used
        # again in a node recorded earlier, so its gradient grows after add's
        a = Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float64)
        b = Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float64)
        d = ag.mul(a, 3.0)
        c = ag.add(a, b)
        k = np.arange(6.0).reshape(2, 3)
        backward(ag.tsum(ag.add(ag.mul(c, k), d)))
        assert np.array_equal(a.grad, k + 3.0)
        assert np.array_equal(b.grad, k)
        assert not np.shares_memory(a.grad, b.grad)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(ag.mul(x, 2.0))

    def test_tape_cleared_after_backward(self):
        x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        backward(ag.tsum(x))
        assert ag.tape_size() == 0

    def test_no_grad_records_nothing(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = ag.tsum(ag.mul(x, 2.0))
        assert ag.tape_size() == 0
        assert not y.requires_grad


class TestGradCheck:
    def test_square_function(self):
        x = Tensor(np.array(3.0), requires_grad=True, dtype=np.float64)
        err = grad_check(lambda: ag.mul(x, x), [x], eps=1e-5)
        assert err < 1e-8

    def test_constant_function(self):
        x = Tensor(np.array(2.0), requires_grad=True, dtype=np.float64)
        c = Tensor(np.array(7.0), dtype=np.float64)
        err = grad_check(lambda: ag.add(ag.mul(x, 0.0), c), [x], eps=1e-5)
        assert err == 0.0

    def test_linear_sigmoid_bce(self):
        rng = SeededRng(0)
        w = Tensor(rng.normal((4, 4)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.normal((4,)), requires_grad=True, dtype=np.float64)
        x = Tensor(rng.normal((4, 4)), dtype=np.float64)
        y = (rng.uniform((4, 4)) < 0.5).astype(np.float64)

        def f():
            z = ag.add(ag.matmul(x, w), b)
            # BCE from logits: y*softplus(-z) + (1-y)*softplus(z)
            return ag.tmean(ag.add(ag.mul(ag.softplus(ag.mul(z, -1.0)), y),
                                   ag.mul(ag.softplus(z), 1.0 - y)))

        assert grad_check(f, [w, b], eps=1e-6) < 1e-4


def _rand(rng, shape):
    return Tensor(rng.normal(shape), requires_grad=True, dtype=np.float64)


OPS = {
    "add": (lambda a, b: ag.tsum(ag.mul(ag.add(a, b), ag.add(a, b))),
            lambda rng: [_rand(rng, (3, 4)), _rand(rng, (4,))]),
    "mul": (lambda a, b: ag.tsum(ag.mul(a, b)),
            lambda rng: [_rand(rng, (3, 4)), _rand(rng, (3, 4))]),
    "matmul": (lambda a, b: ag.tsum(ag.mul(ag.matmul(a, b), 0.7)),
               lambda rng: [_rand(rng, (3, 4)), _rand(rng, (4, 2))]),
    "batched_matmul": (lambda a, b: ag.tsum(ag.matmul(a, b)),
                       lambda rng: [_rand(rng, (2, 3, 4)), _rand(rng, (2, 4, 2))]),
    "relu": (lambda a: ag.tsum(ag.relu(a)), lambda rng: [_rand(rng, (5, 5))]),
    "sigmoid": (lambda a: ag.tsum(ag.sigmoid(a)), lambda rng: [_rand(rng, (5,))]),
    "softplus": (lambda a: ag.tsum(ag.softplus(a)), lambda rng: [_rand(rng, (5,))]),
    "softmax": (lambda a: ag.tsum(ag.mul(ag.softmax_rows(a), np.arange(6.0).reshape(2, 3))),
                lambda rng: [_rand(rng, (2, 3))]),
    "masked_softmax": (
        lambda a: ag.tsum(ag.mul(ag.softmax_rows(a, np.array([[True, True, False]])),
                                 np.arange(3.0))),
        lambda rng: [_rand(rng, (1, 3))]),
    "layer_norm": (lambda x, g, b: ag.tsum(ag.mul(ag.layer_norm(x, g, b), np.arange(8.0).reshape(2, 4))),
                   lambda rng: [_rand(rng, (2, 4)), _rand(rng, (4,)), _rand(rng, (4,))]),
    "sum_axis": (lambda a: ag.tsum(ag.mul(ag.tsum(a, axis=1), ag.tsum(a, axis=1))),
                 lambda rng: [_rand(rng, (3, 4))]),
    "mean_axis": (lambda a: ag.tsum(ag.mul(ag.tmean(a, axis=0), 3.0)),
                  lambda rng: [_rand(rng, (3, 4))]),
    "reshape_transpose": (
        lambda a: ag.tsum(ag.mul(ag.transpose(ag.reshape(a, (2, 6)), (1, 0)), np.arange(12.0).reshape(6, 2))),
        lambda rng: [_rand(rng, (3, 4))]),
    "getitem": (lambda a: ag.tsum(ag.mul(a[1:3], a[1:3])), lambda rng: [_rand(rng, (4, 3))]),
    "concat": (lambda a, b: ag.tsum(ag.mul(ag.concat([a, b], axis=1), 0.3)),
               lambda rng: [_rand(rng, (2, 3)), _rand(rng, (2, 2))]),
    "broadcast_to": (lambda a: ag.tsum(ag.mul(ag.broadcast_to(a, (4, 3)), np.arange(12.0).reshape(4, 3))),
                     lambda rng: [_rand(rng, (1, 3))]),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_every_op_gradient_many_seeds(name):
    """Each differentiable op passes a double-precision finite-difference
    check on randomized inputs over at least 20 seeds."""
    loss_fn, make_params = OPS[name]
    for seed in range(20):
        params = make_params(SeededRng(seed))
        err = grad_check(lambda: loss_fn(*params), params, eps=1e-6)
        assert err < 1e-4, f"{name} seed {seed}: rel err {err}"


def test_dropout_gradient_with_fixed_mask():
    x = Tensor(SeededRng(3).normal((6, 6)), requires_grad=True, dtype=np.float64)

    def f():
        return ag.tsum(ag.dropout(x, 0.5, train=True, rng=SeededRng(99)))

    assert grad_check(f, [x], eps=1e-6) < 1e-4


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert ag.dropout(x, 0.0, train=True, rng=SeededRng(0)) is x
        assert ag.dropout(x, 0.0, train=False) is x

    def test_eval_mode_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert ag.dropout(x, 0.5, train=False) is x

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            ag.dropout(Tensor(np.ones(3)), 1.0, train=True, rng=SeededRng(0))

    def test_survivor_statistics(self):
        x = Tensor(np.ones(100000, dtype=np.float32))
        out = ag.dropout(x, 0.5, train=True, rng=SeededRng(12))
        survivors = np.count_nonzero(out.data) / x.size
        assert abs(survivors - 0.5) < 0.01
        assert abs(out.data.mean() - 1.0) < 0.02


def test_finite_outputs_on_finite_inputs():
    rng = SeededRng(8)
    x = Tensor(rng.normal((4, 6), 0.0, 50.0), dtype=np.float32)
    for out in (ag.softmax_rows(x), ag.sigmoid(x), ag.softplus(x), ag.relu(x),
                ag.layer_norm(x, Tensor(np.ones(6, dtype=np.float32)), Tensor(np.zeros(6, dtype=np.float32)))):
        assert np.all(np.isfinite(out.data))
