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


def _naive_stack(x, w):
    """naive_matmul of each (rows, k) matrix of the stack ``x`` with ``w``."""
    out = np.zeros(x.shape[:-1] + w.shape[1:])
    for idx in np.ndindex(x.shape[:-2]):
        out[idx] = naive_matmul(x[idx], w)
    return out


def _within_float32_rounding(got, x, y):
    """``got`` is float32 and within the worst-case rounding of float32 dot
    products of length k from the float64 product ``x @ y``."""
    x, y = x.astype(np.float64), y.astype(np.float64)
    bound = (x.shape[-1] + 1) * np.finfo(np.float32).eps * (np.abs(x) @ np.abs(y))
    return got.dtype == np.float32 and bool(np.all(np.abs(got - x @ y) <= bound))


class TestFoldedMatmul:
    """A rank-2 right operand: the leading axes of the left one fold into one GEMM."""

    @settings(max_examples=80, deadline=None)
    @example((np.float64, (2, 1), 3, 4, True, 0))      # x[:, :1] of the class-attention layer
    @example((np.float32, (2, 1), 3, 4, True, 1))
    @example((np.float64, (2, 0), 3, 2, False, 2))     # an empty stream
    @example((np.float32, (2, 0), 3, 2, False, 3))
    @example((np.float64, (1, 5), 4, 3, False, 4))     # B = 1
    @given(st.tuples(st.sampled_from((np.float32, np.float64)),
                     st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple),
                     st.integers(1, 5), st.integers(1, 5), st.booleans(), st.integers(0, 2 ** 32 - 1)))
    def test_matches_per_sample_products(self, case):
        dtype, lead, k, n, strided, seed = case
        rng = SeededRng(seed)
        shape = lead + (k,)
        if strided:     # a slice along axis 1 of a longer array, as x[:, :1]
            a_arr = rng.normal(shape[:1] + (shape[1] + 2,) + shape[2:]).astype(dtype)[:, :shape[1]]
        else:
            a_arr = rng.normal(shape).astype(dtype)
        w_arr = rng.normal((k, n)).astype(dtype)
        upstream = rng.normal(lead + (n,)).astype(dtype)
        a, w = Tensor(a_arr, requires_grad=True), Tensor(w_arr, requires_grad=True)
        out = ag.matmul(a, w)
        backward(ag.tsum(ag.mul(out, upstream)))
        a2, g2 = a_arr.reshape(-1, k), upstream.reshape(-1, n)
        assert out.shape == lead + (n,) and a.grad.shape == a_arr.shape and w.grad.shape == (k, n)
        if dtype == np.float64:
            assert out.data.tobytes() == _naive_stack(a_arr, w_arr).tobytes()
            assert a.grad.tobytes() == _naive_stack(upstream, w_arr.T).tobytes()
            assert w.grad.tobytes() == ag._matmul_ordered(a2.T, g2).tobytes()
        else:
            assert _within_float32_rounding(out.data.reshape(-1, n), a2, w_arr)
            assert _within_float32_rounding(a.grad.reshape(-1, k), g2, w_arr.T)
            assert _within_float32_rounding(w.grad, a2.T, g2)


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

    def test_minus_inf_entries_come_out_zero(self):
        # an additive mask: the row's finite entries share the whole mass
        y = ag.softmax_rows(Tensor([[1.0, -np.inf, 1.0]], dtype=np.float64)).data
        assert y.tolist() == [[0.5, 0.0, 0.5]]


def _chain_attention(q, k, v, heads, offsets, one_query):
    """Per sequence, the reshape -> matmul -> mul -> softmax_rows -> matmul
    chain ``attention`` replaces; a query with no key gets zeros."""
    d = q.shape[1]
    q_offsets = np.arange(len(offsets)) if one_query else offsets

    def split(x, lo, hi):
        return ag.transpose(ag.reshape(ag.take(x, np.arange(lo, hi)), (hi - lo, heads, d // heads)), (1, 0, 2))

    outs = []
    for qa, qb, ka, kb in zip(q_offsets[:-1], q_offsets[1:], offsets[:-1], offsets[1:]):
        if ka == kb:
            outs.append(Tensor(np.zeros((qb - qa, d), dtype=q.dtype)))
            continue
        scores = ag.mul(ag.matmul(split(q, qa, qb), ag.transpose(split(k, ka, kb), (0, 2, 1))),
                        1.0 / np.sqrt(d // heads))
        ctx = ag.matmul(ag.softmax_rows(scores), split(v, ka, kb))
        outs.append(ag.reshape(ag.transpose(ctx, (1, 0, 2)), (qb - qa, d)))
    return ag.concat(outs, axis=0)


class TestAttention:
    @settings(max_examples=100, deadline=None)
    @example((np.float32, 1, 2, [1, 0, 3], False, 0))
    @example((np.float64, 2, 3, [4, 0], True, 1))
    @given(st.tuples(st.sampled_from((np.float32, np.float64)), st.integers(1, 3), st.integers(1, 4),
                     st.lists(st.integers(0, 6), min_size=1, max_size=4), st.booleans(),
                     st.integers(0, 2 ** 32 - 1)))
    def test_matches_chain_bit_for_bit(self, case):
        # packed sequences of any lengths, some with no key; with one query
        # per sequence as in class attention, or every row querying
        dtype, h, dh, lengths, one_query, seed = case
        lengths[0] = max(lengths[0], 1)
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        rng = SeededRng(seed)
        n_q = len(lengths) if one_query else offsets[-1]
        arrays = [rng.normal((n, h * dh), 0.0, 3.0).astype(dtype) for n in (n_q, offsets[-1], offsets[-1])]
        w = rng.normal((n_q, h * dh)).astype(dtype)
        results = []
        for op in (ag.attention, _chain_attention):
            q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
            out = op(q, k, v, h, offsets, one_query)
            backward(ag.tsum(ag.mul(out, w)))
            results.append([out.data, q.grad, k.grad, v.grad])
        for fused, chain in zip(*results):
            assert fused.dtype == chain.dtype == dtype and fused.shape == chain.shape
            assert fused.tobytes() == chain.tobytes()

    def test_one_tape_node(self):
        q, k, v = (Tensor(SeededRng(i).normal((5, 4)), requires_grad=True) for i in range(3))
        before = ag.tape_size()
        ag.attention(q, k, v, 2, np.array([0, 2, 5]))
        assert ag.tape_size() == before + 1
        ag.clear_tape()
        with no_grad():
            ag.attention(q, k, v, 2, np.array([0, 2, 5]))
        assert ag.tape_size() == 0


class TestLayerNorm:
    def test_constant_vector_zeroed(self):
        out = ag.layer_norm(Tensor([[5.0, 5.0, 5.0]], dtype=np.float64),
                            Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0, atol=1e-6)

    def test_two_point_hand_case(self):
        # mean 2, population variance 1 -> normalized [-1, 1] / sqrt(1 + eps), eps 1e-5
        out = ag.layer_norm(Tensor([[1.0, 3.0]], dtype=np.float64),
                            Tensor(np.ones(2)), Tensor(np.zeros(2)))
        assert np.allclose(out.data, np.array([[-1.0, 1.0]]) / np.sqrt(1 + 1e-5), rtol=1e-12, atol=0)

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


OPS = {   # name: (loss of the inputs, inputs, one call of the op under test alone)
    "add": (lambda a, b: ag.tsum(ag.mul(ag.add(a, b), ag.add(a, b))),
            lambda rng: [_rand(rng, (3, 4)), _rand(rng, (4,))], ag.add),
    "mul": (lambda a, b: ag.tsum(ag.mul(a, b)),
            lambda rng: [_rand(rng, (3, 4)), _rand(rng, (3, 4))], ag.mul),
    "matmul": (lambda a, b: ag.tsum(ag.mul(ag.matmul(a, b), 0.7)),
               lambda rng: [_rand(rng, (3, 4)), _rand(rng, (4, 2))], ag.matmul),
    "folded_matmul": (lambda a, b: ag.tsum(ag.mul(ag.matmul(a, b), np.arange(12.0).reshape(2, 3, 2) / 7.0)),
                      lambda rng: [_rand(rng, (2, 3, 4)), _rand(rng, (4, 2))], ag.matmul),
    "batched_matmul": (lambda a, b: ag.tsum(ag.matmul(a, b)),
                       lambda rng: [_rand(rng, (2, 3, 4)), _rand(rng, (2, 4, 2))], ag.matmul),
    "relu": (lambda a: ag.tsum(ag.relu(a)), lambda rng: [_rand(rng, (5, 5))], ag.relu),
    "softplus": (lambda a: ag.tsum(ag.softplus(a)), lambda rng: [_rand(rng, (5,))], ag.softplus),
    "softmax": (lambda a: ag.tsum(ag.mul(ag.softmax_rows(a), np.arange(6.0).reshape(2, 3))),
                lambda rng: [_rand(rng, (2, 3))], ag.softmax_rows),
    "attention": (lambda q, k, v: ag.tsum(ag.mul(ag.attention(q, k, v, 2, np.array([0, 2, 2, 5])),
                                                  np.arange(20.0).reshape(5, 4) / 10.0)),
                  lambda rng: [_rand(rng, (5, 4)) for _ in range(3)],
                  lambda q, k, v: ag.attention(q, k, v, 2, np.array([0, 2, 2, 5]))),
    "class_attention": (lambda q, k, v: ag.tsum(ag.mul(ag.attention(q, k, v, 2, np.array([0, 2, 2, 5]), True),
                                                        np.arange(12.0).reshape(3, 4) / 10.0)),
                        lambda rng: [_rand(rng, (3, 4)), _rand(rng, (5, 4)), _rand(rng, (5, 4))],
                        lambda q, k, v: ag.attention(q, k, v, 2, np.array([0, 2, 2, 5]), True)),
    "layer_norm": (lambda x, g, b: ag.tsum(ag.mul(ag.layer_norm(x, g, b), np.arange(8.0).reshape(2, 4))),
                   lambda rng: [_rand(rng, (2, 4)), _rand(rng, (4,)), _rand(rng, (4,))], ag.layer_norm),
    "sum_axis": (lambda a: ag.tsum(ag.mul(ag.tsum(a, axis=1), ag.tsum(a, axis=1))),
                 lambda rng: [_rand(rng, (3, 4))], lambda a: ag.tsum(a, axis=1)),
    "mean_axis": (lambda a: ag.tsum(ag.mul(ag.tmean(a, axis=0), 3.0)),
                  lambda rng: [_rand(rng, (3, 4))], lambda a: ag.tmean(a, axis=0)),
    "reshape_transpose": (
        lambda a: ag.tsum(ag.mul(ag.transpose(ag.reshape(a, (2, 6)), (1, 0)), np.arange(12.0).reshape(6, 2))),
        lambda rng: [_rand(rng, (3, 4))], lambda a: ag.transpose(a, (1, 0))),
    "take": (lambda a: ag.tsum(ag.mul(ag.take(a, np.array([2, 0, 2, 3, 2])), np.arange(15.0).reshape(5, 3))),
             lambda rng: [_rand(rng, (4, 3))], lambda a: ag.take(a, np.array([2, 0, 2, 3, 2]))),
    "concat": (lambda a, b: ag.tsum(ag.mul(ag.concat([a, b], axis=1), 0.3)),
               lambda rng: [_rand(rng, (2, 3)), _rand(rng, (2, 2))], lambda a, b: ag.concat([a, b], axis=1)),
    # each call draws the same mask from a fresh stream
    "dropout": (lambda a: ag.tsum(ag.mul(ag.dropout(a, 0.5, True, SeededRng(99)), np.arange(12.0).reshape(3, 4))),
                lambda rng: [_rand(rng, (3, 4))], lambda a: ag.dropout(a, 0.5, True, SeededRng(99))),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_every_op_gradient_many_seeds(name):
    """Each differentiable op passes a double-precision finite-difference
    check on randomized inputs over at least 20 seeds."""
    loss_fn, make_params, _ = OPS[name]
    for seed in range(20):
        params = make_params(SeededRng(seed))
        err = grad_check(lambda: loss_fn(*params), params, eps=1e-6)
        assert err < 1e-4, f"{name} seed {seed}: rel err {err}"


@pytest.mark.parametrize("name", sorted(OPS))
def test_every_op_records_one_node_only_when_an_input_wants_a_gradient(name):
    """Each op's one call appends exactly one node when any one of its inputs
    requires a gradient, and none for constant inputs or under no_grad."""
    _, make_params, op = OPS[name]
    params = make_params(SeededRng(0))
    constants = [Tensor(p.data) for p in params]
    ag.clear_tape()
    try:
        for i, p in enumerate(params):
            out = op(*constants[:i], p, *constants[i + 1:])
            assert ag.tape_size() == 1 and out.requires_grad, f"{name}: input {i} wants a gradient"
            ag.clear_tape()
        out = op(*constants)
        assert ag.tape_size() == 0 and not out.requires_grad
        with no_grad():
            out = op(*params)
        assert ag.tape_size() == 0 and not out.requires_grad
    finally:
        ag.clear_tape()


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

    def test_rows_get_the_full_mask_rows(self):
        x = SeededRng(13).normal((15, 4))
        rows = np.array([0, 1, 5, 6, 7, 14])
        full_rng, rows_rng = SeededRng(14, 7), SeededRng(14, 7)
        want = ag.dropout(Tensor(x), 0.5, train=True, rng=full_rng).data[rows]
        got = ag.dropout(Tensor(x[rows]), 0.5, train=True, rng=rows_rng, rows=rows, total_rows=15).data
        assert got.tobytes() == want.tobytes()
        assert rows_rng.counter == full_rng.counter == 7 + x.size

    def test_survivor_statistics(self):
        x = Tensor(np.ones(100000, dtype=np.float32))
        out = ag.dropout(x, 0.5, train=True, rng=SeededRng(12))
        survivors = np.count_nonzero(out.data) / x.size
        assert abs(survivors - 0.5) < 0.01
        assert abs(out.data.mean() - 1.0) < 0.02


class TestTake:
    @pytest.mark.parametrize("idx", [[3, 1, 3, 3, 0], [], [2], list(range(40)) + list(range(5, 60)) + [0] * 3,
                                     [0, 1, 2, 0, 1, 2, 7, 8]])
    @pytest.mark.parametrize("width", (1, 3, 600))
    def test_gradient_adds_repeated_rows_in_index_order(self, idx, width):
        x = Tensor(SeededRng(17).normal((64, width)), requires_grad=True, dtype=np.float64)
        idx = np.array(idx, dtype=np.int64)
        out = ag.take(x, idx)
        assert out.data.tobytes() == x.data[idx].tobytes()
        g = SeededRng(18).normal((len(idx), width))
        backward(ag.tsum(ag.mul(out, g)))
        want = np.zeros((64, width))
        for i, row in enumerate(idx):
            want[row] += g[i]
        assert x.grad.tobytes() == want.tobytes()


def test_finite_outputs_on_finite_inputs():
    rng = SeededRng(8)
    x = Tensor(rng.normal((4, 6), 0.0, 50.0), dtype=np.float32)
    for out in (ag.softmax_rows(x).data, ag.sigmoid_array(x.data), ag.softplus(x).data, ag.relu(x).data,
                ag.layer_norm(x, Tensor(np.ones(6, dtype=np.float32)), Tensor(np.zeros(6, dtype=np.float32))).data):
        assert np.all(np.isfinite(out))
