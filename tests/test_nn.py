import numpy as np
import pytest

import genreclf.autograd as ag
from genreclf.autograd import Tensor, no_grad
from genreclf.gradcheck import grad_check
from genreclf.nn import Linear, MultiHeadSelfAttention, ParameterStore, Segments, TransformerEncoderLayer
from genreclf import optim
from genreclf.optim import Adam, clip_global_norm
from genreclf.rng import SeededRng


def make_store(dtype=np.float64):
    return ParameterStore(dtype=dtype)


class TestParameterStore:
    def test_unique_names(self):
        store = make_store()
        store.add("w", np.zeros((2, 2)))
        with pytest.raises(ValueError, match="duplicate"):
            store.add("w", np.zeros(3))

    def test_count_and_order(self):
        store = make_store()
        store.add("b", np.zeros(3))
        store.add("a", np.zeros((2, 4)))
        assert store.total_parameter_count() == 11
        assert store.names() == ["b", "a"]      # insertion order, not sorted

    def test_same_seed_same_init(self):
        s1, s2 = make_store(), make_store()
        Linear(s1, "l", 8, 4, SeededRng(5))
        Linear(s2, "l", 8, 4, SeededRng(5))
        assert np.array_equal(s1["l.w"].data, s2["l.w"].data)


class TestLinear:
    def test_identity_weights(self):
        store = make_store()
        lin = Linear(store, "l", 3, 3, SeededRng(0))
        lin.w.data = np.eye(3)
        lin.b.data = np.zeros(3)
        x = np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(lin(Tensor(x, dtype=np.float64)).data, x)

    def test_hand_case(self):
        store = make_store()
        lin = Linear(store, "l", 2, 1, SeededRng(0))
        lin.w.data = np.array([[1.0], [1.0]])
        lin.b.data = np.array([0.5])
        out = lin(Tensor([[1.0, 1.0]], dtype=np.float64))
        assert np.allclose(out.data, [[2.5]])

    def test_batch_dims_preserved(self):
        store = make_store()
        lin = Linear(store, "l", 5, 7, SeededRng(1))
        out = lin(Tensor(np.zeros((2, 3, 5)), dtype=np.float64))
        assert out.shape == (2, 3, 7)

    def test_width_mismatch_rejected(self):
        store = make_store()
        lin = Linear(store, "l", 5, 7, SeededRng(1))
        with pytest.raises(ValueError, match="fan_in"):
            lin(Tensor(np.zeros((2, 4))))


def packed(x, mask):
    """A padded (B, T, D) array's valid rows in the packed order of its
    segments, and the segments."""
    seg = Segments(mask)
    return x.reshape(-1, x.shape[-1])[seg.rows], seg


def naive_attention(x, mask, heads, p):
    """Dense reference attention: explicit per-head loops, no autograd."""
    b, t, d = x.shape
    hd = d // heads
    q = x @ p["a.q.w"] + p["a.q.b"]
    k = x @ p["a.k.w"]
    v = x @ p["a.v.w"] + p["a.v.b"]
    out = np.zeros_like(x)
    for bi in range(b):
        for h in range(heads):
            sl = slice(h * hd, (h + 1) * hd)
            qs, ks, vs = q[bi, :, sl], k[bi, :, sl], v[bi, :, sl]
            scores = qs @ ks.T / np.sqrt(hd)
            for j in range(t):
                if not mask[bi, j]:
                    scores[:, j] = -np.inf
            w = np.zeros_like(scores)
            for i in range(t):
                row = scores[i]
                finite = np.isfinite(row)
                if finite.any():
                    e = np.exp(row[finite] - row[finite].max())
                    w[i, finite] = e / e.sum()
            out[bi, :, sl] = w @ vs
    return out @ p["a.out.w"] + p["a.out.b"]


class TestAttention:
    def _build(self, dim, heads, seed, dtype=np.float64):
        store = make_store(dtype)
        attn = MultiHeadSelfAttention(store, "a", dim, heads, SeededRng(seed))
        return store, attn

    def test_heads_must_divide(self):
        with pytest.raises(ValueError, match="divisible"):
            self._build(6, 4, 0)

    def test_matches_naive_reference(self):
        rng = SeededRng(21)
        store, attn = self._build(4, 2, 3)
        x = rng.normal((1, 3, 4))
        mask = np.array([[True, True, True]])
        xp, seg = packed(x, mask)
        got = attn(Tensor(xp, dtype=np.float64), seg).data
        want = naive_attention(x, mask, 2, {n: t.data for n, t in store.items()})
        assert np.allclose(got, packed(want, mask)[0], atol=1e-6)

    def test_matches_naive_reference_with_padding(self):
        # the packed rows of the padded layout attend as its valid rows do
        rng = SeededRng(22)
        store, attn = self._build(8, 2, 4)
        x = rng.normal((3, 5, 8))
        mask = np.array([[True] * 5, [True, True, True, False, False], [True, False, False, False, False]])
        xp, seg = packed(x, mask)
        got = attn(Tensor(xp, dtype=np.float64), seg).data
        want = naive_attention(x, mask, 2, {n: t.data for n, t in store.items()})
        assert np.allclose(got, packed(want, mask)[0], atol=1e-6)

    def test_single_position_weight_one(self):
        # with T=1 the softmax weight is exactly 1: output = out(v(x))
        rng = SeededRng(23)
        store, attn = self._build(4, 2, 5)
        x = rng.normal((2, 4))
        got = attn(Tensor(x, dtype=np.float64), Segments(np.ones((2, 1), dtype=bool))).data
        p = {n: t.data for n, t in store.items()}
        v = x @ p["a.v.w"] + p["a.v.b"]
        assert np.allclose(got, v @ p["a.out.w"] + p["a.out.b"], atol=1e-10)

    def test_all_pad_except_one_forces_attention(self):
        # the one valid position of a padded layout is the sequence's only
        # row, so it attends to itself alone; empty sequences add no row
        rng = SeededRng(24)
        store, attn = self._build(4, 2, 6)
        x = rng.normal((2, 4, 4))
        mask = np.array([[False, False, True, False], [False] * 4])
        got = attn(Tensor(packed(x, mask)[0], dtype=np.float64), Segments(mask)).data
        p = {n: t.data for n, t in store.items()}
        v = x[:1, 2] @ p["a.v.w"] + p["a.v.b"]
        assert np.allclose(got, v @ p["a.out.w"] + p["a.out.b"], atol=1e-10)

    @pytest.mark.parametrize("cls_only", (False, True))
    def test_sequences_do_not_see_each_other(self, cls_only):
        # a sequence's output is bit for bit the same alone and packed
        # between others whose content changes
        rng = SeededRng(26)
        store = make_store()
        attn = MultiHeadSelfAttention(store, "a", 4, 2, SeededRng(7), cls_only=cls_only)

        def run(xp, seg):
            return attn(Tensor(xp, dtype=np.float64), seg).data

        mask = np.array([[True, True, True, False], [True, True, False, False], [True] * 4])
        x = rng.normal((3, 4, 4))
        alone = run(x[1, :2], Segments(mask[1:2]))
        for scale in (1.0, 100.0):
            x[[0, 2]] = rng.normal((2, 4, 4), 0.0, scale)
            xp, seg = packed(x, mask)
            out = run(xp, seg)
            rows = [seg.rank[1]] if cls_only else seg.offsets[seg.rank[1]] + np.arange(2)
            assert out[rows].tobytes() == alone.tobytes()


class TestSegments:
    def test_layout_of_a_padded_mask(self):
        # shortest first, ties in sample order
        mask = np.array([[True, True, True], [False, False, False], [True, False, True], [True, False, False]])
        seg = Segments(mask)
        assert seg.offsets.tolist() == [0, 0, 1, 3, 6]
        assert seg.rank.tolist() == [3, 0, 2, 1]
        assert seg.offsets[seg.rank].tolist() == [3, 0, 1, 0]
        assert seg.rows.tolist() == [9, 6, 8, 0, 1, 2]
        assert seg.padded_rows == 12


class TestEncoderLayer:
    def test_eval_mode_deterministic(self):
        store = make_store(np.float32)
        layer = TransformerEncoderLayer(store, "e", 8, 2, 0.5, SeededRng(0))
        x = SeededRng(1).normal((10, 8)).astype(np.float32)
        seg = Segments(np.ones((2, 5), dtype=bool))
        with no_grad():
            a = layer(Tensor(x), seg, train=False).data
            b = layer(Tensor(x), seg, train=False).data
        assert np.array_equal(a, b)

    def test_zeroed_projections_leave_residual_path(self):
        store = make_store()
        layer = TransformerEncoderLayer(store, "e", 8, 2, 0.0, SeededRng(2))
        store["e.attn.out.w"].data[:] = 0.0
        store["e.attn.out.b"].data[:] = 0.0
        store["e.ff2.w"].data[:] = 0.0
        store["e.ff2.b"].data[:] = 0.0
        x = SeededRng(3).normal((4, 8))
        got = layer(Tensor(x, dtype=np.float64), Segments(np.ones((1, 4), dtype=bool))).data
        # both sublayers contribute zero: output is LN2(LN1(x))
        ones, zeros = Tensor(np.ones(8)), Tensor(np.zeros(8))
        want = ag.layer_norm(ag.layer_norm(Tensor(x, dtype=np.float64), ones, zeros), ones, zeros).data
        assert np.allclose(got, want, atol=1e-10)

    def test_gradcheck_through_encoder(self):
        for cls_only, rows in ((False, 7), (True, 2)):
            store = make_store()
            layer = TransformerEncoderLayer(store, "e", 8, 2, 0.0, SeededRng(4), cls_only=cls_only)
            xp, seg = packed(SeededRng(5).normal((2, 4, 8)), np.array([[True] * 4, [True, True, True, False]]))
            x = Tensor(xp, dtype=np.float64)
            weights = (np.arange(64.0).reshape(8, 8)[seg.rows] / 64.0)[:rows]

            def f():
                return ag.tsum(ag.mul(layer(x, seg, train=False), weights))

            err = grad_check(f, store.tensors(), eps=1e-5)   # criterion 1's step
            assert err < 1e-4, f"cls_only={cls_only}: rel err {err}"


class TestAdam:
    def test_first_step_closed_form(self):
        # closed form for the first update with g=1: mhat=1, vhat=1,
        # delta = -lr / (1 + eps)
        store = ParameterStore(dtype=np.float64)
        p = store.add("p", np.array([1.0]))
        opt = Adam(store, lr=1e-3)
        p.grad = np.array([1.0])
        opt.step()
        expected_delta = -1e-3 / (1.0 + 1e-8)
        assert np.isclose(p.data[0] - 1.0, expected_delta, rtol=1e-12)

    def test_zero_gradient_no_move(self):
        store = ParameterStore(dtype=np.float64)
        p = store.add("p", np.array([2.0, 3.0]))
        opt = Adam(store, lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        assert np.array_equal(p.data, np.array([2.0, 3.0]))

    def test_lr_zero_fixes_parameters(self):
        store = ParameterStore(dtype=np.float32)
        p = store.add("p", np.array([1.0, -1.0]))
        opt = Adam(store, lr=0.0)
        for _ in range(5):
            p.grad = np.array([0.5, -0.2], dtype=np.float32)
            opt.step()
        assert np.array_equal(p.data, np.array([1.0, -1.0], dtype=np.float32))

    def test_missing_gradient_rejected(self):
        store = ParameterStore(dtype=np.float32)
        store.add("p", np.zeros(2))
        store.add("q", np.zeros(2))
        store["p"].grad = np.zeros(2, dtype=np.float32)
        with pytest.raises(ValueError, match="no gradient"):
            Adam(store, lr=0.1).step()

    def test_deterministic_runs(self):
        def run():
            store = ParameterStore(dtype=np.float32)
            p = store.add("p", SeededRng(1).normal((4,)))
            opt = Adam(store, lr=1e-2)
            for i in range(10):
                p.grad = SeededRng(i).normal((4,)).astype(np.float32)
                opt.step()
            return p.data.copy()
        assert np.array_equal(run(), run())

    def test_state_round_trip(self):
        store = ParameterStore(dtype=np.float32)
        p = store.add("p", np.ones(3))
        opt = Adam(store, lr=1e-2)
        p.grad = np.full(3, 0.3, dtype=np.float32)
        opt.step()
        arrays, t = opt.state_arrays(), opt.t
        opt2 = Adam(store, lr=1e-2)
        opt2.load_state_arrays(arrays, t)
        assert np.array_equal(opt2.m["p"], opt.m["p"])
        assert opt2.t == 1


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_step_byte_equal_to_the_expression(self, dtype):
        # the update written as one numpy expression per line, temporaries
        # and all; the in-place blocked step must reproduce it bit for bit
        def reference_step(p, g, m, v, t, lr=3e-3, b1=0.9, b2=0.999, eps=1e-8):
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)

        shapes = {"big": (optim._BLOCK + 1234,), "w": (7, 5), "b": (3,), "s": ()}
        store = ParameterStore(dtype=dtype)
        for i, (name, shape) in enumerate(shapes.items()):
            store.add(name, SeededRng(i).normal(shape))
        ref = {name: [t.data.copy(), np.zeros(t.shape, dtype), np.zeros(t.shape, dtype)]
               for name, t in store.items()}
        opt = Adam(store, lr=3e-3)
        assert opt._scratch.shape == (2, optim._BLOCK)
        for step in range(1, 21):
            for i, (name, t) in enumerate(store.items()):
                g = SeededRng(100 * step + i).normal(t.shape).astype(dtype) * 10.0 ** (i - 2)
                if step == 5:
                    g = np.zeros(t.shape, dtype)
                t.grad = g
                reference_step(*ref[name][:1], g, *ref[name][1:], step)
            opt.step()
            for name, t in store.items():
                p, m, v = ref[name]
                assert t.data.dtype == dtype and opt.m[name].dtype == dtype
                assert t.data.tobytes() == p.tobytes(), (step, name)
                assert opt.m[name].tobytes() == m.tobytes() and opt.v[name].tobytes() == v.tobytes()

    def test_step_updates_the_arrays_in_place(self):
        store = ParameterStore(dtype=np.float32)
        p = store.add("p", np.ones((4, 3)))
        opt = Adam(store, lr=1e-2)
        data, m, v = p.data, opt.m["p"], opt.v["p"]
        p.grad = np.full((4, 3), 0.5, dtype=np.float32)
        opt.step()
        assert p.data is data and opt.m["p"] is m and opt.v["p"] is v
        assert np.all(data < 1.0) and np.all(m > 0) and np.all(v > 0)

    def test_non_contiguous_gradient_refused(self):
        store = ParameterStore(dtype=np.float64)
        p = store.add("p", np.zeros((3, 3)))
        p.grad = np.ones((3, 3)).T.copy(order="F")
        with pytest.raises(ValueError, match="C-contiguous"):
            Adam(store, lr=0.1).step()


class TestClipGlobalNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_norm_byte_equal_to_the_expression(self, dtype):
        gs = [SeededRng(s).normal(shape).astype(dtype) * 10.0 ** s
              for s, shape in enumerate([(5,), (40, 30), (), (optim._BLOCK + 7,)])]
        want = 0.0
        for g in gs:
            want += float(np.sum(g.astype(np.float64) ** 2))
        want = float(np.sqrt(want))
        assert clip_global_norm(gs, 1e30) == want

    def test_below_threshold_unchanged(self):
        g = [np.array([0.3, 0.4], dtype=np.float32)]
        norm = clip_global_norm(g, 1.0)
        assert np.isclose(norm, 0.5)
        assert np.array_equal(g[0], np.array([0.3, 0.4], dtype=np.float32))

    def test_scaling_hand_case(self):
        g = [np.array([3.0, 4.0])]
        norm = clip_global_norm(g, 1.0)
        assert np.isclose(norm, 5.0)
        assert np.allclose(g[0], [0.6, 0.8])

    def test_post_norm_bounded_and_direction_preserved(self):
        rng = SeededRng(9)
        for seed in range(10):
            gs = [SeededRng(seed).normal((5,)) * 3, SeededRng(seed + 100).normal((2, 3)) * 3]
            before = np.concatenate([g.ravel().copy() for g in gs])
            clip_global_norm(gs, 1.0)
            after = np.concatenate([g.ravel() for g in gs])
            assert np.sqrt((after ** 2).sum()) <= 1.0 + 1e-6
            cos = after @ before / (np.linalg.norm(after) * np.linalg.norm(before))
            assert abs(cos - 1.0) < 1e-6

    def test_nonpositive_max_norm_rejected(self):
        with pytest.raises(ValueError):
            clip_global_norm([np.ones(2)], 0.0)
