import tracemalloc

import numpy as np
import pytest
from helpers import finite_difference, reference_batch_norm, rel_err

import hybridseg.autodiff as ad
from hybridseg.errors import ContractViolation


def scalar_loss(t):
    return ad.tsum(ad.mul(t, t))


class TestGraphMechanics:
    def test_backward_without_graph_rejected(self):
        with pytest.raises(ContractViolation):
            ad.constant(3.0).backward()

    def test_backward_on_non_scalar_rejected(self):
        x = ad.parameter(np.ones(3))
        y = ad.mul(x, x)
        with pytest.raises(ContractViolation):
            y.backward()

    def test_diamond_graph_accumulates_both_paths(self):
        x = ad.parameter(2.0)
        y = ad.mul(ad.mul(x, x), x)  # x^3, dy/dx = 3x^2 = 12
        y.backward()
        assert x.grad == 12.0

    def test_rebuilt_graph_gives_fresh_gradients(self):
        # grads are recomputed per pass, never accumulated across passes
        x = ad.parameter(3.0)
        ad.mul(x, x).backward()
        first = x.grad.copy()
        ad.mul(x, x).backward()
        np.testing.assert_array_equal(x.grad, first)

    def test_backward_releases_graph(self):
        # loss = sum((relu(w x) c)^2): every node is released, interior
        # grads are dropped, and the leaves and the root keep theirs
        x, w = ad.parameter(np.arange(3.0)), ad.parameter(2.0)
        c = ad.constant(np.array([1.0, -1.0, 0.5]))
        h = ad.relu(ad.mul(x, w))
        inner = [h._parents[0], h, ad.mul(h, c)]
        loss = ad.tsum(ad.mul(inner[-1], inner[-1]))
        inner.append(loss._parents[0])
        loss.backward()
        for node in inner + [loss, x, w, c]:
            assert node._parents == () and node._backprop is None
        assert all(node.grad is None for node in inner)
        assert loss.grad == 1.0
        # 2 (w x c) c times w and x where w x > 0, i.e. at x = 1 and 2,
        # and 2 (w x c) times relu(w x) for c
        np.testing.assert_array_equal(x.grad, [0.0, 8.0, 4.0])
        assert w.grad == 1 * 4 + 2 * 2
        np.testing.assert_array_equal(c.grad, [0.0, -8.0, 16.0])
        with pytest.raises(ContractViolation):
            loss.backward()

    def test_backward_frees_the_chain_as_it_walks_it(self):
        # 16 rounds of 1 MiB activations: holding every interior gradient
        # until the walk ends would take about 33 MiB more
        x = ad.parameter(np.random.default_rng(0).normal(size=2 ** 17))
        y = x
        for _ in range(16):
            y = ad.relu(ad.mul(y, ad.constant(1.5)))
        loss = ad.tsum(y)
        del y
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20
        np.testing.assert_array_equal(x.grad, np.where(x.value > 0, 1.5 ** 16, 0.0))

    def test_constant_times_zero_gives_exact_zero_grads(self):
        x = ad.parameter(np.arange(4.0))
        loss = ad.mul(ad.tsum(x), ad.constant(0.0))
        loss.backward()
        np.testing.assert_array_equal(x.grad, np.zeros(4))

    def test_unreached_parameter_has_no_grad(self):
        x = ad.parameter(1.0)
        z = ad.parameter(1.0)
        loss = ad.mul(x, x)
        loss.backward()
        assert z.grad is None


# float32 conv2d and batch-norm passes against float64 on the same inputs,
# relative to the array's largest entry: 16 float32 epsilons, 1.9e-6, over a
# measured worst of 8.1e-7 (conv2d grad-x, 4x16x64x64 in, 32 out). A float64
# upcast fails the dtype check instead.
F32_TOL = 16 * np.finfo(np.float32).eps


def assert_tracks_float64(got, ref):
    np.testing.assert_allclose(got, ref, rtol=0, atol=F32_TOL * np.abs(ref).max())


def check_op_grad(build, arrays, rtol=1e-6, h=1e-6):
    """Compare analytic and central-difference gradients of scalar build()."""
    params = [ad.parameter(a) for a in arrays]
    loss = build(*params)
    loss.backward()
    fd = finite_difference(lambda: build(*[ad.constant(p.value) for p in params]).item(),
                           [p.value for p in params], h=h)
    for p, g in zip(params, fd):
        got = p.grad if p.grad is not None else np.zeros_like(p.value)
        err = np.array([rel_err(a, b) for a, b in zip(got.ravel(), g.ravel())])
        assert err.max() <= rtol, f"max grad error {err.max():.3g}"


class TestElementwiseGradients:
    def test_mul_broadcasting(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(1, 4))
        c = rng.normal(size=())
        check_op_grad(lambda x, y, z: ad.tsum(ad.mul(ad.mul(x, y), ad.mul(x, z))),
                      [a, b, c], rtol=1e-5)

    def test_relu(self):
        # keep coordinates away from the kink; finite differences straddle it
        x = np.linspace(-2, 2, 9) + 0.011
        check_op_grad(lambda t: ad.tsum(ad.mul(ad.relu(t), t)), [x], rtol=1e-5)

    def test_relu_subgradient_at_zero_is_zero(self):
        x = ad.parameter(np.array([0.0]))
        ad.tsum(ad.relu(x)).backward()
        np.testing.assert_array_equal(x.grad, [0.0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_log1p_exp_keeps_dtype_and_matches_logaddexp(self, dtype):
        v = np.linspace(-120.0, 120.0, 2001).astype(dtype)
        out = ad.log1p_exp(v)
        assert out.dtype == dtype
        # the float32 exp and log1p round once each: at most 2.1 ulps measured
        want = np.logaddexp(0.0, v.astype(np.float64))
        assert np.all(np.abs(out - want) <= 3 * np.spacing(want.astype(dtype)))


def naive_conv2d(x, w, b):
    n, c, hh, ww = x.shape
    co, ci, kh, kw = w.shape
    p = kh // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    out = np.zeros((n, co, hh, ww))
    for nn in range(n):
        for o in range(co):
            for i in range(hh):
                for j in range(ww):
                    acc = b[o]
                    for cc in range(ci):
                        for u in range(kh):
                            for v in range(kw):
                                acc += w[o, cc, u, v] * xp[nn, cc, i + u, j + v]
                    out[nn, o, i, j] = acc
    return out


def loop_conv2d_grad_w(x, g, k):
    """grad-w of conv2d for cotangent g, one kernel tap at a time."""
    p = k // 2
    hh, ww = x.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    gw = np.zeros((g.shape[1], x.shape[1], k, k))
    for o in range(g.shape[1]):
        for cc in range(x.shape[1]):
            for u in range(k):
                for v in range(k):
                    gw[o, cc, u, v] = np.sum(g[:, o] * xp[:, cc, u:u + hh, v:v + ww])
    return gw


def loop_conv2d_grad_x(w, g):
    """grad-x of conv2d for cotangent g: each output pixel scatters its
    gradient back over the window it read."""
    co, ci, k, _ = w.shape
    p = k // 2
    n, _, hh, ww = g.shape
    gxp = np.zeros((n, ci, hh + 2 * p, ww + 2 * p))
    for o in range(co):
        for cc in range(ci):
            for u in range(k):
                for v in range(k):
                    gxp[:, cc, u:u + hh, v:v + ww] += w[o, cc, u, v] * g[:, o]
    return gxp[:, :, p:p + hh, p:p + ww]


# heights below one block of rows, equal to it, a multiple of it and a
# multiple plus one, each with a width of its own; then 37x37, whose
# height (a prime) no block height above 1 divides
BLOCK_CASES = [(h, h + 3, k)
               for h in (max(1, ad.BLOCK_ROWS - 3), ad.BLOCK_ROWS, 2 * ad.BLOCK_ROWS,
                         2 * ad.BLOCK_ROWS + 1)
               for k in (1, 3, 5, 7)] + [(37, 37, 5)]


class TestConv2d:
    @pytest.mark.parametrize("h,wd,k", BLOCK_CASES)
    def test_blocked_passes_match_loop_references(self, h, wd, k):
        rng = np.random.default_rng(50 + 10 * h + k)
        x = rng.normal(size=(3, 2, h, wd))
        w = rng.normal(size=(3, 2, k, k))
        b = rng.normal(size=3)
        g = rng.normal(size=(3, 3, h, wd))
        xt, wt, bt = ad.parameter(x), ad.parameter(w), ad.parameter(b)
        out = ad.conv2d(xt, wt, bt)
        ad.tsum(ad.mul(out, ad.constant(g))).backward()
        for got, ref in ((out.value, naive_conv2d(x, w, b)),
                         (wt.grad, loop_conv2d_grad_w(x, g, k)),
                         (xt.grad, loop_conv2d_grad_x(w, g)),
                         (bt.grad, g.sum(axis=(0, 2, 3)))):
            assert got.shape == ref.shape and got.dtype == np.float64
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("shape,co,k", [((2, 3, 5, 8), 4, 1), ((2, 3, 8, 11), 4, 3),
                                            ((3, 2, 17, 20), 3, 5), ((4, 16, 64, 64), 32, 3)])
    def test_float32_passes_track_float64(self, shape, co, k):
        # w and b are float64 parameters, cast to the input's dtype; the
        # reference is the float64 op on the same float32-rounded x and g
        rng = np.random.default_rng(sum(shape) + k)
        x = rng.normal(size=shape).astype(np.float32)
        w, b = rng.normal(size=(co, shape[1], k, k)), rng.normal(size=co)
        g = rng.normal(size=(shape[0], co) + shape[2:]).astype(np.float32)
        runs = []
        for dtype in (np.float32, np.float64):
            xt = ad.Tensor(x.astype(dtype), requires_grad=True)
            wt, bt = ad.parameter(w), ad.parameter(b)
            out = ad.conv2d(xt, wt, bt)
            ad.tsum(ad.mul(out, ad.constant(g.astype(dtype)))).backward()
            runs.append((out.value, xt.grad, wt.grad, bt.grad))
        for got, ref in zip(*runs):
            assert got.dtype == np.float32
            assert_tracks_float64(got, ref)

    @pytest.mark.parametrize("k", [3, 5])
    def test_column_blocks_stay_inside_their_channel(self, k):
        # columns come through a strided view, which numpy does not bounds-check;
        # with NaN after each channel, a window that reads past its channel's
        # slack shows up as a non-finite column entry
        h, wd = 2 * ad.BLOCK_ROWS + 1, 6
        flat = ad._flat_pad(np.random.default_rng(70 + k).normal(size=(2, 3, h, wd)), k // 2)
        fenced = np.full(flat.shape[:2] + (flat.shape[2] + 64,), np.nan)
        fenced[..., :flat.shape[2]] = flat
        # each block reuses one buffer, so check it before asking for the next
        blocks = ad._column_blocks(fenced[..., :flat.shape[2]], k, h, wd + k - 1)
        assert all(np.isfinite(cols).all() for _, _, cols in blocks)

    @pytest.mark.parametrize("k", [1, 3])
    def test_operands_and_incoming_gradient_unchanged(self, k):
        rng = np.random.default_rng(60 + k)
        x = rng.normal(size=(2, 3, 9, 5))
        w = rng.normal(size=(4, 3, k, k))
        xt, wt, bt = ad.parameter(x), ad.parameter(w), ad.parameter(rng.normal(size=4))
        out = ad.conv2d(xt, wt, bt)
        # tsum hands its input a read-only view of one gradient array, so a
        # write into the incoming gradient would raise
        ad.tsum(out).backward()
        np.testing.assert_array_equal(xt.value, x)
        np.testing.assert_array_equal(wt.value, w)
        np.testing.assert_array_equal(bt.grad, np.full(4, 2 * 9 * 5.0))

    def test_forward_matches_naive_loops(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 5, 4))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = ad.conv2d(ad.constant(x), ad.constant(w), ad.constant(b))
        np.testing.assert_allclose(out.value, naive_conv2d(x, w, b), atol=1e-12)

    def test_1x1_is_channel_projection(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 3, 4, 4))
        w = rng.normal(size=(2, 3, 1, 1))
        b = np.zeros(2)
        out = ad.conv2d(ad.constant(x), ad.constant(w), ad.constant(b))
        expect = np.einsum("oc,nchw->nohw", w[:, :, 0, 0], x)
        np.testing.assert_allclose(out.value, expect, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 2, 4, 3))
        w = rng.normal(size=(3, 2, 3, 3)) * 0.5
        b = rng.normal(size=3)
        weight = rng.normal(size=(2, 3, 4, 3))
        check_op_grad(
            lambda xx, ww, bb: ad.tsum(ad.mul(ad.conv2d(xx, ww, bb), ad.constant(weight))),
            [x, w, b], rtol=1e-5)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_forward_matches_naive_loops_for_each_kernel_size(self, k, n):
        rng = np.random.default_rng(20 + k + n)
        x = rng.normal(size=(n, 2, 5, 7))
        w = rng.normal(size=(3, 2, k, k))
        b = rng.normal(size=3)
        out = ad.conv2d(ad.constant(x), ad.constant(w), ad.constant(b))
        np.testing.assert_allclose(out.value, naive_conv2d(x, w, b), atol=1e-12)

    @pytest.mark.parametrize("k", [1, 5])
    def test_gradients_for_kernel_size(self, k):
        rng = np.random.default_rng(30 + k)
        x = rng.normal(size=(3, 2, 5, 4))
        w = rng.normal(size=(3, 2, k, k)) * 0.5
        b = rng.normal(size=3)
        weight = rng.normal(size=(3, 3, 5, 4))
        check_op_grad(
            lambda xx, ww, bb: ad.tsum(ad.mul(ad.conv2d(xx, ww, bb), ad.constant(weight))),
            [x, w, b], rtol=1e-5)

    def test_batch_member_matches_the_image_alone(self):
        rng = np.random.default_rng(40)
        x = rng.normal(size=(4, 3, 6, 9))
        w = ad.constant(rng.normal(size=(5, 3, 3, 3)))
        b = ad.constant(rng.normal(size=5))
        batch = ad.conv2d(ad.constant(x), w, b).value
        for i in range(len(x)):
            alone = ad.conv2d(ad.constant(x[i:i + 1]), w, b).value
            np.testing.assert_array_equal(batch[i:i + 1], alone)

    def test_even_kernel_rejected(self):
        with pytest.raises(ContractViolation):
            ad.conv2d(ad.constant(np.zeros((1, 1, 4, 4))),
                      ad.constant(np.zeros((1, 1, 2, 2))))

    @pytest.mark.parametrize("shape", [(1,), (4,), (3, 1)])
    def test_bias_of_another_length_rejected(self, shape):
        with pytest.raises(ContractViolation, match="bias shape"):
            ad.conv2d(ad.constant(np.zeros((1, 2, 4, 4))),
                      ad.constant(np.zeros((3, 2, 3, 3))), ad.parameter(np.zeros(shape)))


class TestBatchNorm:
    def test_training_forward_normalizes(self):
        rng = np.random.default_rng(11)
        x = rng.normal(loc=3.0, scale=2.0, size=(4, 3, 5, 5))
        rm, rv = np.zeros(3), np.ones(3)
        out = ad.batch_norm(ad.constant(x), ad.constant(np.ones(3)),
                            ad.constant(np.zeros(3)), rm, rv, training=True)
        np.testing.assert_allclose(out.value.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.value.var(axis=(0, 2, 3)), 1.0, atol=1e-4)

    def test_running_stats_updated_only_in_training(self):
        x = np.random.default_rng(12).normal(size=(2, 2, 3, 3))
        rm, rv = np.zeros(2), np.ones(2)
        ad.batch_norm(ad.constant(x), ad.constant(np.ones(2)), ad.constant(np.zeros(2)),
                      rm, rv, training=False)
        np.testing.assert_array_equal(rm, 0.0)
        ad.batch_norm(ad.constant(x), ad.constant(np.ones(2)), ad.constant(np.zeros(2)),
                      rm, rv, training=True)
        np.testing.assert_allclose(rm, 0.1 * x.mean(axis=(0, 2, 3)), atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 2, 4, 4))
        gamma = rng.uniform(0.5, 1.5, size=2)
        beta = rng.normal(size=2)
        weight = rng.normal(size=(3, 2, 4, 4))
        rm = rng.normal(size=2)
        rv = rng.uniform(0.5, 2.0, size=2)

        def build(xx, gg, bb):
            out = ad.batch_norm(xx, gg, bb, rm.copy(), rv.copy(), training=True)
            return ad.tsum(ad.mul(out, ad.constant(weight)))

        check_op_grad(build, [x, gamma, beta], rtol=2e-5)
        # x a constant: only gamma and beta need gradients
        check_op_grad(lambda gg, bb: build(ad.constant(x), gg, bb), [gamma, beta], rtol=2e-5)

    @staticmethod
    def bn_case(seed, offset):
        """x, gamma, beta, running mean and var and a cotangent; with
        ``offset`` channel 1 of x (and its running mean) sits at 1e3 with
        unit spread."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 4, 5, 6))
        rm = rng.normal(size=4)
        if offset:
            x[:, 1] += 1e3
            rm[1] += 1e3
        return (x, rng.uniform(0.5, 1.5, size=4), rng.normal(size=4), rm,
                rng.uniform(0.5, 2.0, size=4), rng.normal(size=x.shape))

    @pytest.mark.parametrize("offset", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("training", [True, False])
    def test_matches_reference(self, training, seed, offset):
        x, gamma, beta, rm, rv, g = self.bn_case(seed, offset)
        want = reference_batch_norm(x, gamma, beta, rm, rv, training, g)
        xt, gt, bt = ad.parameter(x), ad.parameter(gamma), ad.parameter(beta)
        rm, rv = rm.copy(), rv.copy()
        out = ad.batch_norm(xt, gt, bt, rm, rv, training=training)
        pairs = [(out.value, want[0]), (rm, want[4]), (rv, want[5])]
        if training:  # eval mode records no graph
            ad.tsum(ad.mul(out, ad.constant(g))).backward()
            pairs += zip((xt.grad, gt.grad, bt.grad), want[1:4])
        for got, ref in pairs:
            assert got.dtype == np.float64
            # relative to the array's largest entry: elementwise rtol means
            # nothing for entries that cancel to near zero
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("shape", [(3, 4, 5, 6), (2, 3, 9, 7), (4, 32, 64, 64)])
    def test_float32_training_tracks_float64(self, shape):
        # gamma and beta are float64 parameters, cast to the input's dtype,
        # and the running statistics stay float64; the reference is the
        # float64 op on the same float32-rounded x and g. The last shape is
        # a stage of a 64x64 training batch, 16384 pixels per channel: a
        # sequential float32 sum for the mean or for sum(g * xhat) fails.
        rng = np.random.default_rng(sum(shape))
        c = shape[1]
        x = rng.normal(loc=0.5, size=shape).astype(np.float32)
        gamma, beta = rng.uniform(0.5, 1.5, size=c), rng.normal(size=c)
        g = rng.normal(size=shape).astype(np.float32)
        runs = []
        for dtype in (np.float32, np.float64):
            xt = ad.Tensor(x.astype(dtype), requires_grad=True)
            gt, bt = ad.parameter(gamma), ad.parameter(beta)
            rm, rv = np.zeros(c), np.ones(c)
            out = ad.batch_norm(xt, gt, bt, rm, rv, training=True)
            ad.tsum(ad.mul(out, ad.constant(g.astype(dtype)))).backward()
            runs.append(((out.value, xt.grad, gt.grad, bt.grad), (rm, rv)))
        (got, got_stats), (ref, ref_stats) = runs
        for a, want in zip(got, ref):
            assert a.dtype == np.float32
            assert_tracks_float64(a, want)
        for a, want in zip(got_stats, ref_stats):
            assert a.dtype == np.float64
            assert_tracks_float64(a, want)

    def test_input_and_incoming_gradient_unchanged(self):
        x, gamma, beta, rm, rv, _ = self.bn_case(3, offset=False)
        xt, gt, bt = ad.parameter(x), ad.parameter(gamma), ad.parameter(beta)
        out = ad.batch_norm(xt, gt, bt, rm, rv, training=True)
        np.testing.assert_array_equal(xt.value, x)
        # tsum hands its input a read-only view of one gradient array, so a
        # write into the incoming gradient would raise
        ad.tsum(out).backward()
        np.testing.assert_array_equal(bt.grad, np.full(4, x[:, 0].size))
        np.testing.assert_array_equal(xt.value, x)

    def test_eval_is_forward_only(self):
        x, gamma, beta, rm, rv, _ = self.bn_case(4, offset=False)
        xt, gt, bt = ad.parameter(x), ad.parameter(gamma), ad.parameter(beta)
        out = ad.batch_norm(xt, gt, bt, rm, rv, training=False)
        np.testing.assert_array_equal(xt.value, x)
        assert not out.requires_grad
        with pytest.raises(ContractViolation, match="no recorded graph"):
            ad.tsum(out).backward()

    @pytest.mark.parametrize("offset", [False, True])
    def test_affine_matches_reference_eval(self, offset):
        x, gamma, beta, rm, rv, g = self.bn_case(5, offset)
        scale, shift = ad.batch_norm_affine(gamma, beta, rm, rv)
        got = x * scale[:, None, None] + shift[:, None, None]
        want = reference_batch_norm(x, gamma, beta, rm, rv, False, g)[0]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_non_4d_input_rejected(self):
        with pytest.raises(ContractViolation, match="NCHW"):
            ad.batch_norm(ad.constant(np.zeros((2, 3, 4))), ad.parameter(np.ones(3)),
                          ad.parameter(np.zeros(3)), np.zeros(3), np.ones(3), training=True)

    @pytest.mark.parametrize("which", ["gamma", "beta", "running_mean", "running_var"])
    def test_per_channel_argument_of_another_length_rejected(self, which):
        args = {"gamma": np.ones(3), "beta": np.zeros(3),
                "running_mean": np.zeros(3), "running_var": np.ones(3)}
        args[which] = args[which][:2]
        with pytest.raises(ContractViolation, match=f"{which} shape"):
            ad.batch_norm(ad.constant(np.zeros((2, 3, 4, 4))), ad.parameter(args["gamma"]),
                          ad.parameter(args["beta"]), args["running_mean"],
                          args["running_var"], training=False)
