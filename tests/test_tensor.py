"""Autodiff substrate: forward oracles, gradient checks, optimizer behavior."""

import weakref

import numpy as np
import pytest
from rangeloop.selfcheck import check_grads

from rangeloop import errors
from rangeloop import tensor as T
from rangeloop.optim import Adam


def _taped(op, arrays, g):
    """op's output and every input's gradient for the loss sum(op(...) * g),
    with the number of nodes op itself recorded."""
    inputs = [T.Tensor(a, requires_grad=True) for a in arrays]
    with T.Tape() as tape:
        y = op(*inputs)
        nodes = len(tape)
        loss = T.tsum(T.mul(y, T.Tensor(g)))
    T.backward(loss, tape)
    return y.data, [t.grad for t in inputs], nodes


class TestLinear:
    def test_identity(self):
        m = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(T.linear(m, T.Tensor(np.eye(2))).data, m.data)

    def test_hand_dot(self):
        a = T.Tensor([[1.0, 2.0]])
        b = T.Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(T.linear(a, b).data, [[11.0]])

    def test_zero_annihilates(self):
        rng = np.random.default_rng(42)
        z = T.Tensor(np.zeros((2, 3)))
        r = T.Tensor(rng.standard_normal((3, 4)))
        np.testing.assert_array_equal(T.linear(z, r).data, np.zeros((2, 4)))

    def test_shape_mismatch_names_both_shapes(self):
        a = T.Tensor(np.zeros((2, 3)))
        b = T.Tensor(np.zeros((4, 5)))
        with pytest.raises(errors.ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
            T.linear(a, b)

    def test_rejects_mismatched_bias(self):
        with pytest.raises(errors.ShapeError, match=r"bias \(3,\)"):
            T.linear(np.zeros((2, 3)), np.zeros((3, 4)), np.zeros(3))

    def test_one_node_equal_to_gemm_plus_bias_bitwise(self):
        # the composition linear was before it became one node: reshape,
        # GEMM, reshape and a trailing-bias add, each with its own adjoint
        rng = np.random.default_rng(42)
        for lead in ((5,), (2, 3), (3, 1, 2)):
            x = rng.standard_normal(lead + (4,))
            w = rng.standard_normal((4, 6))
            b = rng.standard_normal(6)
            g = rng.standard_normal(lead + (6,))
            y, (gx, gw, gb), nodes = _taped(T.linear, [x, w, b], g)
            assert nodes == 1
            x2, g2 = x.reshape(-1, 4), g.reshape(-1, 6)
            assert np.array_equal(y, (x2 @ w).reshape(lead + (6,)) + b)
            assert np.array_equal(gx, (g2 @ w.T).reshape(x.shape))
            assert np.array_equal(gw, x2.T @ g2)
            assert np.array_equal(gb, g.sum(axis=tuple(range(len(lead)))))
            y0, (gx0, gw0), nodes = _taped(T.linear, [x, w], g)
            assert nodes == 1
            assert np.array_equal(y0, (x2 @ w).reshape(lead + (6,)))
            assert np.array_equal(gx0, gx) and np.array_equal(gw0, gw)


class TestConvVertical:
    def test_hand_window_sum(self):
        x = T.Tensor(np.ones((1, 1, 4, 3)))
        w = T.Tensor(np.ones((1, 1, 2, 1)) / 2.0)
        out = T.conv_vertical(x, w, stride_h=2)
        np.testing.assert_allclose(out.data, np.ones((1, 1, 2, 3)))

    def test_identity_kernel(self):
        rng = np.random.default_rng(42)
        x = T.Tensor(rng.standard_normal((2, 3, 5, 4)))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        out = T.conv_vertical(x, T.Tensor(w), stride_h=1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_column_shift_passes_through(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((1, 2, 6, 9))
        w = rng.standard_normal((4, 2, 3, 1))
        base = T.conv_vertical(T.Tensor(x), T.Tensor(w), stride_h=2).data
        for s in (1, 3, 7):
            shifted = T.conv_vertical(
                T.Tensor(np.roll(x, s, axis=3)), T.Tensor(w), stride_h=2
            ).data
            np.testing.assert_array_equal(shifted, np.roll(base, s, axis=3))

    def test_kernel_taller_than_input_rejected(self):
        x = T.Tensor(np.zeros((1, 1, 3, 2)))
        w = T.Tensor(np.zeros((1, 1, 4, 1)))
        with pytest.raises(errors.ConfigError):
            T.conv_vertical(x, w, stride_h=1)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(42)
        for k, s in [(1, 1), (2, 2), (3, 1), (3, 2)]:
            x = rng.standard_normal((2, 3, 7, 4))
            w = rng.standard_normal((2, 3, k, 1))
            out = T.conv_vertical(T.Tensor(x), T.Tensor(w), stride_h=s).data
            h_out = (7 - k) // s + 1
            want = np.zeros((2, 2, h_out, 4))
            for i in range(h_out):
                for j in range(k):
                    want[:, :, i, :] += np.einsum(
                        "oc,bcw->bow", w[:, :, j, 0], x[:, :, i * s + j, :]
                    )
            np.testing.assert_allclose(out, want, atol=1e-12)


class TestConv1dCircular:
    def test_identity_width_one(self):
        x = T.Tensor([[[1.0, 0.0, 0.0, 0.0]]])
        w = T.Tensor([[[1.0]]])
        np.testing.assert_array_equal(T.conv1d_circular(x, w).data, x.data)

    def test_centered_tap_is_identity(self):
        x = T.Tensor([[[1.0, 0.0, 0.0, 0.0]]])
        w = T.Tensor([[[0.0, 1.0, 0.0]]])
        np.testing.assert_array_equal(
            T.conv1d_circular(x, w).data, [[[1.0, 0.0, 0.0, 0.0]]]
        )

    def test_leading_tap_wraps(self):
        x = T.Tensor([[[1.0, 0.0, 0.0, 0.0]]])
        w = T.Tensor([[[1.0, 0.0, 0.0]]])
        np.testing.assert_array_equal(
            T.conv1d_circular(x, w).data, [[[0.0, 0.0, 0.0, 1.0]]]
        )

    def test_commutes_with_rotation(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 3, 8))
        w = rng.standard_normal((4, 3, 5))
        base = T.conv1d_circular(T.Tensor(x), T.Tensor(w)).data
        for s in (1, 3, 5):
            shifted = T.conv1d_circular(
                T.Tensor(np.roll(x, s, axis=2)), T.Tensor(w)
            ).data
            np.testing.assert_allclose(shifted, np.roll(base, s, axis=2), atol=1e-12)

    def test_even_kernel_rejected(self):
        with pytest.raises(errors.ConfigError):
            T.conv1d_circular(T.Tensor(np.zeros((1, 1, 4))), T.Tensor(np.zeros((1, 1, 2))))

    @pytest.mark.parametrize("k,m", [(1, 7), (3, 7), (5, 7), (5, 2)])
    def test_reverse_is_flipped_conv_of_flipped_input(self, k, m):
        # mirrored taps: each unfold row holds the flipped convolution's
        # values in the same column order, so the two agree bit for bit
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 3, m))
        w, b = T.Tensor(rng.standard_normal((4, 3, k))), T.Tensor(rng.standard_normal(4))
        got = T.conv1d_circular(T.Tensor(x), w, b, reverse=True).data
        want = T.conv1d_circular(T.Tensor(x[:, :, ::-1]), w, b).data[:, :, ::-1]
        np.testing.assert_array_equal(got, want)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(42)
        for k in (1, 3, 5):
            x = rng.standard_normal((2, 3, 7))
            w = rng.standard_normal((2, 3, k))
            out = T.conv1d_circular(T.Tensor(x), T.Tensor(w)).data
            r = (k - 1) // 2
            want = np.zeros((2, 2, 7))
            for m in range(7):
                for j in range(k):
                    want[:, :, m] += np.einsum(
                        "oc,bc->bo", w[:, :, j], x[:, :, (m + r - j) % 7]
                    )
            np.testing.assert_allclose(out, want, atol=1e-12)


def _channels_last(a):
    """``a`` as a view of memory whose axis 1 is innermost."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 1, -1)), -1, 1)


class TestConvLayout:
    """The convolution node has one memory layout, channels innermost: its
    output keeps channels innermost, and the output and all three gradients
    are the same bits whether the input, or an output gradient handed to
    the adjoint, has channels first or last in memory."""

    CASES = {  # op, x shape, w shape
        "conv1d_circular": (T.conv1d_circular, (2, 64, 128), (64, 64, 3)),
        "conv_vertical": (lambda x, w, b: T.conv_vertical(x, w, b, stride_h=2),
                          (2, 16, 8, 300), (32, 16, 3, 1)),
    }

    @pytest.mark.parametrize("batch", [1, 2])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_channels_last_input_same_bits(self, name, batch):
        op, x_shape, w_shape = self.CASES[name]
        rng = np.random.default_rng(42)
        x = rng.standard_normal((batch,) + x_shape[1:])
        w, b = rng.standard_normal(w_shape), rng.standard_normal(w_shape[0])
        g = rng.standard_normal(op(x, w, b).shape)
        outs = []
        for xd in (x, _channels_last(x)):
            y, grads, _ = _taped(op, [xd, w, b], g)
            assert y.strides[1] == y.itemsize
            outs.append([y] + grads)
        for got, want in zip(*outs):
            assert np.array_equal(got, want)
        # a tape hands the adjoint the gradient its consumer made; called
        # directly, it takes either layout, a batch-1 one included
        with T.Tape() as tape:
            op(*[T.Tensor(a, requires_grad=True) for a in (x, w, b)])
        for gd in (g, _channels_last(g)):
            for got, want in zip(tape._nodes[0].backward(gd), outs[0][1:]):
                assert np.array_equal(got, want)


class TestMaxpool1dCircular:
    @pytest.mark.parametrize("m, k", [(9, 3), (9, 5), (2, 5), (1, 3)])
    def test_equals_max_over_rolled_stack(self, m, k):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 3, m))
        x[0, 0, 0], x[1, 2, -1] = np.nan, -0.0
        r = (k - 1) // 2
        want = np.stack([np.roll(x, -d, axis=-1) for d in range(-r, r + 1)]).max(axis=0)
        got = T.maxpool1d_circular(T.Tensor(x), k).data
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("m, k", [(9, 3), (9, 5), (2, 5), (1, 3), (12, 7)])
    def test_gradient_routes_as_stacked_argmax(self, m, k):
        # ties everywhere (few distinct values, and -0.0 against +0.0) and
        # NaNs: the gradient goes where np.argmax over the stack points,
        # the smallest offset on a tie and the first NaN
        rng = np.random.default_rng(42)
        x = rng.integers(-1, 2, size=(2, 3, m)).astype(float)
        x[x == 0.0] = rng.choice([0.0, -0.0], size=int(np.sum(x == 0.0)))
        x[0, 0, 0], x[1, 2, m // 2] = np.nan, np.nan
        x[0, 1, :] = np.nan
        g = rng.standard_normal(x.shape)
        r = (k - 1) // 2
        stack = np.stack([np.roll(x, -d, axis=-1) for d in range(-r, r + 1)])
        winner = np.argmax(stack, axis=0)
        want_gx = np.zeros(x.shape)
        for i, d in enumerate(range(-r, r + 1)):
            want_gx += np.roll(np.where(winner == i, g, 0.0), d, axis=-1)
        y, (gx,), nodes = _taped(lambda a: T.maxpool1d_circular(a, k), [x], g)
        assert nodes == 1
        assert np.array_equal(y, stack.max(axis=0), equal_nan=True)
        assert np.array_equal(gx, want_gx)
        assert np.array_equal(np.signbit(gx), np.signbit(want_gx))


class TestActivations:
    def test_silu_at_zero(self):
        x = T.Tensor([0.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.tsum(T.silu(x))
        T.backward(loss, tape)
        assert float(loss.data) == 0.0
        np.testing.assert_allclose(x.grad, [0.5])

    def test_softplus_closed_forms(self):
        out = T.softplus(T.Tensor([0.0, 50.0]))
        np.testing.assert_allclose(out.data[0], np.log(2.0), atol=1e-12)
        assert abs(out.data[1] - 50.0) < 1e-12

    def test_softplus_no_overflow(self):
        out = T.softplus(T.Tensor([1000.0]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1000.0])

    def test_sigmoid_symmetry(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(50) * 20.0
        s = T._sigmoid_np(x)
        s_neg = T._sigmoid_np(-x)
        np.testing.assert_allclose(s + s_neg, np.ones(50), atol=1e-12)

    def test_relu_halves_plane(self):
        out = T.relu(T.Tensor([-2.0, 0.0, 3.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])


def _masked_sigmoid(x):
    """The sigmoid as two masked halves, each evaluated on its own subset:
    the oracle ``_sigmoid_np`` must equal bit for bit."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _activation_grid(with_nonfinite=True):
    special = np.array([0.0, 1e-300, 1.0, 710.0, 746.0, 800.0])
    parts = [special, -special]
    if with_nonfinite:
        parts.append(np.array([np.inf, -np.inf, np.nan]))
    rng = np.random.default_rng(42)
    for scale in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 800.0):
        parts.append(rng.standard_normal(500) * scale)
    return np.concatenate(parts)


class TestStableActivations:
    def test_sigmoid_equals_masked_halves_bit_for_bit(self):
        x = _activation_grid()
        with np.errstate(all="ignore"):
            want = _masked_sigmoid(x)
        got = T._sigmoid_np(x)
        assert np.array_equal(np.isnan(got), np.isnan(x))
        finite = ~np.isnan(x)
        assert np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64))

    def test_sigmoid_is_a_new_array(self):
        x = np.array([-1.0, 0.0, 2.0])
        s = T._sigmoid_np(x)
        assert not np.shares_memory(s, x)
        np.testing.assert_array_equal(x, [-1.0, 0.0, 2.0])

    def test_softplus_matches_logaddexp(self):
        x = _activation_grid()
        got = T.softplus(T.Tensor(x)).data
        with np.errstate(invalid="ignore"):
            want = np.logaddexp(0.0, x)
        assert np.array_equal(np.isnan(got), np.isnan(x))
        fin = np.isfinite(x)
        rel = np.abs(got[fin] - want[fin]) / np.maximum(np.abs(want[fin]), np.finfo(float).tiny)
        assert rel.max() < 5e-16
        edges = np.array([800.0, -800.0, np.inf, -np.inf])
        np.testing.assert_array_equal(T.softplus(T.Tensor(edges)).data,
                                      [800.0, 0.0, np.inf, 0.0])

    def test_no_floating_point_error_on_finite_inputs(self):
        x = _activation_grid(with_nonfinite=False)
        with np.errstate(all="raise"):
            T._sigmoid_np(x)
            T.softplus(T.Tensor(x))

    def test_silu_gradient_formula(self):
        x = _activation_grid(with_nonfinite=False)
        g = np.random.default_rng(42).standard_normal(x.shape)
        xt = T.Tensor(x, requires_grad=True)
        with T.Tape() as tape:
            loss = T.tsum(T.mul(T.silu(xt), T.Tensor(g)))
        T.backward(loss, tape)
        with np.errstate(all="ignore"):
            s = _masked_sigmoid(x)
            want = g * (s + x * s * (1.0 - s))
        assert np.array_equal(xt.grad, want)


class TestBackward:
    def test_sum_gives_ones(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with T.Tape() as tape:
            loss = T.tsum(x)
        T.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.tsum(T.mul(x, x))
        T.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(errors.ContractError):
            T.backward(y, tape)

    def test_fanout_accumulates_exactly(self):
        x = T.Tensor([1.5, -2.0, 0.25], requires_grad=True)

        with T.Tape() as tape:
            loss = T.add(T.tsum(T.mul(x, x)), T.tsum(T.mul(x, T.Tensor([3.0, 3.0, 3.0]))))
        T.backward(loss, tape)
        combined = x.grad.copy()

        x.grad = None
        with T.Tape() as tape:
            loss = T.tsum(T.mul(x, x))
        T.backward(loss, tape)
        gf = x.grad.copy()

        x.grad = None
        with T.Tape() as tape:
            loss = T.tsum(T.mul(x, T.Tensor([3.0, 3.0, 3.0])))
        T.backward(loss, tape)
        gg = x.grad.copy()

        np.testing.assert_array_equal(combined, gf + gg)

    def test_no_tape_records_nothing(self):
        x = T.Tensor([1.0], requires_grad=True)
        y = T.mul(x, x)
        assert y.requires_grad is False


def _reference_backward(loss, tape):
    """The plain sweep: every first gradient is a sum into zeros, and the
    tape keeps every node and every intermediate gradient."""
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape._nodes):
        g = node.out.grad
        if g is None:
            continue
        for inp, gi in zip(node.inputs, node.backward(g)):
            if gi is None or not inp.requires_grad:
                continue
            if inp.grad is None:
                inp.grad = np.zeros_like(inp.data)
            inp.grad += gi


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestSweep:
    """``backward`` frees the tape as it sweeps and takes first contributions
    as gradient buffers; gradients stay those of the plain sweep."""

    @staticmethod
    def _both(build, arrays):
        """Leaf gradients of ``build(*leaves) -> (loss, tensors)`` from the
        sweep and from the reference, each on its own tape; also checks
        that the sweep changed no tensor's ``.data``."""
        out = []
        for sweep in (T.backward, _reference_backward):
            leaves = [T.Tensor(a.copy(), requires_grad=True) for a in arrays]
            with T.Tape() as tape:
                loss, tensors = build(*leaves)
            seen = leaves + tensors + [loss]
            before = [t.data.copy() for t in seen]
            sweep(loss, tape)
            for t, b in zip(seen, before):
                _assert_same_bits(t.data, b)
            out.append([t.grad for t in leaves])
        return out

    def test_intermediates_released_during_sweep(self):
        # two probe nodes: when the earlier one's adjoint runs, the later
        # one's slot and output gradient are already gone, and so is the
        # gradient array the later adjoint was handed
        seen = {}

        def probe(a, name):
            def fn(g):
                seen[name] = (weakref.ref(g), [n is None for n in tape._nodes],
                              {k: ref() is None for k, (ref, _, _) in seen.items()})
                return (g * 2.0,)
            return T._make_out(a.data * 2.0, (a,), fn)

        x = T.Tensor(np.arange(1.0, 5.0), requires_grad=True)
        with T.Tape() as tape:
            p1 = probe(x, "p1")
            p2 = probe(p1, "p2")
            loss = T.tsum(p2)
        T.backward(loss, tape)
        # slot order: p1, p2, tsum
        assert seen["p2"][1] == [False, False, True]
        assert seen["p1"][1] == [False, True, True]
        assert seen["p1"][2] == {"p2": True}
        assert seen["p1"][0]() is None
        assert len(tape) == 3 and all(n is None for n in tape._nodes)
        assert p1.grad is None and p2.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad, np.full(4, 4.0))

    def test_second_sweep_raises_one_line(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.tsum(T.mul(x, x))
        T.backward(loss, tape)
        with pytest.raises(errors.ContractError) as info:
            T.backward(loss, tape)
        assert "\n" not in str(info.value) and "spent" in str(info.value)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_add_of_one_tensor_twice(self):
        x = np.array([1.5, -2.0, 0.0])
        got, want = self._both(lambda a: (T.tsum(T.add(a, a)), []), [x])
        _assert_same_bits(got[0], want[0])
        np.testing.assert_array_equal(got[0], np.full(3, 2.0))

    def test_fan_out_to_add_and_mul(self):
        rng = np.random.default_rng(42)
        x, c = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))

        def build(a):
            y = T.softplus(a)
            s = T.add(y, T.mul(y, T.Tensor(c)))
            return T.tsum(T.mul(s, s)), [y, s]

        got, want = self._both(build, [x])
        _assert_same_bits(got[0], want[0])
        y = np.logaddexp(0.0, x)
        np.testing.assert_allclose(got[0], 2.0 * y * (1.0 + c) ** 2 / (1.0 + np.exp(-x)),
                                   rtol=1e-12)

    @pytest.mark.parametrize("second", ["same array", "view of it"])
    def test_contribution_held_twice_is_not_adopted_twice(self, second):
        # an adjoint that hands one array, or a view of it, to two inputs:
        # a's buffer then takes a further contribution, which must not reach b
        def shared(a, b):
            def fn(g):
                h = g * 2.0
                return h, (h if second == "same array" else h[...])
            return T._make_out(a.data + b.data, (a, b), fn)

        x, y = np.array([1.0, 2.0, 3.0]), np.array([0.5, -1.0, 4.0])
        c = np.array([3.0, -1.0, 0.5])

        def build(a, b):
            u = T.mul(a, T.Tensor(c))
            s = shared(a, b)
            return T.tsum(T.add(s, u)), [u, s]

        got, want = self._both(build, [x, y])
        for g, wnt in zip(got, want):
            _assert_same_bits(g, wnt)
        np.testing.assert_array_equal(got[0], 2.0 + c)
        np.testing.assert_array_equal(got[1], np.full(3, 2.0))

    def test_views_from_narrow_transpose_reshape(self):
        rng = np.random.default_rng(42)
        x, w = rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 6))

        def build(a, b):
            t = T.transpose(a, (2, 0, 1))            # (4, 2, 3)
            r = T.reshape(t, (4, 6))
            n = T.narrow(r, 1, 1, 4)                 # (4, 4)
            h = T.linear(T.reshape(T.transpose(n, (1, 0)), (2, 2, 4)), b)
            return T.tsum(T.mul(h, h)), [t, r, n, h]

        got, want = self._both(build, [x, w])
        for g, wnt in zip(got, want):
            _assert_same_bits(g, wnt)

    def test_negative_zero_contributions_become_positive_zero(self):
        # first contributions of -0.0, to a leaf and to intermediates, end as
        # +0.0, as a sum into zeros leaves them; the leaf's second -0.0 then
        # keeps +0.0, where an unnormalised buffer would read -0.0
        x = np.array([1.0, -2.0, 3.0, 0.0])
        c = np.array([-0.0, 0.0, -0.0, -1.0])

        def build(a):
            y = T.mul(T.mul(a, -1.0), -1.0)
            p, q = T.mul(y, T.Tensor(c)), T.mul(a, T.Tensor(c))
            return T.tsum(T.add(p, q)), [y, p, q]

        got, want = self._both(build, [x])
        _assert_same_bits(got[0], want[0])
        np.testing.assert_array_equal(got[0], 2.0 * c)
        assert not np.signbit(got[0][:3]).any()

    def test_acceptance_step_bitwise_against_reference(self):
        # one imtrihard 1+2+2 step of the acceptance model: all 57 parameter
        # gradients equal the plain sweep's, sign bits included
        from rangeloop import pipeline as pl
        from rangeloop import training as tr
        from rangeloop.rangeview import RangeImage, TrainingTuple

        model = pl.ModelConfig(h=16, w=128, stages=((8, 2, 2), (16, 2, 2), (16, 2, 2),
                                                    (32, 2, 2)),
                               spp_mode="add", olm_n=4, vlad_k=8, mlp_hidden=64, out_dim=32)
        rng = np.random.default_rng(1)
        images = {}
        for i in range(5):
            r = rng.uniform(1.0, 40.0, size=(16, 128))
            r[rng.random(size=(16, 128)) < 0.2] = -1.0
            images[i] = RangeImage(r, r_max=50.0)
        tup = TrainingTuple(query=0, positives=(1, 2), negatives=(3, 4))
        cfg = tr.TrainConfig(loss="imtrihard", k_p=2, k_n=2)
        grads = []
        for sweep in (T.backward, _reference_backward):
            params = pl.init_model(model, seed=42)
            step_rng = np.random.default_rng(0)
            with T.Tape() as tape:
                offsets = [int(step_rng.integers(0, 128))]
                desc = tr._forward_tuple(tup, images, params, model, offsets)
                loss = tr.tuple_loss(desc, 2, cfg, step_rng)
            sweep(loss, tape)
            grads.append({k: p.grad for k, p in params.items()})
        got, want = grads
        assert len(got) == 57 and sorted(got) == sorted(want)
        for name in want:
            _assert_same_bits(got[name], want[name])


class TestGradientChecks:
    """Analytic vs central-difference gradients for every differentiable op."""

    def test_elementwise_binary(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        check_grads(T.add, [a, b], rng)
        check_grads(T.sub, [a, b], rng)
        check_grads(T.mul, [a, b], rng)

    def test_bias_and_scalar_broadcast(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((2, 3, 4))
        bias = rng.standard_normal(4)
        scalar = np.array(0.7)
        check_grads(T.add, [a, bias], rng)
        check_grads(T.mul, [a, bias], rng)
        check_grads(T.mul, [a, scalar], rng)
        check_grads(T.sub, [scalar, a], rng)

    def test_scalar_against_one_element_vector(self):
        # the output is (1,); each operand's gradient keeps its own shape
        rng = np.random.default_rng(42)
        check_grads(T.mul, [np.array(0.7), np.array([1.3])], rng)
        check_grads(T.sub, [np.array([1.3]), np.array(0.7)], rng)

    def test_activations(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((4, 5)) * 2.0
        away_from_kink = np.where(np.abs(x) < 0.1, x + 0.3, x)
        check_grads(T.silu, [x], rng)
        check_grads(T.softplus, [x], rng)
        check_grads(T.relu, [away_from_kink], rng)

    def test_contractions(self):
        rng = np.random.default_rng(42)
        check_grads(
            T.linear, [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))], rng
        )
        check_grads(
            lambda a, b: T.einsum2("ij,jk->ik", a, b),
            [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))],
            rng,
        )
        check_grads(
            lambda a, b: T.einsum2("bij,jk->bik", a, b),
            [rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 2))],
            rng,
        )
        check_grads(
            lambda a, b: T.einsum2("bi,bi->b", a, b),
            [rng.standard_normal((4, 3)), rng.standard_normal((4, 3))],
            rng,
        )
        check_grads(
            T.linear,
            [
                rng.standard_normal((2, 3, 4)),
                rng.standard_normal((4, 5)),
                rng.standard_normal(5),
            ],
            rng,
        )

    def test_einsum2_rejects_dangling_index(self):
        a = T.Tensor(np.zeros((2, 3)))
        b = T.Tensor(np.zeros((3, 4)))
        with pytest.raises(errors.ShapeError):
            T.einsum2("ij,jk->i", a, b)

    def test_reductions(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((3, 4, 5))
        check_grads(T.tsum, [x], rng)
        check_grads(lambda t: T.tsum(t, axis=1), [x], rng)
        check_grads(lambda t: T.tsum(t, axis=(0, 2)), [x], rng)
        check_grads(lambda t: T.tmean(t, axis=2), [x], rng)

    def test_extrema_reductions(self):
        rng = np.random.default_rng(42)
        # distinct entries keep the max/min subgradient away from ties
        x = rng.permutation(60).astype(float).reshape(3, 4, 5) * 0.37
        check_grads(lambda t: T.tmax(t, axis=1), [x], rng)
        check_grads(lambda t: T.tmin(t, axis=2), [x], rng)
        check_grads(T.tmax, [x], rng)
        check_grads(T.tmin, [x], rng)

    def test_extrema_route_to_first_winner_on_ties(self):
        x = T.Tensor([[2.0, 5.0, 5.0]], requires_grad=True)
        with T.Tape() as tape:
            loss = T.tsum(T.tmax(x, axis=1))
        T.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0]])

    @pytest.mark.parametrize("op, reduce, first", [(T.tmax, np.max, 0), (T.tmin, np.min, 1)])
    def test_extrema_one_node_first_extreme_or_nan(self, op, reduce, first):
        # one node each; a tie or a NaN routes to its first occurrence
        for row, pick in (([5.0, 2.0, 5.0, 2.0], first), ([1.0, np.nan, 3.0, np.nan], 1)):
            x = T.Tensor(row, requires_grad=True)
            with T.Tape() as tape:
                out = op(x)
            assert len(tape) == 1
            np.testing.assert_array_equal(out.data, reduce(row))
            T.backward(out, tape)
            np.testing.assert_array_equal(x.grad, np.eye(4)[pick])

    def test_shape_manipulation(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((3, 4, 5))
        check_grads(lambda t: T.reshape(t, (12, 5)), [x], rng)
        check_grads(lambda t: T.transpose(t, (2, 0, 1)), [x], rng)
        check_grads(lambda t: T.narrow(t, 1, 1, 2), [x], rng)
        check_grads(lambda a, b: T.concat([a, b], axis=1), [x, x + 1.0], rng)
        order = np.random.default_rng(0).permutation(4)[None, :, None]
        check_grads(lambda t: T.take_along(t, order, axis=1), [x], rng)
        repeats = np.array([[[2], [0], [2]]])  # row 2 read twice, row 1 never
        check_grads(lambda t: T.take_along(t, repeats, axis=1), [x], rng)

    def test_structured_kernels(self):
        rng = np.random.default_rng(42)
        check_grads(
            lambda x, w: T.conv_vertical(x, w, stride_h=2),
            [rng.standard_normal((2, 3, 6, 4)), rng.standard_normal((4, 3, 2, 1))],
            rng,
        )
        check_grads(
            lambda x, w: T.conv_vertical(x, w, stride_h=1),
            [rng.standard_normal((1, 2, 5, 3)), rng.standard_normal((2, 2, 3, 1))],
            rng,
        )
        check_grads(
            T.conv1d_circular,
            [rng.standard_normal((2, 3, 8)), rng.standard_normal((4, 3, 3))],
            rng,
        )
        check_grads(
            T.conv1d_circular,
            [rng.standard_normal((1, 2, 5)), rng.standard_normal((2, 2, 5))],
            rng,
        )
        x = rng.permutation(42).astype(float).reshape(2, 3, 7) * 0.11
        check_grads(lambda t: T.maxpool1d_circular(t, 3), [x], rng)
        check_grads(
            lambda x, w, b: T.conv_vertical(x, w, b, stride_h=2),
            [rng.standard_normal((2, 3, 6, 4)), rng.standard_normal((4, 3, 2, 1)),
             rng.standard_normal(4)],
            rng,
        )
        check_grads(
            T.conv1d_circular,
            [rng.standard_normal((2, 3, 8)), rng.standard_normal((4, 3, 3)),
             rng.standard_normal(4)],
            rng,
        )

    def test_normalizers(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 5, 6))
        check_grads(
            T.layer_norm,
            [x, rng.standard_normal(6), rng.standard_normal(6)],
            rng,
        )
        check_grads(T.softmax, [x], rng)
        check_grads(lambda t: T.softmax(t, axis=1), [x], rng)
        check_grads(T.l2_normalize, [x], rng)
        check_grads(lambda t: T.l2_normalize(t, axis=1), [x], rng)


def _mul_with_wrong_entry(flat_index):
    """a * b on one tape node whose adjoint for b is off by one at a single
    entry."""

    def op(a, b):
        def adjoint(g):
            gb = g * a.data
            gb.reshape(-1)[flat_index] += 1.0
            return g * b.data, gb

        return T._make_out(a.data * b.data, (a, b), adjoint)

    return op


class TestCheckGrads:
    """The finite-difference probe itself."""

    @pytest.mark.parametrize("flat_index", [0, 217, 399])
    def test_one_wrong_entry_is_named(self, flat_index):
        rng = np.random.default_rng(42)
        a, b = rng.standard_normal((20, 20)), rng.standard_normal((20, 20))
        with pytest.raises(AssertionError,
                           match=rf"^input 1: .* at flat index {flat_index}$"):
            check_grads(_mul_with_wrong_entry(flat_index), [a, b], rng)

    def test_inputs_are_left_unchanged(self):
        rng = np.random.default_rng(42)
        a = np.asfortranarray(rng.standard_normal((3, 4)))
        b = rng.standard_normal(4)
        before = [a.copy(), b.copy()]
        check_grads(T.mul, [a, b], rng)
        for got, want in zip((a, b), before):
            _assert_same_bits(got, want)

    def test_input_without_gradient_raises(self):
        rng = np.random.default_rng(42)
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        with pytest.raises(AssertionError, match="^input 1 got no gradient$"):
            check_grads(lambda x, y: T.mul(x, -1.0), [a, b], rng)


class TestL2NormalizeZeroRows:
    def test_zero_rows_stay_zero_with_zero_grad(self):
        x = T.Tensor([[3.0, 4.0], [0.0, 0.0]], requires_grad=True)
        with T.Tape() as tape:
            y = T.l2_normalize(x)
            loss = T.tsum(y)
        T.backward(loss, tape)
        np.testing.assert_allclose(y.data[0], [0.6, 0.8], atol=1e-15)
        np.testing.assert_array_equal(y.data[1], [0.0, 0.0])
        np.testing.assert_array_equal(x.grad[1], [0.0, 0.0])

    def test_nan_row_stays_nan(self):
        y = T.l2_normalize(np.array([[np.nan, 1.0], [3.0, 4.0]]))
        assert np.isnan(y.data[0]).all()
        np.testing.assert_allclose(y.data[1], [0.6, 0.8], atol=1e-15)


class TestTakeAlong:
    def test_one_node_whose_adjoint_scatters_to_source_rows(self):
        x = T.Tensor(np.arange(12.0).reshape(1, 4, 3), requires_grad=True)
        order = np.array([[[3], [1], [0], [2]]])
        g = np.arange(100.0, 112.0).reshape(1, 4, 3)
        with T.Tape() as tape:
            y = T.take_along(x, order, axis=1)
            nodes = len(tape)
            loss = T.tsum(T.mul(y, T.Tensor(g)))
        T.backward(loss, tape)
        assert nodes == 1
        np.testing.assert_array_equal(y.data[0], x.data[0, [3, 1, 0, 2]])
        # output row i was read from source row order[i]
        np.testing.assert_array_equal(x.grad[0, [3, 1, 0, 2]], g[0])

    def test_repeated_index_accumulates(self):
        x = T.Tensor(np.zeros((1, 3, 2)), requires_grad=True)
        with T.Tape() as tape:
            y = T.take_along(x, np.array([[[1], [1], [0]]]), axis=1)
            loss = T.tsum(y)
        T.backward(loss, tape)
        np.testing.assert_array_equal(x.grad[0], [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])


def _vertical_taps(k, h, stride):
    h_out = (h - k) // stride + 1
    return np.arange(k)[:, None] + stride * np.arange(h_out)[None, :]


def _circular_taps(k, m):
    return (np.arange(m)[None, :] + (k - 1) // 2 - np.arange(k)[:, None]) % m


class TestConvBias:
    """A convolution's bias is part of its one node.  The oracle is the
    composition the node replaced, in numpy: the unfolded GEMM, its
    transposed products, a fold that adds the taps in ascending order, and a
    separate broadcast bias whose gradient sums the rows of the GEMM-shaped
    (positions, channels) output gradient."""

    CASES = {  # op, x shape, w shape, tap table
        "conv_vertical-s1": (lambda x, w, b=None: T.conv_vertical(x, w, b, stride_h=1),
                             (2, 3, 6, 5), (4, 3, 3, 1), _vertical_taps(3, 6, 1)),
        "conv_vertical-s2": (lambda x, w, b=None: T.conv_vertical(x, w, b, stride_h=2),
                             (2, 3, 6, 5), (4, 3, 2, 1), _vertical_taps(2, 6, 2)),
        "conv1d_circular": (T.conv1d_circular, (2, 3, 7), (4, 3, 3), _circular_taps(3, 7)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_one_node_equal_to_conv_plus_bias_bitwise(self, name):
        op, x_shape, w_shape, taps = self.CASES[name]
        rng = np.random.default_rng(42)
        x, w, b = rng.standard_normal(x_shape), rng.standard_normal(w_shape), rng.standard_normal(4)
        y_shape = (2, 4) + taps.shape[1:] + x_shape[3:]
        g = rng.standard_normal(y_shape)
        y, (gx, gw, gb), nodes = _taped(op, [x, w, b], g)
        y0, (gx0, gw0), nodes0 = _taped(op, [x, w], g)
        assert nodes == nodes0 == 1

        k = taps.shape[0]
        w2 = w.reshape(4, 3 * k)
        cols = np.moveaxis(np.take(x, taps, axis=2), (1, 2), (-2, -1)).reshape(-1, 3 * k)
        rows = np.moveaxis(g, 1, -1).shape[:-1]
        want_y0 = np.moveaxis((cols @ w2.T).reshape(rows + (4,)), -1, 1)
        gy = np.moveaxis(g, 1, -1).reshape(-1, 4)
        gcols = (gy @ w2).reshape(rows + (3, k))
        want_gx = np.zeros(x_shape)
        for j in range(k):
            want_gx[:, :, taps[j]] += np.moveaxis(gcols[..., j], -1, 1)
        tail = (1,) * (len(y_shape) - 2)

        assert np.array_equal(y0, want_y0)
        assert np.array_equal(y, y0 + np.broadcast_to(b.reshape((1, 4) + tail), y_shape))
        for got in (gx, gx0):
            assert np.array_equal(got, want_gx)
        for got in (gw, gw0):
            assert np.array_equal(got, (gy.T @ cols).reshape(w_shape))
        assert np.array_equal(gb, gy.sum(axis=0))

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_rejects_mismatched_bias(self, name):
        op, x_shape, w_shape, _ = self.CASES[name]
        with pytest.raises(errors.ShapeError, match=r"bias \(3,\)"):
            op(np.zeros(x_shape), np.zeros(w_shape), np.zeros(3))


class TestTapSlices:
    """The convolution adjoint folds each tap by slices; they must name the
    same (output, input) positions as the tap table's index row."""

    @pytest.mark.parametrize("taps", [
        _vertical_taps(3, 6, 1), _vertical_taps(2, 6, 2), _vertical_taps(3, 7, 2),
        _vertical_taps(4, 4, 1), _circular_taps(3, 7), _circular_taps(5, 9),
        _circular_taps(3, 2), _circular_taps(5, 3), _circular_taps(1, 1),
    ])
    def test_slices_cover_index_row(self, taps):
        length = taps.shape[1]
        for row in taps:
            got = np.full(length, -1)
            for out_sl, in_sl in T._tap_slices(row):
                got[out_sl] = np.arange(row.max() + 1)[in_sl]
            assert np.array_equal(got, row)

    @pytest.mark.parametrize("m,k", [(2, 3), (3, 5), (9, 5)])
    def test_circular_fold_wider_than_sequence(self, m, k):
        # kernels as long as or longer than the sequence wrap within a tap
        rng = np.random.default_rng(42)
        x, w = rng.standard_normal((2, 3, m)), rng.standard_normal((4, 3, k))
        g = rng.standard_normal((2, 4, m))
        _, (gx, _), _ = _taped(T.conv1d_circular, [x, w], g)
        taps = _circular_taps(k, m)
        gcols = (np.moveaxis(g, 1, -1).reshape(-1, 4) @ w.reshape(4, 3 * k)).reshape(2, m, 3, k)
        want = np.zeros(x.shape)
        for j in range(k):
            want[:, :, taps[j]] += np.moveaxis(gcols[..., j], -1, 1)
        assert np.array_equal(gx, want)


class TestLayerNorm:
    def test_normalizes_rows(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((4, 8)) * 3.0 + 1.0
        out = T.layer_norm(
            T.Tensor(x), T.Tensor(np.ones(8)), T.Tensor(np.zeros(8)), eps=0.0
        ).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-12)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(4), atol=1e-9)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((5, 7)) * 30.0
        out = T.softmax(T.Tensor(x)).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(5), atol=1e-12)
        assert (out > 0).all()


class TestAdam:
    def test_first_step_closed_form(self):
        p = T.Tensor([1.0], requires_grad=True)
        opt = Adam({"p": p}, lr=5e-6)
        p.grad = np.array([1.0])
        opt.step()
        # bias-corrected m-hat = v-hat = 1 on step one, so delta = lr/(1+eps)
        np.testing.assert_allclose(p.data, [1.0 - 5e-6 / (1.0 + 1e-8)], atol=1e-18)
        assert p.grad is None

    def test_zero_grad_leaves_parameter(self):
        p = T.Tensor([2.5], requires_grad=True)
        opt = Adam({"p": p})
        p.grad = np.array([0.0])
        opt.step()
        np.testing.assert_array_equal(p.data, [2.5])

    @pytest.mark.parametrize("lr", [-1e-3, float("nan"), float("inf")])
    def test_rejects_negative_or_non_finite_lr(self, lr):
        # a NaN or infinite rate would make every parameter NaN in one step
        p = T.Tensor([1.0], requires_grad=True)
        with pytest.raises(errors.ContractError, match="learning rate"):
            Adam({"p": p}, lr=lr)

    def test_missing_grad_names_parameter(self):
        p = T.Tensor([1.0], requires_grad=True)
        opt = Adam({"w.bias": p})
        with pytest.raises(errors.ContractError, match="w.bias"):
            opt.step()

    def test_same_seed_bit_identical(self):
        def run():
            rng = np.random.default_rng(7)
            p = T.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
            opt = Adam({"p": p}, lr=1e-3)
            for _ in range(20):
                with T.Tape() as tape:
                    loss = T.tsum(T.mul(p, p))
                T.backward(loss, tape)
                opt.step()
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_step_counter_advances(self):
        p = T.Tensor([1.0], requires_grad=True)
        opt = Adam({"p": p})
        for want in (1, 2, 3):
            p.grad = np.array([1.0])
            opt.step()
            assert opt.t == want

    @staticmethod
    def _assert_steps_equal_formula(start, rng):
        # the oracle is the update written with temporaries; parameters and
        # both moments match it bit for bit over five steps
        from rangeloop.optim import BETA1, BETA2, EPS
        params = {k: T.Tensor(v.copy(), requires_grad=True) for k, v in start.items()}
        opt = Adam(params, lr=1e-2)
        want = {k: v.copy() for k, v in start.items()}
        m = {k: np.zeros_like(v) for k, v in start.items()}
        v2 = {k: np.zeros_like(v) for k, v in start.items()}
        for t in range(1, 6):
            grads = {k: rng.standard_normal(v.shape) for k, v in start.items()}
            for k, p in params.items():
                p.grad = grads[k].copy()
            opt.step()
            c1, c2 = 1.0 - BETA1**t, 1.0 - BETA2**t
            for k, g in grads.items():
                m[k] = m[k] * BETA1 + (1.0 - BETA1) * g
                v2[k] = v2[k] * BETA2 + (1.0 - BETA2) * (g * g)
                want[k] = want[k] - 1e-2 * (m[k] / c1) / (np.sqrt(v2[k] / c2) + EPS)
            for k in start:
                assert np.array_equal(params[k].data, want[k])
                assert np.array_equal(opt.m[k], m[k])
                assert np.array_equal(opt.v[k], v2[k])

    def test_in_place_step_equals_formula_bitwise(self):
        rng = np.random.default_rng(42)
        start = {"s": rng.standard_normal(()), "v": rng.standard_normal(5),
                 "w": rng.standard_normal((3, 4))}
        self._assert_steps_equal_formula(start, rng)

    def test_chunked_step_equals_formula_bitwise(self):
        # three whole chunks and a ragged tail, next to a one-chunk tensor
        from rangeloop.optim import CHUNK
        assert CHUNK == 1 << 15
        rng = np.random.default_rng(42)
        start = {"big": rng.standard_normal(3 * CHUNK + 7).reshape(1, -1),
                 "w": rng.standard_normal((3, 4))}
        self._assert_steps_equal_formula(start, rng)

    @pytest.mark.parametrize("warm", [0, 3], ids=["fresh", "after_steps"])
    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["pos", "neg"])
    def test_step_zero_equals_step_on_zero_grads_bitwise(self, warm, zero):
        # the update of a clamped training step, step() on read-only
        # broadcast zeros, against step() on zeros_like grads of either
        # sign, over a chunk boundary; the warm-up grads hold a subnormal
        # and an exact zero
        from rangeloop.optim import CHUNK
        rng = np.random.default_rng(42)
        start = {"big": rng.standard_normal(CHUNK + 7), "w": rng.standard_normal((3, 4)),
                 "s": rng.standard_normal(())}
        pairs = []
        for _ in range(2):
            params = {k: T.Tensor(v.copy(), requires_grad=True) for k, v in start.items()}
            pairs.append((params, Adam(params, lr=1e-2)))
        grads = [{k: rng.standard_normal(v.shape) for k, v in start.items()}
                 for _ in range(warm)]
        for g in grads:
            g["w"][0, :2] = (5e-324, 0.0)
        for params, opt in pairs:
            for g in grads:
                for k, p in params.items():
                    p.grad = g[k].copy()
                opt.step()
        (zp, zopt), (sp, sopt) = pairs
        for _ in range(4):
            for p in zp.values():
                p.grad = np.broadcast_to(0.0, p.shape)
            zopt.step()
            for p in sp.values():
                p.grad = np.full_like(p.data, zero)
            sopt.step()
            assert zopt.t == sopt.t
            assert all(p.grad is None for p in zp.values())
            for k in start:
                for got, want in ((zp[k].data, sp[k].data), (zopt.m[k], sopt.m[k]),
                                  (zopt.v[k], sopt.v[k])):
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), k

class TestDeterminism:
    def test_same_seed_bit_identical_forward_and_grads(self):
        def run():
            rng = np.random.default_rng(11)
            x = T.Tensor(rng.standard_normal((2, 3, 8)), requires_grad=True)
            w = T.Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True)
            with T.Tape() as tape:
                y = T.silu(T.conv1d_circular(x, w))
                loss = T.tsum(T.mul(y, y))
            T.backward(loss, tape)
            return y.data.copy(), x.grad.copy(), w.grad.copy()

        a, b = run(), run()
        for got, want in zip(a, b):
            np.testing.assert_array_equal(got, want)


class TestConcurrent:
    """``concurrent`` on two workers, whatever this host's CPU count."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(T, "_usable_cpus", lambda: 2)

    def test_results_in_call_order(self):
        import threading

        first_may_finish = threading.Event()

        def slow():
            assert first_may_finish.wait(10)
            return "first"

        def fast():
            first_may_finish.set()
            return "second"

        assert list(T.concurrent([slow, fast])) == ["first", "second"]

    def test_workers_run_off_the_calling_thread(self):
        import threading

        names = list(T.concurrent([lambda: threading.current_thread().name] * 2))
        assert threading.current_thread().name not in names

    def test_one_cpu_runs_in_order_on_the_calling_thread(self, monkeypatch):
        import threading

        monkeypatch.setattr(T, "_usable_cpus", lambda: 1)
        here = threading.current_thread()
        assert list(T.concurrent([threading.current_thread] * 3)) == [here] * 3

    def test_nested_call_runs_on_the_worker(self):
        inner = [lambda: 1, lambda: 2]
        outer = [lambda: list(T.concurrent(inner))] * 3
        assert list(T.concurrent(outer)) == [[1, 2]] * 3

    def test_first_failure_in_call_order_raises_after_the_rest(self):
        import threading
        import time

        done = []
        late = threading.Event()

        def fails_late():
            assert late.wait(10)
            raise ValueError("branch one")

        def fails_early():
            late.set()
            raise KeyError("branch two")

        def runs_on():
            time.sleep(0.05)
            done.append(True)

        with pytest.raises(ValueError, match="branch one"):
            list(T.concurrent([lambda: 0, fails_late, fails_early, runs_on]))
        # the call returns once no callable is left running: the last one
        # has finished or was cancelled before it started
        seen = list(done)
        time.sleep(0.1)
        assert done == seen

    def test_callables_see_the_callers_numpy_error_state(self):
        one = np.ones(3)
        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError):
                list(T.concurrent([lambda: one / 0.0] * 2))

    def test_tape_is_the_serial_one(self):
        rng = np.random.default_rng(5)
        arrays = [rng.standard_normal((4, 4)) for _ in range(3)]

        def run(parallel):
            a, b, c = (T.Tensor(x, requires_grad=True) for x in arrays)
            fns = [lambda: T.mul(T.silu(a), b), lambda: T.add(b, c),
                   lambda: T.linear(c, T.Tensor(arrays[0].T))]
            with T.Tape() as tape:
                results = T.concurrent(fns) if parallel else (f() for f in fns)
                total = None
                for r in results:
                    total = r if total is None else T.add(total, r)
                loss = T.tsum(T.mul(total, total))
            kinds = [n.backward.__qualname__ for n in tape._nodes]
            T.backward(loss, tape)
            return total.data, kinds, [t.grad for t in (a, b, c)]

        (y0, k0, g0), (y1, k1, g1) = run(False), run(True)
        np.testing.assert_array_equal(y1, y0)
        assert k1 == k0 and len(k0) == 8
        for got, want in zip(g1, g0):
            np.testing.assert_array_equal(got, want)

    def test_many_workers_switching_often_keep_the_serial_tape(self, monkeypatch):
        import sys

        monkeypatch.setattr(T, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(T, "_pool", None)  # a pool of 8 for this test alone
        a = T.Tensor(np.arange(6.0), requires_grad=True)
        fns = [lambda i=i: T.silu(T.mul(T.add(a, float(i)), a)) for i in range(16)]

        def tape_values(results):
            with T.Tape() as tape:
                for _ in results:
                    pass
            return [node.out.data.tolist() for node in tape._nodes]

        want = tape_values(f() for f in fns)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                assert tape_values(T.concurrent(fns)) == want
        finally:
            sys.setswitchinterval(interval)
            T._pool.shutdown()
