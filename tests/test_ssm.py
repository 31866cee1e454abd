"""Discretization, scans, convolution duality, and the selective form."""

import numpy as np
import pytest
from rangeloop.selfcheck import check_grads

from rangeloop import errors
from rangeloop import pipeline as pl
from rangeloop import ssm
from rangeloop import tensor as T


def scalar_system(abar_val, bbar_val, m):
    """(1, m, 1, 1) constant discrete operators."""
    abar = np.full((1, m, 1, 1), abar_val)
    bbar = np.full((1, m, 1, 1), bbar_val)
    return ssm.DiscreteSsm(abar=abar, bbar=bbar)


def random_discrete(rng, b, m, e, n):
    delta = rng.uniform(0.05, 0.8, size=(b, m, e))
    a = -np.exp(rng.standard_normal((e, n)) * 0.5)
    bmat = rng.standard_normal((b, m, n))
    return ssm.discretize(delta, a, bmat, mode="euler")


class TestDiscretize:
    def test_exact_step_scalar(self):
        out = ssm.discretize(np.ones((1, 1, 1)), [[-1.0]], np.ones((1, 1, 1)), mode="zoh")
        np.testing.assert_allclose(out.abar, np.exp(-1.0), atol=1e-15)
        np.testing.assert_allclose(out.bbar, 1.0 - np.exp(-1.0), atol=1e-15)

    def test_vanishing_evolution_limit(self):
        out = ssm.discretize(np.full((1, 1, 1), 0.75), [[0.0]], np.full((1, 1, 1), 2.0),
                             mode="zoh")
        np.testing.assert_array_equal(out.abar.reshape(-1), [1.0])
        np.testing.assert_array_equal(out.bbar.reshape(-1), [1.5])

    def test_euler_is_plain_product(self):
        out = ssm.discretize(np.full((1, 1, 1), 0.5), [[-1.0]], np.full((1, 1, 1), 2.0),
                             mode="euler")
        np.testing.assert_array_equal(out.bbar.reshape(-1), [1.0])

    def test_nonpositive_step_rejected(self):
        with pytest.raises(errors.ContractError):
            ssm.discretize(np.zeros((1, 1, 1)), [[-1.0]], [1.0])

    def test_unknown_mode_rejected(self):
        with pytest.raises(errors.ConfigError):
            ssm.discretize(np.ones((1, 1, 1)), [[-1.0]], [1.0], mode="heun")

    def test_zoh_matches_euler_to_first_order(self):
        rng = np.random.default_rng(42)
        delta = np.full((1, 3, 2), 1e-6)
        a = -np.exp(rng.standard_normal((2, 4)))
        b = rng.standard_normal((1, 3, 4))
        zoh = ssm.discretize(delta, a, b, mode="zoh")
        eul = ssm.discretize(delta, a, b, mode="euler")
        np.testing.assert_allclose(zoh.bbar, eul.bbar, rtol=1e-5)

    def test_decay_factor_inside_unit_interval(self):
        rng = np.random.default_rng(42)
        out = random_discrete(rng, 2, 5, 3, 4)
        assert (np.abs(out.abar) < 1.0).all()
        assert (out.abar > 0.0).all()


class TestScanSequential:
    def test_hand_unrolled_two_steps(self):
        dssm = scalar_system(0.5, 1.0, 2)
        y = ssm.scan_sequential(dssm, [1.0], 0.0, np.ones((1, 2, 1)))
        np.testing.assert_allclose(y.reshape(-1), [1.0, 1.5], atol=1e-15)

    def test_zero_input_zero_output(self):
        dssm = scalar_system(0.7, 1.3, 5)
        y = ssm.scan_sequential(dssm, [1.0], 0.0, np.zeros((1, 5, 1)))
        np.testing.assert_array_equal(y, np.zeros((1, 5, 1)))

    def test_unit_system_is_prefix_sum(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((1, 9, 1))
        dssm = scalar_system(1.0, 1.0, 9)
        y = ssm.scan_sequential(dssm, [1.0], 0.0, x)
        np.testing.assert_allclose(y.reshape(-1), np.cumsum(x.reshape(-1)), atol=1e-12)

    def test_skip_path_adds_dx(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((1, 4, 2))
        dssm = ssm.DiscreteSsm(abar=np.zeros((1, 4, 2, 1)), bbar=np.zeros((1, 4, 2, 1)))
        d = np.array([2.0, -1.0])
        y = ssm.scan_sequential(dssm, [1.0], d, x)
        np.testing.assert_allclose(y, x * d, atol=1e-15)


class TestScanParallel:
    def test_single_step_exact(self):
        rng = np.random.default_rng(42)
        dssm = random_discrete(rng, 1, 1, 2, 3)
        c = rng.standard_normal((1, 1, 3))
        x = rng.standard_normal((1, 1, 2))
        d = rng.standard_normal(2)
        ys = ssm.scan_sequential(dssm, c, d, x)
        yp = ssm.scan_parallel(dssm, c, d, x)
        np.testing.assert_array_equal(yp, ys)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 64, 129, 900])
    def test_matches_sequential(self, m):
        rng = np.random.default_rng(42 + m)
        dssm = random_discrete(rng, 2, m, 2, 3)
        c = rng.standard_normal((2, m, 3))
        x = rng.standard_normal((2, m, 2))
        d = rng.standard_normal(2)
        ys = ssm.scan_sequential(dssm, c, d, x)
        yp = ssm.scan_parallel(dssm, c, d, x)
        assert np.max(np.abs(ys - yp)) < 1e-10

    def test_combine_is_associative(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a1, a2, a3, b1, b2, b3 = rng.standard_normal(6)
            left = ssm.combine(a3, b3, *ssm.combine(a2, b2, a1, b1))
            inner_a, inner_b = ssm.combine(a3, b3, a2, b2)
            right_a, right_b = ssm.combine(inner_a, inner_b, a1, b1)
            assert abs(left[0] - right_a) < 1e-12
            assert abs(left[1] - right_b) < 1e-12

    def test_state_bound_on_constant_input(self):
        # |h| can never exceed max|bbar*x| / (1 - max abar) for a stable system
        rng = np.random.default_rng(42)
        dssm = random_discrete(rng, 1, 200, 2, 3)
        bx = ssm._input_injection(dssm.bbar, np.ones((1, 200, 2)))
        _, h = ssm._pair_scan(dssm.abar, bx, axis=1)
        bound = np.max(np.abs(bx)) / (1.0 - np.max(dssm.abar))
        assert np.max(np.abs(h)) <= bound + 1e-12

    def test_oracles_record_nothing(self):
        rng = np.random.default_rng(42)
        c, x = rng.standard_normal((1, 5, 3)), rng.standard_normal((1, 5, 2))
        with T.Tape() as tape:
            dssm = random_discrete(rng, 1, 5, 2, 3)
            ys = [scan(dssm, c, np.ones(2), x)
                  for scan in (ssm.scan_sequential, ssm.scan_parallel)]
        assert len(tape) == 0
        assert all(type(v) is np.ndarray for v in [*dssm, *ys])


class TestLtiKernel:
    def test_two_tap_kernel(self):
        k = ssm.lti_kernel(np.array([[0.5]]), np.array([[1.0]]), np.array([1.0]), 2)
        np.testing.assert_allclose(k, [[1.0, 0.5]], atol=1e-15)

    def test_kernel_convolution_equals_recurrence(self):
        k = ssm.lti_kernel(np.array([[0.5]]), np.array([[1.0]]), np.array([1.0]), 2)
        y = ssm.causal_conv(np.ones((1, 2, 1)), k)
        np.testing.assert_allclose(y.reshape(-1), [1.0, 1.5], atol=1e-15)

    def test_zero_readout_leaves_skip_only(self):
        k = ssm.lti_kernel(np.array([[0.5]]), np.array([[1.0]]), np.array([0.0]), 4)
        np.testing.assert_array_equal(k, np.zeros((1, 4)))

    def test_selective_operators_rejected(self):
        with pytest.raises(errors.ContractError):
            ssm.lti_kernel(np.zeros((1, 2, 1, 1)), np.zeros((1, 2, 1, 1)), np.zeros(1), 2)

    def test_duality_on_random_systems(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(50):
            e = int(rng.integers(1, 5))
            n = int(rng.integers(1, 9))
            m = int(rng.integers(2, 65))
            delta = rng.uniform(0.05, 0.9, size=e)
            a = -np.exp(rng.standard_normal((e, n)) * 0.5)
            b = rng.standard_normal(n)
            c = rng.standard_normal(n)
            d = rng.standard_normal(e)
            x = rng.standard_normal((1, m, e))

            abar = np.exp(delta[:, None] * a)
            bbar = delta[:, None] * b[None, :]
            kern = ssm.lti_kernel(abar, bbar, c, m)
            y_conv = ssm.causal_conv(x, kern) + d * x

            dssm = ssm.discretize(np.broadcast_to(delta, (1, m, e)), a, b, mode="euler")
            y_scan = ssm.scan_sequential(dssm, c, d, x)
            worst = max(worst, float(np.max(np.abs(y_scan - y_conv))))
        assert worst < 1e-10


class TestSelectiveSsm:
    def test_zero_input_zero_biases_zero_output(self):
        # e = 4 < 16 with rank 2: no model has this branch (rank = ceil(d/16)
        # with d <= e), so the tensors are drawn here
        rng = np.random.default_rng(42)
        e, n, r = 4, 3, 2
        shapes = [(e, n), (e,), (e, r + 2 * n), (r + 2 * n,), (r, e), (e,)]
        params = {f"s.{k}": T.Tensor(rng.standard_normal(shape) * 0.5)
                  for k, shape in zip(ssm.PARAM_NAMES, shapes)}
        params["s.proj_BC.bias"] = T.Tensor(np.zeros(2 + 6), requires_grad=True)
        params["s.proj_Δ.bias"] = T.Tensor(np.zeros(4), requires_grad=True)
        y = ssm.selective_ssm(T.Tensor(np.zeros((1, 5, 4))), params, "s")
        np.testing.assert_array_equal(y.data, np.zeros((1, 5, 4)))

    def test_constant_projections_reduce_to_lti(self):
        rng = np.random.default_rng(42)
        e, n, r = 3, 2, 1
        b_const = rng.standard_normal(n)
        c_const = rng.standard_normal(n)
        dt_bias = rng.standard_normal(e) * 0.3
        a_log = rng.standard_normal((e, n)) * 0.4
        d = rng.standard_normal(e)
        params = {
            "s.A_log": T.Tensor(a_log),
            "s.D": T.Tensor(d),
            "s.proj_BC.weight": T.Tensor(np.zeros((e, r + 2 * n))),
            "s.proj_BC.bias": T.Tensor(np.concatenate([np.zeros(r), b_const, c_const])),
            "s.proj_Δ.weight": T.Tensor(np.zeros((r, e))),
            "s.proj_Δ.bias": T.Tensor(dt_bias),
        }
        x = rng.standard_normal((2, 12, e))
        y = ssm.selective_ssm(T.Tensor(x), params, "s")

        delta = np.log1p(np.exp(dt_bias))
        a = -np.exp(a_log)
        abar = np.exp(delta[:, None] * a)
        bbar = delta[:, None] * b_const[None, :]
        kern = ssm.lti_kernel(abar, bbar, c_const, 12)
        want = ssm.causal_conv(x, kern) + d * x
        assert np.max(np.abs(y.data - want)) < 1e-8

    def test_parallel_and_sequential_paths_agree(self):
        # the fused production path against the oracle chain: Euler
        # discretization, then either numpy scan
        # the forward branch of a model with token width 3, e = 3, n = 2
        rng = np.random.default_rng(42)
        model = pl.ModelConfig(h=2, stages=((3, 2, 2),), olm_e=3, olm_n=2,
                               vlad_k=1, mlp_hidden=1, out_dim=1)
        br = "olm.L0.forward"
        params = pl.init_model(model, 42)
        x = rng.standard_normal((1, 10, 3))
        fused = ssm.selective_ssm(T.Tensor(x), params, br).data
        p = {k: t.data for k, t in params.items()}
        r, n = 1, 2
        s = T.linear(T.Tensor(x), p[f"{br}.proj_BC.weight"], p[f"{br}.proj_BC.bias"]).data
        delta = np.logaddexp(0.0, s[..., :r] @ p[f"{br}.proj_Δ.weight"]
                             + p[f"{br}.proj_Δ.bias"])
        dssm = ssm.discretize(delta, -np.exp(p[f"{br}.A_log"]), s[..., r:r + n],
                              mode="euler")
        for scan in (ssm.scan_sequential, ssm.scan_parallel):
            y = scan(dssm, s[..., r + n:], p[f"{br}.D"], x)
            assert np.max(np.abs(fused - y)) < 1e-10

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)
        e, n, r = 2, 2, 1

        def op(xp, *weights):
            params = {f"s.{k}": w for k, w in zip(ssm.PARAM_NAMES, weights)}
            return ssm.selective_ssm(xp, params, "s")

        arrays = [
            rng.standard_normal((1, 4, e)),
            rng.standard_normal((e, n)) * 0.3,
            rng.standard_normal(e),
            rng.standard_normal((e, r + 2 * n)) * 0.5,
            rng.standard_normal(r + 2 * n) * 0.5,
            rng.standard_normal((r, e)) * 0.5,
            rng.standard_normal(e) * 0.5,
        ]
        check_grads(op, arrays, rng)


def random_scan_inputs(rng, b, m, e, n):
    """(x, delta, a_log, bc, d) for ``selective_scan``; bc is [B | C]."""
    return [
        rng.standard_normal((b, m, e)),
        rng.uniform(0.05, 0.8, size=(b, m, e)),
        rng.standard_normal((e, n)) * 0.5,
        np.concatenate([rng.standard_normal((b, m, n)), rng.standard_normal((b, m, n))],
                       axis=2),
        rng.standard_normal(e),
    ]


def oracle_scan(x, delta, a_log, bc, d):
    """``scan_sequential`` on Euler operators, with a = -exp(a_log) and
    bc's trailing B and C columns."""
    n, p = a_log.shape[1], bc.shape[2]
    b, c = bc[..., p - 2 * n:p - n], bc[..., p - n:]
    return ssm.scan_sequential(ssm.discretize(delta, -np.exp(a_log), b, mode="euler"), c, d, x)


class TestSelectiveScan:
    @pytest.mark.parametrize("m", [1, 7, 64, 900])
    def test_matches_sequential(self, m):
        # 900 is not a multiple of the block length, 64 is exactly one block
        rng = np.random.default_rng(42 + m)
        arrays = random_scan_inputs(rng, 2, m, 3, 4)
        got = ssm.selective_scan(*arrays).data
        assert np.max(np.abs(got - oracle_scan(*arrays))) < 1e-10

    @pytest.mark.parametrize("chunk,m", [(3, 10), (ssm._SCAN_CHUNK, ssm._SCAN_CHUNK + 6)])
    def test_gradients_across_blocks(self, chunk, m, monkeypatch):
        monkeypatch.setattr(ssm, "_SCAN_CHUNK", chunk)
        rng = np.random.default_rng(42)
        check_grads(ssm.selective_scan, random_scan_inputs(rng, 2, m, 2, 3), rng)

    def test_gradients_across_byte_capped_blocks(self, monkeypatch):
        # 96 bytes per step at B=2, E=2, N=3: a 400-byte cap makes blocks of
        # 4 steps, well under the 64-step cap, and 10 steps end in a block of 2
        monkeypatch.setattr(ssm, "_SCAN_BLOCK_BYTES", 400)
        assert ssm._block_len(2, 2, 3) == 4 < ssm._SCAN_CHUNK
        rng = np.random.default_rng(42)
        check_grads(ssm.selective_scan, random_scan_inputs(rng, 2, 10, 2, 3), rng)

    def test_block_length_caps(self, monkeypatch):
        assert ssm._block_len(2, 2, 3) == ssm._SCAN_CHUNK  # small: the step cap
        assert ssm._block_len(1, 512, 16) * 8 * 512 * 16 <= ssm._SCAN_BLOCK_BYTES
        monkeypatch.setattr(ssm, "_SCAN_BLOCK_BYTES", 8)
        assert ssm._block_len(2, 2, 3) == 1  # never less than one step

    @staticmethod
    def _run(arrays, seed):
        """Output and the five input gradients for the output gradient seed."""
        inputs = [T.Tensor(v, requires_grad=True) for v in arrays]
        with T.Tape() as tape:
            y = ssm.selective_scan(*inputs)
            loss = T.tsum(T.mul(y, T.Tensor(seed)))
        T.backward(loss, tape)
        return y.data, [t.grad for t in inputs]

    @pytest.mark.parametrize("m", [7, 70])
    def test_batch_rows_equal_single_calls(self, m):
        # each row of a batch of 3 is the single-row scan bit for bit; with
        # the output gradient on one row only, so are all five gradients
        rng = np.random.default_rng(42)
        x, delta, a_log, bc, d = random_scan_inputs(rng, 3, m, 3, 4)
        proj = rng.standard_normal((3, m, 3))
        y_batch = ssm.selective_scan(x, delta, a_log, bc, d).data
        for k in range(3):
            row = [x[k:k + 1], delta[k:k + 1], a_log, bc[k:k + 1], d]
            y1, grads1 = self._run(row, proj[k:k + 1])
            assert np.array_equal(y_batch[k:k + 1], y1)
            seed = np.zeros_like(proj)
            seed[k] = proj[k]
            _, grads = self._run([x, delta, a_log, bc, d], seed)
            for i in (0, 1, 3):  # per-row inputs: row k, zeros elsewhere
                assert np.array_equal(grads[i][k:k + 1], grads1[i])
                assert not np.any(np.delete(grads[i], k, axis=0))
            assert np.array_equal(grads[2], grads1[2])
            assert np.array_equal(grads[4], grads1[4])

    @staticmethod
    def _views(v):
        """v's values in other memory layouts: a (B, M, .) view of (B, ., M)
        memory, as a branch's transposed convolution output is, a view of
        step-major (M, B, .) memory, and a reversed-steps view."""
        return [np.ascontiguousarray(v.transpose(0, 2, 1)).transpose(0, 2, 1),
                np.ascontiguousarray(v.transpose(1, 0, 2)).transpose(1, 0, 2),
                np.ascontiguousarray(v[:, ::-1])[:, ::-1]]

    def test_input_layouts_give_same_bits(self):
        # x, delta, bc and the output gradient as C-contiguous arrays or as
        # views: the output and all five gradients are the same bit for bit,
        # and they are the oracle's; B > 1, E != N and two blocks
        rng = np.random.default_rng(42)
        x, delta, a_log, bc, d = random_scan_inputs(rng, 3, 70, 5, 4)
        seed = rng.standard_normal((3, 70, 5))
        arrays = [x, delta, a_log, bc, d]

        y0, g0 = self._run(arrays, seed)
        assert np.max(np.abs(y0 - oracle_scan(*arrays))) < 1e-10
        # each gradient against the oracle's derivative along a random direction
        for i, g in enumerate(g0):
            assert g.shape == arrays[i].shape
            v = rng.standard_normal(g.shape)
            up, down = list(arrays), list(arrays)
            up[i], down[i] = arrays[i] + 1e-6 * v, arrays[i] - 1e-6 * v
            fd = np.sum(seed * (oracle_scan(*up) - oracle_scan(*down))) / 2e-6
            assert abs(fd - np.sum(g * v)) < 1e-6 * (1.0 + abs(fd))
        for k in range(3):
            views = [self._views(v)[k] for v in (x, delta, bc)]
            assert not any(v.flags.c_contiguous for v in views)
            xv, dv, bcv = views
            y1, g1 = self._run([xv, dv, a_log, bcv, d], seed)
            assert np.array_equal(y1, y0)
            for got, want in zip(g1, g0):
                assert got.shape == want.shape
                assert np.array_equal(got, want)
        # a tape hands the adjoint a gradient laid out as the output; called
        # directly, it takes any layout
        with T.Tape() as tape:
            ssm.selective_scan(*[T.Tensor(v, requires_grad=True) for v in arrays])
        adjoint = tape._nodes[0].backward
        for sv in self._views(seed):
            assert not sv.flags.c_contiguous
            for got, want in zip(adjoint(sv), g0):
                assert got.shape == want.shape
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [9, 12])
    def test_gradients_batch_wider_than_states(self, m, monkeypatch):
        # B = 3 rows, E = 5 channels, N = 4 states: a swapped or dropped axis
        # cannot pass; 4-step blocks, so M = 9 and 12 span three blocks,
        # ragged and whole.  The output is the oracle's, so forward and
        # backward cannot agree on a wrong function.
        monkeypatch.setattr(ssm, "_SCAN_CHUNK", 4)
        assert -(-m // ssm._block_len(3, 5, 4)) == 3
        rng = np.random.default_rng(42)
        arrays = random_scan_inputs(rng, 3, m, 5, 4)
        want = oracle_scan(*arrays)
        assert np.max(np.abs(ssm.selective_scan(*arrays).data - want)) < 1e-10
        check_grads(ssm.selective_scan, arrays, rng)

    def test_block_states_step_slices_contiguous(self):
        # the work arrays are (L, B, N, E): each step's (B, N, E) slice of the
        # decay factors and states is contiguous, and the states are the
        # oracle's h_m
        rng = np.random.default_rng(42)
        x, delta, a_log, bc, _ = random_scan_inputs(rng, 3, 6, 5, 4)
        a, b = -np.exp(a_log), bc[..., :4]
        bufs = ssm._ScanBuffers(3, 6, 5, 4)
        h0 = np.zeros((3, 4, 5))
        decay, hs = ssm._block_states(h0, x.transpose(1, 0, 2), delta.transpose(1, 0, 2),
                                      np.ascontiguousarray(a.T), b.transpose(1, 0, 2), bufs)
        assert decay.shape == hs.shape == (6, 3, 4, 5)
        for i in range(6):
            assert decay[i].flags.c_contiguous and hs[i].flags.c_contiguous
        dssm = ssm.discretize(delta, a, b, mode="euler")
        want = np.empty((3, 6, 5, 4))
        h = np.zeros((3, 5, 4))
        for i in range(6):
            h = dssm.abar[:, i] * h + dssm.bbar[:, i] * x[:, i, :, None]
            want[:, i] = h
        assert np.max(np.abs(hs - want.transpose(1, 0, 3, 2))) < 1e-12
        np.testing.assert_array_equal(decay, dssm.abar.transpose(1, 0, 3, 2))

    def test_consecutive_calls_share_nothing(self):
        # work arrays are per call: a second scan on other inputs neither
        # changes the first result nor is changed by it
        rng = np.random.default_rng(42)
        first = random_scan_inputs(rng, 2, 70, 3, 4)
        other = random_scan_inputs(rng, 2, 70, 3, 4)
        seed = rng.standard_normal((2, 70, 3))
        y_a, g_a = self._run(first, seed)
        kept = [y_a.copy()] + [g.copy() for g in g_a]
        self._run(other, seed)
        y_b, g_b = self._run(first, seed)
        for want, got_a, got_b in zip(kept, [y_a] + g_a, [y_b] + g_b):
            assert np.array_equal(got_a, want)
            assert np.array_equal(got_b, want)

    @staticmethod
    def _with_dt_columns(rng, arrays, r):
        """arrays with r leading step-size columns of random values in bc."""
        x, delta, a_log, bc, d = arrays
        dt = rng.standard_normal(bc.shape[:2] + (r,))
        return [x, delta, a_log, np.concatenate([dt, bc], axis=2), d]

    def test_gradients_with_dt_columns(self, monkeypatch):
        # bc as selective_ssm hands it over, [dt | B | C], across blocks
        monkeypatch.setattr(ssm, "_SCAN_CHUNK", 4)
        rng = np.random.default_rng(42)
        arrays = self._with_dt_columns(rng, random_scan_inputs(rng, 2, 10, 2, 3), 2)
        check_grads(ssm.selective_scan, arrays, rng)

    def test_dt_columns_ignored_bit_for_bit(self):
        # the leading columns get exactly zero gradient, and the output and
        # every other gradient are those of bc without them, bit for bit
        rng = np.random.default_rng(42)
        arrays = random_scan_inputs(rng, 2, 70, 3, 4)
        wide = self._with_dt_columns(rng, arrays, 2)
        seed = rng.standard_normal((2, 70, 3))
        y0, g0 = self._run(arrays, seed)
        y1, g1 = self._run(wide, seed)
        assert np.array_equal(y1, y0)
        assert g1[3].shape == wide[3].shape
        assert np.array_equal(g1[3][..., :2], np.zeros((2, 70, 2)))
        g1[3] = g1[3][..., 2:]
        for got, want in zip(g1, g0):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_records_one_tape_node(self):
        rng = np.random.default_rng(42)
        inputs = [T.Tensor(v, requires_grad=True)
                  for v in random_scan_inputs(rng, 1, 70, 2, 3)]
        with T.Tape() as tape:
            ssm.selective_scan(*inputs)
        assert len(tape) == 1

    def test_nonpositive_step_rejected(self):
        rng = np.random.default_rng(42)
        x, delta, a_log, bc, d = random_scan_inputs(rng, 1, 4, 2, 3)
        delta[0, 2, 1] = 0.0
        with pytest.raises(errors.ContractError):
            ssm.selective_scan(x, delta, a_log, bc, d)

    def test_map_shape_mismatch_rejected(self):
        rng = np.random.default_rng(42)
        x, delta, a_log, bc, d = random_scan_inputs(rng, 1, 4, 2, 3)
        with pytest.raises(errors.ShapeError):
            ssm.selective_scan(x, delta, a_log, bc[:, :, 1:], d)  # 2N - 1 columns

    @staticmethod
    def _branch_order(name, m, a):
        """A mixing-block branch's step order at start offset a."""
        order = np.roll(np.arange(m), -a) if name.endswith("shifted") else np.arange(m)
        return order[::-1] if name.startswith("backward") else order

    @pytest.mark.parametrize("name", ["forward", "forward_shifted", "backward",
                                      "backward_shifted"])
    def test_step_order_is_permuted_scan(self, name):
        # step i reads and writes position order[i]: the oracle on the
        # inputs gathered in that order, scattered back; two blocks, B = 2
        m = ssm._SCAN_CHUNK + 6
        order = self._branch_order(name, m, 5)
        rng = np.random.default_rng(42)
        arrays = random_scan_inputs(rng, 2, m, 2, 3)
        x, delta, a_log, bc, d = arrays
        xo, do, bco = (v[:, order] for v in (x, delta, bc))
        want = np.empty_like(x)
        want[:, order] = oracle_scan(xo, do, a_log, bco, d)
        got = ssm.selective_scan(x, delta, a_log, bc, d, order).data
        assert np.max(np.abs(got - want)) < 1e-10
        check_grads(lambda *t: ssm.selective_scan(*t, order), arrays, rng)

    @pytest.mark.parametrize("order", [[0, 0, 2, 3], [0, 1, 2], [1, 2, 3, 4],
                                       [0.0, 1.0, 2.0, 3.0], [[0, 1, 2, 3]]])
    def test_non_permutation_order_rejected(self, order):
        rng = np.random.default_rng(42)
        arrays = random_scan_inputs(rng, 1, 4, 2, 3)
        with pytest.raises(errors.ContractError):
            ssm.selective_scan(*arrays, order)


class TestDtRank:
    def test_ceiling_division(self):
        assert ssm.dt_rank_for(256) == 16
        assert ssm.dt_rank_for(64) == 4
        assert ssm.dt_rank_for(17) == 2
        assert ssm.dt_rank_for(1) == 1
