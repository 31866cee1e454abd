"""Tests for the multi-direction sequence mixing block."""

import numpy as np
import pytest

from rangeloop.selfcheck import check_grads

from rangeloop import block as bk
from rangeloop import pipeline as pl
from rangeloop import ssm
from rangeloop import tensor as tt
from rangeloop.errors import ConfigError, ContractError, ShapeError
from rangeloop.rangeview import RangeImage


def _model(d, l=1):
    """A model with l mixing blocks of token width d and state dimension 2:
    one (d, 2, 2) stage flattens a 2-row image."""
    return pl.ModelConfig(h=2, stages=((d, 2, 2),), olm_n=2, olm_blocks=l,
                          vlad_k=1, mlp_hidden=1, out_dim=1)


def _init(model, seed, prefix):
    """The entries of init_model's dict under prefix."""
    return {name: t for name, t in pl.init_model(model, seed).items()
            if name.startswith(prefix)}


def _zero_block(params, prefix="olm.L0"):
    for name, t in params.items():
        if name.startswith(prefix + "."):
            t.data[...] = 0.0
    return params


class TestConfig:
    def test_defaults(self):
        # token width 64 and the default olm_e = 0, olm_n = 16
        model = pl.ModelConfig(h=2, stages=((64, 2, 2),), vlad_k=1, mlp_hidden=1, out_dim=1)
        shapes = {name: shape for name, shape, _ in pl.param_layout(model)}
        assert shapes["olm.L0.lin_x.weight"] == (64, 128)
        assert shapes["olm.L0.forward.A_log"] == (128, 16)
        assert shapes["olm.L0.forward.proj_Δ.weight"] == (ssm.dt_rank_for(64), 128)

    def test_rejects_bad_values(self):
        for key, value in [("olm_blocks", 0), ("olm_n", 0), ("olm_e", 4),
                           ("olm_conv_kernel", 4), ("olm_conv_kernel", -1)]:
            with pytest.raises(ConfigError):
                pl.ModelConfig(h=2, stages=((8, 2, 2),), **{key: value})


class TestBlockForward:
    def test_output_shape(self):
        model = _model(4)
        rng = np.random.default_rng(42)
        params = _init(model, 42, "olm.L0.")
        x = tt.Tensor(rng.normal(size=(2, 6, 4)))
        out = bk.olm_forward(x, params)
        assert out.shape == (2, 6, 4)

    def test_rejects_wrong_channel_count(self):
        model = _model(4)
        params = _init(model, 42, "olm.L0.")
        with pytest.raises(ShapeError):
            bk.olm_forward(tt.Tensor(np.zeros((1, 6, 5))), params)
        with pytest.raises(ShapeError):
            bk.olm_forward(tt.Tensor(np.zeros((6, 5))), params)

    def test_zero_weights_pass_input_through_exactly(self):
        model = _model(3)
        rng = np.random.default_rng(42)
        params = _zero_block(_init(model, 42, "olm.L0."))
        x = tt.Tensor(rng.normal(size=(2, 5, 3)))
        out = bk.olm_forward(x, params)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_weights_jacobian_is_identity(self):
        # With a dead mixing path the residual must carry gradients verbatim.
        model = _model(3)
        rng = np.random.default_rng(42)
        params = _zero_block(_init(model, 42, "olm.L0."))
        x = tt.Tensor(rng.normal(size=(1, 4, 3)), requires_grad=True)
        proj = rng.normal(size=(1, 4, 3))
        with tt.Tape() as tape:
            out = bk.olm_forward(x, params)
            loss = tt.tsum(tt.mul(out, tt.Tensor(proj)))
        tt.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, proj)

    def test_eval_mode_is_deterministic_and_skips_rng(self):
        # the default offset is the eval forward: offset 0, and M is 0 mod M
        model = _model(4)
        params = _init(model, 42, "olm.L0.")
        x = tt.Tensor(np.random.default_rng(1).normal(size=(1, 8, 4)))
        out_a = bk.olm_forward(x, params)
        out_b = bk.olm_forward(x, params)
        np.testing.assert_array_equal(out_a.data, out_b.data)
        for offset in (0, 8, -8):
            zero = bk.olm_forward(x, params, offset)
            np.testing.assert_array_equal(out_a.data, zero.data)

    def test_train_mode_seed_determinism(self):
        model = _model(4)
        params = _init(model, 42, "olm.L0.")
        x = tt.Tensor(np.random.default_rng(1).normal(size=(2, 9, 4)))
        out_a = bk.olm_forward(x, params, 6)
        out_b = bk.olm_forward(x, params, 6)
        np.testing.assert_array_equal(out_a.data, out_b.data)

    def test_train_offset_changes_output(self):
        # The scan is causal, so rotating the start must matter.
        model = _model(4)
        params = _init(model, 42, "olm.L0.")
        x = tt.Tensor(np.random.default_rng(1).normal(size=(1, 16, 4)))
        base = bk.olm_forward(x, params, 0).data
        other = bk.olm_forward(x, params, 5).data
        assert np.abs(base - other).max() > 1e-8

    def test_gate_nullity(self):
        # Saturating the gate stream negative silences the mixing path.
        model = _model(4)
        rng = np.random.default_rng(42)
        params = _init(model, 42, "olm.L0.")
        params["olm.L0.lin_z.weight"].data[...] = 0.0
        params["olm.L0.lin_z.bias"].data[...] = -60.0
        x = tt.Tensor(rng.normal(size=(1, 8, 4)))
        out = bk.olm_forward(x, params)
        np.testing.assert_allclose(out.data, x.data, atol=1e-6)

    def _single_branch_reference(self, x, params, name, a):
        """Independently composed one-branch block from public primitives:
        the stream is permuted into the branch's step order with
        ``take_along``, convolved and scanned as is, and permuted back."""
        p = {k.removeprefix("olm.L0."): t for k, t in params.items()}
        m = x.shape[1]
        tp = tt.layer_norm(tt.Tensor(x), p["norm.gain"], p["norm.bias"])
        xs = tt.linear(tp, p["lin_x.weight"], p["lin_x.bias"])
        z = tt.linear(tp, p["lin_z.weight"], p["lin_z.bias"])
        conv_w, conv_b = p[f"{name}.conv1d.weight"], p[f"{name}.conv1d.bias"]
        order = np.arange(m)
        if name.endswith("shifted"):
            order = (order + a) % m  # step i reads position (i + a) mod M
        if name.startswith("backward"):
            order = order[::-1]
        xo = tt.take_along(xs, order[None, :, None], axis=1)
        stream = tt.transpose(xo, (0, 2, 1))
        conv = tt.conv1d_circular(stream, conv_w).data + conv_b.data[None, :, None]
        xp = tt.transpose(tt.silu(conv), (0, 2, 1))
        yo = ssm.selective_ssm(xp, params, f"olm.L0.{name}")
        y = tt.take_along(yo, np.argsort(order)[None, :, None], axis=1)
        mixed = tt.mul(y, tt.silu(z))
        return tt.add(tt.linear(mixed, p["lin_T.weight"], p["lin_T.bias"]), tt.Tensor(x)).data

    @pytest.mark.parametrize("keep", bk.DIRECTIONS)
    def test_direction_isolation(self, keep):
        # Kill three branches through their conv stage; the block must match a
        # hand-assembled single-branch pipeline bit for bit.
        model = _model(4)
        params = _init(model, 42, "olm.L0.")
        for name in bk.DIRECTIONS:
            if name != keep:
                params[f"olm.L0.{name}.conv1d.weight"].data[...] = 0.0
                params[f"olm.L0.{name}.conv1d.bias"].data[...] = 0.0
        x = np.random.default_rng(3).normal(size=(1, 7, 4))
        got = bk.olm_forward(tt.Tensor(x), params).data
        want = self._single_branch_reference(x, params, keep, a=0)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("keep", ["forward_shifted", "backward_shifted"])
    def test_shifted_branch_uses_drawn_offset(self, keep):
        # Train mode with only one rotated branch alive must match the
        # reference composition evaluated at the given offset, taken mod M.
        model = _model(4)
        params = _init(model, 42, "olm.L0.")
        for name in bk.DIRECTIONS:
            if name != keep:
                params[f"olm.L0.{name}.conv1d.weight"].data[...] = 0.0
                params[f"olm.L0.{name}.conv1d.bias"].data[...] = 0.0
        x = np.random.default_rng(3).normal(size=(1, 11, 4))
        want = self._single_branch_reference(x, params, keep, a=7)
        for offset in (7, 7 + 11, 7 - 11):
            got = bk.olm_forward(tt.Tensor(x), params, offset).data
            np.testing.assert_array_equal(got, want)

    def test_gradients(self):
        model = _model(4)
        init = _init(model, 42, "olm.L0.")
        names = sorted(init)
        arrays = [np.random.default_rng(1).normal(size=(1, 8, 4))]
        arrays += [init[n].data.copy() for n in names]

        def op(x, *weights):
            return bk.olm_forward(x, dict(zip(names, weights)), 3)

        check_grads(op, arrays, np.random.default_rng(11))


class TestStack:
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_stack_shapes(self, l):
        model = _model(4, l=l)
        rng = np.random.default_rng(42)
        params = _init(model, 42, "olm.")
        assert {n.split(".")[1] for n in params} == {f"L{i}" for i in range(l)} | {"final_norm"}
        x = tt.Tensor(rng.normal(size=(2, 6, 4)))
        out = bk.olm_stack(x, params, model, None)
        assert out.shape == (2, 6, 4)

    def test_zero_weight_stack_reduces_to_final_norm(self):
        model = _model(3, l=2)
        rng = np.random.default_rng(42)
        params = _init(model, 42, "olm.")
        for i in range(model.olm_blocks):
            _zero_block(params, f"olm.L{i}")
        x = tt.Tensor(rng.normal(size=(1, 5, 3)))
        out = bk.olm_stack(x, params, model, None)
        want = tt.layer_norm(x, params["olm.final_norm.gain"],
                             params["olm.final_norm.bias"]).data
        np.testing.assert_array_equal(out.data, want)

    def test_stack_eval_reruns_bit_identical(self):
        model = _model(4, l=2)
        params = _init(model, 42, "olm.")
        x = tt.Tensor(np.random.default_rng(2).normal(size=(1, 12, 4)))
        a = bk.olm_stack(x, params, model, None).data
        b = bk.olm_stack(x, params, model, None).data
        np.testing.assert_array_equal(a, b)

    def test_stack_gives_block_i_offset_i(self):
        model = _model(4, l=3)
        params = _init(model, 42, "olm.")
        x = tt.Tensor(np.random.default_rng(2).normal(size=(1, 10, 4)))
        got = bk.olm_stack(x, params, model, [3, 0, 7]).data
        want = x
        for i, offset in enumerate((3, 0, 7)):
            want = bk.olm_forward(want, params, offset, f"olm.L{i}")
        want = tt.layer_norm(want, params["olm.final_norm.gain"],
                             params["olm.final_norm.bias"])
        np.testing.assert_array_equal(got, want.data)
        np.testing.assert_array_equal(bk.olm_stack(x, params, model, [0, 0, 0]).data,
                                      bk.olm_stack(x, params, model).data)

    @pytest.mark.parametrize("offsets", [[], [1, 2], [1, 2, 3, 4]])
    def test_stack_needs_one_offset_per_block(self, offsets):
        model = _model(4, l=3)
        params = _init(model, 42, "olm.")
        x = tt.Tensor(np.random.default_rng(2).normal(size=(1, 10, 4)))
        with pytest.raises(ContractError, match="one start offset per mixing block"):
            bk.olm_stack(x, params, model, offsets)


class TestNaming:
    def test_checkpoint_names(self):
        model = _model(4, l=2)
        params = _init(model, 42, "olm.")
        names = set(params)
        for i in range(2):
            for stem in ["norm.gain", "norm.bias", "lin_x.weight", "lin_x.bias",
                         "lin_z.weight", "lin_z.bias", "lin_T.weight", "lin_T.bias"]:
                assert f"olm.L{i}.{stem}" in names
            for dname in ["forward", "forward_shifted", "backward", "backward_shifted"]:
                for stem in ["conv1d.weight", "conv1d.bias", "A_log", "D",
                             "proj_BC.weight", "proj_BC.bias",
                             "proj_Δ.weight", "proj_Δ.bias"]:
                    assert f"olm.L{i}.{dname}.{stem}" in names
        assert "olm.final_norm.gain" in names
        assert "olm.final_norm.bias" in names
        # 8 block-level + 4 directions * 8 per block, + 2 final
        assert len(names) == 2 * (8 + 4 * 8) + 2


# the acceptance model of test_06
ACCEPTANCE = pl.ModelConfig(h=16, w=128, stages=((8, 2, 2), (16, 2, 2), (16, 2, 2),
                                                 (32, 2, 2)),
                            spp_mode="add", olm_n=4, vlad_k=8, mlp_hidden=64, out_dim=32)


def _range_images(n, seed):
    rng = np.random.default_rng(seed)
    images = []
    for _ in range(n):
        r = rng.uniform(1.0, 40.0, size=(ACCEPTANCE.h, ACCEPTANCE.w))
        r[rng.random(size=r.shape) < 0.2] = -1.0
        images.append(RangeImage(r, r_max=50.0))
    return images


class TestConcurrentBranches:
    """The acceptance model with its four branches run in order on the
    calling thread (the size rule at infinity) and through ``tt.concurrent``
    (at 0): the same bits, the same tape, the same errors."""

    def _serial(self, monkeypatch):
        monkeypatch.setattr(bk, "_CONCURRENT_MACS", np.inf)

    def _concurrent(self, monkeypatch, workers=2):
        monkeypatch.setattr(bk, "_CONCURRENT_MACS", 0)
        monkeypatch.setattr(tt, "_usable_cpus", lambda: workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_eval_descriptors_bit_equal(self, monkeypatch, workers):
        params = pl.init_model(ACCEPTANCE, seed=42)
        images = _range_images(3, seed=1)
        self._serial(monkeypatch)
        want = pl.describe_images(images, params, ACCEPTANCE)
        self._concurrent(monkeypatch, workers)
        np.testing.assert_array_equal(pl.describe_images(images, params, ACCEPTANCE), want)

    def test_taped_step_records_the_serial_tape_and_gradients(self, monkeypatch):
        x = pl.prepare_batch(_range_images(5, seed=2))
        g = np.random.default_rng(3).standard_normal((5, ACCEPTANCE.out_dim))

        def step():
            params = pl.init_model(ACCEPTANCE, seed=42)
            with tt.Tape() as tape:
                out = pl.model_forward(x, params, ACCEPTANCE, [92])
                loss = tt.tsum(tt.mul(out, tt.Tensor(g)))
            kinds = [node.backward.__qualname__ for node in tape._nodes]
            tt.backward(loss, tape)
            return kinds, {name: t.grad for name, t in params.items()}

        self._serial(monkeypatch)
        want_kinds, want_grads = step()
        self._concurrent(monkeypatch)
        kinds, grads = step()
        assert kinds == want_kinds
        assert grads.keys() == want_grads.keys()
        for name, grad in grads.items():
            np.testing.assert_array_equal(grad, want_grads[name], err_msg=name)

    def test_failing_branch_raises_the_serial_error(self, monkeypatch):
        params = pl.init_model(ACCEPTANCE, seed=42)
        # softplus of the step-size head underflows to 0 in one branch only
        params["olm.L0.backward.proj_Δ.bias"].data[...] = -1e4
        images = _range_images(1, seed=1)
        self._serial(monkeypatch)
        with pytest.raises(ContractError) as want:
            pl.describe_images(images, params, ACCEPTANCE)
        self._concurrent(monkeypatch)
        with pytest.raises(ContractError) as got:
            pl.describe_images(images, params, ACCEPTANCE)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value) == "step sizes must be strictly positive"
