"""Backbone stage plans, pyramid pooling, and exact shift equivariance."""

import numpy as np
import pytest
from rangeloop.selfcheck import check_grads

from rangeloop import backbone as bb
from rangeloop import pipeline as pl
from rangeloop import tensor as T
from rangeloop.errors import ConfigError, ShapeError


def tiny_model(h=8, c_final=32, mode="concat"):
    return pl.ModelConfig(h=h, stages=bb.default_stages(h, c_final), spp_mode=mode,
                          vlad_k=1, mlp_hidden=1, out_dim=1)


def spp_model(kernel, depth, mode):
    """A model whose pooling is (kernel, depth, mode); spp_forward reads only that."""
    return pl.ModelConfig(h=2, stages=((1, 2, 2),), spp_kernel=kernel, spp_depth=depth,
                          spp_mode=mode)


def backbone_params(model):
    """The "backbone." entries of init_model's dict at seed 42."""
    return {name: t for name, t in pl.init_model(model, 42).items()
            if name.startswith("backbone.")}


class TestStagePlans:
    def test_default_plan_for_64_rows(self):
        stages = bb.default_stages(64, 256)
        assert stages == (
            (16, 2, 2), (32, 2, 2), (64, 2, 2), (128, 2, 2), (256, 2, 2), (256, 2, 2)
        )
        cfg = pl.ModelConfig(h=64, stages=stages)
        assert bb.height_trace(cfg.stages, cfg.h) == [64, 32, 16, 8, 4, 2, 1]

    def test_default_plan_for_32_rows(self):
        stages = bb.default_stages(32, 256)
        assert stages == ((32, 2, 2), (64, 2, 2), (128, 2, 2), (256, 2, 2), (256, 2, 2))
        assert bb.height_trace(pl.ModelConfig(h=32, stages=stages).stages, 32)[-1] == 1

    def test_plan_not_reaching_one_lists_trace(self):
        with pytest.raises(ConfigError, match=r"\[8, 4\]"):
            pl.ModelConfig(h=8, stages=((8, 2, 2),))

    def test_plan_dying_midway_rejected(self):
        with pytest.raises(ConfigError):
            pl.ModelConfig(h=8, stages=((8, 4, 4), (8, 4, 4)))

    def test_odd_height_has_no_default_plan(self):
        with pytest.raises(ConfigError):
            bb.default_stages(48)


class TestBackboneForward:
    def test_output_shape_full_size(self):
        rng = np.random.default_rng(42)
        model = tiny_model(h=64, c_final=256)
        params = backbone_params(model)
        x = T.Tensor(rng.random((1, 1, 64, 900)))
        out = bb.backbone_forward(x, params, model)
        assert out.shape == (1, 900, 256)

    def test_zero_image_zero_biases_zero_output(self):
        model = tiny_model()
        params = backbone_params(model)
        out = bb.backbone_forward(T.Tensor(np.zeros((2, 1, 8, 12))), params, model)
        np.testing.assert_array_equal(out.data, np.zeros((2, 12, 32)))

    @pytest.mark.parametrize("mode", ["concat", "add"])
    def test_exact_shift_equivariance(self, mode):
        rng = np.random.default_rng(42)
        model = tiny_model(h=16, c_final=32, mode=mode)
        params = backbone_params(model)
        w = 40
        x = rng.random((1, 1, 16, w))
        base = bb.backbone_forward(T.Tensor(x), params, model).data
        for s in (1, w // 4, w // 2):
            shifted = bb.backbone_forward(
                T.Tensor(np.roll(x, s, axis=3)), params, model
            ).data
            assert np.max(np.abs(shifted - np.roll(base, s, axis=1))) < 1e-12

    def test_sequence_length_equals_width(self):
        rng = np.random.default_rng(42)
        model = tiny_model(h=8, c_final=16)
        params = backbone_params(model)
        for w in (7, 24, 61):
            out = bb.backbone_forward(T.Tensor(rng.random((1, 1, 8, w))), params, model)
            assert out.shape == (1, w, 16)

    def test_gradients_flow_to_all_parameters(self):
        rng = np.random.default_rng(42)
        model = tiny_model(h=4, c_final=8)
        params = backbone_params(model)
        x = T.Tensor(rng.random((1, 1, 4, 6)), requires_grad=True)
        with T.Tape() as tape:
            out = bb.backbone_forward(x, params, model)
            loss = T.tsum(T.mul(out, out))
        T.backward(loss, tape)
        for name, p in params.items():
            assert p.grad is not None, name
        assert x.grad is not None

    @pytest.mark.parametrize("rows", [7, 9, 10])
    def test_rejects_other_heights(self, rows):
        model = tiny_model(h=8, c_final=16)
        params = backbone_params(model)
        with pytest.raises(ShapeError, match=f"{rows} rows, the model expects 8"):
            bb.backbone_forward(T.Tensor(np.zeros((1, 1, rows, 5))), params, model)

    def test_rejects_zero_columns(self):
        # no tokens: the head would return a descriptor of its biases alone
        model = tiny_model(h=8, c_final=16)
        params = backbone_params(model)
        with pytest.raises(ShapeError, match="no columns"):
            bb.backbone_forward(T.Tensor(np.zeros((1, 1, 8, 0))), params, model)


class TestSppForward:
    def test_single_pool_window_example(self):
        x = T.Tensor(np.array([1.0, 0, 0, 0, 0, 0]).reshape(1, 1, 6))
        pooled = bb.spp_forward(x, {}, spp_model(kernel=5, depth=1, mode="add"))
        # add mode with depth 1: x + maxpool(x)
        want = np.array([1.0, 0, 0, 0, 0, 0]) + np.array([1.0, 1, 1, 0, 1, 1])
        np.testing.assert_array_equal(pooled.data.reshape(-1), want)

    def test_constant_sequence_add_mode(self):
        x = T.Tensor(np.full((1, 3, 9), 2.5))
        out = bb.spp_forward(x, {}, spp_model(kernel=5, depth=3, mode="add"))
        np.testing.assert_array_equal(out.data, np.full((1, 3, 9), 10.0))

    def test_shift_commutes_both_modes(self):
        rng = np.random.default_rng(42)
        for mode in ("concat", "add"):
            model = tiny_model(h=4, c_final=8, mode=mode)
            params = backbone_params(model)
            seq = np.transpose(rng.random((1, 12, 8)), (0, 2, 1))  # (B, C, M)
            base = bb.spp_forward(T.Tensor(seq), params, model).data
            rolled = bb.spp_forward(T.Tensor(np.roll(seq, 3, axis=2)), params, model).data
            np.testing.assert_array_equal(rolled, np.roll(base, 3, axis=2))

    def test_pooling_never_decreases_channel_max(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 15, 4))
        levels = [T.Tensor(np.transpose(x, (0, 2, 1)))]
        for _ in range(3):  # depth 3, kernel 3
            levels.append(T.maxpool1d_circular(levels[-1], 3))
        for before, after in zip(levels, levels[1:]):
            assert (after.data.max(axis=2) >= before.data.max(axis=2) - 1e-15).all()

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            pl.ModelConfig(spp_kernel=4)


class TestBackboneGradients:
    def test_finite_difference_check(self):
        rng = np.random.default_rng(42)
        cfg = pl.ModelConfig(h=4, stages=((2, 2, 2), (3, 2, 2)), spp_kernel=3, spp_depth=2)

        names = ("backbone.s0.weight", "backbone.s0.bias", "backbone.s1.weight",
                 "backbone.s1.bias", "backbone.spp.weight", "backbone.spp.bias")

        def op(x, *weights):
            return bb.backbone_forward(x, dict(zip(names, weights)), cfg)

        arrays = [
            rng.random((1, 1, 4, 5)),
            rng.standard_normal((2, 1, 2, 1)) * 0.5,
            rng.standard_normal(2) * 0.1,
            rng.standard_normal((3, 2, 2, 1)) * 0.5,
            rng.standard_normal(3) * 0.1,
            rng.standard_normal((3, 9, 1)) * 0.5,
            rng.standard_normal(3) * 0.1,
        ]
        check_grads(op, arrays, rng)
