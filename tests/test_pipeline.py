"""Tests for model assembly, checkpoints, and config files."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rangeloop import backbone as bb
from rangeloop import io
from rangeloop import pipeline as pl
from rangeloop import tensor as tt
from rangeloop.errors import ConfigError, ContractError
from rangeloop.rangeview import RangeImage

TOY = pl.ModelConfig(h=16, w=40, olm_n=2, vlad_k=4, mlp_hidden=32, out_dim=16)

# sorted (name, shape) of every TOY checkpoint tensor
TOY_LAYOUT = [
    ('backbone.s0.bias', (64,)),
    ('backbone.s0.weight', (64, 1, 2, 1)),
    ('backbone.s1.bias', (128,)),
    ('backbone.s1.weight', (128, 64, 2, 1)),
    ('backbone.s2.bias', (256,)),
    ('backbone.s2.weight', (256, 128, 2, 1)),
    ('backbone.s3.bias', (256,)),
    ('backbone.s3.weight', (256, 256, 2, 1)),
    ('backbone.spp.bias', (256,)),
    ('backbone.spp.weight', (256, 1024, 1)),
    ('gdg.assign.bias', (4,)),
    ('gdg.assign.weight', (256, 4)),
    ('gdg.centers', (4, 256)),
    ('gdg.mlp1.bias', (32,)),
    ('gdg.mlp1.weight', (1024, 32)),
    ('gdg.mlp2.bias', (16,)),
    ('gdg.mlp2.weight', (32, 16)),
    ('olm.L0.backward.A_log', (512, 2)),
    ('olm.L0.backward.D', (512,)),
    ('olm.L0.backward.conv1d.bias', (512,)),
    ('olm.L0.backward.conv1d.weight', (512, 512, 3)),
    ('olm.L0.backward.proj_BC.bias', (20,)),
    ('olm.L0.backward.proj_BC.weight', (512, 20)),
    ('olm.L0.backward.proj_Δ.bias', (512,)),
    ('olm.L0.backward.proj_Δ.weight', (16, 512)),
    ('olm.L0.backward_shifted.A_log', (512, 2)),
    ('olm.L0.backward_shifted.D', (512,)),
    ('olm.L0.backward_shifted.conv1d.bias', (512,)),
    ('olm.L0.backward_shifted.conv1d.weight', (512, 512, 3)),
    ('olm.L0.backward_shifted.proj_BC.bias', (20,)),
    ('olm.L0.backward_shifted.proj_BC.weight', (512, 20)),
    ('olm.L0.backward_shifted.proj_Δ.bias', (512,)),
    ('olm.L0.backward_shifted.proj_Δ.weight', (16, 512)),
    ('olm.L0.forward.A_log', (512, 2)),
    ('olm.L0.forward.D', (512,)),
    ('olm.L0.forward.conv1d.bias', (512,)),
    ('olm.L0.forward.conv1d.weight', (512, 512, 3)),
    ('olm.L0.forward.proj_BC.bias', (20,)),
    ('olm.L0.forward.proj_BC.weight', (512, 20)),
    ('olm.L0.forward.proj_Δ.bias', (512,)),
    ('olm.L0.forward.proj_Δ.weight', (16, 512)),
    ('olm.L0.forward_shifted.A_log', (512, 2)),
    ('olm.L0.forward_shifted.D', (512,)),
    ('olm.L0.forward_shifted.conv1d.bias', (512,)),
    ('olm.L0.forward_shifted.conv1d.weight', (512, 512, 3)),
    ('olm.L0.forward_shifted.proj_BC.bias', (20,)),
    ('olm.L0.forward_shifted.proj_BC.weight', (512, 20)),
    ('olm.L0.forward_shifted.proj_Δ.bias', (512,)),
    ('olm.L0.forward_shifted.proj_Δ.weight', (16, 512)),
    ('olm.L0.lin_T.bias', (256,)),
    ('olm.L0.lin_T.weight', (512, 256)),
    ('olm.L0.lin_x.bias', (512,)),
    ('olm.L0.lin_x.weight', (256, 512)),
    ('olm.L0.lin_z.bias', (512,)),
    ('olm.L0.lin_z.weight', (256, 512)),
    ('olm.L0.norm.bias', (256,)),
    ('olm.L0.norm.gain', (256,)),
    ('olm.final_norm.bias', (256,)),
    ('olm.final_norm.gain', (256,)),
]


def _toy_images(n, rng, h=16, w=40):
    out = []
    for _ in range(n):
        r = rng.uniform(1.0, 40.0, size=(h, w))
        r[rng.random(size=(h, w)) < 0.2] = -1.0
        out.append(RangeImage(r, r_max=50.0))
    return out


class TestConfig:
    def test_token_dim_follows_backbone(self):
        assert TOY.token_dim == 256
        assert pl.ModelConfig(h=64).token_dim == 256

    def test_rejects_tiny_grid(self):
        with pytest.raises(ConfigError):
            pl.ModelConfig(h=1, w=40)

    def test_rejects_plan_that_misses_height(self):
        with pytest.raises(ConfigError):
            pl.ModelConfig(h=24, w=40)  # not a power of two, and no stage plan

    @pytest.mark.parametrize("key, value", [
        ("spp_kernel", 4), ("olm_n", 0), ("olm_blocks", 0), ("olm_conv_kernel", 4),
        ("olm_e", 3), ("vlad_k", 0), ("out_dim", 0), ("h", 24),
    ])
    def test_every_field_checked_when_built(self, key, value):
        with pytest.raises(ConfigError):
            pl.ModelConfig(**{key: value})

    def test_empty_plan_is_stored_resolved(self):
        assert pl.ModelConfig(h=16).stages == bb.default_stages(16)
        assert pl.ModelConfig() == pl.ModelConfig(stages=bb.default_stages(64))

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "model.cfg"
        io.save_kv(path, io.config_pairs(TOY))
        back = io.config_from_pairs(pl.ModelConfig, io.load_kv_pairs(path))
        assert back.h == TOY.h and back.w == TOY.w
        assert back.stages == pl.ModelConfig(h=16).stages
        assert back.vlad_k == TOY.vlad_k
        assert back.out_dim == TOY.out_dim
        # explicit stages survive
        assert back.stages == TOY.stages

    def test_config_file_stage_lines(self, tmp_path):
        path = tmp_path / "model.cfg"
        io.save_kv(path, io.config_pairs(TOY))
        lines = [l for l in path.read_text().splitlines() if l.startswith("stage=")]
        assert len(lines) == len(TOY.stages)
        assert all(len(l.split("=", 1)[1].split(",")) == 3 for l in lines)

    def test_config_rejects_unknown_key(self):
        with pytest.raises(ContractError):
            io.config_from_pairs(pl.ModelConfig,
                                 [("h", "16"), ("w", "40"), ("bogus", "1")])

    def test_config_rejects_bad_stage(self):
        with pytest.raises(ContractError):
            io.config_from_pairs(pl.ModelConfig, [("stage", "16,2")])

    @pytest.mark.parametrize("stages", [((16, 2),), ((8, 2, 2), (16, 2, 2, 2))])
    def test_stage_needs_three_values(self, stages):
        with pytest.raises(ConfigError, match=r"a stage must be \(C, k, s\)"):
            pl.ModelConfig(h=4, stages=stages)


class TestForward:
    def test_descriptor_shape_and_norm(self):
        params = pl.init_model(TOY, seed=42)
        rng = np.random.default_rng(1)
        x = pl.prepare_batch(_toy_images(2, rng))
        out = pl.model_forward(x, params, TOY)
        assert out.shape == (2, 16)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-12)

    def test_eval_forward_deterministic(self):
        params = pl.init_model(TOY, seed=42)
        x = pl.prepare_batch(_toy_images(1, np.random.default_rng(1)))
        a = pl.model_forward(x, params, TOY).data
        b = pl.model_forward(x, params, TOY).data
        np.testing.assert_array_equal(a, b)

    def test_offsets_select_train_forward(self):
        # one start offset per mixing block; no offsets is the eval forward,
        # every offset 0
        params = pl.init_model(TOY, seed=42)
        x = pl.prepare_batch(_toy_images(1, np.random.default_rng(1)))
        eval_out = pl.model_forward(x, params, TOY).data
        np.testing.assert_array_equal(pl.model_forward(x, params, TOY, [0]).data, eval_out)
        assert np.abs(pl.model_forward(x, params, TOY, [32]).data - eval_out).max() > 1e-8

    def test_bypass_olm_differs_from_full(self):
        params = pl.init_model(TOY, seed=42)
        x = pl.prepare_batch(_toy_images(1, np.random.default_rng(1)))
        full = pl.model_forward(x, params, TOY).data
        bypass = pl.model_forward(x, params, TOY, bypass_olm=True).data
        assert np.abs(full - bypass).max() > 1e-6

    def test_bypassed_pipeline_shift_invariant(self):
        # Yaw rotation shifts range image columns; without the causal mixing
        # stack the descriptor must not move.
        params = pl.init_model(TOY, seed=42)
        images = _toy_images(1, np.random.default_rng(1))
        base = pl.describe_images(images, params, TOY, bypass_olm=True)
        r = images[0].ranges
        for s in [1, 10, 20]:
            shifted = [RangeImage(np.roll(r, s, axis=1), r_max=images[0].r_max)]
            moved = pl.describe_images(shifted, params, TOY, bypass_olm=True)
            np.testing.assert_allclose(moved, base, atol=1e-9)

    def test_describe_images_matches_batched_forward(self):
        params = pl.init_model(TOY, seed=42)
        images = _toy_images(3, np.random.default_rng(1))
        per_scan = pl.describe_images(images, params, TOY)
        batched = pl.model_forward(pl.prepare_batch(images), params, TOY).data
        np.testing.assert_allclose(per_scan, batched, atol=1e-12)

    def test_describe_no_images(self):
        out = pl.describe_images([], pl.init_model(TOY, seed=42), TOY)
        assert out.shape == (0, TOY.out_dim) and out.dtype == np.float64

    def test_gradients_reach_every_parameter(self):
        params = pl.init_model(TOY, seed=42)
        x = pl.prepare_batch(_toy_images(1, np.random.default_rng(1)))
        with tt.Tape() as tape:
            out = pl.model_forward(x, params, TOY, [32])
            loss = tt.tsum(tt.mul(out, out))
        tt.backward(loss, tape)
        missing = [n for n, t in params.items() if t.grad is None]
        assert missing == []


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        params = pl.init_model(TOY, seed=42)
        path = tmp_path / "model.omck"
        io.save_checkpoint(path, params)
        back = pl.load_model(path, TOY)
        for name, t in params.items():
            got = back[name].data
            np.testing.assert_array_equal(got, t.data.astype(np.float32).astype(np.float64))

    def test_loaded_model_reproduces_descriptors(self, tmp_path):
        params = pl.init_model(TOY, seed=42)
        # quantize in-place so save/load is lossless for the comparison
        for t in params.values():
            t.data = t.data.astype(np.float32).astype(np.float64)
        path = tmp_path / "model.omck"
        io.save_checkpoint(path, params)
        back = pl.load_model(path, TOY)
        images = _toy_images(2, np.random.default_rng(1))
        np.testing.assert_array_equal(
            pl.describe_images(images, params, TOY),
            pl.describe_images(images, back, TOY),
        )

    def test_mismatched_config_rejected(self, tmp_path):
        params = pl.init_model(TOY, seed=42)
        path = tmp_path / "model.omck"
        io.save_checkpoint(path, params)
        other = pl.ModelConfig(h=16, w=40, olm_n=2, vlad_k=8, mlp_hidden=32, out_dim=16)
        with pytest.raises(ContractError):
            pl.load_model(path, other)

    def test_same_seed_same_init(self):
        a = pl.init_model(TOY, seed=7)
        b = pl.init_model(TOY, seed=7)
        for name, t in a.items():
            np.testing.assert_array_equal(t.data, b[name].data)

    def test_draw_stream_is_pinned(self):
        # the first and last tensors drawn: a reordered, added or dropped
        # draw moves at least one of these values
        assert [n for n, _, _ in pl.param_layout(TOY)] == list(pl.init_model(TOY, 0))
        params = pl.init_model(TOY, seed=42)
        assert params["backbone.s0.weight"].data.flat[0] == 0.3874323593619855
        assert params["gdg.mlp2.weight"].data.flat[-1] == 0.013324524762770407

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        params = pl.init_model(TOY, seed=42)
        path = tmp_path / "model.omck"
        io.save_checkpoint(path, params)

        def no_rng(*args, **kwargs):
            raise AssertionError("load_model drew from a generator")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        back = pl.load_model(path, TOY)
        assert list(back) == list(params)
        for name, t in params.items():
            np.testing.assert_array_equal(back[name].data,
                                          t.data.astype(np.float32).astype(np.float64))
            assert back[name].requires_grad

    def test_load_holds_one_copy_of_the_weights(self, tmp_path):
        params = pl.init_model(TOY, seed=42)
        path = tmp_path / "model.omck"
        io.save_checkpoint(path, params)
        weight_bytes = sum(t.data.nbytes for t in params.values())
        del params
        tracemalloc.start()
        try:
            pl.load_model(path, TOY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the float64 weights plus the file's float32 bytes, not a second copy
        assert peak < 1.75 * weight_bytes, peak / weight_bytes

    @pytest.mark.parametrize("name", ["backbone.s0.bias", "olm.L0.forward.proj_Δ.bias"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, name, value):
        params = pl.init_model(TOY, seed=42)
        params[name].data[1] = value
        path = tmp_path / "model.omck"
        io.save_checkpoint(path, params)
        with pytest.raises(ContractError, match=f"model.omck: tensor '{name}' is not finite"):
            pl.load_model(path, TOY)

    def test_layout_is_pinned(self):
        # a renamed or reshaped tensor orphans every saved .omck file
        params = pl.init_model(TOY, seed=0)
        assert sorted((n, t.shape) for n, t in params.items()) == TOY_LAYOUT


def test_import_starts_no_thread_pool():
    # the fork-join pool of tensor.concurrent starts on first use, so
    # importing the model costs no thread and no concurrent.futures import
    code = ("import sys, threading\n"
            "import rangeloop.pipeline\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "1"]
