"""Descriptor head: aggregation correctness, bit-exact shift invariance."""

import numpy as np
import pytest
from rangeloop.selfcheck import check_grads

from rangeloop import descriptor as gd
from rangeloop import pipeline as pl
from rangeloop import tensor as T
from rangeloop.errors import DegenerateInputError


GDG_NAMES = ("gdg.centers", "gdg.assign.weight", "gdg.assign.bias", "gdg.mlp1.weight",
             "gdg.mlp1.bias", "gdg.mlp2.weight", "gdg.mlp2.bias")


def make_params(seed, d, k, hidden, out):
    """The "gdg." entries of init_model's dict for a model with token width d:
    one (d, 2, 2) stage flattens a 2-row image."""
    model = pl.ModelConfig(h=2, stages=((d, 2, 2),), vlad_k=k, mlp_hidden=hidden,
                           out_dim=out)
    return {name: t for name, t in pl.init_model(model, seed).items()
            if name.startswith("gdg.")}


def vlad_params(p):
    """The cluster table, assignment weight and assignment bias of a head."""
    return [p[name] for name in GDG_NAMES[:3]]


class TestNetvlad:
    def test_single_cluster_hand_aggregation(self):
        seq = T.Tensor(np.array([[[1.0], [2.0]]]))  # (1, 2, 1)
        centers = T.Tensor(np.zeros((1, 1)))
        assign_w = T.Tensor(np.zeros((1, 1)))
        assign_b = T.Tensor(np.zeros(1))
        out = gd.netvlad_forward(seq, centers, assign_w, assign_b)
        np.testing.assert_allclose(out.data, [[1.0]], atol=1e-15)

    def test_position_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(42)
        p = make_params(42, d=6, k=4, hidden=16, out=8)
        seq = rng.standard_normal((2, 11, 6))
        base = gd.netvlad_forward(
            T.Tensor(seq), *vlad_params(p)
        ).data
        for s in range(3):
            perm = np.random.default_rng(s).permutation(11)
            out = gd.netvlad_forward(
                T.Tensor(seq[:, perm, :]), *vlad_params(p)
            ).data
            np.testing.assert_array_equal(out, base)

    def test_permutation_invariant_bitwise_with_duplicate_rows(self):
        # empty range-image columns give identical tokens: rows that tie
        rng = np.random.default_rng(42)
        p = make_params(42, d=6, k=4, hidden=16, out=8)
        seq = rng.standard_normal((2, 12, 6))
        seq[:, [1, 5, 6, 9], :] = seq[:, [3], :]
        seq[:, 10, :] = 0.0
        seq[:, 11, :] = 0.0
        base = gd.netvlad_forward(
            T.Tensor(seq), *vlad_params(p)
        ).data
        for s in range(4):
            perm = np.random.default_rng(s).permutation(12)
            out = gd.netvlad_forward(
                T.Tensor(seq[:, perm, :]), *vlad_params(p)
            ).data
            np.testing.assert_array_equal(out, base)

    def test_residual_cancellation_gives_zero(self):
        c = np.array([[0.7, -0.2]])
        seq = T.Tensor(np.tile(c, (1, 5, 1)))  # every token equals the center
        out = gd.netvlad_forward(
            seq, T.Tensor(c), T.Tensor(np.zeros((2, 1))), T.Tensor(np.zeros(1))
        )
        np.testing.assert_array_equal(out.data, np.zeros((1, 2)))

    def test_output_is_unit_norm_or_zero(self):
        rng = np.random.default_rng(42)
        p = make_params(42, d=5, k=3, hidden=8, out=4)
        out = gd.netvlad_forward(
            T.Tensor(rng.standard_normal((4, 9, 5))), *vlad_params(p)
        )
        np.testing.assert_allclose(
            np.linalg.norm(out.data, axis=1), np.ones(4), atol=1e-12
        )


class TestGdgForward:
    def test_output_dim_and_unit_norm(self):
        rng = np.random.default_rng(42)
        p = make_params(42, d=8, k=4, hidden=32, out=256)
        g = gd.gdg_forward(T.Tensor(rng.standard_normal((3, 13, 8))), p)
        assert g.shape == (3, 256)
        np.testing.assert_allclose(np.linalg.norm(g.data, axis=1), np.ones(3), atol=1e-6)

    def test_circular_shift_invariance_bitwise(self):
        rng = np.random.default_rng(42)
        p = make_params(42, d=6, k=4, hidden=16, out=12)
        m = 16
        seq = rng.standard_normal((1, m, 6))
        base = gd.gdg_forward(T.Tensor(seq), p).data
        for s in (1, m // 4, m // 2):
            out = gd.gdg_forward(T.Tensor(np.roll(seq, s, axis=1)), p).data
            np.testing.assert_array_equal(out, base)

    def test_circular_shift_invariance_bitwise_with_duplicate_rows(self):
        rng = np.random.default_rng(42)
        p = make_params(42, d=6, k=4, hidden=16, out=12)
        m = 16
        seq = rng.standard_normal((1, m, 6))
        seq[0, 4:9, :] = 0.0  # a run of empty columns
        seq[0, [2, 13], :] = seq[0, 11, :]
        base = gd.gdg_forward(T.Tensor(seq), p).data
        for s in range(1, m):
            out = gd.gdg_forward(T.Tensor(np.roll(seq, s, axis=1)), p).data
            np.testing.assert_array_equal(out, base)

    def test_zero_collapse_flagged(self):
        rng = np.random.default_rng(42)
        p = make_params(42, d=4, k=2, hidden=8, out=6)
        p["gdg.mlp2.weight"] = T.Tensor(np.zeros((8, 6)), requires_grad=True)
        p["gdg.mlp2.bias"] = T.Tensor(np.zeros(6), requires_grad=True)
        with pytest.raises(DegenerateInputError, match="zero"):
            gd.gdg_forward(T.Tensor(rng.standard_normal((1, 5, 4))), p)

    def test_nan_token_flagged_not_finite(self):
        # a NaN must not pass aggregation as a zero vector and leave the MLP
        # as a finite descriptor built from its biases
        rng = np.random.default_rng(42)
        p = make_params(42, d=4, k=2, hidden=8, out=6)
        p["gdg.mlp1.bias"].data[...] = 0.1
        seq = rng.standard_normal((1, 5, 4))
        seq[0, 2, 1] = np.nan
        with pytest.raises(DegenerateInputError, match="not finite"):
            gd.gdg_forward(T.Tensor(seq), p)

    def test_different_seeds_still_unit_norm(self):
        rng_in = np.random.default_rng(0)
        seq = rng_in.standard_normal((2, 7, 5))
        for seed in (1, 2):
            p = make_params(seed, d=5, k=3, hidden=8, out=16)
            g = gd.gdg_forward(T.Tensor(seq), p)
            np.testing.assert_allclose(
                np.linalg.norm(g.data, axis=1), np.ones(2), atol=1e-6
            )

    def test_small_perturbation_moves_descriptor_proportionally(self):
        rng = np.random.default_rng(42)
        p = make_params(42, d=5, k=3, hidden=16, out=8)
        seq = rng.standard_normal((1, 9, 5))
        base = gd.gdg_forward(T.Tensor(seq), p).data
        deltas, moves = [], []
        for eps in (1e-4, 1e-5, 1e-6):
            bumped = seq.copy()
            bumped[0, 3, 2] += eps
            out = gd.gdg_forward(T.Tensor(bumped), p).data
            deltas.append(eps)
            moves.append(np.linalg.norm(out - base))
        ratios = [m / e for m, e in zip(moves, deltas)]
        # locally linear: the response per unit perturbation is stable
        assert max(ratios) < 10.0 * min(ratios) + 1e-9

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)

        def op(seq, *weights):
            return gd.gdg_forward(seq, dict(zip(GDG_NAMES, weights)))

        arrays = [
            rng.standard_normal((1, 5, 3)),
            rng.standard_normal((2, 3)) * 0.3,
            rng.standard_normal((3, 2)) * 0.5,
            rng.standard_normal(2) * 0.1,
            rng.standard_normal((6, 4)) * 0.5,
            rng.standard_normal(4) * 0.1,
            rng.standard_normal((4, 3)) * 0.5,
            rng.standard_normal(3) * 0.1,
        ]
        check_grads(op, arrays, rng)

    def test_gradients_match_finite_differences_through_repeated_row(self):
        rng = np.random.default_rng(7)

        def op(seq, *weights):
            return gd.gdg_forward(seq, dict(zip(GDG_NAMES, weights)))

        seq = rng.standard_normal((2, 5, 3))
        seq[:, 3, :] = seq[:, 0, :]  # a tie in the canonical order
        arrays = [
            seq,
            rng.standard_normal((2, 3)) * 0.3,
            rng.standard_normal((3, 2)) * 0.5,
            rng.standard_normal(2) * 0.1,
            rng.standard_normal((6, 4)) * 0.5,
            rng.standard_normal(4) * 0.1,
            rng.standard_normal((4, 3)) * 0.5,
            rng.standard_normal(3) * 0.1,
        ]
        check_grads(op, arrays, rng)
