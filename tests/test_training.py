"""Tests for losses, mining, and the training loop."""

import collections
import csv
import os

import numpy as np
import pytest

from rangeloop import io
from rangeloop import pipeline as pl
from rangeloop.selfcheck import _loss_selection, check_grads
from rangeloop import tensor as tt
from rangeloop import training as tr
from rangeloop.errors import ConfigError, ContractError, DegenerateInputError, ShapeError
from rangeloop.rangeview import RangeImage, TrainingTuple


def _unit(i, dim=4):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


class TestSqDist:
    """The squared distances from row 0 of a tuple matrix to its other rows."""

    def test_identical_is_zero(self):
        desc = np.tile([0.3, -0.2, 0.9], (4, 1))
        d_p, d_n = tr._split_distances(desc, 2)
        assert d_p.data.tolist() == [0.0, 0.0] and d_n.data.tolist() == [0.0]

    def test_unit_vectors(self):
        d_p, d_n = tr._split_distances(np.stack([_unit(0), _unit(1), _unit(2)]), 1)
        assert d_p.data.tolist() == [2.0] and d_n.data.tolist() == [2.0]

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            a, b, c = rng.normal(size=(3, 6))
            ab = tr._split_distances(np.stack([a, b, c]), 1)[0]
            ba = tr._split_distances(np.stack([b, a, c]), 1)[0]
            assert float(ab.data[0]) == float(ba.data[0])

    def test_dim_mismatch(self):
        with pytest.raises(ContractError, match="matrix"):
            tr._split_distances(np.zeros(5), 1)
        for n_p in (0, 3):  # no positive, or no negative, among 3 candidates
            with pytest.raises(ContractError, match="one positive and one negative"):
                tr._split_distances(np.zeros((4, 2)), n_p)

    def test_gradient(self):
        rng = np.random.default_rng(42)
        check_grads(lambda d: tt.concat(tr._split_distances(d, 2), axis=0),
                    [rng.normal(size=(5, 3))], rng)


def _fixed_distance_matrix(d_pos, d_neg, dim=8):
    """A tuple matrix with exact squared distances to a zero query, and its
    positive count.

    A row with a single entry sqrt(d) has squared distance d from zero."""
    desc = np.zeros((1 + len(d_pos) + len(d_neg), dim))
    for i, d in enumerate(d_pos):
        desc[1 + i, i] = np.sqrt(d)
    for i, d in enumerate(d_neg):
        desc[1 + len(d_pos) + i, dim // 2 + i] = np.sqrt(d)
    return desc, len(d_pos)


class TestTripletLoss:
    def test_hinge_inactive(self):
        desc, n_p = _fixed_distance_matrix([1.0], [4.0])
        loss = tr.triplet_loss(desc, n_p, 0.3, np.random.default_rng(0))
        assert float(loss.data) == 0.0

    def test_hinge_active(self):
        desc, n_p = _fixed_distance_matrix([4.0], [1.0])
        loss = tr.triplet_loss(desc, n_p, 0.3, np.random.default_rng(0))
        np.testing.assert_allclose(float(loss.data), 3.3, atol=1e-12)

    def test_equal_distances_give_margin_per_pair(self):
        desc, n_p = _fixed_distance_matrix([2.0, 2.0], [2.0, 2.0])
        loss = tr.triplet_loss(desc, n_p, 0.25, np.random.default_rng(0))
        np.testing.assert_allclose(float(loss.data), 0.5, atol=1e-12)

    def test_pairs_use_min_set_size(self):
        desc, n_p = _fixed_distance_matrix([2.0, 2.0, 2.0], [2.0])
        loss = tr.triplet_loss(desc, n_p, 0.25, np.random.default_rng(0))
        np.testing.assert_allclose(float(loss.data), 0.25, atol=1e-12)

    def test_empty_sets_rejected(self):
        desc, _ = _fixed_distance_matrix([1.0], [1.0])
        with pytest.raises(ContractError):
            tr.triplet_loss(desc, 0, 0.25, np.random.default_rng(0))
        with pytest.raises(ContractError):
            tr.triplet_loss(desc, 2, 0.25, np.random.default_rng(0))

    def test_shuffle_is_seeded(self):
        desc = np.random.default_rng(42).normal(size=(9, 6))
        a = float(tr.triplet_loss(desc, 4, 0.25, np.random.default_rng(3)).data)
        b = float(tr.triplet_loss(desc, 4, 0.25, np.random.default_rng(3)).data)
        assert a == b

    def test_gradient(self):
        rng = np.random.default_rng(42)
        check_grads(lambda d: tr.triplet_loss(d, 2, 0.5, np.random.default_rng(5)),
                    [rng.normal(size=(5, 4))], rng)


class TestMining:
    """The positive and negative the hard-mining loss selects."""

    def test_hand_examples(self):
        desc, n_p = _fixed_distance_matrix([0.2, 0.9, 0.5], [1.5, 0.4, 2.0], dim=8)
        assert _loss_selection(desc, n_p) == (1, 1)

    def test_ties_take_lowest_index(self):
        desc, n_p = _fixed_distance_matrix([1.0, 1.0], [2.0, 2.0])
        assert _loss_selection(desc, n_p) == (0, 0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            q = rng.normal(size=6)
            pos = [rng.normal(size=6) for _ in range(rng.integers(1, 7))]
            neg = [rng.normal(size=6) for _ in range(rng.integers(1, 7))]
            got = _loss_selection(np.stack([q, *pos, *neg]), len(pos))
            d_p = [np.sum((q - p) ** 2) for p in pos]
            d_n = [np.sum((q - n) ** 2) for n in neg]
            want = (max(range(len(d_p)), key=lambda i: (d_p[i], -i)),
                    min(range(len(d_n)), key=lambda i: (d_n[i], i)))
            assert got == want

    def test_empty_rejected(self):
        q = np.zeros(2)
        with pytest.raises(ContractError):
            _loss_selection(np.stack([q, q]), 0)


class TestImTrihard:
    def test_hand_value(self):
        desc, n_p = _fixed_distance_matrix([1.0, 4.0], [2.0, 3.0])
        loss = tr.imtrihard_loss(desc, n_p, 0.25, 1e-4)
        np.testing.assert_allclose(float(loss.data), 4.50025, atol=1e-12)

    def test_far_negatives_clamp_to_zero(self):
        desc, n_p = _fixed_distance_matrix([0.1], [100.0])
        assert float(tr.imtrihard_loss(desc, n_p, 0.25, 1e-4).data) == 0.0

    def test_singleton_closed_form(self):
        desc, n_p = _fixed_distance_matrix([1.7], [0.9])
        want = max(1e-4 * 1.7 + 1.0 * (0.25 + 1.7) - 1.0 * 0.9, 0.0)
        np.testing.assert_allclose(float(tr.imtrihard_loss(desc, n_p, 0.25, 1e-4).data),
                                   want, atol=1e-12)

    def test_monotone_in_hardest_negative(self):
        # positives far enough that the loss stays above its clamp at zero
        prev = np.inf
        for d_min in [0.5, 1.0, 2.0, 4.0]:
            desc, n_p = _fixed_distance_matrix([1.0, 5.0], [d_min, d_min + 1.0])
            val = float(tr.imtrihard_loss(desc, n_p, 0.25, 1e-4).data)
            assert 0.0 < val < prev
            prev = val

    def test_gradient_routes_through_selected_members(self):
        rng = np.random.default_rng(42)
        q = np.zeros(4)
        pos = [rng.normal(size=4), rng.normal(size=4) * 3.0]  # index 1 farthest
        neg = [rng.normal(size=4) * 2.0, rng.normal(size=4) * 0.1]  # index 1 closest
        desc = tt.Tensor(np.stack([q, *pos, *neg]), requires_grad=True)
        with tt.Tape() as tape:
            loss = tr.imtrihard_loss(desc, 2, 0.25, 0.0)  # lam 0 silences the mean term
        tt.backward(loss, tape)
        moved = np.any(desc.grad != 0.0, axis=1)
        assert moved.tolist() == [True, False, True, False, True]

    def test_gradient(self):
        rng = np.random.default_rng(42)
        desc = rng.normal(size=(5, 4))
        # a loss above its clamp at zero, so the hinge does not cut the check
        assert float(tr.imtrihard_loss(desc, 2, 0.25, 1e-2).data) > 0.0
        check_grads(lambda d: tr.imtrihard_loss(d, 2, 0.25, 1e-2), [desc], rng)


def _numpy_losses(desc, n_p, alpha, lam, rng):
    """Both losses by a plain loop over the rows of a tuple matrix."""
    d = [float(np.sum((desc[0] - g) ** 2)) for g in desc[1:]]
    d_p, d_n = d[:n_p], d[n_p:]
    hard = max(lam * sum(d_p) / len(d_p) + len(d_p) * (alpha + max(d_p))
               - len(d_n) * min(d_n), 0.0)
    p_order, n_order = rng.permutation(len(d_p)), rng.permutation(len(d_n))
    triplet = sum(max(d_p[p_order[i]] - d_n[n_order[i]] + alpha, 0.0)
                  for i in range(min(len(d_p), len(d_n))))
    return hard, triplet


class TestMatrixLoss:
    def test_matches_numpy_loop(self):
        rng = np.random.default_rng(42)
        for n_p in range(1, 7):
            for n_n in range(1, 7):
                desc = rng.normal(size=(1 + n_p + n_n, 8))
                seed = int(rng.integers(1 << 31))
                hard, triplet = _numpy_losses(desc, n_p, 0.25, 1e-4,
                                              np.random.default_rng(seed))
                got_hard = float(tr.imtrihard_loss(desc, n_p, 0.25, 1e-4).data)
                got_triplet = float(tr.triplet_loss(desc, n_p, 0.25,
                                                    np.random.default_rng(seed)).data)
                np.testing.assert_allclose(got_hard, hard, rtol=1e-12, atol=1e-12)
                np.testing.assert_allclose(got_triplet, triplet, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", tr.LOSS_KINDS)
    def test_tape_size_independent_of_tuple_size(self, kind):
        cfg = tr.TrainConfig(loss=kind)
        nodes = []
        for k in (1, 6):
            desc = tt.Tensor(np.random.default_rng(0).normal(size=(1 + 2 * k, 8)),
                             requires_grad=True)
            with tt.Tape() as tape:
                tr.tuple_loss(desc, k, cfg, np.random.default_rng(0))
            nodes.append(len(tape))
        assert nodes[0] == nodes[1]


class TestTrainConfig:
    def test_kv_roundtrip(self):
        cfg = tr.TrainConfig(loss="triplet", alpha=0.3, lam=1e-3, lr=1e-4,
                             epochs=5, k_p=2, k_n=3, seed=9, overlap_threshold=0.4)
        back = io.config_from_pairs(tr.TrainConfig, io.config_pairs(cfg))
        assert back == cfg

    def test_kv_rejects_unknown(self):
        with pytest.raises(ContractError):
            io.config_from_pairs(tr.TrainConfig, [("momentum", "0.9")])

    def test_validation(self):
        with pytest.raises(ConfigError):
            tr.TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            tr.TrainConfig(lr=-1.0)
        with pytest.raises(ConfigError):
            tr.TrainConfig(overlap_threshold=1.5)
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            tr.TrainConfig(seed=-3)

    def test_loss_validation_messages(self):
        with pytest.raises(ConfigError, match="margin must be finite and positive"):
            tr.TrainConfig(alpha=0.0)
        with pytest.raises(ConfigError, match="compression weight"):
            tr.TrainConfig(lam=-1.0)
        with pytest.raises(ConfigError, match="unknown loss kind 'contrastive'"):
            tr.TrainConfig(loss="contrastive")

    @pytest.mark.parametrize("kwargs", [{"loss": "bogus"}, {"alpha": -1.0}, {"lam": -1.0}],
                             ids=lambda kwargs: next(iter(kwargs)))
    def test_loss_fields_validated_at_construction(self, kwargs):
        with pytest.raises(ConfigError):
            tr.TrainConfig(**kwargs)


class TestSplit:
    def test_small_sets_keep_everything(self):
        tuples = list(range(9))
        train, val = tr.split_validation(tuples)
        assert train == tuples and val == []

    def test_last_tenth_held_out(self):
        tuples = list(range(25))
        train, val = tr.split_validation(tuples)
        assert val == [23, 24]
        assert train == list(range(23))


TOY = pl.ModelConfig(h=8, w=24, stages=((8, 2, 2), (16, 2, 2), (32, 2, 2)),
                     olm_n=2, vlad_k=4, mlp_hidden=16, out_dim=8)


def _toy_dataset(n_scans=6, h=8, w=24, seed=1):
    rng = np.random.default_rng(seed)
    images = {}
    for i in range(n_scans):
        r = rng.uniform(1.0, 40.0, size=(h, w))
        r[rng.random(size=(h, w)) < 0.2] = -1.0
        images[i] = RangeImage(r, r_max=50.0)
    tuples = [
        TrainingTuple(query=0, positives=(1,), negatives=(2, 3)),
        TrainingTuple(query=1, positives=(0,), negatives=(4,)),
        TrainingTuple(query=2, positives=(3,), negatives=(0, 5)),
    ]
    return tuples, images


class TestTrainLoop:
    def test_acceptance_step_tape_size(self):
        # one imtrihard step of the acceptance model (test_06, the benchmark's
        # training model) on a 1+2+2 tuple records 98 nodes; a hot op split
        # into many small nodes shows here.  A kind is the op that recorded
        # the node: each scan reads A_log and its B, C columns itself, so no
        # exp is recorded and the 8 narrow nodes are the 4 step-size slices
        # and 4 of the loss
        model = pl.ModelConfig(h=16, w=128, stages=((8, 2, 2), (16, 2, 2), (16, 2, 2),
                                                    (32, 2, 2)),
                               spp_mode="add", olm_n=4, vlad_k=8, mlp_hidden=64, out_dim=32)
        _, images = _toy_dataset(n_scans=5, h=16, w=128)
        params = pl.init_model(model, seed=42)
        cfg = tr.TrainConfig(loss="imtrihard", k_p=2, k_n=2)
        tup = TrainingTuple(query=0, positives=(1, 2), negatives=(3, 4))
        rng = np.random.default_rng(0)
        with tt.Tape() as tape:
            desc = tr._forward_tuple(tup, images, params, model, rng)
            tr.tuple_loss(desc, 2, cfg, rng)
        kinds = collections.Counter(node.backward.__qualname__.split(".")[0]
                                    for node in tape._nodes)
        assert len(tape) == 98
        assert kinds == {
            "_conv": 8, "add": 9, "einsum2": 2, "l2_normalize": 3, "layer_norm": 2,
            "linear": 14, "maxpool1d_circular": 3, "mul": 9, "narrow": 8, "neg": 2,
            "relu": 1, "reshape": 3, "selective_scan": 4, "silu": 10, "softmax": 1,
            "softplus": 4, "sub": 3, "take_along": 1, "tmax": 2, "transpose": 6, "tsum": 3}

    def test_zero_lr_keeps_parameters_bitwise(self, tmp_path):
        tuples, images = _toy_dataset()
        params = pl.init_model(TOY, seed=42)
        before = {n: t.data.copy() for n, t in params.items()}
        cfg = tr.TrainConfig(loss="imtrihard", lr=0.0, epochs=1, seed=3)
        tr.train(tuples, images, params, TOY, cfg, tmp_path / "run")
        for n, t in params.items():
            np.testing.assert_array_equal(t.data, before[n])

    @staticmethod
    def _assert_same_float64_params(a, b):
        # a float32 checkpoint can hide a difference in the last float64 bits
        assert sorted(a) == sorted(b)
        for name in a:
            assert np.array_equal(a[name].data, b[name].data), name

    def test_same_seed_same_trajectory(self, tmp_path):
        tuples, images = _toy_dataset()
        cfg = tr.TrainConfig(loss="imtrihard", lr=1e-4, epochs=2, seed=3)
        reports, runs = [], []
        for run in range(2):
            params = pl.init_model(TOY, seed=42)
            reports.append(tr.train(tuples, images, params, TOY, cfg,
                                    tmp_path / f"run{run}"))
            runs.append(params)
        assert [r.mean_loss for r in reports[0]] == [r.mean_loss for r in reports[1]]
        self._assert_same_float64_params(*runs)

    def test_checkpoints_bit_identical_across_runs(self, tmp_path):
        tuples, images = _toy_dataset()
        cfg = tr.TrainConfig(loss="triplet", lr=1e-4, epochs=1, seed=3)
        blobs, runs = [], []
        for run in range(2):
            params = pl.init_model(TOY, seed=42)
            out = tmp_path / f"run{run}"
            tr.train(tuples, images, params, TOY, cfg, out)
            blobs.append((out / "final.omck").read_bytes())
            runs.append(params)
        assert blobs[0] == blobs[1]
        self._assert_same_float64_params(*runs)

    def test_report_csv_schema(self, tmp_path):
        tuples, images = _toy_dataset()
        params = pl.init_model(TOY, seed=42)
        cfg = tr.TrainConfig(loss="imtrihard", lr=1e-4, epochs=2, seed=3)
        out = tmp_path / "run"
        reports = tr.train(tuples, images, params, TOY, cfg, out)
        with open(out / "report.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["epoch", "mean_loss", "val_f1max"]
        assert len(rows) == 1 + len(reports)
        assert [int(r[0]) for r in rows[1:]] == [r.epoch for r in reports]
        for row, rep in zip(rows[1:], reports):
            assert float(row[1]) == rep.mean_loss

    def test_epoch_checkpoints_written(self, tmp_path):
        tuples, images = _toy_dataset()
        params = pl.init_model(TOY, seed=42)
        cfg = tr.TrainConfig(loss="imtrihard", lr=1e-4, epochs=2, seed=3)
        out = tmp_path / "run"
        tr.train(tuples, images, params, TOY, cfg, out)
        names = sorted(os.listdir(out))
        assert "epoch_000.omck" in names and "epoch_001.omck" in names
        assert "final.omck" in names and "report.csv" in names

    def test_nan_divergence_aborts_with_location(self, tmp_path):
        tuples, images = _toy_dataset()
        params = pl.init_model(TOY, seed=42)
        # poison one parameter so the first forward produces NaN
        params["gdg.mlp2.weight"].data[0, 0] = np.nan
        cfg = tr.TrainConfig(loss="imtrihard", lr=1e-4, epochs=1, seed=3)
        with pytest.raises(DegenerateInputError, match=r"epoch 0"):
            tr.train(tuples, images, params, TOY, cfg, tmp_path / "run")

    def test_missing_image_rejected_before_first_step(self, tmp_path):
        tuples, images = _toy_dataset()
        tuples[1] = TrainingTuple(query=1, positives=(0, 99), negatives=(4,))
        params = pl.init_model(TOY, seed=42)
        cfg = tr.TrainConfig(loss="imtrihard", lr=1e-4, epochs=1, seed=3)
        with pytest.raises(ContractError, match="query 1 names scan 99"):
            tr.train(tuples, images, params, TOY, cfg, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("widened", [(4,), (0, 1, 2, 3, 4, 5)], ids=["one", "all"])
    def test_image_width_other_than_model_rejected(self, tmp_path, widened):
        tuples, images = _toy_dataset()
        for i in widened:  # 30 columns for the model's 24
            images[i] = RangeImage(np.concatenate([images[i].ranges, images[i].ranges[:, :6]],
                                                  axis=1), r_max=50.0)
        params = pl.init_model(TOY, seed=42)
        cfg = tr.TrainConfig(loss="imtrihard", lr=1e-4, epochs=1, seed=3)
        with pytest.raises(ShapeError, match="has 30 columns, the model expects 24"):
            tr.train(tuples, images, params, TOY, cfg, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_empty_dataset_rejected(self, tmp_path):
        params = pl.init_model(TOY, seed=42)
        cfg = tr.TrainConfig()
        with pytest.raises(ContractError):
            tr.train([], {}, params, TOY, cfg, tmp_path / "run")

    def test_max_steps_caps_work(self, tmp_path):
        tuples, images = _toy_dataset()
        params = pl.init_model(TOY, seed=42)
        cfg = tr.TrainConfig(loss="imtrihard", lr=1e-4, epochs=50, seed=3)
        reports = tr.train(tuples, images, params, TOY, cfg,
                           tmp_path / "run", max_steps=4)
        # 3 train tuples per epoch: cap lands inside epoch 1
        assert len(reports) == 2

    def test_negative_max_steps_rejected_before_writing(self, tmp_path):
        # -1 once read as a cap already reached: one step, both checkpoints
        tuples, images = _toy_dataset()
        params = pl.init_model(TOY, seed=42)
        cfg = tr.TrainConfig(loss="imtrihard", lr=1e-4, epochs=1, seed=3)
        with pytest.raises(ContractError, match="max_steps must be >= 0"):
            tr.train(tuples, images, params, TOY, cfg, tmp_path / "run", max_steps=-1)
        assert not (tmp_path / "run").exists()

    def test_validation_split_f1(self, tmp_path):
        # 10+ tuples so one lands in the validation split
        rng = np.random.default_rng(4)
        images = {}
        for i in range(12):
            r = rng.uniform(1.0, 40.0, size=(8, 24))
            images[i] = RangeImage(r, r_max=50.0)
        tuples = [TrainingTuple(query=i, positives=((i + 1) % 12,),
                                negatives=((i + 2) % 12, (i + 3) % 12))
                  for i in range(10)]
        params = pl.init_model(TOY, seed=42)
        cfg = tr.TrainConfig(loss="imtrihard", lr=1e-4, epochs=1, seed=3)
        reports = tr.train(tuples, images, params, TOY, cfg, tmp_path / "run")
        assert 0.0 <= reports[0].val_f1max <= 1.0


class TestClampedSteps:
    """A step whose hinge is clamped at 0 skips its backward and gives
    Adam.step broadcast zero gradients; training is bit for bit the
    always-backward loop."""

    # a small margin and a large rate on the toy set give both kinds of step
    # in 2 epochs of 3 steps, for either loss
    CFG = dict(alpha=1e-3, lr=1e-2, epochs=2, seed=3)

    @staticmethod
    def _reference(tuples, images, params, cfg):
        """``train``'s loop with the same rng draws, sweeping every tape."""
        adam = tr.Adam(params, lr=cfg.lr)
        rng = np.random.default_rng(cfg.seed)
        train_tuples, _ = tr.split_validation(tuples)
        losses = []
        for _ in range(cfg.epochs):
            for idx in rng.permutation(len(train_tuples)):
                tup = train_tuples[int(idx)]
                with tt.Tape() as tape:
                    desc = tr._forward_tuple(tup, images, params, TOY, rng)
                    loss = tr.tuple_loss(desc, len(tup.positives), cfg, rng)
                tt.backward(loss, tape)
                adam.step()
                losses.append(float(loss.data))
        return adam, losses

    @pytest.mark.parametrize("loss", tr.LOSS_KINDS)
    def test_matches_always_backward_loop(self, tmp_path, monkeypatch, loss):
        tuples, images = _toy_dataset()
        cfg = tr.TrainConfig(loss=loss, **self.CFG)
        ref_params = pl.init_model(TOY, seed=42)
        ref_adam, ref_losses = self._reference(tuples, images, ref_params, cfg)

        losses = []
        original = tr.tuple_loss

        def recorded(*args, **kwargs):
            out = original(*args, **kwargs)
            losses.append(float(out.data))
            return out

        made = []

        class RecordingAdam(tr.Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(tr, "tuple_loss", recorded)
        monkeypatch.setattr(tr, "Adam", RecordingAdam)
        params = pl.init_model(TOY, seed=42)
        lines = []
        tr.train(tuples, images, params, TOY, cfg, tmp_path / "run", log=lines.append)
        (adam,) = made

        assert np.array(losses).view(np.uint64).tolist() == \
            np.array(ref_losses).view(np.uint64).tolist()
        clamped = sum(v == 0.0 for v in losses)
        assert 0 < clamped < len(losses), losses
        assert adam.t == ref_adam.t == len(losses)
        for name in sorted(params):
            for got, want in ((params[name].data, ref_params[name].data),
                              (adam.m[name], ref_adam.m[name]),
                              (adam.v[name], ref_adam.v[name])):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), name
        per_epoch = [sum(v == 0.0 for v in losses[i:i + 3]) for i in (0, 3)]
        assert [line.split()[-1] for line in lines] == [f"clamped={k}/3" for k in per_epoch]

    def test_skipped_tape_released_before_update(self, tmp_path, monkeypatch):
        import weakref

        tapes = []

        class WeakTape(tt.Tape):  # a subclass without __slots__ takes weakrefs
            def __enter__(self):
                tapes.append(weakref.ref(self))
                return super().__enter__()

        losses = []
        original_loss = tr.tuple_loss

        def recorded(*args, **kwargs):
            out = original_loss(*args, **kwargs)
            losses.append(float(out.data))
            return out

        seen = []  # per clamped step's update: is its tape already freed?
        original = tr.Adam.step

        def step(adam):
            if losses[-1] == 0.0:
                seen.append(tapes[-1]() is None)
            original(adam)

        monkeypatch.setattr(tt, "Tape", WeakTape)
        monkeypatch.setattr(tr, "tuple_loss", recorded)
        monkeypatch.setattr(tr.Adam, "step", step)
        tuples, images = _toy_dataset()
        params = pl.init_model(TOY, seed=42)
        cfg = tr.TrainConfig(loss="imtrihard", **self.CFG)
        tr.train(tuples, images, params, TOY, cfg, tmp_path / "run")
        assert seen and all(seen)

    def test_selfcheck_guards_the_premise(self):
        from rangeloop import selfcheck as sc
        assert dict(sc.CHECKS)["clamped_loss_zero_gradient"] is \
            sc.check_clamped_loss_zero_gradient
        assert len(sc.CHECKS) == 18
        assert "all 57 gradients zero" in sc.check_clamped_loss_zero_gradient()
