"""Losses, hard mining, and the descriptor training loop.

Each training step takes one tuple (query scan, its positives, its
negatives), pushes every member through the full model in a single batch,
and updates all parameters with Adam.  The model returns the tuple as one
(1+P+N, D) descriptor matrix: row 0 is the query, the next P rows are the
positives and the remaining N rows the negatives.  The losses read that
matrix directly: one subtract, square and row sum give every candidate's
squared distance to the query.  Two losses are provided: a paired hinge over
(positive, negative) couples, and a hard-mining variant that weights the
worst positive and the best negative, which converges in fewer epochs on the
same data.

Both losses are hinges that ``relu`` clamps at 0, and a step whose loss is
exactly 0.0 has only zero gradients: ``relu``'s adjoint masks with input > 0.
``train`` skips the backward of such a step, drops its tape, and gives
``Adam.step`` a read-only broadcast zero for every gradient, which moves the
moments and weights bit for bit as after a sweep that returned zeros.  The
epoch log counts these clamped steps.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import io
from . import pipeline as pl
from . import tensor as tt
from .errors import ConfigError, ContractError, DegenerateInputError, ShapeError
from .optim import Adam

LOSS_KINDS = ("triplet", "imtrihard")


def _split_distances(desc, n_p: int):
    """Squared Euclidean distances from row 0 of ``desc`` to the positives
    (the next ``n_p`` rows) and to the negatives (the remaining rows), as two
    differentiable vectors."""
    desc = tt.as_tensor(desc)
    if desc.ndim != 2:
        raise ContractError(f"descriptors must be a (1+P+N, D) matrix, got shape {desc.shape}")
    n_c = desc.shape[0] - 1
    if not 1 <= n_p < n_c:
        raise ContractError("loss requires at least one positive and one negative")
    q = tt.reshape(tt.narrow(desc, 0, 0, 1), (desc.shape[1],))
    diff = tt.sub(tt.narrow(desc, 0, 1, n_c), q)
    d = tt.tsum(tt.mul(diff, diff), axis=1)
    return tt.narrow(d, 0, 0, n_p), tt.narrow(d, 0, n_p, n_c - n_p)


def triplet_loss(desc, n_p: int, alpha: float, rng: np.random.Generator) -> tt.Tensor:
    """Paired hinge: sum over (p, n) couples of max(d(q,p) - d(q,n) + alpha, 0).

    ``desc`` is the (1+P+N, D) tuple matrix: row 0 the query, the next
    ``n_p`` rows the positives, the rest the negatives.  Couples are formed
    positionwise over min(P, N) members after an rng-driven shuffle of each
    side, so no fixed positive always meets the same negative.
    """
    d_p, d_n = _split_distances(desc, n_p)
    p_order = rng.permutation(d_p.shape[0])
    n_order = rng.permutation(d_n.shape[0])
    pairs = min(len(p_order), len(n_order))
    d_p = tt.take_along(d_p, p_order[:pairs], axis=0)
    d_n = tt.take_along(d_n, n_order[:pairs], axis=0)
    return tt.tsum(tt.relu(tt.add(tt.sub(d_p, d_n), alpha)))


def imtrihard_loss(desc, n_p: int, alpha: float, lam: float) -> tt.Tensor:
    """Hard-mining loss: max(lam * mean_p d(q,p) + k_p*(alpha + max_p d(q,p))
    - k_n * min_n d(q,n), 0), on the (1+P+N, D) tuple matrix laid out as for
    ``triplet_loss``.

    Gradients flow through every positive via the mean term and through the
    selected hardest positive / hardest negative via the max/min subgradient.
    """
    d_p, d_n = _split_distances(desc, n_p)
    k_p, k_n = d_p.shape[0], d_n.shape[0]
    loss = tt.add(
        tt.mul(tt.tmean(d_p), lam),
        tt.sub(
            tt.mul(tt.add(tt.tmax(d_p), alpha), float(k_p)),
            tt.mul(tt.tmin(d_n), float(k_n)),
        ),
    )
    return tt.relu(loss)


def tuple_loss(desc, n_p: int, cfg: TrainConfig, rng: np.random.Generator) -> tt.Tensor:
    """The configured loss of one tuple's (1+P+N, D) descriptor matrix."""
    if cfg.loss == "triplet":
        return triplet_loss(desc, n_p, cfg.alpha, rng)
    return imtrihard_loss(desc, n_p, cfg.alpha, cfg.lam)


# --------------------------------------------------------------------------
# training loop


@dataclass(frozen=True)
class TrainConfig:
    loss: str = "imtrihard"
    alpha: float = 0.25
    lam: float = field(default=1e-4, metadata={"key": "lambda"})
    lr: float = 5e-6
    epochs: int = 20
    k_p: int = 6
    k_n: int = 6
    seed: int = 42
    overlap_threshold: float = 0.3

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.lr < math.inf:
            raise ConfigError(f"learning rate must be finite and >= 0, got {self.lr}")
        if self.k_p < 1 or self.k_n < 1:
            raise ConfigError("k_p and k_n must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.overlap_threshold < 1.0:
            raise ConfigError(
                f"overlap threshold must lie in (0, 1), got {self.overlap_threshold}"
            )
        # chained comparisons: NaN fails every one of them
        if not 0 < self.alpha < math.inf:
            raise ConfigError(f"margin must be finite and positive, got {self.alpha}")
        if not 0 <= self.lam < math.inf:
            raise ConfigError(f"compression weight must be finite and >= 0, got {self.lam}")
        if self.loss not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {self.loss!r}, expected {LOSS_KINDS}")


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    mean_loss: float
    val_f1max: float  # nan when there is no validation split


def split_validation(tuples):
    """Last 10% of tuples held out; they are never trained on."""
    n_val = len(tuples) // 10
    if n_val == 0:
        return list(tuples), []
    return list(tuples[:-n_val]), list(tuples[-n_val:])


def _forward_tuple(tup, images, params, cfg: pl.ModelConfig,
                   rng: np.random.Generator) -> tt.Tensor:
    """The model's (1+P+N, D) descriptor matrix of a tuple: the query, then
    its positives, then its negatives."""
    ids = [tup.query, *tup.positives, *tup.negatives]
    return pl.model_forward(pl.prepare_batch([images[i] for i in ids]), params,
                            cfg, rng=rng)


def validation_f1max(val_tuples, images, params, cfg: pl.ModelConfig):
    """Rank the query against its own candidates: each (query, positive)
    scores as a true pair and each (query, negative) as a false pair at
    similarity -distance; F1 is maximized over thresholds."""
    from .retrieval import pr_metrics

    scores = []
    for tup in val_tuples:
        desc = _forward_tuple(tup, images, params, cfg, rng=None).data
        d = np.sum((desc[1:] - desc[0]) ** 2, axis=1)
        n_p = len(tup.positives)
        scores.extend((-float(v), i < n_p) for i, v in enumerate(d))
    _, f1max = pr_metrics(scores)
    return f1max


def check_inputs(tuples, images, model_cfg: pl.ModelConfig) -> None:
    """Raise unless there is a tuple and every scan a tuple names has a
    range image of model_cfg.h rows and model_cfg.w columns; ``train`` runs
    this before it writes."""
    if not tuples:
        raise ContractError("training requires at least one tuple")
    for tup in tuples:
        for i in (tup.query, *tup.positives, *tup.negatives):
            if i not in images:
                raise ContractError(
                    f"tuple with query {tup.query} names scan {i}, which has no range image"
                )
            for n, want, unit in ((images[i].h, model_cfg.h, "rows"),
                                  (images[i].w, model_cfg.w, "columns")):
                if n != want:
                    raise ShapeError(f"scan {i} has {n} {unit}, the model expects {want}")


def train(tuples, images, params: dict, model_cfg: pl.ModelConfig,
          cfg: TrainConfig, out_dir, max_steps: int = 0, log=None):
    """Run the optimization and checkpoint every epoch.

    tuples: TrainingTuple list; images: scan id -> RangeImage, each
    model_cfg.h by model_cfg.w (checked before anything is written).  max_steps
    caps the total number of optimizer steps (0 means no cap).  Returns the
    per-epoch reports and writes report.csv plus epoch checkpoints under
    out_dir.  A step whose loss is exactly 0.0 runs no backward (see the
    module docstring).
    """
    if max_steps < 0:
        raise ContractError(f"max_steps must be >= 0 (0 means no cap), got {max_steps}")
    check_inputs(tuples, images, model_cfg)
    os.makedirs(out_dir, exist_ok=True)
    train_tuples, val_tuples = split_validation(tuples)
    adam = Adam(params, lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    reports = []
    steps = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_tuples))
        losses = []
        clamped = 0  # steps whose loss is 0.0 and whose backward is skipped
        for pos, idx in enumerate(order):
            tup = train_tuples[int(idx)]
            try:
                with tt.Tape() as tape:
                    desc = _forward_tuple(tup, images, params, model_cfg, rng)
                    loss = tuple_loss(desc, len(tup.positives), cfg, rng)
            except (DegenerateInputError, ContractError) as exc:
                # A value contract tripped by an optimizer update (for
                # example step sizes driven out of their domain) is a
                # divergence, not a usage error.
                raise DegenerateInputError(
                    f"training diverged at epoch {epoch}, tuple {pos} "
                    f"(query {tup.query}): {exc}"
                ) from exc
            value = float(loss.data)
            if not np.isfinite(value):
                raise DegenerateInputError(
                    f"training diverged: non-finite loss at epoch {epoch}, "
                    f"tuple {pos} (query {tup.query})"
                )
            if value > 0.0:
                tt.backward(loss, tape)
            else:
                # a clamped hinge: every gradient is zero, so the sweep is
                # skipped and the unswept tape freed before the update
                del tape, desc, loss
                for p in params.values():
                    p.grad = np.broadcast_to(0.0, p.shape)
                clamped += 1
            adam.step()
            losses.append(value)
            steps += 1
            if max_steps and steps >= max_steps:
                break
        mean_loss = float(np.mean(losses)) if losses else float("nan")
        f1 = (validation_f1max(val_tuples, images, params, model_cfg)
              if val_tuples else float("nan"))
        reports.append(EpochReport(epoch=epoch, mean_loss=mean_loss, val_f1max=f1))
        io.save_checkpoint(os.path.join(out_dir, f"epoch_{epoch:03d}.omck"), params)
        if log:
            log(f"epoch {epoch}: mean_loss={mean_loss:.6f} val_f1max={f1:.4f} "
                f"clamped={clamped}/{len(losses)}")
        if max_steps and steps >= max_steps:
            break
    io.save_checkpoint(os.path.join(out_dir, "final.omck"), params)
    write_report(os.path.join(out_dir, "report.csv"), reports)
    return reports


def write_report(path, reports) -> None:
    """A CSV header, then one row per epoch; no field needs quoting, and a
    row ends in "\r\n" as the `csv` module ends it."""
    rows = [("epoch", "mean_loss", "val_f1max")]
    rows += [(str(r.epoch), repr(r.mean_loss), repr(r.val_f1max)) for r in reports]
    io._write_text(path, (",".join(row) + "\r" for row in rows))
