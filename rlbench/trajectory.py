"""Seeded descriptor trajectory for the loop_eval workload.

Like ``synthworld``, places are visited in round-major order (visit 0 of
every place, then visit 1, ...), so a revisit of place p comes n_places
frames after the previous one.  Each visit's descriptor is its place's unit
center plus noise, renormalised; a share of visits are aliased onto a random
other place, so some rank-1 hits are wrong and the precision-recall curve
is not degenerate.  Labels are sparse: only revisit pairs are listed, with
an overlap drawn above the positive threshold.  Positions are per-place grid
points with a small jitter, for the place-recognition protocol.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple

import numpy as np


class Trajectory(NamedTuple):
    ids: List[int]
    descriptors: np.ndarray  # (n, dim) unit rows
    positions: np.ndarray  # (n, 2) meters
    place_ids: np.ndarray  # (n,)
    labels: list  # rangeview.OverlapLabel, revisit pairs only


N_PLACES = 500
VISITS = 4
DIM = 256
NOISE = 0.05  # per-coordinate noise added to a place's unit center
ALIAS_FRAC = 0.1  # share of visits whose descriptor is another place's
SPACING = 20.0  # meters between place grid points
JITTER = 1.0  # meters, per axis, around a place's grid point


def make_trajectory(seed: int, n_places: int = N_PLACES) -> Trajectory:
    from rangeloop.rangeview import OverlapLabel

    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n_places, DIM))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    cols = math.ceil(math.sqrt(n_places))
    grid = np.stack([np.arange(n_places) % cols, np.arange(n_places) // cols],
                    axis=1) * SPACING

    place_ids = np.tile(np.arange(n_places), VISITS)
    n = place_ids.shape[0]
    source = place_ids.copy()
    aliased = rng.random(n) < ALIAS_FRAC
    source[aliased] = rng.integers(0, n_places, size=int(aliased.sum()))
    desc = centers[source] + NOISE * rng.standard_normal((n, DIM))
    desc /= np.linalg.norm(desc, axis=1, keepdims=True)
    positions = grid[place_ids] + rng.uniform(-JITTER, JITTER, size=(n, 2))

    labels = []
    for a in range(n):
        for b in range(a + n_places, n, n_places):
            labels.append(OverlapLabel(query=a, cand=b,
                                       overlap=float(rng.uniform(0.4, 0.9))))
    return Trajectory(ids=list(range(n)), descriptors=desc, positions=positions,
                      place_ids=place_ids, labels=labels)
