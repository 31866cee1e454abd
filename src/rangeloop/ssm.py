"""State-space sequence transforms.

The continuous system dh/dt = A h + B x, y = C h + D x is discretized per
step.  The selective form re-derives step size and the B/C projections from
the input at every position, which is what the sequence encoder trains.

Production path: ``selective_ssm`` projects the token stream and calls
``selective_scan``, which fuses Euler discretization, the recurrence and the
readout into one tape node with a hand-written reverse-time adjoint that
recomputes states instead of storing them (the hardware-aware recipe of
Mamba, Gu & Dao 2023, section 3.3).

Oracles, used by the tests and ``selfcheck`` and kept out of hot paths:
``discretize`` (Euler or zero-order hold) builds the (B, M, E, N) discrete
operators; ``scan_sequential`` runs the left-to-right recurrence on them and
``scan_parallel`` the same as a work-efficient associative scan (O(log M)
depth, via ``_pair_scan``); ``lti_kernel`` and ``causal_conv`` evaluate the
time-invariant special case as a causal convolution with an unrolled
kernel.  All of them record ordinary tape ops.

Shapes: state matrices are diagonal, so A is carried as an (E, N) table of
per-channel/state scalars.  Discrete operators are (B, M, E, N); token
streams are (B, M, E).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as tt
from .errors import ConfigError, ContractError, ShapeError


class DiscreteSsm(NamedTuple):
    abar: tt.Tensor  # (B, M, E, N)
    bbar: tt.Tensor  # (B, M, E, N)


@dataclass
class SsmParams:
    """Learned parameters of one selective-scan branch."""

    a_log: tt.Tensor  # (E, N); evolution is A = -exp(a_log)
    d: tt.Tensor  # (E,) skip gain
    proj_bc_w: tt.Tensor  # (E, R + 2N): per-step [dt | B | C] projection
    proj_bc_b: tt.Tensor  # (R + 2N,)
    proj_dt_w: tt.Tensor  # (R, E): low-rank step-size head
    proj_dt_b: tt.Tensor  # (E,)

    @property
    def n(self) -> int:
        return self.a_log.shape[1]

    @property
    def rank(self) -> int:
        return self.proj_dt_w.shape[0]

    def named(self, prefix: str) -> dict:
        return {
            f"{prefix}.A_log": self.a_log,
            f"{prefix}.D": self.d,
            f"{prefix}.proj_BC.weight": self.proj_bc_w,
            f"{prefix}.proj_BC.bias": self.proj_bc_b,
            f"{prefix}.proj_Δ.weight": self.proj_dt_w,
            f"{prefix}.proj_Δ.bias": self.proj_dt_b,
        }


def dt_rank_for(d_model: int) -> int:
    return max(1, -(-d_model // 16))


def init_ssm_params(rng: np.random.Generator, e: int, n: int, rank: int) -> SsmParams:
    """Stable starting point: slow decaying states (A_n = -n), unit skip,
    small projections, and step sizes softplus-landed in [1e-3, 1e-1]."""
    a_log = np.log(np.tile(np.arange(1, n + 1, dtype=np.float64), (e, 1)))
    scale_bc = 1.0 / np.sqrt(e)
    proj_bc_w = rng.uniform(-scale_bc, scale_bc, size=(e, rank + 2 * n))
    scale_dt = 1.0 / np.sqrt(rank)
    proj_dt_w = rng.uniform(-scale_dt, scale_dt, size=(rank, e))
    dt = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), size=e))
    proj_dt_b = np.log(np.expm1(dt))
    return SsmParams(
        a_log=tt.Tensor(a_log, requires_grad=True),
        d=tt.Tensor(np.ones(e), requires_grad=True),
        proj_bc_w=tt.Tensor(proj_bc_w, requires_grad=True),
        proj_bc_b=tt.Tensor(np.zeros(rank + 2 * n), requires_grad=True),
        proj_dt_w=tt.Tensor(proj_dt_w, requires_grad=True),
        proj_dt_b=tt.Tensor(proj_dt_b, requires_grad=True),
    )


# --------------------------------------------------------------------------
# discretization


def discretize(delta, a, b, mode: str = "euler") -> DiscreteSsm:
    """Per-step discrete operators from step sizes and continuous params.

    delta: (B, M, E) strictly positive.  a: (E, N) diagonal evolution.
    b: (B, M, N) per-step or (N,) time-invariant input map.

    zoh mode solves the step exactly for diagonal a (with the Taylor limit
    delta*b where |a| vanishes); euler keeps the exact decay factor but takes
    bbar = delta*b.
    """
    delta, a, b = tt.as_tensor(delta), tt.as_tensor(a), tt.as_tensor(b)
    if delta.ndim != 3:
        raise ShapeError(f"step sizes must be (B, M, E), got {delta.shape}")
    if a.ndim != 2:
        raise ShapeError(f"evolution table must be (E, N), got {a.shape}")
    if np.any(delta.data <= 0.0):
        raise ContractError("step sizes must be strictly positive")
    bb, m, e = delta.shape
    n = a.shape[1]
    if a.shape[0] != e:
        raise ShapeError(f"evolution table {a.shape} does not match E={e}")

    d4 = tt.broadcast_to(tt.reshape(delta, (bb, m, e, 1)), (bb, m, e, n))
    a4 = tt.broadcast_to(tt.reshape(a, (1, 1, e, n)), (bb, m, e, n))
    if b.ndim == 1:
        if b.shape[0] != n:
            raise ShapeError(f"input map {b.shape} does not match N={n}")
        b4 = tt.broadcast_to(tt.reshape(b, (1, 1, 1, n)), (bb, m, e, n))
    else:
        if b.shape != (bb, m, n):
            raise ShapeError(f"input map {b.shape} does not match (B, M, N)=({bb}, {m}, {n})")
        b4 = tt.broadcast_to(tt.reshape(b, (bb, m, 1, n)), (bb, m, e, n))

    abar = tt.exp(tt.mul(d4, a4))
    if mode == "euler":
        bbar = tt.mul(d4, b4)
    elif mode == "zoh":
        near_zero = np.broadcast_to(np.abs(a.data) < 1e-12, (bb, m, e, n))
        safe_a = tt.where_mask(near_zero, tt.broadcast_to(tt.ones(()), (bb, m, e, n)), a4)
        ratio = tt.div(tt.sub(abar, 1.0), safe_a)
        bbar = tt.mul(tt.where_mask(near_zero, d4, ratio), b4)
    else:
        raise ConfigError(f"unknown discretization mode {mode!r}")
    return DiscreteSsm(abar=abar, bbar=bbar)


# --------------------------------------------------------------------------
# scans


def scan_sequential(dssm: DiscreteSsm, c, d, x) -> tt.Tensor:
    """Exact left-to-right recurrence h_m = abar_m*h_{m-1} + bbar_m*x_m,
    read out as y_m = sum_n c*h + d*x.  h_0 = 0."""
    abar, bbar = dssm
    bb, m, e, n = abar.shape
    bx = _input_injection(bbar, x)
    h = tt.zeros((bb, e, n))
    steps = []
    for i in range(m):
        am = tt.reshape(tt.narrow(abar, 1, i, 1), (bb, e, n))
        bm = tt.reshape(tt.narrow(bx, 1, i, 1), (bb, e, n))
        h = tt.add(tt.mul(am, h), bm)
        steps.append(h)
    return _readout(tt.stack(steps, axis=1), c, d, x)


def combine(a2, b2, a1, b1):
    """Associative composition of affine recurrence steps, later o earlier:
    (a2, b2) o (a1, b1) = (a2*a1, a2*b1 + b2)."""
    return tt.mul(a2, a1), tt.add(tt.mul(a2, b1), b2)


def _pair_scan(a, b, axis: int):
    """Inclusive scan of affine steps by recursive pairwise contraction.

    Adjacent pairs are combined, the half-length sequence is scanned
    recursively (those are the odd-position results), and even positions are
    filled with one more combine each.  O(M) work, O(log M) depth, and a
    combination tree that depends only on M.
    """
    m = a.shape[axis]
    if m == 1:
        return a, b
    a_even, a_odd = tt.stride2(a, axis, 0), tt.stride2(a, axis, 1)
    b_even, b_odd = tt.stride2(b, axis, 0), tt.stride2(b, axis, 1)
    n_even = a_even.shape[axis]
    n_odd = a_odd.shape[axis]
    ca, cb = combine(a_odd, b_odd, tt.narrow(a_even, axis, 0, n_odd),
                     tt.narrow(b_even, axis, 0, n_odd))
    sa, sb = _pair_scan(ca, cb, axis)
    head_a = tt.narrow(a_even, axis, 0, 1)
    head_b = tt.narrow(b_even, axis, 0, 1)
    if n_even > 1:
        ea, eb = combine(
            tt.narrow(a_even, axis, 1, n_even - 1),
            tt.narrow(b_even, axis, 1, n_even - 1),
            tt.narrow(sa, axis, 0, n_even - 1),
            tt.narrow(sb, axis, 0, n_even - 1),
        )
        even_a = tt.concat([head_a, ea], axis=axis)
        even_b = tt.concat([head_b, eb], axis=axis)
    else:
        even_a, even_b = head_a, head_b
    return tt.interleave2(even_a, sa, axis), tt.interleave2(even_b, sb, axis)


def scan_parallel(dssm: DiscreteSsm, c, d, x) -> tt.Tensor:
    """Same contract as scan_sequential, evaluated as an associative scan."""
    abar, bbar = dssm
    bx = _input_injection(bbar, x)
    _, h = _pair_scan(abar, bx, axis=1)
    return _readout(h, c, d, x)


def _input_injection(bbar: tt.Tensor, x) -> tt.Tensor:
    x = tt.as_tensor(x)
    bb, m, e, n = bbar.shape
    if x.shape != (bb, m, e):
        raise ShapeError(f"input {x.shape} does not match operators {bbar.shape}")
    x4 = tt.broadcast_to(tt.reshape(x, (bb, m, e, 1)), (bb, m, e, n))
    return tt.mul(bbar, x4)


def _readout(h: tt.Tensor, c, d, x) -> tt.Tensor:
    c, d, x = tt.as_tensor(c), tt.as_tensor(d), tt.as_tensor(x)
    if c.ndim == 1:
        y = tt.einsum2("bmen,n->bme", h, c)
    elif c.ndim == 3:
        y = tt.einsum2("bmen,bmn->bme", h, c)
    else:
        raise ShapeError(f"readout map must be (N,) or (B, M, N), got {c.shape}")
    return tt.add(y, tt.mul(x, d))


# --------------------------------------------------------------------------
# time-invariant convolution form


def lti_kernel(abar, bbar, c, m_len: int) -> np.ndarray:
    """Unrolled convolution kernel K[e, m] = sum_n c_n * abar[e,n]^m * bbar[e,n].

    Only defined for time-invariant operators; per-step (selective) operators
    have no single kernel.
    """
    abar = np.asarray(abar, dtype=np.float64)
    bbar = np.asarray(bbar, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if abar.ndim != 2 or bbar.ndim != 2 or c.ndim != 1:
        raise ContractError(
            "convolution kernel requires time-invariant (E, N) operators; "
            f"got abar {abar.shape}, bbar {bbar.shape}, c {c.shape}"
        )
    powers = abar[None, :, :] ** np.arange(m_len)[:, None, None]  # (M, E, N)
    return np.einsum("n,men,en->em", c, powers, bbar)


def causal_conv(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """y[b, m, e] = sum_{t<=m} kernel[e, t] * x[b, m-t, e]."""
    bsz, m, e = x.shape
    out = np.zeros((bsz, m, e))
    for t in range(kernel.shape[1]):
        if t >= m:
            break
        out[:, t:, :] += kernel[:, t][None, None, :] * x[:, : m - t, :]
    return out


# --------------------------------------------------------------------------
# fused selective scan

# Steps per vectorised block of the fused scan.  Decay factors and input
# injections are formed for one block at a time, so the largest temporary is
# (B, _SCAN_CHUNK, E, N) however long the sequence is.
_SCAN_CHUNK = 64


def selective_scan(x, delta, a, b, c, d) -> tt.Tensor:
    """Euler-discretised selective scan as one tape node.

    x, delta: (B, M, E), delta strictly positive.  a: (E, N) diagonal
    evolution.  b, c: (B, M, N) per-step input and readout maps.  d: (E,)
    skip gain.  Evaluates, with h_0 = 0,

        h_m = exp(delta_m * a) * h_{m-1} + delta_m * x_m * b_m
        y_m = sum_n c_m * h_m + d * x_m

    left to right in blocks of ``_SCAN_CHUNK`` steps; no (B, M, E, N) tensor
    is kept.  While a tape records, only the state at each block boundary
    is saved.  The backward runs the adjoint recurrence right to left,
    lambda_m = c_m * gy_m + exp(delta_{m+1} * a) * lambda_{m+1}, recomputing
    each block's states from its saved boundary state.  Same result as
    ``discretize(mode="euler")`` followed by ``scan_sequential``.
    """
    x, delta, a, b, c, d = (tt.as_tensor(t) for t in (x, delta, a, b, c, d))
    if x.ndim != 3:
        raise ShapeError(f"input must be (B, M, E), got {x.shape}")
    bsz, m, e = x.shape
    if delta.shape != x.shape:
        raise ShapeError(f"step sizes {delta.shape} do not match input {x.shape}")
    if a.ndim != 2 or a.shape[0] != e:
        raise ShapeError(f"evolution table must be ({e}, N), got {a.shape}")
    n = a.shape[1]
    if b.shape != (bsz, m, n) or c.shape != (bsz, m, n):
        raise ShapeError(
            f"input/readout maps {b.shape}/{c.shape} do not match (B, M, N)=({bsz}, {m}, {n})")
    if d.shape != (e,):
        raise ShapeError(f"skip gain must be ({e},), got {d.shape}")
    if np.any(delta.data <= 0.0):
        raise ContractError("step sizes must be strictly positive")

    inputs = (x, delta, a, b, c, d)
    xd, dd, ad, bd, cd = x.data, delta.data, a.data, b.data, c.data
    blocks = [slice(s, min(s + _SCAN_CHUNK, m)) for s in range(0, m, _SCAN_CHUNK)]
    saved = [] if tt._recording(inputs) else None
    y = xd * d.data
    h = np.zeros((bsz, e, n))
    for sl in blocks:
        if saved is not None:
            saved.append(h)
        _, hs = _block_states(h, xd[:, sl], dd[:, sl], ad, bd[:, sl])
        y[:, sl] += np.einsum("blen,bln->ble", hs, cd[:, sl])
        h = hs[:, -1].copy()

    def fn(gy):
        gx = gy * d.data
        gd = np.einsum("bme,bme->e", gy, xd)
        gdelta = np.empty_like(dd)
        ga = np.zeros_like(ad)
        gb = np.empty_like(bd)
        gc = np.empty_like(cd)
        carry = np.zeros((bsz, e, n))  # exp(delta_{m+1} a) * lambda_{m+1}
        for sl, h0 in zip(reversed(blocks), reversed(saved)):
            xl, dl, bl, gyl = xd[:, sl], dd[:, sl], bd[:, sl], gy[:, sl]
            decay, hs = _block_states(h0, xl, dl, ad, bl)
            lam = gyl[..., None] * cd[:, sl, None, :]
            for i in range(lam.shape[1] - 1, -1, -1):
                lam[:, i] += carry
                carry = decay[:, i] * lam[:, i]
            gc[:, sl] = np.einsum("blen,ble->bln", hs, gyl)
            # hs now holds h_{m-1}: d h_m / d(delta_m a) = exp(delta_m a) * h_{m-1}
            hs[:, 1:] = hs[:, :-1]
            hs[:, 0] = h0
            dlogdecay = lam * decay * hs  # gradient w.r.t. delta_m * a
            u = dl * xl
            gu = np.einsum("blen,bln->ble", lam, bl)
            gb[:, sl] = np.einsum("blen,ble->bln", lam, u)
            gx[:, sl] += gu * dl
            gdelta[:, sl] = gu * xl + np.einsum("blen,en->ble", dlogdecay, ad)
            ga += np.einsum("blen,ble->en", dlogdecay, dl)
        return gx, gdelta, ga, gb, gc, gd

    return tt._make_out(y, inputs, fn)


def _block_states(h0, x, delta, a, b):
    """Decay factors and states of one block of steps, from the state h0
    before it: both (B, L, E, N)."""
    decay = delta[..., None] * a
    np.exp(decay, out=decay)
    hs = (delta * x)[..., None] * b[:, :, None, :]
    prev = h0
    for i in range(hs.shape[1]):
        hs[:, i] += decay[:, i] * prev
        prev = hs[:, i]
    return decay, hs


# --------------------------------------------------------------------------
# selective form


def selective_ssm(xp: tt.Tensor, params: SsmParams) -> tt.Tensor:
    """Input-dependent scan: every position derives its own step size and
    B/C maps from a shared projection of the token stream, then runs the
    fused ``selective_scan``.

    xp: (B, M, E) already convolved and activated.  Output has the same shape
    and includes the d*x skip path.
    """
    xp = tt.as_tensor(xp)
    if xp.ndim != 3:
        raise ShapeError(f"token stream must be (B, M, E), got {xp.shape}")
    e, n = params.a_log.shape
    r = params.rank
    if xp.shape[2] != e:
        raise ShapeError(f"token stream {xp.shape} does not match E={e}")

    s = tt.linear(xp, params.proj_bc_w, params.proj_bc_b)  # (B, M, R + 2N)
    dt_low = tt.narrow(s, 2, 0, r)
    b_proj = tt.narrow(s, 2, r, n)
    c_proj = tt.narrow(s, 2, r + n, n)
    delta = tt.softplus(tt.linear(dt_low, params.proj_dt_w, params.proj_dt_b))
    a = tt.neg(tt.exp(params.a_log))
    return selective_scan(xp, delta, a, b_proj, c_proj, params.d)
