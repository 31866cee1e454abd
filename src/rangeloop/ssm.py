"""State-space sequence transforms.

The continuous system dh/dt = A h + B x, y = C h + D x is discretized per
step.  The selective form re-derives step size and the B/C projections from
the input at every position, which is what the sequence encoder trains.

Production path: ``selective_ssm`` projects the token stream to one
[dt | B | C] array and hands it, with A_log, to ``selective_scan``, which
forms A = -exp(A_log), reads B and C from the last 2N columns and fuses
Euler discretization, the recurrence and the readout into one tape node
with a hand-written reverse-time adjoint that recomputes states instead of
storing them (the hardware-aware recipe of Mamba, Gu & Dao 2023, section
3.3).  It runs in cache-sized blocks of steps (``_SCAN_CHUNK`` steps,
``_SCAN_BLOCK_BYTES`` per work array) and writes every block into one set
of work arrays allocated per call.  Those arrays are step-major and
state-major, (L, B, N, E): the widened channel E (64 or 512) is the
unit-stride axis, so every elementwise product and contraction runs inner
loops along E instead of along the N = 4 or 16 states, and each step's
(B, N, E) state, which the recurrence reads and writes, is one contiguous
run.  Mamba's scan makes the same point: its state expansion is fast only
when laid out in memory to suit the hardware.

Oracles, used by the tests and ``selfcheck`` and kept out of hot paths:
``discretize`` (Euler or zero-order hold) builds the (B, M, E, N) discrete
operators; ``scan_sequential`` runs the left-to-right recurrence on them and
``scan_parallel`` the same as a work-efficient associative scan (O(log M)
depth, via ``_pair_scan``); ``lti_kernel`` and ``causal_conv`` evaluate the
time-invariant special case as a causal convolution with an unrolled
kernel.  All of them are plain numpy on arrays and record nothing on a
tape.

A branch's learned tensors are entries of the model's name -> Tensor dict,
"<prefix>.<name>" for each name of ``PARAM_NAMES``; ``selective_ssm`` takes
the dict and the branch prefix.  ``pipeline.param_layout`` gives their shapes
and Mamba's starting point: A_n = -n, unit skip, and step sizes
softplus-landed in [1e-3, 1e-1].

Shapes: state matrices are diagonal, so A is carried as an (E, N) table of
per-channel/state scalars.  The oracles' discrete operators are
(B, M, E, N); token streams are (B, M, E).  Only the fused scan's internal
work arrays are laid out (L, B, N, E); its inputs, output and gradients
have the caller's shapes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import tensor as tt
from .errors import ConfigError, ContractError, ShapeError


class DiscreteSsm(NamedTuple):
    abar: np.ndarray  # (B, M, E, N)
    bbar: np.ndarray  # (B, M, E, N)


# A branch's tensors, each named "<prefix>.<name>": A_log (E, N), with the
# evolution A = -exp(A_log); D (E,) skip gain; proj_BC (E, R + 2N) + bias, the
# per-step [dt | B | C] projection; proj_Δ (R, E) + bias (E,), the low-rank
# step-size head.
PARAM_NAMES = ("A_log", "D", "proj_BC.weight", "proj_BC.bias", "proj_Δ.weight", "proj_Δ.bias")


def dt_rank_for(d_model: int) -> int:
    return max(1, -(-d_model // 16))


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
    delta, a, b = (np.asarray(v, dtype=np.float64) for v in (delta, a, b))
    if delta.ndim != 3:
        raise ShapeError(f"step sizes must be (B, M, E), got {delta.shape}")
    if a.ndim != 2:
        raise ShapeError(f"evolution table must be (E, N), got {a.shape}")
    if np.any(delta <= 0.0):
        raise ContractError("step sizes must be strictly positive")
    bb, m, e = delta.shape
    n = a.shape[1]
    if a.shape[0] != e:
        raise ShapeError(f"evolution table {a.shape} does not match E={e}")
    if b.ndim == 1:
        if b.shape[0] != n:
            raise ShapeError(f"input map {b.shape} does not match N={n}")
        b4 = b
    else:
        if b.shape != (bb, m, n):
            raise ShapeError(f"input map {b.shape} does not match (B, M, N)=({bb}, {m}, {n})")
        b4 = b[:, :, None, :]

    d4 = delta[..., None]
    abar = np.exp(d4 * a)
    if mode == "euler":
        bbar = d4 * b4
    elif mode == "zoh":
        near_zero = np.abs(a) < 1e-12
        ratio = (abar - 1.0) / np.where(near_zero, 1.0, a)
        bbar = np.where(near_zero, d4, ratio) * b4
    else:
        raise ConfigError(f"unknown discretization mode {mode!r}")
    return DiscreteSsm(abar=abar, bbar=bbar)


# --------------------------------------------------------------------------
# scans


def scan_sequential(dssm: DiscreteSsm, c, d, x) -> np.ndarray:
    """Exact left-to-right recurrence h_m = abar_m*h_{m-1} + bbar_m*x_m,
    read out as y_m = sum_n c*h + d*x.  h_0 = 0."""
    abar, bbar = dssm
    bx = _input_injection(bbar, x)
    hs = np.empty(bx.shape)
    h = np.zeros(hs[:, 0].shape)
    for i in range(hs.shape[1]):
        h = abar[:, i] * h + bx[:, i]
        hs[:, i] = h
    return _readout(hs, c, d, x)


def combine(a2, b2, a1, b1):
    """Associative composition of affine recurrence steps, later o earlier:
    (a2, b2) o (a1, b1) = (a2*a1, a2*b1 + b2)."""
    return a2 * a1, a2 * b1 + b2


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
    lead = (slice(None),) * axis
    odd = lead + (slice(1, None, 2),)
    pairs = lead + (slice(0, 2 * (m // 2), 2),)  # the even step before each odd one
    sa, sb = _pair_scan(*combine(a[odd], b[odd], a[pairs], b[pairs]), axis)
    head, later = lead + (slice(0, 1),), lead + (slice(2, None, 2),)
    before = lead + (slice(0, (m - 1) // 2),)  # the odd result before each later even
    out_a, out_b = np.empty(a.shape), np.empty(b.shape)
    out_a[odd], out_b[odd] = sa, sb
    out_a[head], out_b[head] = a[head], b[head]
    out_a[later], out_b[later] = combine(a[later], b[later], sa[before], sb[before])
    return out_a, out_b


def scan_parallel(dssm: DiscreteSsm, c, d, x) -> np.ndarray:
    """Same contract as scan_sequential, evaluated as an associative scan."""
    abar, bbar = dssm
    bx = _input_injection(bbar, x)
    _, h = _pair_scan(abar, bx, axis=1)
    return _readout(h, c, d, x)


def _input_injection(bbar: np.ndarray, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    bb, m, e, n = bbar.shape
    if x.shape != (bb, m, e):
        raise ShapeError(f"input {x.shape} does not match operators {bbar.shape}")
    return bbar * x[..., None]


def _readout(h: np.ndarray, c, d, x) -> np.ndarray:
    c, d, x = (np.asarray(v, dtype=np.float64) for v in (c, d, x))
    if c.ndim == 1:
        y = np.einsum("bmen,n->bme", h, c)
    elif c.ndim == 3:
        y = np.einsum("bmen,bmn->bme", h, c)
    else:
        raise ShapeError(f"readout map must be (N,) or (B, M, N), got {c.shape}")
    return y + x * d


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

# A block of the fused scan is at most _SCAN_CHUNK steps and at most
# _SCAN_BLOCK_BYTES per (L, B, N, E) work array, so that a block's decay
# factors, states and adjoints stay in a core's L2 cache: 8 steps at B = 1,
# E = 512, N = 16, where the three arrays of a backward block take 1.5 MiB.
# However long the sequence, no larger temporary is formed.
_SCAN_CHUNK = 64
_SCAN_BLOCK_BYTES = 1 << 19


def selective_scan(x, delta, a_log, bc, d, order=None) -> tt.Tensor:
    """Euler-discretised selective scan as one tape node.

    x, delta: (B, M, E), delta strictly positive.  a_log: (E, N), the
    diagonal evolution A = -exp(a_log).  bc: (B, M, P >= 2N), whose last 2N
    columns are the per-step input and readout maps [B | C]; the leading
    ones get zero gradient.  d: (E,) skip gain.  order: a permutation of
    range(M) (None is range(M)); step i of the scan is position p = order[i].
    Evaluates, with h_0 = 0,

        h_i = exp(delta_p * A) * h_{i-1} + delta_p * x_p * B_p
        y_p = sum_n C_p * h_i + d * x_p

    in blocks of ``_block_len`` steps.  Each block gathers its positions'
    x and delta step-major (``_step_major``) and writes y and their
    gradients back there, so a rotated or reversed scan copies no stream.
    The kernel forms A once as an (N, E) table and each block's work
    arrays are (L, B, N, E), so every product and contraction runs along
    the widened channel E and each step's (B, N, E) state is contiguous.
    Each call allocates one set of block-sized work arrays
    (``_ScanBuffers``) and every block writes into them, so no (B, M, E, N)
    tensor is formed and the per-step loop makes no temporaries.  While a
    tape records, only the state at each block boundary is saved.  The
    backward runs the adjoint recurrence from the last step to the first,
    lambda_i = C_p * gy_p + exp(delta_q * A) * lambda_{i+1}, q = order[i+1],
    recomputing each block's states from its saved boundary state, and
    returns every gradient in its input's shape.  Same result as
    ``discretize(mode="euler")`` followed by ``scan_sequential`` on A and
    the B and C columns gathered in ``order``, scattered back.
    """
    x, delta, a_log, bc, d = (tt.as_tensor(t) for t in (x, delta, a_log, bc, d))
    if x.ndim != 3:
        raise ShapeError(f"input must be (B, M, E), got {x.shape}")
    bsz, m, e = x.shape
    if delta.shape != x.shape:
        raise ShapeError(f"step sizes {delta.shape} do not match input {x.shape}")
    if a_log.ndim != 2 or a_log.shape[0] != e:
        raise ShapeError(f"evolution table must be ({e}, N), got {a_log.shape}")
    n = a_log.shape[1]
    if bc.ndim != 3 or bc.shape[:2] != (bsz, m) or bc.shape[2] < 2 * n:
        raise ShapeError(
            f"projection {bc.shape} does not match (B, M, >= 2N)=({bsz}, {m}, >= {2 * n})")
    if d.shape != (e,):
        raise ShapeError(f"skip gain must be ({e},), got {d.shape}")
    if np.any(delta.data <= 0.0):
        raise ContractError("step sizes must be strictly positive")
    order = np.arange(m) if order is None else np.asarray(order)
    if order.dtype.kind not in "iu" or not np.array_equal(np.sort(order), np.arange(m)):
        raise ContractError(f"step order must be a permutation of range({m})")

    inputs = (x, delta, a_log, bc, d)
    # C-contiguous operands fix every contraction's summation order by the
    # shapes alone, whatever the caller's layout; a no-op for a block's tokens.
    # The small (B, M, N) maps, bc's column slices, are copied step-major
    # in step order, so that their einsums also read contiguous blocks.
    xd, dd = (np.ascontiguousarray(t.data) for t in (x, delta))
    xs, ds = _step_major(xd), _step_major(dd)
    p = bc.shape[2]
    b_cols, c_cols = slice(p - 2 * n, p - n), slice(p - n, p)
    bs, cs = (_step_major(bc.data[..., cols])[order] for cols in (b_cols, c_cols))
    at = np.ascontiguousarray(-np.exp(a_log.data).T)  # A as an (N, E) table
    steps = _block_len(bsz, e, n)
    blocks = [(slice(s, s + steps), order[s:s + steps]) for s in range(0, m, steps)]
    bufs = _ScanBuffers(bsz, min(steps, m), e, n)
    saved = [] if tt._recording(inputs) else None
    y = np.empty(x.shape)
    ys = _step_major(y)
    h = np.zeros((bsz, n, e))
    for sl, pos in blocks:
        if saved is not None:
            saved.append(h)
        xl = xs[pos]
        _, hs = _block_states(h, xl, ds[pos], at, bs[sl], bufs)
        ys[pos] = xl * d.data + np.einsum("lbne,lbn->lbe", hs, cs[sl])
        h = hs[-1].copy()

    def fn(gy):
        gy = np.ascontiguousarray(gy)
        gd = np.einsum("bme,bme->e", gy, xd)
        gx, gdelta = np.empty(x.shape), np.empty(x.shape)
        gbs, gcs = np.empty(bs.shape), np.empty(cs.shape)  # step order
        gat = np.zeros((n, e))
        gys, gxs, gds = (_step_major(v) for v in (gy, gx, gdelta))
        bufs = _ScanBuffers(bsz, min(steps, m), e, n)
        carry = np.zeros((bsz, n, e))  # exp(delta_q a) * lambda_{i+1}
        for (sl, pos), h0 in zip(reversed(blocks), reversed(saved)):
            xl, dl, bl, gyl = xs[pos], ds[pos], bs[sl], gys[pos]
            decay, hs = _block_states(h0, xl, dl, at, bl, bufs)
            lam = np.einsum("lbn,lbe->lbne", cs[sl], gyl, out=bufs.lam[:len(hs)])
            lam[-1] += carry
            _recur(decay[:0:-1], lam[-2::-1], lam[-1], bufs.step)
            # lambda_i * exp(delta_p a), formed over the spent decay factors
            np.multiply(decay, lam, out=decay)
            carry = decay[0].copy()
            np.einsum("lbne,lbe->lbn", hs, gyl, out=gcs[sl])
            # times h_{i-1}, that is the gradient w.r.t. delta_p * a
            dlogdecay = decay
            dlogdecay[1:] *= hs[:-1]
            dlogdecay[0] *= h0
            u = dl * xl
            gu = np.einsum("lbne,lbn->lbe", lam, bl)
            np.einsum("lbne,lbe->lbn", lam, u, out=gbs[sl])
            gxs[pos] = gyl * d.data + gu * dl
            gds[pos] = np.einsum("lbne,ne->lbe", dlogdecay, at) + gu * xl
            gat += np.einsum("lbne,lbe->ne", dlogdecay, dl)
        gbc = np.zeros(bc.shape)
        _step_major(gbc[..., b_cols])[order] = gbs
        _step_major(gbc[..., c_cols])[order] = gcs
        return gx, gdelta, (gat * at).T, gbc, gd  # dA/dA_log = A

    return tt._make_out(y, inputs, fn)


def _step_major(v: np.ndarray) -> np.ndarray:
    """The (M, B, .) view of a (B, M, .) array: a block's steps are a
    gather or a slice along its leading axis."""
    return v.transpose(1, 0, 2)


def _block_len(bsz: int, e: int, n: int) -> int:
    """Steps per block: ``_SCAN_CHUNK``, or fewer where an (L, B, N, E)
    float64 block would pass ``_SCAN_BLOCK_BYTES``; at least one."""
    return max(1, min(_SCAN_CHUNK, _SCAN_BLOCK_BYTES // (8 * bsz * e * n)))


class _ScanBuffers:
    """The work arrays of one scan pass, reused by each of its blocks.

    ``decay``, ``hs`` and ``lam`` are (steps, B, N, E) and ``dx`` is
    (steps, B, E), sized for the longest block; a block of L steps uses the
    leading slices ``[:L]``, which are C-contiguous with exactly the layout
    a fresh (L, B, N, E) array would have, ragged last block included.  E is
    the unit-stride axis, so the ufunc and einsum loops run along the
    widened channel (64 or 512) and not the N = 4 or 16 states, and each
    step's (B, N, E) slice is one contiguous run.  ``step`` holds one step's
    product for ``_recur``.
    """

    def __init__(self, bsz: int, steps: int, e: int, n: int):
        self.decay, self.hs, self.lam = (np.empty((steps, bsz, n, e)) for _ in range(3))
        self.dx = np.empty((steps, bsz, e))
        self.step = np.empty((bsz, n, e))


def _recur(coef, acc, prev, step) -> None:
    """First-order linear recurrence in place: acc[i] += coef[i] * acc[i-1]
    along the leading axis, with acc[-1] read as ``prev``.  ``step`` holds
    each product, so the loop makes no temporaries.  The scan's states run
    it forward over a block and its adjoint backward, over reversed views."""
    for k, a in zip(coef, acc):
        a += np.multiply(k, prev, out=step)
        prev = a


def _block_states(h0, x, delta, at, b, bufs: _ScanBuffers):
    """Decay factors and states of one block of L steps, from the (B, N, E)
    state h0 before it.  x, delta: (L, B, E) and b: (L, B, N), step-major
    blocks of the operands; at: the (N, E) evolution table.  Both results
    are (L, B, N, E) views into ``bufs``, valid until the next block is
    formed there; step i of either is the contiguous slice [i]."""
    length = len(x)
    decay = np.einsum("lbe,ne->lbne", delta, at, out=bufs.decay[:length])
    np.exp(decay, out=decay)
    dx = np.multiply(delta, x, out=bufs.dx[:length])
    hs = np.einsum("lbe,lbn->lbne", dx, b, out=bufs.hs[:length])
    _recur(decay, hs, h0, bufs.step)
    return decay, hs


# --------------------------------------------------------------------------
# selective form


def selective_ssm(xp: tt.Tensor, params: dict, prefix: str, order=None) -> tt.Tensor:
    """Input-dependent scan: every position derives its own step size and
    B/C maps from a shared projection of the token stream, then runs the
    fused ``selective_scan``.

    xp: (B, M, E) already convolved and activated.  params maps
    "<prefix>.<name>" to the branch's tensors for every name of
    ``PARAM_NAMES``; the step-size rank R is the ``proj_Δ.weight`` row count.
    The scan takes the whole [dt | B | C] projection, with order as its
    step order.  Output has the same shape as xp and includes the d*x skip
    path.
    """
    a_log, d, bc_w, bc_b, dt_w, dt_b = (params[f"{prefix}.{k}"] for k in PARAM_NAMES)
    xp = tt.as_tensor(xp)
    if xp.ndim != 3 or xp.shape[2] != a_log.shape[0]:
        raise ShapeError(f"token stream must be (B, M, E={a_log.shape[0]}), got {xp.shape}")
    s = tt.linear(xp, bc_w, bc_b)  # (B, M, R + 2N): [dt | B | C]
    delta = tt.softplus(tt.linear(tt.narrow(s, 2, 0, dt_w.shape[0]), dt_w, dt_b))
    return selective_scan(xp, delta, a_log, s, d, order)
