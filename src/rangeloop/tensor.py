"""Dense tensors with reverse-mode automatic differentiation on a linear tape.

Design notes:

* Values are float64 numpy arrays (verification builds need the headroom for
  finite-difference gradient checks).
* Operations record themselves on the thread-local active ``Tape``.  Recording
  order is execution order, which is already a topological order of the
  computation graph, so ``backward`` is a single reverse sweep over the tape.
  Gradients accumulate additively across fan-out.  The sweep frees as it
  goes: each node's output gradient and tape slot are released once its
  adjoint has run, so only leaf gradients outlive it and the tape is spent.
  An input's first contribution becomes its gradient buffer when nothing
  else holds that array (``g`` itself, a view or an array returned for two
  inputs is summed into zeros); adopting it adds +0.0 in place, the same
  bits as the sum into zeros.
* Broadcasting is deliberately restricted: elementwise binary ops accept equal
  shapes, a scalar operand, or a trailing bias vector ``(d,)`` against
  ``(..., d)``.  Anything else raises ``ShapeError``; a layer's bias is an
  argument of its ``linear`` or convolution, not a separate op.
* Every reduction uses a fixed order, so results are reproducible bit-for-bit
  for a fixed thread count.  A caller that needs a reduction invariant to
  permutations at the bit level gathers its input into a canonical order.
* Hot kernels are one tape node each with a hand-written adjoint, their bias
  included.  ``linear`` is one GEMM over the flattened leading axes.  The two
  convolutions share one node with one memory layout, channels innermost:
  unfold the single conv axis (im2col) into rows of channels, one GEMM
  whose result is the output, and the bias; its backward is the transposed
  products, one fold over the taps and the bias sum over the GEMM rows.
* Activations are branch-free whole-array passes: the sigmoid is
  exp(min(x, 0)) / (1 + exp(-|x|)) and the softplus max(x, 0) +
  log1p(exp(-|x|)), so neither gathers by a sign mask nor overflows, and
  neither warns on a finite input.  ``silu`` and the softplus adjoint use
  that sigmoid.
* Op protocol: an op computes its output and passes it, its inputs and its
  adjoint ``g -> (grad per input)`` to ``_make_out``, which records the node
  only while a tape records and grads can flow.  State only the adjoint needs
  is computed inside the adjoint from the inputs' ``.data``, so a forward with
  no tape never pays for it; state that only the forward has cheaply (the
  winning offsets of ``maxpool1d_circular``, the block states of the
  selective scan) is saved only under ``_recording``.  This is exact because
  no tensor is mutated between a forward and its backward: optimizers update
  after ``backward``.
* Fork-join: ``concurrent`` runs independent callables on a shared thread
  pool, each worker under a fresh sub-tape when the caller's tape records,
  and splices each sub-tape's nodes into the caller's tape in call order as
  it yields that callable's result.  A node's adjoint reads only its own
  inputs, so the spliced tape is node for node the one a serial loop
  records, and the backward and every gradient are the serial ones.  numpy
  releases the GIL in its large loops and BLAS calls, so the callables
  overlap where those dominate.

Tensors are immutable after construction except for the ``grad`` buffer and
optimizer updates to leaf parameters.  A tape is single-threaded; independent
tapes may live on different threads.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading

import numpy as np

from .errors import ConfigError, ContractError, ShapeError

class Tensor:
    """A dense n-dimensional value, optionally participating in a tape."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# --------------------------------------------------------------------------
# tape


class _Node:
    __slots__ = ("out", "inputs", "backward")

    def __init__(self, out, inputs, backward):
        self.out = out
        self.inputs = inputs
        self.backward = backward


_tls = threading.local()


def _tape_stack():
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of operations, in execution (= topological) order."""

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes = []

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc):
        popped = _tape_stack().pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._nodes)


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every ``requires_grad`` leaf ancestor of ``loss``.

    The loss must be a scalar recorded on ``tape``.  Each recorded operation
    is visited exactly once, in reverse recording order; fan-out accumulates
    additively.  The sweep frees as it goes: a node's output gradient is
    released once its adjoint has read it, and its tape slot once the
    adjoint has run, so only leaves keep a ``grad`` afterwards.  The tape is
    spent: its length is kept, and a second ``backward`` on it raises
    ``ContractError``.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    nodes = tape._nodes
    if nodes and nodes[-1] is None:
        raise ContractError("backward on a spent tape: a tape can be swept once")
    loss.grad = np.ones_like(loss.data)
    for pos in range(len(nodes) - 1, -1, -1):
        node = nodes[pos]
        g, node.out.grad = node.out.grad, None
        if g is not None:
            _accumulate(node.inputs, node.backward(g), g)
        nodes[pos] = None


def _accumulate(inputs, grads, g: np.ndarray) -> None:
    """Add one node's input gradients ``grads`` into its inputs' buffers.

    An input's first contribution becomes its buffer when nothing else
    holds it: it owns its memory, is neither the output gradient ``g`` nor
    returned for another input, and is a writeable float64 array of the
    input's shape.  Any other first contribution is summed into zeros.
    This frame alone holds ``grads``, so they are freed on return, before
    the next adjoint allocates its own."""
    for i, (inp, gi) in enumerate(zip(inputs, grads)):
        if gi is None or not inp.requires_grad:
            continue
        if inp.grad is None:
            if (gi.base is None and gi is not g and gi.dtype == np.float64
                    and gi.flags.writeable and gi.shape == inp.shape
                    and not any(gj is gi for j, gj in enumerate(grads) if j != i)):
                # 0.0 + gi, the sum into zeros, bit for bit: -0.0 becomes
                # +0.0 as it did there
                inp.grad = np.add(gi, 0.0, out=gi)
                continue
            inp.grad = np.zeros_like(inp.data)
        inp.grad += gi


def _recording(inputs) -> bool:
    """Whether an op on ``inputs`` is recorded: a tape is active and grads
    can flow.  Ops that save extra state for their adjoint ask first."""
    return active_tape() is not None and any(t.requires_grad for t in inputs)


def _make_out(data, inputs, adjoint):
    """Wrap an op result; record it with its ``adjoint`` (output gradient ->
    one gradient per input) if a tape is active and grads can flow."""
    track = _recording(inputs)
    out = Tensor(data, requires_grad=track)
    if track:
        active_tape()._nodes.append(_Node(out, inputs, adjoint))
    return out


# --------------------------------------------------------------------------
# fork-join

_pool = None
_pool_lock = threading.Lock()


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _executor():
    """The module's thread pool, started on first use: one thread per
    usable CPU at most, each started only when a task finds none idle."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # ~6 ms: not at import

            _pool = ThreadPoolExecutor(_usable_cpus(), thread_name_prefix="rangeloop")
    return _pool


def _run(ctx, fn, record: bool):
    """One callable on a pool thread, in the caller's context (numpy's
    error state included); with ``record``, under a fresh sub-tape whose
    nodes it returns with the result."""
    _tls.pooled = True
    if not record:
        return ctx.run(fn), ()
    with Tape() as sub:
        out = ctx.run(fn)
    return out, sub._nodes


def concurrent(fns):
    """Run the independent callables ``fns`` side by side and yield their
    results in call order, each as soon as it and those before it are done.

    While the caller's tape records, the nodes each callable records are
    appended to that tape just before its result is yielded, so ops the
    caller records between results land where a serial loop would put them.
    The first callable to fail, in call order, raises its exception here,
    after the rest are cancelled or have finished.  With one usable CPU or
    one callable, or on a pool thread (a nested call), the callables run in
    order on the calling thread.
    """
    fns = list(fns)
    if min(len(fns), _usable_cpus()) < 2 or getattr(_tls, "pooled", False):
        for fn in fns:
            yield fn()
        return
    tape = active_tape()
    pool = _executor()
    futures = [pool.submit(_run, contextvars.copy_context(), fn, tape is not None)
               for fn in fns]
    try:
        for future in futures:
            out, nodes = future.result()
            if tape is not None:
                tape._nodes.extend(nodes)
            yield out
    finally:
        for future in futures:
            if not future.cancel():
                future.exception()  # wait: no branch outlives the call


# --------------------------------------------------------------------------
# elementwise binary ops with restricted broadcasting


def _check_broadcast(a: Tensor, b: Tensor) -> None:
    """Raise ``ShapeError`` unless the shapes are equal, one operand is a
    scalar, or one is a trailing bias vector of the other."""
    if (
        a.shape == b.shape
        or b.ndim == 0 or (b.ndim == 1 and b.size == 1 and a.ndim != 1)
        or a.ndim == 0 or (a.ndim == 1 and a.size == 1 and b.ndim != 1)
        or (b.ndim == 1 and a.ndim >= 2 and a.shape[-1] == b.shape[0])
        or (a.ndim == 1 and b.ndim >= 2 and b.shape[-1] == a.shape[0])
    ):
        return
    raise ShapeError(
        f"elementwise op on incompatible shapes {a.shape} and {b.shape} "
        "(allowed: equal shapes, scalar, trailing bias vector)"
    )


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Collapse an output-shaped gradient back to an operand's ``shape``:
    the operand is output-shaped, a scalar, or a trailing bias vector."""
    if g.shape == shape:
        return g
    if math.prod(shape) == 1:
        return g.sum().reshape(shape)
    return g.sum(axis=tuple(range(g.ndim - 1)))


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b)

    def fn(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make_out(a.data + b.data, (a, b), fn)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b)

    def fn(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make_out(a.data - b.data, (a, b), fn)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b)

    def fn(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make_out(a.data * b.data, (a, b), fn)


# --------------------------------------------------------------------------
# unary / activations


def silu(a) -> Tensor:
    a = as_tensor(a)
    s = _sigmoid_np(a.data)
    data = a.data * s

    def fn(g):
        # g * (s + x*s*(1 - s)), with x*s the output: one array, same bits
        gx = np.subtract(1.0, s)
        gx *= data
        gx += s
        gx *= g
        return (gx,)

    return _make_out(data, (a,), fn)


def softplus(a) -> Tensor:
    """log(1 + e^x) as max(x, 0) + log1p(e^-|x|): no overflow, x itself for
    large x and 0 below about -745, with SIMD exp and log1p loops where
    ``np.logaddexp(0, x)`` runs a scalar one.  Within 5e-16 relative of it."""
    a = as_tensor(a)
    data = _exp_neg_abs(a.data)
    np.log1p(data, out=data)
    data += np.maximum(a.data, 0.0)
    return _make_out(data, (a,), lambda g: (g * _sigmoid_np(a.data),))


def relu(a) -> Tensor:
    a = as_tensor(a)
    return _make_out(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0),))


def _exp_neg_abs(x: np.ndarray) -> np.ndarray:
    """e^-|x| as a new array, in (0, 1].  Its underflow to a subnormal or 0
    (|x| above about 708) is the correct value, so it raises no warning."""
    e = np.copysign(x, -1.0)
    with np.errstate(under="ignore"):
        return np.exp(e, out=e)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    """1/(1+e^-x), stable on both tails: exp(min(x, 0)) / (1 + exp(-|x|)).

    That is 1/(1+e^-x) where x >= 0 (exp(0) is exactly 1) and e^x/(1+e^x)
    where x < 0 (-|x| is x there), so each element gets the same operations
    on the same values as evaluating the two sides on their own subsets, and
    the same bits; NaN stays NaN.  Two exp passes cost less than a masked
    divide, whose loop branches on each element's sign.
    """
    den = _exp_neg_abs(x)
    den += 1.0
    s = np.minimum(x, 0.0)
    with np.errstate(under="ignore"):
        np.exp(s, out=s)
    s /= den
    return s


# --------------------------------------------------------------------------
# contractions


def einsum2(subscripts: str, a, b) -> Tensor:
    """Two-operand einsum whose gradient is again an einsum.

    Every index of each operand must appear in the output or in the other
    operand, so the adjoint contraction is well defined.
    """
    a, b = as_tensor(a), as_tensor(b)
    lhs, out_sub = subscripts.replace(" ", "").split("->")
    sa, sb = lhs.split(",")
    for name, sub, other in (("first", sa, sb), ("second", sb, sa)):
        missing = set(sub) - set(out_sub) - set(other)
        if missing:
            raise ShapeError(
                f"einsum2 {subscripts!r}: {name} operand index {missing} is "
                "summed without appearing elsewhere"
            )
    data = np.einsum(subscripts, a.data, b.data)

    def fn(g):
        ga = np.einsum(f"{out_sub},{sb}->{sa}", g, b.data)
        gb = np.einsum(f"{out_sub},{sa}->{sb}", g, a.data)
        return ga, gb

    return _make_out(data, (a, b), fn)


def linear(x, w, b=None) -> Tensor:
    """Affine map on the trailing axis: (..., d_in) @ (d_in, d_out) [+ a
    (d_out,) bias].  One GEMM over the flattened leading axes."""
    x, w = as_tensor(x), as_tensor(w)
    if w.ndim != 2 or x.ndim == 0 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input {x.shape} does not match weight {w.shape}")
    d_in, d_out = w.shape
    x2 = x.data.reshape(-1, d_in)
    data = (x2 @ w.data).reshape(x.shape[:-1] + (d_out,))
    inputs = (x, w)
    if b is not None:
        b = _bias(b, d_out, "linear", w.shape)
        data += b.data
        inputs += (b,)

    def fn(g):
        g2 = g.reshape(-1, d_out)
        grads = ((g2 @ w.data.T).reshape(x.shape), x2.T @ g2)
        return grads if b is None else grads + (_unbroadcast(g, b.shape),)

    return _make_out(data, inputs, fn)


def _bias(b, d: int, op: str, w_shape) -> Tensor:
    """``b`` as a Tensor; ``ShapeError`` unless it has shape ``(d,)``."""
    b = as_tensor(b)
    if b.shape != (d,):
        raise ShapeError(f"{op}: bias {b.shape} does not match weight {w_shape}")
    return b


# --------------------------------------------------------------------------
# reductions


def _axis_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    axes = _axis_tuple(axis, a.ndim)

    def fn(g):
        return (np.broadcast_to(np.expand_dims(g, sorted(axes)), a.shape).copy(),)

    return _make_out(a.data.sum(axis=axes), (a,), fn)


def tmean(a, axis=None) -> Tensor:
    a = as_tensor(a)
    axes = _axis_tuple(axis, a.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    return mul(tsum(a, axis=axes), 1.0 / count)


def _extreme(a, axis, reduce, arg) -> Tensor:
    """reduce over axis (None: flattened); arg picks the subgradient's element."""
    a = as_tensor(a)
    src, ax = (a.data.reshape(-1), 0) if axis is None else (a.data, axis % a.ndim)

    def fn(g):
        idx = np.expand_dims(arg(src, axis=ax), ax)
        out = np.zeros(src.shape)
        np.put_along_axis(out, idx, np.expand_dims(g, ax), axis=ax)
        return (out.reshape(a.shape),)

    return _make_out(reduce(src, axis=ax), (a,), fn)


def tmax(a, axis=None) -> Tensor:
    """Max reduction; subgradient routes to the first maximal element (or NaN)."""
    return _extreme(a, axis, np.max, np.argmax)


def tmin(a, axis=None) -> Tensor:
    """Min reduction; subgradient routes to the first minimal element (or NaN)."""
    return _extreme(a, axis, np.min, np.argmin)


# --------------------------------------------------------------------------
# shape manipulation


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return _make_out(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.shape),))


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    data = a.data.transpose(axes)
    return _make_out(data, (a,), lambda g: (g.transpose(np.argsort(axes)),))


def take_along(a, idx, axis: int) -> Tensor:
    """``np.take_along_axis``; the adjoint scatter-adds each gradient back to
    the position it was read from, so repeated indices accumulate."""
    a = as_tensor(a)
    idx = np.asarray(idx)
    ax = axis % a.ndim
    data = np.take_along_axis(a.data, idx, axis=ax)

    def fn(g):
        where = list(np.indices(g.shape, sparse=True))
        where[ax] = idx
        gx = np.zeros(a.shape)
        np.add.at(gx, tuple(where), g)
        return (gx,)

    return _make_out(data, (a,), fn)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def fn(g):
        splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
        return tuple(np.split(g, splits, axis=axis))

    return _make_out(data, tuple(tensors), fn)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """``length`` elements along ``axis`` from ``start``; the adjoint
    scatters into zeros."""
    a = as_tensor(a)
    sl = [slice(None)] * a.ndim
    sl[axis % a.ndim] = slice(start, start + length)
    sl = tuple(sl)

    def fn(g):
        out = np.zeros(a.shape)
        out[sl] = g
        return (out,)

    return _make_out(a.data[sl].copy(), (a,), fn)


# --------------------------------------------------------------------------
# structured kernels


def conv_vertical(x, w, b=None, stride_h: int = 1) -> Tensor:
    """Height-only convolution: ``(B,C,H,W) * (O,C,k,1) [+ b] -> (B,O,H',W)``.

    Width extent is untouched and output column j depends only on input
    column j, which is what keeps the backbone exactly shift-equivariant
    along the width axis.  One GEMM: the strided height taps, unfolded to
    ``(B*H'*W, C*k)``, times the ``(C*k, O)`` kernel, plus the ``(O,)`` bias.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv_vertical expects 4-d operands, got {x.shape}, {w.shape}")
    if w.shape[3] != 1:
        raise ShapeError(f"conv_vertical kernel width must be 1, got {w.shape}")
    k, h = w.shape[2], x.shape[2]
    if k > h:
        raise ConfigError(f"kernel height {k} exceeds input height {h}")
    h_out = (h - k) // stride_h + 1
    # taps[j, i]: the input row that tap j reads for output row i
    taps = np.arange(k)[:, None] + stride_h * np.arange(h_out)[None, :]
    return _conv(x, w, b, taps, "conv_vertical")


def conv1d_circular(x, w, b=None, reverse: bool = False) -> Tensor:
    """Circular 1-d convolution: ``(B,C,M) * (O,C,k) [+ b] -> (B,O,M)``, k odd.

    True convolution (kernel flipped): y[m] = sum_j w[j] x[(m + r - j) mod M]
    with r = (k-1)/2, so a one-hot kernel at j=0 shifts the signal forward.
    ``reverse`` mirrors the taps, y[m] = sum_j w[j] x[(m - r + j) mod M]:
    the reversed convolution of the reversed sequence, bit for bit, as each
    unfold row holds the same values in the same column order.  One GEMM:
    the wrapped taps, unfolded to ``(B*M, C*k)``, times the ``(C*k, O)``
    kernel, plus the ``(O,)`` bias; the backward folds ``g @ W`` back with
    the same wrap.
    """
    x, w = as_tensor(x), as_tensor(w)
    if x.ndim != 3 or w.ndim != 3:
        raise ShapeError(f"conv1d_circular expects 3-d operands, got {x.shape}, {w.shape}")
    k, m = w.shape[2], x.shape[2]
    if k % 2 == 0:
        raise ConfigError(f"conv1d_circular kernel length must be odd, got {k}")
    r = (k - 1) // 2
    # taps[j, i]: the input position that tap j reads for output position i
    j = np.arange(k)[:, None]
    taps = (np.arange(m)[None, :] + (j - r if reverse else r - j)) % m
    return _conv(x, w, b, taps, "conv1d_circular")


# The unfolded GEMMs put every output position on its own row, as the
# position-wise ``linear`` layers do.  BLAS varies its summation order across
# output columns (edge tiles) but not across rows, so a column shift of the
# input shifts the output bit for bit.  The backward rebuilds the unfold from
# the input instead of keeping it alive on the tape.
#
# One layout: channels innermost.  The unfold copies whole channel rows per
# tap, and the output is the (positions, O) GEMM result itself, viewed as
# (B, O, ...), so every sum in the node has an order fixed by shapes alone.


def _conv(x: Tensor, w: Tensor, b, taps: np.ndarray, op: str) -> Tensor:
    """Both convolutions, along axis 2 of a ``(B, C, L, ...)`` input by an
    ``(O, C, k, ...)`` kernel plus an optional ``(O,)`` bias: tap j of output
    position i reads input position ``taps[j, i]``.  One tape node."""
    if w.shape[1] != x.shape[1]:
        raise ShapeError(f"channel mismatch: input {x.shape} vs kernel {w.shape}")
    o, c, (k, length) = w.shape[0], x.shape[1], taps.shape
    rows = x.shape[:1] + (length,) + x.shape[3:]  # (B, L', ...): one per GEMM row
    w2 = w.data.reshape(o, c * k)
    y = _unfold(x.data, taps) @ w2.T
    data = np.moveaxis(y.reshape(rows + (o,)), -1, 1)
    inputs = (x, w)
    if b is not None:
        b = _bias(b, o, op, w.shape)
        data += b.data.reshape((1, o) + (1,) * (x.ndim - 2))
        inputs += (b,)

    def fn(g):
        # C order whatever g's layout: a reshape of a batch-1 (B, O, ...) g
        # would be a column-major view, and its row sum another order
        gy = np.ascontiguousarray(np.moveaxis(g, 1, -1)).reshape(-1, o)
        gw = (gy.T @ _unfold(x.data, taps)).reshape(w.shape)
        gcols = (gy @ w2).reshape(rows + (c, k))
        # the fold, channels-last: each input position sums the taps that
        # read it in ascending order; a tap reads no position twice
        gx = np.zeros(x.shape[:1] + x.shape[2:] + (c,))
        for j in range(k):
            for out_sl, in_sl in _tap_slices(taps[j]):
                gx[:, in_sl] += gcols[:, out_sl, ..., j]
        grads = (np.moveaxis(gx, -1, 1), gw)
        return grads if b is None else grads + (gy.sum(axis=0),)

    return _make_out(data, inputs, fn)


def _tap_slices(row: np.ndarray) -> list:
    """One tap's row of the tap table as (output slice, input slice) pairs:
    an ascending run of one stride (a strided height tap), or two where a
    circular tap wraps back to input position 0."""
    wrap = int(np.argmin(row))
    pairs = []
    for lo, hi in ((0, wrap), (wrap, len(row))):
        if hi > lo:
            step = int(row[lo + 1] - row[lo]) if hi - lo > 1 else 1
            pairs.append((slice(lo, hi), slice(int(row[lo]), int(row[hi - 1]) + 1, step)))
    return pairs


def _unfold(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """im2col along axis 2 of a ``(B, C, ...)`` array: gather the ``(k, L)``
    index table ``taps`` there and lay the result out as rows
    ``(B, L, ...)`` by columns ``(C, k)``, the order of a reshaped kernel."""
    c, (k, length) = x.shape[1], taps.shape
    xt = np.moveaxis(x, 1, -1)
    cols = np.empty((x.shape[0], length) + x.shape[3:] + (c, k))
    for j in range(k):
        cols[..., j] = np.take(xt, taps[j], axis=1)
    return cols.reshape(-1, c * k)


def maxpool1d_circular(x, k: int) -> Tensor:
    """Same-length circular max pooling along the last axis, window k (odd).

    Ties route the subgradient to the smallest window offset, fixed order.
    """
    x = as_tensor(x)
    if k % 2 == 0:
        raise ConfigError(f"maxpool1d_circular window must be odd, got {k}")
    r = (k - 1) // 2
    offsets = range(-r, r + 1)
    # a running maximum over the window offsets in order: the same pairwise
    # comparisons as a max over their stack, without the (k, ...) stack.
    # The winning offset's index is np.argmax's over that stack: a strictly
    # greater candidate or the first NaN takes over, so ties keep the
    # smallest offset and a NaN, once in, stays.
    data = np.roll(x.data, r, axis=-1)
    winner = np.zeros(x.shape, np.min_scalar_type(k)) if _recording((x,)) else None
    for i, d in enumerate(offsets[1:], 1):
        cand = np.roll(x.data, -d, axis=-1)
        if winner is not None:
            won = np.less_equal(cand, data)
            np.logical_not(won, out=won)  # greater, or either side NaN
            won &= data == data
            np.copyto(winner, i, where=won)
        np.maximum(data, cand, out=data)

    def fn(g):
        gx = np.zeros(x.shape)
        for i, d in enumerate(offsets):
            gx += np.roll(np.where(winner == i, g, 0.0), d, axis=-1)
        return (gx,)

    return _make_out(data, (x,), fn)


def layer_norm(x, gain, bias, eps: float = 1e-6) -> Tensor:
    """Per-position normalization over the trailing axis with learned affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm affine must be ({d},), got {gain.shape}/{bias.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    data = xhat * gain.data + bias.data

    def fn(g):
        lead = tuple(range(g.ndim - 1))
        gbias = g.sum(axis=lead)
        ggain = (g * xhat).sum(axis=lead)
        gxh = g * gain.data
        gx = inv * (
            gxh
            - gxh.mean(axis=-1, keepdims=True)
            - xhat * (gxh * xhat).mean(axis=-1, keepdims=True)
        )
        return gx, ggain, gbias

    return _make_out(data, (x, gain, bias), fn)


def softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    data = e / e.sum(axis=axis, keepdims=True)

    def fn(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return (data * (g - dot),)

    return _make_out(data, (x,), fn)


def l2_normalize(x, axis: int = -1) -> Tensor:
    """Scale to unit L2 norm along ``axis``; exactly-zero slices stay zero,
    and a slice holding a NaN stays NaN."""
    x = as_tensor(x)
    norm = np.sqrt((x.data**2).sum(axis=axis, keepdims=True))
    nonzero = norm != 0.0
    safe = np.where(nonzero, norm, 1.0)
    data = np.where(nonzero, x.data / safe, 0.0)

    def fn(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        return (np.where(nonzero, (g - data * dot) / safe, 0.0),)

    return _make_out(data, (x,), fn)
