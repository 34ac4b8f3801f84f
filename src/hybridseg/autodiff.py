"""Reverse-mode automatic differentiation over dense float arrays.

Every operation eagerly computes its forward value and records a closure
that routes the output gradient back to its parents. ``backward()`` on a
scalar runs the closures in reverse topological order and releases each
node once its closure has run, so only the leaves (and the scalar) keep a
``grad``. Leaf gradients are reset on every call, so each backward pass
yields the exact gradient of that one scalar. A graph runs in the dtype of
its activations: ``conv2d`` and ``batch_norm`` cast their float64 weights
to it, so a float32 input gives float32 values and gradients throughout,
and a float64 one (the gradient check) float64.

The op set is deliberately small: the backbone's stride-1 same-padded
convolution, per-channel batch normalization and relu, plus ``mul`` and
``tsum``, which reduce an output to a scalar for the tests and the
benchmark's backward replays. The training objective is one node of its
own, built with ``_make`` in ``losses``.
Convolution, which sets the cost of a training step, runs each pass as
one GEMM per cache-sized block of output rows, on columns cut from the
flat, zero-padded image. Batch-norm, the next cost, makes one centred
copy of its input and takes its channel sums as einsum contractions; in
eval mode it is forward-only, one scale and one shift per channel from
``batch_norm_affine``. The eval-mode forward and the scorer use that and two
array kernels with no graph, in their input's dtype: ``correlate`` and
``log1p_exp``, which the loss uses too.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation

# Output rows per conv2d GEMM block: at 32 channels, 3x3 and 64 px a block's
# columns are 288 x 528, 1.2 MB in float64 and 0.6 MB in float32 (training),
# which stay in a 2 MiB L2.
BLOCK_ROWS = 8
BN_EPS, BN_MOMENTUM = 1e-5, 0.1  # batch_norm's constants


class Tensor:
    """Array node in the autodiff graph. ``value`` keeps the float dtype it
    is given; any other value (ints, bools, Python scalars) becomes float64."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backprop")

    def __init__(self, value, requires_grad: bool = False):
        value = np.asarray(value)
        self.value = value if value.dtype.kind == "f" else value.astype(np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backprop = None

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def backward(self) -> None:
        """Populate ``grad`` on the leaves this scalar depends on (and on
        the scalar itself), releasing the graph as it is walked.

        The closures hold every intermediate activation. Nodes are popped
        root first; once a node's closure has run, its ``_parents``,
        ``_backprop`` and (unless it is the root) ``grad`` are dropped, so
        each activation and interior gradient is freed as soon as nothing
        upstream needs it. Backward therefore needs little memory beyond
        the one graph, and a training loop never holds two graphs at once.
        Leaves (nodes with no closure, such as parameters) keep their
        ``grad``. The cost is that a graph can only be walked once; build a
        fresh one per step (the second call raises).
        """
        if self._backprop is None and not self._parents:
            raise ContractViolation("backward() on a tensor with no recorded graph")
        if self.value.size != 1:
            raise ContractViolation("backward() expects a scalar")
        order = _topo_order(self)
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.value)
        while order:
            node = order.pop()
            if node._backprop is not None:
                node._backprop(node.grad)
                node._backprop = None
                if node is not self:
                    node.grad = None
            node._parents = ()

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, requires_grad={self.requires_grad})"


def constant(value) -> Tensor:
    return Tensor(value, requires_grad=False)


def parameter(value) -> Tensor:
    return Tensor(np.array(value, dtype=np.float64), requires_grad=True)


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # grads are never mutated in place, so aliasing a parent's grad to an
    # upstream array is safe
    t.grad = g if t.grad is None else t.grad + g


def _make(value: np.ndarray, parents: tuple[Tensor, ...], backprop) -> Tensor:
    out = Tensor(value)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backprop = backprop
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_val = a.value * b.value

    def backprop(g):
        _accumulate(a, _unbroadcast(g * b.value, a.value.shape))
        _accumulate(b, _unbroadcast(g * a.value, b.value.shape))

    return _make(out_val, (a, b), backprop)


def relu(x: Tensor) -> Tensor:
    mask = x.value > 0.0
    # np.maximum (unlike np.where on the mask) propagates NaN, so numeric
    # failures surface downstream instead of being flushed to zero
    out_val = np.maximum(x.value, 0.0)

    def backprop(g):
        _accumulate(x, g * mask)

    return _make(out_val, (x,), backprop)


def log1p_exp(v: np.ndarray) -> np.ndarray:
    """Elementwise softplus ln(1 + e^v) in ``v``'s dtype, never overflowing."""
    return np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))


def tsum(x: Tensor) -> Tensor:
    out_val = np.asarray(x.value.sum())

    def backprop(g):
        _accumulate(x, np.broadcast_to(g, x.value.shape))

    return _make(out_val, (x,), backprop)


def _flat_pad(a: np.ndarray, p: int) -> np.ndarray:
    """Each channel of NCHW ``a`` zero-padded by ``p``, with one more zero
    row at the bottom as slack for the last window, and flattened. A
    reshape of ``a`` when ``p == 0``."""
    if p:
        a = np.pad(a, ((0, 0), (0, 0), (p, p + 1), (p, p)))
    return a.reshape(a.shape[0], a.shape[1], -1)


def _column_blocks(flat: np.ndarray, k: int, h: int, wp: int):
    """Yield ``(i, rows, cols)`` over a ``_flat_pad`` buffer.

    ``cols`` is the ``(C*k*k, len(rows)*wp)`` column matrix of output rows
    ``rows`` of image ``i``, on the padded-width grid of ``wp`` columns per
    row, with its rows in OIHW weight order. Row ``(c, dy, dx)`` of a block
    from output row ``r0`` is the contiguous slice of channel ``c`` that
    starts at ``(r0+dy)*wp + dx``. A block is ``BLOCK_ROWS`` rows, copied
    into one buffer that the next block overwrites, so it is still in cache
    for its GEMM. With ``k == 1`` each image is its own column matrix.
    """
    n, c, _ = flat.shape
    if k == 1:
        for i in range(n):
            yield i, slice(0, h), flat[i]
        return
    sn, sc, se = flat.strides
    windows = np.lib.stride_tricks.as_strided(
        flat, (n, c, k, k, h * wp), (sn, sc, wp * se, se, se), writeable=False)
    buf = np.empty((c * k * k, min(BLOCK_ROWS, h) * wp), dtype=flat.dtype)
    for i in range(n):
        for r0 in range(0, h, BLOCK_ROWS):
            r1 = min(r0 + BLOCK_ROWS, h)
            cols = buf[:, :(r1 - r0) * wp]
            np.copyto(cols.reshape(c, k, k, -1), windows[i, ..., r0 * wp:r1 * wp])
            yield i, slice(r0, r1), cols


def _correlate(mat: np.ndarray, flat: np.ndarray, k: int, h: int, wd: int) -> np.ndarray:
    """The (N, O, h, wd) product of the (O, C*k*k) ``mat`` with the columns of
    a ``_flat_pad`` buffer of (N, C, h, wd) images, in the buffer's dtype."""
    if k == 1:
        return np.matmul(mat, flat).reshape(flat.shape[0], -1, h, wd)
    out = np.empty((flat.shape[0], mat.shape[0], h, wd), dtype=flat.dtype)
    for i, rows, cols in _column_blocks(flat, k, h, wd + k - 1):
        out[i, :, rows] = (mat @ cols).reshape(-1, rows.stop - rows.start, wd + k - 1)[..., :wd]
    return out


def correlate(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """``conv2d``'s forward on NCHW/OIHW arrays, with no graph, in ``x``'s
    dtype (``w`` and ``b`` are cast to it). Shapes are not checked."""
    k = w.shape[-1]
    out = _correlate(w.reshape(len(w), -1).astype(x.dtype), _flat_pad(x, k // 2), k, *x.shape[2:])
    if b is not None:
        out += b.astype(x.dtype)[:, None, None]
    return out


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Stride-1 cross-correlation over NCHW input with zero 'same' padding.

    Kernels must be square with odd side, so spatial resolution is always
    preserved. ``w`` and ``b`` are cast to ``x``'s dtype, which every pass
    and gradient keeps. Each pass (forward, grad-w, grad-x) runs one GEMM per
    ``_column_blocks`` block, on a grid ``k - 1`` columns wider than the
    image: forward and grad-x crop those columns from each product, and
    grad-w reads them from padded ``g``, where they are zero. With a 1x1
    kernel, forward and grad-x are one batched GEMM with no column copy.
    """
    xv, wv = x.value, w.value
    if xv.ndim != 4 or wv.ndim != 4:
        raise ContractViolation("conv2d expects NCHW input and OIHW weights")
    _, c, h, wd = xv.shape
    co, ci, k, kw = wv.shape
    if ci != c:
        raise ContractViolation(f"channel mismatch: input {c}, weights expect {ci}")
    if k != kw or k % 2 == 0:
        raise ContractViolation("conv2d supports odd square kernels only")
    if b is not None and b.value.shape != (co,):
        raise ContractViolation(f"bias shape {b.value.shape} != ({co},)")
    p = k // 2
    wp = wd + 2 * p
    wv = wv.astype(xv.dtype, copy=False)
    xf = _flat_pad(xv, p)
    out_val = _correlate(wv.reshape(co, c * k * k), xf, k, h, wd)
    if b is not None:
        out_val += b.value.astype(xv.dtype, copy=False)[:, None, None]

    def backprop(g):
        if b is not None and b.requires_grad:
            _accumulate(b, g.sum(axis=(0, 2, 3)))
        gf = _flat_pad(g, p)
        if w.requires_grad:
            # g on the padded-width grid: row r of g starts at (r+p)*wp + p
            # in gf, and the 2p slack positions after it are padding, so zero
            g_grid = gf[:, :, p * wp + p:p * wp + p + h * wp]
            gw = np.zeros((co, c * k * k), dtype=xv.dtype)
            for i, rows, cols in _column_blocks(xf, k, h, wp):
                gw += g_grid[i, :, rows.start * wp:rows.stop * wp] @ cols.T
            _accumulate(w, gw.reshape(wv.shape))
        if x.requires_grad:
            # grad-x is the same-padded correlation of g with the kernel
            # flipped in space and its in/out channels swapped
            wt = wv[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, co * k * k)
            _accumulate(x, _correlate(wt, gf, k, h, wd))

    parents = (x, w) if b is None else (x, w, b)
    return _make(out_val, parents, backprop)


def batch_norm_affine(gamma: np.ndarray, beta: np.ndarray, running_mean: np.ndarray,
                      running_var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode batch-norm as one per-channel ``(scale, shift)``: the output
    is ``x * scale + shift``. The one home of the running-statistics formula."""
    scale = gamma * (1.0 / np.sqrt(running_var + BN_EPS))
    return scale, beta - running_mean * scale


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
               running_var: np.ndarray, training: bool) -> Tensor:
    """Per-channel affine normalization of NCHW input.

    Training mode normalizes with biased batch statistics, folds them into
    the (float64) running averages in place, and keeps one centred copy
    ``xhat``, normalized in place, for backward; channel sums are einsum
    contractions. It runs in ``x``'s dtype, ``gamma`` and ``beta`` cast to it.
    Eval mode is forward-only: the ``batch_norm_affine`` scale and shift,
    returned as a constant with no recorded graph.
    """
    xv = x.value
    if xv.ndim != 4:
        raise ContractViolation(f"batch_norm expects NCHW input, got shape {xv.shape}")
    n, c, h, wd = xv.shape
    for name, a in (("gamma", gamma.value), ("beta", beta.value),
                    ("running_mean", running_mean), ("running_var", running_var)):
        if np.shape(a) != (c,):
            raise ContractViolation(f"{name} shape {np.shape(a)} != ({c},)")
    x3 = xv.reshape(n, c, h * wd)
    if not training:
        scale, shift = batch_norm_affine(gamma.value, beta.value, running_mean, running_var)
        out_val = x3 * scale[:, None]
        out_val += shift[:, None]
        return constant(out_val.reshape(xv.shape))
    m = n * h * wd
    mu = np.einsum("nck->c", x3) / m
    xhat = x3 - mu[:, None]
    var = np.einsum("nck,nck->c", xhat, xhat) / m
    running_mean *= 1.0 - BN_MOMENTUM
    running_mean += BN_MOMENTUM * mu
    running_var *= 1.0 - BN_MOMENTUM
    running_var += BN_MOMENTUM * var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv[:, None]
    gv = gamma.value.astype(xv.dtype, copy=False)
    out_val = xhat * gv[:, None]
    out_val += beta.value.astype(xv.dtype, copy=False)[:, None]

    def backprop(g):
        # g may alias a sibling's grad (see _accumulate): read it, never write
        g3 = g.reshape(n, c, h * wd)
        sum_g = np.einsum("nck->c", g3)
        sum_gxhat = np.einsum("nck,nck->c", g3, xhat)
        if beta.requires_grad:
            _accumulate(beta, sum_g)
        if gamma.requires_grad:
            _accumulate(gamma, sum_gxhat)
        if not x.requires_grad:
            return
        gx = xhat * (-sum_gxhat / m)[:, None]
        gx += g3
        gx -= (sum_g / m)[:, None]
        gx *= (gv * inv)[:, None]
        _accumulate(x, gx.reshape(xv.shape))

    return _make(out_val.reshape(xv.shape), (x, gamma, beta), backprop)
