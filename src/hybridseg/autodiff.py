"""Reverse-mode automatic differentiation over dense float arrays.

Every operation eagerly computes its forward value and records a closure
that routes the output gradient back to its parents. ``backward()`` on a
scalar runs the closures in reverse topological order and releases each
node once its closure has run, so only the leaves (and the scalar) keep a
``grad``. Leaf gradients are reset on every call, so each backward pass
yields the exact gradient of that one scalar. A graph runs in the dtype of
its activations, its ops casting their float64 weights to it: float32 in
training, float64 in the gradient check.

The op set is deliberately small: ``conv_bn_relu``, one backbone stage
(stride-1 same-padded convolution, training batch-norm, relu) as one node
that keeps only what its backward reads; ``conv2d`` for the 1x1 heads;
and ``mul`` and ``tsum``, which reduce an output to a scalar for the tests
and the benchmark's backward replays. The training objective is one node
of its own, built with ``_make`` in ``losses``. Convolution, which sets
the cost of a step, runs each pass as one GEMM per cache-sized block of
output rows, on columns cut from the flat, zero-padded image; batch-norm
takes its channel sums as einsum contractions. The two conv ops put their
large arrays in the named slots of a ``Workspace``; training keeps one for
the run, so a warm step asks the allocator for none, and an op given none
takes a fresh one. The eval-mode forward and the scorer use three array
kernels with no graph, in their input's dtype: ``correlate``,
``batch_norm_affine`` (batch-norm as one scale and shift per channel) and
``log1p_exp``, which the loss uses too.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation

# Output rows per conv2d GEMM block: at 32 channels, 3x3 and 64 px a block's
# columns are 288 x 528, 1.2 MB in float64 and 0.6 MB in float32 (training),
# which stay in a 2 MiB L2.
BLOCK_ROWS = 8
BN_EPS, BN_MOMENTUM = 1e-5, 0.1  # batch-norm's constants


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
        self.grad.flags.writeable = False  # kept: no closure may overwrite it
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
    # An op hands each gradient array to one node, and a writeable one is
    # then that node's own: the first to arrive becomes t.grad, later ones
    # are summed into it in place (a train step's head join), and t's
    # backward may overwrite it. The root's grad and tsum's broadcast of it
    # are read-only; a read-only grad, or one of a narrower dtype than the
    # sum, is replaced by a fresh sum.
    if t.grad is None:
        t.grad = g
    elif t.grad.flags.writeable and t.grad.dtype == np.result_type(t.grad, g):
        t.grad += g
    else:
        t.grad = t.grad + g


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


def log1p_exp(v: np.ndarray) -> np.ndarray:
    """Elementwise softplus ln(1 + e^v) in ``v``'s dtype, never overflowing."""
    return np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v)))


def tsum(x: Tensor) -> Tensor:
    out_val = np.asarray(x.value.sum())

    def backprop(g):
        _accumulate(x, np.broadcast_to(g, x.value.shape))

    return _make(out_val, (x,), backprop)


class Workspace:
    """Named buffers that the large arrays of a train step reuse, step after
    step, so that a warm step asks the allocator for none of them.

    ``take(name, shape, dtype)`` returns the first bytes of slot ``name`` as
    an array of undefined contents, and grows the slot when it is too small.
    Arrays whose lifetimes do not overlap share a slot by sharing its name.
    ``padded(name, a, p)`` is a conv's zero-padded copy of ``a`` in a slot;
    its border is written only when the slot last held anything else, so a
    warm step copies in the interior alone. ``scope(prefix)`` is a view of the
    same slots that puts ``prefix`` before each name, except before the two
    that the ops' backwards share, one op at a time: ``grad`` and ``scratch``.

    The one rule: a graph built on a workspace reads its slots until
    ``backward()`` has walked it, so walk it before the next forward on that
    workspace. An op given no workspace takes a fresh one, which only its
    graph holds; its slots are then plain fresh arrays.
    """

    SHARED = ("grad", "scratch")

    def __init__(self, prefix: str = "", slots: dict | None = None):
        self.prefix = prefix
        # name -> [buffer, the padded (shape, dtype) whose border is zero]
        self._slots = {} if slots is None else slots

    def scope(self, prefix: str) -> "Workspace":
        return Workspace(self.prefix + prefix, self._slots)

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf, _ in self._slots.values())

    def _slot(self, name: str, shape: tuple[int, ...], dtype) -> tuple[list, np.ndarray]:
        key = name if name in self.SHARED else self.prefix + name
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        slot = self._slots.get(key)
        if slot is None or slot[0].nbytes < size:
            slot = self._slots[key] = [np.empty(size, dtype=np.uint8), None]
        return slot, slot[0][:size].view(dtype).reshape(shape)

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        slot, a = self._slot(name, shape, dtype)
        slot[1] = None
        return a

    def padded(self, name: str, a: np.ndarray, p: int) -> np.ndarray:
        """Each channel of NCHW ``a`` zero-padded by ``p``, with one more zero
        row at the bottom as slack for the last window, and flattened. A
        reshape of ``a`` when ``p == 0``."""
        n, c, h, w = a.shape
        if not p:
            return a.reshape(n, c, h * w)
        geometry = ((n, c, h + 2 * p + 1, w + 2 * p), a.dtype)
        slot, grid = self._slot(name, *geometry)
        if slot[1] != geometry:
            grid[:, :, :p] = 0
            grid[:, :, p + h:] = 0
            grid[:, :, p:p + h, :p] = 0
            grid[:, :, p:p + h, p + w:] = 0
            slot[1] = geometry
        grid[:, :, p:p + h, p:p + w] = a
        return grid.reshape(n, c, -1)


def _column_blocks(flat: np.ndarray, k: int, h: int, wp: int, ws: Workspace, slot: str):
    """Yield ``(i, rows, cols)`` over a ``Workspace.padded`` buffer.

    ``cols`` is the ``(C*k*k, len(rows)*wp)`` column matrix of output rows
    ``rows`` of image ``i``, on the padded-width grid of ``wp`` columns per
    row, with its rows in OIHW weight order. Row ``(c, dy, dx)`` of a block
    from output row ``r0`` is the contiguous slice of channel ``c`` that
    starts at ``(r0+dy)*wp + dx``. A block is ``BLOCK_ROWS`` rows, copied
    into slot ``slot`` of ``ws``, which the next block overwrites, so it is
    still in cache for its GEMM. With ``k == 1`` each image is its own
    column matrix.
    """
    n, c, _ = flat.shape
    if k == 1:
        for i in range(n):
            yield i, slice(0, h), flat[i]
        return
    sn, sc, se = flat.strides
    windows = np.lib.stride_tricks.as_strided(
        flat, (n, c, k, k, h * wp), (sn, sc, wp * se, se, se), writeable=False)
    buf = ws.take(slot, (c * k * k, min(BLOCK_ROWS, h) * wp), flat.dtype)
    for i in range(n):
        for r0 in range(0, h, BLOCK_ROWS):
            r1 = min(r0 + BLOCK_ROWS, h)
            cols = buf[:, :(r1 - r0) * wp]
            np.copyto(cols.reshape(c, k, k, -1), windows[i, ..., r0 * wp:r1 * wp])
            yield i, slice(r0, r1), cols


def _correlate(mat: np.ndarray, flat: np.ndarray, k: int, out: np.ndarray,
               ws: Workspace, cols: str) -> np.ndarray:
    """Write into the (N, O, h, wd) ``out`` the product of the (O, C*k*k)
    ``mat`` with the columns of a ``Workspace.padded`` buffer of (N, C, h, wd)
    images, in the buffer's dtype, cutting the columns in slot ``cols``."""
    n, _, h, wd = out.shape
    if k == 1:
        np.matmul(mat, flat, out=out.reshape(n, -1, h * wd))
        return out
    for i, rows, block in _column_blocks(flat, k, h, wd + k - 1, ws, cols):
        out[i, :, rows] = (mat @ block).reshape(-1, rows.stop - rows.start, wd + k - 1)[..., :wd]
    return out


def correlate(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """``conv2d``'s forward on NCHW/OIHW arrays, with no graph, in ``x``'s
    dtype (``w`` and ``b`` are cast to it). Shapes are not checked."""
    (n, _, h, wd), k, ws = x.shape, w.shape[-1], Workspace()
    out = _correlate(w.reshape(len(w), -1).astype(x.dtype), ws.padded("pad", x, k // 2), k,
                     np.empty((n, len(w), h, wd), dtype=x.dtype), ws, "scratch")
    if b is not None:
        out += b.astype(x.dtype)[:, None, None]
    return out


def _conv_forward(x: Tensor, w: Tensor, ws: Workspace, out: str | None, cols: str):
    """``conv2d``'s checks and forward: its output (in slot ``out``, or fresh
    when None), and the padded input and ``w`` in ``x``'s dtype that
    ``_conv_backprop`` reads. The column blocks go to slot ``cols``."""
    xv, wv = x.value, w.value
    if xv.ndim != 4 or wv.ndim != 4:
        raise ContractViolation("conv2d expects NCHW input and OIHW weights")
    n, c, h, wd = xv.shape
    co, ci, k, kw = wv.shape
    if ci != c:
        raise ContractViolation(f"channel mismatch: input {c}, weights expect {ci}")
    if k != kw or k % 2 == 0:
        raise ContractViolation("conv2d supports odd square kernels only")
    wv = wv.astype(xv.dtype, copy=False)
    xf = ws.padded("pad", xv, k // 2)
    shape = (n, co, h, wd)
    y = np.empty(shape, dtype=xv.dtype) if out is None else ws.take(out, shape, xv.dtype)
    return _correlate(wv.reshape(co, c * k * k), xf, k, y, ws, cols), xf, wv


def _conv_backprop(g: np.ndarray, x: Tensor, w: Tensor, xf: np.ndarray, wv: np.ndarray,
                   ws: Workspace, gf_slot: str, gx_slot: str) -> None:
    """Route the output gradient ``g`` of a ``_conv_forward`` to ``x`` and
    ``w``: padded ``g`` goes to slot ``gf_slot``, grad-x to ``gx_slot`` and
    the column blocks to ``scratch``."""
    (_, c, h, wd), (co, _, k, _) = x.value.shape, wv.shape
    p, wp = k // 2, wd + k - 1
    gf = ws.padded(gf_slot, g, p)
    if w.requires_grad:
        # g on the padded-width grid: row r of g starts at (r+p)*wp + p
        # in gf, and the 2p slack positions after it are padding, so zero
        g_grid = gf[:, :, p * wp + p:p * wp + p + h * wp]
        gw = np.zeros((co, c * k * k), dtype=xf.dtype)
        for i, rows, cols in _column_blocks(xf, k, h, wp, ws, "scratch"):
            gw += g_grid[i, :, rows.start * wp:rows.stop * wp] @ cols.T
        _accumulate(w, gw.reshape(wv.shape))
    if x.requires_grad:
        # grad-x is the same-padded correlation of g with the kernel
        # flipped in space and its in/out channels swapped
        wt = wv[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, co * k * k)
        gx = ws.take(gx_slot, x.value.shape, gf.dtype)
        _accumulate(x, _correlate(wt, gf, k, gx, ws, "scratch"))


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, *,
           workspace: Workspace | None = None) -> Tensor:
    """Stride-1 cross-correlation over NCHW input with zero 'same' padding.

    Kernels must be square with odd side, so spatial resolution is always
    preserved. ``w`` and ``b`` are cast to ``x``'s dtype, which every pass
    and gradient keeps. Each pass (forward, grad-w, grad-x) runs one GEMM per
    ``_column_blocks`` block, on a grid ``k - 1`` columns wider than the
    image: forward and grad-x crop those columns from each product, and
    grad-w reads them from padded ``g``, where they are zero. With a 1x1
    kernel, forward and grad-x are one batched GEMM with no column copy.

    The output is a fresh array. In ``workspace`` (see ``Workspace``) the
    padded input takes slot ``pad``, padded ``g`` slot ``gf``, and grad-x
    the shared slot ``grad``.
    """
    ws = Workspace() if workspace is None else workspace
    out_val, xf, wv = _conv_forward(x, w, ws, None, "scratch")
    if b is not None:
        if b.value.shape != wv.shape[:1]:
            raise ContractViolation(f"bias shape {b.value.shape} != ({len(wv)},)")
        out_val += b.value.astype(out_val.dtype, copy=False)[:, None, None]

    def backprop(g):
        if b is not None and b.requires_grad:
            _accumulate(b, g.sum(axis=(0, 2, 3)))
        _conv_backprop(g, x, w, xf, wv, ws, "gf", "grad")

    parents = (x, w) if b is None else (x, w, b)
    return _make(out_val, parents, backprop)


def batch_norm_affine(gamma: np.ndarray, beta: np.ndarray, running_mean: np.ndarray,
                      running_var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode batch-norm as one per-channel ``(scale, shift)``: the output
    is ``x * scale + shift``. The one home of the running-statistics formula."""
    scale = gamma * (1.0 / np.sqrt(running_var + BN_EPS))
    return scale, beta - running_mean * scale


def conv_bn_relu(x: Tensor, w: Tensor | None, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray, *,
                 workspace: Workspace | None = None) -> Tensor:
    """One backbone stage, relu(batch-norm(conv2d(x, w))), as one node in
    ``x``'s dtype; with ``w`` None, relu(batch-norm(x)).

    Batch-norm uses biased batch statistics (einsum sums) and folds them
    into the float64 running averages in place. The private conv output is
    centred and scaled in place into ``xhat``; a shared ``x`` is copied
    once. Relu runs in place; ``np.maximum`` propagates NaN. Backward runs
    the relu, batch-norm and conv formulas in order on the conv's padded
    input, ``xhat`` and the output, whose positives are relu's mask.

    In ``workspace`` (see ``Workspace``) the padded input takes slot
    ``pad``, ``xhat`` slot ``xhat`` and the output slot ``out``, where the
    forward's column blocks go first. Backward writes the relu mask to
    ``scratch``, the masked gradient over ``g`` (see ``_accumulate``), the
    batch-norm gradient over ``xhat``, padded ``g`` to ``grad`` and grad-x
    to ``xhat``; a 1x1 conv reads its ``g`` in ``xhat``, so its grad-x
    takes ``grad``.
    """
    ws = Workspace() if workspace is None else workspace
    y, xf, wv = (x.value, None, None) if w is None else _conv_forward(x, w, ws, "xhat", "out")
    if y.ndim != 4:
        raise ContractViolation(f"batch-norm expects NCHW input, got shape {y.shape}")
    n, c, h, wd = y.shape
    for name, a in (("gamma", gamma.value), ("beta", beta.value),
                    ("running_mean", running_mean), ("running_var", running_var)):
        if np.shape(a) != (c,):
            raise ContractViolation(f"{name} shape {np.shape(a)} != ({c},)")
    y3 = y.reshape(n, c, h * wd)
    m = n * h * wd
    mu = np.einsum("nck->c", y3) / m
    xhat = np.subtract(y3, mu[:, None],
                       out=ws.take("xhat", y3.shape, y.dtype) if w is None else y3)
    var = np.einsum("nck,nck->c", xhat, xhat) / m
    for run, stat in ((running_mean, mu), (running_var, var)):
        run *= 1.0 - BN_MOMENTUM
        run += BN_MOMENTUM * stat
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv[:, None]
    gv = gamma.value.astype(y.dtype, copy=False)
    out = np.multiply(xhat, gv[:, None], out=ws.take("out", xhat.shape, y.dtype))
    out += beta.value.astype(y.dtype, copy=False)[:, None]
    np.maximum(out, 0.0, out=out)

    def backprop(g):
        # a writeable g is this node's own (see _accumulate), so the masked
        # gradient overwrites it; a read-only one is left as it is
        g = g.reshape(n, c, h * wd)
        mask = np.greater(out, 0.0, out=ws.take("scratch", out.shape, np.bool_))
        g3 = np.multiply(g, mask,
                         out=g if g.flags.writeable else ws.take("g3", g.shape, g.dtype))
        sum_g = np.einsum("nck->c", g3)
        sum_gxhat = np.einsum("nck,nck->c", g3, xhat)
        if beta.requires_grad:
            _accumulate(beta, sum_g)
        if gamma.requires_grad:
            _accumulate(gamma, sum_gxhat)
        if not (x.requires_grad or w is not None and w.requires_grad):
            return
        # xhat has no reader after this: the batch-norm gradient overwrites it
        gx = np.multiply(xhat, (-sum_gxhat / m)[:, None], out=xhat)
        gx += g3
        gx -= (sum_g / m)[:, None]
        gx *= (gv * inv)[:, None]
        if w is None:
            _accumulate(x, gx.reshape(n, c, h, wd))
        else:
            _conv_backprop(gx.reshape(n, c, h, wd), x, w, xf, wv, ws, "grad",
                           "xhat" if wv.shape[-1] > 1 else "grad")

    parents = (x, gamma, beta) if w is None else (x, w, gamma, beta)
    return _make(out.reshape(n, c, h, wd), parents, backprop)
