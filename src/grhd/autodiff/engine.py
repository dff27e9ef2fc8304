"""Minimal reverse-mode differentiation engine over numpy arrays.

Tensors form a DAG; `backward` walks it once in reverse topological order and
accumulates gradients additively across fan-out.  The gradient reversal node
is an identity in the forward pass and multiplies the upstream gradient by
-lambda in the backward pass.  Gradients are computed only for parents with
`requires_grad`: an op may return None for the others, and `backward`
skips them.  A node that needs no gradient keeps neither its parents nor
its backward closure; inside `no_grad` that holds for every op output, so
an inference pass builds no graph at all.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import InvalidConfig, NoGradient, ShapeMismatch

_grad_enabled = True


@contextmanager
def no_grad():
    """Inference mode: op outputs inside the block need no gradient.

    They keep no parents and no backward closure, so each op's inputs and
    the buffers its closure would hold (im2col columns, activations) are
    freed as soon as the next op has read them.  The previous mode is
    restored on exit, also when the block raises.
    """
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, _parents=(),
                 _backward=None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad or (_grad_enabled and any(
            p.requires_grad for p in _parents))
        if self.requires_grad:
            self._parents = _parents
            self._backward = _backward
        else:
            self._parents = ()
            self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        if not self.requires_grad:
            raise NoGradient(
                "backward through a tensor that needs no gradient (built "
                "under no_grad or from constants only)")
        if grad is None:
            if self.data.size != 1:
                raise ShapeMismatch(
                    "backward without a seed gradient needs a scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen and parent.requires_grad:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if not node._parents:
                node.grad = g if node.grad is None else node.grad + g
                continue
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None or not parent.requires_grad:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg

    # Small operator sugar used by loss composition.
    def __add__(self, other):
        return add(self, other if isinstance(other, Tensor)
                   else Tensor(np.asarray(other, dtype=self.dtype)))

    def __mul__(self, scalar: float):
        return scale(self, float(scalar))

    __rmul__ = __mul__


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to the shape it was broadcast from."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return Tensor(out, _parents=(a, b), _backward=backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return Tensor(out, _parents=(a, b), _backward=backward)


def scale(a: Tensor, s: float) -> Tensor:
    def backward(g):
        return (g * s,)

    return Tensor(a.data * s, _parents=(a,), _backward=backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[-1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul {a.data.shape} @ {b.data.shape}")
    out = a.data @ b.data

    def backward(g):
        return g @ b.data.T, a.data.T @ g

    return Tensor(out, _parents=(a, b), _backward=backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        return (g * mask,)

    return Tensor(a.data * mask, _parents=(a,), _backward=backward)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    def backward(g):
        return (g.reshape(a.data.shape),)

    return Tensor(a.data.reshape(shape), _parents=(a,), _backward=backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(
            np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(tensors)))

    return Tensor(out, _parents=tuple(tensors), _backward=backward)


def global_avg_pool(a: Tensor) -> Tensor:
    """[N, C, H, W] -> [N, C] by mean over the spatial axes."""
    n, c, h, w = a.data.shape
    out = a.data.mean(axis=(2, 3))

    def backward(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w),
                                a.data.shape).copy(),)

    return Tensor(out, _parents=(a,), _backward=backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    return Tensor(s, _parents=(a,), _backward=backward)


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())

    def backward(g):
        return (np.broadcast_to(g, a.data.shape).astype(a.data.dtype),)

    return Tensor(out, _parents=(a,), _backward=backward)


def grad_reverse(a: Tensor, lam: float) -> Tensor:
    """Identity forward; backward multiplies the upstream gradient by -lam."""
    if lam < 0:
        raise InvalidConfig("reversal intensity lambda must be >= 0")

    def backward(g):
        return (-lam * g,)

    return Tensor(a.data, _parents=(a,), _backward=backward)


# Longest output row (Wo) for which `_scatter_taps` accumulates on a grid
# with the two batch axes innermost: [Hp, Wp, N, C] for `_col2im`,
# [Hp, Wp, C, N] for `_col2im_wide`.  Measured at batch 64, f32: that grid
# is 1.5-7x faster than the NCHW one at Wo = 2 and 4, and 1.3x slower at
# Wo = 8.
_SHORT_RUN = 4


def _pad2d(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    if ph == 0 and pw == 0:
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
    xp[:, :, ph:ph + h, pw:pw + w] = x
    return xp


def _windows(x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
             ph: int, pw: int) -> np.ndarray:
    """Read-only strided view [N, C, Ho, Wo, kh, kw] of the padded input's
    patches.  `as_strided` builds it in ~5 us where `sliding_window_view`
    plus a strided slice takes ~13 us, which matters for the thousands of
    tiny convolutions of a finite-difference check."""
    xp = _pad2d(x, ph, pw)
    n, c, hp, wp = xp.shape
    s0, s1, s2, s3 = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp, shape=(n, c, (hp - kh) // sh + 1, (wp - kw) // sw + 1, kh, kw),
        strides=(s0, s1, s2 * sh, s3 * sw, s2, s3), writeable=False)


def _im2col(x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
            ph: int, pw: int):
    """[N, C, H, W] -> columns [N, C*kh*kw, Ho*Wo], rows ordered (c, i, j)."""
    windows = _windows(x, kh, kw, sh, sw, ph, pw)
    n, c, ho, wo = windows.shape[:4]
    # [N, C, Ho, Wo, kh, kw] view -> [N, C, kh, kw, Ho, Wo] in one copy.
    cols = np.ascontiguousarray(windows.transpose(0, 1, 4, 5, 2, 3))
    return cols.reshape(n, c * kh * kw, ho * wo), (ho, wo)


def _im2col_wide(x: np.ndarray, kh: int, kw: int, sh: int, sw: int,
                 ph: int, pw: int):
    """[N, C, H, W] -> columns [C*kh*kw, N*Ho*Wo].

    Rows are ordered (c, i, j) as in `_im2col`, columns (n, ho, wo).
    """
    windows = _windows(x, kh, kw, sh, sw, ph, pw)
    n, c, ho, wo = windows.shape[:4]
    # [N, C, Ho, Wo, kh, kw] view -> [C, kh, kw, N, Ho, Wo] in one copy.
    cols = np.ascontiguousarray(windows.transpose(1, 4, 5, 0, 2, 3))
    return cols.reshape(c * kh * kw, n * ho * wo), (ho, wo)


def _scatter_taps(taps: np.ndarray, hp: int, wp: int, sh: int,
                  sw: int) -> np.ndarray:
    """Sum taps [A, B, kh, kw, Ho, Wo] onto a zero [A, B, Hp, Wp] grid.

    The taps are added one by one in (i, j) order in either grid, so every
    grid element sums the same terms in the same order.  A tap's slice of
    an [A, B, Hp, Wp] grid is A*B*Ho runs of Wo elements; when the runs are
    short (the deep, small maps) the per-run loop overhead dominates, and
    the taps are accumulated on an [Hp, Wp, A, B] grid instead, whose rows
    are A*B elements long, and returned as an [A, B, Hp, Wp] view of it.
    """
    a, b, kh, kw, ho, wo = taps.shape
    if wo <= _SHORT_RUN:
        taps = np.ascontiguousarray(taps.transpose(2, 3, 4, 5, 0, 1))
        grid = np.zeros((hp, wp, a, b), dtype=taps.dtype)
        for i in range(kh):
            for j in range(kw):
                grid[i:i + sh * ho:sh, j:j + sw * wo:sw] += taps[i, j]
        return grid.transpose(2, 3, 0, 1)
    grid = np.zeros((a, b, hp, wp), dtype=taps.dtype)
    for i in range(kh):
        for j in range(kw):
            grid[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += taps[:, :, i, j]
    return grid


def _col2im(dcols: np.ndarray, x_shape, kh, kw, sh, sw, ph, pw, ho, wo):
    """Scatter-add `_im2col` columns back onto the input: [N, C, H, W]."""
    n, c, h, w = x_shape
    dxp = _scatter_taps(dcols.reshape(n, c, kh, kw, ho, wo), h + 2 * ph,
                        w + 2 * pw, sh, sw)
    dx = dxp[:, :, ph:h + ph, pw:w + pw]
    # A crop of the NCHW grid is returned as it is (a copy would cost ~1 ms
    # on `block1`); the short-run grid's transposed view is put in NCHW order.
    return np.ascontiguousarray(dx) if wo <= _SHORT_RUN else dx


def _col2im_wide(dcols: np.ndarray, x_shape, kh, kw, sh, sw, ph, pw, ho,
                 wo):
    """Scatter-add `_im2col_wide` columns back onto the input: [N, C, H, W].

    The taps are summed on a [C, N, Hp, Wp] grid (or the short-run grid),
    in the same (i, j) order as `_col2im`, so both give the same bits.
    """
    n, c, h, w = x_shape
    taps = dcols.reshape(c, kh, kw, n, ho, wo).transpose(0, 3, 1, 2, 4, 5)
    dxp = _scatter_taps(taps, h + 2 * ph, w + 2 * pw, sh, sw)
    return np.ascontiguousarray(
        dxp[:, :, ph:h + ph, pw:w + pw].transpose(1, 0, 2, 3))


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None,
           stride: tuple[int, int] = (1, 1),
           padding: tuple[int, int] = (0, 0)) -> Tensor:
    """2-D convolution (cross-correlation), x [N,C,H,W], w [Co,C,kh,kw].

    Two column layouts, chosen from the shapes alone.  When the patch
    length C*kh*kw is at least the output map Ho*Wo (the temporal branch
    and the deep layers), the columns of the whole batch form one
    [C*kh*kw, N*Ho*Wo] matrix, and the output, `dw` and `dcols` are one
    GEMM each, with no per-sample `dw` stack to sum over N.  Otherwise each
    sample keeps its own [C*kh*kw, Ho*Wo] block and the products are
    batched GEMMs.  Measured fwd+bwd at batch 64, f32, one core, per-sample
    -> one GEMM: `t1` 24.1 -> 13.6 ms, `t2`/`t3` 10.9 -> 6.8, `block2`
    20.0 -> 17.0, `conv_sec` 13.2 -> 12.2, `conv_att` 4.7 -> 3.9; `block1`
    (C*kh*kw = 144, Ho*Wo = 256) 18.2 either way; `block0` (18 against
    960) 5.6 -> 8.0 ms, because OpenBLAS runs its three GEMMs, with 16-18
    rows or inner terms against 61,440 columns, at half the speed of the
    64 per-sample ones.  Both layouts sum `dx` in the same order.
    """
    if x.data.ndim != 4 or w.data.ndim != 4 or \
            x.data.shape[1] != w.data.shape[1]:
        raise ShapeMismatch(f"conv2d {x.data.shape} with {w.data.shape}")
    n = x.data.shape[0]
    co, ci, kh, kw = w.data.shape
    sh, sw = stride
    ph, pw = padding
    if x.data.shape[2] + 2 * ph < kh or x.data.shape[3] + 2 * pw < kw:
        raise ShapeMismatch(
            f"conv2d kernel {kh}x{kw} larger than padded input "
            f"{x.data.shape[2:]} + 2*{padding}")
    ho = (x.data.shape[2] + 2 * ph - kh) // sh + 1
    wo = (x.data.shape[3] + 2 * pw - kw) // sw + 1
    wmat = w.data.reshape(co, ci * kh * kw)
    wide = ci * kh * kw >= ho * wo
    if wide:
        cols, _ = _im2col_wide(x.data, kh, kw, sh, sw, ph, pw)
        out = wmat @ cols
        if b is not None:
            out += b.data[:, None]
        out = np.ascontiguousarray(
            out.reshape(co, n, ho, wo).transpose(1, 0, 2, 3))
    else:
        cols, _ = _im2col(x.data, kh, kw, sh, sw, ph, pw)
        out = np.matmul(wmat, cols).reshape(n, co, ho, wo)
        if b is not None:
            out += b.data[None, :, None, None]

    def backward(g):
        if wide:
            gmat = g.transpose(1, 0, 2, 3).reshape(co, n * ho * wo)
            dw = (gmat @ cols.T).reshape(w.data.shape)
        else:
            gmat = g.reshape(n, co, ho * wo)
            dw = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0) \
                .reshape(w.data.shape)
        dx = None
        if x.requires_grad:
            dcols = np.matmul(wmat.T, gmat)
            col2im = _col2im_wide if wide else _col2im
            dx = col2im(dcols, x.data.shape, kh, kw, sh, sw, ph, pw, ho, wo)
        if b is not None:
            return dx, dw, g.sum(axis=(0, 2, 3))
        return dx, dw

    parents = (x, w) if b is None else (x, w, b)
    return Tensor(out, _parents=parents, _backward=backward)


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1,
           padding: int = 0) -> Tensor:
    """1-D convolution via the 2-D kernel, x [N,C,T], w [Co,C,k]."""
    x4 = reshape(x, (x.shape[0], x.shape[1], 1, x.shape[2]))
    w4 = reshape(w, (w.shape[0], w.shape[1], 1, w.shape[2]))
    out = conv2d(x4, w4, b, stride=(1, stride), padding=(0, padding))
    return reshape(out, (out.shape[0], out.shape[1], out.shape[3]))


def batch_norm_train(x: Tensor, gamma: Tensor, beta: Tensor,
                     eps: float = 1e-5):
    """Batch normalization over (N, H, W) per channel, training statistics.

    Returns (output, batch_mean, batch_var); the caller owns running-stat
    bookkeeping.  The gradient accounts for the dependence of the batch
    statistics on the input.
    """
    axes = (0, 2, 3)
    mean = x.data.mean(axis=axes)
    # The centred input, scaled in place into xhat once var is known; this
    # is the same arithmetic as x.var(), without a second centred copy.
    xhat = x.data - mean[None, :, None, None]
    var = np.square(xhat).mean(axis=axes)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat
    out += beta.data[None, :, None, None]

    def backward(g):
        dgamma = (g * xhat).sum(axis=axes)
        dbeta = g.sum(axis=axes)
        gx = g * gamma.data[None, :, None, None]
        mean_gx = gx.mean(axis=axes)
        mean_gx_xhat = (gx * xhat).mean(axis=axes)
        dx = inv_std[None, :, None, None] * (
            gx - mean_gx[None, :, None, None]
            - xhat * mean_gx_xhat[None, :, None, None])
        return dx, dgamma, dbeta

    y = Tensor(out, _parents=(x, gamma, beta), _backward=backward)
    return y, mean, var


def batch_norm_eval(x: Tensor, gamma: Tensor, beta: Tensor,
                    running_mean: np.ndarray, running_var: np.ndarray,
                    eps: float = 1e-5) -> Tensor:
    inv_std = 1.0 / np.sqrt(running_var + eps)
    xhat = (x.data - running_mean[None, :, None, None]) * \
        inv_std[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat
    out += beta.data[None, :, None, None]

    def backward(g):
        scale_ = (gamma.data * inv_std)[None, :, None, None]
        return (g * scale_, (g * xhat).sum(axis=(0, 2, 3)),
                g.sum(axis=(0, 2, 3)))

    return Tensor(out, _parents=(x, gamma, beta), _backward=backward)
