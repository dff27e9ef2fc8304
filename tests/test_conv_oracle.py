"""Convolution against direct-sum oracles, and im2col/col2im against the
tap-loop reference they replace (bit for bit)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grhd import autodiff as ad
from grhd.autodiff.engine import _col2im, _im2col
from grhd.errors import ShapeMismatch


# ------------------------------------------------------------- references --

def loop_im2col(x, kh, kw, sh, sw, ph, pw):
    """The tap-by-tap im2col the engine used before the strided view."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw]
    return cols.reshape(n, c * kh * kw, ho * wo), (ho, wo)


def loop_col2im(dcols, x_shape, kh, kw, sh, sw, ph, pw, ho, wo):
    """The NCHW tap-by-tap col2im the engine used for every shape."""
    n, c, h, w = x_shape
    dxp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=dcols.dtype)
    dcols = dcols.reshape(n, c, kh, kw, ho, wo)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += \
                dcols[:, :, i, j]
    return dxp[:, :, ph:h + ph, pw:w + pw]


def direct_conv2d(x, w, b, stride, padding):
    """Output and gradients of conv2d for upstream g, as explicit tap sums."""
    n, c, h, wd = x.shape
    co, _, kh, kw = w.shape
    (sh, sw), (ph, pw) = stride, padding
    xp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw))
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    out = np.zeros((n, co, ho, wo)) + b[None, :, None, None]
    for a in range(ho):
        for e in range(wo):
            patch = xp[:, :, a * sh:a * sh + kh, e * sw:e * sw + kw]
            for o in range(co):
                out[:, o, a, e] += (patch * w[o]).sum(axis=(1, 2, 3))

    def grads(g):
        dxp = np.zeros_like(xp)
        dw = np.zeros_like(w)
        for a in range(ho):
            for e in range(wo):
                rows = slice(a * sh, a * sh + kh)
                cols = slice(e * sw, e * sw + kw)
                for o in range(co):
                    go = g[:, o, a, e][:, None, None, None]
                    dxp[:, :, rows, cols] += go * w[o][None]
                    dw[o] += (go * xp[:, :, rows, cols]).sum(axis=0)
        return dxp[:, :, ph:ph + h, pw:pw + wd], dw, g.sum(axis=(0, 2, 3))

    return out, grads


# ------------------------------------------------------------- strategies --

@st.composite
def conv_case(draw, one_d=False):
    n = draw(st.integers(1, 3))
    c = draw(st.integers(1, 3))
    co = draw(st.integers(1, 3))
    kh = 1 if one_d else draw(st.integers(1, 4))
    kw = draw(st.integers(1, 5))
    sh = 1 if one_d else draw(st.integers(1, 3))
    sw = draw(st.integers(1, 3))
    ph = 0 if one_d else draw(st.integers(0, 2))
    pw = draw(st.integers(0, 2))
    h = 1 if one_d else draw(st.integers(max(1, kh - 2 * ph), 9))
    w = draw(st.integers(max(1, kw - 2 * pw), 11))
    seed = draw(st.integers(0, 2**32 - 1))
    return (n, c, co, h, w, kh, kw, sh, sw, ph, pw, seed)


# ----------------------------------------------------------------- oracle --

@given(case=conv_case())
@settings(max_examples=60, deadline=None)
def test_conv2d_matches_direct_sum(case):
    n, c, co, h, w, kh, kw, sh, sw, ph, pw, seed = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, w))
    wt = rng.standard_normal((co, c, kh, kw))
    b = rng.standard_normal(co)
    xt, wtt, bt = (ad.Tensor(a.copy(), requires_grad=True)
                   for a in (x, wt, b))
    out = ad.conv2d(xt, wtt, bt, stride=(sh, sw), padding=(ph, pw))
    expect, grads = direct_conv2d(x, wt, b, (sh, sw), (ph, pw))
    np.testing.assert_allclose(out.data, expect, rtol=1e-12, atol=1e-12)

    g = rng.standard_normal(out.shape)
    out.backward(g)
    dx, dw, db = grads(g)
    np.testing.assert_allclose(xt.grad, dx, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(wtt.grad, dw, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(bt.grad, db, rtol=1e-12, atol=1e-12)


@given(case=conv_case(one_d=True))
@settings(max_examples=40, deadline=None)
def test_conv1d_matches_direct_sum(case):
    n, c, co, _, t, _, k, _, s, _, p, seed = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, t))
    wt = rng.standard_normal((co, c, k))
    b = rng.standard_normal(co)
    xt, wtt, bt = (ad.Tensor(a.copy(), requires_grad=True)
                   for a in (x, wt, b))
    out = ad.conv1d(xt, wtt, bt, stride=s, padding=p)
    expect, grads = direct_conv2d(x[:, :, None], wt[:, :, None], b,
                                  (1, s), (0, p))
    np.testing.assert_allclose(out.data, expect[:, :, 0], rtol=1e-12,
                               atol=1e-12)

    g = rng.standard_normal(out.shape)
    out.backward(g)
    dx, dw, db = grads(g[:, :, None])
    np.testing.assert_allclose(xt.grad, dx[:, :, 0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(wtt.grad, dw[:, :, 0], rtol=1e-12,
                               atol=1e-12)
    np.testing.assert_allclose(bt.grad, db, rtol=1e-12, atol=1e-12)


def test_conv2d_kernel_larger_than_padded_input_rejected():
    x = ad.Tensor(np.zeros((1, 1, 2, 2)))
    w = ad.Tensor(np.zeros((1, 1, 3, 3)))
    with pytest.raises(ShapeMismatch):
        ad.conv2d(x, w)


# ------------------------------------------------------ bitwise reference --

@given(case=conv_case(), f32=st.booleans())
@settings(max_examples=80, deadline=None)
def test_im2col_col2im_bitwise_equal_to_tap_loops(case, f32):
    n, c, _, h, w, kh, kw, sh, sw, ph, pw, seed = case
    dtype = np.float32 if f32 else np.float64
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    cols, (ho, wo) = _im2col(x, kh, kw, sh, sw, ph, pw)
    ref, ref_hw = loop_im2col(x, kh, kw, sh, sw, ph, pw)
    assert (ho, wo) == ref_hw
    assert cols.dtype == ref.dtype
    assert np.array_equal(cols, ref)

    dcols = rng.standard_normal(cols.shape).astype(dtype)
    args = ((n, c, h, w), kh, kw, sh, sw, ph, pw, ho, wo)
    dx = _col2im(dcols, *args)
    expect = loop_col2im(dcols, *args)
    assert dx.dtype == expect.dtype
    assert dx.tobytes() == np.ascontiguousarray(expect).tobytes()


# The GRHD layers at batch 4, f32: (C, H, W, k, stride, padding).  Wo runs
# from 2 to 30, so both col2im layouts are exercised on the real shapes.
MODEL_CONVS = {
    "t2": (128, 1, 30, (1, 3), (1, 1), (0, 1)),
    "block0": (2, 128, 30, (3, 3), (2, 2), (1, 1)),
    "block1": (16, 64, 15, (3, 3), (2, 2), (1, 1)),
    "block2": (32, 32, 8, (3, 3), (2, 2), (1, 1)),
    "conv_sec": (128, 16, 4, (3, 3), (2, 2), (1, 1)),
    "conv_att": (48, 8, 2, (3, 3), (1, 1), (1, 1)),
}


@pytest.mark.parametrize("c,h,w,k,s,p", MODEL_CONVS.values(),
                         ids=MODEL_CONVS.keys())
def test_model_conv_shapes_bitwise_equal_to_tap_loops(c, h, w, k, s, p):
    rng = np.random.default_rng(c * h + w)
    x = rng.standard_normal((4, c, h, w)).astype(np.float32)
    cols, (ho, wo) = _im2col(x, *k, *s, *p)
    assert np.array_equal(cols, loop_im2col(x, *k, *s, *p)[0])
    dcols = rng.standard_normal(cols.shape).astype(np.float32)
    args = ((4, c, h, w), *k, *s, *p, ho, wo)
    assert _col2im(dcols, *args).tobytes() == \
        np.ascontiguousarray(loop_col2im(dcols, *args)).tobytes()


def test_t1_im2col_bitwise_equal_to_tap_loop():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 1, 1, 4000)).astype(np.float32)
    cols, _ = _im2col(x, 1, 1024, 1, 512, 0, 0)
    assert np.array_equal(cols, loop_im2col(x, 1, 1024, 1, 512, 0, 0)[0])


# ------------------------------------------------------ gradient skipping --

@pytest.mark.parametrize("conv", ["conv2d", "conv1d"])
def test_input_without_grad_gets_none_and_same_weight_grads(conv):
    rng = np.random.default_rng(7)
    if conv == "conv2d":
        x = rng.standard_normal((3, 2, 6, 7)).astype(np.float32)
        w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
        kwargs = {"stride": (2, 1), "padding": (1, 1)}
    else:
        x = rng.standard_normal((3, 2, 40)).astype(np.float32)
        w = rng.standard_normal((4, 2, 8)).astype(np.float32)
        kwargs = {"stride": 4, "padding": 0}
    b = rng.standard_normal(4).astype(np.float32)
    op = getattr(ad, conv)

    def run(x_grad):
        xt = ad.Tensor(x.copy(), requires_grad=x_grad)
        wt = ad.Tensor(w.copy(), requires_grad=True)
        bt = ad.Tensor(b.copy(), requires_grad=True)
        out = op(xt, wt, bt, **kwargs)
        out.backward(np.linspace(-1, 1, out.data.size, dtype=np.float32)
                     .reshape(out.shape))
        return xt, wt, bt

    x_free, w_free, b_free = run(False)
    x_grad, w_grad, b_grad = run(True)
    assert x_free.grad is None
    assert x_grad.grad is not None
    assert w_free.grad.tobytes() == w_grad.grad.tobytes()
    assert b_free.grad.tobytes() == b_grad.grad.tobytes()


def test_conv2d_backward_returns_none_for_input_without_grad():
    x = ad.Tensor(np.ones((1, 1, 3, 3)))
    w = ad.Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
    out = ad.conv2d(x, w)
    dx, dw = out._backward(np.ones(out.shape))
    assert dx is None
    np.testing.assert_array_equal(dw, np.full((1, 1, 2, 2), 4.0))
