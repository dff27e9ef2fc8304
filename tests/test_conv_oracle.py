"""Convolution against direct-sum oracles, im2col/col2im in both column
layouts against tap-loop references (bit for bit), and conv2d against the
per-sample batched-GEMM conv2d it replaced on the wide-kernel layers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grhd import autodiff as ad
from grhd.autodiff import engine
from grhd.autodiff.engine import (
    _col2im,
    _col2im_wide,
    _im2col,
    _im2col_wide,
)
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


def loop_im2col_wide(x, kh, kw, sh, sw, ph, pw):
    """Tap-by-tap im2col into one [C*kh*kw, N*Ho*Wo] matrix."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    cols = np.empty((c, kh, kw, n, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] \
                .transpose(1, 0, 2, 3)
    return cols.reshape(c * kh * kw, n * ho * wo), (ho, wo)


def loop_col2im_wide(dcols, x_shape, kh, kw, sh, sw, ph, pw, ho, wo):
    """NCHW tap-by-tap col2im from one [C*kh*kw, N*Ho*Wo] matrix."""
    n, c, h, w = x_shape
    dxp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=dcols.dtype)
    dcols = dcols.reshape(c, kh, kw, n, ho, wo)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += \
                dcols[:, i, j].transpose(1, 0, 2, 3)
    return dxp[:, :, ph:h + ph, pw:w + pw]


def per_sample_conv2d(x, w, b, stride, padding, g):
    """The conv2d used for every shape before the one-GEMM layout: batched
    per-sample GEMMs, `dw` summed over N.  Returns out, dx, dw, db."""
    n = x.shape[0]
    co, c, kh, kw = w.shape
    (sh, sw), (ph, pw) = stride, padding
    cols, (ho, wo) = loop_im2col(x, kh, kw, sh, sw, ph, pw)
    wmat = w.reshape(co, c * kh * kw)
    out = np.matmul(wmat, cols).reshape(n, co, ho, wo)
    out += b[None, :, None, None]
    gmat = g.reshape(n, co, ho * wo)
    dw = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    dx = loop_col2im(np.matmul(wmat.T, gmat), x.shape, kh, kw, sh, sw, ph, pw,
                     ho, wo)
    return out, dx, dw, g.sum(axis=(0, 2, 3))


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


# ------------------------------------------------------- one-GEMM layout --

@given(case=conv_case(), f32=st.booleans())
@settings(max_examples=80, deadline=None)
def test_wide_im2col_col2im_bitwise_equal_to_tap_loops(case, f32):
    n, c, _, h, w, kh, kw, sh, sw, ph, pw, seed = case
    dtype = np.float32 if f32 else np.float64
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    cols, (ho, wo) = _im2col_wide(x, kh, kw, sh, sw, ph, pw)
    ref, ref_hw = loop_im2col_wide(x, kh, kw, sh, sw, ph, pw)
    assert (ho, wo) == ref_hw
    assert cols.dtype == ref.dtype
    assert np.array_equal(cols, ref)

    dcols = rng.standard_normal(cols.shape).astype(dtype)
    args = ((n, c, h, w), kh, kw, sh, sw, ph, pw, ho, wo)
    dx = _col2im_wide(dcols, *args)
    expect = loop_col2im_wide(dcols, *args)
    assert dx.dtype == expect.dtype
    assert dx.flags.c_contiguous
    assert dx.tobytes() == np.ascontiguousarray(expect).tobytes()


def run_conv2d(x, w, b, stride, padding, g):
    """conv2d output and x/w/b gradients for upstream gradient g."""
    xt, wt, bt = (ad.Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
    out = ad.conv2d(xt, wt, bt, stride=stride, padding=padding)
    out.backward(g)
    return out.data, xt.grad, wt.grad, bt.grad


def assert_matches_per_sample(x, w, b, stride, padding, rng):
    """f64: dx and db bit for bit, the output and dw to 1e-12 relative (the
    one-GEMM layout sums their terms in another order).  A one-element
    output map is the exception for dx: there the reference's per-sample
    `dcols` product has one column, which numpy hands to a matrix-vector
    kernel that rounds differently, so dx is held to 1e-12 as well."""
    co = w.shape[0]
    ho = (x.shape[2] + 2 * padding[0] - w.shape[2]) // stride[0] + 1
    wo = (x.shape[3] + 2 * padding[1] - w.shape[3]) // stride[1] + 1
    g = rng.standard_normal((x.shape[0], co, ho, wo))
    out, dx, dw, db = run_conv2d(x, w, b, stride, padding, g)
    ref_out, ref_dx, ref_dw, ref_db = per_sample_conv2d(x, w, b, stride,
                                                        padding, g)
    close = [(out, ref_out), (dw, ref_dw)]
    if ho * wo > 1:
        assert dx.tobytes() == np.ascontiguousarray(ref_dx).tobytes()
    else:
        close.append((dx, ref_dx))
    assert db.tobytes() == ref_db.tobytes()
    for got, ref in close:
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@given(case=conv_case())
@settings(max_examples=60, deadline=None)
def test_conv2d_matches_per_sample_conv2d(case):
    n, c, co, h, w, kh, kw, sh, sw, ph, pw, seed = case
    rng = np.random.default_rng(seed)
    assert_matches_per_sample(rng.standard_normal((n, c, h, w)),
                              rng.standard_normal((co, c, kh, kw)),
                              rng.standard_normal(co), (sh, sw), (ph, pw),
                              rng)


@pytest.fixture
def layouts(monkeypatch):
    """Record which im2col layout each conv2d call takes."""
    taken = []
    for name, layout in (("_im2col", "per_sample"), ("_im2col_wide", "wide")):
        def spy(*args, _fn=getattr(engine, name), _layout=layout):
            taken.append(_layout)
            return _fn(*args)
        monkeypatch.setattr(engine, name, spy)
    return taken


# (x shape, w shape, stride, padding, layout): one GEMM once the patch
# length C*kh*kw reaches the output map Ho*Wo.
RULE_CASES = {
    "square_equal": ((3, 2, 3, 6), (4, 2, 3, 3), (1, 1), (1, 1), "wide"),
    "square_one_over": ((3, 2, 3, 7), (4, 2, 3, 3), (1, 1), (1, 1),
                        "per_sample"),
    "row_equal": ((2, 4, 1, 12), (5, 4, 1, 3), (1, 1), (0, 1), "wide"),
    "row_one_over": ((2, 4, 1, 13), (5, 4, 1, 3), (1, 1), (0, 1),
                     "per_sample"),
    "short_run_wide": ((2, 3, 9, 9), (2, 3, 3, 3), (3, 3), (0, 0), "wide"),
    "short_run_per_sample": ((2, 1, 8, 3), (2, 1, 2, 2), (1, 1), (0, 0),
                             "per_sample"),
}


@pytest.mark.parametrize("xs,ws,s,p,layout", RULE_CASES.values(),
                         ids=RULE_CASES.keys())
def test_shape_rule_sides(xs, ws, s, p, layout, layouts):
    rng = np.random.default_rng(sum(xs) + sum(ws))
    assert_matches_per_sample(rng.standard_normal(xs), rng.standard_normal(ws),
                              rng.standard_normal(ws[0]), s, p, rng)
    assert layouts == [layout]


# Every GRHD conv layer at batch 4: (x shape, w shape, stride, padding).
MODEL_LAYERS = {
    "t1": ((4, 1, 1, 16000), (128, 1, 1, 1024), (1, 512), (0, 0)),
    "t2": ((4, 128, 1, 30), (128, 128, 1, 3), (1, 1), (0, 1)),
    "t3": ((4, 128, 1, 30), (128, 128, 1, 3), (1, 1), (0, 1)),
    "block0": ((4, 2, 128, 30), (16, 2, 3, 3), (2, 2), (1, 1)),
    "block1": ((4, 16, 64, 15), (32, 16, 3, 3), (2, 2), (1, 1)),
    "block2": ((4, 32, 32, 8), (128, 32, 3, 3), (2, 2), (1, 1)),
    "conv_sec": ((4, 128, 16, 4), (48, 128, 3, 3), (2, 2), (1, 1)),
    "conv_att": ((4, 48, 8, 2), (48, 48, 3, 3), (1, 1), (1, 1)),
}
PER_SAMPLE_LAYERS = {"block0", "block1"}


@pytest.mark.parametrize("name", MODEL_LAYERS)
def test_model_layers_against_per_sample_conv2d(name, layouts):
    xs, ws, s, p = MODEL_LAYERS[name]
    rng = np.random.default_rng(len(name))
    assert_matches_per_sample(rng.standard_normal(xs), rng.standard_normal(ws),
                              rng.standard_normal(ws[0]), s, p, rng)
    assert layouts == \
        ["per_sample" if name in PER_SAMPLE_LAYERS else "wide"]


@pytest.mark.parametrize("name", sorted(set(MODEL_LAYERS) - PER_SAMPLE_LAYERS))
def test_model_layers_wide_helpers_bitwise_equal_to_tap_loops(name):
    xs, ws, (sh, sw), (ph, pw) = MODEL_LAYERS[name]
    kh, kw = ws[2:]
    rng = np.random.default_rng(len(name))
    x = rng.standard_normal(xs).astype(np.float32)
    cols, (ho, wo) = _im2col_wide(x, kh, kw, sh, sw, ph, pw)
    assert np.array_equal(cols,
                          loop_im2col_wide(x, kh, kw, sh, sw, ph, pw)[0])
    dcols = rng.standard_normal(cols.shape).astype(np.float32)
    args = (xs, kh, kw, sh, sw, ph, pw, ho, wo)
    assert _col2im_wide(dcols, *args).tobytes() == \
        np.ascontiguousarray(loop_col2im_wide(dcols, *args)).tobytes()


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
