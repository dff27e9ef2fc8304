"""Reverse-mode engine: ops, losses, optimizer, schedule, gradient checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grhd import autodiff as ad
from grhd.autodiff.engine import sum_all
from grhd.autodiff.gradcheck import (
    grl_twin_check,
    numeric_grad,
    rel_err,
    run_suite,
)
from grhd.errors import (
    GrhdError,
    InvalidConfig,
    InvalidSchedule,
    LabelOutOfRange,
    NoGradient,
    ShapeMismatch,
)


def leaf(data):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


# ---------------------------------------------------------------- engine ----

def test_add_fan_out_accumulates():
    x = leaf([1.0, 2.0])
    y = ad.add(x, x)  # same leaf twice: gradient must double
    sum_all(y).backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])


def test_dag_equals_tree_gradient():
    """A reused subexpression and its textual expansion agree exactly."""
    base = np.array([[0.3, -1.2], [2.0, 0.5]])

    x = leaf(base)
    shared = ad.mul(x, x)
    sum_all(ad.add(shared, shared)).backward()
    dag_grad = x.grad

    x2 = leaf(base)
    sum_all(ad.add(ad.mul(x2, x2), ad.mul(x2, x2))).backward()
    np.testing.assert_array_equal(dag_grad, x2.grad)


def test_backward_needs_scalar():
    x = leaf([1.0, 2.0])
    with pytest.raises(ShapeMismatch):
        ad.mul(x, x).backward()


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        ad.matmul(leaf(np.ones((2, 3))), leaf(np.ones((2, 3))))


def test_grad_reverse_forward_identity():
    x = leaf([[1.5, -2.0]])
    out = ad.grad_reverse(x, 0.7)
    np.testing.assert_array_equal(out.data, x.data)


def test_grad_reverse_backward_scales():
    x = leaf([[1.0, 2.0, 3.0]])
    sum_all(ad.grad_reverse(x, 0.5)).backward()
    np.testing.assert_array_equal(x.grad, [[-0.5, -0.5, -0.5]])


def test_grad_reverse_lambda_zero_blocks():
    x = leaf([[1.0, 2.0]])
    sum_all(ad.grad_reverse(x, 0.0)).backward()
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0]])


def test_grad_reverse_negative_lambda_rejected():
    with pytest.raises(InvalidConfig):
        ad.grad_reverse(leaf([1.0]), -0.1)


def test_grl_twin_20_seeds():
    for seed in range(20):
        assert grl_twin_check(seed=seed, lam=0.3) < 1e-9


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_grl_twin_any_seed(seed):
    assert grl_twin_check(seed=seed, lam=1.0) < 1e-9


def test_conv2d_matches_direct_convolution():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 1, 5, 5))
    w = rng.standard_normal((1, 1, 3, 3))
    out = ad.conv2d(ad.Tensor(x), ad.Tensor(w)).data[0, 0]
    expect = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            expect[i, j] = (x[0, 0, i:i + 3, j:j + 3] * w[0, 0]).sum()
    np.testing.assert_allclose(out, expect, rtol=1e-12)


def test_global_avg_pool_values():
    x = leaf(np.arange(24.0).reshape(1, 2, 3, 4))
    out = ad.global_avg_pool(x)
    np.testing.assert_allclose(out.data, [[5.5, 17.5]])


# -------------------------------------------------------------- no_grad ----

def _tiny_net(seed=0):
    rng = np.random.default_rng(seed)
    conv = ad.Conv2d(2, 3, 3, rng, stride=2, padding=1, dtype=np.float64)
    bn = ad.BatchNorm2d(3, dtype=np.float64)
    dense = ad.Dense(3, 4, rng, dtype=np.float64)
    x = rng.standard_normal((5, 2, 6, 6))
    labels = rng.integers(0, 4, size=5)

    def loss():
        h = ad.relu(bn(conv(ad.Tensor(x)), True))
        return ad.cross_entropy(dense(ad.global_avg_pool(h)), labels)

    params = conv.parameters() + bn.parameters() + dense.parameters()
    return loss, [t for _, t in params]


def test_no_grad_outputs_keep_no_graph():
    rng = np.random.default_rng(0)
    x = leaf(rng.standard_normal((2, 3, 5, 5)))
    w = leaf(rng.standard_normal((4, 3, 3, 3)))
    b = leaf(rng.standard_normal(4))
    with ad.no_grad():
        outs = [ad.conv2d(x, w, b, padding=(1, 1)), ad.add(x, x),
                ad.mul(x, x), ad.relu(x), ad.reshape(x, (2, 75)),
                ad.global_avg_pool(x), ad.grad_reverse(x, 0.5),
                ad.matmul(leaf(np.ones((2, 3))), leaf(np.ones((3, 1)))),
                ad.cross_entropy(leaf(np.ones((2, 3))), np.array([0, 2]))]
    for out in outs:
        assert out.requires_grad is False
        assert out._parents == ()
        assert out._backward is None
    # Outside the block the same op builds its graph again.
    out = ad.add(x, x)
    assert out.requires_grad and out._parents == (x, x)
    assert out._backward is not None


def test_no_grad_restores_mode_after_exception():
    x = leaf([1.0, 2.0])
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not ad.mul(x, x).requires_grad  # inner exit kept it off
            raise RuntimeError("boom")
    assert ad.mul(x, x).requires_grad


def test_gradients_after_no_grad_are_bitwise_unchanged():
    loss, params = _tiny_net()
    loss().backward()
    plain = [p.grad.copy() for p in params]

    loss, params = _tiny_net()
    with ad.no_grad():
        inference = loss()
    assert not inference.requires_grad
    loss().backward()
    for p, g in zip(params, plain):
        assert p.grad.tobytes() == g.tobytes()


def test_backward_without_graph_is_a_typed_error():
    x = leaf([1.0, 2.0])
    with ad.no_grad():
        y = sum_all(ad.mul(x, x))
    with pytest.raises(NoGradient) as info:
        y.backward()
    assert isinstance(info.value, GrhdError)
    assert y.grad is None and x.grad is None


# ---------------------------------------------------------------- losses ----

def test_cross_entropy_uniform_logits():
    """Uniform logits over C classes give loss ln C regardless of labels."""
    logits = leaf(np.zeros((4, 3)))
    loss = ad.cross_entropy(logits, np.array([0, 1, 2, 0]))
    assert loss.item() == pytest.approx(np.log(3.0), rel=1e-12)


def test_cross_entropy_extreme_logits_stable():
    logits = leaf([[1000.0, 0.0], [-1000.0, 0.0]])
    loss = ad.cross_entropy(logits, np.array([0, 1]))
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_batch_mean():
    z = np.array([[2.0, 0.0], [0.0, 1.0], [3.0, -1.0]])
    labels = np.array([0, 1, 0])
    per_clip = [float(ad.cross_entropy(leaf(z[i:i + 1]), labels[i:i + 1])
                      .item()) for i in range(3)]
    batch = ad.cross_entropy(leaf(z), labels).item()
    assert batch == pytest.approx(np.mean(per_clip), rel=1e-12)


def test_cross_entropy_label_range():
    with pytest.raises(LabelOutOfRange):
        ad.cross_entropy(leaf(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(LabelOutOfRange):
        ad.cross_entropy(leaf(np.zeros((2, 3))), np.array([-1, 0]))
    with pytest.raises(LabelOutOfRange):
        ad.cross_entropy(leaf(np.zeros((2, 3))), np.array([0]))


def test_focal_loss_known_value():
    """p_t = 0.9, gamma 2: loss = 0.01 * -ln(0.9) ~= 1.0536e-3."""
    p = np.array([[0.9, 0.1]])
    logits = leaf(np.log(p))
    loss = ad.focal_loss(logits, np.array([0]), gamma_f=2.0)
    assert loss.item() == pytest.approx((0.1 ** 2) * -np.log(0.9), rel=1e-10)


def test_focal_gamma_zero_is_cross_entropy_bitwise():
    rng = np.random.default_rng(7)
    for _ in range(100):
        z = rng.standard_normal((8, 5))
        labels = rng.integers(0, 5, size=8)
        ce = ad.cross_entropy(leaf(z), labels)
        fl = ad.focal_loss(leaf(z), labels, gamma_f=0.0)
        assert fl.item() == ce.item()  # bitwise, not approx
        ce_leaf, fl_leaf = leaf(z), leaf(z)
        ad.cross_entropy(ce_leaf, labels).backward()
        ad.focal_loss(fl_leaf, labels, gamma_f=0.0).backward()
        np.testing.assert_array_equal(ce_leaf.grad, fl_leaf.grad)


def test_focal_class_weights_scale_loss():
    z = np.zeros((2, 2))
    labels = np.array([0, 1])
    base = ad.focal_loss(leaf(z), labels, gamma_f=1.0).item()
    weighted = ad.focal_loss(leaf(z), labels, gamma_f=1.0,
                             class_weights=np.array([2.0, 2.0])).item()
    assert weighted == pytest.approx(2.0 * base, rel=1e-12)


def test_focal_negative_gamma_rejected():
    with pytest.raises(LabelOutOfRange):
        ad.focal_loss(leaf(np.zeros((1, 2))), np.array([0]), gamma_f=-1.0)


def test_focal_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    logits = leaf(rng.uniform(-2, 2, size=(5, 4)))
    labels = rng.integers(0, 4, size=5)
    weights = rng.uniform(0.5, 2.0, size=4)

    def forward():
        return ad.focal_loss(logits, labels, gamma_f=2.0,
                             class_weights=weights)

    forward().backward()
    assert rel_err(logits.grad, numeric_grad(forward, logits)) < 1e-6


# ------------------------------------------------------------- optimizer ----

def test_adam_first_step_magnitude():
    """With any constant gradient the first step has size exactly ~lr."""
    w = leaf([1.0])
    state = ad.AdamState(lr=0.001)
    ad.adam_step([w], [np.array([0.5])], state)
    assert w.data[0] == pytest.approx(1.0 - 0.001, abs=1e-9)


def test_adam_five_step_trajectory_oracle():
    """Track f(w) = w^2 against an independent Adam reimplementation."""
    w = leaf([0.7, -0.3])
    state = ad.AdamState(lr=0.01)

    ref = np.array([0.7, -0.3])
    m = np.zeros(2)
    v = np.zeros(2)
    for t in range(1, 6):
        g = 2.0 * w.data.copy()
        ad.adam_step([w], [g], state)

        g_ref = 2.0 * ref
        m = 0.9 * m + 0.1 * g_ref
        v = 0.999 * v + 0.001 * g_ref ** 2
        ref = ref - 0.01 * (m / (1 - 0.9 ** t)) / (
            np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        np.testing.assert_allclose(w.data, ref, atol=1e-10)


def test_adam_zero_gradient_keeps_param():
    w = leaf([2.0])
    ad.adam_step([w], [np.zeros(1)], ad.AdamState(lr=0.1))
    assert w.data[0] == 2.0


def test_adam_zero_lr_keeps_param():
    w = leaf([2.0])
    ad.adam_step([w], [np.ones(1)], ad.AdamState(lr=0.0))
    assert w.data[0] == 2.0


def test_adam_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        ad.adam_step([leaf([1.0])], [np.zeros(2)], ad.AdamState())


def test_cosine_anneal_endpoints_exact():
    assert ad.cosine_anneal(0.001, 0.0, 0, 150) == 0.001  # exact at epoch 0
    assert ad.cosine_anneal(0.001, 0.0, 150, 150) == pytest.approx(0.0,
                                                                   abs=1e-19)
    assert ad.cosine_anneal(0.5, 0.1, 0, 7) == 0.5


def test_cosine_anneal_midpoint():
    assert ad.cosine_anneal(0.2, 0.0, 50, 100) == pytest.approx(0.1,
                                                                rel=1e-12)


def test_cosine_anneal_monotone_decreasing():
    values = [ad.cosine_anneal(1.0, 0.0, e, 200) for e in range(201)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_cosine_anneal_invalid():
    with pytest.raises(InvalidSchedule):
        ad.cosine_anneal(0.1, 0.0, 0, 0)
    with pytest.raises(InvalidSchedule):
        ad.cosine_anneal(0.1, 0.0, 11, 10)
    with pytest.raises(InvalidSchedule):
        ad.cosine_anneal(0.1, 0.0, -1, 10)


# -------------------------------------------------------------- gradcheck ---

def test_run_suite_all_pass():
    report = run_suite(seed=0)
    assert report.passed
    assert all(c.max_rel_err < 1e-6 for c in report.checks)
    names = {c.name for c in report.checks}
    assert {"conv2d", "batch_norm_train", "cross_entropy",
            "focal_loss"} <= names


def test_run_suite_summary_format():
    text = run_suite(seed=1).summary()
    lines = text.splitlines()
    assert lines[-1] == "OVERALL PASS"
    assert all(line.startswith(("PASS ", "FAIL ")) for line in lines[:-1])


def test_run_suite_fault_injection_detected():
    report = run_suite(seed=0, fault="sign_flip")
    assert not report.passed
    assert "OVERALL FAIL" in report.summary()
