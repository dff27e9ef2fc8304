"""Finite-difference validation of the differentiation engine.

Central differences (h = 1e-5) against analytic gradients, in 64-bit mode.
Relative error is measured against max(|analytic|, |numeric|, 1e-3) so that
near-zero entries do not blow up the ratio.

The gradient reversal node is deliberately excluded from finite differencing
(its backward rule is not the derivative of its forward map); it is checked
against a twin network with the reversal replaced by identity, whose
gradients must match after scaling by -lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    Tensor,
    add,
    batch_norm_eval,
    batch_norm_train,
    concat,
    conv1d,
    conv2d,
    global_avg_pool,
    grad_reverse,
    matmul,
    mul,
    relu,
    reshape,
    sum_all,
)
from .losses import cross_entropy, focal_loss

DEFAULT_H = 1e-5
DEFAULT_TOL = 1e-6


@dataclass
class OpCheck:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


@dataclass
class GradCheckReport:
    checks: list[OpCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status} {c.name}: max_rel_err={c.max_rel_err:.3e}"
                         f" (tol {c.tolerance:.0e})")
        lines.append("OVERALL " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return float(np.max(np.abs(analytic - numeric) / denom)) \
        if analytic.size else 0.0


def numeric_grad(forward, tensor: Tensor, h: float = DEFAULT_H) -> np.ndarray:
    """Central finite differences of a scalar-valued forward w.r.t. tensor."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = forward().item()
        flat[i] = orig - h
        down = forward().item()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return grad


def check_case(name: str, tensors: list[Tensor], forward,
               tolerance: float = DEFAULT_TOL, h: float = DEFAULT_H,
               fault: str | None = None) -> OpCheck:
    for t in tensors:
        t.zero_grad()
    forward().backward()
    worst = 0.0
    for k, t in enumerate(tensors):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        if fault == "sign_flip" and k == 0:
            analytic = -analytic
        worst = max(worst, rel_err(analytic, numeric_grad(forward, t, h)))
    return OpCheck(name=name, max_rel_err=worst, tolerance=tolerance)


def _leaf(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _away_from_zero(rng, shape, margin=0.2):
    data = rng.uniform(margin, 1.0, size=shape)
    return Tensor(data * rng.choice([-1.0, 1.0], size=shape),
                  requires_grad=True)


def _scalarizer(rng, shape):
    """Fixed random weighting that turns an op output into a scalar loss."""
    w = Tensor(rng.uniform(-1.0, 1.0, size=shape))
    return lambda out: sum_all(mul(out, w))


def run_suite(seed: int = 0, fault: str | None = None) -> GradCheckReport:
    """Finite-difference checks for every differentiable op."""
    rng = np.random.default_rng(seed)
    checks = []

    a, b = _leaf(rng, (3, 4)), _leaf(rng, (4,))
    s = _scalarizer(rng, (3, 4))
    checks.append(check_case("add_broadcast", [a, b],
                             lambda: s(add(a, b)), fault=fault))

    a2, b2 = _leaf(rng, (3, 4)), _leaf(rng, (3, 4))
    s2 = _scalarizer(rng, (3, 4))
    checks.append(check_case("mul", [a2, b2], lambda: s2(mul(a2, b2))))

    x, w, bias = _leaf(rng, (5, 4)), _leaf(rng, (4, 3)), _leaf(rng, (3,))
    s3 = _scalarizer(rng, (5, 3))
    checks.append(check_case(
        "dense", [x, w, bias], lambda: s3(add(matmul(x, w), bias))))

    xr = _away_from_zero(rng, (4, 6))
    s4 = _scalarizer(rng, (4, 6))
    checks.append(check_case("relu", [xr], lambda: s4(relu(xr))))

    x1, w1, b1 = _leaf(rng, (2, 3, 20)), _leaf(rng, (4, 3, 5)), \
        _leaf(rng, (4,))
    s5 = _scalarizer(rng, (2, 4, 10))
    checks.append(check_case(
        "conv1d", [x1, w1, b1],
        lambda: s5(conv1d(x1, w1, b1, stride=2, padding=2))))

    x2, w2, b2c = _leaf(rng, (2, 3, 8, 9)), _leaf(rng, (4, 3, 3, 3)), \
        _leaf(rng, (4,))
    s6 = _scalarizer(rng, (2, 4, 4, 5))
    checks.append(check_case(
        "conv2d", [x2, w2, b2c],
        lambda: s6(conv2d(x2, w2, b2c, stride=(2, 2), padding=(1, 1)))))

    xb, gb, bb = _leaf(rng, (4, 3, 5, 5)), _leaf(rng, (3,), 0.5, 1.5), \
        _leaf(rng, (3,))
    s7 = _scalarizer(rng, (4, 3, 5, 5))
    checks.append(check_case(
        "batch_norm_train", [xb, gb, bb],
        lambda: s7(batch_norm_train(xb, gb, bb)[0])))

    mean = rng.uniform(-0.5, 0.5, size=3)
    var = rng.uniform(0.5, 1.5, size=3)
    s8 = _scalarizer(rng, (4, 3, 5, 5))
    checks.append(check_case(
        "batch_norm_eval", [xb, gb, bb],
        lambda: s8(batch_norm_eval(xb, gb, bb, mean, var))))

    xg = _leaf(rng, (3, 4, 5, 6))
    s9 = _scalarizer(rng, (3, 4))
    checks.append(check_case(
        "global_avg_pool", [xg], lambda: s9(global_avg_pool(xg))))

    xc, yc = _leaf(rng, (2, 6)), _leaf(rng, (3, 6))
    s10 = _scalarizer(rng, (6, 5))
    checks.append(check_case(
        "reshape_concat", [xc, yc],
        lambda: s10(reshape(concat([xc, yc], axis=0), (6, 5)))))

    logits = _leaf(rng, (6, 5), -2.0, 2.0)
    labels = rng.integers(0, 5, size=6)
    checks.append(check_case(
        "cross_entropy", [logits], lambda: cross_entropy(logits, labels)))

    logits2 = _leaf(rng, (6, 5), -2.0, 2.0)
    weights = rng.uniform(0.5, 2.0, size=5)
    checks.append(check_case(
        "focal_loss", [logits2],
        lambda: focal_loss(logits2, labels, gamma_f=2.0,
                           class_weights=weights)))

    shared = _leaf(rng, (4, 4))
    s11 = _scalarizer(rng, (4, 4))
    checks.append(check_case(
        "shared_subexpression", [shared],
        lambda: s11(add(mul(shared, shared), shared))))

    return GradCheckReport(checks=checks)


def grl_twin_check(seed: int = 0, lam: float = 0.3) -> float:
    """Max relative deviation from the -lambda rule on a small dense net.

    Gradients upstream of the reversal node must equal -lambda times the
    gradients of an identical network with the reversal replaced by identity.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(4, 6))
    w1 = rng.uniform(-0.5, 0.5, size=(6, 5))
    w2 = rng.uniform(-0.5, 0.5, size=(5, 3))

    def grads(use_grl: bool):
        xt = Tensor(x.copy(), requires_grad=True)
        w1t = Tensor(w1.copy(), requires_grad=True)
        w2t = Tensor(w2.copy(), requires_grad=True)
        h = relu(matmul(xt, w1t))
        h2 = grad_reverse(h, lam) if use_grl else h
        loss = sum_all(matmul(h2, w2t))
        loss.backward()
        return xt.grad, w1t.grad

    gx_a, gw_a = grads(True)
    gx_b, gw_b = grads(False)
    return max(rel_err(gx_a, -lam * gx_b), rel_err(gw_a, -lam * gw_b))
