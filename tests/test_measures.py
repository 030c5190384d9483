from __future__ import annotations

import math

import numpy as np
import pytest

from privamp import (
    CQState,
    ConditionalRenyiCurve,
    RenyiDivergenceCurve,
    apply_measurement,
    fidelity,
    max_relative_entropy,
    min_conditional_entropy,
    pinching,
    purified_distance,
    relative_entropy,
    renyi_conditional_entropy,
    sandwiched_renyi_divergence,
    trace_distance,
)
from conftest import rand_cq, rand_density

P_HALF = np.diag([0.5, 0.5])
Q_QUARTER = np.diag([0.25, 0.75])


# frozen classical oracle values for p = (1/2, 1/2) against q = (1/4, 3/4)


def test_oracle_fidelity():
    f = fidelity(P_HALF, Q_QUARTER)
    assert abs(f - 0.9659258262890684) <= 1e-14
    assert abs(f - (math.sqrt(0.5 * 0.25) + math.sqrt(0.5 * 0.75))) <= 1e-14


def test_oracle_relative_entropy():
    d = relative_entropy(P_HALF, Q_QUARTER)
    assert abs(d.value - 0.20751874963942196) <= 1e-14
    assert d.support_violation <= 1e-15


def test_oracle_collision_divergence():
    d = sandwiched_renyi_divergence(P_HALF, Q_QUARTER, 2.0)
    assert abs(d.value - math.log2(4.0 / 3.0)) <= 1e-12


def test_oracle_max_relative_entropy():
    d = max_relative_entropy(P_HALF, Q_QUARTER)
    assert abs(d.value - 1.0) <= 1e-12


def test_oracle_trace_and_purified_distance():
    assert abs(trace_distance(P_HALF, Q_QUARTER) - 0.25) <= 1e-14
    p = purified_distance(P_HALF, Q_QUARTER)
    assert abs(p - math.sqrt(1.0 - 0.9659258262890684**2)) <= 1e-12


# frozen conditional-entropy oracles for the biased binary source (1/3, 2/3)


def test_oracle_biased_binary_entropies():
    cq = CQState.classical([1 / 3, 2 / 3])
    assert abs(renyi_conditional_entropy(cq, 1.0) - 0.9182958340544896) <= 1e-14
    assert abs(renyi_conditional_entropy(cq, 2.0) - math.log2(9.0 / 5.0)) <= 1e-14
    assert abs(renyi_conditional_entropy(cq, math.inf) - math.log2(1.5)) <= 1e-14
    assert abs(min_conditional_entropy(cq) - 0.5849625007211563) <= 1e-13


def test_alpha_one_guard_raises():
    for alpha in (1.0, 1.0 + 1e-7, 1.0 - 1e-7):
        with pytest.raises(ValueError):
            sandwiched_renyi_divergence(P_HALF, Q_QUARTER, alpha)


def test_alpha_one_continuity():
    rng = np.random.default_rng(61)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        rho, sigma = rand_density(rng, d), rand_density(rng, d)
        dv = relative_entropy(rho, sigma).value
        for alpha in (1.0 - 1e-4, 1.0 + 1e-4):
            near = sandwiched_renyi_divergence(rho, sigma, alpha).value
            assert abs(near - dv) <= 1e-3


def test_support_violation_forces_infinity_above_one():
    rho = np.diag([1.0, 0.0])
    sigma = np.diag([0.0, 1.0])
    d = sandwiched_renyi_divergence(rho, sigma, 2.0)
    assert d.is_infinite and math.isinf(d.value)
    assert d.support_violation >= 0.5
    assert math.isinf(max_relative_entropy(rho, sigma).value)
    assert math.isinf(relative_entropy(rho, sigma).value)


def test_orthogonal_supports_force_infinity_below_one():
    rho = np.diag([1.0, 0.0])
    sigma = np.diag([0.0, 1.0])
    d = sandwiched_renyi_divergence(rho, sigma, 0.5)
    assert math.isinf(d.value)
    # overlapping supports keep alpha < 1 finite even when rho spills over
    sigma2 = np.diag([0.5, 0.5])
    rho2 = np.diag([0.0, 1.0])
    assert math.isfinite(sandwiched_renyi_divergence(rho2, sigma2, 0.5).value)


def test_divergence_vanishes_on_equal_states():
    rng = np.random.default_rng(67)
    rho = rand_density(rng, 3)
    for alpha in (0.5, 2.0, 3.0):
        assert abs(sandwiched_renyi_divergence(rho, rho, alpha).value) <= 1e-10
    assert abs(relative_entropy(rho, rho).value) <= 1e-10
    assert fidelity(rho, rho) >= 1.0 - 1e-12
    assert trace_distance(rho, rho) <= 1e-12


def test_curve_matches_one_shot_wrappers():
    rng = np.random.default_rng(71)
    rho, sigma = rand_density(rng, 4), rand_density(rng, 4)
    curve = RenyiDivergenceCurve(rho, sigma)
    for alpha in (0.4, 0.9, 1.3, 2.0, 5.0):
        assert abs(curve.divergence(alpha).value - sandwiched_renyi_divergence(rho, sigma, alpha).value) <= 1e-12
    assert abs(curve.umegaki().value - relative_entropy(rho, sigma).value) <= 1e-12
    assert abs(curve.dmax().value - max_relative_entropy(rho, sigma).value) <= 1e-12


def test_alpha_monotonicity():
    rng = np.random.default_rng(73)
    alphas = (0.3, 0.6, 0.95, 1.1, 1.5, 2.0, 4.0, 16.0)
    for _ in range(40):
        d = int(rng.integers(2, 5))
        curve = RenyiDivergenceCurve(rand_density(rng, d), rand_density(rng, d))
        vals = [curve.divergence(a).value for a in alphas]
        vals.append(curve.dmax().value)
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_data_processing_under_pinching():
    rng = np.random.default_rng(79)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        rho, sigma = rand_density(rng, d), rand_density(rng, d)
        basis = rand_density(rng, d)
        rho_p = pinching(rho, basis).mat
        sigma_p = pinching(sigma, basis).mat
        for alpha in (0.5, 2.0):
            pre = sandwiched_renyi_divergence(rho, sigma, alpha).value
            post = sandwiched_renyi_divergence(rho_p, sigma_p, alpha).value
            assert post <= pre + 1e-9


def test_apply_measurement_is_a_distribution():
    rng = np.random.default_rng(83)
    rho = rand_density(rng, 3)
    raw = [rand_density(rng, 3) * 0.5 for _ in range(4)]
    total = sum(raw)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v * w**-0.5) @ v.conj().T
    povm = [inv_sqrt @ a @ inv_sqrt for a in raw]
    p = apply_measurement(rho, povm)
    assert abs(p.sum() - 1.0) <= 1e-10
    assert np.all(p >= 0.0)


def test_fuchs_van_de_graaf():
    rng = np.random.default_rng(89)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        a, b = rand_density(rng, d), rand_density(rng, d)
        t = trace_distance(a, b)
        f = fidelity(a, b)
        p = purified_distance(a, b)
        assert 1.0 - f <= t + 1e-10
        assert t <= p + 1e-10
        assert abs(p - math.sqrt(max(0.0, 1.0 - f * f))) <= 1e-12


def test_conditional_entropy_cq_path_matches_dense_path():
    rng = np.random.default_rng(97)
    for _ in range(10):
        nx = int(rng.integers(2, 4))
        de = int(rng.integers(2, 4))
        cq = rand_cq(rng, nx, de)
        joint = cq.to_density().mat
        for alpha in (0.5, 1.0, 2.0, 3.0, math.inf):
            fast = renyi_conditional_entropy(cq, alpha)
            dense = renyi_conditional_entropy(joint, alpha, dims=(nx, de))
            assert abs(fast - dense) <= 1e-9


def test_conditional_entropy_monotone_in_alpha():
    rng = np.random.default_rng(103)
    alphas = (0.5, 0.8, 1.0, 1.5, 2.0, 8.0, math.inf)
    for _ in range(20):
        cq = rand_cq(rng, int(rng.integers(2, 4)), int(rng.integers(1, 4)))
        vals = [renyi_conditional_entropy(cq, a) for a in alphas]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


def test_conditional_curve_identities():
    rng = np.random.default_rng(107)
    cq = rand_cq(rng, 3, 2)
    curve = ConditionalRenyiCurve(cq)
    # s * H_{1+s} continues to -log2 Q_{1+s}, zero at s = 0
    assert abs(curve.s_times_h(0.0)) <= 1e-12
    for s in (0.25, 0.5, 1.0):
        assert abs(curve.s_times_h(s) - (-curve.log2_q(1.0 + s))) <= 1e-12
        assert abs(curve.s_times_h(s) - s * curve.h(1.0 + s)) <= 1e-12
    assert abs(curve.h(1.0) - curve.h1()) <= 1e-12
    assert abs(curve.h(math.inf) - curve.hmin()) <= 1e-12


def test_conditional_entropy_additive_on_products():
    rng = np.random.default_rng(109)
    cq = rand_cq(rng, 2, 2)
    doubled = cq.tensor_power(2)
    for alpha in (0.5, 2.0, math.inf):
        single = renyi_conditional_entropy(cq, alpha)
        double = renyi_conditional_entropy(doubled, alpha)
        assert abs(double - 2.0 * single) <= 1e-9


def test_classical_cq_reduces_to_renyi_entropy():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    cq = CQState.classical(p)
    for alpha in (0.5, 2.0, 3.0):
        want = math.log2(float((p**alpha).sum())) / (1.0 - alpha)
        assert abs(renyi_conditional_entropy(cq, alpha) - want) <= 1e-12


def test_subnormalized_trace_distance_convention():
    a = np.diag([0.5, 0.3])
    b = np.diag([0.2, 0.4])
    delta_half = 0.5 * (abs(0.3) + abs(0.1))
    assert abs(trace_distance(a, b) - (delta_half + 0.5 * abs(0.8 - 0.6))) <= 1e-12


def _loop_log2_q(curve, alpha: float) -> float:
    """The kernel one order and one block at a time, the reference for its array form."""
    e = (1.0 - alpha) / (2.0 * alpha)
    d = curve._mu**e
    w = np.clip(np.linalg.eigvalsh(d[None, :, None] * curve.blocks * d[None, None, :]), 0.0, None)
    terms = []
    for px, wi in zip(curve.weights, w):
        wmax = float(wi.max(initial=0.0))
        if wmax > 0.0:
            terms.append(alpha * math.log2(px) + alpha * math.log2(wmax) + math.log2(float(((wi / wmax) ** alpha).sum())))
    if not terms:
        return -math.inf
    t = np.array(terms)
    m = float(t.max())
    return m + math.log2(float(np.exp2(t - m).sum()))


def test_array_log2_q_equals_scalar_and_loop_evaluations():
    rng = np.random.default_rng(113)
    # alpha = 1/5, 1/2 and 2 are the orders whose powers numpy rounds through sqrt and square
    orders = np.array([0.2, 1 / 3, 0.5, 0.9, 1.0 - 1e-5, 1.0, 1.0 + 1e-5, 1.5, 2.0, 3.0, 65.0, 1e4])
    padded = [np.pad(rand_density(rng, 2), ((0, 1), (0, 1))) for _ in range(3)]
    # p_x = 1e-20 puts the second block below the support cut of rho_E: its term is -inf
    faint = CQState([1.0 - 1e-20, 1e-20], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    curves = [
        RenyiDivergenceCurve(rand_density(rng, 3), rand_density(rng, 3)),
        RenyiDivergenceCurve(rand_density(rng, 3), np.diag([0.6, 0.4, 0.0])),
        RenyiDivergenceCurve(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
        ConditionalRenyiCurve(rand_cq(rng, 3, 2)),
        ConditionalRenyiCurve(CQState(rng.dirichlet(np.ones(3)), padded)),
        ConditionalRenyiCurve(faint),
    ]
    assert np.linalg.matrix_rank(curves[4].cq.rho_e()) == 2
    for curve in curves:
        got = curve.log2_q(orders)
        assert got.shape == orders.shape
        scalar = [curve.log2_q(float(a)) for a in orders]
        assert got.tolist() == scalar
        assert scalar == [_loop_log2_q(curve, float(a)) for a in orders]
        assert curve.log2_q(orders[::-1]).tolist() == scalar[::-1]
        curve._orders_per_stack = 5  # a batch larger than one stack is split
        assert curve.log2_q(orders).tolist() == scalar
    assert all(v == -math.inf for v in curves[2].log2_q(orders))
    assert np.isfinite(curves[5].log2_q(orders)).all()
    assert curves[5].log2_q(orders).tolist() == ConditionalRenyiCurve(CQState.classical([1.0])).log2_q(orders).tolist()
