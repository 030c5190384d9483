from __future__ import annotations

import math

import numpy as np
import pytest

from privamp import (
    CQState,
    ConditionalRenyiCurve,
    ExponentCurve,
    CurvePoint,
    ExponentValue,
    RenyiDivergenceCurve,
    critical_rate,
    equivocation_rate,
    exponent_curve,
    pa_lower_exponent,
    pa_upper_exponent,
    rate_derivative,
    renyi_security_exponent,
    smoothing_exponent,
)
from conftest import acceptance_states, rand_cq, rand_density, two_stage_grid_max
from reference import mp_log2_q, mp_upper_exponent

BIASED = CQState.classical([1 / 3, 2 / 3])


def test_smoothing_exponent_thresholds():
    p = np.diag([0.5, 0.5])
    q = np.diag([0.25, 0.75])
    curve = RenyiDivergenceCurve(p, q)
    d1 = curve.umegaki().value
    dmax = curve.dmax().value
    assert smoothing_exponent(p, q, d1).value == 0.0
    assert smoothing_exponent(p, q, d1 - 0.05).value == 0.0
    assert math.isinf(smoothing_exponent(p, q, dmax).value)
    assert math.isinf(smoothing_exponent(p, q, dmax + 0.2).value)


def test_smoothing_exponent_matches_dense_grid():
    p = np.diag([0.5, 0.5])
    q = np.diag([0.25, 0.75])
    curve = RenyiDivergenceCurve(p, q)
    r = 0.5 * (curve.umegaki().value + curve.dmax().value)
    got = smoothing_exponent(p, q, r)
    want = 0.5 * two_stage_grid_max(lambda s: s * r - curve.log2_q(1.0 + s), 0.0, 64.0, 20001)
    assert abs(got.value - want) <= 1e-9
    assert 0.0 < got.maximizer_s < 64.0


def test_rate_derivative_matches_analytic_classical_form():
    p = np.array([1 / 3, 2 / 3])
    curve = ConditionalRenyiCurve(BIASED)
    for s in (0.25, 0.5, 1.0, 2.0):
        m = p ** (1.0 + s)
        analytic = -float((m * np.log(p)).sum() / (math.log(2.0) * m.sum()))
        assert abs(rate_derivative(curve, s) - analytic) <= 1e-8


def test_rate_derivative_decreases_toward_hmin():
    curve = ConditionalRenyiCurve(BIASED)
    h1 = curve.h1()
    hmin = curve.hmin()
    vals = [rate_derivative(curve, s) for s in (0.1, 0.5, 1.0, 4.0, 16.0)]
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
    assert vals[0] <= h1 + 1e-6
    assert vals[-1] >= hmin - 1e-6
    assert abs(rate_derivative(curve, 64.0) - hmin) <= 1e-3


def test_critical_rate_oracle():
    # analytic d/ds[s H_{1+s}] at s = 1 for the (1/3, 2/3) source
    p = np.array([1 / 3, 2 / 3])
    m = p**2
    want = -float((m * np.log(p)).sum() / (math.log(2.0) * m.sum()))
    assert abs(critical_rate(BIASED) - want) <= 1e-8
    assert abs(critical_rate(BIASED) - 0.7849625007161354) <= 1e-9


def test_upper_exponent_regimes_on_biased_source():
    curve = ConditionalRenyiCurve(BIASED)
    h1, hmin = curve.h1(), curve.hmin()
    rc = critical_rate(curve)
    assert hmin < rc < h1

    zero = pa_upper_exponent(curve, h1 + 0.01)
    assert zero.value == 0.0 and zero.regime == "zero"

    div = pa_upper_exponent(curve, hmin - 0.01)
    assert math.isinf(div.value) and div.regime == "divergent"
    assert pa_upper_exponent(curve, hmin).regime == "divergent"

    high = pa_upper_exponent(curve, 0.5 * (rc + h1))
    assert high.regime == "high-rate"
    assert 0.0 < high.maximizer_s <= 1.0
    assert high.value > 0.0
    assert abs(high.purified_value - 0.5 * high.value) <= 1e-15

    low = pa_upper_exponent(curve, 0.5 * (hmin + rc))
    assert low.regime == "low-rate"
    assert low.maximizer_s > 1.0
    assert low.value > high.value


def test_lower_exponent_at_rate_zero_is_collision_entropy():
    curve = ConditionalRenyiCurve(BIASED)
    low = pa_lower_exponent(curve, 0.0)
    assert abs(low.value - curve.h(2.0)) <= 1e-12
    assert abs(low.maximizer_s - 1.0) <= 1e-9


def test_upper_and_lower_agree_above_critical_rate():
    rng = np.random.default_rng(211)
    for _ in range(5):
        cq = rand_cq(rng, int(rng.integers(2, 4)), int(rng.integers(1, 4)))
        curve = ConditionalRenyiCurve(cq)
        rc, h1 = critical_rate(curve), curve.h1()
        if h1 - rc < 1e-3:
            continue
        for frac in (0.1, 0.5, 0.9):
            r = rc + frac * (h1 - rc)
            eu = pa_upper_exponent(curve, r).value
            el = pa_lower_exponent(curve, r).value
            assert abs(eu - el) <= 1e-8


NEAR_HMIN_OFFSETS = (1e-2, 1e-3, 1e-4, 1e-6)


def test_upper_exponent_is_finite_near_hmin_on_acceptance_states():
    for state in acceptance_states():
        curve = ConditionalRenyiCurve(state)
        hmin = curve.hmin()
        for eps in NEAR_HMIN_OFFSETS:
            ev = pa_upper_exponent(curve, hmin + eps)
            assert 0.0 < ev.value < math.inf, (eps, ev)
            assert 0.0 < ev.maximizer_s < math.inf, (eps, ev)


def test_upper_exponent_near_hmin_classical_closed_form():
    # p = (1/3, 2/3): sum p^(1+s) = 3^-(1+s) (1 + 2^(1+s)), so at R = H_min + eps
    # the optimum is 2^(1+s*) = (1 - eps) / eps with value H_min + eps - h2(eps)
    curve = ConditionalRenyiCurve(BIASED)
    hmin = curve.hmin()
    for eps in (1e-4, 1e-6):
        ev = pa_upper_exponent(curve, hmin + eps)
        h2 = -eps * math.log2(eps) - (1.0 - eps) * math.log2(1.0 - eps)
        assert abs(ev.value - (hmin + eps - h2)) <= 1e-12
        assert ev.maximizer_s == pytest.approx(math.log2((1.0 - eps) / eps) - 1.0, rel=1e-4)


def test_upper_and_lower_match_mpmath_above_critical_rate():
    # above R_c the lower exponent is the upper one's clamp, so check both against an outside reference
    for state in acceptance_states(3):
        curve = ConditionalRenyiCurve(state)
        rc, h1 = critical_rate(curve), curve.h1()
        for frac in (0.1, 0.5, 0.9):
            r = rc + frac * (h1 - rc)
            upper = pa_upper_exponent(curve, r)
            want = mp_upper_exponent(state, r, upper.maximizer_s)
            assert abs(upper.value - want) <= 1e-9, (r, upper.value, want)
            assert abs(pa_lower_exponent(curve, r).value - want) <= 1e-9, r


def _derivative_states() -> list[CQState]:
    """The first 5 acceptance states and three hard cases for the order derivative."""
    rng = np.random.default_rng(17)
    lifted = np.zeros((3, 3), dtype=complex)
    lifted[:2, :2] = rand_density(rng, 2)
    cut = np.zeros((3, 3), dtype=complex)
    cut[2, 2] = 1.0
    return [
        *acceptance_states(5),
        # rank-deficient rho_E: nothing lives on the third basis vector
        CQState([0.4, 0.6], [lifted, np.pad(rand_density(rng, 2), ((0, 1), (0, 1)))]),
        # a block proportional to the identity
        CQState([0.3, 0.7], [np.eye(2) / 2.0, rand_density(rng, 2)]),
        # the third block lies on an eigenvalue of rho_E below the support cut
        CQState([0.5 - 5e-16, 0.5 - 5e-16, 1e-15], [lifted, np.pad(rand_density(rng, 2), ((0, 1), (0, 1))), cut]),
    ]


@pytest.mark.parametrize("k", range(8))
def test_order_derivative_matches_mpmath(k):
    mpmath = pytest.importorskip("mpmath")
    state = _derivative_states()[k]
    curve = ConditionalRenyiCurve(state)
    orders = np.array([1.3, 2.0, 6.0])
    got = curve.d_log2_q(orders)
    with mpmath.workdps(40):
        log2_q = mp_log2_q(mpmath, state)
        want = [float(mpmath.diff(log2_q, mpmath.mpf(a))) for a in orders.tolist()]
    assert np.max(np.abs(got - want)) <= 1e-12, (got, want)
    assert got.tolist() == [curve.d_log2_q(a) for a in orders.tolist()]
    assert rate_derivative(curve, 1.0) == -got[1]


def test_pair_order_derivative_runs_from_umegaki_to_dmax():
    rng = np.random.default_rng(29)
    for _ in range(5):
        curve = RenyiDivergenceCurve(rand_density(rng, 3), rand_density(rng, 3))
        d1, dmax = curve.umegaki().value, curve.dmax().value
        assert abs(curve.d_log2_q(1.0) - d1) <= 1e-12
        slopes = curve.d_log2_q(np.array([1.0, 2.0, 10.0, 1e2, 1e4]))
        assert all(b > a for a, b in zip(slopes, slopes[1:]))
        assert 0.0 <= dmax - slopes[-1] <= 1e-6


def test_upper_exponent_near_hmin_matches_mpmath():
    for state in acceptance_states(3):
        curve = ConditionalRenyiCurve(state)
        hmin = curve.hmin()
        for eps in (1e-4, 1e-6):
            ev = pa_upper_exponent(curve, hmin + eps)
            assert ev.regime == "low-rate" and math.isfinite(ev.value)
            want = mp_upper_exponent(state, hmin + eps, ev.maximizer_s)
            assert abs(ev.value - want) <= 1e-9, (eps, ev.value, want)


def test_equivocation_rate_identity_and_validation():
    curve = ConditionalRenyiCurve(BIASED)
    for s in (0.25, 1.0):
        h = curve.h(1.0 + s)
        assert equivocation_rate(curve, h + 0.2, s) == pytest.approx(0.2, abs=1e-12)
        assert equivocation_rate(curve, h - 0.2, s) == 0.0
    with pytest.raises(ValueError):
        equivocation_rate(curve, 0.5, 0.0)
    with pytest.raises(ValueError):
        equivocation_rate(curve, 0.5, 1.5)


def test_renyi_security_exponent_matches_upper_above_critical():
    curve = ConditionalRenyiCurve(BIASED)
    rc, h1 = critical_rate(curve), curve.h1()
    r = 0.5 * (rc + h1)
    upper = pa_upper_exponent(curve, r)
    assert 0.0 < upper.maximizer_s <= 1.0
    # orders at or below the unconstrained maximizer recover the full supremum
    for s in (0.1, 0.5 * upper.maximizer_s):
        ren = renyi_security_exponent(curve, r, s)
        assert ren.valid is True
        assert abs(ren.value - upper.value) <= 1e-9
    # orders past the maximizer pin the optimum to the left endpoint t = s
    past = min(1.0, 2.0 * upper.maximizer_s)
    constrained = renyi_security_exponent(curve, r, past)
    assert constrained.value <= upper.value + 1e-12
    assert abs(constrained.value - past * (curve.h(1.0 + past) - r)) <= 1e-9
    below = renyi_security_exponent(curve, 0.5 * (curve.hmin() + rc), 0.25)
    assert below.valid is False


def test_renyi_security_exponent_clamps_to_zero():
    curve = ConditionalRenyiCurve(BIASED)
    ren = renyi_security_exponent(curve, curve.h1() + 0.3, 0.5)
    assert ren.value == 0.0
    assert ren.maximizer_s == 0.5


def test_exponent_curve_modes_and_metadata():
    rates = np.linspace(0.2, 1.1, 7)
    curve = exponent_curve(BIASED, rates, mode="all", s=0.5)
    assert len(curve.points) == 7
    assert set(curve.metadata) == {"h", "h_min", "critical_rate", "mode"}
    uppers = [p.upper.value for p in curve.points]
    lowers = [p.lower.value for p in curve.points]
    assert all(b <= a + 1e-9 for a, b in zip(uppers, uppers[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(lowers, lowers[1:]))
    for p in curve.points:
        assert p.upper.value >= p.lower.value - 1e-9
        assert p.renyi is not None
    only_upper = exponent_curve(BIASED, rates, mode="upper")
    assert only_upper.points[0].lower is None


def test_exponent_curve_rejects_bad_grids():
    with pytest.raises(ValueError):
        exponent_curve(BIASED, [0.5, 0.5, 0.6])
    increasing = [
        CurvePoint(0.1, ExponentValue(0.2, 1.0)),
        CurvePoint(0.2, ExponentValue(0.5, 1.0)),
    ]
    with pytest.raises(ValueError):
        ExponentCurve(tuple(increasing))


def test_exponent_curve_rows_equal_one_rate_calls():
    for state in acceptance_states():
        curve = ConditionalRenyiCurve(state)
        h, hmin = curve.h1(), curve.hmin()
        # divergent, low-rate, high-rate and zero rates alike
        rates = np.linspace(hmin - 0.01, h + 0.01, 7)
        got = exponent_curve(curve, rates, mode="all", s=0.5)
        for p in got.points:
            assert p.upper == pa_upper_exponent(curve, p.rate)
            assert p.lower == pa_lower_exponent(curve, p.rate)
            assert p.renyi == renyi_security_exponent(curve, p.rate, 0.5)


def _count_kernel_calls(monkeypatch) -> list[int]:
    """Record the number of orders of every log2_q and d_log2_q call of a conditional curve."""
    calls = []
    for name in ("log2_q", "d_log2_q"):
        kernel = getattr(ConditionalRenyiCurve, name)

        def counted(self, alpha, kernel=kernel):
            calls.append(np.size(alpha))
            return kernel(self, alpha)

        monkeypatch.setattr(ConditionalRenyiCurve, name, counted)
    return calls


def test_exponent_curve_runs_its_searches_in_lockstep(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    curve = ConditionalRenyiCurve(acceptance_states()[0])
    h, hmin = curve.h1(), curve.hmin()
    exponent_curve(curve, np.linspace(hmin + 0.2 * (h - hmin), h + 0.05, 21), mode="all", s=0.5)
    # one derivative call per root-search round for all 21 rates, the critical
    # rate, and one log2_q call for every exponent of the grid
    assert len(calls) <= 25
    assert max(calls) >= 21


def test_one_rate_exponent_takes_few_kernel_calls(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    for state in acceptance_states():
        curve = ConditionalRenyiCurve(state)
        h, hmin = curve.h1(), curve.hmin()
        for frac in (0.01, 0.25, 0.5, 0.75, 0.99):
            calls.clear()
            pa_upper_exponent(curve, hmin + frac * (h - hmin))
            assert len(calls) <= 20, (frac, len(calls))
