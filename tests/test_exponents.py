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
    golden_section_max,
    pa_lower_exponent,
    pa_upper_exponent,
    positive_part_decay_rate,
    rate_derivative,
    renyi_security_exponent,
    smoothing_exponent,
)
from privamp.exponents import _INVPHI as INVPHI, _sup_over_s
from conftest import acceptance_states, rand_cq

BIASED = CQState.classical([1 / 3, 2 / 3])


def test_golden_section_concave_quadratic():
    # function values pin a smooth maximizer only to about sqrt(eps)
    x, v = golden_section_max(lambda t, _: -((t - 0.37) ** 2) + 2.0, 0.0, 1.0)
    assert abs(x - 0.37) <= 1e-6
    assert abs(v - 2.0) <= 1e-14


def test_golden_section_monotone_hits_endpoints():
    x, v = golden_section_max(lambda t, _: 3.0 * t, 0.0, 2.0)
    assert abs(x - 2.0) <= 1e-9 and abs(v - 6.0) <= 1e-8
    x, v = golden_section_max(lambda t, _: -t, 0.0, 2.0)
    assert x == 0.0 and v == 0.0


def test_golden_section_plateau_prefers_smallest_maximizer():
    x, _ = golden_section_max(lambda t, _: np.minimum(t, 1.0), 0.0, 64.0)
    assert x <= 1.0 + 1e-6


def _one_bracket_golden(f, lo: float, hi: float, xtol: float = 1e-12, max_iter: int = 400):
    """Golden section on one bracket with scalar evaluations, the reference for the lockstep run."""
    evals = [(lo, f(lo))]
    if hi > lo:
        evals.append((hi, f(hi)))
    a, b = lo, hi
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    evals.extend([(c, fc), (d, fd)])
    for _ in range(max_iter):
        if b - a <= xtol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
            evals.append((c, fc))
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
            evals.append((d, fd))
    best_x, best_f = evals[0]
    for x, fx in evals[1:]:
        if fx > best_f or (fx == best_f and x < best_x):
            best_x, best_f = x, fx
    return best_x, best_f


def test_golden_section_lockstep_matches_one_bracket_searches():
    funcs = [
        lambda t: -((t - 0.37) ** 2),
        lambda t: min(t, 1.0),
        lambda t: -t,
        lambda t: math.sin(3.0 * t),
        lambda t: 2.0,
    ]
    lo = [0.0, 0.0, 0.5, -1.0, 2.0]
    hi = [1.0, 64.0, 0.5, 3.0, 2.5]
    seen = [[] for _ in funcs]

    def f(x, k):
        for xi, ki in zip(x.tolist(), k.tolist()):
            seen[ki].append(xi)
        return [funcs[ki](xi) for xi, ki in zip(x.tolist(), k.tolist())]

    xs, vals = golden_section_max(f, lo, hi)
    for k, g in enumerate(funcs):
        alone = []
        want = _one_bracket_golden(lambda t: alone.append(t) or g(t), lo[k], hi[k])
        assert (xs[k], vals[k]) == want
        assert seen[k] == alone


def test_sup_over_s_covers_every_order():
    # 1000 ln(1 + s) - s peaks at s = 999
    s, v = _sup_over_s(lambda s: 1000.0 * np.log1p(s) - s)
    assert abs(s - 999.0) <= 1e-2
    assert abs(v - (1000.0 * math.log(1000.0) - 999.0)) <= 1e-9
    s, v = _sup_over_s(lambda s: -s)
    assert s == 0.0 and v == 0.0


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


def _two_stage_grid_max(f, lo: float, hi: float, points: int = 20001) -> float:
    coarse = np.linspace(lo, hi, points)
    vals = np.array([f(x) for x in coarse])
    k = int(np.argmax(vals))
    a = coarse[max(0, k - 1)]
    b = coarse[min(points - 1, k + 1)]
    fine = np.linspace(a, b, points)
    return max(f(x) for x in fine)


def test_smoothing_exponent_matches_dense_grid():
    p = np.diag([0.5, 0.5])
    q = np.diag([0.25, 0.75])
    curve = RenyiDivergenceCurve(p, q)
    r = 0.5 * (curve.umegaki().value + curve.dmax().value)
    got = smoothing_exponent(p, q, r)
    want = 0.5 * _two_stage_grid_max(lambda s: s * r - curve.log2_q(1.0 + s), 0.0, 64.0)
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


def _mp_upper_exponent(cq: CQState, rate: float, s0: float) -> float:
    """40-digit sup_s s (H_{1+s}(X|E) - rate) at the root of its s-derivative nearest s0."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        probs = [mpmath.mpf(float(p)) for p in cq.probs]
        conds = [mpmath.matrix(np.asarray(c).tolist()) for c in cq.conditionals]

        def log2_q(alpha):
            # recomputed at every call: mpmath.diff raises the working precision
            rho_e = probs[0] * conds[0]
            for p, c in zip(probs[1:], conds[1:]):
                rho_e += p * c
            mu, v = mpmath.eigh(rho_e)
            e = (1 - alpha) / (2 * alpha)
            root = v * mpmath.diag([m**e for m in mu]) * v.H
            total = 0
            for p, c in zip(probs, conds):
                block = root * c * root
                lam = mpmath.eigh((block + block.H) / 2, eigvals_only=True)
                total += p**alpha * mpmath.fsum(max(x, 0) ** alpha for x in lam)
            return mpmath.log(total, 2)

        def objective(s):
            return -log2_q(1 + s) - s * mpmath.mpf(rate)

        s_star = mpmath.findroot(lambda s: mpmath.diff(objective, s), mpmath.mpf(s0))
        return float(objective(s_star))


def test_upper_exponent_near_hmin_matches_mpmath():
    for state in acceptance_states(3):
        curve = ConditionalRenyiCurve(state)
        hmin = curve.hmin()
        for eps in (1e-4, 1e-6):
            ev = pa_upper_exponent(curve, hmin + eps)
            assert ev.regime == "low-rate" and math.isfinite(ev.value)
            want = _mp_upper_exponent(state, hmin + eps, ev.maximizer_s)
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


def test_positive_part_decay_rate_cases():
    p = np.diag([0.5, 0.5])
    q = np.diag([0.25, 0.75])
    curve = RenyiDivergenceCurve(p, q)
    d1, dmax = curve.umegaki().value, curve.dmax().value
    assert positive_part_decay_rate(p, q, d1 - 0.01).value == 0.0
    deep = positive_part_decay_rate(p, q, dmax + 0.1)
    assert deep.value == -math.inf and deep.regime == "unbounded-below"
    a = 0.5 * (d1 + dmax)
    mid = positive_part_decay_rate(p, q, a)
    want = -_two_stage_grid_max(lambda s: s * a - curve.log2_q(1.0 + s), 0.0, 64.0)
    assert mid.value <= 0.0
    assert abs(mid.value - min(want, 0.0)) <= 1e-9


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


def test_exponent_curve_runs_its_searches_in_lockstep(monkeypatch):
    kernel = ConditionalRenyiCurve.log2_q
    calls = []

    def counted(self, alpha):
        calls.append(np.size(alpha))
        return kernel(self, alpha)

    monkeypatch.setattr(ConditionalRenyiCurve, "log2_q", counted)
    curve = ConditionalRenyiCurve(acceptance_states()[0])
    h, hmin = curve.h1(), curve.hmin()
    exponent_curve(curve, np.linspace(hmin + 0.2 * (h - hmin), h + 0.05, 21), mode="all", s=0.5)
    # one call per golden-section round for all 21 rates, plus the critical rate
    assert len(calls) <= 70
    assert max(calls) >= 21
