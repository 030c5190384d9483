"""Acceptance gate: one test per advertised numeric guarantee.

Each test owns one criterion, asserts it at the stated tolerance, and
enforces its runtime budget. Run with -v to get one pass/fail line per
criterion; -s adds a measured-detail line each.
"""
from __future__ import annotations

import json
import math
import time

import numpy as np

from privamp import (
    CQState,
    ConditionalRenyiCurve,
    RenyiDivergenceCurve,
    apply_measurement,
    critical_rate,
    distinct_eigenvalue_counts_iid,
    fidelity,
    iid_smoothing_certificate,
    max_relative_entropy,
    min_insecurity_exhaustive,
    pa_lower_exponent,
    pa_upper_exponent,
    purified_distance,
    relative_entropy,
    sandwiched_renyi_divergence,
    smoothing_exponent,
    trace_distance,
)
from privamp.hashing import (
    AllFunctionsFamily,
    example1_suite,
    example2_suite,
    hashed_q_expectation_check,
    leftover_hash_exponent_check,
    positive_part_superadditivity_check,
)
from privamp.cli import main
from conftest import acceptance_states, rand_cq, rand_density, two_stage_grid_max

P_HALF = np.diag([0.5, 0.5])
Q_QUARTER = np.diag([0.25, 0.75])


def test_criterion_1_iid_smoothing_sandwich_and_exponent_bracket():
    start = time.perf_counter()
    d1 = relative_entropy(P_HALF, Q_QUARTER).value
    dmax = max_relative_entropy(P_HALF, Q_QUARTER).value
    r = 0.5 * (d1 + dmax)
    target = smoothing_exponent(P_HALF, Q_QUARTER, r).value
    for n, cert in enumerate(iid_smoothing_certificate(P_HALF, Q_QUARTER, r, range(1, 13)), start=1):
        assert cert.exact is not None
        assert cert.exact - cert.lower >= -1e-9, f"n={n}: exact below converse"
        assert cert.upper - cert.exact >= -1e-9, f"n={n}: exact above achievability"
        if n >= 8:
            exp_lo = -math.log2(cert.upper) / n if cert.upper > 0 else math.inf
            exp_hi = -math.log2(cert.lower) / n if cert.lower > 0 else math.inf
            assert exp_lo - 1e-9 <= target <= exp_hi + 1e-9, (
                f"n={n}: bracket [{exp_lo}, {exp_hi}] misses {target}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 1 PASS: sandwich holds n=1..12, bracket holds n>=8, {elapsed:.2f}s")


def test_criterion_2_security_exponent_regime_map():
    start = time.perf_counter()
    regimes_hit = {"zero": 0, "high": 0, "low": 0, "divergent": 0}
    grid_checks = 0
    for state in acceptance_states():
        curve = ConditionalRenyiCurve(state)
        h, hmin, rc = curve.h1(), curve.hmin(), critical_rate(curve)
        rates = [h + 0.05, h + 1e-3]
        regimes_hit["zero"] += 1
        grid_rates = set()
        if h - rc > 2e-3:
            mid = 0.5 * (rc + h)
            rates += [rc + 1e-3, mid, h - 1e-3]
            grid_rates.add(mid)
            regimes_hit["high"] += 1
        if rc - hmin > 2e-3:
            low = [hmin + 1e-3, 0.5 * (hmin + rc), rc - 1e-3]
            rates += low
            grid_rates.add(low[0])
            regimes_hit["low"] += 1
        if hmin > 2e-3:
            rates += [hmin - 1e-3, 0.5 * hmin]
            regimes_hit["divergent"] += 1
        for rate in rates:
            ev = pa_upper_exponent(curve, rate)
            assert (ev.value == 0.0) == (rate >= h - 1e-9), f"zero-regime mismatch at {rate}"
            assert math.isinf(ev.value) == (rate <= hmin + 1e-9), f"divergence mismatch at {rate}"
            assert (0.0 < ev.maximizer_s <= 1.0) == (rc - 1e-9 <= rate < h), (
                f"maximizer band mismatch at {rate}: s*={ev.maximizer_s}"
            )
            if rate in grid_rates and 0.0 < ev.value < math.inf:
                hi = max(2.0, 2.5 * ev.maximizer_s)
                ref = two_stage_grid_max(lambda s: curve.s_times_h(s) - s * rate, 0.0, hi, 2001)
                assert abs(ref - ev.value) <= 1e-6, f"grid disagreement at {rate}"
                grid_checks += 1
    assert min(regimes_hit.values()) >= 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"criterion 2 PASS: regime map verified on 20 states "
        f"({regimes_hit}, {grid_checks} grid checks), {elapsed:.2f}s"
    )


def test_criterion_3_upper_and_lower_exponents_match_above_critical_rate():
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([2026, 3]))
    worst = 0.0
    for state in acceptance_states():
        curve = ConditionalRenyiCurve(state)
        h, rc = curve.h1(), critical_rate(curve)
        for u in rng.random(50):
            rate = float(rc + u * (h + 0.1 - rc))
            gap = abs(
                pa_upper_exponent(curve, rate).value
                - pa_lower_exponent(curve, rate).value
            )
            worst = max(worst, gap)
    assert worst <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 3 PASS: 1000 rates, worst upper/lower gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_biased_binary_source_exhaustive_minima():
    start = time.perf_counter()
    results = {n: example1_suite(n) for n in (1, 2, 3)}
    d1 = results[1]["minima"]["trace_distance"].value
    assert abs(d1 - 1.0 / 6.0) <= 1e-12
    assert results[2]["minima"]["trace_distance"].value >= 1.0 / 18.0 - 1e-12
    for n, res in results.items():
        assert res["passed"], f"n={n} suite checks failed"
        floor = 1.0 / (2.0 * 3.0**n)
        assert res["minima"]["trace_distance"].value >= floor - 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"criterion 4 PASS: n=1 minimum 1/6 exact, n=2 minimum "
        f"{results[2]['minima']['trace_distance'].value:.6f} >= 1/18, floors hold, {elapsed:.2f}s"
    )


def test_criterion_5_permutation_family_certificate_and_zero_insecurity():
    start = time.perf_counter()
    for n in (1, 2, 3, 4):
        res = example2_suite(n, realizations=100, seed=n)
        cert = res["certificate"]
        assert abs(cert["max_collision"] - 1.0 / 3.0) <= 1e-15
        assert cert["certified"]
        assert cert["method"] == "exhaustive-base"
        for meas, worst in res["worst_insecurity"].items():
            assert worst <= 1e-12, f"n={n} {meas} insecurity {worst}"
        assert res["passed"]
        assert math.isinf(res["exponent_marker"])
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 5 PASS: collision 1/3 certified, 400 realizations exact, {elapsed:.2f}s")


def test_criterion_6_hashing_inequality_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([2026, 6]))
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(2, 5))
        ops = [rand_density(rng, dim) * rng.uniform(0.2, 2.0) for _ in range(count)]
        lhs, rhs = positive_part_superadditivity_check(ops, float(rng.uniform(0.0, 1.5)))
        assert lhs - rhs >= -1e-9
    pair_checks = 0
    for nx in (2, 3, 4):
        for m in (2, 3):
            family = AllFunctionsFamily(nx, m)
            for s in (0.25, 0.5, 1.0):
                for _ in range(2):
                    source = rand_cq(rng, nx, int(rng.integers(2, 4)))
                    lhs, rhs = hashed_q_expectation_check(source, family, s)
                    assert rhs - lhs >= -1e-9
                    lhs, rhs = leftover_hash_exponent_check(source, family, s)
                    assert rhs - lhs >= -1e-9
                    pair_checks += 2
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"criterion 6 PASS: 200 positive-part checks, {pair_checks} exhaustive "
        f"expectation checks, {elapsed:.2f}s"
    )


def test_criterion_7_finite_n_renyi_insecurity_sandwich():
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([2026, 7]))
    sources = [rand_cq(rng, 2, 2) for _ in range(3)] + [CQState.classical([1 / 3, 2 / 3])]
    cases = 0
    for source in sources:
        curve = ConditionalRenyiCurve(source)
        for s in (0.25, 0.5, 1.0):
            h_s = curve.h(1.0 + s)
            q1 = float(np.exp2(curve.log2_q(1.0 + s)))
            for n in (1, 2, 3):
                source_n = source.tensor_power(n) if n > 1 else source
                min_d = min_insecurity_exhaustive(source_n, 2, "renyi", s=s).value
                v_n = distinct_eigenvalue_counts_iid(source.rho_e(), n)[-1]
                converse = max(0.0, 1.0 - n * h_s)
                achievable = (
                    math.log2(1.0 + 2.0**s * q1**n) / s + math.log2(v_n) / s
                )
                assert converse - 1e-9 <= min_d <= achievable + 1e-9, (
                    f"s={s} n={n}: {converse} <= {min_d} <= {achievable} fails"
                )
                target = max(0.0, 1.0 / n - h_s)
                assert converse / n - 1e-9 <= target <= achievable / n + 1e-9
                cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 7 PASS: {cases} sandwich cases hold, {elapsed:.2f}s")


def test_criterion_8_divergence_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([2026, 8]))
    ln2 = math.log(2.0)
    for k in range(500):
        dim = int(rng.integers(2, 5))
        rho, sigma = rand_density(rng, dim), rand_density(rng, dim)
        f = fidelity(rho, sigma)
        t = trace_distance(rho, sigma)
        p = purified_distance(rho, sigma)
        d = relative_entropy(rho, sigma).value
        assert 1.0 - f <= t + 1e-9
        assert t <= p + 1e-9
        assert p <= math.sqrt(max(0.0, 1.0 - 2.0**-d)) + 1e-9
        assert math.sqrt(max(0.0, 1.0 - 2.0**-d)) <= math.sqrt(ln2 * d) + 1e-9
        if k < 50:
            curve = RenyiDivergenceCurve(rho, sigma)
            alphas = [0.5, 0.75, 1.5, 2.0, 3.0, 6.0]
            vals = [curve.divergence(a).value for a in alphas] + [curve.dmax().value]
            assert all(b - a >= -1e-9 for a, b in zip(vals, vals[1:]))
            for lo, hi in ((0.30, 0.97), (1.03, 3.5)):
                g = np.array([curve.log2_q(a) for a in np.linspace(lo, hi, 15)])
                second = g[:-2] - 2.0 * g[1:-1] + g[2:]
                assert float(second.min()) >= -1e-9
            du = curve.umegaki().value
            for a in (1.0 - 1e-5, 1.0 + 1e-5):
                assert abs(curve.divergence(a).value - du) <= 1e-3
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        rho, sigma = rand_density(rng, dim), rand_density(rng, dim)
        outcomes = int(rng.integers(2, 5))
        raw = [rand_density(rng, dim) * rng.uniform(0.2, 1.0) for _ in range(outcomes)]
        total = sum(raw)
        w, v = np.linalg.eigh(total)
        inv_sqrt = v @ np.diag(w**-0.5) @ v.conj().T
        povm = [inv_sqrt @ a @ inv_sqrt for a in raw]
        pr = apply_measurement(rho, povm)
        qr = apply_measurement(sigma, povm)
        for alpha in (0.6, 2.0):
            before = sandwiched_renyi_divergence(rho, sigma, alpha).value
            after = sandwiched_renyi_divergence(np.diag(pr), np.diag(qr), alpha).value
            assert after <= before + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        "criterion 8 PASS: 500 metric chains, 50 monotone/convex curves, "
        f"100 measurement DPI channels, {elapsed:.2f}s"
    )


def test_criterion_9_thread_count_never_changes_output_bytes(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(np.random.SeedSequence([2026, 9]))
    state = rand_cq(rng, 3, 2)
    doc = {
        "kind": "cq",
        "dim": 2,
        "probs": [float(p) for p in state.probs],
        "conditionals": [
            [[[float(c[i, j].real), float(c[i, j].imag)] for j in range(2)] for i in range(2)]
            for c in state.conditionals
        ],
    }
    src = tmp_path / "state.json"
    src.write_text(json.dumps(doc))
    search_bytes = []
    mc_bytes = []
    for threads in ("1", "4", "8"):
        out_a = tmp_path / f"search_{threads}.json"
        code = main(
            [
                "pa-search", str(src), "--range-size", "2",
                "--measure", "purified_distance",
                "--threads", threads, "--out", str(out_a),
            ]
        )
        assert code == 0
        search_bytes.append(out_a.read_bytes())
        out_b = tmp_path / f"family_{threads}.json"
        code = main(
            [
                "pa-family", str(src), "--family", "all_functions",
                "--range-size", "2", "--measure", "renyi", "--s", "0.5",
                "--sampling", "monte_carlo", "--count", "2000", "--seed", "7",
                "--threads", threads, "--out", str(out_b),
            ]
        )
        assert code == 0
        mc_bytes.append(out_b.read_bytes())
    assert search_bytes[0] == search_bytes[1] == search_bytes[2]
    assert mc_bytes[0] == mc_bytes[1] == mc_bytes[2]
    elapsed = time.perf_counter() - start
    print(f"criterion 9 PASS: byte-identical outputs across threads 1/4/8, {elapsed:.2f}s")
