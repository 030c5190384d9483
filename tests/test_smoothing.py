from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from privamp import (
    BudgetExceededError,
    RenyiDivergenceCurve,
    SpectrumDistribution,
    StateDescriptor,
    distinct_eigenvalue_counts_iid,
    iid_smoothing_certificate,
    max_relative_entropy,
    positive_part_trace,
    sandwiched_renyi_divergence,
    smoothing_certificate,
    smoothing_exponent,
)
from privamp import measures, operators, smoothing
from conftest import kron_power, rand_commuting_pair, rand_density, two_stage_grid_max
from reference import (
    converse_bound,
    mp_dense_converse_mass,
    mp_iid_oracle_eps,
    mp_qubit_block_converse,
    pinched_spectrum,
    pinched_witness,
)

P = np.array([0.5, 0.5])
Q = np.array([0.25, 0.75])


def _oracle(p, q, lam: float) -> float:
    return SpectrumDistribution.from_vectors(p, q).smoothing_oracle(lam)


def _iid(base: SpectrumDistribution, n: int) -> SpectrumDistribution:
    """n-fold spectrum by the convolution chain the certificate runs."""
    return functools.reduce(SpectrumDistribution.convolve, [base] * n)


def test_oracle_water_filling_at_zero_budget():
    eps = _oracle(P, Q, 0.0)
    assert abs(eps - math.sin(math.pi / 12.0)) <= 1e-12


def test_oracle_saturates_at_max_relative_entropy():
    dmax = max_relative_entropy(np.diag(P), np.diag(Q)).value
    eps = _oracle(P, Q, dmax)
    assert eps <= 1e-9
    eps_above = _oracle(P, Q, dmax + 1.0)
    assert eps_above == 0.0


def test_oracle_epsilon_decreases_in_budget():
    rng = np.random.default_rng(113)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d)) * float(rng.uniform(0.5, 1.5))
        lams = np.linspace(-1.0, 3.0, 9)
        eps = [_oracle(p, q, lam) for lam in lams]
        assert all(b <= a + 1e-12 for a, b in zip(eps, eps[1:]))
        for lam, e in zip(lams, eps):
            assert abs(e - mp_iid_oracle_eps(p, q, 1, lam)) <= 1e-9


def test_oracle_handles_reference_zeros():
    p = np.array([0.6, 0.4])
    q = np.array([1.0, 0.0])
    eps = _oracle(p, q, 1.0)
    assert abs(eps - math.sqrt(1.0 - 0.6)) <= 1e-12


@pytest.mark.parametrize(
    "p, q, n, lams",
    [
        ((0.2, 0.4, 0.4), (0.1, 0.2, 0.7), 1, (-3.0, -0.5, 0.0, 0.5, 1.0, 2.0)),
        ((0.3, 0.3, 0.4), (0.0, 0.5, 0.5), 1, (-3.0, -0.5, 0.0, 0.5, 1.0, 2.0)),
        # lam = 3 D_max and past it, where the exact epsilon is 0
        ((0.09253831343587289, 0.9074616865641271), (0.4364459622552342, 0.5635540377447656), 3,
         (2.0618483394818474, 3.0618483394818474)),
    ],
    ids=["equal-ratio-tie", "reference-zero", "past-dmax"],
)
def test_oracle_matches_reference_on_ties_and_zeros(p, q, n, lams):
    # lam = -3 caps every atom; the atom with q = 0 has an infinite ratio
    spectrum = _iid(SpectrumDistribution.from_vectors(p, q), n)
    for lam in lams:
        assert abs(spectrum.smoothing_oracle(lam) - mp_iid_oracle_eps(p, q, n, lam)) <= 1e-12, lam


def test_iid_exact_epsilon_stays_accurate_when_tiny():
    # at n = 38 the exact epsilon is about 1e-8; 1 - F^2 used to cancel to 0
    # there, below the converse bound, and the certificate raised
    p = np.array([0.02, 0.067, 0.913])
    q = np.array([0.108, 0.0155, 0.8765])
    rho, sigma = np.diag(p), np.diag(q)
    curve = RenyiDivergenceCurve(rho, sigma)
    r = 0.5 * (curve.umegaki().value + curve.dmax().value)
    for cert in iid_smoothing_certificate(rho, sigma, r, [30, 35, 38, 40]):
        want = mp_iid_oracle_eps(p, q, cert.meta["n"], cert.lam)
        assert 0.0 < cert.exact
        assert abs(cert.exact - want) <= 1e-6 * want, (cert.meta["n"], cert.exact, want)


def _assert_dense_witness(rho, sigma, certs) -> None:
    """Each certificate's upper is the epsilon of the dense n-copy witness Q rho^(x n) Q, which is feasible.

    At r >= D_max rho^(x n) itself is feasible, and upper is 0.
    """
    dmax = max_relative_entropy(rho, sigma).value
    for cert in certs:
        n = cert.meta["n"]
        q, delta, v = pinched_witness(rho, sigma, n, cert.lam)
        assert v == cert.meta["v_n"], (n, v, cert.meta["v_n"])
        slack = np.linalg.eigvalsh(2.0**cert.lam * kron_power(sigma, n) - q @ kron_power(rho, n) @ q)
        assert slack[0] >= -1e-9, (n, cert.lam, slack[0])
        want = 0.0 if cert.meta["r"] >= dmax else math.sqrt(delta * (2.0 - delta))
        assert abs(cert.upper - want) <= 1e-12, (n, cert.lam, cert.upper, delta)


def test_pinched_witness_is_feasible():
    rng = np.random.default_rng(127)
    for _ in range(15):
        d = int(rng.integers(2, 5))
        rho = rand_density(rng, d)
        sigma = rand_density(rng, d)
        lam = float(rng.uniform(0.5, 4.0))
        cert = smoothing_certificate(rho, sigma, lam)
        assert 0.0 <= cert.meta["witness_achieved"] == cert.upper <= 1.0
        _assert_dense_witness(rho, sigma, [cert])


def test_witness_achieves_exact_on_generous_budgets():
    rho = np.diag([0.5, 0.5])
    sigma = np.diag([0.25, 0.75])
    # v = 2 distinct eigenvalues, so budgets past dmax + 1 leave rho untouched
    cert = smoothing_certificate(rho, sigma, 2.5)
    assert cert.upper == cert.meta["witness_achieved"] == 0.0
    q, delta, _ = pinched_witness(rho, sigma, 1, 2.5)
    assert delta == 0.0
    assert np.max(np.abs(q @ rho @ q - rho)) <= 1e-12


def _witness_pairs():
    """A qubit and a qutrit pair, a sigma with a repeated eigenvalue, a rank-2 rho and a rank-2 sigma, at three rates each.

    The rates sit 25%, 75% and 95% of the way from D to D_max.
    """
    rng = np.random.default_rng(128)
    pairs = [(rand_density(rng, d), rand_density(rng, d)) for d in (2, 3)]
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    pairs.append((rand_density(rng, 3), (q * [0.49, 0.49, 0.02]) @ q.conj().T))
    g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    pairs.append((g @ g.conj().T / float(np.trace(g.conj().T @ g).real), rand_density(rng, 3)))
    pairs.append((rand_density(rng, 3), (q * [0.6, 0.4, 0.0]) @ q.conj().T))
    for rho, sigma in pairs:
        curve = RenyiDivergenceCurve(rho, sigma)
        d1, dmax = curve.umegaki().value, curve.dmax().value
        if math.isinf(dmax):  # rho has mass on the kernel of sigma
            d1, dmax = 0.0, 4.0
        yield rho, sigma, [d1 + u * (dmax - d1) for u in (0.25, 0.75, 0.95)]


def test_upper_is_the_dense_n_copy_witness():
    for rho, sigma, rates in _witness_pairs():
        for r in rates:
            _assert_dense_witness(rho, sigma, iid_smoothing_certificate(rho, sigma, r, [1, 2, 3]))


def test_qutrit_pinched_masses_match_the_dense_pinching():
    # grouped by eigenvalue of sigma^(x n), the diagonals of the Schur-Weyl blocks are E(rho^(x n))'s masses
    rng = np.random.default_rng(5)
    for rho, sigma in [(rand_density(rng, 3), rand_density(rng, 3)), list(_witness_pairs())[2][:2]]:
        blocks = smoothing._SchurWeylBlocks(rho, sigma)
        (top_r, det_r), (top_s, det_s) = blocks.log2_rho, blocks.log2_sigma
        for n in range(1, 5):
            masses = {}
            for shape, k, log2_f in smoothing._irreps(n, len(rho)):
                rho_l, sigma_l, _ = blocks.block(shape)
                m = n - len(rho) * k
                scale, q_scale = 2.0 ** (log2_f + m * top_r + k * det_r), 2.0 ** (m * top_s + k * det_s)
                for p, q in zip(rho_l.diagonal().real, sigma_l):
                    key = next((x for x in masses if abs(x - q * q_scale) <= 1e-9 * x), q * q_scale)
                    masses[key] = masses.get(key, 0.0) + scale * p
            dense = {q: float(p.sum()) for q, p, _ in pinched_spectrum(rho, sigma, n)}
            assert len(masses) == len(dense) == distinct_eigenvalue_counts_iid(sigma, n)[-1], n
            for (q, p), (q_dense, p_dense) in zip(sorted(masses.items()), sorted(dense.items())):
                assert abs(q - q_dense) <= 1e-14 and abs(p - p_dense) <= 1e-13, (n, q, q_dense, p, p_dense)


def test_bounds_bracket_exact_on_commuting_pairs():
    rng = np.random.default_rng(131)
    for _ in range(15):
        d = int(rng.integers(2, 5))
        rho, sigma = rand_commuting_pair(rng, d)
        curve = RenyiDivergenceCurve(rho, sigma)
        d1, dmax = curve.umegaki().value, curve.dmax().value
        lam = float(rng.uniform(d1, dmax))
        cert = smoothing_certificate(rho, sigma, lam)
        assert cert.meta["commuting"]
        assert cert.exact is not None
        assert cert.lower - 1e-9 <= cert.exact <= cert.upper + 1e-9
        assert cert.upper <= cert.meta["witness_achieved"] + 1e-12


def test_achievability_and_converse_standalone():
    rho = np.diag([0.5, 0.5])
    sigma = np.diag([0.25, 0.75])
    lam = 0.5
    exact = _oracle(P, Q, lam)
    # the order-2 pinching bound sqrt(2 v 2^(D_2 - lam)), v = 2 distinct eigenvalues of sigma
    order_two = math.sqrt(2.0 * 2.0 * 2.0 ** (RenyiDivergenceCurve(rho, sigma).divergence(2.0).value - lam))
    [cert] = iid_smoothing_certificate(rho, sigma, lam, [1])
    lo = converse_bound(rho, sigma, lam)
    assert 0.0 <= lo <= exact + 1e-12
    assert exact <= cert.upper + 1e-12
    assert cert.upper <= min(order_two, 1.0)


def _two_stage_upper(curve: RenyiDivergenceCurve, r: float, n: int, v: int) -> float:
    """min(1, 2^((1 - n F) / 2)) with F = max of s c - log2 Q_{1+s}, c = r - log2(v) / n, over t = s / (1 + s) in [0, 1)."""
    c = r - math.log2(v) / n
    f_max = two_stage_grid_max(lambda t: t / (1.0 - t) * c - curve.log2_q(1.0 / (1.0 - t)), 0.0, 1.0 - 1e-7, 4001)
    return 2.0 ** min(0.5 * (1.0 - n * f_max), 0.0)


def _grid_uppers(curve: RenyiDivergenceCurve, rates, ns, v) -> np.ndarray:
    """min(1, 2^((1 - n F) / 2)) per rate and n in ns, F the max of s c - log2 Q_{1+s} over the orders of _two_stage_upper's first stage.

    Each is at least the Renyi optimum _two_stage_upper reads.
    """
    t = np.linspace(0.0, 1.0 - 1e-7, 4001)
    s = t / (1.0 - t)
    log2_q = curve.log2_q(1.0 + s)
    ns = np.asarray(list(ns))
    c = np.asarray(rates)[:, None] - np.log2(np.asarray(v, dtype=float)[ns - 1]) / ns
    f = np.max(c[:, :, None] * s - log2_q, axis=2)
    return 2.0 ** np.minimum(0.5 * (1.0 - ns * f), 0.0)


def test_achievability_is_the_optimum_over_every_order():
    # Markov's inequality on the pinched atoms and data processing of Q_{1+s}: the witness is at most
    # sqrt(2 v^s 2^(-s lam) Q_{1+s}) at every order s, so at most the Renyi optimum over all orders
    rng = np.random.default_rng(171)
    # a commuting qutrit pair whose two top ratios 2 and 1.9 keep the order derivative short of D_max at s = 100
    pairs = [(np.diag([0.5, 0.3, 0.2]), np.diag([0.25, 0.3 / 1.9, 0.4]))]
    pairs += [rand_commuting_pair(rng, d) for d in (2, 3, 4)]
    pairs += [(rand_density(rng, d), rand_density(rng, d)) for d in (2, 3, 4)]
    ns = [1, 2, 5]
    for rho, sigma in pairs:
        curve = RenyiDivergenceCurve(rho, sigma)
        d1, dmax = curve.umegaki().value, curve.dmax().value
        v = distinct_eigenvalue_counts_iid(sigma, max(ns))
        # the last rate puts the n = 5 optimum at s = 100
        for r in [d1 + x * (dmax - d1) for x in (0.2, 0.5, 0.8)] + [curve.d_log2_q(101.0) + math.log2(v[4]) / 5]:
            for cert in iid_smoothing_certificate(rho, sigma, r, ns):
                n = cert.meta["n"]
                assert cert.upper <= _two_stage_upper(curve, r, n, v[n - 1]) + 1e-12, (r, n, cert.upper)


def test_achievability_edges_are_exact():
    # the edges where the witness is exact: r >= D_max gives 0, as rho^(x n) <= 2^(n r) sigma^(x n), and r = -inf gives 1
    rng = np.random.default_rng(173)
    for rho, sigma in [rand_commuting_pair(rng, 3), (rand_density(rng, 2), rand_density(rng, 2))]:
        dmax = max_relative_entropy(rho, sigma).value
        # v_n <= d^n, so c_n = r - log2(v_n) / n >= D_max at r = D_max + log2 d
        for r, upper in ((-math.inf, 1.0), (dmax, 0.0), (dmax + math.log2(len(rho)), 0.0), (math.inf, 0.0)):
            assert [c.upper for c in iid_smoothing_certificate(rho, sigma, r, range(1, 5))] == [upper] * 4, r


def test_achievability_exponent_stays_below_the_smoothing_exponent():
    # the Renyi bound on the first-stage grid has -log2(upper_n) / n = (n F_n - 1) / (2 n) <= F_n / 2 <= F(r) / 2,
    # as c_n <= r and F is nondecreasing in the rate; the witness is at most that bound
    rng = np.random.default_rng(179)
    ns = range(1, 41)
    for k in range(60):
        d = 2 + k % 3
        rho, sigma = rand_commuting_pair(rng, d) if k % 2 else (rand_density(rng, d), rand_density(rng, d))
        curve = RenyiDivergenceCurve(rho, sigma)
        d1, dmax = curve.umegaki().value, curve.dmax().value
        v = distinct_eigenvalue_counts_iid(sigma, max(ns))
        rates = [d1 + float(x) * (dmax - d1) for x in np.linspace(-0.1, 1.1, 11)]
        # non-commuting qutrits and ququarts read the witness from Schur-Weyl blocks, built anew for each rate:
        # 11 rates take 0.3 s at qutrit n = 1..10, 1.2 s at 1..13, 0.1 s at ququart n = 1..5 and 2.5 s at 1..8
        n_cert = 40 if k % 2 or d == 2 else 10 if d == 3 else 5
        for r, grid in zip(rates, _grid_uppers(curve, rates, ns, v)):
            exponent = smoothing_exponent(curve, None, r).value
            for n, bound in zip(ns, grid):
                assert (-math.log2(bound) / n if bound > 0.0 else math.inf) <= exponent + 1e-9, (k, r, n, bound, exponent)
            # upper does not depend on t, and t = inf builds no converse block
            uppers = [cert.upper for cert in iid_smoothing_certificate(rho, sigma, r, ns[:n_cert], t=math.inf)]
            assert np.all(uppers <= grid[:n_cert] + 1e-12), (k, r, uppers, grid)


def test_state_descriptor_sigma_reads_as_its_matrix():
    rng = np.random.default_rng(181)
    for rho, sigma in [rand_commuting_pair(rng, 3), (rand_density(rng, 2), rand_density(rng, 2))]:
        sigma = StateDescriptor.density(sigma / float(np.trace(sigma).real))
        rho = StateDescriptor.density(rho)
        assert sandwiched_renyi_divergence(rho, sigma, 2.0) == sandwiched_renyi_divergence(rho, sigma.mat, 2.0)
        assert smoothing_certificate(rho, sigma, 0.5) == smoothing_certificate(rho, sigma.mat, 0.5)
        assert iid_smoothing_certificate(rho, sigma, 0.3, [1, 2, 3]) == iid_smoothing_certificate(rho, sigma.mat, 0.3, [1, 2, 3])


def test_spectrum_matches_dense_divergences():
    rng = np.random.default_rng(137)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d)) * float(rng.uniform(0.5, 1.5))
        spec = SpectrumDistribution.from_vectors(p, q)
        curve = RenyiDivergenceCurve(np.diag(p), np.diag(q))
        assert abs(spec.dmax() - curve.dmax().value) <= 1e-10
        for thr in (-0.5, 0.0, 0.5, 1.0):
            assert abs(spec.mass_above(thr) - _dense_mass_above(np.diag(p), np.diag(q), thr)) <= 1e-12


def _dense_mass_above(rho, sigma, thr: float) -> float:
    """tr rho {rho > 2^thr sigma}, from the positive eigenspace of the dense difference."""
    w, u = np.linalg.eigh(rho - np.exp2(thr) * sigma)
    cols = u[:, w > 1e-12]
    return float(np.trace(cols.conj().T @ rho @ cols).real)


def test_spectrum_merges_identical_atoms():
    spec = SpectrumDistribution.from_vectors(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    assert spec.natoms == 1
    assert abs(spec.total_mass - 1.0) <= 1e-15
    # two atoms share the ratio p / q = 2 though their (p, q) differ
    spec = SpectrumDistribution.from_vectors(np.array([0.2, 0.4, 0.4]), np.array([0.1, 0.2, 0.7]))
    assert spec.natoms == 2
    assert abs(spec.mass_above(0.5) - 0.6) <= 1e-15


def test_spectrum_rejects_unsorted_ratios():
    with pytest.raises(ValueError, match="ascending"):
        SpectrumDistribution(np.array([1.0, 0.0]), np.array([0.5, 0.5]))


def test_spectrum_convolution_is_additive():
    spec = SpectrumDistribution.from_vectors(P, Q)
    double = spec.convolve(spec)
    assert abs(double.dmax() - 2.0 * spec.dmax()) <= 1e-10
    triple = _iid(spec, 3)
    assert abs(triple.dmax() - 3.0 * spec.dmax()) <= 1e-10
    for n, spec_n in ((2, double), (3, triple)):
        for lam in (-0.5 * n, 0.0, 0.5 * n):
            assert abs(spec_n.smoothing_oracle(lam) - mp_iid_oracle_eps(P, Q, n, lam)) <= 1e-9


def test_convolution_merges_like_a_sort_from_scratch():
    # the candidates come as sorted runs; shuffled, the same candidates must be sorted from scratch
    rng = np.random.default_rng(31)
    base = SpectrumDistribution.from_commuting_pair(*rand_commuting_pair(rng, 4))
    spec = base
    for _ in range(5):
        llr = (spec.llr[:, None] + base.llr[None, :]).ravel()
        wt = (spec.weight[:, None] * base.weight[None, :]).ravel()
        shuffle = rng.permutation(llr.size)
        scratch = smoothing._merge_atoms(llr[shuffle], wt[shuffle])
        spec = spec.convolve(base)
        assert spec.natoms < llr.size
        assert np.array_equal(spec.llr, scratch.llr)
        np.testing.assert_allclose(spec.weight, scratch.weight, rtol=1e-15, atol=0.0)


def test_spectrum_mass_above_matches_dense_positive_part():
    n = 3
    rho_n = kron_power(np.diag(P), n)
    sigma_n = kron_power(np.diag(Q), n)
    spec_n = _iid(SpectrumDistribution.from_vectors(P, Q), n)
    for thr in (0.0, 0.5, 1.2):
        # mass of rho on eigenspaces where rho > 2^thr sigma
        dense = positive_part_trace(rho_n - np.exp2(thr) * sigma_n)
        proj_mass = spec_n.mass_above(thr)
        rdiag = np.diag(rho_n).real
        diff = rdiag - np.exp2(thr) * np.diag(sigma_n).real
        want = float(rdiag[diff > 0].sum())
        assert abs(proj_mass - want) <= 1e-12
        assert dense <= proj_mass + 1e-12


def test_spectrum_oracle_agrees_with_classical_oracle():
    rng = np.random.default_rng(139)
    p = rng.dirichlet(np.ones(4))
    q = rng.dirichlet(np.ones(4))
    spec = SpectrumDistribution.from_commuting_pair(np.diag(p), np.diag(q))
    for lam in (-0.5, 0.2, 1.0):
        eps_spec = spec.smoothing_oracle(lam)
        eps_cls = _oracle(p, q, lam)
        assert abs(eps_spec - eps_cls) <= 1e-12


def test_from_commuting_pair_requires_commuting():
    rng = np.random.default_rng(149)
    rho = rand_density(rng, 3)
    sigma = rand_density(rng, 3)
    with pytest.raises(ValueError):
        SpectrumDistribution.from_commuting_pair(rho, sigma)
    rho_c, sigma_c = rand_commuting_pair(rng, 3)
    spec = SpectrumDistribution.from_commuting_pair(rho_c, sigma_c)
    curve = RenyiDivergenceCurve(rho_c, sigma_c)
    assert abs(spec.dmax() - curve.dmax().value) <= 1e-9
    for thr in (0.0, 0.5):
        assert abs(spec.mass_above(thr) - _dense_mass_above(rho_c, sigma_c, thr)) <= 1e-9


def test_iid_certificate_ordering_and_oneshot_consistency():
    rho = np.diag(P)
    sigma = np.diag(Q)
    r = 0.6
    for cert in iid_smoothing_certificate(rho, sigma, r, range(1, 7)):
        assert cert.meta["commuting"]
        assert cert.lower - 1e-9 <= cert.exact <= cert.upper + 1e-9
    rng = np.random.default_rng(159)
    for rho, sigma in ((rho, sigma), (rand_density(rng, 3), rand_density(rng, 3))):
        one = smoothing_certificate(rho, sigma, r)
        [iid_one] = iid_smoothing_certificate(rho, sigma, r, [1])
        assert one.meta["witness_achieved"] == one.upper
        assert replace(one, meta=dict(one.meta, witness_achieved=None)) == replace(iid_one, meta=dict(iid_one.meta, witness_achieved=None))


def _noncommuting_pairs_below_d():
    """Pairs at the rate D - (D_max - D) / 4, n = 1..5 for qutrits and 1..4 for a ququart.

    A qutrit and a ququart pair, then a qutrit pair whose sigma has a
    repeated eigenvalue and one whose rho has rank 2. Below D the converse
    mass stays positive, and so does the lower bound from n = 2 on for
    these draws.
    """
    rng = np.random.default_rng(152)
    pairs = [(rand_density(rng, d), rand_density(rng, d)) for d in (3, 4)]
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    pairs.append((rand_density(rng, 3), (q * [0.49, 0.49, 0.02]) @ q.conj().T))
    g = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    pairs.append((g @ g.conj().T / float(np.trace(g.conj().T @ g).real), rand_density(rng, 3)))
    for rho, sigma in pairs:
        curve = RenyiDivergenceCurve(rho, sigma)
        d1, dmax = curve.umegaki().value, curve.dmax().value
        yield rho, sigma, d1 - 0.25 * (dmax - d1), range(1, 5 if rho.shape[0] == 4 else 6)


def test_iid_certificate_noncommuting_matches_dense_converse():
    # the dense eigenvectors of the d^n-dim difference are accurate to about
    # 1e-16 max|w| / gap; for these pairs both paths agree to a few 1e-14
    for rho, sigma, r, ns in _noncommuting_pairs_below_d():
        d = rho.shape[0]
        for cert in iid_smoothing_certificate(rho, sigma, r, ns):
            n = cert.meta["n"]
            assert cert.exact is None and not cert.meta["commuting"]
            assert 0.0 <= cert.lower <= cert.upper <= 1.0
            assert cert.lower > 0.0 or n == 1, n
            dense = converse_bound(kron_power(rho, n), kron_power(sigma, n), n * r)
            assert abs(cert.lower - dense) <= 1e-12, (d, n, cert.lower, dense)
    # each irrep V_lam, of dimension d_lam, recurs f_lam times, so the copies fill (C^d)^(x n)
    for d in (2, 3, 4):
        for n in range(1, 7):
            shapes = [lam + (0,) * (d - len(lam)) for lam in smoothing._partitions(n, d, n)]
            dims = [len(smoothing._gt_irrep(shape)[0]) for shape in shapes]
            assert sum(smoothing._standard_tableaux(lam) * dim for lam, dim in zip(shapes, dims)) == d**n
            assert smoothing._largest_block(n, d) == max(dims)
    # pi_lam is a unitary representation: pi_lam(AB) = pi_lam(A) pi_lam(B)
    rng = np.random.default_rng(153)
    for shape in ((3, 0), (2, 1, 0), (3, 1, 0), (4, 0, 0), (2, 1, 1, 0), (3, 2, 1, 0)):
        a, b = (_rand_unitary(rng, len(shape)) for _ in range(2))
        pa, pb, pab = (smoothing._gt_exp(shape, smoothing._unitary_log(x)) for x in (a, b, a @ b))
        assert np.abs(pa @ pb - pab).max() <= 1e-13, shape
        assert np.abs(pa @ pa.conj().T - np.eye(len(pa))).max() <= 1e-13, shape
    # the largest qutrit block at n = 42 has 4,375 rows, past BLOCK_BUDGET = 4,096
    rho, sigma, r, _ = next(_noncommuting_pairs_below_d())
    with pytest.raises(BudgetExceededError, match="4375 rows at n = 42"):
        iid_smoothing_certificate(rho, sigma, r, [42])
    # from d = 4 a block's d - 2 commutators count too: max(1, d - 2) rows^3 <= 4,096^3
    rng = np.random.default_rng(157)
    for d, n, rows, work in ((4, 15, 4004, 2), (48, 2, 1176, 46), (65, 2, 2145, 63)):
        with pytest.raises(BudgetExceededError, match=f"{rows} rows at n = {n} exceeds budget 4096 \\(work {work} x"):
            iid_smoothing_certificate(rand_density(rng, d), rand_density(rng, d), 0.1, [n])
    assert smoothing._largest_block(14, 4) == 2880 and 2 * 2880**3 <= 4096**3
    assert smoothing._largest_block(2, 47) == 1128 and 45 * 1128**3 <= 4096**3
    # past the budget the block of (n) is returned before any partition is listed
    assert smoothing._largest_block(2000, 5) == math.comb(2004, 4)


def _rand_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


def test_unitary_log_inverts_exp_on_repeated_eigenvalues():
    # eigenvalues repeated, at -1, at 1 and 1e-9 apart, in a random eigenbasis
    rng = np.random.default_rng(154)
    spectra = ([1, 1, -1], [-1, -1, 1j], [1, 1, 1, -1], [1j, 1j, np.exp(1j * (math.pi / 2 + 1e-9))], [-1, -1, -1])
    for phases in spectra:
        for _ in range(20):
            q = _rand_unitary(rng, len(phases))
            u = (q * np.asarray(phases)) @ q.conj().T
            h = smoothing._unitary_log(u)
            w, v = np.linalg.eigh(h)
            assert np.abs(h - h.conj().T).max() <= 1e-13
            assert np.abs((v * np.exp(1j * w)) @ v.conj().T - u).max() <= 1e-13, phases


def test_irrep_budget_is_refused_before_any_block_is_built(monkeypatch):
    built, counted, searched = [], [], []
    real_mass = smoothing._SchurWeylBlocks.mass
    monkeypatch.setattr(smoothing._SchurWeylBlocks, "mass", lambda self, n, *a: built.append(n) or real_mass(self, n, *a))
    real_counts = smoothing.distinct_eigenvalue_counts_iid
    monkeypatch.setattr(smoothing, "distinct_eigenvalue_counts_iid", lambda sm, n: counted.append(n) or real_counts(sm, n))
    real_slope = measures._SandwichedCurve.d_log2_q
    monkeypatch.setattr(measures._SandwichedCurve, "d_log2_q", lambda self, a: searched.append(a) or real_slope(self, a))
    # the largest block at n = 42 has 4,375 rows for a qutrit and at n = 4,096 4,097 rows for a qubit
    rho, sigma, r, _ = next(_noncommuting_pairs_below_d())
    qubits = rand_density(np.random.default_rng(155), 2), rand_density(np.random.default_rng(156), 2)
    for (rho_d, sigma_d), n_max in (((rho, sigma), 42), (qubits, 4096)):
        with pytest.raises(BudgetExceededError, match=f"at n = {n_max} exceeds budget 4096"):
            iid_smoothing_certificate(rho_d, sigma_d, 0.1, range(1, n_max + 1))
    assert built == counted == searched == []
    # budgets n r past _EXP2_CLIP read the kernel of sigma, and r >= D_max needs no atoms, so n = 5..42
    # need no blocks at r = 200
    certs = iid_smoothing_certificate(rho, sigma, 200.0, range(1, 43))
    assert [c.meta["n"] for c in certs] == list(range(1, 43))
    assert sorted(set(built)) == [1, 2, 3, 4]


def test_qutrit_certificate_to_n_16_keeps_a_positive_lower_bound():
    rng = np.random.default_rng(5)
    rho, sigma = rand_density(rng, 3), rand_density(rng, 3)
    curve = RenyiDivergenceCurve(rho, sigma)
    d1, dmax = curve.umegaki().value, curve.dmax().value
    certs = iid_smoothing_certificate(rho, sigma, d1 + 0.5 * (dmax - d1), range(1, 17))
    assert [c.meta["n"] for c in certs] == list(range(1, 17))
    assert all(0.0 <= c.lower <= c.upper <= 1.0 for c in certs)
    assert certs[-1].lower > 0.0


def _noncommuting_qubit_pairs():
    """Two random non-commuting qubit pairs at rates 25% and 75% of the way from D to D_max, then a pure sigma.

    A pure sigma has D = D_max = inf against a full-rank rho; its rates
    include 1000, whose budgets n r all lie past _EXP2_CLIP, where the
    converse reads rho's mass on the kernel of sigma^(x n).
    """
    rng = np.random.default_rng(163)
    for _ in range(2):
        rho, sigma = rand_density(rng, 2), rand_density(rng, 2)
        curve = RenyiDivergenceCurve(rho, sigma)
        d1, dmax = curve.umegaki().value, curve.dmax().value
        yield rho, sigma, [d1 + u * (dmax - d1) for u in (0.25, 0.75)]
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    yield rand_density(rng, 2), np.outer(v, v.conj()), [0.5, 1000.0]


def test_qubit_block_converse_matches_dense():
    # the dense eigenvectors of the 2^n-dim difference are accurate only to
    # about 1e-16 max|w| / gap, and max|w| ~ t 2^(n r) grows with n: from
    # n = 5 on the dense mass strays from a 40-digit one by up to ~1e-7
    # (see test_qubit_block_converse_matches_high_precision_blocks)
    for rho, sigma, rates in _noncommuting_qubit_pairs():
        for r in rates:
            for cert in iid_smoothing_certificate(rho, sigma, r, range(1, 11)):
                n = cert.meta["n"]
                dense = converse_bound(kron_power(rho, n), kron_power(sigma, n), n * r)
                assert abs(cert.lower - dense) <= (1e-12 if n <= 4 else 1e-6), (n, r, cert.lower, dense)


def test_qubit_block_converse_matches_high_precision_blocks():
    for rho, sigma, rates in _noncommuting_qubit_pairs():
        for r in rates[:1]:
            for cert in iid_smoothing_certificate(rho, sigma, r, range(1, 11)):
                want = mp_qubit_block_converse(rho, sigma, cert.meta["n"], cert.lam)
                assert abs(cert.lower - want) <= 1e-8, (cert.meta["n"], r, cert.lower, want)


def test_irrep_block_mass_matches_high_precision_dense():
    rng = np.random.default_rng(157)
    complex_pair = rand_density(rng, 3), rand_density(rng, 3)
    # a real pair keeps the 27-dim 40-digit eigh near 0.4 s
    real_pair = [(g @ g.T) / float(np.trace(g @ g.T)) for g in rng.standard_normal((2, 3, 3))]
    qubit_pair = rand_density(rng, 2), rand_density(rng, 2)
    cases = [(complex_pair, 2, (1e-4, 1e-2, 0.1, 2.0)), (real_pair, 3, (0.01,))]
    cases += [(qubit_pair, n, (1e-2, 0.3)) for n in (3, 4)]
    for (rho, sigma), n, scales in cases:
        blocks = smoothing._SchurWeylBlocks(rho, sigma)
        # the difference has a positive eigenvalue exactly when c < 2^(n D_max)
        c_max = 2.0 ** (n * RenyiDivergenceCurve(rho, sigma).dmax().value)
        for c in (u * c_max for u in scales):
            want = mp_dense_converse_mass(rho, sigma, n, c)
            got, _ = blocks.mass(n, math.log2(c), 0.0)
            assert (want > 0) == (c < c_max), (n, c, want)
            assert abs(got - want) <= 1e-14, (n, c, got, want)


def test_qubit_kernel_mass_past_the_clip_matches_closed_form():
    # past _EXP2_CLIP the converse reads rho's mass on the kernel of sigma^(x n):
    # for a pure sigma = |v><v| that is k_n = 1 - <v|rho|v>^n; a full-rank sigma has
    # none, however small its eigenvalue products get (0.03^8 < SUPPORT_CUT
    # 0.97^8), which keeps the converse below the witness's 0 at r >= D_max.
    # The witness of the pure sigma drops exactly that kernel: sqrt(k_n (2 - k_n))
    rng = np.random.default_rng(167)
    rho = rand_density(rng, 2)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    overlap = float(np.real(u[:, 0].conj() @ rho @ u[:, 0]))
    ns = [1, 2, 7, 8, 12, 40]
    pure = iid_smoothing_certificate(rho, np.outer(u[:, 0], u[:, 0].conj()), 1000.0, ns)
    for cert in pure:
        n = cert.meta["n"]
        assert abs(cert.lower - smoothing._converse_from_mass(1.0 - overlap**n, 9.0)) <= 1e-12, n
        assert abs(cert.upper - math.sqrt(1.0 - overlap ** (2 * n))) <= 1e-12, n
    for cert in iid_smoothing_certificate(rho, (u * [0.97, 0.03]) @ u.conj().T, 1000.0, ns):
        assert cert.lower == 0.0 == cert.upper, cert.meta["n"]
    # past the clip with r < D_max (27.5 here) the witness still reads atoms, below the Renyi bound
    sigma = (u * [1.0 - 2.0**-28, 2.0**-28]) @ u.conj().T
    curve = RenyiDivergenceCurve(rho, sigma)
    v = distinct_eigenvalue_counts_iid(sigma, 40)
    for r in (26.0, 27.0):
        certs = iid_smoothing_certificate(rho, sigma, r, [25, 40])
        assert certs[-1].lam >= smoothing._EXP2_CLIP > certs[0].lam
        for cert, grid in zip(certs, _grid_uppers(curve, [r], [25, 40], v)[0]):
            assert cert.lower == 0.0 < cert.upper <= grid + 1e-12, (r, cert.meta["n"], cert.upper, grid)


def test_dense_kernel_mass_past_the_clip_is_decided_on_sigma():
    # a full-rank sigma has no kernel at any n, however small its eigenvalue
    # products get ((1e-5)^3 < SUPPORT_CUT 0.6^3), so the converse stays 0
    rng = np.random.default_rng(0)
    rho = rand_density(rng, 3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    for cert in iid_smoothing_certificate(rho, (q * [0.6, 0.39999, 1e-5]) @ q.conj().T, 1000.0, [1, 2, 3]):
        assert cert.lower == 0.0 <= cert.upper, cert.meta["n"]
    # a sigma with a kernel: rho^(x n)'s mass on it matches the dense converse
    sigma = (q * [0.7, 0.3, 0.0]) @ q.conj().T
    for cert in iid_smoothing_certificate(rho, sigma, 1000.0, [1, 2, 3, 4]):
        n = cert.meta["n"]
        dense = converse_bound(kron_power(rho, n), kron_power(sigma, n), n * 1000.0)
        assert 0.0 < cert.lower <= cert.upper, n
        assert abs(cert.lower - dense) <= 1e-12, (n, cert.lower, dense)
    # at t = inf, c = t 2^(n r) is infinite at every budget
    for cert in iid_smoothing_certificate(rho, sigma, 0.3, [1, 2, 3], t=math.inf):
        n = cert.meta["n"]
        dense = converse_bound(kron_power(rho, n), kron_power(sigma, n), n * 0.3, t=math.inf)
        assert 0.0 < cert.lower <= cert.upper, n
        assert abs(cert.lower - dense) <= 1e-12, (n, cert.lower, dense)


def _spy_on_kron(monkeypatch) -> list:
    """Shapes of every np.kron call from here on; a dense power is formed with it (kron_power)."""
    calls = []
    real_kron = np.kron
    monkeypatch.setattr(np, "kron", lambda a, b: calls.append((np.shape(a), np.shape(b))) or real_kron(a, b))
    return calls


def test_qubit_certificate_builds_no_tensor_power(monkeypatch):
    krons = _spy_on_kron(monkeypatch)
    rng = np.random.default_rng(173)
    rho, sigma = rand_density(rng, 2), rand_density(rng, 2)
    iid_smoothing_certificate(rho, sigma, 0.3, range(1, 30))
    smoothing_certificate(rho, sigma, 0.3)
    assert krons == []


def test_irrep_certificate_builds_no_tensor_power(monkeypatch):
    krons = _spy_on_kron(monkeypatch)
    rng = np.random.default_rng(181)
    for d, n_max in ((3, 6), (4, 4)):
        rho, sigma = rand_density(rng, d), rand_density(rng, d)
        iid_smoothing_certificate(rho, sigma, 0.3, range(1, n_max + 1))
        smoothing_certificate(rho, sigma, 0.3)
    assert krons == []


def test_qubit_bracket_is_ordered_to_n_128():
    rng = np.random.default_rng(179)
    rho, sigma = rand_density(rng, 2), rand_density(rng, 2)
    curve = RenyiDivergenceCurve(rho, sigma)
    d1, dmax = curve.umegaki().value, curve.dmax().value
    certs = iid_smoothing_certificate(rho, sigma, d1 + 0.25 * (dmax - d1), range(1, 129))
    assert [c.meta["n"] for c in certs] == list(range(1, 129))
    assert all(0.0 <= c.lower <= c.upper <= 1.0 for c in certs)
    assert any(c.lower > 0.0 for c in certs) and certs[-1].upper < 1.0


def test_certificate_rejects_crossed_brackets():
    from privamp import SmoothingCertificate

    with pytest.raises(ArithmeticError, match="bracket empty"):
        SmoothingCertificate(lam=1.0, lower=0.5, upper=0.4)
    with pytest.raises(ArithmeticError, match="bracket violated"):
        SmoothingCertificate(lam=1.0, lower=0.1, upper=0.4, exact=0.6)


def test_witness_keeps_no_kernel_of_sigma_at_large_budgets():
    # every rho' <= 2^lam sigma is 0 on ker sigma, so epsilon >= sqrt(rho's mass k there) at any lam; the
    # witness keeps all the rest at large lam, so its epsilon is sqrt(k (2 - k))
    rho = rand_density(np.random.default_rng(3), 2)
    sigma = np.diag([1.0, 0.0])
    k = rho[1, 1].real
    for lam in (40.0, 45.0, 60.0, 1500.0):
        cert = smoothing_certificate(rho, sigma, lam)
        assert cert.lower <= cert.upper, lam
        assert cert.upper >= math.sqrt(k), (lam, cert.upper, k)
        assert abs(cert.upper - math.sqrt(k * (2.0 - k))) <= 1e-15, (lam, cert.upper, k)
    q, _, _ = pinched_witness(rho, sigma, 1, 40.0)
    assert np.abs(q[1]).max() == 0.0


def test_iid_certificates_continue_the_previous_spectrum(monkeypatch):
    rng = np.random.default_rng(157)
    rho, sigma = rand_commuting_pair(rng, 3)
    sigma = sigma / float(np.trace(sigma).real)
    curve = RenyiDivergenceCurve(rho, sigma)
    d1, dmax = curve.umegaki().value, curve.dmax().value
    r = d1 + 0.2 * (dmax - d1)

    def rows(certs):
        return [(c.lam, c.lower, c.upper, c.exact, c.meta) for c in certs]

    alone = [iid_smoothing_certificate(rho, sigma, r, [n])[0] for n in range(1, 41)]
    calls = []
    real_eig = operators.eig
    monkeypatch.setattr(operators, "eig", lambda a: calls.append(a) or real_eig(a))
    chained = iid_smoothing_certificate(rho, sigma, r, range(1, 41))
    monkeypatch.setattr(operators, "eig", real_eig)
    # one eig of sigma for the common eigenbasis and one for all 40 distinct-product counts
    assert len(calls) == 2
    assert rows(chained) == rows(alone)
    # a list that skips or goes back continues from the last spectrum or restarts
    ns = [9, 4, 4, 12, 2]
    assert rows(iid_smoothing_certificate(rho, sigma, r, ns)) == rows([alone[n - 1] for n in ns])
    # the atom cap still stops the chain at the first n whose spectrum exceeds it
    cap = _iid(SpectrumDistribution.from_commuting_pair(rho, sigma), 6).natoms
    monkeypatch.setattr(smoothing, "ATOM_CAP", cap)
    iid_smoothing_certificate(rho, sigma, r, range(1, 7))
    with pytest.raises(BudgetExceededError):
        iid_smoothing_certificate(rho, sigma, r, range(1, 8))

