from __future__ import annotations

import math

import numpy as np
import pytest

from privamp import (
    BudgetExceededError,
    CQState,
    HermitianOperator,
    StateDescriptor,
    commutator_defect,
    distinct_eigenvalue_counts_iid,
    eig,
    mat_power,
    pinching,
    positive_part_trace,
    simultaneous_eigenbasis,
)
from conftest import kron_power, rand_cq, rand_density


def test_ingest_symmetrizes_roundoff():
    base = np.array([[1.0, 0.5], [0.5, 2.0]])
    noisy = base + np.array([[0.0, 1e-13], [-1e-13, 0.0]])
    op = HermitianOperator(noisy)
    assert np.allclose(op.mat, op.mat.conj().T)
    assert op.mat.flags.writeable is False


def test_ingest_rejects_genuinely_nonhermitian():
    with pytest.raises(ValueError):
        HermitianOperator(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        HermitianOperator(np.ones((2, 3)))


def test_eig_descending_and_reconstructs():
    rng = np.random.default_rng(101)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        a = rand_density(rng, d) * float(rng.uniform(0.1, 3.0))
        dec = eig(a)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
        rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - a)) <= 1e-9 * (1.0 + np.max(np.abs(a)))


def test_eig_clusters_track_degeneracies():
    a = np.diag([2.0, 2.0 + 1e-12, 1.0, 1e-15])
    dec = eig(a)
    assert dec.distinct_count == 3
    sizes = sorted(len(c) for c in dec.clusters)
    assert sizes == [1, 1, 2]


def test_cluster_projector_is_rank_correct():
    a = np.diag([3.0, 3.0, 1.0])
    dec = eig(a)
    p = dec.projector(0)
    assert abs(np.trace(p).real - 2.0) <= 1e-12
    assert np.max(np.abs(p @ p - p)) <= 1e-12


def test_mat_power_agrees_with_spectral_route():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        a = rand_density(rng, d)
        for alpha in (0.5, 2.0, -1.0, 0.25):
            got = mat_power(a, alpha).mat
            dec = eig(a)
            safe = np.where(dec.eigenvalues > 1e-12, dec.eigenvalues, 1.0)
            powered = np.where(dec.eigenvalues > 1e-12, safe**alpha, 0.0)
            want = (dec.eigenvectors * powered) @ dec.eigenvectors.conj().T
            assert np.max(np.abs(got - want)) <= 1e-8


def test_mat_power_pseudo_inverts_singular_psd():
    a = np.diag([0.7, 0.3, 0.0])
    inv = mat_power(a, -1.0).mat
    assert np.allclose(np.diag(inv), [1 / 0.7, 1 / 0.3, 0.0])


def test_mat_power_rejects_indefinite_input():
    with pytest.raises(ValueError):
        mat_power(np.diag([1.0, -0.5]), 0.5)


def test_pinching_preserves_trace_and_commutes():
    rng = np.random.default_rng(23)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        rho = rand_density(rng, d)
        sigma = rand_density(rng, d)
        pinched = pinching(rho, sigma).mat
        assert abs(np.trace(pinched).real - 1.0) <= 1e-10
        assert commutator_defect(pinched, sigma) <= 1e-9


def test_pinching_inequality():
    rng = np.random.default_rng(29)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        rho = rand_density(rng, d)
        sigma = rand_density(rng, d)
        v = eig(sigma).distinct_count
        gap = np.linalg.eigvalsh(v * pinching(rho, sigma).mat - rho)
        assert gap[0] >= -1e-9


def test_pinching_fixes_commuting_states():
    rho = np.diag([0.2, 0.8])
    sigma = np.diag([0.4, 0.6])
    assert np.max(np.abs(pinching(rho, sigma).mat - rho)) <= 1e-12


def test_positive_part_trace_values():
    a = np.diag([0.5, -0.2, 0.1])
    assert abs(positive_part_trace(a) - 0.6) <= 1e-12
    rng = np.random.default_rng(31)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        h = rng.standard_normal((d, d))
        h = h + h.T
        w = np.linalg.eigvalsh(h)
        assert abs(positive_part_trace(h) - w[w > 0].sum()) <= 1e-9


def test_simultaneous_eigenbasis_diagonalizes_both():
    rng = np.random.default_rng(37)
    g = rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(g)
    a = (q * np.array([0.4, 0.3, 0.2, 0.1])) @ q.T
    b = (q * np.array([1.0, 1.0, 2.0, 3.0])) @ q.T
    basis = simultaneous_eigenbasis(a, b)
    for m in (a, b):
        rot = basis.conj().T @ m @ basis
        off = rot - np.diag(np.diag(rot))
        assert np.max(np.abs(off)) <= 1e-9


def test_commutator_defect_zero_iff_commuting():
    a = np.diag([0.5, 0.5])
    b = np.array([[0.3, 0.1], [0.1, 0.7]])
    assert commutator_defect(a, b) <= 1e-15
    c = np.diag([0.9, 0.1])
    assert commutator_defect(b, c) > 1e-3


def test_distinct_eigenvalue_count_iid_matches_dense():
    rng = np.random.default_rng(41)
    for _ in range(10):
        d = int(rng.integers(2, 4))
        sigma = rand_density(rng, d)
        fast = distinct_eigenvalue_counts_iid(sigma, 3)
        dense = [eig(kron_power(sigma, n)).distinct_count for n in (1, 2, 3)]
        assert fast == dense


def test_distinct_eigenvalue_count_iid_with_kernel():
    sigma = np.diag([0.5, 0.25, 0.0])
    # spectra {1/2^a 1/4^b} stay powers of two: n+1 values off the kernel
    got = distinct_eigenvalue_counts_iid(sigma, 4)
    dense = [eig(kron_power(sigma, n)).distinct_count for n in (1, 2, 3, 4)]
    assert got == dense


def test_distinct_count_grows_polynomially_for_commuting_spectrum():
    sigma = np.diag([0.25, 0.75])
    counts = distinct_eigenvalue_counts_iid(sigma, 64)
    assert [counts[n - 1] for n in (1, 4, 16, 64)] == [2, 5, 17, 65]


def test_state_descriptor_reads_as_its_matrix():
    rng = np.random.default_rng(43)
    rho, sigma = (StateDescriptor.density(rand_density(rng, 2)) for _ in range(2))
    for got, want in (
        (eig(sigma), eig(sigma.mat)),
        (pinching(rho, sigma), pinching(rho.mat, sigma.mat)),
        (mat_power(sigma, -0.5), mat_power(sigma.mat, -0.5)),
    ):
        for name in ("eigenvalues", "eigenvectors", "clusters", "mat"):
            if hasattr(want, name):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert distinct_eigenvalue_counts_iid(sigma, 5) == distinct_eigenvalue_counts_iid(sigma.mat, 5)


# CQ state plumbing


def test_cq_validation_rejects_bad_inputs():
    good = np.eye(2) / 2
    with pytest.raises(ValueError):
        CQState([0.7, 0.4], [good, good])
    with pytest.raises(ValueError):
        CQState([0.5, 0.5], [good, np.diag([2.0, -1.0])])
    with pytest.raises(ValueError):
        CQState([0.5, 0.5], [good, np.eye(3) / 3])


def test_cq_zero_probability_symbols_are_allowed():
    cq = CQState([1.0, 0.0], [np.eye(2) / 2, np.diag([1.0, 0.0])])
    assert cq.nsymbols == 2
    assert abs(np.trace(cq.rho_e()).real - 1.0) <= 1e-12


def test_cq_to_density_and_reference_shapes():
    rng = np.random.default_rng(47)
    cq = rand_cq(rng, 3, 2)
    joint = cq.to_density()
    ref = cq.reference_sigma()
    assert joint.dim == 6 and ref.dim == 6
    assert abs(joint.trace - 1.0) <= 1e-12
    assert abs(ref.trace - 3.0) <= 1e-12
    block = joint.mat[2:4, 2:4]
    assert np.max(np.abs(block - cq.probs[1] * cq.conditionals[1])) <= 1e-12


def test_cq_tensor_power_counts_and_caps():
    cq = CQState.classical([1 / 3, 2 / 3])
    sq = cq.tensor_power(3)
    assert sq.nsymbols == 8
    assert abs(sq.probs.sum() - 1.0) <= 1e-12
    assert abs(sq.probs[0] - (1 / 3) ** 3) <= 1e-15
    big = rand_cq(np.random.default_rng(1), 2, 2)
    with pytest.raises(BudgetExceededError):
        big.tensor_power(10)


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
def test_commuting_decision_agrees_at_the_scaled_tolerance(inside):
    # a CQ state whose conditional a nearly commutes with the marginal rho_E;
    # the rotation angle puts the defect of (a, rho_E) 1% inside or outside
    # the entry-scaled bound COMMUTE_TOL (1 + max|a_ij|) (1 + max|rho_E ij|)
    from privamp import SpectrumDistribution, iid_smoothing_certificate, smoothing_certificate
    from privamp.operators import COMMUTE_TOL, commutes

    a = np.diag([0.7, 0.3])

    def state(theta):
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        cq = CQState([0.5, 0.5], [a, rot @ np.diag([0.2, 0.8]) @ rot.T])
        rho_e = cq.rho_e()
        bound = COMMUTE_TOL * (1.0 + float(np.max(np.abs(a)))) * (1.0 + float(np.max(np.abs(rho_e))))
        return cq, rho_e, commutator_defect(a, rho_e) / bound

    # the defect grows as sin(2 theta), linear to far below 1% at these angles
    theta = 1e-7 / state(1e-7)[2] * (0.99 if inside else 1.01)
    _, rho_e, ratio = state(theta)
    assert abs(ratio - (0.99 if inside else 1.01)) <= 1e-3
    assert commutes(a, rho_e) == inside
    if inside:
        SpectrumDistribution.from_commuting_pair(a, rho_e)
    else:
        with pytest.raises(ValueError):
            SpectrumDistribution.from_commuting_pair(a, rho_e)
    assert smoothing_certificate(a, rho_e, 0.3).meta["commuting"] == inside
    [cert] = iid_smoothing_certificate(a, rho_e, 0.3, [1])
    assert cert.meta["commuting"] == inside
