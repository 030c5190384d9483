"""Dense Hermitian operator primitives.

Everything downstream (divergences, smoothing, hashing simulations) reduces to
eigendecompositions of small dense Hermitian matrices, so this module owns the
ingest tolerances, eigenvalue clustering, the commuting test, and the handful
of matrix functions built on top of numpy.linalg. Its clustering and
commuting tolerances are constants, not options: every pinching constant
comes from eig() (distinct_eigenvalue_counts_iid() for tensor powers), every
commuting decision from commutes() and every joint spectrum from
joint_eigenvalues().
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9
CLUSTER_TOL = 1e-9
SUPPORT_CUT = 1e-12
COMMUTE_TOL = 1e-9
ATOM_CAP = 10**7


class BudgetExceededError(RuntimeError):
    """A requested dense or combinatorial computation exceeds its size budget."""


class EigensolverError(RuntimeError):
    """eigh failed or its output did not reconstruct the input."""


def _as_matrix(a) -> np.ndarray:
    """The matrix of a HermitianOperator, StateDescriptor or anything else with a .mat, or of array-like entries."""
    return a.mat if hasattr(a, "mat") else np.asarray(a, dtype=complex)


class HermitianOperator:
    """Immutable dense Hermitian matrix with tolerance-checked ingest.

    Inputs whose Hermiticity defect max|A - A^dag| is at most
    HERMITICITY_TOL * (1 + max|A_ij|) are symmetrized; larger defects raise.
    """

    __slots__ = ("mat",)

    def __init__(self, entries):
        m = np.array(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        scale = 1.0 + float(np.max(np.abs(m)))
        defect = float(np.max(np.abs(m - m.conj().T)))
        if defect > HERMITICITY_TOL * scale:
            raise ValueError(
                f"matrix is not Hermitian: defect {defect:.3e} exceeds "
                f"{HERMITICITY_TOL:.1e} * (1 + max entry) = {HERMITICITY_TOL * scale:.3e}"
            )
        m = (m + m.conj().T) / 2.0
        m.flags.writeable = False
        self.mat = m

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    @property
    def max_norm(self) -> float:
        return float(np.max(np.abs(self.mat)))

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim}, max_norm={self.max_norm:.3e})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix, eigenvalues descending.

    clusters groups indices of eigenvalues that are equal within
    CLUSTER_TOL; their count is the pinching constant v (number of distinct
    eigenvalues).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: tuple[tuple[int, ...], ...]

    @property
    def distinct_count(self) -> int:
        return len(self.clusters)


def eig(a) -> SpectralDecomposition:
    """Spectral decomposition with eigenvalue clustering.

    Eigenvalues are returned descending. Consecutive eigenvalues whose gap is
    at most CLUSTER_TOL * max(1, |lambda|_max) are merged into one cluster.
    The decomposition is verified to reconstruct the input within
    RECONSTRUCTION_TOL * (1 + max entry).
    """
    op = a if isinstance(a, HermitianOperator) else HermitianOperator(_as_matrix(a))
    m = op.mat
    try:
        w, u = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigh failed on a dim-{op.dim} matrix "
            f"(max entry {op.max_norm:.3e}, finite={bool(np.all(np.isfinite(m)))}): {exc}"
        ) from exc
    w = w[::-1].copy()
    u = u[:, ::-1].copy()
    recon = (u * w) @ u.conj().T
    err = float(np.max(np.abs(recon - m)))
    if err > RECONSTRUCTION_TOL * (1.0 + op.max_norm):
        raise EigensolverError(
            f"eigendecomposition reconstruction error {err:.3e} exceeds tolerance "
            f"on a dim-{op.dim} matrix with max entry {op.max_norm:.3e}"
        )
    gap_tol = CLUSTER_TOL * max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    clusters: list[tuple[int, ...]] = []
    start = 0
    for i in range(1, len(w)):
        if w[i - 1] - w[i] > gap_tol:
            clusters.append(tuple(range(start, i)))
            start = i
    clusters.append(tuple(range(start, len(w))))
    w.flags.writeable = False
    u.flags.writeable = False
    return SpectralDecomposition(w, u, tuple(clusters))


def mat_power(a, t: float) -> HermitianOperator:
    """A^t for PSD A, defined on the support of A (pseudo-power).

    Eigenvalues at or below SUPPORT_CUT * lambda_max count as the kernel.
    Negative powers of the zero operator raise.
    """
    sd = eig(a)
    w = sd.eigenvalues
    scale = max(1.0, float(np.max(np.abs(w))))
    if float(w[-1]) < -1e-9 * scale:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[-1]:.3e}")
    lam_max = float(w[0])
    if lam_max <= 0.0:
        if t < 0:
            raise ValueError("negative power of the zero operator")
        return HermitianOperator(np.zeros_like(_as_matrix(a)))
    keep = w > SUPPORT_CUT * lam_max
    u = sd.eigenvectors[:, keep]
    powered = (u * (w[keep] ** t)) @ u.conj().T
    return HermitianOperator(powered)


def pinching(x, sigma) -> HermitianOperator:
    """Pinching of x by the eigenprojectors of sigma: sum_i P_i x P_i."""
    xm = _as_matrix(x)
    sd = eig(sigma)
    if xm.shape != sd.eigenvectors.shape:
        raise ValueError(f"dimension mismatch: {xm.shape} vs {sd.eigenvectors.shape}")
    labels = np.empty(len(sd.eigenvalues), dtype=int)
    for i, cluster in enumerate(sd.clusters):
        labels[list(cluster)] = i
    u = sd.eigenvectors
    b = u.conj().T @ xm @ u
    mask = labels[:, None] == labels[None, :]
    return HermitianOperator(u @ (b * mask) @ u.conj().T)


def positive_part_trace(a) -> float:
    """tr (A)_+ = sum of positive eigenvalues."""
    w = np.linalg.eigvalsh(_as_matrix(a))
    return float(w[w > 0].sum())


def simultaneous_eigenbasis(a, b) -> np.ndarray:
    """Common eigenbasis of two commuting Hermitian matrices.

    Diagonalizes a, then diagonalizes b compressed to each eigenvalue cluster
    of a. Commutation is the caller's responsibility; the result diagonalizes
    b exactly only when [a, b] = 0.
    """
    sd = eig(a)
    u = np.array(sd.eigenvectors)
    bm = _as_matrix(b)
    for cluster in sd.clusters:
        idx = list(cluster)
        if len(idx) == 1:
            continue
        sub = u[:, idx].conj().T @ bm @ u[:, idx]
        sub = (sub + sub.conj().T) / 2.0
        _, v = np.linalg.eigh(sub)
        u[:, idx] = u[:, idx] @ v
    return u


def commutator_defect(a, b) -> float:
    """max entry of |AB - BA|."""
    am, bm = _as_matrix(a), _as_matrix(b)
    return float(np.max(np.abs(am @ bm - bm @ am)))


def commutes(a, b) -> bool:
    """The package's one commuting test: max|AB - BA| <= COMMUTE_TOL (1 + max|A_ij|) (1 + max|B_ij|)."""
    am, bm = _as_matrix(a), _as_matrix(b)
    bound = COMMUTE_TOL * (1.0 + float(np.max(np.abs(am)))) * (1.0 + float(np.max(np.abs(bm))))
    return commutator_defect(am, bm) <= bound


def joint_eigenvalues(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of commuting a and b in simultaneous_eigenbasis(a, b), clipped at 0.

    For commuting PSD a and b these are their eigenvalues, paired on the
    common eigenvectors. Commutation is the caller's responsibility.
    """
    am, bm = _as_matrix(a), _as_matrix(b)
    u = simultaneous_eigenbasis(am, bm)
    uh = u.conj().T
    return tuple(np.clip(np.real(np.einsum("ij,jk,ki->i", uh, m, u)), 0.0, None) for m in (am, bm))


def distinct_eigenvalue_counts_iid(sigma, n: int) -> list[int]:
    """Numbers of distinct eigenvalues of the k-fold tensor powers of sigma, k = 1..n.

    One eig and one chain: the distinct products of k base eigenvalues are
    the log2 sums of k - 1 extended by one factor, with tolerance merging
    (type-class enumeration with early dedup), so no tensor power is formed.
    Products equal within relative tolerance CLUSTER_TOL count once. A zero
    eigenvalue of sigma adds one distinct value (zero) for any k. The chain
    stops with BudgetExceededError at the first k whose sums exceed ATOM_CAP.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sd = eig(sigma)
    w = sd.eigenvalues
    scale = max(1.0, float(np.max(np.abs(w))))
    if float(w[-1]) < -1e-9 * scale:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[-1]:.3e}")
    reps = np.array([float(np.mean(w[list(c)])) for c in sd.clusters])
    lam_max = float(reps.max())
    if lam_max <= 0.0:
        return [1] * n
    positive = reps > SUPPORT_CUT * lam_max
    has_zero = bool((~positive).any())
    logs = np.log2(reps[positive])
    # relative tolerance on products maps to an absolute gap in log2
    log_tol = 1.5 * CLUSTER_TOL
    sums = np.zeros(1)
    counts = []
    for k in range(1, n + 1):
        sums = (sums[:, None] + logs[None, :]).ravel()
        sums.sort()
        if sums.size > 1:
            boundaries = np.diff(sums) > log_tol
            keep = np.concatenate(([True], boundaries))
            sums = sums[keep]
        if sums.size > ATOM_CAP:
            raise BudgetExceededError(
                f"distinct-product enumeration exceeded {ATOM_CAP} atoms at n={k}"
            )
        counts.append(int(sums.size) + (1 if has_zero else 0))
    return counts
