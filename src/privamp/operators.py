"""Dense Hermitian operator primitives.

Everything downstream (divergences, smoothing, hashing simulations) reduces to
eigendecompositions of small dense Hermitian matrices, so this module owns the
ingest tolerances, eigenvalue clustering, and the handful of matrix functions
built on top of numpy.linalg.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-9
DEFAULT_CLUSTER_TOL = 1e-9
SUPPORT_CUT = 1e-12
DEFAULT_COMMUTE_TOL = 1e-9
TENSOR_BUDGET = 4096
IID_ATOM_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    """A requested dense or combinatorial computation exceeds its size budget."""


class EigensolverError(RuntimeError):
    """eigh failed or its output did not reconstruct the input."""


def _as_matrix(a) -> np.ndarray:
    if isinstance(a, HermitianOperator):
        return a.mat
    return np.asarray(a, dtype=complex)


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

    @classmethod
    def identity(cls, dim: int) -> "HermitianOperator":
        return cls(np.eye(dim))

    @classmethod
    def diagonal(cls, values) -> "HermitianOperator":
        return cls(np.diag(np.asarray(values, dtype=float)))

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim}, max_norm={self.max_norm:.3e})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix, eigenvalues descending.

    clusters groups indices of eigenvalues that are equal within the
    clustering tolerance used at construction; their count is the pinching
    constant v (number of distinct eigenvalues at that tolerance).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: tuple[tuple[int, ...], ...]
    cluster_tol: float

    @property
    def distinct_count(self) -> int:
        return len(self.clusters)

    def projector(self, i: int) -> np.ndarray:
        cols = self.eigenvectors[:, list(self.clusters[i])]
        return cols @ cols.conj().T


def eig(a, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SpectralDecomposition:
    """Spectral decomposition with eigenvalue clustering.

    Eigenvalues are returned descending. Consecutive eigenvalues whose gap is
    at most cluster_tol * max(1, |lambda|_max) are merged into one cluster.
    The decomposition is verified to reconstruct the input within
    RECONSTRUCTION_TOL * (1 + max entry).
    """
    op = a if isinstance(a, HermitianOperator) else HermitianOperator(a)
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
    gap_tol = cluster_tol * max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    clusters: list[tuple[int, ...]] = []
    start = 0
    for i in range(1, len(w)):
        if w[i - 1] - w[i] > gap_tol:
            clusters.append(tuple(range(start, i)))
            start = i
    clusters.append(tuple(range(start, len(w))))
    w.flags.writeable = False
    u.flags.writeable = False
    return SpectralDecomposition(w, u, tuple(clusters), cluster_tol)


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


def pinching(x, sigma, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> HermitianOperator:
    """Pinching of x by the eigenprojectors of sigma: sum_i P_i x P_i."""
    xm = _as_matrix(x)
    sd = eig(sigma, cluster_tol)
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


def tensor_power(a, n: int) -> HermitianOperator:
    """n-fold Kronecker power, refused above TENSOR_BUDGET total dimensions."""
    m = _as_matrix(a)
    if n < 1:
        raise ValueError("n must be >= 1")
    if m.shape[0] ** n > TENSOR_BUDGET:
        raise BudgetExceededError(
            f"dense tensor power dim {m.shape[0]}^{n} exceeds budget {TENSOR_BUDGET}; "
            "use the spectrum fast path for iid inputs"
        )
    out = m
    for _ in range(n - 1):
        out = np.kron(out, m)
    return HermitianOperator(out)


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


def commutes(a, b, tol: float = DEFAULT_COMMUTE_TOL) -> bool:
    """The package's one commuting test: max|AB - BA| <= tol (1 + max|A_ij|) (1 + max|B_ij|)."""
    am, bm = _as_matrix(a), _as_matrix(b)
    bound = tol * (1.0 + float(np.max(np.abs(am)))) * (1.0 + float(np.max(np.abs(bm))))
    return commutator_defect(am, bm) <= bound


def distinct_eigenvalue_count_iid(
    sigma,
    n: int,
    rel_tol: float = DEFAULT_CLUSTER_TOL,
) -> int:
    """Number of distinct eigenvalues of the n-fold tensor power of sigma.

    Works on the clustered base spectrum and never forms the tensor power:
    the distinct products of n base eigenvalues are accumulated as log2 sums
    with tolerance merging, which is type-class enumeration with early dedup.
    Products equal within relative tolerance rel_tol count once. A zero
    eigenvalue of sigma contributes one extra distinct value (zero) for any n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sd = eig(sigma, rel_tol)
    w = sd.eigenvalues
    scale = max(1.0, float(np.max(np.abs(w))))
    if float(w[-1]) < -1e-9 * scale:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w[-1]:.3e}")
    reps = np.array([float(np.mean(w[list(c)])) for c in sd.clusters])
    lam_max = float(reps.max())
    if lam_max <= 0.0:
        return 1
    positive = reps > SUPPORT_CUT * lam_max
    has_zero = bool((~positive).any())
    logs = np.log2(reps[positive])
    # relative tolerance on products maps to an absolute gap in log2
    log_tol = 1.5 * rel_tol
    sums = np.zeros(1)
    for _ in range(n):
        sums = (sums[:, None] + logs[None, :]).ravel()
        sums.sort()
        if sums.size > 1:
            boundaries = np.diff(sums) > log_tol
            keep = np.concatenate(([True], boundaries))
            sums = sums[keep]
        if sums.size > IID_ATOM_BUDGET:
            raise BudgetExceededError(
                f"distinct-product enumeration exceeded {IID_ATOM_BUDGET} atoms at n={n}"
            )
    return int(sums.size) + (1 if has_zero else 0)
