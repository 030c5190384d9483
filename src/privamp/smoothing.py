"""Max-relative-entropy smoothing: exact commuting oracle and certified bounds.

The smoothing quantity at budget lambda is the least purified distance from
rho to a subnormalized rho' with rho' <= 2^lambda sigma. Commuting pairs admit
an exact water-filling solution on the joint spectrum; general pairs get a
certified [converse, achievability] bracket plus an explicit pinched witness.
iid_smoothing_certificate is the one certificate path and computes each
n-independent object once; the one-shot certificate is its n = 1 case
tightened by the witness. Commuting iid inputs never materialize tensor
powers: the joint spectrum is a list of atoms, each a log-likelihood ratio
log2 p - log2 q with its rho-mass, sorted by ratio and convolved as such.
The water-filling oracle, the converse mass and D_max read only that list,
so each is a prefix or suffix sum over it and the oracle is in closed form.
Non-commuting pairs form no tensor power either: their converse is read
from the Schur-Weyl blocks of the n-fold pair, in closed form for qubits
and one irrep at a time for larger dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .operators import (
    ATOM_CAP,
    BudgetExceededError,
    SUPPORT_CUT,
    TENSOR_BUDGET,
    _as_matrix,
    _blas_threads_for,
    commutator_defect,
    commutes,
    distinct_eigenvalue_counts_iid,
    eig,
    joint_eigenvalues,
    pinching,
)
from .measures import SUPPORT_VIOLATION_TOL, RenyiDivergenceCurve
from .states import StateDescriptor, _as_state_matrix

KKT_TOL = 1e-9
WITNESS_PSD_TOL = 1e-9
MERGE_TOL = 1e-12
DEFAULT_CONVERSE_T = 9.0
_EXP2_CLIP = 1000.0


def _exp2_clipped(x: float) -> float:
    return float(np.exp2(min(x, _EXP2_CLIP)))


def _purified_epsilon(p, ptilde, target: float) -> float:
    """sqrt(1 - F^2) for F = sum sqrt(p p'), p normalized and p' of mass target.

    1 - F comes from (sum (sqrt p - sqrt p')^2 + 1 - target) / 2, which does
    not cancel below epsilon = 1e-7 as 1 - F^2 does.
    """
    one_minus_f = 0.5 * (float(((np.sqrt(p) - np.sqrt(ptilde)) ** 2).sum()) + (1.0 - target))
    return math.sqrt(max(0.0, one_minus_f * (2.0 - one_minus_f)))


def pinched_smoothing_witness(rho, sigma, lam: float):
    """Feasible smoothing witness from pinching, for arbitrary (rho, sigma).

    Projects rho onto the eigenspace where its pinching obeys
    E_sigma(rho) <= (2^lam / v) sigma, with v the distinct-eigenvalue count of
    sigma. The projected state satisfies rho' <= 2^lam sigma (verified as a
    PSD check) and its purified distance to rho is the achieved smoothing.
    Returns (witness StateDescriptor, achieved epsilon).
    """
    rm = _as_matrix(rho) if not isinstance(rho, StateDescriptor) else rho.mat
    sm = _as_matrix(sigma)
    v = eig(sm).distinct_count
    pinched = pinching(rm, sm).mat
    coef = _exp2_clipped(lam) / v
    t = coef * sm - pinched
    w, u = np.linalg.eigh(t)
    tol = 1e-12 * (1.0 + float(np.max(np.abs(w))))
    cols = u[:, w >= -tol]
    qproj = cols @ cols.conj().T
    smooth = qproj @ rm @ qproj
    witness = StateDescriptor.subnormalized_state((smooth + smooth.conj().T) / 2.0)
    slack = _exp2_clipped(lam) * sm - witness.mat
    min_eig = float(np.linalg.eigvalsh(slack)[0])
    if min_eig < -WITNESS_PSD_TOL * (1.0 + float(np.max(np.abs(slack)))):
        raise ArithmeticError(f"witness feasibility failed: min eigenvalue {min_eig:.3e}")
    overlap = float(np.trace(rm @ qproj).real)
    achieved = math.sqrt(max(0.0, 1.0 - overlap * overlap))
    return witness, achieved


def _least_achievability(s, d, v_count: int, lam: float) -> float:
    """Least sqrt(2 v^s 2^(s (D_{1+s} - lam))) over orders s with divergences d, clipped to 1.

    Taken in log space: exp2 is monotone, so the least bound is exp2 of the
    least log2 bound, and an infinite D gives no bound below 1.
    """
    # D = inf gives no bound below 1, also at lam = inf; a gap past _EXP2_CLIP gives 0 or 1 either way
    gap = np.subtract(d, lam, out=np.full(np.shape(d), math.inf), where=np.isfinite(d))
    log2_bounds = 0.5 * (1.0 + s * math.log2(v_count) + s * np.clip(gap, -_EXP2_CLIP, _EXP2_CLIP))
    return float(np.exp2(np.min(log2_bounds, initial=0.0)))


def converse_bound(rho, sigma, lam: float, t: float = DEFAULT_CONVERSE_T) -> float:
    """Lower bound on the smoothing quantity from the mass above t 2^lam sigma.

    With p = tr rho {rho > t 2^lam sigma}, any feasible smoothing is at least
    sqrt(p (1 - 2/sqrt(t) - p/t)) whenever that parenthesis is positive.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    rm = _as_state_matrix(rho)
    sm = _as_matrix(sigma)
    c = t * float(np.exp2(lam)) if lam < _EXP2_CLIP else math.inf
    with _blas_threads_for(rm.shape[0]):
        p = _dense_converse_mass(rm, sm, c)
    return _converse_from_mass(p, t)


def _dense_converse_mass(rm: np.ndarray, sm: np.ndarray, c: float) -> float:
    """tr rho {rho > c sigma}, with c = inf meaning rho's mass on the kernel of sigma."""
    if math.isinf(c):
        sd = eig(sm)
        wmax = float(sd.eigenvalues[0])
        kernel = sd.eigenvalues <= SUPPORT_CUT * max(wmax, 0.0)
        if not kernel.any():
            return 0.0
        k = sd.eigenvectors[:, kernel]
        a = k.conj().T @ rm @ k
        w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
        return float(w[w > 0].sum())
    diff = rm - c * sm
    w, u = np.linalg.eigh(diff)
    pos = w > 1e-12 * (1.0 + float(np.max(np.abs(w))))
    if not pos.any():
        return 0.0
    cols = u[:, pos]
    return float(np.vdot(cols, rm @ cols).real)


def _converse_from_mass(p: float, t: float) -> float:
    p = min(max(p, 0.0), 1.0)
    inner = 1.0 - 2.0 / math.sqrt(t) - p / t
    return math.sqrt(p * max(0.0, inner))


def _log2(x: float) -> float:
    return math.log2(x) if x > 0 else -math.inf


def _block_mass(blocks) -> float:
    """tr rho P_+ of a block-diagonal rho - c sigma, from its blocks (w, v, g, rho_block, log2_weight).

    A block has eigenvalues 2^g w, |w| <= 1, with eigenvectors v, rho_block
    is rho on it, and it recurs 2^log2_weight times. P_+ keeps eigenvalues
    above 1e-12 (1 + max |2^g w|) over all blocks, as converse_bound cuts
    the whole operator.
    """
    p = 0.0
    if blocks:
        log2_max = max(g + _log2(float(np.abs(w).max())) for w, _, g, _, _ in blocks)
        log2_cut = math.log2(1e-12) + float(np.logaddexp2(0.0, log2_max))
        for w, v, g, rho_block, log2_weight in blocks:
            cols = v[:, w > np.exp2(min(log2_cut - g, 1.0))]
            p += float(np.exp2(log2_weight)) * float(np.vdot(cols, rho_block @ cols).real)
    return p


class _QubitBlocks:
    """converse_bound of a qubit pair's tensor powers, from Schur-Weyl blocks.

    For a 2 x 2 matrix X, X^(x n) = (+)_k det X^k Sym^m(X) (x) 1 over
    k <= n/2, m = n - 2k, with multiplicity C(n, k) - C(n, k - 1) (Harrow,
    quant-ph/0512255), so rho^(x n) - c sigma^(x n) splits into blocks of
    size m + 1 and tr rho^(x n) P_+ is a weighted sum of block masses. In
    sigma's eigenbasis Sym^m(sigma) is diag(s1^(m-i) s2^i) and Sym^m(rho) is
    a^m d diag((b/a)^i) d^T, up to diagonal phases that change no block's
    spectrum or rho-mass, where d = Sym^m of the real rotation by the angle
    phi between the two eigenbases. d = exp(phi K) for the spin-m/2
    generator K = J_- - J_+, taken from the eigenvectors of iK, whose
    eigenvalues are the integers m, m - 2, .., -m: it stays orthogonal to
    rounding where expanding polynomial products does not. Each m's blocks
    are built once per instance; block scales and weights are kept in log2,
    so C(n, k) and det^k stay finite at large n.
    """

    def __init__(self, rm: np.ndarray, sm: np.ndarray):
        wr, ur = np.linalg.eigh(rm)
        ws, us = np.linalg.eigh(sm)
        # eigenvalues descending and clipped at 0; columns to match
        (b, a), (s2, s1) = np.clip(wr, 0.0, None), np.clip(ws, 0.0, None)
        overlap = np.abs(us[:, ::-1].conj().T @ ur[:, ::-1])
        self.phi = math.atan2(float(overlap[1, 0]), float(overlap[0, 0]))
        self.ratios = float(b / a), float(s2 / s1)
        # log2 of the top eigenvalue and of det
        self.log2_rho, self.log2_sigma = (_log2(a), _log2(a * b)), (_log2(s1), _log2(s1 * s2))
        self._sym: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def sym(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Sym^m(rho) / a^m and the diagonal of Sym^m(sigma) / s1^m, in sigma's eigenbasis."""
        if m not in self._sym:
            i = np.arange(m + 1)
            up = np.sqrt(i[1:] * (m - i[1:] + 1.0))  # J_+ takes basis vector i to i - 1
            gen = np.diag(-1j * up, 1) + np.diag(1j * up, -1)  # iK
            mu, y = np.linalg.eigh(gen)
            d = ((y * np.exp(-1j * self.phi * np.rint(mu))) @ y.conj().T).real
            rho_ratio, sigma_ratio = self.ratios
            self._sym[m] = (d * rho_ratio**i) @ d.T, sigma_ratio**i
        return self._sym[m]

    @staticmethod
    def _scale(log2s: tuple[float, float], k: int, m: int) -> float:
        """log2 of the top eigenvalue of det X^k Sym^m(X), from log2s = (log2 top eigenvalue, log2 det X)."""
        log2_top, log2_det = log2s
        return m * log2_top + (k * log2_det if k else 0.0)

    def converse(self, n: int, lam: float, t: float) -> float:
        """converse_bound(rho^(x n), sigma^(x n), lam, t) below _EXP2_CLIP, with the same positive-eigenvalue cut."""
        blocks = []
        for k in range(n // 2 + 1):
            m = n - 2 * k
            rho_m, sigma_m = self.sym(m)
            la = self._scale(self.log2_rho, k, m)
            log2_weight = math.log2(math.comb(n, k) - (math.comb(n, k - 1) if k else 0)) + la
            lb = math.log2(t) + lam + self._scale(self.log2_sigma, k, m)
            g = max(la, lb)
            if g == -math.inf:
                continue  # a zero block
            w, v = np.linalg.eigh(np.exp2(la - g) * rho_m - np.diag(np.exp2(lb - g) * sigma_m))
            blocks.append((w, v, g, rho_m, log2_weight))
        return _converse_from_mass(_block_mass(blocks), t)


def _partitions(n: int, rows: int, top: int):
    """Partitions of n into at most `rows` parts of at most top each, parts descending."""
    if n == 0:
        yield ()
    elif rows > 0:
        for first in range(min(n, top), 0, -1):
            for rest in _partitions(n - first, rows - 1, first):
                yield (first, *rest)


def _standard_tableaux(lam: tuple[int, ...]) -> int:
    """f_lam, the number of standard Young tableaux of shape lam, by the hook length formula."""
    heights = [sum(1 for row in lam if row > j) for j in range(lam[0])]
    hooks = math.prod(row - j + heights[j] - i - 1 for i, row in enumerate(lam) for j in range(row))
    return math.factorial(sum(lam)) // hooks


def _antisymmetrize(a: np.ndarray, axes: list[int]) -> np.ndarray:
    """Sum of sgn(g) g(a) over the permutations g of the given axes of a.

    S_k is S_(k-1) times the transpositions {1, (1 k), .., (k-1 k)}, so
    the sum takes k - 1 rounds of transposition sums, not k! terms.
    """
    for k in range(1, len(axes)):
        a = a - sum(np.swapaxes(a, axes[j], axes[k]) for j in range(k))
    return a


def _irrep_bases(d: int, n: int) -> list[tuple[int, np.ndarray]]:
    """(f_lam, B_lam) per partition lam of n with at most d rows, for the GL(d) irreps V_lam in (C^d)^(x n).

    B_lam is real, d_lam x d^n, with orthonormal rows spanning one copy of
    V_lam: the range of the Young symmetrizer of the row-reading tableau
    (rows symmetrized, then columns antisymmetrized), spanned by its images
    of the d_lam semistandard fillings. The row sum of a filling is, up to
    scale, the indicator of the words whose rows sort to it.
    """
    if n == 1:
        return [(1, np.eye(d))]  # C^d itself
    words = np.indices((d,) * n).reshape(n, -1)  # words[:, i]: the filling at flat index i, in reading order
    place = d ** np.arange(n - 1, -1, -1)  # the flat index of a filling is place @ filling
    bases = []
    for lam in _partitions(n, d, n):
        starts = [sum(lam[:i]) for i in range(len(lam))]
        cols = [[s + j for s, length in zip(starts, lam) if length > j] for j in range(lam[0])]
        row_sorted = np.concatenate([np.sort(words[s : s + length], axis=0) for s, length in zip(starts, lam)])
        semistandard = (row_sorted == words).all(axis=0)
        for col in cols:
            for i, j in zip(col, col[1:]):
                semistandard &= words[i] < words[j]
        fillings = np.flatnonzero(semistandard)
        image = (place @ row_sorted == fillings[:, None]).astype(float).reshape((fillings.size,) + (d,) * n)
        for col in cols:
            image = _antisymmetrize(image, [1 + i for i in col])
        image = image.reshape(fillings.size, -1)
        # orthonormal rows from the eigenvectors of their Gram matrix: an m x m eigh in place of a QR of d^n rows
        e, v = np.linalg.eigh(image @ image.T)
        bases.append((_standard_tableaux(lam), (v / np.sqrt(e)).T @ image))
    return bases


class _IrrepBlocks:
    """converse_bound of the tensor powers of a d-dim pair, d >= 3, from Schur-Weyl irrep blocks.

    (C^d)^(x n) is the sum of V_lam (x) S_lam over partitions lam of n with
    at most d rows, and X^(x n) acts as pi_lam(X) (x) 1 there, S_lam having
    dimension f_lam (Fulton-Harris, Lecture 6; Harrow, quant-ph/0512255).
    So rho^(x n) - c sigma^(x n) splits into blocks pi_lam(rho) -
    c pi_lam(sigma), each recurring f_lam times, and tr rho^(x n) P_+ is a
    weighted sum of block masses. pi_lam(X) is X^(x n) compressed to one
    copy of V_lam (_irrep_bases), applied as n mode products on the
    (d,) * n view, so no tensor power is formed. The pair is taken in
    sigma's eigenbasis, where pi_lam(sigma) is a real Gram matrix weighted
    by sigma^(x n)'s diagonal, and scaled to spectral norm at most 1, with
    the scales kept in log2 as _QubitBlocks keeps them. Each n's blocks are
    built once per instance; their basis vectors have d^n entries.
    """

    def __init__(self, rm: np.ndarray, sm: np.ndarray):
        ws, us = np.linalg.eigh(sm)
        a, s1 = float(np.linalg.norm(rm)), float(np.abs(ws).max())  # the Frobenius norm bounds rho's spectral norm
        self.d = rm.shape[0]
        self.rho, self.sigma = us.conj().T @ rm @ us / a, ws / s1
        self.log2_norms = math.log2(a), math.log2(s1)
        self._blocks: dict[int, list[tuple[int, np.ndarray, np.ndarray]]] = {}

    def blocks(self, n: int) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """(f_lam, pi_lam(rho), pi_lam(sigma)) per partition lam of n with at most d rows, both scaled."""
        if n not in self._blocks:
            sigma_n = np.ones(1)
            for _ in range(n):
                sigma_n = np.outer(sigma_n, self.sigma).ravel()
            bases = _irrep_bases(self.d, n)
            rho_n = np.vstack([b for _, b in bases]).reshape((-1,) + (self.d,) * n)
            for _ in range(n):
                # contracts the first site and appends it as the last, so n steps restore the order
                rho_n = np.tensordot(rho_n, self.rho, axes=([1], [1]))
            rho_n = rho_n.reshape(rho_n.shape[0], -1)
            self._blocks[n], start = [], 0
            for f, b in bases:
                # Hermitian to rounding; eigh reads its lower triangle, and a mass its Hermitian part
                rho_lam = b @ rho_n[start : start + b.shape[0]].T
                start += b.shape[0]
                self._blocks[n].append((f, rho_lam, (b * sigma_n) @ b.T))
        return self._blocks[n]

    def mass(self, n: int, log2_c: float) -> float:
        """tr rho^(x n) {rho^(x n) > 2^log2_c sigma^(x n)}, with converse_bound's positive-eigenvalue cut."""
        log2_a, log2_s = self.log2_norms
        la, lb = n * log2_a, log2_c + n * log2_s
        g = max(la, lb)
        blocks = []
        for f, rho_lam, sigma_lam in self.blocks(n):
            w, v = np.linalg.eigh(np.exp2(la - g) * rho_lam - np.exp2(lb - g) * sigma_lam)
            blocks.append((w, v, g, rho_lam, math.log2(f) + la))
        return _block_mass(blocks)

    def converse(self, n: int, lam: float, t: float) -> float:
        """converse_bound(rho^(x n), sigma^(x n), lam, t) below _EXP2_CLIP."""
        with _blas_threads_for(self.d**n):
            return _converse_from_mass(self.mass(n, math.log2(t) + lam), t)


@dataclass(frozen=True)
class SpectrumDistribution:
    """Joint spectrum of a commuting pair as weighted atoms, sorted by ratio.

    Each atom is a class of joint eigenvalues (p, q) of rho and sigma with
    one log-likelihood ratio llr = log2 p - log2 q (+inf where q = 0); weight
    is its total rho-mass, so weights sum to tr rho. Atoms with zero rho-mass
    are dropped, and llr is ascending.
    """

    llr: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        if self.llr.shape != self.weight.shape or self.llr.ndim != 1:
            raise ValueError("atom arrays must be equal-length vectors")
        if float(self.weight.min(initial=0.0)) < -1e-12:
            raise ValueError("atom weights must be nonnegative")
        if np.any(self.llr[1:] < self.llr[:-1]):
            raise ValueError("atom log-likelihood ratios must be ascending")

    @property
    def natoms(self) -> int:
        return self.llr.size

    @property
    def total_mass(self) -> float:
        return float(self.weight.sum())

    @classmethod
    def from_vectors(cls, p, q) -> "SpectrumDistribution":
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        keep = p > 0
        with np.errstate(divide="ignore"):
            return _merge_atoms(np.log2(p[keep]) - np.log2(np.maximum(q[keep], 0.0)), p[keep])

    @classmethod
    def from_commuting_pair(cls, rho, sigma) -> "SpectrumDistribution":
        rm = _as_state_matrix(rho)
        sm = _as_matrix(sigma)
        if not commutes(rm, sm):
            raise ValueError(
                f"operators do not commute (defect {commutator_defect(rm, sm):.3e}); "
                "use certificate bounds for non-commuting pairs"
            )
        qv, pv = joint_eigenvalues(sm, rm)
        return cls.from_vectors(pv, qv)

    def convolve(self, other: "SpectrumDistribution") -> "SpectrumDistribution":
        """Tensor-product spectrum: atomwise sums of ratios, products of weights."""
        llr = (self.llr[:, None] + other.llr[None, :]).ravel()
        wt = (self.weight[:, None] * other.weight[None, :]).ravel()
        out = _merge_atoms(llr, wt)
        if out.natoms > ATOM_CAP:
            raise BudgetExceededError(f"spectrum atom count {out.natoms} exceeds the cap {ATOM_CAP}")
        return out

    def dmax(self) -> float:
        return float(self.llr[-1]) if self.natoms else -math.inf

    def mass_above(self, log2_threshold: float) -> float:
        """rho-mass of atoms with llr > log2_threshold."""
        return float(self.weight[np.searchsorted(self.llr, log2_threshold, side="right") :].sum())

    def smoothing_oracle(self, lam: float) -> float:
        """Exact water-filling epsilon on the atoms, in closed form.

        p'_x = min(c p_x, 2^lam q_x) caps exactly the atoms whose ratio
        2^lam q_x / p_x lies below c, a suffix of the llr order. With atoms
        k.. capped, c = (1 - their cap mass) / (p mass of atoms ..k-1), and k
        is the first atom whose ratio c reaches: the first at whose ratio the
        water-filled mass is at most 1. If the total cap mass is at most 1,
        every atom is capped. The weights are renormalized, since n-fold
        convolution drifts their sum by about 1e-14.
        """
        total = self.total_mass
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"spectrum mass {total!r} is not 1; oracle needs a normalized rho")
        p = self.weight / total
        # q = weight 2^-llr keeps its mass, so the cap 2^lam q is total 2^(lam - llr) p
        with np.errstate(invalid="ignore"):
            ratio = total * np.exp2(np.minimum(lam - self.llr, _EXP2_CLIP))
        ratio[np.isposinf(self.llr)] = 0.0  # q = 0: no cap, also at lam = inf
        cap = ratio * p
        # tail[k] is the cap mass of atoms k.., head[k - 1] the p mass of atoms ..k-1
        tail = np.append(np.cumsum(cap[::-1])[::-1], 0.0)
        target = float(tail[0])
        if target <= 1.0:
            ptilde = cap
        else:
            head = np.cumsum(p)
            k = 1 + int(np.argmax(np.append(ratio[1:], 0.0) * head + tail[1:] <= 1.0))
            c = (1.0 - tail[k]) / head[k - 1]
            ptilde, target = np.minimum(c * p, cap), 1.0
        resid = abs(float(ptilde.sum()) - target)
        if resid > KKT_TOL:
            raise ArithmeticError(f"water-filling mass residual {resid:.3e} exceeds {KKT_TOL}")
        if float((ptilde - cap).max(initial=0.0)) > KKT_TOL:
            raise ArithmeticError("water-filling cap constraint violated")
        return _purified_epsilon(p, ptilde, target)


def _merge_atoms(llr: np.ndarray, wt: np.ndarray) -> SpectrumDistribution:
    """Atoms sorted by llr, with ratios within MERGE_TOL of their neighbour summed into one."""
    keep = wt > 0
    llr, wt = llr[keep], wt[keep]
    order = np.argsort(llr, kind="stable")
    llr, wt = llr[order], wt[order]
    with np.errstate(invalid="ignore"):
        # nan differences come from two +inf ratios: same class
        starts = np.flatnonzero(np.diff(llr, prepend=-math.inf) > MERGE_TOL)
    out_llr, out_w = llr[starts], np.add.reduceat(wt, starts)
    for arr in (out_llr, out_w):
        arr.flags.writeable = False
    return SpectrumDistribution(out_llr, out_w)


@dataclass(frozen=True)
class SmoothingCertificate:
    """Certified bracket for one smoothing evaluation at budget lam.

    lower <= epsilon <= upper always; exact is present on the commuting path
    and witness on the one-shot path. meta records n, rate, the converse
    parameter t, v_n, and which path produced the numbers.
    """

    lam: float
    lower: float
    upper: float
    exact: float | None = None
    witness: StateDescriptor | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.exact is not None:
            if not (self.lower - 1e-9 <= self.exact <= self.upper + 1e-9):
                raise ValueError(
                    f"certificate bracket violated: {self.lower!r} <= {self.exact!r} <= {self.upper!r}"
                )
        elif self.lower > self.upper + 1e-9:
            raise ValueError(f"certificate bracket empty: [{self.lower!r}, {self.upper!r}]")


def _grid_divergences(curve: RenyiDivergenceCurve) -> tuple[np.ndarray, np.ndarray]:
    """(s, D_{1+s}) on 400 geometric points in [1e-4, 64]; every grid point gives a valid bound.

    All 400 orders go through one kernel call; mass of rho outside supp(sigma)
    makes every D_{1+s} infinite, as divergence() has it.
    """
    s = np.geomspace(1e-4, 64.0, 400)
    alpha = 1.0 + s
    if curve.support_violation > SUPPORT_VIOLATION_TOL:
        return s, np.full_like(s, math.inf)
    return s, curve.log2_q(alpha) / (alpha - 1.0)


def smoothing_certificate(rho, sigma, lam: float, *, t: float = DEFAULT_CONVERSE_T) -> SmoothingCertificate:
    """One-shot certificate: the n = 1 iid certificate at rate lam, upper bound min'd with the witness.

    The witness's achieved epsilon is recorded as meta["witness_achieved"].
    """
    [cert] = iid_smoothing_certificate(rho, sigma, lam, [1], t=t)
    witness, achieved = pinched_smoothing_witness(rho, sigma, lam)
    return replace(
        cert,
        upper=min(cert.upper, achieved),
        witness=witness,
        meta=dict(cert.meta, witness_achieved=achieved),
    )


def iid_smoothing_certificate(
    rho,
    sigma,
    r: float,
    ns,
    *,
    t: float = DEFAULT_CONVERSE_T,
) -> list[SmoothingCertificate]:
    """Certificates for smoothing rho^(x n) against sigma^(x n) at budget n r, one per n in ns.

    The s-grid divergences, the commuting decision, the base spectrum and
    the distinct-eigenvalue counts v_1..v_max(ns) of sigma's tensor powers do
    not depend on n and are computed once. Commuting pairs get the exact
    spectrum-path epsilon plus the bracket; the n-fold spectrum is the
    previous n's convolved with the base once more (restarting from the base
    when n decreases), so a list 1..N convolves N - 1 times. The base is the
    spectrum of (rho, 2^r sigma), its ratios shifted by r: the n-fold ratios
    that decide the budget n r then sum to near 0, where each convolution
    rounds them finest, instead of to near n r. Non-commuting
    pairs get the bracket only. Past _EXP2_CLIP, or at t = inf, their
    converse reads rho's mass on the kernel of sigma, decided on sigma
    itself; below it, Schur-Weyl blocks: _QubitBlocks for qubits, with each
    m's blocks built once for all n, and _IrrepBlocks for larger dimensions
    d, with each n's irrep blocks built once. Those read vectors of d^n
    entries, so an n > 1 below _EXP2_CLIP with d^n above TENSOR_BUDGET
    raises BudgetExceededError before any certificate is computed.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if math.isnan(r):
        raise ValueError("the budget rate r (lam of a one-shot certificate) must be a number, got nan")
    ns = list(ns)
    if any(n < 1 for n in ns):
        raise ValueError("n must be >= 1")
    rm = _as_state_matrix(rho)
    sm = _as_matrix(sigma)
    s_grid, d_grid = _grid_divergences(RenyiDivergenceCurve(rm, sm))
    v = distinct_eigenvalue_counts_iid(sm, max(ns, default=1))
    commuting = commutes(rm, sm)
    base = blocks = None
    if not commuting:
        d = rm.shape[0]
        # the d >= 3 blocks read vectors of d^n entries, which TENSOR_BUDGET caps
        n_blocks = max((n for n in ns if n > 1 and n * r < _EXP2_CLIP), default=1)
        if d > 2 and d**n_blocks > TENSOR_BUDGET:
            raise BudgetExceededError(f"Schur-Weyl basis dim {d}^{n_blocks} exceeds budget {TENSOR_BUDGET}")
        blocks = _QubitBlocks(rm, sm) if d == 2 else _IrrepBlocks(rm, sm)
    # rho's mass on the kernel of sigma, which non-commuting budgets past _EXP2_CLIP, and t = inf, read
    past_clip = not commuting and (math.isinf(t) or max(ns, default=1) * r >= _EXP2_CLIP)
    kernel_mass = _dense_converse_mass(rm, sm, math.inf) if past_clip else None
    if commuting:
        shift = min(max(r, -_EXP2_CLIP), _EXP2_CLIP)  # so that n shift stays finite
        joint = SpectrumDistribution.from_commuting_pair(rm, sm)
        base = SpectrumDistribution(joint.llr - shift, joint.weight)
    spectrum, power = base, 1
    certificates = []
    for n in ns:
        lam = n * r
        # D_{1+s} of the n-fold pair is n D_{1+s}
        upper = _least_achievability(s_grid, d_grid * n, v[n - 1], lam)
        if commuting:
            if n < power:
                spectrum, power = base, 1
            while power < n:
                spectrum, power = spectrum.convolve(base), power + 1
            lam_shifted = lam - n * shift  # 0 unless |r| > _EXP2_CLIP
            exact = spectrum.smoothing_oracle(lam_shifted)
            lower = _converse_from_mass(spectrum.mass_above(math.log2(t) + lam_shifted), t)
        elif lam >= _EXP2_CLIP or math.isinf(t):
            # c = inf: rho^(x n)'s mass off supp(sigma)^(x n) is 1 - (1 - kernel_mass)^n; a
            # product of support eigenvalues is no kernel however small
            exact, lower = None, _converse_from_mass(0.0 - math.expm1(n * math.log1p(-min(kernel_mass, 1.0))), t)
        else:
            exact, lower = None, blocks.converse(n, lam, t)
        certificates.append(
            SmoothingCertificate(
                lam=lam,
                lower=lower,
                upper=upper,
                exact=exact,
                witness=None,
                meta={"n": n, "r": r, "t": t, "commuting": commuting, "v_n": v[n - 1]},
            )
        )
    return certificates
