"""Max-relative-entropy smoothing: exact commuting oracle and certified bounds.

The smoothing quantity at budget lambda is the least purified distance from
rho to a subnormalized rho' with rho' <= 2^lambda sigma. Commuting pairs admit
an exact water-filling solution on the joint spectrum; general pairs get a
certified [converse, witness] bracket. iid_smoothing_certificate is the one
certificate path and computes each n-independent object once; the one-shot
certificate is its n = 1 case. Every upper bound is the pinched witness at
n copies: with E the pinching onto the v_n eigenspaces of sigma^(x n) and Q
the projector onto {E(rho^(x n)) <= 2^lam / v_n sigma^(x n)}, the pinching
inequality rho <= v E(rho) (Hayashi, J. Phys. A 35, 10759, 2002) makes
Q rho^(x n) Q <= 2^lam sigma^(x n), and its purified distance to rho^(x n)
is sqrt(delta (2 - delta)), delta the mass of E(rho^(x n)) at log-likelihood
ratios above lam - log2 v_n. By Markov's inequality and data processing of
Q_{1+s}, that is never above the Renyi pinching bound
sqrt(2 v_n^s 2^(-s lam) Q_{1+s}(rho^(x n) || sigma^(x n))) at any order s.
Commuting iid inputs never materialize tensor powers: the joint spectrum,
which is its own pinching, is a list of atoms, each a log-likelihood ratio
log2 p - log2 q with its rho-mass, sorted by ratio and convolved as such.
The water-filling oracle, the converse mass, delta and D_max read only that
list, so each is a prefix or suffix sum over it and the oracle is in closed
form. Non-commuting pairs form no tensor power either: their converse and
their pinched atoms are read from the Schur-Weyl blocks of the n-fold pair,
one GL(d) irrep at a time in its Gelfand-Tsetlin basis, by the same path
for every dimension d.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .operators import (
    ATOM_CAP,
    BudgetExceededError,
    SUPPORT_CUT,
    _as_matrix,
    _eigenspace_logs,
    commutator_defect,
    commutes,
    distinct_eigenvalue_counts_iid,
    eig,
    joint_eigenvalues,
)
from .measures import max_relative_entropy

KKT_TOL = 1e-9
MERGE_TOL = 1e-12
DEFAULT_CONVERSE_T = 9.0
BLOCK_BUDGET = 4096
_EXP2_CLIP = 1000.0


def _purified_epsilon(p, ptilde, target: float) -> float:
    """sqrt(1 - F^2) for F = sum sqrt(p p'), p normalized and p' of mass target.

    1 - F comes from (sum (sqrt p - sqrt p')^2 + 1 - target) / 2, which does
    not cancel below epsilon = 1e-7 as 1 - F^2 does.
    """
    one_minus_f = 0.5 * (float(((np.sqrt(p) - np.sqrt(ptilde)) ** 2).sum()) + (1.0 - target))
    return math.sqrt(max(0.0, one_minus_f * (2.0 - one_minus_f)))


def _kernel_mass(rm: np.ndarray, sm: np.ndarray) -> float:
    """tr rho {rho > c sigma} at c = inf: rho's mass on the kernel of sigma, its eigenvalues at most SUPPORT_CUT times the largest."""
    sd = eig(sm)
    wmax = float(sd.eigenvalues[0])
    kernel = sd.eigenvalues <= SUPPORT_CUT * max(wmax, 0.0)
    if not kernel.any():
        return 0.0
    k = sd.eigenvectors[:, kernel]
    a = k.conj().T @ rm @ k
    w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    return float(w[w > 0].sum())


def _converse_from_mass(p: float, t: float) -> float:
    p = min(max(p, 0.0), 1.0)
    inner = 1.0 - 2.0 / math.sqrt(t) - p / t
    return math.sqrt(p * max(0.0, inner))


def _log2(x: float) -> float:
    return math.log2(x) if x > 0 else -math.inf


def _partitions(n: int, rows: int, top: int):
    """Partitions of n into at most `rows` parts of at most top each, parts descending; the first is at least n / rows."""
    if n == 0:
        yield ()
    elif rows > 0:
        for first in range(min(n, top), (n - 1) // rows, -1):
            for rest in _partitions(n - first, rows - 1, first):
                yield (first, *rest)


def _standard_tableaux(lam: tuple[int, ...]) -> int:
    """f_lam, the number of standard Young tableaux of shape lam, by the hook length formula."""
    heights = [sum(1 for row in lam if row > j) for j in range(lam[0])]
    hooks = math.prod(row - j + heights[j] - i - 1 for i, row in enumerate(lam) for j in range(row))
    return math.factorial(sum(lam)) // hooks


@functools.cache
def _irreps(n: int, d: int) -> tuple[tuple[tuple[int, ...], int, float], ...]:
    """(shape, k, log2 f_lam) per partition lam of n with at most d rows: lam is shape + k (1, .., 1), shape[-1] = 0."""
    lams = [lam + (0,) * (d - len(lam)) for lam in _partitions(n, d, n)]
    return tuple((tuple(x - lam[-1] for x in lam), lam[-1], math.log2(_standard_tableaux(lam))) for lam in lams)


def _largest_block(n: int, d: int) -> int:
    """Rows of the largest Schur-Weyl block at n, the largest d_lam over the partitions lam of n with at most d rows.

    d_lam = prod_(i < k) (lam_i - lam_k + k - i) / (k - i) is Weyl's dimension formula; it needs no f_lam (_irreps).
    If lam = (n) has C(n + d - 1, d - 1) > BLOCK_BUDGET rows, those are returned; else at most as many lam are listed.
    """
    if (rows := math.comb(n + d - 1, d - 1)) > BLOCK_BUDGET:
        return rows
    pairs = list(itertools.combinations(range(d), 2))
    padded = (lam + (0,) * (d - len(lam)) for lam in _partitions(n, d, n))
    return max(math.prod(lam[i] - lam[k] + k - i for i, k in pairs) for lam in padded) // math.prod(k - i for i, k in pairs)


@functools.cache
def _gt_irrep(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The GL(d) irrep of highest weight `shape`, d = len(shape), in its orthonormal Gelfand-Tsetlin basis.

    Returns the weights, one row per basis vector (pi(E_kk) is the diagonal
    of column k), and each nonzero entry of the off-diagonal pi(E_ij) as its
    flat index, the flat index i d + j of its root, and its value.
    pi(E_(k,k+1)) is Molev's formula for the orthonormal basis
    (arXiv:math/0211289, Thm 2.3) and pi(E_(k+1,k)) its transpose; the sum
    A_h of the E_ij with j - i = h is [A_(h-1), sum_k k E_(k,k+1)] / (h - 1),
    and an entry of A_h belongs to the root by which its two weights differ.
    Basis vectors run from the highest weight down: the blocks are graded
    that way, and eigh is more accurate on them so.
    """
    d = len(shape)
    patterns = [(shape,)]  # row k, of length k, is pattern[d - k]; each interlaces the row above
    for _ in range(d - 1):
        patterns = [(*p, r) for p in patterns for r in itertools.product(*(range(a, b - 1, -1) for a, b in zip(p[-1], p[-1][1:])))]
    index = {p: a for a, p in enumerate(patterns)}
    weights = np.diff([[0, *(sum(row) for row in reversed(p))] for p in patterns], axis=1)
    up, tilted = np.zeros((2, len(patterns), len(patterns)))
    for b, p in enumerate(patterns):
        for k in range(1, d):
            # Molev's l_ki = lam_ki - i + 1 (i counted from 1) on rows k + 1, k and k - 1
            above, row, below = ([x - i for i, x in enumerate(r)] for r in (*p, ())[d - k - 1 : d - k + 2])
            for i, x in enumerate(row):
                if x < above[i] and (i == 0 or x < below[i - 1] - 1):  # raising lam_ki keeps the interlacing
                    a = index[p[: d - k] + (p[d - k][:i] + (p[d - k][i] + 1,) + p[d - k][i + 1 :],) + p[d - k + 1 :]]
                    num = -math.prod(x - y for y in above) * math.prod(x - y + 1 for y in below)
                    up[a, b] = math.sqrt(num / math.prod((x - y) * (x - y + 1) for y in row[:i] + row[i + 1 :]))
                    tilted[a, b] = k * up[a, b]
    level, gens = up, up.copy()
    for h in range(2, d):
        level = (level @ tilted - tilted @ level) / (h - 1)
        gens += level
    gens = gens + gens.T  # pi(E_ji) = pi(E_ij)^T, nonzero where pi(E_ij) is not
    rows, cols = np.nonzero(gens)
    diff = weights[rows] - weights[cols]
    root = np.abs(diff).sum(axis=1) == 2  # the rest are rounding left by cancelling terms
    rows, cols, diff = rows[root], cols[root], diff[root]
    return weights, rows * len(patterns) + cols, diff.argmax(axis=1) * d + diff.argmin(axis=1), gens[rows, cols]


def _unitary_log(u: np.ndarray) -> np.ndarray:
    """A Hermitian h with exp(i h) = u, from the Cayley transform of u turned by a global phase.

    The phase puts the middle of the widest gap between u's eigenvalues at
    -1. Then i (1 - u)(1 + u)^-1 is Hermitian with eigenvalues tan(theta / 2),
    one-to-one in the eigenvalue angle theta, so its eigh separates
    eigenvalues of u that nearly coincide in either their real or their
    imaginary part.
    """
    angles = sorted(np.angle(np.linalg.eigvals(u)).tolist())
    gap, start = max((b - a, a) for a, b in zip(angles, angles[1:] + [angles[0] + 2.0 * math.pi]))
    turned, one = u * np.exp(1j * (math.pi - start - gap / 2.0)), np.eye(len(u))
    k = 1j * np.linalg.solve(one + turned, one - turned)
    w, v = np.linalg.eigh((k + k.conj().T) / 2.0)
    return (v * (2.0 * np.arctan(w) + start + gap / 2.0 - math.pi)) @ v.conj().T


def _gt_exp(shape: tuple[int, ...], h: np.ndarray) -> np.ndarray:
    """pi(exp(i h)) = exp(i pi(h)) in the Gelfand-Tsetlin basis of the irrep `shape`, for Hermitian h."""
    weights, entries, roots, values = _gt_irrep(shape)
    gen = np.zeros(len(weights) ** 2, dtype=complex)
    gen[entries] = values * h.ravel()[roots]
    gen[:: len(weights) + 1] = weights @ h.diagonal().real
    mu, y = np.linalg.eigh(gen.reshape(len(weights), -1))
    return (y * np.exp(1j * mu)) @ y.conj().T


class _SchurWeylBlocks:
    """The converse mass and the pinched atoms of a d-dim pair's tensor powers, d >= 2, from Schur-Weyl irrep blocks.

    (C^d)^(x n) is the sum of V_lam (x) S_lam over partitions lam of n with
    at most d rows, X^(x n) acts as pi_lam(X) (x) 1 there, and S_lam has
    dimension f_lam (Fulton-Harris, Lecture 6; Harrow, quant-ph/0512255).
    So tr rho^(x n) P_+ of rho^(x n) - c sigma^(x n) sums the masses of the
    blocks pi_lam(rho) - c pi_lam(sigma), f_lam times each. pi_lam(X) is
    det X^(lam_d) pi(X) for the irrep pi of shape lam - lam_d (1, .., 1),
    in its Gelfand-Tsetlin basis (_gt_irrep) and sigma's eigenbasis: there
    pi(sigma) is diagonal, and pi(rho) = pi(u) diag(..) pi(u)^dag for rho =
    u diag(r) u^dag, with pi(u) = exp(i pi(h)) where exp(i h) = u. Diagonal
    phases on either side of u change no block's spectrum or rho-mass;
    taken out, they leave a qubit u real. Every Gelfand-Tsetlin vector is an
    eigenvector of sigma^(x n), so the pinching onto its eigenspaces is, on
    each block, the compression of pi(rho) to the vectors of one eigenvalue
    of pi(sigma); its eigenvalues are the pinched atoms. Block scales and
    weights are kept in log2, so det^(lam_d) and f_lam stay finite at large
    n. Each shape's block and atoms are built once per instance, the largest
    of d_lam rows (_largest_block, held to BLOCK_BUDGET); no vector of d^n
    entries is formed.
    """

    def __init__(self, rm: np.ndarray, sm: np.ndarray):
        wr, ur = np.linalg.eigh(rm)
        sd = eig(sm)
        # eigenvalues descending and clipped at 0; columns to match
        r, s = np.maximum(wr[::-1], 0.0), np.maximum(sd.eigenvalues, 0.0)
        self.u = sd.eigenvectors.conj().T @ ur[:, ::-1]
        self.d = len(self.u)
        if self.d == 2:  # the rotation by the angle between the eigenbases, u up to diagonal phases
            a, c = np.abs(self.u[:, 0])
            self.u = np.array([[a, -c], [c, a]])
        self.ratios = np.stack((r / r[0], s / s[0]))
        # log2 of the top eigenvalue and of det
        self.log2_rho, self.log2_sigma = ((_log2(x[0]), float(np.log2(x).sum()) if x[-1] > 0 else -math.inf) for x in (r, s))
        # sigma's eigenvalues as v_n counts them: log2 over s1, 0 on the kernel
        logs, kernel, self.log_tol = _eigenspace_logs(sd)
        self.kernel, self.log2_s = np.flatnonzero(kernel), np.where(kernel, 0.0, logs - math.log2(s[0]))
        self._blocks: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]] = {}

    @functools.cached_property
    def _log_u(self) -> np.ndarray:
        if self.d == 2:  # exp(i phi J) with J = [[0, i], [-i, 0]] is the rotation by phi
            return math.atan2(self.u[1, 0], self.u[0, 0]) * np.array([[0.0, 1j], [-1j, 0.0]])
        return _unitary_log(self.u)

    def block(self, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """pi(rho) / r1^m, the diagonal of pi(sigma) / s1^m and the pinched atoms for the irrep `shape` of m boxes.

        The atoms are (log2 p - log2 q, p), p an eigenvalue of pi(rho) / r1^m
        compressed to an eigenspace of pi(sigma) / s1^m of eigenvalue q. An
        eigenspace is a run of basis vectors whose log2 q, summed over
        sigma's eigenvalues, agree within the tolerance by which v_n counts
        (_eigenspace_logs), and takes the least q of its run; those with
        weight on sigma's kernel have q = 0 and form one eigenspace. A
        singleton's atom is its diagonal entry. Atoms of mass p <= 0 are
        dropped.
        """
        if shape not in self._blocks:
            if sum(shape) == 1:  # C^d itself, its standard basis a Gelfand-Tsetlin basis
                weights, pu = np.eye(self.d, dtype=int), self.u
            else:
                weights, pu = _gt_irrep(shape)[0], _gt_exp(shape, self._log_u)
                pu = pu.real if np.isrealobj(self.u) else pu  # a real u has a real pi(u)
            rho_ratio, sigma_ratio = (self.ratios[:, None, :] ** weights).prod(axis=2)
            rho_l = (pu * rho_ratio) @ pu.conj().T
            log_q, p = weights @ self.log2_s, rho_l.diagonal().real.copy()
            if self.kernel.size:  # a vector with weight on sigma's kernel has q = 0
                log_q[weights[:, self.kernel].any(axis=1)] = -math.inf
            order = np.argsort(log_q, kind="stable")
            # the nan difference of two kernel vectors joins them, as the kernel is one eigenspace
            with np.errstate(invalid="ignore"):
                cuts = np.diff(log_q[order]) > self.log_tol
            if not cuts.all():  # eigenspaces of several vectors, those of one dimension in one stacked eigvalsh
                bounds = [0, *(np.flatnonzero(cuts) + 1).tolist(), len(order)]
                groups: dict[int, list[int]] = {}
                for a, b in zip(bounds, bounds[1:]):
                    if b - a > 1:
                        groups.setdefault(b - a, []).append(a)
                for size, firsts in groups.items():
                    group = order[np.array(firsts)[:, None] + np.arange(size)]
                    p[group] = np.linalg.eigvalsh(rho_l[group[:, :, None], group[:, None, :]])
                    log_q[group] = log_q[group[:, :1]]
            keep = p > 0
            self._blocks[shape] = rho_l, sigma_ratio, (np.log2(p[keep]) - log_q[keep], p[keep])
        return self._blocks[shape]

    def mass(self, n: int, log2_c: float, log2_level: float) -> tuple[float, float]:
        """tr rho^(x n) {rho^(x n) > 2^log2_c sigma^(x n)}, and the mass of E(rho^(x n)) at log2 ratios above log2_level.

        The first is the converse mass. A block 2^g w with eigenvectors v
        keeps its eigenvalues above 1e-12 (1 + max |2^g w|) over all blocks,
        the converse's one positive-eigenvalue cut, capped at
        2^(g + _EXP2_CLIP) so that exp2 stays finite; a block has |w| <= 1,
        so no cut past 2^g keeps any of it. log2_c = inf gives 0 and builds
        no difference. The second is delta, the pinched mass the witness
        drops; an atom on sigma's kernel is above every finite level.
        """
        blocks, delta = [], 0.0
        for shape, k, log2_f in _irreps(n, self.d):
            rho_l, sigma_l, (llr, p) = self.block(shape)
            # log2 of det X^k x1^m, which bounds det X^k pi(X) for a shape of m boxes and X's top eigenvalue x1
            (top_r, det_r), (top_s, det_s), m = self.log2_rho, self.log2_sigma, n - self.d * k
            la = m * top_r + (k * det_r if k else 0.0)
            ls = m * top_s + (k * det_s if k else 0.0)
            if la > -math.inf and (above := p @ (llr > log2_level - (la - ls))) > 0:
                delta += 2.0 ** (log2_f + la + math.log2(above))
            if log2_c == math.inf:
                continue
            lb = log2_c + m * top_s + (k * det_s if k else 0.0)
            g = max(la, lb)
            if g == -math.inf:
                continue  # a zero block
            w, v = np.linalg.eigh(np.exp2(la - g) * rho_l - np.diag(np.exp2(lb - g) * sigma_l))
            blocks.append((w, v, g, rho_l, log2_f + la))
        converse = 0.0
        if blocks:
            log2_max = max(g + _log2(float(np.abs(w).max())) for w, _, g, _, _ in blocks)
            log2_cut = math.log2(1e-12) + float(np.logaddexp2(0.0, log2_max))
            for w, v, g, rho_block, log2_weight in blocks:
                cols = v[:, w > np.exp2(min(log2_cut - g, _EXP2_CLIP))]
                converse += float(np.exp2(log2_weight)) * float(np.vdot(cols, rho_block @ cols).real)
        return converse, delta


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
        rm, sm = _as_matrix(rho), _as_matrix(sigma)
        if not commutes(rm, sm):
            defect = commutator_defect(rm, sm)
            raise ValueError(f"operators do not commute (defect {defect:.3e}); use certificate bounds for non-commuting pairs")
        qv, pv = joint_eigenvalues(sm, rm)
        return cls.from_vectors(pv, qv)

    def convolve(self, other: "SpectrumDistribution") -> "SpectrumDistribution":
        """Tensor-product spectrum: atomwise sums of ratios, products of weights.

        Each row of candidates is this sorted spectrum shifted by one atom of
        other, so the stable sort of _merge_atoms merges sorted runs instead
        of sorting from scratch.
        """
        llr = (other.llr[:, None] + self.llr[None, :]).ravel()
        wt = (other.weight[:, None] * self.weight[None, :]).ravel()
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

    lower <= epsilon <= upper always, and a violated or empty bracket raises
    ArithmeticError: it is an invariant of the computation, not of its input.
    lower is the converse bound and upper the pinched witness's epsilon;
    exact is present on the commuting path. meta records n, rate, the
    converse parameter t, v_n and whether the pair commutes, and on the
    one-shot path witness_achieved, which is upper.
    """

    lam: float
    lower: float
    upper: float
    exact: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.exact is not None:
            if not (self.lower - 1e-9 <= self.exact <= self.upper + 1e-9):
                raise ArithmeticError(
                    f"certificate bracket violated: {self.lower!r} <= {self.exact!r} <= {self.upper!r}"
                )
        elif self.lower > self.upper + 1e-9:
            raise ArithmeticError(f"certificate bracket empty: [{self.lower!r}, {self.upper!r}]")


def smoothing_certificate(rho, sigma, lam: float, *, t: float = DEFAULT_CONVERSE_T) -> SmoothingCertificate:
    """One-shot certificate: the n = 1 iid certificate at rate lam, its upper recorded as meta["witness_achieved"]."""
    [cert] = iid_smoothing_certificate(rho, sigma, lam, [1], t=t)
    return replace(cert, meta=dict(cert.meta, witness_achieved=cert.upper))


def iid_smoothing_certificate(
    rho,
    sigma,
    r: float,
    ns,
    *,
    t: float = DEFAULT_CONVERSE_T,
) -> list[SmoothingCertificate]:
    """Certificates for smoothing rho^(x n) against sigma^(x n) at budget n r, one per n in ns.

    The commuting decision, D_max, the base spectrum and the
    distinct-eigenvalue counts v_1..v_max(ns) of sigma's tensor powers do
    not depend on n and are computed once. Every n's upper bound is the
    pinched witness's sqrt(delta (2 - delta)), computed from delta, and 0
    where a finite D_max is at most r, which makes rho^(x n) <= 2^(n r)
    sigma^(x n). Commuting pairs get the exact spectrum-path epsilon plus
    the bracket; the n-fold spectrum is the previous n's
    convolved with the base once more (restarting from the base when n
    decreases), so a list 1..N convolves N - 1 times. The base is the
    spectrum of (rho, 2^r sigma), its ratios shifted by r: the n-fold ratios
    that decide the budget n r then sum to near 0, where each convolution
    rounds them finest, instead of to near n r. Non-commuting pairs get the
    bracket only, both sides from Schur-Weyl blocks (_SchurWeylBlocks), each
    irrep's block and atoms built once for all n. Past _EXP2_CLIP, or at t =
    inf, their converse reads rho's mass on the kernel of sigma, decided on
    sigma itself, while the witness still reads atoms where r < D_max.
    BudgetExceededError is raised before v or any bound when the largest
    n > 1 that needs a block, below _EXP2_CLIP or with r < D_max, has a
    block whose eigh and d - 2 _gt_irrep commutators, max(1, d - 2)
    d_lam^3, pass BLOCK_BUDGET^3.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if math.isnan(r):
        raise ValueError("the budget rate r (lam of a one-shot certificate) must be a number, got nan")
    ns = list(ns)
    if any(n < 1 for n in ns):
        raise ValueError("n must be >= 1")
    rm, sm = _as_matrix(rho), _as_matrix(sigma)
    commuting = commutes(rm, sm)
    d_max = max_relative_entropy(rm, sm).value
    # rho <= 2^(D_max) sigma, so a finite D_max <= r makes rho^(x n) <= 2^(n r) sigma^(x n): epsilon is 0 at every n
    dominated = r >= d_max and d_max < math.inf
    d = len(rm)
    n_blocks = 1 if commuting else max((n for n in ns if n > 1 and (n * r < _EXP2_CLIP or not dominated)), default=1)
    if n_blocks > 1 and (work := max(1, d - 2)) * (rows := _largest_block(n_blocks, d)) ** 3 > BLOCK_BUDGET**3:
        msg = f"Schur-Weyl block of {rows} rows at n = {n_blocks} exceeds budget {BLOCK_BUDGET}"
        raise BudgetExceededError(f"{msg} (work {work} x rows^3 against {BLOCK_BUDGET}^3)")
    v = distinct_eigenvalue_counts_iid(sm, max(ns, default=1))
    base, blocks = None, None if commuting else _SchurWeylBlocks(rm, sm)
    # rho's mass on the kernel of sigma, which non-commuting budgets past _EXP2_CLIP, and t = inf, read
    past_clip = not commuting and (math.isinf(t) or max(ns, default=1) * r >= _EXP2_CLIP)
    kernel_mass = _kernel_mass(rm, sm) if past_clip else None
    shift = 0.0
    if commuting:
        shift = min(max(r, -_EXP2_CLIP), _EXP2_CLIP)  # so that n shift stays finite
        joint = SpectrumDistribution.from_commuting_pair(rm, sm)
        base = SpectrumDistribution(joint.llr - shift, joint.weight)
    spectrum, power = base, 1
    certificates = []
    for n in ns:
        lam, log2_v = n * r, math.log2(v[n - 1])
        lam_shifted = lam - n * shift  # lam for a non-commuting pair; 0 for a commuting one unless |r| > _EXP2_CLIP
        # atoms on sigma's kernel have ratio inf, above every level, also at lam = inf
        level = min(lam_shifted - log2_v, sys.float_info.max)
        if commuting:
            if n < power:
                spectrum, power = base, 1
            while power < n:
                spectrum, power = spectrum.convolve(base), power + 1
            exact = spectrum.smoothing_oracle(lam_shifted)
            lower = _converse_from_mass(spectrum.mass_above(math.log2(t) + lam_shifted), t)
            delta = spectrum.mass_above(level)
        else:
            past = lam >= _EXP2_CLIP or math.isinf(t)
            if past and dominated:
                converse, delta = 0.0, 0.0
            else:
                converse, delta = blocks.mass(n, math.inf if past else math.log2(t) + lam, level)
            if past:
                # c = inf: rho^(x n)'s mass off supp(sigma)^(x n) is 1 - (1 - kernel_mass)^n; a
                # product of support eigenvalues is no kernel however small
                converse = 0.0 - math.expm1(n * math.log1p(-min(kernel_mass, 1.0)))
            exact, lower = None, _converse_from_mass(converse, t)
        delta = min(max(delta, 0.0), 1.0)
        certificates.append(
            SmoothingCertificate(
                lam=lam,
                lower=lower,
                upper=0.0 if dominated else math.sqrt(2.0 * delta - delta * delta),
                exact=exact,
                meta={"n": n, "r": r, "t": t, "commuting": commuting, "v_n": v[n - 1]},
            )
        )
    return certificates
