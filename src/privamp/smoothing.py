"""Max-relative-entropy smoothing: exact commuting oracle and certified bounds.

The smoothing quantity at budget lambda is the least purified distance from
rho to a subnormalized rho' with rho' <= 2^lambda sigma. Commuting pairs admit
an exact water-filling solution on the joint spectrum; general pairs get a
certified [converse, achievability] bracket plus an explicit pinched witness.
iid inputs never materialize tensor powers: the joint spectrum is convolved
as a weighted atom list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    ATOM_CAP,
    BudgetExceededError,
    SUPPORT_CUT,
    _as_matrix,
    commutator_defect,
    commutes,
    distinct_eigenvalue_count_iid,
    eig,
    pinching,
    simultaneous_eigenbasis,
    tensor_power,
)
from .measures import SUPPORT_VIOLATION_TOL, RenyiDivergenceCurve, _log2sumexp2
from .states import CQState, StateDescriptor, _as_state_matrix

KKT_TOL = 1e-9
WITNESS_PSD_TOL = 1e-9
MERGE_TOL = 1e-12
WATER_FILL_ITERS = 60
SMOOTH_MIN_ENTROPY_RESOLUTION = 1e-6
DEFAULT_CONVERSE_T = 9.0
_EXP2_CLIP = 1000.0


def _exp2_clipped(x: float) -> float:
    return float(np.exp2(min(x, _EXP2_CLIP)))


def _water_fill(p, q, lam: float):
    """(p, p', target) with p'_x = min(c p_x, 2^lam q_x) of total mass target.

    target = min(1, total cap mass) and c is found by bisection. KKT
    residuals of the solution are checked to KKT_TOL.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError(f"p and q must be equal-length vectors, got {p.shape} and {q.shape}")
    if float(p.min(initial=0.0)) < -1e-12 or float(q.min(initial=0.0)) < -1e-12:
        raise ValueError("p and q must be nonnegative")
    p = np.clip(p, 0.0, None)
    q = np.clip(q, 0.0, None)
    if abs(float(p.sum()) - 1.0) > 1e-9:
        raise ValueError(f"p must be normalized, sums to {p.sum()!r}")
    factor = _exp2_clipped(lam)
    cap = np.where(q > 0, factor * q, 0.0)
    supp = p > 0
    total_cap = float(cap[supp].sum())
    if total_cap <= 1.0:
        ptilde = np.where(supp, cap, 0.0)
        target = total_cap
    else:
        def mass(c: float) -> float:
            return float(np.minimum(c * p[supp], cap[supp]).sum())

        c_hi = 1.0
        guard = 0
        while mass(c_hi) < 1.0:
            c_hi *= 2.0
            guard += 1
            if guard > 300:
                raise ArithmeticError("water-filling bisection failed to bracket")
        c_lo = 0.0
        for _ in range(WATER_FILL_ITERS):
            mid = 0.5 * (c_lo + c_hi)
            if mass(mid) < 1.0:
                c_lo = mid
            else:
                c_hi = mid
        ptilde = np.where(supp, np.minimum(c_hi * p, cap), 0.0)
        target = 1.0
    resid = abs(float(ptilde.sum()) - target)
    if resid > KKT_TOL:
        raise ArithmeticError(f"water-filling mass residual {resid:.3e} exceeds {KKT_TOL}")
    if float((ptilde - cap).max(initial=0.0)) > KKT_TOL:
        raise ArithmeticError("water-filling cap constraint violated")
    return p, ptilde, target


def classical_smoothing_oracle(p, q, lam: float):
    """Exact smoothing of a classical pair: min purified distance to p' <= 2^lam q.

    Water-filling: p'_x = min(c p_x, 2^lam q_x) with c chosen by bisection so
    that the total mass is min(1, total cap mass). Returns (epsilon, p') with
    epsilon = sqrt(1 - F^2), F = sum sqrt(p p'). KKT residuals of the
    solution are checked to KKT_TOL internally.
    """
    p, ptilde, target = _water_fill(p, q, lam)
    return _purified_epsilon(p, ptilde, target), ptilde


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
    log2_bounds = 0.5 * (1.0 + s * math.log2(v_count) + s * (d - lam))
    return float(np.exp2(np.min(log2_bounds, initial=0.0)))


def achievability_bound(rho, sigma, lam: float, s: float) -> float:
    """Pinching-based upper bound on the smoothing quantity at budget lam, order 1+s."""
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    if s == 0.0:
        return 1.0
    curve = rho if isinstance(rho, RenyiDivergenceCurve) else RenyiDivergenceCurve(rho, sigma)
    v = eig(_as_matrix(sigma)).distinct_count
    return _least_achievability(s, curve.divergence(1.0 + s).value, v, lam)


def converse_bound(rho, sigma, lam: float, t: float = DEFAULT_CONVERSE_T) -> float:
    """Lower bound on the smoothing quantity from the mass above t 2^lam sigma.

    With p = tr rho {rho > t 2^lam sigma}, any feasible smoothing is at least
    sqrt(p (1 - 2/sqrt(t) - p/t)) whenever that parenthesis is positive.
    """
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    rm = _as_state_matrix(rho)
    sm = _as_matrix(sigma)
    c = t * float(np.exp2(lam)) if lam < _EXP2_CLIP else math.inf
    if math.isinf(c):
        sd = eig(sm)
        wmax = float(sd.eigenvalues[0])
        kernel = sd.eigenvalues <= SUPPORT_CUT * max(wmax, 0.0)
        if not kernel.any():
            return 0.0
        k = sd.eigenvectors[:, kernel]
        a = k.conj().T @ rm @ k
        w = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
        p = float(w[w > 0].sum())
    else:
        diff = rm - c * sm
        w, u = np.linalg.eigh(diff)
        pos = w > 1e-12 * (1.0 + float(np.max(np.abs(w))))
        if not pos.any():
            return 0.0
        cols = u[:, pos]
        p = float(np.einsum("ij,jk,ki->", cols.conj().T, rm, cols).real)
    return _converse_from_mass(p, t)


def _converse_from_mass(p: float, t: float) -> float:
    p = min(max(p, 0.0), 1.0)
    inner = 1.0 - 2.0 / math.sqrt(t) - p / t
    return math.sqrt(p * max(0.0, inner))


@dataclass(frozen=True)
class SpectrumDistribution:
    """Joint spectrum of a commuting pair as weighted atoms.

    Each atom is an eigenvalue class: log2_p and log2_q are the log
    eigenvalues of rho and sigma on that class and weight is the total
    rho-mass (eigenvalue times multiplicity), so weights sum to tr rho.
    Atoms with zero rho-eigenvalue are dropped; log2_q may be -inf.
    """

    log2_p: np.ndarray
    log2_q: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        for arr in (self.log2_p, self.log2_q, self.weight):
            if arr.shape != self.log2_p.shape or arr.ndim != 1:
                raise ValueError("atom arrays must be equal-length vectors")
        if float(self.weight.min(initial=0.0)) < -1e-12:
            raise ValueError("atom weights must be nonnegative")

    @property
    def natoms(self) -> int:
        return self.log2_p.size

    @property
    def total_mass(self) -> float:
        return float(self.weight.sum())

    @classmethod
    def from_vectors(cls, p, q) -> "SpectrumDistribution":
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        keep = p > 0
        with np.errstate(divide="ignore"):
            return _merge_atoms(
                np.log2(p[keep]), np.log2(np.where(q[keep] > 0, q[keep], 0.0)), p[keep]
            )

    @classmethod
    def from_commuting_pair(cls, rho, sigma) -> "SpectrumDistribution":
        rm = _as_state_matrix(rho)
        sm = _as_matrix(sigma)
        if not commutes(rm, sm):
            raise ValueError(
                f"operators do not commute (defect {commutator_defect(rm, sm):.3e}); "
                "use certificate bounds for non-commuting pairs"
            )
        u = simultaneous_eigenbasis(sm, rm)
        pv = np.clip(np.real(np.einsum("ij,jk,ki->i", u.conj().T, rm, u)), 0.0, None)
        qv = np.clip(np.real(np.einsum("ij,jk,ki->i", u.conj().T, sm, u)), 0.0, None)
        return cls.from_vectors(pv, qv)

    def convolve(self, other: "SpectrumDistribution") -> "SpectrumDistribution":
        """Tensor-product spectrum: atomwise sums of logs, products of weights."""
        lp = (self.log2_p[:, None] + other.log2_p[None, :]).ravel()
        with np.errstate(invalid="ignore"):
            lq = (self.log2_q[:, None] + other.log2_q[None, :]).ravel()
        wt = (self.weight[:, None] * other.weight[None, :]).ravel()
        out = _merge_atoms(lp, lq, wt)
        if out.natoms > ATOM_CAP:
            raise BudgetExceededError(f"spectrum atom count {out.natoms} exceeds the cap {ATOM_CAP}")
        return out

    def log2_q_alpha(self, alpha: float) -> float:
        """log2 Q_alpha of the pair: sum over atoms of w 2^((alpha-1)(log p - log q))."""
        with np.errstate(invalid="ignore"):
            ratio = self.log2_p - self.log2_q
        pos = self.weight > 0
        terms = np.log2(self.weight[pos]) + (alpha - 1.0) * ratio[pos]
        return _log2sumexp2(terms)

    def divergence(self, alpha: float) -> float:
        return self.log2_q_alpha(alpha) / (alpha - 1.0)

    def dmax(self) -> float:
        pos = self.weight > 0
        if not pos.any():
            return -math.inf
        return float((self.log2_p[pos] - self.log2_q[pos]).max())

    def mass_above(self, log2_threshold: float) -> float:
        """rho-mass of atoms with log2 p > log2_threshold + log2 q."""
        with np.errstate(invalid="ignore"):
            cond = self.log2_p > log2_threshold + self.log2_q
        return float(self.weight[cond].sum())

    def smoothing_oracle(self, lam: float):
        """Exact water-filling on the atom classes; returns (epsilon, atom p').

        The weights are renormalized, since n-fold convolution drifts their sum
        by about 1e-14.
        """
        if abs(self.total_mass - 1.0) > 1e-9:
            raise ValueError(f"spectrum mass {self.total_mass!r} is not 1; oracle needs a normalized rho")
        with np.errstate(invalid="ignore", over="ignore"):
            q_eff = self.weight * np.exp2(np.clip(self.log2_q - self.log2_p, -_EXP2_CLIP, _EXP2_CLIP))
        q_eff = np.where(np.isneginf(self.log2_q), 0.0, q_eff)
        p, ptilde, target = _water_fill(self.weight / self.total_mass, q_eff, lam)
        return _purified_epsilon(p, ptilde, target), ptilde


def _merge_atoms(lp: np.ndarray, lq: np.ndarray, wt: np.ndarray, tol: float = MERGE_TOL) -> SpectrumDistribution:
    keep = wt > 0
    lp, lq, wt = lp[keep], lq[keep], wt[keep]
    if lp.size == 0:
        return SpectrumDistribution(lp, lq, wt)
    order = np.lexsort((lq, lp))
    lp, lq, wt = lp[order], lq[order], wt[order]
    with np.errstate(invalid="ignore"):
        dp = np.abs(np.diff(lp))
        dq = np.abs(np.diff(lq))
    # nan differences come from matching -inf log2_q entries: same class
    new_group = (dp > tol) | (dq > tol)
    starts = np.concatenate(([True], new_group))
    idx = np.flatnonzero(starts)
    merged_w = np.add.reduceat(wt, idx)
    out_lp, out_lq, out_w = lp[idx].copy(), lq[idx].copy(), merged_w
    for arr in (out_lp, out_lq, out_w):
        arr.flags.writeable = False
    return SpectrumDistribution(out_lp, out_lq, out_w)


def iid_spectrum(base: SpectrumDistribution, n: int) -> SpectrumDistribution:
    """n-fold convolution of a base joint spectrum with atom merging."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = base
    for _ in range(n - 1):
        out = out.convolve(base)
    return out


@dataclass(frozen=True)
class SmoothingCertificate:
    """Certified bracket for one smoothing evaluation at budget lam.

    lower <= epsilon <= upper always; exact is present on the commuting path
    and witness on the one-shot dense path. meta records n, rate, the
    converse parameter t, and which path produced the numbers.
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
    """One-shot certificate for a single (rho, sigma, lam), witness included."""
    rm = _as_state_matrix(rho)
    sm = _as_matrix(sigma)
    s_grid, d_grid = _grid_divergences(RenyiDivergenceCurve(rm, sm))
    upper = _least_achievability(s_grid, d_grid, eig(sm).distinct_count, lam)
    lower = converse_bound(rm, sm, lam, t)
    witness, achieved = pinched_smoothing_witness(rm, sm, lam)
    exact = None
    commuting = commutes(rm, sm)
    upper = min(upper, achieved)
    if commuting:
        spectrum = SpectrumDistribution.from_commuting_pair(rm, sm)
        exact, _ = spectrum.smoothing_oracle(lam)
    return SmoothingCertificate(
        lam=lam,
        lower=lower,
        upper=upper,
        exact=exact,
        witness=witness,
        meta={"t": t, "commuting": commuting, "witness_achieved": achieved},
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

    The s-grid divergences, the commuting decision and the base spectrum do
    not depend on n and are computed once. Commuting pairs get the exact
    spectrum-path epsilon plus the bracket; the n-fold spectrum continues the
    convolution chain of the previous n (restarting from the base when n
    decreases), the same chain iid_spectrum runs. Non-commuting pairs get the
    bracket only, with the converse computed on a dense tensor power under a
    budget.
    """
    ns = list(ns)
    if any(n < 1 for n in ns):
        raise ValueError("n must be >= 1")
    rm = _as_state_matrix(rho)
    sm = _as_matrix(sigma)
    s_grid, d_grid = _grid_divergences(RenyiDivergenceCurve(rm, sm))
    commuting = commutes(rm, sm)
    base = SpectrumDistribution.from_commuting_pair(rm, sm) if commuting else None
    spectrum, power = base, 1
    certificates = []
    for n in ns:
        lam = n * r
        v_n = distinct_eigenvalue_count_iid(sm, n)
        # D_{1+s} of the n-fold pair is n D_{1+s}
        upper = _least_achievability(s_grid, d_grid * n, v_n, lam)
        if commuting:
            if n < power:
                spectrum, power = base, 1
            while power < n:
                spectrum, power = spectrum.convolve(base), power + 1
            exact, _ = spectrum.smoothing_oracle(lam)
            lower = _converse_from_mass(spectrum.mass_above(math.log2(t) + lam), t)
        else:
            exact = None
            lower = converse_bound(tensor_power(rm, n), tensor_power(sm, n), lam, t)
        certificates.append(
            SmoothingCertificate(
                lam=lam,
                lower=lower,
                upper=upper,
                exact=exact,
                witness=None,
                meta={"n": n, "r": r, "t": t, "commuting": commuting, "v_n": v_n},
            )
        )
    return certificates


def smooth_min_entropy(cq: CQState, eps: float) -> float:
    """Smooth min-entropy H_min^eps(X|E) of a commuting CQ state.

    Defined through the exact smoothing oracle: the negative of the least
    budget lambda at which the smoothing quantity against 1_X (x) rho_E drops
    to eps, located by bisection to SMOOTH_MIN_ENTROPY_RESOLUTION in lambda.
    Requires every conditional to commute with the marginal (classical_pair
    raises otherwise); non-commuting inputs should use certificate bounds
    instead.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    p, q = cq.classical_pair()
    spectrum = SpectrumDistribution.from_vectors(p, q)

    def eps_at(lam: float) -> float:
        return spectrum.smoothing_oracle(lam)[0]

    hi = spectrum.dmax()
    if eps_at(hi) > eps:
        raise ArithmeticError("smoothing at the max-relative-entropy budget is not zero")
    step = 1.0
    lo = hi - step
    while eps_at(lo) <= eps:
        hi = lo
        step *= 2.0
        lo = hi - step
        if step > 2.0**64:
            raise ArithmeticError("failed to bracket the smoothing budget")
    while hi - lo > SMOOTH_MIN_ENTROPY_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if eps_at(mid) <= eps:
            hi = mid
        else:
            lo = mid
    return -hi
