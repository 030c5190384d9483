"""Distance and divergence measures, all logarithms base 2.

The sandwiched Renyi family is evaluated through one cached kernel,
_SandwichedCurve, that diagonalizes the reference operator once. log2_q
takes a scalar order or a 1-D array of orders, and all orders of a call
share one stacked eigvalsh, so an exponent curve reads all its values, and
a certificate list the bounds of all its block lengths, in one call. The
combination keeps the rounding of a one-order evaluation bit for bit.
d_log2_q gives the exact order derivative d/dalpha log2 Q_alpha of any
number of orders through one stacked eigh; an exponent search pays one
such call per round for the root searches of all its rates.
RenyiDivergenceCurve (an operator pair) and ConditionalRenyiCurve (a
classical-quantum state) are its two uses; the hashing scans reuse the
latter's blocks. ConditionalRenyiCurve computes H(X|E), H_min(X|E) and
the critical rate once, on first use.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .operators import SUPPORT_CUT, _as_matrix, mat_power
from .states import CQState

ALPHA_ONE_GUARD = 1e-6
SUPPORT_VIOLATION_TOL = 1e-10
# one stacked eigvalsh holds at most this many matrix entries (64 MiB complex)
_STACK_ENTRIES = 1 << 22
# exponents for which numpy rounds ndarray ** float through square, sqrt and reciprocal
_FAST_POWERS = (2.0, 0.5, -1.0)
# scales that stay positive when a block vanishes, and a floor below every finite log-term
_TINY = sys.float_info.min
_FLOOR = -sys.float_info.max


@dataclass(frozen=True)
class DivergenceResult:
    """Value of a divergence in bits, with support diagnostics.

    support_violation is the rho-mass found outside the support of the
    reference operator; values above SUPPORT_VIOLATION_TOL force +inf for
    divergences that require support containment.
    """

    value: float
    alpha: float | None = None
    support_violation: float = 0.0


def _log2(x: np.ndarray) -> np.ndarray:
    """math.log2 on every element, with log2(0) = -inf.

    np.log2 rounds some inputs differently in the last bit; every log of the
    kernel keeps the libm rounding of math.log2.
    """
    vals = (math.log2(v) if v else -math.inf for v in x.ravel().tolist())
    return np.fromiter(vals, float, x.size).reshape(x.shape)


def _power_rows(base: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """base ** exps[k] for every k, stacked; base has one row per exponent or a single row.

    Rounded as ndarray ** float rounds it: for the _FAST_POWERS a broadcast
    np.power may call pow instead of square, sqrt or reciprocal, which can
    differ in the last bit, so those rows are redone with a float exponent.
    """
    out = np.power(base, exps.reshape((-1,) + (1,) * (base.ndim - 1)))
    for k, x in enumerate(exps.tolist()):
        if x in _FAST_POWERS:
            out[k] = np.broadcast_to(base, out.shape)[k] ** x
    return out


def _log2sumexp2(terms: np.ndarray) -> np.ndarray:
    """log2 of the sum of 2**terms along the last axis of a float array, stable against overflow.

    -inf terms add nothing, and a row of them gives -inf.
    """
    top = terms.max(axis=-1, initial=_FLOOR)
    return top + _log2(np.exp2(terms - top[..., None]).sum(axis=-1))


def _entropy_bits(w: np.ndarray) -> float:
    """Shannon entropy of a nonnegative eigenvalue vector, in bits."""
    w = np.asarray(w, dtype=float)
    w = w[w > 0]
    return float(-(w * np.log2(w)).sum()) if w.size else 0.0


def fidelity(rho, sigma) -> float:
    """Generalized fidelity of (sub)normalized states.

    ||sqrt(rho) sqrt(sigma)||_1, the sum of the singular values of the
    product of the two roots, each cut to its support, plus the
    subnormalized cross term sqrt((1 - tr rho)(1 - tr sigma)); the result is
    clamped to [0, 1]. No eigenvalue is square-rooted after the product is
    formed, so rounding on the product's kernel does not enter as its root.
    """
    rm, sm = _as_matrix(rho), _as_matrix(sigma)
    val = float(np.linalg.svd(mat_power(rm, 0.5).mat @ mat_power(sm, 0.5).mat, compute_uv=False).sum())
    tr_r = min(1.0, float(np.trace(rm).real))
    tr_s = min(1.0, float(np.trace(sm).real))
    val += math.sqrt(max(0.0, 1.0 - tr_r) * max(0.0, 1.0 - tr_s))
    return min(1.0, max(0.0, val))


def purified_distance(rho, sigma) -> float:
    """P = sqrt(1 - F^2) for the generalized fidelity F."""
    f = fidelity(rho, sigma)
    return math.sqrt(max(0.0, 1.0 - f * f))


def trace_distance(rho, sigma) -> float:
    """Generalized trace distance (1/2)(||rho - sigma||_1 + |tr rho - tr sigma|)."""
    rm, sm = _as_matrix(rho), _as_matrix(sigma)
    w = np.linalg.eigvalsh(rm - sm)
    return 0.5 * (float(np.abs(w).sum()) + abs(float(np.trace(rm - sm).real)))


def _per_order_batch(kernel):
    """Let kernel(self, orders) of a 1-D array of finite positive orders take a scalar order or an array.

    The result has the shape of the argument. A batch too large for one
    stack of _STACK_ENTRIES matrix entries goes through kernel in parts.
    """

    @functools.wraps(kernel)
    def batched(self, alpha):
        a = np.asarray(alpha, dtype=float)
        orders = a.reshape(-1)
        if any(not 0 < x < math.inf for x in orders.tolist()):
            raise ValueError(f"alpha must be positive and finite, got {alpha}")
        step = self._orders_per_stack
        out = np.concatenate([kernel(self, orders[i : i + step]) for i in range(0, max(1, orders.size), step)])
        return float(out[0]) if a.ndim == 0 else out

    return batched


class _SandwichedCurve:
    """alpha -> log2 sum_x w_x^alpha tr(sigma^e B_x sigma^e)^alpha, e = (1-alpha)/(2 alpha).

    sigma is diagonalized once and cut to its support; the blocks B_x are
    rotated into that frame, so an order costs one scaling by mu^e, and any
    number of orders share one stacked eigvalsh. alpha = inf means e = -1/2
    (D_max and H_min).
    """

    def __init__(self, blocks, weights, sigma):
        w, v = np.linalg.eigh(sigma)
        scale = max(1.0, float(np.max(np.abs(w))))
        if float(w[0]) < -1e-9 * scale:
            raise ValueError(f"reference operator not PSD: min eigenvalue {w[0]:.3e}")
        lam_max = float(w[-1])
        keep = w > SUPPORT_CUT * lam_max if lam_max > 0 else np.zeros_like(w, dtype=bool)
        self._mu = np.clip(w[keep], 0.0, None)
        vk = v[:, keep]
        self.sigma_entropy = _entropy_bits(w)
        rot = np.stack([vk.conj().T @ b @ vk for b in blocks])
        self.blocks = (rot + np.conj(np.transpose(rot, (0, 2, 1)))) / 2.0
        self.weights = np.asarray(weights, dtype=float)
        self._log2_weights = _log2(self.weights)
        self._orders_per_stack = max(1, _STACK_ENTRIES // max(1, self.blocks.size))

    def _sandwich(self, d: np.ndarray) -> np.ndarray:
        """d B_x d for every block; d = mu^e of shape (m,), or (K, m) for K orders."""
        return d[..., None, :, None] * self.blocks * d[..., None, None, :]

    def sandwiched_blocks(self, alpha: float) -> np.ndarray:
        """sigma^e B_x sigma^e for every block, in the support frame."""
        e = -0.5 if math.isinf(alpha) else (1.0 - alpha) / (2.0 * alpha)
        return self._sandwich(self._mu**e)

    @_per_order_batch
    def log2_q(self, orders):
        """log2 sum_x w_x^alpha tr((sigma^e B_x sigma^e)^alpha) on supp(sigma), through one stacked eigvalsh."""
        d = _power_rows(self._mu[None], (1.0 - orders) / (2.0 * orders))
        w = np.maximum(np.linalg.eigvalsh(self._sandwich(d)), 0.0)
        scale = w.max(axis=-1, initial=_TINY)
        sums = _power_rows(w / scale[..., None], orders).sum(axis=-1)
        ak = orders[:, None]
        return _log2sumexp2(ak * self._log2_weights + ak * _log2(scale) + _log2(sums))

    @_per_order_batch
    def d_log2_q(self, orders):
        """d/dalpha log2 Q_alpha, through one stacked eigh.

        With A_x = mu^e B_x mu^e this is the mean over x, weighted by each
        block's share of Q, of log2 w_x + tr(A^alpha (log2 A - diag(log2 mu)
        / alpha)) / tr A^alpha, read from one eigendecomposition of A_x. Each
        block's eigenvalues are scaled by its largest one, so large orders do
        not overflow; a vanished block has share 0.
        """
        lam, vec = np.linalg.eigh(self._sandwich(_power_rows(self._mu[None], (1.0 - orders) / (2.0 * orders))))
        scale = lam.max(axis=-1, initial=_TINY)
        nu = np.maximum(lam, 0.0) / scale[..., None]
        pw = _power_rows(nu, orders)
        sums = pw.sum(axis=-1)
        ak = orders[:, None]
        log_block = self._log2_weights + _log2(scale)
        log_share = ak * log_block + _log2(sums)
        share = np.exp2(log_share - log_share.max(axis=-1, keepdims=True))
        # diagonal of V^dagger diag(log2 mu) V, one entry per eigenvalue
        log_mu = (np.abs(vec) ** 2 * _log2(self._mu)[:, None]).sum(axis=-2)
        log_a = np.where(nu > 0, _log2(nu), 0.0) - log_mu / ak[..., None]
        terms = log_block + (pw * log_a).sum(axis=-1) / np.maximum(sums, _TINY)
        return (share * terms).sum(axis=-1) / share.sum(axis=-1)

    def _lambda_max(self) -> float:
        """max_x w_x lambda_max(sigma^{-1/2} B_x sigma^{-1/2}), the alpha -> inf limit."""
        w = np.linalg.eigvalsh(self.sandwiched_blocks(math.inf))
        return float((self.weights * w[:, -1]).max())


class RenyiDivergenceCurve(_SandwichedCurve):
    """Cached evaluator of alpha -> Q_alpha(rho || sigma) for one pair.

    The kernel with the single block rho of weight 1. Supports pseudo-powers
    of sigma; support conditions are enforced at the divergence() level, not
    inside log2_q.
    """

    def __init__(self, rho, sigma):
        rm = _as_matrix(rho)
        sm = _as_matrix(sigma)
        if rm.shape != sm.shape:
            raise ValueError(f"dimension mismatch: {rm.shape} vs {sm.shape}")
        super().__init__([rm], [1.0], sm)
        self.rho_trace = float(np.trace(rm).real)
        self.support_violation = max(0.0, self.rho_trace - float(np.trace(self.blocks[0]).real))
        self.tr_rho_sigma = float(np.trace(rm @ sm).real)
        self._rho_mat = rm

    def divergence(self, alpha: float) -> DivergenceResult:
        """Sandwiched Renyi divergence of order alpha, +inf on support failure."""
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if math.isinf(alpha):
            raise ValueError("alpha = inf is the max-relative entropy; use dmax() (--divergence dmax)")
        if abs(alpha - 1.0) <= ALPHA_ONE_GUARD:
            raise ValueError(
                f"alpha = {alpha} is within {ALPHA_ONE_GUARD} of 1; "
                "use umegaki() for the order-1 divergence"
            )
        if alpha > 1 and self.support_violation > SUPPORT_VIOLATION_TOL:
            return DivergenceResult(math.inf, alpha, self.support_violation)
        if alpha < 1 and self.tr_rho_sigma <= 1e-14:
            return DivergenceResult(math.inf, alpha, self.support_violation)
        val = self.log2_q(alpha) / (alpha - 1.0)
        return DivergenceResult(float(val), alpha, self.support_violation)

    def umegaki(self) -> DivergenceResult:
        """Order-1 divergence tr rho (log rho - log sigma), +inf on support failure."""
        if self.support_violation > SUPPORT_VIOLATION_TOL:
            return DivergenceResult(math.inf, 1.0, self.support_violation)
        wr = np.linalg.eigvalsh(self._rho_mat)
        tr_rho_log_rho = float((wr[wr > 0] * np.log2(wr[wr > 0])).sum())
        diag_b = np.real(np.diag(self.blocks[0]))
        mu = self._mu
        pos = mu > 0
        tr_rho_log_sigma = float((diag_b[pos] * np.log2(mu[pos])).sum())
        return DivergenceResult(tr_rho_log_rho - tr_rho_log_sigma, 1.0, self.support_violation)

    def dmax(self) -> DivergenceResult:
        """Max-relative entropy log2 min{c : rho <= c sigma}, +inf on support failure."""
        if self.support_violation > SUPPORT_VIOLATION_TOL or self._mu.size == 0:
            return DivergenceResult(math.inf, math.inf, self.support_violation)
        lam = self._lambda_max()
        if lam <= 0:
            return DivergenceResult(-math.inf, math.inf, self.support_violation)
        return DivergenceResult(math.log2(lam), math.inf, self.support_violation)


def sandwiched_renyi_divergence(rho, sigma, alpha: float) -> DivergenceResult:
    """Sandwiched Renyi divergence D_alpha(rho || sigma) in bits.

    rho must be a normalized state; sigma any PSD operator. Orders within
    ALPHA_ONE_GUARD of 1 are rejected (use relative_entropy). For alpha > 1
    the result is +inf when rho has mass outside supp(sigma) above tolerance;
    for alpha < 1 it is +inf when tr(rho sigma) vanishes.
    """
    return RenyiDivergenceCurve(rho, sigma).divergence(alpha)


def relative_entropy(rho, sigma) -> DivergenceResult:
    """Umegaki relative entropy D(rho || sigma) in bits, +inf on support failure."""
    return RenyiDivergenceCurve(rho, sigma).umegaki()


def max_relative_entropy(rho, sigma) -> DivergenceResult:
    """D_max(rho || sigma) = log2 of the least c with rho <= c sigma."""
    return RenyiDivergenceCurve(rho, sigma).dmax()


class ConditionalRenyiCurve(_SandwichedCurve):
    """Cached evaluator of conditional Renyi entropies of a CQ state.

    The kernel with blocks rho_x and weights p_x against the marginal rho_E,
    which gives Q_alpha(rho_XE || 1_X (x) rho_E). Zero-probability symbols
    are dropped.
    """

    def __init__(self, cq: CQState):
        self.cq = cq
        mask = cq.probs > 0
        conds = [c for c, m in zip(cq.conditionals, mask) if m]
        super().__init__(conds, cq.probs[mask], cq.rho_e())
        self._h1 = self._hmin = self._critical_rate = None

    def s_times_h(self, s):
        """s * H_{1+s}(X|E) = -log2 Q_{1+s}; concave in s, zero at s = 0. s may be an array."""
        return -self.log2_q(1.0 + s)

    def h1(self) -> float:
        """von Neumann conditional entropy H(X|E) = H(XE) - H(E), in bits; computed once."""
        if self._h1 is None:
            h_xe = _entropy_bits(self.weights)
            for px, block in zip(self.weights, self.blocks):
                h_xe += px * _entropy_bits(np.linalg.eigvalsh(block))
            self._h1 = float(h_xe - self.sigma_entropy)
        return self._h1

    def hmin(self) -> float:
        """H_min(X|E) = -log2 max_x lambda_max(p_x rho_E^{-1/2} rho_x rho_E^{-1/2}); computed once."""
        if self._hmin is None:
            self._hmin = -math.log2(self._lambda_max())
        return self._hmin

    def critical_rate(self) -> float:
        """d/ds [s H_{1+s}(X|E)] at s = 1, which separates optimizers s <= 1 from s > 1.

        Computed once; an exponent curve's seed read, which includes alpha = 2,
        fills it with the same value.
        """
        if self._critical_rate is None:
            self._critical_rate = -self.d_log2_q(2.0)
        return self._critical_rate

    def h(self, alpha: float) -> float:
        """Conditional Renyi entropy of order alpha (1 and inf included)."""
        if alpha == 1.0:
            return self.h1()
        if math.isinf(alpha):
            return self.hmin()
        if abs(alpha - 1.0) <= ALPHA_ONE_GUARD:
            raise ValueError(
                f"alpha = {alpha} is within {ALPHA_ONE_GUARD} of 1; pass alpha=1 exactly"
            )
        return -self.log2_q(alpha) / (alpha - 1.0)


def renyi_conditional_entropy(cq: CQState, alpha: float) -> float:
    """H_alpha(X|E) = -D_alpha(rho_XE || 1_X (x) rho_E) of a CQ state, in bits.

    alpha = 1 gives the von Neumann conditional entropy; alpha = inf gives H_min.
    """
    return ConditionalRenyiCurve(cq).h(alpha)


def apply_measurement(rho, povm) -> np.ndarray:
    """Outcome distribution of a POVM, as a classical probability vector."""
    rm = _as_matrix(rho)
    p = np.array([float(np.trace(rm @ _as_matrix(m)).real) for m in povm])
    return np.clip(p, 0.0, None)
