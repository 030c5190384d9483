"""Error and security exponents from Renyi divergence curves.

Every exponent is a supremum over the Renyi parameter s of the concave
F(s) = c s - log2 Q_{1+s}: c is minus the rate for a CQ state, the budget
rate for a pair, and log2 Q is convex in the order. F' falls monotonically,
so one root s* of F' decides every exponent at a rate: a supremum over all
s >= 0 is F(s*), one over an order interval is F at s* clamped into it.
The root is searched by Brent's method on t = s / (1 + s) in [0, 1], whose
endpoint slopes are known (H(X|E) and H_min(X|E), or D and D_max), with the
exact order derivative of the curve, so no order cap is needed. An exponent
curve first reads the derivative at the seed orders 1 + s, s = 2^-5 .. 2^9,
in one call; s = 1 among them gives the critical rate, and each rate's
search starts in the seed cell that brackets its root. It then searches the
roots of all its rates in lockstep, one derivative call per round, and
reads its values in one log2_q call over the distinct orders; each search
visits the points it would visit alone, so the one-rate functions are the
same code with one rate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .measures import ConditionalRenyiCurve, RenyiDivergenceCurve
from .states import CQState

RATE_TOL = 1e-9
# the root searches stop once the bracket in t = s / (1 + s) is this narrow
_T_TOL = 1e-12
# an exponent curve reads the order derivative at alpha = 1 + s for these s before
# any search; their cells bracket the roots, and s = 1 gives the critical rate
_SEED_S = tuple(2.0**k for k in range(-5, 10))
_EPS = sys.float_info.epsilon

# Regime labels for the rate-dependent classification of the upper exponent:
#   zero:      R >= H(X|E), no exponential decay is required
#   high-rate: R_critical <= R < H(X|E), optimizer in (0, 1]
#   low-rate:  H_min < R < R_critical, optimizer in (1, inf)
#   divergent: R <= H_min(X|E), insecurity vanishes faster than any exponential
REGIME_ZERO = "zero"
REGIME_HIGH_RATE = "high-rate"
REGIME_LOW_RATE = "low-rate"
REGIME_DIVERGENT = "divergent"
REGIME_INTERIOR = "interior"


@dataclass(frozen=True)
class ExponentValue:
    """One optimized exponent in bits per copy.

    maximizer_s is the optimizing Renyi parameter (inf marks a divergent
    supremum). purified_value carries the purified-distance exponent where that
    is half the divergence exponent. valid marks whether the order-constrained
    security exponent is applicable at the requested rate (it needs the rate at
    or above the critical rate).
    """

    value: float
    maximizer_s: float
    regime: str | None = None
    purified_value: float | None = None
    valid: bool | None = None


@dataclass(frozen=True)
class CurvePoint:
    rate: float
    upper: ExponentValue | None = None
    lower: ExponentValue | None = None
    renyi: ExponentValue | None = None


@dataclass(frozen=True)
class ExponentCurve:
    """Exponents sampled on a strictly increasing rate grid."""

    points: tuple[CurvePoint, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        rates = [p.rate for p in self.points]
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValueError("rate grid must be strictly increasing")
        for attr in ("upper", "lower"):
            vals = [getattr(p, attr).value for p in self.points if getattr(p, attr) is not None]
            if any(b > a + RATE_TOL for a, b in zip(vals, vals[1:])):
                raise ValueError(f"{attr} exponent is not nonincreasing in the rate")


def _brent(a: float, fa: float, b: float, fb: float):
    """Root of a decreasing g in the cell [a, b] with g(a) = fa > 0 >= fb = g(b), by Brent's method.

    A generator: it yields each point t at which it needs g and is sent
    g(t) back; it returns the point of smallest |g| once the bracket around
    the root is narrower than about _T_TOL (b itself if fb is 0). The search
    starts in the cell its caller already knows to bracket the root, not
    necessarily all of [0, 1]. Inverse quadratic and secant steps are taken
    where they stay well inside the bracket, bisection otherwise.
    """
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * _T_TOL
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            r = fb / fa
            if a == c:
                p, q = 2.0 * m * r, 1.0 - r
            else:
                qa, qb = fa / fc, fb / fc
                p = r * (2.0 * m * qa * (qa - qb) - (b - a) * (qb - 1.0))
                q = (qa - 1.0) * (qb - 1.0) * (r - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = yield b


def _maximizers(curve, slopes, known) -> list[float]:
    """argmax over s >= 0 of c s - log2 Q_{1+s} for every slope c between the first and last known slope.

    known lists (t, d/dalpha log2 Q_alpha at alpha = 1 / (1 - t)) pairs that
    the caller has already read, in increasing t = s / (1 + s) from t = 0
    (alpha = 1) to t = 1 (alpha -> inf). log2 Q is convex in alpha, so each
    maximizer is the one root of c - d/dalpha log2 Q at alpha = 1 + s,
    searched by _brent on t, which covers every order, from the known cell
    that brackets it. smoothing_exponent knows only the two endpoints; an
    exponent curve also knows its seed orders. The searches run in lockstep:
    a round is one d_log2_q call at every unfinished search's point, and
    each search visits the points it would visit alone. A root the search
    cannot tell from t = 1, where c is d_inf to rounding, comes back as
    s = inf.
    """
    slopes = np.asarray(slopes, dtype=float).tolist()
    searches = []
    for c in slopes:
        # the first known point at or past the root closes its cell
        k = next(k for k, (_, d) in enumerate(known) if k and c - d <= 0.0)
        (ta, da), (tb, db) = known[k - 1], known[k]
        searches.append(_brent(ta, c - da, tb, c - db))
    roots = [0.0] * len(slopes)
    sent = dict.fromkeys(range(len(slopes)))  # search -> what it is sent next; None starts it
    while sent:
        pending = {}  # search -> its next point
        for k, g in sent.items():
            try:
                pending[k] = searches[k].send(g)
            except StopIteration as done:
                roots[k] = done.value
        if not pending:
            break
        slope_d = curve.d_log2_q(1.0 / (1.0 - np.array(list(pending.values()))))
        sent = {k: slopes[k] - dk for k, dk in zip(pending, slope_d.tolist())}
    return [t / (1.0 - t) if t < 1.0 else math.inf for t in roots]


def _as_cond_curve(state) -> ConditionalRenyiCurve:
    if isinstance(state, ConditionalRenyiCurve):
        return state
    if isinstance(state, CQState):
        return ConditionalRenyiCurve(state)
    raise TypeError(f"expected a CQState or ConditionalRenyiCurve, got {type(state)!r}")


def smoothing_exponent(rho, sigma, r: float) -> ExponentValue:
    """Exponential decay rate of the iid smoothing quantity at budget rate r.

    Value (1/2) sup_{s >= 0} s (r - D_{1+s}(rho || sigma)) for a pair or its
    curve: zero when r <= D(rho || sigma), +inf when r >= D_max(rho || sigma).
    """
    curve = rho if isinstance(rho, RenyiDivergenceCurve) else RenyiDivergenceCurve(rho, sigma)
    d1 = curve.umegaki().value
    if r <= d1 + RATE_TOL:
        return ExponentValue(0.0, 0.0, REGIME_ZERO)
    dmax = curve.dmax().value
    if r >= dmax - RATE_TOL:
        return ExponentValue(math.inf, math.inf, REGIME_DIVERGENT)
    (s_star,) = _maximizers(curve, [r], [(0.0, d1), (1.0, dmax)])
    return ExponentValue(0.5 * max(s_star * r - curve.log2_q(1.0 + s_star), 0.0), s_star, REGIME_INTERIOR)


def rate_derivative(state, s: float) -> float:
    """d/ds [s H_{1+s}(X|E)], from the exact order derivative of the curve.

    This is the extraction rate at which order 1+s becomes the optimizer of
    the upper security exponent; it decreases from H(X|E) at s -> 0 to
    H_min(X|E) as s -> inf.
    """
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    return -_as_cond_curve(state).d_log2_q(1.0 + s)


def critical_rate(state) -> float:
    """The rate separating optimizers s <= 1 from s > 1: rate_derivative at s = 1, kept on the curve."""
    return _as_cond_curve(state).critical_rate()


def _curve_points(curve: ConditionalRenyiCurve, rates, mode: str, s: float) -> list[CurvePoint]:
    """The exponents that mode asks for at every rate, from one maximizer per rate.

    phi(x) = x (H_{1+x}(X|E) - rate) is concave with its maximum at the root
    s* of phi'; s* is 0 for rates at or above H and inf at or below H_min.
    The upper exponent is phi(s*), the lower phi(min(s*, 1)) and the Renyi
    exponent phi(clamp(s*, s, 1)). One derivative read at the _SEED_S orders
    fills the critical rate (s = 1) and gives every search its starting
    cell; the roots of all rates are then searched in lockstep, and every
    phi is read from one log2_q call that takes each distinct order once.
    """
    want_upper = mode in ("upper", "both", "all")
    want_lower = mode in ("lower", "both", "all")
    want_renyi = mode in ("renyi", "all")
    if want_renyi and not 0.0 < s <= 1.0:
        raise ValueError(f"s must be in (0, 1], got {s}")
    h1, hmin = curve.h1(), curve.hmin()
    inside = [k for k, r in enumerate(rates) if hmin + RATE_TOL < r < h1 - RATE_TOL]
    found = {}
    if inside:
        seed_s = np.array(_SEED_S)
        seed = curve.d_log2_q(1.0 + seed_s).tolist()
        curve._critical_rate = -seed[_SEED_S.index(1.0)]
        known = [(0.0, -h1), *zip((seed_s / (1.0 + seed_s)).tolist(), seed), (1.0, -hmin)]
        found = dict(zip(inside, _maximizers(curve, [-rates[k] for k in inside], known)))
    roots = [found.get(k, math.inf if r <= hmin + RATE_TOL else 0.0) for k, r in enumerate(rates)]
    # the orders of the upper (1.0 stands in for an infinite s*), lower and Renyi exponents
    x = [[root if math.isfinite(root) else 1.0, min(root, 1.0), min(max(root, s), 1.0)] for root in roots]
    distinct = list(dict.fromkeys(o for row in x for o in row))
    s_times_h = dict(zip(distinct, curve.s_times_h(np.array(distinct)).tolist()))
    phi = [[s_times_h[o] - o * r for o in row] for row, r in zip(x, rates)]

    points = []
    for k, r in enumerate(rates):
        upper = lower = renyi = None
        if want_upper:
            if r >= h1 - RATE_TOL:
                upper = ExponentValue(0.0, 0.0, REGIME_ZERO, purified_value=0.0)
            elif k not in found:
                upper = ExponentValue(math.inf, math.inf, REGIME_DIVERGENT, purified_value=math.inf)
            else:
                val = max(phi[k][0], 0.0)
                regime = REGIME_HIGH_RATE if r >= curve.critical_rate() - RATE_TOL else REGIME_LOW_RATE
                upper = ExponentValue(val, roots[k], regime, purified_value=0.5 * val)
        if want_lower:
            if r < h1 - RATE_TOL:
                val = max(phi[k][1], 0.0)
                lower = ExponentValue(val, min(roots[k], 1.0), None, purified_value=0.5 * val)
            else:
                lower = ExponentValue(0.0, 0.0, REGIME_ZERO, purified_value=0.0)
        if want_renyi:
            val = max(0.0, phi[k][2])
            t_star = min(max(roots[k], s), 1.0) if val > 0.0 else s
            renyi = ExponentValue(val, t_star, valid=bool(r >= curve.critical_rate() - RATE_TOL))
        points.append(CurvePoint(r, upper, lower, renyi))
    return points


def pa_upper_exponent(state, rate: float) -> ExponentValue:
    """Upper bound on the insecurity exponent, sup_{s >= 0} s (H_{1+s}(X|E) - rate).

    The paper's upper bound on the exponent of the insecurity's decay. It
    equals pa_lower_exponent at rates at or above the critical rate, where
    it is the exact security exponent. The divergence-measure exponent is
    the value; the purified-distance exponent (half of it) rides along in
    purified_value. Classification: zero at rate >= H(X|E), divergent (+inf)
    at rate <= H_min(X|E), otherwise an interior optimum whose regime records
    which side of the critical rate the request fell on. The search covers
    every order s >= 0; the optimizer grows without bound as the rate
    approaches H_min(X|E).
    """
    return _curve_points(_as_cond_curve(state), [rate], "upper", 1.0)[0].upper


def pa_lower_exponent(state, rate: float) -> ExponentValue:
    """Hayashi's lower bound on the insecurity exponent, max_{0 <= s <= 1} s (H_{1+s}(X|E) - rate).

    Two-universal hashing at this rate achieves it.
    """
    return _curve_points(_as_cond_curve(state), [rate], "lower", 1.0)[0].lower


def equivocation_rate(state, rate: float, s: float) -> float:
    """|rate - H_{1+s}(X|E)|_+ , the order-(1+s) equivocation gap."""
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must be in (0, 1], got {s}")
    curve = _as_cond_curve(state)
    return max(0.0, rate - curve.h(1.0 + s))


def renyi_security_exponent(state, rate: float, s: float) -> ExponentValue:
    """Decay exponent of the order-(1+s) Renyi insecurity at the given rate.

    |sup_{t in [s, 1]} t (H_{1+t}(X|E) - rate)|_+ ; the valid flag records
    whether rate >= critical_rate, the regime where this expression is known
    to be the exact decay rate.
    """
    return _curve_points(_as_cond_curve(state), [rate], "renyi", s)[0].renyi


def exponent_curve(
    state,
    rates,
    *,
    mode: str = "both",
    s: float = 1.0,
) -> ExponentCurve:
    """Sample upper/lower (and optionally order-constrained) exponents on a rate grid.

    All order searches of the grid run in lockstep, one kernel call per round.
    """
    curve = _as_cond_curve(state)
    points = _curve_points(curve, [float(r) for r in rates], mode, s)
    meta = {
        "h": curve.h1(),
        "h_min": curve.hmin(),
        "critical_rate": curve.critical_rate(),
        "mode": mode,
    }
    return ExponentCurve(tuple(points), meta)
