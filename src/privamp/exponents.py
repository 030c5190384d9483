"""Error and security exponents from Renyi divergence curves.

Every sup/inf over the Renyi order parameter s is a one-dimensional
optimization of a concave (or convex) function built from cached curve
evaluators; golden-section search with deterministic tie-breaking toward the
smallest optimizer does all of them. A search over all s >= 0 runs on
t = s / (1 + s) in [0, 1], a monotone reparametrization that keeps
unimodality, so no order cap is needed. Searches run in lockstep: an
exponent curve puts the upper, lower and Renyi brackets of all its rates
into one run whose every round is one array call of the kernel, and each
bracket visits the points it would visit alone. The one-rate functions are
the same code with one rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import ConditionalRenyiCurve, RenyiDivergenceCurve
from .states import CQState

RATE_TOL = 1e-9
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

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
REGIME_UNBOUNDED = "unbounded-below"


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


def golden_section_max(f, lo, hi, *, xtol: float = 1e-12, max_iter: int = 400):
    """Maximize unimodal functions on the brackets [lo_k, hi_k], all in lockstep.

    f(x, k) returns the values at the points x of the brackets k (equal-length
    1-D arrays). One call of f evaluates the endpoints and both interior
    points of every bracket, and each later call one new point per unfinished
    bracket; a bracket stops once b - a <= xtol. Every bracket therefore
    visits the points a search of it alone would. Returns (x, f(x)) for the
    best evaluated point of each bracket, endpoints included, so a monotone f
    is handled correctly; ties resolve to the smallest point. Scalar bounds
    give scalar results.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    if (hi < lo).any():
        raise ValueError(f"empty interval [{lo}, {hi}]")
    los, his = lo.ravel().tolist(), hi.ravel().tolist()
    n = len(los)
    best = [None] * n

    def evaluate(xs, owner):
        vals = np.asarray(f(np.array(xs), np.array(owner, dtype=int)), dtype=float).tolist()
        for k, x, fx in zip(owner, xs, vals):
            if best[k] is None or fx > best[k][1] or (fx == best[k][1] and x < best[k][0]):
                best[k] = (x, fx)
        return vals

    wide = [k for k in range(n) if his[k] > los[k]]
    cs = [b - _INVPHI * (b - a) for a, b in zip(los, his)]
    ds = [a + _INVPHI * (b - a) for a, b in zip(los, his)]
    vals = evaluate(los + [his[k] for k in wide] + cs + ds, [*range(n), *wide, *range(n), *range(n)])
    fcs, fds = vals[len(vals) - 2 * n : len(vals) - n], vals[len(vals) - n :]
    state = [list(row) for row in zip(los, his, cs, ds, fcs, fds)]
    live = list(range(n))
    for _ in range(max_iter):
        live = [k for k in live if not state[k][1] - state[k][0] <= xtol]
        if not live:
            break
        xs, slots = [], []
        for k in live:
            a, b, c, d, fc, fd = state[k]
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - _INVPHI * (b - a)
                xs.append(c)
                slots.append(4)
            else:
                a, c, fc = c, d, fd
                d = a + _INVPHI * (b - a)
                xs.append(d)
                slots.append(5)
            state[k] = [a, b, c, d, fc, fd]
        for k, slot, fx in zip(live, slots, evaluate(xs, live)):
            state[k][slot] = fx
    best_x = np.array([x for x, _ in best]).reshape(lo.shape)
    best_f = np.array([fx for _, fx in best]).reshape(lo.shape)
    return best_x[()], best_f[()]


def _max_over_orders(f, lo, hi, on_t):
    """Maximize f(s, k) on the order brackets k, all in one lockstep golden-section run.

    Bracket k is [lo_k, hi_k] in s or, where on_t[k], in t = s / (1 + s),
    on which [0, 1] covers every order s >= 0 and t = 1 reads as -inf. f
    gets the orders of one round and their bracket indices. Returns the
    arrays (s, f(s)) of each bracket's best evaluated point.
    """
    on_t = np.asarray(on_t, dtype=bool)

    def g(x, k):
        t = on_t[k]
        end = t & (x >= 1.0)
        # f sees s = 1 at a t = 1 end and its value is dropped
        vals = f(np.divide(x, 1.0 - x, out=x.copy(), where=t & ~end), k)
        return np.where(end, -math.inf, vals)

    x, val = golden_section_max(g, lo, hi)
    return np.divide(x, 1.0 - x, out=x.copy(), where=on_t), val


def _sup_over_s(f):
    """sup_{s >= 0} f(s) for a unimodal f that tends to -inf as s -> inf.

    f maps an array of orders to an array of values. Golden section on
    t = s / (1 + s) in [0, 1]; returns (s, f(s)) for the best evaluated
    point, ties to the smallest s.
    """
    s, val = _max_over_orders(lambda s, i: f(s), [0.0], [1.0], [True])
    return float(s[0]), float(val[0])


def _as_cond_curve(state) -> ConditionalRenyiCurve:
    if isinstance(state, ConditionalRenyiCurve):
        return state
    if isinstance(state, CQState):
        return ConditionalRenyiCurve(state)
    raise TypeError(f"expected a CQState or ConditionalRenyiCurve, got {type(state)!r}")


def smoothing_exponent(rho, sigma, r: float) -> ExponentValue:
    """Exponential decay rate of the iid smoothing quantity at budget rate r.

    Value (1/2) sup_{s >= 0} s (r - D_{1+s}(rho || sigma)): zero when
    r <= D(rho || sigma), +inf when r >= D_max(rho || sigma).
    """
    curve = rho if isinstance(rho, RenyiDivergenceCurve) else RenyiDivergenceCurve(rho, sigma)
    d1 = curve.umegaki().value
    if r <= d1 + RATE_TOL:
        return ExponentValue(0.0, 0.0, REGIME_ZERO)
    dmax = curve.dmax().value
    if r >= dmax - RATE_TOL:
        return ExponentValue(math.inf, math.inf, REGIME_DIVERGENT)
    s_star, g = _sup_over_s(lambda s: s * r - curve.log2_q(1.0 + s))
    return ExponentValue(0.5 * max(g, 0.0), s_star, REGIME_INTERIOR)


def rate_derivative(state, s: float, *, h: float = 1e-4) -> float:
    """d/ds [s H_{1+s}(X|E)] by central differences with one Richardson step.

    This is the extraction rate at which order 1+s becomes the optimizer of
    the upper security exponent; it decreases from H(X|E) at s -> 0 to
    H_min(X|E) as s -> inf.
    """
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    return _as_cond_curve(state).rate_derivative(s, h)


def critical_rate(state) -> float:
    """The rate separating optimizers s <= 1 from s > 1: rate_derivative at s = 1, kept on the curve."""
    return _as_cond_curve(state).critical_rate()


def _curve_points(curve: ConditionalRenyiCurve, rates, mode: str, s: float) -> list[CurvePoint]:
    """The exponents that mode asks for at every rate, from one lockstep order search.

    Each rate contributes its brackets: upper, sup over every s >= 0 (t in
    [0, 1]), for rates strictly between H_min and H; lower, max over
    s in [0, 1], for rates below H; Renyi, sup over [s, 1]. Every bracket
    advances in the same rounds, so a round is one kernel call.
    """
    want_upper = mode in ("upper", "both", "all")
    want_lower = mode in ("lower", "both", "all")
    want_renyi = mode in ("renyi", "all")
    if want_renyi and not 0.0 < s <= 1.0:
        raise ValueError(f"s must be in (0, 1], got {s}")
    h1 = curve.h1()
    hmin = curve.hmin() if want_upper else math.inf
    brackets = []
    for k, r in enumerate(rates):
        if want_upper and hmin + RATE_TOL < r < h1 - RATE_TOL:
            brackets.append(("upper", k))
        if want_lower and r < h1 - RATE_TOL:
            brackets.append(("lower", k))
        if want_renyi:
            brackets.append(("renyi", k))
    bracket_rates = np.array([rates[k] for _, k in brackets])
    s_best, f_best = _max_over_orders(
        lambda x, i: curve.s_times_h(x) - x * bracket_rates[i],
        [s if kind == "renyi" else 0.0 for kind, _ in brackets],
        1.0,
        [kind == "upper" for kind, _ in brackets],
    )
    best = dict(zip(brackets, zip(s_best.tolist(), f_best.tolist())))

    points = []
    for k, r in enumerate(rates):
        upper = lower = renyi = None
        if want_upper:
            if r >= h1 - RATE_TOL:
                upper = ExponentValue(0.0, 0.0, REGIME_ZERO, purified_value=0.0)
            elif ("upper", k) not in best:
                upper = ExponentValue(math.inf, math.inf, REGIME_DIVERGENT, purified_value=math.inf)
            else:
                s_star, val = best["upper", k]
                val = max(val, 0.0)
                regime = REGIME_HIGH_RATE if r >= curve.critical_rate() - RATE_TOL else REGIME_LOW_RATE
                upper = ExponentValue(val, s_star, regime, purified_value=0.5 * val)
        if want_lower:
            if ("lower", k) in best:
                s_star, val = best["lower", k]
                val = max(val, 0.0)
                lower = ExponentValue(val, s_star, None, purified_value=0.5 * val)
            else:
                lower = ExponentValue(0.0, 0.0, REGIME_ZERO, purified_value=0.0)
        if want_renyi:
            t_star, val = best["renyi", k]
            val = max(0.0, val)
            if val == 0.0:
                t_star = s
            renyi = ExponentValue(val, t_star, valid=bool(r >= curve.critical_rate() - RATE_TOL))
        points.append(CurvePoint(r, upper, lower, renyi))
    return points


def pa_upper_exponent(state, rate: float) -> ExponentValue:
    """Achievable insecurity exponent sup_{s >= 0} s (H_{1+s}(X|E) - rate).

    The divergence-measure exponent is the value; the purified-distance
    exponent (half of it) rides along in purified_value. Classification:
    zero at rate >= H(X|E), divergent (+inf) at rate <= H_min(X|E), otherwise
    an interior optimum whose regime records which side of the critical rate
    the request fell on. The search covers every order s >= 0; the optimizer
    grows without bound as the rate approaches H_min(X|E).
    """
    return _curve_points(_as_cond_curve(state), [rate], "upper", 1.0)[0].upper


def pa_lower_exponent(state, rate: float) -> ExponentValue:
    """Converse insecurity exponent max_{0 <= s <= 1} s (H_{1+s}(X|E) - rate)."""
    return _curve_points(_as_cond_curve(state), [rate], "lower", 1.0)[0].lower


def positive_part_decay_rate(rho, sigma, a: float) -> ExponentValue:
    """inf_{s >= 0} s (D_{1+s}(rho || sigma) - a), the iid positive-part decay rate.

    Zero when a <= D(rho || sigma). For a >= D_max the infimum is unbounded
    below; that is reported as value -inf with an inf optimizer marker.
    """
    curve = rho if isinstance(rho, RenyiDivergenceCurve) else RenyiDivergenceCurve(rho, sigma)
    d1 = curve.umegaki().value
    if a <= d1 + RATE_TOL:
        return ExponentValue(0.0, 0.0, REGIME_ZERO)
    dmax = curve.dmax().value
    if a >= dmax - RATE_TOL:
        return ExponentValue(-math.inf, math.inf, REGIME_UNBOUNDED)
    s_star, val = _sup_over_s(lambda s: s * a - curve.log2_q(1.0 + s))
    return ExponentValue(min(-val, 0.0), s_star, REGIME_INTERIOR)


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
