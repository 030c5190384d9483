"""Error and security exponents from Renyi divergence curves.

Every sup/inf over the Renyi order parameter s is a one-dimensional
optimization of a concave (or convex) function built from cached curve
evaluators; golden-section search with deterministic tie-breaking toward the
smallest optimizer does all of them. A search over all s >= 0 runs on
t = s / (1 + s) in [0, 1], a monotone reparametrization that keeps
unimodality, so no order cap is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def golden_section_max(f, lo: float, hi: float, *, xtol: float = 1e-12, max_iter: int = 400):
    """Maximize a unimodal f on [lo, hi]; ties resolve to the smallest point.

    Returns (x, f(x)) for the best evaluated point, endpoints included, so a
    monotone f is handled correctly.
    """
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    evals = [(lo, f(lo))]
    if hi > lo:
        evals.append((hi, f(hi)))
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    evals.extend([(c, fc), (d, fd)])
    for _ in range(max_iter):
        if b - a <= xtol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
            evals.append((c, fc))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
            evals.append((d, fd))
    best_x, best_f = evals[0]
    for x, fx in evals[1:]:
        if fx > best_f or (fx == best_f and x < best_x):
            best_x, best_f = x, fx
    return best_x, best_f


def _sup_over_s(f):
    """sup_{s >= 0} f(s) for a unimodal f that tends to -inf as s -> inf.

    Golden section on t = s / (1 + s) in [0, 1], with t = 1 read as -inf;
    returns (s, f(s)) for the best evaluated point, ties to the smallest s.
    """
    t, val = golden_section_max(lambda t: -math.inf if t >= 1.0 else f(t / (1.0 - t)), 0.0, 1.0)
    return t / (1.0 - t), val


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
    curve = _as_cond_curve(state)
    hh = min(h, s / 2.0)
    g = curve.s_times_h
    d1 = (g(s + hh) - g(s - hh)) / (2.0 * hh)
    d2 = (g(s + hh / 2.0) - g(s - hh / 2.0)) / hh
    return (4.0 * d2 - d1) / 3.0


def critical_rate(state) -> float:
    """The rate separating optimizers s <= 1 from s > 1: rate_derivative at s = 1."""
    return rate_derivative(_as_cond_curve(state), 1.0)


def pa_upper_exponent(state, rate: float) -> ExponentValue:
    """Achievable insecurity exponent sup_{s >= 0} s (H_{1+s}(X|E) - rate).

    The divergence-measure exponent is the value; the purified-distance
    exponent (half of it) rides along in purified_value. Classification:
    zero at rate >= H(X|E), divergent (+inf) at rate <= H_min(X|E), otherwise
    an interior optimum whose regime records which side of the critical rate
    the request fell on. The search covers every order s >= 0; the optimizer
    grows without bound as the rate approaches H_min(X|E).
    """
    curve = _as_cond_curve(state)
    h1 = curve.h1()
    if rate >= h1 - RATE_TOL:
        return ExponentValue(0.0, 0.0, REGIME_ZERO, purified_value=0.0)
    hmin = curve.hmin()
    if rate <= hmin + RATE_TOL:
        return ExponentValue(math.inf, math.inf, REGIME_DIVERGENT, purified_value=math.inf)
    s_star, val = _sup_over_s(lambda s: curve.s_times_h(s) - s * rate)
    val = max(val, 0.0)
    regime = REGIME_HIGH_RATE if rate >= critical_rate(curve) - RATE_TOL else REGIME_LOW_RATE
    return ExponentValue(val, s_star, regime, purified_value=0.5 * val)


def pa_lower_exponent(state, rate: float) -> ExponentValue:
    """Converse insecurity exponent max_{0 <= s <= 1} s (H_{1+s}(X|E) - rate)."""
    curve = _as_cond_curve(state)
    s_star, val = golden_section_max(lambda s: curve.s_times_h(s) - s * rate, 0.0, 1.0)
    val = max(val, 0.0)
    regime = REGIME_ZERO if rate >= curve.h1() - RATE_TOL else None
    if regime == REGIME_ZERO:
        s_star, val = 0.0, 0.0
    return ExponentValue(val, s_star, regime, purified_value=0.5 * val)


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
    if not 0.0 < s <= 1.0:
        raise ValueError(f"s must be in (0, 1], got {s}")
    curve = _as_cond_curve(state)
    if s == 1.0:
        t_star, val = 1.0, curve.s_times_h(1.0) - rate
    else:
        t_star, val = golden_section_max(
            lambda t: curve.s_times_h(t) - t * rate, s, 1.0
        )
    val = max(0.0, val)
    if val == 0.0:
        t_star = s
    return ExponentValue(val, t_star, valid=bool(rate >= critical_rate(curve) - RATE_TOL))


def exponent_curve(
    state,
    rates,
    *,
    mode: str = "both",
    s: float = 1.0,
) -> ExponentCurve:
    """Sample upper/lower (and optionally order-constrained) exponents on a rate grid."""
    curve = _as_cond_curve(state)
    rates = [float(r) for r in rates]
    points = []
    for r in rates:
        upper = pa_upper_exponent(curve, r) if mode in ("upper", "both", "all") else None
        lower = pa_lower_exponent(curve, r) if mode in ("lower", "both", "all") else None
        ren = renyi_security_exponent(curve, r, s) if mode in ("renyi", "all") else None
        points.append(CurvePoint(r, upper, lower, ren))
    meta = {
        "h": curve.h1(),
        "h_min": curve.hmin(),
        "critical_rate": critical_rate(curve),
        "mode": mode,
    }
    return ExponentCurve(tuple(points), meta)
