"""Reference values for the benchmark's output checks.

Plain numpy, written from the definitions and sharing no code with privamp,
so a check built on these numbers does not trust the code it checks. Inputs
are the benchmark's own random states: every reference operator (rho_E,
sigma) is full rank, which the functions assert instead of handling.
"""

from __future__ import annotations

import math

import numpy as np

CHUNK = 4096


def _eigh_fn(a: np.ndarray, f) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    return (v * f(w)) @ v.conj().T


def _entropy_bits(w: np.ndarray) -> float:
    w = w[w > 0]
    return float(-(w * np.log2(w)).sum())


def _full_rank_eigh(a: np.ndarray):
    w, v = np.linalg.eigh(a)
    if w[0] <= 1e-12 * w[-1]:
        raise ValueError("reference operator must be full rank")
    return w, v


class CQReference:
    """H(X|E), H_min(X|E), log2 Q_alpha and the critical rate of one CQ state."""

    def __init__(self, probs, conds):
        self.p = np.asarray(probs, dtype=float)
        self.conds = np.asarray(conds, dtype=complex)
        self.rho_e = np.einsum("x,xij->ij", self.p, self.conds)
        self.w_e, self.v_e = _full_rank_eigh(self.rho_e)

    def _rho_e_power(self, t: float) -> np.ndarray:
        return (self.v_e * self.w_e**t) @ self.v_e.conj().T

    def h(self) -> float:
        h_xe = _entropy_bits(self.p) + sum(
            px * _entropy_bits(np.linalg.eigvalsh(c)) for px, c in zip(self.p, self.conds)
        )
        return h_xe - _entropy_bits(self.w_e)

    def h_min(self) -> float:
        r = self._rho_e_power(-0.5)
        lam = max(px * np.linalg.eigvalsh(r @ c @ r)[-1] for px, c in zip(self.p, self.conds))
        return -math.log2(float(lam))

    def log2_q(self, alpha: float) -> float:
        """log2 sum_x p_x^alpha tr (rho_E^e rho_x rho_E^e)^alpha, e = (1-alpha)/(2 alpha)."""
        r = self._rho_e_power((1.0 - alpha) / (2.0 * alpha))
        total = 0.0
        for px, c in zip(self.p, self.conds):
            w = np.clip(np.linalg.eigvalsh(r @ c @ r), 0.0, None)
            total += px**alpha * float((w**alpha).sum())
        return math.log2(total)

    def critical_rate(self, h: float = 1e-3) -> float:
        """d/ds [s H_{1+s}(X|E)] at s = 1, five-point central difference."""
        g = lambda s: -self.log2_q(1.0 + s)  # noqa: E731
        return (g(1 - 2 * h) - 8 * g(1 - h) + 8 * g(1 + h) - g(1 + 2 * h)) / (12 * h)


def pair_divergences(rho, sigma) -> tuple[float, float]:
    """(D(rho || sigma), D_max(rho || sigma)) in bits, sigma full rank."""
    w_s, v_s = _full_rank_eigh(sigma)
    log_sigma = (v_s * np.log2(w_s)) @ v_s.conj().T
    w_r = np.linalg.eigvalsh(rho)
    d = -_entropy_bits(w_r) - float(np.trace(rho @ log_sigma).real)
    inv_sqrt = (v_s * w_s**-0.5) @ v_s.conj().T
    d_max = math.log2(float(np.linalg.eigvalsh(inv_sqrt @ rho @ inv_sqrt)[-1]))
    return d, d_max


def _hashed_blocks(tables: np.ndarray, p: np.ndarray, conds: np.ndarray, m: int) -> np.ndarray:
    """B[n, z] = sum over x with tables[n, x] = z of p_x rho_x."""
    weights = (tables[:, :, None] == np.arange(m)) * p[None, :, None]
    return np.einsum("nxz,xij->nzij", weights, conds)


def hashed_insecurity(tables, probs, conds, m: int, measure: str, s: float | None = None) -> np.ndarray:
    """Insecurity of each hashed state rho_ZE against uniform-Z times rho_E."""
    tables = np.atleast_2d(np.asarray(tables, dtype=np.int64))
    p = np.asarray(probs, dtype=float)
    conds = np.asarray(conds, dtype=complex)
    rho_e = np.einsum("x,xij->ij", p, conds)
    blocks = _hashed_blocks(tables, p, conds, m)
    if measure == "trace_distance":
        w = np.linalg.eigvalsh(blocks - rho_e / m)
        return 0.5 * np.abs(w).sum(axis=(1, 2))
    if measure == "purified_distance":
        root = _eigh_fn(rho_e, lambda w: np.sqrt(np.clip(w, 0.0, None)))
        w = np.clip(np.linalg.eigvalsh(root @ blocks @ root), 0.0, None)
        f = np.sqrt(w).sum(axis=(1, 2)) / math.sqrt(m)
        return np.sqrt(np.clip(1.0 - np.minimum(f, 1.0) ** 2, 0.0, None))
    if measure == "relative_entropy":
        w = np.clip(np.linalg.eigvalsh(blocks), 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            h_ze = -np.where(w > 0, w * np.log2(w), 0.0).sum(axis=(1, 2))
        return math.log2(m) - (h_ze - _entropy_bits(np.linalg.eigvalsh(rho_e)))
    if measure == "renyi":
        _full_rank_eigh(rho_e)
        r = _eigh_fn(rho_e, lambda w: w ** (-s / (2.0 * (1.0 + s))))
        w = np.clip(np.linalg.eigvalsh(r @ blocks @ r), 0.0, None)
        return math.log2(m) + np.log2((w ** (1.0 + s)).sum(axis=(1, 2))) / s
    raise ValueError(f"unknown measure {measure!r}")


def all_tables(domain: int, m: int, start: int, stop: int) -> np.ndarray:
    """Tables with big-endian base-m indices in [start, stop)."""
    idx = np.arange(start, stop, dtype=np.int64)
    powers = m ** np.arange(domain - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // powers) % m


def affine_tables(prime: int, domain: int, m: int) -> np.ndarray:
    """Every table x -> ((a x + b) mod prime) mod m, a in [1, prime), b in [0, prime)."""
    a, b = np.meshgrid(np.arange(1, prime), np.arange(prime), indexing="ij")
    x = np.arange(domain)
    return ((a.reshape(-1, 1) * x + b.reshape(-1, 1)) % prime) % m


def exhaustive_family_mean(family: str, domain: int, m: int, prime, probs, conds, measure, s) -> float:
    """Mean insecurity over every member of an all_functions or affine_prime family."""
    if family == "affine_prime":
        chunks = [affine_tables(prime, domain, m)]
    else:
        total = m**domain
        chunks = (all_tables(domain, m, lo, min(lo + CHUNK, total)) for lo in range(0, total, CHUNK))
    values = [hashed_insecurity(tables, probs, conds, m, measure, s) for tables in chunks]
    return float(sum(v.sum() for v in values)) / sum(v.size for v in values)


def decode_index(index: int, domain: int, m: int) -> list[int]:
    digits = []
    for _ in range(domain):
        index, d = divmod(index, m)
        digits.append(d)
    return digits[::-1]


def restricted_growth_count(domain: int, m: int) -> int:
    """sum_{k <= m} S(domain, k): tables up to relabeling of the outputs."""
    row = [1] + [0] * m  # S(0, k)
    for n in range(1, domain + 1):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, m + 1)]
    return sum(row)
