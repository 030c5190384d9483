from __future__ import annotations

import functools

import numpy as np

from privamp import CQState, HermitianOperator


def rand_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / float(np.trace(m).real)


def rand_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-random unitary: the QR factor of a complex Gaussian matrix, with R's diagonal phases moved into Q."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def kron_power(a, n: int) -> np.ndarray:
    """The dense n-fold Kronecker power of a, symmetrized as HermitianOperator ingests it."""
    return HermitianOperator(functools.reduce(np.kron, [np.asarray(a, dtype=complex)] * n)).mat


def rand_cq(rng: np.random.Generator, nx: int, dim_e: int) -> CQState:
    probs = rng.dirichlet(np.ones(nx))
    conds = [rand_density(rng, dim_e) for _ in range(nx)]
    return CQState(probs, conds)


def two_stage_grid_max(f, lo: float, hi: float, points: int) -> float:
    """Max of f over points grid points on [lo, hi], refined on as many between the best point's neighbours.

    f takes an array of points and returns their values in one call.
    """
    xs = np.linspace(lo, hi, points)
    vals = f(xs)
    i = int(np.argmax(vals))
    refined = f(np.linspace(xs[max(i - 1, 0)], xs[min(i + 1, points - 1)], points))
    return max(float(refined.max()), float(vals[i]))


def acceptance_states(count: int = 20) -> list[CQState]:
    """The acceptance-criterion CQ states: seed [2026, 2], 2-3 symbols, d_E = 2-3."""
    rng = np.random.default_rng(np.random.SeedSequence([2026, 2]))
    out = []
    for _ in range(count):
        nx = int(rng.integers(2, 4))
        de = int(rng.integers(2, 4))
        out.append(rand_cq(rng, nx, de))
    return out


def rand_commuting_pair(rng: np.random.Generator, dim: int):
    """A density matrix and a PSD reference sharing one random eigenbasis."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    p = rng.dirichlet(np.ones(dim))
    w = rng.dirichlet(np.ones(dim)) * float(rng.uniform(0.5, 2.0))
    rho = (q * p) @ q.conj().T
    sigma = (q * w) @ q.conj().T
    return rho, sigma
