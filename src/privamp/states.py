"""State carriers: validated density operators and classical-quantum ensembles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .operators import (
    BudgetExceededError,
    HermitianOperator,
    _as_matrix,
    commutes,
    simultaneous_eigenbasis,
)

PSD_TOL = 1e-10
TRACE_TOL = 1e-9
MAX_E_DIM = 512
MAX_SYMBOLS = 1 << 16

Kind = Literal["normalized", "subnormalized"]


@dataclass(frozen=True)
class StateDescriptor:
    """A PSD operator tagged as a normalized or subnormalized state."""

    op: HermitianOperator
    kind: Kind

    def __post_init__(self):
        w = np.linalg.eigvalsh(self.op.mat)
        scale = max(1.0, float(np.max(np.abs(w))))
        if float(w[0]) < -PSD_TOL * scale:
            raise ValueError(f"state is not PSD: min eigenvalue {w[0]:.3e}")
        tr = self.op.trace
        if self.kind == "normalized":
            if abs(tr - 1.0) > TRACE_TOL:
                raise ValueError(f"normalized state has trace {tr!r}")
        elif self.kind == "subnormalized":
            if tr > 1.0 + TRACE_TOL:
                raise ValueError(f"subnormalized state has trace {tr!r} > 1")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def trace(self) -> float:
        return self.op.trace

    @classmethod
    def density(cls, entries) -> "StateDescriptor":
        return cls(HermitianOperator(entries), "normalized")

    @classmethod
    def subnormalized_state(cls, entries) -> "StateDescriptor":
        return cls(HermitianOperator(entries), "subnormalized")

    @classmethod
    def diagonal(cls, probs) -> "StateDescriptor":
        return cls(HermitianOperator.diagonal(probs), "normalized")


def _as_state_matrix(state) -> np.ndarray:
    if isinstance(state, StateDescriptor):
        return state.mat
    return _as_matrix(state)


class CQState:
    """Classical-quantum ensemble: symbols x with weights p_x and states rho_x.

    Represents rho_XE = sum_x p_x |x><x| (x) rho_x without materializing the
    block-diagonal matrix. Zero-weight symbols are allowed (hash images can be
    empty); their conditionals must still be valid density matrices.
    """

    __slots__ = ("symbols", "probs", "conditionals")

    def __init__(self, probs, conditionals, symbols=None):
        p = np.array(probs, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("probs must be a nonempty vector")
        if float(p.min()) < -1e-12:
            raise ValueError(f"negative probability {p.min()!r}")
        p = np.clip(p, 0.0, None)
        if abs(float(p.sum()) - 1.0) > TRACE_TOL:
            raise ValueError(f"probabilities sum to {p.sum()!r}")
        conds = [StateDescriptor.density(_as_matrix(c)).mat for c in conditionals]
        if len(conds) != p.size:
            raise ValueError(f"{p.size} probabilities but {len(conds)} conditionals")
        dims = {c.shape[0] for c in conds}
        if len(dims) != 1:
            raise ValueError(f"conditional dimensions differ: {sorted(dims)}")
        if symbols is None:
            symbols = tuple(range(p.size))
        else:
            symbols = tuple(symbols)
            if len(symbols) != p.size:
                raise ValueError("symbols length mismatch")
        p.flags.writeable = False
        self.probs = p
        self.conditionals = tuple(conds)
        self.symbols = symbols

    @property
    def nsymbols(self) -> int:
        return self.probs.size

    @property
    def dim_e(self) -> int:
        return self.conditionals[0].shape[0]

    @classmethod
    def classical(cls, probs, symbols=None) -> "CQState":
        """Purely classical source: trivial one-dimensional side system."""
        p = np.asarray(probs, dtype=float)
        return cls(p, [np.eye(1)] * p.size, symbols)

    @classmethod
    def uniform(cls, nsymbols: int, conditionals=None) -> "CQState":
        p = np.full(nsymbols, 1.0 / nsymbols)
        if conditionals is None:
            return cls.classical(p)
        return cls(p, conditionals)

    def rho_e(self) -> np.ndarray:
        out = np.zeros((self.dim_e, self.dim_e), dtype=complex)
        for px, c in zip(self.probs, self.conditionals):
            if px > 0:
                out += px * c
        return (out + out.conj().T) / 2.0

    def to_density(self) -> StateDescriptor:
        """Dense block-diagonal embedding of rho_XE."""
        d = self.dim_e
        nx = self.nsymbols
        out = np.zeros((nx * d, nx * d), dtype=complex)
        for i, (px, c) in enumerate(zip(self.probs, self.conditionals)):
            out[i * d : (i + 1) * d, i * d : (i + 1) * d] = px * c
        return StateDescriptor.density(out)

    def reference_sigma(self) -> HermitianOperator:
        """Dense 1_X (x) rho_E, the conditional-entropy reference operator."""
        d = self.dim_e
        nx = self.nsymbols
        re = self.rho_e()
        out = np.zeros((nx * d, nx * d), dtype=complex)
        for i in range(nx):
            out[i * d : (i + 1) * d, i * d : (i + 1) * d] = re
        return HermitianOperator(out)

    def tensor_power(self, n: int) -> "CQState":
        """iid n-copy ensemble over symbol tuples."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.dim_e**n > MAX_E_DIM:
            raise BudgetExceededError(
                f"side-system dimension {self.dim_e}^{n} exceeds the cap {MAX_E_DIM}"
            )
        if self.nsymbols**n > MAX_SYMBOLS:
            raise BudgetExceededError(
                f"symbol count {self.nsymbols}^{n} exceeds the cap {MAX_SYMBOLS}"
            )
        probs = self.probs
        conds = list(self.conditionals)
        syms = [(s,) for s in self.symbols]
        for _ in range(n - 1):
            probs = np.outer(probs, self.probs).ravel()
            conds = [np.kron(a, b) for a in conds for b in self.conditionals]
            syms = [t + (s,) for t in syms for s in self.symbols]
        return CQState(probs, conds, syms)

    def is_commuting(self) -> bool:
        """Whether every conditional commutes with the marginal rho_E (operators.commutes)."""
        re = self.rho_e()
        return all(
            commutes(c, re)
            for px, c in zip(self.probs, self.conditionals)
            if px > 0
        )

    def classical_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """Joint eigenvalue vectors (p, q) of rho_XE and 1_X (x) rho_E.

        Valid only when every conditional commutes with rho_E; then each block
        is simultaneously diagonalizable with the marginal and the pair of
        operators reduces to two nonnegative vectors with sum(p) = 1.
        """
        re = self.rho_e()
        if not self.is_commuting():
            raise ValueError(
                "conditionals do not commute with the marginal; "
                "no joint classical spectrum exists (use certificate bounds instead)"
            )
        ps, qs = [], []
        for px, c in zip(self.probs, self.conditionals):
            if px <= 0:
                continue
            u = simultaneous_eigenbasis(re, c)
            qv = np.real(np.einsum("ij,jk,ki->i", u.conj().T, re, u))
            pv = px * np.real(np.einsum("ij,jk,ki->i", u.conj().T, c, u))
            ps.append(np.clip(pv, 0.0, None))
            qs.append(np.clip(qv, 0.0, None))
        return np.concatenate(ps), np.concatenate(qs)

    def __repr__(self) -> str:
        return f"CQState(nsymbols={self.nsymbols}, dim_e={self.dim_e})"
