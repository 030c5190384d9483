"""State carriers: validated density operators and classical-quantum ensembles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .operators import (
    BudgetExceededError,
    HermitianOperator,
    _as_matrix,
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


class CQState:
    """Classical-quantum ensemble: symbols x = 0..m-1 with weights p_x and states rho_x.

    Represents rho_XE = sum_x p_x |x><x| (x) rho_x without materializing the
    block-diagonal matrix. Zero-weight symbols are allowed (hash images can be
    empty); their conditionals must still be valid density matrices.
    """

    __slots__ = ("probs", "conditionals")

    def __init__(self, probs, conditionals):
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
        p.flags.writeable = False
        self.probs = p
        self.conditionals = tuple(conds)

    @property
    def nsymbols(self) -> int:
        return self.probs.size

    @property
    def dim_e(self) -> int:
        return self.conditionals[0].shape[0]

    @classmethod
    def classical(cls, probs) -> "CQState":
        """Purely classical source: trivial one-dimensional side system."""
        p = np.asarray(probs, dtype=float)
        return cls(p, [np.eye(1)] * p.size)

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
        """iid n-copy ensemble; symbol tuples are numbered in row-major order."""
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
        for _ in range(n - 1):
            probs = np.outer(probs, self.probs).ravel()
            conds = [np.kron(a, b) for a in conds for b in self.conditionals]
        return CQState(probs, conds)

    def __repr__(self) -> str:
        return f"CQState(nsymbols={self.nsymbols}, dim_e={self.dim_e})"
