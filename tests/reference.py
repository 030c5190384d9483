"""Independent references the tests compare the library against.

Plain-numpy dense forms of the states the library never builds: the hashed
state rho_ZE, the embedded rho_XE and 1_X (x) rho_E, and the conditional
entropy -D_alpha(rho_AB || 1_A (x) rho_B) read from a dense eigensolve.
The dense converse bound and the dense n-copy pinched witness, the two
sides of a smoothing certificate. Then the 40-digit mpmath references: the
Renyi kernel and the upper exponent of a CQ state, the iid smoothing oracle
on exact type classes, and the converse mass of Schur-Weyl blocks and of
the dense d^n-dim difference.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from privamp import CQState, smoothing
from conftest import kron_power

# eigenvalues of a reference operator at most this times its largest lie off its support
_SUPPORT = 1e-13


def hashed_density(cq: CQState, table, m: int) -> np.ndarray:
    """Dense sum_x p_x |f(x)><f(x)| (x) rho_x for the table f onto [m]; an output no symbol reaches is a zero block."""
    d = cq.dim_e
    out = np.zeros((m * d, m * d), dtype=complex)
    for px, cond, z in zip(cq.probs, cq.conditionals, table):
        out[z * d : (z + 1) * d, z * d : (z + 1) * d] += px * np.asarray(cond)
    return out


def cq_density(cq: CQState) -> np.ndarray:
    """Dense block-diagonal rho_XE."""
    return hashed_density(cq, range(cq.nsymbols), cq.nsymbols)


def identity_times_marginal(rho_ab: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Dense 1_A (x) rho_B, rho_B = tr_A rho_AB: the conditional-entropy reference operator."""
    da, db = dims
    return np.kron(np.eye(da), np.einsum("aiaj->ij", rho_ab.reshape(da, db, da, db)))


def _on_support(a: np.ndarray, fn) -> np.ndarray:
    """fn of the PSD matrix a on its support, 0 on its kernel."""
    w, v = np.linalg.eigh(a)
    keep = w > _SUPPORT * w[-1]
    return (v[:, keep] * fn(w[keep])) @ v[:, keep].conj().T


def divergence(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """Sandwiched Renyi D_alpha(rho || sigma) in bits, for supp rho inside supp sigma.

    alpha = 1 is Umegaki's tr rho (log rho - log sigma), alpha = inf the
    max-relative entropy.
    """
    if alpha == 1.0:
        return float(np.trace(rho @ (_on_support(rho, np.log2) - _on_support(sigma, np.log2))).real)
    e = -0.5 if math.isinf(alpha) else (1.0 - alpha) / (2.0 * alpha)
    root = _on_support(sigma, lambda w: w**e)
    w = np.clip(np.linalg.eigvalsh(root @ rho @ root), 0.0, None)
    if math.isinf(alpha):
        return math.log2(float(w[-1]))
    return math.log2(float((w**alpha).sum())) / (alpha - 1.0)


def purified_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """sqrt(1 - F^2) for normalized states, F = ||sqrt(rho) sqrt(sigma)||_1 read from singular values.

    No eigenvalue is square-rooted after the product is formed, so rounding
    on a kernel of the product does not enter F as its square root.
    """
    f = float(np.linalg.svd(_on_support(rho, np.sqrt) @ _on_support(sigma, np.sqrt), compute_uv=False).sum())
    return math.sqrt(max(0.0, 1.0 - min(f, 1.0) ** 2))


def conditional_entropy(rho_ab: np.ndarray, dims: tuple[int, int], alpha: float) -> float:
    """H_alpha(A|B) = -D_alpha(rho_AB || 1_A (x) rho_B) in bits, from the dense matrices."""
    return -divergence(rho_ab, identity_times_marginal(rho_ab, dims), alpha)


def converse_bound(rho, sigma, lam: float, t: float = 9.0) -> float:
    """Lower bound on the smoothing quantity from the mass p = tr rho {rho > t 2^lam sigma}.

    Any feasible smoothing is at least sqrt(p (1 - 2/sqrt(t) - p/t))
    whenever that parenthesis is positive. p comes from one eigh of rho - c
    sigma, with c = t 2^lam, its positive part cut at 1e-12 (1 + max |w|)
    as the certificates cut it. From lam = 1000 on, and at t = inf, c is
    inf and p is rho's mass on the kernel of sigma, its eigenvalues at most
    1e-12 times the largest.
    """
    rho, sigma = np.asarray(rho), np.asarray(sigma)
    if lam >= 1000.0 or math.isinf(t):
        ws, us = np.linalg.eigh(sigma)
        kernel = us[:, ws <= 1e-12 * max(float(ws[-1]), 0.0)]
        w = np.linalg.eigvalsh(kernel.conj().T @ rho @ kernel)
        p = float(w[w > 0].sum())
    else:
        w, u = np.linalg.eigh(rho - t * 2.0**lam * sigma)
        cols = u[:, w > 1e-12 * (1.0 + float(np.abs(w).max()))]
        p = float(np.trace(cols.conj().T @ rho @ cols).real)
    return smoothing._converse_from_mass(p, t)


def pinched_spectrum(rho, sigma, n: int) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """(q, eigenvalues, eigenvectors) of E(rho^(x n)) on each eigenspace of sigma^(x n) of eigenvalue q.

    E pinches onto the eigenspaces of the dense sigma^(x n): its eigenvalues
    within 1e-9 relative of their neighbour are one eigenspace, and those at
    most 1e-12 times the largest are its kernel, q = 0.
    """
    rho_n = kron_power(rho, n)
    ws, us = np.linalg.eigh(kron_power(sigma, n))
    ws = np.where(ws > 1e-12 * ws[-1], ws, 0.0)
    starts = [0] + [i for i in range(1, len(ws)) if ws[i] - ws[i - 1] > 1e-9 * ws[i]] + [len(ws)]
    out = []
    for a, b in zip(starts, starts[1:]):
        frame = us[:, a:b]
        p, y = np.linalg.eigh(frame.conj().T @ rho_n @ frame)
        out.append((float(ws[a:b].mean()), p, frame @ y))
    return out


def pinched_witness(rho, sigma, n: int, lam: float) -> tuple[np.ndarray, float, int]:
    """Q onto {E(rho^(x n)) <= 2^lam / v sigma^(x n)}, the pinched mass it drops, and v, the number of eigenspaces.

    Q keeps, in each eigenspace of sigma^(x n) of eigenvalue q > 0, the
    eigenvectors of E(rho^(x n)) of eigenvalue p <= 2^lam q / v, and nothing
    of the kernel. The dropped mass delta is the sum of the other p, so
    1 - (tr rho^(x n) Q)^2 = delta (2 - delta) is read without cancelling.
    """
    spectrum = pinched_spectrum(rho, sigma, n)
    v = len(spectrum)
    cols, delta = [np.zeros((len(spectrum[0][2]), 0))], 0.0
    for q, p, y in spectrum:
        keep = p <= 2.0**lam * q / v if q > 0 else np.zeros(len(p), dtype=bool)
        cols.append(y[:, keep])
        delta += float(p[~keep].sum())
    cols = np.hstack(cols)
    return cols @ cols.conj().T, delta, v


def mp_log2_q(mpmath, cq: CQState):
    """alpha -> 40-digit log2 Q_alpha(rho_XE || 1 (x) rho_E), with no support cut.

    Powers of rho_E are taken on its support only (eigenvalues below 1e-30
    count as zero), so a rank-deficient rho_E is handled.
    """
    probs = [mpmath.mpf(float(p)) for p in cq.probs]
    conds = [mpmath.matrix(np.asarray(c).tolist()) for c in cq.conditionals]

    def log2_q(alpha):
        # recomputed at every call: mpmath.diff raises the working precision
        rho_e = probs[0] * conds[0]
        for p, c in zip(probs[1:], conds[1:]):
            rho_e += p * c
        mu, v = mpmath.eigh(rho_e)
        e = (1 - alpha) / (2 * alpha)
        root = v * mpmath.diag([m**e if m > 1e-30 else 0 for m in mu]) * v.H
        total = 0
        for p, c in zip(probs, conds):
            block = root * c * root
            lam = mpmath.eigh((block + block.H) / 2, eigvals_only=True)
            total += p**alpha * mpmath.fsum(max(x, 0) ** alpha for x in lam)
        return mpmath.log(total, 2)

    return log2_q


def mp_upper_exponent(cq: CQState, rate: float, s0: float) -> float:
    """40-digit sup_s s (H_{1+s}(X|E) - rate) at the root of its s-derivative nearest s0."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        log2_q = mp_log2_q(mpmath, cq)

        def objective(s):
            return -log2_q(1 + s) - s * mpmath.mpf(rate)

        s_star = mpmath.findroot(lambda s: mpmath.diff(objective, s), mpmath.mpf(s0))
        return float(objective(s_star))


def _compositions(n: int, parts: int):
    """Every tuple of `parts` nonnegative integers summing to n."""
    if parts == 1:
        yield (n,)
        return
    for k in range(n + 1):
        for rest in _compositions(n - k, parts - 1):
            yield (k, *rest)


def mp_iid_oracle_eps(p, q, n: int, lam: float):
    """40-digit water-filling on the exact n-fold type-class spectrum of diag(p) vs diag(q)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        pm = [mpmath.mpf(float(x)) for x in p]
        total = mpmath.fsum(pm)
        pm = [x / total for x in pm]
        qm = [mpmath.mpf(float(x)) for x in q]
        scale = mpmath.power(2, mpmath.mpf(lam))
        atoms = []
        for k in _compositions(n, len(pm)):
            mult = mpmath.factorial(n) / mpmath.fprod(mpmath.factorial(ki) for ki in k)
            pa = mult * mpmath.fprod(x**ki for x, ki in zip(pm, k))
            qa = mult * mpmath.fprod(x**ki for x, ki in zip(qm, k))
            if pa > 0:
                atoms.append((scale * qa / pa, pa, scale * qa))
        atoms.sort()
        target = min(mpmath.mpf(1), mpmath.fsum(a[2] for a in atoms))
        # mass(c) = sum of caps with ratio <= c + c * (p-mass with ratio > c); solve mass(c) = target
        capped, free = mpmath.mpf(0), mpmath.fsum(a[1] for a in atoms)
        c = atoms[-1][0]  # every atom capped when the total cap mass is the target
        for ratio, pa, cap in atoms:
            if capped + ratio * free >= target:
                c = (target - capped) / free
                break
            capped += cap
            free -= pa
        fid = mpmath.fsum(mpmath.sqrt(pa * (cap if ratio <= c else c * pa)) for ratio, pa, cap in atoms)
        # at lam >= n D_max, F = 1 exactly and 1 - F^2 may round a few ulps below 0
        return float(mpmath.sqrt(max(0, 1 - fid**2)))


def mp_qubit_block_converse(rho, sigma, n: int, lam: float, t: float = 9.0) -> float:
    """converse_bound's lower bound for rho^(x n) against sigma^(x n), from 40-digit Schur-Weyl blocks.

    Sym^m of the rotation between the eigenbases is expanded as polynomial
    products, exact at 40 digits for small m; the positive part is cut at
    1e-12 (1 + max |w|) over all blocks, as converse_bound cuts it.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        er, ur = mpmath.eigh(mpmath.matrix(rho.tolist()))
        es, us = mpmath.eigh(mpmath.matrix(sigma.tolist()))
        # mpmath sorts ascending: column 1 is the larger eigenvalue
        (b, a), (s2, s1) = er, es
        w00 = abs((us[:, 1].H * ur[:, 1])[0])
        w10 = abs((us[:, 0].H * ur[:, 1])[0])
        cos, sin = w00 / mpmath.hypot(w00, w10), w10 / mpmath.hypot(w00, w10)
        c = t * mpmath.power(2, mpmath.mpf(lam))
        blocks = []
        for k in range(n // 2 + 1):
            m = n - 2 * k
            rot = mpmath.matrix(m + 1, m + 1)
            for i in range(m + 1):
                # Sym^m of [[cos, -sin], [sin, cos]] on the normalized basis x0^(m-i) x1^i
                for p in range(m - i + 1):
                    for q in range(i + 1):
                        rot[p + q, i] += (
                            mpmath.binomial(m - i, p) * cos ** (m - i - p) * sin**p
                            * mpmath.binomial(i, q) * (-sin) ** (i - q) * cos**q
                        )
                for j in range(m + 1):
                    rot[j, i] *= mpmath.sqrt(mpmath.binomial(m, i) / mpmath.binomial(m, j))
            rho_k = (a * b) ** k * rot * mpmath.diag([a ** (m - i) * b**i for i in range(m + 1)]) * rot.T
            sigma_k = c * (s1 * s2) ** k * mpmath.diag([s1 ** (m - i) * s2**i for i in range(m + 1)])
            w, v = mpmath.eigh(rho_k - sigma_k)
            mult = mpmath.binomial(n, k) - (mpmath.binomial(n, k - 1) if k else 0)
            blocks.append((w, v, rho_k, mult))
        cut = mpmath.mpf("1e-12") * (1 + max(abs(x) for w, _, _, _ in blocks for x in w))
        p = mpmath.fsum(
            mult * (v[:, j].T * rho_k * v[:, j])[0]
            for w, v, rho_k, mult in blocks
            for j in range(len(w))
            if w[j] > cut
        )
        return smoothing._converse_from_mass(float(p), t)


def mp_dense_converse_mass(rho, sigma, n: int, c: float) -> float:
    """tr rho^(x n) {rho^(x n) > c sigma^(x n)} from a 40-digit eigh of the d^n-dim difference.

    The positive part is cut at 1e-12 (1 + max |w|), as converse_bound cuts it.
    """
    mpmath = pytest.importorskip("mpmath")
    words = list(itertools.product(range(rho.shape[0]), repeat=n))
    with mpmath.workdps(40):

        def power(x):
            xm = [[mpmath.mpmathify(v) for v in row] for row in x.tolist()]
            return mpmath.matrix([[mpmath.fprod(xm[a][b] for a, b in zip(i, j)) for j in words] for i in words])

        rho_n = power(rho)
        w, v = mpmath.eigh(rho_n - mpmath.mpf(c) * power(sigma))
        cut = mpmath.mpf("1e-12") * (1 + max(abs(x) for x in w))
        return float(mpmath.fsum((v[:, j].H * rho_n * v[:, j])[0].real for j in range(len(w)) if w[j] > cut))
