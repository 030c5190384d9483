"""Two-universal hashing simulation and privacy amplification insecurity.

A hash function is a lookup table from source symbols to output symbols.
Insecurity of a hashed CQ state is its distance to uniform-times-marginal
under a selectable measure. One batched kernel evaluates all four measures
for a stack of tables: it sums the source's ConditionalRenyiCurve blocks,
already rotated into the support frame of rho_E, per output and reads the
eigenvalues of the stacked blocks (order 1 + s for Renyi, 1/2 for the
purified-distance fidelity, 1 for relative entropy and trace distance).
The blocks come from one real GEMM of weighted one-hot rows against the
sandwiched source blocks. Their eigenvalues are read in closed form for
blocks of size 3 or less, where 3 x 3 blocks with a near-degenerate pair
go to eigvalsh, and by eigvalsh for larger blocks. No hashed state is
built.

A hash family numbers its members 0 .. table_count - 1: tables(members)
maps an int64 array of member indices to their tables, and
sample_members(rng, count) draws count member indices in one generator
call. Every scan runs on the calling thread, through one loop over chunks
of _CHUNK = 2048 rows in order. Exhaustive scans take the members in index
order. Monte Carlo draws chunk i of its members from its own generator
SeedSequence([seed, i]), so the chunk size is part of the seed contract;
it then evaluates each distinct member drawn once per scan and gathers the
values back into draw order. Only all_functions can number more members
than int64 holds; its Monte Carlo scans then draw the tables themselves
(sample_tables, the same generator call) and evaluate every drawn row.
Exhaustive family means, the lemma checks' among them, evaluate
each distinct table of a chunk once, keyed by its base-M integer unless
that overflows int64, and example 2 each distinct member it draws.

Relabeling the outputs of a table does not change its insecurity under any
of the four measures, so tables come in twins. The exhaustive minimum reads
one table per relabeling orbit: the restricted-growth tables, whose outputs
first appear in the order 0, 1, 2, ..., taken in ascending base-M index.
Each is the smallest index among its twins, so the reduction (min value,
ties to the smaller index) reports that canonical twin, and `evaluated`
still counts all M^X tables the minimum ranges over.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .operators import BudgetExceededError, _as_matrix, eig, positive_part_trace
from .measures import _STACK_ENTRIES, ConditionalRenyiCurve
from .states import MAX_SYMBOLS, CQState

MEASURES = ("trace_distance", "purified_distance", "relative_entropy", "renyi")
DEFAULT_BUDGET = 1 << 24
# tables per scan chunk; Monte Carlo draws each chunk from its own generator,
# so this size is part of the seed contract
_CHUNK = 2048
LEMMA_SLACK = 1e-9


@dataclass(frozen=True)
class InsecurityReport:
    """Distance of a hashed state from ideal, plus the winning table if searched."""

    measure: str
    value: float
    s: float | None = None
    hash_index: int | None = None
    hash_table: tuple[int, ...] | None = None
    evaluated: int | None = None


@dataclass(frozen=True)
class FamilyExpectation:
    value: float
    std_error: float | None
    count: int
    sampling: str


def _validate_measure(measure: str, s: float | None) -> None:
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}, got {measure!r}")
    if measure == "renyi":
        if s is None or not 0 < s < math.inf:
            raise ValueError(f"renyi measure needs a finite s > 0, got {s}")
    elif s is not None:
        raise ValueError(f"measure {measure!r} takes no order parameter")


def _output_blocks(tables: np.ndarray, curve: ConditionalRenyiCurve, m: int, alpha: float) -> np.ndarray:
    """rho_E^e (sum over f(x) = z of p_x rho_x) rho_E^e, e = (1 - alpha) / (2 alpha).

    One block per table row and output z, in the support frame of rho_E. The
    curve drops zero-probability symbols, and so do the table columns here.
    The weighted one-hot rows, one per (table row, z) with one column per
    symbol, multiply the sandwiched blocks viewed as real rows of 2 d^2
    floats, in one real GEMM.
    """
    rows = (tables[:, None, curve.cq.probs > 0] == np.arange(m)[:, None]) * curve.weights
    blocks = np.ascontiguousarray(curve.sandwiched_blocks(alpha))
    out = rows.reshape(-1, len(blocks)) @ blocks.reshape(len(blocks), -1).view(np.float64)
    return out.view(complex).reshape(len(tables), m, *blocks.shape[1:])


# a 3 x 3 block whose r lies this close to +-1 has two nearly equal
# eigenvalues, and arccos magnifies r's rounding by 1 / sqrt(1 - |r|) in
# their gap; past 1 - 1e-3 that would exceed 1e-14 max|lambda|, so eigvalsh
# reads those blocks
_NEAR_DEGENERATE_R = 1.0 - 1e-3


def _eigenvalues_3x3(blocks: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of 3 x 3 Hermitian blocks, by the trigonometric method.

    With q = tr / 3, p^2 = |B - q|_F^2 / 6 and r = det((B - q) / p) / 2, the
    eigenvalues are q + 2 p cos(phi + 2 pi k / 3), phi = arccos(r) / 3; the
    middle one is 3 q minus the other two. Multiples of the identity (zero
    blocks among them) are read off the diagonal. The rest of the rows with
    a near-degenerate pair (|r| > _NEAR_DEGENERATE_R), or whose p^3 leaves
    the normal float range, go through eigvalsh.
    """
    flat = blocks.reshape(-1, 3, 3)
    a0, a1, a2 = (flat[:, i, i].real for i in range(3))
    b01, b02, b12 = flat[:, 0, 1], flat[:, 0, 2], flat[:, 1, 2]
    q = (a0 + a1 + a2) / 3.0
    c0, c1, c2 = a0 - q, a1 - q, a2 - q
    n01, n02, n12 = (b.real**2 + b.imag**2 for b in (b01, b02, b12))
    p2 = (c0 * c0 + c1 * c1 + c2 * c2 + 2.0 * (n01 + n02 + n12)) / 6.0
    p = np.sqrt(p2)
    det = c0 * c1 * c2 + 2.0 * (b01 * b12 * b02.conj()).real - c0 * n12 - c1 * n02 - c2 * n01
    denom = 2.0 * p * p2
    with np.errstate(divide="ignore", invalid="ignore"):
        r = det / denom
        resolved = (np.abs(r) <= _NEAR_DEGENERATE_R) & (denom >= np.finfo(float).tiny) & (denom < np.inf)
        phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    big = q + 2.0 * p * np.cos(phi)
    small = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    w = np.stack([small, np.clip(3.0 * q - big - small, small, big), big], axis=-1)
    rest = np.flatnonzero(~resolved)
    if rest.size:
        sub = flat[rest]
        scalar = (sub == sub[:, :1, :1] * np.eye(3)).all(axis=(1, 2))
        w[rest[scalar]] = sub[scalar, :1, 0].real
        if not scalar.all():
            w[rest[~scalar]] = np.linalg.eigvalsh(sub[~scalar])
    return w.reshape(blocks.shape[:-1])


def _block_eigenvalues(blocks: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of Hermitian blocks, in closed form for size <= 3.

    A 2 x 2 block [[a, b], [b*, d]] has eigenvalues mid +- rad, with
    mid = (a + d) / 2 and rad = hypot((a - d) / 2, |b|). The one of larger
    magnitude takes the sign of mid, and the other is det / that one: for a
    PSD block the small eigenvalue keeps its relative accuracy, which
    w log w and sqrt(w) read. A 3 x 3 block goes through _eigenvalues_3x3,
    which hands blocks with two nearly equal eigenvalues to eigvalsh.
    Larger blocks go through eigvalsh.
    """
    size = blocks.shape[-1]
    if size == 1:
        return blocks[..., 0].real
    if size == 3:
        return _eigenvalues_3x3(blocks)
    if size != 2:
        return np.linalg.eigvalsh(blocks)
    a, d, abs_b = blocks[..., 0, 0].real, blocks[..., 1, 1].real, np.abs(blocks[..., 0, 1])
    mid = (a + d) / 2.0
    big = mid + np.copysign(np.hypot((a - d) / 2.0, abs_b), mid)
    small = np.divide(a * d - abs_b**2, big, out=np.zeros_like(big), where=big != 0.0)
    return np.stack([np.minimum(small, big), np.maximum(small, big)], axis=-1)


def _output_eigenvalues(tables: np.ndarray, curve: ConditionalRenyiCurve, m: int, alpha: float) -> np.ndarray:
    """Clipped eigenvalues of every _output_blocks block."""
    return np.clip(_block_eigenvalues(_output_blocks(tables, curve, m, alpha)), 0.0, None)


def _batch_q_renyi(tables: np.ndarray, curve: ConditionalRenyiCurve, m: int, s: float) -> np.ndarray:
    """Q_{1+s}(rho^f_ZE || 1_Z (x) rho_E) for each table row."""
    return (_output_eigenvalues(tables, curve, m, 1.0 + s) ** (1.0 + s)).sum(axis=(1, 2))


def _batch_values(tables: np.ndarray, curve: ConditionalRenyiCurve, m: int, measure: str, s: float | None) -> np.ndarray:
    """_measure_values in parts of at most _STACK_ENTRIES one-hot entries (rows x m x symbols); rows are independent."""
    step = max(1, _STACK_ENTRIES // (m * curve.weights.size))
    return np.concatenate([_measure_values(tables[lo : lo + step], curve, m, measure, s) for lo in range(0, len(tables), step)])


def _measure_values(
    tables: np.ndarray, curve: ConditionalRenyiCurve, m: int, measure: str, s: float | None
) -> np.ndarray:
    """Insecurity of each table row under the requested measure.

    Renyi reads the order-(1+s) blocks, purified distance the fidelity
    sum sqrt(eig(rho_E^1/2 block rho_E^1/2)) / sqrt(m) at order 1/2,
    relative entropy the entropy of the order-1 blocks, and trace distance
    the order-1 blocks minus the ideal diag(mu) / m.
    """
    if measure == "renyi":
        return math.log2(m) + np.log2(_batch_q_renyi(tables, curve, m, s)) / s
    if measure == "purified_distance":
        f = np.sqrt(_output_eigenvalues(tables, curve, m, 0.5)).sum(axis=(1, 2)) / math.sqrt(m)
        return np.sqrt(np.clip(1.0 - np.minimum(f, 1.0) ** 2, 0.0, None))
    if measure == "trace_distance":
        w = _block_eigenvalues(_output_blocks(tables, curve, m, 1.0) - np.diag(curve._mu) / m)
        return 0.5 * np.abs(w).sum(axis=(1, 2))
    w = _output_eigenvalues(tables, curve, m, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h_blocks = -np.where(w > 0, w * np.log2(w), 0.0).sum(axis=(1, 2))
    return math.log2(m) - (h_blocks - curve.sigma_entropy)


def _check_budget(count: int, budget: int) -> None:
    # member indices are int64, so no budget admits more tables than int64 holds
    cap = min(budget, np.iinfo(np.int64).max)
    if count > cap:
        raise BudgetExceededError(
            f"{count} tables exceed the exhaustive budget {cap}; use monte_carlo sampling instead"
        )


def _distinct_values(values, m: int):
    """values, wrapped to evaluate each distinct table row once.

    Rows are keyed by their base-m integer; where that overflows int64 every
    row is evaluated. Each row's value does not depend on the other rows, so
    the result is the same, bit for bit.
    """

    def distinct(tables: np.ndarray) -> np.ndarray:
        places = tables.shape[1]
        if m**places > np.iinfo(np.int64).max:
            return values(tables)
        keys = tables @ m ** np.arange(places - 1, -1, -1, dtype=np.int64)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        return values(tables[first])[inverse]

    return distinct


def _chunk_values(tables, count: int, values):
    """Yield (first row, values(tables(rows))) for each _CHUNK rows of 0 .. count - 1, in row order.

    rows is an ascending int64 slice of row indices. The chunks run one after
    another on the calling thread: a chunk's kernel is many small NumPy
    calls, and a second thread contending for the interpreter lock ran them
    no faster than one.
    """
    for lo in range(0, count, _CHUNK):
        yield lo, values(tables(np.arange(lo, min(lo + _CHUNK, count), dtype=np.int64)))


def min_insecurity_exhaustive(
    source: CQState,
    range_size: int,
    measure: str,
    s: float | None = None,
    *,
    budget: int = DEFAULT_BUDGET,
) -> InsecurityReport:
    """Exhaustive minimum insecurity over all tables domain -> [range_size].

    Reads one table per relabeling orbit, the restricted-growth tables in
    ascending base-range_size index; ties resolve to the smallest index, so
    the winner is its own canonical twin (module docstring). More than
    budget tables in all raise BudgetExceededError.
    """
    _validate_measure(measure, s)
    total = range_size**source.nsymbols
    _check_budget(total, budget)
    family = _RestrictedGrowthTables(source.nsymbols, range_size)
    curve = ConditionalRenyiCurve(source)
    best_val, best_row = math.inf, -1
    for lo, vals in _chunk_values(
        family.tables, family.table_count, lambda tables: _batch_values(tables, curve, range_size, measure, s)
    ):
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val, best_row = float(vals[k]), lo + k
    table = tuple(int(z) for z in family.tables(np.array([best_row], dtype=np.int64))[0])
    index = functools.reduce(lambda acc, z: acc * range_size + z, table, 0)
    return InsecurityReport(measure, best_val, s=s, hash_index=index, hash_table=table, evaluated=total)


def _max_pair_collision(symbols: np.ndarray) -> float:
    """Largest fraction of tables on which two distinct symbols share an output.

    symbols holds one row per symbol and one column per table (tables.T);
    its rows are compared as contiguous rows of the narrowest integer type.
    """
    symbols = np.ascontiguousarray(symbols, dtype=np.min_scalar_type(int(symbols.max(initial=0))))
    pairs = itertools.combinations(range(symbols.shape[0]), 2)
    counts = (np.count_nonzero(symbols[x1] == symbols[x2]) for x1, x2 in pairs)
    return float(max(counts, default=0) / symbols.shape[1])


class AllFunctionsFamily:
    """Uniform distribution over every table domain -> range.

    Member k is the table whose big-endian base-range digits spell k.
    sample_tables draws tables digit by digit; sample_members reads the
    same draw as base-range indices, which fit int64 only while
    table_count does.
    """

    kind = "all_functions"

    def __init__(self, domain_size: int, range_size: int):
        if domain_size < 1 or range_size < 1:
            raise ValueError("domain and range must be nonempty")
        self.domain_size = domain_size
        self.range_size = range_size

    @property
    def table_count(self) -> int:
        return self.range_size**self.domain_size

    def _powers(self) -> np.ndarray:
        return self.range_size ** np.arange(self.domain_size - 1, -1, -1, dtype=np.int64)

    def tables(self, members: np.ndarray) -> np.ndarray:
        return (members[:, None] // self._powers()[None, :]) % self.range_size

    def sample_tables(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.integers(0, self.range_size, size=(count, self.domain_size))

    def sample_members(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.sample_tables(rng, count) @ self._powers()

    def collision_certificate(self) -> dict:
        """Max pair-collision probability; exactly 1/range for this family.

        Verified exhaustively up to 2^16 tables, one narrow row of outputs
        per symbol, otherwise by the exact per-pair independence of table
        entries.
        """
        bound = 1.0 / self.range_size
        if self.table_count <= 1 << 16:
            members = np.arange(self.table_count)
            symbols = np.empty((self.domain_size, self.table_count), dtype=np.min_scalar_type(self.range_size - 1))
            for x, power in enumerate(self._powers()):
                symbols[x] = members // power % self.range_size
            worst = _max_pair_collision(symbols)
            certified = worst <= bound + 1e-12
            return {"max_collision": worst, "bound": bound, "certified": certified, "method": "exhaustive"}
        return {"max_collision": bound, "bound": bound, "certified": True, "method": "entrywise-independence"}


class _RestrictedGrowthTables:
    """The restricted-growth tables domain -> [range_size], in ascending index.

    Their outputs first appear in the order 0, 1, 2, ...: one table per
    relabeling orbit, the one with the smallest index. Member k is the k-th
    smallest, read digit by digit from the number of ways to complete each
    prefix.
    """

    def __init__(self, domain_size: int, range_size: int):
        self.domain_size = domain_size
        # completions[i][u]: restricted-growth suffixes from position i on, with labels 0 .. u-1 in use
        completions = [[1] * (range_size + 1) + [0]]
        for _ in range(domain_size):
            nxt = completions[0]
            completions.insert(0, [u * nxt[u] + nxt[u + 1] for u in range(range_size + 1)] + [0])
        self._completions = np.array(completions, dtype=np.int64)
        self.table_count = completions[0][0]

    def tables(self, members: np.ndarray) -> np.ndarray:
        rank = members.copy()
        used = np.zeros_like(members)
        out = np.empty((members.size, self.domain_size), dtype=np.int64)
        for i in range(self.domain_size):
            # each label in use heads `block` tables; the next new label heads the rest
            block = self._completions[i + 1].take(used)
            label = np.minimum(rank // block, used)
            rank -= label * block
            used += label == used
            out[:, i] = label
        return out


class AffinePrimeFamily:
    """Tables x -> ((a x + b) mod p) mod range, a in [1, p), b in [0, p).

    Member k has a = 1 + k // p and b = k % p; p(p - 1) must fit int64.
    """

    kind = "affine_prime"

    def __init__(self, prime: int, domain_size: int, range_size: int):
        if prime < 2 or any(prime % k == 0 for k in range(2, int(math.isqrt(prime)) + 1)):
            raise ValueError(f"{prime} is not prime")
        if not 1 <= domain_size <= prime:
            raise ValueError(f"domain size {domain_size} must be in [1, {prime}]")
        if not 2 <= range_size <= prime:
            raise ValueError(f"range size {range_size} must be in [2, {prime}]")
        if (prime - 1) * prime > np.iinfo(np.int64).max:
            raise ValueError(f"prime {prime} numbers more members than int64 holds")
        self.prime = prime
        self.domain_size = domain_size
        self.range_size = range_size

    @property
    def table_count(self) -> int:
        return (self.prime - 1) * self.prime

    def tables(self, members: np.ndarray) -> np.ndarray:
        a = 1 + members // self.prime
        b = members % self.prime
        x = np.arange(self.domain_size)
        return ((a[:, None] * x[None, :] + b[:, None]) % self.prime) % self.range_size

    def sample_members(self, rng: np.random.Generator, count: int) -> np.ndarray:
        a, b = rng.integers([1, 0], [self.prime, self.prime], size=(count, 2)).T
        return (a - 1) * self.prime + b

    def collision_certificate(self) -> dict:
        """Exhaustive pair-collision count over all (a, b) members, for primes up to 257."""
        if self.prime > 257:
            raise BudgetExceededError("exhaustive certification is limited to primes <= 257")
        worst = _max_pair_collision(self.tables(np.arange(self.table_count)).T)
        bound = 1.0 / self.range_size
        return {
            "max_collision": worst,
            "bound": bound,
            "certified": worst <= bound + 1e-12,
            "method": "exhaustive",
        }


class PermutationProductFamily:
    """Per-copy permutations of four symbols followed by a fixed 2-to-1 map.

    The single-copy family applies a uniformly random permutation of
    {0, 1, 2, 3} and then the balanced map (0,0,1,1); its worst pair-collision
    probability is exactly 1/3 <= 1/2, certified by enumerating all 24
    permutations. n copies draw their permutations independently, hashing
    4^n symbols to n bits. Member k applies, to copy i, the permutation
    numbered by the i-th big-endian base-24 digit of k, its rank among the
    24 in lexicographic order.
    """

    kind = "example2_permutation"
    _base_map = np.array([0, 0, 1, 1])
    _perms = np.array(list(itertools.permutations(range(4))))
    # _perm_rank[perm @ (64, 16, 4, 1)] is the row of perm in _perms
    _perm_rank = np.zeros(256, dtype=np.int64)
    _perm_rank[_perms @ 4 ** np.arange(3, -1, -1)] = np.arange(24)

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        if 4**n > MAX_SYMBOLS:
            raise BudgetExceededError(f"permutation family domain 4^{n} exceeds the cap {MAX_SYMBOLS} symbols")
        self.n = n
        self.domain_size = 4**n
        self.range_size = 2**n

    @property
    def table_count(self) -> int:
        return 24**self.n

    def _places(self, base: int) -> np.ndarray:
        return base ** np.arange(self.n - 1, -1, -1, dtype=np.int64)

    def tables(self, members: np.ndarray) -> np.ndarray:
        bits = self._base_map[self._perms[(members[:, None] // self._places(24)[None, :]) % 24]]
        symbol_digits = (np.arange(self.domain_size)[:, None] // self._places(4)[None, :]) % 4
        # one copy at a time: gathering every copy at once holds n int64 per table entry
        return sum(bits[:, i, symbol_digits[:, i]] << (self.n - 1 - i) for i in range(self.n))

    def sample_members(self, rng: np.random.Generator, count: int) -> np.ndarray:
        perms = rng.permuted(np.tile(np.arange(4), (count, self.n, 1)), axis=-1)
        return self._perm_rank[perms @ 4 ** np.arange(3, -1, -1)] @ self._places(24)

    def collision_certificate(self) -> dict:
        """Exact worst collision probability of the single-copy family, over its 24 members."""
        worst = _max_pair_collision(PermutationProductFamily(1).tables(np.arange(24)).T)
        return {
            "max_collision": worst,
            "bound": 0.5,
            "certified": worst <= 0.5 + 1e-15,
            "method": "exhaustive-base",
        }


def _check_domain(family, source: CQState) -> None:
    if family.domain_size != source.nsymbols:
        raise ValueError(f"family domain {family.domain_size} != source symbols {source.nsymbols}")


def _exhaustive_mean(family, source: CQState, values, *, budget: int) -> float:
    """Mean of values(tables) over every member, summed chunk by chunk in order."""
    _check_domain(family, source)
    _check_budget(family.table_count, budget)
    total = 0.0
    for _, vals in _chunk_values(family.tables, family.table_count, values):
        total += float(vals.sum())
    return total / family.table_count


def _distinct_members(members: np.ndarray, table_count: int) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(members, return_inverse=True) for member indices in [0, table_count).

    With no more members than draws, a presence mask and its running count
    give the same arrays without a sort: at most 9 bytes per draw, where the
    sort holds about 47.
    """
    if table_count > members.size:
        return np.unique(members, return_inverse=True)
    present = np.zeros(table_count, dtype=bool)
    present[members] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[members]


def family_expectation(
    family,
    source: CQState,
    measure: str,
    s: float | None = None,
    *,
    sampling: str = "exhaustive",
    count: int = 10**4,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> FamilyExpectation:
    """Expected insecurity over a hash family, exhaustive or Monte-Carlo.

    Monte-Carlo draws each chunk of members from its own generator keyed by
    (seed, chunk index), evaluates each distinct member once per scan and
    reads the values back in draw order; the standard error of the mean is
    reported alongside. all_functions past int64 members draws its tables
    instead and evaluates every drawn row.
    """
    _validate_measure(measure, s)
    curve = ConditionalRenyiCurve(source)
    m = family.range_size

    def values(tables):
        return _batch_values(tables, curve, m, measure, s)

    if sampling == "exhaustive":
        mean = _exhaustive_mean(family, source, _distinct_values(values, m), budget=budget)
        return FamilyExpectation(mean, None, family.table_count, "exhaustive")
    if sampling != "monte_carlo":
        raise ValueError(f"sampling must be 'exhaustive' or 'monte_carlo', got {sampling!r}")
    if count < 2:
        raise ValueError("monte_carlo needs count >= 2")
    _check_domain(family, source)

    def chunk_rng(lo):
        return np.random.default_rng(np.random.SeedSequence([seed, lo // _CHUNK]))

    if family.table_count > np.iinfo(np.int64).max:
        chunks = _chunk_values(lambda rows: family.sample_tables(chunk_rng(rows[0]), rows.size), count, values)
        vals = np.concatenate([v for _, v in chunks])
    else:
        members = np.empty(count, dtype=np.int64)
        for lo in range(0, count, _CHUNK):
            members[lo : lo + _CHUNK] = family.sample_members(chunk_rng(lo), min(_CHUNK, count - lo))
        distinct, inverse = _distinct_members(members, family.table_count)
        chunks = _chunk_values(lambda rows: family.tables(distinct[rows]), distinct.size, values)
        vals = np.concatenate([v for _, v in chunks])[inverse]
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(count))
    return FamilyExpectation(mean, se, count, "monte_carlo")


def positive_part_superadditivity_check(ops, lam: float):
    """tr(sum A_x - lam 1)_+ >= sum_x tr(A_x - lam 1)_+ for PSD A_x.

    Returns (lhs, rhs) and raises if the inequality fails beyond slack.
    """
    mats = [_as_matrix(a) for a in ops]
    if not mats:
        raise ValueError("need at least one operator")
    d = mats[0].shape[0]
    ident = np.eye(d)
    total = sum(mats)
    lhs = positive_part_trace(total - lam * ident)
    rhs = sum(positive_part_trace(a - lam * ident) for a in mats)
    if lhs < rhs - LEMMA_SLACK:
        raise ArithmeticError(f"superadditivity violated: {lhs!r} < {rhs!r}")
    return lhs, rhs


def _hashed_q_mean(source: CQState, family, s: float, scale: float, *, budget: int):
    """(E_F scale Q_{1+s}(rho^F_ZE || 1_Z (x) rho_E), the source curve, v(rho_E)), scaling each table's Q."""
    if s <= 0:
        raise ValueError(f"s must be positive, got {s}")
    curve = ConditionalRenyiCurve(source)
    m = family.range_size
    values = _distinct_values(lambda tables: scale * _batch_q_renyi(tables, curve, m, s), m)
    lhs = _exhaustive_mean(family, source, values, budget=budget)
    return lhs, curve, eig(source.rho_e()).distinct_count


def hashed_q_expectation_check(
    source: CQState,
    family,
    s: float,
    *,
    budget: int = DEFAULT_BUDGET,
):
    """E_F Q_{1+s}(rho^F_ZE || 1_Z (x) rho_E) against its two-universal bound.

    The bound is v(rho_E) (Q_{1+s}(rho_XE || 1_X (x) rho_E) + range^-s).
    Returns (lhs, rhs) and raises if lhs exceeds rhs beyond slack.
    """
    lhs, curve, v = _hashed_q_mean(source, family, s, 1.0, budget=budget)
    rhs = v * (float(np.exp2(curve.log2_q(1.0 + s))) + family.range_size**-s)
    if lhs > rhs + LEMMA_SLACK:
        raise ArithmeticError(f"hashed Q expectation bound violated: {lhs!r} > {rhs!r}")
    return lhs, rhs


def leftover_hash_exponent_check(
    source: CQState,
    family,
    s: float,
    *,
    budget: int = DEFAULT_BUDGET,
):
    """E_F 2^(s D_{1+s}(rho^F_ZE || ideal)) against 1 + v^s 2^(s(log M - H_{1+s})).

    Returns (lhs, rhs) and raises if lhs exceeds rhs beyond slack.
    """
    m = family.range_size
    lhs, curve, v = _hashed_q_mean(source, family, s, m**s, budget=budget)
    rhs = 1.0 + v**s * float(np.exp2(s * (math.log2(m) - curve.h(1.0 + s))))
    if lhs > rhs + LEMMA_SLACK:
        raise ArithmeticError(f"leftover-hash exponent bound violated: {lhs!r} > {rhs!r}")
    return lhs, rhs


def example1_suite(
    n: int,
    range_bits: int = 1,
    *,
    budget: int = DEFAULT_BUDGET,
) -> dict:
    """Exhaustive minima for the iid biased binary source p = (1/3, 2/3).

    Scans every table from 2^n symbols to 2^range_bits outputs and reports the
    minima under trace distance, purified distance, and relative entropy. The
    trace-distance minimum obeys the exact lower bound 1 / (2 * 3^n) for every
    table, with equality 1/6 at n = 1 and one output bit. The implied per-n
    exponent samples are compared with their caps log2(3) and log2(9) plus
    the per-n correction that the trace-distance floor forces.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if range_bits < 1:
        raise ValueError(f"range_bits must be >= 1, got {range_bits}")
    base = CQState.classical([1.0 / 3.0, 2.0 / 3.0])
    source = base.tensor_power(n) if n > 1 else base
    m = 2**range_bits
    reports = {
        meas: min_insecurity_exhaustive(source, m, meas, budget=budget)
        for meas in ("trace_distance", "purified_distance", "relative_entropy")
    }
    floor = 1.0 / (2.0 * 3.0**n)
    d_min = reports["trace_distance"].value
    p_min = reports["purified_distance"].value
    dk_min = reports["relative_entropy"].value
    checks = [
        {
            "name": "trace-distance floor holds for every table",
            "measured": d_min,
            "bound": floor,
            "passed": d_min >= floor - 1e-12,
        },
    ]
    if n == 1 and range_bits == 1:
        checks.append(
            {
                "name": "one-copy one-bit minimum is exactly 1/6",
                "measured": d_min,
                "bound": 1.0 / 6.0,
                "passed": abs(d_min - 1.0 / 6.0) <= 1e-12,
            }
        )
    exp_p = -math.log2(p_min) / n if p_min > 0 else math.inf
    exp_d = -math.log2(dk_min) / n if dk_min > 0 else math.inf
    cap_p = math.log2(3.0) + 1.0 / n
    cap_d = math.log2(9.0) + math.log2(2.0 * math.log(2.0)) / n
    checks.append(
        {
            "name": "purified-distance exponent sample within its bound",
            "measured": exp_p,
            "bound": cap_p,
            "passed": exp_p <= cap_p + 1e-9,
        }
    )
    checks.append(
        {
            "name": "divergence exponent sample within its bound",
            "measured": exp_d,
            "bound": cap_d,
            "passed": exp_d <= cap_d + 1e-9,
        }
    )
    return {
        "n": n,
        "range_bits": range_bits,
        "minima": reports,
        "exponent_samples": {
            "purified": exp_p,
            "relative_entropy": exp_d,
            "cap_purified": math.log2(3.0),
            "cap_relative_entropy": math.log2(9.0),
        },
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def example2_suite(
    n: int,
    *,
    realizations: int = 100,
    seed: int = 0,
) -> dict:
    """Uniform 4-ary source hashed by independent per-copy permutations.

    Certifies the base family collision probability (exactly 1/3) and checks
    that every sampled realization maps the uniform source to exactly uniform
    output bits: purified-distance, relative-entropy, and order-2 Renyi
    insecurity all vanish to tolerance, so the expected divergence decays
    faster than any exponential (marker inf).
    """
    if realizations < 1:
        raise ValueError(f"realizations must be >= 1, got {realizations}")
    family = PermutationProductFamily(n)
    cert = family.collision_certificate()
    curve = ConditionalRenyiCurve(CQState.classical(np.full(4**n, 0.25**n)))
    members = family.sample_members(np.random.default_rng(np.random.SeedSequence(seed)), realizations)
    tables = family.tables(np.unique(members))
    tol = 1e-12
    worst = {
        meas: max(0.0, float(_batch_values(tables, curve, family.range_size, meas, s).max()))
        for meas, s in (("purified_distance", None), ("relative_entropy", None), ("renyi", 1.0))
    }
    checks = [
        {
            "name": "base family collision probability is exactly 1/3",
            "measured": cert["max_collision"],
            "bound": 1.0 / 3.0,
            "passed": abs(cert["max_collision"] - 1.0 / 3.0) <= 1e-15 and cert["certified"],
        }
    ] + [
        {
            "name": f"{meas} insecurity vanishes on every realization",
            "measured": val,
            "bound": tol,
            "passed": val <= tol,
        }
        for meas, val in worst.items()
    ]
    return {
        "n": n,
        "realizations": realizations,
        "certificate": cert,
        "worst_insecurity": worst,
        "exponent_marker": math.inf,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
