from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privamp import (
    AffinePrimeFamily,
    AllFunctionsFamily,
    BudgetExceededError,
    CQState,
    PermutationProductFamily,
    example1_suite,
    example2_suite,
    family_expectation,
    hashed_q_expectation_check,
    leftover_hash_exponent_check,
    min_insecurity_exhaustive,
    positive_part_superadditivity_check,
    trace_distance,
)
from privamp import hashing
from privamp.measures import ConditionalRenyiCurve
from conftest import rand_cq, rand_density, rand_unitary
import reference

BIASED = CQState.classical([1 / 3, 2 / 3])


def _insecurity(cq: CQState, table, m: int, measure: str, s: float | None = None) -> float:
    """The batched kernel's value for one table onto [m]."""
    return float(hashing._batch_values(np.array([table]), ConditionalRenyiCurve(cq), m, measure, s)[0])


def _table_index(table, m: int) -> int:
    """The table as a big-endian base-m integer: the first symbol owns the most significant digit."""
    return sum(int(z) * m ** (len(table) - 1 - i) for i, z in enumerate(table))


def test_insecurity_zero_for_uniform_decoupled_source():
    cq = CQState.classical(np.full(4, 0.25))
    table = [0, 1, 0, 1]
    assert _insecurity(cq, table, 2, "trace_distance") <= 1e-12
    assert _insecurity(cq, table, 2, "purified_distance") <= 1e-12
    assert _insecurity(cq, table, 2, "relative_entropy") <= 1e-12
    assert _insecurity(cq, table, 2, "renyi", s=1.0) <= 1e-12


def test_insecurity_relative_entropy_identity():
    # D(rho_ZE || 1/M (x) rho_E) = log2 M - H(Z|E) of the dense hashed state
    rng = np.random.default_rng(163)
    cq = rand_cq(rng, 4, 2)
    table = [0, 1, 1, 0]
    want = 1.0 - reference.conditional_entropy(reference.hashed_density(cq, table, 2), (2, 2), 1.0)
    assert abs(_insecurity(cq, table, 2, "relative_entropy") - want) <= 1e-10


def test_insecurity_renyi_identity():
    rng = np.random.default_rng(167)
    cq = rand_cq(rng, 4, 2)
    table = [0, 1, 1, 0]
    for s in (0.25, 1.0):
        want = 1.0 - reference.conditional_entropy(reference.hashed_density(cq, table, 2), (2, 2), 1.0 + s)
        assert abs(_insecurity(cq, table, 2, "renyi", s=s) - want) <= 1e-10


def _reference_case(case: str):
    """(source, table, outputs m) of one dense-reference case."""
    rng = np.random.default_rng(211)
    if case == "full-rank":
        return rand_cq(rng, 5, 2), [0, 1, 2, 0, 1], 3
    if case == "rank-deficient":
        # d_E = 3, every conditional inside one 2-dimensional subspace
        iso = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))[0]
        conds = [iso @ rand_density(rng, 2) @ iso.conj().T for _ in range(4)]
        return CQState(rng.dirichlet(np.ones(4)), conds), [1, 0, 0, 1], 2
    if case == "one-dim-E":
        return CQState.classical(rng.dirichlet(np.ones(5))), [0, 1, 1, 0, 1], 2
    # output 1 of three receives no symbol
    return rand_cq(rng, 4, 3), [0, 2, 0, 2], 3


@pytest.mark.parametrize("case", ["full-rank", "rank-deficient", "one-dim-E", "empty-output"])
def test_insecurity_matches_dense_reference(case):
    # the batched kernel on the table against the plain-numpy divergences of
    # the dense hashed state from 1_Z/m (x) rho_E. The library's dense
    # fidelity would not do as the reference: on the rank-deficient case it
    # square-roots two rounding-level eigenvalues (3e-18, 6e-18) of
    # sqrt(sigma) rho sqrt(sigma) and reads P 8e-9 off a 40-digit value.
    cq, table, m = _reference_case(case)
    rho = reference.hashed_density(cq, table, m)
    ideal = np.kron(np.eye(m) / m, cq.rho_e())
    want = {
        "trace_distance": trace_distance(rho, ideal),
        "purified_distance": reference.purified_distance(rho, ideal),
        "relative_entropy": reference.divergence(rho, ideal, 1.0),
    }
    for measure, value in want.items():
        assert abs(_insecurity(cq, table, m, measure) - value) <= 1e-10, measure
    for s in (0.25, 1.0, 3.0):
        value = reference.divergence(rho, ideal, 1.0 + s)
        assert abs(_insecurity(cq, table, m, "renyi", s) - value) <= 1e-10, s
    # an order next to 1 is finite and near the relative entropy
    near_one = _insecurity(cq, table, m, "renyi", 1e-7)
    assert math.isfinite(near_one)
    assert abs(near_one - want["relative_entropy"]) <= 1e-6


def test_insecurity_requires_order_for_renyi():
    scans = (
        lambda measure, s=None: min_insecurity_exhaustive(BIASED, 2, measure, s),
        lambda measure, s=None: family_expectation(AllFunctionsFamily(2, 2), BIASED, measure, s),
    )
    for scan in scans:
        with pytest.raises(ValueError, match="needs a finite s > 0"):
            scan("renyi")
        with pytest.raises(ValueError, match="measure must be one of"):
            scan("no_such_measure")
        with pytest.raises(ValueError, match="takes no order parameter"):
            scan("trace_distance", 0.5)


def test_exhaustive_minimum_biased_source():
    rep = min_insecurity_exhaustive(BIASED, 2, "trace_distance")
    assert abs(rep.value - 1.0 / 6.0) <= 1e-15
    assert rep.evaluated == 4
    # identity and swap tables tie at 1/6; the smaller index wins
    assert rep.hash_table in ((0, 1), (1, 0))
    assert rep.hash_index == _table_index(rep.hash_table, 2)
    assert type(rep.hash_index) is int and all(type(z) is int for z in rep.hash_table)


@pytest.mark.parametrize(
    "measure,s",
    [("trace_distance", None), ("purified_distance", None), ("relative_entropy", None), ("renyi", 0.5)],
)
def test_exhaustive_minimum_reports_canonical_twin(measure, s):
    # relabeled outputs tie up to rounding; the reported table must be the
    # restricted-growth member of the winner's orbit, whatever rounding picked
    rng = np.random.default_rng(197)
    for _ in range(6):
        cq = rand_cq(rng, 6, 2)
        rep = min_insecurity_exhaustive(cq, 3, measure, s)
        first_seen = list(dict.fromkeys(rep.hash_table))
        assert first_seen == list(range(len(first_seen))), rep.hash_table
        assert rep.hash_index == _table_index(rep.hash_table, 3)
        twin = _insecurity(cq, rep.hash_table, 3, measure, s)
        assert abs(twin - rep.value) <= 1e-12


def test_exhaustive_budget_gate():
    cq = CQState.classical(np.full(8, 0.125))
    with pytest.raises(BudgetExceededError):
        min_insecurity_exhaustive(cq, 3, "trace_distance", budget=100)
    # the gate counts all 2^8 = 256 tables, not the 128 restricted-growth ones scanned
    with pytest.raises(BudgetExceededError):
        min_insecurity_exhaustive(cq, 2, "trace_distance", budget=200)
    assert min_insecurity_exhaustive(cq, 2, "trace_distance", budget=256).evaluated == 256


def _restricted_growth(table) -> bool:
    first_seen = list(dict.fromkeys(table))
    return first_seen == list(range(len(first_seen)))


def _brute_force_minimum(cq: CQState, m: int, measure: str, s):
    """(canonical index, value) of the minimum over every one of the m^X tables."""
    fam = AllFunctionsFamily(cq.nsymbols, m)
    vals = hashing._batch_values(fam.tables(np.arange(fam.table_count)), ConditionalRenyiCurve(cq), m, measure, s)
    k = int(np.argmin(vals))
    labels: dict[int, int] = {}
    table = tuple(labels.setdefault(int(z), len(labels)) for z in fam.tables(np.array([k]))[0])
    return _table_index(table, m), float(vals[k])


MEASURE_ORDERS = [("trace_distance", None), ("purified_distance", None), ("relative_entropy", None), ("renyi", 0.5)]


@pytest.mark.parametrize("nx,m", [(6, 2), (5, 3), (5, 4), (3, 4)])
def test_exhaustive_minimum_matches_brute_force(monkeypatch, nx, m):
    # 32, 41, 51 and 5 restricted-growth tables: every scan's last chunk of 7 is short
    monkeypatch.setattr(hashing, "_CHUNK", 7)
    rng = np.random.default_rng(199)
    for de in (2, 3):
        for measure, s in MEASURE_ORDERS:
            cq = rand_cq(rng, nx, de)
            want_index, want_value = _brute_force_minimum(cq, m, measure, s)
            rep = min_insecurity_exhaustive(cq, m, measure, s)
            assert rep.hash_index == want_index, (de, measure)
            assert abs(rep.value - want_value) <= 1e-12, (de, measure)
            assert rep.evaluated == m**nx


def test_scans_evaluate_each_distinct_table_once(monkeypatch):
    rows = []
    batch_values = hashing._batch_values

    def counting(tables, *args):
        rows.append(tables.shape[0])
        return batch_values(tables, *args)

    monkeypatch.setattr(hashing, "_batch_values", counting)
    rng = np.random.default_rng(223)
    searched = [(rand_cq(rng, nx, 2), m) for nx, m in ((9, 2), (7, 3), (5, 4))]
    sampled, qutrit, ququart = rand_cq(rng, 9, 2), rand_cq(rng, 4, 3), rand_cq(rng, 4, 4)
    eigvalsh_calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: eigvalsh_calls.append(a.shape) or eigvalsh(a, *args))
    for cq, m in searched:
        rows.clear()
        min_insecurity_exhaustive(cq, m, "relative_entropy")
        assert sum(rows) == sum(map(_restricted_growth, itertools.product(range(m), repeat=cq.nsymbols))), m
    # 110 members, drawn 5000 times in chunks of 2048: one kernel call reads each distinct member once
    fam = AffinePrimeFamily(11, 9, 3)
    drawn = np.concatenate([
        fam.sample_members(np.random.default_rng(np.random.SeedSequence([3, i])), min(2048, 5000 - lo))
        for i, lo in enumerate(range(0, 5000, 2048))
    ])
    rows.clear()
    family_expectation(fam, sampled, "trace_distance", sampling="monte_carlo", count=5000, seed=3)
    assert rows == [np.unique(drawn).size] and rows[0] <= fam.table_count
    # d_E = 2 and full-rank d_E = 3 blocks are read in closed form, d_E = 4 blocks by eigvalsh
    assert eigvalsh_calls == []
    rows.clear()
    min_insecurity_exhaustive(qutrit, 2, "purified_distance")
    assert eigvalsh_calls == [] and sum(rows) == 8
    rows.clear()
    min_insecurity_exhaustive(ququart, 2, "purified_distance")
    assert eigvalsh_calls and sum(rows) == 8


def _hermitian_2x2(a: float, d: float, b: complex) -> np.ndarray:
    return np.array([[a, b], [np.conj(b), d]], dtype=complex)


def _rank_one(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def _indefinite_trace_distance_block() -> np.ndarray:
    # the trace-distance branch's output-1 block minus the ideal diag(mu) / m
    cq, table, _ = _reference_case("full-rank")
    curve = ConditionalRenyiCurve(cq)
    blocks = hashing._output_blocks(np.array([table]), curve, 3, 1.0) - np.diag(curve._mu) / 3
    return blocks[0, 1]


def _with_spectrum(spectrum, seed: int) -> np.ndarray:
    """A Hermitian block with the given eigenvalues in a random basis."""
    u = rand_unitary(np.random.default_rng(seed), len(spectrum))
    block = (u * np.asarray(spectrum, dtype=float)) @ u.conj().T
    return (block + block.conj().T) / 2.0


def _indefinite_qutrit_block() -> np.ndarray:
    # the same for d_E = 3: output 0 of three, which receives symbols 0 and 2
    cq, table, _ = _reference_case("empty-output")
    curve = ConditionalRenyiCurve(cq)
    blocks = hashing._output_blocks(np.array([table]), curve, 3, 1.0) - np.diag(curve._mu) / 3
    return blocks[0, 0]


CLOSED_FORM_BLOCKS = {
    "zero": np.zeros((2, 2), dtype=complex),
    "rank-1": _rank_one([0.6, 0.3 - 0.4j]),
    "diagonal": _hermitian_2x2(0.3, 0.1, 0.0),
    "equal-diagonal": _hermitian_2x2(0.25, 0.25, 0.1 - 0.05j),
    "tiny-eigenvalue": _rank_one([0.8, 0.6j]) + 1e-14 * _rank_one([0.6j, 0.8]),
    "indefinite": _indefinite_trace_distance_block(),
    "size-1": np.array([[0.375]], dtype=complex),
    "3x3-zero": np.zeros((3, 3), dtype=complex),
    "3x3-identity-multiple": 0.4 * np.eye(3, dtype=complex),
    "3x3-diagonal": np.diag([0.5, 0.1, 0.2]).astype(complex),
    "3x3-rank-1": _rank_one([0.6, 0.3 - 0.4j, 0.2 + 0.5j]),
    "3x3-rank-2": _rank_one([0.6, 0.3 - 0.4j, 0.2 + 0.5j]) + _rank_one([0.1j, 0.5, -0.3]),
    "3x3-degenerate-lower-pair": _with_spectrum([0.1, 0.1, 0.7], 5),
    "3x3-degenerate-upper-pair": _with_spectrum([0.1, 0.45, 0.45], 6),
    "3x3-indefinite": _indefinite_qutrit_block(),
    "3x3-complex-phases": np.array(
        [[0.4, 0.1 + 0.2j, -0.05j], [0.1 - 0.2j, 0.35, 0.08 - 0.03j], [0.05j, 0.08 + 0.03j, 0.25]]
    ),
}
# eigenvalue error allowed, in units of the block's largest |eigenvalue|
CLOSED_FORM_TOLERANCE = {1: 0.0, 2: 4 * np.finfo(float).eps, 3: 1e-14}


@pytest.mark.parametrize("case", CLOSED_FORM_BLOCKS)
def test_block_eigenvalues_closed_form_matches_eigvalsh(case):
    block = CLOSED_FORM_BLOCKS[case]
    assert np.allclose(block, block.conj().T, rtol=0, atol=1e-15)
    stack = np.stack([block, 2.0 * block, -block])
    got = hashing._block_eigenvalues(stack)
    want = np.linalg.eigvalsh(stack)
    assert got.shape == want.shape
    scale = np.abs(want).max(axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= CLOSED_FORM_TOLERANCE[block.shape[-1]] * scale), (got, want)
    assert np.all(np.diff(got, axis=-1) >= 0)


@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    spectrum=st.lists(st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-1.0, 1.0), min_size=3, max_size=3),
    shape=st.sampled_from(["free", "repeated", "clustered"]),
    scale=st.sampled_from([1e-9, 1.0, 1e6]),
)
def test_block_eigenvalues_3x3_matches_eigvalsh_on_any_spectrum(seed, spectrum, shape, scale):
    # repeated and clustered pairs are where the trigonometric form loses the gap
    if shape == "repeated":
        spectrum[1] = spectrum[0]
    elif shape == "clustered":
        spectrum[1] = spectrum[0] * (1.0 + 1e-7) + 1e-9
    block = _with_spectrum(scale * np.array(spectrum), seed % 2**16)
    got = hashing._block_eigenvalues(block[None])[0]
    want = np.linalg.eigvalsh(block)
    assert np.all(np.abs(got - want) <= CLOSED_FORM_TOLERANCE[3] * np.abs(want).max()), (got, want)
    assert np.all(np.diff(got) >= 0)


def test_block_eigenvalues_3x3_near_degenerate_pairs_stay_within_bound():
    # a pair 0.5-5% apart puts r within 1e-4..1e-2 of 1, where arccos magnifies
    # r's rounding; with the guard at 1 - 1e-4 a 0.5% gap erred by 1.2e-14
    rng = np.random.default_rng(241)
    for gap in (0.005, 0.01, 0.02, 0.05):
        u = np.stack([rand_unitary(rng, 3) for _ in range(400)])
        blocks = (u * np.array([0.1, 1.0 - gap, 1.0])) @ u.conj().transpose(0, 2, 1)
        blocks = (blocks + blocks.conj().transpose(0, 2, 1)) / 2.0
        err = np.abs(hashing._block_eigenvalues(blocks) - np.linalg.eigvalsh(blocks)).max()
        assert err <= CLOSED_FORM_TOLERANCE[3], (gap, err)


def test_block_eigenvalues_3x3_small_eigenvalue_root_matches_mpmath():
    # purified distance reads sqrt(lambda); on near-singular PSD blocks the closed
    # form's sqrt(lambda_min) must be no further than 4x eigvalsh's from a 40-digit reference
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(229)
    for ratio in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 0.0):
        spectra = [[1.0, 0.0, 0.0] if ratio == 0.0 else [1.0, rng.uniform(0.2, 0.8), ratio] for _ in range(12)]
        blocks = np.stack([_with_spectrum(spec, int(rng.integers(2**16))) for spec in spectra])
        with mpmath.workdps(40):
            want = np.array([
                min(mpmath.eighe(mpmath.matrix(block.tolist()), eigvals_only=True)) for block in blocks
            ], dtype=float)
        root = lambda w: np.sqrt(np.clip(w, 0.0, None))
        closed = np.abs(root(hashing._block_eigenvalues(blocks)[:, 0]) - root(want)).max()
        lapack = np.abs(root(np.linalg.eigvalsh(blocks)[:, 0]) - root(want)).max()
        assert closed <= 4.0 * lapack, (ratio, closed, lapack)


def test_block_eigenvalues_keeps_a_small_eigenvalue_relative():
    # entries that fix the small eigenvalue to high relative accuracy
    block = _hermitian_2x2(1.0, 2e-14, 1e-8j)
    small = 2e-14 - 1e-16 / (1.0 - 2e-14)  # det / lambda_+ to second order
    assert abs(hashing._block_eigenvalues(block[None])[0, 0] - small) <= 1e-10 * small


def _einsum_output_blocks(tables, curve, m, alpha):
    """The output blocks as one complex einsum over (table, symbol, output) weights."""
    weighted = (tables[:, curve.cq.probs > 0, None] == np.arange(m)[None, None, :]) * curve.weights[None, :, None]
    return np.einsum("nxm,xij->nmij", weighted, curve.sandwiched_blocks(alpha))


@pytest.mark.parametrize("de", [1, 2, 3])
def test_output_blocks_match_einsum(de):
    rng = np.random.default_rng(233)
    for m in (1, 2, 3, 4):
        for zero_symbol in (False, True):
            cq = rand_cq(rng, 7, de)
            if zero_symbol:
                cq = CQState(np.concatenate([[0.0], cq.probs[1:] / cq.probs[1:].sum()]), cq.conditionals)
            curve = ConditionalRenyiCurve(cq)
            tables = rng.integers(0, m, size=(300, 7))
            for alpha in (0.5, 1.0, 2.0):
                got = hashing._output_blocks(tables, curve, m, alpha)
                want = _einsum_output_blocks(tables, curve, m, alpha)
                assert got.shape == want.shape == (300, m, de, de)
                # the same products summed in two orders: 2 ulp of the stack's largest entry
                bound = 2 * np.spacing(np.abs(want).max())
                assert np.all(np.abs(got.real - want.real) <= bound), (m, zero_symbol, alpha)
                assert np.all(np.abs(got.imag - want.imag) <= bound), (m, zero_symbol, alpha)


def _one_chunk_of_output_blocks() -> np.ndarray:
    rng = np.random.default_rng(239)
    cq = rand_cq(rng, 13, 3)
    tables = rng.integers(0, 3, size=(hashing._CHUNK, 13))
    return hashing._output_blocks(tables, ConditionalRenyiCurve(cq), 3, 0.5)


def test_output_blocks_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a chunk's GEMM is large enough for OpenBLAS to split it over its threads; the child gets one
    out = tmp_path / "one_thread.npy"
    script = (
        "import sys; import numpy as np; sys.path[:0] = sys.argv[2:]; "
        "from test_hashing import _one_chunk_of_output_blocks as f; np.save(sys.argv[1], f())"
    )
    paths = [os.path.dirname(__file__), os.path.dirname(os.path.dirname(hashing.__file__))]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", script, str(out), *paths], env=env, check=True, timeout=120)
    assert np.array_equal(np.load(out), _one_chunk_of_output_blocks())


def _drawn_tables(family, rng: np.random.Generator, count: int) -> np.ndarray:
    """count tables drawn from rng: all_functions draws tables, the other families member indices."""
    if isinstance(family, AllFunctionsFamily):
        return family.sample_tables(rng, count)
    return family.tables(family.sample_members(rng, count))


@pytest.mark.parametrize(
    "family",
    [AffinePrimeFamily(11, 9, 3), AllFunctionsFamily(6, 2), PermutationProductFamily(3), AllFunctionsFamily(64, 2)],
    ids=["affine_prime", "all_functions", "permutation-key-overflows", "all_functions-members-overflow"],
)
def test_monte_carlo_mean_equals_mean_over_every_drawn_row(monkeypatch, family):
    # 300 draws in chunks of 64. The 8^64 table keys of the permutation family
    # overflow int64 but its 24^3 members do not; the 2^64 members of the last
    # family do, so its scan evaluates every drawn row.
    monkeypatch.setattr(hashing, "_CHUNK", 64)
    rng = np.random.default_rng(227)
    cq = rand_cq(rng, family.domain_size, 2)
    curve = ConditionalRenyiCurve(cq)
    for measure, s in MEASURE_ORDERS:
        rows = np.concatenate([
            hashing._batch_values(
                _drawn_tables(family, np.random.default_rng(np.random.SeedSequence([11, i])), min(64, 300 - lo)),
                curve, family.range_size, measure, s,
            )
            for i, lo in enumerate(range(0, 300, 64))
        ])
        got = family_expectation(family, cq, measure, s, sampling="monte_carlo", count=300, seed=11)
        assert got.value == float(rows.mean()), measure
        assert got.std_error == float(rows.std(ddof=1) / math.sqrt(300)), measure


def test_scans_run_on_the_calling_thread(monkeypatch):
    rng = np.random.default_rng(229)
    cq9, cq6 = rand_cq(rng, 9, 2), rand_cq(rng, 6, 2)

    def scans():
        return [
            # at most 110 distinct members of 5000 draws
            family_expectation(AffinePrimeFamily(11, 9, 3), cq9, "renyi", 0.5, sampling="monte_carlo",
                               count=5000, seed=5),
            # 356 distinct members of 600 draws
            family_expectation(AllFunctionsFamily(9, 2), cq9, "trace_distance", sampling="monte_carlo",
                               count=600, seed=5),
            family_expectation(AllFunctionsFamily(6, 2), cq6, "purified_distance"),
            min_insecurity_exhaustive(cq6, 3, "relative_entropy"),
        ]

    def no_thread(self):
        raise AssertionError("a scan started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    whole = scans()
    # 2, 6, 1 and 2 chunks of rows to evaluate
    monkeypatch.setattr(hashing, "_CHUNK", 64)
    chunked = scans()
    assert chunked[2:] == whole[2:]
    # Monte Carlo draws are keyed by chunk, so the two estimates differ by sampling alone
    for a, b in zip(chunked[:2], whole[:2]):
        assert abs(a.value - b.value) <= 4.0 * math.hypot(a.std_error, b.std_error)


def test_distinct_members_equal_np_unique():
    rng = np.random.default_rng(233)
    # table counts below, at and above the draw count: the presence mask and the np.unique branch
    for table_count, count in ((110, 20000), (64, 300), (300, 300), (512, 600), (24**3, 300), (1, 5)):
        members = rng.integers(0, table_count, size=count)
        distinct, inverse = hashing._distinct_members(members, table_count)
        want_distinct, want_inverse = np.unique(members, return_inverse=True)
        assert np.array_equal(distinct, want_distinct), (table_count, count)
        assert np.array_equal(inverse, want_inverse), (table_count, count)


# reporting a failing example imports libcst, whose import warns; without
# this filter that warning would abort the session instead of failing the test
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(1, 6),
    de=st.integers(1, 3),
    m=st.integers(2, 4),
    measure=st.sampled_from([m for m, _ in MEASURE_ORDERS]),
    s=st.sampled_from([0.25, 1.0, 3.0]),
    data=st.data(),
)
def test_insecurity_invariant_under_output_relabeling(seed, nx, de, m, measure, s, data):
    # the invariance the restricted-growth exhaustive scan rests on
    cq = rand_cq(np.random.default_rng(seed), nx, de)
    table = data.draw(st.lists(st.integers(0, m - 1), min_size=nx, max_size=nx))
    relabel = data.draw(st.permutations(range(m)))
    s = s if measure == "renyi" else None
    value = _insecurity(cq, table, m, measure, s)
    twin = _insecurity(cq, [relabel[z] for z in table], m, measure, s)
    assert abs(twin - value) <= 1e-12


def test_all_functions_family_certificate():
    fam = AllFunctionsFamily(3, 2)
    assert fam.table_count == 8
    cert = fam.collision_certificate()
    assert cert["max_collision"] == pytest.approx(0.5, abs=1e-15)
    assert cert["bound"] == 0.5
    assert cert["certified"]


def test_affine_prime_family_basics():
    fam = AffinePrimeFamily(5, 5, 2)
    assert fam.table_count == 4 * 5
    cert = fam.collision_certificate()
    assert cert["max_collision"] <= cert["bound"] + 1e-15
    with pytest.raises(ValueError):
        AffinePrimeFamily(6, 5, 2)


def test_affine_prime_family_rejects_oversized_domain():
    with pytest.raises(ValueError):
        AffinePrimeFamily(5, 6, 2)


def test_permutation_family_members():
    fam = PermutationProductFamily(2)
    assert fam.domain_size == 16
    assert fam.range_size == 4
    assert fam.table_count == 24**2
    cert = fam.collision_certificate()
    assert cert["max_collision"] == pytest.approx(1.0 / 3.0, abs=1e-15)
    tables = fam.tables(np.arange(fam.table_count))
    assert tables.shape == (24**2, 16)
    # every member table is onto {0,1} x {0,1} pairs encoded in base 4
    assert np.array_equal(np.unique(tables), np.arange(4))
    # 4^8 symbols is MAX_SYMBOLS; past it the member indices would also overflow int64 from n = 14
    assert PermutationProductFamily(8).domain_size == 65536
    with pytest.raises(BudgetExceededError, match="4\\^9 exceeds the cap 65536"):
        PermutationProductFamily(9)


# The families once drew one table per call and enumerated their members
# chunk by chunk; these loops are those reference paths. The chunked scans
# draw a whole chunk per generator call, and Monte Carlo documents stay the
# same only while the two give the same tables from the same generator.
def _digits(idx: np.ndarray, places: int, base: int) -> np.ndarray:
    powers = base ** np.arange(places - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // powers[None, :]) % base


def _perm_table(n: int, perm_rows: np.ndarray) -> np.ndarray:
    digits = _digits(np.arange(4**n), n, 4)
    bits = np.empty((4**n, n), dtype=int)
    for i in range(n):
        bits[:, i] = np.array([0, 0, 1, 1])[perm_rows[i][digits[:, i]]]
    return bits @ 2 ** np.arange(n - 1, -1, -1)


def _looped_table(fam, rng: np.random.Generator) -> np.ndarray:
    if isinstance(fam, AllFunctionsFamily):
        return rng.integers(0, fam.range_size, size=fam.domain_size)
    if isinstance(fam, AffinePrimeFamily):
        a = int(rng.integers(1, fam.prime))
        b = int(rng.integers(0, fam.prime))
        x = np.arange(fam.domain_size)
        return ((a * x + b) % fam.prime) % fam.range_size
    return _perm_table(fam.n, np.stack([rng.permutation(4) for _ in range(fam.n)]))


def _enumerated_tables(fam) -> np.ndarray:
    idx = np.arange(fam.table_count, dtype=np.int64)
    if isinstance(fam, AllFunctionsFamily):
        return _digits(idx, fam.domain_size, fam.range_size)
    if isinstance(fam, AffinePrimeFamily):
        x = np.arange(fam.domain_size)
        a, b = 1 + idx // fam.prime, idx % fam.prime
        return ((a[:, None] * x[None, :] + b[:, None]) % fam.prime) % fam.range_size
    perms = np.array(list(itertools.permutations(range(4))))
    return np.stack([_perm_table(fam.n, perms[row]) for row in _digits(idx, fam.n, 24)])


SAMPLED_FAMILIES = {
    "all_functions": [
        AllFunctionsFamily(x, m) for x, m in ((1, 2), (2, 7), (3, 3), (4, 5), (5, 2), (6, 6), (7, 4), (13, 2))
    ],
    "affine_prime": [
        AffinePrimeFamily(p, x, m)
        for p, x, m in ((2, 1, 2), (2, 2, 2), (3, 3, 3), (5, 4, 2), (7, 7, 7), (13, 9, 4), (101, 14, 3), (257, 40, 6))
    ],
    "example2_permutation": [PermutationProductFamily(n) for n in (1, 2, 3)],
}


@pytest.mark.parametrize("kind", SAMPLED_FAMILIES)
def test_sample_tables_match_looped_draws(kind):
    for fam in SAMPLED_FAMILIES[kind]:
        for count, seeds in ((1, range(40)), (7, range(40)), (2048, range(2))):
            for seed in seeds:
                rng = np.random.default_rng(np.random.SeedSequence([seed, count]))
                want = np.stack([_looped_table(fam, rng) for _ in range(count)])
                rng = np.random.default_rng(np.random.SeedSequence([seed, count]))
                got = fam.tables(fam.sample_members(rng, count))
                assert np.array_equal(got, want), (fam.kind, vars(fam), count, seed)
                if isinstance(fam, AllFunctionsFamily):
                    rng = np.random.default_rng(np.random.SeedSequence([seed, count]))
                    assert np.array_equal(fam.sample_tables(rng, count), want), (vars(fam), count, seed)


@pytest.mark.parametrize("nx,m", [(3, 2), (5, 3), (8, 4), (16, 2), (9, 3), (1, 1), (6, 6)])
def test_all_functions_collision_certificate_matches_enumeration(nx, m):
    fam = AllFunctionsFamily(nx, m)
    symbols = _enumerated_tables(fam).T
    equal = [np.count_nonzero(symbols[x1] == symbols[x2]) for x1, x2 in itertools.combinations(range(nx), 2)]
    cert = fam.collision_certificate()
    assert cert["method"] == "exhaustive"
    assert cert["max_collision"] == max(equal, default=0) / fam.table_count
    assert cert["certified"]


def test_affine_prime_family_members_fit_int64():
    AffinePrimeFamily(3037000493, 2, 2)
    with pytest.raises(ValueError, match="int64"):
        AffinePrimeFamily(3037000507, 2, 2)


@pytest.mark.parametrize("kind", SAMPLED_FAMILIES)
def test_member_maps_match_enumeration(kind):
    for fam in SAMPLED_FAMILIES[kind]:
        if fam.table_count <= 1 << 16:
            assert np.array_equal(fam.tables(np.arange(fam.table_count)), _enumerated_tables(fam)), vars(fam)


@pytest.mark.parametrize("zero_symbol", [False, True], ids=["full", "zero-prob"])
@pytest.mark.parametrize(
    "measure,s",
    [("trace_distance", None), ("purified_distance", None), ("relative_entropy", None), ("renyi", 0.5)],
    ids=["trace_distance", "purified_distance", "relative_entropy", "renyi"],
)
def test_family_expectation_exhaustive_matches_direct_mean(measure, s, zero_symbol):
    rng = np.random.default_rng(179)
    cq = rand_cq(rng, 3, 2)
    if zero_symbol:
        cq = CQState([cq.probs[0] + cq.probs[1], 0.0, cq.probs[2]], cq.conditionals)
    fam = AllFunctionsFamily(3, 2)
    exp = family_expectation(fam, cq, measure, s)
    direct = np.mean([_insecurity(cq, table, 2, measure, s) for table in itertools.product(range(2), repeat=3)])
    assert abs(exp.value - direct) <= 1e-12
    assert exp.sampling == "exhaustive"
    assert exp.std_error is None


def test_family_expectation_monte_carlo_reproducible(monkeypatch):
    # 600 draws in chunks of 64, the last one short
    monkeypatch.setattr(hashing, "_CHUNK", 64)
    rng = np.random.default_rng(181)
    cq = rand_cq(rng, 5, 2)
    fam = AllFunctionsFamily(5, 2)
    runs = [
        family_expectation(fam, cq, "renyi", 0.5, sampling="monte_carlo", count=600, seed=42)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0].std_error is not None and runs[0].std_error > 0.0
    other = family_expectation(
        fam, cq, "renyi", 0.5, sampling="monte_carlo", count=600, seed=43
    )
    assert other.value != runs[0].value


def test_family_expectation_validates_domain():
    fam = AllFunctionsFamily(3, 2)
    with pytest.raises(ValueError):
        family_expectation(fam, BIASED, "trace_distance")


def test_positive_part_superadditivity_random():
    rng = np.random.default_rng(191)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 5))
        ops = [rand_density(rng, d) * float(rng.uniform(0.1, 2.0)) for _ in range(k)]
        lam = float(rng.uniform(0.05, 1.5))
        lhs, rhs = positive_part_superadditivity_check(ops, lam)
        assert lhs >= rhs - 1e-9


def test_hashed_q_expectation_bound_holds():
    rng = np.random.default_rng(193)
    for nx, mz in ((3, 2), (4, 3)):
        cq = rand_cq(rng, nx, 2)
        fam = AllFunctionsFamily(nx, mz)
        for s in (0.25, 1.0):
            lhs, rhs = hashed_q_expectation_check(cq, fam, s)
            assert lhs <= rhs + 1e-9


def test_leftover_hash_exponent_bound_holds():
    rng = np.random.default_rng(197)
    for nx, mz in ((3, 2), (4, 2)):
        cq = rand_cq(rng, nx, 2)
        fam = AllFunctionsFamily(nx, mz)
        for s in (0.5, 1.0):
            lhs, rhs = leftover_hash_exponent_check(cq, fam, s)
            assert lhs <= rhs + 1e-9


def test_lemma_checks_validate_inputs():
    fam = AllFunctionsFamily(2, 2)
    with pytest.raises(ValueError):
        hashed_q_expectation_check(BIASED, fam, 0.0)
    small = AllFunctionsFamily(2, 2)
    with pytest.raises(BudgetExceededError):
        leftover_hash_exponent_check(BIASED, small, 0.5, budget=2)


def test_example1_suite_small_n():
    rep = example1_suite(1)
    assert rep["passed"]
    assert abs(rep["minima"]["trace_distance"].value - 1.0 / 6.0) <= 1e-15
    rep2 = example1_suite(2)
    assert rep2["passed"]
    assert rep2["minima"]["trace_distance"].value >= 1.0 / 18.0 - 1e-15


@pytest.mark.parametrize("n", [1, 2, 3])
def test_example2_suite_equals_the_per_realization_loop(n):
    family = PermutationProductFamily(n)
    source = CQState.classical(np.full(4**n, 0.25**n))
    for seed in (0, 1):
        worst = {"purified_distance": 0.0, "relative_entropy": 0.0, "renyi": 0.0}
        for table in family.tables(family.sample_members(np.random.default_rng(np.random.SeedSequence(seed)), 30)):
            for measure, s in (("purified_distance", None), ("relative_entropy", None), ("renyi", 1.0)):
                worst[measure] = max(worst[measure], _insecurity(source, table, family.range_size, measure, s))
        rep = example2_suite(n, realizations=30, seed=seed)
        assert rep["worst_insecurity"] == worst
        assert [c["measured"] for c in rep["checks"][1:]] == list(worst.values())


def test_example2_suite_small_n():
    rep = example2_suite(1, realizations=10, seed=7)
    assert rep["passed"]
    assert rep["exponent_marker"] == math.inf
    assert rep["certificate"]["max_collision"] == pytest.approx(1.0 / 3.0, abs=1e-15)
