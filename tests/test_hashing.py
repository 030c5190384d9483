from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privamp import (
    AffinePrimeFamily,
    AllFunctionsFamily,
    BudgetExceededError,
    CQState,
    HashFunction,
    PermutationProductFamily,
    apply_hash,
    example1_suite,
    example2_suite,
    family_expectation,
    hashed_q_expectation_check,
    insecurity,
    leftover_hash_exponent_check,
    min_insecurity_exhaustive,
    positive_part_superadditivity_check,
    purified_distance,
    relative_entropy,
    renyi_conditional_entropy,
    sandwiched_renyi_divergence,
    trace_distance,
)
from privamp import hashing
from privamp.measures import ConditionalRenyiCurve
from conftest import rand_cq, rand_density

BIASED = CQState.classical([1 / 3, 2 / 3])


def test_hash_function_index_roundtrip():
    f = HashFunction(domain_size=3, range_size=2, table=(1, 0, 1))
    # big-endian: first symbol owns the most significant digit
    assert f.index == 1 * 4 + 0 * 2 + 1
    back = HashFunction.from_index(f.index, 3, 2)
    assert back.table == (1, 0, 1)
    assert HashFunction.from_index(0, 3, 2).table == (0, 0, 0)
    assert HashFunction.from_index(7, 3, 2).table == (1, 1, 1)


def test_hash_function_from_index_rejects_out_of_range():
    for idx in (-1, 8, 100):
        with pytest.raises(ValueError):
            HashFunction.from_index(idx, 3, 2)


def test_apply_hash_merges_blocks():
    rng = np.random.default_rng(157)
    cq = rand_cq(rng, 4, 2)
    hashed = apply_hash(cq, [0, 1, 0, 1])
    assert hashed.nsymbols == 2
    assert abs(hashed.probs[0] - (cq.probs[0] + cq.probs[2])) <= 1e-12
    want = cq.probs[0] * cq.conditionals[0] + cq.probs[2] * cq.conditionals[2]
    got = hashed.probs[0] * hashed.conditionals[0]
    assert np.max(np.abs(got - want)) <= 1e-12


def test_apply_hash_fills_empty_buckets():
    cq = CQState.classical([0.5, 0.5])
    hashed = apply_hash(cq, HashFunction(2, 2, (0, 0)))
    assert hashed.probs[1] == 0.0
    assert abs(np.trace(hashed.conditionals[1]).real - 1.0) <= 1e-12


def test_apply_hash_rejects_negative_entries():
    # a plain table must not wrap -1 to the last output, as numpy indexing would
    cq = CQState.classical([0.5, 0.25, 0.25])
    with pytest.raises(ValueError, match="nonnegative"):
        apply_hash(cq, [-1, 0, 1])


def test_insecurity_zero_for_uniform_decoupled_source():
    cq = CQState.classical(np.full(4, 0.25))
    hashed = apply_hash(cq, [0, 1, 0, 1])
    assert insecurity(hashed, "trace_distance").value <= 1e-12
    assert insecurity(hashed, "purified_distance").value <= 1e-12
    assert insecurity(hashed, "relative_entropy").value <= 1e-12
    assert insecurity(hashed, "renyi", s=1.0).value <= 1e-12


def test_insecurity_relative_entropy_identity():
    rng = np.random.default_rng(163)
    cq = rand_cq(rng, 4, 2)
    hashed = apply_hash(cq, [0, 1, 1, 0])
    rep = insecurity(hashed, "relative_entropy")
    want = 1.0 - renyi_conditional_entropy(hashed, 1.0)
    assert abs(rep.value - want) <= 1e-10


def test_insecurity_renyi_identity():
    rng = np.random.default_rng(167)
    cq = rand_cq(rng, 4, 2)
    hashed = apply_hash(cq, [0, 1, 1, 0])
    for s in (0.25, 1.0):
        rep = insecurity(hashed, "renyi", s=s)
        want = 1.0 - renyi_conditional_entropy(hashed, 1.0 + s)
        assert abs(rep.value - want) <= 1e-10


def _reference_case(case: str):
    rng = np.random.default_rng(211)
    if case == "full-rank":
        return rand_cq(rng, 5, 2), [0, 1, 2, 0, 1]
    if case == "rank-deficient":
        # d_E = 3, every conditional inside one 2-dimensional subspace
        iso = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))[0]
        conds = [iso @ rand_density(rng, 2) @ iso.conj().T for _ in range(4)]
        return CQState(rng.dirichlet(np.ones(4)), conds), [1, 0, 0, 1]
    if case == "one-dim-E":
        return CQState.classical(rng.dirichlet(np.ones(5))), [0, 1, 1, 0, 1]
    # output 1 of three receives no symbol
    return rand_cq(rng, 4, 3), [0, 2, 0, 2]


@pytest.mark.parametrize("case", ["full-rank", "rank-deficient", "one-dim-E", "empty-output"])
def test_insecurity_matches_dense_reference(case):
    # the batched kernel against the dense divergences from 1_Z/m (x) rho_E
    cq, table = _reference_case(case)
    hashed = apply_hash(cq, table)
    m = hashed.nsymbols
    rho = hashed.to_density().mat
    ideal = np.kron(np.eye(m) / m, hashed.rho_e())
    want = {
        "trace_distance": trace_distance(rho, ideal),
        "purified_distance": purified_distance(rho, ideal),
        "relative_entropy": relative_entropy(rho, ideal).value,
    }
    for measure, value in want.items():
        assert abs(insecurity(hashed, measure).value - value) <= 1e-10, measure
    for s in (0.25, 1.0, 3.0):
        value = sandwiched_renyi_divergence(rho, ideal, 1.0 + s).value
        assert abs(insecurity(hashed, "renyi", s).value - value) <= 1e-10, s
    # an order next to 1 is finite and near the relative entropy
    near_one = insecurity(hashed, "renyi", 1e-7).value
    assert math.isfinite(near_one)
    assert abs(near_one - want["relative_entropy"]) <= 1e-6


def test_insecurity_requires_order_for_renyi():
    with pytest.raises(ValueError):
        insecurity(BIASED, "renyi")
    with pytest.raises(ValueError):
        insecurity(BIASED, "no_such_measure")


def test_exhaustive_minimum_biased_source():
    rep = min_insecurity_exhaustive(BIASED, 2, "trace_distance")
    assert abs(rep.value - 1.0 / 6.0) <= 1e-15
    assert rep.evaluated == 4
    # identity and swap tables tie at 1/6; the smaller index wins
    assert rep.hash_table in ((0, 1), (1, 0))
    assert rep.hash_index == HashFunction(2, 2, rep.hash_table).index


def test_exhaustive_minimum_thread_invariance(monkeypatch):
    # 8 restricted-growth tables of the 16 in chunks of 3, the last one short
    monkeypatch.setattr(hashing, "_CHUNK", 3)
    rng = np.random.default_rng(173)
    cq = rand_cq(rng, 4, 2)
    reports = [
        min_insecurity_exhaustive(cq, 2, "purified_distance", threads=t)
        for t in (1, 2, 5)
    ]
    assert len({r.hash_index for r in reports}) == 1
    assert len({r.value for r in reports}) == 1


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
        assert rep.hash_index == HashFunction(6, 3, rep.hash_table).index
        twin = insecurity(apply_hash(cq, HashFunction(6, 3, rep.hash_table)), measure, s).value
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
    table = tuple(labels.setdefault(z, len(labels)) for z in HashFunction.from_index(k, cq.nsymbols, m).table)
    return HashFunction(cq.nsymbols, m, table).index, float(vals[k])


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
            for threads in (1, 2, 5):
                rep = min_insecurity_exhaustive(cq, m, measure, s, threads=threads)
                assert rep.hash_index == want_index, (de, measure, threads)
                assert abs(rep.value - want_value) <= 1e-12, (de, measure, threads)
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
    # 110 members, drawn 5000 times in chunks of 2048
    fam = AffinePrimeFamily(11, 9, 3)
    rows.clear()
    family_expectation(fam, sampled, "trace_distance", sampling="monte_carlo", count=5000, seed=3)
    assert len(rows) == 3 and max(rows) <= fam.table_count
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
    cq, table = _reference_case("full-rank")
    curve = ConditionalRenyiCurve(cq)
    blocks = hashing._output_blocks(np.array([table]), curve, 3, 1.0) - np.diag(curve._mu) / 3
    return blocks[0, 1]


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _with_spectrum(spectrum, seed: int) -> np.ndarray:
    """A Hermitian block with the given eigenvalues in a random basis."""
    u = _random_unitary(np.random.default_rng(seed), len(spectrum))
    block = (u * np.asarray(spectrum, dtype=float)) @ u.conj().T
    return (block + block.conj().T) / 2.0


def _indefinite_qutrit_block() -> np.ndarray:
    # the same for d_E = 3: output 0 of three, which receives symbols 0 and 2
    cq, table = _reference_case("empty-output")
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
        u = np.stack([_random_unitary(rng, 3) for _ in range(400)])
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


def test_output_blocks_do_not_depend_on_the_blas_thread_count():
    # a chunk's GEMM is large enough for OpenBLAS to split it over its threads
    from privamp import operators

    threads = operators._openblas_threads()
    if threads is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    rng = np.random.default_rng(239)
    cq = rand_cq(rng, 13, 3)
    curve = ConditionalRenyiCurve(cq)
    tables = rng.integers(0, 3, size=(hashing._CHUNK, 13))
    default = hashing._output_blocks(tables, curve, 3, 0.5)
    with operators._blas_threads_for(1):
        assert threads[0]() == 1
        one = hashing._output_blocks(tables, curve, 3, 0.5)
    assert np.array_equal(one, default)

@pytest.mark.parametrize(
    "family",
    [AffinePrimeFamily(11, 9, 3), AllFunctionsFamily(6, 2), PermutationProductFamily(3)],
    ids=["affine_prime", "all_functions", "permutation-key-overflows"],
)
def test_monte_carlo_mean_equals_mean_over_every_drawn_row(monkeypatch, family):
    # 300 draws in chunks of 64; the 8^64 keys of the permutation family overflow int64
    monkeypatch.setattr(hashing, "_CHUNK", 64)
    rng = np.random.default_rng(227)
    cq = rand_cq(rng, family.domain_size, 2)
    curve = ConditionalRenyiCurve(cq)
    for measure, s in MEASURE_ORDERS:
        got = family_expectation(family, cq, measure, s, sampling="monte_carlo", count=300, seed=11)
        rows = np.concatenate([
            hashing._batch_values(
                family.sample_tables(np.random.default_rng(np.random.SeedSequence([11, i])), min(64, 300 - lo)),
                curve, family.range_size, measure, s,
            )
            for i, lo in enumerate(range(0, 300, 64))
        ])
        assert got.value == float(rows.mean()), measure
        assert got.std_error == float(rows.std(ddof=1) / math.sqrt(300)), measure


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
    value = insecurity(apply_hash(cq, HashFunction(nx, m, tuple(table))), measure, s).value
    twin = insecurity(apply_hash(cq, HashFunction(nx, m, tuple(relabel[z] for z in table))), measure, s).value
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
                got = fam.sample_tables(rng, count)
                assert np.array_equal(got, want), (fam.kind, vars(fam), count, seed)


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
    direct = np.mean(
        [
            insecurity(apply_hash(cq, HashFunction.from_index(i, 3, 2)), measure, s).value
            for i in range(8)
        ]
    )
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
        family_expectation(
            fam, cq, "renyi", 0.5, sampling="monte_carlo", count=600, seed=42, threads=t
        )
        for t in (1, 3, 8)
    ]
    assert runs[0].value == runs[1].value == runs[2].value
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
        for table in family.sample_tables(np.random.default_rng(np.random.SeedSequence(seed)), 30):
            hashed = apply_hash(source, table)
            for measure, s in (("purified_distance", None), ("relative_entropy", None), ("renyi", 1.0)):
                worst[measure] = max(worst[measure], insecurity(hashed, measure, s).value)
        rep = example2_suite(n, realizations=30, seed=seed)
        assert rep["worst_insecurity"] == worst
        assert [c["measured"] for c in rep["checks"][1:]] == list(worst.values())


def test_example2_suite_small_n():
    rep = example2_suite(1, realizations=10, seed=7)
    assert rep["passed"]
    assert rep["exponent_marker"] == math.inf
    assert rep["certificate"]["max_collision"] == pytest.approx(1.0 / 3.0, abs=1e-15)
