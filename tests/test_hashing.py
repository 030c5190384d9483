from __future__ import annotations

import math

import numpy as np
import pytest

from privamp import (
    BudgetExceededError,
    CQState,
    HashFunction,
    apply_hash,
    example1_suite,
    example2_suite,
    family_expectation,
    hashed_q_expectation_check,
    insecurity,
    leftover_hash_exponent_check,
    make_family,
    min_insecurity_exhaustive,
    positive_part_superadditivity_check,
    renyi_conditional_entropy,
)
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


def test_exhaustive_minimum_thread_invariance():
    rng = np.random.default_rng(173)
    cq = rand_cq(rng, 4, 2)
    reports = [
        min_insecurity_exhaustive(cq, 2, "purified_distance", threads=t, chunk=3)
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


def test_all_functions_family_certificate():
    fam = make_family("all_functions", domain_size=3, range_size=2)
    assert fam.table_count == 8
    cert = fam.collision_certificate()
    assert cert["max_collision"] == pytest.approx(0.5, abs=1e-15)
    assert cert["bound"] == 0.5
    assert cert["certified"]


def test_affine_prime_family_basics():
    fam = make_family("affine_prime", prime=5, domain_size=5, range_size=2)
    assert fam.table_count == 4 * 5
    cert = fam.collision_certificate()
    assert cert["max_collision"] <= cert["bound"] + 1e-15
    with pytest.raises(ValueError):
        make_family("affine_prime", prime=6, domain_size=5, range_size=2)


def test_affine_prime_family_rejects_oversized_domain():
    with pytest.raises(ValueError):
        make_family("affine_prime", prime=5, domain_size=6, range_size=2)


def test_permutation_family_members():
    fam = make_family("example2_permutation", n=2)
    assert fam.domain_size == 16
    assert fam.range_size == 4
    assert fam.table_count == 24**2
    cert = fam.collision_certificate()
    assert cert["max_collision"] == pytest.approx(1.0 / 3.0, abs=1e-15)
    tables = np.concatenate([c for c in fam.enumerate_tables(chunk=100)])
    assert tables.shape == (24**2, 16)
    # every member table is onto {0,1} x {0,1} pairs encoded in base 4
    assert np.array_equal(np.unique(tables), np.arange(4))


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
    fam = make_family("all_functions", domain_size=3, range_size=2)
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


def test_family_expectation_monte_carlo_reproducible():
    rng = np.random.default_rng(181)
    cq = rand_cq(rng, 5, 2)
    fam = make_family("all_functions", domain_size=5, range_size=2)
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
    fam = make_family("all_functions", domain_size=3, range_size=2)
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
        fam = make_family("all_functions", domain_size=nx, range_size=mz)
        for s in (0.25, 1.0):
            lhs, rhs = hashed_q_expectation_check(cq, fam, s)
            assert lhs <= rhs + 1e-9


def test_leftover_hash_exponent_bound_holds():
    rng = np.random.default_rng(197)
    for nx, mz in ((3, 2), (4, 2)):
        cq = rand_cq(rng, nx, 2)
        fam = make_family("all_functions", domain_size=nx, range_size=mz)
        for s in (0.5, 1.0):
            lhs, rhs = leftover_hash_exponent_check(cq, fam, s)
            assert lhs <= rhs + 1e-9


def test_lemma_checks_validate_inputs():
    fam = make_family("all_functions", domain_size=2, range_size=2)
    with pytest.raises(ValueError):
        hashed_q_expectation_check(BIASED, fam, 0.0)
    small = make_family("all_functions", domain_size=2, range_size=2)
    with pytest.raises(BudgetExceededError):
        leftover_hash_exponent_check(BIASED, small, 0.5, budget=2)


def test_example1_suite_small_n():
    rep = example1_suite(1)
    assert rep["passed"]
    assert abs(rep["minima"]["trace_distance"].value - 1.0 / 6.0) <= 1e-15
    rep2 = example1_suite(2)
    assert rep2["passed"]
    assert rep2["minima"]["trace_distance"].value >= 1.0 / 18.0 - 1e-15


def test_example2_suite_small_n():
    rep = example2_suite(1, realizations=10, seed=7)
    assert rep["passed"]
    assert rep["exponent_marker"] == math.inf
    assert rep["certificate"]["max_collision"] == pytest.approx(1.0 / 3.0, abs=1e-15)
