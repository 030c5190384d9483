from __future__ import annotations

import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from privamp.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_VALIDATION,
    load_state_file,
    main,
)
from privamp import CQState, ConditionalRenyiCurve, StateDescriptor, hashing, measures, smoothing
from conftest import acceptance_states


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def rho_path(tmp_path):
    return write_json(
        tmp_path / "rho.json",
        {"kind": "density", "dim": 2, "entries": [[0.5, 0.0], [0.0, 0.5]]},
    )


@pytest.fixture
def sigma_path(tmp_path):
    return write_json(
        tmp_path / "sigma.json",
        {"kind": "density", "dim": 2, "entries": [[0.25, 0.0], [0.0, 0.75]]},
    )


@pytest.fixture
def cq_path(tmp_path):
    return write_json(
        tmp_path / "cq.json",
        {
            "kind": "cq",
            "dim": 2,
            "probs": [0.2, 0.5, 0.3],
            "conditionals": [
                [[0.7, 0.1], [0.1, 0.3]],
                [[0.5, 0.0], [0.0, 0.5]],
                [[0.2, -0.1], [-0.1, 0.8]],
            ],
        },
    )


def run_json(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_load_state_file_density_forms(tmp_path):
    flat = write_json(
        tmp_path / "flat.json",
        {"kind": "density", "dim": 2, "entries": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]},
    )
    nested = write_json(
        tmp_path / "nested.json",
        {"kind": "density", "dim": 2, "entries": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
    )
    plain = write_json(
        tmp_path / "plain.json",
        {"kind": "density", "dim": 2, "entries": [[0.5, 0.0], [0.0, 0.5]]},
    )
    for p in (flat, nested, plain):
        st = load_state_file(p)
        assert isinstance(st, StateDescriptor)
        assert np.max(np.abs(st.mat - np.diag([0.5, 0.5]))) <= 1e-12


def test_load_state_file_complex_entries(tmp_path):
    p = write_json(
        tmp_path / "cplx.json",
        {
            "kind": "density",
            "dim": 2,
            "entries": [[[0.5, 0.0], [0.0, -0.25]], [[0.0, 0.25], [0.5, 0.0]]],
        },
    )
    st = load_state_file(p)
    assert abs(st.mat[0, 1] - (-0.25j)) <= 1e-12


def test_load_state_file_cq(tmp_path, cq_path):
    cq = load_state_file(cq_path)
    assert isinstance(cq, CQState)
    assert cq.nsymbols == 3 and cq.dim_e == 2


def test_load_state_file_errors(tmp_path):
    from privamp.cli import ValidationError

    missing = str(tmp_path / "missing.json")
    with pytest.raises(ValidationError):
        load_state_file(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        load_state_file(str(bad))
    nokind = write_json(tmp_path / "nokind.json", {"dim": 2})
    with pytest.raises(ValidationError):
        load_state_file(nokind)
    shape = write_json(
        tmp_path / "shape.json", {"kind": "density", "dim": 2, "entries": [[1.0]]}
    )
    with pytest.raises(ValidationError):
        load_state_file(shape)


def test_measure_document_shape(rho_path, sigma_path, capsys):
    code, doc = run_json(
        ["measure", rho_path, sigma_path, "--divergence", "relative"], capsys
    )
    assert code == EXIT_OK
    assert doc["artifact"]["name"] == "privamp"
    assert doc["command"] == "measure"
    assert set(doc["config"]) == {"format"}
    assert doc["inputs"][rho_path].startswith("sha256:")
    assert abs(doc["results"]["value"] - 0.20751874963942196) <= 1e-12


def test_measure_infinite_value_serializes_as_string(tmp_path, capsys):
    rho = write_json(
        tmp_path / "pure.json", {"kind": "density", "dim": 2, "entries": [[1.0, 0.0], [0.0, 0.0]]}
    )
    sig = write_json(
        tmp_path / "orth.json", {"kind": "density", "dim": 2, "entries": [[0.0, 0.0], [0.0, 1.0]]}
    )
    code, doc = run_json(["measure", rho, sig, "--divergence", "dmax"], capsys)
    assert code == EXIT_OK
    assert doc["results"]["value"] == "inf"


def test_measure_validation_exit_codes(rho_path, capsys):
    assert main(["measure", rho_path, "--divergence", "renyi", "--alpha", "2"]) == EXIT_VALIDATION
    capsys.readouterr()
    assert (
        main(["measure", rho_path, rho_path, "--divergence", "renyi", "--alpha", "1.0"])
        == EXIT_VALIDATION
    )
    capsys.readouterr()
    assert main(["measure", rho_path, rho_path, "--divergence", "renyi"]) == EXIT_VALIDATION


def test_each_command_takes_only_the_shared_options_it_reads(rho_path, sigma_path, cq_path, tmp_path, capsys):
    # (argv, accepted shared options, config keys of its document); threads is never recorded
    table = [
        (["measure", rho_path, sigma_path, "--divergence", "relative"], {"--format", "--out"}, {"format"}),
        (["exponent-curve", cq_path, "--r-min", "0.9", "--r-max", "1.3", "--points", "3"], {"--format", "--out"}, {"format"}),
        (["smooth", rho_path, sigma_path, "--lam", "0.5"], {"--format", "--out"}, {"format"}),
        (
            ["pa-search", cq_path, "--range-size", "2", "--measure", "trace_distance"],
            {"--format", "--out", "--threads", "--budget"},
            {"format", "budget"},
        ),
        (
            ["pa-family", cq_path, "--family", "all_functions", "--range-size", "2", "--measure", "trace_distance"],
            {"--format", "--out", "--threads", "--budget", "--seed"},
            {"format", "budget", "seed"},
        ),
        (
            ["suite", "example1", "--n", "1", "--range-bits", "1"],
            {"--format", "--out", "--threads", "--budget"},
            {"format", "budget"},
        ),
        (["suite", "example2", "--n", "1", "--realizations", "2"], {"--format", "--out", "--seed"}, {"format", "seed"}),
        (["suite", "properties", "--trials", "1"], {"--format", "--out", "--seed"}, {"format", "seed"}),
    ]
    values = {
        "--format": "csv",
        "--out": str(tmp_path / "doc.txt"),
        "--threads": "2",
        "--budget": "1000",
        "--seed": "1",
        "--tol": "cluster=1e-7",
    }
    for argv, accepted, config in table:
        code, doc = run_json(argv, capsys)
        assert code == EXIT_OK
        assert set(doc["config"]) == config
        for option, value in values.items():
            if option in accepted:
                assert main([*argv, option, value]) == EXIT_OK
                capsys.readouterr()
                continue
            with pytest.raises(SystemExit) as exc:
                main([*argv, option, value])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_each_suite_example_refuses_the_options_of_the_others(capsys):
    own = {
        "example1": {"--n": "1", "--range-bits": "1"},
        "example2": {"--n": "1", "--realizations": "2"},
        "properties": {"--trials": "1"},
    }
    every = {option: value for options in own.values() for option, value in options.items()}
    for example, options in own.items():
        for option, value in every.items():
            if option in options:
                continue
            with pytest.raises(SystemExit) as exc:
                main(["suite", example, option, value])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_exponent_curve_csv(cq_path, capsys):
    code = main(
        [
            "exponent-curve",
            cq_path,
            "--r-min",
            "0.9",
            "--r-max",
            "1.3",
            "--points",
            "3",
            "--format",
            "csv",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    header = [l for l in lines if not l.startswith("#")]
    assert header[0].split(",")[0] == "r"
    assert len(header) == 4


def test_exponent_curve_from_just_above_hmin(tmp_path, capsys):
    state = acceptance_states(1)[0]
    curve = ConditionalRenyiCurve(state)
    path = write_json(
        tmp_path / "state0.json",
        {
            "kind": "cq",
            "dim": state.dim_e,
            "probs": state.probs.tolist(),
            "conditionals": [np.stack([c.real, c.imag], axis=-1).tolist() for c in state.conditionals],
        },
    )
    rates = ["--r-min", repr(float(curve.hmin() + 1e-6)), "--r-max", repr(float(curve.h1()))]
    code = main(["exponent-curve", path, "--mode", "all", *rates])
    out, err = capsys.readouterr()
    assert code == EXIT_OK, err
    doc = json.loads(out)
    assert len(doc["rows"]) == 21
    assert all(isinstance(row["e_upper"], float) and math.isfinite(row["e_upper"]) for row in doc["rows"])
    assert doc["rows"][0]["regime"] == "low-rate"
    with pytest.raises(SystemExit) as exc:
        main(["exponent-curve", path, "--s-max", "8", *rates])
    assert exc.value.code == 2
    assert "unrecognized arguments: --s-max" in capsys.readouterr().err


def test_exponent_curve_records_the_order_of_mode_all(cq_path, capsys):
    # e_renyi depends on --s, so the document must say which order it used
    rates = ["--r-min", "0.9", "--r-max", "1.3", "--points", "3"]
    docs = [run_json(["exponent-curve", cq_path, "--mode", "all", "--s", s, *rates], capsys)[1] for s in ("0.5", "0.9")]
    assert [doc["results"]["s"] for doc in docs] == [0.5, 0.9]
    assert [row["e_renyi"] for row in docs[0]["rows"]] != [row["e_renyi"] for row in docs[1]["rows"]]
    code, doc = run_json(["exponent-curve", cq_path, "--mode", "both", "--s", "0.5", *rates], capsys)
    assert code == EXIT_OK
    assert doc["results"]["s"] is None


def test_smooth_iid_rows(rho_path, sigma_path, capsys):
    code, doc = run_json(
        ["smooth", rho_path, sigma_path, "--rate", "0.6", "--n-min", "1", "--n-max", "4"],
        capsys,
    )
    assert code == EXIT_OK
    rows = doc["rows"]
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    for r in rows:
        lower = 0.0 if r["lower"] == 0 else float(r["lower"])
        assert lower <= float(r["exact"]) + 1e-9
        assert float(r["exact"]) <= float(r["upper"]) + 1e-9


def test_smooth_iid_writes_no_negative_zero(rho_path, sigma_path, capsys):
    # at t = inf the achievability bound is clipped to 1, whose exponent is 0
    code = main(["smooth", rho_path, sigma_path, "--rate", "0.5", "--t", "inf", "--n-max", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert json.loads(out)["rows"][0]["exponent_lo"] == 0.0
    assert "-0.0" not in out


@pytest.mark.parametrize("rate", ["inf", "1e308"])
def test_smooth_infinite_divergence_gives_no_bound_below_one(tmp_path, rate, capsys):
    # rho has mass outside supp sigma, so every D_{1+s} is infinite, also against an infinite budget
    rho, sigma = (
        write_json(tmp_path / name, {"kind": "density", "dim": 3, "entries": np.diag(diag).tolist()})
        for name, diag in (("rho.json", [0.5, 0.5, 0.0]), ("sigma.json", [0.25, 0.0, 0.75]))
    )
    code, doc = run_json(["smooth", rho, sigma, "--rate", rate, "--n-max", "1"], capsys)
    assert code == EXIT_OK
    [row] = doc["rows"]
    assert row["upper"] == 1.0
    assert 0.0 <= row["lower"] <= row["exact"] <= 1.0


def test_smooth_qutrit_budget_exits_before_any_certificate(tmp_path, monkeypatch, capsys):
    # the largest Schur-Weyl block has 4,375 rows for a qutrit at n = 42 and
    # 4,097 for a qubit at n = 4,096, past BLOCK_BUDGET = 4,096; no smaller n
    # is computed first, nor any v_n or order search. d = 5 at n = 2,000 has
    # about 6e9 partitions, none listed, and d = 65 at n = 2 a block of 2,145
    # rows whose 63 commutators count 63 times: both exit at once
    rng = np.random.default_rng(191)
    calls, counted, searched = [], [], []
    real_mass = smoothing._SchurWeylBlocks.mass
    monkeypatch.setattr(smoothing._SchurWeylBlocks, "mass", lambda self, n, c: calls.append(n) or real_mass(self, n, c))
    real_counts = smoothing.distinct_eigenvalue_counts_iid
    monkeypatch.setattr(smoothing, "distinct_eigenvalue_counts_iid", lambda sm, n: counted.append(n) or real_counts(sm, n))
    real_slope = measures._SandwichedCurve.d_log2_q
    monkeypatch.setattr(measures._SandwichedCurve, "d_log2_q", lambda self, a: searched.append(a) or real_slope(self, a))
    for d, n_max in ((3, 42), (2, 4096), (5, 2000), (65, 2)):
        paths = []
        for name in ("rho.json", "sigma.json"):
            g = rng.standard_normal((d, d))
            m = g @ g.T / float(np.trace(g @ g.T))
            paths.append(write_json(tmp_path / name, {"kind": "density", "dim": d, "entries": m.tolist()}))
        start = time.perf_counter()
        code = main(["smooth", *paths, "--rate", "0.1", "--n-max", str(n_max)])
        assert time.perf_counter() - start < 5.0, d
        assert code == EXIT_BUDGET
        assert f"at n = {n_max} exceeds budget 4096" in capsys.readouterr().err
    assert calls == counted == searched == []


def test_smooth_empty_bracket_is_an_invariant_failure(rho_path, sigma_path, monkeypatch, capsys):
    # an empty bracket is privamp's fault, not the input's: exit 1, not 2
    monkeypatch.setattr(
        "privamp.cli.smoothing_certificate",
        lambda rho, sigma, lam, t: smoothing.SmoothingCertificate(lam=lam, lower=0.5, upper=0.4),
    )
    assert main(["smooth", rho_path, sigma_path, "--lam", "1.0"]) == EXIT_CHECK_FAILED
    assert "invariant failure: certificate bracket empty" in capsys.readouterr().err


def test_smooth_requires_exactly_one_mode(rho_path, sigma_path, capsys):
    assert main(["smooth", rho_path, sigma_path]) == EXIT_VALIDATION
    capsys.readouterr()
    assert (
        main(["smooth", rho_path, sigma_path, "--rate", "0.5", "--lam", "1.0"])
        == EXIT_VALIDATION
    )


def test_pa_search_budget_exit(cq_path, capsys):
    code = main(
        ["pa-search", cq_path, "--range-size", "2", "--measure", "trace_distance", "--budget", "4"]
    )
    assert code == EXIT_BUDGET


def test_scans_past_int64_exit_on_the_budget(tmp_path, capsys):
    # 2^64 tables from 64 symbols: a budget of 10^20 admits them, but member
    # indices are int64, so both scans must refuse at once instead of
    # overflowing (pa-search) or grinding (pa-family)
    path = write_json(
        tmp_path / "s64.json", {"kind": "cq", "dim": 1, "probs": [1 / 64] * 64, "conditionals": [[[1.0]]] * 64}
    )
    common = ["--range-size", "2", "--measure", "trace_distance", "--budget", str(10**20)]
    for argv in (["pa-search", path, *common], ["pa-family", path, "--family", "all_functions", *common]):
        start = time.perf_counter()
        assert main(argv) == EXIT_BUDGET, argv[0]
        assert time.perf_counter() - start < 5.0, argv[0]
        assert f"{2**64} tables exceed the exhaustive budget {2**63 - 1}" in capsys.readouterr().err


def test_scan_options_out_of_range_are_refused(cq_path, capsys):
    # a thread count below 1 or a negative budget is a usage error (exit 2), not a serial run or a budget exit
    commands = [
        ["pa-search", cq_path, "--range-size", "2", "--measure", "trace_distance"],
        ["pa-family", cq_path, "--family", "all_functions", "--range-size", "2", "--measure", "trace_distance"],
        ["suite", "example1", "--n", "1", "--range-bits", "1"],
    ]
    for argv in commands:
        for option, value, bound in (("--threads", "0", 1), ("--threads", "-4", 1), ("--budget", "-1", 0)):
            with pytest.raises(SystemExit) as exc:
                main([*argv, option, value])
            assert exc.value.code == 2
            assert f"argument {option}: must be >= {bound}, got {value}" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--threads", "two"])
        assert "invalid int value: 'two'" in capsys.readouterr().err
        assert main([*argv, "--threads", "1", "--budget", "0"]) == EXIT_BUDGET
        capsys.readouterr()


def test_pa_search_threads_byte_identical(cq_path, tmp_path, capsys):
    outs = []
    for t in ("1", "4", "8"):
        out = tmp_path / f"search_{t}.json"
        code = main(
            [
                "pa-search",
                cq_path,
                "--range-size",
                "2",
                "--measure",
                "renyi",
                "--s",
                "1.0",
                "--threads",
                t,
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_pa_family_monte_carlo_threads_byte_identical(cq_path, tmp_path, capsys):
    outs = []
    for t in ("1", "4", "8"):
        out = tmp_path / f"fam_{t}.json"
        code = main(
            [
                "pa-family",
                cq_path,
                "--family",
                "all_functions",
                "--range-size",
                "2",
                "--measure",
                "purified_distance",
                "--sampling",
                "monte_carlo",
                "--count",
                "500",
                "--seed",
                "11",
                "--threads",
                t,
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_pa_family_requires_matching_options(cq_path, capsys):
    assert (
        main(["pa-family", cq_path, "--family", "all_functions", "--measure", "renyi", "--s", "1"])
        == EXIT_VALIDATION
    )
    capsys.readouterr()
    assert (
        main(["pa-family", cq_path, "--family", "affine_prime", "--measure", "renyi", "--s", "1"])
        == EXIT_VALIDATION
    )


def test_pa_family_records_the_options_its_family_takes(tmp_path, capsys):
    five = write_json(
        tmp_path / "five.json",
        {"kind": "cq", "dim": 1, "probs": [0.1, 0.15, 0.2, 0.25, 0.3], "conditionals": [[[1.0]]] * 5},
    )
    four = write_json(
        tmp_path / "four.json",
        {"kind": "cq", "dim": 1, "probs": [0.1, 0.2, 0.3, 0.4], "conditionals": [[[1.0]]] * 4},
    )

    def options(path, *argv):
        code, doc = run_json(["pa-family", path, "--measure", "trace_distance", *argv], capsys)
        assert code == EXIT_OK
        res = doc["results"]
        return res["expectation"], (res["prime"], res["range_size"], res["n"])

    # options a family does not take are recorded as null, even when passed
    affine = [options(five, "--family", "affine_prime", "--prime", p, "--range-size", "3", "--n", "2") for p in ("11", "13")]
    assert affine[0][0] != affine[1][0]
    assert [recorded for _, recorded in affine] == [(11, 3, None), (13, 3, None)]
    assert options(five, "--family", "all_functions", "--range-size", "2", "--prime", "7")[1] == (None, 2, None)
    assert options(four, "--family", "example2_permutation", "--n", "1", "--range-size", "2")[1] == (None, None, 1)


def test_pa_family_domain_mismatch_exits_before_building_tables(tmp_path, capsys):
    # eight permutation copies hash 4^8 symbols; a 2-symbol state must be
    # refused without materializing anything of that size, and ten copies,
    # 4^10 symbols, exceed MAX_SYMBOLS before any state is compared
    path = write_json(
        tmp_path / "two.json",
        {"kind": "cq", "dim": 1, "probs": [0.5, 0.5], "conditionals": [[[1.0]], [[1.0]]]},
    )
    argv = ["pa-family", path, "--family", "example2_permutation", "--measure", "trace_distance", "--n"]
    tracemalloc.start()
    try:
        codes = [main([*argv, n]) for n in ("8", "10")]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes == [EXIT_VALIDATION, EXIT_BUDGET]
    err = capsys.readouterr().err
    assert "family domain 65536 != source symbols 2" in err
    assert "permutation family domain 4^10 exceeds the cap 65536 symbols" in err
    assert peak < 16 * 2**20


def test_pa_family_refuses_an_uncertifiable_family_before_scanning(cq_path, monkeypatch, capsys):
    calls = []
    batch_values = hashing._batch_values
    monkeypatch.setattr(hashing, "_batch_values", lambda *args: calls.append(args) or batch_values(*args))
    argv = ["pa-family", cq_path, "--family", "affine_prime", "--prime", "263", "--range-size", "2"]
    code = main([*argv, "--measure", "trace_distance", "--sampling", "monte_carlo", "--count", "100"])
    assert code == EXIT_BUDGET
    assert "certification is limited to primes <= 257" in capsys.readouterr().err
    assert calls == []


def test_suite_properties_passes(capsys):
    code, doc = run_json(["suite", "properties", "--trials", "4", "--seed", "1"], capsys)
    assert code == EXIT_OK
    assert doc["results"]["passed"] is True
    assert [check["name"] for check in doc["results"]["checks"]] == [
        "renyi order monotonicity",
        "data processing under measurement",
        "order-1 continuity",
        "distance orderings",
        "pinching inequality",
        "exponent search vs refined grid",
    ]


def test_suite_example2_passes(capsys):
    code, doc = run_json(
        ["suite", "example2", "--n", "1", "--realizations", "5", "--seed", "1"], capsys
    )
    assert code == EXIT_OK
    assert doc["results"]["passed"] is True
    assert doc["results"]["exponent_marker"] == "inf"


def test_suite_example2_stays_within_its_memory_and_symbol_caps(capsys):
    # each _batch_values part holds at most _STACK_ENTRIES one-hot entries: the
    # n = 6 suite traced 404 MiB when all 100 realizations went in one part
    tracemalloc.start()
    try:
        code, doc = run_json(["suite", "example2", "--n", "6"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert doc["results"]["passed"] is True
    assert peak < 128 * 2**20
    assert main(["suite", "example2", "--n", "9"]) == EXIT_BUDGET
    assert "permutation family domain 4^9 exceeds the cap 65536 symbols" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["suite", "example2", "--realizations", "0"], "realizations must be >= 1"),
        (["suite", "properties", "--trials", "0"], "--trials must be >= 1"),
    ],
    ids=["example2-realizations", "properties-trials"],
)
def test_suite_without_evidence_is_refused(argv, message, capsys):
    # a suite that checked nothing must not report its checks as passed
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_invalid_and_non_finite_parameters_are_refused(rho_path, sigma_path, cq_path, capsys):
    # (argv, the part of the message that names the parameter); each exits 2 with no document
    table = [
        (["smooth", rho_path, sigma_path, "--rate", "0.5", "--t", "-1"], "t must be positive"),
        (["smooth", rho_path, sigma_path, "--rate", "0.5", "--t", "0"], "t must be positive"),
        (["smooth", rho_path, sigma_path, "--rate", "0.5", "--t", "nan"], "t must be positive"),
        (["smooth", rho_path, sigma_path, "--lam", "0.5", "--t", "nan"], "t must be positive"),
        (["smooth", rho_path, sigma_path, "--rate", "nan"], "rate r"),
        (["smooth", rho_path, sigma_path, "--lam", "nan"], "lam"),
        (["measure", rho_path, sigma_path, "--divergence", "renyi", "--alpha", "nan"], "alpha must be positive"),
        (["measure", cq_path, "--divergence", "cond-renyi", "--alpha", "nan"], "alpha must be positive"),
        (["measure", rho_path, sigma_path, "--divergence", "renyi", "--alpha", "inf"], "--divergence dmax"),
        (["pa-search", cq_path, "--range-size", "2", "--measure", "renyi", "--s", "nan"], "finite s > 0"),
        (["pa-search", cq_path, "--range-size", "2", "--measure", "renyi", "--s", "inf"], "finite s > 0"),
        (
            ["pa-family", cq_path, "--family", "all_functions", "--range-size", "2", "--measure", "renyi", "--s", "nan"],
            "finite s > 0",
        ),
        (["suite", "example1", "--range-bits", "0"], "range_bits must be >= 1"),
    ]
    for argv, message in table:
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (EXIT_VALIDATION, ""), argv
        assert message in captured.err, (argv, captured.err)


def test_csv_format_flattens_headers(rho_path, sigma_path, capsys):
    code = main(
        ["measure", rho_path, sigma_path, "--divergence", "fidelity", "--format", "csv"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "# results.value=0.965925826289" in out
    assert "np." not in out


def test_shared_parser_keeps_no_state_between_calls(rho_path, sigma_path, cq_path, capsys):
    # each call sets options the others leave at their defaults
    calls = [
        ["measure", rho_path, sigma_path, "--divergence", "renyi", "--alpha", "2"],
        ["smooth", rho_path, sigma_path, "--rate", "0.6", "--n-max", "3", "--t", "4", "--format", "csv"],
        ["pa-search", cq_path, "--range-size", "2", "--measure", "renyi", "--s", "0.5", "--budget", "100"],
        [
            "pa-family", cq_path, "--family", "all_functions", "--range-size", "2", "--measure", "trace_distance",
            "--sampling", "monte_carlo", "--count", "50", "--seed", "3", "--threads", "2",
        ],
    ]

    def documents(order):
        out = {}
        for i in order:
            assert main(calls[i]) == EXIT_OK
            out[i] = capsys.readouterr().out
        return out

    assert documents(range(len(calls))) == documents(reversed(range(len(calls))))
