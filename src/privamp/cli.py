"""Command-line interface.

Commands: measure, exponent-curve, smooth, pa-search, pa-family, and suite
example1, example2 or properties, one nested parser each. The shared
options sit on three parent parsers, each declared once, and a command
takes only those it reads: each takes --format and --out; pa-search,
pa-family and suite example1 take --budget, and --threads, which has no
effect; pa-family, suite example2 and suite properties take --seed; any
other is a usage error. The parser is built once per process (PARSER). A
handler returns (inputs, results, rows, exit code), and main() assembles
every document in one place: a reproducibility header (artifact version,
the format and whichever of seed and budget the command takes, input
hashes), the command and the results. Outputs are deterministic for a
fixed seed. Exit codes: 0 success, 1 invariant or check failure, 2 input
validation or usage error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .operators import BudgetExceededError, eig, pinching
from .states import CQState, StateDescriptor
from .measures import (
    ConditionalRenyiCurve,
    RenyiDivergenceCurve,
    apply_measurement,
    fidelity,
    max_relative_entropy,
    purified_distance,
    relative_entropy,
    renyi_conditional_entropy,
    sandwiched_renyi_divergence,
    trace_distance,
)
from .exponents import (
    exponent_curve,
    pa_upper_exponent,
)
from .smoothing import (
    DEFAULT_CONVERSE_T,
    iid_smoothing_certificate,
    smoothing_certificate,
)
from .hashing import (
    DEFAULT_BUDGET,
    MEASURES,
    AffinePrimeFamily,
    AllFunctionsFamily,
    PermutationProductFamily,
    example1_suite,
    example2_suite,
    family_expectation,
    min_insecurity_exhaustive,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3

_STATE_KINDS = {"density": StateDescriptor, "cq": CQState}
# pair measures of `measure`: distances give a float, divergences a DivergenceResult
_DISTANCES = {"fidelity": fidelity, "purified": purified_distance, "trace": trace_distance}
_DIVERGENCES = {"renyi": sandwiched_renyi_divergence, "relative": relative_entropy, "dmax": max_relative_entropy}
# the options each hash family of `pa-family` takes; its document records the others as null
_FAMILY_OPTIONS = {
    "all_functions": ("range_size",),
    "affine_prime": ("prime", "range_size"),
    "example2_permutation": ("n",),
}


class ValidationError(ValueError):
    pass


def _parse_complex_entries(entries, dim: int, where: str) -> np.ndarray:
    arr = np.asarray(entries, dtype=object)
    try:
        if arr.ndim == 3 and arr.shape == (dim, dim, 2):
            num = arr.astype(float)
            return num[..., 0] + 1j * num[..., 1]
        if arr.ndim == 2 and arr.shape == (dim * dim, 2):
            num = arr.astype(float)
            flat = num[:, 0] + 1j * num[:, 1]
            return flat.reshape(dim, dim)
        if arr.ndim == 2 and arr.shape == (dim, dim):
            return arr.astype(float).astype(complex)
        if arr.ndim == 1 and arr.shape == (dim * dim,):
            return arr.astype(float).astype(complex).reshape(dim, dim)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: entries are not numeric: {exc}") from exc
    raise ValidationError(
        f"{where}: entries must be a dim x dim matrix of numbers or [re, im] pairs "
        f"(row-major), got shape {arr.shape} for dim {dim}"
    )


def load_state_file(path: str):
    """Parse a state file into a StateDescriptor or CQState."""
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ValidationError(f"{path}: state files need a 'kind' field ('density' or 'cq')")
    kind = doc["kind"]
    try:
        if kind == "density":
            dim = int(doc["dim"])
            mat = _parse_complex_entries(doc["entries"], dim, path)
            return StateDescriptor.density(mat)
        if kind == "cq":
            probs = np.asarray(doc["probs"], dtype=float)
            dim = int(doc.get("dim", 1))
            conds = [
                _parse_complex_entries(c, dim, f"{path} conditional {i}")
                for i, c in enumerate(doc["conditionals"])
            ]
            return CQState(probs, conds)
    except KeyError as exc:
        raise ValidationError(f"{path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"{path}: {exc}") from exc
    raise ValidationError(f"{path}: unknown kind {kind!r}")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return "sha256:" + h.hexdigest()


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        if x == 0.0:
            x = 0.0
        return f"{x:.12g}"
    return str(x)


def _sanitize(obj):
    """Replace non-finite floats by strings so JSON stays portable."""
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        return obj if math.isfinite(obj) else _fmt(obj)
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def _emit(doc: dict, rows: list[dict] | None, args) -> str:
    if args.format == "json":
        if rows is not None:
            doc = dict(doc, rows=rows)
        return json.dumps(_sanitize(doc), indent=2, sort_keys=True) + "\n"
    lines = []
    flat = _flatten(_sanitize(doc))
    for key in sorted(flat):
        lines.append(f"# {key}={_fmt(flat[key])}")
    if rows:
        rows = [_sanitize(r) for r in rows]
        cols = list(rows[0].keys())
        lines.append(",".join(cols))
        for row in rows:
            lines.append(",".join(_fmt(row.get(c, "")) for c in cols))
    return "\n".join(lines) + "\n"


def _flatten(doc, prefix=""):
    out = {}
    if isinstance(doc, dict):
        for k, v in doc.items():
            out.update(_flatten(v, f"{prefix}{k}."))
    else:
        out[prefix.rstrip(".")] = doc
    return out


def _config_block(args, inputs: list[str]) -> dict:
    # --threads is not recorded: it has no effect, and documents must be
    # identical whatever its value
    return {
        "artifact": {"name": "privamp", "version": __version__},
        "config": {key: getattr(args, key) for key in ("seed", "budget", "format") if hasattr(args, key)},
        "inputs": {p: _sha256(p) for p in inputs},
    }


def _int_at_least(low: int):
    """An argparse type that reads an integer and refuses one below low (usage error, exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None, help="write the document here instead of stdout")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--seed", type=int, default=0, help="master seed for any sampling")
    scan = argparse.ArgumentParser(add_help=False)
    # kept so that existing command lines still parse; every scan runs on one thread
    scan.add_argument("--threads", type=_int_at_least(1), default=1, help="accepted for compatibility; has no effect")
    scan.add_argument("--budget", type=_int_at_least(0), default=DEFAULT_BUDGET, help="exhaustive enumeration budget")

    top = argparse.ArgumentParser(prog="privamp", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", parents=[common], help="evaluate one divergence or entropy")
    p.add_argument("states", nargs="+", help="state files (two for pair divergences, one CQ file for conditional entropies)")
    p.add_argument("--divergence", required=True, choices=(*_DIVERGENCES, *_DISTANCES, "cond-renyi"))
    p.add_argument("--alpha", type=float, default=None, help="Renyi order (use 'inf' for min-entropy)")

    p = sub.add_parser("exponent-curve", parents=[common], help="security exponents on a rate grid")
    p.add_argument("state", help="CQ state file")
    p.add_argument("--r-min", type=float, required=True)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--points", type=int, default=21)
    p.add_argument("--mode", choices=("upper", "lower", "both", "all"), default="both")
    p.add_argument("--s", type=float, default=1.0, help="order parameter for the constrained exponent in mode=all")

    p = sub.add_parser("smooth", parents=[common], help="smoothing certificates over an n grid or one budget")
    p.add_argument("rho", help="state file")
    p.add_argument("sigma", help="reference operator file")
    p.add_argument("--rate", type=float, default=None, help="per-copy budget rate r (lambda = n r)")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=1)
    p.add_argument("--lam", type=float, default=None, help="one-shot budget lambda")
    p.add_argument("--t", type=float, default=DEFAULT_CONVERSE_T, help="converse threshold parameter")

    p = sub.add_parser("pa-search", parents=[common, scan], help="exhaustive minimum insecurity over all hash tables")
    p.add_argument("state", help="CQ state file")
    p.add_argument("--range-size", type=int, required=True)
    p.add_argument("--measure", required=True, choices=MEASURES)
    p.add_argument("--s", type=float, default=None)

    p = sub.add_parser("pa-family", parents=[common, sampling, scan], help="expected insecurity over a hash family")
    p.add_argument("state", help="CQ state file")
    p.add_argument("--family", required=True, choices=tuple(_FAMILY_OPTIONS))
    p.add_argument("--range-size", type=int, default=None)
    p.add_argument("--prime", type=int, default=None, help="modulus for affine_prime")
    p.add_argument("--n", type=int, default=None, help="copies for example2_permutation")
    p.add_argument("--measure", required=True, choices=MEASURES)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--sampling", choices=("exhaustive", "monte_carlo"), default="exhaustive")
    p.add_argument("--count", type=int, default=10**4, help="monte_carlo sample count")

    examples = sub.add_parser("suite", help="built-in verification suites").add_subparsers(dest="which", required=True)
    p = examples.add_parser("example1", parents=[common, scan], help="exhaustive minima for the biased binary source")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--range-bits", type=int, default=1)
    p = examples.add_parser("example2", parents=[common, sampling], help="uniform source under permutation hashing")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--realizations", type=int, default=100)
    p = examples.add_parser("properties", parents=[common, sampling], help="seeded battery of divergence inequalities")
    p.add_argument("--trials", type=int, default=20)

    return top


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _load(path: str, kind: str):
    """The state in path, which must be of the given kind ('density' or 'cq')."""
    state = load_state_file(path)
    _require(isinstance(state, _STATE_KINDS[kind]), f"{path}: expected kind '{kind}'")
    return state


def _cmd_measure(args):
    div = args.divergence
    if div == "cond-renyi":
        _require(len(args.states) == 1, "--divergence cond-renyi needs one CQ state file")
        cq = _load(args.states[0], "cq")
        _require(args.alpha is not None, "--divergence cond-renyi needs --alpha (inf allowed)")
        res = {"value": renyi_conditional_entropy(cq, args.alpha), "alpha": args.alpha}
    else:
        _require(len(args.states) == 2, f"--divergence {div} needs two state files")
        a, b = (_load(path, "density") for path in args.states)
        if div in _DISTANCES:
            res = {"value": _DISTANCES[div](a, b)}
        else:
            _require(div != "renyi" or args.alpha is not None, "--divergence renyi needs --alpha")
            order = {"alpha": args.alpha} if div == "renyi" else {}
            d = _DIVERGENCES[div](a, b, *order.values())
            res = {"value": d.value, "support_violation": d.support_violation, **order}
    return args.states, dict(res, divergence=div), None, EXIT_OK


def _cmd_exponent_curve(args):
    cq = _load(args.state, "cq")
    _require(args.points >= 2, "--points must be >= 2")
    _require(args.r_max > args.r_min, "--r-max must exceed --r-min")
    rates = np.linspace(args.r_min, args.r_max, args.points)
    curve = exponent_curve(cq, rates, mode=args.mode, s=args.s)
    rows = []
    for pt in curve.points:
        row = {"r": pt.rate}
        if pt.upper is not None:
            row.update(
                e_upper=pt.upper.value,
                e_upper_purified=pt.upper.purified_value,
                regime=pt.upper.regime,
                s_upper=pt.upper.maximizer_s,
            )
        if pt.lower is not None:
            row.update(e_lower=pt.lower.value, s_lower=pt.lower.maximizer_s)
        if pt.renyi is not None:
            row.update(e_renyi=pt.renyi.value, renyi_valid=pt.renyi.valid)
        rows.append(row)
    return [args.state], dict(curve.metadata, s=args.s if args.mode == "all" else None), rows, EXIT_OK


def _cmd_smooth(args):
    rho = _load(args.rho, "density")
    sigma = _load(args.sigma, "density")
    _require(
        (args.rate is None) != (args.lam is None),
        "pass exactly one of --rate (iid certificates) or --lam (one-shot)",
    )

    def bracket(cert) -> dict:
        exact = cert.exact if cert.exact is not None else ""
        return {"lam": cert.lam, "lower": cert.lower, "exact": exact, "upper": cert.upper}

    if args.lam is not None:
        cert = smoothing_certificate(rho, sigma, args.lam, t=args.t)
        meta = cert.meta
        rows = [dict(bracket(cert), witness_achieved=meta["witness_achieved"], commuting=meta["commuting"])]
        results = {"mode": "one-shot", "t": args.t}
    else:
        _require(1 <= args.n_min <= args.n_max, "--n-min must be in [1, --n-max]")

        def _nexp(x: float, n: int) -> float:
            return math.inf if x <= 0 else 0.0 - math.log2(x) / n

        rows = []
        ns = range(args.n_min, args.n_max + 1)
        for cert in iid_smoothing_certificate(rho, sigma, args.rate, ns, t=args.t):
            n = cert.meta["n"]
            rows.append(
                {
                    "n": n,
                    **bracket(cert),
                    "exponent_lo": _nexp(cert.upper, n),
                    "exponent_hi": _nexp(cert.lower, n),
                    "v_n": cert.meta["v_n"],
                }
            )
        results = {"mode": "iid", "rate": args.rate, "t": args.t}
    return [args.rho, args.sigma], results, rows, EXIT_OK


def _cmd_pa_search(args):
    cq = _load(args.state, "cq")
    _require(args.range_size >= 1, "--range-size must be >= 1")
    rep = min_insecurity_exhaustive(
        cq,
        args.range_size,
        args.measure,
        args.s,
        budget=args.budget,
    )
    results = {
        "measure": rep.measure,
        "s": rep.s,
        "min_value": rep.value,
        "hash_index": rep.hash_index,
        "hash_table": list(rep.hash_table),
        "evaluated": rep.evaluated,
    }
    return [args.state], results, None, EXIT_OK


def _cmd_pa_family(args):
    cq = _load(args.state, "cq")
    taken = _FAMILY_OPTIONS[args.family]
    _require(
        all(getattr(args, key) is not None for key in taken),
        f"{args.family} needs " + " and ".join("--" + key.replace("_", "-") for key in taken),
    )
    if args.family == "all_functions":
        fam = AllFunctionsFamily(cq.nsymbols, args.range_size)
    elif args.family == "affine_prime":
        fam = AffinePrimeFamily(args.prime, cq.nsymbols, args.range_size)
    else:
        fam = PermutationProductFamily(args.n)
    certificate = fam.collision_certificate()
    exp = family_expectation(
        fam,
        cq,
        args.measure,
        args.s,
        sampling=args.sampling,
        count=args.count,
        seed=args.seed,
        budget=args.budget,
    )
    results = {
        "family": args.family,
        "measure": args.measure,
        "s": args.s,
        "expectation": exp.value,
        "std_error": exp.std_error,
        "count": exp.count,
        "sampling": exp.sampling,
        "collision_certificate": certificate,
        **{key: getattr(args, key) if key in taken else None for key in ("range_size", "prime", "n")},
    }
    return [args.state], results, None, EXIT_OK


def _properties_suite(args) -> dict:
    """Seeded battery of the library's own inequalities on random states."""
    _require(args.trials >= 1, "--trials must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([args.seed, 0xB]))

    def rand_density(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = g @ g.conj().T
        return m / float(np.trace(m).real)

    checks = []

    def record(name, worst, tol):
        checks.append({"name": name, "worst_slack": worst, "tolerance": tol, "passed": worst <= tol})

    alphas = (0.3, 0.6, 1.5, 2.0, 4.0)
    worst = -math.inf
    for _ in range(args.trials):
        d = int(rng.integers(2, 5))
        rho, sig = rand_density(d), rand_density(d)
        vals = [sandwiched_renyi_divergence(rho, sig, a).value for a in alphas]
        worst = max(worst, max(x - y for x, y in zip(vals, vals[1:])))
    record("renyi order monotonicity", worst, 1e-9)

    worst = -math.inf
    for _ in range(args.trials):
        d = int(rng.integers(2, 5))
        rho, sig = rand_density(d), rand_density(d)
        k = int(rng.integers(2, 5))
        raw = [rand_density(d) * float(rng.uniform(0.2, 1.0)) for _ in range(k)]
        total = sum(raw)
        w, v = np.linalg.eigh(total)
        inv_sqrt = (v * (w**-0.5)) @ v.conj().T
        povm = [inv_sqrt @ a @ inv_sqrt for a in raw]
        p = apply_measurement(rho, povm)
        q = apply_measurement(sig, povm)
        for a in (0.5, 2.0):
            pre = sandwiched_renyi_divergence(rho, sig, a).value
            post = sandwiched_renyi_divergence(np.diag(p), np.diag(q), a).value
            worst = max(worst, post - pre)
    record("data processing under measurement", worst, 1e-9)

    worst = -math.inf
    for _ in range(args.trials):
        d = int(rng.integers(2, 5))
        rho, sig = rand_density(d), rand_density(d)
        dv = relative_entropy(rho, sig).value
        a = np.array([1.0 - 1e-4, 1.0 + 1e-4])
        worst = max(worst, float(np.max(np.abs(RenyiDivergenceCurve(rho, sig).log2_q(a) / (a - 1.0) - dv))))
    record("order-1 continuity", worst, 1e-3)

    worst = -math.inf
    for _ in range(args.trials):
        d = int(rng.integers(2, 5))
        rho, sig = StateDescriptor.density(rand_density(d)), StateDescriptor.density(rand_density(d))
        td = trace_distance(rho, sig)
        pd = purified_distance(rho, sig)
        worst = max(worst, td - pd, pd - math.sqrt(max(0.0, 2 * td - td * td)))
        dv = relative_entropy(rho, sig).value
        if math.isfinite(dv):
            worst = max(worst, pd - math.sqrt(math.log(2.0) * dv))
    record("distance orderings", worst, 1e-9)

    worst = -math.inf
    for _ in range(args.trials):
        d = int(rng.integers(2, 5))
        rho, sig = rand_density(d), rand_density(d)
        v = eig(sig).distinct_count
        slack = np.linalg.eigvalsh(v * pinching(rho, sig).mat - rho)[0]
        worst = max(worst, -float(slack))
    record("pinching inequality", worst, 1e-9)

    worst = -math.inf
    for _ in range(max(1, args.trials // 4)):
        nx = int(rng.integers(2, 4))
        de = int(rng.integers(1, 4))
        p = rng.dirichlet(np.ones(nx))
        cq = CQState(p, [rand_density(de) for _ in range(nx)])
        curve = ConditionalRenyiCurve(cq)
        rate = float(rng.uniform(curve.hmin(), curve.h1()))
        found = pa_upper_exponent(curve, rate)
        t = np.linspace(0.0, 1.0, 10001, endpoint=False)
        coarse = t / (1.0 - t)  # every order s >= 0, through t = s / (1 + s)
        k = int(np.argmax(curve.s_times_h(coarse) - coarse * rate))
        lo = coarse[max(0, k - 1)]
        hi = coarse[min(len(coarse) - 1, k + 1)]
        fine = np.linspace(lo, hi, 10001)
        gval = float(np.max(curve.s_times_h(fine) - fine * rate))
        if math.isfinite(found.value):
            worst = max(worst, abs(found.value - gval))
    record("exponent search vs refined grid", worst, 1e-6)

    return {
        "trials": args.trials,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _cmd_suite(args):
    if args.which == "example1":
        rep = example1_suite(args.n, args.range_bits, budget=args.budget)
        results = {
            "n": rep["n"],
            "range_bits": rep["range_bits"],
            "minima": {k: v.value for k, v in rep["minima"].items()},
            "minimizers": {k: list(v.hash_table) for k, v in rep["minima"].items()},
            "exponent_samples": rep["exponent_samples"],
            "checks": rep["checks"],
            "passed": rep["passed"],
        }
    elif args.which == "example2":
        results = example2_suite(args.n, realizations=args.realizations, seed=args.seed)
    else:
        results = _properties_suite(args)
    return [], results, None, EXIT_OK if results["passed"] else EXIT_CHECK_FAILED


HANDLERS = {
    "measure": _cmd_measure,
    "exponent-curve": _cmd_exponent_curve,
    "smooth": _cmd_smooth,
    "pa-search": _cmd_pa_search,
    "pa-family": _cmd_pa_family,
    "suite": _cmd_suite,
}
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        inputs, results, rows, code = HANDLERS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    doc = _config_block(args, inputs)
    doc["command"] = f"suite {args.which}" if args.command == "suite" else args.command
    doc["results"] = results
    text = _emit(doc, rows, args)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
