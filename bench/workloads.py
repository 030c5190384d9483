"""Seeded workloads: the jobs of one pass and the checks on their documents.

A workload builds a fixed list of jobs (one pass) from a seed. The pass has
the same composition for every seed: job kinds, sizes and order are fixed,
and the seed only draws the states. That is what keeps medians comparable
across seeds. The timed loop repeats the pass. Every job is an argv for
`privamp.cli.main`, and the program sees only the state files written here.

No job of a pass is known to fail. The two known defects of privamp run in a
separate defect probe instead (`build_probe`): a fixed list of jobs, the same
for every seed, that runs outside the timed loop and whose failures the
result counts and lists. A fix of a defect therefore changes the probe's
count but not the job mix that the timings are taken over.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import reference as ref

RATE_GUARD = 1e-6
BRACKET_SLACK = 1e-9


@dataclass
class Job:
    key: str
    kind: str
    argv: list[str]
    work: int
    ref: dict = field(default_factory=dict)
    same_as: int | None = None  # index of the job whose document must be byte-identical


def rand_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / float(np.trace(m).real)


def rand_cq(rng: np.random.Generator, nx: int, dim_e: int):
    return rng.dirichlet(np.ones(nx)), [rand_density(rng, dim_e) for _ in range(nx)]


def rand_commuting_pair(rng: np.random.Generator, dim: int):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    p = rng.dirichlet(np.ones(dim))
    w = rng.dirichlet(np.ones(dim)) * float(rng.uniform(0.5, 2.0))
    return (q * p) @ q.conj().T, (q * w) @ q.conj().T


def _entries(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _write(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def write_cq(path: str, probs, conds) -> str:
    return _write(path, {
        "kind": "cq",
        "dim": int(conds[0].shape[0]),
        "probs": [float(x) for x in probs],
        "conditionals": [_entries(c) for c in conds],
    })


def write_density(path: str, mat: np.ndarray) -> str:
    return _write(path, {"kind": "density", "dim": int(mat.shape[0]), "entries": _entries(mat)})


def _num(x) -> str:
    return repr(float(x))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------- exponent-sweep

NEAR_HMIN_OFFSETS = (1e-2, 1e-3, 1e-4, 1e-6)
EXPONENT_POINTS = 21


def _exponent_job(key: str, kind: str, path: str, probs, conds, delta) -> Job:
    """exponent-curve on 21 rates from H_min + delta (delta(H, H_min) if callable) to H + 0.05."""
    cq = ref.CQReference(probs, conds)
    h, h_min = cq.h(), cq.h_min()
    delta = delta(h, h_min) if callable(delta) else delta
    write_cq(path, probs, conds)
    argv = [
        "exponent-curve", path, "--mode", "all", "--s", "0.5",
        "--r-min", _num(h_min + delta), "--r-max", _num(h + 0.05),
        "--points", str(EXPONENT_POINTS),
    ]
    return Job(key, kind, argv, EXPONENT_POINTS, {"h": h, "h_min": h_min, "cq": cq})


def build_exponent_sweep(rng: np.random.Generator, workdir: str) -> list[Job]:
    """96 curves on CQ states with 2-3 symbols and d_E = 2-3.

    The four (symbols, d_E) shapes cycle through the pass. Each grid starts
    a random 20-40% of the way from H_min to H. Grids that start nearer to
    H_min can hit the "optimizer hit the s cap" defect: on 3000 random
    states it showed from 5% to 10% of the way, never from 15%. Those grids
    run in the defect probe.
    """
    jobs = []
    for i in range(96):
        nx, de = 2 + i % 2, 2 + (i // 2) % 2
        probs, conds = rand_cq(rng, nx, de)
        u = float(rng.uniform(0.2, 0.4))
        jobs.append(_exponent_job(f"e{i:02d}-{nx}x{de}", "regular", os.path.join(workdir, f"cq{i:02d}.json"),
                                  probs, conds, lambda h, h_min, u=u: u * (h - h_min)))
    return jobs


def _expected_regime(r: float, h: float, h_min: float, rc: float) -> str | None:
    if min(abs(r - h), abs(r - rc), abs(r - h_min)) <= RATE_GUARD:
        return None
    if r >= h:
        return "zero"
    if r >= rc:
        return "high-rate"
    return "low-rate" if r > h_min else "divergent"


def check_exponent_sweep(job: Job, doc: dict) -> list[str]:
    if "rc" not in job.ref:  # computed on first check, so that set-up does only the inputs' work
        job.ref["rc"] = job.ref["cq"].critical_rate()
    h, h_min, rc = job.ref["h"], job.ref["h_min"], job.ref["rc"]
    res, rows = doc["results"], doc["rows"]
    errs = []
    for name, want, tol in (("h", h, 1e-9), ("h_min", h_min, 1e-9), ("critical_rate", rc, RATE_GUARD)):
        if not _close(res[name], want, tol):
            errs.append(f"{name} {res[name]!r} != reference {want!r}")
    if len(rows) != EXPONENT_POINTS:
        return errs + [f"{len(rows)} rows, expected {EXPONENT_POINTS}"]
    for col in ("e_upper", "e_lower"):
        vals = [row[col] for row in rows]
        if any(not isinstance(v, float) or v < 0 for v in vals):
            errs.append(f"{col} has a negative or non-finite value")
        elif any(b > a + 1e-9 for a, b in zip(vals, vals[1:])):
            errs.append(f"{col} is not nonincreasing")
    for row in rows:
        r = row["r"]
        if r >= rc + RATE_GUARD and not _close(row["e_upper"], row["e_lower"], 1e-8):
            errs.append(f"r={r}: upper {row['e_upper']} and lower {row['e_lower']} disagree above R_crit")
        want = _expected_regime(r, h, h_min, rc)
        if want is not None and row["regime"] != want:
            errs.append(f"r={r}: regime {row['regime']!r}, expected {want!r}")
        if abs(r - rc) > RATE_GUARD and row["renyi_valid"] != (r > rc):
            errs.append(f"r={r}: renyi_valid {row['renyi_valid']} on the wrong side of R_crit")
        if not -1e-12 <= row["e_renyi"] <= row["e_upper"] + 1e-9:
            errs.append(f"r={r}: e_renyi {row['e_renyi']} outside [0, e_upper]")
    return errs


# ---------------------------------------------------------------- hash-scan

MEASURES = ("trace_distance", "purified_distance", "relative_entropy", "renyi")
SEARCH_SIZES = ((12, 2), (13, 2), (14, 2), (9, 3))  # m^X = 4096 .. 19683 tables
MC_SHAPES = (  # (family, symbols, range, prime)
    ("all_functions", 12, 2, None),
    ("affine_prime", 9, 3, 11),
    ("all_functions", 14, 2, None),
    ("affine_prime", 13, 2, 13),
    ("all_functions", 9, 3, None),
    ("affine_prime", 11, 2, 11),
    ("all_functions", 13, 2, None),
    ("affine_prime", 14, 3, 17),
)
MC_DRAWS = 20000
MC_CHECK_MAX_TABLES = 1 << 14
MC_SIGMAS = 5.0


def build_hash_scan(rng: np.random.Generator, workdir: str) -> list[Job]:
    """16 sources, alternating exhaustive pa-search and Monte Carlo pa-family.

    Every source runs at --threads 1 and then at --threads 2; the second
    document must equal the first byte for byte. Each measure appears twice
    per kind, on d_E = 2 and 3.
    """
    jobs = []
    for i in range(16):
        search = i % 2 == 0
        k = i // 2
        measure = MEASURES[k % 4]
        de = 2 + (k // 4 + k) % 2
        s = 0.5 if k < 4 else 1.0
        if search:
            nx, m = SEARCH_SIZES[k % 4]
            family, prime = None, None
        else:
            family, nx, m, prime = MC_SHAPES[k]
        probs, conds = rand_cq(rng, nx, de)
        path = write_cq(os.path.join(workdir, f"src{i:02d}.json"), probs, conds)
        renyi_order = ["--s", _num(s)] if measure == "renyi" else []
        if search:
            argv = ["pa-search", path, "--range-size", str(m), "--measure", measure] + renyi_order
            kind, work = "search", m**nx
        else:
            argv = ["pa-family", path, "--family", family, "--range-size", str(m), "--measure", measure,
                    "--sampling", "monte_carlo", "--count", str(MC_DRAWS), "--seed", str(int(rng.integers(1 << 31)))]
            argv += (["--prime", str(prime)] if prime else []) + renyi_order
            kind, work = "monte_carlo", MC_DRAWS
        shared = {"probs": probs, "conds": np.array(conds), "m": m, "nx": nx, "measure": measure,
                  "s": s if measure == "renyi" else None, "family": family, "prime": prime,
                  "useful": ref.restricted_growth_count(nx, m)}
        key = f"h{i:02d}-{kind}-{family or 'tables'}-{measure}-X{nx}m{m}d{de}"
        for threads in (1, 2):
            jobs.append(Job(f"{key}-t{threads}", f"{kind}-t{threads}", argv + ["--threads", str(threads)],
                            work, shared, same_as=len(jobs) - 1 if threads == 2 else None))
    return jobs


def check_hash_scan(job: Job, doc: dict) -> list[str]:
    r, res = job.ref, doc["results"]
    if job.kind.startswith("search"):
        errs = []
        table = ref.decode_index(res["hash_index"], r["nx"], r["m"])
        if table != res["hash_table"]:
            errs.append(f"hash_index {res['hash_index']} decodes to {table}, not {res['hash_table']}")
        if res["evaluated"] != r["m"] ** r["nx"]:
            errs.append(f"evaluated {res['evaluated']} != {r['m']}^{r['nx']}")
        want = float(ref.hashed_insecurity(res["hash_table"], r["probs"], r["conds"], r["m"], r["measure"], r["s"])[0])
        if not _close(res["min_value"], want, 1e-12):
            errs.append(f"min_value {res['min_value']!r} != reference insecurity {want!r} of its table")
        return errs
    errs = []
    if res["count"] != MC_DRAWS or res["sampling"] != "monte_carlo":
        errs.append(f"count {res['count']} / sampling {res['sampling']!r}")
    se = res["std_error"]
    if not (isinstance(se, float) and se > 0):
        return errs + [f"std_error {se!r} is not positive"]
    tables = (r["prime"] - 1) * r["prime"] if r["family"] == "affine_prime" else r["m"] ** r["nx"]
    if tables <= MC_CHECK_MAX_TABLES:
        if "exhaustive_mean" not in r:
            r["exhaustive_mean"] = ref.exhaustive_family_mean(
                r["family"], r["nx"], r["m"], r["prime"], r["probs"], r["conds"], r["measure"], r["s"])
        if abs(res["expectation"] - r["exhaustive_mean"]) > MC_SIGMAS * se:
            errs.append(f"mean {res['expectation']!r} is more than {MC_SIGMAS} standard errors "
                        f"from the exhaustive mean {r['exhaustive_mean']!r}")
    return errs


# ---------------------------------------------------------------- smooth-iid

# The pass is built from tiers of jobs of one shape: (kind, dim, N, jobs).
# With 40 jobs, p50 lies among eight dense non-commuting jobs of 128-256
# dimensions (ranks 16-23) and p90 among eight of 512 dimensions (ranks
# 30-37). Their time hardly depends on the state. The time of a commuting
# job varies by about 20% from pair to pair, so when p50 lay among a dozen
# commuting jobs it moved by that much from seed to seed; the commuting jobs
# sit between the two blocks and above them. A quantile that falls between
# two shapes far apart reads the fastest sample of one or the slowest of
# the other, and jumps from run to run.
SMOOTH_TIERS = (
    ("one-shot", None, None, 12),
    ("noncommuting", 2, 9, 8),
    ("noncommuting", 2, 7, 3), ("noncommuting", 3, 5, 3), ("noncommuting", 2, 8, 2),
    ("commuting", 3, 12, 1), ("commuting", 4, 12, 1), ("commuting", 2, 16, 1), ("commuting", 3, 16, 1),
    ("commuting", 4, 14, 1), ("commuting", 2, 12, 1),
    ("noncommuting", 3, 2, 1), ("noncommuting", 3, 3, 1), ("noncommuting", 3, 4, 1), ("commuting", 4, 4, 1),
    ("commuting", 3, 40, 1), ("commuting", 4, 40, 1),
)
ONE_SHOT_DIMS = (2, 3, 4)
# Commuting rates sit 10-30% of the way from D to D_max. There the decay
# exponent of epsilon stayed below 0.35 bit per copy on 1500 random pairs, so
# epsilon stays far above 1e-8 up to n = 40. Near 1e-8, 1 - F^2 cancels to 0
# and privamp raises "certificate bracket violated"; the defect probe keeps
# that case in every run.
COMMUTING_U = (0.1, 0.3)


def smooth_pass() -> list[tuple[str, int | None, int | None]]:
    """The (kind, dim, N) of each job of a pass: one job from each tier in turn, largest tiers first.

    So the pass opens with a one-shot, a 512-dimension and a commuting N=12
    job, the first job of each kind, on which set-up warms up.
    """
    tiers = sorted(SMOOTH_TIERS, key=lambda t: -t[3])
    queues = [[(kind, dim, n)] * count for kind, dim, n, count in tiers]
    order = []
    while any(queues):
        order += [q.pop() for q in queues if q]
    return order


def build_smooth_iid(rng: np.random.Generator, workdir: str) -> list[Job]:
    """40 `privamp smooth` jobs: 9 commuting iid, 19 non-commuting iid, 12 one-shot (SMOOTH_TIERS).

    Rates and budgets are drawn inside (D, D_max): COMMUTING_U of the way for
    commuting iid jobs, 25-75% for the others. One-shot jobs cycle through
    dimensions 2-4 and alternate non-commuting and commuting pairs.
    """
    jobs = []
    one_shots = 0
    for i, (kind, dim, n_max) in enumerate(smooth_pass()):
        if kind == "commuting":
            rho, sigma = rand_commuting_pair(rng, dim)
            sigma = sigma / float(np.trace(sigma).real)
            u, commuting = float(rng.uniform(*COMMUTING_U)), True
        elif kind == "noncommuting":
            rho, sigma = rand_density(rng, dim), rand_density(rng, dim)
            u, commuting = float(rng.uniform(0.25, 0.75)), False
        else:
            dim, commuting = ONE_SHOT_DIMS[one_shots % 3], one_shots % 2 == 1
            one_shots += 1
            if commuting:
                rho, sigma = rand_commuting_pair(rng, dim)
                sigma = sigma / float(np.trace(sigma).real)
            else:
                rho, sigma = rand_density(rng, dim), rand_density(rng, dim)
            u = float(rng.uniform(0.25, 0.75))
        jobs.append(_smooth_job(f"s{i:02d}", kind, workdir, rho, sigma, u, n_max, commuting))
    return jobs


def _smooth_job(prefix: str, kind: str, workdir: str, rho, sigma, u: float, n_max, commuting: bool) -> Job:
    """`smooth` at rate r = D + u (D_max - D): --lam r if one-shot, else n = 1..n_max."""
    d, d_max = ref.pair_divergences(rho, sigma)
    rate = d + u * (d_max - d)
    rho_path = write_density(os.path.join(workdir, f"{prefix}-rho.json"), rho)
    sigma_path = write_density(os.path.join(workdir, f"{prefix}-sigma.json"), sigma)
    argv = ["smooth", rho_path, sigma_path]
    if kind == "one-shot":
        argv += ["--lam", _num(rate)]
        key, work = f"{prefix}-one-shot-d{rho.shape[0]}", 1
    else:
        argv += ["--rate", _num(rate), "--n-min", "1", "--n-max", str(n_max)]
        key, work = f"{prefix}-{kind}-d{rho.shape[0]}-N{n_max}", n_max
    return Job(key, kind, argv, work, {"rate": rate, "n_max": n_max, "commuting": commuting})


def _bracket_errors(row: dict, commuting: bool) -> list[str]:
    lower, upper, exact = row["lower"], row["upper"], row["exact"]
    errs = []
    if not 0.0 <= lower <= upper + BRACKET_SLACK or upper > 1.0:
        errs.append(f"bracket [{lower!r}, {upper!r}] is not ordered inside [0, 1]")
    if commuting != (exact != ""):
        errs.append(f"exact {exact!r} present on a {'non-' * (not commuting)}commuting pair")
    elif commuting and not lower - BRACKET_SLACK <= exact <= upper + BRACKET_SLACK:
        errs.append(f"exact {exact!r} outside [{lower!r}, {upper!r}]")
    return errs


def check_smooth_iid(job: Job, doc: dict) -> list[str]:
    r, rows = job.ref, doc["rows"]
    commuting = r["commuting"]
    if job.kind == "one-shot":
        if len(rows) != 1:
            return [f"{len(rows)} rows for a one-shot certificate"]
        row = rows[0]
        errs = _bracket_errors(row, commuting)
        if row["lam"] != r["rate"]:
            errs.append(f"lam {row['lam']!r} != requested {r['rate']!r}")
        if row["commuting"] != commuting:
            errs.append(f"commuting flag {row['commuting']}")
        if row["upper"] > row["witness_achieved"] + 1e-12:
            errs.append("upper exceeds the achieved witness epsilon")
        return errs
    if [row["n"] for row in rows] != list(range(1, r["n_max"] + 1)):
        return [f"rows cover n = {[row['n'] for row in rows]}"]
    errs = []
    for row in rows:
        n = row["n"]
        if not math.isclose(row["lam"], n * r["rate"], rel_tol=1e-12, abs_tol=1e-12):
            errs.append(f"n={n}: lam {row['lam']!r} != n r")
        errs += [f"n={n}: {e}" for e in _bracket_errors(row, commuting)]
    return errs


# ---------------------------------------------------------------- defect probe

PROBE_STATES = 5


def _acceptance_draws():
    """The 20 acceptance-criterion CQ states of seed [2026, 2], then the generator that drew them."""
    rng = np.random.default_rng(np.random.SeedSequence([2026, 2]))
    states = []
    for _ in range(20):
        nx = int(rng.integers(2, 4))
        de = int(rng.integers(2, 4))
        states.append(rand_cq(rng, nx, de))
    return states, rng


def build_probe(name: str, workdir: str) -> list[Job]:
    """The fixed jobs on which privamp's two known defects show; the same for every seed.

    exponent-sweep: grids from H_min + delta, delta in the near-H_min
    offsets, on the first acceptance-criterion states. They raise "optimizer
    hit the s cap" (on the 20 states: 2 at 1e-2, 5 at 1e-3, 13 at 1e-4, 20
    at 1e-6). smooth-iid: the first commuting pair drawn after those states,
    r = (D + D_max) / 2, n = 1..40. Its exact epsilon rounds to 0 at n =
    35..40 while the converse is 3e-8, and the certificate raises "bracket
    violated". hash-scan has no known defect.
    """
    states, rng = _acceptance_draws()
    if name == "exponent-sweep":
        return [_exponent_job(f"probe-cq{i:02d}-near-{delta:g}", "near",
                              os.path.join(workdir, f"probe-cq{i:02d}-{k}.json"), probs, conds, delta)
                for i, (probs, conds) in enumerate(states[:PROBE_STATES])
                for k, delta in enumerate(NEAR_HMIN_OFFSETS)]
    if name == "smooth-iid":
        rho, sigma = rand_commuting_pair(rng, 3)
        sigma = sigma / float(np.trace(sigma).real)
        return [_smooth_job("probe", "commuting", workdir, rho, sigma, 0.5, 40, True)]
    return []


WORKLOADS = {
    "exponent-sweep": (build_exponent_sweep, check_exponent_sweep, "rate points"),
    "hash-scan": (build_hash_scan, check_hash_scan, "tables covered"),
    "smooth-iid": (build_smooth_iid, check_smooth_iid, "certificates"),
}
WORKLOAD_TAGS = {"exponent-sweep": 1, "hash-scan": 2, "smooth-iid": 3}


def build(name: str, seed: int, workdir: str) -> list[Job]:
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOAD_TAGS[name]]))
    return WORKLOADS[name][0](rng, workdir)


def check(name: str, job: Job, doc: dict) -> list[str]:
    return WORKLOADS[name][1](job, doc)
