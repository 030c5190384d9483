#!/usr/bin/env python3
"""privamp benchmark: one closed-loop client driving `privamp.cli.main` in-process.

    python3 bench/run.py --workload exponent-sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # every workload, one table
    python3 bench/run.py --quick ...         # a few jobs; checks the result schema only

Run it from anywhere inside a privamp checkout; it imports privamp from the
checkout's `src/`. Each job starts only after the previous one returned.
`--trace 0` reports the end-to-end metrics of BENCHMARK.json; `--trace 1`
runs one pass with spans around every privamp entry point and reports the
per-layer metrics. After the measurement, the workload's defect probe runs
the fixed jobs on which privamp's known defects show; its failures are
listed in the result and kept out of the timed jobs. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, where attempted and failed count the measured jobs. The full
result (metadata, input hashes, document digests, failing jobs, defect
probe) goes to `.bench_out/<workload>-seed<seed>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"

WORKLOAD_NAMES = ("exponent-sweep", "hash-scan", "smooth-iid")
SETUP_PROBES = 6  # half before the timed loop, half after, so one slow spell of the host holds few
MIN_OK_JOBS = 110  # at least ten successful jobs beyond p90
RUN_CAP = 2.0  # a run stops at this multiple of --seconds even short of MIN_OK_JOBS
QUICK_JOBS = 6
END_TO_END = (
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("work_per_s", "units/s"),
    ("peak_rss_mib", "MiB"),
)


@dataclass
class Record:
    index: int
    key: str
    code: int | None
    wall: float
    work: int
    message: str = ""
    check_errors: list[str] = field(default_factory=list)
    digest: str = ""

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.check_errors


def run_job(cli, name: str, jobs, index: int, digests: dict[int, str], check: bool = True) -> Record:
    """Run one job through cli.main, then check its document unless `check` is false."""
    import workloads

    job = jobs[index]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job.argv)
    except SystemExit as exc:  # argparse rejected the argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        err.write(traceback.format_exc())
    wall = time.perf_counter() - start
    lines = err.getvalue().strip().splitlines()
    rec = Record(index, job.key, code, wall, job.work, lines[-1] if lines else "")
    if code == 0 and check:
        text = out.getvalue()
        rec.digest = hashlib.sha256(text.encode()).hexdigest()
        try:
            rec.check_errors = workloads.check(name, job, json.loads(text))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            rec.check_errors = [f"document is not shaped as expected: {type(exc).__name__}: {exc}"]
        if job.same_as is not None and digests.get(job.same_as) != rec.digest:
            rec.check_errors.append(f"document differs from {jobs[job.same_as].key}")
    digests[index] = rec.digest
    return rec


def prepare(name: str, seed: int, workdir: str, quick: bool, check: bool = True):
    """Import privamp, write the seeded inputs, run the first job cold and warm up.

    Warm-up runs the first job of every kind, so one-off costs such as the
    first threaded LAPACK call or the first thread pool land here, not in
    the timed loop. The setup probes pass check=False: checking documents
    is the benchmark's work, not privamp's.
    """
    from privamp import cli
    import workloads

    shutil.rmtree(workdir, ignore_errors=True)
    jobs = workloads.build(name, seed, workdir)
    if quick:
        jobs = jobs[:QUICK_JOBS]
    first = {}
    for i, job in enumerate(jobs):
        first.setdefault(job.kind, i)
    digests: dict[int, str] = {}
    warm = [run_job(cli, name, jobs, i, digests, check) for i in sorted(first.values())]
    return cli, jobs, warm


def probe_setup(name: str, seed: int) -> float:
    """Wall time of a fresh interpreter that runs prepare() and exits."""
    workdir = os.path.join(WORK_DIR, f"probe-{name}-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--probe", "--workload", name, "--seed", str(seed)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=300)
    wall = time.perf_counter() - start
    shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    return wall


def timed_loop(cli, name, jobs, seconds: float, max_jobs: int | None = None, min_ok: int = MIN_OK_JOBS,
               pass_time: float = 0.0) -> list[Record]:
    """Closed loop over whole passes for about `seconds` of wall time.

    A pass that has started runs to its end, so every run measures the same
    mix of jobs and seeds differ only in their states. The loop stops at the
    pass boundary nearest to `seconds` (`pass_time` estimates a pass before
    the first one ends), but goes on until `min_ok` jobs have succeeded,
    starting no pass after RUN_CAP * seconds. Wall time here includes the
    output checks; job times do not.
    """
    records: list[Record] = []
    digests: dict[int, str] = {}
    start = time.perf_counter()
    while max_jobs is None or len(records) < max_jobs:
        if max_jobs is None and len(records) % len(jobs) == 0:
            elapsed = time.perf_counter() - start
            if records:
                pass_time = elapsed / (len(records) // len(jobs))
            if elapsed + pass_time / 2 >= seconds and (
                sum(r.ok for r in records) >= min_ok or elapsed >= RUN_CAP * seconds
            ):
                break
        records.append(run_job(cli, name, jobs, len(records) % len(jobs), digests))
    return records


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(records: list[Record], setup_samples: list[float]) -> dict[str, float]:
    ok_walls = [r.wall for r in records if r.ok]
    if not ok_walls:
        raise RuntimeError("no job succeeded; job times are undefined")
    return {
        "setup_s": statistics.median(setup_samples),
        "job_p50_s": statistics.median(ok_walls),
        "job_p90_s": _p90(ok_walls),
        "work_per_s": sum(r.work for r in records if r.ok) / sum(r.wall for r in records),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_probe(cli, name: str, probe_jobs, tracer=None) -> list[Record]:
    """Each defect-probe job once, traced if a tracer is given."""
    digests: dict[int, str] = {}
    if tracer is not None:
        tracer.install()
    try:
        return [run_job(cli, name, probe_jobs, i, digests) for i in range(len(probe_jobs))]
    finally:
        if tracer is not None:
            tracer.uninstall()


def traced_run(cli, name, jobs, seconds: float, out_stem: str, probe_jobs):
    """One pass in which every job runs untraced and then traced, then untraced passes until `seconds`.

    Running each job's untraced twin right before it keeps drifts in machine
    speed out of the tracing overhead. The defect probe runs last, under a
    tracer of its own, so its spans feed only the error counts.
    """
    import layers
    from tracer import Tracer

    start = time.perf_counter()
    tracer = Tracer()
    untraced: list[Record] = []
    traced: list[Record] = []
    digests: dict[int, str] = {}
    for i in range(len(jobs)):
        untraced.append(run_job(cli, name, jobs, i, digests))
        tracer.install()
        try:
            tracer.job = i
            traced.append(run_job(cli, name, jobs, i, digests))
        finally:
            tracer.uninstall()
    left = seconds - (time.perf_counter() - start)
    untraced += timed_loop(cli, name, jobs, left, min_ok=0, pass_time=sum(r.wall for r in untraced))
    probe_tracer = Tracer()
    probe = run_probe(cli, name, probe_jobs, probe_tracer)
    values, absent = layers.layer_metrics(tracer.spans, traced, untraced, jobs, probe_tracer.spans,
                                          tracer.missing | probe_tracer.missing)
    with gzip.open(out_stem + "-spans.csv.gz", "wt") as fh:
        fh.write("id,name,start_s,end_s,parent,job,error\n")
        t0 = min((sp.start for sp in tracer.spans), default=0.0)
        for sp in tracer.spans:
            error = json.dumps(sp.error) if sp.error else ""
            fh.write(f"{sp.sid},{sp.name},{sp.start - t0:.9f},{sp.end - t0:.9f},{sp.parent},{sp.job},{error}\n")
    return untraced + traced, values, absent, traced, probe


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _blas() -> dict:
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def metadata(seed: int) -> dict:
    import numpy as np

    src = hashlib.sha256()
    pkg = os.path.join(SRC, "privamp")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                src.update(fname.encode() + b"\0" + fh.read())
    return {
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "platform": platform.platform(),
        "seed": seed,
    }


def _documents_digest(records: list[Record], pass_len: int) -> str:
    """Digest of one pass of documents in job order; equal digests mean byte-identical output."""
    h = hashlib.sha256()
    for rec in records[:pass_len]:
        h.update(f"{rec.key} {rec.code} {rec.digest}\n".encode())
    return h.hexdigest()


def _failures(records: list[Record]) -> list[dict]:
    out: dict[str, dict] = {}
    for rec in records:
        if not rec.ok:
            entry = out.setdefault(rec.key, {"job": rec.key, "exit_code": rec.code, "count": 0,
                                             "message": rec.message, "check_errors": rec.check_errors[:5]})
            entry["count"] += 1
    return list(out.values())


def check_schema(result: dict, trace: int) -> list[str]:
    """Differences between a result line and the metric list in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    errs = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1 and isinstance(result.get("failed"), int)):
        errs.append("attempted / failed are not whole numbers with attempted >= 1")
    got = result.get("metrics", {})
    if set(got) != set(want):
        errs.append(f"metrics missing {sorted(set(want) - set(got))}, unexpected {sorted(set(got) - set(want))}")
    for name, entry in got.items():
        if name in want and (entry.get("unit") != want[name] or not isinstance(entry.get("value"), (int, float))):
            errs.append(f"{name}: {entry}")
    return errs


def run_workload(args) -> int:
    import layers
    import workloads

    name, seed = args.workload, args.seed
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}")
    workdir = os.path.join(WORK_DIR, f"{name}-seed{seed}")
    seconds = 0.0 if args.quick else args.seconds
    probes = 0 if args.quick or args.trace else SETUP_PROBES
    setup_samples = [probe_setup(name, seed) for _ in range(probes // 2)]
    start = time.perf_counter()
    cli, jobs, warm = prepare(name, seed, workdir, args.quick)
    in_process_setup = time.perf_counter() - start
    result = {"workload": name, "unit_of_work": workloads.WORKLOADS[name][2], "client": "closed loop, 1 client",
              "seconds": seconds, "pass_jobs": len(jobs), "trace": args.trace,
              "meta": metadata(seed), "in_process_setup_s": in_process_setup, "setup_probe_s": setup_samples}
    if args.trace:
        records, values, absent, traced, probe = traced_run(cli, name, jobs, seconds, stem,
                                                            workloads.build_probe(name, workdir))
        units = {n: u for n, u, _, _ in layers.PER_LAYER}
        result.update(per_layer=values, absent=absent, spans_file=stem + "-spans.csv.gz")
        pass_records = traced
    else:
        records = timed_loop(cli, name, jobs, seconds, max_jobs=QUICK_JOBS if args.quick else None)
        setup_samples += [probe_setup(name, seed) for _ in range(probes - probes // 2)]
        values = end_to_end(records, setup_samples or [in_process_setup])
        units = dict(END_TO_END)
        ok_walls = [r.wall for r in records if r.ok]
        result.update(end_to_end=values, failed_ratio=sum(not r.ok for r in records) / len(records),
                      successful_jobs=len(ok_walls), samples_beyond_p90=sum(w > values["job_p90_s"] for w in ok_walls))
        pass_records = records
        probe = run_probe(cli, name, workloads.build_probe(name, workdir))
    check_errors = [(r.key, e) for r in warm + records + probe for e in r.check_errors]
    attempted, failed = len(records), sum(not r.ok for r in records)
    result.update(
        defect_probe={"attempted": len(probe), "failed": sum(not r.ok for r in probe),
                      "failing_jobs": _failures(probe), "documents": {r.key: r.digest for r in probe}},
        attempted=attempted, failed=failed, correct=not check_errors, check_errors=check_errors[:50],
        failing_jobs=_failures(records),
        documents_digest=_documents_digest(pass_records, len(jobs)),
        documents_complete=len(pass_records) >= len(jobs),
        documents={r.key: r.digest for r in pass_records[:len(jobs)]},
        jobs=[[r.key, r.code, round(r.wall, 6)] for r in records],
        inputs={os.path.join(workdir, f): _sha256_file(os.path.join(workdir, f)) for f in sorted(os.listdir(workdir))},
    )
    with open(stem + f"-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)

    print(f"workload {name}  seed {seed}  {result['client']}  work unit: {result['unit_of_work']}")
    print(f"  attempted {attempted}  failed {failed}  correct {result['correct']}  documents {result['documents_digest'][:16]}")
    for entry in result["failing_jobs"]:
        print(f"  failing: {entry['job']} x{entry['count']} exit {entry['exit_code']}: {entry['message'][:100]}")
    dp = result["defect_probe"]
    print(f"  defect probe (not timed): attempted {dp['attempted']}  failed {dp['failed']}")
    for entry in dp["failing_jobs"]:
        print(f"    failing: {entry['job']} exit {entry['exit_code']}: {entry['message'][:100]}")
    for key, err in check_errors[:10]:
        print(f"  check failed: {key}: {err}")
    if not args.trace:
        print(f"  failed_ratio {result['failed_ratio']:.4f}  successful jobs {result['successful_jobs']}"
              f"  beyond p90 {result['samples_beyond_p90']}")
    for metric, value in values.items():
        print(f"  {metric:42s} {value:14.6g} {units[metric]}")
    for metric, why in (result.get("absent") or {}).items():
        print(f"  absent: {metric}: {why}")
    line = {"correct": result["correct"], "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()}}
    if args.quick:
        errs = check_schema(line, args.trace)
        for err in errs:
            print(f"schema: {err}", file=sys.stderr)
        if errs:
            return 1
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (so peak RSS is per workload), then one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return done.returncode or 1
        results[name] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"\n{'metric':42s}" + "".join(f"{n:>18s}" for n in WORKLOAD_NAMES) + "  unit")
    for metric in names:
        cells = "".join(f"{results[n]['metrics'][metric]['value']:18.6g}" for n in WORKLOAD_NAMES)
        print(f"{metric:42s}{cells}  {results[WORKLOAD_NAMES[0]]['metrics'][metric]['unit']}")
    if not args.trace:
        cells = "".join(f"{r['failed'] / r['attempted']:18.6g}" for r in results.values())
        print(f"{'failed_ratio':42s}{cells}  1")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="a few jobs, no timing claims; checks the result schema")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "privamp", "cli.py")):
        print(f"error: {SRC}/privamp not found; run the benchmark inside a privamp checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    if args.probe:
        prepare(args.workload, args.seed, os.path.join(WORK_DIR, f"probe-{args.workload}-{os.getppid()}"), False,
                check=False)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
