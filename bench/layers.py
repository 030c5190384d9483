"""Per-layer metrics of the traced run, derived from its spans.

The traced run measures exactly one pass of the workload, so every count
below (calls, ratios of counts, maxima) repeats exactly at a fixed seed.
Times are per job (the pass's job count) unless the name says per call
(`_ms`, `_us`). The error counts are taken from the workload's defect probe,
traced on its own. A layer that a workload never enters, or an entry point
privamp no longer has, reports 0; `absent` names those metrics and says why.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import LAYERS, nearest_ancestor, self_times
from workloads import MEASURES as HASH_MEASURES

EXPONENTS = ("exponents.pa_upper_exponent", "exponents.pa_lower_exponent", "exponents.renyi_security_exponent")
CERTIFICATES = ("smoothing.iid_smoothing_certificate", "smoothing.smoothing_certificate")
SAMPLERS = tuple(f"hashing.{c}.sample_table" for c in ("AllFunctionsFamily", "AffinePrimeFamily", "PermutationProductFamily"))

# (name, unit, better, the span names whose absence makes the metric absent)
PER_LAYER = [
    ("operators.eig.calls", "count", "lower", ("operators.eig",)),
    ("operators.eig_s", "s", "lower", ("operators.eig",)),
    ("operators.pinching_s", "s", "lower", ("operators.pinching",)),
    ("operators.distinct_eigenvalue_count_iid_s", "s", "lower", ("operators.distinct_eigenvalue_count_iid",)),
    ("operators.tensor_power_s", "s", "lower", ("operators.tensor_power",)),
    ("operators.tensor_dim_max", "count", "lower", ("operators.tensor_power",)),
    ("states.CQState.calls", "count", "lower", ("states.CQState.__init__",)),
    ("states.CQState_s", "s", "lower", ("states.CQState.__init__",)),
    ("measures.cond_log2_q.calls", "count", "lower", ("measures.ConditionalRenyiCurve.log2_q",)),
    ("measures.cond_log2_q_us", "us", "lower", ("measures.ConditionalRenyiCurve.log2_q",)),
    ("measures.pair_log2_q.calls", "count", "lower", ("measures.RenyiDivergenceCurve.log2_q",)),
    ("measures.pair_log2_q_us", "us", "lower", ("measures.RenyiDivergenceCurve.log2_q",)),
    ("measures.curve_init.calls", "count", "lower",
     ("measures.ConditionalRenyiCurve.__init__", "measures.RenyiDivergenceCurve.__init__")),
    ("measures.curve_init_s", "s", "lower",
     ("measures.ConditionalRenyiCurve.__init__", "measures.RenyiDivergenceCurve.__init__")),
    ("exponents.pa_upper_exponent_ms", "ms", "lower", ("exponents.pa_upper_exponent",)),
    ("exponents.pa_lower_exponent_ms", "ms", "lower", ("exponents.pa_lower_exponent",)),
    ("exponents.renyi_security_exponent_ms", "ms", "lower", ("exponents.renyi_security_exponent",)),
    ("exponents.log2_q_per_exponent", "count", "lower", EXPONENTS),
    ("exponents.critical_rate.calls", "count", "lower", ("exponents.critical_rate",)),
    ("exponents.s_cap_errors", "count", "lower", ("exponents.pa_upper_exponent",)),
    ("smoothing.bracket_errors", "count", "lower", ("smoothing.iid_smoothing_certificate",)),
    ("smoothing.iid_cert_ms", "ms", "lower", ("smoothing.iid_smoothing_certificate",)),
    ("smoothing.log2_q_per_cert", "count", "lower", CERTIFICATES),
    ("smoothing.iid_spectrum_s", "s", "lower", ("smoothing.iid_spectrum",)),
    ("smoothing.spectrum_atoms_max", "count", "lower", ("smoothing.iid_spectrum",)),
    ("smoothing.converse_bound_s", "s", "lower", ("smoothing.converse_bound",)),
    ("smoothing.smoothing_certificate_ms", "ms", "lower", ("smoothing.smoothing_certificate",)),
    ("smoothing.pinched_smoothing_witness_s", "s", "lower", ("smoothing.pinched_smoothing_witness",)),
    ("hashing.tables_evaluated", "count", "lower", ("hashing._batch_values",)),
    ("hashing.tables_covered", "count", "higher", ("hashing._batch_values",)),
    ("hashing.useful_ratio", "1", "higher", ("hashing.min_insecurity_exhaustive",)),
    *[(f"hashing.us_per_table.{m}", "us", "lower", ("hashing._batch_values",)) for m in HASH_MEASURES],
    ("hashing.sample_table.calls", "count", "lower", SAMPLERS),
    ("hashing.sample_share", "1", "lower", SAMPLERS),
    ("hashing.threads2_speedup", "1", "higher", ("hashing._batch_values",)),
    ("cli.load_state_file_s", "s", "lower", ("cli.load_state_file",)),
    *[(f"{layer}.self_s", "s", "lower", ()) for layer in LAYERS],
    ("trace.job_p50_s_untraced", "s", "lower", ()),
    ("trace.job_p50_s_traced", "s", "lower", ()),
    ("trace.overhead_ratio", "1", "lower", ()),
    ("trace.spans_per_job", "count", "lower", ()),
]
# metrics read from span notes, and the span that carries the note
NOTED = {
    "operators.tensor_dim_max": "operators.tensor_power",
    "smoothing.spectrum_atoms_max": "smoothing.iid_spectrum",
    "hashing.tables_evaluated": "hashing._batch_values",
    "hashing.useful_ratio": "hashing._batch_values",
    **{f"hashing.us_per_table.{m}": "hashing._batch_values" for m in HASH_MEASURES},
}


def _median_by_index(records) -> dict[int, float]:
    walls = defaultdict(list)
    for rec in records:
        if rec.ok:
            walls[rec.index].append(rec.wall)
    return {i: statistics.median(w) for i, w in walls.items()}


def layer_metrics(spans, traced, untraced, pool, probe_spans, missing) -> tuple[dict[str, float], dict[str, str]]:
    """(metric -> value, absent metric -> why) for one traced pass.

    `traced` and `untraced` are job records (index into `pool`, wall, ok)
    from one process; the first len(traced) untraced records are the
    untraced twins of the traced ones, in the same order. `probe_spans` come
    from the traced defect probe; `missing` names the entry points the
    tracer did not find in privamp.
    """
    n = len(traced)
    by_name = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)
    by_id = {sp.sid: sp for sp in spans}

    def calls(*names):
        return sum(len(by_name[x]) for x in names)

    def total(*names):
        return sum(sp.end - sp.start for x in names for sp in by_name[x])

    def per_call(name, scale):
        return total(name) / calls(name) * scale if calls(name) else 0.0

    def per_parent(child, parents):
        inside = sum(nearest_ancestor(by_id, sp, parents) is not None for sp in by_name[child])
        return inside / calls(*parents) if calls(*parents) else 0.0

    def probe_errors(name, text):
        return sum(text in (sp.error or "") for sp in probe_spans if sp.name == name)

    def in_jobs(name, kinds):
        return [sp for sp in by_name[name] if pool[sp.job].kind in kinds]

    batches = [sp for sp in by_name["hashing._batch_values"] if sp.note]
    searched = [sp for sp in batches if pool[sp.job].kind.startswith("search")]
    useful = sum(pool[rec.index].ref["useful"] for rec in traced if pool[rec.index].kind.startswith("search"))
    sampled = sum(sp.end - sp.start for x in SAMPLERS for sp in in_jobs(x, ("monte_carlo-t1",)))
    sampled_in = sum(sp.end - sp.start for sp in in_jobs("hashing.family_expectation", ("monte_carlo-t1",)))

    def per_table(measure):
        mine = [sp for sp in batches if sp.note[0] == measure]
        rows = sum(sp.note[1] for sp in mine)
        return sum(sp.end - sp.start for sp in mine) / rows * 1e6 if rows else 0.0

    untraced_p50 = _median_by_index(untraced)
    speedups = [untraced_p50[job.same_as] / untraced_p50[i] for i, job in enumerate(pool)
                if job.same_as in untraced_p50 and i in untraced_p50]
    twins = [(u.wall, t.wall) for u, t in zip(untraced, traced) if u.ok and t.ok]
    p50_untraced = statistics.median(u for u, _ in twins) if twins else 0.0
    p50_traced = statistics.median(t for _, t in twins) if twins else 0.0

    selfs = self_times(spans)
    layer_self = defaultdict(float)
    for sp in spans:
        layer_self[sp.layer] += selfs[sp.sid]

    values = {
        "operators.eig.calls": calls("operators.eig") / n,
        "operators.eig_s": total("operators.eig") / n,
        "operators.pinching_s": total("operators.pinching") / n,
        "operators.distinct_eigenvalue_count_iid_s": total("operators.distinct_eigenvalue_count_iid") / n,
        "operators.tensor_power_s": total("operators.tensor_power") / n,
        "operators.tensor_dim_max": max((sp.note for sp in by_name["operators.tensor_power"] if sp.note), default=0),
        "states.CQState.calls": calls("states.CQState.__init__") / n,
        "states.CQState_s": total("states.CQState.__init__") / n,
        "measures.cond_log2_q.calls": calls("measures.ConditionalRenyiCurve.log2_q") / n,
        "measures.cond_log2_q_us": per_call("measures.ConditionalRenyiCurve.log2_q", 1e6),
        "measures.pair_log2_q.calls": calls("measures.RenyiDivergenceCurve.log2_q") / n,
        "measures.pair_log2_q_us": per_call("measures.RenyiDivergenceCurve.log2_q", 1e6),
        "measures.curve_init.calls": calls("measures.ConditionalRenyiCurve.__init__", "measures.RenyiDivergenceCurve.__init__") / n,
        "measures.curve_init_s": total("measures.ConditionalRenyiCurve.__init__", "measures.RenyiDivergenceCurve.__init__") / n,
        "exponents.pa_upper_exponent_ms": per_call("exponents.pa_upper_exponent", 1e3),
        "exponents.pa_lower_exponent_ms": per_call("exponents.pa_lower_exponent", 1e3),
        "exponents.renyi_security_exponent_ms": per_call("exponents.renyi_security_exponent", 1e3),
        "exponents.log2_q_per_exponent": per_parent("measures.ConditionalRenyiCurve.log2_q", EXPONENTS),
        "exponents.critical_rate.calls": calls("exponents.critical_rate") / n,
        "exponents.s_cap_errors": probe_errors("exponents.pa_upper_exponent", "s cap"),
        "smoothing.bracket_errors": probe_errors("smoothing.iid_smoothing_certificate", "bracket violated"),
        "smoothing.iid_cert_ms": per_call("smoothing.iid_smoothing_certificate", 1e3),
        "smoothing.log2_q_per_cert": per_parent("measures.RenyiDivergenceCurve.log2_q", CERTIFICATES),
        "smoothing.iid_spectrum_s": total("smoothing.iid_spectrum") / n,
        "smoothing.spectrum_atoms_max": max((sp.note for sp in by_name["smoothing.iid_spectrum"] if sp.note), default=0),
        "smoothing.converse_bound_s": total("smoothing.converse_bound") / n,
        "smoothing.smoothing_certificate_ms": per_call("smoothing.smoothing_certificate", 1e3),
        "smoothing.pinched_smoothing_witness_s": total("smoothing.pinched_smoothing_witness") / n,
        "hashing.tables_evaluated": sum(sp.note[1] for sp in batches) / n,
        "hashing.tables_covered": (sum(rec.work for rec in traced if rec.ok) / n
                                   if by_name["hashing._batch_values"] else 0.0),
        "hashing.useful_ratio": useful / sum(sp.note[1] for sp in searched) if searched else 0.0,
        **{f"hashing.us_per_table.{m}": per_table(m) for m in HASH_MEASURES},
        "hashing.sample_table.calls": calls(*SAMPLERS) / n,
        "hashing.sample_share": sampled / sampled_in if sampled_in else 0.0,
        "hashing.threads2_speedup": statistics.median(speedups) if speedups else 0.0,
        "cli.load_state_file_s": total("cli.load_state_file") / n,
        **{f"{layer}.self_s": layer_self[layer] / n for layer in LAYERS},
        "trace.job_p50_s_untraced": p50_untraced,
        "trace.job_p50_s_traced": p50_traced,
        "trace.overhead_ratio": p50_traced / p50_untraced if p50_untraced else 0.0,
        "trace.spans_per_job": len(spans) / n,
    }
    absent = {}
    for name, _, _, needs in PER_LAYER:
        if set(needs) & missing:
            absent[name] = " / ".join(sorted(set(needs) & missing)) + " not found in privamp, so not traced"
        elif needs and not calls(*needs):
            absent[name] = "no " + " / ".join(needs) + " span in this workload"
        elif name in NOTED and not any(sp.note for sp in by_name[NOTED[name]]):
            absent[name] = f"the {NOTED[name]} spans carry no readable note"
    return values, absent
