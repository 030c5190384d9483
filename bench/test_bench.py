"""The benchmark's own tests: quick-mode runs that check the result schema only.

No timing is asserted. Quick mode runs the first few jobs of a pass, checks
their documents, and compares the result line with BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exponent-sweep", "hash-scan", "smooth-iid")


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_result_matches_benchmark_json(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"], done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run(str(tmp_path), "--workload", "hash-scan", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_tracer_survives_a_changed_program(monkeypatch):
    """A missing class is skipped, an inherited method is wrapped and restored, an unreadable note is None."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(HERE)
    from privamp import cli, measures  # noqa: F401  importing cli loads every layer before the patches
    import tracer

    class Base:
        def log2_q(self, alpha):
            return alpha

    class Child(Base):
        pass

    name = "measures.RenyiDivergenceCurve.log2_q"
    monkeypatch.setattr(measures, "RenyiDivergenceCurve", Child)
    monkeypatch.delattr(measures, "ConditionalRenyiCurve")
    monkeypatch.setitem(tracer.NOTES, name, lambda args, kwargs, result: result.no_such_attribute)
    t = tracer.Tracer()
    t.install()
    try:
        assert Child().log2_q(3.0) == 3.0
    finally:
        t.uninstall()
    assert "log2_q" not in vars(Child)
    assert {"measures.ConditionalRenyiCurve.__init__", "measures.ConditionalRenyiCurve.log2_q"} <= t.missing
    assert [(sp.error, sp.note) for sp in t.spans if sp.name == name] == [(None, None)]
