"""The traced run: counts repeat exactly, and the tracer leaves no trace."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hwtaylor
import hwtaylor.cli  # noqa: F401
from hwtaylor import checks, cli, hurwitz, multiindex, rings, taylor
from tracing import Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
RUN = BENCH / "run.py"


def traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_two_traced_runs_give_identical_counts(workload):
    first, second = traced_run(workload, 3), traced_run(workload, 3)
    assert first["correct"] and second["correct"]
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    again = {k: v["value"] for k, v in second["metrics"].items() if v["unit"] == "count"}
    assert counts == again
    assert counts["multiindex.calls"] > 0 and counts["rings.calls"] > 0
    times = [v["value"] for v in first["metrics"].values() if v["unit"] == "ms"]
    assert times and all(t > 0 for t in times)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_warm_round_counts_the_same(workload, tmp_path):
    # Traced runs repeat whole rounds for as long as the run lasts; this is
    # what makes their per-request counts independent of the run length.
    bench = WORKLOADS[workload](5, tmp_path)
    requests = bench.build(hwtaylor, bench.items[:4])
    for request in requests:
        request()
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(hwtaylor)
        try:
            for request in requests:
                request()
        finally:
            tracer.uninstall()
        counts.append(tracer.counts)
    assert counts[0] == counts[1] and counts[0]["multiindex.calls"] > 0


def test_uninstall_restores_every_wrapped_name():
    watched = [
        (multiindex.MultiIndex, "__sub__"), (multiindex.MultiIndex, "__post_init__"),
        (hurwitz, "iter_dominated"), (taylor, "derivative_table"),
        (rings.PrimeField, "mul"), (rings.Ring, "pow"), (hurwitz.HurwitzRing, "mul"),
        (cli, "main"), (cli, "_CONSTRUCTORS"), (checks, "_CHECKS"), (checks, "_CONSTRUCTORS"),
    ]
    before = [vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
              for owner, name in watched]
    tracer = Tracer()
    tracer.install(hwtaylor)
    try:
        H = hwtaylor.HurwitzRing(hwtaylor.PrimeField(5), 2, 3)
        H.mul(H.one(), H.one())
        assert tracer.counts["hurwitz.calls"] > 0 and tracer.counts["rings.mul_calls"] > 0
    finally:
        tracer.uninstall()
    after = [vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
             for owner, name in watched]
    assert all(a is b for a, b in zip(before, after))


def test_a_checkout_without_the_library_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "series-fp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
