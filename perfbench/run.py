"""Closed-loop benchmark of hwtaylor: one process, one request at a time.

    python3 perfbench/run.py --workload series-fp --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds raw wall-clock figures, which are not metrics.  See
README.md for the workloads, the drift normalisation and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import R0, time_reference
from tracing import LAYERS, Tracer
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

MIN_REQUESTS = 100  # at least ten samples beyond p90
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

PER_LAYER_COUNTS = (
    "multiindex.calls", "multiindex.built", "rings.calls", "rings.mul_calls",
    "hurwitz.calls", "hurwitz.series_built", "diffpoly.calls", "taylor.calls",
    "checks.instances", "cli.calls",
)
# Self times of layers that every workload enters; the others read exactly
# 0 on some workload and are printed on the raw line only.
PER_LAYER_TIMES = ("multiindex", "rings", "hurwitz")


def load_library():
    """Import hwtaylor from this checkout's ``src``, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hwtaylor
        import hwtaylor.cli  # noqa: F401  (the requests call into it)
    except ImportError as exc:
        raise SystemExit(f"error: cannot import hwtaylor from {src}: {exc}")
    if src.resolve() not in Path(hwtaylor.__file__).resolve().parents:
        raise SystemExit(f"error: hwtaylor was imported from {hwtaylor.__file__}, not {src}")
    return hwtaylor


def attempt(request):
    try:
        return request()
    except Exception as exc:  # the benchmark counts it as a failed operation
        return exc


class Outcomes:
    """Outputs of one run: the first round's, failures and mismatches."""

    def __init__(self, workload, first: list):
        self.workload = workload
        self.first = first
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, index: int, out) -> None:
        """Count one output and compare it with the first round's."""
        self.attempted += 1
        if isinstance(out, Exception):
            self.failed += 1
            self.errors.append(f"request {index}: {out!r}")
            return
        summary = self.workload.summarise(out)
        if self.workload.failed(summary):
            self.failed += 1
        if index < len(self.first) and summary != self.first[index]:
            self.errors.append(f"request {index}: output differs from the first round")


def first_round(workload, requests) -> Outcomes:
    """Untimed round: fills lazy caches and gives the outputs to check."""
    outcomes = Outcomes(workload, [])
    for i, request in enumerate(requests):
        gc.collect()
        out = attempt(request)
        outcomes.record(i, out)
        outcomes.first.append(None if isinstance(out, Exception) else workload.summarise(out))
    return outcomes


def timed_rounds(requests, outcomes: Outcomes, seconds: float):
    """Whole rounds until ``seconds`` have passed and MIN_REQUESTS are done."""
    t_req: list[float] = []
    t_ref: list[float] = []
    start = time.perf_counter()
    while True:
        for i, request in enumerate(requests):
            gc.collect()  # each request pays for its own garbage, not its predecessors'
            t0 = time.perf_counter()
            out = attempt(request)
            t1 = time.perf_counter()
            t_ref.append(time_reference(t1 - t0))
            t_req.append(t1 - t0)
            outcomes.record(i, out)
        if time.perf_counter() - start >= seconds and len(t_req) >= MIN_REQUESTS:
            return t_req, t_ref


def traced_rounds(hw, requests, outcomes: Outcomes, seconds: float, tracer: Tracer):
    """Whole rounds under the tracer; the caches are already warm, so every
    round does the same work and the per-request counts repeat exactly."""
    t_req: list[float] = []
    t_ref: list[float] = []
    self_ns: list[dict] = []
    tracer.install(hw)
    try:
        start = time.perf_counter()
        while True:
            for i, request in enumerate(requests):
                gc.collect()
                before = tracer.begin(len(t_req))
                t0 = time.perf_counter()
                out = attempt(request)
                t1 = time.perf_counter()
                self_ns.append(tracer.end(before))
                t_ref.append(time_reference(t1 - t0))
                t_req.append(t1 - t0)
                outcomes.record(i, out)
            if time.perf_counter() - start >= seconds:
                return t_req, t_ref, self_ns
    finally:
        tracer.uninstall()


def setup_probe(args) -> int:
    """Child process: time import plus lazy set-up up to the end of the first request."""
    workload = WORKLOADS[args.workload](args.seed, OUT)
    first_item = workload.items[:1]
    start = time.perf_counter()
    hw = load_library()
    (request,) = workload.build(hw, first_item)
    out = attempt(request)
    elapsed = time.perf_counter() - start
    ref = time_reference(elapsed)
    ok = not isinstance(out, Exception) and not workload.failed(workload.summarise(out))
    print(json.dumps({"setup_raw_s": elapsed, "ref_s": ref, "ok": ok}))
    return 0


def measure_setup(args) -> tuple[list[float], list[float]]:
    raw, ref = [], []
    command = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"error: set-up probe failed: {done.stderr.strip()[-500:]}")
        probe = json.loads(lines[-1])
        if not probe["ok"]:
            raise SystemExit("error: the set-up probe's first request failed")
        raw.append(probe["setup_raw_s"])
        ref.append(probe["ref_s"])
    return raw, ref


def normalised(t_req: list[float], t_ref: list[float]) -> list[float]:
    return [t * R0 / ref for t, ref in zip(t_req, t_ref)]


def end_to_end(args, requests, outcomes: Outcomes) -> tuple[dict, dict]:
    t_req, t_ref = timed_rounds(requests, outcomes, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_raw, setup_ref = measure_setup(args)
    norm = normalised(t_req, t_ref)
    setup = normalised(setup_raw, setup_ref)
    # A request's latency is the median of its times over the rounds, and the
    # percentiles are taken over the round's requests: the tail of the raw
    # samples is made of bursts of contention, not of slow requests.
    latency = [statistics.median(norm[i:: len(requests)]) for i in range(len(requests))]
    p90 = statistics.quantiles(latency, n=10, method="inclusive")[8]
    metrics = {
        "throughput": (len(norm) / sum(norm), "1/s"),
        "latency_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = {
        "requests": len(t_req),
        "rounds": len(t_req) // len(requests),
        "samples_beyond_p90": sum(t > p90 for t in norm),
        "raw_throughput": len(t_req) / sum(t_req),
        "raw_latency_p50_ms": statistics.median(t_req) * 1e3,
        "raw_latency_p90_ms": statistics.quantiles(t_req, n=10)[8] * 1e3,
        "raw_setup_s": statistics.median(setup_raw),
        "reference_median_ms": statistics.median(t_ref) * 1e3,
        "R0_ms": R0 * 1e3,
        "request_s": t_req,
        "reference_s": t_ref,
        "setup_raw_s": setup_raw,
        "setup_reference_s": setup_ref,
    }
    return metrics, raw


def per_layer(args, hw, requests, outcomes: Outcomes) -> tuple[dict, dict]:
    tracer = Tracer()
    t_req, t_ref, self_ns = traced_rounds(hw, requests, outcomes, args.seconds, tracer)
    n = len(t_req)
    scale = [R0 / tr / 1e6 for tr in t_ref]  # ns -> normalised ms
    self_ms = {
        layer: sum(s[layer] * k for s, k in zip(self_ns, scale)) / n for layer in LAYERS
    }
    metrics = {name: (tracer.counts[name] / n, "count") for name in PER_LAYER_COUNTS}
    for layer in PER_LAYER_TIMES:
        metrics[f"{layer}.self_ms"] = (self_ms[layer], "ms")
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write_spans(spans)
    raw = {
        "requests": n,
        "self_ms": self_ms,
        "traced_request_mean_ms": sum(normalised(t_req, t_ref)) / n * 1e3,
        "raw_traced_request_mean_ms": sum(t_req) / n * 1e3,
        "reference_median_ms": statistics.median(t_ref) * 1e3,
        "R0_ms": R0 * 1e3,
        "spans_file": str(spans.relative_to(ROOT)),
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped_spans,
        "no_wait_time": "one thread and no I/O inside a request, so no layer waits",
    }
    return metrics, raw


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    hw = load_library()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    requests = workload.build(hw, workload.items)
    outcomes = first_round(workload, requests)
    if args.trace:
        metrics, raw = per_layer(args, hw, requests, outcomes)
    else:
        metrics, raw = end_to_end(args, requests, outcomes)
    outcomes.errors += workload.check(outcomes.first, hw)
    for error in outcomes.errors[:20]:
        print(f"check: {error}", file=sys.stderr)
    result = {
        "correct": not outcomes.errors,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "raw": raw}, indent=1) + "\n", encoding="utf-8"
    )
    print("raw " + json.dumps({k: v for k, v in raw.items() if not isinstance(v, list)}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
