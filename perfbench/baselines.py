"""Raw reference figures for single operations, next to their normalised times.

    python3 perfbench/baselines.py

Times the operations of the "Baselines to beat" table in ROADMAP.md one at a
time in this process, with the drift reference loop timed after each call.
Prints one JSON line per operation: the best and median wall time, and the
median normalised as ``t * R0 / t_reference``.  These are reference figures
for the README, not benchmark metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import random
import statistics
import time
from fractions import Fraction

from reference import R0, time_reference
from run import load_library


def series(H, rng, sample):
    return H.from_table({alpha: sample(rng) for alpha in H.indices})


def cases(hw):
    rng = random.Random(0)
    Q, F5 = hw.QQ, hw.PrimeField(5)

    def rational(r):
        return Fraction(r.randint(-4, 4), r.randint(1, 3))

    def unit_rational(r):
        return Fraction(r.choice([-4, -3, -2, -1, 1, 2, 3, 4]), r.randint(1, 3))

    HQ = hw.HurwitzRing(Q, 3, 8)
    HF = hw.HurwitzRing(F5, 3, 8)
    P = hw.PolynomialRing(Q, ["u", "v"])
    HP = hw.HurwitzRing(P, 2, 8)
    aq, bq = series(HQ, rng, rational), series(HQ, rng, rational)
    aq_unit = HQ.add(aq, HQ.embed(unit_rational(rng) - aq.constant_term()))
    af, bf = series(HF, rng, lambda r: r.randrange(5)), series(HF, rng, lambda r: r.randrange(5))
    ap, bp = series(HP, rng, P.sample), series(HP, rng, P.sample)

    K = hw.differential_polynomial_carrier(Q, ["u", "v"], [["1", "0"], ["0", "v"]])
    element = P.sample(rng)
    spec = hw.MorphismSpec(
        source=hw.constant_structure(K.ring, 2), coefficients=K, phi=lambda a: a,
        trunc=6, samples=(K.ring.one(), element),
    )

    def command(*argv):
        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = hw.cli.main(list(argv))
            assert rc == 0, err.getvalue()
        return call

    return [
        ("H.mul Q width 3 trunc 8", lambda: HQ.mul(aq, bq), 5),
        ("H.mul F_5 width 3 trunc 8", lambda: HF.mul(af, bf), 5),
        ("H.mul Q[u,v] width 2 trunc 8", lambda: HP.mul(ap, bp), 5),
        ("H.invert Q width 3 trunc 8", lambda: HQ.invert(aq_unit), 5),
        ("twisted_hurwitz Q[u,v] width 2 trunc 6", lambda: hw.twisted_hurwitz(spec, element), 5),
        ("hwtaylor check --instances 20", command("check", "--instances", "20"), 3),
        ("hwtaylor selftest", command("selftest"), 5),
    ]


def main() -> None:
    hw = load_library()
    print(json.dumps({"python": platform.python_version(), "date": time.strftime("%Y-%m-%d")}))
    for name, call, repeats in cases(hw):
        call()  # warm the lazy caches, as the benchmark's first round does
        raw, norm = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            call()
            elapsed = time.perf_counter() - start
            raw.append(elapsed)
            norm.append(elapsed * R0 / time_reference())
        print(json.dumps({
            "operation": name,
            "best_ms": min(raw) * 1e3,
            "median_ms": statistics.median(raw) * 1e3,
            "normalised_median_ms": statistics.median(norm) * 1e3,
        }))


if __name__ == "__main__":
    main()
