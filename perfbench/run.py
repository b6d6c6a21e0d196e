"""tropica benchmark: seeded workloads, checked answers, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cells --seed 0 --seconds 20 --trace 0

One process, one thread, a closed loop with one client: each query starts
after the previous one returns.  With --trace 0 the run prints the
end-to-end metrics; with --trace 1 it runs a fixed number of rounds once
untraced and once traced and prints the per-layer metrics.  The last line
of stdout is the JSON result; earlier lines are a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter_ns

from speed import Speed
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
MIN_SAMPLES = 100
# rounds of the traced run, a few seconds of work at the seed commit and
# whole cycles of the inputs taken in turn
TRACE_ROUNDS = {"cells": 5, "membership": 140, "falsify": 100, "cli-mix": 12}


def load_api():
    """Import tropica afresh and collect what the workloads call."""
    for name in [m for m in sys.modules if m == "tropica" or m.startswith("tropica.")]:
        del sys.modules[name]
    mod = {n: importlib.import_module(f"tropica.{n}") for n in ("cli", "krull", "primes", "varieties")}
    if not Path(mod["cli"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"tropica was imported from {mod['cli'].__file__}, not from {SRC}")
    return types.SimpleNamespace(
        Polynomial=importlib.import_module("tropica.polynomials").Polynomial,
        hypersurface=mod["varieties"].hypersurface,
        prevariety=mod["varieties"].prevariety,
        vanishes_on_complex=mod["varieties"].vanishes_on_complex,
        complex_to_json=mod["varieties"].complex_to_json,
        coordinate_dimension=mod["krull"].coordinate_dimension,
        contains_bends=mod["krull"].contains_bends,
        check_admissible=mod["primes"].check_admissible,
        AdmissibilityError=mod["primes"].AdmissibilityError,
        bend_ideal_member=mod["primes"].bend_ideal_member,
        pair_in_prime=mod["primes"].pair_in_prime,
        leading_class=mod["primes"].leading_class,
        compare_terms=mod["primes"].compare_terms,
        cli_main=mod["cli"].main,
    )


def round_rng(workload: str, seed: int, index) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def timed(query, tracer=None, qid=0):
    """(outcome, nanoseconds); outcome is ("ok", value) or ("raise", exception)."""
    start = perf_counter_ns()
    try:
        if tracer is None:
            out = ("ok", query.call())
        else:
            out = ("ok", tracer.run_query(qid, query.kind, query.call))
    except Exception as exc:  # a wrong answer to report, not a benchmark failure
        out = ("raise", exc)
    return out, perf_counter_ns() - start


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Checker:
    """Invariant checks on every answer, and the reference on the default seed."""

    def __init__(self, workload: str, seed: int):
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        self.fixed = ref.get("fixed", {})
        self.rounds = ref.get("rounds", {}).get(workload, []) if seed == DEFAULT_SEED else []
        self.attempted = self.failed = 0
        self.mismatches: list[str] = []

    def round(self, index, queries, outcomes) -> list[str]:
        """Check one round; returns the canonical outputs."""
        canon, bad = [], 0
        for query, out in zip(queries, outcomes):
            text, ok = query.check(out)
            if query.fixed is not None and query.fixed in self.fixed:
                ok = ok and digest(text) == self.fixed[query.fixed]
            canon.append(text)
            if not ok:
                bad += 1
                self.mismatches.append(f"round {index}: {query.kind}: {text[:200]}")
        if 0 <= index < len(self.rounds) and digest("\x1e".join(canon)) != self.rounds[index]:
            # the reference fixes the round as a whole, so every query in it is suspect
            bad = len(queries)
            self.mismatches.append(f"round {index}: output differs from the reference")
        self.attempted += len(queries)
        self.failed += bad
        return canon


def setup(wl, seed: int, checker: Checker):
    """Import, build inputs and prebuilt complexes, run a warm-up round.

    Returns the api, the prebuilt context and the set-up time in reference
    nanoseconds.  The warm-up inputs are the same for every seed, so that
    set-up time varies with the seed only through the prebuilt inputs.
    Checking the warm-up answers is not part of set-up.
    """
    speed = Speed()

    def stage(fn):
        speed.tick()
        start = perf_counter_ns()
        value = fn()
        speed.record(perf_counter_ns() - start)
        return value

    api = stage(load_api)
    ctx = stage(lambda: wl.setup(api, round_rng(wl.name, seed, "setup")))
    queries = stage(lambda: wl.make_round(api, ctx, round_rng(wl.name, "any", "warm"), -1))
    outcomes = [stage(lambda: timed(q)[0]) for q in queries]
    checker.round(-1, queries, outcomes)
    return api, ctx, sum(speed.scaled())


def measure(wl, api, ctx, seed: int, seconds: float, checker: Checker) -> Speed:
    """Whole rounds until `seconds` have passed and MIN_SAMPLES queries ran.

    Returns the recorded query times, to be scaled to reference nanoseconds.
    """
    speed = Speed()
    start = perf_counter_ns()
    index = 0
    while perf_counter_ns() - start < seconds * 1e9 or len(speed.samples) < MIN_SAMPLES:
        queries = wl.make_round(api, ctx, round_rng(wl.name, seed, index), index)
        outcomes = []
        for q in queries:
            speed.tick()
            out, ns = timed(q)
            outcomes.append(out)
            speed.record(ns)
        checker.round(index, queries, outcomes)
        index += 1
    return speed


def traced(wl, api, ctx, seed: int, rounds: int, checker: Checker, spans_path=None):
    """Each round untraced, then again traced; returns the per-layer metrics."""
    tracer = Tracer()
    speed = Speed()
    traced_flags = []
    qid = 0
    for index in range(rounds):
        for on in (False, True):
            queries = wl.make_round(api, ctx, round_rng(wl.name, seed, index), index)
            outcomes = []
            if on:
                tracer.install(api)
            try:
                for q in queries:
                    speed.tick()
                    out, ns = timed(q, tracer if on else None, qid)
                    outcomes.append(out)
                    speed.record(ns)
                    traced_flags.append(on)
                    qid += on
            finally:
                tracer.uninstall()
            checker.round(index, queries, outcomes)
    total = {False: 0.0, True: 0.0}
    for on, ns in zip(traced_flags, speed.scaled()):
        total[on] += ns
    metrics = tracer.layer_metrics()
    metrics["trace_overhead"] = (total[True] / total[False], "ratio")
    if spans_path is not None:
        tracer.write(spans_path)
    return metrics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the CLI lets TROPICA_SEED override --seed; the inputs must come from ours
    os.environ.pop("TROPICA_SEED", None)
    if not (SRC / "tropica" / "__init__.py").is_file():
        print(f"error: no tropica sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    checker = Checker(wl.name, args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        api, ctx, ns = setup(wl, args.seed, checker)
        setups.append(ns / 1e9)

    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{wl.name}-{args.seed}.csv"
        values = traced(wl, api, ctx, args.seed, TRACE_ROUNDS[wl.name], checker, spans)
        print(f"{wl.name}: traced {TRACE_ROUNDS[wl.name]} rounds, spans in {spans}")
    else:
        speed = measure(wl, api, ctx, args.seed, args.seconds, checker)
        # before the summary lists below add the benchmark's own memory
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lat = speed.scaled()
        ms = [ns / 1e6 for ns in lat]
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(lat) / (sum(lat) / 1e9), "1/s"),
            "latency_p50_ms": (statistics.median(ms), "ms"),
            "latency_p90_ms": (percentile(ms, 0.9), "ms"),
            "ok_frac": (1 - checker.failed / checker.attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"{wl.name}: {len(lat)} timed queries (latency samples), seed {args.seed}")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for line in checker.mismatches[:20]:
        print("  FAILED " + line)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
