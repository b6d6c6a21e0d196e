"""Paired benchmark runs of two checkouts, written to a BENCH_*.json file.

    python scripts/paired_bench.py --parent ../parent --change . \\
        --workload cli-mix:10 --workload cells:3 --first-seed 31 \\
        --seconds 20 --label cli_parser --out BENCH_cli_parser.json

For each workload and each of its seeds (``first-seed`` onwards, one per
pair), ``perfbench/run.py --trace 0`` runs once in each checkout, back to
back: the parent first on odd seeds, the change first on even ones, so
that slow drift of the machine falls on both sides.  The script prints each
side's median and quartiles and the change's win count for every
end-to-end metric of the change's ``BENCHMARK.json``, and writes them with
the raw runs.  ``--trace-seed`` adds one ``--trace 1`` run per side and
workload for the per-layer counts.  Each run's ``correct`` and ``failed``
are printed, and the script exits 1 after writing the file when any run
has ``correct: false`` or ``failed > 0``: a wrong answer's speed is no win.
Only ``perfbench/run.py`` is called.  Its ``--trace 1`` runs write
``perfbench/out/spans-<workload>-<seed>.csv`` in each checkout (a
git-ignored folder); the ``--trace 0`` runs write nothing there.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result line of one ``perfbench/run.py`` run in ``checkout``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, quartiles and wins of one metric; ties count for neither side."""
    sign = 1 if spec["better"] == "higher" else -1
    p, c = summary(parent), summary(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    losses = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    rel = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": p,
        "change": c,
        "change_wins": wins,
        "parent_wins": losses,
        "median_change_rel": rel,
        "within_bound": -sign * rel <= spec["bound"],
        "gain_rule_met": wins >= 0.9 * len(parent)
        and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"],
        "parent_runs": parent,
        "change_runs": change,
    }


def paired(args, workload: str, pairs: int, specs: list[dict]) -> dict:
    results = {side: [] for side in SIDES}
    for seed in range(args.first_seed, args.first_seed + pairs):
        order = SIDES if seed % 2 else SIDES[::-1]
        for side in order:
            results[side].append(run(getattr(args, side), workload, seed, args.seconds, 0))
        last = {side: results[side][-1] for side in SIDES}
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{side} {r['metrics']['ops_per_s']['value']:.1f} ops/s (correct {r['correct']}, failed {r['failed']})"
            for side, r in last.items()
        ), flush=True)
    metrics = {}
    for spec in specs:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in SIDES}
        metrics[name] = compare(spec, values["parent"], values["change"])
    return {
        "pairs": pairs,
        "seeds": list(range(args.first_seed, args.first_seed + pairs)),
        "correct": {side: all(r["correct"] for r in results[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in results[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in results[side]) for side in SIDES},
        "metrics": metrics,
    }


def per_layer(args, workload: str) -> dict:
    traced = {side: run(getattr(args, side), workload, args.trace_seed, args.seconds, 1) for side in SIDES}
    names = traced["change"]["metrics"]
    return {
        "correct": {side: traced[side]["correct"] for side in SIDES},
        "failed": {side: traced[side]["failed"] for side in SIDES},
        "metrics": {
            name: {side: traced[side]["metrics"][name]["value"] for side in SIDES}
            | {"unit": names[name]["unit"]}
            for name in names
        },
    }


def workload_specs(parser, items: list[str], names: list[str]) -> list[tuple[str, int]]:
    """(workload, pairs) for every NAME[:PAIRS] spec; a bad one stops before any run."""
    specs = []
    for item in items:
        workload, colon, pairs = item.partition(":")
        if workload not in names:
            parser.error(f"--workload {item!r}: not a workload of BENCHMARK.json ({', '.join(names)})")
        try:
            count = int(pairs) if colon else 10
        except ValueError:
            count = None
        if count is None or count < 2:
            parser.error(f"--workload {item!r}: the pair count must be an integer of at least 2")
        specs.append((workload, count))
    return specs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True, help="NAME or NAME:PAIRS, at least 2 pairs (default 10)")
    parser.add_argument("--first-seed", type=int, default=31)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace-seed", type=int, default=None, help="also record per-layer counts at this seed")
    parser.add_argument("--label", default="paired")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = workload_specs(parser, args.workload, [w["name"] for w in benchmark["workloads"]])
    specs = benchmark["end_to_end"]
    report = {
        "label": args.label,
        "machine": f"{platform.machine()}, {platform.python_implementation()} {platform.python_version()}",
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "run_seconds": args.seconds,
        "pairing": "one parent and one change run per (workload, seed), back to back; "
        "parent first on odd seeds, change first on even seeds",
        "note": "median/q1/q3 are inclusive quartiles over the pairs; change_wins counts pairs where "
        "the change is better, ties counting for neither; gain_rule_met: the change wins at least "
        "9 in 10 pairs and its median beats the parent's by more than the parent's q3 - q1; "
        "within_bound: the change's median is not worse than the parent's by more than the "
        "BENCHMARK.json bound",
        "end_to_end": {},
    }
    for workload, pairs in workloads:
        report["end_to_end"][workload] = result = paired(args, workload, pairs, specs)
        for name, m in result["metrics"].items():
            print(
                f"{workload} {name}: parent {m['parent']['median']:.4g} [{m['parent']['q1']:.4g}, "
                f"{m['parent']['q3']:.4g}], change {m['change']['median']:.4g} [{m['change']['q1']:.4g}, "
                f"{m['change']['q3']:.4g}], change wins {m['change_wins']}/{result['pairs']}"
            )
        if args.trace_seed is not None:
            report.setdefault(f"per_layer_seed{args.trace_seed}", {})[workload] = per_layer(args, workload)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    checked = list(report["end_to_end"].values())
    checked += [r for key, runs in report.items() if key.startswith("per_layer") for r in runs.values()]
    if any(not all(r["correct"].values()) or any(r["failed"].values()) for r in checked):
        print("a run gave wrong answers or failed operations: its medians and wins mean nothing",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
