"""Query time by kind, from a span file of a traced benchmark run.

    python3 perfbench/run.py --workload cli-mix --seed 0 --trace 1
    python scripts/span_shares.py perfbench/out/spans-cli-mix-0.csv

A traced run writes one span per line (``id,parent,query,layer,name,
start_ns,end_ns``); the root span of each query has layer ``bench`` and
the query kind as its name.  For each kind the script prints the number of
queries, their total time in ms, that time as a share of all query time,
and the median query time in ms, slowest kinds first.  It only reads the
span file.  A reader that stops early (``| head``) ends the output quietly,
with exit code 0.
"""

from __future__ import annotations

import argparse
import csv
import os
import statistics
import sys
from collections import defaultdict


def query_times(path) -> dict[str, list[float]]:
    """Root-span durations in ms, grouped by query kind."""
    times: dict[str, list[float]] = defaultdict(list)
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["layer"] == "bench":
                times[row["name"]].append((int(row["end_ns"]) - int(row["start_ns"])) / 1e6)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("spans", help="spans-<workload>-<seed>.csv written by perfbench/run.py --trace 1")
    args = parser.parse_args(argv)
    times = query_times(args.spans)
    grand = sum(map(sum, times.values()))
    print(f"{'kind':<28} {'count':>7} {'total_ms':>10} {'share':>7} {'median_ms':>10}")
    for kind, values in sorted(times.items(), key=lambda kv: -sum(kv[1])):
        total = sum(values)
        share = total / grand if grand else 0.0
        print(f"{kind:<28} {len(values):>7} {total:>10.1f} {share:>7.1%} {statistics.median(values):>10.3f}")
    print(f"{'all':<28} {sum(map(len, times.values())):>7} {grand:>10.1f}")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; send the rest, and the flush at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)
