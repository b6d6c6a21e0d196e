"""Record the canonical outputs of the default seed as the reference.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known to be right: every answer
must pass the invariant checks, or nothing is written.  It stores a digest
per round of each workload, and one per named seed-independent input.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS

# several times the rounds a run of 20 s makes at the commit that set the reference
ROUNDS = {"cells": 45, "membership": 1700, "falsify": 3000, "cli-mix": 200}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    rounds: dict[str, list[str]] = {}
    fixed: dict[str, str] = {}
    for name, wl in WORKLOADS.items():
        checker = run.Checker(name, seed=None)
        checker.fixed = {}  # record afresh, whatever an older reference says
        api, ctx, _ = run.setup(wl, run.DEFAULT_SEED, checker)
        digests = []
        for index in range(ROUNDS[name]):
            queries = wl.make_round(api, ctx, run.round_rng(name, run.DEFAULT_SEED, index), index)
            outcomes = [run.timed(q)[0] for q in queries]
            canon = checker.round(index, queries, outcomes)
            digests.append(run.digest("\x1e".join(canon)))
            for query, text in zip(queries, canon):
                if query.fixed is not None:
                    fixed.setdefault(query.fixed, run.digest(text))
        if checker.failed:
            print("\n".join(checker.mismatches[:20]), file=sys.stderr)
            return 1
        rounds[name] = digests
        print(f"{name}: {len(digests)} rounds, {checker.attempted} queries", file=sys.stderr)
    data = {"seed": run.DEFAULT_SEED, "fixed": dict(sorted(fixed.items())), "rounds": rounds}
    run.REFERENCE.write_text(json.dumps(data, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
