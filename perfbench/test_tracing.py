"""Two traced runs of the same rounds repeat every count exactly.

    python3 -m pytest perfbench/test_tracing.py -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROUNDS = {"cells": 1, "membership": 10, "falsify": 10, "cli-mix": 2}
SEED = 7


def traced_counts(name: str) -> dict:
    sys.path.insert(0, str(run.SRC))
    wl = WORKLOADS[name]
    checker = run.Checker(name, SEED)
    api, ctx, _ = run.setup(wl, SEED, checker)
    metrics = run.traced(wl, api, ctx, SEED, ROUNDS[name], checker)
    assert checker.failed == 0, checker.mismatches[:5]
    return {k: v for k, (v, unit) in metrics.items() if unit != "s" and k != "trace_overhead"}


@pytest.mark.parametrize("name", sorted(ROUNDS))
def test_traced_counts_repeat(name):
    first = traced_counts(name)
    assert first == traced_counts(name)
    assert any(first[f"{layer}.calls"] for layer in ("primes", "cli", "varieties"))
