"""`scripts/paired_bench.py` checks every --workload spec before it runs anything."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("paired_bench", ROOT / "scripts" / "paired_bench.py")
paired_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_bench)


@pytest.fixture
def runs(monkeypatch):
    """Each perfbench/run.py the script starts, answered with a fixed result line."""
    started = []

    def fake_run(argv, cwd, **kwargs):
        started.append((cwd, argv))
        metrics = {"ops_per_s": {"value": 100.0 + len(started)}}
        for name in ("latency_p50_ms", "latency_p90_ms", "ok_frac", "peak_rss_mb", "setup_s"):
            metrics[name] = {"value": 1.0}
        line = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
        return SimpleNamespace(stdout=json.dumps(line) + "\n")

    monkeypatch.setattr(paired_bench.subprocess, "run", fake_run)
    return started


def argv(tmp_path, *workloads):
    out = ["--parent", str(tmp_path), "--change", str(ROOT), "--out", str(tmp_path / "out.json")]
    for w in workloads:
        out += ["--workload", w]
    return out


@pytest.mark.parametrize(
    "workloads",
    [
        ["cells:1"], ["cells:0"], ["cells:-3"], ["cells:x"], ["cells:"], ["nosuch"],
        ["cells:3", "cells:x"], ["cells:3", "nosuch:3"],
    ],
)
def test_bad_spec_starts_no_run(tmp_path, runs, capsys, workloads):
    with pytest.raises(SystemExit) as exc:
        paired_bench.main(argv(tmp_path, *workloads))
    assert exc.value.code == 2
    assert runs == []
    assert not (tmp_path / "out.json").exists()
    assert "--workload" in capsys.readouterr().err


def test_good_specs_run_in_pairs(tmp_path, runs):
    assert paired_bench.main(argv(tmp_path, "cells:2", "falsify")) == 0
    assert len(runs) == 2 * (2 + 10)
    report = json.loads((tmp_path / "out.json").read_text())
    assert [report["end_to_end"][w]["pairs"] for w in ("cells", "falsify")] == [2, 10]
