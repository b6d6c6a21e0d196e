"""`scripts/paired_bench.py` checks every --workload spec before it runs anything,
and fails when a run gives wrong answers."""

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
    """Each perfbench/run.py the script starts, answered with a fixed result line.

    ``runs.answers`` maps a checkout to the ``correct`` and ``failed`` of its
    result lines (correct, none failed by default).
    """
    started = []
    answers = {}

    def fake_run(argv, cwd, **kwargs):
        started.append((cwd, argv))
        metrics = {"ops_per_s": {"value": 100.0 + len(started), "unit": "1/s"}}
        for name in ("latency_p50_ms", "latency_p90_ms", "ok_frac", "peak_rss_mb", "setup_s"):
            metrics[name] = {"value": 1.0, "unit": "x"}
        correct, failed = answers.get(cwd, (True, 0))
        line = {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}
        return SimpleNamespace(stdout=json.dumps(line) + "\n")

    monkeypatch.setattr(paired_bench.subprocess, "run", fake_run)
    return SimpleNamespace(started=started, answers=answers)


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
    assert runs.started == []
    assert not (tmp_path / "out.json").exists()
    assert "--workload" in capsys.readouterr().err


def test_good_specs_run_in_pairs(tmp_path, runs):
    assert paired_bench.main(argv(tmp_path, "cells:2", "falsify")) == 0
    assert len(runs.started) == 2 * (2 + 10)
    report = json.loads((tmp_path / "out.json").read_text())
    assert [report["end_to_end"][w]["pairs"] for w in ("cells", "falsify")] == [2, 10]


@pytest.mark.parametrize("answer", [(False, 0), (True, 3)])
@pytest.mark.parametrize("trace_seed", [[], ["--trace-seed", "0"]])
def test_wrong_answers_fail_after_writing(tmp_path, runs, capsys, answer, trace_seed):
    runs.answers[ROOT] = answer
    assert paired_bench.main(argv(tmp_path, "cells:2") + trace_seed) == 1
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["end_to_end"]["cells"]["correct"] == {"parent": True, "change": answer[0]}
    assert report["end_to_end"]["cells"]["failed"] == {"parent": 0, "change": 2 * answer[1]}
    assert "median" in report["end_to_end"]["cells"]["metrics"]["ops_per_s"]["change"]
    captured = capsys.readouterr()
    assert f"(correct {answer[0]}, failed {answer[1]})" in captured.out
    assert "wrong answers" in captured.err


def test_only_a_traced_run_is_wrong(tmp_path, runs, monkeypatch):
    # the paired runs are right; the one --trace 1 run of the change fails an operation
    run = paired_bench.run

    def traced_fails(checkout, workload, seed, seconds, trace):
        line = run(checkout, workload, seed, seconds, trace)
        if trace and checkout == ROOT:
            line["failed"] = 1
        return line

    monkeypatch.setattr(paired_bench, "run", traced_fails)
    assert paired_bench.main(argv(tmp_path, "cells:2") + ["--trace-seed", "0"]) == 1
