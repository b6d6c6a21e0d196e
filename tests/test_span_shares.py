"""scripts/span_shares.py ends quietly when its reader stops early."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "span_shares.py"


def test_closed_reader_ends_without_traceback(tmp_path):
    # piped into a reader that exits at once, this ended in a BrokenPipeError traceback, exit 1
    spans = tmp_path / "spans.csv"
    lines = ["id,parent,query,layer,name,start_ns,end_ns"]
    lines += [f"{i},,{i},bench,kind{i % 7},0,{1000 * (i + 1)}" for i in range(200)]
    spans.write_text("\n".join(lines) + "\n")
    read_end, write_end = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPT), str(spans)], stdout=write_end, stderr=subprocess.PIPE, text=True
    )
    os.close(write_end)
    os.close(read_end)  # the reader exits before the script writes a line
    _, err = proc.communicate(timeout=30)
    assert proc.returncode == 0
    assert "Traceback" not in err


def test_full_output_is_unchanged(tmp_path):
    spans = tmp_path / "spans.csv"
    spans.write_text(
        "id,parent,query,layer,name,start_ns,end_ns\n"
        "0,,0,bench,slow,0,3000000\n"
        "1,0,0,primes,leading_class,0,1000000\n"
        "2,,1,bench,fast,0,1000000\n"
    )
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(spans)], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["kind", "slow", "fast", "all"]
    assert lines[1].split() == ["slow", "1", "3.0", "75.0%", "3.000"]
