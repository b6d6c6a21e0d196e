"""Regenerate the shipped trace corpus under traces/, written by the CLI's JSON writer."""

from pathlib import Path

from tropica.cli import json_text
from tropica.corpus import SHIPPED_TRACES
from tropica.traces import trace_to_json, verify_trace


def main() -> None:
    out_dir = Path(__file__).resolve().parent.parent / "traces"
    out_dir.mkdir(exist_ok=True)
    for name, build in SHIPPED_TRACES.items():
        trace = build()
        result = verify_trace(trace)
        assert result.accepted, f"{name}: {result.reason}"
        path = out_dir / f"{name}.json"
        path.write_text(json_text(trace_to_json(trace)) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
