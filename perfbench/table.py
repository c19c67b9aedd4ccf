"""Prints the ROADMAP baseline table from benchmark results files.

    python3 perfbench/table.py [RESULTS_JSON ...]

With no arguments it reads every file in perfbench/out/results/. Per workload,
`run_s` is the median over the untraced (--trace 0) results given, and the top
layers are the span names with the most self time in the traced (--trace 1)
results, as the median over their traced runs.
"""

import json
import statistics
import sys
from pathlib import Path

TOP_LAYERS = 4


def main(argv) -> int:
    paths = [Path(p) for p in argv] or sorted((Path(__file__).resolve().parent / "out" / "results").glob("*.json"))
    run_s, self_s = {}, {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        workload = record["workload"]
        if record["trace"]:
            for agg in record.get("layers", []):
                for name, stats in agg.items():
                    self_s.setdefault(workload, {}).setdefault(name, []).append(stats["self_s"])
        elif "run_s" in record["metrics"]:
            run_s.setdefault(workload, []).append(record["metrics"]["run_s"]["value"])
    if not run_s and not self_s:
        print("no results files", file=sys.stderr)
        return 1
    print("| domain | end to end | top self-time layers (s) |")
    print("| --- | --- | --- |")
    for workload in sorted(set(run_s) | set(self_s)):
        values = run_s.get(workload)
        e2e = f"{statistics.median(values):.1f} s (median of {len(values)})" if values else "-"
        layers = sorted(((statistics.median(v), name) for name, v in self_s.get(workload, {}).items()), reverse=True)
        top = ", ".join(f"{name} {s:.2f}" for s, name in layers[:TOP_LAYERS]) or "-"
        print(f"| {workload} | {e2e} | {top} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
