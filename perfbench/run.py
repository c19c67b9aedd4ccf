"""threatbench benchmark: end-to-end domain runs, and a traced per-layer run.

    python3 perfbench/run.py --workload {malware,ueba,phishing} [--seed 42]
                             [--seconds 20] [--trace 0|1]

Run from the root of a checkout. Every repetition spawns one fresh child
process (perfbench/child.py) that runs `threatbench run <domain> --seed <seed>
--out <fresh dir>` at the default config, from the checkout's `src/`. The loop
is closed with one client: one child at a time.

--trace 0  repeats untraced runs until --seconds have passed (at least two)
           and reports the end-to-end metrics of BENCHMARK.json.
--trace 1  makes a traced, an untraced and a traced run (perfbench/tracer.py)
           and reports the per-layer metrics of BENCHMARK.json.

Each mode first spawns set-up probes, children that only import the package.
Every run's output tree is digested and checked with `threatbench evaluate`.
A run fails if it exits non-zero, fails an evaluation band, or its digest
differs from that of the other runs. The last stdout line is the JSON result; the full record, with the
environment, goes to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
CHILD = BENCH_DIR / "child.py"

SETUP_PROBES = 3  # set-up samples per invocation, after one warm-up probe
MIN_RUNS = 2  # so that every invocation compares output digests between runs
CHILD_TIMEOUT_S = 170


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _spawn(args, log_path) -> tuple[float, int | None]:
    """Runs one child to completion; returns (spawn time, exit code, or None
    if it was killed for running past CHILD_TIMEOUT_S)."""
    with open(log_path, "w", encoding="utf-8") as log:
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *args], stdout=log, stderr=subprocess.STDOUT, env=_child_env(),
                cwd=ROOT, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return t_spawn, None
    return t_spawn, proc.returncode


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _probe(work: Path, i: int) -> dict:
    result_path = work / f"probe{i}.json"
    t_spawn, rc = _spawn([str(CHILD), str(result_path), "--probe"], work / f"probe{i}.log")
    out = _read_json(result_path)
    if rc != 0 or out is None:
        raise RuntimeError(f"set-up probe failed (exit {rc}); see {work / f'probe{i}.log'}")
    out["setup_s"] = out["t_imported"] - t_spawn
    return out


def _tree_digest(root: Path) -> str:
    """sha256 over (relative path, file sha256) of every file under root."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _quality(report: dict) -> tuple[float, float]:
    models = report["models"].values()
    return min(m["roc_auc"] for m in models), min(m["per_class"]["1"]["f1"] for m in models)


def _domain_run(work: Path, i: int, workload: str, seed: int, traced: bool) -> dict:
    """One repetition: spawn, time, digest, evaluate; removes its output tree."""
    run_dir = work / f"run{i}"
    shutil.rmtree(run_dir, ignore_errors=True)
    result_path = work / f"run{i}.json"
    args = [str(CHILD), str(result_path), *(["--trace"] if traced else []),
            "--", "run", workload, "--seed", str(seed), "--out", str(run_dir)]
    t_spawn, rc = _spawn(args, work / f"run{i}.log")
    out = _read_json(result_path) or {}
    rec = {"traced": traced, "exit": rc}
    if rc == 0 and "run_s" in out:
        rec.update(
            setup_s=out["t_imported"] - t_spawn, run_s=out["run_s"], cpu_s=out["cpu_s"],
            peak_rss_mb=out["peak_rss_mb"], digest=_tree_digest(run_dir),
        )
        _, eval_rc = _spawn(["-m", "threatbench.cli", "evaluate", "--report", str(run_dir / "report.json")],
                            work / f"run{i}.evaluate.log")
        rec["evaluate_exit"] = eval_rc
        rec["auc_min"], rec["threat_f1_min"] = _quality(_read_json(run_dir / "report.json"))
        if traced:
            rec["trace"] = out["trace"]
    shutil.rmtree(run_dir, ignore_errors=True)
    return rec


def _check_runs(reps) -> str | None:
    """Marks each run ok or not and returns the reference digest: the most
    common one, so a single run that differs is the one that fails."""
    digests = [r["digest"] for r in reps if "digest" in r]
    reference = max(digests, key=digests.count) if digests else None
    for r in reps:
        r["ok"] = r["exit"] == 0 and r.get("evaluate_exit") == 0 and r.get("digest") == reference
    return reference


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _layer_metrics(traced_reps, untraced_reps, names) -> tuple[dict, list, list]:
    """Per-layer values: the median over traced runs for times, exact counts
    from the first traced run (listing any count the second run disagrees on)."""
    from tracer import aggregate

    aggs = [aggregate(r["trace"]) for r in traced_reps]
    first, second = ({f"{fn}.{k}": v for fn, stats in a.items() for k, v in stats.items() if k not in ("s", "self_s")} for a in aggs)
    mismatches = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))

    def stat(fn, key):
        values = [a.get(fn, {}).get(key, 0) for a in aggs]
        return statistics.median(values) if key in ("s", "self_s") else values[0]

    values = {}
    for name in names:
        fn, key = name.rsplit(".", 1)
        if name == "process.cpu_s":
            values[name] = statistics.median(r["cpu_s"] for r in untraced_reps)
        elif name == "trace.overhead_s":
            values[name] = statistics.median(r["run_s"] for r in traced_reps) - statistics.median(r["run_s"] for r in untraced_reps)
        elif name == "forest.fit_gradient_boosting.useful_round_frac":
            rounds = stat("forest.fit_gradient_boosting", "rounds")
            values[name] = stat("forest.fit_gradient_boosting", "best_iteration") / rounds if rounds else 0.0
        elif name == "neural.lstm_loss.fit_share":
            fit_s = stat("neural.fit_lstm_autoencoder", "s")
            values[name] = stat("neural.lstm_loss", "s") / fit_s if fit_s else 0.0
        else:
            values[name] = stat(fn, key)
    return values, mismatches, aggs


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "threatbench" / "cli.py").is_file():
        print(f"no threatbench sources under {SRC}", file=sys.stderr)
        return 2
    work = OUT / "work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    _probe(work, 0)  # warm-up: compiles bytecode and fills the page cache
    probes = [_probe(work, i) for i in range(1, SETUP_PROBES + 1)]
    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": probes[0]["numpy"],
        "blas": probes[0]["blas"],
        "commit": _commit(),
        "source_sha256": _tree_digest(SRC / "threatbench"),
    }

    reps = []
    t0 = time.perf_counter()
    if args.trace:
        reps = [_domain_run(work, i, args.workload, args.seed, traced=i != 1) for i in range(3)]
    else:
        while len(reps) < MIN_RUNS or time.perf_counter() - t0 < args.seconds:
            reps.append(_domain_run(work, len(reps), args.workload, args.seed, traced=False))
    digest = _check_runs(reps)
    ok = [r for r in reps if r["ok"]]
    failed = len(reps) - len(ok)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "output_sha256": digest,
        "attempted": len(reps), "failed": failed, "failed_frac": failed / len(reps),
        "setup_probes_s": [p["setup_s"] for p in probes],
    }
    correct = failed == 0
    if ok:
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            untraced = [r for r in ok if not r["traced"]]
            traced = [r for r in ok if r["traced"]]
            if untraced and len(traced) == 2:
                values, mismatches, aggs = _layer_metrics(traced, untraced, names)
                record["count_mismatches"] = mismatches
                record["layers"] = aggs
                correct = correct and not mismatches
            else:
                values, correct = {}, False
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            values = {
                "run_s": statistics.median(r["run_s"] for r in ok),
                "setup_s": statistics.median([p["setup_s"] for p in probes] + [r["setup_s"] for r in ok]),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
                "auc_min": ok[0]["auc_min"],
                "threat_f1_min": ok[0]["threat_f1_min"],
                "ok_frac": len(ok) / len(reps),
            }
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units if name in values}
    else:
        metrics = {}
    record["runs"] = [{k: v for k, v in r.items() if k != "trace"} for r in reps]
    record["metrics"] = metrics
    record["correct"] = correct

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    results_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for i, r in enumerate(record["runs"]):
        shown = ", ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}" for k, v in r.items() if k != "digest")
        print(f"run {i}: {shown}")
    print(f"results: {results_path.relative_to(ROOT)}")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
