"""Benchmark entry point for gamelab.

    python3 perfbench/run.py --workload chi-ladder --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

Run from the repository root; the package is imported from ``src/``.  The
output lists every metric by name with its unit, a ``stamp`` line (Python
version, nproc, revision, seed, sample counts, the tail percentile, the error
rate), and as its last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they are its
per-layer metrics, and the spans of the traced pass are written to
``perfbench/traces/<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def revision() -> str:
    """The git commit if the tree is a repository, else a digest of ``src/``."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        top, _, head = proc.stdout.strip().partition("\n")
        if proc.returncode == 0 and Path(top).resolve() == ROOT:
            return head
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def declared_metrics() -> dict:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]},
        "workloads": [w["name"] for w in doc["workloads"]],
        "run_seconds": doc["run_seconds"],
    }


def run_one(args, declared) -> int:
    res = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    section = "per_layer" if args.trace else "end_to_end"
    values = res[section]
    missing = sorted(set(declared[section]) - set(values))
    if missing:
        raise RuntimeError(f"harness does not compute {missing}")
    checks = res["checks"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    metrics = {}
    for name, unit in declared[section].items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:<34} {values[name]:.6g} {unit}")
    for name, value in res["raw"].items():
        print(f"  {'raw.' + name:<34} {value:.6g} s (not scaled to the reference)")
    error_rate = checks.failed / checks.attempted
    print(f"  {'error_rate':<34} {error_rate:.6g} ({checks.failed} failed of {checks.attempted})")
    for what in checks.failures[:20]:
        print(f"  FAILED {what}")
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "revision": revision(),
        "samples": res["samples"],
        "raw_seconds": res["raw"],
        "error_rate": error_rate,
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    if res["spans"] is not None:
        out = HERE / "traces" / f"{args.workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"stamp": stamp, "spans": res["spans"]}) + "\n")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args, declared) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in declared["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        doc = json.loads(lines[-1])
        combined["correct"] &= doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        for metric, entry in doc["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gamelab" / "__init__.py").is_file():
        print(f"error: no gamelab package under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    if args.seconds is None:
        args.seconds = declared["run_seconds"]
    if args.workload != "all" and args.workload not in declared["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; choose from {declared['workloads']} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args, declared)
    return run_one(args, declared)


if __name__ == "__main__":
    raise SystemExit(main())
