"""Run the benchmark on two checkouts in alternating pairs and write a BENCH_*.json record.

Each of the PAIRS pairs runs `python3 benchmark/run.py` once in each
checkout, one after the other, the first of the pair alternating
between parent and change so that drift on the host falls on both sides
alike. Every workload of BENCHMARK.json runs for its `run_seconds`. The
record holds every run's end-to-end metrics, their median and quartiles
per side, how many pairs the change won per metric, failed operation
counts, the machine's numpy and BLAS builds and the two commits.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --parent-commit 7c4b187 --change-commit HEAD --seed 47 --out BENCH_mining.json
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

# a gain counts only when the change wins at least 9 of 10 alternating pairs
PAIRS = 10
BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout holding benchmark/ and src/")
    ap.add_argument("--change", required=True, help="checkout holding benchmark/ and src/")
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--change-commit", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    return ap.parse_args(argv)


def run_once(checkout, workload, seed, seconds):
    """The metrics and failed count from the last stdout line of one benchmark run."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    return {k: m["value"] for k, m in last["metrics"].items()}, last["failed"]


def summary(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "runs": values}


def blas_build():
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {k: deps.get(k, {}).get("version") for k in ("blas", "lapack")} | {
        "blas_name": deps.get("blas", {}).get("name")}


def main(argv=None):
    args = parse_args(argv)
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    seconds = BENCHMARK["run_seconds"]
    record = {
        "command": f"python3 benchmark/run.py --workload <w> --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0",
        "commits": {"parent": args.parent_commit, "change": args.change_commit},
        "seed": args.seed,
        "pairs": PAIRS,
        "order": "alternating; pair i runs the parent first when i is even",
        "clock": "process CPU time (benchmark/run.py)",
        "blas_threads": 1,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "workloads": {},
    }
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs = {side: [] for side in sides}
        failed = dict.fromkeys(sides, 0)
        for i in range(PAIRS):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                metrics, fails = run_once(sides[side], workload, args.seed, seconds)
                runs[side].append(metrics)
                failed[side] += fails
                print(f"{workload} pair {i} {side}: {json.dumps(metrics)}", file=sys.stderr)
        entry = {"failed": failed, "change_wins": {}}
        for side in sides:
            entry[side] = {k: summary([r[k] for r in runs[side]]) for k in BETTER}
        for k, better in BETTER.items():
            pairs = zip(entry["parent"][k]["runs"], entry["change"][k]["runs"])
            entry["change_wins"][k] = sum((c < p) if better == "lower" else (c > p) for p, c in pairs)
        record["workloads"][workload] = entry
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
