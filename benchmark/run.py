"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 benchmark/run.py --workload gallery --seed 3 --seconds 30 --trace 0

The program is imported from src/ beside this directory and runs in this
one process, with BLAS and OpenMP pinned to one thread. Set-up (data
synthesis, checkpoint preparation and a small warm-up) runs SETUP_REPS
times. Then whole rounds of the workload's operations run until the next
round would end past --seconds of wall time, and each round's outputs are
checked outside the timed part.

Times are the process's CPU time (user + system). The process runs one
thread and waits on nothing, so on an unshared machine this is its wall
time; unlike wall time it leaves out the time the host takes the virtual
CPU away, which on a shared machine spreads wall times between runs.

With --trace 0 the end-to-end metrics are medians over the rounds. With
--trace 1 rounds alternate between plain and traced (layer spans
installed), starting plain; the per-layer metrics are means per traced
round, and trace.overhead_s is the traced minus the plain median round
time.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPS = 3
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# name -> unit; every workload reports all of them
END_TO_END = {
    "setup_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "ops/s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_program():
    """Import the program from the checkout's src/; returns the import's CPU seconds."""
    src = ROOT / "src"
    if not (src / "mcretrieval" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program at {src / 'mcretrieval'}")
    start = time.process_time()
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import workloads  # noqa: F401  (imports numpy and the program)
    return time.process_time() - start


def run_round(workload):
    """One round: (wall s, cpu s, {op: output}, {op: cpu s}, {op: error})."""
    outputs, times, errors = {}, {}, {}
    wall, cpu = time.perf_counter(), time.process_time()
    for op, fn in workload.ops():
        t = time.process_time()
        try:
            outputs[op] = fn()
        except (Exception, SystemExit) as e:  # a failed operation, counted by the caller
            errors[op] = f"{type(e).__name__}: {e}"
        times[op] = time.process_time() - t
    return time.perf_counter() - wall, time.process_time() - cpu, outputs, times, errors


def check_round(workload, outputs, errors):
    """{op: problems} for each operation that failed to run or whose output is wrong."""
    problems = {op: [msg] for op, msg in errors.items()}
    for op, output in outputs.items():
        try:
            found = workload.check(op, output)
        except Exception as e:  # an output the check could not even read
            found = [f"check raised {type(e).__name__}: {e}"]
        if found:
            problems[op] = found
    return problems


def measure(wl, seconds, tracer, log):
    """Run and check whole rounds; returns the figures the report is built from."""
    got = {"plain": [], "traced": [], "wall": [], "op_times": {}, "op_rates": {},
           "rates": [], "attempted": 0, "failed": 0, "rss_mb": 0.0}
    while True:
        gc.collect()
        tracing = tracer is not None and len(got["wall"]) % 2 == 1
        if tracing:
            tracer.install()
        try:
            wall, cpu, outputs, times, errors = run_round(wl)
        finally:
            if tracing:
                tracer.uninstall()
        got["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        got["traced" if tracing else "plain"].append(cpu)
        got["wall"].append(wall)
        problems = check_round(wl, outputs, errors)
        got["attempted"] += len(times)
        got["failed"] += len(problems)
        for op, found in problems.items():
            for msg in found:
                log(f"FAILED {wl.name} {op}: {msg}")
        if not errors:
            work = wl.work(outputs)
            got["rates"].append(sum(work.values()) / cpu)
            for op, units in work.items():
                got["op_rates"].setdefault(op, []).append(units / times[op])
        for op, t in times.items():
            got["op_times"].setdefault(op, []).append(t)
        if (sum(got["wall"]) + statistics.median(got["wall"]) > seconds
                and (tracer is None or got["traced"])):
            return got


def layer_metrics(tracer, per_layer_names, plain, traced):
    n = len(traced)
    values = {}
    for name, (total, own) in tracer.layer_seconds().items():
        values[f"{name}_s"] = total / n
        values[f"{name}_self_s"] = own / n
    for key, count in tracer.counts.items():
        values[key] = count / n
    computed = tracer.counts["uncertainty.passes_computed"]
    values["uncertainty.useful_pass_ratio"] = (
        tracer.counts["uncertainty.passes_distinct"] / computed if computed else 0.0)
    values["trace.coverage"] = tracer.root_seconds() / sum(traced)
    values["trace.rounds"] = n
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_names}


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_s = load_program()
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"have {sorted(workloads.WORKLOADS)}")
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setups = []
        for _ in range(SETUP_REPS):
            start = time.process_time()
            wl.setup()
            setups.append(time.process_time() - start)
        tracer = tracing.Tracer() if args.trace else None
        got = measure(wl, args.seconds, tracer, lambda msg: print(msg, file=sys.stderr))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        values = {
            "setup_s": import_s + statistics.median(setups),
            "total_s": statistics.median(got["plain"]),
            "peak_rss_mb": got["rss_mb"],
            "ops_per_s": statistics.median(got["rates"]) if got["rates"] else 0.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        metrics = layer_metrics(tracer, tracing.per_layer_names(), got["plain"], got["traced"])
        tracer.write(work_root / f"trace-{args.workload}-seed{args.seed}.json")

    print(f"workload={args.workload} seed={args.seed} import_cpu_s={import_s:.3f} "
          f"setups_cpu_s={[round(s, 3) for s in setups]} blas_threads=1 nproc={os.cpu_count()}")
    print(f"rounds plain_cpu_s={[round(t, 4) for t in got['plain']]} "
          f"traced_cpu_s={[round(t, 4) for t in got['traced']]} "
          f"wall_s={[round(t, 4) for t in got['wall']]}")
    for op, ts in got["op_times"].items():
        rate = statistics.median(got["op_rates"].get(op) or [0.0])
        print(f"op {op}: median {statistics.median(ts):.4f} cpu s, {rate:.6g} {wl.unit}/s "
              f"over {len(ts)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": got["failed"] == 0, "attempted": got["attempted"],
                      "failed": got["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
